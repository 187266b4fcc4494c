"""Benchmark discrete-time systems, simulation, and an exact lift oracle.

Four map families cover the test surface: a linear map, a planar rotation
(optionally observed through its first coordinate only), the quadratic system
x1+ = mu*x1, x2+ = lam*x2 + c*x1^2 whose dynamics close on a small monomial
set, and a linear map driven by a seeded piecewise-constant input.

``exact_lift_oracle`` composes the map with each monomial of a polynomial
dictionary symbolically and re-expands, producing the true finite-dimensional
operator on the largest invariant monomial subset. It shares nothing with the
regression-based fits, so it serves as an independent reference for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .data import Trajectory
from .errors import ConfigError, DivergenceError, ShapeError

if TYPE_CHECKING:
    from .observables import PolynomialDictionary

_DIVERGENCE_LIMIT = 1e12
# largest input scale whose draw range [-scale, scale] has a finite width
_MAX_INPUT_SCALE = np.finfo(float).max / 2


@dataclass(frozen=True)
class SystemSpec:
    """A benchmark system plus the simulation request (initial state, steps).

    ``a`` is the step matrix of a linear, forced linear or rotation system
    (a rotation by theta is stored as its matrix). ``observe`` applies to a
    rotation only, ``mu``, ``lam`` and ``c`` to the quadratic system, and
    ``b_in`` and ``input_*`` to the forced one. Use the factory functions
    (``linear_system`` etc.) rather than filling fields by hand; they
    validate the per-kind parameters.
    """

    kind: str
    initial_state: np.ndarray
    steps: int
    a: np.ndarray | None = None
    observe: str = "full"
    mu: float | None = None
    lam: float | None = None
    c: float | None = None
    b_in: np.ndarray | None = None
    input_seed: int = 0
    input_hold: int = 5
    input_scale: float = 1.0

    @property
    def state_dim(self) -> int:
        return int(np.asarray(self.initial_state).size)


def _check_steps(steps):
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ConfigError(f"steps must be an integer >= 1, got {steps}")


def _vector(x0, name="initial state") -> np.ndarray:
    arr = np.asarray(x0, dtype=float).ravel()
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} must be a non-empty finite vector")
    return arr


def _matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} must be a finite matrix")
    return arr


def linear_system(a, x0, steps: int) -> SystemSpec:
    """x+ = A x."""
    a = _matrix(a, "A")
    x0 = _vector(x0)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != x0.size:
        raise ShapeError(f"A must be square and match x0; got {a.shape} vs {x0.size}")
    _check_steps(steps)
    return SystemSpec(kind="linear", initial_state=x0, steps=int(steps), a=a)


def rotation_system(theta: float, steps: int, x0=(1.0, 0.0), observe: str = "full") -> SystemSpec:
    """Planar rotation by theta per step; observe all of x or only x1."""
    if not (np.isfinite(theta) and abs(theta) < np.pi):
        raise ConfigError(f"rotation angle must satisfy |theta| < pi, got {theta}")
    if observe not in ("full", "first"):
        raise ConfigError(f"observe must be 'full' or 'first', got {observe!r}")
    x0 = _vector(x0)
    if x0.size != 2:
        raise ShapeError("rotation state is 2-dimensional")
    _check_steps(steps)
    c, s = np.cos(float(theta)), np.sin(float(theta))
    return SystemSpec(kind="rotation", initial_state=x0, steps=int(steps),
                      a=np.array([[c, -s], [s, c]]), observe=observe)


def quadratic_system(mu: float, lam: float, c: float, x0, steps: int) -> SystemSpec:
    """x1+ = mu*x1, x2+ = lam*x2 + c*x1^2 (invariant on {1, x1, x2, x1^2})."""
    for name, val in (("mu", mu), ("lam", lam)):
        if not (np.isfinite(val) and abs(val) <= 1.0):
            raise ConfigError(f"|{name}| must be <= 1, got {val}")
    if not np.isfinite(c):
        raise ConfigError(f"c must be finite, got {c}")
    x0 = _vector(x0)
    if x0.size != 2:
        raise ShapeError("quadratic system state is 2-dimensional")
    _check_steps(steps)
    return SystemSpec(kind="quadratic_invariant", initial_state=x0, steps=int(steps),
                      mu=float(mu), lam=float(lam), c=float(c))


def forced_linear_system(a, b_in, x0, steps: int, input_seed: int = 0,
                         input_hold: int = 5, input_scale: float = 1.0) -> SystemSpec:
    """x+ = A x + B u with a seeded piecewise-constant pseudo-random input."""
    a = _matrix(a, "A")
    b_in = _matrix(b_in, "B")
    if b_in.ndim == 1:
        b_in = b_in[:, None]
    x0 = _vector(x0)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != x0.size:
        raise ShapeError(f"A must be square and match x0; got {a.shape} vs {x0.size}")
    if b_in.shape[0] != x0.size:
        raise ShapeError(f"B rows must match the state dimension {x0.size}")
    if input_hold < 1:
        raise ConfigError(f"input_hold must be >= 1, got {input_hold}")
    if input_seed < 0:
        raise ConfigError(f"input_seed must be >= 0, got {input_seed}")
    if not 0.0 <= input_scale <= _MAX_INPUT_SCALE:  # NaN fails too
        raise ConfigError(
            f"input_scale must lie in [0, {_MAX_INPUT_SCALE:.6g}], got {input_scale}"
        )
    _check_steps(steps)
    return SystemSpec(kind="forced_linear", initial_state=x0, steps=int(steps),
                      a=a, b_in=b_in, input_seed=int(input_seed),
                      input_hold=int(input_hold), input_scale=float(input_scale))


def _piecewise_constant_inputs(spec: SystemSpec, samples: int) -> np.ndarray:
    rng = np.random.default_rng(spec.input_seed)
    n_u = spec.b_in.shape[1]
    blocks = -(-samples // spec.input_hold)  # ceil
    levels = rng.uniform(-spec.input_scale, spec.input_scale, size=(blocks, n_u))
    return np.repeat(levels, spec.input_hold, axis=0)[:samples]


def simulate(spec: SystemSpec) -> Trajectory:
    """Iterate the map for ``spec.steps`` transitions and record observations.

    The trajectory has steps + 1 samples and dt = 1. A forced system also
    records its input sequence (the seed lands in the trajectory metadata).
    Blow-up past 1e12 or to NaN in any coordinate raises a divergence error.
    """
    samples = spec.steps + 1
    state = spec.initial_state.copy()
    inputs = None
    meta = {"system": spec.kind}

    if spec.kind in ("linear", "rotation"):
        step = lambda x, t: spec.a @ x
    elif spec.kind == "quadratic_invariant":
        step = lambda x, t: np.array([spec.mu * x[0], spec.lam * x[1] + spec.c * x[0] ** 2])
    elif spec.kind == "forced_linear":
        inputs = _piecewise_constant_inputs(spec, samples)
        step = lambda x, t: spec.a @ x + spec.b_in @ inputs[t]
        meta["input_seed"] = spec.input_seed
    else:
        raise ConfigError(f"unknown system kind {spec.kind!r}")

    path = np.empty((samples, state.size))
    path[0] = state
    # the divergence check reports overflow and inf - inf; warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(spec.steps):
            state = step(state, t)
            if not np.max(np.abs(state)) <= _DIVERGENCE_LIMIT:  # NaN fails too
                raise DivergenceError(f"trajectory diverged at step {t + 1}")
            path[t + 1] = state

    if spec.kind == "rotation" and spec.observe == "first":
        states = path[:, :1]
    else:
        states = path
    return Trajectory(dt=1.0, states=states, inputs=inputs, meta=meta)


# ---------------------------------------------------------- exact lift oracle

# A polynomial in d variables is a dict {exponent tuple: coefficient}.


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


def _poly_pow(p: dict, n: int, nvars: int) -> dict:
    out = {(0,) * nvars: 1.0}
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def _map_polynomials(spec: SystemSpec) -> list[dict]:
    """Each state coordinate of the map as a polynomial in the current state."""
    d = spec.state_dim
    if spec.kind == "rotation" and spec.observe != "full":
        raise ConfigError("the lift oracle needs the full rotation state")
    if spec.kind in ("linear", "rotation"):
        a = spec.a
    elif spec.kind == "quadratic_invariant":
        return [
            {(1, 0): spec.mu},
            {(0, 1): spec.lam, (2, 0): spec.c},
        ]
    else:
        raise ConfigError(f"no exact lift for system kind {spec.kind!r}")
    polys = []
    for i in range(d):
        poly = {}
        for j in range(d):
            if a[i, j] != 0.0:
                e = tuple(1 if k == j else 0 for k in range(d))
                poly[e] = a[i, j]
        polys.append(poly if poly else {(0,) * d: 0.0})
    return polys


@dataclass(frozen=True)
class ExactLift:
    """The true operator on an invariant monomial subset of a dictionary.

    ``matrix`` satisfies theta_S(F(x)) = matrix @ theta_S(x) exactly, where
    theta_S keeps the dictionary entries listed in ``indices``/``names``.
    """

    matrix: np.ndarray
    indices: np.ndarray
    names: tuple[str, ...] = field(default=())


def exact_lift_oracle(spec: SystemSpec, dictionary: PolynomialDictionary) -> ExactLift | None:
    """Compose the map with each monomial and re-expand in the dictionary basis.

    Monomials whose image needs exponents outside the dictionary are dropped,
    iterating until the remaining subset is invariant. Returns None
    (unavailable) if any state coordinate itself drops out, since the lift
    then says nothing about the observables that matter.
    """
    # imported here so that simulating a system does not load the dictionaries
    from .observables import PolynomialDictionary

    if not isinstance(dictionary, PolynomialDictionary):
        raise ConfigError("the exact lift oracle needs a polynomial dictionary")
    if dictionary.input_dim != spec.state_dim:
        raise ShapeError(
            f"dictionary dimension {dictionary.input_dim} does not match state "
            f"dimension {spec.state_dim}"
        )
    maps = _map_polynomials(spec)
    nvars = spec.state_dim
    exps = [tuple(int(v) for v in row) for row in dictionary.exponents]
    position = {e: i for i, e in enumerate(exps)}

    # image of each monomial under composition with the map
    images = []
    for e in exps:
        poly = {(0,) * nvars: 1.0}
        for var, power in enumerate(e):
            if power:
                poly = _poly_mul(poly, _poly_pow(maps[var], power, nvars))
        images.append(poly)

    keep = set(range(len(exps)))
    while True:
        exps_kept = {exps[i] for i in keep}
        open_rows = {
            i for i in keep
            if any(term not in exps_kept and abs(c) > 0 for term, c in images[i].items())
        }
        if not open_rows:
            break
        keep -= open_rows

    state_rows = {position[e] for e in exps if sum(e) == 1}
    if not state_rows <= keep:
        return None

    order = sorted(keep)
    local = {exps[i]: r for r, i in enumerate(order)}
    matrix = np.zeros((len(order), len(order)))
    for r, i in enumerate(order):
        for term, coeff in images[i].items():
            matrix[r, local[term]] = coeff
    # undo/apply basis weights so the operator acts on the weighted entries
    w = dictionary.weights[order]
    matrix = (w[:, None] * matrix) / w[None, :]
    return ExactLift(
        matrix=matrix,
        indices=np.array(order, dtype=int),
        names=tuple(dictionary.names[i] for i in order),
    )
