"""Benchmark discrete-time systems, simulation, and an exact lift oracle.

Every system is one map, x+ = A x + B u + c x1^2 e2: a linear part, an
input term present only for a forced system, and a coupling that adds
c*x1^2 to x2 (nonzero only for the quadratic system). The four factories
fill it in: a linear map, a planar rotation (its matrix, optionally observed
through the first coordinate only), the quadratic system x1+ = mu*x1,
x2+ = lam*x2 + c*x1^2 (A = diag(mu, lam)), whose dynamics close on a small
monomial set, and a linear map driven by a seeded piecewise-constant input.

``exact_lift_oracle`` composes the map with each monomial of a polynomial
dictionary symbolically and re-expands, producing the true finite-dimensional
operator on the largest invariant monomial subset. It shares nothing with the
regression-based fits, so it serves as an independent reference for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import TYPE_CHECKING

import numpy as np

from .data import Trajectory, _as_2d, _finite_array, _freeze
from .errors import ConfigError, DivergenceError, ShapeError

if TYPE_CHECKING:
    from .observables import PolynomialDictionary

_DIVERGENCE_LIMIT = 1e12
_BLOCK_STEPS = 256  # steps that simulate takes between two divergence checks
# largest input scale whose draw range [-scale, scale] has a finite width
_MAX_INPUT_SCALE = np.finfo(float).max / 2


@dataclass(frozen=True)
class SystemSpec:
    """A benchmark system plus the simulation request (initial state, steps).

    The map is x+ = a @ x + b_in @ u + c * x1^2 e2 for every system: ``a``
    is the linear map (a rotation by theta is stored as its matrix, the
    quadratic system as diag(mu, lam)), ``b_in`` is None unless the system
    is forced, and ``c`` is 0.0 unless it is quadratic. ``observe`` is
    "full", or "first" to record x1 only; ``input_*`` draw a forced input.

    A spec checks every field when built (a bad array is a ShapeError, a bad
    setting a ConfigError) and stores its arrays read-only, so ``simulate``
    and ``exact_lift_oracle`` trust any spec. The factories (``linear_system``
    etc.) check only the rotation angle and the quadratic rates.
    """

    initial_state: np.ndarray
    steps: int
    a: np.ndarray
    observe: str = "full"
    c: float = 0.0
    b_in: np.ndarray | None = None
    input_seed: int = 0
    input_hold: int = 5
    input_scale: float = 1.0

    def __post_init__(self):
        steps = _integer(self.steps, "steps", 1)
        x0 = _finite_array(self.initial_state, "initial_state", 1)
        n = x0.size
        a = _finite_array(self.a, "a", 2)
        if a.shape != (n, n):
            raise ShapeError(f"a must be {n} x {n} for an initial_state of size {n}, "
                             f"got shape {a.shape}")
        if self.observe not in ("full", "first"):
            raise ConfigError(f"observe must be 'full' or 'first', got {self.observe!r}")
        c = float(_finite_array(self.c, "c", 0))
        if c and n < 2:
            raise ConfigError(f"c couples x1^2 into x2, so it needs 2 or more states, got {n}")
        b_in = None if self.b_in is None else _as_2d(self.b_in, "b_in")
        if b_in is not None and b_in.shape[0] != n:
            raise ShapeError(f"b_in must have a row per state of initial_state ({n}), "
                             f"got shape {b_in.shape}")
        seed = _integer(self.input_seed, "input_seed", 0)
        hold = _integer(self.input_hold, "input_hold", 1)
        scale = self.input_scale
        if not (isinstance(scale, Real) and 0.0 <= scale <= _MAX_INPUT_SCALE):  # NaN fails
            raise ConfigError(
                f"input_scale must lie in [0, {_MAX_INPUT_SCALE:.6g}], got {scale}")
        for name, value in (
                ("initial_state", _freeze(x0)), ("steps", steps), ("a", _freeze(a)), ("c", c),
                ("b_in", None if b_in is None else _freeze(b_in)), ("input_seed", seed),
                ("input_hold", hold), ("input_scale", float(scale))):
            object.__setattr__(self, name, value)

    @property
    def state_dim(self) -> int:
        return int(self.initial_state.size)


def _integer(value, name: str, least: int) -> int:
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)


def linear_system(a, x0, steps: int) -> SystemSpec:
    """x+ = A x."""
    return SystemSpec(initial_state=x0, steps=steps, a=a)


def rotation_system(theta: float, steps: int, x0=(1.0, 0.0), observe: str = "full") -> SystemSpec:
    """Planar rotation by theta per step; observe all of x or only x1."""
    if not (isinstance(theta, Real) and abs(theta) < np.pi):  # NaN fails
        raise ConfigError(
            f"rotation angle must be a real number with |theta| < pi, got {theta!r}")
    c, s = np.cos(float(theta)), np.sin(float(theta))
    return SystemSpec(initial_state=x0, steps=steps, a=np.array([[c, -s], [s, c]]),
                      observe=observe)


def quadratic_system(mu: float, lam: float, c: float, x0, steps: int) -> SystemSpec:
    """x1+ = mu*x1, x2+ = lam*x2 + c*x1^2 (invariant on {1, x1, x2, x1^2})."""
    for name, val in (("mu", mu), ("lam", lam)):
        if not (isinstance(val, Real) and abs(val) <= 1.0):  # NaN fails
            raise ConfigError(f"{name} must be a real number with |{name}| <= 1, got {val!r}")
    return SystemSpec(initial_state=x0, steps=steps, a=np.diag([float(mu), float(lam)]), c=c)


def forced_linear_system(a, b_in, x0, steps: int, input_seed: int = 0,
                         input_hold: int = 5, input_scale: float = 1.0) -> SystemSpec:
    """x+ = A x + B u with a seeded piecewise-constant pseudo-random input."""
    return SystemSpec(initial_state=x0, steps=steps, a=a, b_in=b_in, input_seed=input_seed,
                      input_hold=input_hold, input_scale=input_scale)


def _piecewise_constant_inputs(spec: SystemSpec, samples: int) -> np.ndarray:
    rng = np.random.default_rng(spec.input_seed)
    n_u = spec.b_in.shape[1]
    blocks = -(-samples // spec.input_hold)  # ceil
    levels = rng.uniform(-spec.input_scale, spec.input_scale, size=(blocks, n_u))
    return np.repeat(levels, min(spec.input_hold, samples), axis=0)[:samples]


def simulate(spec: SystemSpec) -> Trajectory:
    """Iterate the map for ``spec.steps`` transitions and record observations.

    The trajectory has steps + 1 samples and dt = 1. A forced system also
    records its input sequence, drawn from ``spec.input_seed``.
    Blow-up past 1e12 or to NaN in any coordinate raises a divergence error
    that names the first such step. The check runs once per block of
    ``_BLOCK_STEPS`` (256) steps, so fewer than that many steps are computed
    past a divergence before it is reported. A trajectory too large to
    allocate is a ConfigError.
    """
    samples = spec.steps + 1
    inputs = None
    try:  # the path first, so its size is refused before any input is drawn
        path = np.empty((samples, spec.state_dim))
        if spec.b_in is not None:
            inputs = _piecewise_constant_inputs(spec, samples)
    except (MemoryError, ValueError):
        raise ConfigError(f"a trajectory of {spec.steps} steps is too large to allocate") from None

    path[0] = spec.initial_state
    # the divergence check reports overflow and inf - inf; warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, samples, _BLOCK_STEPS):
            stop = min(start + _BLOCK_STEPS, samples)
            for t in range(start, stop):
                np.matmul(spec.a, path[t - 1], out=path[t])  # x+ = a @ x + b_in @ u + c * x1^2 e2
                if inputs is not None:
                    path[t] += spec.b_in @ inputs[t - 1]
                if spec.c:
                    path[t, 1] += spec.c * path[t - 1, 0] ** 2
            bounded = np.max(np.abs(path[start:stop]), axis=1) <= _DIVERGENCE_LIMIT
            if not bounded.all():  # NaN fails too
                raise DivergenceError(
                    f"trajectory diverged at step {start + int(np.argmin(bounded))}")

    states = path[:, :1] if spec.observe == "first" else path
    return Trajectory(dt=1.0, states=states, inputs=inputs)


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
    """Each state coordinate of the map as a polynomial in the current state.

    A polynomial holds only its nonzero terms; a zero coordinate is {}.
    """
    if spec.b_in is not None:
        raise ConfigError("no exact lift for a forced system")
    if spec.observe != "full":
        raise ConfigError("the lift oracle needs the full rotation state")
    units = [tuple(row) for row in np.eye(spec.state_dim, dtype=int).tolist()]
    polys = [{e: coeff for e, coeff in zip(units, row) if coeff != 0.0} for row in spec.a]
    if spec.c:
        polys[1][tuple(2 * v for v in units[0])] = spec.c
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

    # image of each monomial under composition with the map, without the
    # terms whose coefficients cancel or underflow to zero
    images = []
    for e in exps:
        poly = {(0,) * nvars: 1.0}
        for var, power in enumerate(e):
            if power:
                poly = _poly_mul(poly, _poly_pow(maps[var], power, nvars))
        images.append({term: c for term, c in poly.items() if c != 0.0})

    keep = set(range(len(exps)))
    while True:
        exps_kept = {exps[i] for i in keep}
        open_rows = {i for i in keep if not images[i].keys() <= exps_kept}
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
