"""Seeded inputs, numpy references and output checks for the three workloads.

Every workload is a linear map made of planar rotation blocks, so its exact
Koopman eigenvalues on the state are e^{+-i theta_k} and its exact trajectory
is plain numpy iteration of the same matrix. The benchmark writes the system
as ``--a``/``--x0`` flags and initial-condition files; dmdkit sees nothing
else. References are computed here, apart from dmdkit.

Rotation angles (except kernel-gauss's, see KERNEL_ANGLES) are drawn
stratified: [ANGLE_LO, ANGLE_HI] is cut into one bin per block and each angle
is drawn from the middle half of its bin. Two angles are therefore at least
half a bin apart, and every angle keeps ANGLE_LO from 0 and pi, so
e^{i theta} and its conjugate stay distinct for every seed and the spectrum
check can match eigenvalues one to one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ANGLE_LO = 0.2
ANGLE_HI = np.pi - 0.2

# Sizes of the measured runs. A round is one simulate -> fit -> spectrum ->
# predict job; these keep a round between about 4 and 8 s on a 2-core machine
# so one run takes the median of several rounds.
SIZES = {
    "dmd-wide": {"blocks": 100, "steps": 2000, "horizon": 100},
    "kernel-gauss": {"blocks": 2, "steps": 400, "sigma": 2.0, "horizon": 50},
    "edmd-forecast": {
        "blocks": 3, "trajectories": 8, "steps": 150, "degree": 4, "horizon": 100_000,
    },
}

# kernel-gauss keeps its two angles fixed and draws only the phases and the
# forecast start. On unit circles the Gram matrices of an orbit depend on
# the angles alone, so every seed keeps the same 247 Gram eigenvalues and
# does the same work. Drawn angles made the kept rank range from 145 to 259
# over 150 seeds, the model file size by 18% and the fit time with it.
KERNEL_ANGLES = (0.9, 2.3)

# Sizes of the self-test: same code paths, a fraction of a second per round.
SMALL_SIZES = {
    "dmd-wide": {"blocks": 4, "steps": 60, "horizon": 10},
    "kernel-gauss": {"blocks": 2, "steps": 120, "sigma": 2.0, "horizon": 10},
    "edmd-forecast": {
        "blocks": 3, "trajectories": 3, "steps": 40, "degree": 2, "horizon": 300,
    },
}

# Tolerances; the README states each one and what it was measured against.
TRAJECTORY_TOL = 1e-9   # simulate CSV vs numpy iteration, relative to max |x|
EIGENVALUE_TOL = {"dmd-wide": 1e-8, "kernel-gauss": 1e-8, "edmd-forecast": 1e-8}
MODULUS_TOL = 1e-8      # edmd-forecast: | |lambda| - 1 |
FORECAST_TOL = {"dmd-wide": 1e-9, "kernel-gauss": 1e-8, "edmd-forecast": 1e-7}
ORDER_ULPS = 2          # spectrum magnitude column may rise this many ulps per row

_WORKLOAD_IDS = {"dmd-wide": 1, "kernel-gauss": 2, "edmd-forecast": 3}


class CheckError(Exception):
    """An output of dmdkit disagrees with the reference or a required property."""


@dataclass
class Job:
    """The commands of one round and what their outputs must satisfy."""

    name: str
    simulate: list          # argv lists, one per trajectory
    fit: list
    spectrum: list
    predict: list
    trajectories: list      # (csv name, reference states (steps + 1, n))
    eigenvalues: np.ndarray  # e^{+-i theta_k}
    forecast: np.ndarray     # reference forecast rows, steps 1..horizon
    model: str

    def stages(self):
        return [
            ("simulate", self.simulate),
            ("fit", [self.fit]),
            ("spectrum", [self.spectrum]),
            ("predict", [self.predict]),
        ]


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_WORKLOAD_IDS[name], seed & (2**63 - 1)])


def _angles(rng, count: int) -> np.ndarray:
    width = (ANGLE_HI - ANGLE_LO) / count
    return ANGLE_LO + width * (np.arange(count) + 0.25 + 0.5 * rng.random(count))


def _rotation_matrix(angles) -> np.ndarray:
    n = 2 * len(angles)
    a = np.zeros((n, n))
    for k, theta in enumerate(angles):
        c, s = np.cos(theta), np.sin(theta)
        a[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
    return a


def _state(rng, blocks: int, radius_lo: float, radius_hi: float) -> np.ndarray:
    radius = rng.uniform(radius_lo, radius_hi, blocks)
    phase = rng.uniform(0.0, 2.0 * np.pi, blocks)
    return np.column_stack([radius * np.cos(phase), radius * np.sin(phase)]).ravel()


def _number(value: float) -> str:
    return "0" if value == 0.0 else repr(float(value))


def _matrix_flag(a: np.ndarray) -> str:
    return "--a=" + ";".join(",".join(_number(v) for v in row) for row in a)


def _vector_text(x) -> str:
    return ",".join(_number(v) for v in x)


def _iterate(a: np.ndarray, x0: np.ndarray, steps: int) -> np.ndarray:
    """Rows x0, A x0, ..., A^steps x0 by plain numpy iteration."""
    out = np.empty((steps + 1, x0.size))
    out[0] = x0
    x = x0
    for t in range(steps):
        x = a @ x
        out[t + 1] = x
    return out


def _simulate_argv(a_flag: str, x0, steps: int, out: str) -> list:
    return ["simulate", "--system", "linear", a_flag, "--x0=" + _vector_text(x0),
            "--steps", str(steps), "--out", out]


def _write_ic(workdir: Path, x) -> str:
    (workdir / "ic.csv").write_text(_vector_text(x) + "\n")
    return "ic.csv"


def _conjugates(angles) -> np.ndarray:
    return np.concatenate([np.exp(1j * angles), np.exp(-1j * angles)])


def prepare(name: str, seed: int, workdir: Path, sizes: dict | None = None) -> Job:
    """Generate the seeded inputs and references of one workload into workdir."""
    sizes = SIZES[name] if sizes is None else sizes
    rng = _rng(name, seed)
    blocks, steps, horizon = sizes["blocks"], sizes["steps"], sizes["horizon"]
    angles = np.array(KERNEL_ANGLES) if name == "kernel-gauss" else _angles(rng, blocks)
    a = _rotation_matrix(angles)
    a_flag = _matrix_flag(a)

    if name == "dmd-wide":
        x0 = _state(rng, blocks, 0.5, 1.5)
        starts = [x0]
        ic = _state(rng, blocks, 0.5, 1.5)
        fit_flags = ["--algo", "dmd"]
    elif name == "kernel-gauss":
        x0 = _state(rng, blocks, 1.0, 1.0)
        starts = [x0]
        ic = None  # a training state, chosen below
        fit_flags = ["--algo", "kernel-edmd", "--kernel", f"gaussian:{sizes['sigma']!r}"]
    elif name == "edmd-forecast":
        starts = [_state(rng, blocks, 0.5, 1.5) for _ in range(sizes["trajectories"])]
        ic = _state(rng, blocks, 0.5, 1.5)
        fit_flags = ["--algo", "edmd", "--dict", f"poly:{sizes['degree']}"]
    else:
        raise KeyError(f"unknown workload {name!r}")

    trajectories = []
    simulate = []
    for i, start in enumerate(starts):
        csv_name = f"traj{i}.csv"
        trajectories.append((csv_name, _iterate(a, start, steps)))
        simulate.append(_simulate_argv(a_flag, start, steps, csv_name))
    if ic is None:
        states = trajectories[0][1]
        ic = states[int(rng.integers(steps // 4, steps // 2))]

    data_flags = [flag for csv_name, _ in trajectories for flag in ("--data", csv_name)]
    ic_name = _write_ic(workdir, ic)
    return Job(
        name=name,
        simulate=simulate,
        fit=["fit", *fit_flags, *data_flags, "--out", "model.json"],
        spectrum=["spectrum", "model.json"],
        predict=["predict", "model.json", ic_name, str(horizon)],
        trajectories=trajectories,
        eigenvalues=_conjugates(angles),
        forecast=_iterate(a, ic, horizon)[1:],
        model="model.json",
    )


# ------------------------------------------------------------------- checks


def _table(path: Path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as err:
        raise CheckError(f"{path.name}: not a numeric CSV: {err}") from None


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_trajectory(path: Path, reference: np.ndarray) -> None:
    table = _table(path)
    if table.shape != (reference.shape[0], reference.shape[1] + 1):
        raise CheckError(f"{path.name}: shape {table.shape}, expected "
                         f"{(reference.shape[0], reference.shape[1] + 1)}")
    if not np.array_equal(table[:, 0], np.arange(reference.shape[0])):
        raise CheckError(f"{path.name}: time column is not 0, 1, 2, ...")
    scale = max(1.0, float(np.max(np.abs(reference))))
    err = float(np.max(np.abs(table[:, 1:] - reference)))
    if err > TRAJECTORY_TOL * scale:
        raise CheckError(f"{path.name}: states differ from numpy iteration by {err:.3e}")


def check_spectrum(path: Path, name: str, expected: np.ndarray) -> np.ndarray:
    """Check the spectrum CSV; return its (re, im) columns for cross-checks."""
    table = _table(path)
    if table.shape[1] != 5:
        raise CheckError(f"{path.name}: expected 5 columns, got {table.shape[1]}")
    values = table[:, 1] + 1j * table[:, 2]
    magnitude = table[:, 3]
    # one ulp of slack: the CLI sorts by numpy's vectorised |z| but prints
    # the scalar |z|, and the two differ in the last bit for some values
    if np.any(np.diff(magnitude) > ORDER_ULPS * np.finfo(float).eps * magnitude[:-1]):
        raise CheckError(f"{path.name}: rows are not in descending magnitude")
    if np.max(np.abs(magnitude - np.abs(values))) > 1e-12 * max(1.0, magnitude[0]):
        raise CheckError(f"{path.name}: magnitude column disagrees with re, im")
    tol = EIGENVALUE_TOL[name]
    distance = np.abs(values[:, None] - expected[None, :])
    nearest = np.min(distance, axis=0)
    worst = int(np.argmax(nearest))
    if nearest[worst] > tol:
        raise CheckError(f"{path.name}: no eigenvalue within {tol:g} of "
                         f"{expected[worst]:.6f} (nearest {nearest[worst]:.3e})")
    if name == "dmd-wide":
        # the state space is the whole operator: the spectrum is exactly the set
        match = np.argmin(distance, axis=1)
        if values.size != expected.size or np.unique(match).size != expected.size:
            raise CheckError(f"{path.name}: {values.size} eigenvalues do not pair "
                             f"one to one with the {expected.size} expected")
    if name == "edmd-forecast":
        # a polynomial lift of an orthogonal map has a unit-modulus spectrum
        off = float(np.max(np.abs(np.abs(values) - 1.0)))
        if off > MODULUS_TOL:
            raise CheckError(f"{path.name}: an eigenvalue has modulus off 1 by {off:.3e}")
    return table[:, 1:3]


def check_fit_output(path: Path, spectrum_re_im: np.ndarray) -> None:
    table = _table(path)
    fitted = np.sort_complex(table[:, 1] + 1j * table[:, 2])
    listed = np.sort_complex(spectrum_re_im[:, 0] + 1j * spectrum_re_im[:, 1])
    if not np.array_equal(fitted, listed):
        raise CheckError(f"{path.name}: fit eigenvalues differ from the spectrum")


def check_forecast(path: Path, name: str, reference: np.ndarray) -> None:
    table = _table(path)
    if table.shape != (reference.shape[0], reference.shape[1] + 1):
        raise CheckError(f"{path.name}: shape {table.shape}, expected "
                         f"{(reference.shape[0], reference.shape[1] + 1)}")
    if not np.array_equal(table[:, 0], np.arange(1, reference.shape[0] + 1)):
        raise CheckError(f"{path.name}: step column is not 1, 2, 3, ...")
    err = float(np.max(np.abs(table[:, 1:] - reference)))
    scale = float(np.max(np.abs(reference)))
    if err > FORECAST_TOL[name] * scale:
        raise CheckError(f"{path.name}: forecast differs from numpy iteration by "
                         f"{err:.3e} (scale {scale:.3e})")


class Checker:
    """Checks each round's outputs, re-checking only bytes not seen before.

    The first model file of a run is the reference for every later refit:
    fitting the same data again must give a byte-identical file.
    """

    def __init__(self, job: Job, workdir: Path):
        self.job = job
        self.workdir = workdir
        self.verified: set = set()
        self.model_digest = None

    def _fresh(self, key: str, path: Path) -> bool:
        digest = (key, _digest(path))
        if digest in self.verified:
            return False
        self.verified.add(digest)
        return True

    def check(self, outputs: dict) -> None:
        """``outputs`` maps each stage to its stdout paths, None where the command failed."""
        job, workdir = self.job, self.workdir
        if all(p is not None for p in outputs["simulate"]):
            for csv_name, reference in job.trajectories:
                path = workdir / csv_name
                if self._fresh(csv_name, path):
                    check_trajectory(path, reference)
        fit_out, = outputs["fit"]
        if fit_out is not None:
            digest = _digest(workdir / job.model)
            if self.model_digest is None:
                self.model_digest = digest
            elif digest != self.model_digest:
                raise CheckError("refit of the same data gave a different model file")
        spectrum_out, = outputs["spectrum"]
        if spectrum_out is not None:
            fresh_fit = fit_out is not None and self._fresh("fit", fit_out)
            if self._fresh("spectrum", spectrum_out) or fresh_fit:
                re_im = check_spectrum(spectrum_out, job.name, job.eigenvalues)
                if fit_out is not None:
                    check_fit_output(fit_out, re_im)
        predict_out, = outputs["predict"]
        if predict_out is not None and self._fresh("predict", predict_out):
            check_forecast(predict_out, job.name, job.forecast)
