"""Trajectory containers, CSV I/O, snapshot pairing, and delay embedding.

A trajectory stores one sample per row. Snapshot matrices used by the fitting
routines store one sample per *column*, with the pair (x, xp) aligned so that
column j of xp is the successor (one sampling step later) of column j of x.

CSV format: a header row ``t,x1..xN[,u1..uM][,d1..dK]`` followed by numeric
rows; time stamps must be uniformly spaced. Floats are written with 17
significant digits so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._text import write_rows
from .errors import ConfigError, DataError, ShapeError

# Allowed relative jitter between consecutive time steps on load.
_DT_RTOL = 1e-9


def _as_samples(value, name: str) -> np.ndarray:
    """Coerce to a (T, n) float array; 1-D input is treated as scalar samples."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} must be numeric: {exc}") from None
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ShapeError(f"{name} must be a (samples, dim) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled trajectory with optional inputs and disturbances.

    Parameters
    ----------
    dt : float
        Sampling interval, strictly positive.
    states : array_like, shape (T, n_states)
        Observed state sequence, T >= 2. A 1-D array is taken as scalar samples.
    inputs, disturbances : array_like, shape (T, n), optional
        Exogenous signals sampled at the same instants.
    meta : dict
        Free-form notes on where the data came from (e.g. the seed of a
        generated input signal). Ignored by comparisons.
    """

    dt: float
    states: np.ndarray
    inputs: np.ndarray | None = None
    disturbances: np.ndarray | None = None
    meta: dict = field(default_factory=dict, compare=False)

    # embedded trajectories may collapse to a single window
    _min_length = 2

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ShapeError(f"dt must be a positive finite number, got {self.dt}")
        states = _as_samples(self.states, "states")
        if states.shape[0] < self._min_length:
            raise ShapeError(f"a trajectory needs at least {self._min_length} samples")
        object.__setattr__(self, "states", _freeze(states))
        for name in ("inputs", "disturbances"):
            value = getattr(self, name)
            if value is None:
                continue
            value = _as_samples(value, name)
            if value.shape[0] != states.shape[0]:
                raise ShapeError(
                    f"{name} has {value.shape[0]} samples, states has {states.shape[0]}"
                )
            object.__setattr__(self, name, _freeze(value))

    @property
    def length(self) -> int:
        return int(self.states.shape[0])

    @property
    def n_states(self) -> int:
        return int(self.states.shape[1])

    @property
    def n_inputs(self) -> int:
        return 0 if self.inputs is None else int(self.inputs.shape[1])

    @property
    def n_disturbances(self) -> int:
        return 0 if self.disturbances is None else int(self.disturbances.shape[1])


@dataclass(frozen=True)
class EmbeddedTrajectory(Trajectory):
    """Trajectory of stacked delay windows ``(g_t, ..., g_{t+h-1})``, oldest first.

    The state/input/disturbance fields hold the stacked windows, so every
    routine that accepts a Trajectory (snapshot_pairs in particular) applies
    unchanged; ``depth_h`` and ``base`` keep the embedding bookkeeping.
    """

    depth_h: int = 1
    base: Trajectory | None = None

    _min_length = 1

    def __post_init__(self):
        super().__post_init__()
        if self.base is not None and self.length != self.base.length - self.depth_h + 1:
            raise ShapeError("window count does not match base length and depth")


@dataclass(frozen=True)
class SnapshotPair:
    """Column-aligned snapshot matrices for regression.

    ``x`` and ``xp`` are (n_obs, m) with column j of ``xp`` the one-step
    successor of column j of ``x``. ``col_times`` records the source sample
    index of each x column.
    """

    x: np.ndarray
    xp: np.ndarray
    col_times: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        xp = np.asarray(self.xp, dtype=float)
        if x.ndim != 2 or x.shape[1] < 1:
            raise ShapeError(f"x must be (n_obs, m) with m >= 1, got {x.shape}")
        if xp.shape != x.shape:
            raise ShapeError(f"xp shape {xp.shape} does not match x shape {x.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xp))):
            raise ShapeError("snapshot matrices contain non-finite entries")
        times = np.asarray(self.col_times, dtype=int)
        if times.shape != (x.shape[1],):
            raise ShapeError("col_times must have one entry per column")
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "xp", _freeze(xp))
        object.__setattr__(self, "col_times", _freeze(times))

    @property
    def n_observables(self) -> int:
        return int(self.x.shape[0])

    @property
    def n_columns(self) -> int:
        return int(self.x.shape[1])


def snapshot_pairs(traj: Trajectory, augment_inputs: bool = False) -> SnapshotPair:
    """Build the (x, xp) snapshot pair from a trajectory.

    With ``augment_inputs`` the current input and disturbance are appended to
    each column, and xp repeats them unchanged (zero-order hold): column t is
    ``[g_t; u_t; d_t]`` and its successor column is ``[g_{t+1}; u_t; d_t]``.
    """
    cur = [traj.states[:-1]]
    nxt = [traj.states[1:]]
    if augment_inputs:
        if traj.inputs is None and traj.disturbances is None:
            raise ConfigError("trajectory has no inputs or disturbances to augment with")
        for signal in (traj.inputs, traj.disturbances):
            if signal is not None:
                cur.append(signal[:-1])
                nxt.append(signal[:-1])  # held, not advanced
    x = np.hstack(cur).T
    xp = np.hstack(nxt).T
    return SnapshotPair(x, xp, np.arange(traj.length - 1), dt=traj.dt)


def delay_embed(traj: Trajectory, h: int) -> EmbeddedTrajectory:
    """Stack sliding windows of depth ``h`` (oldest sample first in each window).

    A length-T trajectory yields T - h + 1 windows; states, inputs, and
    disturbances are embedded over the same windows.
    """
    if not isinstance(h, (int, np.integer)) or h < 1:
        raise ShapeError(f"embedding depth must be an integer >= 1, got {h}")
    if h > traj.length:
        raise ShapeError(f"embedding depth {h} exceeds trajectory length {traj.length}")

    def stack(signal):
        if signal is None:
            return None
        count = traj.length - h + 1
        idx = np.arange(count)[:, None] + np.arange(h)[None, :]
        return signal[idx].reshape(count, h * signal.shape[1])

    return EmbeddedTrajectory(
        dt=traj.dt,
        states=stack(traj.states),
        inputs=stack(traj.inputs),
        disturbances=stack(traj.disturbances),
        meta=dict(traj.meta),
        depth_h=int(h),
        base=traj,
    )


def concat_pairs(pairs: list[SnapshotPair]) -> SnapshotPair:
    """Concatenate snapshot-pair sets columnwise (never pairing across sets)."""
    if not pairs:
        raise ShapeError("no snapshot pairs to concatenate")
    n_obs = pairs[0].n_observables
    dt = pairs[0].dt
    for p in pairs[1:]:
        if p.n_observables != n_obs:
            raise ShapeError("snapshot pairs have mismatched observable dimensions")
        if p.dt != dt:
            raise ShapeError("snapshot pairs have mismatched sampling intervals")
    return SnapshotPair(
        np.hstack([p.x for p in pairs]),
        np.hstack([p.xp for p in pairs]),
        np.concatenate([p.col_times for p in pairs]),
        dt=dt,
    )


# ------------------------------------------------------------------- CSV I/O


def _header_columns(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def _parse_header(fields: list[str], path) -> tuple[int, int, int]:
    """Validate the header and return (n_states, n_inputs, n_disturbances)."""
    names = [f.strip() for f in fields]
    if not names or names[0] != "t":
        raise DataError(f"{path}: line 1: header must start with column 't'")
    counts = {"x": 0, "u": 0, "d": 0}
    order = ["x", "u", "d"]
    stage = 0
    for name in names[1:]:
        prefix, digits = name[:1], name[1:]
        if prefix not in counts or not digits.isdigit():
            raise DataError(f"{path}: line 1: unexpected column '{name}'")
        while stage < len(order) and order[stage] != prefix:
            stage += 1
        if stage == len(order):
            raise DataError(f"{path}: line 1: column '{name}' out of order")
        counts[prefix] += 1
        if int(digits) != counts[prefix]:
            raise DataError(
                f"{path}: line 1: expected column '{prefix}{counts[prefix]}', got '{name}'"
            )
    if counts["x"] == 0:
        raise DataError(f"{path}: line 1: no state columns (x1..xN) found")
    return counts["x"], counts["u"], counts["d"]


def load_trajectory(path) -> Trajectory:
    """Read a trajectory CSV, validating layout, numerics, and time uniformity.

    Errors name the offending 1-based line. The sampling interval is taken
    from the first two stamps and every later step must match it to within
    1e-9 relative jitter.
    """
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise DataError(f"cannot read trajectory file: {err}") from err
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        n_x, n_u, n_d = _parse_header(header, path)
        width = 1 + n_x + n_u + n_d
        first_line = reader.line_num + 1
        body = handle.read()
    table = _parse_body(body, width)
    if table is None:
        table = np.array(_parse_rows(body, width, first_line, path))
    if len(table) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(table)}")
    # nan passes every comparison below, so a nan time stamp would load
    rows = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if rows.size:
        line = _row_line(body, first_line, rows[0])
        raise DataError(f"{path}: line {line}: non-finite value")
    t = table[:, 0]
    dt = float(t[1] - t[0])
    if dt <= 0:
        line = _row_line(body, first_line, 1)
        raise DataError(f"{path}: line {line}: time stamps must be strictly increasing")
    steps = np.diff(t)
    jitter = np.abs(steps - dt)
    worst = int(np.argmax(jitter))
    if jitter[worst] > _DT_RTOL * abs(dt):
        raise DataError(
            f"{path}: line {_row_line(body, first_line, worst + 1)}: time step "
            f"{float(steps[worst])!r} deviates from dt={dt!r}"
        )
    states = table[:, 1 : 1 + n_x]
    inputs = table[:, 1 + n_x : 1 + n_x + n_u] if n_u else None
    dists = table[:, 1 + n_x + n_u :] if n_d else None
    return Trajectory(dt=dt, states=states, inputs=inputs, disturbances=dists,
                      meta={"source": str(path)})


def _parse_body(body: str, width: int) -> np.ndarray | None:
    """The data rows parsed in one pass, or None if the fast parser balks.

    Whatever ``np.loadtxt`` accepts, the row loop below reads into the same
    doubles; but loadtxt refuses some bodies the loop takes (quoted fields,
    ``_`` in numbers) and its messages do not name the line, so None sends
    the body through the loop.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                               ndmin=2, dtype=float)
    except (ValueError, UserWarning):
        return None
    return table if table.shape[1] == width else None


def _parse_rows(body: str, width: int, first_line: int, path) -> list:
    """Parse the data rows one field at a time, naming the first bad line."""
    rows = []
    reader = csv.reader(io.StringIO(body, newline=""))
    for fields in reader:
        if not fields:
            continue
        lineno = first_line - 1 + reader.line_num  # a quoted field may span lines
        if len(fields) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            bad = next(f for f in fields if not _is_float(f))
            raise DataError(
                f"{path}: line {lineno}: non-numeric value '{bad.strip()}'"
            ) from None
    return rows


def _row_line(body: str, first_line: int, row: int) -> int:
    """File line of data row ``row`` (0-based); both parsers skip empty lines."""
    reader = csv.reader(io.StringIO(body, newline=""))
    lines = [first_line - 1 + reader.line_num for fields in reader if fields]
    return lines[row]


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def save_trajectory(traj: Trajectory, path) -> None:
    """Write the trajectory CSV (17 significant digits, round-trip exact).

    ``path`` may also be an already-open text stream, e.g. standard output.
    """
    if hasattr(path, "write"):
        _write_trajectory(traj, path)
    else:
        with open(path, "w", newline="") as handle:
            _write_trajectory(traj, handle)


def _write_trajectory(traj: Trajectory, handle) -> None:
    header = ["t"] + _header_columns("x", traj.n_states)
    header += _header_columns("u", traj.n_inputs)
    header += _header_columns("d", traj.n_disturbances)
    handle.write(",".join(header) + "\n")
    # arange(T) * dt gives the same doubles as i * dt for each row i
    columns = [np.arange(traj.length) * traj.dt, traj.states]
    columns += [s for s in (traj.inputs, traj.disturbances) if s is not None]
    write_rows(handle, np.column_stack(columns))
