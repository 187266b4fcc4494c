"""Trajectory containers, CSV I/O, snapshot pairing, and delay embedding.

A trajectory stores one sample per row. Snapshot matrices used by the fitting
routines store one sample per *column*, with the pair (x, xp) aligned so that
column j of xp is the successor (one sampling step later) of column j of x.
Without held inputs, ``snapshot_pairs`` writes the trajectory once as an
n x T sample-per-column matrix, and x and xp are its overlapping read-only
windows of columns 0..T-2 and 1..T-1, so a fit holds one copy of the data.

CSV format: a header row ``t,x1..xN[,u1..uM][,d1..dK]`` followed by numeric
rows; time stamps must be uniformly spaced. Files are UTF-8, and one leading
byte-order mark is dropped. Floats are written with 17 significant digits so
a save/load round trip is bit-exact.

Reading streams the file: after the header, ``np.loadtxt`` parses the open
file a line at a time straight into the table, so a load holds the parsed
doubles, never the CSV text. Only when loadtxt refuses the body (quoted
fields, ragged or non-numeric rows, ``_`` in numbers) does the reader check
that the rest of the file decodes, seek back to the first data line and parse
again one record at a time; that fallback, and the search for a row's line
after a non-finite value or a bad time step, are the only paths that count
lines, so every error names the file line it found, and a file with bytes
that are not UTF-8 is refused as such whatever row comes first. A stream
that cannot seek (a pipe) is read into memory whole before it is parsed.
"""

from __future__ import annotations

import csv
import io
import itertools
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ._text import write_rows, write_text_file
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
    """A read-only view of ``arr``; the caller's array stays writable."""
    view = arr.view()
    view.setflags(write=False)
    return view


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
        object.__setattr__(self, "states", _freeze(np.ascontiguousarray(states)))
        for name in ("inputs", "disturbances"):
            value = getattr(self, name)
            if value is None:
                continue
            value = _as_samples(value, name)
            if value.shape[0] != states.shape[0]:
                raise ShapeError(
                    f"{name} has {value.shape[0]} samples, states has {states.shape[0]}"
                )
            object.__setattr__(self, name, _freeze(np.ascontiguousarray(value)))

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
    unchanged; ``depth_h`` records the embedding depth.
    """

    depth_h: int = 1

    _min_length = 1


@dataclass(frozen=True)
class SnapshotPair:
    """Column-aligned snapshot matrices for regression.

    ``x`` and ``xp`` are (n_obs, m) with column j of ``xp`` the one-step
    successor of column j of ``x``. ``col_times`` records the source sample
    index of each x column. Both are kept as read-only views of what they
    were given, without a contiguous copy, so they may overlap: for one
    trajectory ``snapshot_pairs`` makes them two windows of one matrix.
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
    Without them x and xp are the windows ``cols[:, :-1]`` and ``cols[:, 1:]``
    of one sample-per-column copy ``cols`` of the states.
    """
    if traj.length < 2:
        raise ShapeError(
            f"trajectory has fewer than 2 samples to pair: it has {traj.length} "
            "(a depth-h delay embedding of T samples has T - h + 1)"
        )
    times = np.arange(traj.length - 1)
    if not augment_inputs:
        cols = _sample_columns([traj.states])
        return SnapshotPair(cols[:, :-1], cols[:, 1:], times, dt=traj.dt)
    if traj.inputs is None and traj.disturbances is None:
        raise ConfigError("trajectory has no inputs or disturbances to augment with")
    held = [s[:-1] for s in (traj.inputs, traj.disturbances) if s is not None]
    x = _sample_columns([traj.states[:-1], *held])
    xp = _sample_columns([traj.states[1:], *held])  # inputs held, not advanced
    return SnapshotPair(x, xp, times, dt=traj.dt)


def _sample_columns(blocks: list) -> np.ndarray:
    """Sample-per-row blocks stacked as one C-ordered sample-per-column matrix.

    Written straight into its final layout, so each matrix is one copy of
    the trajectory and SnapshotPair keeps it, or its windows, without another.
    """
    out = np.empty((sum(b.shape[1] for b in blocks), blocks[0].shape[0]))
    np.concatenate([b.T for b in blocks], axis=0, out=out)
    return out


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
    if len(pairs) == 1:
        return pairs[0]
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
    with _text_file(path, "trajectory file") as handle:
        # read by readline, not iteration, so handle.tell() stays available
        reader = csv.reader(iter(handle.readline, ""))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        n_x, n_u, n_d = _parse_header(header, path)
        width = 1 + n_x + n_u + n_d
        first_line = reader.line_num + 1
        start = handle.tell()
        table = _finite_rows(handle, start, width, first_line, path)
        if len(table) < 2:
            raise DataError(f"{path}: need at least 2 data rows, got {len(table)}")
        t = table[:, 0]
        dt = float(t[1] - t[0])
        if dt <= 0:
            line = _row_line(handle, start, first_line, 1)
            raise DataError(f"{path}: line {line}: time stamps must be strictly increasing")
        steps = np.diff(t)
        jitter = np.abs(steps - dt)
        worst = int(np.argmax(jitter))
        if jitter[worst] > _DT_RTOL * abs(dt):
            raise DataError(
                f"{path}: line {_row_line(handle, start, first_line, worst + 1)}: time step "
                f"{float(steps[worst])!r} deviates from dt={dt!r}"
            )
    states = table[:, 1 : 1 + n_x]
    inputs = table[:, 1 + n_x : 1 + n_x + n_u] if n_u else None
    dists = table[:, 1 + n_x + n_u :] if n_d else None
    return Trajectory(dt=dt, states=states, inputs=inputs, disturbances=dists,
                      meta={"source": str(path)})


def load_rows(path, what: str) -> np.ndarray:
    """Read a headerless numeric CSV as a table of finite rows as wide as the first.

    ``what`` names the file in messages; errors name the offending 1-based
    line, as ``load_trajectory``'s do.
    """
    with _text_file(path, what) as handle:
        records = csv.reader(iter(handle.readline, ""))
        first = next((fields for fields in records if fields), None)
        if first is None:
            raise DataError(f"{path}: {what} has no data rows")
        return _finite_rows(handle, 0, len(first), 1, path)


@contextmanager
def _text_file(path, what: str):
    """``path`` opened to read as UTF-8 text; open, read and decode failures become DataErrors.

    A leading byte-order mark is dropped (``utf-8-sig``), and only that one.
    A stream that cannot seek (a pipe, ``/dev/stdin``) is read whole into
    memory, since the fallback parse and the line search go back to its start.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as err:
        raise DataError(f"cannot read {what}: {err}") from err
    with handle:
        try:
            yield handle if handle.seekable() else io.StringIO(handle.read(), newline="")
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: file is not UTF-8 text ({err.reason})") from None
        except OSError as err:
            raise DataError(f"cannot read {what}: {err}") from err


def _finite_rows(handle, start, width: int, first_line: int, path) -> np.ndarray:
    """The rows of ``handle`` from offset ``start`` (file line ``first_line``) as a finite table."""
    handle.seek(start)
    table = _parse_body(handle, width)
    if table is None:
        # every byte decodes before any row is judged, as when the text was read whole
        while handle.read(1 << 16):
            pass
        handle.seek(start)
        table = np.array(_parse_rows(handle, width, first_line, path)).reshape(-1, width)
    # nan passes every comparison, so a nan time stamp would load
    rows = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if rows.size:
        line = _row_line(handle, start, first_line, rows[0])
        raise DataError(f"{path}: line {line}: non-finite value")
    return table


def _parse_body(lines, width: int) -> np.ndarray | None:
    """The data rows parsed by ``np.loadtxt`` straight from ``lines``, or None if it balks.

    ``lines`` is the open file at its first data line, so the CSV text is
    never held whole: loadtxt reads it a line at a time into the table. Whatever
    loadtxt accepts, ``_parse_rows`` reads into the same doubles; but
    loadtxt refuses some bodies that loop takes (quoted fields, ``_`` in
    numbers) and its messages do not name the line. On None the caller
    rewinds the file to the first data line, which loadtxt may have read
    part-way past, and sends it through ``_parse_rows``. A decode failure
    is a ValueError too, but it is passed on: the file is not UTF-8.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
    except UnicodeDecodeError:
        raise
    except (ValueError, UserWarning):
        return None
    return table if table.shape[1] == width else None


def _parse_rows(lines, width: int, first_line: int, path) -> list:
    """Parse the data rows one field at a time, naming the first bad line."""
    rows = []
    reader = csv.reader(lines)
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


def _row_line(handle, start, first_line: int, row: int) -> int:
    """File line of data row ``row`` (0-based), read again from offset ``start``.

    Both parsers skip empty lines, so this counts only non-empty records.
    """
    handle.seek(start)
    reader = csv.reader(handle)
    lines = (first_line - 1 + reader.line_num for fields in reader if fields)
    return next(itertools.islice(lines, row, None))


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
        write_text_file(path, "trajectory file", lambda handle: _write_trajectory(traj, handle))


def _write_trajectory(traj: Trajectory, handle) -> None:
    header = ["t"] + _header_columns("x", traj.n_states)
    header += _header_columns("u", traj.n_inputs)
    header += _header_columns("d", traj.n_disturbances)
    handle.write(",".join(header) + "\n")
    # arange(T) * dt gives the same doubles as i * dt for each row i
    columns = [np.arange(traj.length) * traj.dt, traj.states]
    columns += [s for s in (traj.inputs, traj.disturbances) if s is not None]
    write_rows(handle, np.column_stack(columns))
