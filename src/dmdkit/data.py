"""Trajectory containers, CSV I/O, snapshot pairing, and delay embedding.

The package's one rule for an input array, ``_finite_array``, lives here
too; ``linalg``, ``observables`` and ``systems.SystemSpec`` call it.

A trajectory stores one sample per row. Snapshot matrices used by the fitting
routines store one sample per *column*, with the pair (x, xp) aligned so that
column j of xp is the successor (one sampling step later) of column j of x.
Without held inputs, ``snapshot_pairs`` writes the trajectory once as an
n x T sample-per-column matrix, and x and xp are its overlapping read-only
windows of columns 0..T-2 and 1..T-1, so a fit holds one copy of the data.

CSV format: a header row ``t,x1..xN[,u1..uM][,d1..dK]`` followed by numeric
rows; time stamps must be uniformly spaced, up to the rounding of each
stamp. The ``d`` columns are read as further inputs after the ``u`` columns,
so a trajectory holds one block of held signals, and it is written back with
every held column named ``u``.
Files are UTF-8, and one leading byte-order mark is dropped. Floats are
written with 17 significant digits so a save/load round trip is bit-exact.

Reading streams the file: after the header, ``_text.read_rows`` parses the
open file in pieces of whole lines (at most 256 KiB each) with whole-array
arithmetic, so a load holds the parsed doubles and one piece of text, never
the whole CSV text. It takes numbers in ``.17g``, ``repr`` and ``%.18e``
form, separated by ``,`` with ``\\n`` or ``\\r\\n`` line ends. Only when it
refuses a piece (quoted fields, blank lines, spaces, ``_`` in numbers,
``nan``, ragged or non-numeric rows) does the loader check that the rest of
the file decodes, seek back to the first data line and parse again one
record at a time, into the same doubles. That fallback, and the search for a
row's line after a non-finite value or a bad time step, are the only paths
that count lines, so every error names the file line it found, and a file
with bytes that are not UTF-8 is refused as such whatever row comes first. A
stream that cannot seek (a pipe) is read into memory whole before it is
parsed.
"""

from __future__ import annotations

import csv
import io
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from ._text import read_rows, write_rows, write_text_file
from .errors import ConfigError, DataError, ShapeError

# Allowed relative jitter between consecutive time steps on load.
_DT_RTOL = 1e-9


def _finite_array(value, name: str, ndim: int | None = None) -> np.ndarray:
    """``value`` as a float array, refused with a ShapeError naming ``name`` unless
    it is numeric, non-empty, finite and, if ``ndim`` is given, ``ndim``-D."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} must be numeric: {exc}") from None
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{name} is empty, shape {arr.shape}")
    if not np.isfinite(arr).all():
        verb = "contain" if name.endswith("s") else "contains"  # "states contain"
        raise ShapeError(f"{name} {verb} non-finite entries")
    return arr


def _as_2d(value, name: str) -> np.ndarray:
    """A finite 2-D float array; a 1-D value is one column."""
    arr = _finite_array(value, name)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def _check_dt(dt) -> None:
    """Refuse a sampling interval that is not a positive finite number."""
    if not (isinstance(dt, Real) and 0 < dt < np.inf):  # NaN fails too
        raise ShapeError(f"dt must be a positive finite number, got {dt}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; the caller's array stays writable."""
    view = arr.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled trajectory with optional held inputs.

    Parameters
    ----------
    dt : float
        Sampling interval, strictly positive.
    states : array_like, shape (T, n_states)
        Observed state sequence, T >= 2. A 1-D array is taken as scalar samples.
    inputs : array_like, shape (T, n_inputs), optional
        Exogenous signals sampled at the same instants.
    """

    dt: float
    states: np.ndarray
    inputs: np.ndarray | None = None

    def __post_init__(self):
        _check_dt(self.dt)
        states = _as_2d(self.states, "states")
        if states.shape[0] < 2:
            raise ShapeError("a trajectory needs at least 2 samples")
        object.__setattr__(self, "states", _freeze(np.ascontiguousarray(states)))
        if self.inputs is not None:
            inputs = _as_2d(self.inputs, "inputs")
            if inputs.shape[0] != states.shape[0]:
                raise ShapeError(
                    f"inputs has {inputs.shape[0]} samples, states has {states.shape[0]}"
                )
            object.__setattr__(self, "inputs", _freeze(np.ascontiguousarray(inputs)))

    @property
    def length(self) -> int:
        return int(self.states.shape[0])

    @property
    def n_states(self) -> int:
        return int(self.states.shape[1])

    @property
    def n_inputs(self) -> int:
        return 0 if self.inputs is None else int(self.inputs.shape[1])


@dataclass(frozen=True)
class SnapshotPair:
    """Column-aligned snapshot matrices for regression.

    ``x`` and ``xp`` are (n_obs, m) with column j of ``xp`` the one-step
    successor of column j of ``x``; ``dt`` (keyword-only) is the sampling
    interval. Both are kept as read-only views of what they were given,
    without a contiguous copy, so they may overlap: for one trajectory
    ``snapshot_pairs`` makes them two windows of one matrix.
    """

    x: np.ndarray
    xp: np.ndarray
    dt: float = field(default=1.0, kw_only=True)

    def __post_init__(self):
        _check_dt(self.dt)
        x = _finite_array(self.x, "snapshot matrices", 2)
        xp = _finite_array(self.xp, "snapshot matrices", 2)
        if xp.shape != x.shape:
            raise ShapeError(f"xp shape {xp.shape} does not match x shape {x.shape}")
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "xp", _freeze(xp))

    @property
    def n_observables(self) -> int:
        return int(self.x.shape[0])

    @property
    def n_columns(self) -> int:
        return int(self.x.shape[1])


def snapshot_pairs(traj: Trajectory, augment_inputs: bool = False) -> SnapshotPair:
    """Build the (x, xp) snapshot pair from a trajectory.

    With ``augment_inputs`` the current input is appended to each column, and
    xp repeats it unchanged (zero-order hold): column t is ``[g_t; u_t]`` and
    its successor column is ``[g_{t+1}; u_t]``.
    Without it x and xp are the windows ``cols[:, :-1]`` and ``cols[:, 1:]``
    of one sample-per-column copy ``cols`` of the states.
    """
    if not augment_inputs:
        cols = _sample_columns([traj.states])
        return SnapshotPair(cols[:, :-1], cols[:, 1:], dt=traj.dt)
    if traj.inputs is None:
        raise ConfigError("trajectory has no inputs to augment with")
    held = traj.inputs[:-1]
    x = _sample_columns([traj.states[:-1], held])
    xp = _sample_columns([traj.states[1:], held])  # inputs held, not advanced
    return SnapshotPair(x, xp, dt=traj.dt)


def _sample_columns(blocks: list) -> np.ndarray:
    """Sample-per-row blocks stacked as one C-ordered sample-per-column matrix.

    Written straight into its final layout, so each matrix is one copy of
    the trajectory and SnapshotPair keeps it, or its windows, without another.
    """
    out = np.empty((sum(b.shape[1] for b in blocks), blocks[0].shape[0]))
    np.concatenate([b.T for b in blocks], axis=0, out=out)
    return out


def delay_embed(traj: Trajectory, h: int) -> Trajectory:
    """Stack sliding windows of depth ``h`` (oldest sample first in each window).

    A length-T trajectory yields T - h + 1 windows, so h must be below T for
    two of them to pair; states and inputs are embedded over the same windows.
    """
    if not isinstance(h, (int, np.integer)) or h < 1:
        raise ShapeError(f"embedding depth must be an integer >= 1, got {h}")
    if h >= traj.length:
        raise ShapeError(
            f"trajectory has fewer than 2 samples to pair: a depth-{h} delay embedding "
            f"of {traj.length} samples has T - h + 1 = {traj.length - h + 1}"
        )

    def stack(signal):
        if signal is None:
            return None
        count = traj.length - h + 1
        idx = np.arange(count)[:, None] + np.arange(h)[None, :]
        return signal[idx].reshape(count, h * signal.shape[1])

    return Trajectory(
        dt=traj.dt,
        states=stack(traj.states),
        inputs=stack(traj.inputs),
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
        if abs(p.dt - dt) > _DT_RTOL * dt:
            raise ShapeError("snapshot pairs have mismatched sampling intervals")
    if len(pairs) == 1:
        return pairs[0]
    return SnapshotPair(
        np.hstack([p.x for p in pairs]),
        np.hstack([p.xp for p in pairs]),
        dt=dt,
    )


# ------------------------------------------------------------------- CSV I/O


def _header_columns(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def _parse_header(fields: list[str], path) -> tuple[int, int]:
    """Validate the header and return (n_states, n_inputs), counting d columns as inputs."""
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
    return counts["x"], counts["u"] + counts["d"]


def load_trajectory(path) -> Trajectory:
    """Read a trajectory CSV, validating layout, numerics, and time uniformity.

    Errors name the offending 1-based line. The sampling interval is taken
    from the first two stamps and every later step must match it to within
    1e-9 relative jitter plus two units in the last place of the largest
    |t|: each stamp is rounded by up to half a unit, so stamps offset far
    from zero (t = 1.7e9 + k/10) step unevenly by that much.
    """
    with _text_file(path, "trajectory file") as handle:
        # read by readline, not iteration, so handle.tell() stays available
        reader = csv.reader(iter(handle.readline, ""))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        n_x, n_u = _parse_header(header, path)
        width = 1 + n_x + n_u
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
        if jitter[worst] > _DT_RTOL * abs(dt) + 2 * np.spacing(np.max(np.abs(t))):
            raise DataError(
                f"{path}: line {_row_line(handle, start, first_line, worst + 1)}: time step "
                f"{float(steps[worst])!r} deviates from dt={dt!r}"
            )
    inputs = table[:, 1 + n_x :] if n_u else None
    return Trajectory(dt=dt, states=table[:, 1 : 1 + n_x], inputs=inputs)


def load_rows(path, what: str) -> np.ndarray:
    """Read a headerless numeric CSV as a table of finite rows as wide as the first.

    ``what`` names the file in messages; errors name the offending 1-based
    line, as ``load_trajectory``'s do.
    """
    with _text_file(path, what) as handle:
        first = next(_records(iter(handle.readline, ""), 1), None)
        if first is None:
            raise DataError(f"{path}: {what} has no data rows")
        return _finite_rows(handle, 0, len(first[1]), 1, path)


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
    table = read_rows(handle, width)
    if table is None:
        # every byte decodes before any row is judged, as when the text was read whole
        while handle.read(1 << 16):
            pass
        handle.seek(start)
        table = _parse_rows(handle, width, first_line, path)
    # nan passes every comparison, so a nan time stamp would load
    rows = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if rows.size:
        line = _row_line(handle, start, first_line, rows[0])
        raise DataError(f"{path}: line {line}: non-finite value")
    return table


def _records(lines, first_line: int):
    """Each non-empty CSV record of ``lines`` with the file line it starts on.

    ``first_line`` is the file line of the first of ``lines``; a quoted field
    may span lines, so a record can end on a later line than it starts.
    """
    reader = csv.reader(lines)
    lineno = first_line
    for fields in reader:
        if fields:
            yield lineno, fields
        lineno = first_line + reader.line_num


def _parse_rows(lines, width: int, first_line: int, path) -> np.ndarray:
    """Parse the data rows one field at a time, naming the first bad line and field."""
    values = []
    for lineno, fields in _records(lines, first_line):
        if len(fields) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
            )
        for f in fields:
            try:
                values.append(float(f))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric value "
                                f"'{f.strip()}'") from None
    return np.array(values).reshape(-1, width)


def _row_line(handle, start, first_line: int, row: int) -> int:
    """File line that data row ``row`` (0-based) starts on, read again from offset ``start``.

    Both parsers skip empty lines, so this counts only non-empty records.
    """
    handle.seek(start)
    return next(itertools.islice(_records(handle, first_line), row, None))[0]


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
    handle.write(",".join(header) + "\n")
    # arange(T) * dt gives the same doubles as i * dt for each row i
    columns = [np.arange(traj.length) * traj.dt, traj.states]
    if traj.inputs is not None:
        columns.append(traj.inputs)
    write_rows(handle, np.column_stack(columns))
