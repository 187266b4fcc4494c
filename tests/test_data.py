"""Tests for trajectory containers, CSV round trips, pairing, and embedding.

Embedding windows are checked against plain python slicing; pairing layouts
against hand-written arrays.
"""

from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dmdkit.data import (
    EmbeddedTrajectory,
    SnapshotPair,
    Trajectory,
    concat_pairs,
    delay_embed,
    load_rows,
    load_trajectory,
    save_trajectory,
    snapshot_pairs,
)
from dmdkit.errors import ConfigError, DataError, ShapeError

# ------------------------------------------------------------------ containers


def test_trajectory_validation():
    with pytest.raises(ShapeError):
        Trajectory(dt=1.0, states=[[1.0, 2.0]])  # single sample
    with pytest.raises(ShapeError):
        Trajectory(dt=0.0, states=[[1.0], [2.0]])
    with pytest.raises(ShapeError):
        Trajectory(dt=1.0, states=[[1.0], [np.nan]])
    with pytest.raises(ShapeError):
        Trajectory(dt=1.0, states=[[1.0], [2.0]], inputs=[[1.0]])  # length mismatch


def test_trajectory_arrays_are_immutable():
    traj = Trajectory(dt=0.5, states=[[1.0], [2.0], [3.0]])
    with pytest.raises(ValueError):
        traj.states[0, 0] = 9.0


def test_containers_leave_the_callers_arrays_writable():
    # each container freezes a view of its own, not the array it was given
    a = np.arange(6.0).reshape(3, 2)
    traj = Trajectory(dt=1.0, states=a)
    a[0, 0] = 1.0
    assert not traj.states.flags.writeable
    x, xp, times = np.ones((2, 3)), np.zeros((2, 3)), np.arange(3)
    pair = SnapshotPair(x, xp, times)
    x[0, 0] = xp[0, 0] = 2.0
    times[0] = 5
    assert not (pair.x.flags.writeable or pair.xp.flags.writeable
                or pair.col_times.flags.writeable)


def test_scalar_states_become_column():
    traj = Trajectory(dt=1.0, states=[1.0, 2.0, 3.0])
    assert traj.states.shape == (3, 1)
    assert traj.n_states == 1


# -------------------------------------------------------------- snapshot_pairs


def test_snapshot_pairs_alignment_and_count():
    states = np.arange(10.0).reshape(5, 2)
    pair = snapshot_pairs(Trajectory(dt=1.0, states=states))
    assert pair.x.shape == (2, 4)
    assert pair.xp.shape == (2, 4)
    for j in range(4):
        assert_array_equal(pair.x[:, j], states[j])
        assert_array_equal(pair.xp[:, j], states[j + 1])
    assert_array_equal(pair.col_times, [0, 1, 2, 3])


def test_snapshot_pairs_of_one_trajectory_share_one_matrix():
    # x and xp are windows of one sample-per-column copy, read-only, with the
    # bytes the two separate copies held
    states = np.random.default_rng(5).standard_normal((7, 3))
    pair = snapshot_pairs(Trajectory(dt=1.0, states=states))
    assert np.shares_memory(pair.x, pair.xp)
    assert not np.shares_memory(pair.x, states)
    assert not (pair.x.flags.writeable or pair.xp.flags.writeable)
    assert pair.x.tobytes() == np.ascontiguousarray(states[:-1].T).tobytes()
    assert pair.xp.tobytes() == np.ascontiguousarray(states[1:].T).tobytes()


def test_snapshot_pairs_augmented_layout_holds_inputs():
    # Hand-built: column t is [x_t; u_t; d_t], successor is [x_{t+1}; u_t; d_t].
    states = np.array([[1.0], [2.0], [4.0]])
    inputs = np.array([[10.0], [20.0], [30.0]])
    dists = np.array([[-1.0], [-2.0], [-3.0]])
    traj = Trajectory(dt=1.0, states=states, inputs=inputs, disturbances=dists)
    pair = snapshot_pairs(traj, augment_inputs=True)
    assert_array_equal(pair.x, [[1.0, 2.0], [10.0, 20.0], [-1.0, -2.0]])
    assert_array_equal(pair.xp, [[2.0, 4.0], [10.0, 20.0], [-1.0, -2.0]])


def test_snapshot_pairs_augment_requires_signals():
    traj = Trajectory(dt=1.0, states=[[1.0], [2.0]])
    with pytest.raises(ConfigError):
        snapshot_pairs(traj, augment_inputs=True)


def test_snapshot_pair_validation():
    with pytest.raises(ShapeError):
        SnapshotPair(np.ones((2, 3)), np.ones((2, 2)), np.arange(3))
    with pytest.raises(ShapeError):
        SnapshotPair(np.ones((2, 3)), np.ones((2, 3)), np.arange(2))


# ----------------------------------------------------------------- delay_embed


def test_delay_embed_window_count_and_content():
    # Length-100 scalar trajectory, depth 10: 91 windows, each a python slice.
    states = np.linspace(0.0, 1.0, 100)
    traj = Trajectory(dt=1.0, states=states)
    emb = delay_embed(traj, 10)
    assert isinstance(emb, EmbeddedTrajectory)
    assert emb.states.shape == (91, 10)
    for i in (0, 37, 90):
        assert_array_equal(emb.states[i], states[i : i + 10])
    assert emb.depth_h == 10


def test_delay_embed_windows_overlap():
    rng = np.random.default_rng(5)
    traj = Trajectory(dt=1.0, states=rng.standard_normal((20, 3)))
    emb = delay_embed(traj, 4)
    # consecutive windows share h-1 blocks
    for t in range(emb.length - 1):
        assert_array_equal(emb.states[t, 3:], emb.states[t + 1, :-3])


def test_delay_embed_carries_input_histories():
    traj = Trajectory(
        dt=1.0,
        states=np.arange(5.0),
        inputs=np.arange(50.0, 55.0),
    )
    emb = delay_embed(traj, 2)
    assert emb.inputs.shape == (4, 2)
    assert_array_equal(emb.inputs[0], [50.0, 51.0])


def test_delay_embed_depth_one_is_identity_for_pairing():
    rng = np.random.default_rng(9)
    traj = Trajectory(dt=0.1, states=rng.standard_normal((12, 2)))
    raw = snapshot_pairs(traj)
    emb = snapshot_pairs(delay_embed(traj, 1))
    assert_array_equal(raw.x, emb.x)
    assert_array_equal(raw.xp, emb.xp)


def test_delay_embed_depth_bounds():
    traj = Trajectory(dt=1.0, states=np.arange(4.0))
    assert delay_embed(traj, 4).states.shape == (1, 4)
    with pytest.raises(ShapeError):
        delay_embed(traj, 5)
    with pytest.raises(ShapeError):
        delay_embed(traj, 0)


# ---------------------------------------------------------------- concat_pairs


def test_concat_pairs_keeps_sets_independent():
    t1 = Trajectory(dt=1.0, states=np.arange(6.0).reshape(3, 2))
    t2 = Trajectory(dt=1.0, states=np.arange(10.0, 18.0).reshape(4, 2))
    merged = concat_pairs([snapshot_pairs(t1), snapshot_pairs(t2)])
    assert merged.n_columns == 2 + 3
    # no column pairs t1's last state with t2's first
    assert_array_equal(merged.xp[:, 1], t1.states[2])
    assert_array_equal(merged.x[:, 2], t2.states[0])


def test_concat_pairs_rejects_mismatch():
    t1 = Trajectory(dt=1.0, states=np.arange(6.0).reshape(3, 2))
    t2 = Trajectory(dt=1.0, states=np.arange(9.0).reshape(3, 3))
    with pytest.raises(ShapeError):
        concat_pairs([snapshot_pairs(t1), snapshot_pairs(t2)])


# --------------------------------------------------------------------- CSV I/O


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    traj = Trajectory(
        dt=0.125,
        states=rng.standard_normal((17, 3)),
        inputs=rng.standard_normal((17, 2)),
        disturbances=rng.standard_normal((17, 1)),
    )
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    loaded = load_trajectory(path)
    assert loaded.dt == traj.dt
    assert_array_equal(loaded.states, traj.states)
    assert_array_equal(loaded.inputs, traj.inputs)
    assert_array_equal(loaded.disturbances, traj.disturbances)


def test_load_names_line_of_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1\n0,1\n1,2\n2,3,9\n")
    with pytest.raises(DataError, match="line 4"):
        load_trajectory(path)


def test_load_names_line_of_non_numeric_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1\n0,1\n1,oops\n")
    with pytest.raises(DataError, match="line 3.*oops"):
        load_trajectory(path)


@pytest.mark.parametrize("body, message", [
    ("t,x1\n0,1\n\n1,2\n2,3\n9,4\n", "line 6: time step 7.0 deviates"),
    ("t,x1\n0,1\n\n1,nan\n2,3\n", "line 4: non-finite value"),
    ("t,x1\n0,1\n\n0,2\n1,3\n", "line 4: time stamps must be strictly increasing"),
    ('t,x1\n0,1\n"1\n",2\n2,oops\n', "line 5: non-numeric value 'oops'"),
], ids=["uneven-step", "nan", "repeated-stamp", "quoted-newline"])
def test_load_names_file_line_not_row_number(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(DataError, match=message):
        load_trajectory(path)


def test_fast_body_parse_matches_per_field_parse(tmp_path):
    from dmdkit.data import _parse_body, _parse_rows

    rng = np.random.default_rng(32)
    scales = 10.0 ** rng.integers(-300, 300, (40, 3))
    traj = Trajectory(dt=0.1, states=rng.standard_normal((40, 3)) * scales)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    body = path.read_text().split("\n", 1)[1]
    fast = _parse_body(io.StringIO(body), 4)
    assert fast is not None
    assert_array_equal(fast, np.array(_parse_rows(io.StringIO(body), 4, 2, path)))


def test_load_reads_fields_the_fast_parser_refuses(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text('t,x1\r\n0,"1.5"\r\n\r\n1,2_0\r\n')
    loaded = load_trajectory(path)
    assert_array_equal(loaded.states[:, 0], [1.5, 20.0])


def test_load_rejects_time_jitter(tmp_path):
    path = tmp_path / "jitter.csv"
    path.write_text("t,x1\n0,1\n1,2\n2.002,3\n")  # 1e-3 relative jitter
    with pytest.raises(DataError, match="deviates"):
        load_trajectory(path)


def test_load_header_contract(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x1,t\n0,1\n1,2\n")
    with pytest.raises(DataError, match="start with column 't'"):
        load_trajectory(path)
    path.write_text("t,x1,x3\n0,1,1\n1,2,2\n")
    with pytest.raises(DataError, match="x2"):
        load_trajectory(path)
    path.write_text("t,u1\n0,1\n1,2\n")
    with pytest.raises(DataError, match="no state columns"):
        load_trajectory(path)
    path.write_text("t,u1,x1\n0,1,1\n1,2,2\n")
    with pytest.raises(DataError, match="out of order"):
        load_trajectory(path)


def test_load_trajectory_peak_memory_is_a_small_multiple_of_the_table(tmp_path):
    # the loader parses the open file, never holding its text, so it holds
    # the table and the states copied out of it
    traj = Trajectory(dt=0.01, states=np.random.default_rng(33).standard_normal((2001, 200)))
    path = tmp_path / "wide.csv"
    save_trajectory(traj, path)
    table_bytes = 2001 * 201 * 8
    tracemalloc.start()
    try:
        loaded = load_trajectory(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_array_equal(loaded.states, traj.states)
    # numpy < 1.23 has a pure-Python loadtxt that holds every value as a
    # Python float before building the table
    if np.lib.NumpyVersion(np.__version__) >= "1.23.0":
        assert peak <= 3 * table_bytes, peak / table_bytes


# more data rows than one np.loadtxt chunk (50,000 lines)
LONG_ROWS = 60_000


def long_csv_lines():
    traj = Trajectory(dt=0.5, states=np.random.default_rng(34).standard_normal((LONG_ROWS, 2)))
    text = io.StringIO()
    save_trajectory(traj, text)
    return text.getvalue().splitlines()


@pytest.mark.parametrize("damage, message", [
    (lambda fields: [fields[0], "oops", fields[2]], "non-numeric value 'oops'"),
    (lambda fields: fields + ["9"], "expected 3 fields, got 4"),
    (lambda fields: ["nan", *fields[1:]], "non-finite value"),
], ids=["non-numeric", "ragged", "nan-stamp"])
def test_long_file_names_its_last_line(tmp_path, damage, message):
    lines = long_csv_lines()
    lines[-1] = ",".join(damage(lines[-1].split(",")))
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"line {LONG_ROWS + 1}: {message}"):
        load_trajectory(path)


def test_long_file_with_bytes_not_utf8_on_its_last_line_is_refused(tmp_path):
    # the decoder fails inside np.loadtxt, far past the first read
    path = tmp_path / "long.csv"
    path.write_bytes(("\n".join(long_csv_lines()) + "\n").encode() + b"9e9,\xff,1\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_trajectory(path)


@pytest.mark.parametrize("rows", [10, LONG_ROWS])
def test_bytes_not_utf8_are_reported_before_an_earlier_bad_field(tmp_path, rows):
    # the whole text decodes before any row is judged, whether the bad bytes
    # are read with the bad field or far past it
    lines = long_csv_lines()[: rows + 1]
    lines[2] = "1,oops,2"
    path = tmp_path / "bad.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode() + b"9e9,\xff,1\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_trajectory(path)
    with pytest.raises(DataError, match="not UTF-8"):
        load_rows(path, "rows file")


def test_long_crlf_file_with_blank_line_loads_like_lf(tmp_path):
    lines = long_csv_lines()
    lf = tmp_path / "lf.csv"
    lf.write_bytes(("\n".join(lines) + "\n").encode())
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(("\r\n".join([*lines[:30_000], "", *lines[30_000:]]) + "\r\n").encode())
    expected, loaded = load_trajectory(lf), load_trajectory(crlf)
    assert loaded.dt == expected.dt
    assert_array_equal(loaded.states, expected.states)


def test_load_requires_two_rows(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("t,x1\n0,1\n")
    with pytest.raises(DataError, match="at least 2"):
        load_trajectory(path)
