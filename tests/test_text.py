"""The numpy float-text kernel must give the bytes of per-value ``format(v, ".17g")``."""

import base64
import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from dmdkit import _text
from dmdkit._text import write_rows
from dmdkit.data import Trajectory, save_trajectory, snapshot_pairs
from dmdkit.dmd import fit_svd_dmd
from dmdkit.errors import DataError
from dmdkit.model_io import ModelRecord, load_model, save_model
from dmdkit.systems import linear_system, simulate

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
    float(2**53), float(2**53) + 2.0, -float(2**53), 1e16, 1e17, -1e17,
    0.1, -0.1, 1.0 / 3.0, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308,
    1.0, -1.0, 123456789.0, 0.5,
    # exact 17-digit ties, settled half to even; the last one scales by
    # 10**23, which no double holds exactly
    1e15 + 0.25, 1e15 + 0.75, 1.0 + 2.0**-17, 3 * 2.0**-24,
]


def edge_and_random_values(count=20000, seed=7):
    """EDGE_VALUES plus finite doubles drawn uniformly over all bit patterns."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64, endpoint=False)
    drawn = bits.view(np.float64)
    drawn = drawn[np.isfinite(drawn)]
    return np.concatenate([np.array(EDGE_VALUES), drawn])


def per_value(values):
    return [format(float(v), ".17g") for v in values]


def float_texts(values):
    """The fields ``write_rows`` writes for ``values`` as one row, in C order."""
    flat = np.asarray(values, dtype=float).ravel()
    if not flat.size:
        return []
    out = io.StringIO()
    write_rows(out, flat[None, :])
    return out.getvalue().removesuffix("\n").split(",")


def test_float_texts_match_per_value_format_and_keep_negative_zero():
    values = edge_and_random_values()
    assert float_texts(values) == per_value(values)
    assert float_texts(np.array([-0.0, 0.0])) == ["-0", "0"]


def test_float_texts_match_per_value_format_on_a_million_bit_patterns():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, size=1_100_000, dtype=np.uint64)
    drawn = bits.view(np.float64)
    drawn = drawn[np.isfinite(drawn)]
    assert drawn.size >= 1_000_000
    assert float_texts(drawn) == per_value(drawn)


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)])


def test_float_texts_match_per_value_format_at_powers_of_ten():
    powers = with_neighbours(10.0 ** np.arange(-323, 309))
    powers = powers[np.isfinite(powers)]
    values = np.concatenate([powers, -powers])
    assert float_texts(values) == per_value(values)


def test_float_texts_match_per_value_format_at_g_switch_points():
    # %g turns to scientific form below 1e-4 and from 1e17 on
    values = with_neighbours([1e-5, 1e-4, 1e16, 1e17])
    values = np.concatenate([values, -values])
    texts = float_texts(values)
    assert texts == per_value(values)
    assert texts[:4] == ["1.0000000000000001e-05", "0.0001", "10000000000000000", "1e+17"]


def test_float_texts_match_per_value_format_on_subnormals_and_zeros():
    tiny = np.float64(5e-324)
    values = np.concatenate([
        [0.0, -0.0, tiny, -tiny, 2 * tiny, 2.2250738585072009e-308],
        np.nextafter(2.2250738585072014e-308, 0.0) / 2.0 ** np.arange(0, 52, 3),
    ])
    values = np.concatenate([values, -values])
    assert float_texts(values) == per_value(values)


@pytest.mark.parametrize("values", [
    np.zeros(5), np.full(4, -0.0), np.array([]), np.array([3.5]),
    np.array([[0.0, 2.0], [-0.0, 0.0]]),
])
def test_float_texts_all_zero_none_zero_and_empty(values):
    assert float_texts(values) == per_value(values.ravel())


class Recorder(io.StringIO):
    """A text stream that keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


def test_write_rows_matches_csv_writer_across_chunks(monkeypatch):
    values = edge_and_random_values(count=600)[:330].reshape(30, 11)
    labels = np.arange(5, 35)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    for k, row in zip(labels, values):
        writer.writerow([k] + per_value(row))

    monkeypatch.setattr(_text, "_CHUNK_ROWS", 8)
    out = Recorder()
    write_rows(out, values, labels=labels)
    assert out.getvalue() == expected.getvalue()
    # 30 rows at 8 per chunk: four writes, none holding the whole table
    assert [piece.count("\n") for piece in out.pieces] == [8, 8, 8, 6]


def test_write_rows_prints_labels_below_2_to_53_as_integers():
    labels = np.array([0, 1, 9, 10, 99, 10**15, 2**53 - 1])
    table = np.full((labels.size, 1), 0.5)
    out = io.StringIO()
    write_rows(out, table, labels=labels)
    assert out.getvalue() == "".join(f"{k},0.5\n" for k in labels.tolist())
    for bad in (np.array([2**53]), np.array([0.5]), np.arange(3)):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            write_rows(io.StringIO(), np.zeros((1, 1)), labels=bad)


def test_write_rows_keeps_printing_nan_and_inf():
    table = np.array([[1.5, np.nan, -np.inf], [np.inf, -0.0, 0.1]])
    out = io.StringIO()
    write_rows(out, table, labels=[4, 5])
    assert out.getvalue() == "4,1.5,nan,-inf\n5,inf,-0,0.10000000000000001\n"


def test_pieces_stay_bounded_by_value_count(monkeypatch):
    monkeypatch.setattr(_text, "_CHUNK_VALUES", 30)
    values = edge_and_random_values(count=600)[:330].reshape(30, 11)
    out = Recorder()
    write_rows(out, values, labels=np.arange(30))
    # 12 fields a row, 30 values a piece: two rows per write
    assert [piece.count("\n") for piece in out.pieces] == [2] * 15
    expected = "".join(
        ",".join([str(k)] + per_value(row)) + "\n" for k, row in enumerate(values))
    assert out.getvalue() == expected


def dmd_record():
    a = np.array([[0.9, 0.2], [0.0, 0.5]])
    model = fit_svd_dmd(snapshot_pairs(simulate(linear_system(a, [1.0, -0.4], 12))))
    return ModelRecord(algorithm="dmd", model=model, rtol=1e-10)


def test_model_file_matrices_match_per_value_format_with_negative_zero_as_zero(tmp_path):
    real = edge_and_random_values(count=3000)
    imag = -real[::-1]
    record = dmd_record()
    # one conjugate pair per value: upper members at even slots, so the pair
    # form of the 1 x 2k mode row interleaves the real and imaginary parts
    upper = real + 1j * imag
    modes = np.column_stack([upper, np.conj(upper)]).reshape(1, -1)
    values = np.tile([0.5 + 0.25j, 0.5 - 0.25j], real.size)
    model = dataclasses.replace(record.model, eigenvalues=values, modes_v=modes,
                                coeffs=np.zeros((values.size, 2), dtype=complex))
    path = tmp_path / "model.json"
    save_model(dataclasses.replace(record, model=model), path)
    stored = json.loads(path.read_text())["matrices"]["modes"]
    assert "imag" not in stored
    bits = np.frombuffer(base64.b64decode(stored["real"]), "<u8").reshape(-1, 2)
    for part, column in ((real, 0), (imag, 1)):
        assert np.signbit(part).any() and np.signbit(part[part == 0]).any()
        # the stored bits are the model's, except that -0.0 is stored as +0.0
        assert np.array_equal(bits[:, column], (part + 0.0).astype("<f8").view("<u8"))
        assert not np.signbit(bits[:, column].view("<f8")[part == 0]).any()
    # a 1 x 2k mode matrix does not fit the 2-observable model around it
    with pytest.raises(DataError, match="'modes'"):
        load_model(path)


def test_model_file_is_valid_json_and_resaves_byte_identical(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(dmd_record(), first)
    json.loads(first.read_text())
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("bad", [
    complex(np.inf, 0.0), complex(-np.inf, 0.0), complex(np.nan, 0.0),
    complex(0.5, np.nan), complex(0.5, -np.inf),
])
def test_non_finite_matrix_entry_raises_data_error(tmp_path, bad):
    record = dmd_record()
    values = record.model.eigenvalues.astype(complex)
    values[-1] = bad
    model = dataclasses.replace(record.model, eigenvalues=values)
    with pytest.raises(DataError, match="finite"):
        save_model(dataclasses.replace(record, model=model), tmp_path / "model.json")


def test_non_finite_metadata_number_raises_data_error(tmp_path):
    record = dmd_record()
    model = dataclasses.replace(record.model, residuals={"training": float("nan")})
    record = dataclasses.replace(record, model=model)
    path = tmp_path / "model.json"
    with pytest.raises(DataError, match="non-finite"):
        save_model(record, path)
    assert not path.exists()


def reference_trajectory_csv(traj):
    """The per-value csv.writer trajectory writer, kept as the reference."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t"] + [f"x{i}" for i in range(1, traj.n_states + 1)]
                    + [f"u{i}" for i in range(1, traj.n_inputs + 1)])
    for i in range(traj.length):
        row = [format(float(i * traj.dt), ".17g")] + per_value(traj.states[i])
        row += per_value(traj.inputs[i])
        writer.writerow(row)
    return out.getvalue()


@pytest.mark.parametrize("dt", [1.0, 0.1, 0.7, 1e-3])
def test_trajectory_csv_matches_per_value_writer_and_keeps_negative_zero(tmp_path, dt):
    values = edge_and_random_values(count=4000, seed=11)
    rows = values.size // 3
    table = values[: rows * 3].reshape(rows, 3)
    table[0, 0] = -0.0
    traj = Trajectory(dt=dt, states=table[:, :2], inputs=table[:, 2:])
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    text = path.read_text()
    assert text == reference_trajectory_csv(traj)
    assert text.splitlines()[1].split(",")[1] == "-0"
