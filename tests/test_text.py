"""Whole-array float text must match the per-value ``format(v, ".17g")`` it replaced."""

import csv
import dataclasses
import io
import json
import re

import numpy as np
import pytest

from dmdkit import _text
from dmdkit._text import float_texts, write_rows
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


def test_float_texts_match_per_value_format_and_keep_negative_zero():
    values = edge_and_random_values()
    assert float_texts(values) == per_value(values)
    assert float_texts(np.array([-0.0, 0.0])) == ["-0", "0"]


@pytest.mark.parametrize("values", [
    np.zeros(5), np.full(4, -0.0), np.array([]), np.array([3.5]),
    np.array([[0.0, 2.0], [-0.0, 0.0]]),
])
def test_float_texts_all_zero_none_zero_and_empty(values):
    assert float_texts(values) == per_value(values.ravel())


def test_write_rows_matches_csv_writer_across_chunks(monkeypatch):
    values = edge_and_random_values(count=600)[:330].reshape(30, 11)
    labels = np.arange(5, 35)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    for k, row in zip(labels, values):
        writer.writerow([k] + per_value(row))

    class Recorder(io.StringIO):
        def __init__(self):
            super().__init__()
            self.pieces = []

        def write(self, text):
            self.pieces.append(text)
            return super().write(text)

    monkeypatch.setattr(_text, "_CHUNK_ROWS", 8)
    out = Recorder()
    write_rows(out, values, labels=labels)
    assert out.getvalue() == expected.getvalue()
    # 30 rows at 8 per chunk: four writes, none holding the whole table
    assert [piece.count("\n") for piece in out.pieces] == [8, 8, 8, 6]


def dmd_record():
    a = np.array([[0.9, 0.2], [0.0, 0.5]])
    model = fit_svd_dmd(snapshot_pairs(simulate(linear_system(a, [1.0, -0.4], 12))))
    return ModelRecord(algorithm="dmd", model=model, rtol=1e-10,
                       residuals={"training": model.fit_residual})


def stored_text(path, name, part):
    text = path.read_text()
    block = re.search(rf'"{name}": {{.*?"{part}": \[(.*?)\]', text, re.S)
    return block.group(1)


def test_model_file_matrices_match_per_value_format_with_negative_zero_as_zero(tmp_path):
    real = edge_and_random_values(count=3000)
    imag = -real[::-1]
    record = dmd_record()
    model = dataclasses.replace(record.model, modes_v=(real + 1j * imag)[None, :])
    path = tmp_path / "model.json"
    save_model(dataclasses.replace(record, model=model), path)
    for part, values in (("real", real), ("imag", imag)):
        stored = stored_text(path, "modes_v", part)
        assert stored == ", ".join(per_value(values + 0.0))
        assert stored.split(", ")[1 if part == "real" else -2] == "0"  # was -0.0
    stored = json.loads(path.read_text())["matrices"]["modes_v"]
    assert np.array_equal(np.array(stored["real"], dtype=float), real)
    assert np.array_equal(np.array(stored["imag"], dtype=float), imag)
    # a 1 x 3000 mode matrix does not fit the 3-observable model around it
    with pytest.raises(DataError, match="modes_v"):
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
    record = dataclasses.replace(dmd_record(), residuals={"training": float("nan")})
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
