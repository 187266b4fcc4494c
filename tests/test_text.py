"""The numpy float-text kernel must give the bytes of per-value ``format(v, ".17g")``."""

import base64
import csv
import dataclasses
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from dmdkit import _text
from dmdkit._text import write_rows
from dmdkit.data import Trajectory, load_trajectory, save_trajectory, snapshot_pairs
from dmdkit.dmd import SpectralModel, fit_svd_dmd
from dmdkit.errors import ConfigError, DataError, NumericalError
from dmdkit.model_io import load_model, save_model
from dmdkit.observables import IdentityDictionary
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
    # non-finite entries alone, in a row of their own
    np.array([np.nan]), np.array([-np.inf]), np.array([np.copysign(np.nan, -1.0), np.inf]),
])
def test_float_texts_all_zero_none_zero_and_empty(values):
    assert float_texts(values) == per_value(values.ravel())


def layout_cells(per_cell=4):
    """Doubles whose 17-digit text has exactly k significant digits, by (e, k).

    For each decimal exponent e in -6..18 and each k in 1..17, up to
    ``per_cell`` values whose ``%.16e`` digits end in exactly 17 - k zeros.
    """
    rng = np.random.default_rng(34)
    cells = {}
    for e in range(-6, 19):
        for k in range(1, 18):
            for m in rng.integers(10 ** (k - 1), 10**k, size=400).tolist():
                v = float(f"{m}e{e - k + 1}")
                text = "%.16e" % v
                if m % 10 and int(text[19:]) == e and len((text[0] + text[2:18]).rstrip("0")) == k:
                    cells.setdefault((e, k), []).append(v)
                    if len(cells[(e, k)]) == per_cell:
                        break
    return cells


def test_float_texts_match_per_value_format_in_every_layout_cell():
    # random bit patterns rarely reach fixed form (e in -4..16) or short digit
    # strings, which decide the point's place and where the digits are cut
    cells = layout_cells()
    # no double lies within half a 17th digit of 1e-6..9e-6 or 1e-5..9e-5
    assert set(cells) == {(e, k) for e in range(-6, 19) for k in range(1, 18)} - {(-6, 1), (-5, 1)}
    values = np.array([v for group in cells.values() for v in group])
    values = np.concatenate([values, -values])
    assert float_texts(values) == per_value(values)


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
    # every digit count from 1 to 16, at both ends of each
    labels = np.array([0, 1, 9] + [b for k in range(2, 16) for b in (10 ** (k - 1), 10**k - 1)]
                      + [10**15, 2**53 - 1])
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


NON_FINITE_MIX = [np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 0.0, -0.0, 5e-324,
                  -2.2250738585072014e-308 / 3, 1e300, 0.1, -1.5, 1e-5, 1e17, 123456789.0]


@pytest.mark.parametrize("labelled", [False, True])
def test_write_rows_lays_out_nan_and_inf_with_the_other_entries(monkeypatch, labelled):
    # every row holds nan, -nan, +-inf, +-0.0, subnormals and 1e300, so each
    # chunk boundary has non-finite entries on both sides
    values = np.array([np.roll(NON_FINITE_MIX, k) for k in range(7)])
    assert np.signbit(values).sum() > np.signbit(values[np.isfinite(values)]).sum()
    labels = np.arange(10, 17) if labelled else None
    monkeypatch.setattr(_text, "_CHUNK_VALUES", 2 * (values.shape[1] + 1))  # two rows
    out = Recorder()
    write_rows(out, values, labels=labels)
    assert [piece.count("\n") for piece in out.pieces] == [2, 2, 2, 1]
    prefix = [[str(k)] for k in labels] if labelled else [[]] * len(values)
    expected = "".join(",".join(p + per_value(row)) + "\n" for p, row in zip(prefix, values))
    assert out.getvalue() == expected
    assert "nan,nan,inf,-inf,0,-0,4.9406564584124654e-324," in expected


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
    return fit_svd_dmd(snapshot_pairs(simulate(linear_system(a, [1.0, -0.4], 12))))


def test_model_file_matrices_match_per_value_format_with_negative_zero_as_zero(tmp_path):
    real = edge_and_random_values(count=3000)
    imag = -real[::-1]
    # one conjugate pair per value: upper members at even slots, so the pair
    # form of the 1 x 2k mode row interleaves the real and imaginary parts
    modes = np.column_stack([real, imag]).reshape(1, -1)
    values = np.tile([0.5 + 0.25j, 0.5 - 0.25j], real.size)
    coeffs = np.zeros((values.size, 1))
    model = SpectralModel(values, modes, coeffs, IdentityDictionary(1), "dmd", 1e-10,
                          residuals={"training": 0.0})
    path = tmp_path / "model.json"
    save_model(model, path)
    stored = json.loads(path.read_text())["matrices"]["modes"]
    assert "imag" not in stored
    bits = np.frombuffer(base64.b64decode(stored["real"]), "<u8").reshape(-1, 2)
    for part, column in ((real, 0), (imag, 1)):
        assert np.signbit(part).any() and np.signbit(part[part == 0]).any()
        # the stored bits are the model's, except that -0.0 is stored as +0.0
        assert np.array_equal(bits[:, column], (part + 0.0).astype("<f8").view("<u8"))
        assert not np.signbit(bits[:, column].view("<f8")[part == 0]).any()
    assert load_model(path).modes_pf.tobytes() == (modes + 0.0).tobytes()
    # a 1 x 2k mode matrix does not fit a 2-observable model
    with pytest.raises(ConfigError, match="'modes'"):
        dataclasses.replace(dmd_record(), eigenvalues=values, modes_pf=modes, coeffs_pf=coeffs)


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
    # the model refuses it before its conjugation rule, so no model holds
    # it to save, and a file that holds it is refused when loaded
    record = dmd_record()
    values = record.eigenvalues.astype(complex)
    values[-1] = bad
    with pytest.raises(NumericalError, match="matrix 'eigenvalues' is not finite"):
        dataclasses.replace(record, eigenvalues=values)
    path = tmp_path / "model.json"
    save_model(record, path)
    payload = json.loads(path.read_text())
    stored = payload["matrices"]["eigenvalues"]
    for key, part in (("real", values.real), ("imag", values.imag)):
        stored[key] = base64.b64encode(part.astype("<f8").tobytes()).decode("ascii")
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="^model file matrix 'eigenvalues' is not finite"):
        load_model(path)


def test_non_finite_metadata_number_raises_data_error(tmp_path):
    with pytest.raises(NumericalError, match="residual 'training' is not finite"):
        dataclasses.replace(dmd_record(), residuals={"training": float("nan")})
    path = tmp_path / "model.json"
    save_model(dmd_record(), path)
    payload = json.loads(path.read_text())
    payload["fit"]["residuals"]["training"] = float("nan")
    path.write_text(json.dumps(payload))  # as the constant NaN
    with pytest.raises(DataError, match="contains NaN; every number must be finite"):
        load_model(path)


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


# ------------------------------------------------------------------ reading


def read_counting(monkeypatch, text, width):
    """``read_rows`` of ``text``, and how many fields it left to ``float`` one at a time."""
    counted = []
    one_at_a_time = _text._one_at_a_time

    def counting(data, first, last):
        counted.append(len(first))
        return one_at_a_time(data, first, last)

    monkeypatch.setattr(_text, "_one_at_a_time", counting)
    return _text.read_rows(io.StringIO(text), width), sum(counted)


def midpoints(fields):
    """How many of the decimal ``fields`` lie exactly halfway between two doubles."""
    count = 0
    for field in fields:
        exact = Fraction(field)
        nearest = float(field)
        if nearest and exact != nearest and np.isfinite(nearest):
            other = np.nextafter(nearest, np.inf if exact > nearest else -np.inf)
            count += 2 * exact == Fraction(nearest) + Fraction(float(other))
    return count


def outside(values):
    """How many of ``values`` are nonzero with magnitudes outside [1e-250, 1e250]."""
    size = np.abs(np.asarray(values, dtype=float))
    return int(np.count_nonzero(((size < 1e-250) | (size > 1e250)) & (size != 0)))


def float_bits(table):
    return np.asarray(table, dtype=float).ravel().view(np.uint64)


def assert_reads_as_float(table, text):
    """``table`` holds, bit for bit, ``float`` of each field of ``text``."""
    assert table is not None
    fields = [field for line in text.splitlines() for field in line.split(",")]
    assert float_bits(table).tolist() == float_bits([float(f) for f in fields]).tolist()


def written(values, width):
    """``values`` as ``write_rows`` text, ``width`` to a row, and the table written."""
    table = np.resize(values, (-(-len(values) // width), width))
    out = io.StringIO()
    write_rows(out, table)
    return out.getvalue(), table


def test_reader_reads_back_every_layout_cell(monkeypatch):
    values = np.array([v for group in layout_cells().values() for v in group])
    text, table = written(np.concatenate([values, -values, [0.0, -0.0]]), 9)
    loaded, slow = read_counting(monkeypatch, text, 9)
    assert float_bits(loaded).tolist() == float_bits(table).tolist()
    assert_reads_as_float(loaded, text)
    assert slow == 0


def test_reader_reads_back_random_bit_patterns(monkeypatch):
    # about a fifth of all doubles lie outside [1e-250, 1e250], and those
    # fields go to float one at a time; no 17-digit field here is a midpoint
    values = edge_and_random_values(count=200_000, seed=35)
    text, table = written(values, 11)
    loaded, slow = read_counting(monkeypatch, text, 11)
    assert float_bits(loaded).tolist() == float_bits(table).tolist()
    assert_reads_as_float(loaded, text)
    assert slow == outside(table) == 37_670


@pytest.mark.parametrize("fmt, ties", [(repr, 6), ("%.18e".__mod__, 0), ("%.18E".__mod__, 0),
                                        ("%.15g".__mod__, 20)],
                         ids=["repr", "savetxt", "upper", "short"])
def test_reader_takes_other_writers_text(monkeypatch, fmt, ties):
    # shorter digit strings of integers from 2**54 on can be exact ties, as
    # 1.933387984781209e+16 is; float decides those, and the fields outside
    # [1e-250, 1e250]
    values = edge_and_random_values(count=20_000, seed=36)
    values = values[: values.size // 5 * 5]
    fields = [fmt(float(v)) for v in values]
    text = "".join(",".join(fields[i : i + 5]) + "\n" for i in range(0, len(fields), 5))
    loaded, slow = read_counting(monkeypatch, text, 5)
    assert_reads_as_float(loaded, text)
    assert midpoints(fields) == ties
    assert slow == outside(values) + ties


def test_reader_rounds_exact_ties_half_to_even(monkeypatch):
    # each is exactly halfway between two doubles, so the double-double sum
    # cannot tell which way it rounds, and float decides each one
    ties = ["9007199254740993", "9007199254740995", "-9007199254740993e0",
            "4503599627370496.5", "4503599627370497.5", "18014398509481986",
            "1152921504606847104", "900719925474099.3e1", "0.9007199254740993e16"]
    text = "\n".join(ties) + "\n"
    loaded, slow = read_counting(monkeypatch, text, 1)
    assert_reads_as_float(loaded, text)
    assert loaded[:, 0].tolist() == [2.0**53, 2.0**53 + 4, -(2.0**53), 2.0**52, 2.0**52 + 2,
                                     2.0**54, 2.0**60, 2.0**53, 2.0**53]
    assert slow == len(ties)


def test_reader_takes_signs_points_and_exponents_in_each_form(monkeypatch):
    text = ("+1,.5,5.,1E5,-0,+0.0\n"
            "-.5,-5.,1e-5,1e+5,007,-0e-999\n"
            "0.000123,123456789012345678e-300,1e250,9999999999999999999,00000000000000000000001,1.e3\n")
    loaded, slow = read_counting(monkeypatch, text, 6)
    assert_reads_as_float(loaded, text)
    assert slow == 1  # 1.2e-283 is below 1e-250
    assert np.signbit(loaded[[0, 1], [4, 5]]).all()


def test_reader_joins_rows_that_straddle_its_pieces(monkeypatch):
    values = edge_and_random_values(count=3000, seed=37)
    text, table = written(values, 7)
    crlf = text.replace("\n", "\r\n")
    whole = _text.read_rows(io.StringIO(crlf), 7)
    # first pieces of 21 characters, then of about 7 fields: most rows straddle two
    monkeypatch.setattr(_text, "_PIECE_FIELDS", 7)
    loaded, _ = read_counting(monkeypatch, crlf, 7)
    assert float_bits(loaded).tolist() == float_bits(whole).tolist() == float_bits(table).tolist()
    # a last line with no line end is read too
    loaded, _ = read_counting(monkeypatch, crlf.removesuffix("\r\n"), 7)
    assert float_bits(loaded).tolist() == float_bits(table).tolist()


def test_crlf_and_byte_order_mark_load_through_the_reader(tmp_path, monkeypatch):
    import dmdkit.data

    values = edge_and_random_values(count=600, seed=38)
    values = values[np.abs(values) < 1e100][:300].reshape(100, 3)
    traj = Trajectory(dt=0.25, states=values)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    other = tmp_path / "other.csv"
    other.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))

    def refused(*args):
        raise AssertionError("loaded one record at a time")

    monkeypatch.setattr(dmdkit.data, "_parse_rows", refused)
    for loaded in (load_trajectory(path), load_trajectory(other)):
        assert loaded.dt == 0.25
        assert float_bits(loaded.states).tolist() == float_bits(values).tolist()


@pytest.mark.parametrize("row", [
    '1,"1.5",2', "1,1_5,2", "1, 1.5 ,2", "1,1e0005,2", "1,1.2345678901234567890123,2",
    "1,١٢,2", "1,0x1p0,2",
], ids=["quoted", "underscore", "spaces", "4-digit-exponent", "20-digits", "arabic-digits",
        "hex"])
def test_forms_the_reader_refuses_load_one_record_at_a_time(tmp_path, row):
    body = f"0,1,2\n{row}\n2,3,4\n"
    assert _text.read_rows(io.StringIO(body), 3) is None
    path = tmp_path / "odd.csv"
    fields = next(csv.reader([row]))
    try:
        expected = [float(f) for f in fields]
    except ValueError:
        path.write_text("t,x1,x2\n" + body)
        with pytest.raises(DataError, match="line 3: non-numeric value"):
            load_trajectory(path)
        return
    path.write_text("t,x1,x2\n" + body + "3,oops,5\n")
    with pytest.raises(DataError, match="line 5: non-numeric value 'oops'$"):
        load_trajectory(path)
    path.write_text("t,x1,x2\n" + body)
    loaded = load_trajectory(path)
    assert loaded.states[1].tolist() == expected[1:]


@pytest.mark.parametrize("body, message", [
    ("0,1,2\n\n1,2,3\n2,oops,4\n", "line 5: non-numeric value 'oops'"),
    ("0,1,2\n1,inf,3\n2,3,4\n", "line 3: non-finite value"),
    ("0,1,2\n1,nan,3\n2,3,4\n", "line 3: non-finite value"),
    ("0,1,2\r\n1,2,3\r\n\r\n3,4,5\r\n", "line 5: time step 2.0 deviates"),
    # taken by the reader, whose float of 1e999 is inf
    ("0,1,2\n1,1e999,3\n2,3,4\n", "line 3: non-finite value"),
], ids=["blank-line", "inf", "nan", "crlf-blank-line", "overflow"])
def test_refused_forms_keep_their_line_numbers(tmp_path, body, message):
    assert (_text.read_rows(io.StringIO(body), 3) is None) == ("e999" not in body)
    path = tmp_path / "odd.csv"
    path.write_text("t,x1,x2\n" + body, newline="")
    with pytest.raises(DataError, match=message):
        load_trajectory(path)
