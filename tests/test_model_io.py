import base64
import copy
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dmdkit.cli import main
from dmdkit.data import SnapshotPair, snapshot_pairs
from dmdkit.dmd import (
    SpectralModel,
    eigenfunction_values,
    fit_companion,
    fit_svd_dmd,
    full_operator,
    predict,
)
from dmdkit.edmd import fit_edmd
from dmdkit.errors import ConfigError, DataError, DmdkitError
from dmdkit.kernel_edmd import fit_kernel_edmd
from dmdkit.linalg import conjugate_pairs
from dmdkit.model_io import (
    SCHEMA_VERSION,
    ModelRecord,
    _arrays_for,
    load_model,
    save_model,
)
from dmdkit.observables import (
    CustomDictionary,
    GaussianKernel,
    IdentityDictionary,
    KernelDictionary,
    PolynomialDictionary,
    PolynomialKernel,
    strided_centers,
)
from dmdkit.systems import quadratic_system, simulate


def linear_pair(n=3, steps=12, seed=5):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= 0.9 / max(np.abs(np.linalg.eigvals(a)))
    x0 = rng.standard_normal(n)
    cols = [x0]
    for _ in range(steps):
        cols.append(a @ cols[-1])
    states = np.column_stack(cols)
    return SnapshotPair(states[:, :-1], states[:, 1:], np.arange(steps))


def quadratic_pair(steps=25):
    traj = simulate(quadratic_system(0.9, 0.5, 0.4, (1.0, -0.4), steps))
    return snapshot_pairs(traj)


def spiral_pair(steps=11):
    rot = 0.9 * np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    cols = [np.array([1.0, 0.2])]
    for _ in range(steps):
        cols.append(rot @ cols[-1])
    states = np.column_stack(cols)
    return SnapshotPair(states[:, :-1], states[:, 1:], np.arange(steps))


def dmd_record():
    return ModelRecord(algorithm="dmd", model=fit_svd_dmd(linear_pair()), rtol=1e-10)


def companion_record():
    pair = linear_pair(n=2, steps=8, seed=3)
    return ModelRecord(algorithm="companion", model=fit_companion(pair), rtol=1e-12)


def edmd_record(dictionary=None):
    pair = quadratic_pair()
    if dictionary is None:
        dictionary = PolynomialDictionary(2, degree=2)
    return ModelRecord(algorithm="edmd", model=fit_edmd(pair, dictionary), rtol=1e-10)


def rbf_record():
    centers = strided_centers(quadratic_pair().x, 6)
    return edmd_record(KernelDictionary(GaussianKernel(0.7), centers.T))


def kernel_record():
    model = fit_kernel_edmd(spiral_pair(), PolynomialKernel(2))
    return ModelRecord(algorithm="kernel-edmd", model=model, rtol=1e-10)


RECORD_MAKERS = [dmd_record, companion_record, edmd_record, kernel_record, rbf_record]


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_loaded_model_forecasts_and_eigenfunctions_bit_for_bit(tmp_path, capsys, make_record):
    record = make_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    assert (loaded.algorithm, loaded.rtol) == (record.algorithm, record.rtol)
    model, want = loaded.model, record.model
    assert model.features.input_dim == want.features.input_dim
    assert model.flags == want.flags
    assert model.residuals == want.residuals
    assert type(model.features) is type(want.features)
    assert model.features.spec_string() == want.features.spec_string()
    for name, value in _arrays_for(want).items():
        assert_array_equal(_arrays_for(model)[name], value, err_msg=name)
    z = np.random.default_rng(41).uniform(-1.0, 1.0, (model.features.input_dim, 3))
    assert_array_equal(predict(model, z[:, 0], 7), predict(want, z[:, 0], 7))
    assert_array_equal(eigenfunction_values(model, z), eigenfunction_values(want, z))
    assert_array_equal(full_operator(model), full_operator(want))
    # the schema-2, -3, -4 and -5 layouts this replaces are refused, not migrated
    payload = json.loads(path.read_text())
    for version in (2, 3, 4, 5):
        payload["schema_version"] = version
        path.write_text(json.dumps(payload))
        assert main(["spectrum", str(path)]) == 3
        assert capsys.readouterr().err == f"error: model file schema_version {version} " \
            f"is not supported (this build reads version {SCHEMA_VERSION})\n"


def doubles(text):
    """The doubles a stored ``real`` or ``imag`` string holds."""
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8")


def round_trip(tmp_path, record):
    path = tmp_path / "model.json"
    save_model(record, path)
    return load_model(path)


def assert_spectra_equal(loaded, want):
    assert_array_equal(loaded.eigenvalues, want.eigenvalues)
    assert_array_equal(loaded.modes_v, want.modes_v)
    assert_array_equal(loaded.coeffs, want.coeffs)
    assert loaded.residuals == want.residuals


def test_dmd_round_trip_is_exact(tmp_path):
    record = dmd_record()
    loaded = round_trip(tmp_path, record)
    assert loaded.algorithm == "dmd"
    assert loaded.rtol == record.rtol
    assert isinstance(loaded.model.features, IdentityDictionary)
    assert _arrays_for(loaded.model)["points"] is None
    assert_spectra_equal(loaded.model, record.model)
    assert loaded.model.fit_residual == record.model.fit_residual


def test_companion_round_trip_is_exact(tmp_path):
    record = companion_record()
    loaded = round_trip(tmp_path, record)
    assert loaded.algorithm == "companion"
    assert loaded.model.features.input_dim == record.model.features.input_dim
    assert_spectra_equal(loaded.model, record.model)


def test_edmd_round_trip_is_exact(tmp_path):
    record = edmd_record()
    loaded = round_trip(tmp_path, record)
    assert loaded.model.features.spec_string() == "poly:2"
    assert_spectra_equal(loaded.model, record.model)
    assert loaded.model.lifted_residual == record.model.lifted_residual
    assert loaded.model.flags == record.model.flags


def test_kernel_round_trip_is_exact(tmp_path):
    record = kernel_record()
    loaded = round_trip(tmp_path, record)
    assert loaded.model.features.spec_string() == record.model.features.spec_string()
    assert_spectra_equal(loaded.model, record.model)
    assert_array_equal(loaded.model.features.points, record.model.features.points)


def test_loaded_dmd_model_predicts_to_machine_precision(tmp_path):
    record = dmd_record()
    loaded = round_trip(tmp_path, record)
    g0 = np.array([0.3, -1.1, 0.7])
    assert_allclose(
        predict(loaded.model, g0, 6), predict(record.model, g0, 6),
        rtol=1e-13, atol=1e-15,
    )


def test_loaded_edmd_model_predicts_to_machine_precision(tmp_path):
    record = edmd_record()
    loaded = round_trip(tmp_path, record)
    z0 = np.array([0.8, -0.3])
    assert_allclose(
        predict(loaded.model, z0, 5), predict(record.model, z0, 5),
        rtol=1e-13, atol=1e-15,
    )


def test_loaded_kernel_model_predicts_to_machine_precision(tmp_path):
    record = kernel_record()
    loaded = round_trip(tmp_path, record)
    z0 = np.array([0.5, 0.1])
    assert_allclose(
        predict(loaded.model, z0, 5), predict(record.model, z0, 5),
        rtol=1e-13, atol=1e-15,
    )


@pytest.mark.parametrize("builder", RECORD_MAKERS)
def test_save_load_save_is_byte_identical(tmp_path, builder):
    record = builder()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(record, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_rbf_centers_round_trip(tmp_path):
    record = rbf_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    assert isinstance(loaded.model.features, KernelDictionary)
    assert loaded.model.features.kernel.sigma == 0.7
    assert_array_equal(loaded.model.features.points, record.model.features.points)
    z = np.array([0.4, -0.2])
    assert_array_equal(
        loaded.model.features.transform(z), record.model.features.transform(z)
    )


def test_custom_dictionary_cannot_be_saved(tmp_path):
    funcs = [
        ("1", lambda z: 1.0),
        ("x1", lambda z: z[0]),
        ("x2", lambda z: z[1]),
        ("x1^2", lambda z: z[0] ** 2),
    ]
    record = edmd_record(CustomDictionary(2, funcs))
    with pytest.raises(ConfigError):
        save_model(record, tmp_path / "model.json")


def test_schema_version_mismatch_names_both_versions(tmp_path):
    path = tmp_path / "model.json"
    save_model(dmd_record(), path)
    payload = json.loads(path.read_text())
    payload["schema_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="99") as err:
        load_model(path)
    assert str(SCHEMA_VERSION) in str(err.value)


def test_missing_top_level_key_is_reported(tmp_path):
    path = tmp_path / "model.json"
    save_model(dmd_record(), path)
    payload = json.loads(path.read_text())
    del payload["matrices"]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="matrices"):
        load_model(path)


def test_missing_matrix_key_is_reported(tmp_path):
    path = tmp_path / "model.json"
    save_model(dmd_record(), path)
    payload = json.loads(path.read_text())
    del payload["matrices"]["coeffs"]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="coeffs"):
        load_model(path)


def test_real_matrix_with_imaginary_entries_is_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(kernel_record(), path)
    payload = json.loads(path.read_text())
    stored = payload["matrices"]["points"]
    assert "imag" not in stored
    imag = np.zeros(stored["rows"] * stored["cols"])
    imag[0] = 0.5
    stored["imag"] = base64.b64encode(imag.astype("<f8").tobytes()).decode("ascii")
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="points"):
        load_model(path)


def test_garbage_file_raises_data_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json at all {")
    with pytest.raises(DataError):
        load_model(path)


def test_missing_file_raises_data_error(tmp_path):
    with pytest.raises(DataError):
        load_model(tmp_path / "absent.json")


def test_non_finite_values_are_refused(tmp_path):
    import dataclasses

    record = dmd_record()
    broken = dataclasses.replace(record.model, coeffs=np.array([[np.inf]]))
    bad = dataclasses.replace(record, model=broken)
    with pytest.raises(DataError, match="finite"):
        save_model(bad, tmp_path / "model.json")


def test_unknown_algorithm_tag_is_refused():
    with pytest.raises(ConfigError):
        ModelRecord(algorithm="pod", model=None, rtol=1e-10)


@pytest.mark.parametrize("make_record, damage, named", [
    (kernel_record, lambda p: p["matrices"].pop("points"), "missing matrix key 'points'"),
    (rbf_record, lambda p: p["matrices"].pop("points"), "unknown dictionary kind 'gaussian'"),
    (edmd_record, lambda p: p["fit"].update(features="gaussian:1"), "unknown dictionary"),
    (kernel_record, lambda p: p.update(algorithm="dmd"), "dmd model cannot hold Kernel"),
    (edmd_record, lambda p: p.update(algorithm="companion"),
     "companion model cannot hold PolynomialDictionary"),
], ids=["kernel-without-points", "rbf-without-points", "kernel-spec-without-points",
        "kernel-as-dmd", "poly-as-companion"])
def test_loaded_features_must_fit_the_file(tmp_path, make_record, damage, named):
    path = tmp_path / "model.json"
    save_model(make_record(), path)
    payload = json.loads(path.read_text())
    damage(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=named):
        load_model(path)


def test_record_features_must_match_algorithm(tmp_path):
    kernel_model = kernel_record().model
    for algorithm in ("dmd", "companion"):
        record = ModelRecord(algorithm=algorithm, model=kernel_model, rtol=1e-10)
        with pytest.raises(ConfigError, match=algorithm):
            save_model(record, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()


def test_file_floats_survive_json_parse_exactly(tmp_path):
    record = dmd_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    payload = json.loads(path.read_text())
    stored = payload["matrices"]["coeffs"]
    # pair form: real rows as they are, an upper row's real part in its own
    # slot and its imaginary part in its lower partner's slot
    _, upper, lower = conjugate_pairs(record.model.eigenvalues)
    assert upper.size > 0
    coeffs = record.model.coeffs
    want = coeffs.real.copy()
    want[lower] = coeffs.imag[upper]
    assert "imag" not in stored
    assert doubles(stored["real"]).tobytes() == want.tobytes()
    loaded = load_model(path).model.coeffs
    assert loaded.tobytes() == coeffs.tobytes()


def test_matrix_payload_is_little_endian_binary64(tmp_path):
    one = np.array([[1.0]])
    model = SpectralModel(eigenvalues=np.array([1.0]), modes_v=one, coeffs=one,
                          features=IdentityDictionary(1), residuals={"training": 0.0})
    path = tmp_path / "model.json"
    save_model(ModelRecord(algorithm="dmd", model=model, rtol=1e-10), path)
    stored = json.loads(path.read_text())["matrices"]
    for name in ("eigenvalues", "modes", "coeffs"):
        assert stored[name] == {"rows": 1, "cols": 1, "real": "AAAAAAAA8D8="}, name
    assert load_model(path).model.eigenvalues.tolist() == [1.0]


# ---------------------------------------------------------------- schema 6


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_imag_is_stored_exactly_when_some_entry_is_nonzero(tmp_path, make_record):
    record = make_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    stored = json.loads(path.read_text())["matrices"]
    arrays = _arrays_for(record.model)
    assert set(stored) == {name for name, value in arrays.items() if value is not None}
    for name in {"eigenvalues", "points"} & set(stored):
        matrix = stored[name]
        assert ("imag" in matrix) == bool(np.any(np.imag(arrays[name]))), name
        if "imag" in matrix:
            assert np.any(doubles(matrix["imag"]))


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_modes_and_coeffs_are_stored_real_in_pair_form(tmp_path, make_record):
    record = make_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    stored = json.loads(path.read_text())["matrices"]
    model = record.model
    r, n, f = model.eigenvalues.size, model.features.input_dim, model.features.size
    for name, count in (("modes", n * r), ("coeffs", r * f)):
        assert "imag" not in stored[name], name
        assert doubles(stored[name]["real"]).size == count, name
    assert doubles(stored["eigenvalues"]["real"]).size == r


def test_all_real_spectrum_has_no_imag_in_the_file(tmp_path):
    pair = quadratic_pair()
    model = fit_svd_dmd(pair)
    assert not np.any(model.eigenvalues.imag)
    path = tmp_path / "model.json"
    save_model(ModelRecord(algorithm="dmd", model=model, rtol=1e-10), path)
    stored = json.loads(path.read_text())["matrices"]
    assert not any("imag" in matrix for matrix in stored.values())
    loaded = load_model(path).model
    assert_array_equal(loaded.modes_v, model.modes_v)
    assert_array_equal(loaded.coeffs, model.coeffs)


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_eigenvalues_not_closed_under_conjugation_exit_3(tmp_path, capsys, make_record):
    path = tmp_path / "model.json"
    save_model(make_record(), path)
    payload = json.loads(path.read_text())
    values = payload["matrices"]["eigenvalues"]
    imag = np.zeros(values["cols"]) if "imag" not in values else doubles(values["imag"]).copy()
    imag[0] += 0.125  # no other eigenvalue is the conjugate of the new first one
    values["imag"] = base64.b64encode(imag.astype("<f8").tobytes()).decode("ascii")
    path.write_text(json.dumps(payload))
    ic = tmp_path / "ic.csv"
    ic.write_text(",".join(["0.5"] * payload["fit"]["observable_dim"]) + "\n")
    for argv in (["spectrum", str(path)], ["predict", str(path), str(ic), "2"]):
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: model file eigenvalues are not closed " \
            "under conjugation, as the spectrum of a real map must be\n"


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_fit_only_matrices_are_not_stored(tmp_path, make_record):
    path = tmp_path / "model.json"
    save_model(make_record(), path)
    stored = json.loads(path.read_text())["matrices"]
    assert set(stored) <= {"eigenvalues", "modes", "coeffs", "points"}


def test_complex_matrix_without_imag_loads_as_complex(tmp_path):
    path = tmp_path / "model.json"
    save_model(dmd_record(), path)
    payload = json.loads(path.read_text())
    payload["matrices"]["eigenvalues"].pop("imag", None)
    path.write_text(json.dumps(payload))
    model = load_model(path).model
    # an all-real spectrum reads every pair-form slot as a real vector
    for matrix in (model.eigenvalues, model.modes_v, model.coeffs):
        assert matrix.dtype == complex and not np.any(matrix.imag)


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_version_1_file_is_refused_with_exit_3(tmp_path, capsys, make_record):
    path = tmp_path / "model.json"
    save_model(make_record(), path)
    payload = json.loads(path.read_text())
    payload["schema_version"] = 1
    path.write_text(json.dumps(payload))
    assert main(["spectrum", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: model file schema_version 1 is not supported " \
        f"(this build reads version {SCHEMA_VERSION})\n"


DAMAGES = [None, "x", ["x"], [], {}, -1, 1e300, True]


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_damaged_fields_raise_data_error(tmp_path, make_record):
    # every damage either still reads as a valid file (a missing imag list,
    # say) or raises DataError; no other exception may escape the loader,
    # and a file that loads forecasts or raises a dmdkit error
    path = tmp_path / "model.json"
    save_model(make_record(), path)
    original = json.loads(path.read_text())
    z = np.full(original["fit"]["observable_dim"], 0.5)
    targets = [(key,) for key in original if key != "schema_version"]
    targets += [("fit", key) for key in original["fit"]]
    for name, matrix in original["matrices"].items():
        targets += [("matrices", name)] + [("matrices", name, key) for key in matrix]
    for target in targets:
        for damage in DAMAGES + ["delete"]:
            payload = copy.deepcopy(original)
            holder = payload
            for key in target[:-1]:
                holder = holder[key]
            if damage == "delete":
                del holder[target[-1]]
            else:
                holder[target[-1]] = damage
            path.write_text(json.dumps(payload))
            try:
                loaded = load_model(path)
            except DataError:
                continue
            try:
                predict(loaded.model, z, 2)
            except DmdkitError:
                pass
