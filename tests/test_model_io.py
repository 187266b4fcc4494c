import copy
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dmdkit.cli import main
from dmdkit.data import SnapshotPair, snapshot_pairs
from dmdkit.dmd import (
    _spectral_predict,
    companion_modes,
    fit_companion,
    fit_svd_dmd,
    predict,
)
from dmdkit.dmd import eigenfunction_values as dmd_phi
from dmdkit.edmd import edmd_predict, fit_edmd
from dmdkit.edmd import eigenfunction_values as edmd_phi
from dmdkit.errors import ConfigError, DataError
from dmdkit.kernel_edmd import eigenfunction_values as kernel_phi
from dmdkit.kernel_edmd import fit_kernel_edmd, kernel_predict
from dmdkit.model_io import (
    SCHEMA_VERSION,
    ModelRecord,
    _arrays_for,
    load_model,
    save_model,
)
from dmdkit.observables import (
    CustomDictionary,
    PolynomialDictionary,
    PolynomialKernel,
    RbfDictionary,
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
    pair = linear_pair()
    model = fit_svd_dmd(pair)
    return ModelRecord(
        algorithm="dmd",
        model=model,
        rtol=1e-10,
        residuals={"training": model.fit_residual},
    )


def companion_record():
    pair = linear_pair(n=2, steps=8, seed=3)
    fit = fit_companion(pair)
    modes = companion_modes(fit, pair)
    return ModelRecord(
        algorithm="companion",
        model=fit,
        rtol=1e-12,
        residuals={"training": 0.0},
        companion_modes=modes,
    )


def edmd_record(dictionary=None):
    pair = quadratic_pair()
    if dictionary is None:
        dictionary = PolynomialDictionary(2, degree=2)
    model = fit_edmd(pair, dictionary)
    return ModelRecord(
        algorithm="edmd",
        model=model,
        rtol=1e-10,
        residuals={"lifted": model.lifted_residual, "observable": model.d_residual},
    )


def kernel_record():
    pair = spiral_pair()
    model = fit_kernel_edmd(pair, PolynomialKernel(2))
    return ModelRecord(
        algorithm="kernel-edmd",
        model=model,
        rtol=1e-10,
        residuals={"training": model.fit_residual},
    )


def test_dmd_round_trip_is_exact(tmp_path):
    record = dmd_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    assert loaded.algorithm == "dmd"
    assert loaded.rtol == record.rtol
    assert_array_equal(loaded.model.k_hat, record.model.k_hat)
    assert_array_equal(loaded.model.eigenvalues, record.model.eigenvalues)
    assert_array_equal(loaded.model.eigenvectors_p, record.model.eigenvectors_p)
    assert_array_equal(loaded.model.modes_v, record.model.modes_v)
    assert_array_equal(loaded.model.svd_u, record.model.svd_u)
    assert_array_equal(loaded.model.svd_sigma, record.model.svd_sigma)
    assert loaded.model.fit_residual == record.model.fit_residual


def test_companion_round_trip_is_exact(tmp_path):
    record = companion_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    assert loaded.model.window == record.model.window
    assert_array_equal(loaded.model.c_matrix, record.model.c_matrix)
    assert_array_equal(loaded.model.eigenvalues, record.model.eigenvalues)
    assert_array_equal(loaded.model.vandermonde_t, record.model.vandermonde_t)
    assert_array_equal(loaded.companion_modes, record.companion_modes)


def test_edmd_round_trip_is_exact(tmp_path):
    record = edmd_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    assert loaded.model.dictionary.spec_string() == "poly:2"
    assert_array_equal(loaded.model.k_hat, record.model.k_hat)
    assert_array_equal(loaded.model.b_coeffs, record.model.b_coeffs)
    assert_array_equal(loaded.model.d_coeffs, record.model.d_coeffs)
    assert_array_equal(loaded.model.modes_v, record.model.modes_v)
    assert loaded.model.lifted_residual == record.model.lifted_residual
    assert loaded.model.d_residual == record.model.d_residual


def test_kernel_round_trip_is_exact(tmp_path):
    record = kernel_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    assert loaded.model.kernel.spec_string() == record.model.kernel.spec_string()
    assert_array_equal(loaded.model.q_eigvecs, record.model.q_eigvecs)
    assert_array_equal(loaded.model.sigma, record.model.sigma)
    assert_array_equal(loaded.model.eigenvalues, record.model.eigenvalues)
    assert_array_equal(loaded.model.k_hat_u, record.model.k_hat_u)
    assert_array_equal(loaded.model.v_inv, record.model.v_inv)
    assert_array_equal(loaded.model.training_x, record.model.training_x)
    assert_array_equal(loaded.model.modes, record.model.modes)


@pytest.mark.parametrize("builder", [dmd_record, companion_record, edmd_record, kernel_record])
def test_save_load_save_is_byte_identical(tmp_path, builder):
    record = builder()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(record, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_loaded_dmd_model_predicts_to_machine_precision(tmp_path):
    record = dmd_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    g0 = np.array([0.3, -1.1, 0.7])
    assert_allclose(
        predict(loaded.model, g0, 6), predict(record.model, g0, 6),
        rtol=1e-13, atol=1e-15,
    )


def test_loaded_edmd_model_predicts_to_machine_precision(tmp_path):
    record = edmd_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    z0 = np.array([0.8, -0.3])
    assert_allclose(
        edmd_predict(loaded.model, z0, 5), edmd_predict(record.model, z0, 5),
        rtol=1e-13, atol=1e-15,
    )


def test_loaded_kernel_model_predicts_to_machine_precision(tmp_path):
    record = kernel_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    z0 = np.array([0.5, 0.1])
    assert_allclose(
        kernel_predict(loaded.model, z0, 5), kernel_predict(record.model, z0, 5),
        rtol=1e-13, atol=1e-15,
    )


def test_rbf_centers_round_trip(tmp_path):
    pair = quadratic_pair()
    centers = strided_centers(pair.x, 6)
    dictionary = RbfDictionary(centers, 0.7)
    record = edmd_record(dictionary)
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    assert isinstance(loaded.model.dictionary, RbfDictionary)
    assert loaded.model.dictionary.width == 0.7
    assert_array_equal(loaded.model.dictionary.centers, centers)
    z = np.array([0.4, -0.2])
    assert_array_equal(
        loaded.model.dictionary.transform(z), record.model.dictionary.transform(z)
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
    del payload["matrices"]["k_hat"]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="k_hat"):
        load_model(path)


def test_real_matrix_with_imaginary_entries_is_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(dmd_record(), path)
    payload = json.loads(path.read_text())
    stored = payload["matrices"]["svd_u"]
    assert "imag" not in stored
    stored["imag"] = [0.5] + [0] * (len(stored["real"]) - 1)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="svd_u"):
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
    broken = dataclasses.replace(record.model, k_hat=np.array([[np.inf]]))
    bad = dataclasses.replace(record, model=broken)
    with pytest.raises(DataError, match="finite"):
        save_model(bad, tmp_path / "model.json")


def test_unknown_algorithm_tag_is_refused():
    with pytest.raises(ConfigError):
        ModelRecord(algorithm="pod", model=None, rtol=1e-10)


def test_companion_record_requires_modes():
    pair = linear_pair(n=2, steps=8, seed=3)
    fit = fit_companion(pair)
    with pytest.raises(ConfigError):
        ModelRecord(algorithm="companion", model=fit, rtol=1e-12)


def test_file_floats_survive_json_parse_exactly(tmp_path):
    record = dmd_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    payload = json.loads(path.read_text())
    stored = np.array(payload["matrices"]["k_hat"]["real"]).reshape(
        record.model.k_hat.shape
    )
    assert_array_equal(stored, record.model.k_hat)


# ---------------------------------------------------------------- schema 2


RECORD_MAKERS = [dmd_record, companion_record, edmd_record, kernel_record]


def forecast_and_eigenfunctions(record, z, steps=7):
    model = record.model
    if record.algorithm == "dmd":
        return predict(model, z, steps), dmd_phi(model, z)
    if record.algorithm == "edmd":
        return edmd_predict(model, z, steps), edmd_phi(model, z)
    if record.algorithm == "kernel-edmd":
        return kernel_predict(model, z, steps), kernel_phi(model, z)
    modes = record.companion_modes
    amps = np.linalg.lstsq(modes, z.astype(complex), rcond=None)[0]
    return _spectral_predict(modes, model.eigenvalues, amps, steps), amps


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_loaded_model_forecasts_and_eigenfunctions_bit_for_bit(tmp_path, make_record):
    record = make_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    z = np.random.default_rng(41).uniform(-1.0, 1.0, record.observable_dim)
    for got, want in zip(forecast_and_eigenfunctions(loaded, z),
                         forecast_and_eigenfunctions(record, z)):
        assert_array_equal(got, want)


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_imag_is_stored_exactly_when_some_entry_is_nonzero(tmp_path, make_record):
    record = make_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    stored = json.loads(path.read_text())["matrices"]
    arrays, _ = _arrays_for(record)
    assert set(stored) == {name for name, value in arrays.items() if value is not None}
    for name, matrix in stored.items():
        assert ("imag" in matrix) == bool(np.any(np.imag(arrays[name]))), name
        if "imag" in matrix:
            assert any(matrix["imag"])


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_fit_only_matrices_are_not_stored(tmp_path, make_record):
    path = tmp_path / "model.json"
    save_model(make_record(), path)
    stored = json.loads(path.read_text())["matrices"]
    assert not {"svd_w", "g_gram", "a_gram", "eigenvectors_v"} & set(stored)


def test_complex_matrix_without_imag_loads_as_complex(tmp_path):
    path = tmp_path / "model.json"
    save_model(dmd_record(), path)
    payload = json.loads(path.read_text())
    payload["matrices"]["modes_v"].pop("imag", None)
    path.write_text(json.dumps(payload))
    modes = load_model(path).model.modes_v
    assert modes.dtype == complex and not np.any(modes.imag)


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
    # say) or raises DataError; no other exception may escape the loader
    path = tmp_path / "model.json"
    save_model(make_record(), path)
    original = json.loads(path.read_text())
    targets = [("fit", key) for key in original["fit"]]
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
                load_model(path)
            except DataError:
                pass
