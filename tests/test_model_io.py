import base64
import copy
import json
from dataclasses import replace

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
from dmdkit.errors import ConfigError, DataError, DmdkitError, NumericalError
from dmdkit.kernel_edmd import fit_kernel_edmd
from dmdkit.linalg import conjugate_pairs
from dmdkit.model_io import SCHEMA_VERSION, _arrays_for, load_model, save_model
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
    return SnapshotPair(states[:, :-1], states[:, 1:])


def quadratic_pair(steps=25):
    traj = simulate(quadratic_system(0.9, 0.5, 0.4, (1.0, -0.4), steps))
    return snapshot_pairs(traj)


def spiral_pair(steps=11):
    rot = 0.9 * np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    cols = [np.array([1.0, 0.2])]
    for _ in range(steps):
        cols.append(rot @ cols[-1])
    states = np.column_stack(cols)
    return SnapshotPair(states[:, :-1], states[:, 1:])


# Each maker returns a fitted SpectralModel, which carries its algorithm tag,
# rtol and observable split; the names are the test ids.
def dmd_record():
    return fit_svd_dmd(linear_pair())


def companion_record():
    return fit_companion(linear_pair(n=2, steps=8, seed=3))


def edmd_record(dictionary=None):
    pair = quadratic_pair()
    if dictionary is None:
        dictionary = PolynomialDictionary(2, degree=2)
    return fit_edmd(pair, dictionary)


def rbf_record():
    centers = strided_centers(quadratic_pair().x, 6)
    return edmd_record(KernelDictionary(GaussianKernel(0.7), centers.T))


def kernel_record():
    return fit_kernel_edmd(spiral_pair(), PolynomialKernel(2))


RECORD_MAKERS = [dmd_record, companion_record, edmd_record, kernel_record, rbf_record]


def singular_edmd_record():
    """EDMD of the shift map x -> (x2, 0), whose eigenvector basis is singular."""
    pair = SnapshotPair(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.0]]))
    model = fit_edmd(pair, IdentityDictionary(2))
    assert "eigenvector_basis_singular" in model.flags
    return model


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_loaded_model_forecasts_and_eigenfunctions_bit_for_bit(tmp_path, capsys, make_record):
    record = make_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    loaded = load_model(path)
    assert (loaded.algorithm, loaded.rtol) == (record.algorithm, record.rtol)
    model, want = loaded, record
    assert model.features.input_dim == want.features.input_dim
    assert model.flags == want.flags
    assert model.residuals == want.residuals
    assert type(model.features) is type(want.features)
    assert model.features.spec_string() == want.features.spec_string()
    for name, value in _arrays_for(want).items():
        assert_array_equal(_arrays_for(model)[name], value, err_msg=name)
    # the stored pair forms are real and the fitted model's own bits
    for stored, fitted in ((model.modes_pf, want.modes_pf), (model.coeffs_pf, want.coeffs_pf)):
        assert stored.dtype == fitted.dtype == float
        assert stored.tobytes() == fitted.tobytes()
    z = np.random.default_rng(41).uniform(-1.0, 1.0, (model.features.input_dim, 3))
    assert_array_equal(predict(model, z[:, 0], 7), predict(want, z[:, 0], 7))
    assert_array_equal(eigenfunction_values(model, z), eigenfunction_values(want, z))
    assert_array_equal(full_operator(model), full_operator(want))
    # the schema-2 to -6 layouts this replaces are refused, not migrated
    payload = json.loads(path.read_text())
    for version in (2, 3, 4, 5, 6):
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
    assert isinstance(loaded.features, IdentityDictionary)
    assert _arrays_for(loaded)["points"] is None
    assert_spectra_equal(loaded, record)
    assert loaded.fit_residual == record.fit_residual


def test_companion_round_trip_is_exact(tmp_path):
    record = companion_record()
    loaded = round_trip(tmp_path, record)
    assert loaded.algorithm == "companion"
    assert loaded.features.input_dim == record.features.input_dim
    assert_spectra_equal(loaded, record)


def test_companion_stores_the_tolerance_its_fit_applies():
    # the companion fit cuts at a fixed 1e-12 and takes no rtol; the round
    # trips above show a file keeps a model's rtol
    assert companion_record().rtol == 1e-12


def test_edmd_round_trip_is_exact(tmp_path):
    record = edmd_record()
    loaded = round_trip(tmp_path, record)
    assert loaded.features.spec_string() == "poly:2"
    assert_spectra_equal(loaded, record)
    assert loaded.lifted_residual == record.lifted_residual
    assert loaded.flags == record.flags


def test_kernel_round_trip_is_exact(tmp_path):
    record = kernel_record()
    loaded = round_trip(tmp_path, record)
    assert loaded.features.spec_string() == record.features.spec_string()
    assert_spectra_equal(loaded, record)
    assert_array_equal(loaded.features.points, record.features.points)


def test_loaded_dmd_model_predicts_to_machine_precision(tmp_path):
    record = dmd_record()
    loaded = round_trip(tmp_path, record)
    g0 = np.array([0.3, -1.1, 0.7])
    assert_allclose(
        predict(loaded, g0, 6), predict(record, g0, 6),
        rtol=1e-13, atol=1e-15,
    )


def test_loaded_edmd_model_predicts_to_machine_precision(tmp_path):
    record = edmd_record()
    loaded = round_trip(tmp_path, record)
    z0 = np.array([0.8, -0.3])
    assert_allclose(
        predict(loaded, z0, 5), predict(record, z0, 5),
        rtol=1e-13, atol=1e-15,
    )


def test_loaded_kernel_model_predicts_to_machine_precision(tmp_path):
    record = kernel_record()
    loaded = round_trip(tmp_path, record)
    z0 = np.array([0.5, 0.1])
    assert_allclose(
        predict(loaded, z0, 5), predict(record, z0, 5),
        rtol=1e-13, atol=1e-15,
    )


@pytest.mark.parametrize("builder", [*RECORD_MAKERS, singular_edmd_record])
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
    assert isinstance(loaded.features, KernelDictionary)
    assert loaded.features.kernel.sigma == 0.7
    assert_array_equal(loaded.features.points, record.features.points)
    z = np.array([0.4, -0.2])
    assert_array_equal(
        loaded.features.transform(z), record.features.transform(z)
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


SPLITS = [
    (1, 0, True),
    (1, 2, True),
    (3, 0, True),
    (1, 3, False),  # no state column left
    (1, 10**30, False),
    (3, 1, False),  # one column per row, and it is an input
    (2, 0, False),  # 3 observables are not 2 rows
]


def with_split(tmp_path, embed_h, inputs):
    """A saved 3-observable dmd model file with these counts written into its JSON."""
    path = tmp_path / "model.json"
    save_model(dmd_record(), path)
    payload = json.loads(path.read_text())
    assert payload["fit"]["observable_dim"] == 3
    payload["fit"].update(embed_h=embed_h, inputs=inputs)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("embed_h, inputs, loads", SPLITS)
def test_inputs_count_must_leave_a_state_column(tmp_path, capsys, embed_h, inputs, loads):
    path = with_split(tmp_path, embed_h, inputs)
    if loads:
        record = load_model(path)
        assert (record.embed_h, record.inputs) == (embed_h, inputs)
        return
    assert main(["spectrum", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: model file observable_dim 3 is not ") and err.count("\n") == 1


@pytest.mark.parametrize("embed_h, inputs, loads", SPLITS)
def test_save_refuses_the_counts_load_refuses(tmp_path, embed_h, inputs, loads):
    # a model with counts the loader refuses cannot be built, so none is
    # saved; the loader reports the model's words after "model file"
    path = tmp_path / "saved.json"
    if loads:
        save_model(replace(dmd_record(), embed_h=embed_h, inputs=inputs), path)
        loaded = load_model(path)
        assert (loaded.embed_h, loaded.inputs) == (embed_h, inputs)
        return
    with pytest.raises(DataError) as refused:
        load_model(with_split(tmp_path, embed_h, inputs))
    with pytest.raises(ConfigError) as err:
        save_model(replace(dmd_record(), embed_h=embed_h, inputs=inputs), path)
    assert f"model file {err.value}" == str(refused.value)
    assert not path.exists()


@pytest.mark.parametrize("key", ["matrices", "flags"])
def test_missing_top_level_key_is_reported(tmp_path, key):
    path = tmp_path / "model.json"
    save_model(dmd_record(), path)
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=f"top-level key '{key}'"):
        load_model(path)


def test_missing_training_residual_is_reported(tmp_path):
    path = tmp_path / "model.json"
    save_model(edmd_record(), path)
    payload = json.loads(path.read_text())
    del payload["fit"]["residuals"]["training"]
    assert payload["fit"]["residuals"]  # the lifted residual stays
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="residuals key 'training'"):
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
    record = dmd_record()
    with pytest.raises(NumericalError, match="matrix 'coeffs' is not finite"):
        replace(record, coeffs_pf=np.full_like(record.coeffs_pf, np.inf))


def test_unknown_algorithm_tag_is_refused():
    with pytest.raises(ConfigError, match="algorithm tag 'pod' is not one of"):
        replace(dmd_record(), algorithm="pod")


@pytest.mark.parametrize("make_record, damage, named", [
    (kernel_record, lambda p: p["matrices"].pop("points"), "missing matrix key 'points'"),
    (rbf_record, lambda p: p["matrices"].pop("points"), "unknown dictionary kind 'gaussian'"),
    (edmd_record, lambda p: p["fit"].update(features="gaussian:1"), "unknown dictionary"),
    (kernel_record, lambda p: p.update(algorithm="dmd"), "dmd model cannot hold Kernel"),
    (edmd_record, lambda p: p.update(algorithm="companion"),
     "companion model cannot hold PolynomialDictionary"),
    (dmd_record, lambda p: p["matrices"].pop("modes"), "missing matrix key 'modes'"),
    (singular_edmd_record, lambda p: p["matrices"].pop("modes"),
     "missing matrix key 'modes'"),
], ids=["kernel-without-points", "rbf-without-points", "kernel-spec-without-points",
        "kernel-as-dmd", "poly-as-companion", "dmd-without-modes",
        "singular-edmd-without-modes"])
def test_loaded_features_must_fit_the_file(tmp_path, make_record, damage, named):
    path = tmp_path / "model.json"
    save_model(make_record(), path)
    payload = json.loads(path.read_text())
    damage(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=named):
        load_model(path)


def test_record_features_must_match_algorithm(tmp_path):
    kernel_model = kernel_record()
    for algorithm in ("dmd", "companion"):
        with pytest.raises(ConfigError, match=f"a {algorithm} model cannot hold Kernel"):
            save_model(replace(kernel_model, algorithm=algorithm), tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()


def test_file_floats_survive_json_parse_exactly(tmp_path):
    record = dmd_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    payload = json.loads(path.read_text())
    stored = payload["matrices"]["coeffs"]
    # pair form: real rows as they are, an upper row's real part in its own
    # slot and its imaginary part in its lower partner's slot
    _, upper, lower = conjugate_pairs(record.eigenvalues)
    assert upper.size > 0
    coeffs = record.coeffs
    want = coeffs.real.copy()
    want[lower] = coeffs.imag[upper]
    assert "imag" not in stored
    assert doubles(stored["real"]).tobytes() == want.tobytes()
    loaded = load_model(path).coeffs
    assert loaded.tobytes() == coeffs.tobytes()


def test_eigenvalues_not_closed_under_conjugation_are_refused_when_saved_or_used(tmp_path):
    # a lone complex eigenvalue has no conjugate partner, so no complex model
    # stands behind the pair form: no such model can be built, and a built
    # model's eigenvalues cannot be changed in place to one, so what is saved
    # and used is the model as it was checked
    one = np.array([[1.0]])
    fields = dict(modes_pf=one, coeffs_pf=one, features=IdentityDictionary(1),
                  algorithm="dmd", rtol=1e-10, residuals={"training": 0.0})
    with pytest.raises(NumericalError, match="not closed under conjugation"):
        SpectralModel(eigenvalues=np.array([0.5 + 0.1j]), **fields)
    model = SpectralModel(eigenvalues=np.array([0.5 + 0j]), **fields)
    with pytest.raises(ValueError, match="read-only"):
        model.eigenvalues[0] = 0.5 + 0.1j
    assert model.eigenvalues.tolist() == [0.5]
    assert_array_equal(predict(model, [1.0], 2), [[0.5], [0.25]])
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path).eigenvalues.tolist() == [0.5]


def test_matrix_payload_is_little_endian_binary64(tmp_path):
    one = np.array([[1.0]])
    model = SpectralModel(eigenvalues=np.array([1.0]), modes_pf=one, coeffs_pf=one,
                          features=IdentityDictionary(1), algorithm="dmd", rtol=1e-10,
                          residuals={"training": 0.0})
    path = tmp_path / "model.json"
    save_model(model, path)
    stored = json.loads(path.read_text())["matrices"]
    for name in ("eigenvalues", "modes", "coeffs"):
        assert stored[name] == {"rows": 1, "cols": 1, "real": "AAAAAAAA8D8="}, name
    assert load_model(path).eigenvalues.tolist() == [1.0]


# ------------------------------------------------- a model checked once, trusted after


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_stored_arrays_are_read_only_when_fitted_or_loaded(tmp_path, make_record):
    fitted = make_record()
    path = tmp_path / "model.json"
    save_model(fitted, path)
    for model in (fitted, load_model(path)):
        arrays = [model.eigenvalues, model.modes_pf, model.coeffs_pf, *model.pairs]
        if isinstance(model.features, KernelDictionary):
            arrays.append(model.features.points)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(TypeError):
            model.residuals["training"] = 0.5
        assert isinstance(model.flags, tuple)


def test_a_model_keeps_its_flags_and_residuals_when_the_callers_change():
    one = np.array([[1.0]])
    residuals, flags = {"training": 0.0}, ["zero_eigenvalue_modes"]
    model = SpectralModel(np.array([0.5]), one, one, IdentityDictionary(1), "dmd", 1e-10,
                          flags, residuals)
    residuals["training"] = float("nan")
    flags.append("x")
    assert model.residuals == {"training": 0.0}
    assert model.flags == ("zero_eigenvalue_modes",)
    assert one.flags.writeable  # the model froze a view, not the caller's array


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["eigenvalues", "modes_pf", "coeffs_pf", "rtol", "residual"])
def test_construction_refuses_a_non_finite_number(field, bad):
    model = dmd_record()
    if field == "rtol":
        changes, named = {"rtol": bad}, "rtol"
    elif field == "residual":
        changes = {"residuals": {**model.residuals, "observable": bad}}
        named = "residual 'observable'"
    else:
        array = getattr(model, field).copy()
        array[(-1,) * array.ndim] = bad
        changes = {field: array}
        named = {"modes_pf": "matrix 'modes'", "coeffs_pf": "matrix 'coeffs'"}.get(
            field, "matrix 'eigenvalues'")
    with pytest.raises(NumericalError, match=fr"^{named} is not finite \(NaN or inf\)$"):
        replace(model, **changes)


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_model_pairs_are_its_eigenvalue_partition(make_record):
    model = make_record()
    assert len(model.pairs) == 3
    for held, want in zip(model.pairs, conjugate_pairs(model.eigenvalues)):
        assert_array_equal(held, want)


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_uses_of_a_model_read_its_pairs_without_pairing_again(monkeypatch, make_record):
    model = make_record()
    calls = []

    def spy(values):
        calls.append(values)
        return conjugate_pairs(values)

    monkeypatch.setattr("dmdkit.dmd.conjugate_pairs", spy)
    z = np.full(model.features.input_dim, 0.5)
    predict(model, z, 3)
    eigenfunction_values(model, z)
    full_operator(model)
    model.modes_v
    model.coeffs
    assert calls == []
    replace(model)  # construction pairs the eigenvalues, once
    assert len(calls) == 1


# ---------------------------------------------------------------- schema 6


@pytest.mark.parametrize("make_record", RECORD_MAKERS)
def test_imag_is_stored_exactly_when_some_entry_is_nonzero(tmp_path, make_record):
    record = make_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    stored = json.loads(path.read_text())["matrices"]
    arrays = _arrays_for(record)
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
    model = record
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
    save_model(model, path)
    stored = json.loads(path.read_text())["matrices"]
    assert not any("imag" in matrix for matrix in stored.values())
    loaded = load_model(path)
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


@pytest.mark.parametrize("flags", [["x"], ["eigenvector_basis_singular", "x"], [1]])
def test_flags_no_fit_raises_are_refused_when_loaded_or_saved(tmp_path, capsys, flags):
    # loaded as no flag, ["x"] would let predict forecast; no model with
    # such a flag can be built, so none is saved, and the loader reports the
    # model's words after "model file"
    record = dmd_record()
    path = tmp_path / "model.json"
    save_model(record, path)
    payload = json.loads(path.read_text())
    payload["flags"] = flags
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError,
                       match=f"model file flag {flags[-1]!r} is not one a fit raises") as refused:
        load_model(path)
    ic = tmp_path / "ic.csv"
    ic.write_text(",".join(["0.5"] * payload["fit"]["observable_dim"]) + "\n")
    assert main(["predict", str(path), str(ic), "2"]) == 3
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    saved = tmp_path / "saved.json"
    with pytest.raises(ConfigError) as err:
        save_model(replace(record, flags=tuple(flags)), saved)
    assert f"model file {err.value}" == str(refused.value)
    assert not saved.exists()


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
    model = load_model(path)
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
                predict(loaded, z, 2)
            except DmdkitError:
                pass
