import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dataclasses import replace

from dmdkit.data import Trajectory, concat_pairs, snapshot_pairs
from dmdkit.dmd import _from_pair_form, eigenfunction_values, fit_svd_dmd, predict
from dmdkit.edmd import fit_edmd, lift_snapshots
from dmdkit.errors import ConfigError, NumericalError, ShapeError
from dmdkit.linalg import conjugate_pairs, eig, svd_truncated
from dmdkit.observables import (CustomDictionary, IdentityDictionary, PolynomialDictionary,
                                build_dictionary)
from dmdkit.systems import linear_system, quadratic_system, simulate


def closed_quadratic_dictionary():
    return CustomDictionary(2, [
        ("1", lambda z: 1.0),
        ("x1", lambda z: z[0]),
        ("x2", lambda z: z[1]),
        ("x1^2", lambda z: z[0] ** 2),
    ])


def quadratic_pair(steps=25, x0=(1.0, -0.4)):
    spec = quadratic_system(0.9, 0.5, 1.0, x0=list(x0), steps=steps)
    return snapshot_pairs(simulate(spec))


def lifted_basis(pair, dictionary):
    """U P: the lifted data's kept left singular vectors times the eigenvectors."""
    lifted = lift_snapshots(pair, dictionary)
    factors = svd_truncated(lifted.x)
    k_hat = factors.u.T @ lifted.xp @ (factors.w / factors.sigma)
    spectrum = eig(k_hat)
    return factors.u @ _from_pair_form(spectrum.basis.T, conjugate_pairs(spectrum.values)).T


def rotation_pair(seed):
    """Eight 30-step runs of three seeded planar rotation blocks (6 states)."""
    rng = np.random.default_rng(seed)
    a = np.zeros((6, 6))
    for k, theta in enumerate(rng.uniform(0.2, np.pi - 0.2, 3)):
        c, s = np.cos(theta), np.sin(theta)
        a[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
    return concat_pairs([snapshot_pairs(simulate(linear_system(a, rng.uniform(-1.5, 1.5, 6), 30)))
                         for _ in range(8)])


def spectrum_contains(values, expected, tol):
    values = np.asarray(values, dtype=complex)
    return all(np.min(np.abs(values - e)) < tol for e in expected)


def test_lift_identity_returns_pair_unchanged():
    pair = quadratic_pair()
    lifted = lift_snapshots(pair, IdentityDictionary(2))
    assert_allclose(lifted.x, pair.x, rtol=0, atol=0)
    assert_allclose(lifted.xp, pair.xp, rtol=0, atol=0)

def test_lift_scalar_quadratic_by_hand():
    pair = snapshot_pairs(Trajectory(dt=1.0, states=np.array([2.0, 4.0])))
    lifted = lift_snapshots(pair, PolynomialDictionary(1, 2))
    assert_allclose(lifted.x[:, 0], [1.0, 2.0, 4.0], rtol=0, atol=0)
    assert_allclose(lifted.xp[:, 0], [1.0, 4.0, 16.0], rtol=0, atol=0)

def test_lift_row_count_and_mismatch():
    pair = quadratic_pair()
    assert lift_snapshots(pair, PolynomialDictionary(2, 2)).x.shape[0] == 6
    with pytest.raises(ShapeError):
        lift_snapshots(pair, PolynomialDictionary(3, 2))

def test_identity_dictionary_reduces_to_svd_dmd():
    a = np.array([[0.9, 0.2], [0.0, 0.5]])
    pair = snapshot_pairs(simulate(linear_system(a, [1.0, -0.7], steps=11)))
    model = fit_edmd(pair, IdentityDictionary(2))
    plain = fit_svd_dmd(pair)
    assert_allclose(model.coeffs, plain.coeffs, atol=1e-12)
    assert_allclose(model.eigenvalues, plain.eigenvalues, atol=1e-8)

def test_quadratic_poly2_spectrum_contains_lift_eigenvalues():
    model = fit_edmd(quadratic_pair(), PolynomialDictionary(2, 2))
    assert spectrum_contains(model.eigenvalues, [0.9, 0.5, 0.81], 1e-9)

def test_span_violation_is_visible_in_lifted_residual():
    pair = quadratic_pair()
    open_fit = fit_edmd(pair, PolynomialDictionary(2, 1))
    closed_fit = fit_edmd(pair, closed_quadratic_dictionary())
    assert open_fit.lifted_residual > 1e-3
    assert closed_fit.lifted_residual < 1e-8

def test_closed_dictionary_spectrum_is_exact():
    model = fit_edmd(quadratic_pair(), closed_quadratic_dictionary())
    assert sorted(np.round(model.eigenvalues.real, 9)) == [0.5, 0.81, 0.9, 1.0]
    assert np.max(np.abs(model.eigenvalues.imag)) < 1e-12

def test_b_coeffs_invert_eigenvector_basis():
    pair = quadratic_pair()
    model = fit_edmd(pair, closed_quadratic_dictionary())
    r = model.eigenvalues.size
    # C = B U^T, so C U P = B P
    basis = lifted_basis(pair, closed_quadratic_dictionary())
    assert_allclose(model.coeffs @ basis, np.eye(r), atol=1e-8)

def test_observable_expansion_reproduces_training_data():
    pair = quadratic_pair()
    model = fit_edmd(pair, PolynomialDictionary(2, 2))
    assert model.residuals["observable"] <= 1e-10
    theta = model.features.transform(pair.x)
    assert_allclose((model.modes_v @ model.coeffs @ theta).real, pair.x, atol=1e-10)

def test_modes_times_eigenfunctions_equal_observable_expansion():
    pair = quadratic_pair()
    model = fit_edmd(pair, closed_quadratic_dictionary())
    rng = np.random.default_rng(3)
    z = rng.uniform(-1.0, 1.0, size=(2, 7))
    lhs = model.modes_v @ eigenfunction_values(model, z)
    d_coeffs = pair.x @ np.linalg.pinv(lift_snapshots(pair, model.features).x, rcond=1e-10)
    rhs = d_coeffs @ model.features.transform(z)
    assert np.max(np.abs(lhs - rhs)) < 1e-8

@pytest.mark.parametrize("system,spec,steps", [
    ("quadratic", "poly:2", 200), ("quadratic", "poly:3", 200), ("rotation", "poly:4", 2000),
])
def test_modes_equal_the_explicit_d_u_p_product(system, spec, steps):
    # V = x W inv(Sigma) P is D U P, D = x W inv(Sigma) U^T, regrouped
    # (U^T U = I): with K^ grouped as the fit groups it, the modes agree to
    # 1e-14 of max |V| and the forecasts to 1e-13 of their largest entry
    pair = quadratic_pair() if system == "quadratic" else rotation_pair(seed=3)
    dictionary = build_dictionary(spec, pair.n_observables)
    model = fit_edmd(pair, dictionary)
    lifted = lift_snapshots(pair, dictionary)
    factors = svd_truncated(lifted.x)
    k_hat = factors.u.T @ (lifted.xp @ (factors.w / factors.sigma))
    d_coeffs = pair.x @ (factors.w / factors.sigma) @ factors.u.T
    basis = eig(k_hat).basis
    explicit_pf = d_coeffs @ factors.u @ basis
    explicit = _from_pair_form(explicit_pf.T, model.pairs).T
    assert model.flags == ()
    assert np.max(np.abs(model.modes_v - explicit)) <= 1e-14 * np.max(np.abs(model.modes_v))
    reference = replace(model, modes_pf=explicit_pf)
    z0 = pair.x[:, -1]
    expected = predict(reference, z0, steps)
    assert np.max(np.abs(predict(model, z0, steps) - expected)) <= 1e-13 * np.max(np.abs(expected))

def test_mode_reconstruction_on_training_columns():
    pair = quadratic_pair()
    model = fit_edmd(pair, closed_quadratic_dictionary())
    recon = model.modes_v @ eigenfunction_values(model, pair.x)
    scale = np.linalg.norm(pair.x, axis=0)
    err = np.linalg.norm(pair.x - recon, axis=0)
    assert np.all(err <= 1e-6 * scale)

def test_eigenfunction_functional_equation_linear_poly2():
    a = np.array([[0.9, 0.2], [0.0, 0.5]])
    pair = snapshot_pairs(simulate(linear_system(a, [1.0, -0.7], steps=30)))
    model = fit_edmd(pair, PolynomialDictionary(2, 2))
    phi_x = eigenfunction_values(model, pair.x)
    phi_xp = eigenfunction_values(model, pair.xp)
    residual = np.max(np.abs(phi_xp - model.eigenvalues[:, None] * phi_x), axis=1)
    scale = np.max(np.abs(phi_x), axis=1)
    assert np.all(residual <= 1e-6 * scale)

def test_constant_trajectory_gives_eigenvalue_one():
    traj = Trajectory(dt=1.0, states=np.full(5, 3.0))
    model = fit_edmd(snapshot_pairs(traj), PolynomialDictionary(1, 1))
    assert model.eigenvalues.size == 1
    assert abs(model.eigenvalues[0] - 1.0) < 1e-10

def test_defective_operator_flags_and_blocks_prediction():
    states = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    pair = snapshot_pairs(Trajectory(dt=1.0, states=states))
    model = fit_edmd(pair, IdentityDictionary(2))
    assert "eigenvector_basis_singular" in model.flags
    # the modes D U P need no inverse of P, so the model keeps them, and with
    # them its one-step defect: the fit cannot reproduce xp at all
    assert model.modes_v.shape == (2, model.eigenvalues.size)
    assert list(model.residuals)[0] == "training"
    assert model.fit_residual == pytest.approx(1.0, abs=1e-12)
    # pseudoinverse fallback still satisfies B P B = B, so C U P C = C
    bp = model.coeffs @ lifted_basis(pair, IdentityDictionary(2))
    assert_allclose(bp @ model.coeffs, model.coeffs, atol=1e-10)
    with pytest.raises(NumericalError):
        predict(model, [1.0, 0.0], steps=1)

def test_predict_quadratic_matches_simulation():
    spec = quadratic_system(0.9, 0.5, 1.0, x0=[1.0, -0.4], steps=25)
    traj = simulate(spec)
    model = fit_edmd(snapshot_pairs(traj), closed_quadratic_dictionary())
    out = predict(model, traj.states[0], steps=5)
    assert_allclose(out, traj.states[1:6], atol=1e-5)

def test_predict_validates_arguments():
    model = fit_edmd(quadratic_pair(), closed_quadratic_dictionary())
    with pytest.raises(ShapeError):
        predict(model, [1.0, 2.0, 3.0], steps=1)
    with pytest.raises(ConfigError):
        predict(model, [1.0, -0.4], steps=-2)

def test_eigenfunction_for_decay_rate_is_left_eigenvector_pairing():
    # identity dictionary on diagonal A: the eigenfunction paired with 0.9
    # is z -> <e1, z> up to scale
    a = np.diag([0.9, 0.5])
    pair = snapshot_pairs(simulate(linear_system(a, [1.0, 1.0], steps=11)))
    model = fit_edmd(pair, IdentityDictionary(2))
    i = int(np.argmin(np.abs(model.eigenvalues - 0.9)))
    rng = np.random.default_rng(8)
    z = rng.uniform(-2.0, 2.0, size=(2, 5))
    ratios = eigenfunction_values(model, z)[i] / z[0]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-10

def test_eigenfunction_for_squared_rate_is_x1_squared():
    model = fit_edmd(quadratic_pair(), closed_quadratic_dictionary())
    i = int(np.argmin(np.abs(model.eigenvalues - 0.81)))
    rng = np.random.default_rng(9)
    z = rng.uniform(0.5, 2.0, size=(2, 6))
    ratios = eigenfunction_values(model, z)[i] / z[0] ** 2
    assert np.max(np.abs(ratios - ratios[0])) < 1e-9

def test_eval_eigenfunction_at_zero_picks_constant_coefficient():
    model = fit_edmd(quadratic_pair(), PolynomialDictionary(2, 2))
    at_zero = eigenfunction_values(model, [0.0, 0.0])
    for i in range(model.eigenvalues.size):
        assert at_zero[i] == pytest.approx(complex(model.coeffs[i, 0]), abs=1e-12)


def test_wide_lift_fit_edmd_peak_memory_is_a_small_multiple_of_the_lifted_pair():
    # poly:3 on 30 states: 5,456 features over 400 columns, a lifted pair of
    # 33.3 MiB. Every residual is a product with W^T, so the f x f U K^ U^T
    # (227 MiB) is never formed: the peak, the lifted pair included, fell
    # from 8.6 to 1.9 times the pair's bytes
    rng = np.random.default_rng(4)
    a = rng.standard_normal((30, 30))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    pair = snapshot_pairs(simulate(linear_system(a, rng.uniform(-1.0, 1.0, 30), steps=400)))
    dictionary = build_dictionary("poly:3", 30)
    lifted_bytes = 2 * dictionary.size * pair.x.shape[1] * 8
    tracemalloc.start()
    try:
        fit_edmd(pair, dictionary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * lifted_bytes, peak / lifted_bytes
