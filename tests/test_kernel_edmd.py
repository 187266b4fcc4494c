import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmdkit.data import SnapshotPair, snapshot_pairs
from dmdkit.edmd import fit_edmd
from dmdkit.errors import ConfigError, EmptyRankError
from dmdkit.dmd import eigenfunction_values, predict
from dmdkit.kernel_edmd import _gram_basis, fit_kernel_edmd
from dmdkit.linalg import conjugate_pairs
from dmdkit.observables import GaussianKernel, PolynomialDictionary, PolynomialKernel
from dmdkit.systems import linear_system, quadratic_system, rotation_system, simulate


def spectra_gap(found, expected):
    found = list(np.asarray(found, dtype=complex))
    pool = list(np.asarray(expected, dtype=complex))
    assert len(found) == len(pool)
    worst = 0.0
    for value in found:
        dists = np.abs(np.array(pool) - value)
        j = int(np.argmin(dists))
        worst = max(worst, float(dists[j]))
        pool.pop(j)
    return worst


def spiral_pair(steps=11):
    theta = 0.4
    a = 0.9 * np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
    return snapshot_pairs(simulate(linear_system(a, [1.0, 0.2], steps=steps)))


def raw_pair(x, xp):
    x = np.asarray(x, dtype=float)
    return SnapshotPair(x=x, xp=np.asarray(xp, dtype=float),
                        col_times=np.arange(x.shape[1]))


def gram_matrices(pair, kernel):
    """G_ij = k(x_i, x_j) and A_ij = k(x_i, xp_j) over snapshot columns."""
    return kernel.gram(pair.x, pair.x), kernel.gram(pair.x, pair.xp)


def reduced_operator(pair, kernel):
    """The Gram basis Q, S of G and the reduced operator S^-1 Q^T A Q S^-1."""
    g_gram, a_gram = gram_matrices(pair, kernel)
    q, sigma = _gram_basis(g_gram, 1e-10)
    return q, sigma, (q.T @ a_gram @ q) / sigma[:, None] / sigma[None, :]


class DotKernel(PolynomialKernel):
    """Plain inner product, no constant term; lifts like the identity map."""

    def gram(self, a_cols, b_cols):
        return np.asarray(a_cols, dtype=float).T @ np.asarray(b_cols, dtype=float)


def test_gram_orthonormal_columns_linear_kernel():
    pair = raw_pair(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
    g, a = gram_matrices(pair, PolynomialKernel(1))
    assert_allclose(g, [[2.0, 1.0], [1.0, 2.0]], rtol=0, atol=0)
    assert_allclose(a, [[1.0, 2.0], [2.0, 1.0]], rtol=0, atol=0)

def test_gaussian_gram_diagonal_is_one():
    pair = spiral_pair()
    g, _ = gram_matrices(pair, GaussianKernel(0.7))
    assert_allclose(np.diag(g), 1.0, rtol=0, atol=1e-15)

def test_polynomial_gram_matches_explicit_weighted_dictionary():
    pair = spiral_pair()
    g, a = gram_matrices(pair, PolynomialKernel(2))
    dictionary = PolynomialDictionary(2, 2, weighted=True)
    tx = dictionary.transform(pair.x)
    txp = dictionary.transform(pair.xp)
    assert_allclose(g, tx.T @ tx, rtol=1e-10, atol=1e-12)
    assert_allclose(a, tx.T @ txp, rtol=1e-10, atol=1e-12)

def test_gram_symmetry_and_positive_semidefiniteness():
    pair = spiral_pair()
    g, _ = gram_matrices(pair, PolynomialKernel(3))
    assert np.max(np.abs(g - g.T)) < 1e-10
    evals = np.linalg.eigvalsh(g)
    assert evals.min() >= -1e-10 * evals.max()

def test_gram_factorization_reconstructs_g():
    pair = spiral_pair()
    g_gram = PolynomialKernel(2).gram(pair.x, pair.x)
    q, sigma = _gram_basis(g_gram, 1e-10)
    assert sigma.size == fit_kernel_edmd(pair, PolynomialKernel(2)).eigenvalues.size
    recon = q @ np.diag(sigma ** 2) @ q.T
    rel = np.linalg.norm(g_gram - recon) / np.linalg.norm(g_gram)
    assert rel < 1e-8

@pytest.mark.parametrize("degree", [1, 2, 3])
def test_kernel_matches_explicit_edmd_spectrum(degree):
    pair = spiral_pair()
    kernel_fit = fit_kernel_edmd(pair, PolynomialKernel(degree), rtol=1e-10)
    explicit = fit_edmd(pair, PolynomialDictionary(2, degree, weighted=True),
                        rtol=1e-10)
    assert spectra_gap(kernel_fit.eigenvalues, explicit.eigenvalues) < 1e-6

@pytest.mark.parametrize("noise", [0.0, 1e-2], ids=["exact", "noisy"])
def test_kernel_matches_explicit_edmd_training_residual(noise):
    # criterion 5's spiral, as is and with seeded noise on both snapshot
    # matrices: poly:2 and wpoly:2 give one model, so one training residual.
    # Measured gaps: 3.3e-15 exact (both at roundoff), 3.5e-18 noisy (2.0e-2)
    pair = spiral_pair()
    rng = np.random.default_rng(5)
    pair = raw_pair(pair.x + noise * rng.standard_normal(pair.x.shape),
                    pair.xp + noise * rng.standard_normal(pair.xp.shape))
    kernel_fit = fit_kernel_edmd(pair, PolynomialKernel(2))
    explicit = fit_edmd(pair, PolynomialDictionary(2, 2, weighted=True))
    assert abs(kernel_fit.fit_residual - explicit.fit_residual) <= 1e-13
    if noise:
        assert explicit.fit_residual > 1e-3  # not another exact fit

def test_linear_kernel_recovers_linear_spectrum_plus_constant():
    pair = snapshot_pairs(simulate(linear_system(np.diag([0.9, 0.5]),
                                                 [1.0, 1.0], steps=11)))
    model = fit_kernel_edmd(pair, PolynomialKernel(1))
    assert spectra_gap(model.eigenvalues, [1.0, 0.9, 0.5]) < 1e-7

def test_quadratic_kernel_finds_invariant_subspace_rates():
    spec = quadratic_system(0.9, 0.5, 1.0, x0=[1.0, -0.4], steps=20)
    model = fit_kernel_edmd(snapshot_pairs(simulate(spec)), PolynomialKernel(2))
    for expected in (0.9, 0.5, 0.81):
        assert np.min(np.abs(model.eigenvalues - expected)) < 1e-8

def test_reduced_operator_eigen_residual():
    pair = spiral_pair()
    model = fit_kernel_edmd(pair, PolynomialKernel(2))
    q, sigma, k_hat_u = reduced_operator(pair, PolynomialKernel(2))
    # rows of v_inv = C Q S are left eigenvectors: v_inv K = diag(lambda) v_inv
    left = model.coeffs @ q * sigma[None, :]
    res = left @ k_hat_u - model.eigenvalues[:, None] * left
    scale = np.maximum(1.0, np.abs(model.eigenvalues)) * np.linalg.norm(left, axis=1)
    assert np.all(np.linalg.norm(res, axis=1) <= 1e-8 * scale)

def test_eigenfunction_functional_equation_on_invariant_data():
    pair = spiral_pair()
    model = fit_kernel_edmd(pair, PolynomialKernel(2))
    phi_x = eigenfunction_values(model, pair.x)
    phi_xp = eigenfunction_values(model, pair.xp)
    residual = np.max(np.abs(phi_xp - model.eigenvalues[:, None] * phi_x), axis=1)
    scale = np.max(np.abs(phi_x), axis=1)
    assert np.all(residual <= 1e-6 * scale)

def test_training_eigenfunctions_match_dual_projection():
    pair = spiral_pair()
    model = fit_kernel_edmd(pair, PolynomialKernel(2))
    phi = eigenfunction_values(model, pair.x)
    q, sigma, _ = reduced_operator(pair, PolynomialKernel(2))
    v_inv = model.coeffs @ q * sigma[None, :]
    expected = (v_inv * sigma[None, :]) @ q.T
    assert_allclose(phi, expected, atol=1e-9)

def test_repeated_snapshot_gives_constant_eigenfunction():
    x = np.tile(np.array([[1.0], [2.0]]), (1, 5))
    model = fit_kernel_edmd(raw_pair(x, x), PolynomialKernel(1))
    phi = eigenfunction_values(model, x)
    spread = np.max(np.abs(phi - phi[:, :1]))
    assert spread < 1e-12
    assert spectra_gap(model.eigenvalues, [1.0]) < 1e-12

def test_duplicated_column_rank_collapse_and_stable_spectrum():
    pair = spiral_pair()
    doubled = raw_pair(np.hstack([pair.x, pair.x[:, :1]]),
                       np.hstack([pair.xp, pair.xp[:, :1]]))
    base = fit_kernel_edmd(pair, PolynomialKernel(2))
    dup = fit_kernel_edmd(doubled, PolynomialKernel(2))
    assert dup.eigenvalues.size < doubled.x.shape[1]
    assert dup.eigenvalues.size == base.eigenvalues.size
    assert spectra_gap(dup.eigenvalues, base.eigenvalues) < 1e-8

def test_modes_parallel_to_axes_for_diagonal_system():
    pair = snapshot_pairs(simulate(linear_system(np.diag([0.9, 0.5]),
                                                 [1.0, 1.0], steps=11)))
    model = fit_kernel_edmd(pair, PolynomialKernel(1))
    for rate, axis in ((0.9, 0), (0.5, 1)):
        i = int(np.argmin(np.abs(model.eigenvalues - rate)))
        mode = model.modes_v[:, i]
        direction = np.abs(mode) / np.linalg.norm(mode)
        assert_allclose(direction, np.eye(2)[axis], atol=1e-8)

def test_rank_one_data_has_single_mode_along_common_direction():
    direction = np.array([[3.0], [4.0]]) / 5.0
    coeffs = 0.8 ** np.arange(6)
    x = direction * coeffs[None, :-1]
    xp = direction * coeffs[None, 1:]
    model = fit_kernel_edmd(raw_pair(x, xp), DotKernel(1))
    assert model.eigenvalues.size == 1
    mode = model.modes_v[:, 0].real
    assert_allclose(np.abs(mode / np.linalg.norm(mode)), direction[:, 0], atol=1e-12)
    assert spectra_gap(model.eigenvalues, [0.8]) < 1e-12

def test_mode_reconstruction_of_training_observables():
    pair = spiral_pair()
    model = fit_kernel_edmd(pair, PolynomialKernel(2))
    phi = eigenfunction_values(model, pair.x)
    recon = (model.modes_v @ phi).real
    scale = np.linalg.norm(pair.x, axis=0)
    err = np.linalg.norm(pair.x - recon, axis=0)
    assert np.all(err <= 1e-6 * scale)

def test_kernel_predict_matches_simulation():
    spec = quadratic_system(0.9, 0.5, 1.0, x0=[1.0, -0.4], steps=20)
    traj = simulate(spec)
    model = fit_kernel_edmd(snapshot_pairs(traj), PolynomialKernel(2))
    out = predict(model, traj.states[0], steps=5)
    assert_allclose(out, traj.states[1:6], atol=1e-6)

def test_zero_data_raises_empty_rank():
    # a kernel without a constant term sees zero states as a zero Gram matrix
    with pytest.raises(EmptyRankError):
        fit_kernel_edmd(raw_pair(np.zeros((2, 4)), np.zeros((2, 4))),
                        DotKernel(1))

def test_zero_states_with_affine_kernel_keep_the_constant_function():
    model = fit_kernel_edmd(raw_pair(np.zeros((2, 4)), np.zeros((2, 4))),
                            PolynomialKernel(2))
    assert spectra_gap(model.eigenvalues, [1.0]) < 1e-12

def test_gaussian_kernel_fit_is_conjugate_symmetric():
    traj = simulate(rotation_system(0.5, steps=40))
    model = fit_kernel_edmd(snapshot_pairs(traj), GaussianKernel(1.0))
    values = model.eigenvalues
    assert spectra_gap(values, np.conj(values)) < 1e-10
    assert np.isfinite(model.fit_residual)
    # exactly closed: real eigenvalues have real modes and coeffs rows, and
    # each lower pair member's are the exact conjugates of its upper one's
    real, upper, lower = conjugate_pairs(values)
    assert upper.size > 0
    for rows in (model.coeffs, model.modes_v.T):
        assert not np.any(rows[real].imag)
        assert np.array_equal(rows[lower], np.conj(rows[upper]))


@pytest.mark.parametrize("rtol", [-1.0, 1.0, 2.0, float("nan")])
def test_gram_basis_rejects_rtol_outside_unit_interval(rtol):
    # the same range svd_truncated enforces for the explicit fits
    with pytest.raises(ConfigError, match=r"rtol must lie in \[0, 1\)"):
        _gram_basis(np.eye(3), rtol)
