"""Tests for the shared linear-algebra kernels.

Expected values come from independent constructions: truncated-SVD ranks from
explicit low-rank factor products, eigenvalues from a hand-factored
characteristic polynomial, conjugate pairs from spectra built pair by pair.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmdkit.errors import ConfigError, EmptyRankError, NumericalError, ShapeError
from dmdkit.linalg import DEFAULT_RTOL, conjugate_pairs, eig, spectral_order, svd_truncated

# ---------------------------------------------------------------- svd_truncated


def test_svd_rank_of_constructed_rank3_product():
    # 5x20 matrix built as a product of rank-3 factors: rank is 3 by construction.
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 20))
    f = svd_truncated(m, rtol=1e-10)
    assert f.sigma.size == 3
    assert_allclose(f.u.T @ f.u, np.eye(3), atol=1e-10)
    assert_allclose(f.w.T @ f.w, np.eye(3), atol=1e-10)
    recon = f.u @ np.diag(f.sigma) @ f.w.T
    assert np.linalg.norm(recon - m) <= 1e-8 * np.linalg.norm(m)


def test_svd_drops_tiny_singular_value():
    f = svd_truncated(np.diag([3.0, 1e-12]), rtol=1e-8)
    assert f.sigma.size == 1
    assert_allclose(f.sigma, [3.0])


def test_svd_zero_matrix_is_empty_rank():
    with pytest.raises(EmptyRankError):
        svd_truncated(np.zeros((3, 3)))


def test_svd_rtol_zero_keeps_strictly_positive_values():
    f = svd_truncated(np.diag([2.0, 0.0]), rtol=0.0)
    assert f.sigma.size == 1


@pytest.mark.parametrize("rtol", [-0.1, 1.0, 1.5])
def test_svd_rejects_rtol_outside_unit_interval(rtol):
    with pytest.raises(ConfigError):
        svd_truncated(np.eye(2), rtol=rtol)


def test_svd_shape_and_finiteness_checks():
    with pytest.raises(ShapeError):
        svd_truncated(np.ones(4))
    with pytest.raises(ShapeError):
        svd_truncated(np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        svd_truncated([[1.0, np.nan], [0.0, 1.0]])


def test_svd_reconstruction_property_on_random_shapes():
    rng = np.random.default_rng(11)
    for rows, cols in [(4, 4), (6, 3), (3, 8), (1, 5)]:
        m = rng.standard_normal((rows, cols))
        f = svd_truncated(m, DEFAULT_RTOL)
        recon = f.u @ np.diag(f.sigma) @ f.w.T
        bound = max(DEFAULT_RTOL * np.sqrt(f.sigma.size), 1e-8)
        assert np.linalg.norm(recon - m) <= bound * np.linalg.norm(m)
        assert np.all(np.diff(f.sigma) <= 0)  # descending


# -------------------------------------------------------------------------- eig


def test_eig_companion_of_hand_factored_polynomial():
    # z^2 - 5z + 6 = (z - 3)(z - 2); companion form has subdiagonal ones.
    c = np.array([[0.0, -6.0], [1.0, 5.0]])
    pairs = eig(c)
    assert_allclose(pairs.values, [3.0, 2.0], atol=1e-12)
    # eigenvector residual and normalization
    for i in range(2):
        v = pairs.vectors[:, i]
        assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)
        resid = c @ v - pairs.values[i] * v
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(c)


def test_eig_rotation_orders_conjugates_upper_half_first():
    th = 0.3
    r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    pairs = eig(r)
    assert_allclose(pairs.values[0], np.exp(1j * th), atol=1e-12)
    assert_allclose(pairs.values[1], np.exp(-1j * th), atol=1e-12)


def test_eig_first_nonzero_component_rotated_positive_real():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    pairs = eig(m)
    for j in range(5):
        v = pairs.vectors[:, j]
        lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0


def test_eig_conjugate_pair_closure_for_random_real_matrices():
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = rng.standard_normal((6, 6))
        vals = eig(m).values
        for lam in vals:
            if abs(lam.imag) > 1e-12:
                assert np.min(np.abs(vals - np.conj(lam))) <= 1e-10


def test_eig_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ShapeError):
        eig(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        eig([[np.inf, 0.0], [0.0, 1.0]])


def test_spectral_order_magnitude_then_imag():
    vals = np.array([0.5, np.exp(-0.3j), np.exp(0.3j), 2.0])
    idx = spectral_order(vals)
    assert_allclose(vals[idx], [2.0, np.exp(0.3j), np.exp(-0.3j), 0.5])


# -------------------------------------------------------------- conjugate_pairs


def assert_pairs_cover(values, real, upper, lower):
    assert sorted([*real, *upper, *lower]) == list(range(len(values)))
    assert np.all(values[real].imag == 0) and np.all(values[upper].imag > 0)
    assert np.array_equal(values[lower], np.conj(values[upper]))
    assert list(upper) == sorted(upper)


def test_conjugate_pairs_of_a_unit_modulus_spectrum_interleave():
    # every |lambda| ties at 1 (up to rounding), so the order by descending
    # modulus, then imaginary part, need not put a pair's members side by side
    upper_values = np.exp(1j * np.array([2.0, 1.1]))
    values = np.array([*upper_values, 1.0, -1.0, *np.conj(upper_values[::-1])])
    real, upper, lower = conjugate_pairs(values)
    assert (list(real), list(upper), list(lower)) == ([2, 3], [0, 1], [5, 4])
    a = np.zeros((8, 8))
    for i, t in enumerate([0.3, 1.1, 2.0]):
        a[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
    a[6, 6], a[7, 7] = 1.0, -1.0
    values = eig(a).values
    real, upper, lower = conjugate_pairs(values)
    assert_pairs_cover(values, real, upper, lower)
    assert np.any(lower != upper + 1)  # here at least one pair is split


def test_conjugate_pairs_match_exact_duplicates_copy_by_copy():
    a = 0.5 + 0.25j
    values = np.array([a, np.conj(a), 0.1, a, np.conj(a), np.conj(a), a])
    real, upper, lower = conjugate_pairs(values)
    assert_pairs_cover(values, real, upper, lower)
    # the k-th copy of a, counted by index, pairs with the k-th copy of conj(a)
    assert (list(real), list(upper), list(lower)) == ([2], [0, 3, 6], [1, 4, 5])


def test_conjugate_pairs_of_an_all_real_spectrum():
    for values in (np.array([0.9, -0.5, 0.0, 0.9]), np.array([0.9, -0.0j, 0.5])):
        real, upper, lower = conjugate_pairs(values)
        assert list(real) == [0, 1, 2, 3][:values.size]
        assert upper.size == lower.size == 0


@pytest.mark.parametrize("values", [
    [1j],
    [0.5 + 0.1j, 0.5 - 0.1000000001j],
    [0.5 + 0.1j, 0.5 - 0.1j, 0.5 + 0.1j],
    [0.5 + 0.1j, 0.5 - 0.1j, 0.2 - 0.1j],
    [complex(np.nan, 1.0), complex(np.nan, -1.0)],
    [complex(0.3, np.nan)],
], ids=["lone", "inexact", "odd-copies", "wrong-partner", "nan-real", "nan-imag"])
def test_conjugate_pairs_refuse_a_list_not_closed_under_conjugation(values):
    with pytest.raises(NumericalError, match="not closed under conjugation"):
        conjugate_pairs(np.array(values))
