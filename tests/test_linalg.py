"""Tests for the shared linear-algebra kernels.

Expected values come from independent constructions: truncated-SVD ranks from
explicit low-rank factor products, eigenvalues from a hand-factored
characteristic polynomial, pseudoinverses from the four Penrose conditions.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmdkit.errors import ConfigError, EmptyRankError, ShapeError
from dmdkit.linalg import DEFAULT_RTOL, eig, pinv, spectral_order, svd_truncated

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


# ------------------------------------------------------------------------- pinv


def test_pinv_diagonal_with_zero_row():
    assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_penrose_conditions():
    rng = np.random.default_rng(23)
    for shape in [(2, 3), (6, 4), (5, 5)]:
        m = rng.standard_normal(shape)
        p = pinv(m)
        assert_allclose(m @ p @ m, m, atol=1e-10)
        assert_allclose(p @ m @ p, p, atol=1e-10)
        assert_allclose((m @ p).T, m @ p, atol=1e-10)
        assert_allclose((p @ m).T, p @ m, atol=1e-10)


def test_pinv_consistent_with_truncation():
    # Rank-deficient input: pinv inverts only the retained part.
    m = np.diag([1.0, 1e-14])
    p = pinv(m, rtol=1e-10)
    assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-12)
