"""Tests for observable dictionaries and kernels.

Monomial counts come from the binomial identity C(dim + degree, degree); the
weighted dictionary is checked against the kernel it is supposed to factor.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dmdkit.errors import ConfigError, ShapeError
from dmdkit.observables import (
    CustomDictionary,
    GaussianKernel,
    IdentityDictionary,
    KernelDictionary,
    LaplacianKernel,
    PolynomialDictionary,
    PolynomialKernel,
    build_dictionary,
    parse_kernel,
    strided_centers,
)

# ---------------------------------------------------------------- dictionaries


def test_identity_dictionary_returns_state():
    d = IdentityDictionary(3)
    z = np.array([1.0, -2.0, 0.5])
    assert_array_equal(d.transform(z), z)
    assert d.size == 3


def test_polynomial_count_matches_binomial_identity():
    for dim in (1, 2, 3, 4):
        for degree in (1, 2, 3):
            d = PolynomialDictionary(dim, degree)
            assert d.size == comb(dim + degree, degree)


@pytest.mark.parametrize("degree", range(1, 6))
@pytest.mark.parametrize("dim", range(1, 6))
def test_polynomial_dictionary_matches_references(dim, degree):
    # references that share nothing with the one-pass builder: the order of
    # combinations_with_replacement (for two variables and degree 2: 1, x1,
    # x2, x1^2, x1*x2, x2^2), names formatted from each exponent row, and
    # weights sqrt(d! / ((d - |e|)! prod e_i!)) from factorials
    exps = [[combo.count(i) for i in range(dim)] for k in range(degree + 1)
            for combo in combinations_with_replacement(range(dim), k)]
    names = tuple("*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                           for i, e in enumerate(row, start=1) if e) or "1" for row in exps)
    weights = [np.sqrt(factorial(degree) / (factorial(degree - sum(row))
                                            * prod(factorial(e) for e in row)))
               for row in exps]
    plain = PolynomialDictionary(dim, degree)
    weighted = PolynomialDictionary(dim, degree, weighted=True)
    assert_array_equal(plain.exponents, exps)
    assert plain.names == weighted.names == names
    assert_array_equal(plain.weights, 1.0)
    assert_array_equal(weighted.weights, weights)
    # these coordinates' monomials up to degree 5 are exact doubles
    z = np.array([2.0, 3.0, -0.5, 1.5, -1.25])[:dim]
    assert_array_equal(plain.transform(z), [np.prod(z ** np.array(row)) for row in exps])


def test_polynomial_dictionary_build_peak_is_bounded():
    # the build holds the exponent table, one degree's gather of it and a few
    # per-monomial lists, about 2.5x the table in all
    tracemalloc.start()
    try:
        d = PolynomialDictionary(20, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * d.exponents.nbytes, peak / d.exponents.nbytes


def test_polynomial_batch_matches_single_columns():
    # bit for bit, for poly and wpoly alike
    rng = np.random.default_rng(2)
    cols = rng.standard_normal((3, 7))
    for weighted in (False, True):
        d = PolynomialDictionary(3, 4, weighted=weighted)
        batch = d.transform(cols)
        for j in range(7):
            assert_array_equal(batch[:, j], d.transform(cols[:, j]))


@pytest.mark.parametrize("degree", range(1, 10))
def test_polynomial_lift_within_degree_ulps_of_exact_monomials(degree):
    # a degree-k monomial is k - 1 rounded products, so every entry lies
    # within (k - 1) * 2^-53 < degree * 2^-53 relative of the exact value
    rng = np.random.default_rng(degree)
    dim = 3
    cols = rng.choice([-1.0, 1.0], (dim, 4)) * 10.0 ** rng.uniform(-3, 3, (dim, 4))
    d = PolynomialDictionary(dim, degree)
    lifted = d.transform(cols)
    worst = Fraction(0)
    for j in range(cols.shape[1]):
        z = [Fraction(v) for v in cols[:, j]]
        for i, exps in enumerate(d.exponents):
            exact = Fraction(1)
            for v, k in zip(z, exps):
                exact *= v ** int(k)
            worst = max(worst, abs(Fraction(lifted[i, j]) - exact) / abs(exact))
    assert worst <= Fraction(degree, 2**53)


def test_weighted_polynomial_factors_the_polynomial_kernel():
    # theta_w(a) . theta_w(b) == (1 + a.b)^degree, the feature-map identity.
    rng = np.random.default_rng(13)
    for dim in (1, 2, 3):
        for degree in (1, 2, 3, 4):
            d = PolynomialDictionary(dim, degree, weighted=True)
            k = PolynomialKernel(degree)
            for _ in range(5):
                a = rng.standard_normal(dim)
                b = rng.standard_normal(dim)
                lhs = d.transform(a) @ d.transform(b)
                assert_allclose(lhs, k.gram(a[:, None], b[:, None])[0, 0], rtol=1e-10)


def test_degree_validation():
    with pytest.raises(ConfigError):
        PolynomialDictionary(2, 0)
    with pytest.raises(ConfigError):
        PolynomialKernel(-1)


def test_rbf_dictionary_shape_and_finiteness_at_zero():
    centers = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    d = KernelDictionary(GaussianKernel(0.7), centers.T)
    theta = d.transform(np.zeros(2))
    assert theta.shape == (3,)
    assert np.all(np.isfinite(theta))
    assert_allclose(theta[0], 1.0)  # at its own center
    # exp(-||z - c||^2 / w^2) from direct differences. The kernel forms
    # ||z||^2 + ||c||^2 - 2 z.c, rounded to about 4 eps (||z||^2 + ||c||^2)
    # <= 4 eps 8 here, so after dividing by w^2 = 0.49 the values agree
    # within 1e-13 absolute.
    z = np.random.default_rng(3).uniform(-2.0, 2.0, (2, 50))
    direct = np.exp(-np.sum((z[None, :, :] - centers[:, :, None]) ** 2, axis=1) / 0.49)
    assert_allclose(d.transform(z), direct, rtol=0.0, atol=1e-13)


def test_rbf_width_must_be_positive():
    with pytest.raises(ConfigError):
        build_dictionary("rbf:0:2", 2, snapshots=np.zeros((2, 2)))


def test_strided_centers_deterministic_and_bounded():
    x = np.arange(20.0).reshape(2, 10)
    c = strided_centers(x, 4)
    assert c.shape == (4, 2)
    assert_array_equal(c, strided_centers(x, 4))
    assert_array_equal(c[0], x[:, 0])
    assert_array_equal(c[-1], x[:, -1])
    with pytest.raises(ConfigError):
        strided_centers(x, 11)


def test_custom_dictionary_named_functions():
    d = CustomDictionary(
        2,
        [
            ("1", lambda z: 1.0),
            ("x1", lambda z: z[0]),
            ("x1^2", lambda z: z[0] ** 2),
        ],
    )
    assert d.names == ("1", "x1", "x1^2")
    assert_allclose(d.transform(np.array([3.0, 5.0])), [1.0, 3.0, 9.0])
    with pytest.raises(ConfigError, match="CustomDictionary"):
        d.spec_string()


def test_dictionary_dimension_mismatch():
    d = PolynomialDictionary(2, 2)
    with pytest.raises(ShapeError):
        d.transform(np.ones(3))


# --------------------------------------------------------------------- kernels


def test_polynomial_kernel_on_orthonormal_columns():
    e = np.eye(2)
    g = PolynomialKernel(1).gram(e, e)
    assert_allclose(g, [[2.0, 1.0], [1.0, 2.0]])


def test_gaussian_kernel_hand_value_and_symmetry():
    k = GaussianKernel(0.5)
    a = np.array([[1.0], [0.0]])
    b = np.array([[0.0], [1.0]])
    assert_allclose(k.gram(a, b), np.exp(-2.0 / 0.25))
    assert k.gram(a, b) == k.gram(b, a)


def test_laplacian_kernel_uses_unsquared_distance():
    k = LaplacianKernel(0.5)
    a = np.array([[1.0], [0.0]])
    b = np.array([[0.0], [1.0]])
    assert_allclose(k.gram(a, b), np.exp(-np.sqrt(2.0) / 0.25))


def test_gaussian_gram_is_positive_semidefinite():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 12))
    g = GaussianKernel(1.3).gram(x, x)
    assert_allclose(g, g.T, atol=1e-12)
    evals = np.linalg.eigvalsh((g + g.T) / 2)
    assert evals.min() >= -1e-10 * evals.max()


def test_kernel_width_validation():
    with pytest.raises(ConfigError):
        GaussianKernel(0.0)
    with pytest.raises(ConfigError):
        LaplacianKernel(-1.0)


# ----------------------------------------------------------------- spec parsing


def test_parse_kernel_round_trips():
    for spec, cls in [("poly:3", PolynomialKernel), ("gaussian:0.7", GaussianKernel),
                      ("laplacian:0.5", LaplacianKernel)]:
        k = parse_kernel(spec)
        assert isinstance(k, cls)
        assert parse_kernel(k.spec_string()).spec_string() == k.spec_string()


def test_build_dictionary_from_specs():
    assert isinstance(build_dictionary("identity", 3), IdentityDictionary)
    d = build_dictionary("poly:2", 2)
    assert isinstance(d, PolynomialDictionary) and not d.weighted
    w = build_dictionary("wpoly:2", 2)
    assert w.weighted
    snaps = np.arange(12.0).reshape(2, 6)
    r = build_dictionary("rbf:0.5:3", 2, snapshots=snaps)
    assert isinstance(r, KernelDictionary) and r.size == 3
    assert r.spec_string() == "gaussian:0.5"
    assert_array_equal(r.points, snaps[:, [0, 2, 5]])


@pytest.mark.parametrize(
    "spec",
    ["poly", "poly:x", "poly:0", "rbf:0.5", "mystery:1", "gaussian", "gaussian:0"],
)
def test_malformed_specs_are_config_errors(spec):
    with pytest.raises(ConfigError):
        parse_kernel(spec) if spec.startswith("gaussian") else build_dictionary(spec, 2, np.ones((2, 4)))


def test_rbf_spec_needs_snapshots():
    with pytest.raises(ConfigError):
        build_dictionary("rbf:0.5:3", 2)
