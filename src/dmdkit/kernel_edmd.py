"""Kernelized EDMD: the lifted regression without the lifted matrix.

Two m-by-m Gram matrices of the m snapshot pairs summarize all the explicit
fit computes in dictionary space: G holds kernel products among the
snapshots and A-hat holds products against the shifted snapshots.
G = theta(x)^T theta(x), so its eigendecomposition G = Q S^2 Q^T is the SVD
of the implicit lift, theta(x) = U S Q^T with U = theta(x) Q S^-1 (Williams,
Rowley & Kevrekidis, "A kernel-based method for data-driven Koopman
spectral analysis", 2015), and the reduced operator S^-1 Q^T A Q S^-1 equals
the explicit one U^T theta(xp) Q S^-1 exactly. With the polynomial kernel
this is checked against the weighted explicit dictionary to tight
tolerance; other kernels follow the same algebra.

The fit is ``dmd._projected_fit`` with the Gram factor as its basis: the
model's features are a ``KernelDictionary`` (the kernel sections at the
training snapshots), its map is C = inv(P) S^-1 Q^T, evaluated through the
dual rows inv(P) so the one-step eigenfunction relation holds when the
reduced operator is not normal, and its modes are (x Q) S^-1 P. K^ is
Q^T A Q scaled by S^-1 on both sides: regrouped as (Q S^-1)^T (A (Q S^-1)),
a 400-column Gaussian (width 2) fit of two rotation blocks moved its
eigenvalues by up to 9e-6. The rank cut is made here (``_gram_basis``), not
by ``linalg.svd_truncated``: a kept eigenvalue of G must pass the relative
cut on S and an absolute floor of m eps times the largest.
"""

from __future__ import annotations

import numpy as np

from .data import SnapshotPair
from .dmd import SpectralModel, _projected_fit
# eigenfunction_values is re-exported: the kernel model is a SpectralModel
from .dmd import eigenfunction_values  # noqa: F401
from .errors import EmptyRankError, ShapeError
from .linalg import DEFAULT_RTOL, check_rtol
from .observables import Kernel, KernelDictionary


def _finite_gram(kernel: Kernel, a_cols, b_cols, name: str) -> np.ndarray:
    """``kernel.gram(a_cols, b_cols)``, refused with a ShapeError if an entry
    is not finite: eigh returns finite eigenvalues for [[nan, 1], [1, 1]]."""
    with np.errstate(over="ignore", invalid="ignore"):  # the check reports it
        gram = kernel.gram(a_cols, b_cols)
    if not np.isfinite(gram).all():
        raise ShapeError(f"Gram matrix {name} contains non-finite entries: "
                         f"the {kernel.spec_string()} kernel overflows on the snapshots")
    return gram


def _gram_basis(g_gram: np.ndarray, rtol: float):
    """Kept eigenvectors Q and singular values S of G = Q S^2 Q^T, S descending.

    For an m x m G, an eigenvalue is kept when it is above m eps times the
    largest and its singular value above rtol times the largest (roundoff
    negatives are clipped first). That floor often sets the rank: on 2,000
    columns of a 4-state double rotation, Gaussian kernel sigma 1, exact or
    with 1e-3 noise, the default rtol alone kept 5 to 7 times as many.
    """
    check_rtol(rtol)
    evals, evecs = np.linalg.eigh(g_gram)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    sigma_all = np.sqrt(np.clip(evals, 0.0, None))
    if sigma_all[0] <= 0.0:
        raise EmptyRankError("Gram matrix is numerically zero")
    # the eigensolver cannot certify eigenvalues below roundoff scale, and
    # the square root would inflate that noise to ~1e-8 relative on sigma,
    # so an absolute eigenvalue floor backs up the relative cut
    noise_floor = g_gram.shape[0] * np.finfo(float).eps * evals[0]
    keep = (sigma_all > rtol * sigma_all[0]) & (evals > noise_floor)
    return evecs[:, keep], sigma_all[keep]


def fit_kernel_edmd(pair: SnapshotPair, kernel: Kernel,
                    rtol: float = DEFAULT_RTOL) -> SpectralModel:
    """Fit the reduced operator from Gram matrices alone.

    G is factored by ``_gram_basis`` and then dropped, and the reduced
    operator's eigenstructure gives eigenvalues, modes, and the dual rows
    for eigenfunctions. Column j of G is the kernel row of training column
    j, so the training residual is ||xp - Re(V Lambda C) G|| / ||xp||; as
    U^T theta(x) = S Q^T, the fit passes its training coordinates as
    (S, Q^T), exact at a cut rank since the kept eigenvectors are orthogonal
    to the dropped ones. A G or A-hat with a non-finite entry (a kernel that
    overflows on finite data) is a ShapeError.
    """
    q, sigma = _gram_basis(_finite_gram(kernel, pair.x, pair.x, "G"), rtol)
    k_hat_u = (q.T @ _finite_gram(kernel, pair.x, pair.xp, "A-hat") @ q
               / sigma[:, None] / sigma[None, :])
    return _projected_fit(k_hat_u, q.T / sigma[:, None], pair.x @ q / sigma[None, :],
                          KernelDictionary(kernel, pair.x), "kernel-edmd", rtol,
                          pair.xp, sigma, q.T)
