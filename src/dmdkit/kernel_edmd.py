"""Kernelized EDMD: the lifted regression without the lifted matrix.

Two n-by-n Gram matrices summarize everything the explicit fit would compute
in dictionary space: G holds kernel products among the snapshots and A-hat
holds products against the shifted snapshots. Eigendecomposing G = Q S^2 Q^T
recovers the singular structure of the implicit lifted data, and the reduced
operator S^-1 Q^T A Q S^-1 equals the explicit one exactly. With the
polynomial kernel this is checked against the weighted explicit dictionary to
tight tolerance; other kernels follow the same algebra.

Eigenfunctions are evaluated through the dual eigenvector rows (the inverse
of the eigenvector matrix), which is what makes the one-step eigenfunction
relation hold on invariant data when the reduced operator is not normal. The
model's features are a ``KernelDictionary``, the kernel sections at the
training snapshots, and its map is C = inv(V) S^-1 Q^T.
"""

from __future__ import annotations

import numpy as np

from .data import SnapshotPair
from .dmd import SpectralModel, _eigen_inverse, _finish_fit
# eigenfunction_values is re-exported: the kernel model is a SpectralModel
from .dmd import eigenfunction_values  # noqa: F401
from .errors import EmptyRankError
from .linalg import DEFAULT_RTOL, check_rtol
from .observables import Kernel, KernelDictionary


def _gram_basis(g_gram: np.ndarray, rtol: float):
    """Kept eigenvectors Q and singular values S of G = Q S^2 Q^T, S descending.

    Singular values at or below rtol times the largest are dropped (tiny
    negative eigenvalues from roundoff are clipped first).
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

    G is factored by ``_gram_basis``, and the reduced operator's
    eigenstructure gives eigenvalues, modes, and the dual rows for
    eigenfunctions. Column j of G is the kernel row of training column j,
    so the training residual is ||xp - Re(V Lambda C) G|| / ||xp||.
    """
    g_gram = kernel.gram(pair.x, pair.x)
    q, sigma = _gram_basis(g_gram, rtol)
    k_hat_u = (q.T @ kernel.gram(pair.x, pair.xp) @ q) / sigma[:, None] / sigma[None, :]
    spectrum, v_inv, flags = _eigen_inverse(k_hat_u)

    model = SpectralModel(
        eigenvalues=spectrum.values,
        modes_v=(pair.x @ q / sigma[None, :]) @ spectrum.vectors,
        coeffs=v_inv @ (q.T / sigma[:, None]),
        features=KernelDictionary(kernel, pair.x),
        flags=flags,
    )
    return _finish_fit(model, pair.xp, g_gram)
