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
relation hold on invariant data when the reduced operator is not normal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SnapshotPair
from .dmd import _spectral_predict
from .errors import ConfigError, EmptyRankError, ShapeError
from .linalg import DEFAULT_RTOL, eig
from .observables import Kernel

_V_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class KernelModel:
    """Kernel-EDMD fit: Gram factors, reduced operator, spectrum, modes.

    ``sigma`` are the retained singular values of the implicit lifted data,
    ``q_eigvecs`` the matching eigenvector columns of G, and ``v_inv`` the
    dual basis used for eigenfunction evaluation: the inverse of the
    reduced operator's eigenvector matrix, whose rows are left eigenvectors.
    """

    kernel: Kernel
    q_eigvecs: np.ndarray
    sigma: np.ndarray
    k_hat_u: np.ndarray
    eigenvalues: np.ndarray
    v_inv: np.ndarray
    training_x: np.ndarray
    modes: np.ndarray
    fit_residual: float
    flags: tuple = ()


def gram_matrices(pair: SnapshotPair, kernel: Kernel):
    """G_ij = k(x_i, x_j) and A_ij = k(x_i, xp_j) over snapshot columns."""
    return kernel.gram(pair.x, pair.x), kernel.gram(pair.x, pair.xp)


def fit_kernel_edmd(pair: SnapshotPair, kernel: Kernel,
                    rtol: float = DEFAULT_RTOL) -> KernelModel:
    """Fit the reduced operator from Gram matrices alone.

    G is eigendecomposed, singular values at or below rtol times the largest
    are dropped (tiny negative eigenvalues from roundoff are clipped first),
    and the reduced operator's eigenstructure gives eigenvalues, modes, and
    the dual rows for eigenfunctions.
    """
    g_gram, a_gram = gram_matrices(pair, kernel)
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
    q = evecs[:, keep]
    sigma = sigma_all[keep]

    k_hat_u = (q.T @ a_gram @ q) / sigma[:, None] / sigma[None, :]
    spectrum = eig(k_hat_u)

    flags = []
    v = spectrum.vectors
    if np.linalg.cond(v) > _V_CONDITION_LIMIT:
        v_inv = np.linalg.pinv(v)
        flags.append("eigenvector_basis_singular")
    else:
        v_inv = np.linalg.inv(v)

    modes = (pair.x @ q / sigma[None, :]) @ v
    phi_train = (v_inv * sigma[None, :]) @ q.T
    recon = modes @ (spectrum.values[:, None] * phi_train)
    denom = np.linalg.norm(pair.xp)
    residual = float(np.linalg.norm(pair.xp - recon) / (denom if denom > 0 else 1.0))

    return KernelModel(
        kernel=kernel,
        # row-major like a loaded model's, so both evaluate bit for bit alike
        q_eigvecs=np.ascontiguousarray(q),
        sigma=sigma,
        k_hat_u=k_hat_u,
        eigenvalues=spectrum.values,
        v_inv=v_inv,
        training_x=pair.x,
        modes=modes,
        fit_residual=residual,
        flags=tuple(flags),
    )


def eigenfunction_values(model: KernelModel, z) -> np.ndarray:
    """Eigenfunction values at z via kernel products with the training data."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    cols = z[:, None] if single else z
    if cols.shape[0] != model.training_x.shape[0]:
        raise ShapeError(
            f"z has dimension {cols.shape[0]}, training data has "
            f"{model.training_x.shape[0]}"
        )
    k_vec = model.kernel.gram(model.training_x, cols)
    phi = model.v_inv @ ((model.q_eigvecs.T @ k_vec) / model.sigma[:, None])
    return phi[:, 0] if single else phi


def kernel_eigenfunction(model: KernelModel, i: int, z) -> complex:
    """Value of eigenfunction i at a single state vector."""
    count = model.eigenvalues.size
    if not 0 <= i < count:
        raise IndexError(f"eigenfunction index {i} out of range [0, {count})")
    return complex(eigenfunction_values(model, z)[i])


def kernel_predict(model: KernelModel, z0, steps: int) -> np.ndarray:
    """Spectral forecast of the training observables from initial state z0."""
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ConfigError(f"steps must be a non-negative integer, got {steps}")
    z0 = np.asarray(z0, dtype=float).ravel()
    phi0 = eigenfunction_values(model, z0)
    return _spectral_predict(model.modes, model.eigenvalues, phi0, steps)
