"""Extended DMD: regression on dictionary-lifted snapshots.

The snapshot pair is pushed through a dictionary, the one-step operator is
regressed on the lifted data (truncated SVD, same machinery as the plain
fit), and three coefficient blocks tie the lifted spectrum back to state
space: B rows evaluate eigenfunctions, D expands the raw observables in the
dictionary, and the modes V = D U P let predictions run in the original
coordinates.

When the dictionary does not close under the dynamics the fit cannot be
exact; ``lifted_residual`` reports the one-step defect so callers can see the
span assumption fail rather than silently trusting the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SnapshotPair
from .dmd import _spectral_predict
from .errors import ConfigError, NumericalError, ShapeError
from .linalg import DEFAULT_RTOL, EigenPairs, eig, svd_truncated
from .observables import Dictionary

_B_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class EdmdModel:
    """Lifted-regression result tied back to the raw observables.

    ``b_coeffs`` rows give eigenfunction coefficients on the reduced (left
    singular) coordinates; ``d_coeffs`` expands the raw observables in the
    dictionary; ``modes_v`` is None when the eigenvector matrix was too ill
    conditioned to invert (see flags). ``svd_u`` and ``svd_sigma`` are the
    retained left singular vectors and singular values of the lifted
    snapshot matrix.
    """

    dictionary: Dictionary
    k_hat: np.ndarray
    eigen: EigenPairs
    b_coeffs: np.ndarray
    d_coeffs: np.ndarray
    modes_v: np.ndarray | None
    svd_u: np.ndarray
    svd_sigma: np.ndarray
    lifted_residual: float
    d_residual: float
    observable_dim: int
    flags: tuple = ()

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigen.values

    @property
    def eigenvectors_p(self) -> np.ndarray:
        return self.eigen.vectors


def lift_snapshots(pair: SnapshotPair, dictionary: Dictionary) -> SnapshotPair:
    """Apply the dictionary columnwise to both snapshot matrices."""
    if dictionary.input_dim != pair.n_observables:
        raise ShapeError(
            f"dictionary expects dimension {dictionary.input_dim}, pair has "
            f"{pair.n_observables} observables"
        )
    return SnapshotPair(
        x=dictionary.transform(pair.x),
        xp=dictionary.transform(pair.xp),
        col_times=pair.col_times,
        dt=pair.dt,
    )


def fit_edmd(pair: SnapshotPair, dictionary: Dictionary,
             rtol: float = DEFAULT_RTOL) -> EdmdModel:
    """Regress the lifted one-step operator and map its spectrum to state space."""
    lifted = lift_snapshots(pair, dictionary)
    factors = svd_truncated(lifted.x, rtol)
    k_hat = factors.u.T @ lifted.xp @ (factors.w / factors.sigma)
    spectrum = eig(k_hat)

    flags = []
    p = spectrum.vectors
    if np.linalg.cond(p) > _B_CONDITION_LIMIT:
        b_coeffs = np.linalg.pinv(p)
        flags.append("eigenvector_basis_singular")
    else:
        b_coeffs = np.linalg.inv(p)

    # raw observables expanded in the dictionary, g(z) =~ D theta(z)
    d_coeffs = pair.x @ (factors.w / factors.sigma) @ factors.u.T
    d_norm = np.linalg.norm(pair.x)
    d_residual = float(
        np.linalg.norm(pair.x - d_coeffs @ lifted.x) / (d_norm if d_norm > 0 else 1.0)
    )

    modes_v = None
    if "eigenvector_basis_singular" not in flags:
        modes_v = d_coeffs @ factors.u @ p

    k_full = factors.u @ k_hat @ factors.u.T
    lift_norm = np.linalg.norm(lifted.xp)
    lifted_residual = float(
        np.linalg.norm(lifted.xp - k_full @ lifted.x) / (lift_norm if lift_norm > 0 else 1.0)
    )

    return EdmdModel(
        dictionary=dictionary,
        k_hat=k_hat,
        eigen=spectrum,
        b_coeffs=b_coeffs,
        d_coeffs=d_coeffs,
        modes_v=modes_v,
        svd_u=factors.u,
        svd_sigma=factors.sigma,
        lifted_residual=lifted_residual,
        d_residual=d_residual,
        observable_dim=pair.n_observables,
        flags=tuple(flags),
    )


def eigenfunction_values(model: EdmdModel, z) -> np.ndarray:
    """Eigenfunction values B U^T theta(z); columns of z give columns of phi."""
    theta = model.dictionary.transform(np.asarray(z, dtype=float))
    single = theta.ndim == 1
    cols = theta[:, None] if single else theta
    phi = model.b_coeffs @ (model.svd_u.T @ cols)
    return phi[:, 0] if single else phi


def eval_eigenfunction(model: EdmdModel, i: int, z) -> complex:
    """Value of eigenfunction i at a single state vector."""
    count = model.eigenvalues.size
    if not 0 <= i < count:
        raise IndexError(f"eigenfunction index {i} out of range [0, {count})")
    return complex(eigenfunction_values(model, z)[i])


def edmd_predict(model: EdmdModel, z0, steps: int) -> np.ndarray:
    """Spectral forecast of the raw observables from initial state z0."""
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ConfigError(f"steps must be a non-negative integer, got {steps}")
    if model.modes_v is None:
        raise NumericalError(
            "modes are unavailable (eigenvector basis was numerically "
            "singular); prediction is not defined"
        )
    z0 = np.asarray(z0, dtype=float).ravel()
    if z0.size != model.observable_dim:
        raise ShapeError(
            f"z0 has dimension {z0.size}, model expects {model.observable_dim}"
        )
    phi0 = eigenfunction_values(model, z0)
    return _spectral_predict(model.modes_v, model.eigenvalues, phi0, steps)
