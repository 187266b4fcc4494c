"""Dynamic mode decomposition in companion and SVD form.

Both fits regress a one-step linear operator from snapshot pairs. The
companion fit works on the longest leading block of snapshot columns that is
numerically independent and expresses the next snapshot as a combination of
those columns; its eigenvalue problem is the companion matrix of the
regression coefficients. The SVD fit projects the shifted snapshots onto the
dominant left singular subspace and eigendecomposes the reduced operator,
which is far better behaved on noisy or rank-deficient data.

``fit_svd_dmd`` returns a ``KoopmanModel`` carrying eigenvalues, modes in
observable space, and the left singular vectors and singular values needed
to evaluate eigenfunctions and lift the operator back to observable space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import SnapshotPair, Trajectory, delay_embed, snapshot_pairs
from .errors import (
    ConditioningError,
    ConfigError,
    EmptyRankError,
    NumericalError,
    ShapeError,
)
from .linalg import DEFAULT_RTOL, eig, pinv, svd_truncated

# companion precondition: the regression block must be well conditioned
# (condition number below 1e12), so columns are accepted while the smallest
# singular value stays above 1e-12 times the largest
_COMPANION_RTOL = 1e-12
_ZERO_EIGENVALUE_TOL = 1e-12
_IMAG_RESIDUE_TOL = 1e-8
# forecast steps advanced per block in _spectral_predict
_PREDICT_BLOCK = 256


@dataclass(frozen=True)
class CompanionFit:
    """Companion-matrix regression result.

    ``vandermonde_t`` has rows that are geometric progressions of the
    eigenvalues, T[i, j] = lambda_i**j, and ``window`` is the number of
    leading snapshot columns the regression used.
    """

    c_matrix: np.ndarray
    eigenvalues: np.ndarray
    vandermonde_t: np.ndarray
    window: int


@dataclass(frozen=True)
class KoopmanModel:
    """SVD-based DMD fit: reduced operator, spectrum, and observable modes.

    ``svd_u`` and ``svd_sigma`` are the retained left singular vectors and
    singular values of the snapshot matrix.
    """

    k_hat: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors_p: np.ndarray
    modes_v: np.ndarray
    svd_u: np.ndarray
    svd_sigma: np.ndarray
    observable_dim: int
    fit_residual: float
    algorithm_tag: str = "dmd"
    flags: tuple = ()


def _leading_window(x: np.ndarray) -> int:
    """Largest j such that the first j columns are numerically independent.

    Adding a column never raises the smallest singular value nor lowers the
    largest (interlacing), so once a prefix is ill-conditioned every longer
    one is too, and the boundary is found by bisection.
    """
    good, bad = 0, min(x.shape) + 1
    while bad - good > 1:
        j = (good + bad) // 2
        s = np.linalg.svd(x[:, :j], compute_uv=False)
        if s[-1] > _COMPANION_RTOL * s[0]:
            good = j
        else:
            bad = j
    return good


def fit_companion(pair: SnapshotPair) -> CompanionFit:
    """Regress the successor of the leading independent snapshot block.

    The block's next snapshot is written as x@c by least squares; the
    companion matrix of c carries the eigenvalues. Data whose matrix is
    rank-deficient (rank below both dimensions) loses information in this
    representation, so that case is rejected in favor of the SVD fit, as is
    a leading block cut short of the rank by ill-conditioning.
    """
    x, xp = pair.x, pair.xp
    if x.shape[1] < 2:
        raise ShapeError("companion fit needs at least 2 snapshot columns")
    s_all = np.linalg.svd(x, compute_uv=False)
    if s_all[0] <= 0.0:
        raise EmptyRankError("snapshot matrix is identically zero")
    rank = int(np.count_nonzero(s_all > _COMPANION_RTOL * s_all[0]))
    if rank < min(x.shape):
        raise ConditioningError(
            f"snapshot matrix is numerically rank-deficient (rank {rank} of "
            f"{x.shape[0]}x{x.shape[1]}); use fit_svd_dmd instead"
        )
    window = _leading_window(x)
    if window == 0:
        raise EmptyRankError("no usable snapshot columns")
    # Columns of a Krylov sequence that depend on a prefix stay in its span,
    # so a prefix shorter than the rank means conditioning, not dependence,
    # cut the window; its companion matrix would give a wrong spectrum.
    if window < rank:
        raise ConditioningError(
            f"leading snapshot columns become ill-conditioned after {window} of "
            f"rank {rank}; use fit_svd_dmd instead"
        )
    coeffs = pinv(x[:, :window], rtol=_COMPANION_RTOL) @ xp[:, window - 1]
    c_matrix = np.zeros((window, window))
    c_matrix[1:, :-1] = np.eye(window - 1)
    c_matrix[:, -1] = coeffs
    values = eig(c_matrix).values
    vander = np.vander(values, N=window, increasing=True)
    return CompanionFit(c_matrix=c_matrix, eigenvalues=values,
                        vandermonde_t=vander, window=window)


def companion_modes(fit: CompanionFit, pair: SnapshotPair) -> np.ndarray:
    """Modes as snapshot combinations: columns of x[:, :window] @ inv(T)."""
    if pair.x.shape[1] < fit.window:
        raise ShapeError("pair has fewer columns than the fitted window")
    t = fit.vandermonde_t
    if np.linalg.cond(t) > 1e12:
        raise NumericalError(
            "Vandermonde matrix is numerically singular (repeated or "
            "clustered eigenvalues); modes are not recoverable"
        )
    return np.linalg.solve(t.T, pair.x[:, :fit.window].T.astype(complex)).T


def _mode_columns(xp, factors, values, vectors):
    """Observable-space modes (1/lambda) xp W inv(Sigma) p, zero-lambda flagged."""
    base = xp @ (factors.w / factors.sigma) @ vectors
    modes = np.zeros(base.shape, dtype=complex)
    alive = np.abs(values) > _ZERO_EIGENVALUE_TOL
    modes[:, alive] = base[:, alive] / values[alive]
    return modes, bool(np.any(~alive))


def fit_svd_dmd(pair: SnapshotPair, rtol: float = DEFAULT_RTOL) -> KoopmanModel:
    """Project the shift operator onto the leading singular subspace.

    The reduced operator U^T xp W inv(Sigma) is eigendecomposed; modes are
    lifted back to observable space. ``fit_residual`` is the relative error
    of the spectral reconstruction of xp on the training columns.
    """
    factors = svd_truncated(pair.x, rtol)
    k_hat = factors.u.T @ pair.xp @ (factors.w / factors.sigma)
    spectrum = eig(k_hat)
    modes, has_zero = _mode_columns(pair.xp, factors, spectrum.values, spectrum.vectors)

    flags = []
    if pair.x.shape[1] == 1:
        flags.append("degenerate_single_column")
    if has_zero:
        flags.append("zero_eigenvalue_modes")

    # the cutoff lstsq(rcond=None) applies, at a fraction of its cost
    cutoff = np.finfo(float).eps * max(modes.shape)
    amps = np.linalg.pinv(modes, rcond=cutoff) @ pair.x
    recon = modes @ (spectrum.values[:, None] * amps)
    denom = np.linalg.norm(pair.xp)
    residual = float(np.linalg.norm(pair.xp - recon) / (denom if denom > 0 else 1.0))

    return KoopmanModel(
        k_hat=k_hat,
        eigenvalues=spectrum.values,
        eigenvectors_p=spectrum.vectors,
        modes_v=modes,
        svd_u=factors.u,
        svd_sigma=factors.sigma,
        observable_dim=pair.n_observables,
        fit_residual=residual,
        flags=tuple(flags),
    )


def eigenfunction_values(model: KoopmanModel, z) -> np.ndarray:
    """Eigenfunction values inv(P) U^T z; columns of z give columns of phi."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    cols = z[:, None] if single else z
    if cols.shape[0] != model.observable_dim:
        raise ShapeError(
            f"z has dimension {cols.shape[0]}, model expects {model.observable_dim}"
        )
    lifted = model.svd_u.T @ cols
    try:
        phi = np.linalg.solve(model.eigenvectors_p, lifted.astype(complex))
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigenvector matrix is singular: {err}") from err
    return phi[:, 0] if single else phi


def full_operator(model: KoopmanModel) -> np.ndarray:
    """Lift the reduced operator back to observable space, U K_hat U^T."""
    return model.svd_u @ model.k_hat @ model.svd_u.T


def _discard_imaginary(rows: np.ndarray) -> np.ndarray:
    """Real part of each forecast row, checking its imaginary residue.

    Each row is judged against its own scale, max(1, max |Re|), and the
    first row over the tolerance raises.
    """
    scale = np.maximum(1.0, np.max(np.abs(rows.real), axis=1, initial=0.0))
    residue = np.max(np.abs(rows.imag), axis=1, initial=0.0)
    bad = np.flatnonzero(residue > _IMAG_RESIDUE_TOL * scale)
    if bad.size:
        raise NumericalError(
            f"prediction has imaginary residue {residue[bad[0]]:.3e}; the spectrum "
            "is not conjugate-consistent with real data"
        )
    return rows.real


def _spectral_predict(modes, values, amplitudes, steps: int) -> np.ndarray:
    """Advance amplitudes through eigenvalue powers, m = 1..steps.

    Powers are built _PREDICT_BLOCK steps at a time by a running product,
    the same left-to-right multiplications as stepping one at a time, and
    each block is mapped through the modes by one matrix product.
    """
    out = np.empty((steps, modes.shape[0]))
    state = amplitudes.astype(complex)
    for start in range(0, steps, _PREDICT_BLOCK):
        powers = np.empty((min(_PREDICT_BLOCK, steps - start), state.size), dtype=complex)
        powers[0] = state * values
        powers[1:] = values
        np.multiply.accumulate(powers, axis=0, out=powers)
        state = powers[-1]
        out[start : start + powers.shape[0]] = _discard_imaginary(powers @ modes.T)
    return out


def predict(model: KoopmanModel, g0, steps: int) -> np.ndarray:
    """Spectral forecast g_m = sum_i lambda_i^m phi_i(g0) v_i for m=1..steps.

    g0 is expanded in the mode basis by least squares; a rank-deficient mode
    matrix still predicts but emits a warning, since the projection is then
    not unique.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ConfigError(f"steps must be a non-negative integer, got {steps}")
    g0 = np.asarray(g0, dtype=float).ravel()
    if g0.size != model.observable_dim:
        raise ShapeError(
            f"g0 has dimension {g0.size}, model expects {model.observable_dim}"
        )
    amps, _, rank, _ = np.linalg.lstsq(model.modes_v, g0.astype(complex), rcond=None)
    if rank < min(model.modes_v.shape):
        warnings.warn(
            "mode matrix is rank-deficient; prediction uses a least-squares "
            "projection of g0",
            RuntimeWarning,
            stacklevel=2,
        )
    return _spectral_predict(model.modes_v, model.eigenvalues, amps, steps)


def embedding_sweep(traj: Trajectory, depths, rtol: float = DEFAULT_RTOL):
    """Fit a model per embedding depth and report (h, fit residual) pairs.

    The true state dimension is rarely known from data, so this sweeps
    candidate depths; the residual drops sharply once the embedding is deep
    enough to linearize the observed dynamics.
    """
    report = []
    for h in depths:
        embedded = delay_embed(traj, h)
        model = fit_svd_dmd(snapshot_pairs(embedded), rtol)
        report.append((int(h), model.fit_residual))
    return report
