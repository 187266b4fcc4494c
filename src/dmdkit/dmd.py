"""The spectral model every fitter returns, and DMD in companion and SVD form.

Every fit in the package ends in one ``SpectralModel``: eigenvalues Lambda,
modes V in observable space, and a complex map C from a feature vector f(z)
to eigenfunction values, phi(z) = C f(z). The feature map f is always a
``Dictionary``: the identity (both DMD fits), a lift (EDMD, ``edmd``) or
kernel sections at the training snapshots (kernel EDMD, ``kernel_edmd``),
and the state dimension is its ``input_dim``. One routine each
evaluates eigenfunctions, forecasts Re(V Lambda^m C f(z)) and forms the
one-step map Re(V Lambda C), whatever the fitter.

A real map's eigenvalues, modes and eigenfunctions come in conjugate pairs,
and every fit ends in ``_finish_fit``, which makes the model exactly
conjugate-closed (``conjugate_slots``): a real eigenvalue's mode column and
C row are real, and a lower pair member's are the exact conjugates of its
upper member's. The forecast runs over the real eigenvalues and the upper
members only, with the upper amplitudes doubled, so it needs no imaginary
residue check: each block of steps is Re(T W) = Re(T) Re(W) - Im(T) Im(W),
one real product of a fixed table T of eigenvalue powers Lambda^1 ..
Lambda^b with weights W that carry Lambda^(jb) for block j
(``_spectral_predict`` states its growth bound and tolerance). ``predict``
refuses with a NumericalError a model that is not exactly closed, which
only a hand-built one can be. Every fitter's training residual is the
one-step defect ||xp - Re(V Lambda C) F|| / ||xp|| of the closed model on
its training features F (x, its lift, or the Gram matrix of x), summed over
column blocks within 1e-13 absolute of the one-shot product.

Both DMD fits regress a one-step linear operator from snapshot pairs. The
companion fit (Rowley et al. 2009) needs a Krylov sequence x_(j+1) = K x_j,
consecutive samples of one trajectory. It expresses the successor of the
leading k = min(n, m) columns as their combination, found from one SVD of
those columns, which must be well conditioned; its eigenvalue problem is the
companion matrix of the regression coefficients, and C is the pseudoinverse
of its modes. The SVD fit projects the shifted snapshots onto the dominant
left singular subspace and eigendecomposes the reduced operator, which is far
better behaved on noisy or rank-deficient data; there C = inv(P) U^T. EDMD
shares that truncated SVD, reduced operator and eigenbasis inverse
(``_reduced_fit``).

The eigenbasis inverse (``_invert_basis``, shared by SVD DMD, EDMD and
kernel EDMD) computes inv(P) first and judges the basis by the 1-norm
condition number kappa_1 = |P|_1 |inv(P)|_1, which costs two column sums
where the 2-norm kappa_2 costs a full SVD. Since kappa_2 / r <= kappa_1 <=
r kappa_2 for an r x r basis, the two rules can disagree only when kappa_2
lies within a factor r of the 1e12 limit. A basis that inv finds exactly
singular, whose inverse is not finite, or whose kappa_1 passes the limit is
inverted by pinv and flagged eigenvector_basis_singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import SnapshotPair, Trajectory, delay_embed, snapshot_pairs
from .errors import ConditioningError, ConfigError, NumericalError, ShapeError
from .linalg import DEFAULT_RTOL, conjugate_pairs, eig, svd_truncated
from .observables import Dictionary, IdentityDictionary

# companion precondition: the leading k = min(n, m) snapshot columns must be
# well conditioned, all k singular values above 1e-12 times the largest
_COMPANION_RTOL = 1e-12
# above this 1-norm condition number an eigenvector basis is inverted by
# pinv and the fit is flagged eigenvector_basis_singular
_BASIS_CONDITION_LIMIT = 1e12
_ZERO_EIGENVALUE_TOL = 1e-12
# forecast steps advanced per block in _spectral_predict
_PREDICT_BLOCK = 256
# snapshot columns per block of a training residual in _relative_error
_RESIDUAL_BLOCK = 256


@dataclass(frozen=True)
class SpectralModel:
    """Eigenvalues, modes and the feature-to-eigenfunction map of a fit.

    ``coeffs`` (r x f) maps a feature vector to the r eigenfunction values
    and ``modes_v`` (n x r) maps those back to the n observables; EDMD leaves
    the modes None when its eigenvector basis was too ill conditioned to
    invert (see flags). ``features`` is the feature map f, whose
    ``input_dim`` is n. ``residuals`` holds the fit's residuals by name, the
    training residual (none without modes) first. Fitted and loaded models
    are exactly conjugate-closed (see ``conjugate_slots``).
    """

    eigenvalues: np.ndarray
    modes_v: np.ndarray | None
    coeffs: np.ndarray
    features: Dictionary
    flags: tuple = ()
    residuals: dict = field(default_factory=dict)

    @property
    def fit_residual(self) -> float:
        """The training residual, or EDMD's lifted residual when it has no modes."""
        return next(iter(self.residuals.values()))

    @property
    def lifted_residual(self) -> float:
        """EDMD's one-step defect in dictionary space."""
        return self.residuals["lifted"]


def _relative_error(target: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """||target - left right||_F / ||target||_F, the product formed in column blocks.

    Only _RESIDUAL_BLOCK columns of left right exist at a time; the squared
    norm of the difference is summed over the blocks. Against the one-shot
    product the result agrees to 1e-13 absolute (stated in tests/test_dmd.py).
    """
    total = 0.0
    for start in range(0, target.shape[1], _RESIDUAL_BLOCK):
        cols = slice(start, start + _RESIDUAL_BLOCK)
        total += np.linalg.norm(target[:, cols] - left @ right[:, cols]) ** 2
    denom = np.linalg.norm(target)
    return float(np.sqrt(total) / (denom if denom > 0 else 1.0))


def _close_rows(rows: np.ndarray, real, upper, lower) -> None:
    """Make ``rows`` (one row per eigenvalue) exactly conjugate-closed in place:
    real rows real, each lower row the conjugate of its upper row."""
    rows[real] = rows[real].real
    rows[lower] = np.conj(rows[upper])


def _finish_fit(model, xp, features, **others) -> SpectralModel:
    """The model made exactly conjugate-closed, with residuals {training, **others}.

    Signed zeros are made +0.0, as a model file stores them, so a loaded
    model holds the fitted one's exact values. The modes and coeffs are
    changed in place: each fitter hands over arrays of its own. training is
    ||xp - Re(V Lambda C) F||_F / ||xp||_F over the training features F (f
    of x), left out when the model has no modes.
    """
    slots = conjugate_pairs(model.eigenvalues)
    coeffs = np.asarray(model.coeffs, dtype=complex)
    coeffs += 0.0
    _close_rows(coeffs, *slots)
    modes = model.modes_v
    if modes is not None:
        modes = np.asarray(modes, dtype=complex)
        modes += 0.0
        _close_rows(modes.T, *slots)
    model = replace(model, modes_v=modes, coeffs=coeffs)
    training = {}
    if modes is not None:
        training["training"] = _relative_error(xp, full_operator(model), features)
    return replace(model, residuals={**training, **others})


def _lstsq_pinv(m: np.ndarray) -> np.ndarray:
    """Pseudoinverse with the cutoff lstsq(rcond=None) applies, at a fraction of its cost."""
    return np.linalg.pinv(m, rcond=np.finfo(float).eps * max(m.shape))


def _invert_basis(p: np.ndarray):
    """The inverse of an eigenvector matrix and the flags its inversion raised.

    P falls back to pinv, flagged eigenvector_basis_singular, when inv finds
    it exactly singular or kappa_1 = |P|_1 |inv(P)|_1 is not at most
    _BASIS_CONDITION_LIMIT; a non-finite entry of inv(P) makes kappa_1 inf
    or NaN, so it fails that test too.
    """
    try:
        p_inv = np.linalg.inv(p)
    except np.linalg.LinAlgError:
        p_inv = None
    if p_inv is None or not (
        np.linalg.norm(p, 1) * np.linalg.norm(p_inv, 1) <= _BASIS_CONDITION_LIMIT
    ):
        return np.linalg.pinv(p), ("eigenvector_basis_singular",)
    return p_inv, ()


def _eigen_inverse(k: np.ndarray):
    """eig(k), the inverse of its eigenvector matrix, and the flags it raised."""
    spectrum = eig(k)
    return (spectrum, *_invert_basis(spectrum.vectors))


def _reduced_fit(x: np.ndarray, xp: np.ndarray, rtol: float):
    """Truncated SVD of x, reduced operator U^T xp W inv(Sigma), its eigenbasis.

    Returns the SVD factors, the n x r product xp W inv(Sigma) (formed once;
    no r x m product is), the reduced operator U^T times it, and what
    ``_eigen_inverse`` returns for that.
    """
    factors = svd_truncated(x, rtol)
    shifted = xp @ (factors.w / factors.sigma)
    k_hat = factors.u.T @ shifted
    return (factors, shifted, k_hat, *_eigen_inverse(k_hat))


def fit_companion(pair: SnapshotPair) -> SpectralModel:
    """Regress the successor of the leading k = min(n, m) snapshot columns.

    Every pair must chain as samples of one trajectory (column j + 1 of x is
    column j of xp), else the pairs are no Krylov sequence and a ConfigError
    points to the SVD fit. One truncated SVD of x[:, :k] gives the least
    squares c with x[:, :k] c = xp[:, k - 1], whose companion matrix carries
    the eigenvalues; a block with fewer than k singular values above
    _COMPANION_RTOL times the largest (rank-deficient or ill-conditioned
    data, which would give a wrong spectrum) is refused for the SVD fit. The
    modes are x[:, :k] inv(T) with T[i, j] = lambda_i**j, and C = pinv(V).
    The training residual is the model's one-step defect
    ||xp - Re(V Lambda C) x|| / ||xp|| over every column.
    """
    x, xp = pair.x, pair.xp
    if x.shape[1] < 2:
        raise ShapeError("companion fit needs at least 2 snapshot columns")
    k = min(x.shape)
    if not np.array_equal(xp[:, :-1], x[:, 1:]):
        raise ConfigError(
            "companion fit needs consecutive samples of one trajectory, but "
            "the snapshot pairs do not chain (x_(j+1) differs from the "
            "successor of x_j); use --algo dmd (fit_svd_dmd) instead"
        )
    block = x[:, :k]
    factors = svd_truncated(block, _COMPANION_RTOL)
    if factors.sigma.size < k:
        raise ConditioningError(
            f"leading {k} snapshot columns are ill-conditioned: rank "
            f"{factors.sigma.size} of {x.shape[0]}x{k}, short of rank {k}; "
            "use --algo dmd (fit_svd_dmd) instead"
        )
    coeffs = (factors.w / factors.sigma) @ factors.u.T @ xp[:, k - 1]
    c_matrix = np.zeros((k, k))
    c_matrix[1:, :-1] = np.eye(k - 1)
    c_matrix[:, -1] = coeffs
    values = eig(c_matrix).values
    vander = np.vander(values, N=k, increasing=True)
    if np.linalg.cond(vander) > 1e12:
        raise NumericalError(
            "Vandermonde matrix is numerically singular (repeated or "
            "clustered eigenvalues); modes are not recoverable"
        )
    # row-major, like a loaded model's, so both evaluate bit for bit alike
    modes = np.ascontiguousarray(np.linalg.solve(vander.T, block.T.astype(complex)).T)
    model = SpectralModel(
        eigenvalues=values,
        modes_v=modes,
        coeffs=_lstsq_pinv(modes),
        features=IdentityDictionary(pair.n_observables),
    )
    return _finish_fit(model, xp, x)


def _mode_columns(shifted, values, vectors):
    """Observable-space modes (1/lambda) xp W inv(Sigma) p, zero-lambda flagged,
    from ``shifted`` = xp W inv(Sigma)."""
    base = shifted @ vectors
    modes = np.zeros(base.shape, dtype=complex)
    alive = np.abs(values) > _ZERO_EIGENVALUE_TOL
    modes[:, alive] = base[:, alive] / values[alive]
    return modes, bool(np.any(~alive))


def fit_svd_dmd(pair: SnapshotPair, rtol: float = DEFAULT_RTOL) -> SpectralModel:
    """Project the shift operator onto the leading singular subspace.

    The reduced operator U^T xp W inv(Sigma) is eigendecomposed; modes are
    lifted back to observable space, and eigenfunctions are inv(P) U^T z.
    The training residual is the model's one-step defect
    ||xp - Re(V Lambda C) x|| / ||xp||.
    """
    factors, shifted, _, spectrum, p_inv, basis_flags = _reduced_fit(pair.x, pair.xp, rtol)
    modes, has_zero = _mode_columns(shifted, spectrum.values, spectrum.vectors)

    flags = []
    if pair.x.shape[1] == 1:
        flags.append("degenerate_single_column")
    if has_zero:
        flags.append("zero_eigenvalue_modes")
    model = SpectralModel(
        eigenvalues=spectrum.values,
        modes_v=modes,
        coeffs=p_inv @ factors.u.T,
        features=IdentityDictionary(pair.n_observables),
        flags=(*flags, *basis_flags),
    )
    del factors  # w is as large as x; the residual's blocks need not sit on it
    return _finish_fit(model, pair.xp, pair.x)


def eigenfunction_values(model: SpectralModel, z) -> np.ndarray:
    """Eigenfunction values C f(z); columns of z give columns of phi."""
    return model.coeffs @ model.features.transform(z)


def _modes(model: SpectralModel) -> np.ndarray:
    if model.modes_v is None:
        raise NumericalError(
            "modes are unavailable (eigenvector basis was numerically "
            "singular); prediction is not defined"
        )
    return model.modes_v


def full_operator(model: SpectralModel) -> np.ndarray:
    """The one-step map Re(V Lambda C) from features to observables.

    For SVD DMD on exact data this is the system matrix; in general it is
    xp pinv(x) less the part carried by zero eigenvalues.
    """
    return ((_modes(model) * model.eigenvalues) @ model.coeffs).real


def conjugate_slots(model: SpectralModel):
    """``conjugate_pairs`` of the model's eigenvalues, checked against its
    modes and coeffs: a real eigenvalue's column and row must be real and
    each lower one the exact conjugate of its upper one, else NumericalError.
    """
    real, upper, lower = conjugate_pairs(model.eigenvalues)
    for name, rows in (("coeffs", model.coeffs), ("modes", model.modes_v)):
        if rows is None:
            continue
        rows = rows if name == "coeffs" else rows.T
        low, up = rows[lower], rows[upper]  # parts compared apart: faster than complex ==
        if (rows[real].imag.any() or not (low.real == up.real).all()
                or not (low.imag == -up.imag).all()):
            raise NumericalError(
                f"model {name} are not conjugate-closed; the model is not "
                "conjugate-consistent with real data"
            )
    return real, upper, lower


def _spectral_predict(modes, values, amplitudes, steps: int) -> np.ndarray:
    """Real part of amplitudes advanced through eigenvalue powers, m = 1..steps.

    A table T holds Lambda^1 .. Lambda^b (b = _PREDICT_BLOCK, or steps if
    fewer), built by a left-to-right running product. Block j of the
    forecast is Re(T W_j) = Re(T) Re(W_j) - Im(T) Im(W_j), one real product
    of [Re T, -Im T] with [Re W_j; Im W_j], where W_j = (V diag(a
    Lambda^(jb)))^T is r x n, and W_(j+1) is Lambda^b W_j. Growth bound:
    when max |lambda| > 1, b is at most 512 / log2 max |lambda|, so no table
    entry overflows where the running product stays finite. Against
    step-by-step products the forecast agrees to 1e-12 times its largest
    entry, and row by row to 1e-13 relative for a growing mode (both stated
    in tests/test_dmd.py). A forecast too large to allocate is a ConfigError.
    """
    try:
        out = np.empty((steps, modes.shape[0]))
    except (MemoryError, ValueError):
        raise ConfigError(f"a forecast of {steps} steps is too large to allocate") from None
    block = min(_PREDICT_BLOCK, max(steps, 1))
    top = np.max(np.abs(values), initial=0.0)
    if top > 1.0:
        block = min(block, max(1, int(512 / np.log2(top))))
    table = np.empty((block, values.size), dtype=complex)
    table[:] = values
    np.multiply.accumulate(table, axis=0, out=table)
    powers = np.concatenate([table.real, -table.imag], axis=1)
    weights = (modes * amplitudes).T
    for start in range(0, steps, block):
        count = min(block, steps - start)
        np.matmul(powers[:count], np.concatenate([weights.real, weights.imag]),
                  out=out[start : start + count])
        if start + block < steps:
            weights = weights * table[-1, :, None]
    return out


def predict(model: SpectralModel, z0, steps: int) -> np.ndarray:
    """Spectral forecast g_m = Re(V Lambda^m C f(z0)) of the observables, m = 1..steps.

    The conjugate-closed model (see ``conjugate_slots``) is forecast over its
    real eigenvalues and the upper member of each pair, whose amplitude is
    doubled: the lower member adds the conjugate of the upper one's term.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ConfigError(f"steps must be a non-negative integer, got {steps}")
    modes = _modes(model)
    conjugate_slots(model)
    values = np.asarray(model.eigenvalues, dtype=complex)
    keep = values.imag >= 0  # the real eigenvalues and the upper members
    phi0 = model.coeffs[keep] @ model.features.transform(np.asarray(z0, dtype=float).ravel())
    phi0[values[keep].imag > 0] *= 2.0
    return _spectral_predict(modes[:, keep], values[keep], phi0, steps)


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
