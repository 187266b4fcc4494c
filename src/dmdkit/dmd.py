"""The spectral model every fitter returns, and DMD in companion and SVD form.

Every fit in the package ends in one ``SpectralModel``: eigenvalues Lambda,
modes V in observable space, and a map C from a feature vector f(z) to
eigenfunction values, phi(z) = C f(z). The feature map f is always a
``Dictionary``: the identity (both DMD fits), a lift (EDMD, ``edmd``) or
kernel sections at the training snapshots (kernel EDMD, ``kernel_edmd``),
and the state dimension is its ``input_dim``. One routine each
evaluates eigenfunctions, forecasts Re(V Lambda^m C f(z)) and forms the
one-step map Re(V Lambda C), whatever the fitter. A model also carries its
fitter's tag and tolerance and how its observables stack data rows, and it
checks every rule a model file has when it is built, so ``model_io`` only
encodes and decodes.

A real map's eigenvalues, modes and eigenfunctions come in conjugate pairs,
so a model holds V and C in pair form, the real matrices a model file
stores: a real eigenvalue's column of V (row of C) holds its vector, an
upper member's the real part and its lower partner's the imaginary part;
``SpectralModel.modes_v`` and ``.coeffs`` rebuild the complex ones when
asked. The one-step map Re(V Lambda C) is the real product (V_pf B) C_pf
(``full_operator``). The forecast runs over the real eigenvalues and the
upper members only, with the upper amplitudes doubled: each block of steps is
Re(T W) = Re(T) Re(W) - Im(T) Im(W), one real product of a fixed table T of
eigenvalue powers Lambda^1 .. Lambda^b with weights W that carry
Lambda^(jb) for block j (``_spectral_predict`` states its growth bound and
tolerance). Every fitter's training residual is the one-step defect
||xp - Re(V Lambda C) F|| / ||xp|| of the model on its training features F
(x, its lift, or the Gram matrix of x), summed over column blocks of the
right factor below, so no n x f map is formed.

All four fitters are one construction (``_projected_fit``): each
eigendecomposes a reduced operator K^ = P Lambda inv(P) on a feature
subspace, with C = inv(P) R and V = M P, where R maps features to subspace
coordinates and M maps those to the observables. Each gives the training
features' coordinates in one form, R F = diag(s) right, so the residual's
left factor needs only inv(P) diag(s), an r x r column scaling. Only the
basis differs. The SVD fits (``_svd_fit``) take the leading left singular
vectors U of the features theta(x) = U Sigma W^T: R = U^T, s = Sigma and
right = W^T at any cut rank; M = x W inv(Sigma) for an EDMD lift, and SVD
DMD is EDMD over the identity with exact modes xp W inv(Sigma) P / lambda
(Tu et al. 2014). Kernel EDMD takes the same basis through the Gram matrix:
G = Q S^2 Q^T is the SVD of the implicit lift theta(x) = U S Q^T, so R =
inv(S) Q^T, M = x Q inv(S), s = S and right = Q^T (``kernel_edmd``).
Companion DMD (Rowley et al. 2009) takes the leading k = min(n, m) Krylov
columns x_k = x[:, :k] of one trajectory: K^ is the companion matrix of the
least squares successor of x_k, R = pinv(x_k), M = x_k, s = 1 and right =
pinv(x_k) x, a k x m array. No complex matrix is formed:
``linalg.eig`` returns P in pair form P_r, and P = P_r T, where T's block
on a pair's (upper, lower) slots is [[1, 1], [i, -i]]. So V_pf = M P_r and
C_pf = S inv(P_r) R, S being 1 at a real eigenvalue, 1/2 at an upper
member, -1/2 at a lower one.

The eigenbasis inverse (``_invert_basis``) computes inv(P_r) and judges
the basis by kappa_1 = |P_r|_1 |inv(P_r)|_1, which costs two column sums
where the 2-norm kappa_2 costs a full SVD. As kappa_2 / r <= kappa_1 <=
r kappa_2 for an r x r basis, and kappa_2(P_r) is within a factor sqrt(2)
of kappa_2(P) (T / sqrt(2) is unitary on each pair block), the rule can
disagree with one on kappa_2(P) only within a factor sqrt(2) r of the 1e12
limit. A basis that inv finds exactly singular, whose inverse is not
finite, or whose kappa_1 passes the limit is inverted by pinv (exact for P
too: pinv(P) = inv(T) pinv(P_r)) and flagged eigenvector_basis_singular.
The modes need no inverse, so such a model keeps its modes and training
residual, but its eigenfunctions are not defined: ``eigenfunction_values``,
``full_operator`` and ``predict`` refuse it with a NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .data import SnapshotPair, Trajectory, _freeze, delay_embed, snapshot_pairs
from .errors import ConditioningError, ConfigError, NumericalError, ShapeError
from .linalg import DEFAULT_RTOL, conjugate_pairs, eig, svd_truncated
from .observables import Dictionary, IdentityDictionary, KernelDictionary

# companion precondition: the leading k = min(n, m) snapshot columns must be
# well conditioned, all k singular values above 1e-12 times the largest
_COMPANION_RTOL = 1e-12
# above this 1-norm condition number an eigenvector basis is inverted by
# pinv and the fit is flagged eigenvector_basis_singular
_BASIS_CONDITION_LIMIT = 1e12
_ZERO_EIGENVALUE_TOL = 1e-12
# every flag a fit can raise; a model refuses any other
_FIT_FLAGS = ("eigenvector_basis_singular", "zero_eigenvalue_modes", "degenerate_single_column")
# each algorithm tag and the feature map its model evaluates
_FEATURES = {
    "companion": IdentityDictionary,
    "dmd": IdentityDictionary,
    "edmd": Dictionary,
    "kernel-edmd": KernelDictionary,
}
# forecast steps advanced per block in _spectral_predict
_PREDICT_BLOCK = 256
# snapshot columns per block of a training residual in _relative_error
_RESIDUAL_BLOCK = 256


@dataclass(frozen=True)
class SpectralModel:
    """Eigenvalues, modes and the feature-to-eigenfunction map of a fit.

    ``modes_pf`` (n x r) and ``coeffs_pf`` (r x f) hold the complex modes V
    and map C in pair form, as a model file stores them; ``modes_v`` and
    ``coeffs`` rebuild V and C on each access. C maps a feature vector to
    the r eigenfunction values and V maps those back to the n observables.
    ``features`` is the feature map f, whose ``input_dim`` is n.
    ``algorithm`` is the fitter's tag and ``rtol`` the rank tolerance it
    applied. ``residuals`` holds the fit's residuals by name, ``training``
    first. A data row of the fit held states, then ``inputs`` held inputs
    (0 unless fitted with --augment-inputs), and n stacks ``embed_h`` such
    rows, so a forecast can restack plain history rows.

    Construction refuses what no fit returns and no model file may hold: a
    tag outside _FEATURES, or features of a type the tag does not take; a
    flag outside _FIT_FLAGS; n other than embed_h x (states + inputs) with
    at least one state; modes other than n x r or coeffs other than r x f
    (ConfigError); a NaN or inf in an array, ``rtol`` or a residual, then
    eigenvalues not closed under conjugation (NumericalError). Arrays and
    residuals are then read-only, flags a tuple, and ``pairs`` holds the
    ``conjugate_pairs`` partition. ``dataclasses.replace`` checks anew.
    """

    eigenvalues: np.ndarray
    modes_pf: np.ndarray
    coeffs_pf: np.ndarray
    features: Dictionary
    algorithm: str
    rtol: float
    flags: tuple = ()
    residuals: dict = field(default_factory=dict)
    embed_h: int = 1
    inputs: int = 0
    pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tag = self.algorithm
        if not isinstance(tag, str) or tag not in _FEATURES:
            raise ConfigError(f"algorithm tag {tag!r:.40} is not one of {', '.join(_FEATURES)}")
        if not isinstance(self.features, _FEATURES[tag]):
            raise ConfigError(f"a {tag} model cannot hold {type(self.features).__name__} features")
        for flag in self.flags:
            if flag not in _FIT_FLAGS:
                raise ConfigError(f"flag {flag!r:.40} is not one a fit raises "
                                  f"({', '.join(_FIT_FLAGS)})")
        h, inputs, n = self.embed_h, self.inputs, self.features.input_dim
        for name, value, least in (("embed_h", h, 1), ("inputs", inputs, 0)):
            whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (whole and value >= least):
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r:.40}")
        if n % h or n // h <= inputs:
            raise ConfigError(f"observable_dim {n} is not embed_h {h} x "
                              f"(states + {inputs} inputs) with at least one state")
        if np.ndim(self.eigenvalues) != 1:
            raise ConfigError(f"eigenvalues must be a vector, got shape "
                              f"{np.shape(self.eigenvalues)}")
        r, f = len(self.eigenvalues), self.features.size
        for name, matrix, shape, what in (
                ("modes", self.modes_pf, (n, r), "observable dimension x eigenvalue count"),
                ("coeffs", self.coeffs_pf, (r, f), "eigenvalue count x feature count")):
            if np.shape(matrix) != shape:
                raise ConfigError(f"matrix {name!r} is {'x'.join(map(str, np.shape(matrix)))}, "
                                  f"not {what} = {shape[0]}x{shape[1]}")
        for name in ("eigenvalues", "modes_pf", "coeffs_pf"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name))))
        object.__setattr__(self, "flags", tuple(self.flags))
        object.__setattr__(self, "residuals", MappingProxyType(dict(self.residuals)))
        for what, value in (("matrix 'eigenvalues'", self.eigenvalues), ("rtol", self.rtol),
                            ("matrix 'modes'", self.modes_pf), ("matrix 'coeffs'", self.coeffs_pf),
                            *((f"residual {k!r}", v) for k, v in self.residuals.items())):
            if not np.isfinite(value).all():
                raise NumericalError(f"{what} is not finite (NaN or inf)")
        object.__setattr__(self, "pairs", tuple(map(_freeze, conjugate_pairs(self.eigenvalues))))

    @property
    def modes_v(self) -> np.ndarray:
        """The complex modes V (n x r)."""
        return _from_pair_form(self.modes_pf.T, self.pairs).T

    @property
    def coeffs(self) -> np.ndarray:
        """The complex feature-to-eigenfunction map C (r x f)."""
        return _from_pair_form(self.coeffs_pf, self.pairs)

    @property
    def fit_residual(self) -> float:
        """The training residual ||xp - Re(V Lambda C) F|| / ||xp||."""
        return self.residuals["training"]

    @property
    def lifted_residual(self) -> float:
        """An SVD fit's one-step defect in feature space."""
        return self.residuals["lifted"]


def _relative_error(target: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """||target - left right||_F / ||target||_F, the product formed in column blocks.

    Only _RESIDUAL_BLOCK columns of left right exist at a time; the squared
    norm of the difference is summed over the blocks. Against the one-shot
    product the result agrees to 1e-13 absolute (stated in tests/test_dmd.py).
    When the largest |target| entry is 2^256 or more, or below 2^-257, a
    square could overflow or underflow: then each block and the denominator
    are scaled by 2^-e (``np.ldexp``), 2^e being the power of two just above
    that entry. A power of two scales exactly, so the ratio is the unscaled
    one's wherever that is finite; data in range make no scaled copy.
    """
    exponent = np.frexp(max(target.max(initial=0.0), -target.min(initial=0.0)))[1]
    shift = -exponent if abs(exponent) > 256 else 0
    total = 0.0
    for start in range(0, target.shape[1], _RESIDUAL_BLOCK):
        cols = slice(start, start + _RESIDUAL_BLOCK)
        block = target[:, cols] - left @ right[:, cols]
        total += np.linalg.norm(np.ldexp(block, shift, out=block)) ** 2
    denom = np.linalg.norm(np.ldexp(target, shift) if shift else target)
    return float(np.sqrt(total) / (denom if denom > 0 else 1.0))


def _from_pair_form(stored: np.ndarray, pairs) -> np.ndarray:
    """The complex rows, in ``stored``'s layout, whose pair form under ``pairs`` is ``stored``."""
    _, upper, lower = pairs
    out = stored.astype(complex)
    out.real[lower] = stored[upper]
    out.imag[upper] = stored[lower]
    out.imag[lower] = -stored[lower]
    return out


def _scaled(columns: np.ndarray, factors: np.ndarray, upper, lower) -> np.ndarray:
    """The pair form of complex columns times ``factors`` (one per column),
    from their pair form ``columns``: a pair's columns re and im, with factor
    a + ib at its upper member, become a re - b im and b re + a im."""
    out = columns * factors.real
    b = factors.imag[upper]
    out[:, upper] -= columns[:, lower] * b
    out[:, lower] += columns[:, upper] * b
    return out


def _invert_basis(p: np.ndarray):
    """The inverse of a real eigenvector basis and the flags its inversion raised.

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


def _projected_fit(k_hat, reduce, mode_base, features, algorithm, rtol, xp, scale, right,
                   **residuals) -> SpectralModel:
    """The model of a reduced operator K^ = P Lambda inv(P) on a feature subspace.

    ``reduce`` (r x f) maps a feature vector to subspace coordinates, so
    C = inv(P) reduce; ``mode_base`` (n x r) maps subspace coordinates to
    the observables, so V = mode_base P. Both are real, as is P's pair form
    P_r, so V_pf = mode_base P_r and C_pf = S inv(P_r) reduce, with zeros
    +0.0 as a model file holds them. For the ``dmd`` tag (SVD DMD's exact
    modes) the modes are mode_base P / lambda, and those of |lambda| <=
    _ZERO_EIGENVALUE_TOL are zero and flagged zero_eigenvalue_modes; one
    column pair is flagged degenerate_single_column. The training features
    F come as reduce F = diag(scale) right: (Sigma, W^T) for the SVD fits,
    the singular values and Q^T of G = Q S^2 Q^T for kernel EDMD, and
    (ones, pinv(x_k) x) for companion. The pair-form S cancels B's 2 and -2, so
    Re(V Lambda C) F is ((V_pf Lambda) (inv(P_r) diag(scale))) right, and
    inv(P_r) diag(scale) is the column scaling inv(P_r) * scale.
    ``algorithm``, ``rtol`` and ``residuals`` are stored as given.
    """
    flags = ("degenerate_single_column",) if xp.shape[1] == 1 else ()
    spectrum = eig(k_hat)
    values = spectrum.values
    _, upper, lower = conjugate_pairs(values)
    p_inv, basis_flags = _invert_basis(spectrum.basis)
    coeffs = p_inv @ reduce
    coeffs[upper] *= 0.5
    coeffs[lower] *= -0.5
    coeffs += 0.0
    fit_coords = p_inv * scale
    modes = mode_base @ spectrum.basis
    del spectrum, p_inv  # r x r each; the residual need not sit on them
    if algorithm == "dmd":
        alive = np.abs(values) > _ZERO_EIGENVALUE_TOL
        inverse = np.divide(1.0, values, out=np.zeros_like(values), where=alive)
        modes = _scaled(modes, inverse, upper, lower)
        if not alive.all():
            modes[:, ~alive] = 0.0
            flags = (*flags, "zero_eigenvalue_modes")
    modes += 0.0
    training = _relative_error(xp, _scaled(modes, values, upper, lower) @ fit_coords, right)
    return SpectralModel(values, modes, coeffs, features, algorithm, rtol, (*flags, *basis_flags),
                         {"training": training, **residuals})


def fit_companion(pair: SnapshotPair) -> SpectralModel:
    """Project the shift operator onto the Krylov columns x_k = x[:, :k], k = min(n, m).

    Every pair must chain as samples of one trajectory (column j + 1 of x is
    column j of xp), else the pairs are no Krylov sequence and a ConfigError
    points to the SVD fit; so does a ConditioningError unless x_k has k
    singular values above _COMPANION_RTOL times the largest (rank-deficient
    or ill-conditioned data would give a wrong spectrum). The reduced
    operator is the companion matrix of c = pinv(x_k) xp[:, k - 1], where
    pinv(x_k) = W inv(Sigma) U^T comes from one truncated SVD of x_k, and
    the fit is ``_projected_fit`` with R = pinv(x_k) and M = x_k, so
    V = x_k P and C = inv(P) pinv(x_k) = pinv(x_k P). The training residual
    is ||xp - Re(V Lambda C) x|| / ||xp|| over every column. The model's
    ``rtol`` is _COMPANION_RTOL, the only tolerance the fit applies.
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
    block_pinv = (factors.w / factors.sigma) @ factors.u.T
    c_matrix = np.zeros((k, k))
    c_matrix[1:, :-1] = np.eye(k - 1)
    c_matrix[:, -1] = block_pinv @ xp[:, k - 1]
    return _projected_fit(c_matrix, block_pinv, block, IdentityDictionary(pair.n_observables),
                          "companion", _COMPANION_RTOL, xp, np.ones(k), block_pinv @ x)


def _svd_fit(pair: SnapshotPair, lifted: SnapshotPair, features: Dictionary,
             algorithm: str, rtol: float) -> SpectralModel:
    """The fit on the leading left singular vectors U of lifted.x = theta(x),
    with SVD DMD's modes for the ``dmd`` tag. As U^T theta(x) = Sigma W^T,
    ``lifted`` is ||theta(xp) - (U K^ Sigma) W^T|| / ||theta(xp)|| and
    ``observable`` ||x - (x W) W^T|| / ||x||."""
    svd = svd_truncated(lifted.x, rtol)
    shifted = lifted.xp @ (svd.w / svd.sigma)
    k_hat = svd.u.T @ shifted
    return _projected_fit(
        k_hat, svd.u.T, shifted if algorithm == "dmd" else pair.x @ (svd.w / svd.sigma),
        features, algorithm, rtol, pair.xp, svd.sigma, svd.w.T,
        lifted=_relative_error(lifted.xp, svd.u @ (k_hat * svd.sigma), svd.w.T),
        observable=_relative_error(pair.x, pair.x @ svd.w, svd.w.T))


def fit_svd_dmd(pair: SnapshotPair, rtol: float = DEFAULT_RTOL) -> SpectralModel:
    """SVD DMD: ``_svd_fit`` over the identity dictionary, with exact modes
    xp W inv(Sigma) P / lambda; eigenfunctions are inv(P) U^T z."""
    return _svd_fit(pair, pair, IdentityDictionary(pair.n_observables), "dmd", rtol)


def _require_basis(model: SpectralModel) -> None:
    """NumericalError for a model flagged eigenvector_basis_singular."""
    if "eigenvector_basis_singular" in model.flags:
        raise NumericalError(
            "model is flagged eigenvector_basis_singular; its eigenfunctions "
            "are not defined, so neither are its forecast and one-step map"
        )


def eigenfunction_values(model: SpectralModel, z) -> np.ndarray:
    """Eigenfunction values C f(z); columns of z give columns of phi.

    A point whose values are not finite (its features overflow) is a
    NumericalError, not a phi of NaN or inf.
    """
    _require_basis(model)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        phi = _from_pair_form(model.coeffs_pf @ model.features.transform(z), model.pairs)
    if not np.isfinite(phi).all():
        raise NumericalError("eigenfunction values are not finite: the point's features overflow")
    return phi


def full_operator(model: SpectralModel) -> np.ndarray:
    """The one-step map Re(V Lambda C) from features to observables.

    For SVD DMD on exact data this is the system matrix; in general it is
    xp pinv(x) less the part carried by zero eigenvalues. It is (V_pf B)
    C_pf: B is ``_scaled`` by Lambda, then a pair's columns times 2 and -2,
    as a pair adds 2 Re(lambda v c) = 2 Re(lambda v) Re(c) - 2 Im(lambda v) Im(c).
    """
    _require_basis(model)
    _, upper, lower = model.pairs
    left = _scaled(model.modes_pf, model.eigenvalues, upper, lower)
    left[:, upper] *= 2.0
    left[:, lower] *= -2.0
    return left @ model.coeffs_pf


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
    in tests/test_dmd.py). A forecast too large to allocate is a ConfigError,
    and one that leaves the floating-point range is a NumericalError naming
    the first step that is not finite.
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
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        for start in range(0, steps, block):
            count = min(block, steps - start)
            rows = out[start : start + count]
            np.matmul(powers[:count], np.concatenate([weights.real, weights.imag]), out=rows)
            if not np.isfinite(rows).all():
                step = start + 1 + int(np.argmin(np.isfinite(rows).all(axis=1)))
                raise NumericalError(f"forecast step {step} is not finite: the forecast overflows")
            if start + block < steps:
                weights = weights * table[-1, :, None]
    return out


def predict(model: SpectralModel, z0, steps: int) -> np.ndarray:
    """Spectral forecast g_m = Re(V Lambda^m C f(z0)) of the observables, m = 1..steps.

    The model is forecast over its real eigenvalues and the upper member of
    each pair, whose amplitude is doubled: the lower member adds the
    conjugate of the upper one's term. An initial condition whose
    eigenfunction values are not finite, or a forecast that overflows, is a
    NumericalError, not a forecast of NaN or inf.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ConfigError(f"steps must be a non-negative integer, got {steps}")
    values = np.asarray(model.eigenvalues, dtype=complex)
    keep = values.imag >= 0  # the real eigenvalues and the upper members
    phi0 = eigenfunction_values(model, np.asarray(z0, dtype=float).ravel())[keep]
    phi0[values[keep].imag > 0] *= 2.0
    return _spectral_predict(model.modes_v[:, keep], values[keep], phi0, steps)


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
