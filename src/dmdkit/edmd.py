"""Extended DMD: regression on dictionary-lifted snapshots.

The snapshot pair is pushed through a dictionary theta and the one-step
operator is projected onto the dominant left singular subspace U of the
lifted data, theta(x) = U Sigma W^T, as SVD DMD projects the raw snapshots
(``dmd._projected_fit``). The reduced operator U^T theta(xp) W inv(Sigma) =
P Lambda inv(P) gives eigenfunctions phi(z) = inv(P) U^T theta(z), so the
model's map is C = inv(P) U^T. The raw observables expand in the dictionary
as g(z) =~ D theta(z) with D = x W inv(Sigma) U^T, and the modes are
V = x W inv(Sigma) P, which is D U P with U^T U = I, so predictions run in
the original coordinates.

When the dictionary does not close under the dynamics the fit cannot be
exact; the ``lifted`` residual reports the one-step defect so callers can
see the span assumption fail rather than silently trusting the spectrum.
"""

from __future__ import annotations

from .data import SnapshotPair
from .dmd import SpectralModel, _projected_fit, _relative_error
from .errors import ShapeError
from .linalg import DEFAULT_RTOL, svd_truncated
from .observables import Dictionary


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
        dt=pair.dt,
    )


def fit_edmd(pair: SnapshotPair, dictionary: Dictionary,
             rtol: float = DEFAULT_RTOL) -> SpectralModel:
    """Regress the lifted one-step operator and map its spectrum to state space.

    Residuals: ``training`` is ||xp - Re(V Lambda C) theta(x)|| / ||xp||,
    ``lifted`` the one-step defect U K^ U^T theta(x) against theta(xp),
    ``observable`` how well D theta(x) rebuilds x.
    """
    lifted = lift_snapshots(pair, dictionary)
    factors = svd_truncated(lifted.x, rtol)
    k_hat = factors.u.T @ (lifted.xp @ (factors.w / factors.sigma))
    x_w = pair.x @ (factors.w / factors.sigma)  # g(z) =~ D theta(z), D = x_w U^T
    return _projected_fit(
        k_hat, factors.u.T, x_w, dictionary, pair.xp, lifted.x,
        lifted=_relative_error(lifted.xp, factors.u @ k_hat @ factors.u.T, lifted.x),
        observable=_relative_error(pair.x, x_w @ factors.u.T, lifted.x),
    )
