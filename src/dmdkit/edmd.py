"""Extended DMD: regression on dictionary-lifted snapshots.

The snapshot pair is pushed through a dictionary theta and the one-step
operator is projected onto the dominant left singular subspace U of the
lifted data, theta(x) = U Sigma W^T, by ``dmd._svd_fit``: the fit SVD DMD
makes over the identity dictionary, with exact modes. The reduced operator
U^T theta(xp) W inv(Sigma) = P Lambda inv(P) gives eigenfunctions phi(z) =
inv(P) U^T theta(z), so the model's map is C = inv(P) U^T. The raw
observables expand in the dictionary as g(z) =~ D theta(z) with D = x W
inv(Sigma) U^T, and the modes are V = x W inv(Sigma) P, which is D U P with
U^T U = I, so predictions run in the original coordinates.

When the dictionary does not close under the dynamics the fit cannot be
exact; the ``lifted`` residual reports the one-step defect so callers can
see the span assumption fail rather than silently trusting the spectrum.
"""

from __future__ import annotations

import numpy as np

from .data import SnapshotPair
from .dmd import SpectralModel, _svd_fit
from .errors import ShapeError
from .linalg import DEFAULT_RTOL
from .observables import Dictionary


def lift_snapshots(pair: SnapshotPair, dictionary: Dictionary) -> SnapshotPair:
    """Apply the dictionary columnwise to both snapshot matrices."""
    if dictionary.input_dim != pair.n_observables:
        raise ShapeError(
            f"dictionary expects dimension {dictionary.input_dim}, pair has "
            f"{pair.n_observables} observables"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # SnapshotPair refuses a non-finite lift
        return SnapshotPair(
            x=dictionary.transform(pair.x),
            xp=dictionary.transform(pair.xp),
            dt=pair.dt,
        )


def fit_edmd(pair: SnapshotPair, dictionary: Dictionary,
             rtol: float = DEFAULT_RTOL) -> SpectralModel:
    """Regress the lifted one-step operator and map its spectrum to state
    space: ``_svd_fit`` of the lift, with its training, lifted and observable
    residuals (how well D theta(x) rebuilds x)."""
    return _svd_fit(pair, lift_snapshots(pair, dictionary), dictionary, "edmd", rtol)
