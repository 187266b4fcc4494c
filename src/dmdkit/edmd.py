"""Extended DMD: regression on dictionary-lifted snapshots.

The snapshot pair is pushed through a dictionary theta and the one-step
operator is regressed on the lifted data with the SVD fit's machinery
(``dmd._reduced_fit``). The inverse eigenvector rows B give eigenfunctions
phi(z) = B U^T theta(z), so the model's map is C = B U^T; D expands the raw
observables in the dictionary, and the modes V = D U P let predictions run
in the original coordinates.

When the dictionary does not close under the dynamics the fit cannot be
exact; the ``lifted`` residual reports the one-step defect so callers can
see the span assumption fail rather than silently trusting the spectrum.
"""

from __future__ import annotations

from .data import SnapshotPair
from .dmd import SpectralModel, _finish_fit, _reduced_fit, _relative_error
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
    return SnapshotPair(
        x=dictionary.transform(pair.x),
        xp=dictionary.transform(pair.xp),
        dt=pair.dt,
    )


def fit_edmd(pair: SnapshotPair, dictionary: Dictionary,
             rtol: float = DEFAULT_RTOL) -> SpectralModel:
    """Regress the lifted one-step operator and map its spectrum to state space.

    Residuals: ``training`` is ||xp - Re(V Lambda C) theta(x)|| / ||xp||,
    ``lifted`` the one-step defect U K U^T theta(x) against theta(xp),
    ``observable`` how well D theta(x) rebuilds x.
    """
    lifted = lift_snapshots(pair, dictionary)
    factors, _, k_hat, spectrum, b_coeffs, flags = _reduced_fit(lifted.x, lifted.xp, rtol)

    # raw observables expanded in the dictionary, g(z) =~ D theta(z)
    d_coeffs = pair.x @ (factors.w / factors.sigma) @ factors.u.T
    model = SpectralModel(
        eigenvalues=spectrum.values,
        modes_v=d_coeffs @ factors.u @ spectrum.vectors,
        coeffs=b_coeffs @ factors.u.T,
        features=dictionary,
        flags=flags,
    )
    k_full = factors.u @ k_hat @ factors.u.T
    return _finish_fit(model, pair.xp, lifted.x,
                       lifted=_relative_error(lifted.xp, k_full, lifted.x),
                       observable=_relative_error(pair.x, d_coeffs, lifted.x))
