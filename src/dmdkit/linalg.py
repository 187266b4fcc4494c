"""Dense linear-algebra kernels with fixed truncation and ordering conventions.

Every fitting routine in the package funnels through these three operations,
so rank decisions, eigenvalue ordering, and eigenvector normalization are made
in exactly one place:

* singular values are retained while ``sigma_i > rtol * sigma_1`` (strict);
* eigenvalues are sorted by descending magnitude, ties broken by descending
  imaginary part (so a conjugate pair lists the upper-half-plane member first);
* eigenvectors have unit 2-norm and are rotated so their first nonzero
  component lies on the positive real axis.

The factorizations themselves come from numpy.linalg (LAPACK).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyRankError, ShapeError

# Relative singular-value cutoff used by every fit unless overridden.
DEFAULT_RTOL = 1e-10


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate ``m`` as a non-empty 2-D real array with finite entries."""
    try:
        arr = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} must be a real numeric array: {exc}") from None
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SvdFactors:
    """Rank-truncated thin SVD, ``m ~= u @ diag(sigma) @ w.T``.

    ``u`` is (rows, rank), ``sigma`` is (rank,) in descending order with all
    entries strictly positive, ``w`` is (cols, rank).
    """

    u: np.ndarray
    sigma: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues with matched eigenvectors (column ``i`` pairs with ``values[i]``)."""

    values: np.ndarray
    vectors: np.ndarray


def spectral_order(values: np.ndarray) -> np.ndarray:
    """Index order sorting ``values`` by descending |z|, ties by descending imag."""
    values = np.asarray(values, dtype=complex)
    return np.lexsort((-values.imag, -np.abs(values)))


def check_rtol(rtol: float) -> None:
    """Raise ConfigError unless ``0 <= rtol < 1`` (NaN fails too)."""
    if not 0.0 <= rtol < 1.0:
        raise ConfigError(f"rtol must lie in [0, 1), got {rtol}")


def svd_truncated(m, rtol: float = DEFAULT_RTOL) -> SvdFactors:
    """Thin SVD of ``m`` keeping exactly the singular values above ``rtol * sigma_1``.

    Parameters
    ----------
    m : array_like, shape (rows, cols)
        Real matrix to factor.
    rtol : float
        Relative cutoff, ``0 <= rtol < 1``. With ``rtol=0`` only exact zeros
        are dropped.

    Raises
    ------
    EmptyRankError
        If ``m`` is numerically zero, so nothing would be retained.
    """
    arr = _as_matrix(m)
    check_rtol(rtol)
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    if s[0] <= 0.0:
        raise EmptyRankError("matrix is zero; no singular values retained")
    rank = int(np.count_nonzero(s > rtol * s[0]))
    return SvdFactors(u[:, :rank].copy(), s[:rank].copy(), vt[:rank].T.copy())


def _canonical_columns(vecs: np.ndarray) -> np.ndarray:
    """Unit-normalize columns and rotate each first nonzero entry to be positive real."""
    out = np.array(vecs, dtype=complex)
    for j in range(out.shape[1]):
        v = out[:, j]
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        v = v / norm
        nonzero = np.flatnonzero(np.abs(v) > 1e-12)
        if nonzero.size:
            lead = v[nonzero[0]]
            v = v * (np.conj(lead) / np.abs(lead))
        out[:, j] = v
    return out


def eig(m) -> EigenPairs:
    """Eigendecomposition of a square real matrix under the package conventions.

    Eigenvalues are sorted by descending magnitude (ties: descending imaginary
    part); eigenvectors are unit-norm with their first nonzero component made
    positive real. Complex eigenvalues of a real matrix therefore appear as
    adjacent conjugate pairs, upper-half plane first.
    """
    arr = _as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"eig needs a square matrix, got shape {arr.shape}")
    values, vectors = np.linalg.eig(arr)
    order = spectral_order(values)
    return EigenPairs(values[order], _canonical_columns(vectors[:, order]))


def pinv(m, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse through the truncated SVD above."""
    f = svd_truncated(m, rtol)
    return (f.w / f.sigma) @ f.u.T
