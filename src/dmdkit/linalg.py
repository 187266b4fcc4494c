"""Dense linear-algebra kernels with fixed truncation and ordering conventions.

Every fitting routine in the package funnels through these three operations,
so rank decisions, eigenvalue ordering, and eigenvector normalization are made
in exactly one place:

* singular values are retained while ``sigma_i > rtol * sigma_1`` (strict);
* eigenvalues are sorted by descending magnitude, ties broken by descending
  imaginary part, so the upper-half-plane member of a conjugate pair comes
  first, though not always next to its partner: eigenvalues of equal modulus
  interleave (e.g. on the unit circle);
* eigenvectors have unit 2-norm and are rotated so their first nonzero
  component lies on the positive real axis.

``conjugate_pairs`` finds the real eigenvalues and the two members of each
conjugate pair by exact value; a real matrix gives its conjugate pairs
exactly. The factorizations themselves come from numpy.linalg (LAPACK).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyRankError, NumericalError, ShapeError

# Relative singular-value cutoff used by every fit unless overridden.
DEFAULT_RTOL = 1e-10
# Address space left free, beyond the SVD's own arrays, for the buffers
# OpenBLAS maps on its first level-3 call; see _reserve_svd_workspace. With
# numpy 2.4's OpenBLAS a 3001 x 998 SVD under an address-space cap needed
# 25-32 MiB more with 1 thread and 33-40 MiB with 2 threads.
_BLAS_BUFFER_BYTES = 48 * 2**20


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


def _reserve_svd_workspace(rows: int, cols: int) -> None:
    """Raise MemoryError unless the address space holds a thin SVD's working set.

    np.linalg.svd (LAPACK gesdd, JOBZ='S', k = min(rows, cols)) holds a copy
    of the matrix, LAPACK's u and vt and numpy's output copies of them, and
    the documented workspace of 4k^2 + 7k doubles. OpenBLAS then maps its own
    buffer, and when that fails it prints "Memory allocation still failed
    after 10 retries" and ends the process, which no handler can catch. An
    untouched anonymous mapping of the whole working set plus
    _BLAS_BUFFER_BYTES costs no memory, and fails where the SVD could not
    run. It bypasses malloc, so it moves neither malloc's mmap threshold nor
    tracemalloc's peak.
    """
    k = min(rows, cols)
    doubles = rows * cols + 2 * (rows * k + k * cols) + 4 * k * k + 7 * k
    size = 8 * doubles + _BLAS_BUFFER_BYTES
    try:
        mmap.mmap(-1, size).close()
    except OSError:
        raise MemoryError(f"the SVD of a {rows} x {cols} matrix needs "
                          f"{size / 2**20:.0f} MiB of address space") from None


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
    MemoryError
        If the address space cannot hold the SVD's working set.
    """
    arr = _as_matrix(m)
    check_rtol(rtol)
    _reserve_svd_workspace(*arr.shape)
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
    positive real. Complex eigenvalues of a real matrix come in exact
    conjugate pairs whose eigenvectors are exact conjugates, the upper-half
    plane member first; the two are adjacent only when no other eigenvalue
    has the same modulus (``conjugate_pairs`` finds them in any order).
    """
    arr = _as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"eig needs a square matrix, got shape {arr.shape}")
    values, vectors = np.linalg.eig(arr)
    order = spectral_order(values)
    return EigenPairs(values[order], _canonical_columns(vectors[:, order]))


def conjugate_pairs(values):
    """Indices (real, upper, lower) of the real eigenvalues and the conjugate pairs.

    values[lower[k]] is exactly conj(values[upper[k]]), with a positive
    imaginary part at upper[k]; upper is ascending. The k-th copy of a
    repeated lambda, counted by index, pairs with the k-th copy of
    conj(lambda). Raises NumericalError unless ``values`` is closed under
    conjugation, as the spectrum of a real matrix is.
    """
    values = np.asarray(values, dtype=complex)
    real = np.flatnonzero(values.imag == 0)
    upper = np.flatnonzero(values.imag > 0)
    lower = np.flatnonzero(values.imag < 0)
    # sorts are stable, so equal copies keep their index order
    upper = upper[np.lexsort((values.imag[upper], values.real[upper]))]
    lower = lower[np.lexsort((-values.imag[lower], values.real[lower]))]
    if real.size + 2 * upper.size != values.size or not np.array_equal(
            values[lower], np.conj(values[upper])):
        raise NumericalError(
            "eigenvalues are not closed under conjugation, as the spectrum of "
            "a real map must be"
        )
    order = np.argsort(upper)
    return real, upper[order], lower[order]
