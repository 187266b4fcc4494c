"""Dense linear-algebra kernels with fixed truncation and ordering conventions.

Every fitting routine in the package funnels its eigenvalue problems through
``eig``, and every SVD-based one its rank decision through
``svd_truncated``, so these conventions hold for every fit:

* singular values are retained while ``sigma_i > rtol * sigma_1`` (strict);
  kernel EDMD, which factors a Gram matrix with ``eigh`` instead, makes its
  own cut (``kernel_edmd._gram_basis``: the same relative rule on the
  square roots of the Gram eigenvalues, plus an absolute floor of m eps
  times the largest one for an m x m Gram matrix);
* eigenvalues are sorted by descending magnitude, ties broken by descending
  imaginary part, so the upper-half-plane member of a conjugate pair comes
  first, though not always next to its partner: eigenvalues of equal modulus
  interleave (e.g. on the unit circle);
* eigenvectors have unit 2-norm, their first nonzero component on the
  positive real axis, and ``eig`` returns them as one real matrix.

``conjugate_pairs`` finds the real eigenvalues and the two members of each
conjugate pair by exact value; a real matrix gives its conjugate pairs
exactly. The factorizations themselves come from numpy.linalg (LAPACK), and
``svd_truncated`` and ``eig`` take any matrix that passes the package's
input-array rule (``data._finite_array``: numeric, 2-D, non-empty, finite).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .data import _finite_array
from .errors import ConfigError, EmptyRankError, NumericalError, ShapeError

# Relative singular-value cutoff used by every fit unless overridden.
DEFAULT_RTOL = 1e-10
# Address space left free, beyond the SVD's own arrays, for the buffers
# OpenBLAS maps on its first level-3 call; see _reserve_svd_workspace. With
# numpy 2.4's OpenBLAS a 3001 x 998 SVD under an address-space cap needed
# 25-32 MiB more with 1 thread and 33-40 MiB with 2 threads.
_BLAS_BUFFER_BYTES = 48 * 2**20


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
    """Eigenvalues and their eigenvectors in pair form (see ``eig``)."""

    values: np.ndarray
    basis: np.ndarray


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
    arr = _finite_array(m, "matrix", 2)
    check_rtol(rtol)
    _reserve_svd_workspace(*arr.shape)
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    if s[0] <= 0.0:
        raise EmptyRankError("matrix is zero; no singular values retained")
    rank = int(np.count_nonzero(s > rtol * s[0]))
    return SvdFactors(u[:, :rank].copy(), s[:rank].copy(), vt[:rank].T.copy())


def eig(m) -> EigenPairs:
    """Eigendecomposition of a square real matrix under the package conventions.

    Eigenvalues are sorted by descending magnitude (ties: descending imaginary
    part), so a conjugate pair's upper member comes first, next to its partner
    only when no other eigenvalue has the same modulus. The eigenvectors p are
    unit-norm with their first entry above 1e-12 in modulus positive real;
    ``basis`` holds them as LAPACK's dgeev lays them out, in pair form: a real
    eigenvalue's column is its p, an upper member's Re p, its partner's Im p.
    """
    arr = _finite_array(m, "matrix", 2)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"eig needs a square matrix, got shape {arr.shape}")
    values, vectors = np.linalg.eig(arr)
    order = spectral_order(values)
    # LAPACK returns unit-norm columns, so no norm is zero
    vectors /= np.linalg.norm(vectors, axis=0)
    lead = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), np.arange(arr.shape[0])]
    vectors *= np.conj(lead) / np.abs(lead)
    # a lower member's vector is the exact conjugate of its partner's, so its
    # slot's Im p, the partner's imaginary part, is minus its own
    np.negative(vectors.imag, out=vectors.real, where=values.imag < 0)
    return EigenPairs(values[order], vectors.real[:, order])


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
