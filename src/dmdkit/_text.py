"""Float-to-text conversion shared by every writer in the package.

Trajectory CSVs and CLI output store doubles as ``.17g`` text, which
round-trips every finite double exactly. CPython spends about a microsecond
on each ``format(v, ".17g")``, because 17 digits are past the fast path of
its ``dtoa``, so ``write_rows`` produces the same bytes with whole-array
numpy arithmetic, in two steps.

Digits. For ``|v|`` in [1e-250, 1e250], ``e = floor(log10|v|)`` and
``|v| * 10**(16 - e)`` is formed as a double-double: Dekker's exact product
of ``|v|`` with the high part of ``10**(16 - e)``, plus ``|v|`` times the low
part. The two parts come from Python integers, for the exponents a call
meets. Rounding the sum gives the 17-digit integer ``D`` with an error of
about 1e-14, so ``D`` is the correctly rounded digit string unless the
fraction lies within 2**-30 of one half, which happens for exact ties
(``1e15 + 0.25`` is one). Such entries, entries where ``log10`` was off by one
or the rounding carried into an 18th digit, and subnormal or out-of-range
entries take ``"%.16e" % |v|`` one at a time, which gives the same 17 digits
and exponent. Zero is exact: ``D = 0``. ``D`` is split into its first digit
and two 8-digit words; SWAR arithmetic (three multiply-and-shift divisions
on the whole uint64 word) turns each into 8 digit bytes, the first at byte
0. The bit length of the 16 digit bytes, as one double, gives the last
nonzero digit.

Layout. Each entry becomes four little-endian 64-bit words: the sign, the
``0.``-and-zeros prefix that fixed form puts before numbers below one and
the first digit; the other 16 digits, cut after the last one ``%g`` prints,
with the decimal point inserted by a mask and a shift; and the digit the
point pushed out, the exponent of scientific form (``%g`` uses it below
1e-4 and from 1e17 on) and the separator. Every byte ``%g`` would not print
is NUL, and one ``bytes.translate`` deletes them all. Entries holding nan or
inf are laid out as zero, then their ``%.17g`` name (``nan``, ``inf``,
``-inf``) replaces word 0. The sign of zero is kept: ``-0.0`` becomes
``"-0"``. Writers that must not emit ``"-0"`` add ``+ 0.0`` to their array
first.

Whole tables are formatted in pieces of at most ``_CHUNK_ROWS`` rows and
``_CHUNK_VALUES`` numbers, so the working arrays stay a few megabytes
whatever the size of the table.

Model files and trajectory CSVs are created through ``write_text_file``,
which turns a failed write into a one-line ``DataError`` and leaves no
partial file behind.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .errors import DataError

_U = np.uint64
# SWAR steps: in each lane of 2 * lane bits, holding x < 10**(lane // 4),
# q = x * factor >> shift & keep is x // d for d = 10**(lane // 8), and
# (x << lane) - q * (d * 2**lane - 1) holds q in its lower half, x - q * d above.
_SWAR_STEPS = [tuple(_U(v) for v in (factor, shift, keep, lane, (d << lane) - 1))
               for factor, shift, keep, lane, d in ((109951163, 40, 2**32 - 1, 32, 10**4),
                                                    (5243, 19, 0x7F0000007F, 16, 100),
                                                    (103, 10, 0xF000F000F000F, 8, 10))]

_CHUNK_ROWS = 4096
_CHUNK_VALUES = 32768

# Veltkamp's splitting constant for doubles, 2**27 + 1.
_SPLIT = 134217729.0
# A scaled value whose fraction is this close to 1/2 may round either way.
_NEAR_HALF = 0.5 - 2.0**-30
# Outside this range the split or the error term of Dekker's product could
# overflow or lose bits to underflow.
_LOWEST, _HIGHEST = 1e-250, 1e250
# Labels are printed as floats, which hold every integer below this exactly.
_MAX_LABEL = 2**53


def write_rows(handle, table, labels=None) -> None:
    """Write each row of a 2-D float array as one line of comma-separated text.

    ``labels``, when given, holds one integer per row, written as the row's
    first field. Lines end in a single ``\\n``.
    """
    table = np.asarray(table, dtype=float)
    rows, width = table.shape
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (rows,) or (rows and (
                labels.dtype.kind not in "iu" or np.abs(labels).max() >= _MAX_LABEL)):
            raise ValueError(f"row labels must be {rows} integers below 2**53")
        width += 1
    step = max(1, min(_CHUNK_ROWS, _CHUNK_VALUES // width))
    for start in range(0, rows, step):
        block = table[start : start + step]
        if labels is not None:
            block = np.column_stack([labels[start : start + step], block])
        handle.write(_encode(block))


def _encode(block: np.ndarray) -> str:
    """Text of a 2-D float array: entries end in ``,``, rows in ``\\n``."""
    rows, width = block.shape
    flat = np.ascontiguousarray(block, dtype=float).ravel()
    digits, exp10 = _digits(flat)
    prefixes, exponents, points, wholes, ascii_zeros, upper_bytes, dots = _tables()
    words = np.empty((4, flat.size), dtype=np.uint64)
    lead, area, tail = words[0], words[1:3], words[3]
    spare = np.empty_like(area)

    # D as its first digit d0 and two 8-digit words, d1..d8 and d9..d16
    d0 = digits // _U(10**16)
    digits -= d0 * _U(10**16)
    np.floor_divide(digits, _U(10**8), out=area[0])
    area[1] = digits - area[0] * _U(10**8)
    # each word to 8 digit bytes, the first at byte 0
    for factor, shift, keep, lane, borrow in _SWAR_STEPS:
        np.multiply(area, factor, out=spare)
        spare >>= shift
        spare &= keep
        spare *= borrow
        area <<= lane
        area -= spare

    # digits up to the last nonzero one: a digit byte is at most 9, so no
    # rounding of d9..d16 * 2**64 + d1..d8 to a double changes its bit length
    span = area[1] * 2.0**64 + area[0]
    last = (np.frexp(span, out=(span, None))[1] + 7) >> 3

    index = np.add(exp10, 400, out=exp10)
    # fixed form keeps every digit before the point, trailing zeros or not
    kept = np.take(wholes, index)
    np.maximum(kept, last, out=kept)
    area += np.take(ascii_zeros, kept, axis=1, out=spare)
    # the point follows digit ``point`` (16 for none, or none after it): bytes
    # from there on move up one, word 2's last to word 3, and it fills the gap
    point = np.take(points, index, out=kept)
    np.copyto(point, 16, where=point >= last)
    moved = np.take(upper_bytes, point, axis=1, out=spare)
    moved &= area
    area ^= moved
    area[1] |= moved[0] >> _U(56)
    np.take(exponents, index, out=tail)
    tail |= moved[1] >> _U(56)
    moved <<= _U(8)
    area |= moved
    area |= np.take(dots, point, axis=1, out=spare)

    np.take(prefixes, index, out=lead)
    np.bitwise_or(lead, _U(ord("-")), out=lead, where=np.signbit(flat))
    lead |= (d0 + _U(48)) << _U(48)
    special = np.flatnonzero(~np.isfinite(flat))
    lead[special] = [_word("%.17g" % v) for v in flat[special].tolist()]

    ends = tail.reshape(rows, width)
    ends |= _U(_word(",", 6))
    ends[:, -1] ^= _U(_word(",", 6) ^ _word("\n", 6))
    return words.T.tobytes().translate(None, b"\0").decode("ascii")


def _digits(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """17-digit integers ``D`` (uint64) and exponents ``e`` with |v| ~ D * 10**(e - 16)."""
    mag = np.abs(flat)
    inside = (mag >= _LOWEST) & (mag <= _HIGHEST)
    # entries outside are redone below; clamped, they stay finite
    np.fmax(mag, _LOWEST, out=mag)
    np.fmin(mag, _HIGHEST, out=mag)
    head = np.log10(mag)
    np.subtract(16.0, np.floor(head, out=head), out=head)
    scale = head.astype(np.intp)
    low = int(scale.min())
    scale -= low
    present = np.flatnonzero(np.bincount(scale))
    table = np.zeros((4, present[-1] + 1))
    table[:, present] = np.array([_power_of_ten(int(k)) for k in present + low]).T
    hi, lo, hi_top, hi_bottom = (np.take(column, scale) for column in table)
    exp10 = np.subtract(16 - low, scale, out=scale)

    # Dekker: head + tail = mag * hi exactly, then add mag * lo, summed left to right as
    # ((top*hi_top - head) + top*hi_bottom + bottom*hi_top) + bottom*hi_bottom + mag*lo
    # + (head - rint(head)), since any other grouping rounds differently
    np.multiply(mag, hi, out=head)
    top = np.multiply(_SPLIT, mag, out=hi)
    bottom = top - mag
    top -= bottom
    np.subtract(mag, top, out=bottom)
    tail = top * hi_top
    tail -= head
    for left, right, term in ((top, hi_bottom, top), (bottom, hi_top, hi_top),
                              (bottom, hi_bottom, bottom), (mag, lo, lo)):
        tail += np.multiply(left, right, out=term)
    whole = np.rint(head, out=top)
    tail += np.subtract(head, whole, out=head)
    # a scaled value below 1e16 means log10 rounded up
    exact = inside & ((whole > 1e16) | ((whole == 1e16) & (tail >= 0)))
    carry = np.rint(tail, out=hi_top)
    tail -= carry
    digits = whole.astype(np.int64)
    digits += carry.astype(np.int8)
    exact &= (np.abs(tail, out=tail) < _NEAR_HALF) & (digits < 10**17)

    zero = (flat == 0.0) | ~np.isfinite(flat)  # nan and inf too; _encode names them
    digits[zero] = 0
    exp10[zero] = 0
    for i in np.flatnonzero(~(exact | zero)).tolist():
        text = "%.16e" % abs(float(flat[i]))
        digits[i] = int(text[0] + text[2:18])
        exp10[i] = int(text[19:])
    return digits.view(np.uint64), exp10


@functools.lru_cache(maxsize=None)
def _power_of_ten(k: int) -> tuple[float, float, float, float]:
    """10**k as hi + lo to about 106 bits, and hi split into halves."""
    if k >= 0:
        exact = 10**k
        hi = float(exact)
        lo = float(exact - int(hi))
    else:
        div = 10**-k
        hi = 1 / div
        num, den = hi.as_integer_ratio()
        lo = (den - num * div) / (den * div)
    big = _SPLIT * hi
    top = big - (big - hi)
    return hi, lo, top, hi - top


def _word(text: str, shift: int = 0) -> int:
    """``text`` as little-endian bytes of an integer, starting at byte ``shift``."""
    return int.from_bytes(text.encode("ascii"), "little") << (8 * shift)


@functools.lru_cache(maxsize=None)
def _tables():
    """Lookup tables of the layout, built on first use: four indexed by
    ``e + 400``, and three indexed by a byte count ``m`` that hold both digit
    words: ``"0"`` below byte ``m``, all bytes from ``m`` on, ``"."`` at ``m``.
    """
    e = np.arange(-400, 401, dtype=np.intp)
    # the ``0.`` and zeros before a number below one, at bytes 1-5 after the sign
    prefixes = np.array([_word("0." + "0" * (-k - 1), 1) if -4 <= k < 0 else 0
                         for k in e.tolist()], dtype=np.uint64)
    # scientific form's exponent at bytes 1-5, after the byte a point pushes out
    exponents = np.array([0 if -4 <= k <= 16 else _word("e%+03d" % k, 1)
                          for k in e.tolist()], dtype=np.uint64)
    # digits after the first that fixed form prints before the point, and
    # the digit the point follows: 0 in scientific form, none (16) below one
    wholes = np.where((e >= 0) & (e <= 16), e, 0)
    points = np.where((e >= -4) & (e < 0), 16, wholes)
    def by_byte_count(pattern):  # both words of the 16 bytes ``pattern(m)``
        data = [pattern(m).ljust(16, b"\0")[:16] for m in range(17)]
        return np.array([[int.from_bytes(d[j : j + 8], "little") for d in data]
                         for j in (0, 8)], dtype=np.uint64)
    ascii_zeros = by_byte_count(lambda m: b"0" * m)
    upper_bytes = by_byte_count(lambda m: bytes(m) + b"\xff" * (16 - m))
    dots = by_byte_count(lambda m: bytes(m) + b".")
    return prefixes, exponents, points, wholes, ascii_zeros, upper_bytes, dots


# ------------------------------------------------------------------ files


def write_text_file(path, what: str, write) -> None:
    """Create ``path`` and call ``write(handle)`` on it, leaving no partial file.

    An ``OSError`` (a missing directory, a full disk) becomes a one-line
    ``DataError`` naming ``what``; a ``MemoryError`` from ``write`` passes
    through. Either way a regular file this call created is removed again,
    since it was written piece by piece.
    """
    try:
        handle = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as err:
        raise DataError(f"cannot write {what}: {err}") from None
    try:
        with handle:
            write(handle)
    except (OSError, MemoryError) as err:
        if os.path.isfile(path):
            os.remove(path)
        if not isinstance(err, OSError):
            raise
        raise DataError(f"cannot write {what}: {err}") from None
