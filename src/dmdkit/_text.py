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
and exponent. Zero is exact: ``D = 0``.

Layout. Each entry becomes one row of five little-endian 64-bit words: the
sign with the ``0.``-and-zeros prefix that fixed form puts before numbers
below one, the digits with the decimal point inserted, and the exponent of
scientific form (``%g`` uses it below 1e-4 and from 1e17 on) followed by the
separator. Every byte ``%g`` would not print (trailing zeros, unused prefix
and exponent bytes) is NUL, and one ``bytes.translate`` deletes them all.

Entries holding nan or inf are laid out as zero, then their ``%.17g`` name
(``nan``, ``inf``, ``-inf``) replaces the prefix word and the digit words are
cleared. The sign of zero is kept: ``-0.0`` becomes ``"-0"``. Writers that
must not emit ``"-0"`` add ``+ 0.0`` to their array first.

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
    quads, trailing, prefixes, exponents, low_bytes, dots = _tables()

    # D as a first digit and four groups of four: g0 | g1 g2 g3 g4
    upper = digits // 10**8
    lower = (digits - upper * 10**8).astype(np.int32)
    upper = upper.astype(np.int32)
    g0 = upper // 10**8
    upper -= g0 * 10**8
    g1, g2 = np.divmod(upper, 10**4)
    g3, g4 = np.divmod(lower, 10**4)
    # index of the last nonzero digit; 0 for zero
    zeros = trailing[g4] + (g4 == 0) * (
        trailing[g3] + (g3 == 0) * (trailing[g2] + (g2 == 0) * trailing[g1]))
    last = 16 - zeros

    # Digit area: 24 bytes, the first digit at byte 0, bytes 1-3 NUL and
    # digit k >= 1 at byte k + 3, read as three 64-bit words.
    words = np.zeros((flat.size, 6), dtype="<u4")
    words[:, 0] = 48 + g0
    for col, group in enumerate((g1, g2, g3, g4), start=1):
        words[:, col] = quads[group]
    area = words.view("<u8")

    fixed = (exp10 >= -4) & (exp10 <= 16)
    below_one = fixed & (exp10 < 0)
    # fixed form keeps every digit before the point, trailing zeros or not
    whole = np.where(fixed & ~below_one, exp10, 0)
    kept = np.maximum(last, whole) + 4
    # digit the point follows: 0 in scientific form, none below one
    point = np.where(below_one, 16, whole)
    has_dot = point < last
    point += 4  # byte the point goes to; later bytes move up one

    out = np.empty((flat.size, 5), dtype="<u8")
    parts = [area[:, j] & low_bytes[j][kept] for j in range(3)]
    masks = [low_bytes[j][point] for j in range(3)]
    moved = [part & ~mask for part, mask in zip(parts, masks)]
    for j in range(3):
        part = parts[j] & masks[j]
        part |= moved[j] << np.uint64(8)
        if j:
            part |= moved[j - 1] >> np.uint64(56)
        part |= dots[j][point] * has_dot
        out[:, 1 + j] = part
    out[:, 0] = prefixes[np.signbit(flat) * 5 + np.where(below_one, -exp10, 0)]
    # nan and inf were laid out as zero: their name replaces sign and digits
    special = np.flatnonzero(~np.isfinite(flat))
    out[special, 0] = [_word("%.17g" % v) for v in flat[special].tolist()]
    out[special, 1:4] = 0

    tails = np.full((rows, width), _word(",", 5), dtype="<u8")
    tails[:, -1] = _word("\n", 5)
    out[:, 4] = exponents[np.where(fixed, 0, exp10 + 401)] | tails.ravel()
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _digits(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """17-digit integers ``D`` and exponents ``e`` with |v| ~ D * 10**(e - 16)."""
    mag = np.abs(flat)
    inside = (mag >= _LOWEST) & (mag <= _HIGHEST)
    mag = np.where(inside, mag, 1.0)
    exp10 = np.floor(np.log10(mag)).astype(np.int64)
    scale = 16 - exp10
    low = int(scale.min())
    scale -= low
    present = np.flatnonzero(np.bincount(scale))
    table = np.zeros((4, present[-1] + 1))
    table[:, present] = np.array([_power_of_ten(int(k)) for k in present + low]).T
    hi, lo, hi_top, hi_bottom = (column[scale] for column in table)

    # Dekker: head + tail = mag * hi exactly, then add mag * lo
    big = _SPLIT * mag
    top = big - (big - mag)
    bottom = mag - top
    head = mag * hi
    tail = ((top * hi_top - head) + top * hi_bottom + bottom * hi_top) + bottom * hi_bottom
    tail += mag * lo
    whole = np.rint(head)
    tail += head - whole
    # a scaled value below 1e16 means log10 rounded up
    exact = inside & ((whole > 1e16) | ((whole == 1e16) & (tail >= 0)))
    carry = np.rint(tail)
    tail -= carry
    digits = whole.astype(np.int64) + carry.astype(np.int64)
    exact &= (np.abs(tail) < _NEAR_HALF) & (digits < 10**17)

    zero = (flat == 0.0) | ~np.isfinite(flat)  # nan and inf too; _encode names them
    digits[zero] = 0
    exp10[zero] = 0
    for i in np.flatnonzero(~(exact | zero)).tolist():
        text = "%.16e" % abs(float(flat[i]))
        digits[i] = int(text[0] + text[2:18])
        exp10[i] = int(text[19:])
    return digits, exp10


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
    """Lookup tables of the layout, built on first use."""
    g = np.arange(10000, dtype="<u4")
    quads = ((48 + g // 1000) | (48 + g // 100 % 10) << 8
             | (48 + g // 10 % 10) << 16 | (48 + g % 10) << 24)
    trailing = ((g % 10 == 0).astype(np.int8) + (g % 100 == 0)
                + (g % 1000 == 0) + (g == 0)).astype(np.int8)
    prefixes = np.array([_word(sign + ("0." + "0" * (k - 1) if k else ""))
                         for sign in ("", "-") for k in range(5)], dtype="<u8")
    # entry 0 is the empty exponent of fixed form; entry e + 401 is "e%+03d"
    t = np.arange(-400, 401)
    mag = np.abs(t)
    exponents = np.zeros(t.size + 1, dtype="<u8")
    exponents[1:] = (ord("e") | np.where(t < 0, ord("-"), ord("+")) << 8
                     | np.where(mag >= 100, 48 + mag // 100, 0) << 16
                     | (48 + mag // 10 % 10) << 24 | (48 + mag % 10) << 32)
    # low_bytes[j][m]: word j of a mask keeping the first m bytes of 24;
    # dots[j][m]: word j of "." at byte m
    low_bytes = np.array([[(1 << 8 * min(max(m - 8 * j, 0), 8)) - 1 for m in range(25)]
                          for j in range(3)], dtype="<u8")
    dots = np.array([[_word(".", m - 8 * j) if 0 <= m - 8 * j < 8 else 0
                      for m in range(25)] for j in range(3)], dtype="<u8")
    return quads, trailing, prefixes, exponents, low_bytes, dots


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
