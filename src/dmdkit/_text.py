"""Float-to-text and text-to-float conversion shared by the package's CSV I/O.

Trajectory CSVs and CLI output store doubles as ``.17g`` text, which
round-trips every finite double exactly. CPython spends about a microsecond
on each ``format(v, ".17g")``, because 17 digits are past the fast path of
its ``dtoa``, so ``write_rows`` produces the same bytes with whole-array
numpy arithmetic, in two steps. ``read_rows`` is its inverse, in the same
arithmetic (see Reading below).

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

Reading. ``read_rows`` reads a text stream in pieces of whole lines, of at
most 256 KiB and about 8,192 fields each, so the working arrays stay below
2 MB (about 200 bytes a field) and a file's text is never held whole; the
table grows by each piece's rows in place. In each piece one
``flatnonzero`` finds the separators, and one gather right-aligns each
field's mantissa in a 24-byte window, three uint64 words. Word arithmetic
masks the bytes before the mantissa, finds the point's byte by a zero-byte
test and moves the digits before it up one byte, over it; the sign and an
``e`` exponent of 1 to 3 digits are read by position. Two SWAR
multiply-and-shift steps (Lemire's) turn each word's 8 digit bytes into its
value, so the digits form an integer ``D`` below 10**19 (19 significant
digits at most) and the point and exponent a power ``E``. ``D * 10**E`` is
the double-double ``D`` times ``10**E`` from ``_power_of_ten``, with
Dekker's exact product as in Digits, rounded once. Its error is about
2**-100 relative, so the rounding is the correct one unless the exact sum
lies within 2**-37 units in the last place (2**-90 relative or more) of a
midpoint between doubles, as for the tie ``9007199254740993``. Such fields
and results outside [1e-250, 1e250] take ``float`` one at a time. Every
value the reader returns is the one ``float`` returns for its field, ``-0``
included. The forms it takes are ``[+-]M[(e|E)[+-]X]``, with ``,``
separators and ``\\n`` or ``\\r\\n`` line ends: dmdkit's own ``.17g`` text,
``repr`` and ``numpy.savetxt``'s ``%.18e``. Any other byte or field (quotes,
spaces, ``_``, ``inf``, ``nan``, blank lines, a 4-digit exponent, 20 or more
significant digits) makes it return None, so that the caller parses the text
another way.

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

# Text is read in pieces of about this many characters, or of about this
# many fields if that is fewer, so the working arrays stay below 2 MB.
_READ_CHARS = 1 << 18
_PIECE_FIELDS = 1 << 13
# A mantissa is read from the 24 bytes (three words) that end where it ends.
_WINDOW = 24
# Row c = 0..24, as the three words of a window: _KEEP_FROM sets its bytes
# from byte c on, and _BEFORE_POINT those before a point at byte c - 1 (none
# for c = 0, no point).
_KEEP_FROM = np.array([[(2**64 - 1) ^ (2 ** min(max(8 * (c - k), 0), 64) - 1)
                        for k in range(0, _WINDOW, 8)] for c in range(_WINDOW + 1)],
                      dtype=np.uint64)
_BEFORE_POINT = ~np.roll(_KEEP_FROM, 1, axis=0)
_BEFORE_POINT[0] = 0
# Digits after a point at byte c - 1 of the window, none for c = 0.
_FRACTION_DIGITS = np.array([0, *range(_WINDOW - 1, -1, -1)])
_SIGNS = np.array([1.0, -1.0])
# Powers of ten looked up for D * 10**E; clamped to this range, E still
# gives a result outside [_LOWEST, _HIGHEST] for every D > 0 it held before.
_LOWEST_POWER, _HIGHEST_POWER = -300, 260
# For a sum in [2**e, 2**(e + 1)), a rest above these times 2**e lies within
# 2**-37 units in the last place (2**-90 relative or more) of a midpoint,
# where the sum may round either way; below a power of two the gap, and so
# the midpoint, is half as far.
_NEAR_MIDPOINT = (0.5 - 2.0**-37) * 2.0**-52
_NEAR_QUARTER = (0.25 - 2.0**-37) * 2.0**-52


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
    scale = np.log10(mag)
    np.subtract(16.0, np.floor(scale, out=scale), out=scale)
    scale = scale.astype(np.intp)
    head, tail = _times_power(mag, *_powers_of_ten(scale))
    exp10 = np.subtract(16, scale, out=scale)
    # after the product's terms, head - rint(head) is added last, since any
    # other grouping rounds differently
    whole = np.rint(head)
    tail += np.subtract(head, whole, out=head)
    # a scaled value below 1e16 means log10 rounded up
    exact = inside & ((whole > 1e16) | ((whole == 1e16) & (tail >= 0)))
    carry = np.rint(tail)
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


def _powers_of_ten(exponents: np.ndarray) -> list[np.ndarray]:
    """``_power_of_ten(k)``'s four parts for each k of ``exponents``, as four arrays."""
    base = int(exponents.min())
    table = np.array([_power_of_ten(k) for k in range(base, int(exponents.max()) + 1)])
    index = exponents - base
    return [np.take(column, index) for column in table.T]


def _times_power(mag: np.ndarray, hi, lo, hi_top, hi_bottom) -> tuple[np.ndarray, np.ndarray]:
    """``mag * (hi + lo)`` as ``head + tail``, with ``head = mag * hi`` rounded.

    Dekker: head + tail = mag * hi exactly, then mag * lo is added, summed left
    to right as ((top*hi_top - head) + top*hi_bottom + bottom*hi_top) +
    bottom*hi_bottom + mag*lo; ``_digits`` prints the roundings of this order.
    The four parts of the power are overwritten.
    """
    head = mag * hi
    top = np.multiply(_SPLIT, mag, out=hi)
    bottom = top - mag
    top -= bottom
    np.subtract(mag, top, out=bottom)
    tail = top * hi_top
    tail -= head
    for left, right, term in ((top, hi_bottom, top), (bottom, hi_top, hi_top),
                              (bottom, hi_bottom, bottom), (mag, lo, lo)):
        tail += np.multiply(left, right, out=term)
    return head, tail


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


# ------------------------------------------------------------------ reading


def read_rows(handle, width: int) -> np.ndarray | None:
    """The lines of text ``handle``, read to its end, as rows of ``width`` doubles.

    Returns None as soon as a piece holds a line in a form ``_decode`` does
    not take; the caller then parses the text again by other means. A last
    line without a line end counts as a line. The table grows in place by
    ``ndarray.resize`` (a ``realloc``), so a load holds it once, never both
    its pieces and their join.
    """
    table = np.empty((0, width))
    rows = 0
    carry = ""
    size = 2 * _PIECE_FIELDS  # a field takes two characters or more
    while True:
        text = handle.read(size)
        if not text:
            if not carry:
                break
            text = "\n"
        text = carry + text
        cut = text.rfind("\n") + 1
        carry = text[cut:]
        if cut:
            piece = _decode(text[:cut], width)
            if piece is None:
                return None
            if rows + len(piece) > len(table):
                table.resize((rows + len(piece) + rows // 4, width), refcheck=False)
            table[rows : rows + len(piece)] = piece
            rows += len(piece)
            size = min(_READ_CHARS, cut * _PIECE_FIELDS // piece.size)
    table.resize((rows, width), refcheck=False)
    return table


def _decode(text: str, width: int) -> np.ndarray | None:
    """Lines of ``width`` comma-separated numbers as a table, or None.

    ``text`` is whole lines, each ended by ``\\n`` or ``\\r\\n``. A field is
    taken as ``[+-]M[(e|E)[+-]X]``: the mantissa M is 1 to 24 ASCII digits
    and at most one ``.``, with at least one digit and at most 19 after its
    leading zeros, and the exponent X has 1 to 3 digits. Any other field,
    byte or line makes the result None.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            return None
    # positions below are in ``data`` after _WINDOW bytes of padding
    data = bytes(_WINDOW) + data
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((buf == 44) | (buf == 10))  # each field's "," or "\n"
    lines, misfit = divmod(ends.size, width)
    line_ends = np.take(buf, ends) == 10
    if misfit or np.count_nonzero(line_ends) != lines or not line_ends[width - 1 :: width].all():
        return None
    starts = np.empty_like(ends)
    starts[0] = _WINDOW
    np.add(ends[:-1], 1, out=starts[1:])

    first = np.take(buf, starts)
    negative = first == 45
    stop = ends.copy()  # the mantissa's end: the field's, or its "e"
    exp10 = np.zeros(ends.size, dtype=np.intp)
    marks = np.flatnonzero((buf | np.uint8(32)) == 101)
    if marks.size:
        owner = np.searchsorted(ends, marks)
        if (np.diff(owner) == 0).any():
            return None
        power = _exponents(data, marks + 1, ends[owner])
        if power is None:
            return None
        stop[owner] = marks
        exp10[owner] = power
    # each mantissa runs from after the sign to ``stop``
    length = stop - starts
    length -= negative | (first == 43)
    digits = _mantissas(data, stop, length, exp10)
    if digits is None:
        return None

    values, inexact = _scaled(digits, exp10)
    values *= np.take(_SIGNS, negative.view(np.uint8))
    redo = np.flatnonzero(inexact)
    if redo.size:
        values[redo] = _one_at_a_time(data, starts[redo], ends[redo])
    return values.reshape(lines, width)


def _mantissas(data: bytes, stop: np.ndarray, length: np.ndarray,
               exp10: np.ndarray) -> np.ndarray | None:
    """The integer of the digits of each mantissa ``data[stop - length:stop]``, or None.

    Each is read from the window of _WINDOW bytes that ends at ``stop``, as
    three words; its point is taken off, and the digits after it off
    ``exp10``. None for a mantissa longer than the window, with no digit, a
    byte that is neither a digit nor its one point, or 20 or more significant
    digits.
    """
    lead = np.subtract(_WINDOW, length, out=length)  # the window's bytes before it
    if lead.min() < 0:
        return None
    words = _windows(data, _WINDOW)[stop - _WINDOW].view(np.uint64).reshape(-1, 3)
    words ^= _U(0x3030303030303030)  # digit bytes to their values
    words &= np.take(_KEEP_FROM, lead, axis=0)
    # the point ("." is 0x1E now) as 1 + its byte in the window, 0 for none;
    # a second point is left in place, to be refused as a non-digit below
    spare = words ^ _U(0x1E1E1E1E1E1E1E1E)
    flags = spare & _U(0x7F7F7F7F7F7F7F7F)
    flags += _U(0x7F7F7F7F7F7F7F7F)
    flags |= spare
    flags |= _U(0x7F7F7F7F7F7F7F7F)
    np.invert(flags, out=flags)  # 0x80 in each byte that held the point
    scaled = flags[:, 2] * 2.0**64  # no BLAS call: its buffer would fall outside the checks
    scaled += flags[:, 1]
    scaled *= 2.0**64
    scaled += flags[:, 0]
    point = (np.frexp(scaled)[1] >> 3).astype(np.intp)
    if (lead + (point > 0)).max() >= _WINDOW:
        return None  # no digit
    if point.any():
        exp10 -= np.take(_FRACTION_DIGITS, point)
        # the bytes before the point move up one, over it; a word's last byte
        # moves to the next word, and word 2's last byte never moves
        np.bitwise_and(words, np.take(_BEFORE_POINT, point, axis=0), out=spare)
        words &= np.take(_KEEP_FROM, point, axis=0)
        words.ravel()[1:] |= spare.ravel()[:-1] >> _U(56)
        spare <<= _U(8)
        words |= spare
    # what is left must be digit values
    np.add(words, _U(0x7676767676767676), out=spare)
    spare |= words
    if (spare & _U(0x8080808080808080)).any():
        return None
    # SWAR: digit bytes d0..d7 (d0 at byte 0) to pairs p = 10 * d0 + d1 at
    # bytes 0, 2, 4 and 6; then p0 + p2 * 2**32 and p1 + p3 * 2**32, each
    # times one constant, sum to the 8-digit value in the upper 32 bits
    np.right_shift(words, _U(8), out=spare)
    words *= _U(10)
    words += spare
    np.right_shift(words, _U(16), out=spare)
    spare &= _U(0x000000FF000000FF)
    spare *= _U(1 + (10**4 << 32))
    words &= _U(0x000000FF000000FF)
    words *= _U(100 + (10**6 << 32))
    words += spare
    words >>= _U(32)
    if words[:, 0].max() >= 1000:
        return None  # 20 or more significant digits
    digits = words[:, 0] * _U(10**16)
    digits += words[:, 1] * _U(10**8)
    digits += words[:, 2]
    return digits


def _exponents(data: bytes, begin: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The exponents ``[+-]X`` at ``data[begin:end]``, X of 1 to 3 digits, or None."""
    mark = np.take(np.frombuffer(data, dtype=np.uint8), begin)
    negative = mark == 45
    count = end - begin
    count -= negative | (mark == 43)
    if count.min() < 1 or count.max() > 3:
        return None
    digits = _windows(data, 3)[end - 3].view(np.uint8).reshape(-1, 3)
    digits -= np.uint8(48)
    digits[np.arange(3) < 3 - count[:, None]] = 0
    if digits.max() > 9:
        return None
    power = (digits * np.array([100, 10, 1])).sum(axis=1)
    np.negative(power, out=power, where=negative)
    return power


def _windows(data: bytes, size: int) -> np.ndarray:
    """Each run of ``size`` bytes of ``data``, by its first byte, as one record; no copy."""
    return np.ndarray((len(data) - size + 1,), f"V{size}", data, 0, (1,))


def _scaled(digits: np.ndarray, exp10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``D * 10**E`` rounded to doubles, and where that rounding is not certain.

    D (uint64, below 10**19) is the double-double d_hi + d_lo, and Dekker's
    exact product d_hi * hi plus the terms d_hi * lo and d_lo * hi gives
    ``D * (hi + lo)`` to within about 2**-100 relative, rounded once. Where
    that sum lies within 2**-37 units in the last place (2**-90 relative or
    more) of a midpoint between two doubles, or outside [1e-250, 1e250], the
    result is flagged; D = 0 is exact.
    """
    np.clip(exp10, _LOWEST_POWER, _HIGHEST_POWER, out=exp10)
    hi, lo, hi_top, hi_bottom = _powers_of_ten(exp10)
    high = digits.astype(float)
    low = (digits - high.astype(np.uint64)).view(np.int64).astype(float)
    low *= hi
    head, tail = _times_power(high, hi, lo, hi_top, hi_bottom)
    tail += low
    values = head + tail
    rest = tail - (values - head)  # exact: |tail| is far below |head|

    # in units in the last place, 2**(e - 52) for values in [2**e, 2**(e + 1)),
    # |rest| is 1/2 at a midpoint, and 1/4 at the one below a power of two
    bits = values.view(np.uint64)
    unit = (bits & _U(0x7FF0000000000000)).view(float)  # 2**e, 0 for zero
    unit *= np.where((bits << _U(12)) == 0, _NEAR_QUARTER, _NEAR_MIDPOINT)
    inexact = np.abs(rest, out=rest) > unit
    inexact |= ((values < _LOWEST) & (digits != 0)) | (values > _HIGHEST)
    return values, inexact


def _one_at_a_time(data: bytes, first: np.ndarray, last: np.ndarray) -> list[float]:
    """``float`` of each field ``data[first:last]``."""
    return [float(data[a:b]) for a, b in zip(first.tolist(), last.tolist())]


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
