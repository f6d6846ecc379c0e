"""Vectorised ``"%.17g"`` text of float64 table cells, for the CSV writers of :mod:`auglf.output`.

:func:`format_cells` writes exactly the bytes of Python's ``"%.17g" % x``
for every cell.  A cell x with 1e-280 <= |x| <= 1e280 is printed from the
17-digit integer D = round(|x| * 10**(16 - e)), 1e16 <= D < 1e17, where e
is the decimal exponent of x after that rounding.  |x| * 10**k is
evaluated in double-double arithmetic: 10**k = hi + lo from a table, and
Dekker's exact product of |x| and hi.  The sum is off by less than 1e-14,
so D is exact unless the fraction lies within 1e-6 of one half.  Such
cells, NaN, the infinities and nonzero cells outside that range are
printed by Python's "%.17g"; zeros are printed as "0" or "-0".

Each cell's text is laid out in 48-byte slots, NUL where unused, and the
NULs are deleted at the end:
  0 sign, 1-5 "0.000" (the first 1 - e of them for -4 <= e < 0),
  6 + 2i digit i and 7 + 2i a point after it (i < 17),
  40-44 "e", exponent sign and digits (scientific notation), 47 separator.
As "%g" does, e < -4 and e >= 17 are printed in scientific notation and
the others in fixed notation; trailing zeros of the fraction and a bare
point are dropped.
"""

from __future__ import annotations

import functools

import numpy as np

_SLOTS = 48
_POW_LO = -270  # 10**k is tabulated for _POW_LO <= k < _POW_LO + 571
# 0..17 down a column: digit indices, counts of digits and point positions
_COUNTS = np.arange(18, dtype=np.uint8)[:, np.newaxis]


@functools.cache
def _format_tables():
    """Tables of the formatter, built on first use: powers of ten and per-exponent layout."""
    powers = np.empty((2, 571))
    for i in range(powers.shape[1]):
        k = _POW_LO + i
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            # int / int is correctly rounded
            den = 10 ** -k
            hi = 1 / den
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (two * den)
        powers[:, i] = hi, lo
    # the layout of a cell whose decimal exponent e = 16 - k
    e = (16 - _POW_LO) - np.arange(powers.shape[1], dtype=np.int16)
    mag = np.abs(e)
    fixed = (e >= -4) & (e < 17)
    small = fixed & (e < 0)
    head = np.zeros((len(e), 8), np.uint8)  # slots 0-7: the "0.000" prefix
    head[:, 1:6] = np.frombuffer(b"0.000", np.uint8)
    head[:, 1:6] *= np.arange(5, dtype=np.int16) < np.where(small, 1 - e, 0)[:, np.newaxis]
    tail = np.zeros((len(e), 8), np.uint8)  # slots 40-47: the exponent
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    tail[:, 2] = np.where(mag >= 100, mag // 100 + 48, 0)
    tail[:, 3] = mag // 10 % 10 + 48
    tail[:, 4] = mag % 10 + 48
    tail[fixed] = 0
    # fixed notation keeps every integer digit, and a point follows digit
    # point - 1 when more than ``point`` digits are significant
    whole = np.where(fixed & ~small, e + 1, 1).astype(np.uint8)
    point = np.where(small, 17, np.where(fixed, e + 1, 1)).astype(np.uint8)
    return (
        powers[0], powers[1], head.view(np.uint64)[:, 0], tail.view(np.uint64)[:, 0],
        whole, point,
    )


def _scaled(a: np.ndarray, k: np.ndarray, hi_table: np.ndarray, lo_table: np.ndarray):
    """``a * 10**k`` as ``(ph, pl)``: ph = fl(a * hi) and pl the rest, to about 1e-15.

    ``k`` indexes the tables.  Dekker's two-product gives the rounding error
    of ``a * hi`` exactly; ``a * lo`` adds the table's own remainder.
    """
    hi = hi_table.take(k)
    ph = a * hi
    ah = a * 134217729.0  # Veltkamp split into 26- and 27-bit halves
    s = ah - a
    ah -= s
    al = np.subtract(a, ah, out=s)
    pl = hi * 134217729.0
    bh = pl - hi
    np.subtract(pl, bh, out=bh)
    bl = np.subtract(hi, bh, out=hi)
    np.multiply(ah, bh, out=pl)
    pl -= ph
    pl += np.multiply(ah, bl, out=ah)
    pl += np.multiply(al, bh, out=bh)
    pl += np.multiply(al, bl, out=al)
    lo = np.take(lo_table, k, out=bl, mode="clip")
    pl += np.multiply(lo, a, out=lo)
    return ph, pl


def format_cells(x: np.ndarray, width: int, first: int) -> bytes:
    """``"%.17g"`` text of the cells ``x``, each followed by its separator.

    ``x[i]`` is cell ``first + i`` of a table ``width`` cells wide, read row
    by row: a newline follows the last cell of each row, a comma the others.
    Each temporary is dropped once used, so the working set stays near 100
    bytes a cell, most of it the slots and their translated copy.
    """
    hi_table, lo_table, head_table, tail_table, whole_table, point_table = _format_tables()
    n = len(x)
    a = np.abs(x)
    zero = a == 0.0
    a = np.where(zero, 2.0, a)  # formatted as 2, then their digits cleared
    clamped = np.fmax(a, 1e-280)
    np.fmin(clamped, 1e280, out=clamped)
    ok = clamped == a
    del a
    # k = 16 - e, less _POW_LO: the table row of the scale 10**(16 - e)
    k = np.log10(clamped)
    np.floor(k, out=k)
    k = np.subtract(16 - _POW_LO, k).astype(np.intp)
    ph, pl = _scaled(clamped, k, hi_table, lo_table)
    # log10 may miss the exponent by one next to a power of ten; afterwards
    # 1e16 <= ph + pl < 1e17, and rounding gives at most 1e17
    if ph.min() <= 1e16 or ph.max() >= 1e17:
        k += (ph < 1e16) | ((ph == 1e16) & (pl < 0))
        k -= (ph > 1e17) | ((ph == 1e17) & (pl >= 0))
        ph, pl = _scaled(clamped, k, hi_table, lo_table)
    del clamped
    whole_part = np.rint(pl)
    pl -= whole_part
    ok &= np.abs(pl, out=pl) < 0.5 - 1e-6
    d = np.add(ph, whole_part, dtype=np.int64, casting="unsafe")  # both hold integers
    del ph, pl, whole_part
    if d.max() == 10 ** 17:  # rounded up to the next power of ten
        carry = d == 10 ** 17
        k -= carry
        d[carry] = 10 ** 16
    d *= ~zero
    del zero

    # body[i]: digit i in its low byte and a point after it in its high byte
    # (slots 6 + 2i and 7 + 2i)
    body = np.empty((17, n), "<u2")
    halves = np.empty((2, n), np.uint32)
    upper, halves[1] = np.divmod(d, 10 ** 8)
    body[0], halves[0] = np.divmod(upper, 10 ** 8)
    del d, upper
    # 8 digits -> 4 + 4 -> 2 + 2 -> 1 + 1, by divisions by scalars only
    high = halves // np.uint32(10 ** 4)
    quads = np.empty((4, n), np.uint16)
    quads[0::2] = high
    quads[1::2] = halves - high * np.uint32(10 ** 4)
    del halves, high
    high = quads // np.uint16(100)
    pairs = np.empty((8, n), np.uint8)
    pairs[0::2] = high
    pairs[1::2] = quads - high * np.uint16(100)
    del quads, high
    tens = pairs // np.uint8(10)
    body[1::2] = tens
    body[2::2] = pairs - tens * np.uint8(10)
    del pairs, tens
    # digits kept: up to the last nonzero one, and at least the integer digits
    significant = np.maximum.reduce((body[1:] != 0).view(np.uint8) * _COUNTS[2:])
    body += ord("0")
    np.multiply(body, _COUNTS[:17] < np.maximum(significant, whole_table.take(k)), out=body)
    point = point_table.take(k)
    point *= significant > point  # 0: no point
    np.bitwise_or(body, np.uint16(ord(".") << 8), out=body, where=_COUNTS[1:] == point)
    del point, significant

    text = bytearray(n * _SLOTS)
    slots = np.frombuffer(text, np.uint8).reshape(n, _SLOTS)
    words = slots.view(np.uint64)
    words[:, 0] = head_table.take(k)
    slots.view("<u2")[:, 3:20] = body.T
    del body
    words[:, -1] = tail_table.take(k)
    del k, words
    slots[:, -1] = ord(",")
    slots[(width - 1 - first) % width :: width, -1] = ord("\n")
    np.multiply(np.signbit(x).view(np.uint8), np.uint8(ord("-")), out=slots[:, 0])
    if ok.all():
        return text.translate(None, b"\0")
    slow = np.flatnonzero(~ok)
    slots[slow, :-1] = 0
    ends = np.cumsum(np.count_nonzero(slots, axis=1))
    text = text.translate(None, b"\0")
    pieces, done = [], 0
    for i in slow.tolist():
        at = int(ends[i]) - 1  # the cell's separator
        pieces += [text[done:at], b"%.17g" % x[i]]
        done = at
    pieces.append(text[done:])
    return b"".join(pieces)
