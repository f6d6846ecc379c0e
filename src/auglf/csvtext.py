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

Each cell's text is laid out in a 32-byte slot, NUL where unused, and the
NULs are deleted at the end:
  0 sign, 1-5 "0.000" (the first 1 - e of them for -4 <= e < 0),
  6-23 the 17 digits, and a point in the byte after the digit it follows,
  24-28 "e", exponent sign and digits (scientific notation), 31 separator.
As "%g" does, e < -4 and e >= 17 are printed in scientific notation and
the others in fixed notation; trailing zeros of the fraction and a bare
point are dropped.

Every array a call works on is a view of a :class:`Workspace`, so a writer
that formats a table a block at a time allocates its working memory once.
"""

from __future__ import annotations

import functools

import numpy as np

_SLOTS = 32
_WORK_BYTES = 66  # bytes of a workspace's memory per cell, besides its slot
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
    # a cell's slot before its sign and digits: the "0.000" prefix, the
    # exponent and a comma
    blank = np.zeros((len(e), _SLOTS), np.uint8)
    blank[:, 1:6] = np.frombuffer(b"0.000", np.uint8)
    blank[:, 1:6] *= np.arange(5, dtype=np.int16) < np.where(small, 1 - e, 0)[:, np.newaxis]
    exponent = blank[:, 24:29]
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    exponent[:, 2] = np.where(mag >= 100, mag // 100 + 48, 0)
    exponent[:, 3] = mag // 10 % 10 + 48
    exponent[:, 4] = mag % 10 + 48
    exponent[fixed] = 0
    blank[:, -1] = ord(",")
    # fixed notation keeps every integer digit, and a point follows digit
    # point - 1 when more than ``point`` digits are significant
    whole = np.where(fixed & ~small, e + 1, 1).astype(np.uint8)
    point = np.where(small, 17, np.where(fixed, e + 1, 1)).astype(np.uint8)
    return powers[0], powers[1], blank, whole, point


class Workspace:
    """Working memory for formatting up to ``cells`` cells a call, reused call after call.

    ``text`` holds the cells' slots and ``memory`` their numeric planes,
    98 bytes a cell in all.  A call writes every byte it reads, so the
    buffers are never cleared.
    """

    def __init__(self, cells: int):
        self.cells = cells
        self.text = bytearray(cells * _SLOTS)
        self.memory = np.empty(cells * _WORK_BYTES, np.uint8)


def _scaled(
    a: np.ndarray, k: np.ndarray, hi_table: np.ndarray, lo_table: np.ndarray,
    ph: np.ndarray, pl: np.ndarray, temps: list,
) -> None:
    """``a * 10**k`` into ``(ph, pl)``: ph = fl(a * hi) and pl the rest, to about 1e-15.

    ``k`` indexes the tables, and ``temps`` is four planes the size of
    ``a``.  Dekker's two-product gives the rounding error of ``a * hi``
    exactly; ``a * lo`` adds the table's own remainder.
    """
    hi, ah, s, bh = temps
    np.take(hi_table, k, out=hi, mode="clip")
    np.multiply(a, hi, out=ph)
    np.multiply(a, 134217729.0, out=ah)  # Veltkamp split into 26- and 27-bit halves
    np.subtract(ah, a, out=s)
    ah -= s
    al = np.subtract(a, ah, out=s)
    np.multiply(hi, 134217729.0, out=pl)
    np.subtract(pl, hi, out=bh)
    np.subtract(pl, bh, out=bh)
    bl = np.subtract(hi, bh, out=hi)
    np.multiply(ah, bh, out=pl)
    pl -= ph
    pl += np.multiply(ah, bl, out=ah)
    pl += np.multiply(al, bh, out=bh)
    pl += np.multiply(al, bl, out=al)
    lo = np.take(lo_table, k, out=bl, mode="clip")
    pl += np.multiply(lo, a, out=lo)


def format_cells(x: np.ndarray, width: int, first: int, work: Workspace | None = None) -> bytes:
    """``"%.17g"`` text of the cells ``x``, each followed by its separator.

    ``x[i]`` is cell ``first + i`` of a table ``width`` cells wide, read row
    by row: a newline follows the last cell of each row, a comma the others.
    ``work`` must hold at least ``len(x)`` cells; without one, the call
    makes its own.
    """
    hi_table, lo_table, blank_table, whole_table, point_table = _format_tables()
    n = len(x)
    if work is None:
        work = Workspace(n)
    if n > work.cells:
        raise ValueError(f"{n} cells do not fit a workspace of {work.cells}")

    def plane(at, dtype=np.float64, rows=1):
        """``rows`` rows of ``n`` values, from byte ``at`` of each cell's share of the memory."""
        size = np.dtype(dtype).itemsize * rows
        view = work.memory[at * n : (at + size) * n].view(dtype)
        return view if rows == 1 else view.reshape(rows, n)

    # Each cell's share of the memory: bytes 0-55 seven float planes, 56-63
    # k, 64 the zero flag (later the point) and 65 the ok flag.  Once D is
    # known, bytes 0-55 hold its digits and their working planes.
    mag, ph, pl = plane(0), plane(8), plane(16)
    temps = [plane(24), plane(32), plane(40), plane(48)]
    k, zero, ok = plane(56, np.intp), plane(64, np.bool_), plane(65, np.bool_)
    a = temps[0]
    np.abs(x, out=a)
    np.equal(a, 0.0, out=zero)
    np.copyto(a, 2.0, where=zero)  # formatted as 2, then their digits cleared
    np.fmax(a, 1e-280, out=mag)
    np.fmin(mag, 1e280, out=mag)
    np.equal(mag, a, out=ok)
    # k = 16 - e, less _POW_LO: the table row of the scale 10**(16 - e)
    np.log10(mag, out=a)
    np.floor(a, out=a)
    np.subtract(16 - _POW_LO, a, out=a)
    np.copyto(k, a, casting="unsafe")
    _scaled(mag, k, hi_table, lo_table, ph, pl, temps)
    # log10 may miss the exponent by one next to a power of ten; afterwards
    # 1e16 <= ph + pl < 1e17, and rounding gives at most 1e17
    if ph.min() <= 1e16 or ph.max() >= 1e17:
        step, side = plane(24, np.bool_), plane(25, np.bool_)
        np.equal(ph, 1e16, out=step)
        step &= np.less(pl, 0.0, out=side)
        step |= np.less(ph, 1e16, out=side)
        k += step
        np.equal(ph, 1e17, out=step)
        step &= np.greater_equal(pl, 0.0, out=side)
        step |= np.greater(ph, 1e17, out=side)
        k -= step
        _scaled(mag, k, hi_table, lo_table, ph, pl, temps)
    whole_part = np.rint(pl, out=plane(24))
    pl -= whole_part
    np.abs(pl, out=pl)
    ok &= np.less(pl, 0.5 - 1e-6, out=plane(32, np.bool_))
    # D = ph + whole_part, both of which hold integers
    d, whole = plane(32, np.int64), plane(40, np.int64)
    np.copyto(d, ph, casting="unsafe")
    np.copyto(whole, whole_part, casting="unsafe")
    d += whole
    if d.max() == 10 ** 17:  # rounded up to the next power of ten
        carry = np.equal(d, 10 ** 17, out=plane(0, np.bool_))
        k -= carry
        np.copyto(d, 10 ** 16, where=carry)
    d *= np.logical_not(zero, out=zero)

    text = work.text
    slots = np.frombuffer(text, np.uint8, count=n * _SLOTS).reshape(n, _SLOTS)
    np.take(blank_table, k, axis=0, out=slots, mode="clip")
    keep = np.take(whole_table, k, out=plane(24, np.uint8), mode="clip")
    point = np.take(point_table, k, out=plane(64, np.uint8), mode="clip")

    # digits[i]: digit i of D as text; D -> 9 + 8 digits, then 8 -> 4 + 4
    # -> 2 + 2 -> 1 + 1, by divisions by scalars in the narrowest type
    digits = plane(0, np.uint8, 18)
    upper, halves = plane(40, np.int64), plane(48, np.uint32, 2)
    np.floor_divide(d, 10 ** 8, out=upper)
    d -= np.multiply(upper, 10 ** 8, out=plane(0, np.int64))
    halves[1] = d
    halves[0] = upper
    top = np.floor_divide(halves[0], 10 ** 8, out=plane(32, np.uint32))
    digits[0] = top
    digits[0] += ord("0")
    top *= 10 ** 8
    halves[0] -= top
    high, quads = plane(32, np.uint32, 2), plane(40, np.uint16, 4)
    np.floor_divide(halves, 10 ** 4, out=high)
    quads[0::2] = high
    high *= 10 ** 4
    halves -= high
    quads[1::2] = halves
    high, pairs = plane(32, np.uint16, 4), plane(48, np.uint8, 8)
    np.floor_divide(quads, 100, out=high)
    pairs[0::2] = high
    high *= 100
    quads -= high
    pairs[1::2] = quads
    tens = np.floor_divide(pairs, 10, out=plane(40, np.uint8, 8))
    np.add(tens, ord("0"), out=digits[1:17:2])
    tens *= 10
    pairs += ord("0")
    np.subtract(pairs, tens, out=digits[2:17:2])
    digits[17] = 0
    # digits kept: up to the last nonzero one, and at least the integer digits
    nonzero = plane(32, np.uint8, 16)
    np.not_equal(digits[1:17], ord("0"), out=nonzero.view(np.bool_))
    nonzero *= _COUNTS[2:]
    significant = np.maximum.reduce(nonzero, axis=0, out=plane(26, np.uint8))
    np.maximum(keep, significant, out=keep)
    kept = plane(32, np.uint8, 17)
    np.less(_COUNTS[:17], keep, out=kept.view(np.bool_))
    digits[:17] *= kept
    # the point goes before digit ``point``; 18 puts it past the last byte
    np.copyto(point, 18, where=np.less_equal(significant, point, out=plane(27, np.bool_)))
    # digits after the point move one byte on, and the point takes its byte:
    # arithmetic modulo 256 on 0/1 masks
    after, change = plane(18, np.uint8, 17), plane(35, np.uint8, 17)
    np.greater(_COUNTS[1:], point, out=after.view(np.bool_))
    np.subtract(digits[:17], digits[1:], out=change)
    change *= after
    digits[1:] += change
    np.equal(_COUNTS[1:], point, out=after.view(np.bool_))
    np.subtract(ord("."), digits[1:], out=change)
    change *= after
    digits[1:] += change
    slots[:, 6:24] = digits.T

    slots[(width - 1 - first) % width :: width, -1] = ord("\n")
    sign = np.signbit(x, out=plane(18, np.bool_))
    np.multiply(sign.view(np.uint8), np.uint8(ord("-")), out=slots[:, 0])
    fast = ok.all()
    if not fast:  # Python prints these cells, at the mark left in their slots
        slow = np.flatnonzero(~ok)
        slots[slow, :-1] = 0
        slots[slow, 0] = 1
    text = (text if n == work.cells else text[: n * _SLOTS]).translate(None, b"\0")
    if fast:
        return text
    parts = text.split(b"\1")
    pieces = [parts[0]]
    for value, part in zip(x[slow].tolist(), parts[1:]):
        pieces += [b"%.17g" % value, part]
    return b"".join(pieces)
