"""The exact text of numbers, formatted by numpy: ``'%.17g' % v`` of a
float, ``'%d' % v`` of an integer, byte for byte.

A value's text is held as a cell: CELL bytes, NUL-padded, byte 0 its sign
("-" or NUL), so a sign flips by toggling one byte.  format_cells forms the
17 digits of each double with Dekker's exact product (Dekker 1971) against a
table of powers of ten held as double-doubles, in the manner of Ryu printf's
fixed-precision conversion (Adams 2019), and leaves Python's % the values it
cannot settle.  Its tables are built on its first call.

The first call of each numpy loop a process runs maps pages of numpy's code,
which its peak RSS counts, so the kernel keeps to few kinds of loop: the
tables come from fills, copies and float compares, and a choice per value is
an np.where, not bool arithmetic.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

CELL = 32
# |x| the kernel formats; Python's % writes the others (see format_cells)
_KERNEL_SPAN = (1e-280, 1e280)
# the decimal exponents X of |x| in _KERNEL_SPAN, and the estimates one off
_EXPONENTS = range(-281, 282)
_SPLITTER = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
# fewer values than this go to % whole: the kernel costs ~70 us a call, about
# what % takes for 128 values
_KERNEL_MIN = 128


class _KernelTables(NamedTuple):
    """What format_cells reads, built on its first call by _kernel_tables."""

    power: np.ndarray  # 10^(16 - X) rounded, indexed by X - _EXPONENTS.start
    power_hi: np.ndarray  # its upper 26 bits
    power_lo: np.ndarray  # power - power_hi
    power_rest: np.ndarray  # 10^(16 - X) - power, rounded
    words: np.ndarray  # uint32 ASCII of 0000..9999, then a word of NULs
    zeros: np.ndarray  # trailing zeros of 0..9999 as 4 digits, int64 as word
    from_src: np.ndarray  # (layout code, 4) uint64 byte masks, see _kernel_tables
    from_shifted: np.ndarray
    marks: np.ndarray
    suffix: np.ndarray  # bytes 24..31 of a cell, indexed as power


@functools.cache
def _kernel_tables() -> _KernelTables:
    """The tables of format_cells, from exact ints and int / int true division
    (correctly rounded) and numpy fills, copies and float compares; 176,796
    bytes."""
    power, rest = [], []
    for X in _EXPONENTS:
        num, den = (10 ** (16 - X), 1) if X <= 16 else (1, 10 ** (X - 16))
        p = num / den
        a, b = p.as_integer_ratio()
        power.append(p)
        rest.append((num * b - a * den) / (den * b))
    power = np.array(power)
    c = _SPLITTER * power
    power_hi = c - (c - power)
    words = np.zeros((10001, 4), np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for i in range(4):  # digit i of 0..9999 runs through "0".."9" in blocks
        words[:-1, i] = np.tile(np.repeat(digits, 10 ** (3 - i)), 10 ** i)
    zeros = np.zeros(10000, np.int64)
    for k in range(1, 5):  # every 10^k-th word ends in k zeros or more
        zeros[::10 ** k] = k

    # The layout of each code (X + 4) 17 + keep - 1, a fixed-notation
    # exponent X in [-4, 16] and keep significant digits: byte masks over
    # src, which holds digit j at byte 7 + j and "000" at bytes 4..6, and over
    # src one byte on, and the bytes it adds.  X >= 0: digits 0..X from src,
    # zeros among them, then the point at byte 8 + X and the digits X + 1 ..
    # keep - 1 from the shifted src, if any; X < 0: "0." at bytes 1..2, then
    # -X - 1 zeros and the digits 0 .. keep - 1 from src.  Exponent notation
    # is laid out as X = 0, its exponent in bytes 24..31.
    col = np.arange(CELL, dtype=float)
    X = np.repeat(np.arange(-4.0, 17.0), 17)[:, None]
    keep = np.tile(np.arange(1.0, 18.0), 21)[:, None]
    whole = X >= 0
    from_src = np.where(whole, (col >= 7) & (col <= 7 + X), (col >= 8 + X) & (col < 7 + keep))
    from_shifted = whole & (col >= 9 + X) & (col < 8 + keep)
    marks = np.zeros(from_src.shape, np.uint8)
    marks[whole & (col == 8 + X) & (keep > X + 1)] = ord(".")
    marks[~whole[:, 0], 1:3] = [ord("0"), ord(".")]

    suffix = np.zeros((len(_EXPONENTS), 8), np.uint8)  # bytes 24..31 of a cell
    for cell, e in zip(suffix, _EXPONENTS):
        if not -4 <= e < 17:  # C's exponent: its sign and at least two digits
            text = b"e%+03d" % e
            cell[1:1 + len(text)] = np.frombuffer(text, np.uint8)

    def as_words(table):  # (rows, CELL) bytes as (rows, CELL / 8) uint64
        return table.view("<u8")

    def mask(chosen):  # bytes 0xff where chosen, else 0
        return as_words(np.where(chosen, np.uint8(255), np.uint8(0)))

    return _KernelTables(power, power_hi, power - power_hi, np.array(rest),
                         words.view("<u4").ravel(), zeros,
                         mask(from_src), mask(from_shifted),
                         as_words(marks), as_words(suffix).ravel())


def _scaled(a: np.ndarray, X: np.ndarray, t: _KernelTables):
    """(D, frac): a 10^(16 - X) = D + frac, D the nearest int64, |frac| <= 1/2.

    Dekker's product: a p = h + lo exactly, p the double nearest 10^(16 - X);
    lo then takes a times the rest of 10^(16 - X).  For D < 2^57 the error
    of frac is below 2^-45: 2^-49 from the rest's own rounding (2^-106 of a
    p), 2^-49 from rounding a times it (below 2^4) and 2^-48 from adding
    that to lo (below 2^5)."""
    i = X - _EXPONENTS.start
    p, p_hi, p_lo = t.power[i], t.power_hi[i], t.power_lo[i]
    h = a * p
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    lo = ((a_hi * p_hi - h) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    lo += a * t.power_rest[i]
    r = np.rint(lo)
    return h.astype(np.int64) + r.astype(np.int64), lo - r


def _decimal(x: np.ndarray, span: tuple, t: _KernelTables):
    """(X, D, kernel): the exponent X and the 17 digits D = round(|x|
    10^(16 - X)) in [10^16, 10^17) of each x with |x| in span, as C's %.17g
    rounds; kernel is false for the other x and for a D whose rounding
    fraction lies within 2^-30 of 1/2."""
    a = np.abs(x)
    kernel = (a >= span[0]) & (a <= span[1])
    a[~kernel] = 1.0  # any value that keeps the arithmetic finite
    X = np.floor(np.log10(a)).astype(np.int64)
    D, frac = _scaled(a, X, t)
    # X is the exponent of |x| itself: 10^16 <= |x| 10^(16 - X) < 10^17
    step = np.where(D >= 10 ** 17, 1, np.where((D < 10 ** 16) | (D == 10 ** 16) & (frac < 0), -1, 0))
    redo = np.flatnonzero(step)
    if redo.size:
        X[redo] += step[redo]
        D[redo], frac[redo] = _scaled(a[redo], X[redo], t)
    # a tie goes to %, and so would a D outside the decade, were log10 two
    # off (a D of 10^17 after the step would be a y within 1/2 below it;
    # the y of doubles there lie 8 or more apart)
    kernel &= (abs(abs(frac) - 0.5) >= 2.0 ** -30) & (D >= 10 ** 16) & (D < 10 ** 17)
    return X, D, kernel


def _words(X: np.ndarray, D: np.ndarray, t: _KernelTables):
    """(word, code): the index in t.words of each uint32 word of src (NULs,
    "000" and digit 0, four words of digits 1..16, NULs), and the layout
    code of X and D's significant digits (see _kernel_tables)."""
    word = np.full((len(D), CELL // 4), len(t.words) - 1)
    top = D // 10 ** 8
    word[:, 1] = top // 10 ** 8
    word[:, 3] = top - word[:, 1] * 10 ** 8
    word[:, 5] = D - top * 10 ** 8
    for j in (2, 4):
        word[:, j] = word[:, j + 1] // 10 ** 4
        word[:, j + 1] -= word[:, j] * 10 ** 4
    zeros = t.zeros[word[:, 5]]
    for j in (4, 3, 2):  # a word's zeros count when all after it are zeros
        zeros = np.where(zeros == 4 * (5 - j), zeros + t.zeros[word[:, j]], zeros)
    fixed = (X >= -4) & (X < 17)
    return word, np.where(fixed, X + 4, 4) * 17 + 16 - zeros


def format_cells(values: np.ndarray) -> np.ndarray:
    """The cells (rows, CELL) uint8 of 1-D values: the bytes of each value's
    ``'%d' % v`` for an integer array, of ``'%.17g' % v`` for any other, with
    its sign in byte 0.  The one formatting step of every table.

    A finite |x| in _KERNEL_SPAN (an integer: 0 < |v| < 2^53, exact as a
    double, its %.17g its %d) is formatted by numpy as C's %.17g does: its
    exponent X, estimated by log10 and corrected, and its 17 digits D =
    round(|x| 10^(16 - X)), formed by _scaled to within 2^-45 (see
    _decimal); D's digits come from a table of 4-digit words, trailing zeros
    after the point dropped, in fixed notation for -4 <= X < 17 and else with
    an exponent of at least two digits.  Zeros are written directly.  Python's
    own % writes the rest: non-finite values, |x| outside the span, and a D
    whose rounding fraction lies within 2^-30 of 1/2, which covers exact
    ties such as 1000000000000000.25, where % rounds half to even; and all
    of fewer than _KERNEL_MIN values, whose time the kernel's fixed cost
    would outweigh.
    """
    integer = values.dtype.kind in "iu"
    fmt = "%d" if integer else "%.17g"
    if len(values) < _KERNEL_MIN:
        return _percent_cells(fmt, values.tolist())
    x = values.astype(float)
    cells, kernel = _kernel_cells(x, (1.0, 2.0 ** 53 - 1) if integer else _KERNEL_SPAN)
    cells[:, 0] = np.where(np.signbit(x), np.uint8(ord("-")), np.uint8(0))
    other = np.flatnonzero(~kernel)
    zero = other[x[other] == 0]
    cells[zero, 1:] = 0
    cells[zero, 1] = ord("0")
    rest = other[x[other] != 0]
    cells[rest] = _percent_cells(fmt, values[rest].tolist())
    return cells


def _percent_cells(fmt: str, values: list) -> np.ndarray:
    """The cells of Python's own fmt % v of each v of values."""
    text = [fmt % v for v in values]
    cells = np.zeros((len(text), CELL), np.uint8)
    cells[:, 0] = [ord("-") if t[0] == "-" else 0 for t in text]
    unsigned = np.array([t.lstrip("-") for t in text], f"S{CELL - 1}")
    cells[:, 1:] = unsigned.view(np.uint8).reshape(len(text), CELL - 1)
    return cells


def _kernel_cells(x: np.ndarray, span: tuple):
    """(cells, kernel): the cells of the x that kernel marks (see _decimal),
    their sign byte left 0, and stray bytes in the others'."""
    t = _kernel_tables()
    X, D, kernel = _decimal(x, span, t)
    word, code = _words(X, D, t)

    # src from byte 8 of spare; spare from byte 7 is src one byte on, which
    # makes room for the point
    spare = np.zeros(len(x) * CELL + 8, np.uint8)
    src = np.take(t.words, word, out=spare[8:].view("<u4").reshape(word.shape), mode="clip")
    del word  # the largest array here
    src = src.view("<u8")
    shifted = spare[7:-1].view("<u8").reshape(src.shape)
    cells = np.take(t.from_src, code, axis=0)
    cells &= src
    part = np.take(t.from_shifted, code, axis=0)
    part &= shifted
    cells |= part
    cells |= np.take(t.marks, code, axis=0, out=part, mode="clip")
    cells[:, 3] |= t.suffix[X - _EXPONENTS.start]
    return cells.view(np.uint8), kernel
