"""Byte-exact ``"%.17g"`` of float64 arrays in numpy, for the CSV writer.

:func:`_format17` turns a block of doubles into one fixed-width slot of
bytes per value: the text ``"%.17g" % v`` amid pad bytes (0) that
``cli.emit_plot_data`` drops as it writes the block.
The significand N = round(|v| 10^(16 - X)) comes from a double-double
product (Dekker's exact two-product, with 10^(16 - X) split into two
doubles by exact integer arithmetic), so it is the correctly rounded
one wherever the fraction being rounded is more than _TIE from 1/2.
N's digits come from a table of 4-digit ASCII groups; the sign, "0.",
the point and the exponent from tables indexed by (X, significant
digits) that encode the rules of the "g" format.  Every value the
kernel cannot settle goes to ``"%.17g"`` itself.  All names are
private: the module serves the writer only.
"""

from __future__ import annotations

import numpy as np


_FAST_MIN, _FAST_MAX = 1e-40, 1e40  # the |v| range of the vectorised kernel
_X_LO, _X_HI = -42, 41  # decimal exponents of the tables: the fast range's, +-1 for log10
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant for binary64
_TIE = 1e-6  # a fraction this close to 1/2 is left to "%.17g"

# A numeric cell is a _SLOT-byte slot whose text is contiguous: the
# sign, "0." and zeros below 1, the digits with their point, and "e+XX".
# Digit j sits at _P + j ahead of the point and at _P + 1 + j after it.
# The bytes around the text hold 0, the pad byte, which is dropped when
# the block is written.
_SLOT = 32
_P = 7


def _pow10_table():
    """Rows X = _X_LO.._X_HI of (hi, hi_head, hi_tail, lo): 10^(16 - X) = hi + lo
    to about 2^-106, hi the double nearest 10^(16 - X) and lo the double
    nearest the rest, both from exact integer arithmetic (an int / int
    quotient is correctly rounded); hi_head + hi_tail is Dekker's split of hi."""
    rows = []
    for x in range(_X_LO, _X_HI + 1):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi = num / den
        hn, hd = hi.as_integer_ratio()
        c = _SPLIT * hi
        head = c - (c - hi)
        rows.append((hi, head, hi - head, (num * hd - hn * den) / (den * hd)))
    return np.array(rows)


def _layout_tables():
    """A numeric cell's bytes besides its digits, for each (X, significant
    digits nd), in row (X - _X_LO) * 17 + nd - 1: the slot's constant
    bytes; the masks of the slot bytes that take digit j at _P + j (ahead
    of the point) and at _P + 1 + j (after it); and where the sign goes.

    The rules of "%.17g": fixed notation for -4 <= X < 17, otherwise
    d.ddd e+-XX with at least two exponent digits; trailing zeros of the
    17 digits, and a point with no digit after it, are dropped."""
    key = np.arange((_X_HI - _X_LO + 1) * 17)
    x, nd = _X_LO + key // 17, 1 + key % 17
    fixed = (x >= -4) & (x < 17)
    below = fixed & (x < 0)  # "0." and -X-1 zeros, then every digit after the point
    ahead = np.where(fixed, np.maximum(x, -1), 0)  # the last digit ahead of the point
    after = nd - 1 > ahead  # some digit follows the point
    text = np.zeros((x.size, _SLOT), np.uint8)
    point = np.where(below, _P + x + 1, _P + ahead + 1)
    text[key[below | after], point[below | after]] = ord(".")
    for at in range(_P - 4, _P + 1):  # the zeros of "0.000", and the 0 ahead of them
        text[key[below & ((at == _P + x) | (at >= _P + x + 2))], at] = ord("0")
    end = np.where(after, _P + nd, _P + ahead)  # the last digit
    e = ~fixed
    for k, char in enumerate((np.full(x.size, ord("e")), np.where(x < 0, ord("-"), ord("+")),
                              ord("0") + np.abs(x) // 10, ord("0") + np.abs(x) % 10)):
        text[key[e], end[e] + 1 + k] = char[e]
    j = np.arange(-_P, _SLOT - _P)  # the digit a slot byte takes ahead of the point
    ahead_mask = ((j >= 0) & (j <= ahead[:, None])).view(np.uint8) * np.uint8(0xFF)
    after_mask = ((j > ahead[:, None] + 1) & (j <= nd[:, None])).view(np.uint8) * np.uint8(0xFF)
    return text, ahead_mask, after_mask, np.where(below, _P + x - 1, _P - 1)


def _digit_tables():
    """The four ASCII digits of each g < 10^4 as one uint32; and, for the
    four groups of N after its lead digit, the count of N's digits up to
    the last nonzero one of group m holding g, at m 10^4 + g (1 where g
    = 0)."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    t = np.stack([np.tile(np.repeat(digit, 10 ** (3 - k)), 10 ** k) for k in range(4)], axis=-1)
    length = np.zeros(len(t), np.int8)  # digits up to the last nonzero one; 0 for g = 0
    for k in range(4):
        length[t[:, k] != ord("0")] = k + 1
    upto = length + np.arange(1, 17, 4, dtype=np.int8)[:, None]
    upto[:, length == 0] = 1
    return t.view(np.uint32)[:, 0], upto.ravel()


_POW10 = _pow10_table()
_TEXT, _AHEAD, _AFTER, _SIGN_AT = _layout_tables()
_GROUPS, _UPTO = _digit_tables()
_GROUP_AT = (10 ** 4 * np.arange(4))[:, None]  # row offsets into _UPTO


def _product(a, x):
    """a 10^(16 - x) as p + rest, p = fl(a hi) and rest = err + a lo, within
    about 1e-14 of the true product.

    10^(16 - x) = hi + lo (:func:`_pow10_table`), and err is the exact
    rounding error of a hi (Dekker's two-product, Numer. Math. 18 (1971)
    224): both operands are split into 26-bit halves whose products are
    exact."""
    hi, head, tail, lo = np.take(_POW10, x - _X_LO, axis=0).T
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    return p, (((ah * head - p) + ah * tail + al * head) + al * tail) + a * lo


def _scaled(a, x):
    """N = round(a 10^(16 - x)) as int64, and where "%.17g" must settle
    it: the product has 16 digits or N has 18 (x = floor(log10 a) came
    out one too high or too low), or the fraction lies within _TIE of 1/2.

    The product (:func:`_product`) is good to about 1e-14, far inside
    _TIE.  Its leading part p is an integer wherever N has 17 digits
    (p >= 2^53), so only the small remainder is rounded."""
    p, rest = _product(a, x)
    whole = np.floor(rest)
    frac = rest - whole
    floor = p.astype(np.int64) + whole.astype(np.int64)
    n = floor + (frac > 0.5)
    # the length is judged on the product, not on N: 9999999999999999.6
    # rounds to 10^16 but wants x - 1
    return n, (floor < 10 ** 16) | (n >= 10 ** 17) | (np.abs(frac - 0.5) < _TIE)


def _digits(n):
    """N's 17 digits in ASCII, the lead one at byte _P of a _SLOT-byte row
    (0 bytes around them), flattened; and the count of significant digits
    (trailing zeros dropped; 1 for N = 0)."""
    g = np.empty((5, n.size), np.int64)  # the lead digit, the four groups of the other 16
    top = n // 10 ** 8
    g[0] = top // 10 ** 8
    halves = np.stack([top - g[0] * 10 ** 8, n - top * 10 ** 8])
    np.floor_divide(halves, 10 ** 4, out=g[1::2])
    np.subtract(halves, g[1::2] * 10 ** 4, out=g[2::2])
    digits = np.zeros((n.size, _SLOT // 4), np.uint32)
    lead = (_P - 3) // 4  # the lead group, "000d", puts d at byte _P = 4 lead + 3
    digits[:, lead:lead + 5] = np.take(_GROUPS, g).T
    g[1:] += _GROUP_AT  # rows of _UPTO
    return digits.view(np.uint8).ravel(), np.max(np.take(_UPTO, g[1:]), axis=0)


def _format17(v):
    """The bytes of ``"%.17g" % x`` for every x of the 1-d float array
    ``v``, one _SLOT-byte slot per value, shape ``(v.size, _SLOT)``.

    For 1e-40 <= |x| < 1e40: X = floor(log10 |x|) and N = round(|x|
    10^(16 - X)) (:func:`_scaled`).  N's digits come from
    :func:`_digits`; where they go, and the other bytes, from the rows
    of the layout tables for (X, significant digits).  +-0 is laid out
    as "0" with its sign.  A value outside that range, a NaN or an
    infinity, a fraction within _TIE of 1/2 (exact ties included) and
    an N of the wrong length (log10 rounded across a power of ten) are
    formatted by "%.17g", one at a time."""
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    n, unsure = _scaled(a, x)
    # +-0 and the cells "%.17g" formats take the layout of "0"
    other = ~fast | unsure
    n[other] = 0
    digits, nd = _digits(n)
    nd[other] = 1
    key = (x - _X_LO) * 17 + nd - 1
    out = np.take(_TEXT, key, axis=0)
    flat = out.ravel()
    mask = np.take(_AHEAD, key, axis=0).ravel()
    mask &= digits
    flat |= mask
    del mask  # one mask at a time: the block's memory peaks here
    mask = np.take(_AFTER, key, axis=0).ravel()
    mask[1:] &= digits[:-1]  # each digit one byte on
    flat |= mask
    neg = np.flatnonzero(np.signbit(v))
    out[neg, np.take(_SIGN_AT, key[neg])] = ord("-")
    other = np.flatnonzero(other)
    for k in other[v[other] != 0.0].tolist():
        cell = ("%.17g" % v[k]).encode()
        out[k] = 0
        out[k, :len(cell)] = np.frombuffer(cell, np.uint8)
    return out
