"""The text of "%.17g" % v for every value of a float64 array, and of
str(v) for every value of an int64 array, built with array arithmetic
instead of one format call per value. The text is a uint8 matrix, one row
per value, whose rows hold their characters in order with zero bytes
between and after them: dropping every zero byte leaves the texts joined.

A double x in [1e-4, 2] is m / 2**s with m < 2**53. Its 17 significant
digits are D = m * 5**k / 2**(s - k) rounded to an integer, for k = 16 -
floor(log10 x); m * 5**k < 2**102 is carried in two uint64 halves, and a
tie rounds to even, as CPython's correctly rounded conversion does. The
rounded value's decimal exponent lies in -4..0, where %g writes fixed
notation: "0.000ddd" down to "d.ddd", trailing zeros and a bare point
dropped. A negative value in range is written as its size after a "-";
other values go through the % operator. Digits come four at a time from a
table of "0000".."9999".
"""

from __future__ import annotations

import numpy as np

LOW, HIGH = 1e-4, 2.0  # values converted with array arithmetic
CHUNK = 2 ** 12  # values per pass; a pass holds about 150 bytes per value
WIDTH = 23  # the longest text in range: "-0.000" and 17 digits
_POW5 = np.array([5 ** k for k in range(22)], dtype=np.uint64)
_HALF = np.uint64(32)
_LOW_HALF = np.uint64(2 ** 32 - 1)
_ONE = np.uint64(1)
_E4, _E8, _E16 = np.uint64(10 ** 4), np.uint64(10 ** 8), np.uint64(10 ** 16)
# the text "0000".."9999", one column per number
_QUADS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")
# Text before the first digit's tail, by decimal exponent -4..0, with the
# first digit's column; a zero byte is no character.
_LEAD = np.frombuffer(b"0.000\0" b"0.00\0\0" b"0.0\0\0\0" b"0.\0\0\0\0"
                      b"\0.\0\0\0\0", dtype=np.uint8).reshape(5, 6)
_FIRST = np.array([5, 4, 3, 2, 0])


def _rounded(m, s, k):
    """m * 10**k / 2**s rounded half to even, for uint64 m < 2**53,
    k < 22 and 0 < s - k < 64, when the result is below 2**64."""
    c = _POW5[k]
    m1, m0, c1, c0 = m >> _HALF, m & _LOW_HALF, c >> _HALF, c & _LOW_HALF
    mid = m1 * c0 + m0 * c1
    part = m0 * c0
    low = part + ((mid & _LOW_HALF) << _HALF)
    high = m1 * c1 + (mid >> _HALF) + (low < part)
    shift = (s - k).astype(np.uint64)  # 10**k / 2**s = 5**k / 2**(s - k)
    d = (high << (np.uint64(64) - shift)) | (low >> shift)
    rest, half = low & ((_ONE << shift) - _ONE), _ONE << (shift - _ONE)
    return d + ((rest > half) | ((rest == half) & (d & _ONE).astype(bool)))


def _fixed(x: np.ndarray, text: np.ndarray) -> None:
    """Write "%.17g" % v for every v of x, each in [LOW, HIGH], into the
    zeroed 22-row matrix text, one column per value."""
    frac, exp = np.frexp(x)
    m = (frac * 2.0 ** 53).astype(np.uint64)  # exact: x = m / 2**s
    s = 53 - exp.astype(np.int64)
    k = 16 - np.floor(np.log10(x)).astype(np.int64)
    d = _rounded(m, s, k)
    # log10 may miss by one next to a power of ten, and rounding may carry
    # into one more digit; either leaves D outside [1e16, 1e17)
    for off, step in ((d >= 10 ** 17, -1), (d < 10 ** 16, 1)):
        k[off] += step
        d[off] = _rounded(m[off], s[off], k[off])
    row = 20 - k  # the decimal exponent 16 - k, plus 4
    first = d // _E16
    text[:6] = np.take(_LEAD.T, row, axis=1)
    text[_FIRST[row], np.arange(len(d))] = first + 48
    # the 16 digits after the first, four at a time from "0000".."9999"
    rest = d - first * _E16
    high = rest // _E8
    for j, part in ((6, high), (14, rest - high * _E8)):
        quad = part // _E4
        text[j:j + 4] = np.take(_QUADS, quad, axis=1)
        text[j + 4:j + 8] = np.take(_QUADS, part - quad * _E4, axis=1)
    kept = text[6:] != ord("0")  # up to the last nonzero digit
    for j in range(14, -1, -1):
        kept[j] |= kept[j + 1]
    text[6:] *= kept
    text[1, (row == 4) & ~kept[0]] = 0  # "d." is written "d"


def g17(values: np.ndarray) -> np.ndarray:
    """"%.17g" % v for every v of a 1-D float64 array, one zero-padded
    uint8 row per value: WIDTH bytes wide, wider when a value outside
    +-[LOW, HIGH] has a longer text. The rows are a transposed view."""
    size = np.abs(values)
    fast = (size >= LOW) & (size <= HIGH)
    slow = np.flatnonzero(~fast)
    other = np.array(["%.17g" % v for v in values[slow].tolist()], dtype=bytes)
    height = max(WIDTH, other.itemsize)
    text = np.zeros((height, len(values)), dtype=np.uint8)
    if len(slow) < len(values):
        text[0] = (values < 0) * ord("-")
        inside = np.where(fast, size, 1.0)
        for start in range(0, len(inside), CHUNK):
            _fixed(inside[start:start + CHUNK],
                   text[1:WIDTH, start:start + CHUNK])
    # whole columns, over the text of the stand-in 1.0
    text[:, slow] = other.astype(f"S{height}").view(np.uint8).reshape(
        len(slow), height).T
    return text.T


def decimal(ints: np.ndarray) -> np.ndarray:
    """str(v) for every v of a 1-D int64 array, one zero-padded uint8 row
    per value; its digits come four at a time from "0000".."9999"."""
    size = np.abs(ints).astype(np.uint64)  # -2**63 wraps to 2**63
    width = 4 * -(-len(str(size.max(initial=0))) // 4)
    text = np.zeros((width + 1, len(ints)), dtype=np.uint8)
    text[0] = (ints < 0) * ord("-")
    for j in range(1, width):
        text[j] = size >= 10 ** (width - j)  # drops leading zeros
    text[width] = 1  # but not the last digit
    for j in range(width - 3, 0, -4):
        text[j:j + 4] *= np.take(_QUADS, size % _E4, axis=1)
        size //= _E4
    return text.T
