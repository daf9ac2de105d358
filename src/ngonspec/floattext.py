"""The text of "%.17g" % v for every value of a float64 array, built with
array arithmetic instead of one format call per value.

A double x in [1e-4, 2] is m / 2**s with m < 2**53. Its 17 significant
digits are D = m * 5**k / 2**(s - k) rounded to an integer, for k = 16 -
floor(log10 x); m * 5**k < 2**102 is carried in two uint64 halves, and a
tie rounds to even, as CPython's correctly rounded conversion does. The
rounded value's decimal exponent lies in -4..0, where %g writes fixed
notation: "0.000ddd" down to "d.ddd", trailing zeros and a bare point
dropped. Values outside the range go through the % operator.
"""

from __future__ import annotations

import numpy as np

LOW, HIGH = 1e-4, 2.0  # values converted with array arithmetic
CHUNK = 2 ** 12  # values per pass; a pass holds about 150 bytes per value
_POW5 = np.array([5 ** k for k in range(22)], dtype=np.uint64)
_HALF = np.uint64(32)
_LOW_HALF = np.uint64(2 ** 32 - 1)
_ONE = np.uint64(1)
# (v * _TENTH) >> _TENTH_SHIFT is v // 10 for every v < 2**32
_TENTH, _TENTH_SHIFT = np.uint64(0xCCCCCCCD), np.uint64(35)
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


def _fixed(x: np.ndarray) -> str:
    """"%.17g\\n" % v for every v of x, each in [LOW, HIGH], joined."""
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
    # the digits, one row per position: 9 from the low part, 8 from the
    # high, each split off by an exact multiply-shift division by 10
    digits = np.empty((17, len(d)), dtype=np.uint8)
    high = d // np.uint64(10 ** 9)
    for part, rows in ((d - high * np.uint64(10 ** 9), range(16, 7, -1)),
                       (high, range(7, -1, -1))):
        for j in rows:
            quotient = (part * _TENTH) >> _TENTH_SHIFT
            digits[j] = part - quotient * np.uint64(10)
            part = quotient
    row = 20 - k  # the decimal exponent 16 - k, plus 4
    text = np.zeros((23, len(d)), dtype=np.uint8)  # one column per value
    text[:6] = np.take(_LEAD.T, row, axis=1)
    text[_FIRST[row], np.arange(len(d))] = digits[0] + 48
    kept = digits[1:] != 0  # up to the last nonzero digit
    for j in range(14, -1, -1):
        kept[j] |= kept[j + 1]
    text[6:22] = (digits[1:] + 48) * kept
    text[1, (row == 4) & ~kept[0]] = 0  # "d." is written "d"
    text[22] = ord("\n")
    chars = text.T.ravel()
    return chars[chars != 0].tobytes().decode("ascii")


def g17(values: np.ndarray) -> list[str]:
    """"%.17g" % v for every v of a 1-D float64 array."""
    fast = (values >= LOW) & (values <= HIGH)
    inside = np.where(fast, values, 1.0)
    texts = "".join(_fixed(inside[start:start + CHUNK])
                    for start in range(0, len(inside), CHUNK)).split("\n")
    del texts[-1]
    for i in np.flatnonzero(~fast).tolist():
        texts[i] = "%.17g" % values[i]
    return texts
