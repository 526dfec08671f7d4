"""CSV rows whose float cells are the text repr gives, a block of rows at a time.

repr writes the fewest significant digits that read back to the double,
and of those the nearest.  _shortest finds them for a whole block by exact
integer arithmetic in numpy and leaves to repr each cell it cannot decide.
With x = f 2**(E - 1075) (f the 53-bit significand; a subnormal's f lacks
the leading bit and takes E = 1) and s = 16 - floor(log10 |x|), X = x 10**s
lies in [1e16, 1e17) and equals 4f 5**s / 2**r, r = 1077 - E - s.  The
reals that round to x are those inside (X - dl, X + dh), dh = 2 5**s / 2**r,
dl the same or, at a power of two above 2**-1022, half of it.  For |x| in
[2**-36, 2**52), s is 1..27 (5**s < 2**63) and r is 2..63, and 4f 5**s <
2**118 is formed as two uint64 words.  Below 2**-36, down to 5e-324, s is
27..340 and r is 64 or more: the bounds and floor(2X), floor(m 5**s / 2**r)
for m = 4f - 2 (or - 1), 4f + 2 and 8f, come from the leading 125 bits of
5**s, a truncation that moves no floor for any (s, r) used and any m of a
double in that binade (the bound Ryu's d2s proves for its own shifts,
Adams, PLDI 2018; tests/test_csvtext.py proves it for these by a modular
minimum).  Neither bound is an integer, so whether the interval is closed
never matters.  The digits are X rounded half up to 10**k, for the largest
k with a multiple of 10**k inside: floor(lower / 10**k) < floor(upper /
10**k); an X that rounds to 1e17 is the digit 1 at the next power of ten.
s is exact: |x| is compared with the least double at or above the power of
ten in its binade.  Left to repr: |x| of 2**52 or more, nan, inf, an exact
half at the rounding (none below 2**-36, where 2X is never an integer), and
a rounding that leaves the interval.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SLOT = 48  # bytes of a cell's text: six 8-byte words, the superset of every repr form
_SEP = 47  # the byte of the separator after it, the last of the exponent word
_E_LO, _E_HI = 987, 1074  # biased exponents of [2**-36, 2**52)
_TAIL = (_E_LO << 53) - 1  # 0 < |x| < 2**-36 where (bits << 1) - 1 < _TAIL
_E0 = 64  # the tail tables take the biased exponent of |x| 2**64: E at E + _E0
_S_END = 341  # s runs 0..340; 5e-324 takes 340
_S_EXP = 21  # from this s on (|x| < 1e-4) repr writes an exponent


@functools.cache
def _cell_tables():
    """Per biased exponent E: the least double at or above the power of
    ten inside E's binade (inf if none) as its bits shifted left by one,
    which order like |x|, and s and r at the binade's foot; 5**s and its
    32-bit halves; 10**k; the 8-byte words of a slot, which are the groups
    "d.d.d.d." of four digits, then "-0.000d." for each leading digit d,
    then "e-" with the exponent digits of each s and the separator, ',' and
    then a newline, right-aligned; the mask words of the bytes kept by each
    (s up to _S_EXP, digit count, 0 for zero; sign); and for the tail, the
    binade tables by the biased exponent of |x| 2**64 (a subnormal's binade
    has one), then per s the shift of the leading 125 bits of 5**s and the
    32-bit halves of its two 63-bit words."""
    e = np.arange(_E0 + 2048)
    b = e - _E0 - 1022  # the binade is [2**(b - 1), 2**b)
    # k = floor(log10 2**(b - 1)) + 1, and the binade holds 10**k where
    # k < b log10(2): exact in floats, as no n log10(2) with 0 < |n| < 2136
    # lies within 4e-4 of an integer
    k = np.floor((b - 1) * math.log10(2)).astype(np.intp) + 1
    s_hi = 17 - k
    thr = np.full(len(e), np.inf)
    powers = np.flatnonzero((b * math.log10(2) > k) & (e >= 13) & (e <= _E0 + _E_HI))
    for i, n in zip(powers, k[powers].tolist()):
        t = float(f"1e{n}")
        num, den = t.as_integer_ratio()
        if num * 10 ** max(-n, 0) < den * 10 ** max(n, 0):  # the least double >= 10**n
            t = math.nextafter(t, math.inf)
        thr[i] = t
    r_tail = 1077 - np.maximum(e - _E0, 1) - s_hi
    thr = thr.view(np.uint64) << 1
    E = e[:2048]
    s_win = np.where((E >= _E_LO) & (E <= _E_HI), s_hi[_E0:], 1)
    r_hi = (1077 - E - s_win).clip(2, 63).astype(np.uint8)
    pow5 = np.array([5**s for s in range(28)], dtype=np.uint64)
    lead, shift = zip(*((5**s << 125 >> (5**s).bit_length(), (5**s).bit_length() - 125)
                        for s in range(_S_END)))
    lead = np.array([(p >> 63, p & (2**63 - 1)) for p in lead], dtype=np.uint64).T
    ends = b"".join(b"-0.000%d." % d for d in range(10))
    ends += b"".join((b"e-%02d%c" % (abs(16 - s), c)).rjust(8, b"\0")
                     for c in b",\n" for s in range(_S_END))
    words = np.full(80000 + len(ends), ord("."), np.uint8)
    words[80000:] = np.frombuffer(ends, np.uint8)
    for j, d in enumerate((1000, 100, 10, 1)):
        words[2 * j:80000:8] = np.arange(10000, dtype=np.uint16) // d % 10 + ord("0")
    s, nd, neg, p = np.ix_(range(_S_EXP + 1), range(18), range(2), range(_SLOT))
    point = 17 - s  # the decimal point's place after the first digit
    i, dot = (p - 6) // 2, (p >= 6) & (p % 2 == 1)  # digit i at byte 6 + 2i, a dot after it
    digit = (p >= 6) & ~dot & (p < 40)
    below_one = (p == 1) | (p == 2) | ((p >= 3) & (p < 3 - point)) | (digit & (i < nd))
    above_one = (digit & (i < np.maximum(nd, point + 1))) | (dot & (i == point - 1))
    exponent = (digit & (i < nd)) | (dot & (i == 0) & (nd > 1)) | ((p >= 40) & (p < _SEP))
    keep = np.where(point <= -4, exponent, np.where(point > 0, above_one, below_one)) & (nd > 0)
    keep = keep | ((nd == 0) & (p >= 1) & (p <= 3)) | ((p == 0) & (neg == 1)) | (p == _SEP)
    return (thr[_E0:], s_win, r_hi, pow5, pow5 >> 32, pow5 & 0xFFFFFFFF,
            10 ** np.arange(19, dtype=np.uint64), words.view(np.uint64),
            (keep * np.uint8(255)).reshape(-1, _SLOT).view(np.uint64),
            thr, s_hi, r_tail, np.array(shift, np.intp),
            lead[0] >> 32, lead[0] & 0xFFFFFFFF, lead[1] >> 32, lead[1] & 0xFFFFFFFF)


def _mul(a1, a0, b1, b0) -> tuple[np.ndarray, np.ndarray]:
    """The high and low uint64 words of (a1 2**32 + a0)(b1 2**32 + b0),
    from 32-bit halves, for a factor below 2**56 and one below 2**63."""
    mid = a1 * b0
    mid += a0 * b1
    hi = a1 * b1
    lo = a0 * b0
    b0 = lo + (mid << 32)
    hi += (b0 < lo) + (mid >> 32)
    return hi, b0


def _tail_bounds(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """((lower, upper, twice), s) of the floats v, 0 < |v| < 2**-36, from
    the leading 125 bits P of 5**s: floor(m P / 2**j) = floor(m 5**s / 2**r)."""
    thr, s_hi, r_hi, shift, p1hi, p1lo, p0hi, p0lo = _cell_tables()[9:]
    bits = v.view(np.uint64)
    e = ((v * 2.0**64).view(np.uint64) << 1 >> 53).view(np.intp)
    ge = bits << 1 >= thr.take(e)
    s = s_hi.take(e) - ge
    j = (r_hi.take(e) + ge - shift.take(s)).astype(np.uint8)  # 71..126
    E = bits << 1 >> 53
    a = bits << 12 >> 10
    a[E > 0] |= 1 << 54
    m = np.stack((a - 2, a + 2, a << 1))  # lower, upper and twice are floor(m 5**s / 2**r)
    m[0, (bits << 12 == 0) & (E > 1)] += 1  # dl: half of dh at a power of two
    m1, m0 = m >> 32, m & 0xFFFFFFFF
    h1, l1 = _mul(m1, m0, p1hi.take(s), p1lo.take(s))
    h0, l0 = _mul(m1, m0, p0hi.take(s), p0lo.take(s))
    # floor(m P / 2**63) = (h1 2**64 + l1) + 2 h0 + l0 // 2**63, as hi 2**64 + lo
    lo = l1 + ((h0 << 1) | (l0 >> 63))
    hi = h1 + (lo < l1)
    return (lo >> (j - 63)) | (hi << (127 - j)), s


def _shortest(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(M, k, s, ok) of the floats v: where ok, repr's digits of v are the
    17 - k leading digits of M, and |v| = M 10**-s; zero is not ok.
    Temporaries are deleted once used: they bound the writer's memory."""
    thr, s_hi, r_hi, pow5, p5hi, p5lo, ten = _cell_tables()[:7]
    bits = v.view(np.uint64)
    mag = bits << 1  # ordered like |v|
    E = (mag >> 53).view(np.intp)  # numpy converts any other index type on every gather
    ge = mag >= thr.take(E)
    mag -= 1  # zero wraps high
    ok = mag < ((_E_HI + 1) << 53) - 1  # 0 < |v| < 2**52
    tail = np.flatnonzero(mag < _TAIL)
    del mag
    s, r = s_hi.take(E) - ge, r_hi.take(E) + ge
    del E, ge
    a0 = (bits << 12 >> 10) | (1 << 54)  # 4f
    hi, lo = _mul(a0 >> 32, a0 & 0xFFFFFFFF, p5hi.take(s), p5lo.take(s))
    del a0
    # upper = floor(X + dh), lower = floor(X - dl) and twice = floor(2X)
    rc = 64 - r
    d = pow5.take(s) << 1  # dh 2**r
    b0 = lo + d
    upper = (b0 >> r) | ((hi + (b0 < lo)) << rc)
    d >>= bits << 12 == 0  # dl 2**r, half of dh at a power of two
    lower = ((lo - d) >> r) | ((hi - (lo < d)) << rc)
    rc += 1
    twice = (lo >> (r - 1)) | (hi << rc)
    inexact = lo << rc != 0  # 2X is not an integer
    del hi, lo, r, rc, d, b0
    if tail.size:
        (lower[tail], upper[tail], twice[tail]), s[tail] = _tail_bounds(v.take(tail))
        inexact[tail] = True
    k = sum((lower // ten[j] < upper // ten[j]).view(np.uint8) for j in (1, 2, 3))
    k = k.astype(np.intp)
    more = np.flatnonzero((k == 3) & ok)
    if more.size:  # short decimals: the test is monotone in k, so bisect from k = 3
        lo, up, a = lower.take(more), upper.take(more), k.take(more)
        for step in (8, 4, 2, 1):  # up to k = 18: 10**18 exceeds every upper
            b = a + step
            unit = ten.take(b)
            a = np.where(lo // unit < up // unit, b, a)
        k[more] = a
        more = more[a == 17]  # M = 10**17: the digit 1 at the next power of ten
    unit = ten.take(k)
    half = twice + unit
    M = half // (unit << 1) * unit
    ok &= (M > lower) & (M <= upper)
    ok &= (M << 1 != half) | inexact  # 2X + 10**k = 2M is a tie
    if more.size:
        M[more], k[more], s[more] = 10**16, 16, s[more] - 1
    return M, k, s, ok


def _float_cells(v: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """The slots of the floats v, a block's cells row by row over ncols
    columns, as (len(v), _SLOT) bytes whose nonzero bytes are repr's text
    and the separator (a newline after the last column), and the indices
    of the cells left to repr, whose slots hold the separator alone."""
    words, keep_rows = _cell_tables()[7:9]
    M, k, s, ok = _shortest(v)
    zero = v.view(np.uint64) << 1 == 0
    todo = np.flatnonzero(~(ok | zero))
    row = np.minimum(s, _S_EXP) * 36 + (34 - 2 * k) + np.signbit(v)
    row[zero] = np.signbit(v[zero])
    # word indices of the slots, word by word: the leading digit, four
    # groups, the exponent with the separator
    idx = np.empty((6, len(v)), np.intp)
    x = M // 10**8
    np.subtract(M, x * 10**8, out=idx[4])
    del M
    np.floor_divide(x, 10**8, out=idx[0])
    np.remainder(x, 10**8, out=idx[2])
    del x
    idx[0] += 10000
    halves = idx[2::2][:2]
    np.floor_divide(halves, 10000, out=idx[1::2][:2])
    halves -= idx[1::2][:2] * 10000
    np.add(s, 10010, out=idx[5])
    idx[5].reshape(-1, ncols)[:, -1] += _S_END
    chars = np.take(words, idx.T)
    del idx
    chars &= keep_rows.take(row, axis=0)
    chars = chars.view(np.uint8)
    chars[todo, :_SEP] = 0
    return chars, todo


def _put_text(chars: np.ndarray, texts: list[str], where=slice(None)) -> None:
    """Write the ASCII texts over the slots chars[where], before the separator."""
    b = np.array(texts, dtype="S")
    chars[where, :_SEP] = 0
    chars[where, :b.itemsize] = b.view(np.uint8).reshape(len(texts), b.itemsize)


def block_text(cols: list[np.ndarray | list[str] | float]) -> bytes:
    """The CSV rows of equally long numpy and string columns, then of any
    one-value columns: floats whose text ends every row, formed once."""
    ncols = next((j for j, col in enumerate(cols) if isinstance(col, float)), len(cols))
    if not all(isinstance(col, float) for col in cols[ncols:]):
        raise TypeError("a one-value float column must follow every array and string column")
    values = np.zeros((len(cols[0]), ncols))
    for j, col in enumerate(cols[:ncols]):
        if isinstance(col, np.ndarray):
            values[:, j] = col
    values = values.ravel()
    chars, todo = _float_cells(values, ncols)
    for j, col in enumerate(cols[:ncols]):
        if not isinstance(col, np.ndarray):
            _put_text(chars[j::ncols], col)
    if todo.size:
        # .tolist() gives Python floats: numpy 2 scalars repr as np.float64(...)
        _put_text(chars, [repr(x) for x in values[todo].tolist()], todo)
    text = chars.tobytes().translate(None, b"\0")
    if ncols < len(cols):
        text = text.replace(b"\n", b"".join(b",%a" % float(x) for x in cols[ncols:]) + b"\n")
    return text
