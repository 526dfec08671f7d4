"""CSV rows whose float cells are the text repr gives, a block of rows at a time.

repr writes the fewest significant digits that read back to the double,
and of those the nearest.  _shortest finds them for a whole block by exact
integer arithmetic in numpy and leaves to repr each cell it cannot decide.
With x = f 2**(E - 1075) (f the 53-bit significand) and s = 16 -
floor(log10 |x|), X = x 10**s lies in [1e16, 1e17) and equals
4f 5**s / 2**r, r = 1077 - E - s, with 4f 5**s < 2**118 formed as two
uint64 words.  The reals that round to x are those inside
(X - dl, X + dh), dh = 2 5**s / 2**r, dl the same or, at a power of two,
half of it.  For |x| in [2**-36, 2**52), s is 1..27 (5**s < 2**64) and r
is 2..63, so neither bound is an integer and whether the interval is
closed never matters.  The digits are X rounded half up to 10**k, for
the largest k with a multiple of 10**k inside: floor(lower / 10**k) <
floor(upper / 10**k).  Left to repr: |x| outside that range (zero
excepted), nan, inf, an exact half at the rounding, and a rounding that
leaves the interval or [1e16, 1e17) (x is the double nearest a power of
ten, and s is one short).
"""

from __future__ import annotations

import functools

import numpy as np

_SLOT = 48  # bytes of a cell's text: six 8-byte words, the superset of every repr form
_SEP = 44  # the byte of the separator after it
_E_LO, _E_HI = 987, 1074  # biased exponents of [2**-36, 2**52)


@functools.cache
def _cell_tables():
    """Per biased exponent E: the power of ten inside E's binade (inf if
    none) as its bits shifted left by one, which order like |x|, and s and
    r at the binade's foot; 5**s and its 32-bit halves; 10**k;
    the 8-byte words of a slot, which are the groups "d.d.d.d." of four
    digits, then "-0.000d." for each leading digit d, then "e-" with the
    exponent digits of each s and the separator, ',' and then a newline;
    and the mask words of the bytes kept by each (s, digit count, 0 for
    zero; sign)."""
    thr = np.full(2048, np.inf)
    s_hi = np.ones(2048, np.intp)
    for e in range(_E_LO, _E_HI + 1):
        b = e - 1022  # the binade is [2**(b - 1), 2**b), k = floor(log10 2**(b - 1)) + 1
        k = len(str(2 ** (b - 1))) if b > 0 else len(str(5 ** (1 - b))) + b - 1
        s_hi[e] = 17 - k
        if 10 ** max(k, 0) * 2 ** max(-b, 0) < 2 ** max(b, 0) * 10 ** max(-k, 0):
            thr[e] = float(f"1e{k}")  # 10**k < 2**b
    r_hi = (1077 - np.arange(2048) - s_hi).clip(2, 63).astype(np.uint8)
    pow5 = np.array([5**s for s in range(28)], dtype=np.uint64)
    ends = b"".join(b"-0.000%d." % d for d in range(10))
    ends += b"".join(b"e-%02d%c\0\0\0" % (abs(16 - s), c) for c in b",\n" for s in range(28))
    words = np.full(80000 + len(ends), ord("."), np.uint8)
    words[80000:] = np.frombuffer(ends, np.uint8)
    for j, d in enumerate((1000, 100, 10, 1)):
        words[2 * j:80000:8] = np.arange(10000, dtype=np.uint16) // d % 10 + ord("0")
    s, nd, neg, p = np.ix_(range(28), range(18), range(2), range(_SLOT))
    point = 17 - s  # the decimal point's place after the first digit
    i, dot = (p - 6) // 2, (p >= 6) & (p % 2 == 1)  # digit i at byte 6 + 2i, a dot after it
    digit = (p >= 6) & ~dot & (p < 40)
    below_one = (p == 1) | (p == 2) | ((p >= 3) & (p < 3 - point)) | (digit & (i < nd))
    above_one = (digit & (i < np.maximum(nd, point + 1))) | (dot & (i == point - 1))
    exponent = (digit & (i < nd)) | (dot & (i == 0) & (nd > 1)) | ((p >= 40) & (p < _SEP))
    keep = np.where(point <= -4, exponent, np.where(point > 0, above_one, below_one)) & (nd > 0)
    keep = keep | ((nd == 0) & (p >= 1) & (p <= 3)) | ((p == 0) & (neg == 1)) | (p == _SEP)
    return (thr.view(np.uint64) << 1, s_hi, r_hi, pow5, pow5 >> 32, pow5 & 0xFFFFFFFF,
            10 ** np.arange(18, dtype=np.uint64), words.view(np.uint64),
            (keep * np.uint8(255)).reshape(-1, _SLOT).view(np.uint64))


def _shortest(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(M, k, s, ok) of the floats v: where ok, repr's digits of v are the
    17 - k leading digits of M, and |v| = M 10**-s; zero is not ok.
    Temporaries are deleted once used: they bound the writer's memory."""
    thr, s_hi, r_hi, pow5, p5hi, p5lo, ten = _cell_tables()[:7]
    bits = v.view(np.uint64)
    E = (bits << 1 >> 53).view(np.intp)  # numpy converts any other index type on every gather
    ok = E.view(np.uintp) - _E_LO <= _E_HI - _E_LO  # unsigned: below _E_LO wraps high
    ge = bits << 1 >= thr.take(E)
    s, r = s_hi.take(E) - ge, r_hi.take(E) + ge
    del E, ge
    # 4f 5**s = hi 2**64 + lo, from the 32-bit halves of 4f and 5**s
    a0 = (bits << 12 >> 10) | (1 << 54)
    a1 = a0 >> 32
    a0 &= 0xFFFFFFFF
    b0, b1 = p5lo.take(s), p5hi.take(s)
    mid = a1 * b0
    mid += a0 * b1
    hi = a1 * b1
    lo = a0 * b0
    del a0, a1, b0, b1
    b0 = lo + (mid << 32)
    hi += (b0 < lo) + (mid >> 32)
    lo = b0
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
    del hi, lo, r, rc, d, b0, mid
    k = sum((lower // ten[j] < upper // ten[j]).view(np.uint8) for j in (1, 2, 3))
    k = k.astype(np.intp)
    more = np.flatnonzero((k == 3) & ok)
    if more.size:  # short decimals
        k[more] += (lower[more, None] // ten[4:] < upper[more, None] // ten[4:]).sum(axis=1)
    unit = ten.take(k)
    half = twice + unit
    M = half // (unit << 1) * unit
    ok &= (twice - 2 * 10**16 < 18 * 10**16) & (M > lower) & (M <= upper) & (M < 10**17)
    ok &= (M << 1 != half) | inexact  # 2X + 10**k = 2M is a tie
    return M, k, s, ok


def _float_cells(v: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """The slots of the floats v, a block's cells row by row over ncols
    columns, as (len(v), _SLOT) bytes whose nonzero bytes are repr's text
    and the separator (a newline after the last column), and the indices
    of the cells left to repr, whose slots hold the separator alone."""
    words, keep_rows = _cell_tables()[7:]
    M, k, s, ok = _shortest(v)
    zero = v.view(np.uint64) << 1 == 0
    todo = np.flatnonzero(~(ok | zero))
    row = s * 36 + (34 - 2 * k) + np.signbit(v)
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
    idx[5].reshape(-1, ncols)[:, -1] += 28
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


def block_text(cols: list[np.ndarray | list[str]]) -> str:
    """The CSV rows of equally long numpy and string columns."""
    ncols = len(cols)
    values = np.zeros((len(cols[0]), ncols))
    for j, col in enumerate(cols):
        if isinstance(col, np.ndarray):
            values[:, j] = col
    values = values.ravel()
    chars, todo = _float_cells(values, ncols)
    for j, col in enumerate(cols):
        if not isinstance(col, np.ndarray):
            _put_text(chars[j::ncols], col)
    if todo.size:
        # .tolist() gives Python floats: numpy 2 scalars repr as np.float64(...)
        _put_text(chars, [repr(x) for x in values[todo].tolist()], todo)
    return chars.tobytes().translate(None, b"\0").decode()
