"""The CSV writer's float cells are repr's text, byte for byte."""

import itertools
import math
import os

import numpy as np
import pytest

from isingbath import cli, csvtext
from isingbath.cli import EXIT_OK, main
from isingbath.csvtext import block_text


def _repr_rows(cols):
    """The rows as the writer once formed them: one repr call per float cell,
    a one-value column's on every row."""
    # .tolist() gives Python floats: numpy 2 scalars repr as np.float64(...)
    cells = [itertools.repeat(repr(c)) if isinstance(c, float)
             else map(repr, c.tolist()) if isinstance(c, np.ndarray) else c for c in cols]
    return "".join(",".join(row) + "\n" for row in zip(*cells)).encode()


def _families(rng):
    """~1.3e6 doubles: the kernel's whole range, its edges and what it leaves to repr."""
    n = 110_000
    decades = [10.0 ** np.arange(-330, 309.0), 2.0 ** np.arange(-1074, 1024.0)]
    steps = [np.nextafter(x, d) for x in decades for d in (0.0, np.inf)]
    ties = np.ldexp(1.0 + rng.integers(0, 2**20, n) / 2.0 ** rng.integers(8, 30, n),
                    rng.integers(-40, 56, n))  # few significant bits: exact halves
    # below 2**-36: every binade down to the subnormals, whose significands
    # take every bit length
    exponents = rng.integers(0, csvtext._E_LO, 2 * n, dtype=np.uint64)
    sub = np.maximum(rng.integers(1, 2**52, n // 5, dtype=np.uint64)
                     >> rng.integers(0, 52, n // 5, dtype=np.uint64), 1)
    return {
        "bit patterns": rng.integers(0, 2**64, n // 5, dtype=np.uint64).view(np.float64),
        "normal": rng.normal(size=3 * n + n // 3) * 10.0 ** rng.integers(-14, 18, 3 * n + n // 3),
        "time grids": np.linspace(0.0, 64.0, n) / -0.7,
        "decays": np.exp(-np.linspace(0.0, 40.0, n)) * np.cos(np.linspace(0.0, 90.0, n)),
        "short decimals": np.rint(rng.uniform(-1e8, 1e8, n)) / 10.0 ** (np.arange(n) % 12),
        "integers": rng.integers(-(2**53), 2**53, n).astype(float),
        "powers and neighbours": np.concatenate([x * sign for x in decades + steps
                                                 for sign in (1.0, -1.0)]),
        "ties": np.concatenate([ties, -ties]),
        "tail bit patterns": (rng.integers(0, 2, 2 * n, dtype=np.uint64) << 63 | exponents << 52
                              | rng.integers(0, 2**52, 2 * n, dtype=np.uint64)).view(np.float64),
        "subnormals": np.concatenate([sub, sub | 1 << 63]).view(np.float64),
        # both sides of repr's switch to an exponent at 1e-4 and 1e16, of
        # the kernel's fast range [2**-36, 2**52) and of the subnormals,
        # plus what it never decides
        "edges": np.array([
            1e-4, np.nextafter(1e-4, 0), 1e-5, np.nextafter(1e-5, 1), 1e16, np.nextafter(1e16, 0),
            9999999999999998.0, 2.0**-36, np.nextafter(2.0**-36, 0), 2.0**52,
            np.nextafter(2.0**52, 0), 1e-11, np.nextafter(1e-11, 1), 0.0, -0.0, np.inf,
            -np.inf, np.nan, 5e-324, 1e-323, -2.2250738585072014e-308, 2.0**-1022,
            np.nextafter(2.0**-1022, 0), np.nextafter(2.0**-1022, 1), 1.7976931348623157e308]),
    }


def test_cells_are_the_bytes_of_repr():
    rng = np.random.default_rng(20)
    families = _families(rng)
    tail = np.concatenate(list(families.values()))
    tail = tail[(tail != 0) & (np.abs(tail) < 2.0**-36)]
    assert len(tail) >= 200_000
    for name, values in families.items():
        for lo in range(0, len(values), 2048):
            col = values[lo:lo + 2048]
            assert block_text([col]) == ("\n".join(map(repr, col.tolist())) + "\n").encode(), name


def _modular_minimum(a, b, n):
    """min of a x mod b over 1 <= x <= n, for coprime 0 < a < b and n < b:
    the Euclid walk over the record lows (a xl = vl) and highs (a xh = -vh)."""
    xl, vl, xh, vh = 1, a, 0, b
    while True:
        q = (vh - 1) // vl
        xh, vh = xh + q * xl, vh - q * vl
        if xh > n - xl:
            return vl
        q = min((vl - 1) // vh, (n - xl) // xh)
        if q == 0:
            return vl
        xl, vl = xl + q * xh, vl - q * vh


def test_the_modular_minimum_is_the_least_residue():
    rng = np.random.default_rng(3)
    for _ in range(3000):
        b = int(rng.choice([rng.integers(2, 4000), 2 ** rng.integers(2, 12)]))
        a = int(rng.integers(1, b))
        if math.gcd(a, b) == 1:
            n = int(rng.integers(1, b))
            assert _modular_minimum(a, b, n) == min(a * x % b for x in range(1, n + 1))


def test_the_tail_tables_move_no_floor():
    # the kernel forms floor(m P / 2**j) for floor(m 5**s / 2**r), P the
    # leading 125 bits of 5**s, with m = 4f - dl, 4f + dh or 8f: equal
    # when 5**s - P 2**(r - j) = cut and m cut <= (m 5**s mod 2**r) for
    # every such m
    thr, s_hi, r_hi, shift, p1hi, p1lo, p0hi, p0lo = csvtext._cell_tables()[9:]
    no_power = np.float64(np.inf).view(np.uint64) << 1
    # every binade below 2**-36, a subnormal's by its significand's bit length
    for e in range(13, csvtext._E0 + csvtext._E_LO):
        n = 2 ** ((53 if e > csvtext._E0 else e - 12) + 3) - 1  # m < 8 * 2**bits
        for ge in (0, 1) if thr[e] != no_power else (0,):
            s = int(s_hi[e]) - ge
            r = 1077 - max(e - csvtext._E0, 1) - s
            j = int(r_hi[e]) + ge - int(shift[s])
            assert 71 <= j <= 126
            p = ((int(p1hi[s]) << 32 | int(p1lo[s])) << 63) | int(p0hi[s]) << 32 | int(p0lo[s])
            assert 2**124 <= p < 2**125
            if r <= j:
                assert p == 5**s << (j - r)
            else:
                cut = 5**s - (p << (r - j))
                assert 0 <= cut < 2 ** (r - j)
                assert _modular_minimum(5**s % 2**r, 2**r, n) >= n * cut, (e, s)


@pytest.mark.parametrize("argv", [
    # T / Tc overflows to inf, beside the phase's string column
    ["phase", "--J", "0.1", "--T", "0.01,0.04,0.05,1e308"],
    ["coherence", "--points", "777", "--T-over-Tc", "0.9", "--t-max", "40"],
    ["concurrence", "--case", "4", "--mode", "finite", "--N", "100", "--points", "555"],
])
def test_each_block_is_the_repr_join_of_its_columns(monkeypatch, argv):
    seen = []

    def spy(cols):
        seen.append((cols, block_text(cols)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "block_text", spy)
    assert main(argv + ["--out", os.devnull]) == EXIT_OK
    for cols, text in seen:
        assert text == _repr_rows(cols)
    if argv[0] == "phase":
        last = seen[0][1].splitlines()[-1].split(b",")
        assert (last[0], last[1], last[-1]) == (b"1e+308", b"inf", b"disordered")


@pytest.mark.parametrize("block_rows", [1, 2])
@pytest.mark.parametrize("argv, tau", [
    (["--T-over-Tc", "0.5"], None),
    (["--J", "2", "--w", "0.1", "--T-over-Tc", "0.05"], math.inf),  # J - Theta rounds to 0
    ([], 2.5e-320),
], ids=["finite", "inf", "subnormal"])
def test_a_one_value_tau_writes_the_bytes_of_a_tau_on_every_row(
        tmp_path, monkeypatch, block_rows, argv, tau):
    if tau is not None and not math.isinf(tau):
        monkeypatch.setattr(cli, "coherence_time", lambda *args: tau)
    seen = []
    write_csv = cli.write_csv
    monkeypatch.setattr(cli, "write_csv", lambda cfg, cols: (seen.append(cols), write_csv(cfg, cols)))
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    out = tmp_path / "c.csv"
    assert main(["coherence", "--points", "7", *argv, "--out", str(out)]) == EXIT_OK
    (cols,) = seen
    assert isinstance(cols["tau"], float) and (tau is None or cols["tau"] == tau)
    header, names, data = out.read_bytes().split(b"\n", 2)
    assert names == b"t,re_r,im_r,abs_r_asymptotic,tau"
    assert data == _repr_rows([*list(cols.values())[:-1], np.full(7, cols["tau"])])


def test_a_one_value_column_before_an_array_column_is_refused():
    col = np.linspace(0.0, 1.0, 5)
    assert block_text([col, 0.5]) == _repr_rows([col, 0.5])
    with pytest.raises(TypeError):
        block_text([col, 0.5, col])
    with pytest.raises(TypeError):
        block_text([col, 0.5, ["a"] * 5])


def _left_to_repr(monkeypatch, argv):
    """(cells, cells left to repr) of the float cells main(argv) writes."""
    counts = []

    def spy(v, ncols):
        chars, todo = float_cells(v, ncols)
        counts.append((len(v), len(todo)))
        return chars, todo

    float_cells = csvtext._float_cells
    monkeypatch.setattr(csvtext, "_float_cells", spy)
    assert main(argv + ["--out", os.devnull]) == EXIT_OK
    return np.sum(counts, axis=0)


def test_few_cells_of_a_coherence_grid_are_left_to_repr(monkeypatch):
    # a kernel that decided fewer cells would still write repr's bytes,
    # slower; tau is one value a file and no kernel column
    cells, left = _left_to_repr(monkeypatch, ["coherence", "--points", "3000"])
    assert cells == 4 * 3000 and left <= 0.1 * cells


def test_a_long_coherence_grid_leaves_no_cell_to_repr(monkeypatch):
    # four cells in five are decayed tails below 2**-36
    cells, left = _left_to_repr(monkeypatch, ["coherence", "--points", "3000", "--t-max", "2000"])
    assert (cells, left) == (4 * 3000, 0)
