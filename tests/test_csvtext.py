"""The CSV writer's float cells are repr's text, byte for byte."""

import os

import numpy as np
import pytest

from isingbath import cli, csvtext
from isingbath.cli import EXIT_OK, main
from isingbath.csvtext import block_text


def _repr_rows(cols):
    """The rows as the writer once formed them: one repr call per float cell."""
    # .tolist() gives Python floats: numpy 2 scalars repr as np.float64(...)
    cells = [map(repr, c.tolist()) if isinstance(c, np.ndarray) else c for c in cols]
    return "".join(",".join(row) + "\n" for row in zip(*cells))


def _families(rng):
    """~1.06e6 doubles: the kernel's whole window, its edges and what it leaves to repr."""
    n = 110_000
    decades = [10.0 ** np.arange(-330, 309.0), 2.0 ** np.arange(-1074, 1024.0)]
    steps = [np.nextafter(x, d) for x in decades for d in (0.0, np.inf)]
    ties = np.ldexp(1.0 + rng.integers(0, 2**20, n) / 2.0 ** rng.integers(8, 30, n),
                    rng.integers(-40, 56, n))  # few significant bits: exact halves
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
        # both sides of repr's switch to an exponent at 1e-4 and 1e16, and of
        # the kernel's window [2**-36, 2**52), plus what it never decides
        "edges": np.array([
            1e-4, np.nextafter(1e-4, 0), 1e-5, np.nextafter(1e-5, 1), 1e16, np.nextafter(1e16, 0),
            9999999999999998.0, 2.0**-36, np.nextafter(2.0**-36, 0), 2.0**52,
            np.nextafter(2.0**52, 0), 1e-11, np.nextafter(1e-11, 1), 0.0, -0.0, np.inf,
            -np.inf, np.nan, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
    }


def test_cells_are_the_bytes_of_repr():
    rng = np.random.default_rng(20)
    for name, values in _families(rng).items():
        for lo in range(0, len(values), 2048):
            col = values[lo:lo + 2048]
            assert block_text([col]) == "\n".join(map(repr, col.tolist())) + "\n", name


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
        last = seen[0][1].splitlines()[-1].split(",")
        assert (last[0], last[1], last[-1]) == ("1e+308", "inf", "disordered")


def test_few_cells_of_a_coherence_grid_are_left_to_repr(monkeypatch):
    # a kernel that decided fewer cells would still write repr's bytes, slower
    counts = []

    def spy(v, ncols):
        chars, todo = float_cells(v, ncols)
        counts.append((len(v), len(todo)))
        return chars, todo

    float_cells = csvtext._float_cells
    monkeypatch.setattr(csvtext, "_float_cells", spy)
    assert main(["coherence", "--points", "3000", "--out", os.devnull]) == EXIT_OK
    cells, left = np.sum(counts, axis=0)
    assert cells == 5 * 3000 and left <= 0.1 * cells
