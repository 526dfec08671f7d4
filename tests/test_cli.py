import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isingbath import cli, oracle
from isingbath.cli import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    FIG1_T_OVER_TC,
    RunConfig,
    build_parser,
    main,
    read_csv_config,
)
from isingbath.dephasing import SystemParams, coherence_factor_finite, coherence_time
from isingbath.errors import InvalidParams
from isingbath.mean_field import BathParams, solve_order
from isingbath.oracle import simulate_exact

COMMANDS = ["phase", "coherence", "concurrence", "fig1", "fig2", "verify"]


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    data = {c: [] for c in columns}
    for row in rows:
        for c, v in zip(columns, row):
            data[c].append(v)
    return columns, data


def floats(data, col):
    return np.array([float(v) for v in data[col]])


def abs_r(data):
    """|r| of a coherence CSV, from its re_r and im_r cells."""
    return np.abs(floats(data, "re_r") + 1j * floats(data, "im_r"))


def test_import_isingbath_binds_seven_modules_two_params_and_no_cli():
    # each name is imported from its module; bench/run.py's setup_s times this import
    code = ("import sys, isingbath; print(sorted(n for n in vars(isingbath) if n[0] != '_'),"
            " '__version__' in vars(isingbath), 'isingbath.cli' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ("['BathParams', 'SystemParams', 'dephasing', 'entanglement', 'errors',"
                           " 'mean_field', 'oracle', 'su2', 'two_qubit'] True False\n")


def test_phase_sweep(tmp_path):
    out = tmp_path / "phase.csv"
    code = main(["phase", "--J", "2", "--w", "0",
                 "--T-over-Tc", ",".join(str(round(0.25 + 0.05 * k, 2)) for k in range(16)),
                 "--out", str(out)])
    assert code == EXIT_OK
    columns, data = read_csv(out)
    assert columns == ["T", "T_over_Tc", "theta", "m", "phase"]
    ms = floats(data, "m")
    assert all(a >= b - 1e-12 for a, b in zip(ms, ms[1:]))  # non-increasing with T
    assert data["phase"][-1] == "disordered" and ms[-1] == 0.0  # T = Tc row


def test_phase_above_tc_single_row(tmp_path):
    out = tmp_path / "phase.csv"
    assert main(["phase", "--J", "2", "--w", "0", "--T", "1.5", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert data["phase"] == ["disordered"]
    assert floats(data, "m")[0] == 0.0


def test_phase_theta_value(tmp_path):
    out = tmp_path / "phase.csv"
    assert main(["phase", "--J", "2", "--w", "0.1", "--T-over-Tc", "0.5",
                 "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert floats(data, "theta")[0] == pytest.approx(1.915, abs=1e-3)


def test_phase_writes_the_ratios_it_was_given(tmp_path):
    # at J = 3, (r Tc) / Tc is an ulp off r = 0.1 and 0.7; a run given --T
    # still writes T / Tc, which overflows to inf past the float range
    out = tmp_path / "phase.csv"
    assert main(["phase", "--J", "3", "--T-over-Tc", "0.1,0.7", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert data["T_over_Tc"] == ["0.1", "0.7"]
    assert data["T"] == [repr(0.1 * 1.5), repr(0.7 * 1.5)]
    assert main(["phase", "--J", "0.5", "--T", "0.5,1e308", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert data["T_over_Tc"] == ["2.0", "inf"]


@pytest.mark.parametrize("key", ["T_over_Tc", "T"])
def test_a_long_header_tuple_is_the_repr_join_of_its_values(tmp_path, key):
    # past cli._HEADER_KERNEL_MIN values the header word comes from the CSV
    # kernel, which leaves 1e-12 and 2**-37 (below 2**-36) to repr; the rest
    # mimic the bench's grid: uniform below Tc, and clusters at Tc and at the
    # w > 0 ordering boundary, with a few short decimals
    J, w = 2.0, 0.1
    rng = np.random.default_rng(42)
    boundary = (w / (2.0 * math.atanh(w / J))) / (0.5 * J)

    def near(centre, m):
        return centre * (1.0 + rng.choice((-1.0, 1.0), m) * 10 ** rng.uniform(-8.0, -1.0, m))

    values = np.concatenate([rng.uniform(0.0, 1.0, 200) + 1e-9, near(1.0, 200),
                             near(boundary, 190), [1e-12, 2.0**-37, 0.25, 0.5, 1.5]])
    values = tuple(float(v) for v in values)
    assert len(values) > cli._HEADER_KERNEL_MIN
    out = tmp_path / "phase.csv"
    argv = ["phase", "--J", repr(J), "--w", repr(w), "--" + key.replace("_", "-"),
            ",".join(repr(v) for v in values), "--out", str(out)]
    assert main(argv) == EXIT_OK
    header = out.read_text().splitlines()[0].split(" ")
    assert f"{key}={';'.join(repr(v) for v in values)}" in header
    assert getattr(read_csv_config(str(out)), key) == values


@pytest.mark.parametrize("argv, column_line", [
    (["coherence", "--points", "200000"], b"t,re_r,im_r,abs_r_asymptotic,tau\n"),
    (["phase"], None),
])
def test_a_closed_stdout_pipe_exits_141_with_nothing_on_stderr(argv, column_line):
    # the reader takes two lines and closes its end, as `| head -2` does, or
    # is gone before the first write; without PYTHONUNBUFFERED stdout is
    # block-buffered, as in a shell, so bytes left in its buffer would fail
    # the interpreter's flush at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader:
        if column_line is None:
            reader.close()
        with subprocess.Popen([sys.executable, "-m", "isingbath.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env) as proc:
            os.close(write_end)
            if column_line is not None:
                assert [reader.readline() for _ in range(2)][1] == column_line
            reader.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=60)
    assert (code, stderr) == (cli.EXIT_STDOUT_CLOSED, b"")


def test_coherence_columns(tmp_path):
    out = tmp_path / "coh.csv"
    code = main(["coherence", "--T-over-Tc", "0.5", "--N", "1000000",
                 "--t-max", "30", "--points", "200", "--out", str(out)])
    assert code == EXIT_OK
    _, data = read_csv(out)
    assert abs_r(data)[0] == 1.0
    assert floats(data, "abs_r_asymptotic")[0] == 1.0
    # finite N = 1e6 tracks the Gaussian everywhere on the grid
    assert np.abs(abs_r(data) - floats(data, "abs_r_asymptotic")).max() < 1e-4
    # tau column is constant (tau ~ 9.8 here) and satisfies the 1/e identity
    tau = floats(data, "tau")[0]
    assert floats(data, "t")[-1] > tau
    rate = -math.log(np.interp(tau, floats(data, "t"), floats(data, "abs_r_asymptotic")))
    assert rate == pytest.approx(1.0, abs=1e-3)  # interpolation-limited


def test_coherence_tau_cells_are_the_coherence_time_repr(tmp_path):
    out = tmp_path / "coh.csv"
    assert main(["coherence", "--J", "2", "--w", "0.3", "--T-over-Tc", "0.4", "--J0", "0.7",
                 "--points", "25", "--out", str(out)]) == EXIT_OK
    bath = BathParams(J=2.0, w=0.3, T=0.4)
    tau = coherence_time(solve_order(bath), bath, SystemParams(J0=0.7, mu0=0.0, xi0=0.0))
    _, data = read_csv(out)
    assert data["tau"] == [repr(tau)] * 25


def test_coherence_of_an_ising_bath_above_tc(tmp_path):
    out = tmp_path / "coh.csv"
    assert main(["coherence", "--w", "0", "--T-over-Tc", "1.5", "--N", "8",
                 "--points", "41", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    j0_t = read_csv_config(str(out)).J0 * floats(data, "t")
    want = np.abs(np.cos(j0_t / (2.0 * math.sqrt(8.0))) ** 8)
    assert np.abs(abs_r(data) - want).max() <= 1e-13
    assert data["tau"][0] == repr(2.0 * math.sqrt(2.0))


@pytest.mark.parametrize("argv", [
    ["--J0", "0"],  # no coupling; the grid is raw t
    ["--J", "0", "--w", "0.1", "--T", "1"],  # a disordered bath in a field
])
def test_coherence_that_never_decays(tmp_path, argv):
    out = tmp_path / "coh.csv"
    assert main(["coherence", *argv, "--points", "5", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert set(abs_r(data).tolist()) == {1.0} and set(data["tau"]) == {"inf"}


# (N, w, T/Tc, J0) of coherence runs whose dropped columns are recovered
RECOVERY_RUNS = [
    ("8", "0", "1.5", "1"),
    ("1000", "0.1", "0.5", "0.7"),
    ("100000000", "0.3", "0.9", "3"),
    ("10", "0.1", "0.25", "0"),
]


def _coherence_run(tmp_path, n, w, t_over_tc, j0):
    out = tmp_path / "coh.csv"
    assert main(["coherence", "--N", n, "--w", w, "--T-over-Tc", t_over_tc, "--J0", j0,
                 "--points", "60", "--out", str(out)]) == EXIT_OK
    return read_csv_config(str(out)), read_csv(out)[1]


@pytest.mark.parametrize("n, w, t_over_tc, j0", RECOVERY_RUNS)
def test_re_r_and_im_r_give_abs_r_bitwise(tmp_path, n, w, t_over_tc, j0):
    # coherence writes no abs_r: |re_r + i im_r| is np.abs(r) bit for bit
    cfg, data = _coherence_run(tmp_path, n, w, t_over_tc, j0)
    bath, sol, sys_p = cfg.physics()
    r = coherence_factor_finite(cfg.time_grid(), cfg.N, sol, bath, sys_p)
    assert abs_r(data).tobytes() == np.abs(r).tobytes()


@pytest.mark.parametrize("n, w, t_over_tc, j0", RECOVERY_RUNS)
def test_header_J0_times_t_gives_J0_t_bitwise(tmp_path, n, w, t_over_tc, j0):
    # coherence writes no J0_t: the header's J0 times t is J0 * times bit for bit
    cfg, data = _coherence_run(tmp_path, n, w, t_over_tc, j0)
    run = RunConfig(command="coherence", J0=float(j0), points=60)
    assert (cfg.J0 * floats(data, "t")).tobytes() == (run.J0 * run.time_grid()).tobytes()


def _help_text(capsys, argv):
    # main returns --help's exit code like every other outcome
    assert main(argv) == EXIT_OK
    return capsys.readouterr().out


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_prints_the_full_parsers_help(capsys, command):
    # main parses with the one cached parser: its help matches a direct
    # parse, also when a later run reuses that parser
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([command, "--help"])
    assert info.value.code == 0
    full = capsys.readouterr().out
    for _ in range(2):
        assert _help_text(capsys, [command, "--help"]) == full
    assert full.startswith(f"usage: isingbath {command} ")


def test_top_level_help_lists_every_command(capsys):
    text = _help_text(capsys, ["--help"])
    assert "{" + ",".join(COMMANDS) + "}" in text
    for command in COMMANDS:
        assert f"    {command} " in text


@pytest.mark.parametrize("argv", [
    ["coherence", "--points"],
    ["coherence", "--bogus", "1"],
    ["verify", "--N", "3"],  # no abbreviations
    ["phase", "extra"],
    ["fig1", "--points", "3", "--help-me"],
])
def test_a_command_line_handed_to_its_command_parser_fails_as_the_full_parse(capsys, argv):
    # main skips the top-level pass when the first word names a command
    with pytest.raises(InvalidParams) as info:
        build_parser().parse_args(argv)
    assert main(argv) == EXIT_BAD_INPUT
    assert capsys.readouterr() == ("", f"isingbath: error: {info.value}\n")


def test_unknown_commands_share_one_cached_parser():
    build_parser.cache_clear()
    for k in range(100):
        assert main([f"junk{k}", "--J", "2"]) == EXIT_BAD_INPUT
    assert main([]) == EXIT_BAD_INPUT
    assert build_parser.cache_info().currsize == 1
    for command in COMMANDS:
        assert main([command, "--bogus"]) == EXIT_BAD_INPUT
    assert build_parser.cache_info().currsize == 1


def test_a_reused_parser_carries_nothing_between_runs(tmp_path, capsys):
    runs = [
        ["concurrence", "--case", "4", "--xi0", "0.5", "--points", "5"],
        ["concurrence", "--points", "5"],
        ["fig1", "--points", "3"],
    ]

    def outputs(directory, fresh):
        directory.mkdir()
        for k, argv in enumerate(runs):
            if fresh:
                build_parser.cache_clear()
            assert main(argv + ["--out", str(directory / f"run{k}")]) == EXIT_OK
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    build_parser.cache_clear()
    reused = outputs(tmp_path / "reused", fresh=False)
    assert main(["concurrence", "--bogus", "1"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.count("\n") == 1
    assert main(runs[1] + ["--out", str(tmp_path / "after_error")]) == EXIT_OK
    fresh = outputs(tmp_path / "fresh", fresh=True)
    assert len(reused) == 6 and reused == fresh
    assert (tmp_path / "after_error").read_bytes() == fresh["run1"]


README = Path(__file__).resolve().parent.parent / "README.md"
PHYSICS = ["J", "w", "T", "T_over_Tc", "J0", "xi0", "mu0"]


def _readme_table(head):
    """The README's `| command | <head> |` table: the backticked names of each
    row, with `P` read as PHYSICS, under each command its first cell names."""
    body = README.read_text().split(f"| command | {head} |\n| --- | --- |\n")[1]
    table = {}
    for row in body.split("\n\n")[0].splitlines():
        _, commands, cells, _ = row.split("|")
        names = [k for n in re.findall(r"`([^`]+)`", cells) for k in (PHYSICS if n == "P" else [n])]
        table.update(dict.fromkeys(re.findall(r"`([^`]+)`", commands), names))
    return table


# the README's key table: the keys each command reads, in _KEYS order (its
# flags and its --config lines), then any flag of its own
KEY_TABLE = _readme_table("keys")
READS = {c: [k for k in names if not k.startswith("--")] for c, names in KEY_TABLE.items()}
# a valid value of every key, so that only the command can refuse it
SAMPLE = {"J": "2", "w": "0.1", "T": "0.5", "T_over_Tc": "0.5", "J0": "1", "xi0": "0.3",
          "mu0": "0", "case": "2", "amplitudes": "1,0,0,1", "mode": "finite", "N": "100",
          "t_max": "8", "points": "3"}
UNREAD = [(c, k) for c in COMMANDS for k in SAMPLE if k not in READS[c]]


def _flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_exactly_the_keys_the_command_reads(capsys, command):
    text = _help_text(capsys, [command, "--help"])
    listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", text, re.MULTILINE)
    # --inject-error is hidden
    flags = [k if k.startswith("--") else _flag(k) for k in KEY_TABLE[command]]
    assert listed == ["--help", "--config", *flags]


def test_readme_key_table_is_the_command_table():
    assert list(READS.items()) == [(c, list(keys)) for c, (_, _, keys) in cli._COMMANDS.items()]


@pytest.mark.parametrize("command, columns", _readme_table("columns").items())
def test_readme_column_table_is_the_column_line_written(tmp_path, command, columns):
    # the first cell is a command line: fig1 writes four CSVs, each one line
    grid = [] if command == "phase" else ["--points", "3"]
    assert main([*command.split(), *grid, "--out", str(tmp_path / "o")]) == EXIT_OK
    lines = {path.read_text().splitlines()[1] for path in tmp_path.iterdir()}
    assert lines == {",".join(columns)}


@pytest.mark.parametrize("command, key", UNREAD)
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, key):
    assert main([command, _flag(key), SAMPLE[key], "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and _flag(key) in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, key", UNREAD)
def test_a_config_key_the_command_does_not_read_exits_2(tmp_path, capsys, command, key):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key}={SAMPLE[key]}\n")
    argv = [command, "--config", str(cfg_file), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"{command} does not read key {key!r}" in captured.err
    assert list(tmp_path.iterdir()) == [cfg_file]


# keys that set one quantity two ways, with each command that reads both
EXCLUSIVE = [(c, a, b) for a, b in [("T", "T_over_Tc"), ("case", "amplitudes")]
             for c in COMMANDS if a in READS[c] and b in READS[c]]


@pytest.mark.parametrize("route", ["flags", "config", "config and flag"])
@pytest.mark.parametrize("command, a, b", EXCLUSIVE)
def test_both_keys_of_one_quantity_exit_2(tmp_path, capsys, command, a, b, route):
    argv = [command, "--out", str(tmp_path / "o")]
    in_file = {"flags": [], "config": [a, b], "config and flag": [a]}[route]
    for key in (a, b):
        if key not in in_file:
            argv += [_flag(key), SAMPLE[key]]
    made = []
    if in_file:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("".join(f"{key}={SAMPLE[key]}\n" for key in in_file))
        argv += ["--config", str(cfg_file)]
        made = [cfg_file]
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"isingbath: error: {command} takes {a!r} or {b!r}, not both\n"
    assert list(tmp_path.iterdir()) == made


@pytest.mark.parametrize("argv, config", [
    (["fig1", "--T-over-Tc", "0.9"], None),
    (["fig1", "--T", "0.1"], None),
    (["fig2", "--case", "2"], None),
    (["fig2"], "xi0=0.5"),
    (["fig1"], "J=3"),
])
def test_presets_do_not_take_the_caption_parameters_they_fix(tmp_path, capsys, argv, config):
    # fig1 and fig2 draw their caption's curves; a changed caption value
    # exits 2 instead of being dropped
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    assert main(argv + ["--points", "3", "--out", str(tmp_path / "f")]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.count("\n") == 1
    assert not list(tmp_path.glob("f*"))


def test_verify_writes_its_report_to_out(tmp_path, capsys):
    assert main(["verify", "--N-max", "2"]) == EXIT_OK
    report = capsys.readouterr().out
    assert report.endswith("verify: all checks passed\n")
    out = tmp_path / "v.txt"
    # a longer report already there is cut to the new one
    assert main(["verify", "--N-max", "12", "--out", str(out)]) == EXIT_OK
    assert main(["verify", "--N-max", "2", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text() == report


@pytest.mark.parametrize("first, second", [(50, 3), (3, 50)])
def test_a_rewrite_leaves_the_bytes_of_a_fresh_write(tmp_path, first, second):
    argv = ["concurrence", "--case", "2"]
    out, fresh = tmp_path / "c.csv", tmp_path / "fresh.csv"
    assert main(argv + ["--points", str(first), "--out", str(out)]) == EXIT_OK
    assert main(argv + ["--points", str(second), "--out", str(out)]) == EXIT_OK
    assert main(argv + ["--points", str(second), "--out", str(fresh)]) == EXIT_OK
    assert out.read_bytes() == fresh.read_bytes()
    assert len(out.read_text().splitlines()) == second + 2


def _outputs(tmp_path, prefix, argv):
    """The files a run with --out tmp_path/prefix writes (fig1's --out is a
    prefix for its four), by their names after the prefix."""
    assert main(argv + ["--out", str(tmp_path / prefix)]) == EXIT_OK
    return {p.name.removeprefix(prefix): p.read_bytes() for p in tmp_path.glob(prefix + "*")}


@pytest.mark.parametrize("block_rows", [1, 2])
@pytest.mark.parametrize("argv", [
    ["coherence", "--points", "7"],
    ["concurrence", "--case", "4", "--points", "7"],
    ["phase", "--T-over-Tc", "0.25,0.5,0.75,1.25,1.5"],  # a string column
    ["fig1", "--points", "5"],
], ids=lambda argv: argv[0])
def test_rows_written_in_blocks_are_the_bytes_of_one_block(
        tmp_path, capsys, monkeypatch, argv, block_rows):
    fresh = _outputs(tmp_path, "fresh", argv)
    assert len(fresh) == (4 if argv[0] == "fig1" else 1)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    for suffix, data in fresh.items():
        # a longer file already there is cut after the last block
        (tmp_path / f"old{suffix}").write_bytes(b"9\n" * len(data))
    assert _outputs(tmp_path, "old", argv) == fresh
    if argv[0] != "fig1":  # fig1 writes files only
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.encode() == fresh[""]


def _bytes_per_point(argv):
    """Growth of main(argv + --points n)'s tracemalloc peak a point, from
    3,000 to 30,000 points, after a first run fills the parser's caches."""
    def peak_bytes(points):
        tracemalloc.start()
        try:
            assert main(argv + ["--points", str(points), "--out", os.devnull]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(2)
    small = peak_bytes(3_000)
    return (peak_bytes(30_000) - small) / 27_000


def test_the_csv_writer_holds_one_block_of_text_not_the_whole_grid():
    # the numpy columns cost ~60 B a point; the rows of the whole grid held
    # as text would add ~380 B a point
    assert _bytes_per_point(["coherence"]) < 150


@pytest.mark.parametrize("case, bound", [("2", 150), ("4", 1000)])
def test_concurrence_forms_no_four_by_four_stack(case, bound):
    # a (points, 4, 4) complex stack of rho or M alone is 256 B a point, and
    # the temporaries of a batched eigh of rho and its Hermiticity and trace
    # checks took case 2 to ~810 B and case 4 to ~1,380 B; case 4's
    # (points, 3, 3) tau and its factor cost ~530 B
    assert _bytes_per_point(["concurrence", "--case", case]) < bound


def test_stdout_without_a_bytes_layer_takes_the_text(tmp_path, monkeypatch):
    # an in-process caller may redirect stdout to an io.StringIO
    argv = ["coherence", "--points", "5"]
    assert main(argv + ["--out", str(tmp_path / "c.csv")]) == EXIT_OK
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(argv) == EXIT_OK
    assert sys.stdout.getvalue() == (tmp_path / "c.csv").read_text()


def test_out_to_a_device_exits_0(capsys):
    assert main(["phase", "--out", os.devnull]) == EXIT_OK
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("name, message", [
    ("d", "[Errno 21] Is a directory"),
    ("missing/c.csv", "[Errno 2] No such file or directory"),
])
def test_an_unwritable_out_exits_2_with_one_line(tmp_path, capsys, name, message):
    (tmp_path / "d").mkdir()
    out = str(tmp_path / name)
    assert main(["phase", "--T-over-Tc", "0.5", "--out", out]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"isingbath: error: {message}: {out!r}\n"


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_a_new_out_file_takes_the_umask(tmp_path, umask):
    out = tmp_path / "p.csv"
    old = os.umask(umask)
    try:
        assert main(["phase", "--T-over-Tc", "0.5", "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_concurrence_case1_constant(tmp_path):
    # decoherence-free: one C text on every row
    out = tmp_path / "c1.csv"
    assert main(["concurrence", "--case", "1", "--points", "200", "--t-max", "16",
                 "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert len(data["C"]) == 200 and len(set(data["C"])) == 1
    assert 1.0 - 1e-12 < float(data["C"][0]) <= 1.0


# C is a fixed multiple of |B|: case 2's closed form C = 2 sqrt(p0 p3) |B| is
# |B| to 2 ulp, and 1,1,0,1, on all three coupling levels, takes the general
# route to the paper's (2/3) |B|
@pytest.mark.parametrize("mode, state, ratio, bound", [
    ("asymptotic", "--case=2", 1.0, 4.5e-16),
    ("finite", "--case=2", 1.0, 4.5e-16),
    ("asymptotic", "--amplitudes=1,1,0,1", 2 / 3, 1e-14),
    ("finite", "--amplitudes=1,1,0,1", 2 / 3, 1e-14),
], ids=["asymptotic", "finite", "1,1,0,1-asymptotic", "1,1,0,1-finite"])
def test_concurrence_case2_tracks_abs_B(tmp_path, mode, state, ratio, bound):
    out = tmp_path / "c2.csv"
    assert main(["concurrence", state, "--mode", mode, "--points", "200", "--t-max", "16",
                 "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    c = floats(data, "C")
    assert len(c) == 200 and np.abs(c - ratio * floats(data, "abs_B")).max() <= bound
    assert (c <= 1.0).all()  # including the Bell state at t = 0


def test_concurrence_case3_zero(tmp_path):
    # the text 0.0: a -0.0 cell would fail
    out = tmp_path / "c3.csv"
    assert main(["concurrence", "--case", "3", "--points", "50", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert data["C"] == ["0.0"] * 50


def test_concurrence_custom_amplitudes_normalized(tmp_path):
    out = tmp_path / "amp.csv"
    assert main(["concurrence", "--amplitudes", "1,0,0,1", "--points", "5",
                 "--mode", "asymptotic", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert floats(data, "C")[0] == pytest.approx(1.0, abs=1e-12)


def test_fig1_preset(tmp_path):
    prefix = str(tmp_path / "fig1")
    assert main(["fig1", "--out", prefix]) == EXIT_OK
    curves = {}
    for ratio in (0.75, 0.50, 0.35, 0.25):
        path = tmp_path / f"fig1_TTc{ratio:.2f}.csv"
        assert path.exists()
        _, data = read_csv(path)
        curves[ratio] = floats(data, "C")
        assert len(curves[ratio]) == 200
        assert curves[ratio][0] == pytest.approx(1.0, abs=1e-12)
        assert (curves[ratio] <= 1.0).all()
        assert all(a > b for a, b in zip(curves[ratio], curves[ratio][1:]))
    # colder bath preserves entanglement longer, pointwise
    for warm, cold in ((0.75, 0.50), (0.50, 0.35), (0.35, 0.25)):
        assert np.all(curves[cold][1:] > curves[warm][1:])


def test_fig2_preset(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    c = floats(data, "C")
    assert abs(c[0]) < 1e-12
    maxima = [c[i] for i in range(1, len(c) - 1) if c[i] > c[i - 1] and c[i] > c[i + 1]]
    assert len(maxima) >= 3
    assert all(a > b for a, b in zip(maxima, maxima[1:]))


def test_fig2_no_bath_limit(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--J0", "0", "--points", "120", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    t = floats(data, "t")
    c = floats(data, "C")
    expected = np.abs(np.sin(0.5 * 0.3 * t))
    assert np.abs(c - expected).max() < 1e-10
    np.testing.assert_allclose(floats(data, "no_bath_C"), expected, atol=1e-12)


def test_verify_passes(capsys):
    assert main(["verify", "--N-max", "4"]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out


def test_verify_extended_bath_passes(capsys):
    assert main(["verify", "--N-max", "8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "N=8" in out and "all checks passed" in out


def test_verify_closed_form_carries_the_free_phase(capsys):
    # the closed form excludes exp(i mu0 t), the exact route includes it
    assert main(["verify", "--N-max", "2", "--mu0", "0.5"]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_verify_rejects_an_empty_bath_range(capsys, n_max):
    assert main(["verify", "--N-max", n_max]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "N-max" in captured.err


@pytest.mark.parametrize("argv", [
    ["--T-over-Tc", "1.5"],
    ["--w", "0", "--T-over-Tc", "1.0"],
    ["--T-over-Tc", "1e-3"],
    ["--w", "0", "--T-over-Tc", "0.99999999"],
    ["--xi0", "1e8"],
    ["--mu0", "1e8"],
    ["--xi0", "1e12", "--mu0", "1e12"],
    ["--T=5e-324", "--w=5e-324", "--J=1e-320"],
])
def test_verify_passes_at_and_above_tc(capsys, argv):
    # every check at N up to 12 passes above Tc, where the Ising bath's free
    # spins dephase and the closed forms stay exact; at Tc and just below it;
    # near T = 0; under a qubit energy that the routes keep a factor of its
    # own, so that it cannot round the O(1) bath eigenphases away; and at a
    # subnormal bath scale, where w/T = 1 must keep its bits
    assert main(["verify", "--N-max", "12", *argv]) == EXIT_OK
    *checks, last = capsys.readouterr().out.splitlines()
    assert len(checks) == 42 and all(line.startswith("ok ") for line in checks)
    assert last == "verify: all checks passed"


def _verify_run(capsys, monkeypatch, argv):
    """verify's stdout and the qubit coupling of every oracle evolution it ran."""
    seen = set()

    def spy(cfg, *args, **kwargs):
        seen.add(cfg.sys.xi0)
        return simulate_exact(cfg, *args, **kwargs)

    monkeypatch.setattr(cli, "simulate_exact", spy)
    assert main(["verify", *argv]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.endswith("verify: all checks passed\n")
    return out, seen


def test_verify_honours_a_zero_qubit_coupling(capsys, monkeypatch):
    # 0.3 is verify's default, not an override of --xi0 0
    plain, plain_xi0 = _verify_run(capsys, monkeypatch, ["--N-max", "4"])
    explicit, explicit_xi0 = _verify_run(capsys, monkeypatch, ["--N-max", "4", "--xi0", "0.3"])
    _, zero_xi0 = _verify_run(capsys, monkeypatch, ["--N-max", "4", "--xi0", "0"])
    assert plain == explicit
    assert plain_xi0 == explicit_xi0 == {0.3}
    assert zero_xi0 == {0.0}


# verify's checks per bath size, in report order, at its default w = 0.1
VERIFY_CHECKS = [
    "trace vs dense route (w=0.1)",
    "single-qubit trace vs dense (w=0.1)",
    "exact coefficients vs closed form (w=0)",
    "oracle vs closed-form reduced matrix (w=0)",
    "one-excitation coefficient symmetry (w=0)",
    "single-qubit closed form vs exact (w=0)",
]


def _verify_report(capsys, argv, code):
    """The (verdict, name) of each check line of verify --N-max 12, and its
    last line; every bath size up to 12 reports the six checks in order."""
    assert main(["verify", "--N-max", "12", *argv]) == code
    *checks, last = capsys.readouterr().out.splitlines()
    parsed = [re.fullmatch(r"(ok|FAIL) +(.+): max error \S+ \(tol \S+\)", line).groups()
              for line in checks]
    names = [f"N={n} {name}" for n in (1, 2, 4, 6, 8, 10, 12) for name in VERIFY_CHECKS]
    assert len(names) == 42 and [name for _, name in parsed] == names
    return [verdict for verdict, _ in parsed], last


def test_verify_report_lists_six_checks_per_bath_size(capsys):
    verdicts, last = _verify_report(capsys, [], EXIT_OK)
    assert set(verdicts) == {"ok"} and last == "verify: all checks passed"


def test_verify_negative_control(capsys):
    # the injected error fails every check line
    verdicts, last = _verify_report(capsys, ["--inject-error"], EXIT_VERIFY_FAILED)
    assert set(verdicts) == {"FAIL"} and last == "verify: FAILED"


def test_verify_catches_a_wrong_trace_route(capsys, monkeypatch):
    # the trace vs dense rows hold the per-spin trace to the independent
    # dense bath; an error of 1e-9 in the trace route fails each of them
    trace = oracle.ROUTES["trace"]
    monkeypatch.setitem(oracle.ROUTES, "trace", lambda *args: trace(*args) + 1e-9)
    assert main(["verify", "--N-max", "2"]) == EXIT_VERIFY_FAILED
    rows = [line for line in capsys.readouterr().out.splitlines() if "trace vs dense route" in line]
    assert len(rows) == 2 and all(line.startswith("FAIL ") for line in rows)


def test_verify_fails_a_nan_error(capsys, monkeypatch):
    # a nan compares false with every bound; its check must still fail
    monkeypatch.setattr(
        cli, "simulate_exact", lambda *args, **kwargs: np.full((8, 4, 4), np.nan)
    )
    assert main(["verify", "--N-max", "1"]) == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "FAIL" in out and out.endswith("verify: FAILED\n")


@pytest.mark.parametrize("amplitudes", ["1e200,1e200,0,0", "1e-170,1e-170,0,0"])
def test_concurrence_amplitudes_at_extreme_scales(tmp_path, amplitudes):
    # the squared norm overflows or underflows; the state is the same as at scale 1
    def rows(text):
        out = tmp_path / "o.csv"
        assert main(["concurrence", "--amplitudes", text, "--points", "9",
                     "--out", str(out)]) == EXIT_OK
        return out.read_text().splitlines()[1:]

    assert rows(amplitudes) == rows("1,1,0,0")


def test_amplitudes_whose_modulus_overflows_run_without_a_warning(tmp_path, capsys):
    # |1.5e308 + 1.5e308j| is past the float range, yet the state is |00>
    # with a phase and |11> at a vanishing weight: a product state
    def rows(text):
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["concurrence", "--amplitudes", text, "--points", "3",
                         "--out", str(out)]) == EXIT_OK
        return out.read_text().splitlines()[1:]

    huge = rows("1.5e308+1.5e308j,0,0,1")
    assert capsys.readouterr().err == ""
    assert read_csv(tmp_path / "o.csv")[1]["C"] == ["0.0"] * 3
    assert huge == rows("1+1j,0,0,0")


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["concurrence", "--case", "2", "--T-over-Tc", "0.35", "--points", "50"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_values_in_range(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["concurrence", "--case", "4", "--xi0", "0.3", "--mode", "finite",
                 "--N", "100", "--t-max", "30", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert np.all(floats(data, "C") >= 0.0) and np.all(floats(data, "C") <= 1.0)
    assert np.all(floats(data, "abs_A") <= 1.0 + 1e-12)
    assert np.all(floats(data, "abs_B") <= 1.0 + 1e-12)


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("J=3.0\nw=0.0\nT_over_Tc=0.5\n# comment\n")
    out = tmp_path / "o.csv"
    assert main(["phase", "--config", str(cfg_file), "--w", "0.1",
                 "--out", str(out)]) == EXIT_OK
    cfg = read_csv_config(str(out))
    assert cfg.w == 0.1  # flag wins
    assert cfg.T_over_Tc == (0.5,)  # from file
    assert cfg.J == 3.0


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    # a typo must not fall back silently to the default xi0
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("J=2.0\nxi=0.3\n")
    out = tmp_path / "o.csv"
    assert main(["concurrence", "--config", str(cfg_file), "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'xi'" in err
    assert not out.exists()


def test_a_config_line_without_an_equals_sign_exits_2_with_one_line(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("J 2\n")
    out = tmp_path / "o.csv"
    assert main(["concurrence", "--config", str(cfg_file), "--out", str(out)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"isingbath: error: malformed key=value 'J 2' in {cfg_file}\n"
    assert not out.exists()


def test_a_csv_header_without_the_command_is_refused(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# J=2 w=0.1\nT\n")
    with pytest.raises(InvalidParams, match=r"^configuration is missing the command$"):
        read_csv_config(str(path))


def _round_trip(path):
    cfg = read_csv_config(str(path))
    assert RunConfig.from_key_values(cfg.key_values()) == cfg
    return cfg


def test_run_config_round_trip(tmp_path):
    phase, conc = tmp_path / "p.csv", tmp_path / "c.csv"
    assert main(["phase", "--T-over-Tc", "0.35,0.5", "--out", str(phase)]) == EXIT_OK
    assert _round_trip(phase).T_over_Tc == (0.35, 0.5)
    assert main(["concurrence", "--T-over-Tc", "0.35",
                 "--amplitudes", "0.6,0,0,0.8", "--mode", "finite", "--N", "777",
                 "--t-max", "3.5", "--points", "9", "--out", str(conc)]) == EXIT_OK
    cfg = _round_trip(conc)
    assert cfg.T_over_Tc == (0.35,)
    assert cfg.amplitudes == (0.6 + 0j, 0j, 0j, 0.8 + 0j)
    assert cfg.N == 777
    # a file without its header line, empty or not, holds no RunConfig
    for text in (conc.read_text().split("\n", 1)[1], ""):
        conc.write_text(text)
        with pytest.raises(InvalidParams, match="has no parameter header$"):
            read_csv_config(str(conc))


@pytest.mark.parametrize("N", [np.int64(10**6), 1e6])
def test_a_library_built_run_config_keeps_n_as_an_int(N):
    # a numpy integer or a whole float N is stored as the int bath_size returns,
    # so its header reads N=1000000 and parses back
    cfg = RunConfig(command="coherence", N=N)
    assert type(cfg.N) is int and cfg.N == 10**6
    assert cfg.key_values()["N"] == "1000000"
    assert RunConfig.from_key_values(cfg.key_values()) == cfg


@pytest.mark.parametrize("temperatures", [
    ["--T-over-Tc", ","], ["--T-over-Tc", "0.25,0.5"], ["--T", "0.1,0.2"],
])
@pytest.mark.parametrize("command", ["coherence", "concurrence", "fig2", "verify"])
def test_one_curve_commands_take_exactly_one_temperature(tmp_path, capsys, command,
                                                         temperatures):
    out = tmp_path / "o.csv"
    grid = [] if command == "verify" else ["--points", "3"]
    assert main([command, *temperatures, *grid, "--out", str(out)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"isingbath: error: {command} takes exactly one temperature")
    assert not out.exists()


def _body(path):
    """A CSV without its command name, which is the only header word that
    tells a preset from the command it runs."""
    header, rest = path.read_text().split("\n", 1)
    return header.split(" ", 2)[2], rest


def test_phase_and_fig1_keep_their_temperature_lists(tmp_path):
    ratios = ["0.25", "0.5", "1.5"]
    assert main(["phase", "--T-over-Tc", ",".join(ratios),
                 "--out", str(tmp_path / "all.csv")]) == EXIT_OK
    rows = (tmp_path / "all.csv").read_text().splitlines()[2:]
    for k, ratio in enumerate(ratios):
        one = tmp_path / f"one{k}.csv"
        assert main(["phase", "--T-over-Tc", ratio, "--out", str(one)]) == EXIT_OK
        assert one.read_text().splitlines()[2:] == [rows[k]]
    # each fig1 curve is a case-2 concurrence run at one of its temperatures
    assert main(["fig1", "--points", "7", "--out", str(tmp_path / "f")]) == EXIT_OK
    for ratio in FIG1_T_OVER_TC:
        curve = tmp_path / f"c{ratio}.csv"
        assert main(["concurrence", "--case", "2", "--T-over-Tc", repr(ratio),
                     "--points", "7", "--out", str(curve)]) == EXIT_OK
        assert _body(tmp_path / f"f_TTc{ratio:.2f}.csv") == _body(curve)


def test_invalid_inputs_exit_2(tmp_path, capsys):
    assert main(["phase", "--J", "-3"]) == EXIT_BAD_INPUT
    assert main(["concurrence", "--T-over-Tc", "-0.5"]) == EXIT_BAD_INPUT
    assert main(["coherence", "--points", "1"]) == EXIT_BAD_INPUT
    capsys.readouterr()
    assert main(["concurrence", "--amplitudes", "1,2,3"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.count("\n") == 1
    assert main(["spectrum"]) == EXIT_BAD_INPUT  # unknown subcommand
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'spectrum'" in err


@pytest.mark.parametrize("amplitudes", ["inf,0,0,1", "0,nan,0,0"])
def test_a_non_finite_amplitude_exits_2_with_one_line(capsys, amplitudes):
    # finiteness is checked before the zero-vector check: max() would skip a
    # nan in second place and read the vector as zero
    assert main(["concurrence", "--amplitudes", amplitudes, "--points", "3"]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "isingbath: error: non-finite amplitude\n"


@pytest.mark.parametrize("argv, flag", [
    (["phase", "--bogus", "1"], "--bogus"),
    (["concurrence", "--J"], "--J"),
    (["verify", "--N-max", "abc"], "N-max"),
])
def test_command_line_errors_exit_2_naming_the_flag(capsys, argv, flag):
    # argparse's own errors return through main like every other bad input
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and flag in captured.err


@pytest.mark.parametrize("key, value", [
    ("J", "abc"), ("case", "9"), ("mode", "foo"), ("amplitudes", "1,2,3"), ("N", "-5"),
])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, route, key, value):
    # flags and --config lines reach the same parser and the same checks
    if route == "flag":
        args = ["--" + key, value]
    else:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}={value}\n")
        args = ["--config", str(cfg_file)]
    out = tmp_path / "o.csv"
    assert main(["concurrence", *args, "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"error: {key}" in err
    assert not out.exists()


@pytest.mark.parametrize("old, new", [
    (" case=2 ", " case=9 "), (" xi0=", " xi="), (" N=1000000 ", " N=-5 "),
])
def test_csv_header_is_checked_like_flags(tmp_path, old, new):
    out = tmp_path / "c.csv"
    assert main(["concurrence", "--points", "3", "--out", str(out)]) == EXIT_OK
    header, rest = out.read_text().split("\n", 1)
    assert old in header
    out.write_text(header.replace(old, new) + "\n" + rest)
    with pytest.raises(InvalidParams):
        read_csv_config(str(out))


def test_a_gibbs_field_past_the_float_range_verifies_without_a_warning(capsys):
    # 2mJ/(2T) or w/(2T) overflows: every route takes the per-spin Gibbs
    # state's T -> 0 projector, and the dense route its ground projector
    for argv in (["--T-over-Tc", "1e-310"], ["--T", "5e-324"], ["--T", "5e-324", "--w", "0"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--N-max", "2", *argv]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.endswith("verify: all checks passed\n") and captured.err == ""


@pytest.mark.parametrize("argv", [
    ["coherence", "--N", "0"],
    ["concurrence", "--mode", "asymptotic", "--N", "-5"],
    ["concurrence", "--mode", "finite", "--N", "0"],
    ["fig1", "--mode", "asymptotic", "--N", "0"],
    ["fig2", "--N", "-5"],
    ["concurrence", "--mode", "asymptotic", "--N", "0"],
])
def test_a_bath_size_below_1_exits_2(tmp_path, capsys, argv):
    # rejected in every mode, also where the asymptotic formulas never read N
    assert main(argv + ["--points", "3", "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"isingbath: error: N must be a whole number >= 1, got {argv[-1]}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["coherence", "--w", "1e200", "--points", "3"],
    ["concurrence", "--w", "1e200", "--points", "3"],
    ["coherence", "--J", "1e200", "--T-over-Tc", "2"],
])
def test_huge_field_of_a_disordered_bath_runs(tmp_path, capsys, argv):
    # a disordered bath in a field (m = 0, w > 0) never dephases
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    columns, data = read_csv(out)
    values = abs_r(data) if "re_r" in columns else floats(data, "abs_A")
    assert set(values.tolist()) == {1.0}


# every cell finite, also where a phase nears its 2**52 bound
@pytest.mark.parametrize("argv", [
    # m and the rate are formed from ratios to J, so no bath scale overflows
    ["coherence", "--J", "1e155", "--T-over-Tc", "0.9999", "--points", "3"],
    ["concurrence", "--J", "1e155", "--T-over-Tc", "0.9999", "--points", "3"],
    # asymptotic: the Gaussian reads 0 where (J0 t)^2 overflows, and the
    # qubit phase is 0 at xi0 = 0
    ["concurrence", "--t-max", "1e200", "--points", "3"],
    ["concurrence", "--t-max", "1e308", "--J0", "0", "--points", "3"],
    ["fig1", "--t-max", "1e308", "--J0", "0", "--points", "3"],
    # the finite-N phase N |c u| at t = 1e12 and xi0 t/2 at xi0 = 1e15, t = 8
    # stay below 2**52
    ["coherence", "--t-max", "1e12", "--points", "3"],
    ["concurrence", "--case", "4", "--xi0", "1e15", "--t-max", "8", "--points", "3"],
])
def test_an_edge_run_exits_0_with_finite_cells(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    paths = sorted(tmp_path.iterdir())
    assert len(paths) == (4 if argv[0] == "fig1" else 1)
    for path in paths:
        columns, data = read_csv(path)
        for name in columns:
            assert all(math.isfinite(float(v)) for v in data[name]), (path, name)


@pytest.mark.parametrize("command", ["concurrence", "fig1"])
def test_nothing_dephases_at_J0_0_up_to_the_largest_time(tmp_path, command):
    # B's angle is A's doubled, not A's at a doubled time, so a grid time
    # whose double overflows still has the phase 0 at J0 = 0
    argv = [command, "--t-max", "1e308", "--mode", "finite", "--J0", "0", "--points", "3"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_OK
    for path in tmp_path.iterdir():
        _, data = read_csv(path)
        assert data["t"] == ["0.0", "5e+307", "1e+308"]
        assert data["abs_A"] == data["abs_B"] == ["1.0"] * 3
        # case 2's C = 2 sqrt(p0 p3) |B| reads 1 up to the state's rounding
        assert data["C"] == [data["C"][0]] * 3
        assert float(data["C"][0]) == pytest.approx(1.0, abs=1e-15)


def _assert_scale_free_run(out, capsys):
    """A clean run at an extreme bath scale J reads what the bath at J = 1,
    with w and T divided by J, reads: m of each phase row, or coherence's tau."""
    assert capsys.readouterr().err == ""
    cfg = read_csv_config(str(out))
    columns, data = read_csv(out)
    for name in columns:
        if name != "phase":
            assert all(math.isfinite(float(v)) for v in data[name]), name
    for k, T in enumerate(cfg.temperatures()):
        bath = BathParams(J=1.0, w=cfg.w / cfg.J, T=T / cfg.J)
        sol = solve_order(bath)
        if cfg.command == "phase":
            assert float(data["m"][k]) == pytest.approx(sol.m, rel=1e-12, abs=0)
        else:
            tau = coherence_time(sol, bath, SystemParams(J0=cfg.J0))
            assert float(data["tau"][0]) == pytest.approx(tau, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["phase", "--J", "1e308", "--T", "1,2"],
    ["coherence", "--J", "1e155", "--T-over-Tc", "0.5"],
    ["coherence", "--J", "1e300", "--w", "0", "--points", "3"],
    ["phase", "--J", "1e-162", "--w", "0", "--T-over-Tc", "0.5"],
    ["coherence", "--J", "1e-162", "--w", "0", "--T-over-Tc", "0.5"],
])
def test_a_bath_scale_whose_square_leaves_the_float_range_runs_as_J_1(tmp_path, capsys, argv):
    # m and the rate are formed from ratios to J, so Theta^2 never overflows
    # or underflows
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    _assert_scale_free_run(out, capsys)


@pytest.mark.parametrize("command", ["phase", "coherence"])
def test_a_tiny_w_over_J_reads_as_w_0(tmp_path, capsys, command):
    # w/J = 1e-600 and w/(2T) underflow to 0: the bath orders and dephases
    # as at w = 0, where it read disordered, with |re_r + i im_r| = 1.0 and tau = inf
    out = tmp_path / "o.csv"
    argv = [command, "--J", "1e300", "--w", "1e-300", "--T-over-Tc", "0.2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    _assert_scale_free_run(out, capsys)
    if command == "phase":
        assert read_csv(out)[1]["phase"] == ["ordered"]


@pytest.mark.parametrize("flag, value", [("w", "-1"), ("J", "nan")])
def test_empty_temperature_list_still_checks_the_bath(tmp_path, capsys, flag, value):
    out = tmp_path / "o.csv"
    argv = ["phase", f"--{flag}", value, "--T-over-Tc", "none", "--out", str(out)]
    assert main(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{flag} must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["phase", "--J", "2", "--w", "0", "--T-over-Tc", "0.5,1.2"],
    ["coherence", "--points", "40"],
    ["concurrence", "--case", "4", "--xi0", "0.3", "--mode", "finite", "--N", "50",
     "--points", "40"],
    ["fig1", "--points", "20"],
    ["fig2", "--points", "40"],
])
def test_every_data_cell_is_a_float(tmp_path, argv):
    # a numpy scalar leaking into the writer would print as np.float64(...)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    paths = sorted(tmp_path.glob("out*"))
    assert paths
    for path in paths:
        columns, data = read_csv(path)
        for name in columns:
            if name != "phase":
                assert all(math.isfinite(float(v)) or v == "inf" for v in data[name]), name


def test_stdout_when_no_out(capsys):
    assert main(["phase", "--J", "2", "--w", "0", "--T", "0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# command=phase")
    assert "T,T_over_Tc,theta,m,phase" in out


@pytest.mark.parametrize("argv, message", [
    # an integer N past the float range, whose sqrt the finite-N forms take
    (["concurrence", "--mode", "finite", "--points", "3", "--N", str(10**309)],
     "N must be at most 1.798e+308, got 310 digits"),
    (["coherence", "--points", "3", "--N", str(10**309)],
     "N must be at most 1.798e+308, got 310 digits"),
    # a 7.11 PiB grid, past the 128 TiB of addresses Linux maps for a process,
    # so it is refused under any overcommit setting; time_grid names the key
    (["coherence", "--points", str(10**15)],
     "isingbath: error: points: Unable to allocate 7.11 PiB"),
    # RunConfig's bounds name the key, in either mode
    (["concurrence", "--mode", "finite", "--points", "3", "--N", str(10**309)],
     "isingbath: error: N must be at most 1.798e+308, got 310 digits\n"),
    (["concurrence", "--mode", "asymptotic", "--points", "3", "--N", str(10**309)],
     "isingbath: error: N must be at most 1.798e+308, got 310 digits\n"),
    (["coherence", "--points", str(10**400)], "isingbath: error: points: must be 2 to "),
    # numpy's linspace raised IndexError, a traceback, at 2**63 - 1 points
    (["concurrence", "--points", str(2**63 - 1)],
     f"isingbath: error: points: must be 2 to {cli._MAX_POINTS}, got {2**63 - 1}\n"),
    # coherence runs at this bath scale
    # (test_a_bath_scale_whose_square_leaves_the_float_range_runs_as_J_1);
    # the exact oracle's bath phase passes 2**52
    (["verify", "--J", "1e300", "--w", "0", "--N-max", "2"],
     "isingbath: error: bath phase |t| hypot(w, h)/2 = 7.18e+298 is not below 2**52 at t=0.15\n"),
    # w/(2T) overflows, but the bath phase passes 2**52 first
    (["verify", "--J", "1e-300", "--w", "1e300", "--N-max", "2"],
     "isingbath: error: bath phase |t| hypot(w, h)/2 = 7.5e+298 is not below 2**52 at t=0.15\n"),
    # t-max and t-max / J0 must be finite, checked before numpy divides the
    # scaled grid by J0
    *((argv, f"isingbath: error: t-max must be > 0 with t-max / J0 finite, got {got}\n")
      for argv, got in [
          (["coherence", "--t-max", "nan"], "t-max = nan, J0 = 1.0"),
          (["coherence", "--t-max", "inf"], "t-max = inf, J0 = 1.0"),
          (["concurrence", "--t-max", "nan"], "t-max = nan, J0 = 1.0"),
          (["concurrence", "--t-max", "inf"], "t-max = inf, J0 = 1.0"),
          (["coherence", "--J0", "1e-320", "--points", "3"], "t-max = 8.0, J0 = 1e-320"),
          (["concurrence", "--t-max", "1e300", "--J0", "1e-10", "--points", "3"],
           "t-max = 1e+300, J0 = 1e-10"),
      ]),
    # a phase that a command exponentiates reaches 2**52, where its rounding
    # is a radian: the first such time is named, in every mode and command
    *((argv, f"isingbath: error: {phase} is not below 2**52 at t={t}\n") for argv, phase, t in [
        # the finite-N closed form's N |c u|, also through B(t) = A(2t)
        (["coherence", "--t-max", "1e308", "--points", "3"], "bath phase N |c u| = inf", "5e+307"),
        (["concurrence", "--t-max", "1e308", "--mode", "finite", "--points", "3"],
         "bath phase N |c u| = inf", "5e+307"),
        (["concurrence", "--t-max", "1e307", "--mode", "finite", "--points", "3"],
         "bath phase N |c u| = inf", "5e+306"),
        (["coherence", "--t-max", "1e200", "--points", "3"],
         "bath phase N |c u| = 2.5e+202", "5e+199"),
        (["coherence", "--t-max", "1e20", "--points", "3"],
         "bath phase N |c u| = 2.5e+22", "5e+19"),
        (["coherence", "--t-max", "1e13", "--points", "3"],
         "bath phase N |c u| = 4.99e+15", "10000000000000.0"),
        (["coherence", "--points", "3", "--N", str(10**154)], "bath phase N |c u| = 2e+77", "4.0"),
        # B(t) = A(2t) meets the bound at a grid time whose A is inside it: at
        # w = 0 below Tc, c = 1/2, so with N = 4 and J0 = 1 A's phase is t
        (["concurrence", "--w", "0", "--N", "4", "--mode", "finite",
          "--t-max", "2251799813685248", "--points", "3"],
         "bath phase N |c u| = 4.5e+15", "2251799813685248.0"),
        # the qubit phase xi0 t/2 of the multiplier, and of verify's oracle
        (["concurrence", "--xi0", "1e308", "--t-max", "8", "--points", "3"],
         "qubit phase |xi0 t|/2 = inf", "4.0"),
        (["concurrence", "--case", "4", "--xi0", "1e308", "--t-max", "8", "--points", "3"],
         "qubit phase |xi0 t|/2 = inf", "4.0"),
        (["concurrence", "--case", "4", "--xi0", "1e307", "--t-max", "8", "--points", "3"],
         "qubit phase |xi0 t|/2 = 2e+307", "4.0"),
        (["concurrence", "--case", "4", "--xi0", "1e17", "--t-max", "8", "--points", "3"],
         "qubit phase |xi0 t|/2 = 2e+17", "4.0"),
        (["fig1", "--xi0", "1e308", "--points", "3"], "qubit phase |xi0 t|/2 = inf", "4.0"),
        (["verify", "--xi0", "1e308", "--N-max", "2"], "qubit phase |xi0 t|/2 = 7.5e+306", "0.15"),
        (["verify", "--xi0", "1e17", "--N-max", "2"], "qubit phase |xi0 t|/2 = 7.5e+15", "0.15"),
        # the oracle's per-spin bath phase, its dense E t and the free phase mu0 t
        (["verify", "--J0", "1e308", "--N-max", "2"],
         "bath phase |t| hypot(w, h)/2 = 7.5e+306", "0.15"),
        (["verify", "--w", "1e308", "--N-max", "2"],
         "bath phase |t| hypot(w, h)/2 = 7.5e+306", "0.15"),
        (["verify", "--w", "1e15", "--N-max", "12"], "bath phase |E t| = 4.8e+15", "2.4"),
        (["verify", "--mu0", "1e308", "--N-max", "2"], "free phase |mu0 t| = 1.5e+307", "0.15"),
        (["verify", "--mu0", "1e17", "--N-max", "2"], "free phase |mu0 t| = 1.5e+16", "0.15"),
    ]),
])
def test_a_request_past_the_float_or_address_range_exits_2(tmp_path, capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "o.csv")]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 25: in a disordered bath at w > 0 the paper's forms have "
    "c = 0, so coherence writes re_r = 1.0 and tau = inf on every row with exit 0, "
    "where the exact trace route's |r| falls to 0.0127 by t = 6 (N = 1e6)",
)
def test_the_paper_forms_refuse_a_disordered_bath_in_a_field(tmp_path, capsys):
    argv = ["coherence", "--w", "0.1", "--T-over-Tc", "1.5", "--points", "4", "--t-max", "6"]
    assert main(argv + ["--out", str(tmp_path / "o.csv")]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 23: the symmetry check's absolute 1e-12 tolerance does not "
    "scale with the bath phase; the N=8 row reads 1.098e-12 and verify exits 1",
)
def test_verify_passes_at_an_admitted_coupling():
    assert main(["verify", "--N-max", "8", "--J0", "2e3"]) == EXIT_OK


@pytest.mark.parametrize("command, key, values", [
    ("coherence", "xi0", ("0.0", "0.7")),
    ("coherence", "mu0", ("0.0", "2.5")),
    ("concurrence", "mu0", ("0.0", "2.5")),
    ("fig1", "mu0", ("0.0", "2.5")),
    ("fig2", "mu0", ("0.0", "2.5")),
])
def test_recorded_keys_that_move_no_column(tmp_path, command, key, values):
    # coherence's factor excludes the free phase exp(i mu0 t) and sees one
    # qubit (no xi0); the two-qubit columns are magnitudes and a concurrence,
    # which no local phase moves: these keys reach the header alone
    bodies, headers = [], []
    for k, value in enumerate(values):
        out = tmp_path / f"{k}.csv"
        argv = [command, "--points", "9", f"--{key}", value, "--out", str(out)]
        if command == "concurrence":
            argv += ["--case", "4", "--xi0", "0.3", "--mode", "finite", "--N", "50"]
        assert main(argv) == EXIT_OK
        paths = sorted(tmp_path.glob(f"{k}*.csv"))
        assert len(paths) == (4 if command == "fig1" else 1)
        texts = [p.read_text().split("\n", 1) for p in paths]
        headers.append([h for h, _ in texts])
        bodies.append([rows for _, rows in texts])
    assert bodies[0] == bodies[1]
    for a, b in zip(*headers):
        assert f" {key}={values[0]} " in a and f" {key}={values[1]} " in b


# the property test's text pool: the edges of the float range, a coupling
# whose bath phase passes 2**52 (3e153), non-finite and junk texts, an
# integer past the float range, and lists
_TEXTS = ["0", "-1", "5e-324", "1e-320", "3e153", "1e308", "1e400", "nan", "inf", "-inf", "abc",
          str(10**400), "0.5,0.25", "1,0,0,1", "none"]
# points past the address space fail at allocation, and past RunConfig's
# bound before any work; a larger grid that fits in memory would really be
# built, so none is drawn
_POINTS = ["2", "3", str(10**15), str(2**63 - 1)]


@st.composite
def _command_lines(draw):
    """A command and a subset of the keys it reads, at most one of each
    exclusive pair; each value is the key's SAMPLE or a pool text, so that
    runs reach the computation as well as the parser.  --out is left to
    the test."""
    command = draw(st.sampled_from(COMMANDS))
    reads = [k for k in cli._COMMANDS[command][2] if k != "out"]
    keys = draw(st.lists(st.sampled_from(reads), unique=True))
    argv = [command]
    for key in keys:
        if {"T_over_Tc": "T", "amplitudes": "case"}.get(key) in keys:
            continue
        if key == "points":
            value = draw(st.sampled_from(_POINTS))
        else:
            value = draw(st.one_of(st.just(SAMPLE[key]), st.sampled_from(_TEXTS)))
        argv.append(f"{_flag(key)}={value}")  # with "=", "-1" is a value, not a flag
    if command == "verify":
        argv.append("--N-max=" + draw(st.sampled_from(["1", "2"])))
    return argv


def _result_or_one_line(capsys, argv):
    """main(argv) with RuntimeWarnings as errors and its captured output:
    exit 0, or exit 2 with one stderr line; no verify check fails (exit 1)
    and no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_BAD_INPUT), captured.err
    assert "Traceback" not in captured.err
    if code == EXIT_BAD_INPUT:
        assert captured.err.count("\n") == 1 and captured.err.startswith("isingbath: error: ")
    return code, captured


@pytest.mark.parametrize("temperature", ["T=5e-324", "T=1e-320", "T-over-Tc=5e-324",
                                         "T-over-Tc=1e-320"])
@pytest.mark.parametrize("w", ["0", "5e-324", "0.1"])
@pytest.mark.parametrize("J", ["2", "1e-320"])
def test_verify_at_the_float_range_edges_ends_in_a_result_or_one_line(capsys, temperature, w, J):
    # the combinations of subnormal and zero bath values that the property
    # test below cannot promise to draw
    _result_or_one_line(capsys, ["verify", "--N-max=1", f"--{temperature}", f"--w={w}", f"--J={J}"])


@settings(derandomize=True, database=None, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_command_lines())
def test_every_command_line_ends_in_a_result_or_one_line(tmp_path_factory, capsys, argv):
    # exit 0 with clean CSVs, or exit 2 with one stderr line; no verify check
    # fails (exit 1).  No traceback and no RuntimeWarning.
    outdir = tmp_path_factory.mktemp("run")
    code, captured = _result_or_one_line(capsys, argv + ["--out", str(outdir / "o.csv")])
    if code == EXIT_OK and argv[0] != "verify":
        assert captured.err == ""
        paths = sorted(outdir.iterdir())
        assert len(paths) == (4 if argv[0] == "fig1" else 1)
        for path in paths:
            header, *lines = path.read_text().splitlines()
            cfg = read_csv_config(str(path))
            assert header == "# " + " ".join(f"{k}={v}" for k, v in cfg.key_values().items())
            assert not any("nan" in line.split(",") for line in lines[1:]), path
