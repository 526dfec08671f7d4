import math
import re
import warnings

import numpy as np
import pytest

from isingbath import cli
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
from isingbath.dephasing import SystemParams, coherence_time
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


def test_coherence_columns(tmp_path):
    out = tmp_path / "coh.csv"
    code = main(["coherence", "--T-over-Tc", "0.5", "--N", "1000000",
                 "--t-max", "30", "--points", "200", "--out", str(out)])
    assert code == EXIT_OK
    columns, data = read_csv(out)
    assert columns == ["t", "J0_t", "re_r", "im_r", "abs_r", "abs_r_asymptotic", "tau"]
    assert floats(data, "abs_r")[0] == 1.0
    assert floats(data, "abs_r_asymptotic")[0] == 1.0
    # finite N = 1e6 tracks the Gaussian everywhere on the grid
    assert np.abs(floats(data, "abs_r") - floats(data, "abs_r_asymptotic")).max() < 1e-4
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
    want = np.abs(np.cos(floats(data, "J0_t") / (2.0 * math.sqrt(8.0))) ** 8)
    assert np.abs(floats(data, "abs_r") - want).max() <= 1e-13
    assert data["tau"][0] == repr(2.0 * math.sqrt(2.0))


@pytest.mark.parametrize("argv", [
    ["--J0", "0"],  # no coupling; the grid is raw t
    ["--J", "0", "--w", "0.1", "--T", "1"],  # a disordered bath in a field
])
def test_coherence_that_never_decays(tmp_path, argv):
    out = tmp_path / "coh.csv"
    assert main(["coherence", *argv, "--points", "5", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert set(data["abs_r"]) == {"1.0"} and set(data["tau"]) == {"inf"}


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


# the keys each command reads, in _KEYS order: its flags and its --config lines
PHYSICS = ["J", "w", "T", "T_over_Tc", "J0", "xi0", "mu0"]
READS = {
    "phase": ["J", "w", "T", "T_over_Tc", "out"],
    "coherence": PHYSICS + ["N", "t_max", "points", "out"],
    "concurrence": PHYSICS + ["case", "amplitudes", "mode", "N", "t_max", "points", "out"],
    "fig1": ["J0", "xi0", "mu0", "mode", "N", "t_max", "points", "out"],
    "fig2": ["T", "T_over_Tc", "J0", "mu0", "mode", "N", "t_max", "points", "out"],
    "verify": PHYSICS + ["out"],
}
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
    extra = ["--N-max"] if command == "verify" else []  # --inject-error is hidden
    assert listed == ["--help", "--config", *map(_flag, READS[command]), *extra]


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
    assert main(["verify", "--N-max", "2", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text() == report


def test_concurrence_case1_constant(tmp_path):
    out = tmp_path / "c1.csv"
    assert main(["concurrence", "--case", "1", "--points", "30", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    c = floats(data, "C")
    assert np.abs(c - 1.0).max() < 1e-12
    assert (c <= 1.0).all()


@pytest.mark.parametrize("mode", ["asymptotic", "finite"])
def test_concurrence_case2_tracks_abs_B(tmp_path, mode):
    out = tmp_path / "c2.csv"
    assert main(["concurrence", "--case", "2", "--mode", mode, "--N", "1000",
                 "--points", "30", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    c = floats(data, "C")
    assert np.abs(c - floats(data, "abs_B")).max() < 1e-12
    assert (c <= 1.0).all()  # including the Bell state at t = 0


def test_concurrence_case3_zero(tmp_path):
    out = tmp_path / "c3.csv"
    assert main(["concurrence", "--case", "3", "--points", "30", "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert (floats(data, "C") == 0.0).all()


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
    columns, data = read_csv(out)
    assert "no_bath_C" in columns
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
])
def test_verify_passes_at_and_above_tc(capsys, argv):
    # the Ising bath's free spins dephase: the closed forms stay exact above Tc
    assert main(["verify", *argv]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out


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


def test_verify_negative_control(capsys):
    assert main(["verify", "--N-max", "2", "--inject-error"]) == EXIT_VERIFY_FAILED
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("amplitudes", ["1e200,1e200,0,0", "1e-170,1e-170,0,0"])
def test_concurrence_amplitudes_at_extreme_scales(tmp_path, amplitudes):
    # the squared norm overflows or underflows; the state is the same as at scale 1
    def rows(text):
        out = tmp_path / "o.csv"
        assert main(["concurrence", "--amplitudes", text, "--points", "9",
                     "--out", str(out)]) == EXIT_OK
        return out.read_text().splitlines()[1:]

    assert rows(amplitudes) == rows("1,1,0,0")


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
    ("J", "abc"), ("case", "9"), ("mode", "foo"), ("amplitudes", "1,2,3"),
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


@pytest.mark.parametrize("old, new", [(" case=2 ", " case=9 "), (" xi0=", " xi=")])
def test_csv_header_is_checked_like_flags(tmp_path, old, new):
    out = tmp_path / "c.csv"
    assert main(["concurrence", "--points", "3", "--out", str(out)]) == EXIT_OK
    header, rest = out.read_text().split("\n", 1)
    assert old in header
    out.write_text(header.replace(old, new) + "\n" + rest)
    with pytest.raises(InvalidParams):
        read_csv_config(str(out))


@pytest.mark.parametrize("command", ["coherence", "concurrence"])
@pytest.mark.parametrize("t_max", ["nan", "inf"])
def test_non_finite_t_max_exits_2(tmp_path, capsys, command, t_max):
    out = tmp_path / "o.csv"
    assert main([command, "--t-max", t_max, "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "t-max" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["coherence", "--J0", "1e-320", "--points", "3"],
    ["concurrence", "--t-max", "1e300", "--J0", "1e-10", "--points", "3"],
])
def test_time_grid_overflow_exits_2(tmp_path, capsys, argv):
    # t-max / J0 is checked before numpy divides the scaled grid by J0
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "t-max" in err and "J0" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["coherence", "--t-max", "1e308", "--points", "3"],
    ["concurrence", "--t-max", "1e308", "--J0", "0", "--points", "3"],
    ["concurrence", "--t-max", "1e308", "--mode", "finite", "--points", "3"],
])
def test_time_grid_beyond_the_float_range_exits_2(tmp_path, capsys, argv):
    # B(t) = A(2t) doubles the last time t-max / J0 (raw t-max when J0 = 0)
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "t-max" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["coherence", "--t-max", "1e200", "--points", "3"],
    ["concurrence", "--t-max", "1e200", "--points", "3"],
    ["concurrence", "--t-max", "1e307", "--mode", "finite", "--points", "3"],
])
def test_time_grid_far_inside_the_float_range_runs(tmp_path, capsys, argv):
    # only the doubled last time bounds t-max: the Gaussian reads 0 where x^2 overflows
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    columns, data = read_csv(out)
    for name in columns:
        assert all(math.isfinite(float(v)) for v in data[name]), name


@pytest.mark.parametrize("argv", [
    ["coherence", "--w", "1e200", "--points", "3"],
    ["concurrence", "--w", "1e200", "--points", "3"],
    ["coherence", "--J", "1e200", "--T-over-Tc", "2"],
])
def test_huge_field_of_a_disordered_bath_runs(tmp_path, capsys, argv):
    # a disordered bath in a field (m = 0, w > 0) never dephases: no Theta^2 is formed
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    columns, data = read_csv(out)
    col = "abs_r" if "abs_r" in columns else "abs_A"
    assert set(data[col]) == {"1.0"}


@pytest.mark.parametrize("argv", [
    ["coherence", "--J", "1e155", "--T-over-Tc", "0.9999", "--points", "3"],
    ["concurrence", "--J", "1e155", "--T-over-Tc", "0.9999", "--points", "3"],
])
def test_huge_bath_scale_near_tc_runs(tmp_path, capsys, argv):
    # Theta is small near Tc, so Theta^2 stays finite, and no J^2 is formed
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    columns, data = read_csv(out)
    for name in columns:
        assert all(math.isfinite(float(v)) for v in data[name]), name


@pytest.mark.parametrize("argv", [
    ["phase", "--J", "1e308", "--T", "1,2"],
    ["coherence", "--J", "1e155", "--T-over-Tc", "0.5"],
])
def test_overflowing_bath_scale_exits_2_naming_J(tmp_path, capsys, argv):
    # Theta^2 overflows
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"J={float(argv[2])!r} is too large" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["phase", "coherence"])
def test_underflowing_bath_scale_exits_2_naming_J(tmp_path, capsys, command):
    # Theta^2 underflows to 0: m read 0.0 as ordered, and |r| = 1
    out = tmp_path / "o.csv"
    argv = [command, "--J", "1e-162", "--w", "0", "--T-over-Tc", "0.5", "--out", str(out)]
    assert main(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "J=1e-162 is too small" in err
    assert not out.exists()


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
