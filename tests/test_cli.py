import math

import numpy as np
import pytest

from isingbath.cli import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    RunConfig,
    main,
    read_csv_config,
)
from isingbath.errors import InvalidParams


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


def test_verify_negative_control(capsys):
    assert main(["verify", "--N-max", "2", "--inject-error"]) == EXIT_VERIFY_FAILED
    assert "FAIL" in capsys.readouterr().out


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
    cfg_file.write_text("J=2.0\nw=0.0\nT_over_Tc=0.5\npoints=7\n# comment\n")
    out = tmp_path / "o.csv"
    assert main(["phase", "--config", str(cfg_file), "--w", "0.1",
                 "--out", str(out)]) == EXIT_OK
    cfg = read_csv_config(str(out))
    assert cfg.w == 0.1  # flag wins
    assert cfg.T_over_Tc == (0.5,)  # from file
    assert cfg.points == 7


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    # a typo must not fall back silently to the default xi0
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("J=2.0\nxi=0.3\n")
    out = tmp_path / "o.csv"
    assert main(["concurrence", "--config", str(cfg_file), "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'xi'" in err
    assert not out.exists()


def test_run_config_round_trip(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["concurrence", "--case", "2", "--T-over-Tc", "0.35,0.5",
                 "--amplitudes", "0.6,0,0,0.8", "--mode", "finite", "--N", "777",
                 "--t-max", "3.5", "--points", "9", "--out", str(out)]) == EXIT_OK
    cfg = read_csv_config(str(out))
    rebuilt = RunConfig.from_key_values(cfg.key_values())
    assert rebuilt == cfg
    assert cfg.amplitudes == (0.6 + 0j, 0j, 0j, 0.8 + 0j)
    assert cfg.N == 777


def test_invalid_inputs_exit_2(tmp_path, capsys):
    assert main(["phase", "--J", "-3"]) == EXIT_BAD_INPUT
    assert main(["concurrence", "--T-over-Tc", "-0.5"]) == EXIT_BAD_INPUT
    assert main(["coherence", "--points", "1"]) == EXIT_BAD_INPUT
    capsys.readouterr()
    assert main(["concurrence", "--amplitudes", "1,2,3"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.count("\n") == 1
    with pytest.raises(SystemExit):
        main(["spectrum"])  # unknown subcommand


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
    assert main(["phase", *args, "--out", str(out)]) == EXIT_BAD_INPUT
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


def test_stdout_when_no_out(capsys):
    assert main(["phase", "--J", "2", "--w", "0", "--T", "0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("# command=phase")
    assert "T,T_over_Tc,theta,m,phase" in out
