"""Tests of the benchmark itself: generator, negative controls, tracing.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import isingbath  # noqa: E402
from bench import checks, layers, run, workloads  # noqa: E402
from bench.workloads import _cli  # noqa: E402


def _mix(jobs):
    return Counter((j["kind"], j.get("command", j.get("route"))) for j in jobs)


def _small_jobs():
    """A few tiny jobs covering every command and oracle route."""
    rng = np.random.default_rng(3)
    jobs = [
        _cli("concurrence", ["--case", "2", "--mode", "finite", "--N", "5000",
                             "--points", "12"], "c2.csv", 12),
        _cli("concurrence", ["--case", "3", "--points", "12"], "c3.csv", 12),
        _cli("concurrence", ["--amplitudes=0.3+0.1j,-0.2j,0.5,0.7-0.1j", "--xi0", "0.4",
                             "--points", "12"], "cr.csv", 12),
        _cli("fig1", ["--points", "6"], "f1", 24, curves=True),
        _cli("fig2", ["--points", "9"], "f2.csv", 9),
        _cli("coherence", ["--N", "100000000", "--points", "40"], "coh.csv", 40),
        _cli("phase", ["--w", "0.2", "--T-over-Tc", "0.3,0.9999999,1.2"], "ph.csv", 3),
        _cli("verify", ["--N-max", "2"], "v", 0),
    ]
    group = [workloads._oracle_job(rng, "factorized", 0, 4, 6)]
    group += [dict(group[0], route=r) for r in workloads.ORACLE_ROUTES[1:]]
    return jobs + group + [workloads._oracle_job(rng, "dense", 1, 4, 3)]


def _evaluate(jobs, outdir, passes=1, recorder=None):
    runs = [run.run_pass(jobs, outdir, recorder) for _ in range(passes)]
    bad = run.find_bad_jobs(jobs, runs, outdir, seed=0)
    return runs, bad


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_job_list(workload):
    a = workloads.serialize(workloads.generate(workload, 11))
    b = workloads.serialize(workloads.generate(workload, 11))
    assert a == b
    assert a != workloads.serialize(workloads.generate(workload, 12))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_keep_job_mix_and_total_points(workload):
    lists = [workloads.generate(workload, seed) for seed in range(10)]
    assert all(_mix(jobs) == _mix(lists[0]) for jobs in lists)
    assert len(lists[0]) >= 100
    totals = [workloads.total_points(jobs) for jobs in lists]
    spread = (max(totals) - min(totals)) / np.median(totals)
    assert spread <= workloads.TOTAL_POINTS_TOLERANCE


def test_clean_outputs_pass_every_check(tmp_path):
    jobs = _small_jobs()
    runs, bad = _evaluate(jobs, tmp_path, passes=2)
    assert bad == {}
    assert run.count_failed(runs, bad) == 0


def test_verify_inject_error_counts_as_failed(tmp_path):
    jobs = [_cli("verify", ["--N-max", "2", "--inject-error"], "v", 0)]
    runs, bad = _evaluate(jobs, tmp_path)
    assert runs[0].outcomes[0].error is not None
    assert run.count_failed(runs, bad) == 1


def _set_cell(text, line, column, value):
    lines = text.split("\n")
    cells = lines[line].split(",")
    cells[column] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("corrupt", [
    lambda text: _set_cell(text, 3, 2, "nan"),  # C is NaN
    lambda text: _set_cell(text, 4, 2, "0.123"),  # case 2: C != |B|
    lambda text: text.replace("case=2", "case=2 junk", 1),  # header does not round-trip
    lambda text: "\n".join(text.split("\n")[:-3]) + "\n",  # rows missing
])
def test_corrupted_csv_counts_as_failed(tmp_path, corrupt):
    jobs = [_cli("concurrence", ["--case", "2", "--points", "12"], "c2.csv", 12)]
    runs = [run.run_pass(jobs, tmp_path)]
    path = tmp_path / "c2.csv"
    path.write_text(corrupt(path.read_text()))
    bad = run.find_bad_jobs(jobs, runs, tmp_path, seed=0)
    assert list(bad) == [0]
    assert run.count_failed(runs, bad) == 1


def test_perturbed_oracle_route_counts_as_failed(tmp_path):
    jobs = _small_jobs()[-5:]
    runs = [run.run_pass(jobs, tmp_path)]
    products = runs[0].outcomes[1].result  # the trace route's (A*, B*, D*) per time
    a_star, b_star, d_star = products[2]
    products[2] = (a_star + 1e-6, b_star, d_star)
    bad = run.find_bad_jobs(jobs, runs, tmp_path, seed=0)
    assert list(bad) == [1]


def test_output_change_between_passes_counts_as_failed(tmp_path):
    jobs = [_cli("concurrence", ["--case", "1", "--points", "5"], "c1.csv", 5)]
    first = run.run_pass(jobs, tmp_path)
    second = run.run_pass(jobs, tmp_path)
    second.digests[0] = "different"
    bad = run.find_bad_jobs(jobs, [first, second], tmp_path, seed=0)
    assert run.count_failed([first, second], bad) == 2


def test_tracing_leaves_csvs_byte_identical_and_restores_functions(tmp_path):
    jobs = _small_jobs()
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    before = isingbath.cli.concurrence
    untraced_pass = run.run_pass(jobs, plain)
    recorder = layers.SpanRecorder()
    traced_pass = run.run_pass(jobs, traced, recorder)
    names = sorted(p.name for p in plain.iterdir())
    assert names and names == sorted(p.name for p in traced.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes()
    assert untraced_pass.digests == traced_pass.digests
    assert isingbath.cli.concurrence is before is isingbath.entanglement.concurrence
    times = recorder.self_times()
    assert times["entanglement.concurrence"][0] > 0
    assert times["su2.trace_triple"][0] > 0
    assert recorder.exact_zeros >= 12  # every case-3 row


def test_self_time_excludes_child_spans():
    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        bath = isingbath.BathParams(J=2.0, w=0.1, T=0.5)
        sol = isingbath.mean_field.solve_order(bath)
        sys_p = isingbath.SystemParams(J0=1.0)
        isingbath.dephasing.dephasing_coeffs(0.7, sol, bath, sys_p, mode="finite", N=100)
    finally:
        recorder.uninstall()
    t = recorder.table()
    dur = t[:, 4] - t[:, 3]
    times = recorder.self_times()
    total_self = sum(v[1] for v in times.values())
    top = dur[t[:, 1] == -1].sum()
    assert total_self == top  # self times of a span tree add up to its roots
    assert times["dephasing.dephasing_coeffs"][2] == 1  # one entry into the layer
    calls, _, entries = times["dephasing.coherence_factor_finite"]
    assert (calls, entries) == (2, 0)  # both nested inside dephasing_coeffs


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER_METRICS]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wootters_reference_on_known_states():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    assert checks.wootters_concurrence(bell) == pytest.approx(1.0, abs=1e-15)
    assert checks.wootters_concurrence(np.diag([1.0, 0, 0, 0]).astype(complex)) == 0.0
    # a decayed case-2 state: mpmath's QR stalls on R at 30 digits
    faded = np.diag([0.5 - 1e-16, 0, 0, 0.5 - 1e-16]).astype(complex)
    faded[0, 3] = faded[3, 0] = 5.5303944064231406e-33
    assert checks.wootters_concurrence(faded) == pytest.approx(2 * faded[0, 3].real, rel=1e-9)
