"""Seeded job lists for the three benchmark workloads.

A job is a plain JSON-serialisable dict, so a job list can be hashed:

* ``{"kind": "cli", "command": ..., "argv": [...], "out": name,
  "outputs": [csv names], "rows": n}`` runs ``isingbath.cli.main(argv +
  ["--out", dir/out])``; ``rows`` is the number of CSV data rows it must
  write (0 for ``verify``, which writes none).
* ``{"kind": "oracle", "route": ..., "group": g, "N": n, "bath": {...},
  "sys": {...}, "state": [[re, im] x 4], "times": [...]}`` calls one
  public function of ``isingbath.oracle``.  Jobs of one ``group`` share
  their inputs, so the output checks can compare routes with each other.

Each workload has a fixed number of jobs of each kind and a fixed multiset
of grid sizes, so every seed gives the same job-kind mix and the same total
points (``TOTAL_POINTS_TOLERANCE``).  The seed moves the physics
parameters, which job gets which grid size, and the job order.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from isingbath.cli import FIG1_T_OVER_TC

WORKLOADS = ("sweeps", "coherence", "oracle")

# Relative spread of a job list's total points across seeds, checked by the
# benchmark's own tests; grid sizes are the same multiset for every seed.
TOTAL_POINTS_TOLERANCE = 0.0

ORACLE_ROUTES = ("factorized", "trace", "reconstruct", "single_qubit")
ORACLE_SIZES = tuple(range(4, 13))
ORACLE_GROUPS_PER_SIZE = 8
# (N, jobs, time points); the dense route costs ~(2^(N+2))^3 per time point
DENSE_PLAN = ((4, 6, 20), (6, 4, 8), (8, 1, 2))

# jobs per pass, and the [lo, hi] range their grid sizes spread over
SWEEPS_CONCURRENCE = (("case1", 26), ("case2", 26), ("case3", 26),
                      ("case4", 6), ("random", 7))
SWEEPS_POINTS = (80, 200)
SWEEPS_FIG1 = 6
FIG1_POINTS = (80, 160)
SWEEPS_FIG2 = 12
FIG2_POINTS = (250, 500)
COHERENCE_JOBS = 80
COHERENCE_POINTS = (1000, 12000)
PHASE_JOBS = 40
PHASE_POINTS = (500, 2000)


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of one pass of ``workload``; a pure function of the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = {"sweeps": _sweeps, "coherence": _coherence, "oracle": _oracle}[workload](rng)
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def job_list_digest(jobs: list[dict]) -> str:
    return hashlib.sha256(serialize(jobs)).hexdigest()


def serialize(jobs: list[dict]) -> bytes:
    return json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode()


def total_points(jobs: list[dict]) -> int:
    """CSV data rows plus oracle time points of one pass."""
    return sum(job_points(job) for job in jobs)


def job_points(job: dict) -> int:
    return job["rows"] if job["kind"] == "cli" else len(job["times"])


def warmup_jobs(workload: str) -> list[dict]:
    """One tiny job of every kind the workload runs, executed before timing."""
    rng = np.random.default_rng([0, 99, WORKLOADS.index(workload)])
    if workload == "sweeps":
        return [
            _cli("concurrence", ["--case", "4", "--mode", "finite", "--N", "1000",
                                 "--points", "5"], "warm_c", 5),
            _cli("fig1", ["--points", "3"], "warm_f1", 12, curves=True),
            _cli("fig2", ["--points", "3"], "warm_f2", 3),
        ]
    if workload == "coherence":
        return [
            _cli("coherence", ["--points", "5"], "warm_c", 5),
            _cli("phase", ["--T-over-Tc", "0.5,0.9"], "warm_p", 2),
        ]
    jobs = [_cli("verify", ["--N-max", "2"], "warm_v", 0)]
    for route in ORACLE_ROUTES + ("dense",):
        jobs.append(_oracle_job(rng, route, 0, 2, 4))
    return jobs


# ---------------------------------------------------------------- helpers


def _f(x: float) -> str:
    return repr(round(float(x), 6))


def _stratified(rng, n: int, lo: int, hi: int) -> list[int]:
    """n integers spread log-uniformly over [lo, hi], at the midpoints of n
    equal strata, in random order: every seed gets the same sizes."""
    u = (rng.permutation(n) + 0.5) / n
    return [int(round(lo * (hi / lo) ** x)) for x in u]


def _log_int(rng, lo: float, hi: float) -> int:
    return int(round(10 ** rng.uniform(math.log10(lo), math.log10(hi))))


def _physics(rng) -> list[str]:
    """Bath and qubit parameters shared by the sweep commands (T/Tc in (0, 1))."""
    return ["--J", _f(rng.uniform(1.0, 3.0)), "--w", _f(rng.uniform(0.0, 0.3)),
            "--T-over-Tc", _f(rng.uniform(0.02, 0.98)),
            "--J0", _f(rng.uniform(0.5, 2.0)), "--xi0", _f(rng.uniform(0.0, 0.5))]


def _mode(i: int, rng) -> list[str]:
    # alternate modes inside each kind so every seed has the same split
    if i % 2:
        return ["--mode", "finite", "--N", str(_log_int(rng, 1e2, 1e8))]
    return ["--mode", "asymptotic"]


def _random_amplitudes(rng) -> str:
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    return ",".join(f"{_f(c.real)}{'+' if c.imag >= 0 else '-'}{_f(abs(c.imag))}j" for c in z)


def _cli(command: str, args: list[str], out: str, rows: int, *, curves: bool = False) -> dict:
    if curves:
        outputs = [f"{out}_TTc{r:.2f}.csv" for r in FIG1_T_OVER_TC]
    elif command == "verify":
        outputs = []
    else:
        outputs = [out]
    return {"kind": "cli", "command": command, "argv": [command] + args,
            "out": out, "outputs": outputs, "rows": rows}


# ---------------------------------------------------------------- workloads


def _sweeps(rng) -> list[dict]:
    jobs = []
    for label, count in SWEEPS_CONCURRENCE:
        for i, points in enumerate(_stratified(rng, count, *SWEEPS_POINTS)):
            state = (["--amplitudes=" + _random_amplitudes(rng)] if label == "random"
                     else ["--case", label[-1]])
            args = (_physics(rng) + state + _mode(i, rng)
                    + ["--t-max", _f(rng.uniform(4.0, 16.0)), "--points", str(points)])
            jobs.append(_cli("concurrence", args, f"c_{label}_{i}.csv", points))
    for i, points in enumerate(_stratified(rng, SWEEPS_FIG1, *FIG1_POINTS)):
        args = (["--J0", _f(rng.uniform(0.5, 2.0)), "--xi0", _f(rng.uniform(0.0, 0.5))]
                + _mode(i, rng) + ["--t-max", _f(rng.uniform(4.0, 12.0)),
                                   "--points", str(points)])
        jobs.append(_cli("fig1", args, f"fig1_{i}", 4 * points, curves=True))
    # fig2 keeps the preset's own parameters, so these jobs, the most
    # expensive per point, form a block of like cost that holds op_p90_ms
    for i, points in enumerate(_stratified(rng, SWEEPS_FIG2, *FIG2_POINTS)):
        jobs.append(_cli("fig2", ["--points", str(points)], f"fig2_{i}.csv", points))
    return jobs


def _phase_grid(rng, n: int, J: float, w: float) -> list[float]:
    """T/Tc values: a third uniform below Tc, a third clustered at Tc and a
    third clustered at the w > 0 ordering boundary w/J = tanh(w/2T)."""
    boundary = (w / (2.0 * math.atanh(w / J))) / (0.5 * J)
    k = n // 3

    def near(centre, m):
        return centre * (1.0 + rng.choice((-1.0, 1.0), m) * 10 ** rng.uniform(-8.0, -1.0, m))

    grid = np.concatenate([rng.uniform(0.0, 1.0, k) + 1e-9, near(1.0, k),
                           near(boundary, n - 2 * k)])
    return sorted(float(x) for x in grid)


def _coherence(rng) -> list[dict]:
    jobs = []
    for i, points in enumerate(_stratified(rng, COHERENCE_JOBS, *COHERENCE_POINTS)):
        args = (_physics(rng) + ["--mu0", _f(rng.uniform(0.0, 1.0)),
                                 "--N", str(_log_int(rng, 1e2, 1e8)),
                                 "--t-max", _f(rng.uniform(5.0, 40.0)),
                                 "--points", str(points)])
        jobs.append(_cli("coherence", args, f"coh_{i}.csv", points))
    for i, points in enumerate(_stratified(rng, PHASE_JOBS, *PHASE_POINTS)):
        J, w = rng.uniform(1.0, 3.0), rng.uniform(0.02, 0.3)
        grid = _phase_grid(rng, points, J, w)
        args = ["--J", repr(J), "--w", repr(w),
                "--T-over-Tc", ",".join(repr(x) for x in grid)]
        jobs.append(_cli("phase", args, f"phase_{i}.csv", points))
    return jobs


def _oracle_job(rng, route: str, group: int, N: int, n_times: int) -> dict:
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    t_max = rng.uniform(2.0, 10.0)
    t0 = 0.1 if route == "dense" else 0.0
    return {
        "kind": "oracle", "route": route, "group": group, "N": N,
        "bath": {"J": round(rng.uniform(1.0, 3.0), 6), "w": round(rng.uniform(0.0, 0.3), 6),
                 "T_over_Tc": round(rng.uniform(0.1, 0.9), 6)},
        "sys": {"J0": round(rng.uniform(0.5, 2.0), 6), "mu0": round(rng.uniform(0.0, 0.5), 6),
                "xi0": round(rng.uniform(0.0, 0.5), 6)},
        "state": [[round(float(c.real), 6), round(float(c.imag), 6)] for c in z],
        "times": [float(t) for t in np.linspace(t0, t_max, n_times)],
    }


def _oracle(rng) -> list[dict]:
    jobs = []
    for _ in range(2):
        jobs.append(_cli("verify", _physics(rng) + ["--N-max", "12"], "verify", 0))
    group = 0
    n_times = _stratified(rng, len(ORACLE_SIZES) * ORACLE_GROUPS_PER_SIZE, 150, 250)
    for N in ORACLE_SIZES:
        for _ in range(ORACLE_GROUPS_PER_SIZE):
            base = _oracle_job(rng, "factorized", group, N, n_times[group])
            jobs.extend(dict(base, route=route) for route in ORACLE_ROUTES)
            group += 1
    for N, count, n_t in DENSE_PLAN:
        for _ in range(count):
            jobs.append(_oracle_job(rng, "dense", group, N, n_t))
            group += 1
    return jobs
