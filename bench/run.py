"""Benchmark of the isingbath package: seeded workloads, output checks, metrics.

    python3 bench/run.py --workload sweeps --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
One process runs one workload as a closed loop with one client: the job
list of ``workloads.generate(workload, seed)`` runs job after job, each
through ``isingbath.cli.main(argv)`` or one public ``isingbath.oracle``
function, and the whole list is repeated while another pass still fits
in ``--seconds``.  CSVs go to a scratch directory under ``.bench_out/``
that is removed at exit.  BLAS runs on one thread.

Job times are corrected for the machine's speed at the moment each job ran
(``clock.py``), and a job's latency is its median time over the passes;
the raw pass times are printed alongside.  With ``--trace 0`` it reports
the end-to-end metrics: ``wall_s`` (the job latencies summed over the job
list), ``throughput_pts_per_s`` (CSV data rows plus oracle time points of
the job list per second of ``wall_s``), ``op_p50_ms`` and ``op_p90_ms``
(percentiles of the job latencies; every job list has at least 100 jobs),
``peak_rss_mb`` (peak resident memory of this process after the warm-up
and the first pass) and ``setup_s`` (median over fresh interpreters of the
time until ``import isingbath`` returns).  It also prints
``fail_ratio``: jobs that raised, exited nonzero, gave a different output
in another pass, or failed an output check (``checks.py``), over jobs run.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py``; the traced spans are written to
``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
WORKLOADS = ("sweeps", "coherence", "oracle")
SETUP_REPEATS = 7
END_TO_END = (
    ("wall_s", "s"), ("throughput_pts_per_s", "points/s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isingbath" / "__init__.py").is_file():
        print(f"bench: no isingbath sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import isingbath

    if not Path(isingbath.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported isingbath from {isingbath.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args)


@dataclass
class Pass:
    wall: float  # sum of the speed-corrected job times
    raw_wall: float  # elapsed time of the pass, probes included
    latencies: list[float]  # speed-corrected seconds per job
    outcomes: list
    digests: list[str]
    traced: bool


def run_workload(args) -> int:
    from bench import jobs as jobs_mod
    from bench import layers, workloads

    setup_s = measure_setup()
    jobs = workloads.generate(args.workload, args.seed)
    outdir = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True)
    recorder = layers.SpanRecorder() if args.trace else None
    try:
        warm = outdir / "warmup"
        warm.mkdir()
        for job in workloads.warmup_jobs(args.workload):
            jobs_mod.execute(jobs_mod.prepare(job, warm))

        passes, layer_samples, oracle_samples = [], [], []
        start = time.perf_counter()
        while True:
            traced = recorder is not None and len(passes) % 2 == 1
            if traced:
                recorder.reset()
            p = run_pass(jobs, outdir, recorder if traced else None)
            passes.append(p)
            if len(passes) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if traced:
                rows, size = csv_volume(jobs, outdir)
                layer_samples.append(layers.span_metrics(
                    recorder.self_times(), recorder.exact_zeros, p.raw_wall, rows, size))
            else:
                oracle_samples.append(layers.oracle_metrics(jobs, p.latencies))
            elapsed = time.perf_counter() - start
            if len(passes) >= (2 if recorder else 1) and elapsed + p.raw_wall > args.seconds:
                break

        bad = find_bad_jobs(jobs, passes, outdir, args.seed)
        if recorder is not None:
            recorder.save(SCRATCH / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    attempted = len(passes) * len(jobs)
    failed = count_failed(passes, bad)
    report_failures(jobs, passes, bad)

    if recorder is None:
        per_job = [statistics.median(p.latencies[i] for p in passes) for i in range(len(jobs))]
        wall_s = sum(per_job)
        metrics = {
            "wall_s": wall_s,
            "throughput_pts_per_s": produced_points(jobs, passes, bad) / wall_s,
            "op_p50_ms": 1e3 * statistics.median(per_job),
            "op_p90_ms": 1e3 * statistics.quantiles(per_job, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = dict(END_TO_END)
    else:
        metrics = layers.median_metrics(layer_samples)
        metrics.update(layers.median_metrics(oracle_samples))
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.wall for p in passes if p.traced)
            / statistics.median(p.wall for p in passes if not p.traced))
        units = {name: unit for name, unit, _ in layers.PER_LAYER_METRICS}
        metrics = {name: metrics[name] for name in units}

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} jobs={len(jobs)} passes={len(passes)} "
          f"points_per_pass={workloads.total_points(jobs)} "
          f"job_list_sha256={workloads.job_list_digest(jobs)[:16]}")
    print("# " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print("# raw_pass_wall_s=" + ",".join(f"{p.raw_wall:.4f}" for p in passes)
          + " speed_corrected_pass_wall_s=" + ",".join(f"{p.wall:.4f}" for p in passes))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(f"{'fail_ratio':40s} {failed / attempted:14.6g} ({failed}/{attempted} jobs failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_pass(jobs, outdir, recorder=None) -> Pass:
    """One pass over the job list, a speed probe before each job and after
    the last; the probes run outside the job timer."""
    from bench import clock
    from bench import jobs as jobs_mod

    calls = [jobs_mod.prepare(job, outdir) for job in jobs]
    outcomes, probes = [], []
    if recorder is not None:
        recorder.install()
    try:
        t0 = time.perf_counter()
        probes.append(clock.probe())
        for i, call in enumerate(calls):
            if recorder is not None:
                recorder.job = i
            outcomes.append(jobs_mod.execute(call))
            probes.append(clock.probe())
        raw_wall = time.perf_counter() - t0
    finally:
        if recorder is not None:
            recorder.uninstall()
    latencies = [o.seconds / f for o, f in zip(outcomes, clock.speed_factors(probes))]
    digests = [jobs_mod.output_digest(job, o, outdir) for job, o in zip(jobs, outcomes)]
    return Pass(sum(latencies), raw_wall, latencies, outcomes, digests, recorder is not None)


def find_bad_jobs(jobs, passes: list[Pass], outdir, seed) -> dict[int, list[str]]:
    """Jobs whose last-pass output fails a check or whose output changed
    between passes, with the reasons."""
    from bench import checks  # mpmath loads only after peak RSS is read

    bad = checks.check_outputs(jobs, [o.result for o in passes[-1].outcomes], outdir, seed)
    for i in range(len(jobs)):
        if len({p.digests[i] for p in passes}) > 1:
            bad.setdefault(i, []).append("output differs between passes")
    return bad


def count_failed(passes: list[Pass], bad: dict[int, list[str]]) -> int:
    """Job runs that raised or exited nonzero, plus every run of a bad job."""
    return sum(1 for p in passes for i, o in enumerate(p.outcomes)
               if o.error is not None or i in bad)


def produced_points(jobs, passes: list[Pass], bad: dict[int, list[str]]) -> int:
    """Points of one pass, counting only jobs that never failed."""
    from bench import workloads

    return sum(workloads.job_points(job) for i, job in enumerate(jobs)
               if i not in bad and all(p.outcomes[i].error is None for p in passes))


def csv_volume(jobs, outdir) -> tuple[int, int]:
    """CSV data rows and bytes one pass writes."""
    rows = sum(job["rows"] for job in jobs if job["kind"] == "cli")
    size = sum((outdir / name).stat().st_size
               for job in jobs if job["kind"] == "cli" for name in job["outputs"]
               if (outdir / name).exists())
    return rows, size


def report_failures(jobs, passes, bad, limit=10) -> None:
    shown = 0
    for i, job in enumerate(jobs):
        errors = sorted({p.outcomes[i].error for p in passes if p.outcomes[i].error})
        for msg in errors + bad.get(i, []):
            if shown < limit:
                label = job["command"] if job["kind"] == "cli" else job["route"]
                print(f"bench: job {i} ({label}) failed: {msg}", file=sys.stderr)
            shown += 1
    if shown > limit:
        print(f"bench: ... {shown - limit} more failures", file=sys.stderr)


def measure_setup() -> float:
    """Median time from starting a fresh interpreter to `import isingbath`
    returning, in the pinned environment, corrected for machine speed like
    the job times.  The first start is not counted: it may compile the
    package's bytecode."""
    from bench import clock

    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time, isingbath; print(time.monotonic_ns())"
    samples, probes = [], [clock.probe()]
    for k in range(SETUP_REPEATS + 1):
        t0 = time.monotonic_ns()
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        if k:
            samples.append((int(out.split()[-1]) - t0) / 1e9)
            probes.append(clock.probe())
    return statistics.median(s / f for s, f in zip(samples, clock.speed_factors(probes)))


def environment() -> dict[str, str]:
    """Informational fields; none of them is a gated metric."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']}-{blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": str(len(os.sched_getaffinity(0))),
        "commit": git_commit(),
        "src_lines": str(sum(p.read_bytes().count(b"\n") for p in SRC.rglob("*.py"))),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_all(args) -> int:
    """Every workload, each in its own process so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if status:
        return status
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
