"""What the benchmark harness under bench/ needs of the package.

The harness is kept fixed while the package changes under it.  It wraps
functions by name (bench/layers.py TRACED), checks outputs through the
package's own functions (bench/checks.py reads solve_order's tol default at
import) and runs CLI and oracle jobs (bench/jobs.py).  This test runs the
harness's tiny warm-up jobs of every workload with its span recorder
installed, so a package change that breaks the harness fails here and not
only under bench/tests.
"""

from pathlib import Path

import isingbath.cli
import isingbath.entanglement

ROOT = Path(__file__).resolve().parents[1]


def test_bench_harness_traces_and_runs_every_warmup_job(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT))
    from bench import checks, jobs, layers, workloads  # noqa: F401  checks: its import-time reads

    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        outcomes = [jobs.execute(jobs.prepare(job, tmp_path))
                    for workload in workloads.WORKLOADS for job in workloads.warmup_jobs(workload)]
    finally:
        recorder.uninstall()
    assert outcomes and [o.error for o in outcomes] == [None] * len(outcomes)
    assert isingbath.cli.concurrence is isingbath.entanglement.concurrence
