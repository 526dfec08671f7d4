"""Runs benchmark jobs against the isingbath package, one at a time.

Every timed call looks its function up on the module (``cli.main``,
``oracle.simulate_exact``, ...) when it runs, so a span recorder installed
on those attributes sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from isingbath import cli, dephasing, mean_field, oracle, two_qubit


@dataclass
class Outcome:
    seconds: float
    error: str | None  # None: the call returned and exited with code 0
    result: object = None  # oracle output, kept for the output checks


def prepare(job: dict, outdir: Path) -> Callable[[], object]:
    """The job's timed call, with its inputs built in advance."""
    if job["kind"] == "cli":
        argv = job["argv"] + ["--out", str(outdir / job["out"])]
        return lambda: _run_cli(argv)
    cfg = oracle_config(job)
    route = job["route"]
    if route == "factorized":
        return lambda: oracle.simulate_exact(cfg)
    if route == "dense":
        return lambda: oracle.simulate_exact(cfg, method="dense")
    if route == "trace":
        return lambda: oracle.extract_products(cfg)
    if route == "reconstruct":
        return lambda: oracle.reconstruct_reduced(cfg)
    if route == "single_qubit":
        return lambda: oracle.single_qubit_coherence_exact(cfg.N, cfg.bath, cfg.sys, cfg.times)
    raise ValueError(f"unknown oracle route {route!r}")


def execute(call: Callable[[], object]) -> Outcome:
    t0 = time.perf_counter()
    try:
        result = call()
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return Outcome(time.perf_counter() - t0, f"exit code {exc.code}")
    except Exception as exc:
        return Outcome(time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
    return Outcome(time.perf_counter() - t0, None, result)


def oracle_config(job: dict) -> oracle.OracleConfig:
    b = job["bath"]
    T = b["T_over_Tc"] * mean_field.critical_temperature(b["J"])
    state = two_qubit.PureState2Q.normalized(*(complex(re, im) for re, im in job["state"]))
    return oracle.OracleConfig(
        N=job["N"],
        bath=mean_field.BathParams(J=b["J"], w=b["w"], T=T),
        sys=dephasing.SystemParams(**job["sys"]),
        state=state,
        times=tuple(job["times"]),
    )


def output_digest(job: dict, outcome: Outcome, outdir: Path) -> str:
    """Hash of everything the job produced, to compare passes with each other."""
    h = hashlib.sha256()
    if job["kind"] == "cli":
        for name in job["outputs"]:
            path = outdir / name
            h.update(path.read_bytes() if path.exists() else b"<missing>")
    elif outcome.result is not None:
        h.update(np.asarray(outcome.result).tobytes())
    return h.hexdigest()


class _ExitCode(Exception):
    pass


def _run_cli(argv: list[str]) -> None:
    # verify reports on stdout, which carries the benchmark's own result
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise _ExitCode(f"isingbath {argv[0]} exited with code {code}")
