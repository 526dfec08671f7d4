"""Per-layer metrics: a span recorder around isingbath's public functions,
and per-route oracle timings taken from the untraced job timer.

The recorder wraps each function in ``TRACED`` at every place an isingbath
module binds it (``isingbath.cli.concurrence`` and
``isingbath.entanglement.concurrence`` are the same function bound twice),
records one span per call, and restores the originals when uninstalled.
Spans live in memory as flat int64 records ``(id, parent, name, start_ns,
end_ns, job)``; a span's self time is its duration minus the durations of
its direct children.  Span times are raw clock readings; the per-route
oracle times and ``trace.overhead_ratio`` come from the speed-corrected
job timer of ``run.py``.

Which end-to-end metric each layer should move, and on which workload:

* mean_field.solve_order -> wall_s, throughput on coherence (phase jobs)
* dephasing.coeffs -> throughput on coherence; <1% of sweeps
* two_qubit.evolve_reduced -> throughput on sweeps
* entanglement.concurrence -> wall_s, throughput, op_p90_ms on sweeps;
  zero calls on coherence and oracle
* su2 -> op_p50_ms on oracle
* oracle routes -> op_p90_ms (dense) and op_p50_ms (the others) on oracle
* cli.main, cli.write_csv -> wall_s, mostly on coherence
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

TRACED = {
    "mean_field": ("solve_order",),
    "dephasing": ("dephasing_coeffs", "coherence_factor_finite",
                  "coherence_magnitude_asymptotic", "coherence_time"),
    "two_qubit": ("evolve_reduced",),
    "entanglement": ("concurrence",),
    "su2": ("trace_triple", "exp_imag", "single_spin_gibbs"),
    "oracle": ("simulate_exact", "extract_products", "reconstruct_reduced",
               "single_qubit_coherence_exact"),
    "cli": ("main", "write_csv"),
}
SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "job")

ORACLE_ROUTE_SIZES = {
    "factorized": range(4, 13), "trace": range(4, 13), "reconstruct": range(4, 13),
    "single_qubit": range(4, 13), "dense": (4, 6, 8),
}


def _metric_table() -> list[tuple[str, str, str]]:
    out = []
    for name in ("mean_field.solve_order", "two_qubit.evolve_reduced", "entanglement.concurrence"):
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower"),
                (f"{name}.us_per_call", "us", "lower")]
    out += [("entanglement.concurrence.share", "ratio", "lower"),
            ("entanglement.concurrence.exact_zeros", "count", "higher"),
            ("dephasing.coeffs.calls", "count", "lower"),
            ("dephasing.coeffs.self_ms", "ms", "lower"),
            ("dephasing.coeffs.us_per_point", "us", "lower"),
            ("su2.trace_triple.calls", "count", "lower"),
            ("su2.exp_imag.calls", "count", "lower"),
            ("su2.self_ms", "ms", "lower")]
    for route, sizes in ORACLE_ROUTE_SIZES.items():
        out += [(f"oracle.{route}.ms_per_time.N{n}", "ms", "lower") for n in sizes]
    out += [("oracle.dense.gflop_computed", "GFLOP", "lower"),
            ("oracle.dense.gflop_per_s", "GFLOP/s", "higher"),
            ("cli.main.self_ms", "ms", "lower"),
            ("cli.write_csv.self_ms", "ms", "lower"),
            ("cli.write_csv.bytes", "bytes", "lower"),
            ("cli.write_csv.us_per_row", "us", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


PER_LAYER_METRICS = _metric_table()


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        self.job = -1
        self.spans = array("q")
        self.exact_zeros = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop the recorded spans; the wrappers keep recording into the same buffers."""
        del self.spans[:]
        self._stack.clear()
        self.exact_zeros = 0
        self._next_id = 0

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "isingbath" or name.startswith("isingbath.")]
        for code, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"isingbath.{layer}"), fn_name)
            wrapped = self._wrap(code, original, count_zeros=name == "entanglement.concurrence")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, code: int, fn, *, count_zeros: bool):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, parent, code, t0, t1, self.job))
            if count_zeros and result.c == 0.0:
                self.exact_zeros += 1
            return result

        return span

    def table(self) -> np.ndarray:
        # a copy: a live view would pin the buffer and block reset()
        return np.array(self.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))

    def self_times(self) -> dict[str, tuple[int, float, int]]:
        """Per traced function: (calls, self ns, calls entered from another layer)."""
        t = self.table()
        ids, parents, codes = t[:, 0], t[:, 1], t[:, 2]
        dur = t[:, 4] - t[:, 3]
        child = np.zeros(self._next_id, dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child[ids]
        code_of = np.full(self._next_id + 1, -1)  # index -1 maps to "no parent"
        code_of[ids] = codes
        layer_of = np.array([n.split(".")[0] for n in self.names] + [""])
        entries = layer_of[code_of[parents]] != layer_of[codes]
        out = {}
        for code, name in enumerate(self.names):
            mask = codes == code
            out[name] = (int(mask.sum()), float(own[mask].sum()), int((mask & entries).sum()))
        return out

    def save(self, path: Path) -> None:
        np.savez(path, spans=self.table(), fields=np.array(SPAN_FIELDS), names=np.array(self.names))


def span_metrics(times: dict[str, tuple[int, float, int]], exact_zeros: int,
                 wall_s: float, csv_rows: int, csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""

    def total(*names):
        calls = sum(times[n][0] for n in names)
        self_ms = sum(times[n][1] for n in names) / 1e6
        entries = sum(times[n][2] for n in names)
        return calls, self_ms, entries

    def per(ms, count):
        return 1e3 * ms / count if count else 0.0

    m = {}
    for name in ("mean_field.solve_order", "two_qubit.evolve_reduced", "entanglement.concurrence"):
        calls, self_ms, _ = total(name)
        m.update({f"{name}.calls": calls, f"{name}.self_ms": self_ms,
                  f"{name}.us_per_call": per(self_ms, calls)})
    m["entanglement.concurrence.share"] = m["entanglement.concurrence.self_ms"] / 1e3 / wall_s
    m["entanglement.concurrence.exact_zeros"] = exact_zeros
    calls, self_ms, entries = total(*(f"dephasing.{fn}" for fn in TRACED["dephasing"]))
    m.update({"dephasing.coeffs.calls": calls, "dephasing.coeffs.self_ms": self_ms,
              "dephasing.coeffs.us_per_point": per(self_ms, entries)})
    m["su2.trace_triple.calls"] = times["su2.trace_triple"][0]
    m["su2.exp_imag.calls"] = times["su2.exp_imag"][0]
    m["su2.self_ms"] = total(*(f"su2.{fn}" for fn in TRACED["su2"]))[1]
    m["cli.main.self_ms"] = total("cli.main")[1]
    write_ms = total("cli.write_csv")[1]
    m.update({"cli.write_csv.self_ms": write_ms, "cli.write_csv.bytes": csv_bytes,
              "cli.write_csv.us_per_row": per(write_ms, csv_rows)})
    return m


def dense_flops(N: int, n_times: int) -> float:
    """Floating-point operations of the dense route, computed from matrix
    sizes: three complex D x D products per time point (8 D^3 each) plus a
    complex Hermitian eigendecomposition with vectors (~4 x 9 D^3)."""
    d = 2 ** (N + 2)
    return (24.0 * n_times + 36.0) * d**3


def oracle_metrics(jobs: list[dict], seconds: list[float]) -> dict[str, float]:
    """Per-route, per-N cost per time point of one untraced pass, from the
    speed-corrected job timer around each oracle call."""
    spent: dict[tuple[str, int], list[float]] = {}
    for job, s in zip(jobs, seconds):
        if job["kind"] == "oracle":
            acc = spent.setdefault((job["route"], job["N"]), [0.0, 0])
            acc[0] += s
            acc[1] += len(job["times"])
    m = {}
    for route, sizes in ORACLE_ROUTE_SIZES.items():
        for n in sizes:
            s, points = spent.get((route, n), (0.0, 0))
            m[f"oracle.{route}.ms_per_time.N{n}"] = 1e3 * s / points if points else 0.0
    dense = [(job, s) for job, s in zip(jobs, seconds)
             if job["kind"] == "oracle" and job["route"] == "dense"]
    gflop = sum(dense_flops(job["N"], len(job["times"])) for job, _ in dense) / 1e9
    dense_s = sum(s for _, s in dense)
    m["oracle.dense.gflop_computed"] = gflop
    m["oracle.dense.gflop_per_s"] = gflop / dense_s if dense_s else 0.0
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
