"""Output checks run after the timed passes; a job that fails one counts as failed.

CLI jobs: every CSV parses, holds no NaN and has the expected row count,
and its ``# key=value`` header round-trips through ``read_csv_config``.
Per command:

* concurrence, fig1, fig2: 0 <= C <= 1; case 1 gives C = 1 and case 2 gives
  C = |B| to 1e-12; case 3 gives C == 0.0 exactly; on a seeded sample of
  rows C matches an independent Wootters evaluation to 1e-8.
* coherence: on a seeded sample of rows r(t) matches a 30-digit mpmath
  evaluation of [cos(phi) + i (Theta/J) sin(phi)]^N to 1e-10 relative or
  1e-12 absolute.
* phase: 0 <= m <= 1/2, and ordered rows solve tanh(Theta/2T) = Theta/J
  within solve_order's default tolerance.

Oracle jobs: every route agrees with another route on the same inputs to
1e-10.  ``verify`` has no output to check; its exit code decides.
"""

from __future__ import annotations

import cmath
import inspect
import math
from pathlib import Path

import mpmath
import numpy as np

from isingbath import cli, dephasing, mean_field, oracle, su2, two_qubit
from isingbath.errors import IsingBathError

from .jobs import oracle_config

CASE_TOL = 1e-12
WOOTTERS_TOL = 1e-8
WOOTTERS_SAMPLES = 2
COHERENCE_REL_TOL = 1e-10
COHERENCE_ABS_TOL = 1e-12
COHERENCE_SAMPLES = 5
ORACLE_TOL = 1e-10
MP_DIGITS = 30
SOLVE_TOL = inspect.signature(mean_field.solve_order).parameters["tol"].default

_SIGMA_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])


def check_outputs(jobs: list[dict], results: list, outdir: Path, seed: int) -> dict[int, list[str]]:
    """Problems per job index; a job with none is absent from the result."""
    rng = np.random.default_rng([seed, 7])
    refs = _OracleReferences(jobs, results)
    problems: dict[int, list[str]] = {}
    for i, job in enumerate(jobs):
        if job["kind"] == "cli":
            found = []
            for name in job["outputs"]:
                rows = job["rows"] // len(job["outputs"])
                found += [f"{name}: {p}" for p in check_csv(outdir / name, job, rows, rng)]
        else:
            found = refs.check(i)
        if found:
            problems[i] = found
    return problems


# ---------------------------------------------------------------- CSV


def check_csv(path: Path, job: dict, rows: int, rng) -> list[str]:
    try:
        text = path.read_text()
        cfg = cli.read_csv_config(str(path))
    except (OSError, IndexError, ValueError, IsingBathError) as exc:
        return [f"unreadable: {exc}"]
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) < 3:
        return ["truncated file"]
    lines = lines[:-1]
    problems = []
    header = "# " + " ".join(f"{k}={v}" for k, v in cfg.key_values().items())
    if header != lines[0]:
        problems.append("header does not round-trip through read_csv_config")
    if cfg.command != job["command"]:
        problems.append(f"header command {cfg.command!r}, expected {job['command']!r}")
    if len(lines) - 2 != rows:
        problems.append(f"{len(lines) - 2} data rows, expected {rows}")
    try:
        table = _parse_rows(lines[1].split(","), lines[2:])
        if cfg.command in ("concurrence", "fig1", "fig2"):
            problems += _check_concurrence(cfg, table, rng)
        elif cfg.command == "coherence":
            problems += _check_coherence(cfg, table, rng)
        elif cfg.command == "phase":
            problems += _check_phase(cfg, table)
    except (KeyError, ValueError, IsingBathError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems


def _parse_rows(columns: list[str], lines: list[str]) -> dict[str, np.ndarray]:
    cells = [line.split(",") for line in lines]
    if any(len(row) != len(columns) for row in cells):
        raise ValueError("row width differs from the column line")
    table = {}
    for k, name in enumerate(columns):
        values = [row[k] for row in cells]
        if name == "phase":
            table[name] = np.array(values)
            continue
        col = np.array([float(v) for v in values])  # ValueError on garbage
        if np.isnan(col).any():
            raise ValueError(f"NaN in column {name}")
        table[name] = col
    return table


def _physics(cfg):
    T = cfg.temperatures()[0]
    bath = mean_field.BathParams(J=cfg.J, w=cfg.w, T=T)
    sys_p = dephasing.SystemParams(J0=cfg.J0, mu0=cfg.mu0, xi0=cfg.xi0)
    return bath, mean_field.solve_order(bath), sys_p


def _check_concurrence(cfg, table, rng) -> list[str]:
    c, abs_b = table["C"], table["abs_B"]
    problems = []
    if not ((c >= 0.0) & (c <= 1.0)).all():
        problems.append("C outside [0, 1]")
    if cfg.amplitudes is None:
        if cfg.case == 1 and np.abs(c - 1.0).max() > CASE_TOL:
            problems.append(f"case 1: max |C - 1| = {np.abs(c - 1.0).max():.3e}")
        if cfg.case == 2 and np.abs(c - abs_b).max() > CASE_TOL:
            problems.append(f"case 2: max |C - |B|| = {np.abs(c - abs_b).max():.3e}")
        if cfg.case == 3 and (c != 0.0).any():
            problems.append(f"case 3: {(c != 0.0).sum()} rows with C != 0.0")
    bath, sol, sys_p = _physics(cfg)
    kwargs = {"mode": cfg.mode}
    if cfg.mode == dephasing.MODE_FINITE:
        kwargs["N"] = cfg.N
    state = cfg.state()
    for k in rng.choice(len(c), size=min(WOOTTERS_SAMPLES, len(c)), replace=False):
        t = float(table["t"][k])
        coeffs = dephasing.dephasing_coeffs(t, sol, bath, sys_p, **kwargs)
        ref = wootters_concurrence(two_qubit.evolve_reduced(state, t, cfg.xi0, coeffs))
        if abs(c[k] - ref) > WOOTTERS_TOL:
            problems.append(f"row {k}: C = {c[k]!r}, Wootters reference {ref!r}")
    return problems


def wootters_concurrence(rho: np.ndarray) -> float:
    """C = max(l1 - l2 - l3 - l4, 0), l_i the square roots of the eigenvalues
    of R = rho (sy x sy) rho* (sy x sy), in decreasing order.

    R is not normal, and at rank-deficient rho (any pure state) its zero
    eigenvalues come out of a double-precision eigensolver with errors near
    sqrt(eps); their square roots then move C by ~1e-8.  The eigenvalues
    are therefore taken with mpmath at MP_DIGITS digits, or at twice or four
    times that where its QR iteration stalls: it does when two eigenvalues
    are split by about the working precision (case 2 with |B| ~ 1e-32).
    """
    for digits in (MP_DIGITS, 2 * MP_DIGITS, 4 * MP_DIGITS):
        with mpmath.workdps(digits):
            r = mpmath.matrix(rho.tolist())
            s = mpmath.matrix(_SIGMA_YY.tolist())
            try:
                eig = mpmath.eig(r * (s * r.apply(mpmath.conj) * s), left=False, right=False)
            except RuntimeError:
                if digits == 4 * MP_DIGITS:
                    raise
                continue
            lam = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in eig), reverse=True)
            return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0))


def _check_coherence(cfg, table, rng) -> list[str]:
    bath, sol, sys_p = _physics(cfg)
    problems = []
    n = len(table["t"])
    for k in rng.choice(n, size=min(COHERENCE_SAMPLES, n), replace=False):
        t = float(table["t"][k])
        got = complex(table["re_r"][k], table["im_r"][k])
        ref = mp_coherence_factor(t, cfg.N, sol, bath, sys_p)
        if abs(got - ref) > max(COHERENCE_REL_TOL * abs(ref), COHERENCE_ABS_TOL):
            problems.append(f"row {k}: r = {got!r}, {MP_DIGITS}-digit reference {ref!r}")
    return problems


def mp_coherence_factor(t, N, sol, bath, sys_p) -> complex:
    """[cos(phi) + i (Theta/J) sin(phi)]^N, phi = t m J J0 / (Theta sqrt(N))."""
    if sol.m == 0.0:
        return 1.0 + 0.0j
    with mpmath.workdps(MP_DIGITS):
        mpf = mpmath.mpf
        phi = mpf(t) * mpf(sol.m) * mpf(bath.J) * mpf(sys_p.J0) / (mpf(sol.theta) * mpmath.sqrt(N))
        z = mpmath.mpc(mpmath.cos(phi), mpf(sol.theta) / mpf(bath.J) * mpmath.sin(phi))
        return complex(z**N)


def _check_phase(cfg, table) -> list[str]:
    problems = []
    m, theta, T = table["m"], table["theta"], table["T"]
    if not ((m >= 0.0) & (m <= 0.5)).all():
        problems.append("m outside [0, 1/2]")
    for k, phase in enumerate(table["phase"]):
        if phase == mean_field.PHASE_ORDERED:
            residual = abs(math.tanh(theta[k] / (2.0 * T[k])) - theta[k] / cfg.J)
            if not residual < SOLVE_TOL:
                problems.append(f"row {k}: self-consistency residual {residual:.3e}")
        elif m[k] != 0.0 or theta[k] != cfg.w:
            problems.append(f"row {k}: disordered row with m={m[k]!r}, theta={theta[k]!r}")
    return problems


# ---------------------------------------------------------------- oracle


class _OracleReferences:
    """Compares each oracle route with another route on the same inputs,
    reusing the factorized and reconstruct results of the job's group."""

    def __init__(self, jobs, results):
        self.jobs = jobs
        self.results = results
        self.by_group = {}
        for i, job in enumerate(jobs):
            if job["kind"] == "oracle" and results[i] is not None:
                self.by_group[(job["group"], job["route"])] = results[i]

    def _route(self, job, route):
        key = (job["group"], route)
        if key not in self.by_group:
            cfg = oracle_config(job)
            run = oracle.simulate_exact if route == "factorized" else oracle.reconstruct_reduced
            self.by_group[key] = run(cfg)
        return self.by_group[key]

    def check(self, i) -> list[str]:
        job, got = self.jobs[i], self.results[i]
        if got is None:
            return []  # the call itself failed and is counted already
        route = job["route"]
        if route in ("reconstruct", "dense"):
            err = _max_diff(got, self._route(job, "factorized"))
        elif route == "factorized":
            err = _max_diff(got, self._route(job, "reconstruct"))
        elif route == "trace":
            err = _products_vs_matrices(job, got, self._route(job, "factorized"))
        else:
            err = max(abs(a - b) for a, b in zip(got, _single_qubit_products(job)))
        if not err <= ORACLE_TOL:
            return [f"{route} route differs from its reference by {err:.3e}"]
        return []


def _max_diff(a, b) -> float:
    return max(float(np.abs(x - y).max()) for x, y in zip(a, b, strict=True))


def _products_vs_matrices(job, products, matrices) -> float:
    """Trace-identity products A*, B*, D* against the factorized matrices'
    (|00>,|01>), (|00>,|11>) and (|01>,|11>) coherences."""
    cfg = oracle_config(job)
    a, b, _, d = cfg.state.amplitudes()
    err = 0.0
    for t, (a_star, b_star, d_star), rho in zip(cfg.times, products, matrices, strict=True):
        p = cmath.exp(0.5j * cfg.sys.xi0 * t)
        err = max(err,
                  abs(rho[0, 1] - a * b.conjugate() * a_star.conjugate() * p),
                  abs(rho[0, 3] - a * d.conjugate() * b_star.conjugate()),
                  abs(rho[1, 3] - b * d.conjugate() * d_star.conjugate() * p.conjugate()))
    return err


def _single_qubit_products(job) -> list[complex]:
    """r(t) as the N-th power of tr[exp(i I1) g exp(i I2)] from explicit 2x2
    propagators and Gibbs state (su2.exp_imag, su2.single_spin_gibbs), the
    matrix-product counterpart of the oracle's closed trace identity."""
    cfg = oracle_config(job)
    bath, sys_p = cfg.bath, cfg.sys
    sol = mean_field.solve_order(bath)
    h0 = 2.0 * sol.m * bath.J
    half_shift = sys_p.J0 / (2.0 * math.sqrt(cfg.N))
    g = su2.single_spin_gibbs(bath.w, h0, bath.T)
    out = []
    for t in cfg.times:
        u1 = su2.exp_imag(su2.TracelessXZ(a=0.5 * t * bath.w, b=0.5 * t * (h0 + half_shift)))
        u2 = su2.exp_imag(su2.TracelessXZ(a=-0.5 * t * bath.w, b=-0.5 * t * (h0 - half_shift)))
        per_spin = complex(np.trace(u1 @ g @ u2))
        out.append(cmath.exp(1j * sys_p.mu0 * t) * per_spin**cfg.N)
    return out
