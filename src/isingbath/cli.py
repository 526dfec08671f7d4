"""Command-line driver: sweeps, figure presets and the oracle verify suite.

Emits deterministic CSV: a `# key=value ...` parameter header (which
round-trips back into a run configuration), a column-name line, then data
rows.  Time grids are specified in scaled units J0*t (raw t when J0 = 0).
Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dephasing import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    SystemParams,
    coherence_factor_finite,
    coherence_magnitude_asymptotic,
    coherence_time,
    dephasing_coeffs,
)
# concurrence is re-exported: existing callers reach it as isingbath.cli.concurrence
from .entanglement import concurrence, concurrences  # noqa: F401
from .errors import IsingBathError, InvalidParams
from .mean_field import BathParams, critical_temperature, solve_order
from .oracle import (
    OracleConfig,
    extract_coeffs,
    extract_products,
    reconstruct_reduced,
    simulate_exact,
    single_qubit_coherence_exact,
)
from .two_qubit import PureState2Q, case_state, evolve_reduced

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2

FIG1_T_OVER_TC = (0.75, 0.50, 0.35, 0.25)
VERIFY_BATH_SIZES = (1, 2, 4, 6, 8, 10, 12)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one CLI run."""

    command: str
    J: float = 2.0
    w: float = 0.1
    T: tuple[float, ...] = ()  # absolute temperatures; wins over T_over_Tc
    T_over_Tc: tuple[float, ...] = (0.25,)
    J0: float = 1.0
    xi0: float = 0.0
    mu0: float = 0.0
    case: int = 2
    amplitudes: tuple[complex, complex, complex, complex] | None = None
    mode: str = MODE_ASYMPTOTIC
    N: int = 10**6
    t_max: float = 8.0
    points: int = 200
    out: str | None = None

    def __post_init__(self):
        if self.case not in (1, 2, 3, 4):
            raise InvalidParams(f"case must be 1, 2, 3 or 4, got {self.case}")
        if self.mode not in (MODE_FINITE, MODE_ASYMPTOTIC):
            raise InvalidParams(
                f"mode must be {MODE_FINITE!r} or {MODE_ASYMPTOTIC!r}, got {self.mode!r}"
            )

    def temperatures(self) -> tuple[float, ...]:
        if self.T:
            return self.T
        tc = critical_temperature(self.J)
        if tc <= 0:
            raise InvalidParams("T/Tc temperatures need J > 0")
        return tuple(r * tc for r in self.T_over_Tc)

    def state(self) -> PureState2Q:
        if self.amplitudes is not None:
            return PureState2Q.normalized(*self.amplitudes)
        return case_state(self.case)

    def time_grid(self) -> np.ndarray:
        if self.points < 2:
            raise InvalidParams(f"points must be >= 2, got {self.points}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise InvalidParams(f"t-max must be finite and > 0, got {self.t_max}")
        if self.J0 > 0 and not math.isfinite(self.t_max / self.J0):
            raise InvalidParams(f"t-max / J0 = {self.t_max!r} / {self.J0!r} overflows")
        scaled = np.linspace(0.0, self.t_max, self.points)
        return scaled / self.J0 if self.J0 > 0 else scaled

    def key_values(self) -> dict[str, str]:
        # the output path is not a physics parameter and would break
        # byte-identical output across destinations
        out: dict[str, str] = {}
        for f in fields(self):
            if f.name == "out":
                continue
            out[f.name] = _format_value(getattr(self, f.name))
        return out

    @classmethod
    def from_key_values(cls, mapping: dict[str, str]) -> "RunConfig":
        """Parse text values keyed by field name; flags, --config lines and
        CSV headers all come through here."""
        kwargs = {}
        for key, text in mapping.items():
            if key not in _PARSERS:
                raise InvalidParams(f"unknown key {key!r}")
            try:
                kwargs[key] = _PARSERS[key](text)
            except ValueError as exc:
                raise InvalidParams(f"{key}: {exc}") from None
        if "command" not in kwargs:
            raise InvalidParams("configuration is missing the command")
        return cls(**kwargs)


def _format_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, complex):
        sign = "+" if v.imag >= 0 else "-"
        return f"{v.real!r}{sign}{abs(v.imag)!r}j"
    if isinstance(v, tuple):
        return ";".join(_format_value(x) for x in v)
    raise TypeError(f"cannot serialize {v!r}")


def _parse_float_tuple(s: str) -> tuple[float, ...]:
    s = s.strip()
    if not s or s == "none":
        return ()
    return tuple(float(x) for x in s.replace(";", ",").split(",") if x.strip())


def _parse_amplitudes(s: str):
    s = s.strip()
    if not s or s == "none":
        return None
    parts = [x.strip() for x in s.replace(";", ",").split(",")]
    if len(parts) != 4:
        raise InvalidParams(f"need 4 comma-separated entries, got {len(parts)}")
    return tuple(complex(x) for x in parts)


def _parse_optional_str(s: str) -> str | None:
    return None if s == "none" else s


_PARSERS = {
    "command": str,
    "J": float,
    "w": float,
    "T": _parse_float_tuple,
    "T_over_Tc": _parse_float_tuple,
    "J0": float,
    "xi0": float,
    "mu0": float,
    "case": int,
    "amplitudes": _parse_amplitudes,
    "mode": str,
    "N": int,
    "t_max": float,
    "points": int,
    "out": _parse_optional_str,
}


def write_csv(cfg: RunConfig, columns: list[str], rows: list[tuple], path: str | None) -> None:
    header = "# " + " ".join(f"{k}={v}" for k, v in cfg.key_values().items())
    lines = [header, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _parse_key_values(tokens: list[str], source: str) -> dict[str, str]:
    """key=value tokens (--config lines, CSV header words) as text; blank
    tokens and # comments are skipped."""
    mapping = {}
    for token in map(str.strip, tokens):
        if not token or token.startswith("#"):
            continue
        key, sep, value = token.partition("=")
        if not sep:
            raise InvalidParams(f"malformed key=value {token!r} in {source}")
        mapping[key.strip()] = value.strip()
    return mapping


def read_csv_config(path: str) -> RunConfig:
    """Rebuild the RunConfig from an emitted CSV's parameter header."""
    first = Path(path).read_text().splitlines()[0]
    if not first.startswith("# "):
        raise InvalidParams(f"{path} has no parameter header")
    return RunConfig.from_key_values(_parse_key_values(first[2:].split(" "), path))


# ---------------------------------------------------------------- commands


def cmd_phase(cfg: RunConfig) -> int:
    tc = critical_temperature(cfg.J)
    rows = []
    for T in cfg.temperatures():
        sol = solve_order(BathParams(J=cfg.J, w=cfg.w, T=T))
        rows.append((T, T / tc if tc > 0 else math.inf, sol.theta, sol.m, sol.phase))
    write_csv(cfg, ["T", "T_over_Tc", "theta", "m", "phase"], rows, cfg.out)
    return EXIT_OK


def cmd_coherence(cfg: RunConfig) -> int:
    T = cfg.temperatures()[0]
    bath = BathParams(J=cfg.J, w=cfg.w, T=T)
    sol = solve_order(bath)
    sys_p = SystemParams(J0=cfg.J0, mu0=cfg.mu0, xi0=cfg.xi0)
    tau = coherence_time(sol, bath, sys_p)
    rows = []
    for t in cfg.time_grid():
        r = coherence_factor_finite(t, cfg.N, sol, bath, sys_p)
        rows.append(
            (t, cfg.J0 * t, r.real, r.imag, abs(r),
             coherence_magnitude_asymptotic(t, sol, bath, sys_p), tau)
        )
    write_csv(
        cfg,
        ["t", "J0_t", "re_r", "im_r", "abs_r", "abs_r_asymptotic", "tau"],
        rows,
        cfg.out,
    )
    return EXIT_OK


def _concurrence_rows(cfg: RunConfig) -> tuple[list[str], list[tuple]]:
    bath = BathParams(J=cfg.J, w=cfg.w, T=cfg.temperatures()[0])
    sol = solve_order(bath)
    sys_p = SystemParams(J0=cfg.J0, mu0=cfg.mu0, xi0=cfg.xi0)
    state = cfg.state()
    with_reference = cfg.amplitudes is None and cfg.case == 4
    columns = ["t", "J0_t", "C", "abs_A", "abs_B"]
    if with_reference:
        columns.append("no_bath_C")
    times = cfg.time_grid()
    # coefficients stay per point so abs_A and abs_B keep their math/cmath digits
    coeffs = [dephasing_coeffs(t, sol, bath, sys_p, mode=cfg.mode, N=cfg.N) for t in times]
    cs = concurrences(evolve_reduced(state, times, cfg.xi0, coeffs)).tolist()
    rows = []
    for t, k, c in zip(times, coeffs, cs):
        row = (t, cfg.J0 * t, c, abs(k.A), abs(k.B))
        if with_reference:
            row = row + (abs(math.sin(0.5 * cfg.xi0 * t)),)
        rows.append(row)
    return columns, rows


def cmd_concurrence(cfg: RunConfig) -> int:
    columns, rows = _concurrence_rows(cfg)
    write_csv(cfg, columns, rows, cfg.out)
    return EXIT_OK


def cmd_fig1(cfg: RunConfig) -> int:
    """One CSV per temperature curve, coldest decaying slowest."""
    prefix = cfg.out if cfg.out is not None else "fig1"
    for ratio in FIG1_T_OVER_TC:
        curve = replace(cfg, T=(), T_over_Tc=(ratio,), out=f"{prefix}_TTc{ratio:.2f}.csv")
        cmd_concurrence(curve)
    return EXIT_OK


# ---------------------------------------------------------------- verify


def _verify_state(rng) -> PureState2Q:
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PureState2Q.normalized(*raw)


def cmd_verify(cfg: RunConfig, n_max: int = 6, inject_error: bool = False) -> int:
    """Cross-check the exact oracle against the closed forms.

    Structural checks (factorized vs dense vs trace-identity routes) run at
    the working transverse field; closed-form equivalence checks run in the
    Ising limit w = 0, the regime where the finite-N formulas are exact
    identities rather than large-N asymptotics.
    """
    if n_max < 1:
        raise InvalidParams(f"N-max must be >= 1, got {n_max}")
    tol = 1e-10
    sym_tol = 1e-12
    sizes = [n for n in VERIFY_BATH_SIZES if n <= n_max]
    rng = np.random.default_rng(20240809)
    sys_p = SystemParams(J0=cfg.J0, mu0=cfg.mu0, xi0=cfg.xi0 if cfg.xi0 > 0 else 0.3)
    T = cfg.temperatures()[0]
    bath_tim = BathParams(J=cfg.J, w=cfg.w, T=T)
    bath_im = BathParams(J=cfg.J, w=0.0, T=T)
    times = tuple(np.linspace(0.15, 2.4, 8))
    checks: list[tuple[str, float, float]] = []

    for n in sizes:
        state = _verify_state(rng)
        cfg_tim = OracleConfig(N=n, bath=bath_tim, sys=sys_p, state=state, times=times)
        cfg_im = OracleConfig(N=n, bath=bath_im, sys=sys_p, state=state, times=times)
        sol_tim = solve_order(bath_tim, tol=1e-15)
        sol_im = solve_order(bath_im, tol=1e-15)

        fac = simulate_exact(cfg_tim, sol_tim)
        rec = reconstruct_reduced(cfg_tim, sol_tim)
        err = max(float(np.abs(a - b).max()) for a, b in zip(fac, rec))
        checks.append((f"N={n} propagator vs trace-identity route (w={cfg.w})", err, tol))

        if n <= 6:
            den = simulate_exact(cfg_tim, sol_tim, method="dense")
            err = max(float(np.abs(a - b).max()) for a, b in zip(fac, den))
            checks.append((f"N={n} factorized vs dense evolution (w={cfg.w})", err, tol))

            r_tr = single_qubit_coherence_exact(n, bath_tim, sys_p, times, sol_tim)
            r_de = single_qubit_coherence_exact(
                n, bath_tim, sys_p, times, sol_tim, method="dense"
            )
            err = max(abs(a - b) for a, b in zip(r_tr, r_de))
            checks.append((f"N={n} single-qubit trace vs dense (w={cfg.w})", err, tol))

        coeffs = extract_coeffs(cfg_im, sol_im)
        closed = [
            dephasing_coeffs(t, sol_im, bath_im, sys_p, mode=MODE_FINITE, N=n)
            for t in times
        ]
        err = max(
            max(abs(a.A - b.A), abs(a.B - b.B)) for a, b in zip(coeffs, closed)
        )
        if inject_error:
            err += 1e-6
        checks.append((f"N={n} exact coefficients vs closed form (w=0)", err, tol))

        fac_im = simulate_exact(cfg_im, sol_im)
        evolved = evolve_reduced(state, np.array(times), sys_p.xi0, closed)
        err = max(float(np.abs(a - b).max()) for a, b in zip(fac_im, evolved))
        checks.append((f"N={n} oracle vs closed-form reduced matrix (w=0)", err, tol))

        err = max(abs(a - d) for a, _, d in extract_products(cfg_im, sol_im))
        checks.append((f"N={n} one-excitation coefficient symmetry (w=0)", err, sym_tol))

        # the closed form excludes the free phase exp(i mu0 t); the exact route has it
        r_cl = [
            cmath.exp(1j * sys_p.mu0 * t) * coherence_factor_finite(t, n, sol_im, bath_im, sys_p)
            for t in times
        ]
        r_ex = single_qubit_coherence_exact(n, bath_im, sys_p, times, sol_im)
        err = max(abs(a - b) for a, b in zip(r_cl, r_ex))
        checks.append((f"N={n} single-qubit closed form vs exact (w=0)", err, tol))

    failed = False
    for name, err, bound in checks:
        status = "ok" if err < bound else "FAIL"
        if err >= bound:
            failed = True
        print(f"{status:4s} {name}: max error {err:.3e} (tol {bound:g})")
    print("verify:", "FAILED" if failed else "all checks passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------- parsing


# RunConfig field -> help of its flag, which is the field name with "_" -> "-";
# flag values stay text until RunConfig.from_key_values parses them
_FLAG_HELP = {
    "J": "bath exchange coupling",
    "w": "bath transverse field",
    "T": "temperature(s), absolute",
    "T_over_Tc": "temperature(s) as a fraction of Tc = J/2",
    "J0": "system-bath coupling",
    "xi0": "qubit-qubit coupling",
    "mu0": "single-qubit field (free phase)",
    "case": "paradigmatic initial state: 1, 2, 3 or 4",
    "amplitudes": "four comma-separated complex amplitudes, normalized after parsing",
    "mode": f"{MODE_FINITE} (finite-N coefficients) or {MODE_ASYMPTOTIC} (large-N magnitudes)",
    "N": "bath size for finite mode",
    "t_max": "maximum scaled time J0*t (raw t when J0=0)",
    "points": "number of time-grid points",
    "out": "output CSV path (fig1: path prefix); stdout if omitted",
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file; explicit flags win")
    for name, text in _FLAG_HELP.items():
        p.add_argument("--" + name.replace("_", "-"), help=text)


# command -> (handler, help); handlers take the RunConfig plus any
# command-specific flags as keywords
_COMMANDS = {
    "phase": (cmd_phase, "order-parameter sweep over temperature"),
    "coherence": (cmd_coherence, "single-qubit coherence factor, finite and asymptotic"),
    "concurrence": (cmd_concurrence, "two-qubit concurrence for a case or custom state"),
    "fig1": (cmd_fig1, "case-2 concurrence curves at T/Tc = 0.75, 0.50, 0.35, 0.25"),
    "fig2": (cmd_concurrence, "case-4 entangling oscillations damped by the bath"),
    "verify": (cmd_verify, "cross-check the exact oracle against the closed forms"),
}
_RUN_KEYS = {f.name for f in fields(RunConfig)} | {"config"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingbath",
        description="Qubit dephasing and entanglement in a mean-field transverse-Ising bath",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, descr) in _COMMANDS.items():
        p = sub.add_parser(name, help=descr)
        _add_common(p)
        if name == "verify":
            p.add_argument("--N-max", dest="n_max", type=int, default=6,
                           help="largest bath size to verify (default 6)")
            p.add_argument("--inject-error", action="store_true",
                           help=argparse.SUPPRESS)
    return parser


# per-command text values where they differ from the RunConfig defaults
_COMMAND_DEFAULTS: dict[str, dict[str, str]] = {
    "phase": {"T_over_Tc": ",".join(str(round(0.05 * k, 2)) for k in range(1, 25))},
    "coherence": {"mode": MODE_FINITE},
    "fig2": {"t_max": "64.0", "out": "fig2.csv"},
    "verify": {"T_over_Tc": "0.5", "xi0": "0.3"},
}

# fig presets pin the caption parameters; user flags cannot unpin these
_PRESET_LOCKED: dict[str, dict] = {
    "fig1": {"J": 2.0, "w": 0.1, "case": 2, "amplitudes": None},
    "fig2": {"J": 2.0, "w": 0.1, "case": 4, "xi0": 0.3, "amplitudes": None},
}


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Command defaults < --config < flags, parsed and checked as one
    mapping, then the locked preset values."""
    from_file = {}
    if args.config:
        from_file = _parse_key_values(Path(args.config).read_text().splitlines(), args.config)
    flags = {k: v for k, v in vars(args).items() if k in _FLAG_HELP and v is not None}
    cfg = RunConfig.from_key_values(
        {**_COMMAND_DEFAULTS.get(args.command, {}), **from_file, **flags,
         "command": args.command}
    )
    return replace(cfg, **_PRESET_LOCKED.get(args.command, {}))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_run_config(args)
        handler, _ = _COMMANDS[args.command]
        extra = {k: v for k, v in vars(args).items() if k not in _RUN_KEYS}
        return handler(cfg, **extra)
    except (IsingBathError, OSError, ValueError) as exc:
        print(f"isingbath: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
