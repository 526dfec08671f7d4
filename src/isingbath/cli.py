"""Command-line driver: sweeps, figure presets and the oracle verify suite.

Emits deterministic CSV: a `# key=value ...` parameter header (which
round-trips back into a run configuration), a column-name line, then data
rows.  Time grids are specified in scaled units J0*t (raw t when J0 = 0).
Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dephasing import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    DephasingCoeffs,
    SystemParams,
    coherence_factor_finite,
    coherence_magnitude_asymptotic,
    coherence_time,
    dephasing_coeffs,
)
# concurrence is re-exported: existing callers reach it as isingbath.cli.concurrence
from .entanglement import concurrence, concurrences  # noqa: F401
from .errors import IsingBathError, InvalidParams
from .mean_field import (
    PHASE_DISORDERED,
    PHASE_ORDERED,
    BathParams,
    OrderSolution,
    critical_temperature,
    solve_order,
    solve_order_grid,
)
from .oracle import (
    OracleConfig,
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

    def physics(self) -> tuple[BathParams, OrderSolution, SystemParams]:
        """The bath at the run's one temperature, its order parameter, the qubit couplings."""
        temps = self.temperatures()
        if len(temps) != 1:
            raise InvalidParams(f"{self.command} takes exactly one temperature, got {len(temps)}")
        bath = BathParams(J=self.J, w=self.w, T=temps[0])
        return bath, solve_order(bath), SystemParams(J0=self.J0, mu0=self.mu0, xi0=self.xi0)

    def state(self) -> PureState2Q:
        if self.amplitudes is not None:
            return PureState2Q.normalized(*self.amplitudes)
        return case_state(self.case)

    def time_grid(self) -> np.ndarray:
        if self.points < 2:
            raise InvalidParams(f"points must be >= 2, got {self.points}")
        # B(t) = A(2t) doubles the last time t-max / J0
        t_last = self.t_max / self.J0 if self.J0 > 0 else self.t_max
        if not (self.t_max > 0 and math.isfinite(2.0 * t_last)):
            raise InvalidParams(
                f"t-max must be > 0 with 2 t-max / J0 finite, "
                f"got t-max = {self.t_max!r}, J0 = {self.J0!r}"
            )
        scaled = np.linspace(0.0, self.t_max, self.points)
        return scaled / self.J0 if self.J0 > 0 else scaled

    def key_values(self) -> dict[str, str]:
        # the output path is not a physics parameter and would break
        # byte-identical output across destinations
        return {
            f.name: _format_value(getattr(self, f.name)) for f in fields(self) if f.name != "out"
        }

    @classmethod
    def from_key_values(cls, mapping: dict[str, str]) -> "RunConfig":
        """Parse text values keyed by field name; flags, --config lines and
        CSV headers all come through here."""
        kwargs = {}
        for key, text in mapping.items():
            if key == "command":
                kwargs[key] = text
            elif key in _KEYS:
                kwargs[key] = _parse_text(key, _KEYS[key][0], text)
            else:
                raise InvalidParams(f"unknown key {key!r}")
        if "command" not in kwargs:
            raise InvalidParams("configuration is missing the command")
        return cls(**kwargs)


def _format_value(v) -> str:
    """Header text of one RunConfig value, as its _KEYS parser reads it back."""
    if v is None:
        return "none"
    if isinstance(v, tuple):
        return ";".join(_format_value(x) for x in v)
    if isinstance(v, complex):
        sign = "+" if v.imag >= 0 else "-"
        return f"{v.real!r}{sign}{abs(v.imag)!r}j"
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (str, int)):
        return str(v)
    raise TypeError(f"cannot serialize {v!r}")


def _parse_text(name: str, parse, text: str):
    """parse(text), with a failure reported as one line naming the key."""
    try:
        return parse(text)
    except ValueError as exc:
        raise InvalidParams(f"{name}: {exc}") from None


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


# RunConfig field -> (parser of its text, help of its flag); the flag is the
# field name with "_" -> "-", and flags, --config lines and CSV headers stay
# text until RunConfig.from_key_values parses them
_KEYS = {
    "J": (float, "bath exchange coupling"),
    "w": (float, "bath transverse field"),
    "T": (_parse_float_tuple, "temperature(s), absolute"),
    "T_over_Tc": (_parse_float_tuple, "temperature(s) as a fraction of Tc = J/2"),
    "J0": (float, "system-bath coupling"),
    "xi0": (float, "qubit-qubit coupling"),
    "mu0": (float, "single-qubit field (free phase)"),
    "case": (int, "paradigmatic initial state: 1, 2, 3 or 4"),
    "amplitudes": (_parse_amplitudes,
                   "four comma-separated complex amplitudes, normalized after parsing"),
    "mode": (str, f"{MODE_FINITE} (finite-N coefficients) or "
                  f"{MODE_ASYMPTOTIC} (large-N magnitudes)"),
    "N": (int, "bath size for finite mode"),
    "t_max": (float, "maximum scaled time J0*t (raw t when J0=0)"),
    "points": (int, "number of time-grid points"),
    "out": (_parse_optional_str,
            "output path (fig1: path prefix; verify: text report); stdout if omitted"),
}


def write_csv(cfg: RunConfig, columns: dict[str, np.ndarray | list[str]]) -> None:
    """Header, column-name line, then one row per column entry, to cfg.out or stdout.

    A numpy column is written as Python's shortest round-trip repr of each
    value; a list column must already hold strings.
    """
    header = "# " + " ".join(f"{k}={v}" for k, v in cfg.key_values().items())
    # .tolist() gives Python floats: numpy 2 scalars repr as np.float64(...)
    cells = [
        map(repr, col.tolist()) if isinstance(col, np.ndarray) else col
        for col in columns.values()
    ]
    rows = map(",".join, zip(*cells))
    _write_text("\n".join([header, ",".join(columns), *rows]) + "\n", cfg.out)


def _write_text(text: str, path: str | None) -> None:
    """text to the file at path, or to stdout when there is none."""
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
    temps = np.array(cfg.temperatures(), dtype=float)
    theta, m, ordered = solve_order_grid(cfg.J, cfg.w, temps)
    with np.errstate(over="ignore"):  # T / Tc may overflow to inf, as a Python float does
        t_over_tc = temps / tc if tc > 0 else np.full_like(temps, math.inf)
    columns = {
        "T": temps,
        "T_over_Tc": t_over_tc,
        "theta": theta,
        "m": m,
        "phase": np.where(ordered, PHASE_ORDERED, PHASE_DISORDERED).tolist(),
    }
    write_csv(cfg, columns)
    return EXIT_OK


def cmd_coherence(cfg: RunConfig) -> int:
    bath, sol, sys_p = cfg.physics()
    tau = coherence_time(sol, bath, sys_p)
    times = cfg.time_grid()
    r = coherence_factor_finite(times, cfg.N, sol, bath, sys_p)
    columns = {
        "t": times,
        "J0_t": cfg.J0 * times,
        "re_r": r.real,
        "im_r": r.imag,
        "abs_r": np.abs(r),
        "abs_r_asymptotic": coherence_magnitude_asymptotic(times, sol, bath, sys_p),
        "tau": [repr(tau)] * len(times),
    }
    write_csv(cfg, columns)
    return EXIT_OK


def cmd_concurrence(cfg: RunConfig) -> int:
    bath, sol, sys_p = cfg.physics()
    state = cfg.state()
    times = cfg.time_grid()
    coeffs = dephasing_coeffs(times, sol, bath, sys_p, mode=cfg.mode, N=cfg.N)
    columns = {
        "t": times,
        "J0_t": cfg.J0 * times,
        "C": concurrences(evolve_reduced(state, times, cfg.xi0, coeffs)),
        "abs_A": np.abs(coeffs.A),
        "abs_B": np.abs(coeffs.B),
    }
    if cfg.amplitudes is None and cfg.case == 4:
        columns["no_bath_C"] = np.abs(np.sin(0.5 * cfg.xi0 * times))
    write_csv(cfg, columns)
    return EXIT_OK


def cmd_fig1(cfg: RunConfig) -> int:
    """One CSV per temperature curve, coldest decaying slowest."""
    prefix = cfg.out if cfg.out is not None else "fig1"
    for ratio in FIG1_T_OVER_TC:
        curve = replace(cfg, T_over_Tc=(ratio,), out=f"{prefix}_TTc{ratio:.2f}.csv")
        cmd_concurrence(curve)
    return EXIT_OK


# ---------------------------------------------------------------- verify


def cmd_verify(cfg: RunConfig, n_max: str, inject_error: bool) -> int:
    """Cross-check the exact oracle against the closed forms.

    Structural checks (factorized vs dense vs trace-identity routes) run at
    the working transverse field; closed-form equivalence checks run in the
    Ising limit w = 0, the regime where the finite-N formulas are exact
    identities rather than large-N asymptotics.  n_max is the text of the
    --N-max flag.  The report goes to cfg.out, or to stdout.
    """
    n_max = _parse_text("N-max", int, n_max)
    if n_max < 1:
        raise InvalidParams(f"N-max must be >= 1, got {n_max}")
    tol = 1e-10
    sym_tol = 1e-12
    sizes = [n for n in VERIFY_BATH_SIZES if n <= n_max]
    rng = np.random.default_rng(20240809)
    bath_tim, sol_tim, sys_p = cfg.physics()
    bath_im, sol_im, _ = replace(cfg, w=0.0).physics()
    times = np.linspace(0.15, 2.4, 8)
    checks: list[tuple[str, float, float]] = []

    for n in sizes:
        state = PureState2Q.normalized(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
        cfg_tim = OracleConfig(N=n, bath=bath_tim, sys=sys_p, state=state, times=times)
        cfg_im = OracleConfig(N=n, bath=bath_im, sys=sys_p, state=state, times=times)

        fac = simulate_exact(cfg_tim, sol_tim)
        rec = reconstruct_reduced(cfg_tim, sol_tim)
        err = np.abs(fac - rec).max()
        checks.append((f"N={n} propagator vs trace-identity route (w={cfg.w})", err, tol))

        den = simulate_exact(cfg_tim, sol_tim, method="dense")
        err = np.abs(fac - den).max()
        checks.append((f"N={n} factorized vs dense evolution (w={cfg.w})", err, tol))

        r_tr = single_qubit_coherence_exact(n, bath_tim, sys_p, times, sol_tim)
        r_de = single_qubit_coherence_exact(n, bath_tim, sys_p, times, sol_tim, method="dense")
        err = np.abs(r_tr - r_de).max()
        checks.append((f"N={n} single-qubit trace vs dense (w={cfg.w})", err, tol))

        products = extract_products(cfg_im, sol_im)
        A, B, _ = products.conj().T
        exact = DephasingCoeffs(A=A, B=B)  # checks |A|, |B| <= 1
        closed = dephasing_coeffs(times, sol_im, bath_im, sys_p, mode=MODE_FINITE, N=n)
        err = np.abs([exact.A - closed.A, exact.B - closed.B]).max()
        if inject_error:
            err += 1e-6
        checks.append((f"N={n} exact coefficients vs closed form (w=0)", err, tol))

        fac_im = simulate_exact(cfg_im, sol_im)
        evolved = evolve_reduced(state, times, sys_p.xi0, closed)
        err = np.abs(fac_im - evolved).max()
        checks.append((f"N={n} oracle vs closed-form reduced matrix (w=0)", err, tol))

        err = np.abs(products[:, 0] - products[:, 2]).max()
        checks.append((f"N={n} one-excitation coefficient symmetry (w=0)", err, sym_tol))

        # the closed form excludes the free phase exp(i mu0 t); the exact route has it
        r_cl = np.exp(1j * sys_p.mu0 * times) * coherence_factor_finite(
            times, n, sol_im, bath_im, sys_p
        )
        r_ex = single_qubit_coherence_exact(n, bath_im, sys_p, times, sol_im)
        err = np.abs(r_cl - r_ex).max()
        checks.append((f"N={n} single-qubit closed form vs exact (w=0)", err, tol))

    failed = any(err >= bound for _, err, bound in checks)
    lines = [
        f"{'ok' if err < bound else 'FAIL':4s} {name}: max error {err:.3e} (tol {bound:g})"
        for name, err, bound in checks
    ]
    lines.append(f"verify: {'FAILED' if failed else 'all checks passed'}")
    _write_text("\n".join(lines) + "\n", cfg.out)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------- parsing


# the keys RunConfig.physics() reads
_PHYSICS = ("J", "w", "T", "T_over_Tc", "J0", "xi0", "mu0")

# command -> (handler, help, the _KEYS it reads in _KEYS order); a command
# reads a key its handler uses directly or through physics(), state() or
# time_grid(), and it has a flag and a --config line for those keys alone;
# handlers take the RunConfig plus any command-specific flags as keywords
_COMMANDS = {
    "phase": (cmd_phase, "order-parameter sweep over temperature",
              ("J", "w", "T", "T_over_Tc", "out")),
    "coherence": (cmd_coherence, "single-qubit coherence factor, finite and asymptotic",
                  (*_PHYSICS, "N", "t_max", "points", "out")),
    "concurrence": (cmd_concurrence, "two-qubit concurrence for a case or custom state",
                    (*_PHYSICS, "case", "amplitudes", "mode", "N", "t_max", "points", "out")),
    "fig1": (cmd_fig1, "case-2 concurrence curves at T/Tc = 0.75, 0.50, 0.35, 0.25",
             ("J0", "xi0", "mu0", "mode", "N", "t_max", "points", "out")),
    "fig2": (cmd_concurrence, "case-4 entangling oscillations damped by the bath",
             ("T", "T_over_Tc", "J0", "mu0", "mode", "N", "t_max", "points", "out")),
    "verify": (cmd_verify, "cross-check the exact oracle against the closed forms",
               (*_PHYSICS, "out")),
}
_RUN_KEYS = {f.name for f in fields(RunConfig)} | {"config"}


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as InvalidParams, so main prints one
    line and returns EXIT_BAD_INPUT; add_subparsers reuses this class."""

    def error(self, message: str):
        raise InvalidParams(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared: callers must not mutate it."""
    parser = _ArgumentParser(
        prog="isingbath",
        description="Qubit dephasing and entanglement in a mean-field transverse-Ising bath",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, keys) in _COMMANDS.items():
        # no abbreviations: verify --N must not pass for --N-max
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.add_argument("--config", help="key=value file; explicit flags win")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), help=_KEYS[key][1])
        if name == "verify":
            p.add_argument("--N-max", dest="n_max", default="6",
                           help="largest bath size to verify (default 6)")
            p.add_argument("--inject-error", action="store_true",
                           help=argparse.SUPPRESS)
    return parser


# per-command text values where they differ from the RunConfig defaults; a
# figure's caption parameters are among them (fig1 and fig2 take J = 2 and
# w = 0.1 from RunConfig), and the figure commands do not read those keys
_COMMAND_DEFAULTS: dict[str, dict[str, str]] = {
    "phase": {"T_over_Tc": ",".join(str(round(0.05 * k, 2)) for k in range(1, 25))},
    "coherence": {"mode": MODE_FINITE},
    "fig2": {"case": "4", "xi0": "0.3", "t_max": "64.0", "out": "fig2.csv"},
    "verify": {"T_over_Tc": "0.5", "xi0": "0.3"},
}


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Command defaults < --config < flags, parsed and checked as one
    mapping; a --config key must be one the command reads, and --config and
    flags together set at most one key of each pair that sets one quantity."""
    from_file = {}
    if args.config:
        from_file = _parse_key_values(Path(args.config).read_text().splitlines(), args.config)
        keys = _COMMANDS[args.command][2]
        for key in from_file:
            if key not in keys:
                raise InvalidParams(f"{args.command} does not read key {key!r} ({args.config})")
    given = {**from_file, **{k: v for k, v in vars(args).items() if k in _KEYS and v is not None}}
    for a, b in (("T", "T_over_Tc"), ("case", "amplitudes")):
        if a in given and b in given:
            raise InvalidParams(f"{args.command} takes {a!r} or {b!r}, not both")
    return RunConfig.from_key_values(
        {**_COMMAND_DEFAULTS.get(args.command, {}), **given, "command": args.command}
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        cfg = build_run_config(args)
        handler = _COMMANDS[args.command][0]
        extra = {k: v for k, v in vars(args).items() if k not in _RUN_KEYS}
        return handler(cfg, **extra)
    except SystemExit as exc:  # --help printed its text
        return exc.code
    except (IsingBathError, OSError, ValueError) as exc:
        print(f"isingbath: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
