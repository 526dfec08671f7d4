"""Command-line driver: sweeps, figure presets and the oracle verify suite.

Emits deterministic CSV: a `# key=value ...` parameter header (which
round-trips back into a run configuration), a column-name line, then data
rows.  Time grids are specified in scaled units J0*t (raw t when J0 = 0).
Exit codes: 0 success, 1 verification failure, 2 invalid input, 141 stdout
closed by its reader (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .csvtext import block_text
from .dephasing import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    SystemParams,
    bath_size,
    coherence_factor_finite,
    coherence_magnitude_asymptotic,
    coherence_time,
    dephasing_coeffs,
)
# concurrence is re-exported for the bench alone (bench/layers.py traces it by this name;
# bench/tests and tests/test_bench_harness.py assert the identity); ROADMAP item 10 removes it
from .entanglement import concurrence, dephased_concurrences  # noqa: F401
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
from .oracle import OracleConfig, extract_products, simulate_exact, single_qubit_coherence_exact
from .two_qubit import PureState2Q, case_state, evolve_reduced

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_STDOUT_CLOSED = 141

FIG1_T_OVER_TC = (0.75, 0.50, 0.35, 0.25)
# 256 bytes a point, more than any one per-point array a command forms (a
# concurrence's (points, 3, 3) complex tau is 144), must stay within the
# byte count numpy can index; time_grid names points where a smaller grid
# does not fit in memory
_MAX_POINTS = sys.maxsize // 256
VERIFY_BATH_SIZES = (1, 2, 4, 6, 8, 10, 12)
_BLOCK_ROWS = 1600  # CSV rows formatted per write: ~8,000 cells, ~160 kB of text
# a header tuple of at least this many values (T or T_over_Tc) is formatted
# by the CSV kernel as one column, into the same text as repr: on 2-core
# x86-64, 24 full-length ratios took 14 us by repr and 92 us by the kernel,
# 256 took 141 and 133 us, 1,000 took 545 and 254 us (4-digit decimals take
# the kernel's short-decimal pass and break even only near 1,000)
_HEADER_KERNEL_MIN = 256


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one CLI run; case_state and bath_size check case and N."""

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
        case_state(self.case)
        if self.mode not in (MODE_FINITE, MODE_ASYMPTOTIC):
            raise InvalidParams(
                f"mode must be {MODE_FINITE!r} or {MODE_ASYMPTOTIC!r}, got {self.mode!r}"
            )
        bath_size(self.N)
        if not 2 <= self.points <= _MAX_POINTS:
            raise InvalidParams(f"points: must be 2 to {_MAX_POINTS}, got {self.points}")

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
        if not (self.t_max > 0 and math.isfinite(self.t_max / (self.J0 or 1.0))):
            raise InvalidParams(f"t-max must be > 0 with t-max / J0 finite, "
                                f"got t-max = {self.t_max!r}, J0 = {self.J0!r}")
        try:
            scaled = np.linspace(0.0, self.t_max, self.points)
        except MemoryError as exc:
            raise InvalidParams(f"points: {exc}") from None
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
        if len(v) >= _HEADER_KERNEL_MIN:
            return block_text([np.array(v, dtype=float)])[:-1].replace(b"\n", b";").decode()
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


def write_csv(cfg: RunConfig, columns: dict[str, np.ndarray | list[str] | float]) -> None:
    """Header, column-name line, then one row per column entry, to cfg.out or stdout.

    A numpy column holds floats, each written as Python's shortest
    round-trip repr; a list column must already hold ASCII strings of at
    most 47 characters; a float is a one-value column, its text on every
    row, and follows every other column (block_text raises TypeError
    otherwise).  Rows are formatted and written _BLOCK_ROWS at a time, so
    one block's text is held at once; a write that fails partway through
    can leave only the rows written so far.
    """
    header = "# " + " ".join(f"{k}={v}" for k, v in cfg.key_values().items())

    def pieces():
        yield f"{header}\n{','.join(columns)}\n".encode()
        cols = list(columns.values())
        n = min(len(col) for col in cols if not isinstance(col, float))
        for lo in range(0, n, _BLOCK_ROWS):
            rows = slice(lo, min(lo + _BLOCK_ROWS, n))
            yield block_text([col if isinstance(col, float) else col[rows] for col in cols])

    _write_text(pieces(), cfg.out)


class _StdoutClosed(Exception):
    """stdout's reader closed it before the output was written."""


def _write_text(pieces: Iterable[bytes], path: str | None) -> None:
    """The pieces in turn to stdout, or over the file at path in place, then
    cut to length (on ext4 an O_TRUNC open or a rename over the file
    rewrites ~4x slower); a device or FIFO takes no cut.  A write that fails
    partway through can leave only some new pieces, and old bytes after them."""
    if path is None:
        try:
            sys.stdout.flush()  # text printed before goes first
            out = getattr(sys.stdout, "buffer", None)
            if out is None:  # a text stream with no bytes layer, such as an io.StringIO
                sys.stdout.writelines(piece.decode() for piece in pieces)
            else:
                out.writelines(pieces)
                out.flush()
        except BrokenPipeError:
            # the reader is gone: point fd 1 at /dev/null, as the signal
            # module's docs advise, so the flush at exit stays silent
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise _StdoutClosed from None
    else:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.writelines(pieces)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()


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
    with open(path) as f:
        first = f.readline().rstrip("\n")
    if not first.startswith("# "):
        raise InvalidParams(f"{path} has no parameter header")
    return RunConfig.from_key_values(_parse_key_values(first[2:].split(" "), path))


# ---------------------------------------------------------------- commands


def cmd_phase(cfg: RunConfig) -> int:
    tc = critical_temperature(cfg.J)
    temps = np.array(cfg.temperatures(), dtype=float)
    theta, m, ordered = solve_order_grid(cfg.J, cfg.w, temps)
    if cfg.T:
        with np.errstate(over="ignore"):  # T / Tc may overflow to inf, as a Python float does
            t_over_tc = temps / tc if tc > 0 else np.full_like(temps, math.inf)
    else:  # the ratios as given: (r Tc) / Tc can be an ulp off r
        t_over_tc = np.array(cfg.T_over_Tc)
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
        "re_r": r.real,
        "im_r": r.imag,
        "abs_r_asymptotic": coherence_magnitude_asymptotic(times, sol, bath, sys_p),
        "tau": tau,
    }
    write_csv(cfg, columns)
    return EXIT_OK


def cmd_concurrence(cfg: RunConfig) -> int:
    bath, sol, sys_p = cfg.physics()
    state = cfg.state()
    times = cfg.time_grid()
    coef = dephasing_coeffs(times, sol, bath, sys_p, mode=cfg.mode, N=cfg.N)
    columns = {
        "t": times,
        "J0_t": cfg.J0 * times,
        "C": dephased_concurrences(state, times, cfg.xi0, coef),
        "abs_A": np.abs(coef[:, 0]),
        "abs_B": np.abs(coef[:, 1]),
    }
    if cfg.amplitudes is None and cfg.case == 4:
        # C's level entries have already bounded this phase xi0 t/2
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

    Structural checks (the trace route against the independent dense one,
    for both qubits and for one) run at the working transverse field;
    closed-form equivalence checks run in the Ising limit w = 0, the regime
    where the finite-N formulas are exact identities rather than large-N
    asymptotics.  n_max is the text of the --N-max flag.  The report goes
    to cfg.out, or to stdout.
    """
    n_max = _parse_text("N-max", int, n_max)
    if n_max < 1:
        raise InvalidParams(f"N-max must be >= 1, got {n_max}")
    tol = 1e-10
    sym_tol = 1e-12
    sizes = [n for n in VERIFY_BATH_SIZES if n <= n_max]
    bath_im, sol_im, sys_p = replace(cfg, w=0.0).physics()
    bath_tim = replace(bath_im, w=cfg.w)
    times = np.linspace(0.15, 2.4, 8)
    # every entry of |++><++| is exactly 1/4, so 4 rho is the state-free
    # multiplier M bit for bit: the two-qubit rows compare M
    state = case_state(4)
    checks: list[tuple[str, float, float]] = []

    for n in sizes:
        tim = OracleConfig(N=n, bath=bath_tim, sys=sys_p, state=state, times=times)
        im = replace(tim, bath=bath_im)
        products = extract_products(im)
        closed = dephasing_coeffs(times, sol_im, bath_im, sys_p, mode=MODE_FINITE, N=n)
        # one (name, x, y, tol) row per check, evaluated in report order: the
        # oracle's one-line overflow errors (mu0 t, say) precede numpy's warnings
        rows = [
            (f"trace vs dense route (w={cfg.w})",
             4 * simulate_exact(tim), 4 * simulate_exact(tim, method="dense"), tol),
            (f"single-qubit trace vs dense (w={cfg.w})",
             single_qubit_coherence_exact(n, bath_tim, sys_p, times),
             single_qubit_coherence_exact(n, bath_tim, sys_p, times, method="dense"), tol),
            ("exact coefficients vs closed form (w=0)",
             products[:, :2].conj(), closed[:, :2], tol),
            ("oracle vs closed-form reduced matrix (w=0)",
             4 * simulate_exact(im), 4 * evolve_reduced(state, times, sys_p.xi0, closed), tol),
            ("one-excitation coefficient symmetry (w=0)", products[:, 0], products[:, 2], sym_tol),
            # the closed form excludes exp(i mu0 t), whose phase the single-qubit rows above bounded
            ("single-qubit closed form vs exact (w=0)",
             np.exp(1j * sys_p.mu0 * times) * coherence_factor_finite(
                 times, n, sol_im, bath_im, sys_p),
             single_qubit_coherence_exact(n, bath_im, sys_p, times), tol),
        ]
        checks += [
            (f"N={n} {name}", np.abs(x - y).max() + 1e-6 * inject_error, bound)
            for name, x, y, bound in rows
        ]

    failed = any(not err < bound for _, err, bound in checks)  # a nan error fails
    lines = [
        f"{'ok' if err < bound else 'FAIL':4s} {name}: max error {err:.3e} (tol {bound:g})"
        for name, err, bound in checks
    ]
    lines.append(f"verify: {'FAILED' if failed else 'all checks passed'}")
    _write_text([("\n".join(lines) + "\n").encode()], cfg.out)
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
    line and returns EXIT_BAD_INPUT; add_subparsers reuses this class.
    build_parser sets the top-level parser's commands: each command's parser
    by name."""

    commands: dict[str, argparse.ArgumentParser]

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
    parser.commands = {}
    for name, (_, text, keys) in _COMMANDS.items():
        # no abbreviations: verify --N must not pass for --N-max
        p = parser.commands[name] = sub.add_parser(name, help=text, allow_abbrev=False)
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
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:  # --help, or no command or an unknown one
            args = parser.parse_args(argv)
        else:  # the command's own parser, without a top-level pass over every word
            args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        cfg = build_run_config(args)
        handler = _COMMANDS[args.command][0]
        extra = {k: v for k, v in vars(args).items() if k not in _RUN_KEYS}
        return handler(cfg, **extra)
    except SystemExit as exc:  # --help printed its text
        return exc.code
    except _StdoutClosed:
        return EXIT_STDOUT_CLOSED
    # MemoryError: a time grid that fits and a (points, 3, 3) stack that does not
    except (IsingBathError, OSError, ValueError, MemoryError) as exc:
        print(f"isingbath: error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
