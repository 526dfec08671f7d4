"""Exact small-bath simulator validating the analytic dephasing formulas.

The mean-field Hamiltonian commutes with the system z-operators, so the
exact dynamics is pure dephasing, rho_s(t) = rho_s(0) * M(t) elementwise.
The bath sets M only through the factor F_ab(t) = tr[U_a g U_b^dag]^N of
each pair (a, b) of qubit coupling levels: U_a is the per-spin bath
propagator at level a, g the per-spin Gibbs state.  Each route solves the
mean-field root of its own bath and takes the z field h0 + (J0/sqrt(N)) a
of each level from _fields.

ROUTES is the one table of the ways to compute F.  Every row is called as
route(bath, J0, N, t, bra, ket) and returns one factor per (bra, ket)
level pair over the whole time list t, shaped (T, P):

* "trace": the per-spin trace from the closed-form triple-trace identity
  (su2.trace_triple) against g's traceless part (su2.gibbs_part); O(1) in
  N, and the default of every entry point.
* "dense": the whole bath in its collective-spin basis, free of the
  per-spin factorization: the independent route, which verify holds the
  trace row to.  Its basis grows as N^2, so it caps N at MAX_BATH_SIZE.

The two entry points take a row by name (method), with one error for an
unknown name.  simulate_exact asks for two_qubit's level pairs (_BRA,
_KET) of the two qubits' total S^z (_LEVELS), which are the coefficients
A, B and D, and evolve_reduced checks them, lays out M, adds the qubit phase;
single_qubit_coherence_exact asks for the one pair (<0|, |1>) of one
qubit's S^z (_SZ) and adds the free phase exp(i mu0 t).
reconstruct_reduced is simulate_exact's default under a second name.  Time
is the first axis of every result.

Times must be finite; a nan or inf time raises InvalidParams on every route,
and so does one where a phase the route exponentiates reaches 2**52
(two_qubit.bounded_phase): the per-spin bath phase, E t, xi0 t/2 or mu0 t.

extract_products returns the trace row's coefficients as their three
conjugate products (A*, B*, D*).  The one-excitation coefficient is not
unique at w > 0: transitions adjacent to |00> (A) and to |11> (D) differ
by an O(w^2 J0^2/Theta^4) margin, collapsing to a single coefficient only
in the Ising limit w = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dephasing import SystemParams, bath_size
from .errors import ConfigTooLarge, InvalidParams
from .mean_field import BathParams, solve_order
from .su2 import TracelessXZ, gibbs_part, trace_triple
from .two_qubit import _BRA, _KET, _LEVELS, PureState2Q, bounded_phase, evolve_reduced

MAX_BATH_SIZE = 12  # N bound of the dense route; its collective-spin basis is 49 states there

# S^z eigenvalue of one qubit per basis state |0>, |1>
_SZ = np.array([0.5, -0.5])


def _checked_times(times: Sequence[float]) -> np.ndarray:
    """times as a float array; InvalidParams unless every time is finite."""
    t = np.array(times, dtype=float)
    bad = t[~np.isfinite(t)]
    if bad.size:
        raise InvalidParams(f"oracle times must be finite, got t={bad[0]}")
    return t


@dataclass(frozen=True)
class OracleConfig:
    """Inputs of one exact simulation run."""

    N: int
    bath: BathParams
    sys: SystemParams
    state: PureState2Q
    times: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "N", bath_size(self.N))
        object.__setattr__(self, "times", tuple(_checked_times(self.times).tolist()))


def _fields(bath: BathParams, N: int, J0: float, t: np.ndarray, lam) -> tuple[float, np.ndarray]:
    """h0 = 2 m J at bath's self-consistent m, and h0 + (J0/sqrt(N)) lam: the z
    field on each bath spin while the qubits have coupling eigenvalue(s) lam.

    InvalidParams (two_qubit.bounded_phase) where the per-spin bath phase
    |t| hypot(w, max|h|)/2 reaches 2**52, which holds every field finite; it
    bounds one spin's phase, not N times it: the dense route bounds its E t.
    """
    h0 = 2.0 * solve_order(bath).m * bath.J
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed field fails the bound
        h = h0 + J0 / math.sqrt(N) * np.asarray(lam)
        phase = 0.5 * np.abs(t) * math.hypot(bath.w, float(np.abs(h).max()))
    bounded_phase(phase, t, "bath phase |t| hypot(w, h)/2")
    return h0, h


def _distinct(bra, ket):
    """The sorted distinct levels of bra and ket, and the index of each bra and
    ket level in them; a set is cheaper than np.unique on so few."""
    levels = np.array(sorted({*bra.tolist(), *ket.tolist()}))
    return levels, levels.searchsorted(bra), levels.searchsorted(ket)


def _collective_spin(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X_B, the diagonal of Z_B and the multiplicity of each state, in the
    collective-spin basis |S, M> of N bath spins.

    The states run over the sectors S = N/2, N/2 - 1, ... and, in each, over
    M = S, S - 1, ..., -S: floor((N + 2)^2 / 4) states in all.  Z_B is M, and
    X_B links M to M - 1 with sqrt(S(S+1) - M(M-1))/2, which is 0 where one
    sector ends and the next begins.  Sector S occurs
    d_S = C(N, k) - C(N, k - 1) times in the 2^N product space, k = N/2 - S.
    """
    k = np.arange(N // 2 + 1)
    dims = N + 1 - 2 * k  # 2S + 1
    mult = [math.comb(N, j) - (math.comb(N, j - 1) if j else 0) for j in k.tolist()]
    s = np.repeat(0.5 * N - k, dims)
    m = s - (np.arange(s.size) - np.repeat(np.cumsum(dims) - dims, dims))
    x = np.diag(0.5 * np.sqrt(s[:-1] * (s[:-1] + 1.0) - m[:-1] * (m[:-1] - 1.0)), 1)
    return x + x.T, m, np.repeat(np.array(mult, dtype=float), dims)


def _dense_factor(bath, J0, N, t, bra, ket):
    """F_ab(t) of tr_B[U(t) (|a><b| (x) g^(x N)) U(t)^dag] = F_ab(t) |a><b|,
    U(t) = exp(-iHt), for each level pair (a, b) of bra and ket: shaped
    (T, P), in the bath's collective-spin basis.

    H = -(J0/sqrt(N)) S (x) Z_B + 1 (x) H_B, S with the eigenvalues bra and
    ket, and g the per-spin Gibbs state.  H_B = -w X_B - 2 J m Z_B is the
    mean-field bath Hamiltonian without its c-number m^2 J N, a global phase
    that cancels in U rho U^dag.  H is block diagonal: level a sees the real
    symmetric bath block H_B - (J0/sqrt(N)) a Z_B, and g^(x N) =
    exp(-H_B/T)/Z, all functions of the collective X_B and Z_B.  Each spin
    sector S of the 2^N bath space then repeats d_S times, and the bath
    trace counts it d_S times: in the stacked sector basis the bath state is
    rho_B = diag(d) exp(-H_B/T)/Z, symmetric because diag(d) commutes with
    every operator that keeps S.  One eigendecomposition of H_B for rho_B,
    and one (E_a, V_a) per distinct coupling level a; with p_a = exp(-i E_a t),
        F_ab(t) = p_a^T K_ab p_b^*,   K_ab = (V_a^T rho_B V_b) * (V_a^T V_b)
    (elementwise): one (T, n) @ (n, n) product per pair.  An eigenvector may
    mix sectors of one energy (at w = 0, say); V_a exp(-i E_a t) V_a^T is
    exact all the same.  ConfigTooLarge past MAX_BATH_SIZE.
    """
    if N > MAX_BATH_SIZE:
        raise ConfigTooLarge(f"bath size {N} exceeds MAX_BATH_SIZE = {MAX_BATH_SIZE}")
    x_b, z_b, mult = _collective_spin(N)
    levels, bra_at, ket_at = _distinct(bra, ket)
    h0, fields = _fields(bath, N, J0, t, levels)
    evals, evecs = zip(*(np.linalg.eigh(-bath.w * x_b - np.diag(h * z_b)) for h in fields))
    # H_B/T as 2**e H_B / 2**e T, so that a subnormal w or h0 keeps its bits;
    # e = 0 unless max(w, h0) < 2**-501
    e = -math.frexp(max(bath.w, h0))[1]
    e = e if e > 500 else 0
    e_b, v_b = np.linalg.eigh(-math.ldexp(bath.w, e) * x_b - np.diag(math.ldexp(h0, e) * z_b))
    # diag(d)^(1/2) exp(-H_B/2T), shifted by the ground energy; as T -> 0 every
    # excited weight overflows to exp(-inf) = 0, leaving the ground projector
    with np.errstate(over="ignore"):
        weights = np.exp(-(e_b - e_b[0]) / np.ldexp(2.0 * bath.T, e))
    half = np.sqrt(mult)[:, None] * v_b * weights
    rho_b = half @ half.T
    rho_b /= np.trace(rho_b)
    t3 = t[:, None, None]
    p = np.exp(-1j * bounded_phase(t3 * np.array(evals), t3, "bath phase |E t|"))
    factors = []
    for a, b in zip(bra_at, ket_at):
        k = (evecs[a].T @ rho_b @ evecs[b]) * (evecs[a].T @ evecs[b])
        factors.append(np.einsum("tk,tk->t", p[:, a] @ k, p[:, b].conj()))
    return np.stack(factors, axis=-1)


def _trace_power(bath, J0, N, t, bra, ket):
    """tr[exp(i I1) g exp(i I2)]^N for each level pair (a, b) of bra and ket,
    shaped (T, P): I1 carries the bath field of level a, I2 that of level b,
    and g = I/2 + G is the per-spin Gibbs state (su2.gibbs_part).  O(1) in N.
    """
    h0, (left, right) = _fields(bath, N, J0, t, [bra, ket])
    t = t[:, None]
    i1 = TracelessXZ(a=0.5 * t * bath.w, b=0.5 * t * left)
    i2 = TracelessXZ(a=-0.5 * t * bath.w, b=-0.5 * t * right)
    return trace_triple(i1, gibbs_part(bath.w, h0, bath.T), i2) ** N


ROUTES = {"trace": _trace_power, "dense": _dense_factor}


def _route(method: str):
    """The row of ROUTES named method."""
    if method not in ROUTES:
        raise InvalidParams(f"unknown method {method!r}; the routes are {', '.join(ROUTES)}")
    return ROUTES[method]


def simulate_exact(cfg: OracleConfig, *, method: str = "trace") -> np.ndarray:
    """Exact reduced density matrices tr_B[exp(-iHt) rho(0) exp(iHt)], shaped
    (T, 4, 4) over the T times of cfg.times.

    rho(0) = |Psi><Psi| (x) g^(x N) with g the per-spin Gibbs state at the
    mean-field order parameter of cfg.bath.  The row of ROUTES named method
    computes the bath coefficients A, B and D, and evolve_reduced checks them
    (a rounded per-spin trace to a large N can exceed 1) and assembles rho.
    """
    t = np.array(cfg.times)
    coef = _route(method)(cfg.bath, cfg.sys.J0, cfg.N, t, _LEVELS[_BRA], _LEVELS[_KET])
    return evolve_reduced(cfg.state, t, cfg.sys.xi0, coef)


def extract_products(cfg: OracleConfig) -> np.ndarray:
    """Exact conjugate coefficients (A*, B*, D*) from the trace row, one row
    per time: shaped (T, 3).  A*: 0 -> +1 transition; B*: -1 -> +1;
    D*: -1 -> 0.
    """
    t = np.array(cfg.times)
    # swapping the bra and ket levels conjugates the trace
    return _trace_power(cfg.bath, cfg.sys.J0, cfg.N, t, _LEVELS[_KET], _LEVELS[_BRA])


def reconstruct_reduced(cfg: OracleConfig) -> np.ndarray:
    """simulate_exact(cfg): the trace row's reduced matrices, shaped (T, 4, 4)."""
    return simulate_exact(cfg)


def single_qubit_coherence_exact(
    N: int, bath: BathParams, sys: SystemParams, times: Sequence[float], *, method: str = "trace"
) -> np.ndarray:
    """Exact <0|rho_s(t)|1> / <0|rho_s(0)|1> for a single qubit, shaped (T,).

    The factor of the one level pair, bra <0| and ket |1>, from the row of
    ROUTES named method, times the free phase exp(i mu0 t).
    """
    N = bath_size(N)
    t = _checked_times(times)
    product = _route(method)(bath, sys.J0, N, t, _SZ[:1], _SZ[1:])[:, 0]
    with np.errstate(over="ignore"):  # an overflowed phase fails the bound
        return np.exp(1j * bounded_phase(sys.mu0 * t, t, "free phase |mu0 t|")) * product
