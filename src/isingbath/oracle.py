"""Exact small-bath simulator validating the analytic dephasing formulas.

The mean-field Hamiltonian commutes with the system z-operators, so the
exact reduced matrix factorizes: each element (i, j) of rho_s(t) is the
initial element times exp(-i(E_i - E_j)t) times the N-th power of a single
2x2 trace  tr[U_i g U_j^dag],  with U_i the per-spin bath propagator
conditioned on system state i and g the per-spin Gibbs state.  Every route
is one array pass over the time axis and returns an array with time as its
first axis.  The routes to it, and what they share:

* simulate_exact (factorized): a (4, T, 2, 2) stack of per-spin
  propagators from su2.exp_imag, traced against g in one einsum, with its
  own 4x4 assembly; the reference for the routes below.
* reconstruct_reduced: the same traces through the closed-form triple-trace
  identity (su2.trace_triple), put into the closed forms' 4x4 assembly
  (two_qubit._assemble) with the exact |11>-side coefficient D.  Its trace
  power is shared with single_qubit_coherence_exact's "trace" method.
* the "dense" methods of simulate_exact and single_qubit_coherence_exact:
  one builder for both, in the collective-spin basis |S, M> of the bath
  (floor((N+2)^2/4) states, each sector S weighted by its multiplicity).
  The Hamiltonian is block diagonal in the system basis, so each distinct
  coupling eigenvalue gets one real symmetric bath block and one
  eigendecomposition, and each reduced element is one eigenbasis product
  over all times.  Free of the per-spin factorization: the oracle of the
  oracle.

Times must be finite; a nan or inf time raises InvalidParams on every route,
and so does a finite time at which a field or a phase overflows.

extract_products returns the exact finite-N dephasing coefficients as
their three conjugate products (A*, B*, D*).  The one-excitation
coefficient is not unique at w > 0: transitions adjacent to |00> (A) and
to |11> (D) differ by an O(w^2 J0^2/Theta^4) margin, collapsing to a
single coefficient only in the Ising limit w = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dephasing import SystemParams
from .errors import ConfigTooLarge, InvalidParams
from .mean_field import BathParams, OrderSolution, solve_order
from .su2 import TracelessXZ, exp_imag, single_spin_gibbs, trace_triple
from .two_qubit import PureState2Q, _assemble

MAX_BATH_SIZE = 12  # N bound of the finite-N routes; the dense basis is 49 states there

# total system S^z eigenvalue per basis state |00>, |01>, |10>, |11>
_LAMBDA = np.array([1.0, 0.0, 0.0, -1.0])
# H_s = -xi0 S1^z S2^z eigenvalue per basis state, in units of xi0
_E_OVER_XI0 = np.array([-0.25, 0.25, 0.25, -0.25])

# S^z eigenvalue of one qubit per basis state |0>, |1>
_SZ = np.array([0.5, -0.5])


def _finite_times(times: Sequence[float]) -> np.ndarray:
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
        if not isinstance(self.N, int) or self.N < 1:
            raise InvalidParams(f"bath size N must be a positive integer, got {self.N}")
        object.__setattr__(self, "times", tuple(_finite_times(self.times).tolist()))


def _guard_size(N: int) -> None:
    if N > MAX_BATH_SIZE:
        raise ConfigTooLarge(f"bath size {N} exceeds MAX_BATH_SIZE = {MAX_BATH_SIZE}")


def simulate_exact(
    cfg: OracleConfig,
    sol: OrderSolution | None = None,
    *,
    method: str = "factorized",
) -> np.ndarray:
    """Exact reduced density matrices tr_B[exp(-iHt) rho(0) exp(iHt)], shaped
    (T, 4, 4) over the T times of cfg.times.

    rho(0) = |Psi><Psi| (x) g^(x N) with g the per-spin Gibbs state at the
    supplied (or freshly solved) mean-field order parameter.  The
    "factorized" method exploits the product form of each bath block;
    "dense" eigendecomposes each in the bath's collective-spin basis.
    """
    sol = sol if sol is not None else solve_order(cfg.bath)
    amps = cfg.state.amplitudes()
    outer = np.outer(amps, amps.conj())
    t = np.array(cfg.times)
    if method == "dense":
        return _dense_reduced(
            cfg.sys.xi0 * _E_OVER_XI0, _LAMBDA, outer, cfg.N, cfg.sys.J0, cfg.bath, sol, t
        )
    if method != "factorized":
        raise InvalidParams(f"unknown method {method!r}")
    _guard_size(cfg.N)
    bath = cfg.bath
    g = single_spin_gibbs(bath.w, 2.0 * sol.m * bath.J, bath.T)
    nu = 2.0 * sol.m * bath.J + cfg.sys.J0 / math.sqrt(cfg.N) * _LAMBDA
    with np.errstate(over="ignore"):  # TracelessXZ rejects an overflowed field
        fields = TracelessXZ(a=0.5 * t * bath.w, b=0.5 * t * nu[:, None])
    # (4, T, 2, 2): the per-spin bath propagator conditioned on each system state
    props = exp_imag(fields)
    # per-spin bath traces tr[U_i g U_j^dag], not yet ^N
    f = np.einsum("itab,bc,jtac->tij", props, g, props.conj())
    phase = np.exp(
        -1j * cfg.sys.xi0 * t[:, None, None] * (_E_OVER_XI0[:, None] - _E_OVER_XI0[None, :])
    )
    return outer * phase * f**cfg.N


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


def _dense_reduced(e_s, lam, op0, N, J0, bath, sol, times):
    """tr_B[U(t) (op0 (x) g^(x N)) U(t)^dag] per time, U(t) = exp(-iHt),
    shaped (T, dim_s, dim_s), in the collective-spin basis of the bath.

    H = H_s (x) 1 - (J0/sqrt(N)) S (x) Z_B + 1 (x) H_B, where the system
    operators H_s and S are diagonal with entries e_s and lam, op0 is any
    system operator and g the per-spin Gibbs state.  H_B = -w X_B - 2 J m Z_B
    is the mean-field bath Hamiltonian without its c-number m^2 J N, a global
    phase that cancels in U rho U^dag.  H is block diagonal: system state i
    sees the real symmetric bath block H_B - (J0/sqrt(N)) lam_i Z_B, and so
    does g^(x N) = exp(-H_B/T)/Z, all functions of the collective X_B and
    Z_B.  Each spin sector S of the 2^N bath space then repeats d_S times,
    and the bath trace counts it d_S times: in the stacked sector basis the
    bath state is rho_B = diag(d) exp(-H_B/T)/Z, symmetric because diag(d)
    commutes with every operator that keeps S.  One eigendecomposition
    (E, V) per distinct lam, shifted by e_i; with p_i = exp(-i E_i t),
        rho(t)[i, j] = op0[i, j] p_i^T M_ij p_j^*,
        M_ij = (V_i^T rho_B V_j) * (V_i^T V_j)  (elementwise),
    so every time comes out of one (T, n) @ (n, n) product per element, and
    M_ij, real, depends only on (lam_i, lam_j).  An eigenvector may mix
    sectors of one energy (at w = 0, say); V_i exp(-i E_i t) V_i^T is exact
    all the same.  The one dense route, for one qubit and for two.
    """
    _guard_size(N)
    x_b, z_b, mult = _collective_spin(N)
    h0 = 2.0 * sol.m * bath.J
    # level 0 is H_B itself, whose eigendecomposition gives rho_B
    levels = np.unique(np.append(lam, 0.0))
    evals, evecs = zip(*(
        np.linalg.eigh(-bath.w * x_b - np.diag((h0 + J0 / math.sqrt(N) * a) * z_b))
        for a in levels
    ))
    block = np.searchsorted(levels, lam)
    energies = e_s[:, None] + np.array(evals)[block]
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(np.abs(energies).max() * times)
    if overflow.any():
        raise InvalidParams(
            f"non-finite coefficients: eigenphase E t overflows at t={times[overflow][0]}"
        )
    zero = levels.searchsorted(0.0)
    e_b, v_b = evals[zero], evecs[zero]
    # diag(d)^(1/2) exp(-H_B/2T), shifted by the ground energy so T -> 0 cannot overflow
    half = np.sqrt(mult)[:, None] * v_b * np.exp(-(e_b - e_b[0]) / (2.0 * bath.T))
    rho_b = half @ half.T
    rho_b /= np.trace(rho_b)
    elements = list(zip(*np.nonzero(op0)))
    m = {
        (a, b): (evecs[a].T @ rho_b @ evecs[b]) * (evecs[a].T @ evecs[b])
        for a, b in {(block[i], block[j]) for i, j in elements}
    }
    p = np.exp(-1j * times[:, None, None] * energies)
    out = np.zeros((len(times), len(e_s), len(e_s)), dtype=complex)
    for i, j in elements:
        f = np.einsum("tk,tk->t", p[:, i] @ m[block[i], block[j]], p[:, j].conj())
        out[:, i, j] = op0[i, j] * f
    return out


def _trace_power(bath, sol, N, t, left_nu, right_nu):
    """(tr[exp(i I1) exp(R) exp(i I2)] / tr exp(R))^N, broadcast over the
    shapes of t, left_nu and right_nu.

    The left exponent I1 carries the bra-side bath field left_nu, the right
    exponent I2 the ket-side field right_nu; exp(R) is the unnormalized
    per-spin Gibbs weight, which trace_triple normalizes.
    """
    r = TracelessXZ(a=bath.w / (2.0 * bath.T), b=2.0 * sol.m * bath.J / (2.0 * bath.T))
    with np.errstate(over="ignore"):  # TracelessXZ rejects an overflowed field
        i1 = TracelessXZ(a=0.5 * t * bath.w, b=0.5 * t * left_nu)
        i2 = TracelessXZ(a=-0.5 * t * bath.w, b=-0.5 * t * right_nu)
    return trace_triple(i1, r, i2) ** N


def extract_products(
    cfg: OracleConfig, sol: OrderSolution | None = None
) -> np.ndarray:
    """Exact conjugate coefficients (A*, B*, D*), one row per time: shaped
    (T, 3), via trace_triple.

    Each is the N-th power of a normalized three-factor trace: the left
    exponent carries the bra-side bath coupling, the right exponent the
    ket side, and the middle factor is the unnormalized per-spin Gibbs
    weight.  A*: 0 -> +1 transition; B*: -1 -> +1; D*: -1 -> 0.
    """
    _guard_size(cfg.N)
    sol = sol if sol is not None else solve_order(cfg.bath)
    h0 = 2.0 * sol.m * cfg.bath.J
    shift = cfg.sys.J0 / math.sqrt(cfg.N)
    left = np.array([h0, h0 - shift, h0 - shift])
    right = np.array([h0 + shift, h0 + shift, h0])
    return _trace_power(cfg.bath, sol, cfg.N, np.array(cfg.times)[:, None], left, right)


def reconstruct_reduced(
    cfg: OracleConfig, sol: OrderSolution | None = None
) -> np.ndarray:
    """Reduced matrices rebuilt from the closed trace identity, shaped
    (T, 4, 4).

    Independent of simulate_exact's propagator route: coefficients come
    from su2.trace_triple, with the exact D* product (not A*) on the
    transitions adjacent to |11>, and the matrices from the closed forms'
    4x4 assembly.  Agrees with simulate_exact to roundoff for every w.
    """
    coef = extract_products(cfg, sol).conj()
    return _assemble(cfg.state, np.array(cfg.times), cfg.sys.xi0, *coef.T)


def single_qubit_coherence_exact(
    N: int,
    bath: BathParams,
    sys: SystemParams,
    times: Sequence[float],
    sol: OrderSolution | None = None,
    *,
    method: str = "trace",
) -> np.ndarray:
    """Exact <0|rho_s(t)|1> / <0|rho_s(0)|1> for a single qubit, shaped (T,).

    "trace" evaluates the per-spin triple-trace product in closed form;
    "dense" evolves |0><1| (x) rho_B in the bath's collective-spin basis.
    Both include the free phase exp(i mu0 t).
    """
    if not isinstance(N, int) or N < 1:
        raise InvalidParams(f"bath size N must be a positive integer, got {N}")
    t = _finite_times(times)
    sol = sol if sol is not None else solve_order(bath)
    if method == "dense":
        op0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        return _dense_reduced(-sys.mu0 * _SZ, _SZ, op0, N, sys.J0, bath, sol, t)[:, 0, 1]
    if method != "trace":
        raise InvalidParams(f"unknown method {method!r}")
    h0 = 2.0 * sol.m * bath.J
    half_shift = sys.J0 / (2.0 * math.sqrt(N))
    product = _trace_power(bath, sol, N, t, h0 + half_shift, h0 - half_shift)
    return np.exp(1j * sys.mu0 * t) * product
