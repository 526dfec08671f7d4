"""Exact small-bath simulator validating the analytic dephasing formulas.

The mean-field Hamiltonian commutes with the system z-operators, so the
exact reduced matrix factorizes: each element (i, j) of rho_s(t) is the
initial element times exp(-i(E_i - E_j)t) times the N-th power of a single
2x2 trace  tr[U_i g U_j^dag],  with U_i the per-spin bath propagator
conditioned on system state i and g the per-spin Gibbs state.  The routes
to it, and what they share:

* simulate_exact (factorized): per-spin propagators from su2.exp_imag,
  multiplied and traced numerically, with its own 4x4 assembly.  O(1) per
  time point; the reference for the routes below.
* reconstruct_reduced: the same traces through the closed-form triple-trace
  identity (su2.trace_triple), put into the closed forms' 4x4 assembly
  (two_qubit._assemble) with the exact |11>-side coefficient D.  Its trace
  power is shared with single_qubit_coherence_exact's "trace" method.
* the "dense" methods of simulate_exact and single_qubit_coherence_exact:
  one builder for both, with the full Kronecker Hamiltonian, its
  eigendecomposition, evolution and partial trace.  The oracle of the
  oracle, memory-guarded at N <= 12.

extract_coeffs returns the exact finite-N dephasing coefficients from the
trace products.  Note that the one-excitation coefficient is not unique at
w > 0: transitions adjacent to |00> (A) and to |11> (D) differ by an
O(w^2 J0^2/Theta^4) margin, collapsing to a single coefficient only in the
Ising limit w = 0.  extract_coeffs reports the A branch; extract_products
exposes all three conjugate products (A*, B*, D*).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dephasing import DephasingCoeffs, SystemParams
from .errors import ConfigTooLarge, InvalidParams
from .mean_field import BathParams, OrderSolution, solve_order
from .su2 import TracelessXZ, exp_imag, single_spin_gibbs, trace_triple
from .two_qubit import PureState2Q, _assemble

MAX_BATH_SIZE = 12  # 2^(N+2) <= 16384 dense dimensions

# total system S^z eigenvalue per basis state |00>, |01>, |10>, |11>
_LAMBDA = (1.0, 0.0, 0.0, -1.0)
# H_s = -xi0 S1^z S2^z eigenvalue per basis state, in units of xi0
_E_OVER_XI0 = (-0.25, 0.25, 0.25, -0.25)

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
_SZ = np.array([[0.5, 0], [0, -0.5]], dtype=complex)


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
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))


def _resolve_sol(cfg: OracleConfig, sol: OrderSolution | None) -> OrderSolution:
    return sol if sol is not None else solve_order(cfg.bath)


def _guard_size(N: int) -> None:
    if N > MAX_BATH_SIZE:
        raise ConfigTooLarge(
            f"bath size {N} exceeds the 2^(N+2) <= {2 ** (MAX_BATH_SIZE + 2)} guard"
        )


def _pair_factor_matrix(cfg, sol, t):
    """4x4 matrix of per-spin bath traces tr[U_i g U_j^dag] (not yet ^N)."""
    bath, sys = cfg.bath, cfg.sys
    g = single_spin_gibbs(bath.w, 2.0 * sol.m * bath.J, bath.T)
    shift = sys.J0 / math.sqrt(cfg.N)
    props = [
        exp_imag(TracelessXZ(a=0.5 * t * bath.w,
                             b=0.5 * t * (2.0 * sol.m * bath.J + shift * lam)))
        for lam in _LAMBDA
    ]
    f = np.empty((4, 4), dtype=complex)
    for i in range(4):
        gi = props[i] @ g
        for j in range(4):
            f[i, j] = np.trace(gi @ props[j].conj().T)
    return f


def simulate_exact(
    cfg: OracleConfig,
    sol: OrderSolution | None = None,
    *,
    method: str = "factorized",
) -> list[np.ndarray]:
    """Exact reduced density matrices tr_B[exp(-iHt) rho(0) exp(iHt)].

    rho(0) = |Psi><Psi| (x) g^(x N) with g the per-spin Gibbs state at the
    supplied (or freshly solved) mean-field order parameter.  The
    "factorized" method exploits the block-diagonal Hamiltonian; "dense"
    builds the full Kronecker Hamiltonian and eigendecomposes it.
    """
    sol = _resolve_sol(cfg, sol)
    amps = cfg.state.amplitudes()
    outer = np.outer(amps, amps.conj())
    if method == "dense":
        return _dense_reduced(
            -cfg.sys.xi0 * np.kron(_SZ, _SZ),
            np.kron(_SZ, _I2) + np.kron(_I2, _SZ),
            outer,
            cfg.N, cfg.sys.J0, cfg.bath, sol, cfg.times,
        )
    if method != "factorized":
        raise InvalidParams(f"unknown method {method!r}")
    _guard_size(cfg.N)
    out = []
    for t in cfg.times:
        f = _pair_factor_matrix(cfg, sol, t) ** cfg.N
        phase = np.exp(
            -1j * cfg.sys.xi0 * t * (np.array(_E_OVER_XI0)[:, None] - np.array(_E_OVER_XI0)[None, :])
        )
        out.append(outer * phase * f)
    return out


def _bath_sum(op: np.ndarray, N: int) -> np.ndarray:
    total = np.zeros((2**N, 2**N), dtype=complex)
    for k in range(N):
        term = np.eye(1, dtype=complex)
        for j in range(N):
            term = np.kron(term, op if j == k else _I2)
        total += term
    return total


def _dense_hamiltonian(h_s, s_op, N, J0, bath, sol):
    """H = H_s (x) 1 - (J0/sqrt(N)) S (x) Z_B + 1 (x) H_B over N bath spins.

    H_B = -w X_B - 2 J m Z_B is the mean-field bath Hamiltonian without its
    c-number m^2 J N, a global phase that cancels in U rho U^dag.
    """
    zb = _bath_sum(_SZ, N)
    xb = _bath_sum(_SX, N)
    h = np.kron(h_s, np.eye(2**N))
    h += -(J0 / math.sqrt(N)) * np.kron(s_op, zb)
    h += np.kron(np.eye(len(h_s)), -bath.w * xb - 2.0 * bath.J * sol.m * zb)
    return h


def _gibbs_product(N: int, g: np.ndarray) -> np.ndarray:
    rho_b = np.eye(1, dtype=complex)
    for _ in range(N):
        rho_b = np.kron(rho_b, g)
    return rho_b


def _dense_reduced(h_s, s_op, op0, N, J0, bath, sol, times):
    """tr_B[U(t) (op0 (x) g^(x N)) U(t)^dag] per time, U(t) = exp(-iHt).

    H is _dense_hamiltonian(h_s, s_op, ...), eigendecomposed once; h_s, s_op
    and op0 are operators on the system alone, and g is the per-spin Gibbs
    state.  The one dense route, for one qubit and for two.
    """
    _guard_size(N)
    dim_s, dim_b = len(h_s), 2**N
    evals, evecs = np.linalg.eigh(_dense_hamiltonian(h_s, s_op, N, J0, bath, sol))
    g = single_spin_gibbs(bath.w, 2.0 * sol.m * bath.J, bath.T)
    rho0 = np.kron(op0, _gibbs_product(N, g))
    out = []
    for t in times:
        u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
        op_t = u @ rho0 @ u.conj().T
        out.append(np.einsum("ibjb->ij", op_t.reshape(dim_s, dim_b, dim_s, dim_b)))
    return out


def _trace_power(bath, sol, N):
    """(t, left_nu, right_nu) -> (tr[exp(i I1) exp(R) exp(i I2)] / Z)^N.

    The left exponent I1 carries the bra-side bath field left_nu, the right
    exponent I2 the ket-side field right_nu; exp(R) is the unnormalized
    per-spin Gibbs weight and Z its trace.
    """
    r = TracelessXZ(a=bath.w / (2.0 * bath.T), b=2.0 * sol.m * bath.J / (2.0 * bath.T))
    z_spin = 2.0 * math.cosh(r.q)

    def power(t: float, left_nu: float, right_nu: float) -> complex:
        i1 = TracelessXZ(a=0.5 * t * bath.w, b=0.5 * t * left_nu)
        i2 = TracelessXZ(a=-0.5 * t * bath.w, b=-0.5 * t * right_nu)
        per_spin = trace_triple(i1, r, i2) / z_spin
        return per_spin**N

    return power


def extract_products(
    cfg: OracleConfig, sol: OrderSolution | None = None
) -> list[tuple[complex, complex, complex]]:
    """Exact conjugate coefficients (A*, B*, D*) per time, via trace_triple.

    Each is the N-th power of a normalized three-factor trace: the left
    exponent carries the bra-side bath coupling, the right exponent the
    ket side, and the middle factor is the unnormalized per-spin Gibbs
    weight.  A*: 0 -> +1 transition; B*: -1 -> +1; D*: -1 -> 0.
    """
    _guard_size(cfg.N)
    sol = _resolve_sol(cfg, sol)
    h0 = 2.0 * sol.m * cfg.bath.J
    shift = cfg.sys.J0 / math.sqrt(cfg.N)
    product = _trace_power(cfg.bath, sol, cfg.N)
    out = []
    for t in cfg.times:
        a_star = product(t, h0, h0 + shift)
        b_star = product(t, h0 - shift, h0 + shift)
        d_star = product(t, h0 - shift, h0)
        out.append((a_star, b_star, d_star))
    return out


def extract_coeffs(
    cfg: OracleConfig, sol: OrderSolution | None = None
) -> list[DephasingCoeffs]:
    """Exact finite-N DephasingCoeffs from the trace products.

    Returns A = conj(A*), B = conj(B*).  The one-excitation symmetry
    A* = D* holds to machine precision only in the Ising limit w = 0, with
    an O(w^2 J0^2/Theta^4) violation otherwise; extract_products exposes D*.
    """
    return [
        DephasingCoeffs(A=a_star.conjugate(), B=b_star.conjugate())
        for a_star, b_star, _ in extract_products(cfg, sol)
    ]


def reconstruct_reduced(
    cfg: OracleConfig, sol: OrderSolution | None = None
) -> list[np.ndarray]:
    """Reduced matrices rebuilt from the closed trace identity, per slot.

    Independent of simulate_exact's propagator route: coefficients come
    from su2.trace_triple, with the exact D* product (not A*) on the
    transitions adjacent to |11>, and the matrices from the closed forms'
    4x4 assembly.  Agrees with simulate_exact to roundoff for every w.
    """
    # one (A*, B*, D*) row per time, also for an empty time list
    coef = np.array(extract_products(cfg, sol), dtype=complex).reshape(-1, 3).conj()
    return list(_assemble(cfg.state, np.array(cfg.times), cfg.sys.xi0, *coef.T))


def single_qubit_coherence_exact(
    N: int,
    bath: BathParams,
    sys: SystemParams,
    times: Sequence[float],
    sol: OrderSolution | None = None,
    *,
    method: str = "trace",
) -> list[complex]:
    """Exact <0|rho_s(t)|1> / <0|rho_s(0)|1> for a single qubit.

    "trace" evaluates the per-spin triple-trace product in closed form;
    "dense" evolves |0><1| (x) rho_B on the full 2^(N+1)-dimensional space.
    Both include the free phase exp(i mu0 t).
    """
    if not isinstance(N, int) or N < 1:
        raise InvalidParams(f"bath size N must be a positive integer, got {N}")
    if sol is None:
        sol = solve_order(bath)
    if method == "dense":
        op0 = np.array([[0, 1], [0, 0]], dtype=complex)
        reduced = _dense_reduced(-sys.mu0 * _SZ, _SZ, op0, N, sys.J0, bath, sol, times)
        return [complex(red[0, 1]) for red in reduced]
    if method != "trace":
        raise InvalidParams(f"unknown method {method!r}")
    h0 = 2.0 * sol.m * bath.J
    half_shift = sys.J0 / (2.0 * math.sqrt(N))
    product = _trace_power(bath, sol, N)
    out = []
    for t in times:
        out.append(cmath.exp(1j * sys.mu0 * t) * product(t, h0 + half_shift, h0 - half_shift))
    return out
