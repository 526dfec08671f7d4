"""Independent full-Hilbert-space reference for the dense oracle route.

The package evolves one collective-spin bath block per system coupling
level; the tests hold it to the whole Kronecker Hamiltonian on the
2^(n_s + N)-dimensional system-plus-bath space, exponentiated through its eigendecomposition one
time after another and partial-traced over the bath.
"""

import math
from functools import reduce

import numpy as np

from isingbath.su2 import single_spin_gibbs

I2 = np.eye(2)
SX = np.array([[0.0, 0.5], [0.5, 0.0]])
SZ = np.array([[0.5, 0.0], [0.0, -0.5]])


def bath_sum(op: np.ndarray, N: int) -> np.ndarray:
    """sum_k op_k over N bath spins, op_k acting on spin k alone."""
    return sum(
        reduce(np.kron, [op if j == k else I2 for j in range(N)]) for k in range(N)
    )


def two_qubit_operators(xi0: float) -> tuple[np.ndarray, np.ndarray]:
    """H_s = -xi0 S1^z S2^z and the coupled S^z = S1^z + S2^z as 4x4 matrices."""
    return -xi0 * np.kron(SZ, SZ), np.kron(SZ, I2) + np.kron(I2, SZ)


def bath_hamiltonian(N, bath, sol) -> np.ndarray:
    """H_B = -w X_B - 2 J m Z_B, the mean-field bath Hamiltonian without its
    c-number m^2 J N."""
    return -bath.w * bath_sum(SX, N) - 2.0 * bath.J * sol.m * bath_sum(SZ, N)


def dense_hamiltonian(h_s, s_op, N, J0, bath, sol) -> np.ndarray:
    """H = H_s (x) 1 - (J0/sqrt(N)) S (x) Z_B + 1 (x) H_B over N bath spins."""
    h = np.kron(h_s, np.eye(2**N))
    h += -(J0 / math.sqrt(N)) * np.kron(s_op, bath_sum(SZ, N))
    h += np.kron(np.eye(len(h_s)), bath_hamiltonian(N, bath, sol))
    return h


def gibbs_product(N, bath, sol) -> np.ndarray:
    """g^(x N), g the per-spin Gibbs state at the order parameter sol.m."""
    g = single_spin_gibbs(bath.w, 2.0 * sol.m * bath.J, bath.T)
    return reduce(np.kron, [g] * N)


def reduced_matrices(h_s, s_op, op0, N, J0, bath, sol, times) -> np.ndarray:
    """tr_B[U(t) (op0 (x) g^(x N)) U(t)^dag] per time, U(t) = exp(-iHt),
    shaped (T, dim_s, dim_s)."""
    dim_s, dim_b = len(h_s), 2**N
    evals, evecs = np.linalg.eigh(dense_hamiltonian(h_s, s_op, N, J0, bath, sol))
    rho0 = np.kron(op0, gibbs_product(N, bath, sol))
    out = []
    for t in times:
        u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
        rho_t = (u @ rho0 @ u.conj().T).reshape(dim_s, dim_b, dim_s, dim_b)
        out.append(np.einsum("ibjb->ij", rho_t))
    return np.array(out).reshape(len(times), dim_s, dim_s)
