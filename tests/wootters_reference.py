"""Independent Wootters reference: the spin flip, R = rho rho~ and the
closed-form concurrence of the case-1 and case-2 states.

The package computes concurrence as the singular values of
tau = W^T (sigma_y x sigma_y) W, for the factor rho = W W^dag that its
eigendecomposition of rho gives; the tests hold them to the square roots
of the eigenvalues of R from a generic nonsymmetric eigensolver.
"""

import numpy as np

# sigma_y (x) sigma_y in the standard basis |00>, |01>, |10>, |11>
SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) rho* (sigma_y x sigma_y); an involution."""
    return SIGMA_YY @ rho.conj() @ SIGMA_YY


def r_matrix(rho: np.ndarray) -> np.ndarray:
    """rho times its spin-flip; square-rooted eigenvalues give concurrence."""
    return rho @ spin_flip(rho)


def case1_concurrence(beta: complex, gamma: complex) -> float:
    """beta|01> + gamma|10>: C = 2|beta||gamma| at every t, since the state is
    an eigenstate of the interaction and the bath never sees it."""
    return 2.0 * abs(complex(beta)) * abs(complex(gamma))


def case2_concurrence(alpha: complex, delta: complex, coef) -> float:
    """alpha|00> + delta|11>: C(t) = 2|alpha||delta||B(t)|, so the pair
    disentangles twice as fast as one qubit decoheres (|B(t)| = |A(2t)|).
    coef holds A, B and D on its last axis."""
    return 2.0 * abs(complex(alpha)) * abs(complex(delta)) * np.abs(coef[..., 1])
