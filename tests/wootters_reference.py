"""Independent Wootters reference: the spin flip, R = rho rho~ and the
closed-form concurrences of the case-1 and case-2 states.

The package computes concurrence through the singular values of
sqrt(rho) (sigma_y x sigma_y) sqrt(rho)^*; the tests hold it to the square
roots of the eigenvalues of R from a generic nonsymmetric eigensolver.
"""

import numpy as np

from isingbath.two_qubit import SIGMA_YY


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


def case2_concurrence(alpha: complex, delta: complex, coeffs) -> float:
    """alpha|00> + delta|11>: C(t) = 2|alpha||delta||B(t)|, so the pair
    disentangles twice as fast as one qubit decoheres (|B(t)| = |A(2t)|)."""
    return 2.0 * abs(complex(alpha)) * abs(complex(delta)) * np.abs(coeffs.B)
