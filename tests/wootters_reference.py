"""Independent Wootters reference: the spin flip and R = rho rho~.

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
