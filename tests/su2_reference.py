"""Independent 2x2 references for the closed-form sigma_x/sigma_z identities:
the matrix of a family member and a Taylor-series exponential."""

import numpy as np


def xz_matrix(m) -> np.ndarray:
    """a sigma_x + b sigma_z = [[b, a], [a, -b]] of a scalar TracelessXZ."""
    return np.array([[m.b, m.a], [m.a, -m.b]], dtype=float)


def series_exp(m, terms=40):
    """Taylor-series matrix exponential of a 2x2 matrix."""
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out
