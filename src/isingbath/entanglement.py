"""Wootters concurrence of two-qubit density matrices.

The concurrence of a two-qubit density matrix is
C = max(l1 - l2 - l3 - l4, 0) where l_i are the square roots of the
eigenvalues of R = rho rho~ in decreasing order (Wootters, PRL 80, 2245
(1998)).  For any factor rho = W W^dag, the l_i are exactly the singular
values of tau = W^T (sy x sy) W.  One batched LAPACK eigendecomposition
rho = V diag(e) V^dag checks positivity and gives that factor,
W = V diag(sqrt(e)), with near-zero e floored to exactly zero; sy x sy
is a signed reversal of the rows of W, so tau is one batched 4x4 product.
A batched SVD of tau then gives the l_i without square-rooting roundoff
noise: separable states return a clean zero instead of a sqrt(eps)-sized
residue.  A whole time curve is one (T, 4, 4) stack.  The test suite
cross-checks the spectrum against a generic nonsymmetric eigensolver
applied to R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotADensityMatrix
from .two_qubit import validate_density

_PSD_CLAMP = -1e-10  # eigenvalues of rho below this are a genuine violation
_ZERO_FLOOR = 1e-13  # |eig| below this is numerically zero (unit-trace scale)
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])  # the anti-diagonal of sy x sy


@dataclass(frozen=True)
class ConcurrenceValue:
    """Concurrence plus the four square-rooted R eigenvalues (sorted desc)."""

    c: float
    lambdas: tuple[float, float, float, float]


def _wootters_lambdas(rhos: np.ndarray) -> np.ndarray:
    """Square-rooted R eigenvalues, descending, for a (..., 4, 4) stack.

    Eigenvalues of rho within the numerical-zero floor are set to exactly
    zero so rank-deficient inputs keep an exactly rank-deficient factor W.
    """
    rhos = np.asarray(rhos, dtype=complex)
    validate_density(rhos)
    evals, evecs = np.linalg.eigh(rhos)
    lowest = evals.min(initial=0.0)
    if lowest < _PSD_CLAMP:
        raise NotADensityMatrix(f"negative eigenvalue {lowest:.3g} beyond roundoff tolerance")
    roots = np.where(evals < _ZERO_FLOOR, 0.0, np.sqrt(np.clip(evals, 0.0, None)))
    w = evecs * roots[..., None, :]
    return np.linalg.svd(np.swapaxes(w, -1, -2) @ _spin_flip_rows(w), compute_uv=False)


def _spin_flip_rows(w: np.ndarray) -> np.ndarray:
    """(sy x sy) w for a (..., 4, n) stack: the rows reversed and signed."""
    return w[..., ::-1, :] * _FLIP_SIGNS[:, None]


def _from_lambdas(lambdas: np.ndarray) -> np.ndarray:
    # the upper clip is the physical bound: without it a Bell state comes
    # out as 1 + 4e-16
    l1, l2, l3, l4 = np.moveaxis(lambdas, -1, 0)
    return np.clip(l1 - l2 - l3 - l4, 0.0, 1.0)


def concurrences(rhos: np.ndarray) -> np.ndarray:
    """Wootters concurrence of every matrix in a (..., 4, 4) stack."""
    return _from_lambdas(_wootters_lambdas(rhos))


def concurrence(rho: np.ndarray) -> ConcurrenceValue:
    """Wootters concurrence of one two-qubit density matrix, with its lambdas.

    The square-rooted eigenvalues of R = rho rho~ are the singular values
    of tau = W^T (sy x sy) W for any factor rho = W W^dag (Wootters 1998).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise NotADensityMatrix(f"expected a 4x4 matrix, got shape {rho.shape}")
    lambdas = _wootters_lambdas(rho[None])
    return ConcurrenceValue(
        c=float(_from_lambdas(lambdas)[0]), lambdas=tuple(lambdas[0].tolist())
    )

