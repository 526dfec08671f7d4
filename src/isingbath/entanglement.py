"""Wootters concurrence of two-qubit density matrices.

The concurrence of a two-qubit density matrix is
C = max(l1 - l2 - l3 - l4, 0) where l_i are the square roots of the
eigenvalues of R = rho rho~ in decreasing order (Wootters, PRL 80, 2245
(1998)).  For any factor rho = W W^dag, the l_i are exactly the singular
values of tau = W^T (sy x sy) W.  In the general route, concurrences,
one batched LAPACK eigendecomposition rho = V diag(e) V^dag checks
positivity and gives that factor, W = V diag(sqrt(e)), with near-zero e
floored to exactly zero; sy x sy is a signed reversal of the rows of W,
so tau is one batched 4x4 product.
A batched SVD of tau then gives the l_i without square-rooting roundoff
noise: separable states return a clean zero instead of a sqrt(eps)-sized
residue.  A whole time curve is one (T, 4, 4) stack.  The test suite
cross-checks the spectrum against a generic nonsymmetric eigensolver
applied to R.

A dephased pure state needs no 4x4 matrix: dephased_concurrences factors
its 3x3 coupling-level multiplier in closed form, so tau is 3x3, and on
at most two levels it takes the paper's closed forms, C = 2|psi1 psi2| at
every time, or C = 2|psi0 psi3| |B(t)|.  The CLI takes that route for
every state; the general route serves the scalar concurrence and the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotADensityMatrix
from .two_qubit import PureState2Q, checked_coef, level_entries, qubit_phase, validate_density

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
    # l1 - l2 - l3 (- l4) from descending lambdas, three or four of them; the
    # upper clip is the physical bound: without it a Bell state comes out as
    # 1 + 4e-16
    return np.clip(functools.reduce(np.subtract, np.moveaxis(lambdas, -1, 0)), 0.0, 1.0)


def concurrences(rhos: np.ndarray) -> np.ndarray:
    """Wootters concurrence of every matrix in a (..., 4, 4) stack."""
    return _from_lambdas(_wootters_lambdas(rhos))


def dephased_concurrences(
    state: PureState2Q, t: float | np.ndarray, xi0: float, coef: np.ndarray
) -> np.ndarray:
    """Concurrence of evolve_reduced(state, t, xi0, coef) at every time,
    from the level multiplier alone: rho is never formed.

    - M's |01> and |10> rows are equal, so M = E M3 E^T, E the 4x3 map of
      basis states to coupling levels.  For any factor M3 = L L^dag of the
      3x3 level multiplier, W = diag(psi) E L is a factor of rho, and
      Wootters' tau = L^T K L, K = E^T diag(psi) (sy x sy) diag(psi) E.
    - K holds only -psi0 psi3 (levels 0, 2) and 2 psi1 psi2 (level 1).
    - Where the populations p_i = |psi_i|^2 occupy at most two coupling
      levels (p0 p3 = 0 or p1 + p2 = 0), one of them is 0.  tau then has
      rank at most 2, and L's unit rows give its singular values:
      |2 psi1 psi2|, or |psi0 psi3| (1 +- |B|), B being the product of rows
      0 and 2.  So C = 2 sqrt(p1 p2) at every time, or 2 sqrt(p0 p3) |B|.
    - On three levels, with a, b and d the level multiplier's entries, one
      elimination step on level 0 (unit pivot) gives L's first column
      (1, a^*, b^*) and the Schur complement S of levels 1 and 2.  S's
      closed-form 2x2 eigendecomposition gives the other two columns, its
      eigenvectors times the roots of its eigenvalues, and one batched 3x3
      SVD of tau gives C.  Where S's smaller eigenvalue is below _PSD_CLAMP,
      M3, and so rho, is not positive: NotADensityMatrix.  An eigenvalue
      below _ZERO_FLOOR is exactly 0, the floor concurrences puts on rho's.
      Rounding in a, b and d can leave S indefinite by ~1e-11 where |A|
      rounds to 1; the eigenvectors keep S's positive part, where a
      Cholesky pivot on that scale would put C 1e-10 off.
    checked_coef and qubit_phase refuse what evolve_reduced refuses, in its
    order, and then rho is Hermitian with the unit trace sum p_i.
    Populations, not amplitude products, so that a weight whose square
    underflows reads as absent.
    """
    t = np.asarray(t, dtype=float)
    coef = checked_coef(t, coef)
    psi = state.amplitudes()
    p0, p1, p2, p3 = (np.abs(psi) ** 2).tolist()
    if not (p0 * p3 and p1 + p2):
        qubit_phase(t, xi0)  # its bound, which C = 2 sqrt(p0 p3) |B| does not read
        # one of the two terms is exactly 0.0, and adding it rounds nothing
        return np.clip(2.0 * math.sqrt(p1 * p2) + 2.0 * math.sqrt(p0 * p3) * np.abs(coef[..., 1]),
                       0.0, 1.0)
    a, b, d = level_entries(t, xi0, coef)
    s11, s22, s12 = 1.0 - _abs2(a), 1.0 - _abs2(b), d - a.conj() * b
    h, mean = 0.5 * (s11 - s22), 0.5 * (s11 + s22)
    r = np.hypot(h, np.abs(s12))
    if (worst := (mean - r).min(initial=0.0)) < _PSD_CLAMP:
        raise NotADensityMatrix(f"negative eigenvalue {worst:.3g} beyond roundoff tolerance")
    # S's eigenvectors (x, y) and (-y^*, x^*), with g = r + |h| free of
    # cancellation: x = g and y = s12^* for h >= 0, else x = s12 and y = g;
    # g = 1 where S is a multiple of the identity
    g = r + np.abs(h)
    g = np.where(g > 0.0, g, 1.0)
    x, y = np.where(h >= 0.0, g, s12), np.where(h >= 0.0, s12.conj(), g)
    n = np.hypot(g, np.abs(s12))
    up, low = (np.sqrt(np.where(e < _ZERO_FLOOR, 0.0, e)) / n for e in (mean + r, mean - r))
    # rows 1 and 2 of L; row 0 is (1, 0, 0)
    v = np.stack([a.conj(), up * x, -low * y.conj()], axis=-1)
    w = np.stack([b.conj(), up * y, low * x.conj()], axis=-1)
    psi0, psi1, psi2, psi3 = psi.tolist()
    k02, k11 = -psi0 * psi3, 2.0 * psi1 * psi2
    tau = k11 * v[..., :, None] * v[..., None, :]
    tau[..., 0, :] += k02 * w
    tau[..., :, 0] += k02 * w
    return _from_lambdas(np.linalg.svd(tau, compute_uv=False))


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


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

