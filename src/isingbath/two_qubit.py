"""Time-evolved two-qubit reduced density matrix and related 4x4 machinery.

Basis ordering is |00>, |01>, |10>, |11> throughout, with |0> the upper
(S^z = +1/2) eigenstate.  Pure dephasing fixes the structure of rho_s(t):
populations are frozen, the one-excitation coherences are multiplied by
A(t) exp(+-i t xi0 / 2), the |00><11| coherence by B(t), and the
|01><10| coherence by nothing at all (both states sit in the same
interaction eigenspace, a decoherence-free direction).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dephasing import DephasingCoeffs
from .errors import InvalidParams, InvalidState, NotADensityMatrix

_TOL = 1e-12  # state norm^2, Hermiticity and trace
_MAG_TOL = 1.0 + 1e-12

# sigma_y (x) sigma_y in the standard basis
SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class PureState2Q:
    """Amplitudes over |00>, |01>, |10>, |11>; must be normalized."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        amps = (self.alpha, self.beta, self.gamma, self.delta)
        if not all(math.isfinite(abs(complex(a))) for a in amps):
            raise InvalidState("non-finite amplitude")
        norm2 = sum(abs(complex(a)) ** 2 for a in amps)
        if abs(norm2 - 1.0) > _TOL:
            raise InvalidState(f"state norm^2 = {norm2!r} is not 1 within {_TOL}")

    @classmethod
    def normalized(cls, alpha, beta, gamma, delta) -> "PureState2Q":
        """Build a state from unnormalized amplitudes."""
        norm = math.sqrt(sum(abs(complex(a)) ** 2 for a in (alpha, beta, gamma, delta)))
        if norm == 0.0:
            raise InvalidState("cannot normalize the zero vector")
        return cls(alpha / norm, beta / norm, gamma / norm, delta / norm)

    def amplitudes(self) -> np.ndarray:
        return np.array(
            [self.alpha, self.beta, self.gamma, self.delta], dtype=complex
        )


def case_state(case: int) -> PureState2Q:
    """The four paradigmatic initial states.

    1: (|01> + |10>)/sqrt(2)   decoherence-free Bell state
    2: (|00> + |11>)/sqrt(2)   bath-exposed Bell state
    3: (|10> + |11>)/sqrt(2)   product state, stays separable
    4: (|0>+|1>)(|0>+|1>)/2    product state that entangles through xi0
    """
    r = 1.0 / math.sqrt(2.0)
    if case == 1:
        return PureState2Q(0.0, r, r, 0.0)
    if case == 2:
        return PureState2Q(r, 0.0, 0.0, r)
    if case == 3:
        return PureState2Q(0.0, 0.0, r, r)
    if case == 4:
        return PureState2Q(0.5, 0.5, 0.5, 0.5)
    raise InvalidParams(f"case must be 1..4, got {case}")


def evolve_reduced(
    state: PureState2Q,
    t: float | np.ndarray,
    xi0: float,
    coeffs: DephasingCoeffs | Sequence[DephasingCoeffs],
) -> np.ndarray:
    """Reduced density matrix rho_s(t) for initial |Psi><Psi|.

    Populations equal |amplitude|^2 for all t; the (|01>,|10>) coherence
    carries no decay factor; the remaining coherences pick up A or B and
    the xi0 phases.  At t = 0 (A = B = 1) this is |Psi><Psi| exactly.

    A scalar t with one DephasingCoeffs gives a (4, 4) matrix; a 1-D t
    with one DephasingCoeffs per time gives a (T, 4, 4) stack.
    """
    t = np.asarray(t, dtype=float)
    per_time = [coeffs] if isinstance(coeffs, DephasingCoeffs) else list(coeffs)
    if t.ndim > 1 or len(per_time) != t.size:
        raise InvalidParams(
            f"need one DephasingCoeffs per time: {len(per_time)} for shape {t.shape}"
        )
    A = np.array([complex(k.A) for k in per_time]).reshape(t.shape)
    B = np.array([complex(k.B) for k in per_time]).reshape(t.shape)
    if max(np.abs(A).max(initial=0.0), np.abs(B).max(initial=0.0)) > _MAG_TOL:
        raise InvalidParams("coefficients must have |A|, |B| <= 1")
    return _assemble(state, t, xi0, A, B, A)


def _assemble(
    state: PureState2Q, t: np.ndarray, xi0: float, A: np.ndarray, B: np.ndarray, D: np.ndarray
) -> np.ndarray:
    """The pure-dephasing rho_s(t), broadcast over the shape of t.

    A multiplies the one-excitation coherences adjacent to |00>, D those
    adjacent to |11>, and B the |00><11| coherence; A, B and D have the
    shape of t.  The closed forms share one coefficient (D = A); the exact
    finite-field products of the oracle do not.
    """
    p = np.exp(0.5j * xi0 * t)[..., None]
    amps = state.amplitudes()
    # scalar products: numpy's vectorised complex multiply rounds differently,
    # and the decoherence-free |01><10| entry must stay beta gamma^* exactly
    upper = np.array(
        [[x * y.conjugate() if i < j else 0j for j, y in enumerate(amps.tolist())]
         for i, x in enumerate(amps.tolist())]
    )
    rho = np.broadcast_to(upper, t.shape + (4, 4)).copy()
    rho[..., 0, 1:3] *= A[..., None]
    rho[..., 0, 1:3] *= p
    rho[..., 0, 3] *= B
    rho[..., 1:3, 3] *= D[..., None]
    rho[..., 1:3, 3] *= p.conj()
    rho = rho + np.swapaxes(rho, -1, -2).conj()
    rho[..., range(4), range(4)] = np.abs(amps) ** 2
    return rho


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) rho* (sigma_y x sigma_y); an involution."""
    return SIGMA_YY @ rho.conj() @ SIGMA_YY


def r_matrix(rho: np.ndarray) -> np.ndarray:
    """rho times its spin-flip; square-rooted eigenvalues give concurrence."""
    return rho @ spin_flip(rho)


def pure_concurrence(state: PureState2Q) -> float:
    """Concurrence 2|alpha delta - beta gamma| of the pure state itself."""
    return 2.0 * abs(state.alpha * state.delta - state.beta * state.gamma)


def validate_density(rho: np.ndarray) -> None:
    """Raise NotADensityMatrix unless every matrix of a (..., 4, 4) stack is
    Hermitian with unit trace.

    Positivity is checked downstream where an eigendecomposition happens
    anyway (see entanglement.concurrences).
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise NotADensityMatrix(f"expected 4x4 matrices, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise NotADensityMatrix("matrix has non-finite entries")
    herm = np.abs(rho - np.swapaxes(rho, -1, -2).conj()).max(initial=0.0)
    if herm > _TOL:
        raise NotADensityMatrix(f"Hermiticity violated by {herm:.3g}")
    tr = np.trace(rho, axis1=-2, axis2=-1).reshape(-1)
    dev = np.abs(tr - 1.0)
    if dev.max(initial=0.0) > _TOL:
        worst = complex(tr[dev.argmax()])
        raise NotADensityMatrix(f"trace = {worst!r} is not 1 within {_TOL}")
