"""Pure-dephasing dynamics of two qubits: the states and the multiplier M(t).

Basis ordering is |00>, |01>, |10>, |11> throughout, with |0> the upper
(S^z = +1/2) eigenstate.  Pure dephasing maps every initial rho0 to the
elementwise product rho0 * M(t), and M(t) does not depend on the state:
populations are frozen, the one-excitation coherences carry
A(t) exp(+-i t xi0 / 2), the |00><11| coherence B(t), and the |01><10|
coherence exactly 1 (a decoherence-free direction).  The closed forms and
every exact oracle route supply A, B and D as one t.shape + (3,) array, the
factors of the coupling-level pairs (_BRA, _KET) below, and multiplier
builds their M.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, InvalidState

_TOL = 1e-12  # state norm^2
_LOWER = np.tril_indices(4, -1)

# total system S^z of the two qubits' coupling levels: |00>; |01> and |10>; |11>
_LEVELS = np.array([1.0, 0.0, -1.0])
# the (bra, ket) level pairs of multiplier's coefficients A, B and D
_BRA, _KET = np.array([(0, 1), (0, 2), (1, 2)]).T


@dataclass(frozen=True)
class PureState2Q:
    """Amplitudes over |00>, |01>, |10>, |11>; must be normalized."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        amps = [complex(a) for a in (self.alpha, self.beta, self.gamma, self.delta)]
        if not all(map(cmath.isfinite, amps)):
            raise InvalidState("non-finite amplitude")
        norm2 = sum(a.real * a.real + a.imag * a.imag for a in amps)  # inf, not OverflowError
        if abs(norm2 - 1.0) > _TOL:
            raise InvalidState(f"state norm^2 = {norm2!r} is not 1 within {_TOL}")

    @classmethod
    def normalized(cls, alpha, beta, gamma, delta) -> "PureState2Q":
        """Build a state from unnormalized amplitudes of any finite scale."""
        amps = [complex(a) for a in (alpha, beta, gamma, delta)]
        if not all(map(cmath.isfinite, amps)):
            raise InvalidState("non-finite amplitude")
        top = max(max(abs(z.real), abs(z.imag)) for z in amps)
        if top == 0.0:
            raise InvalidState("cannot normalize the zero vector")
        # far from 1, an exact power-of-two rescale brings the largest part near 1,
        # so that no |z|^2 overflows or underflows; ldexp by 0 is the identity
        e = math.frexp(top)[1]
        e = e if abs(e) > 500 else 0
        amps = [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in amps]
        norm = math.sqrt(sum(abs(z) ** 2 for z in amps))
        return cls(*(z / norm for z in amps))

    def amplitudes(self) -> np.ndarray:
        return np.array(
            [self.alpha, self.beta, self.gamma, self.delta], dtype=complex
        )

    def density(self) -> np.ndarray:
        """|Psi><Psi|, exactly Hermitian, with populations |amplitude|^2."""
        amps = self.amplitudes()
        # scalar products: numpy's vectorised complex multiply rounds differently,
        # and the decoherence-free |01><10| entry must stay beta gamma^* exactly
        a = amps.tolist()
        upper = np.array(
            [[x * y.conjugate() if i < j else 0j for j, y in enumerate(a)] for i, x in enumerate(a)]
        )
        return upper + upper.conj().T + np.diag(np.abs(amps) ** 2)


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
    coef: np.ndarray,
) -> np.ndarray:
    """Reduced density matrix rho_s(t) for initial |Psi><Psi|: a (4, 4)
    matrix for a scalar t, a (T, 4, 4) stack for a 1-D t.

    InvalidParams where checked_coef refuses coef or qubit_phase xi0 t/2.
    """
    t = np.asarray(t, dtype=float)
    return state.density() * multiplier(t, xi0, checked_coef(t, coef))


def checked_coef(t: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """coef, which holds A, B and D on its last axis, if it is shaped
    t.shape + (3,) with no magnitude above 1 beyond rounding; another shape,
    a larger magnitude or a nan is InvalidParams."""
    coef = np.asarray(coef)
    if coef.shape != t.shape + (3,):
        raise InvalidParams(f"coefficients of shape {coef.shape} for times {t.shape}")
    if not (worst := np.abs(coef).max(initial=0.0)) <= 1.0 + 1e-12:  # a nan fails too
        raise InvalidParams(f"max |A|, |B|, |D| = {worst} exceeds 1 beyond tolerance")
    return coef


def level_entries(t: np.ndarray, xi0: float, coef: np.ndarray) -> tuple:
    """The 3x3 level multiplier's entries above its unit diagonal: a = A p
    between levels 0 and 1, b = B between 0 and 2, d = D p^* between 1 and 2.

    coef holds A, B and D on its last axis, shaped t.shape + (3,).  The
    qubit phase p = exp(i xi0 t / 2), of H_s = -xi0 S1^z S2^z, stays a factor
    of its own: added to the O(1) bath eigenvalues behind A, B and D, a large
    xi0 would round them away.  A numpy scalar rounds A p as a 0-d array
    does.
    """
    coef = np.asarray(coef, dtype=complex)
    p = qubit_phase(t, xi0)
    return coef[..., 0] * p, coef[..., 1], coef[..., 2] * p.conj()


def qubit_phase(t: np.ndarray, xi0: float) -> np.ndarray:
    """p = exp(i xi0 t / 2); InvalidParams where bounded_phase refuses xi0 t/2."""
    with np.errstate(over="ignore"):  # an overflowed phase fails the bound
        return np.exp(1j * bounded_phase(0.5 * (xi0 * t), t, "qubit phase |xi0 t|/2"))


def multiplier(t: np.ndarray, xi0: float, coef: np.ndarray) -> np.ndarray:
    """M(t), a Hermitian t.shape + (4, 4) stack that takes any rho0 to rho0 * M.

    Each basis state sits on its coupling level, and M holds the level
    multiplier's entries (level_entries): unit diagonal and |01><10| entry;
    a on the one-excitation coherences adjacent to |00>, d on those adjacent
    to |11>, and b at |00><11|.  The closed forms share one coefficient
    (D = A); the exact finite-field products of the oracle do not.
    """
    a, b, d = level_entries(t, xi0, coef)
    m = np.ones(np.shape(t) + (4, 4), dtype=complex)
    m[..., 0, 1] = m[..., 0, 2] = a
    m[..., 1, 3] = m[..., 2, 3] = d
    m[..., 0, 3] = b
    m[..., _LOWER[0], _LOWER[1]] = m[..., _LOWER[1], _LOWER[0]].conj()
    return m


def bounded_phase(phase: np.ndarray, t: np.ndarray, name: str) -> np.ndarray:
    """phase, which broadcasts against times t, if every |phase| is below 2**52
    (from there on its rounding reaches a radian); else InvalidParams with name,
    |phase| and the first time it is not below, which a nan or inf phase is not."""
    if not (ok := (size := np.abs(phase)) < 2.0**52).all():
        at = np.broadcast_to(t, ok.shape)[~ok][0]
        raise InvalidParams(f"{name} = {size[~ok][0]:.3g} is not below 2**52 at t={at}")
    return phase

