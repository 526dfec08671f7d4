"""Single-qubit coherence factor and two-qubit dephasing coefficients.

The interaction commutes with the system z-operators, so populations are
conserved and each coherence is multiplied by a complex factor.  For a bath
of N spins the finite-N factor is

    r(t) = [cos(phi) + i (Theta/J) sin(phi)]^N,   phi = t m J J0 / (Theta sqrt(N)),

evaluated in the log domain so N up to 1e8 costs nothing and loses nothing.
For large N the magnitude tends to the Gaussian
|r| = exp[-J0^2 m^2 t^2/2 (J^2/Theta^2 - 1)].  The two-qubit coefficients are
A(t) = r(t) (one-excitation coherences) and B(t) = A(2t) (the two-excitation
coherence), so entanglement in the two-excitation channel decays exactly
twice as fast as single-qubit coherence.

These closed forms are the mean-field result at the self-consistent order
parameter.  They are exact at w = 0 (Ising bath); at w > 0 they carry an
O(w^2 J0^2 / Theta^4) residual relative to the exact finite-N traces (see
the oracle module, which computes those traces).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InvalidParams
from .mean_field import BathParams, OrderSolution

MODE_FINITE = "finite"
MODE_ASYMPTOTIC = "asymptotic"

_MAG_TOL = 1.0 + 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Qubit-side couplings (energy units)."""

    J0: float  # system-bath exchange, >= 0
    mu0: float = 0.0  # single-qubit z field (free phase only), >= 0
    xi0: float = 0.0  # qubit-qubit Ising coupling, >= 0

    def __post_init__(self):
        for name in ("J0", "mu0", "xi0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise InvalidParams(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class DephasingCoeffs:
    """Coherence multipliers A (one-excitation) and B (two-excitation)."""

    A: complex
    B: complex

    def __post_init__(self):
        if abs(self.A) > _MAG_TOL or abs(self.B) > _MAG_TOL:
            raise InvalidParams(
                f"|A|={abs(self.A)}, |B|={abs(self.B)} exceed 1 beyond tolerance"
            )


def _log_per_spin(phi: float, ratio: float) -> complex:
    # log[cos(phi) + i*ratio*sin(phi)] on the principal branch, written so
    # the magnitude part stays accurate when |z| is within eps of 1
    s = 1.0 - ratio * ratio
    sin_phi = math.sin(phi)
    return 0.5 * math.log1p(-s * sin_phi * sin_phi) + 1j * math.atan2(
        ratio * sin_phi, math.cos(phi)
    )


def coherence_factor_finite(
    t: float,
    N: int,
    sol: OrderSolution,
    bath: BathParams,
    sys: SystemParams,
) -> complex:
    """Finite-N coherence factor r(t) multiplying the <0|rho|1> element.

    Computed as exp(N log z) with z the per-spin factor; for integer N the
    principal branch is exact even when z crosses the negative real axis.
    A disordered bath (m = 0) dephases nothing: r = 1 for all t.

    The free single-qubit phase exp(i mu0 t) is excluded: it cannot change
    |r| or any concurrence.  Multiply by it to recover the full
    matrix-element evolution.
    """
    if N < 1:
        raise InvalidParams(f"bath size N must be >= 1, got {N}")
    if sol.m == 0.0:
        return 1.0 + 0.0j
    if sol.theta <= 0.0:
        raise InvalidParams("ordered solution with Theta = 0 is inconsistent")
    phi = t * sol.m * bath.J * sys.J0 / (sol.theta * math.sqrt(N))
    return cmath.exp(N * _log_per_spin(phi, sol.theta / bath.J))


def coherence_magnitude_asymptotic(
    t: float, sol: OrderSolution, bath: BathParams, sys: SystemParams
) -> float:
    """Large-N Gaussian |r(t)| = exp[-J0^2 m^2 t^2/2 (J^2/Theta^2 - 1)].

    The rate factor is evaluated as (J^2 - Theta^2)/Theta^2, the same
    expression coherence_time uses, so substituting t = tau reproduces
    exp(-1) to roundoff even close to saturation where J^2 - Theta^2
    nearly cancels.
    """
    if sol.m == 0.0:
        return 1.0
    gap = bath.J**2 - sol.theta**2
    if gap <= 0.0:
        return 1.0  # Theta -> J (T -> 0): no decay
    return math.exp(-0.5 * (sys.J0 * sol.m * t) ** 2 * gap / sol.theta**2)


def coherence_time(sol: OrderSolution, bath: BathParams, sys: SystemParams) -> float:
    """Gaussian 1/e time tau = (Theta/(J0 m)) sqrt(2/(J^2 - Theta^2)).

    Infinite when the bath does not dephase (m = 0) or at saturation
    (Theta = J, i.e. T -> 0).
    """
    if sys.J0 <= 0:
        raise InvalidParams("coherence time needs J0 > 0")
    if sol.m == 0.0 or sol.theta >= bath.J:
        return math.inf
    return (sol.theta / (sys.J0 * sol.m)) * math.sqrt(
        2.0 / (bath.J**2 - sol.theta**2)
    )


def im_coherence_time(m: float, J0: float) -> float:
    """Ising-limit 1/e time tau = (2/J0) sqrt(2/(1 - 4 m^2)).

    Unlike the general formula this stays finite as m -> 0 (the Ising bath
    dephases even at the transition, rate 1/4): tau(m=0) = 2 sqrt(2)/J0.
    """
    if J0 <= 0:
        raise InvalidParams("coherence time needs J0 > 0")
    if not 0.0 <= m <= 0.5:
        raise InvalidParams(f"m must lie in [0, 1/2], got {m}")
    if m == 0.5:
        return math.inf
    return (2.0 / J0) * math.sqrt(2.0 / (1.0 - 4.0 * m * m))


def im_limit_magnitude(t: float, m: float, J0: float) -> float:
    """Ising-limit magnitude exp[-J0^2 t^2/2 (1/4 - m^2)].

    Identical to the general Gaussian with Theta = 2 m J substituted:
    m^2 (J^2/Theta^2 - 1) = 1/4 - m^2.
    """
    if not 0.0 <= m <= 0.5:
        raise InvalidParams(f"m must lie in [0, 1/2], got {m}")
    return math.exp(-0.5 * (J0 * t) ** 2 * (0.25 - m * m))


def dephasing_coeffs(
    t: float,
    sol: OrderSolution,
    bath: BathParams,
    sys: SystemParams,
    *,
    mode: str = MODE_FINITE,
    N: int | None = None,
) -> DephasingCoeffs:
    """Two-qubit coefficients A(t), B(t) in the requested mode.

    Finite mode: A(t) = r(t), B(t) = A(2t) exactly (same code path).
    Asymptotic mode: magnitudes only, A = |r| Gaussian and B = A^4.
    """
    if mode == MODE_FINITE:
        if N is None:
            raise InvalidParams("finite mode requires a bath size N")
        A = coherence_factor_finite(t, N, sol, bath, sys)
        B = coherence_factor_finite(2.0 * t, N, sol, bath, sys)
        return DephasingCoeffs(A=A, B=B)
    if mode == MODE_ASYMPTOTIC:
        A = coherence_magnitude_asymptotic(t, sol, bath, sys)
        return DephasingCoeffs(A=A, B=A**4)
    raise InvalidParams(f"unknown mode {mode!r}")
