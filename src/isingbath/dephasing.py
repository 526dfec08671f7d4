"""Single-qubit coherence factor and two-qubit dephasing coefficients.

The interaction commutes with the system z-operators, so populations are
conserved and each coherence is multiplied by a complex factor.  For a bath
of N spins the finite-N factor is

    r(t) = [cos(cu) + i m u sinc(cu)]^N,   u = J0 t / sqrt(N),  c = mJ/Theta,

which is [cos(phi) + i (Theta/J) sin(phi)]^N with phi = cu, evaluated in the
log domain for a scalar or array `t`, so N up to 1e8 cannot overflow and a
whole time grid is one numpy call.  For large N the magnitude tends to the
Gaussian |r| = exp[-kappa (J0 t)^2 / 2], kappa = m^2 (J^2/Theta^2 - 1).
At w = 0, Theta = 2mJ makes c = 1/2 and kappa = 1/4 - m^2 at every
temperature, so the forms hold on both sides of Tc.
The two-qubit coefficients are A(t) = r(t) (one-excitation coherences) and
B(t) = A(2t) (the two-excitation coherence), so entanglement in the
two-excitation channel decays exactly twice as fast as single-qubit coherence.

These closed forms are the mean-field result at the self-consistent order
parameter.  They are exact at w = 0 (Ising bath); at w > 0 they carry an
O(w^2 J0^2 / Theta^4) residual relative to the exact finite-N traces (see
the oracle module, which computes those traces).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .errors import InvalidParams
from .mean_field import BathParams, OrderSolution
from .su2 import _sinc
from .two_qubit import bounded_phase

MODE_FINITE = "finite"
MODE_ASYMPTOTIC = "asymptotic"


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


def bath_size(N) -> int:
    """N as a Python int, if it is a whole number >= 1 of any real type (a numpy
    integer, or a whole float such as 1e6) within the float range.  Else InvalidParams."""
    if not (isinstance(N, numbers.Real) and 1 <= N < math.inf and int(N) == N):
        raise InvalidParams(f"N must be a whole number >= 1, got {N!r}")
    if (n := int(N)) > float_info.max:  # as ints: a float32 N would cast the max to float32
        digits = (d := round(math.log10(n))) + (n >= 10**d)  # str(n) stops at 4,300 digits
        raise InvalidParams(f"N must be at most {float_info.max:.4g}, got {digits} digits")
    return n


def _rate_factors(sol: OrderSolution, bath: BathParams) -> tuple[float, float, float]:
    """c = mJ/Theta and the factors c - m, c + m of the Gaussian rate
    kappa = m^2 (J^2/Theta^2 - 1) = (c - m)(c + m).

    At w = 0, Theta = 2mJ makes c = 1/2 at every temperature: the solvers'
    m is exactly Theta/(2J) there, so c = m/(Theta/J) reads 1/2 exactly.
    A disordered bath is decided here: at w = 0 (m = Theta = 0) its free
    spins still dephase the qubit, at rate 1/4; at w > 0 it has c = 0 and
    dephases nothing.  c - m is formed as c (J - Theta)/J, an exact
    subtraction near saturation, and every factor is a ratio to J, so no
    bath scale loses precision.  kappa is as precise as the root's J - Theta,
    which is lost once it falls below the rounding of J (T -> 0).
    """
    if not sol.ordered:
        c = 0.5 if bath.w == 0.0 else 0.0
        return c, c, c
    c = sol.m / (sol.theta / bath.J)
    return c, c * ((bath.J - sol.theta) / bath.J), c + sol.m


def coherence_factor_finite(
    t: float | np.ndarray,
    N: int,
    sol: OrderSolution,
    bath: BathParams,
    sys: SystemParams,
    *,
    levels: int = 1,
) -> complex | np.ndarray:
    """Finite-N coherence factor r(levels t): at levels = 1 the factor
    multiplying the <0|rho|1> element, at levels = 2 the two-excitation
    coefficient B(t) = r(2t).

    Computed as exp(N log z) with z = cos(cu) + i m u sinc(cu) the per-spin
    factor, u = levels (J0 t / sqrt(N)): the angle is scaled, not the time,
    so J0 = 0 gives u = 0 at every finite t; for integer N the principal
    branch is exact even when z crosses the negative real axis.  log|z| is
    taken as log1p(-kappa u^2 sinc^2(cu))/2, accurate where |z| is within
    eps of 1.  InvalidParams (two_qubit.bounded_phase), naming t, where
    N |c u|, the per-spin angle's rounding grown N-fold by the power,
    reaches 2**52 or is nan.

    The free single-qubit phase exp(i mu0 t) is excluded: it cannot change
    |r| or any concurrence.  Multiply by it to recover the full
    matrix-element evolution.
    """
    N = bath_size(N)
    t = np.asarray(t, dtype=float)
    c, lo, hi = _rate_factors(sol, bath)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the bound
        u = levels * (t * (sys.J0 / math.sqrt(N)))
        cu = c * u
        bounded_phase(N * np.abs(cu), t, "bath phase N |c u|")
    s = u * _sinc(cu)  # sin(cu)/c, and u at c = 0
    # 1 - |z|^2 = kappa s^2 reaches 1 where m = 0 and cos(cu) rounds to 0:
    # log1p(-1) = -inf there, and r = 0
    with np.errstate(divide="ignore"):
        log_abs = (0.5 * N) * np.log1p(-(lo * s) * (hi * s))
    return np.exp(log_abs + 1j * (N * np.arctan2(sol.m * s, np.cos(cu))))


def coherence_magnitude_asymptotic(
    t: float | np.ndarray, sol: OrderSolution, bath: BathParams, sys: SystemParams
) -> float | np.ndarray:
    """Large-N Gaussian |r(t)| = exp[-kappa (J0 t)^2 / 2].

    kappa = m^2 (J^2/Theta^2 - 1) is the product (c - m)(c + m) that
    coherence_time uses, so substituting t = tau reproduces exp(-1) to
    roundoff even close to saturation, where kappa -> 0.
    """
    _, lo, hi = _rate_factors(sol, bath)
    x = sys.J0 * np.asarray(t, dtype=float)
    # multiplied left to right, kappa = 0 gives 0, and an overflowing
    # exponent gives exp(-inf) = 0, the exact underflow
    with np.errstate(over="ignore"):
        return np.exp((-0.5 * (lo * hi)) * x * x)


def coherence_time(sol: OrderSolution, bath: BathParams, sys: SystemParams) -> float:
    """Gaussian 1/e time tau = sqrt(2/kappa)/J0.

    Infinite where nothing dephases: no coupling (J0 = 0), a disordered
    bath at w > 0, or saturation (Theta = J, i.e. T -> 0).  At w = 0 this is
    (2/J0) sqrt(2/(1 - 4 m^2)), finite at and above Tc.
    """
    _, lo, hi = _rate_factors(sol, bath)
    kappa = lo * hi
    if kappa <= 0.0 or sys.J0 == 0.0:
        return math.inf
    return math.sqrt(2.0 / kappa) / sys.J0


def dephasing_coeffs(
    t: float | np.ndarray,
    sol: OrderSolution,
    bath: BathParams,
    sys: SystemParams,
    *,
    mode: str = MODE_FINITE,
    N: int | None = None,
) -> np.ndarray:
    """Two-qubit coefficients A, B and D in the requested mode, shaped
    t.shape + (3,): the exact oracle routes' layout, which
    two_qubit.multiplier takes.  The closed forms have D = A.

    Finite mode, at the bath size N (bath_size): A(t) = r(t), B(t) = A(2t)
    exactly (same code path, with the angle u doubled rather than t).
    Asymptotic mode: magnitudes only, A = |r| Gaussian and B = A^4.
    """
    if mode == MODE_FINITE:
        A = coherence_factor_finite(t, N, sol, bath, sys)
        B = coherence_factor_finite(t, N, sol, bath, sys, levels=2)
    elif mode == MODE_ASYMPTOTIC:
        A = coherence_magnitude_asymptotic(t, sol, bath, sys)
        B = A**4
    else:
        raise InvalidParams(f"unknown mode {mode!r}")
    return np.stack([A, B, A], axis=-1)
