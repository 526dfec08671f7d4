"""Mean-field self-consistency for the bath order parameter.

Below the critical temperature Tc = J/2 the transverse-Ising bath orders
along z.  The auxiliary energy scale Theta = sqrt(w^2 + 4 m^2 J^2) solves
Theta/J = tanh(Theta/(2T)); the order parameter follows as
m = sqrt(Theta^2 - w^2)/(2J), canonicalized to m >= 0, Theta >= 0 (the
m -> -m branch is physically equivalent).  Above the transition, or when
the transverse field is too strong (w/J >= tanh(w/2T)), the bath is
disordered and m = 0.  solve_order solves one temperature;
solve_order_grid runs the same bisection over a temperature grid at once.
Each loop is the faster for its callers: for one temperature numpy's
per-call overhead outweighs the grid's array passes, and for many the
grid's passes beat a Python loop of scalar bisections.  The two share one
ordering rule and one formula for m, formed from ratios to J: m depends
on w/J and T/J alone.  Measured at w = 0, T = Tc/2, m is within
2.4e-16 relative of J = 1's down to J = 1e-309.  A subnormal J rounds the
bisection itself: m is 2.1e-14 off at J = 1e-310 and 2.8e-13 at 1e-311,
and from J = 1e-312 down the solvers raise NoConvergence.
Both bisect Theta until the bracket collapses, so m carries only the
residual's rounding over its slope, which vanishes at the ordering
temperature T_b (Tc at w = 0): within 8 eps/|1 - T/T_b| relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidParams, NoConvergence

# the text of the phase column that `isingbath phase` writes
PHASE_ORDERED = "ordered"
PHASE_DISORDERED = "disordered"

_DEFAULT_TOL = 1e-12
_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class BathParams:
    """Bath couplings and temperature (all in the same energy units)."""

    J: float  # Ising exchange, >= 0
    w: float  # transverse field, >= 0
    T: float  # temperature times k_B, > 0

    def __post_init__(self):
        if not (math.isfinite(self.J) and self.J >= 0):
            raise InvalidParams(f"J must be finite and >= 0, got {self.J}")
        if not (math.isfinite(self.w) and self.w >= 0):
            raise InvalidParams(f"w must be finite and >= 0, got {self.w}")
        if not (math.isfinite(self.T) and self.T > 0):
            raise InvalidParams(f"T must be finite and > 0, got {self.T}")


@dataclass(frozen=True)
class OrderSolution:
    """Order parameter m, auxiliary scale Theta and the ordered-phase flag."""

    theta: float
    m: float
    ordered: bool

    def __post_init__(self):
        if self.theta < 0:
            raise InvalidParams(f"theta must be >= 0, got {self.theta}")
        if not 0.0 <= self.m <= 0.5 + 1e-12:
            raise InvalidParams(f"m must lie in [0, 1/2], got {self.m}")
        if not self.ordered and self.m != 0.0:
            raise InvalidParams("disordered solution must have m = 0")
        if self.ordered and self.theta == 0.0:
            raise InvalidParams("ordered solution with Theta = 0 is inconsistent")


def critical_temperature(J: float) -> float:
    """Tc = J/2."""
    if not (math.isfinite(J) and J >= 0):
        raise InvalidParams(f"J must be finite and >= 0, got {J}")
    return 0.5 * J


def _orders(J: float, w: float, T, tanh=math.tanh):
    """True where the bath is in the symmetry-broken phase, w/J < tanh(w/(2T)),
    at T > 0, a float or (with np.tanh) an array.  Where w/(2T) is 0 (w = 0,
    or a tiny w that underflows) the rule takes its limit T < Tc = J/2, and
    J = 0 never orders.  Each solver passes the tanh its bisection runs, so
    the two agree on which side of the root lies just above w."""
    if J == 0:
        return np.zeros_like(T, dtype=bool)
    x = w / (2.0 * T)
    return (x == 0) & (T < critical_temperature(J)) | (w / J < tanh(x))


# tol stays a parameter: bench/checks.py reads its default from the signature
def solve_order(p: BathParams, tol: float = _DEFAULT_TOL) -> OrderSolution:
    """Solve Theta/J = tanh(Theta/(2T)) for the ordered branch.

    Bisects Theta on [w, J], keeping tanh(Theta/2T) > Theta/J at the lower
    end: the bracket is valid because this holds just above w exactly when
    the ordering condition holds and fails at J for any T > 0 (tanh < 1).
    Stops when the midpoint equals an end of the bracket and returns the
    upper end, the tightest root doubles hold; where tanh saturates to 1
    (T -> 0) that is Theta = J.  Returns the disordered solution (m = 0,
    Theta = w) outside the ordered phase.

    Raises NoConvergence if the residual |tanh(Theta/2T) - Theta/J| of the
    returned root is not below tol (the bracket collapses well within
    _MAX_BISECTIONS bisections).
    """
    if tol <= 0:
        raise InvalidParams(f"tol must be > 0, got {tol}")
    if not _orders(p.J, p.w, p.T):
        return OrderSolution(theta=p.w, m=0.0, ordered=False)

    J, w, T2 = p.J, p.w, 2.0 * p.T
    lo, hi = w, J
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi) overflows near J = 1e308
        if not lo < mid < hi:
            break
        if math.tanh(mid / T2) > mid / J:
            lo = mid
        else:
            hi = mid
    if not abs(math.tanh(hi / T2) - hi / J) < tol:
        raise _no_convergence(tol)
    return OrderSolution(theta=hi, m=float(_order_parameter(hi, w, J)), ordered=True)


def _no_convergence(tol: float) -> NoConvergence:
    return NoConvergence(
        f"bisection residual did not reach tol={tol:g} in {_MAX_BISECTIONS} iterations"
    )


def _order_parameter(theta, w: float, J: float):
    """m = sqrt(Theta^2 - w^2)/(2J) of an ordered root w <= Theta <= J, a
    float or an array, from ratios to J: Theta - w is exact near the
    ordering boundary, and nothing is formed on the scale of J^2."""
    return 0.5 * np.sqrt((theta - w) / J * (theta / J + w / J))


def solve_order_grid(
    J: float, w: float, temperatures: Iterable[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """solve_order at each temperature of a 1-D grid, as one array pass.

    Returns the arrays (theta, m, ordered), in input order.  Every
    temperature runs solve_order's bisection, stopping rule and default-tol
    check, with np.tanh for math.tanh: theta and m agree with solve_order's
    to the precision bound of the module docstring, and so does the phase
    but within a relative 1e-12 of T_b.  Raises what solve_order (or
    BathParams) raises at the first temperature that fails.
    """
    tol = _DEFAULT_TOL
    BathParams(J=J, w=w, T=1.0)  # J and w, checked as every BathParams checks them
    T = np.array(temperatures, dtype=float).reshape(-1)
    theta = np.full(T.size, float(w))  # disordered: Theta = w, m = 0
    m = np.zeros(T.size)
    valid = np.isfinite(T) & (T > 0)
    failed = ~valid
    # w/(2T) and Theta/(2T) may overflow, as their Python float forms do
    with np.errstate(over="ignore"):
        ordered = valid & _orders(J, w, np.where(valid, T, 1.0), np.tanh)
        T2 = 2.0 * T[ordered]
        lo = np.full(T2.size, float(w))
        hi = np.full(T2.size, float(J))
        for _ in range(_MAX_BISECTIONS):
            mid = 0.5 * lo + 0.5 * hi
            open_ = (lo < mid) & (mid < hi)
            if not open_.any():
                break
            up = np.tanh(mid / T2) > mid / J
            lo = np.where(open_ & up, mid, lo)
            hi = np.where(open_ & ~up, mid, hi)
        if ordered.any():  # so J > 0, and the ratios to J are finite
            theta[ordered] = hi
            m[ordered] = _order_parameter(hi, w, J)
            failed[ordered] = ~(np.abs(np.tanh(hi / T2) - hi / J) < tol)
    if failed.any():
        # the scalar solver raises this temperature's own error
        solve_order(BathParams(J=J, w=w, T=float(T[int(np.argmax(failed))])), tol)
        raise _no_convergence(tol)
    return theta, m, ordered
