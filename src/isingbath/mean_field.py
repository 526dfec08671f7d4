"""Mean-field self-consistency for the bath order parameter.

Below the critical temperature Tc = J/2 the transverse-Ising bath orders
along z.  The auxiliary energy scale Theta = sqrt(w^2 + 4 m^2 J^2) solves
Theta/J = tanh(Theta/(2T)); the order parameter follows as
m = sqrt(Theta^2 - w^2)/(2J), canonicalized to m >= 0, Theta >= 0 (the
m -> -m branch is physically equivalent).  Above the transition, or when
the transverse field is too strong (w/J >= tanh(w/2T)), the bath is
disordered and m = 0.  solve_order solves one temperature;
solve_order_grid runs the same bisection over a temperature grid at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidParams, NoConvergence

PHASE_ORDERED = "ordered"
PHASE_DISORDERED = "disordered"

# lower bisection bracket at w=0, excludes the trivial root Theta=0
_BRACKET_EPS = 1e-12
_DEFAULT_TOL = 1e-12
_MAX_BISECTIONS = 200
# np.tanh and math.tanh can differ by an ulp; a residual this close to a
# threshold it is compared with is recomputed with math.tanh
_TANH_SLACK = 1e-14


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
    """Order parameter m, auxiliary scale Theta and the phase flag."""

    theta: float
    m: float
    phase: str

    def __post_init__(self):
        if self.phase not in (PHASE_ORDERED, PHASE_DISORDERED):
            raise InvalidParams(f"unknown phase {self.phase!r}")
        if self.theta < 0:
            raise InvalidParams(f"theta must be >= 0, got {self.theta}")
        if not 0.0 <= self.m <= 0.5 + 1e-12:
            raise InvalidParams(f"m must lie in [0, 1/2], got {self.m}")
        if self.phase == PHASE_DISORDERED and self.m != 0.0:
            raise InvalidParams("disordered solution must have m = 0")

    @property
    def ordered(self) -> bool:
        return self.phase == PHASE_ORDERED


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


def solve_order(p: BathParams, tol: float = _DEFAULT_TOL) -> OrderSolution:
    """Solve Theta/J = tanh(Theta/(2T)) for the ordered branch.

    Bisects f(Theta) = tanh(Theta/2T) - Theta/J on [max(w, 1e-12 J), J]:
    the bracket is valid because f(lower) > 0 exactly when the ordering
    condition holds and f(J) <= 0 for any T > 0 (tanh < 1).  Returns the
    disordered solution (m = 0, Theta = w) outside the ordered phase.

    Raises NoConvergence if the residual |f| < tol is not reached within
    _MAX_BISECTIONS bisections, and InvalidParams naming J where Theta^2
    overflows or underflows below the smallest normal float.
    """
    if tol <= 0:
        raise InvalidParams(f"tol must be > 0, got {tol}")
    if not is_ordered(p):
        return OrderSolution(theta=p.w, m=0.0, phase=PHASE_DISORDERED)

    J, w, T = p.J, p.w, p.T

    def f(theta: float) -> float:
        return math.tanh(theta / (2.0 * T)) - theta / J

    lo = max(w, _BRACKET_EPS * J)
    hi = J
    if abs(f(hi)) < tol:
        # tanh saturates to 1 in double precision: T -> 0 limit, Theta = J
        return OrderSolution(theta=hi, m=_order_parameter(hi, w, J), phase=PHASE_ORDERED)

    theta = None
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) < tol:
            theta = mid
            break
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
    if theta is None:
        raise _no_convergence(tol)
    return OrderSolution(theta=theta, m=_order_parameter(theta, w, J), phase=PHASE_ORDERED)


def _no_convergence(tol: float) -> NoConvergence:
    return NoConvergence(
        f"bisection residual did not reach tol={tol:g} in {_MAX_BISECTIONS} iterations"
    )


def _theta_overflow(J: float) -> InvalidParams:
    return InvalidParams(f"J={J!r} is too large: Theta^2 overflows")


def _theta_underflow(J: float) -> InvalidParams:
    return InvalidParams(f"J={J!r} is too small: Theta^2 underflows")


def _order_parameter(theta: float, w: float, J: float) -> float:
    theta2 = theta * theta
    if theta2 == math.inf:
        raise _theta_overflow(J)
    if 0.0 < theta and theta2 < sys.float_info.min:
        raise _theta_underflow(J)
    return math.sqrt(max(theta2 - w * w, 0.0)) / (2.0 * J)


def solve_order_grid(
    J: float, w: float, temperatures: Iterable[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """solve_order at each temperature of a 1-D grid, as one array pass.

    Returns the arrays (theta, m, ordered), in input order.  Every
    temperature runs the midpoint sequence of solve_order at its default
    tol step for step, so theta and m equal solve_order's bitwise.  Raises
    what solve_order (or BathParams) raises at the first temperature that
    fails.
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
                ordered = valid & (_residual(np.full(T.size, float(w)), safe_T, J, 0.0) > 0.0)
        idx = np.flatnonzero(ordered)
        # tanh saturates to 1 in double precision: T -> 0 limit, Theta = J
        saturated = np.abs(_residual(np.full(idx.size, float(J)), T[idx], J, tol)) < tol
        theta[idx[saturated]] = J
        idx = idx[~saturated]
        lo = np.full(idx.size, max(w, _BRACKET_EPS * J))
        hi = np.full(idx.size, float(J))
        for _ in range(_MAX_BISECTIONS):
            if idx.size == 0:
                break
            mid = 0.5 * (lo + hi)
            fmid = _residual(mid, T[idx], J, tol)
            done = np.abs(fmid) < tol
            theta[idx[done]] = mid[done]
            up = fmid > 0.0
            lo, hi = np.where(up, mid, lo)[~done], np.where(up, hi, mid)[~done]
            idx = idx[~done]
        th = theta[ordered]
        theta2 = th * th
        m[ordered] = np.sqrt(np.maximum(theta2 - w * w, 0.0)) / (2.0 * J)
    unconverged = np.zeros(T.size, dtype=bool)
    unconverged[idx] = True
    overflow = np.zeros(T.size, dtype=bool)
    overflow[ordered] = theta2 == math.inf
    underflow = np.zeros(T.size, dtype=bool)
    underflow[ordered] = (th > 0.0) & (theta2 < sys.float_info.min)
    # OrderSolution's range check on m, which a nan fails too
    failed = ~valid | unconverged | overflow | underflow | ~(m <= 0.5 + 1e-12)
    if failed.any():
        k = int(np.argmax(failed))
        if not valid[k]:
            BathParams(J=J, w=w, T=float(T[k]))
        if unconverged[k]:
            raise _no_convergence(tol)
        if overflow[k]:
            raise _theta_overflow(J)
        if underflow[k]:
            raise _theta_underflow(J)
        OrderSolution(theta=float(theta[k]), m=float(m[k]), phase=PHASE_ORDERED)
    return theta, m, ordered


def _residual(theta: np.ndarray, T: np.ndarray, J: float, level: float) -> np.ndarray:
    """solve_order's f(theta) = tanh(theta/2T) - theta/J over arrays, exact
    (math.tanh) wherever |f| lies within _TANH_SLACK of level."""
    x = theta / (2.0 * T)
    f = np.tanh(x) - theta / J
    redo = np.abs(np.abs(f) - level) < _TANH_SLACK
    if redo.any():
        f[redo] = np.array([math.tanh(v) for v in x[redo].tolist()]) - theta[redo] / J
    return f
