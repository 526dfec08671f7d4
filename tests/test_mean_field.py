import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingbath import mean_field
from isingbath.dephasing import SystemParams, coherence_time
from isingbath.errors import InvalidParams, IsingBathError, NoConvergence
from isingbath.mean_field import (
    BathParams,
    OrderSolution,
    critical_temperature,
    solve_order,
    solve_order_grid,
)
from mp_reference import order_root

EPS = sys.float_info.epsilon


def test_critical_temperature():
    assert critical_temperature(2.0) == 1.0
    assert critical_temperature(0.0) == 0.0
    assert critical_temperature(1.0) == 0.5
    with pytest.raises(InvalidParams):
        critical_temperature(-1.0)


def test_is_ordered_examples():
    # w/J = 0.05 < tanh(0.1) ~ 0.0997
    assert solve_order(BathParams(J=2.0, w=0.1, T=0.5)).ordered
    # above Tc = 1
    assert not solve_order(BathParams(J=2.0, w=0.0, T=1.5)).ordered
    # transverse field exceeds coupling: w/J >= 1 >= tanh
    assert not solve_order(BathParams(J=2.0, w=2.5, T=1e-9)).ordered
    assert not solve_order(BathParams(J=0.0, w=0.0, T=1.0)).ordered


def test_zero_temperature_limit():
    # tanh(Theta/2T) rounds to 1 below J, so the bracket collapses onto J
    for J in (2.0, 1e150, 1e-100):
        for solve in (_solve_scalar, _solve_grid):
            theta, m, ordered = solve(J, 0.0, 0.01 * critical_temperature(J))
            assert ordered and theta == J and m == 0.5


def test_at_critical_temperature_disordered():
    sol = solve_order(BathParams(J=2.0, w=0.0, T=1.0))
    assert not sol.ordered
    assert sol.m == 0.0


def test_bisection_against_fixed_point_iteration():
    # at J=2, T=0.5 the equation reads Theta = 2 tanh(Theta); the map is a
    # contraction near the root, so plain iteration is an independent oracle
    theta = 1.5
    for _ in range(200):
        theta = 2.0 * math.tanh(theta)
    # the collapsed bracket leaves a residual of a few eps, so a tol far
    # below the default passes its check too
    sol = solve_order(BathParams(J=2.0, w=0.0, T=0.5), tol=1e-14)
    assert sol.theta == pytest.approx(theta, abs=1e-12)
    assert sol.theta == pytest.approx(1.915, abs=1e-3)

    # with the transverse field the root barely moves but m shrinks
    sol_w = solve_order(BathParams(J=2.0, w=0.1, T=0.5))
    assert sol_w.theta == pytest.approx(1.915, abs=1e-3)
    assert sol_w.m < sol.m


def test_residual_and_bounds_on_grid():
    J, w = 2.0, 0.1
    tol = 1e-12
    for ratio in np.linspace(0.05, 0.95, 55):
        sol = solve_order(BathParams(J=J, w=w, T=ratio * critical_temperature(J)), tol=tol)
        assert sol.ordered
        assert abs(math.tanh(sol.theta / (2 * ratio * critical_temperature(J))) - sol.theta / J) < tol
        assert w < sol.theta <= J
        if ratio >= 0.1:
            # tanh saturates to 1.0 in doubles below T/Tc ~ 0.053; above
            # that, Theta < J holds strictly at machine level too
            assert sol.theta < J
        assert 0.0 <= sol.m <= 0.5
        # theta^2 = w^2 + 4 m^2 J^2 by construction
        assert sol.theta**2 == pytest.approx(w**2 + 4 * sol.m**2 * J**2, rel=1e-12)


def test_order_parameter_monotone_in_temperature():
    J, w = 2.0, 0.1
    temps = np.linspace(0.05, 0.99, 60) * critical_temperature(J)
    ms = [solve_order(BathParams(J=J, w=w, T=t)).m for t in temps]
    assert all(a >= b - 1e-12 for a, b in zip(ms, ms[1:]))


def test_ising_limit_reduction():
    # at w=0 the solution must satisfy 2m = tanh(m J / T)
    for ratio in (0.2, 0.5, 0.8):
        p = BathParams(J=2.0, w=0.0, T=ratio)
        sol = solve_order(p)
        assert 2.0 * sol.m == pytest.approx(math.tanh(sol.m * p.J / p.T), abs=1e-10)


def test_grid_solver_sweep():
    theta, m, ordered = solve_order_grid(2.0, 0.0, [critical_temperature(2.0)])
    assert len(theta) == 1 and not ordered[0] and m[0] == 0.0

    for out in solve_order_grid(2.0, 0.0, []):
        assert out.shape == (0,)

    temps = [r * critical_temperature(2.0) for r in (0.75, 0.50, 0.35, 0.25)]
    theta, m, ordered = solve_order_grid(2.0, 0.1, temps)
    assert ordered.all()
    assert all(b > a for a, b in zip(m, m[1:]))  # colder => larger m
    # input order is kept: a reversed grid gives the reversed columns
    theta_r, m_r, _ = solve_order_grid(2.0, 0.1, temps[::-1])
    assert theta_r.tolist() == theta.tolist()[::-1] and m_r.tolist() == m.tolist()[::-1]


def _boundary_temperature(J, w):
    """T_b: Tc at w = 0, else the w > 0 ordering boundary w/J = tanh(w/2T)."""
    if w == 0:
        return critical_temperature(J)
    return w / (2.0 * math.atanh(w / J))


def _gap(J, w, T):
    return abs(1.0 - T / _boundary_temperature(J, w))


def _m_precision(J, w, T):
    """Relative precision of m from either solver, 8 eps/|1 - T/T_b|: the
    residual's rounding over its slope, which vanishes at T_b."""
    gap = _gap(J, w, T)
    return 8.0 * EPS / gap if gap else math.inf


def _close(a, b, rel):
    return a == b or abs(a - b) <= rel * max(a, b)


def _grid(J, w):
    tc = critical_temperature(J)
    near = np.logspace(-8, -1, 120)
    temps = [
        np.linspace(0.01, 1.3, 400) * tc,
        tc * (1.0 - near), tc * (1.0 + near),
        np.logspace(-6, -2, 60) * tc,  # tanh saturates: Theta = J
    ]
    if w > 0:
        tb = _boundary_temperature(J, w)
        temps.append(tb * (1.0 + np.linspace(-1e-13, 1e-13, 801)))
    return np.concatenate(temps)


@pytest.mark.parametrize("J, w", [
    (2.0, 0.1), (2.0, 0.0), (1.0, 0.5), (0.37, 0.037), (10.0, 9.0), (2.0, 1e-9),
])
def test_grid_solver_equals_solve_order_bitwise(J, w):
    # named for the bitwise twin it once checked; np.tanh and math.tanh may
    # differ in the last bit, which moves the root by a few ulps and flips
    # the phase only within ~1e-16 of T_b
    _assert_drivers_agree(J, w, _grid(J, w).tolist())


def _assert_drivers_agree(J, w, temps):
    """The grid's m against solve_order's at each temperature; returns m."""
    _, m, ordered = solve_order_grid(J, w, temps)
    for k, T in enumerate(temps):
        sol = solve_order(BathParams(J=J, w=w, T=T))
        assert _close(m[k], sol.m, _m_precision(J, w, T)), T
        if _gap(J, w, T) >= 1e-12:
            assert bool(ordered[k]) == sol.ordered, T
    return m


def _solve_scalar(J, w, T):
    sol = solve_order(BathParams(J=J, w=w, T=T))
    return sol.theta, sol.m, sol.ordered


def _solve_grid(J, w, T):
    theta, m, ordered = solve_order_grid(J, w, [T])
    return float(theta[0]), float(m[0]), bool(ordered[0])


DRIVERS = pytest.mark.parametrize("solve", [_solve_scalar, _solve_grid], ids=["scalar", "grid"])


def _mp_order_parameter(J, w, T):
    """m at the 60-digit root, at the exact double T the solvers see."""
    with mpmath.workdps(60):
        theta, w = order_root(J, w, T), mpmath.mpf(w)
        return float(mpmath.sqrt(theta * theta - w * w) / (2 * mpmath.mpf(J)))


@DRIVERS
@pytest.mark.parametrize("J, w", [
    (2.0, 0.0), (2.0, 0.1), (1e150, 0.0), (1e150, 5e148), (1e-100, 0.0), (1e-100, 5e-102),
])
@pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
def test_order_parameter_matches_mpmath_up_to_the_boundary(solve, J, w, gap):
    # the residual's slope vanishes at T_b: a stop on |f| < 1e-12 is 0.295
    # relative off at gap 1e-8
    T = (1.0 - gap) * _boundary_temperature(J, w)
    _, m, ordered = solve(J, w, T)
    assert ordered
    assert m == pytest.approx(_mp_order_parameter(J, w, T), rel=_m_precision(J, w, T), abs=0)


@DRIVERS
@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-10, 1e-12])
def test_mean_field_exponent_one_half_at_tc(solve, gap):
    # m = (1/2) sqrt(3 (1 - T/Tc)) (1 - 0.4 (1 - T/Tc) + ...) at w = 0
    T = (1.0 - gap) * critical_temperature(2.0)
    _, m, _ = solve(2.0, 0.0, T)
    law = 0.5 * math.sqrt(3.0 * gap)
    assert m == pytest.approx(law, rel=0.5 * gap + _m_precision(2.0, 0.0, T), abs=0)


@DRIVERS
def test_coherence_time_at_a_low_temperature(solve):
    # tau ~ 1/sqrt(J - Theta) with J - Theta = 8.5e-12, so a stop on
    # |f| < 1e-12 is 10.7% high; 972,652.49 is the 60-digit value
    J, w = 2.0, 0.1
    bath = BathParams(J=J, w=w, T=0.074405 * critical_temperature(J))
    theta, m, _ = solve(J, w, bath.T)
    sol = OrderSolution(theta=theta, m=m, ordered=True)
    tau = coherence_time(sol, bath, SystemParams(J0=1.0))
    assert tau == pytest.approx(972652.49, rel=1e-5)


@DRIVERS
@pytest.mark.parametrize("T_over_Tc", [1e-3, 0.2, 0.9, 0.999, 1.5])
def test_a_tiny_w_over_J_orders_as_w_0_does(solve, T_over_Tc):
    # w/J = 1e-600 and w/(2T) underflow to 0, where the rule takes its
    # limit T < Tc; comparing the two zeros read disordered, m = 0, below Tc
    J = 1e300
    T = T_over_Tc * critical_temperature(J)
    _, m, ordered = solve(J, 1e-300, T)
    assert (m, ordered) == solve(J, 0.0, T)[1:]
    assert ordered == (T_over_Tc < 1.0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    J=st.sampled_from([2.0, 0.37, 1e150, 1e-100]),
    w_over_J=st.one_of(st.just(0.0), st.floats(1e-9, 0.99)),
    t=st.lists(st.floats(1e-3, 1.5), min_size=2, max_size=2),
)
def test_order_parameter_bounded_monotone_and_driver_independent(J, w_over_J, t):
    w = w_over_J * J
    temps = sorted(x * critical_temperature(J) for x in t)
    m = _assert_drivers_agree(J, w, temps)
    assert ((0.0 <= m) & (m <= 0.5)).all()
    slack = _m_precision(J, w, temps[0]) * m[0] + _m_precision(J, w, temps[1]) * m[1]
    assert m[0] >= m[1] - slack


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    k=st.integers(-900, 900),
    J=st.sampled_from([2.0, 0.37, 10.0]),
    w_over_J=st.one_of(st.just(0.0), st.floats(1e-9, 0.99)),
    T_over_Tc=st.floats(1e-3, 1.5),
)
def test_both_drivers_are_exactly_scale_invariant(k, J, w_over_J, T_over_Tc):
    # m and the phase depend on w/J and T/J alone: scaling J, w and T by 2^k
    # scales Theta by 2^k exactly, and leaves m and the phase bitwise, over
    # the whole exponent range where every input stays a normal float
    w, T = w_over_J * J, T_over_Tc * critical_temperature(J)
    scale = 2.0**k
    for solve in (_solve_scalar, _solve_grid):
        theta, m, ordered = solve(J, w, T)
        assert solve(scale * J, scale * w, scale * T) == (scale * theta, m, ordered)


def test_grid_solver_zero_coupling_with_absolute_temperatures():
    temps = [1e-300, 0.3, 1.0, 7.5, 1e300]
    theta, m, ordered = solve_order_grid(0.0, 0.5, temps)
    for k, T in enumerate(temps):
        sol = solve_order(BathParams(J=0.0, w=0.5, T=T))
        assert (theta[k], m[k], bool(ordered[k])) == (sol.theta, sol.m, sol.ordered)


def _first_scalar_error(J, w, temps):
    """solve_order's error at the first temperature that fails, or None."""
    # an empty grid still checks J and w, as BathParams does at any T
    for T in temps or [1.0]:
        try:
            solve_order(BathParams(J=J, w=w, T=T))
        except IsingBathError as exc:
            return exc
    return None


def _assert_scale_free(J, w, temps):
    """The grid at bath scale J: finite columns, and the phase and m of the
    bath at J = 1 with w and T divided by J."""
    theta, m, ordered = solve_order_grid(J, w, temps)
    assert np.isfinite(theta).all() and np.isfinite(m).all()
    for k, T in enumerate(temps):
        _, m1, ordered1 = _solve_grid(1.0, w / J, T / J)
        assert bool(ordered[k]) == ordered1, T
        assert _close(m[k], m1, _m_precision(1.0, w / J, T / J)), T


# kw: mean_field module settings patched for the case
@pytest.mark.parametrize("J, w, temps, kw", [
    (2.0, 0.1, [0.5, math.nan, -1.0], {}),
    (2.0, 0.1, [0.5, 0.0], {}),
    (2.0, 0.1, [-1.0, 0.5], {}),
    (2.0, 0.0, [math.inf], {}),
    (-1.0, 0.1, [0.5], {}),
    (2.0, math.nan, [0.5], {}),
    # the bad T fails after a saturated root (Theta = J), whichever comes first
    (1e300, 0.1, [0.5, math.nan], {}),
    (1e300, 0.1, [math.nan, 0.5], {}),
    # disordered first, then a bisection that cannot converge
    (2.0, 0.1, [2.0, 0.5, math.nan], {"_MAX_BISECTIONS": 8}),
    # no temperature: J and w are checked all the same
    (2.0, -1.0, [], {}),
    (-1.0, 0.1, [], {}),
    # no temperature fails: Theta^2 overflowed here once, to inf (w = 0) and
    # Theta^2 - w^2 to nan (w > 0), at saturation (Theta = J) and after the
    # bisection
    (1e308, 0.0, [1.0, 2.0], {}),
    (1e308, 1e300, [1.0], {}),
    (1e155, 0.1, [2.5e154], {}),
    # nor here, where Theta^2 underflowed below the smallest normal float,
    # after a disordered temperature and at T -> 0 saturation (Theta = J)
    (1e-162, 0.0, [1.0, 2.5e-163], {}),
    (1e-162, 0.0, [1e-170], {}),
])
def test_grid_solver_raises_the_first_scalar_error(J, w, temps, kw, monkeypatch):
    # where no temperature fails, the grid solves as the bath at J = 1 does
    for name, value in kw.items():
        monkeypatch.setattr(mean_field, name, value)
    expected = _first_scalar_error(J, w, temps)
    if expected is None:
        _assert_scale_free(J, w, temps)
        return
    with pytest.raises(type(expected)) as info:
        solve_order_grid(J, w, temps)
    assert str(info.value) == str(expected)


def test_grid_solver_no_convergence_when_cap_too_small(monkeypatch):
    monkeypatch.setattr(mean_field, "_MAX_BISECTIONS", 8)
    with pytest.raises(NoConvergence, match="did not reach tol=1e-12 in 8 iterations"):
        solve_order_grid(2.0, 0.1, [0.5])


def test_tiny_J_keeps_the_scale_free_order_parameter():
    # m depends on T/Tc alone
    ref = solve_order(BathParams(J=1.0, w=0.0, T=0.25)).m
    sol = solve_order(BathParams(J=1e-150, w=0.0, T=0.25e-150))
    assert sol.m == pytest.approx(ref, rel=1e-12, abs=0)
    m = solve_order_grid(1e-150, 0.0, [0.25e-150])[1][0]
    assert m == pytest.approx(sol.m, rel=_m_precision(1e-150, 0.0, 0.25e-150), abs=0)


@pytest.mark.parametrize("J", [1e-160, 1e-162, 1e-300])
def test_a_J_whose_theta_squared_underflows_orders_as_J_1(J):
    # Theta^2 is subnormal or 0 here; m is formed from ratios to J
    sol = solve_order(BathParams(J=J, w=0.0, T=0.25 * J))
    ref = solve_order(BathParams(J=1.0, w=0.0, T=0.25))
    assert sol.ordered and sol.m == pytest.approx(ref.m, rel=_m_precision(1.0, 0.0, 0.25), abs=0)


def test_huge_J_near_tc_still_solves():
    # Theta is small near Tc, so Theta^2 stays finite even where J^2 does not
    J = 1e155
    T = 0.9999 * critical_temperature(J)
    sol = solve_order(BathParams(J=J, w=0.1, T=T))
    assert sol.ordered and math.isfinite(sol.theta * sol.theta)
    assert 0.0 < sol.m < 0.01
    m = solve_order_grid(J, 0.1, [T])[1][0]
    assert m == pytest.approx(sol.m, rel=_m_precision(J, 0.1, T), abs=0)


def test_zero_coupling_disordered():
    sol = solve_order(BathParams(J=0.0, w=0.5, T=1.0))
    assert not sol.ordered
    assert sol.theta == 0.5  # sqrt(w^2) at m=0


def test_no_convergence_when_cap_too_small(monkeypatch):
    # 8 bisections narrow the bracket to ~2/256; the residual is still ~1e-3
    monkeypatch.setattr(mean_field, "_MAX_BISECTIONS", 8)
    with pytest.raises(NoConvergence, match="in 8 iterations"):
        solve_order(BathParams(J=2.0, w=0.1, T=0.5), tol=1e-12)


def test_invalid_params():
    with pytest.raises(InvalidParams):
        BathParams(J=-1.0, w=0.0, T=1.0)
    with pytest.raises(InvalidParams):
        BathParams(J=1.0, w=-0.1, T=1.0)
    with pytest.raises(InvalidParams):
        BathParams(J=1.0, w=0.0, T=0.0)
    with pytest.raises(InvalidParams):
        solve_order(BathParams(J=2.0, w=0.0, T=0.5), tol=0.0)


def test_order_solution_validation():
    with pytest.raises(InvalidParams):
        OrderSolution(theta=1.0, m=0.6, ordered=True)
    with pytest.raises(InvalidParams):
        OrderSolution(theta=1.0, m=0.1, ordered=False)
    with pytest.raises(InvalidParams):
        OrderSolution(theta=-1.0, m=0.0, ordered=False)
