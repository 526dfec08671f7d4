import cmath
import math

import mpmath
import numpy as np
import pytest

from isingbath.dephasing import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    SystemParams,
    coherence_factor_finite,
    coherence_magnitude_asymptotic,
    coherence_time,
    dephasing_coeffs,
)
from isingbath.errors import InvalidParams
from isingbath.mean_field import (
    BathParams,
    OrderSolution,
    critical_temperature,
    solve_order,
)
from isingbath.su2 import _SMALL_Q
from mp_reference import order_root

BATH = BathParams(J=2.0, w=0.1, T=0.5)
SOL = solve_order(BATH)
SYS = SystemParams(J0=1.0, mu0=0.0, xi0=0.3)


def per_spin_factor(phi, ratio):
    return complex(math.cos(phi), ratio * math.sin(phi))


def reference_numbers(sol, bath):
    """c = mJ/Theta, c - m and c + m, formed as the kernels form them."""
    if sol.theta == 0.0:  # free Ising spins: w = 0 above Tc
        return 0.5, 0.5, 0.5
    c = sol.m / (sol.theta / bath.J)
    return c, c * ((bath.J - sol.theta) / bath.J), c + sol.m


def reference_factor(t, N, sol, bath, sys_p):
    """r(t) at one point with math/cmath: the log-domain formula of
    coherence_factor_finite, evaluated without numpy."""
    c, lo, hi = reference_numbers(sol, bath)
    u = t * (sys_p.J0 / math.sqrt(N))
    cu = c * u
    s = u * (1.0 - cu * cu / 6.0 if abs(cu) < _SMALL_Q else math.sin(cu) / cu)
    log_abs = 0.5 * N * math.log1p(-(lo * s) * (hi * s))
    return cmath.exp(complex(log_abs, N * math.atan2(sol.m * s, math.cos(cu))))


def reference_gaussian(t, sol, bath, sys_p):
    """The large-N |r(t)| at one point with math."""
    _, lo, hi = reference_numbers(sol, bath)
    x = sys_p.J0 * t
    return math.exp((-0.5 * (lo * hi)) * x * x)


def test_unity_at_t_zero():
    assert coherence_factor_finite(0.0, 6, SOL, BATH, SYS) == 1.0
    assert coherence_magnitude_asymptotic(0.0, SOL, BATH, SYS) == 1.0


def test_disordered_bath_never_dephases():
    # w > 0: the disordered bath's spins align with the field and c = mJ/Theta = 0
    bath = BathParams(J=2.0, w=0.3, T=1.5)
    sol = solve_order(bath)
    assert not sol.ordered
    for t in (0.0, 1.0, 50.0):
        assert coherence_factor_finite(t, 4, sol, bath, SYS) == 1.0
        assert coherence_magnitude_asymptotic(t, sol, bath, SYS) == 1.0
    assert coherence_time(sol, bath, SYS) == math.inf


@pytest.mark.parametrize("N", [1, 4, 8, 12])
def test_free_ising_spins_dephase_above_tc(N):
    # w = 0, T/Tc = 1.5: m = 0 but c = 1/2, so r = cos(J0 t / (2 sqrt N))^N
    bath = BathParams(J=2.0, w=0.0, T=1.5 * critical_temperature(2.0))
    sol = solve_order(bath)
    assert not sol.ordered
    ts = np.linspace(0.0, 7.0, 29)
    want = np.cos(SYS.J0 * ts / (2.0 * math.sqrt(N))) ** N
    assert np.abs(coherence_factor_finite(ts, N, sol, bath, SYS) - want).max() <= 1e-13
    assert coherence_time(sol, bath, SYS) == 2.0 * math.sqrt(2.0) / SYS.J0
    gauss = coherence_magnitude_asymptotic(ts, sol, bath, SYS)
    assert np.abs(gauss - np.exp(-0.125 * (SYS.J0 * ts) ** 2)).max() <= 1e-15


def test_zero_of_a_free_spin_factor_is_an_exact_zero():
    # |z| = |cos(u/2)| vanishes at u = pi; the kernel returns 0, not nan
    bath = BathParams(J=2.0, w=0.0, T=2.0)
    sol = solve_order(bath)
    r = coherence_factor_finite(np.array([math.pi, 1.0]), 1, sol, bath, SYS)
    assert np.isfinite(r).all() and abs(r[0]) <= 1e-16


def test_log_domain_matches_direct_power():
    # up to N = 20 the repeated product is exact enough to compare
    for N in (1, 2, 5, 11, 20):
        for t in np.linspace(0.1, 6.0, 13):
            phi = t * SOL.m * BATH.J * SYS.J0 / (SOL.theta * math.sqrt(N))
            z = per_spin_factor(phi, SOL.theta / BATH.J)
            direct = 1.0 + 0.0j
            for _ in range(N):
                direct *= z
            got = coherence_factor_finite(t, N, SOL, BATH, SYS)
            assert abs(got - direct) < 1e-12


def test_saturated_order_never_decays():
    sol = OrderSolution(theta=2.0, m=0.5, ordered=True)  # w=0, T->0
    bath = BathParams(J=2.0, w=0.0, T=1e-6)
    for t in (0.5, 3.0, 40.0):
        assert coherence_magnitude_asymptotic(t, sol, bath, SYS) == 1.0
        assert abs(coherence_factor_finite(t, 8, sol, bath, SYS)) == pytest.approx(1.0, abs=1e-12)
    assert coherence_time(sol, bath, SYS) == math.inf


def test_gaussian_limit_error_shrinks_with_N():
    bath = BathParams(J=2.0, w=0.1, T=0.5)
    sol = solve_order(bath)
    tau = coherence_time(sol, bath, SYS)
    ts = np.linspace(0.0, 3.0 * tau, 300)
    asym = np.array([coherence_magnitude_asymptotic(t, sol, bath, SYS) for t in ts])
    errors = []
    for N in (10**2, 10**4, 10**6):
        mags = np.array([abs(coherence_factor_finite(t, N, sol, bath, SYS)) for t in ts])
        errors.append(np.abs(mags - asym).max())
    assert errors[0] >= 10.0 * errors[1]
    assert errors[1] >= 10.0 * errors[2]


def test_recoherence_at_finite_N():
    N = 4
    t_period = 2.0 * math.pi * SOL.theta * math.sqrt(N) / (SOL.m * BATH.J * SYS.J0)
    r = coherence_factor_finite(t_period, N, SOL, BATH, SYS)
    assert abs(r) == pytest.approx(1.0, abs=1e-10)


def test_phase_is_odd_in_time():
    for t in (0.3, 1.1, 2.7):
        fwd = coherence_factor_finite(t, 5, SOL, BATH, SYS)
        bwd = coherence_factor_finite(-t, 5, SOL, BATH, SYS)
        assert cmath.phase(fwd) == pytest.approx(-cmath.phase(bwd), abs=1e-12)


def test_mu0_xi0_do_not_enter_coefficients():
    t = 1.7
    base = dephasing_coeffs(t, SOL, BATH, SystemParams(J0=1.0), mode=MODE_FINITE, N=7)
    for sys_p in (
        SystemParams(J0=1.0, mu0=2.5, xi0=0.0),
        SystemParams(J0=1.0, mu0=0.0, xi0=4.0),
        SystemParams(J0=1.0, mu0=1.0, xi0=1.0),
    ):
        other = dephasing_coeffs(t, SOL, BATH, sys_p, mode=MODE_FINITE, N=7)
        assert np.array_equal(other, base)


def test_two_excitation_coefficient_is_coherence_at_doubled_time():
    for t in np.linspace(0.0, 4.0, 17):
        co = dephasing_coeffs(t, SOL, BATH, SYS, mode=MODE_FINITE, N=9)
        assert co[1] == coherence_factor_finite(2.0 * t, 9, SOL, BATH, SYS)  # bitwise
        asy = dephasing_coeffs(t, SOL, BATH, SYS, mode=MODE_ASYMPTOTIC)
        assert asy[1] == asy[0] ** 4


@pytest.mark.parametrize("w", [0.0, 0.2])
@pytest.mark.parametrize("T_over_Tc", [0.25, 0.9, 1.5, "saturated"])
def test_array_kernels_match_the_pointwise_reference(w, T_over_Tc):
    # numpy's sin/log1p/arctan2/exp may differ from math's in the last ulp;
    # N amplifies that in the phase, hence the absolute budget on re and im
    if T_over_Tc == "saturated":  # J^2 - Theta^2 <= 0
        bath = BathParams(J=2.0, w=w, T=1e-6)
        sol = OrderSolution(theta=2.0, m=0.5, ordered=True)
    else:
        bath = BathParams(J=2.0, w=w, T=T_over_Tc * critical_temperature(2.0))
        sol = solve_order(bath)
        assert (sol.m == 0.0) == (T_over_Tc > 1.0)
    tau = coherence_time(sol, bath, SYS)
    ts = np.linspace(0.0, 3.0 * tau if math.isfinite(tau) else 30.0, 501)
    for N in (1, 7, 10**4, 10**8):
        got = coherence_factor_finite(ts, N, sol, bath, SYS)
        want = np.array([reference_factor(t, N, sol, bath, SYS) for t in ts.tolist()])
        assert got.shape == ts.shape
        assert np.abs(got.real - want.real).max() <= 1e-11
        assert np.abs(got.imag - want.imag).max() <= 1e-11
        assert (np.abs(np.abs(got) - np.abs(want)) <= 1e-13 * np.abs(want)).all()
    got = coherence_magnitude_asymptotic(ts, sol, bath, SYS)
    want = np.array([reference_gaussian(t, sol, bath, SYS) for t in ts.tolist()])
    assert (np.abs(got - want) <= 1e-13 * want).all()


def test_scalar_time_gives_scalar_coefficients():
    for mode, kw in ((MODE_FINITE, {"N": 9}), (MODE_ASYMPTOTIC, {})):
        co = dephasing_coeffs(1.3, SOL, BATH, SYS, mode=mode, **kw)
        assert co.shape == (3,)
        grid = dephasing_coeffs(np.array([0.0, 1.3]), SOL, BATH, SYS, mode=mode, **kw)
        assert np.abs(grid[1] - co).max() <= 1e-15


@pytest.mark.parametrize("mode", [MODE_FINITE, MODE_ASYMPTOTIC])
@pytest.mark.parametrize("t", [1.3, np.array([0.0, 1.3]), np.linspace(0.0, 6.0, 7)])
def test_coefficients_in_the_oracle_layout(mode, t):
    # A, B and D on the last axis, as every oracle route returns them; the
    # closed forms have D = A, bit for bit
    kw = {"N": 9} if mode == MODE_FINITE else {}
    co = dephasing_coeffs(t, SOL, BATH, SYS, mode=mode, **kw)
    assert co.shape == np.shape(t) + (3,)
    assert co[..., 2].tobytes() == co[..., 0].tobytes()
    if mode == MODE_FINITE:
        assert np.array_equal(co[..., 0], coherence_factor_finite(t, 9, SOL, BATH, SYS))
    else:
        assert np.array_equal(co[..., 0], coherence_magnitude_asymptotic(t, SOL, BATH, SYS))


def test_coherence_time_identity():
    tau = coherence_time(SOL, BATH, SYS)
    assert coherence_magnitude_asymptotic(tau, SOL, BATH, SYS) == pytest.approx(
        math.exp(-1.0), abs=1e-12
    )


def test_coherence_time_ising_formula():
    bath = BathParams(J=2.0, w=0.0, T=0.5)
    sol = solve_order(bath)
    expected = (2.0 / SYS.J0) * math.sqrt(2.0 / (1.0 - 4.0 * sol.m**2))
    assert coherence_time(sol, bath, SYS) == pytest.approx(expected, rel=1e-14)


def test_ising_limit_values():
    # w = 0 at and above Tc: m = 0, rate 1/4, tau = 2 sqrt(2)/J0
    for T_over_Tc, J0 in zip((1.0, 1.5, 3.0), (0.5, 1.0, 2.5)):
        sys_p = SystemParams(J0=J0)
        bath = BathParams(J=2.0, w=0.0, T=T_over_Tc * critical_temperature(2.0))
        sol = solve_order(bath)
        tau = coherence_time(sol, bath, sys_p)
        assert tau == pytest.approx(2.0 * math.sqrt(2.0) / J0, rel=1e-15)
        assert coherence_magnitude_asymptotic(tau, sol, bath, sys_p) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )
    # saturated order, Theta = J: no decay
    sol = OrderSolution(theta=2.0, m=0.5, ordered=True)
    bath = BathParams(J=2.0, w=0.0, T=1e-6)
    assert coherence_time(sol, bath, SYS) == math.inf
    for t in (0.0, 1.0, 17.0):
        assert coherence_magnitude_asymptotic(t, sol, bath, SYS) == 1.0


def test_ising_limit_is_tim_gaussian_with_theta_substituted():
    # Theta = 2 m J turns m^2 (J^2/Theta^2 - 1) into 1/4 - m^2
    rng = np.random.default_rng(11)
    J = 2.0
    for _ in range(100):
        m = rng.uniform(0.01, 0.49)
        t = rng.uniform(0.0, 5.0)
        sol = OrderSolution(theta=2.0 * m * J, m=m, ordered=True)
        bath = BathParams(J=J, w=0.0, T=1.0)
        want = math.exp(-0.5 * (SYS.J0 * t) ** 2 * (0.25 - m * m))
        assert coherence_magnitude_asymptotic(t, sol, bath, SYS) == pytest.approx(
            want, abs=1e-13
        )
        tau = (2.0 / SYS.J0) * math.sqrt(2.0 / (1.0 - 4.0 * m * m))
        assert coherence_time(sol, bath, SYS) == pytest.approx(tau, rel=1e-13)


def _mp_tau_and_rate(theta, J, w, J0):
    """tau and kappa = m^2 (J^2/Theta^2 - 1) in 50 digits at the given Theta."""
    with mpmath.workdps(50):
        theta, J, w = mpmath.mpf(theta), mpmath.mpf(J), mpmath.mpf(w)
        m = mpmath.sqrt(theta**2 - w**2) / (2 * J)
        kappa = m**2 * (J**2 / theta**2 - 1)
        return mpmath.sqrt(2 / kappa) / J0, kappa


@pytest.mark.parametrize("J", [2.0, 1e10])
@pytest.mark.parametrize("w_over_J", [0.0, 0.05])
@pytest.mark.parametrize("T_over_Tc", [0.06, 0.1, 0.5])
def test_tau_and_gaussian_match_mpmath_at_the_solver_root(J, w_over_J, T_over_Tc):
    # the rate m^2 (J^2/Theta^2 - 1) cancels as Theta -> J; (c - m)(c + m)
    # with c - m = c (J - Theta)/J keeps its relative precision
    bath = BathParams(J=J, w=w_over_J * J, T=T_over_Tc * critical_temperature(J))
    sol = solve_order(bath)
    assert sol.ordered and sol.theta < J
    sys_p = SystemParams(J0=0.7)
    tau_mp, kappa = _mp_tau_and_rate(sol.theta, J, bath.w, sys_p.J0)
    tau = coherence_time(sol, bath, sys_p)
    assert abs(tau - tau_mp) <= 1e-13 * tau_mp
    for scale in (0.3, 1.0, 2.5):
        t = scale * float(tau_mp)
        with mpmath.workdps(50):
            want = mpmath.exp(-kappa * (sys_p.J0 * mpmath.mpf(t)) ** 2 / 2)
        got = coherence_magnitude_asymptotic(t, sol, bath, sys_p)
        assert abs(got - want) <= 1e-13 * want


@pytest.mark.xfail(
    strict=True,
    reason="the root is a double: J - Theta is resolved only to the rounding "
    "of J, so tau ~ 1/sqrt(J - Theta) is inf at T/Tc = 0.05 (true tau "
    "6.87e8), 1.1e-3 off at 0.06 and 3.7e-9 off at 0.1",
)
def test_tau_at_low_temperature_matches_an_independent_root():
    # test_tau_and_gaussian_match_mpmath_at_the_solver_root evaluates tau at
    # the solver's own Theta, so it cannot see the rounding of the root
    J, w, sys_p = 2.0, 0.1, SystemParams(J0=1.0)
    errors = []
    for T_over_Tc in (0.05, 0.06, 0.1):
        bath = BathParams(J=J, w=w, T=T_over_Tc * critical_temperature(J))
        tau = coherence_time(solve_order(bath), bath, sys_p)
        tau_mp = float(_mp_tau_and_rate(order_root(bath.J, bath.w, bath.T), J, w, sys_p.J0)[0])
        errors.append(abs(tau - tau_mp) / tau_mp)
    assert max(errors) <= 1e-13, errors


def test_asymptotic_matches_finite_at_large_N():
    tau = coherence_time(SOL, BATH, SYS)
    for t in np.linspace(0.0, 3.0 * tau, 50):
        fin = abs(coherence_factor_finite(t, 10**8, SOL, BATH, SYS))
        asy = coherence_magnitude_asymptotic(t, SOL, BATH, SYS)
        assert abs(fin - asy) < 1e-6


def test_coefficients_bounded():
    for t in np.linspace(0.0, 20.0, 41):
        co = dephasing_coeffs(t, SOL, BATH, SYS, mode=MODE_FINITE, N=3)
        assert np.abs(co).max() <= 1.0 + 1e-12


def test_finite_phase_bound_at_its_edge():
    # at w = 0 below Tc, c = 1/2 exactly, so with N = 4 and J0 = 1 the phase
    # N |c u| = N |c| J0 |t| / sqrt(N) is t itself: 2**52 - 0.5 one ulp of t
    # inside the bound and 2**52 at it, four times the per-spin angle c u
    bath = BathParams(J=2.0, w=0.0, T=0.5)
    sol, sys_p = solve_order(bath), SystemParams(J0=1.0)
    inside = np.array([0.0, np.nextafter(2.0**52, 0.0)])
    assert np.isfinite(coherence_factor_finite(inside, 4, sol, bath, sys_p)).all()
    edge = r"^bath phase N \|c u\| = 4\.5e\+15 is not below 2\*\*52 at t=4503599627370496\.0$"
    with pytest.raises(InvalidParams, match=edge):
        coherence_factor_finite(np.append(inside, 2.0**52), 4, sol, bath, sys_p)
    # B(t) = A(2t) meets it at t = 2**51, the time it names
    with pytest.raises(InvalidParams, match=edge.replace("4503599627370496", "2251799813685248")):
        dephasing_coeffs(2.0**51, sol, bath, sys_p, mode=MODE_FINITE, N=4)
    # a non-finite time fails it too, also as 0 * inf at J0 = 0
    for t, j0, phase in [(np.nan, 1.0, "nan"), (np.inf, 1.0, "inf"), (np.inf, 0.0, "nan")]:
        with pytest.raises(InvalidParams, match=rf"= {phase} is not below 2\*\*52 at t={t}$"):
            coherence_factor_finite(np.array([0.0, t]), 4, sol, bath, SystemParams(J0=j0))


def test_validation():
    with pytest.raises(InvalidParams):
        coherence_factor_finite(1.0, 0, SOL, BATH, SYS)
    with pytest.raises(InvalidParams):
        coherence_factor_finite(np.array([0.0, np.inf]), 4, SOL, BATH, SYS)
    with pytest.raises(InvalidParams):
        dephasing_coeffs(1.0, SOL, BATH, SYS, mode=MODE_FINITE)  # missing N
    with pytest.raises(InvalidParams):
        dephasing_coeffs(1.0, SOL, BATH, SYS, mode="exactish")
    assert coherence_time(SOL, BATH, SystemParams(J0=0.0)) == math.inf  # nothing couples
    with pytest.raises(InvalidParams):
        SystemParams(J0=-1.0)
    with pytest.raises(InvalidParams, match="Theta = 0"):
        OrderSolution(theta=0.0, m=0.3, ordered=True)
