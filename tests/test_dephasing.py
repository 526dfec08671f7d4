import cmath
import math

import numpy as np
import pytest

from isingbath.dephasing import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    DephasingCoeffs,
    SystemParams,
    coherence_factor_finite,
    coherence_magnitude_asymptotic,
    coherence_time,
    dephasing_coeffs,
    im_coherence_time,
    im_limit_magnitude,
)
from isingbath.errors import InvalidParams
from isingbath.mean_field import (
    PHASE_DISORDERED,
    PHASE_ORDERED,
    BathParams,
    OrderSolution,
    solve_order,
)

BATH = BathParams(J=2.0, w=0.1, T=0.5)
SOL = solve_order(BATH)
SYS = SystemParams(J0=1.0, mu0=0.0, xi0=0.3)


def per_spin_factor(phi, ratio):
    return complex(math.cos(phi), ratio * math.sin(phi))


def test_unity_at_t_zero():
    assert coherence_factor_finite(0.0, 6, SOL, BATH, SYS) == 1.0
    assert coherence_magnitude_asymptotic(0.0, SOL, BATH, SYS) == 1.0


def test_disordered_bath_never_dephases():
    bath = BathParams(J=2.0, w=0.0, T=1.5)
    sol = solve_order(bath)
    assert sol.phase == PHASE_DISORDERED
    for t in (0.0, 1.0, 50.0):
        assert coherence_factor_finite(t, 4, sol, bath, SYS) == 1.0
        assert coherence_magnitude_asymptotic(t, sol, bath, SYS) == 1.0
    assert coherence_time(sol, bath, SYS) == math.inf


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
    sol = OrderSolution(theta=2.0, m=0.5, phase=PHASE_ORDERED)  # w=0, T->0
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
        assert other.A == base.A and other.B == base.B


def test_two_excitation_coefficient_is_coherence_at_doubled_time():
    for t in np.linspace(0.0, 4.0, 17):
        co = dephasing_coeffs(t, SOL, BATH, SYS, mode=MODE_FINITE, N=9)
        assert co.B == coherence_factor_finite(2.0 * t, 9, SOL, BATH, SYS)  # bitwise
        asy = dephasing_coeffs(t, SOL, BATH, SYS, mode=MODE_ASYMPTOTIC)
        assert asy.B == asy.A**4


def test_coherence_time_identity():
    tau = coherence_time(SOL, BATH, SYS)
    assert coherence_magnitude_asymptotic(tau, SOL, BATH, SYS) == pytest.approx(
        math.exp(-1.0), abs=1e-12
    )


def test_coherence_time_ising_formula():
    bath = BathParams(J=2.0, w=0.0, T=0.5)
    sol = solve_order(bath)
    expected = (2.0 / SYS.J0) * math.sqrt(2.0 / (1.0 - 4.0 * sol.m**2))
    assert coherence_time(sol, bath, SYS) == pytest.approx(expected, rel=1e-12)
    assert im_coherence_time(sol.m, SYS.J0) == pytest.approx(expected, rel=1e-15)


def test_ising_limit_values():
    J0 = 1.0
    assert im_coherence_time(0.0, J0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert im_coherence_time(0.5, J0) == math.inf
    assert im_limit_magnitude(2.0 * math.sqrt(2.0) / J0, 0.0, J0) == pytest.approx(
        math.exp(-1.0), rel=1e-14
    )
    for t in (0.0, 1.0, 17.0):
        assert im_limit_magnitude(t, 0.5, J0) == 1.0


def test_ising_limit_is_tim_gaussian_with_theta_substituted():
    rng = np.random.default_rng(11)
    J = 2.0
    for _ in range(100):
        m = rng.uniform(0.01, 0.49)
        t = rng.uniform(0.0, 5.0)
        sol = OrderSolution(theta=2.0 * m * J, m=m, phase=PHASE_ORDERED)
        bath = BathParams(J=J, w=0.0, T=1.0)
        assert im_limit_magnitude(t, m, SYS.J0) == pytest.approx(
            coherence_magnitude_asymptotic(t, sol, bath, SYS), abs=1e-13
        )


def test_asymptotic_matches_finite_at_large_N():
    tau = coherence_time(SOL, BATH, SYS)
    for t in np.linspace(0.0, 3.0 * tau, 50):
        fin = abs(coherence_factor_finite(t, 10**8, SOL, BATH, SYS))
        asy = coherence_magnitude_asymptotic(t, SOL, BATH, SYS)
        assert abs(fin - asy) < 1e-6


def test_coefficients_bounded():
    for t in np.linspace(0.0, 20.0, 41):
        co = dephasing_coeffs(t, SOL, BATH, SYS, mode=MODE_FINITE, N=3)
        assert abs(co.A) <= 1.0 + 1e-12
        assert abs(co.B) <= 1.0 + 1e-12


def test_validation():
    with pytest.raises(InvalidParams):
        coherence_factor_finite(1.0, 0, SOL, BATH, SYS)
    with pytest.raises(InvalidParams):
        dephasing_coeffs(1.0, SOL, BATH, SYS, mode=MODE_FINITE)  # missing N
    with pytest.raises(InvalidParams):
        dephasing_coeffs(1.0, SOL, BATH, SYS, mode="exactish")
    with pytest.raises(InvalidParams):
        DephasingCoeffs(A=1.5, B=0.0)
    with pytest.raises(InvalidParams):
        coherence_time(SOL, BATH, SystemParams(J0=0.0))
    with pytest.raises(InvalidParams):
        im_limit_magnitude(1.0, 0.7, 1.0)
    with pytest.raises(InvalidParams):
        SystemParams(J0=-1.0)
    bad = OrderSolution(theta=0.0, m=0.3, phase=PHASE_ORDERED)
    with pytest.raises(InvalidParams):
        coherence_factor_finite(1.0, 4, bad, BATH, SYS)
