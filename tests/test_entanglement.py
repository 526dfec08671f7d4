import math

import numpy as np
import pytest

from isingbath.dephasing import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    DephasingCoeffs,
    SystemParams,
    coherence_magnitude_asymptotic,
    dephasing_coeffs,
)
from isingbath.entanglement import (
    case1_concurrence,
    case2_concurrence,
    case4_concurrence,
    concurrence,
    concurrences,
)
from isingbath.errors import InvalidParams, NotADensityMatrix
from isingbath.mean_field import BathParams, critical_temperature, solve_order
from isingbath.two_qubit import PureState2Q, case_state, evolve_reduced, r_matrix

BATH = BathParams(J=2.0, w=0.1, T=0.5)
SOL = solve_order(BATH)
SYS = SystemParams(J0=1.0, xi0=0.3)


def random_density(rng):
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def bell_phi_plus():
    amps = case_state(2).amplitudes()
    return np.outer(amps, amps.conj())


def direct_lambdas(rho):
    """Square-rooted eigenvalues of rho rho~ by a generic nonsymmetric solver."""
    evals = np.linalg.eigvals(r_matrix(rho))
    return np.sort(np.sqrt(np.abs(evals.real)))[::-1]


def test_bell_state_maximally_entangled():
    assert concurrence(bell_phi_plus()).c == pytest.approx(1.0, abs=1e-12)


def test_maximally_mixed_separable():
    assert concurrence(np.eye(4, dtype=complex) / 4).c == 0.0


def test_werner_states():
    # pre-verify the closed form against the direct R-eigenvalue route,
    # then hold the production path to it
    phi = bell_phi_plus()
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = p * phi + (1 - p) * np.eye(4) / 4
        lam = direct_lambdas(rho)
        reference = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        closed = max(0.0, (3 * p - 1) / 2)
        assert reference == pytest.approx(closed, abs=1e-12)
        assert concurrence(rho).c == pytest.approx(closed, abs=1e-10)


def test_concurrence_bounded_on_random_mixtures():
    rng = np.random.default_rng(2)
    for _ in range(300):
        cv = concurrence(random_density(rng))
        assert 0.0 <= cv.c <= 1.0
        assert all(l >= 0 for l in cv.lambdas)
        assert list(cv.lambdas) == sorted(cv.lambdas, reverse=True)


def test_local_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rho = random_density(rng)
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        uv = np.kron(u, v)
        rotated = uv @ rho @ uv.conj().T
        assert concurrence(rotated).c == pytest.approx(concurrence(rho).c, abs=1e-10)


def test_pure_state_agreement():
    rng = np.random.default_rng(4)
    for _ in range(300):
        st = PureState2Q.normalized(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
        rho = np.outer(st.amplitudes(), st.amplitudes().conj())
        expected = 2.0 * abs(st.alpha * st.delta - st.beta * st.gamma)
        assert concurrence(rho).c == pytest.approx(expected, abs=1e-10)


def test_hermitian_route_matches_direct_route():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rho = random_density(rng)
        assert np.abs(np.array(concurrence(rho).lambdas) - direct_lambdas(rho)).max() < 1e-8


def test_case1_against_full_pipeline():
    rng = np.random.default_rng(6)
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    beta, gamma = raw / np.linalg.norm(raw)
    st = PureState2Q(0.0, beta, gamma, 0.0)
    closed = case1_concurrence(beta, gamma)
    for t in rng.uniform(0.0, 8.0, size=20):
        co = dephasing_coeffs(t, SOL, BATH, SYS, mode=MODE_FINITE, N=50)
        got = concurrence(evolve_reduced(st, t, SYS.xi0, co)).c
        assert got == pytest.approx(closed, abs=1e-10)


def test_case2_against_full_pipeline():
    rng = np.random.default_rng(7)
    for ratio in (0.75, 0.50, 0.35, 0.25):
        bath = BathParams(J=2.0, w=0.1, T=ratio * critical_temperature(2.0))
        sol = solve_order(bath)
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha, delta = raw / np.linalg.norm(raw)
        st = PureState2Q(alpha, 0.0, 0.0, delta)
        for t in np.linspace(0.0, 6.0, 10):
            for mode, kw in ((MODE_FINITE, {"N": 10**4}), (MODE_ASYMPTOTIC, {})):
                co = dephasing_coeffs(t, sol, bath, SYS, mode=mode, **kw)
                got = concurrence(evolve_reduced(st, t, SYS.xi0, co)).c
                assert got == pytest.approx(case2_concurrence(alpha, delta, co), abs=1e-10)


def test_case4_no_bath_oscillation():
    # derive the no-bath law first: free evolution phases the amplitudes as
    # exp(i xi0 t s_a s_b), and the pure-state concurrence of that state is
    # 2|alpha delta e^{i xi0 t/2} - beta gamma e^{-i xi0 t/2}|/... = |sin(xi0 t/2)|
    xi0 = 0.3
    no_bath = DephasingCoeffs(A=1.0, B=1.0)
    for t in np.linspace(0.0, 40.0, 37):
        phased = PureState2Q(
            0.5 * np.exp(0.25j * xi0 * t),
            0.5 * np.exp(-0.25j * xi0 * t),
            0.5 * np.exp(-0.25j * xi0 * t),
            0.5 * np.exp(0.25j * xi0 * t),
        )
        derived = 2.0 * abs(phased.alpha * phased.delta - phased.beta * phased.gamma)
        assert derived == pytest.approx(abs(math.sin(0.5 * xi0 * t)), abs=1e-12)
        assert case4_concurrence(t, xi0, no_bath) == pytest.approx(derived, abs=1e-10)


def test_case4_starts_at_zero_and_oscillation_decays():
    bath = BathParams(J=2.0, w=0.1, T=0.25 * critical_temperature(2.0))
    sol = solve_order(bath)
    sys_p = SystemParams(J0=1.0, xi0=0.3)
    co0 = dephasing_coeffs(0.0, sol, bath, sys_p, mode=MODE_ASYMPTOTIC)
    assert case4_concurrence(0.0, sys_p.xi0, co0) == pytest.approx(0.0, abs=1e-12)

    ts = np.linspace(0.0, 64.0, 400)
    cs = [
        case4_concurrence(
            t, sys_p.xi0, dephasing_coeffs(t, sol, bath, sys_p, mode=MODE_ASYMPTOTIC)
        )
        for t in ts
    ]
    maxima = [
        cs[i] for i in range(1, len(cs) - 1) if cs[i] > cs[i - 1] and cs[i] > cs[i + 1]
    ]
    assert len(maxima) >= 3
    assert all(a > b for a, b in zip(maxima, maxima[1:]))


def test_disentanglement_twice_as_fast_as_decoherence():
    r = 1.0 / math.sqrt(2.0)
    for t in np.linspace(0.0, 10.0, 21):
        co = dephasing_coeffs(t, SOL, BATH, SYS, mode=MODE_ASYMPTOTIC)
        single = coherence_magnitude_asymptotic(2.0 * t, SOL, BATH, SYS)
        assert case2_concurrence(r, r, co) == pytest.approx(single, abs=1e-12)


def test_case2_ising_limit_closed_form():
    # at w=0 the case-2 concurrence is 2|a||d| exp[-2 J0^2 t^2 (1/4 - m^2)]
    bath = BathParams(J=2.0, w=0.0, T=0.5)
    sol = solve_order(bath)
    alpha, delta = 0.6, 0.8
    for t in np.linspace(0.0, 6.0, 13):
        co = dephasing_coeffs(t, sol, bath, SYS, mode=MODE_ASYMPTOTIC)
        want = 2 * alpha * delta * math.exp(-2 * SYS.J0**2 * t**2 * (0.25 - sol.m**2))
        assert case2_concurrence(alpha, delta, co) == pytest.approx(want, abs=1e-12)


def test_closed_form_norm_validation():
    with pytest.raises(InvalidParams):
        case1_concurrence(1.0, 0.5)
    with pytest.raises(InvalidParams):
        case2_concurrence(0.9, 0.9, DephasingCoeffs(A=1.0, B=1.0))


def test_rejects_invalid_density():
    with pytest.raises(NotADensityMatrix):
        concurrence(np.eye(4, dtype=complex))  # trace 4
    bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(NotADensityMatrix):
        concurrence(bad)  # eigenvalue -0.2 far below roundoff


def test_batched_matches_scalar_on_random_mixtures():
    rng = np.random.default_rng(8)
    stack = np.array([random_density(rng) for _ in range(300)])
    scalar = [concurrence(r) for r in stack]
    got = concurrences(stack)
    assert got.shape == (300,)
    assert np.abs(got - [cv.c for cv in scalar]).max() < 1e-13
    for rho, cv in zip(stack, scalar):
        lam = np.array(cv.lambdas)
        assert (lam >= 0).all() and list(lam) == sorted(lam, reverse=True)
        assert np.abs(lam - direct_lambdas(rho)).max() < 1e-8


def test_batched_matches_scalar_on_case_states_over_time():
    times = np.linspace(0.0, 8.0, 41)
    for case in (1, 2, 3, 4):
        st = case_state(case)
        for mode, kw in ((MODE_FINITE, {"N": 100}), (MODE_ASYMPTOTIC, {})):
            coeffs = [dephasing_coeffs(t, SOL, BATH, SYS, mode=mode, **kw) for t in times]
            stack = evolve_reduced(st, times, SYS.xi0, coeffs)
            assert stack.shape == (len(times), 4, 4)
            per_point = np.array(
                [evolve_reduced(st, t, SYS.xi0, k) for t, k in zip(times, coeffs)]
            )
            assert np.abs(stack - per_point).max() <= 1e-15
            got = concurrences(stack)
            assert np.abs(got - [concurrence(r).c for r in per_point]).max() < 1e-13
            if case == 3:
                assert (got == 0.0).all()


def test_clip_at_one_hides_only_roundoff():
    # the kernel clips C to [0, 1]; on maximally entangled states the
    # unclipped value may exceed 1, but only by roundoff
    rng = np.random.default_rng(9)
    amps = case_state(1).amplitudes()
    rhos = [np.outer(amps, amps.conj()), bell_phi_plus()]
    for _ in range(200):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        amps = np.array([1.0, 0.0, 0.0, phase]) / math.sqrt(2.0)
        rhos.append(np.outer(amps, amps.conj()))
    for rho in rhos:
        lam = concurrence(rho).lambdas
        assert lam[0] - lam[1] - lam[2] - lam[3] - 1.0 <= 1e-14
        assert concurrence(rho).c <= 1.0


def test_rejects_any_bad_matrix_in_a_stack():
    rng = np.random.default_rng(10)
    good = np.array([random_density(rng) for _ in range(5)])
    concurrences(good)
    bad_trace = good.copy()
    bad_trace[3] *= 1.5
    not_hermitian = good.copy()
    not_hermitian[1, 0, 2] += 0.1
    negative = good.copy()
    negative[4] = np.diag([1.2, -0.2, 0.0, 0.0])
    for stack in (bad_trace, not_hermitian, negative):
        with pytest.raises(NotADensityMatrix):
            concurrences(stack)
