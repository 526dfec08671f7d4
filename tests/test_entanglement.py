import math

import numpy as np
import pytest

from isingbath.dephasing import (
    MODE_ASYMPTOTIC,
    MODE_FINITE,
    SystemParams,
    _rate_factors,
    coherence_magnitude_asymptotic,
    dephasing_coeffs,
)
from isingbath import entanglement
from isingbath.cli import RunConfig
from isingbath.entanglement import concurrence, dephased_concurrences
from isingbath.errors import InvalidParams, NotADensityMatrix
from isingbath.mean_field import BathParams, critical_temperature, solve_order
from isingbath.oracle import _BRA, _KET, _LEVELS, _dense_factor
from isingbath.two_qubit import PureState2Q, case_state, evolve_reduced, multiplier
from mp_reference import dephased_wootters
from wootters_reference import case1_concurrence, case2_concurrence, r_matrix

BATH = BathParams(J=2.0, w=0.1, T=0.5)
SOL = solve_order(BATH)
SYS = SystemParams(J0=1.0, xi0=0.3)


def random_density(rng, rank=4):
    x = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def bell_phi_plus():
    amps = case_state(2).amplitudes()
    return np.outer(amps, amps.conj())


def concurrences(rhos):
    """concurrence(rho).c of every matrix of a (T, 4, 4) stack."""
    return np.array([concurrence(rho).c for rho in rhos])


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


def werner(p):
    """p |Phi+><Phi+| + (1 - p) I/4."""
    return p * case_state(2).density() + (1 - p) * np.eye(4) / 4


def test_werner_state_through_closed_form_and_dense_multipliers():
    # a mixed rho0 dephases through the same M as a pure one; at w = 0 the
    # finite-N closed form is exact, so its M is the dense oracle's
    bath = BathParams(J=2.0, w=0.0, T=0.5 * critical_temperature(2.0))
    n, times = 8, np.linspace(0.0, 12.0, 61)
    co = dephasing_coeffs(times, solve_order(bath), bath, SYS, mode=MODE_FINITE, N=n)
    closed = multiplier(times, SYS.xi0, co)
    f = _dense_factor(bath, SYS.J0, n, times, _LEVELS, _BRA, _KET)
    dense = multiplier(times, SYS.xi0, f)
    for p in (0.4, 0.6, 0.8, 1.0):
        c_closed = concurrences(werner(p) * closed)
        assert np.abs(c_closed - concurrences(werner(p) * dense)).max() <= 1e-14
        assert c_closed[0] == pytest.approx((3 * p - 1) / 2, abs=1e-15)


def test_werner_state_dies_at_a_finite_time():
    # Yu and Eberly's sudden death: C = max(0, p|B| - (1 - p)/2) with the
    # Gaussian |B| = exp(-2 kappa (J0 t)^2) reaches exactly zero at
    # J0 t_d = sqrt(ln(2p/(1 - p)) / (2 kappa)), kappa = 1/4 - m^2 at w = 0
    bath = BathParams(J=2.0, w=0.0, T=0.5 * critical_temperature(2.0))
    sol = solve_order(bath)
    p, times = 0.8, np.linspace(0.0, 12.0, 241)
    co = dephasing_coeffs(times, sol, bath, SYS, mode=MODE_ASYMPTOTIC)
    c = concurrences(werner(p) * multiplier(times, SYS.xi0, co))
    assert np.abs(c - np.maximum(0.0, p * np.abs(co[:, 1]) - (1 - p) / 2)).max() <= 4e-15
    t_d = math.sqrt(math.log(2 * p / (1 - p)) / (2 * (0.25 - sol.m**2))) / SYS.J0
    assert 7.0 < t_d < 7.1
    assert np.abs(times - t_d).min() > 1e-3
    assert np.all(c[times < t_d] > 0.0)
    assert np.all(c[times > t_d] == 0.0)


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
        lam = concurrence(rho).lambdas
        assert list(lam) == sorted(lam, reverse=True)
        assert np.abs(np.array(lam) - direct_lambdas(rho)).max() < 1e-8


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


def case4_concurrence(t, xi0, coef):
    """Concurrence of the case-4 product state through the full pipeline."""
    return concurrence(evolve_reduced(case_state(4), t, xi0, coef)).c


def test_case4_no_bath_oscillation():
    # derive the no-bath law first: free evolution phases the amplitudes as
    # exp(i xi0 t s_a s_b), and the pure-state concurrence of that state is
    # 2|alpha delta e^{i xi0 t/2} - beta gamma e^{-i xi0 t/2}|/... = |sin(xi0 t/2)|
    xi0 = 0.3
    no_bath = np.ones(3)
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


def test_rejects_invalid_density():
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.1
    nan = np.full((4, 4), np.nan, dtype=complex)
    for rho, message in (
        (np.eye(3, dtype=complex) / 3, r"^expected a 4x4 matrix, got shape \(3, 3\)$"),
        (nan, "^matrix has non-finite entries$"),
        (bad, r"^Hermiticity violated by 0\.1$"),
        (np.eye(4, dtype=complex), r"^trace = \(4\+0j\) is not 1 within 1e-12$"),
        # eigenvalue -0.2 far below roundoff
        (np.diag([1.2, -0.2, 0.0, 0.0]), r"^negative eigenvalue -0\.2 beyond roundoff tolerance$"),
    ):
        with pytest.raises(NotADensityMatrix, match=message):
            concurrence(rho)


def test_batched_matches_scalar_on_random_mixtures():
    # dephased_concurrences over a time grid is its scalar call at each time,
    # on random states dephased into mixtures on two and three coupling levels
    rng = np.random.default_rng(8)
    states = [random_state(rng) for _ in range(6)] + two_level_states(rng)
    for times, xi0, coef in curves(rng, 2):
        for state in states:
            got = dephased_concurrences(state, times, xi0, coef)
            assert got.shape == times.shape
            scalar = [dephased_concurrences(state, t, xi0, co) for t, co in zip(times, coef)]
            assert np.abs(got - scalar).max() < 1e-13

def test_case_state_stacks_over_time():
    # the evolve_reduced stack is the per-point matrices; a product state that
    # stays separable reads exactly 0, as does case 4 at t = 0
    times = np.linspace(0.0, 8.0, 41)
    for case in (1, 2, 3, 4):
        st = case_state(case)
        for mode, kw in ((MODE_FINITE, {"N": 100}), (MODE_ASYMPTOTIC, {})):
            stack = evolve_reduced(
                st, times, SYS.xi0, dephasing_coeffs(times, SOL, BATH, SYS, mode=mode, **kw)
            )
            assert stack.shape == (len(times), 4, 4)
            per_point = np.array([
                evolve_reduced(st, t, SYS.xi0, dephasing_coeffs(t, SOL, BATH, SYS, mode=mode, **kw))
                for t in times
            ])
            assert np.abs(stack - per_point).max() <= 1e-15
            got = concurrences(stack)
            if case == 3:
                assert (got == 0.0).all()
            if case == 4:
                assert got[0] == 0.0  # a product state at t = 0


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


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_lambdas_match_direct_route_on_rank_deficient_states(rank):
    # full rank is test_hermitian_route_matches_direct_route
    rng = np.random.default_rng(12 + rank)
    stack = [random_density(rng, rank) for _ in range(100)]
    got = np.array([concurrence(rho).lambdas for rho in stack])
    want = np.array([direct_lambdas(rho) for rho in stack])
    # R = rho rho~ has rank <= rank(rho).  Past it the reference
    # square-roots roundoff, a residue near 1e-8, and the kernel reads 0
    assert np.abs(got[:, :rank] - want[:, :rank]).max() < 1e-8
    assert (got[:, rank:] == 0.0).all()


def test_case2_concurrence_tracks_b_where_b_vanishes():
    # a finite-mode curve whose |B| falls below 1e-12: C = |B| there to
    # roundoff, with no eps-sized residue of the kernel left on C
    cfg = RunConfig(
        command="concurrence", J=1.364775, w=0.076162, T_over_Tc=(0.88394,), J0=1.381838,
        xi0=0.121942, mode=MODE_FINITE, N=1563665, t_max=15.959448, points=104,
    )
    bath, sol, sys_p = cfg.physics()
    times = cfg.time_grid()
    coef = dephasing_coeffs(times, sol, bath, sys_p, mode=cfg.mode, N=cfg.N)
    c = concurrences(evolve_reduced(case_state(2), times, cfg.xi0, coef))
    b = np.abs(coef[:, 1])
    tiny = b < 1e-12
    assert tiny.sum() > 10
    assert np.abs(c - b)[tiny].max() <= 1e-15


def curves(rng, count):
    """(times, xi0, coef) of count random runs, alternating the two modes, with
    N from 1e2 to 1e8 and J0 t up to 16."""
    for k in range(count):
        J = rng.uniform(1.0, 3.0)
        bath = BathParams(J=J, w=rng.uniform(0.0, 0.3),
                          T=rng.uniform(0.02, 0.98) * critical_temperature(J))
        sys_p = SystemParams(J0=rng.uniform(0.5, 2.0), xi0=rng.uniform(0.0, 0.5))
        times = np.linspace(0.0, 16.0, 65) / sys_p.J0
        mode, kw = (MODE_FINITE, {"N": int(10 ** rng.uniform(2.0, 8.0))}) if k % 2 else (
            MODE_ASYMPTOTIC, {})
        yield times, sys_p.xi0, dephasing_coeffs(times, solve_order(bath), bath, sys_p,
                                                 mode=mode, **kw)


def random_state(rng, zeros=()):
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    z[list(zeros)] = 0.0
    return PureState2Q.normalized(*z)


def general_route(state, times, xi0, coef):
    return concurrences(evolve_reduced(state, times, xi0, coef))


def two_level_states(rng):
    """States on at most two coupling levels (p0 p3 = 0 or p1 + p2 = 0): the
    case states 1-3, random states with psi0, psi3 or both of psi1, psi2
    zeroed, and amplitudes whose populations underflow to 0."""
    states = [case_state(case) for case in (1, 2, 3)]
    for zeros in ((0,), (3,), (0, 3), (1, 2)):
        states += [random_state(rng, zeros) for _ in range(3)]
    return states + [PureState2Q.normalized(1e-170j, 1.0, 1.0, 0.5),
                     PureState2Q.normalized(1.0, 1e-310, 1e-310j, 1.0)]


def three_level_states(rng):
    """States with p0 p3 > 0 and exactly one of psi1, psi2 zero: all three
    coupling levels occupied, and C = 2 sqrt(p0 p3) |B| nonetheless."""
    states = [random_state(rng, zeros) for zeros in ((1,), (2,)) for _ in range(3)]
    return states + [PureState2Q.normalized(1.0, 1.0, 0.0, 1.0),
                     PureState2Q.normalized(1.0, 1e-310, 1.0, 1.0)]


def test_dephased_concurrences_match_the_general_route_where_a_pair_vanishes():
    # on two levels the closed form matches the general route; on three the
    # general route, which dephased_concurrences takes there, is held to the
    # paper's 2 sqrt(p0 p3) |B|
    rng = np.random.default_rng(21)
    two, three = two_level_states(rng), three_level_states(rng)
    for times, xi0, coef in curves(rng, 8):
        for state in two:
            got = dephased_concurrences(state, times, xi0, coef)
            assert np.abs(got - general_route(state, times, xi0, coef)).max() <= 1e-12
        for state in three:
            p = np.abs(state.amplitudes()) ** 2
            want = 2.0 * np.sqrt(p[0] * p[3]) * np.abs(coef[:, 1])
            assert np.abs(dephased_concurrences(state, times, xi0, coef) - want).max() <= 1e-14


def test_dephased_concurrences_never_call_the_general_route_or_eigh(monkeypatch):
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(entanglement, "concurrence", spy("concurrence", concurrence))
    monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
    rng = np.random.default_rng(24)
    times, xi0, coef = next(curves(rng, 1))
    states = two_level_states(rng) + three_level_states(rng) + [case_state(4)]
    for state in states + [random_state(rng) for _ in range(4)]:
        assert dephased_concurrences(state, times, xi0, coef).shape == times.shape
    assert calls == []


def test_dephased_concurrences_match_the_general_route_within_1e_11_elsewhere():
    # the level factor and the eigh of rho round differently; both are held to
    # a 60-digit Wootters below
    rng = np.random.default_rng(22)
    states = [case_state(4)] + [random_state(rng) for _ in range(6)]
    for times, xi0, coef in curves(rng, 4):
        for state in states:
            got = dephased_concurrences(state, times, xi0, coef)
            assert np.abs(got - general_route(state, times, xi0, coef)).max() <= 1e-11


def test_three_level_dephased_concurrences_match_a_60_digit_wootters():
    # 44 points at ~14 ms each, ~0.7 s: each curve's first two grid times and
    # two random ones, plus, on the six finite-mode curves at N <= 10, the
    # first two revivals t = k pi sqrt(N) / (c J0), where |A| rounds to 1
    rng = np.random.default_rng(38)
    worst = 0.0
    for k in range(8):
        J = rng.uniform(1.0, 3.0)
        bath = BathParams(J=J, w=rng.uniform(0.0, 0.3) if k % 2 else 0.0,
                          T=rng.uniform(0.1, 0.9) * critical_temperature(J))
        sys_p = SystemParams(J0=rng.uniform(0.5, 2.0), xi0=rng.uniform(0.0, 2.0))
        sol = solve_order(bath)
        if k < 6:
            N = int(rng.integers(1, 11))
            revival = np.pi * math.sqrt(N) / (_rate_factors(sol, bath)[0] * sys_p.J0)
            times = np.r_[np.linspace(0.0, 2.5 * revival, 60), revival, 2.0 * revival]
            coef = dephasing_coeffs(times, sol, bath, sys_p, mode=MODE_FINITE, N=N)
            picks = [0, 1, 60, 61]
            assert np.abs(coef[60:, 0]).min() > 1.0 - 1e-12
        else:
            times = np.linspace(0.0, 16.0, 60) / sys_p.J0
            coef = dephasing_coeffs(times, sol, bath, sys_p, mode=MODE_ASYMPTOTIC)
            picks = [0, 1]
        state = case_state(4) if k % 2 else random_state(rng)
        got = dephased_concurrences(state, times, sys_p.xi0, coef)
        for i in picks + rng.integers(2, 60, 2).tolist():
            want = dephased_wootters(state.amplitudes(), sys_p.xi0, times[i], coef[i])
            worst = max(worst, abs(got[i] - want))
    assert worst <= 1e-10


def test_case1_and_case2_closed_forms_to_one_ulp():
    rng = np.random.default_rng(23)
    one, two = case_state(1), case_state(2)
    for times, xi0, coef in curves(rng, 4):
        want = case1_concurrence(one.beta, one.gamma)
        assert np.abs(dephased_concurrences(one, times, xi0, coef) - want).max() <= np.spacing(want)
        want = case2_concurrence(two.alpha, two.delta, coef)
        got = dephased_concurrences(two, times, xi0, coef)
        assert (np.abs(got - want) <= np.spacing(want)).all()


def test_a_multiplier_negative_on_three_occupied_levels_is_refused_on_both_paths():
    # A = D = 1, B = -1: the level multiplier has eigenvalues 2, 2 and -1.  Three
    # occupied levels take the general route, so both paths meet its one eigh refusal
    times = np.array([0.0, 0.5, 1.0])
    coef = np.tile([1.0 + 0j, -1.0, 1.0], (3, 1))
    three_levels = PureState2Q.normalized(1.0, 1.0, 0.0, 1.0)
    for run in (dephased_concurrences, general_route):
        with pytest.raises(NotADensityMatrix):
            run(three_levels, times, 0.3, coef)
        # on |00> and |11> alone the same coefficients give a valid Bell state
        np.testing.assert_allclose(run(case_state(2), times, 0.3, coef), 1.0, rtol=0, atol=1e-15)


def test_a_multiplier_with_a_zero_schur_diagonal_is_refused_on_both_paths():
    # A = B = 1, D = -1: level 0's elimination leaves S = [[0, -2 p^*], [-2 p, 0]],
    # eigenvalues +-2 on a zero diagonal, which no floor may read as a zero block
    times = np.array([0.0, 0.5, 1.0])
    coef = np.tile([1.0 + 0j, 1.0, -1.0], (3, 1))
    for run in (dephased_concurrences, general_route):
        for state in (case_state(4), PureState2Q.normalized(1.0, 1.0, 0.0, 1.0)):
            with pytest.raises(NotADensityMatrix, match="^negative eigenvalue "):
                run(state, times, 0.3, coef)


@pytest.mark.parametrize("times, coef", [
    (np.zeros(3), np.ones((2, 3), complex)),
    (np.zeros(3), np.tile([1.0 + 1e-9, 1.0, 1.0], (3, 1))),
    (np.zeros(3), np.tile([1.0, np.nan, 1.0], (3, 1))),
    (np.array([0.0, 2.0**54]), np.ones((2, 3), complex)),
], ids=["shape", "above-1", "nan", "qubit-phase"])
def test_bad_coefficients_and_phases_meet_the_one_evolve_reduced_message(times, coef):
    for state in (case_state(2), case_state(4)):
        with pytest.raises(InvalidParams) as want:
            evolve_reduced(state, times, 0.5, coef)
        with pytest.raises(InvalidParams) as got:
            dephased_concurrences(state, times, 0.5, coef)
        assert str(got.value) == str(want.value)


def test_a_multiplier_indefinite_by_rounding_keeps_c_within_1e_11():
    # at T = 0.054 Tc and N = 605815, |A| and |B| round to 1 while the phases of
    # A, B and D disagree by ~1e-11: at t[179] level 0's Schur complement is
    # S = [[2.6e-14, s12], [s12^*, 1.05e-13]], |s12| = 5.5e-12, indefinite within
    # the clamp.  A Cholesky pivot on the larger diagonal, just above the floor,
    # put C 1.5e-10 off; the positive part of S keeps it within 1e-11
    bath = BathParams(J=1.749992484875286, w=0.10026864240823798, T=0.04752524393312397)
    sys_p = SystemParams(J0=0.8538370230587714, xi0=1.276466263112538)
    times = np.linspace(0.0, 16.0 / sys_p.J0, 200)
    coef = dephasing_coeffs(times, solve_order(bath), bath, sys_p, mode=MODE_FINITE, N=605815)
    state = PureState2Q(0.6411560542441234 + 0.09430213146988474j,
                        0.4458763395494273 - 0.13999169375518836j,
                        -0.4702104304660652 + 0.3257633083615724j,
                        0.14293007796675417 - 0.11821187941386899j)
    got = dephased_concurrences(state, times, sys_p.xi0, coef)
    assert np.abs(got - general_route(state, times, sys_p.xi0, coef)).max() <= 1e-11
    for i in (176, 179):
        want = dephased_wootters(state.amplitudes(), sys_p.xi0, times[i], coef[i])
        assert abs(got[i] - want) <= 1e-11
