import math
import warnings

import numpy as np
import pytest

from isingbath.dephasing import (
    MODE_FINITE,
    SystemParams,
    coherence_factor_finite,
    coherence_magnitude_asymptotic,
    dephasing_coeffs,
)
from isingbath.entanglement import concurrence
from isingbath.errors import ConfigTooLarge, InvalidParams
from isingbath.mean_field import BathParams, critical_temperature, solve_order
from isingbath.oracle import (
    _BRA,
    _KET,
    _LEVELS,
    ROUTES,
    OracleConfig,
    _collective_spin,
    _dense_factor,
    extract_products,
    reconstruct_reduced,
    simulate_exact,
    single_qubit_coherence_exact,
)
from isingbath.su2 import (
    _SMALL_Q, TracelessXZ, exp_imag, gibbs_part, single_spin_gibbs, trace_triple,
)
from isingbath.two_qubit import PureState2Q, case_state, evolve_reduced, multiplier
import dense_reference
import mp_reference

BATH_TIM = BathParams(J=2.0, w=0.1, T=0.5)
BATH_IM = BathParams(J=2.0, w=0.0, T=0.5)
SYS = SystemParams(J0=1.0, mu0=0.0, xi0=0.3)
TIMES = (0.3, 0.9, 1.7, 2.6)


def random_state(seed):
    rng = np.random.default_rng(seed)
    return PureState2Q.normalized(*(rng.normal(size=4) + 1j * rng.normal(size=4)))


def make_cfg(N, bath, state=None, times=TIMES, sys_p=SYS):
    return OracleConfig(
        N=N, bath=bath, sys=sys_p, state=state or random_state(99), times=times
    )


def test_decoupled_system_is_pure_xi0_evolution():
    sys_p = SystemParams(J0=0.0, mu0=0.0, xi0=0.7)
    st = random_state(1)
    cfg = make_cfg(3, BATH_TIM, state=st, sys_p=sys_p)
    for t, rho in zip(TIMES, simulate_exact(cfg)):
        phases = np.exp(1j * sys_p.xi0 * t * np.array([0.25, -0.25, -0.25, 0.25]))
        amps = st.amplitudes() * phases
        np.testing.assert_allclose(rho, np.outer(amps, amps.conj()), atol=1e-13)


def test_case1_state_keeps_constant_concurrence():
    st = case_state(1)
    cfg = make_cfg(4, BATH_TIM, state=st)
    for rho in simulate_exact(cfg):
        assert concurrence(rho).c == pytest.approx(1.0, abs=1e-12)


def test_trace_matches_dense():
    for n in (1, 2, 3, 4, 5, 6, 9):
        cfg = make_cfg(n, BATH_TIM, state=random_state(n))
        tr = simulate_exact(cfg)
        den = simulate_exact(cfg, method="dense")
        assert np.abs(tr - den).max() <= 1e-12


def test_oracle_matches_closed_forms_in_ising_limit():
    sol = solve_order(BATH_IM, tol=1e-15)
    st = random_state(7)
    for n in (1, 2, 4, 6, 8):
        cfg = make_cfg(n, BATH_IM, state=st)
        closed = [
            dephasing_coeffs(t, sol, BATH_IM, SYS, mode=MODE_FINITE, N=n) for t in TIMES
        ]
        evolved = [evolve_reduced(st, t, SYS.xi0, co) for t, co in zip(TIMES, closed)]
        exact = simulate_exact(cfg)
        assert np.abs(exact - np.array(evolved)).max() < 1e-10

        products = extract_products(cfg)
        A, B, _ = products.conj().T
        assert np.abs(products[:, 0] - products[:, 2]).max() <= 1e-12
        assert np.abs(A - [co[0] for co in closed]).max() < 1e-11
        assert np.abs(B - [co[1] for co in closed]).max() < 1e-11


def test_closed_forms_are_large_N_asymptotics_at_finite_w():
    # at w > 0 the closed forms deviate from the exact traces by
    # O(w^2 J0^2 / Theta^4), independent of N; guard the scale
    sol = solve_order(BATH_TIM, tol=1e-15)
    cfg = make_cfg(4, BATH_TIM)
    closed = [dephasing_coeffs(t, sol, BATH_TIM, SYS, mode=MODE_FINITE, N=4) for t in TIMES]
    A = extract_products(cfg)[:, 0].conj()
    dev = np.abs(A - [co[0] for co in closed]).max()
    assert 1e-6 < dev < 2e-3

    # the one-excitation coefficient symmetry is also only an Ising-limit
    # identity; at w=0.1 the two exact products differ measurably
    products = extract_products(cfg)
    asym = np.abs(products[:, 0] - products[:, 2]).max()
    assert 1e-6 < asym < 1e-2


def test_single_qubit_trace_vs_dense():
    rng = np.random.default_rng(8)
    for _ in range(3):
        bath = BathParams(J=rng.uniform(1, 3), w=rng.uniform(0, 0.4), T=rng.uniform(0.2, 0.6))
        sys_p = SystemParams(J0=rng.uniform(0.5, 1.5), mu0=rng.uniform(0, 1))
        times = tuple(rng.uniform(0.1, 3.0, size=4))
        tr = single_qubit_coherence_exact(6, bath, sys_p, times)
        de = single_qubit_coherence_exact(6, bath, sys_p, times, method="dense")
        assert np.abs(tr - de).max() < 1e-11


def test_single_qubit_t_zero_and_closed_form():
    assert single_qubit_coherence_exact(4, BATH_TIM, SYS, (0.0,))[0] == pytest.approx(1.0, abs=1e-14)
    sol = solve_order(BATH_IM, tol=1e-15)
    closed = coherence_factor_finite(np.array(TIMES), 6, sol, BATH_IM, SYS)
    exact = single_qubit_coherence_exact(6, BATH_IM, SYS, TIMES)
    assert np.abs(closed - exact).max() < 1e-11


def test_single_qubit_free_phase_matches_exact():
    sys_mu = SystemParams(J0=1.0, mu0=0.8)
    sol = solve_order(BATH_IM, tol=1e-15)
    t = np.array(TIMES)
    closed = np.exp(1j * sys_mu.mu0 * t) * coherence_factor_finite(t, 4, sol, BATH_IM, sys_mu)
    exact = single_qubit_coherence_exact(4, BATH_IM, sys_mu, TIMES, method="dense")
    assert np.abs(closed - exact).max() < 1e-11


def test_single_qubit_gaussian_at_large_N():
    # magnitude approaches the large-N Gaussian as O(1/N) plus the
    # O(w^2) closed-form offset; at w=0.1 both are small
    sol = solve_order(BATH_TIM, tol=1e-15)
    n = 1000
    times = np.linspace(0.0, 2.0, 9)
    exact = single_qubit_coherence_exact(n, BATH_TIM, SYS, times)
    gauss = coherence_magnitude_asymptotic(times, sol, BATH_TIM, SYS)
    assert np.abs(np.abs(exact) - gauss).max() < 10.0 / n


def test_unit_trace_preserved():
    cfg = make_cfg(5, BATH_TIM)
    for rho in simulate_exact(cfg):
        assert abs(np.trace(rho) - 1.0) < 1e-12
    for rho in simulate_exact(cfg, method="dense"):
        assert abs(np.trace(rho) - 1.0) < 1e-12


def test_populations_frozen_in_exact_evolution():
    st = random_state(12)
    cfg = make_cfg(4, BATH_TIM, state=st)
    pops = np.abs(st.amplitudes()) ** 2
    for rho in simulate_exact(cfg):
        np.testing.assert_allclose(rho.diagonal().real, pops, atol=1e-12)


def test_bath_state_stationary_without_coupling():
    # with J0 = 0 the bath evolves under its own mean-field Hamiltonian,
    # which commutes with the Gibbs state
    sys_p = SystemParams(J0=0.0, xi0=0.4)
    st = case_state(4)
    sol = solve_order(BATH_TIM)
    h = dense_reference.dense_hamiltonian(
        *dense_reference.two_qubit_operators(sys_p.xi0), 3, sys_p.J0, BATH_TIM, sol
    )
    rho_b = dense_reference.gibbs_product(3, BATH_TIM, sol)
    rho0 = np.kron(np.outer(st.amplitudes(), st.amplitudes().conj()), rho_b)
    evals, evecs = np.linalg.eigh(h)
    u = (evecs * np.exp(-1j * evals * 1.3)) @ evecs.conj().T
    rho_t = u @ rho0 @ u.conj().T
    bath_marginal = np.einsum("ibjc->bc", rho_t.reshape(4, 8, 4, 8) * np.eye(4)[:, None, :, None])
    assert np.abs(bath_marginal - rho_b).max() < 1e-12


@pytest.mark.parametrize("bath", [BATH_IM, BATH_TIM], ids=["w=0", "w>0"])
def test_reconstruction_shares_the_closed_form_assembly(bath):
    # reconstruct_reduced and evolve_reduced apply one multiplier to one
    # state.density(), so with the exact coefficients they agree bit for bit on
    # every entry that does not carry the |11>-side coefficient D
    rng = np.random.default_rng(31)
    for k in range(10):
        cfg = make_cfg(
            int(rng.integers(1, 13)), bath, state=random_state(k),
            times=tuple(rng.uniform(0.0, 4.0, size=5)),
            sys_p=SystemParams(J0=rng.uniform(0.3, 1.5), xi0=rng.uniform(0.0, 1.0)),
        )
        rec = reconstruct_reduced(cfg)
        A, B, _ = extract_products(cfg).conj().T
        closed = evolve_reduced(
            cfg.state, np.array(cfg.times), cfg.sys.xi0, np.stack([A, B, A], axis=-1)
        )
        for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 2)):
            assert np.array_equal(rec[:, i, j], closed[:, i, j]), (k, i, j)


@pytest.mark.parametrize("method", ROUTES)
def test_every_route_feeds_evolve_reduced_its_coefficient_array(method):
    # a route's (T, 3) factors are the closed forms' coefficient layout, so
    # evolve_reduced on them is simulate_exact on that route, bit for bit
    t = np.array(TIMES)
    for bath in (BATH_IM, BATH_TIM):
        cfg = make_cfg(4, bath)
        coef = ROUTES[method](bath, SYS.J0, 4, t, _LEVELS[_BRA], _LEVELS[_KET])
        assert coef.shape == t.shape + (3,)
        got = evolve_reduced(cfg.state, t, SYS.xi0, coef)
        assert got.tobytes() == simulate_exact(cfg, method=method).tobytes()


def test_disordered_bath_still_dephases_exactly():
    # above Tc with w=0 the bath is maximally mixed but the exact dynamics
    # keeps H_sB: each spin contributes cos(t J0 dlambda / (2 sqrt(N))) per
    # unit z-distance
    n = 3
    bath = BathParams(J=2.0, w=0.0, T=1.5)
    cfg = make_cfg(n, bath)
    st = cfg.state
    lam = np.array([1.0, 0.0, 0.0, -1.0])
    for t, rho in zip(TIMES, simulate_exact(cfg)):
        phases = np.exp(1j * SYS.xi0 * t * np.array([0.25, -0.25, -0.25, 0.25]))
        amps = st.amplitudes() * phases
        expected = np.outer(amps, amps.conj())
        for i in range(4):
            for j in range(4):
                dlam = lam[i] - lam[j]
                expected[i, j] *= math.cos(t * SYS.J0 * dlam / (2 * math.sqrt(n))) ** n
        np.testing.assert_allclose(rho, expected, atol=1e-13)
        # and the closed form, with c = mJ/Theta = 1/2 at w = 0, says the same
        sol = solve_order(bath)
        want = math.cos(t * SYS.J0 / (2 * math.sqrt(n))) ** n
        assert abs(coherence_factor_finite(t, n, sol, bath, SYS) - want) <= 1e-13


@pytest.mark.parametrize("J", [2.0, 0.0])
@pytest.mark.parametrize("T_over_Tc", [0.5, 1.0, 1.5, 3.0])
def test_ising_closed_form_is_exact_on_both_sides_of_tc(J, T_over_Tc):
    # temperatures in units of Tc(J=2) = 1, so J = 0 (never ordered) gets the same T
    bath = BathParams(J=J, w=0.0, T=T_over_Tc * critical_temperature(2.0))
    sol = solve_order(bath)
    sys_p = SystemParams(J0=1.0, mu0=0.4, xi0=0.3)
    times = np.linspace(0.0, 9.0, 7)
    for n in range(1, 13):
        r_exact = single_qubit_coherence_exact(n, bath, sys_p, times)
        r_closed = coherence_factor_finite(times, n, sol, bath, sys_p)
        free_phase = np.exp(1j * sys_p.mu0 * times)
        assert np.abs(r_exact / free_phase - r_closed).max() <= 1e-12
        cfg = make_cfg(n, bath, times=times, sys_p=sys_p)
        A, B, _ = extract_products(cfg).conj().T
        assert np.abs(A - r_closed).max() <= 1e-12
        b_closed = coherence_factor_finite(2.0 * times, n, sol, bath, sys_p)
        assert np.abs(B - b_closed).max() <= 1e-12
        # and so is the closed forms' multiplier, on all 16 entries
        closed = multiplier(times, sys_p.xi0, np.stack([r_closed, b_closed, r_closed], axis=-1))
        dense = _dense_factor(bath, sys_p.J0, n, times, _LEVELS[_BRA], _LEVELS[_KET])
        assert np.abs(multiplier(times, sys_p.xi0, dense) - closed).max() <= 1e-12


def test_size_guards():
    # only the dense basis grows with N; the trace-identity route is O(1) in
    # N and runs past MAX_BATH_SIZE
    cfg = make_cfg(13, BATH_TIM)
    with pytest.raises(ConfigTooLarge, match=r"^bath size 13 exceeds MAX_BATH_SIZE = 12$"):
        simulate_exact(cfg, method="dense")
    with pytest.raises(ConfigTooLarge, match=r"^bath size 13 exceeds MAX_BATH_SIZE = 12$"):
        single_qubit_coherence_exact(13, BATH_TIM, SYS, TIMES, method="dense")
    for big in (cfg, make_cfg(10**6, BATH_TIM)):
        for run in (simulate_exact, extract_products, reconstruct_reduced):
            assert np.isfinite(run(big)).all()
    assert np.isfinite(single_qubit_coherence_exact(1000, BATH_TIM, SYS, TIMES)).all()
    with pytest.raises(InvalidParams):
        make_cfg(0, BATH_TIM)
    with pytest.raises(InvalidParams):
        single_qubit_coherence_exact(0, BATH_TIM, SYS, TIMES)


def test_unknown_method_is_one_error_on_both_entry_points():
    message = r"^unknown method 'adiabatic'; the routes are trace, dense$"
    with pytest.raises(InvalidParams, match=message):
        simulate_exact(make_cfg(2, BATH_TIM), method="adiabatic")
    with pytest.raises(InvalidParams, match=message):
        single_qubit_coherence_exact(2, BATH_TIM, SYS, TIMES, method="adiabatic")


def test_config_times_coerced():
    cfg = OracleConfig(N=2, bath=BATH_TIM, sys=SYS, state=case_state(2), times=[1, 2])
    assert cfg.times == (1.0, 2.0)
    assert all(isinstance(t, float) for t in cfg.times)


def _route_calls(n=3, bath=BATH_TIM, sys_p=SYS):
    """Every oracle entry point as a function of its time list: each row of
    ROUTES through simulate_exact (named for the row) and through
    single_qubit_coherence_exact (single_qubit_<row>), the single-qubit
    default method, and the trace row's two wrappers."""
    def cfg(ts):
        return make_cfg(n, bath, times=ts, sys_p=sys_p)

    calls = {
        "single_qubit": lambda ts: single_qubit_coherence_exact(n, bath, sys_p, ts),
        "reconstruct": lambda ts: reconstruct_reduced(cfg(ts)),
        "products": lambda ts: extract_products(cfg(ts)),
    }
    for m in ROUTES:
        calls[m] = lambda ts, m=m: simulate_exact(cfg(ts), method=m)
        calls[f"single_qubit_{m}"] = lambda ts, m=m: single_qubit_coherence_exact(
            n, bath, sys_p, ts, method=m
        )
    return calls


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route", list(_route_calls()))
def test_non_finite_time_is_one_error_on_every_route(route, bad):
    with pytest.raises(InvalidParams, match=r"^oracle times must be finite, got t=-?(nan|inf)$"):
        _route_calls()[route]((0.5, bad, 1.0))


@pytest.mark.parametrize("route", list(_route_calls()))
def test_field_overflow_at_a_finite_time_is_invalid_params(route):
    # the bath phase |t| hypot(w, 2 m J)/2 overflows at t = 1e308 with J = 10;
    # no RuntimeWarning
    bath = BathParams(J=10.0, w=0.1, T=1.0)
    with pytest.raises(InvalidParams, match=r"^bath phase .* = inf is not below .* at t=1e\+308$"):
        _route_calls(bath=bath)[route]((1e308,))


@pytest.mark.parametrize("route", list(_route_calls()))
def test_conditioned_field_overflow_is_invalid_params(route):
    # h0 = 2 m J ~ 1.5e308 and J0/sqrt(N) = 1e308 are finite, but the field
    # h0 + (J0/sqrt(N)) lam of a coupling level is not, so neither is the bath
    # phase, even at t = 0; no RuntimeWarning
    bath, sys_p = BathParams(J=1.5e308, w=0.1, T=1e307), SystemParams(J0=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match=r"^bath phase .* = nan is not below .* at t=0\.0$"):
            _route_calls(n=1, bath=bath, sys_p=sys_p)[route]((0.0, 1.0))


@pytest.mark.parametrize("sys_p", [
    SystemParams(J0=1.0, xi0=1e8), SystemParams(J0=1.0, xi0=1e12),
    SystemParams(J0=1.0, mu0=1e8), SystemParams(J0=1.0, mu0=1e12),
], ids=["xi0=1e8", "xi0=1e12", "mu0=1e8", "mu0=1e12"])
def test_dense_route_keeps_the_bath_under_a_large_qubit_energy(sys_p):
    # the system phase is a factor of its own: added to the O(1) bath
    # eigenvalues, a qubit energy of 1e8 would round them to |xi0| eps
    times = tuple(np.linspace(0.15, 2.4, 8))
    for n in (1, 4, 12):
        cfg = make_cfg(n, BATH_TIM, state=random_state(n), times=times, sys_p=sys_p)
        assert np.abs(simulate_exact(cfg, method="dense") - simulate_exact(cfg)).max() <= 1e-12
        sq = [single_qubit_coherence_exact(n, BATH_TIM, sys_p, times, method=m)
              for m in ("dense", "trace")]
        assert np.abs(sq[0] - sq[1]).max() <= 1e-12


@pytest.mark.parametrize("route", ["trace", "reconstruct", "dense"])
def test_qubit_phase_overflow_at_a_finite_time_is_invalid_params(route):
    # with xi0 = 2**52 the qubit phase xi0 t/2 reaches 2**52 at t = 4 but not at t = 1
    cfg = make_cfg(3, BATH_TIM, times=(1.0, 4.0), sys_p=SystemParams(J0=1.0, xi0=2.0**52))
    call = {
        "trace": lambda: simulate_exact(cfg),
        "reconstruct": lambda: reconstruct_reduced(cfg),
        "dense": lambda: simulate_exact(cfg, method="dense"),
    }[route]
    with pytest.raises(InvalidParams, match=r"^qubit phase \|xi0 t\|/2 = 9\.01e\+15 .* at t=4\.0$"):
        call()


@pytest.mark.parametrize("route, sys_p, bath", [
    ("trace", SystemParams(J0=1e308), BATH_TIM),
    ("trace", SYS, BathParams(J=2.0, w=1e308, T=0.5)),
    ("reconstruct", SystemParams(J0=1e308), BATH_TIM),
    ("reconstruct", SYS, BathParams(J=2.0, w=1e308, T=0.5)),
    ("single_qubit", SystemParams(J0=1e308), BATH_TIM),
    ("single_qubit", SYS, BathParams(J=2.0, w=1e308, T=0.5)),
    ("single_qubit", SystemParams(J0=1.0, mu0=1e308), BATH_TIM),
])
def test_trace_or_free_phase_overflow_names_the_first_bad_time(route, sys_p, bath):
    # each field is finite, but the bath phase |t| hypot(w, h)/2 passes 2**52
    # at t = 2.4 and not at t = 0; so does the free phase mu0 t
    times = (0.0, 2.4)
    cfg = make_cfg(2, bath, times=times, sys_p=sys_p)
    call = {
        "trace": lambda: extract_products(cfg),
        "reconstruct": lambda: reconstruct_reduced(cfg),
        "single_qubit": lambda: single_qubit_coherence_exact(2, bath, sys_p, times),
    }[route]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match=r"^(bath|free) phase .* at t=2\.4$"):
            call()


@pytest.mark.parametrize("n_times", [0, 1, 200])
def test_routes_return_one_array_over_the_time_axis(n_times):
    times = tuple(np.linspace(0.0, 3.0, n_times))
    for route, call in _route_calls(n=2).items():
        got = call(times)
        assert isinstance(got, np.ndarray), route
        shape = () if route.startswith("single_qubit") else (3,) if route == "products" else (4, 4)
        assert got.shape == (n_times, *shape), route


def _scalar_factorized(cfg, sol):
    """simulate_exact from explicit per-time 2x2 products of scalar propagators."""
    bath, amps = cfg.bath, cfg.state.amplitudes()
    g = single_spin_gibbs(bath.w, 2.0 * sol.m * bath.J, bath.T)
    shift = cfg.sys.J0 / math.sqrt(cfg.N)
    energy = np.array([-0.25, 0.25, 0.25, -0.25])
    out = []
    for t in cfg.times:
        props = [
            exp_imag(TracelessXZ(0.5 * t * bath.w, 0.5 * t * (2.0 * sol.m * bath.J + shift * lam)))
            for lam in (1.0, 0.0, 0.0, -1.0)
        ]
        f = np.array([[np.trace(ui @ g @ uj.conj().T) for uj in props] for ui in props])
        phase = np.exp(-1j * cfg.sys.xi0 * t * (energy[:, None] - energy[None, :]))
        out.append(np.outer(amps, amps.conj()) * phase * f**cfg.N)
    return np.array(out)


def _scalar_products(cfg, sol):
    """extract_products from one scalar trace_triple per time and product."""
    bath = cfg.bath
    h0 = 2.0 * sol.m * bath.J
    shift = cfg.sys.J0 / math.sqrt(cfg.N)
    g_part = gibbs_part(bath.w, h0, bath.T)
    pairs = ((h0, h0 + shift), (h0 - shift, h0 + shift), (h0 - shift, h0))
    return np.array([
        [
            trace_triple(TracelessXZ(0.5 * t * bath.w, 0.5 * t * left), g_part,
                         TracelessXZ(-0.5 * t * bath.w, -0.5 * t * right)) ** cfg.N
            for left, right in pairs
        ]
        for t in cfg.times
    ])


@pytest.mark.parametrize("w", [0.0, 0.2, 0.5])
def test_batched_routes_match_per_time_scalar_reference(w):
    rng = np.random.default_rng(71)
    for k in range(12):
        J = rng.uniform(1.0, 3.0)
        bath = BathParams(J=J, w=w, T=rng.uniform(0.1, 0.9) * critical_temperature(J))
        sys_p = SystemParams(J0=rng.uniform(0.5, 2.0), xi0=rng.uniform(0.0, 0.5))
        n = k + 1
        sol = solve_order(bath)
        # the |00> propagator has q = 0.5 t hypot(w, nu); put q on both
        # sides of the small-q series switch, next to t = 0 and a tiny t
        nu = 2.0 * sol.m * J + sys_p.J0 / math.sqrt(n)
        t_switch = 2.0 * _SMALL_Q / math.hypot(w, nu)
        times = (0.0, 1e-9, 0.99 * t_switch, 1.01 * t_switch, *rng.uniform(0.0, 5.0, size=6))
        cfg = make_cfg(n, bath, state=random_state(k), times=times, sys_p=sys_p)
        assert np.abs(simulate_exact(cfg) - _scalar_factorized(cfg, sol)).max() <= 1e-14
        assert np.abs(extract_products(cfg) - _scalar_products(cfg, sol)).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_collective_block_spectrum_is_the_product_space_spectrum(n):
    # sector S spans 2S + 1 consecutive states, S = n/2, n/2 - 1, ...; its
    # eigenvalues, each counted d_S times, are the whole 2^n spectrum of
    # H_B - (J0/sqrt(n)) lam Z_B that the Kronecker reference builds
    sol = solve_order(BATH_TIM)
    x_b, z_b, mult = _collective_spin(n)
    assert mult.sum() == 2**n  # sum_S d_S (2S + 1)
    for lam in (1.0, 0.0, -0.5):
        field = 2.0 * sol.m * BATH_TIM.J + SYS.J0 / math.sqrt(n) * lam
        h = -BATH_TIM.w * x_b - np.diag(field * z_b)
        assert np.array_equal(h, h.T)
        spectrum, start = [], 0
        for dim in range(n + 1, 0, -2):
            sector = slice(start, start + dim)
            assert np.all(h[sector, start + dim:] == 0.0)
            assert np.all(mult[sector] == mult[start])
            spectrum += [np.repeat(np.linalg.eigvalsh(h[sector, sector]), int(mult[start]))]
            start += dim
        assert start == len(z_b)
        ref = dense_reference.bath_hamiltonian(n, BATH_TIM, sol)
        ref -= SYS.J0 / math.sqrt(n) * lam * dense_reference.bath_sum(dense_reference.SZ, n)
        got = np.sort(np.concatenate(spectrum))
        assert np.abs(got - np.linalg.eigvalsh(ref)).max() <= 1e-13


@pytest.mark.parametrize("w", [0.0, 0.2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dense_route_matches_full_hilbert_space_reference(n, w):
    rng = np.random.default_rng([n, int(10 * w)])
    J = rng.uniform(1.0, 3.0)
    bath = BathParams(J=J, w=w, T=rng.uniform(0.1, 0.9) * critical_temperature(J))
    sys_p = SystemParams(J0=rng.uniform(0.5, 2.0), mu0=rng.uniform(0.0, 1.0),
                         xi0=rng.uniform(0.0, 0.5))
    sol = solve_order(bath)
    times = np.array([0.0, *rng.uniform(0.0, 5.0, size=5)])
    st = random_state(n)
    amps = st.amplitudes()
    ref = dense_reference.reduced_matrices(
        *dense_reference.two_qubit_operators(sys_p.xi0), np.outer(amps, amps.conj()),
        n, sys_p.J0, bath, sol, times,
    )
    cfg = make_cfg(n, bath, state=st, times=times, sys_p=sys_p)
    # every two-qubit route lays out its M through two_qubit.multiplier; the
    # reference forms the qubit phase and the layout from H_s on its own
    for got in (simulate_exact(cfg, method="dense"), simulate_exact(cfg), reconstruct_reduced(cfg)):
        assert np.abs(got - ref).max() <= 1e-13

    sz = dense_reference.SZ
    ref1 = dense_reference.reduced_matrices(
        -sys_p.mu0 * sz, sz, np.array([[0.0, 1.0], [0.0, 0.0]]), n, sys_p.J0, bath, sol, times
    )[:, 0, 1]
    for method in ("dense", "trace"):
        got1 = single_qubit_coherence_exact(n, bath, sys_p, times, method=method)
        assert np.abs(got1 - ref1).max() <= 1e-13

    # as in the closed forms, M is exactly Hermitian with an exactly unit
    # diagonal and |01><10| entry
    f2 = _dense_factor(bath, sys_p.J0, n, times, _LEVELS[_BRA], _LEVELS[_KET])
    m2 = multiplier(times, sys_p.xi0, f2)
    assert np.array_equal(m2, np.swapaxes(m2, 1, 2).conj())
    assert np.all(np.diagonal(m2, axis1=1, axis2=2) == 1.0)
    assert np.all(m2[:, 1, 2] == 1.0)
    # swapping bra and ket conjugates a level-pair factor, and a level paired
    # with itself gives tr rho_B = 1
    for lam in (_LEVELS, sz.diagonal()):
        bra, ket = np.repeat(lam, lam.size), np.tile(lam, lam.size)
        f = _dense_factor(bath, sys_p.J0, n, times, bra, ket)
        assert f.shape == (times.size, lam.size**2)
        assert np.abs(f - _dense_factor(bath, sys_p.J0, n, times, ket, bra).conj()).max() <= 1e-15
        assert np.abs(f[:, bra == ket] - 1.0).max() <= 1e-15


@pytest.mark.parametrize("n", [10**4, 10**6])
def test_uncapped_routes_meet_the_ising_closed_forms_at_large_n(n):
    # at w = 0 the finite-N closed forms are exact; the routes' rounded
    # per-spin trace, raised to the N-th power, errs by a few N eps
    bath = BathParams(J=2.0, w=0.0, T=0.5 * critical_temperature(2.0))
    times = np.linspace(0.0, 6.0, 61)
    cfg = make_cfg(n, bath, state=case_state(4), times=times)
    closed = dephasing_coeffs(times, solve_order(bath), bath, SYS, mode=MODE_FINITE, N=n)
    tol = 10 * n * np.finfo(float).eps
    assert np.abs(extract_products(cfg).conj() - closed).max() <= tol
    # every entry of |++><++| is 1/4, so 4 rho is M
    m = multiplier(times, SYS.xi0, closed)
    for got in (reconstruct_reduced(cfg), simulate_exact(cfg)):
        assert np.abs(4 * got - m).max() <= tol


# the rows whose cost is O(1) in N (the trace row); the dense row is capped
# at MAX_BATH_SIZE
_UNCAPPED = [m for m in ROUTES if m != "dense"]
_ROUNDED_POWER = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 19: a rounded per-spin trace raised to the N-th power errs "
    "by ~N eps h0 t; the trace route errs by 4.1e-4 at N = 1e12 and 0.32 at "
    "N = 1e15, where |F| = 1.003 > 1",
)


@pytest.mark.parametrize("route, n", [
    *((m, n) for m in ROUTES for n in (1, 4, 12)),
    *((m, 10**4) for m in _UNCAPPED),
    *(pytest.param(m, n, marks=_ROUNDED_POWER) for m in _UNCAPPED for n in (10**12, 10**15)),
])
def test_single_qubit_route_matches_the_60_digit_echo(route, n):
    # at w > 0, where no closed form is exact: the single-qubit pair
    # (1/2, -1/2) against tr[U_a g U_b^dag]^N at 60 digits; mu0 = 0
    bath, sys_p, times = BathParams(J=2.0, w=0.1, T=0.5), SystemParams(J0=1.0), (1.0, 6.0)
    want = [mp_reference.echo_power(2.0, 0.1, 0.5, 1.0, n, t, 0.5, -0.5) for t in times]
    got = single_qubit_coherence_exact(n, bath, sys_p, times, method=route)
    assert np.abs(got - want).max() <= 1e-10


def test_dense_route_makes_one_eigh_per_coupling_level(monkeypatch):
    # two qubits couple through S^z = 1, 0, -1, one qubit through +-1/2, and
    # each adds the uncoupled H_B, at its own scale, for the bath state; at
    # N = 4 the collective basis has 5 + 3 + 1 states
    calls = []
    eigh = np.linalg.eigh

    def counted(h):
        calls.append(h.shape)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    simulate_exact(make_cfg(4, BATH_TIM), method="dense")
    assert calls == [(9, 9)] * 4
    calls.clear()
    single_qubit_coherence_exact(4, BATH_TIM, SYS, TIMES, method="dense")
    assert calls == [(9, 9)] * 3


@pytest.mark.parametrize("bath", [
    *(pytest.param(BathParams(J=2.0, w=w, T=r * critical_temperature(2.0)), id=f"{w}-{r}")
      for w in (0.0, 0.2) for r in (1e-310, 1e-6, 0.5, 0.999, 1.5)),
    pytest.param(BathParams(J=1e-320, w=5e-324, T=5e-324), id="subnormal"),
])
def test_dense_matches_trace_at_the_guard_size(bath):
    # N = 12 is 49 collective states; at T -> 0, deep in the ordered phase,
    # next to Tc and in the disordered phase, and at a subnormal bath scale;
    # both rows of ROUTES through both entry points
    cfg = make_cfg(12, bath, state=random_state(12), times=(0.0, *TIMES, 7.5))
    for run in (lambda m: simulate_exact(cfg, method=m),
                lambda m: single_qubit_coherence_exact(12, bath, SYS, cfg.times, method=m)):
        ref, *rest = map(run, ROUTES)
        assert len(rest) == 1 and all(np.abs(x - ref).max() <= 1e-12 for x in rest)

