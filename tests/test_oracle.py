import cmath
import math

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
    OracleConfig,
    _SZ,
    _dense_hamiltonian,
    _gibbs_product,
    extract_coeffs,
    extract_products,
    reconstruct_reduced,
    simulate_exact,
    single_qubit_coherence_exact,
)
from isingbath.su2 import single_spin_gibbs
from isingbath.two_qubit import PureState2Q, case_state, evolve_reduced

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


def test_factorized_matches_dense():
    for n in (1, 2, 3, 4, 5, 6):
        cfg = make_cfg(n, BATH_TIM, state=random_state(n))
        fac = simulate_exact(cfg)
        den = simulate_exact(cfg, method="dense")
        assert max(np.abs(a - b).max() for a, b in zip(fac, den)) < 1e-11


def test_factorized_matches_trace_identity_reconstruction():
    for bath in (BATH_TIM, BATH_IM, BathParams(J=2.0, w=0.5, T=0.8)):
        cfg = make_cfg(5, bath)
        fac = simulate_exact(cfg)
        rec = reconstruct_reduced(cfg)
        assert max(np.abs(a - b).max() for a, b in zip(fac, rec)) < 1e-12


def test_oracle_matches_closed_forms_in_ising_limit():
    sol = solve_order(BATH_IM, tol=1e-15)
    st = random_state(7)
    for n in (1, 2, 4, 6, 8):
        cfg = make_cfg(n, BATH_IM, state=st)
        closed = [
            dephasing_coeffs(t, sol, BATH_IM, SYS, mode=MODE_FINITE, N=n) for t in TIMES
        ]
        evolved = [evolve_reduced(st, t, SYS.xi0, co) for t, co in zip(TIMES, closed)]
        exact = simulate_exact(cfg, sol)
        assert max(np.abs(a - b).max() for a, b in zip(exact, evolved)) < 1e-10

        got = extract_coeffs(cfg, sol)
        assert max(abs(a - d) for a, _, d in extract_products(cfg, sol)) <= 1e-12
        assert max(abs(a.A - b.A) for a, b in zip(got, closed)) < 1e-11
        assert max(abs(a.B - b.B) for a, b in zip(got, closed)) < 1e-11


def test_closed_forms_are_large_N_asymptotics_at_finite_w():
    # at w > 0 the closed forms deviate from the exact traces by
    # O(w^2 J0^2 / Theta^4), independent of N; guard the scale
    sol = solve_order(BATH_TIM, tol=1e-15)
    cfg = make_cfg(4, BATH_TIM)
    closed = [dephasing_coeffs(t, sol, BATH_TIM, SYS, mode=MODE_FINITE, N=4) for t in TIMES]
    got = extract_coeffs(cfg, sol)
    dev = max(abs(a.A - b.A) for a, b in zip(got, closed))
    assert 1e-6 < dev < 2e-3

    # the one-excitation coefficient symmetry is also only an Ising-limit
    # identity; at w=0.1 the two exact products differ measurably
    asym = max(abs(a - d) for a, _, d in extract_products(cfg, sol))
    assert 1e-6 < asym < 1e-2


def test_single_qubit_trace_vs_dense():
    rng = np.random.default_rng(8)
    for _ in range(3):
        bath = BathParams(J=rng.uniform(1, 3), w=rng.uniform(0, 0.4), T=rng.uniform(0.2, 0.6))
        sys_p = SystemParams(J0=rng.uniform(0.5, 1.5), mu0=rng.uniform(0, 1))
        times = tuple(rng.uniform(0.1, 3.0, size=4))
        tr = single_qubit_coherence_exact(6, bath, sys_p, times)
        de = single_qubit_coherence_exact(6, bath, sys_p, times, method="dense")
        assert max(abs(a - b) for a, b in zip(tr, de)) < 1e-11


def test_single_qubit_t_zero_and_closed_form():
    assert single_qubit_coherence_exact(4, BATH_TIM, SYS, (0.0,))[0] == pytest.approx(1.0, abs=1e-14)
    sol = solve_order(BATH_IM, tol=1e-15)
    closed = [coherence_factor_finite(t, 6, sol, BATH_IM, SYS) for t in TIMES]
    exact = single_qubit_coherence_exact(6, BATH_IM, SYS, TIMES, sol)
    assert max(abs(a - b) for a, b in zip(closed, exact)) < 1e-11


def test_single_qubit_free_phase_matches_exact():
    sys_mu = SystemParams(J0=1.0, mu0=0.8)
    sol = solve_order(BATH_IM, tol=1e-15)
    closed = [
        cmath.exp(1j * sys_mu.mu0 * t) * coherence_factor_finite(t, 4, sol, BATH_IM, sys_mu)
        for t in TIMES
    ]
    exact = single_qubit_coherence_exact(4, BATH_IM, sys_mu, TIMES, sol, method="dense")
    assert max(abs(a - b) for a, b in zip(closed, exact)) < 1e-11


def test_single_qubit_gaussian_at_large_N():
    # magnitude approaches the large-N Gaussian as O(1/N) plus the
    # O(w^2) closed-form offset; at w=0.1 both are small
    sol = solve_order(BATH_TIM, tol=1e-15)
    n = 1000
    times = np.linspace(0.0, 2.0, 9)
    exact = single_qubit_coherence_exact(n, BATH_TIM, SYS, times, sol)
    for t, r in zip(times, exact):
        gauss = coherence_magnitude_asymptotic(t, sol, BATH_TIM, SYS)
        assert abs(abs(r) - gauss) < 10.0 / n


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
    h = _dense_hamiltonian(
        -sys_p.xi0 * np.kron(_SZ, _SZ), np.kron(_SZ, np.eye(2)) + np.kron(np.eye(2), _SZ),
        3, sys_p.J0, BATH_TIM, sol,
    )
    rho_b = _gibbs_product(3, single_spin_gibbs(BATH_TIM.w, 2 * sol.m * BATH_TIM.J, BATH_TIM.T))
    rho0 = np.kron(np.outer(st.amplitudes(), st.amplitudes().conj()), rho_b)
    evals, evecs = np.linalg.eigh(h)
    u = (evecs * np.exp(-1j * evals * 1.3)) @ evecs.conj().T
    rho_t = u @ rho0 @ u.conj().T
    bath_marginal = np.einsum("ibjc->bc", rho_t.reshape(4, 8, 4, 8) * np.eye(4)[:, None, :, None])
    assert np.abs(bath_marginal - rho_b).max() < 1e-12


@pytest.mark.parametrize("bath", [BATH_IM, BATH_TIM], ids=["w=0", "w>0"])
def test_reconstruction_shares_the_closed_form_assembly(bath):
    # reconstruct_reduced and evolve_reduced build rho from one 4x4
    # assembly, so with the exact coefficients they agree bit for bit on
    # every entry that does not carry the |11>-side coefficient D
    rng = np.random.default_rng(31)
    for k in range(10):
        cfg = make_cfg(
            int(rng.integers(1, 13)), bath, state=random_state(k),
            times=tuple(rng.uniform(0.0, 4.0, size=5)),
            sys_p=SystemParams(J0=rng.uniform(0.3, 1.5), xi0=rng.uniform(0.0, 1.0)),
        )
        rec = np.array(reconstruct_reduced(cfg))
        closed = evolve_reduced(cfg.state, np.array(cfg.times), cfg.sys.xi0, extract_coeffs(cfg))
        for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 2)):
            assert np.array_equal(rec[:, i, j], closed[:, i, j]), (k, i, j)


def test_disordered_bath_still_dephases_exactly():
    # above Tc with w=0 the mean-field closed form degenerates to r=1, but
    # the exact dynamics keeps H_sB: each spin of the maximally mixed bath
    # contributes cos(t J0 dlambda / (2 sqrt(N))) per unit z-distance
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
        # while the mean-field factor reports no decay at m=0
        sol = solve_order(bath)
        assert coherence_factor_finite(t, n, sol, bath, SYS) == 1.0


def test_size_guards():
    cfg = make_cfg(13, BATH_TIM)
    with pytest.raises(ConfigTooLarge):
        simulate_exact(cfg)
    with pytest.raises(ConfigTooLarge):
        simulate_exact(cfg, method="dense")
    with pytest.raises(ConfigTooLarge):
        extract_products(cfg)
    # the single-qubit trace route is O(1) in N and serves the large-N
    # asymptotics check; only its dense path is memory-guarded
    single_qubit_coherence_exact(1000, BATH_TIM, SYS, (0.5,))
    with pytest.raises(ConfigTooLarge):
        single_qubit_coherence_exact(13, BATH_TIM, SYS, TIMES, method="dense")
    with pytest.raises(InvalidParams):
        make_cfg(0, BATH_TIM)
    with pytest.raises(InvalidParams):
        single_qubit_coherence_exact(0, BATH_TIM, SYS, TIMES)
    with pytest.raises(InvalidParams):
        simulate_exact(make_cfg(2, BATH_TIM), method="adiabatic")


def test_config_times_coerced():
    cfg = OracleConfig(N=2, bath=BATH_TIM, sys=SYS, state=case_state(2), times=[1, 2])
    assert cfg.times == (1.0, 2.0)
    assert all(isinstance(t, float) for t in cfg.times)


def test_gibbs_product_shape():
    sol = solve_order(BATH_TIM)
    g = single_spin_gibbs(BATH_TIM.w, 2 * sol.m * BATH_TIM.J, BATH_TIM.T)
    rho_b = _gibbs_product(3, g)
    assert rho_b.shape == (8, 8)
    np.testing.assert_allclose(rho_b, np.kron(np.kron(g, g), g), atol=1e-15)
