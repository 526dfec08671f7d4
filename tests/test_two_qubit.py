import cmath

import numpy as np
import pytest

from isingbath.dephasing import MODE_FINITE, DephasingCoeffs
from isingbath.errors import InvalidParams, InvalidState, NotADensityMatrix
from isingbath.two_qubit import (
    SIGMA_YY,
    PureState2Q,
    case_state,
    evolve_reduced,
    pure_concurrence,
    r_matrix,
    spin_flip,
    validate_density,
)

NO_DECAY = DephasingCoeffs(A=1.0, B=1.0)


def random_state(rng):
    return PureState2Q.normalized(*(rng.normal(size=4) + 1j * rng.normal(size=4)))


def random_coeffs(rng):
    # magnitudes below 1, generic phases
    a = rng.uniform(0.2, 0.999) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
    b = rng.uniform(0.2, 0.999) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
    return DephasingCoeffs(A=a, B=b)


def random_density(rng):
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def test_initial_condition_is_projector():
    rng = np.random.default_rng(0)
    for _ in range(50):
        st = random_state(rng)
        amps = st.amplitudes()
        got = evolve_reduced(st, 0.0, 0.7, NO_DECAY)
        np.testing.assert_allclose(got, np.outer(amps, amps.conj()), atol=1e-15)


def test_populations_frozen_and_hermitian():
    rng = np.random.default_rng(1)
    for _ in range(100):
        st = random_state(rng)
        rho = evolve_reduced(st, rng.uniform(0, 10), rng.uniform(0, 2), random_coeffs(rng))
        amps = st.amplitudes()
        np.testing.assert_allclose(rho.diagonal(), np.abs(amps) ** 2, atol=1e-15)
        assert np.abs(rho - rho.conj().T).max() == 0.0  # lower triangle is built as conj
        assert abs(np.trace(rho) - 1.0) < 1e-12


def test_positive_semidefinite_with_finite_mode_constraint():
    # with the physical constraint B(t) = A(2t) the matrix stays PSD
    from isingbath.dephasing import SystemParams, dephasing_coeffs
    from isingbath.mean_field import BathParams, solve_order

    bath = BathParams(J=2.0, w=0.1, T=0.5)
    sol = solve_order(bath)
    sys_p = SystemParams(J0=1.0, xi0=0.3)
    rng = np.random.default_rng(2)
    for _ in range(60):
        st = random_state(rng)
        t = rng.uniform(0, 8)
        co = dephasing_coeffs(t, sol, bath, sys_p, mode=MODE_FINITE, N=5)
        rho = evolve_reduced(st, t, sys_p.xi0, co)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_protected_coherence_carries_no_decay():
    rng = np.random.default_rng(3)
    st = random_state(rng)
    rho = evolve_reduced(st, 3.0, 1.1, random_coeffs(rng))
    assert rho[1, 2] == st.beta * np.conj(st.gamma)


def test_case1_output_independent_of_coefficients():
    st = case_state(1)
    rng = np.random.default_rng(4)
    t, xi0 = 2.2, 0.9
    first = evolve_reduced(st, t, xi0, random_coeffs(rng))
    second = evolve_reduced(st, t, xi0, random_coeffs(rng))
    np.testing.assert_array_equal(first, second)


def test_one_excitation_coherences_share_one_coefficient():
    rng = np.random.default_rng(5)
    st = random_state(rng)
    co = random_coeffs(rng)
    t, xi0 = 1.6, 0.4
    rho = evolve_reduced(st, t, xi0, co)
    p = cmath.exp(0.5j * xi0 * t)
    ratios = [
        rho[0, 1] / (st.alpha * np.conj(st.beta) * p),
        rho[0, 2] / (st.alpha * np.conj(st.gamma) * p),
        rho[1, 3] / (st.beta * np.conj(st.delta) * np.conj(p)),
        rho[2, 3] / (st.gamma * np.conj(st.delta) * np.conj(p)),
    ]
    for r in ratios:
        assert r == pytest.approx(complex(co.A), abs=1e-13)
    assert rho[0, 3] / (st.alpha * np.conj(st.delta)) == pytest.approx(
        complex(co.B), abs=1e-13
    )


def test_spin_flip_bell_invariance():
    bell = case_state(2)
    rho = np.outer(bell.amplitudes(), bell.amplitudes().conj())
    np.testing.assert_allclose(spin_flip(rho), rho, atol=1e-15)


def test_spin_flip_basis_flip():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    expected = np.zeros((4, 4), dtype=complex)
    expected[3, 3] = 1.0
    np.testing.assert_array_equal(spin_flip(rho), expected)


def test_spin_flip_involution():
    rng = np.random.default_rng(6)
    for _ in range(100):
        rho = random_density(rng)
        assert np.abs(spin_flip(spin_flip(rho)) - rho).max() < 1e-13


def test_sigma_yy_constant():
    sy = np.array([[0, -1j], [1j, 0]])
    np.testing.assert_array_equal(SIGMA_YY, np.kron(sy, sy))


def _reference_r(st: PureState2Q, A: complex, B: complex, t: float, xi0: float):
    """R(t) from the block algebra of the product rho rho~, instantiated.

    Written in the conjugate-transposed convention matching evolve_reduced
    (two print typos in the source algebra normalized: the (2,0) coefficient
    is (A + A*B), and the (3,2) amplitude is gamma delta*).
    """
    a, b, c, d = st.alpha, st.beta, st.gamma, st.delta
    cj = np.conj
    e = np.exp(1j * t * xi0)
    h = np.exp(0.5j * t * xi0)
    r = np.empty((4, 4), dtype=complex)
    r[0, 0] = abs(a) ** 2 * abs(d) ** 2 * (1 + abs(B) ** 2) - 2 * cj(a) * b * c * cj(d) * abs(A) ** 2 / e
    r[0, 1] = 2 * cj(a) * b * abs(c) ** 2 * cj(A) / h - abs(a) ** 2 * cj(c) * d * (cj(A) + A * cj(B)) * h
    r[0, 2] = 2 * cj(a) * abs(b) ** 2 * c * cj(A) / h - abs(a) ** 2 * cj(b) * d * (cj(A) + A * cj(B)) * h
    r[0, 3] = 2 * cj(a) * abs(a) ** 2 * d * cj(B) - 2 * cj(a) ** 2 * b * c * cj(A) ** 2 / e
    r[1, 0] = a * cj(b) * abs(d) ** 2 * (A + cj(A) * B) * h - 2 * abs(b) ** 2 * c * cj(d) * A / h
    r[1, 1] = -2 * a * cj(b) * cj(c) * d * abs(A) ** 2 * e + 2 * abs(b) ** 2 * abs(c) ** 2
    r[1, 2] = -2 * a * cj(b) ** 2 * d * abs(A) ** 2 * e + 2 * cj(b) * abs(b) ** 2 * c
    r[1, 3] = abs(a) ** 2 * cj(b) * d * (cj(A) + A * cj(B)) * h - 2 * cj(a) * abs(b) ** 2 * c * cj(A) / h
    r[2, 0] = a * cj(c) * abs(d) ** 2 * (A + cj(A) * B) * h - 2 * b * abs(c) ** 2 * cj(d) * A / h
    r[2, 1] = -2 * a * cj(c) ** 2 * d * abs(A) ** 2 * e + 2 * b * cj(c) * abs(c) ** 2
    r[2, 2] = -2 * a * cj(b) * cj(c) * d * abs(A) ** 2 * e + 2 * abs(b) ** 2 * abs(c) ** 2
    r[2, 3] = abs(a) ** 2 * cj(c) * d * (cj(A) + A * cj(B)) * h - 2 * cj(a) * b * abs(c) ** 2 * cj(A) / h
    r[3, 0] = 2 * a * cj(d) * abs(d) ** 2 * B - 2 * b * c * cj(d) ** 2 * A**2 / e
    r[3, 1] = 2 * b * abs(c) ** 2 * cj(d) * A / h - a * cj(c) * abs(d) ** 2 * (A + cj(A) * B) * h
    r[3, 2] = 2 * abs(b) ** 2 * c * cj(d) * A / h - a * cj(b) * abs(d) ** 2 * (A + cj(A) * B) * h
    r[3, 3] = abs(a) ** 2 * abs(d) ** 2 * (1 + abs(B) ** 2) - 2 * cj(a) * b * c * cj(d) * abs(A) ** 2 / e
    return np.conj(r)


def test_r_matrix_against_block_algebra():
    rng = np.random.default_rng(7)
    for _ in range(100):
        st = random_state(rng)
        co = random_coeffs(rng)
        t = rng.uniform(0, 5)
        xi0 = rng.uniform(0, 2)
        got = r_matrix(evolve_reduced(st, t, xi0, co))
        ref = _reference_r(st, complex(co.A), complex(co.B), t, xi0)
        assert np.abs(got - ref).max() < 1e-12


def test_r_matrix_case1_structure():
    beta, gamma = 0.6, 0.8
    st = PureState2Q(0.0, beta, gamma, 0.0)
    rng = np.random.default_rng(8)
    r = r_matrix(evolve_reduced(st, 1.3, 0.7, random_coeffs(rng)))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 2 * beta**2 * gamma**2
    expected[1, 2] = 2 * beta**3 * gamma  # conj convention: 2 b |b|^2 c
    expected[2, 1] = 2 * beta * gamma**3
    np.testing.assert_allclose(r, expected, atol=1e-14)


def test_r_matrix_case2_structure():
    rng = np.random.default_rng(9)
    alpha, delta = 0.48, np.sqrt(1 - 0.48**2)
    st = PureState2Q(alpha, 0.0, 0.0, delta)
    co = random_coeffs(rng)
    r = r_matrix(evolve_reduced(st, 0.9, 1.4, co))
    B = complex(co.B)
    assert r[0, 0] == pytest.approx(alpha**2 * delta**2 * (1 + abs(B) ** 2), abs=1e-14)
    assert r[3, 3] == pytest.approx(r[0, 0], abs=1e-14)
    assert r[0, 3] == pytest.approx(2 * alpha**3 * delta * B, abs=1e-14)
    assert r[3, 0] == pytest.approx(2 * alpha * delta**3 * np.conj(B), abs=1e-14)
    assert np.abs(r[1:3, :]).max() == 0.0
    assert np.abs(r[:, 1:3]).max() == 0.0


def test_r_matrix_case3_is_zero():
    st = case_state(3)
    rng = np.random.default_rng(10)
    r = r_matrix(evolve_reduced(st, 2.0, 0.5, random_coeffs(rng)))
    assert np.abs(r).max() == 0.0


def test_pure_concurrence_values():
    assert pure_concurrence(case_state(1)) == pytest.approx(1.0, abs=1e-15)
    assert pure_concurrence(case_state(2)) == pytest.approx(1.0, abs=1e-15)
    assert pure_concurrence(case_state(3)) == 0.0
    assert pure_concurrence(case_state(4)) == pytest.approx(0.0, abs=1e-16)


def test_pure_concurrence_matches_wootters():
    from isingbath.entanglement import concurrence

    rng = np.random.default_rng(11)
    for _ in range(200):
        st = random_state(rng)
        rho = np.outer(st.amplitudes(), st.amplitudes().conj())
        assert concurrence(rho).c == pytest.approx(pure_concurrence(st), abs=1e-10)


def test_state_validation():
    with pytest.raises(InvalidState):
        PureState2Q(1.0, 0.0, 0.0, 0.1)
    with pytest.raises(InvalidState):
        PureState2Q.normalized(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidState):
        PureState2Q(float("nan"), 0.0, 0.0, 1.0)
    st = PureState2Q.normalized(3.0, 0.0, 4.0, 0.0)
    assert st.alpha == pytest.approx(0.6)
    assert st.gamma == pytest.approx(0.8)


def test_case_state_validation():
    for case in (1, 2, 3, 4):
        amps = case_state(case).amplitudes()
        assert abs(np.vdot(amps, amps) - 1.0) < 1e-14
    with pytest.raises(InvalidParams):
        case_state(5)


def test_evolve_rejects_oversized_coefficients():
    with pytest.raises(InvalidParams):
        evolve_reduced(case_state(2), 1.0, 0.0, DephasingCoeffs(A=1.0, B=1.0 + 1e-6))


def test_validate_density():
    validate_density(np.eye(4, dtype=complex) / 4)
    with pytest.raises(NotADensityMatrix):
        validate_density(np.eye(3, dtype=complex) / 3)
    with pytest.raises(NotADensityMatrix):
        validate_density(np.eye(4, dtype=complex))  # trace 4
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.1
    with pytest.raises(NotADensityMatrix):
        validate_density(bad)
    nan = np.full((4, 4), np.nan, dtype=complex)
    with pytest.raises(NotADensityMatrix):
        validate_density(nan)
