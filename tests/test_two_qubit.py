import cmath
import math

import numpy as np
import pytest

from isingbath.dephasing import MODE_FINITE
from isingbath.entanglement import concurrence
from isingbath.errors import InvalidParams, InvalidState, NotADensityMatrix
from isingbath.two_qubit import (
    PureState2Q,
    case_state,
    evolve_reduced,
    multiplier,
)
from wootters_reference import SIGMA_YY, r_matrix, spin_flip

NO_DECAY = np.ones(3)


def closed_form(A, B):
    """The closed forms' coefficient array: A, B and D = A on the last axis."""
    return np.stack([A, B, A], axis=-1)


def random_state(rng):
    return PureState2Q.normalized(*(rng.normal(size=4) + 1j * rng.normal(size=4)))


def random_coeffs(rng):
    # magnitudes below 1, generic phases
    a = rng.uniform(0.2, 0.999) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
    b = rng.uniform(0.2, 0.999) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
    return closed_form(a, b)


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
        np.testing.assert_array_equal(got, st.density())


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


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_multiplier_is_hermitian_with_unit_diagonal_and_protected_entry(shape):
    rng = np.random.default_rng(len(shape))
    for _ in range(20):
        t = rng.uniform(0.0, 50.0, size=shape)
        r, phase = rng.uniform(size=(2, 3) + shape)
        A, B, D = r * np.exp(2j * np.pi * phase)
        xi0 = rng.uniform(0.0, 3.0)
        m = multiplier(t, xi0, np.stack([A, B, D], axis=-1))
        assert m.shape == shape + (4, 4)
        assert np.array_equal(m, np.swapaxes(m, -1, -2).conj())
        assert np.all(m[..., range(4), range(4)] == 1.0)
        assert np.all(m[..., 1, 2] == 1.0)
        p = np.exp(0.5j * xi0 * t)
        for i, j, want in ((0, 1, A * p), (0, 2, A * p), (1, 3, D / p), (2, 3, D / p)):
            np.testing.assert_allclose(m[..., i, j], want, rtol=1e-13)
        assert np.array_equal(m[..., 0, 3], B)
        # the closed forms are the same multiplier with D = A
        st = random_state(rng)
        rho = evolve_reduced(st, t, xi0, closed_form(A, B))
        assert np.array_equal(rho, st.density() * multiplier(t, xi0, closed_form(A, B)))
        if shape == ():
            # a (3,) array, with a Python float time
            rho = evolve_reduced(st, 1.0, xi0, closed_form(A, B))
            assert np.array_equal(rho, st.density() * multiplier(1.0, xi0, closed_form(A, B)))


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
        assert r == pytest.approx(complex(co[0]), abs=1e-13)
    assert rho[0, 3] / (st.alpha * np.conj(st.delta)) == pytest.approx(
        complex(co[1]), abs=1e-13
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
        ref = _reference_r(st, complex(co[0]), complex(co[1]), t, xi0)
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
    B = complex(co[1])
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


def pure_concurrence(st: PureState2Q) -> float:
    """Concurrence 2|alpha delta - beta gamma| of a pure state."""
    return 2.0 * abs(st.alpha * st.delta - st.beta * st.gamma)


def test_pure_concurrence_values():
    # the Wootters route on the four case states against their pure-state values
    for case, want in ((1, 1.0), (2, 1.0), (3, 0.0), (4, 0.0)):
        amps = case_state(case).amplitudes()
        assert pure_concurrence(case_state(case)) == pytest.approx(want, abs=1e-15)
        assert concurrence(np.outer(amps, amps.conj())).c == pytest.approx(want, abs=1e-12)


def test_pure_concurrence_matches_wootters():
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


@pytest.mark.parametrize("scale", [2.0**700, 2.0**-600, 2.0**-1074, 2.0**1023,
                                   1e200, 1e-170, 1e308, 1e-320])
def test_normalized_at_any_finite_scale(scale):
    # the squared norm overflows or underflows; the rescale is by an exact
    # power of two, so a power-of-two scale gives the bits of scale 1
    unit = PureState2Q.normalized(1.0, 1.0, 0.0, 1j).amplitudes()
    got = PureState2Q.normalized(scale, scale, 0.0, scale * 1j).amplitudes()
    if math.frexp(scale)[0] == 0.5:
        assert got.tolist() == unit.tolist()
    np.testing.assert_allclose(got, unit, rtol=1e-15)


def test_subnormal_amplitudes_normalize_as_at_normal_scale():
    # abs() of a subnormal amplitude rounds to the subnormal grid; the parts
    # are rescaled by a power of two before any modulus is taken
    amps = [1.84806129634e-313 - 1.670805567246e-312j, 1.3466419847e-313 - 3.27182143464e-313j,
            2.7746559498e-313 - 8.0449556044e-313j, -8.17642851865e-313 - 6.3124390262e-313j]
    want = PureState2Q.normalized(*(a * 2.0**1000 for a in amps)).amplitudes()
    assert PureState2Q.normalized(*amps).amplitudes().tolist() == want.tolist()


def test_amplitudes_whose_modulus_overflows():
    # abs() of each amplitude overflows; the state takes an exact power-of-two
    # rescale by its largest part first, and a direct construction is invalid
    got = PureState2Q.normalized(1.5e308 + 1.5e308j, 1e308, -1e308j, 0.0).amplitudes()
    want = PureState2Q.normalized(1.5 + 1.5j, 1.0, -1j, 0.0).amplitudes()
    np.testing.assert_allclose(got, want, rtol=1e-15)
    for huge in (1e200, 1.5e308 + 1.5e308j):
        with pytest.raises(InvalidState, match="norm"):
            PureState2Q(huge, 0.0, 0.0, 0.0)


def test_case_state_validation():
    for case in (1, 2, 3, 4):
        amps = case_state(case).amplitudes()
        assert abs(np.vdot(amps, amps) - 1.0) < 1e-14
    with pytest.raises(InvalidParams):
        case_state(5)


def test_evolve_rejects_oversized_coefficients():
    # |x| = 1 + 1e-6 or nan in any of A, B and D, for a scalar and a 1-D time:
    # on two occupied coupling levels this bound is the whole positivity check
    for column in range(3):
        for t in (1.0, np.array([0.0, 1.0])):
            for bad in ((1.0 + 1e-6) * np.exp(0.3j), np.nan, complex(0.5, np.nan)):
                coef = np.ones(np.shape(t) + (3,), dtype=complex)
                coef[..., column] = bad
                with pytest.raises(InvalidParams, match="exceeds 1"):
                    evolve_reduced(case_state(2), t, 0.0, coef)
        # rounding above 1 passes
        coef = np.ones(3)
        coef[column] = 1.0 + 1e-13
        assert np.isfinite(evolve_reduced(case_state(2), 1.0, 0.0, coef)).all()


@pytest.mark.parametrize("t, shape", [
    (1.0, (2,)), (1.0, (1, 3)), ([0.0, 1.0, 2.0], (3, 2)), ([0.0, 1.0, 2.0], (3,)),
    ([0.0, 1.0, 2.0], (1, 3)),
])
def test_evolve_rejects_a_coefficient_array_of_another_shape(t, shape):
    # only t.shape + (3,) fits: an array of A and B alone, one row for a
    # whole grid, or a grid's rows for one time are refused
    with pytest.raises(InvalidParams, match="coefficients of shape"):
        evolve_reduced(case_state(2), np.array(t), 0.0, np.ones(shape))


def test_evolve_rejects_an_overflowing_qubit_phase():
    # with xi0 = 2**52 the qubit phase xi0 t/2 is 2**52 at t = 2, the bound
    # exactly, and 2**52 - 1 one ulp of t below it
    times = np.array([0.0, 1.0, np.nextafter(2.0, 0.0), 2.0])
    with pytest.raises(InvalidParams, match=r"^qubit phase \|xi0 t\|/2 = 4\.5e\+15 .* at t=2\.0$"):
        evolve_reduced(case_state(4), times, 2.0**52, np.ones((4, 3)))
    head = np.ones((3, 3))
    assert np.isfinite(evolve_reduced(case_state(4), times[:3], 2.0**52, head)).all()


def test_validate_density():
    # concurrence holds the density checks: what evolve_reduced forms passes
    # them, and each near-miss below is refused
    rng = np.random.default_rng(30)
    concurrence(np.eye(4, dtype=complex) / 4)
    for t in (0.0, 0.7, 3.0):
        concurrence(evolve_reduced(random_state(rng), t, 0.3, NO_DECAY))
    with pytest.raises(NotADensityMatrix):
        concurrence(np.eye(3, dtype=complex) / 3)
    with pytest.raises(NotADensityMatrix):
        concurrence(np.eye(4, dtype=complex))  # trace 4
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.1
    with pytest.raises(NotADensityMatrix):
        concurrence(bad)
    nan = np.full((4, 4), np.nan, dtype=complex)
    with pytest.raises(NotADensityMatrix):
        concurrence(nan)
