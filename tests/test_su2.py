import math
import warnings

import numpy as np
import pytest

from isingbath.errors import InvalidParams
from isingbath.su2 import (
    TracelessXZ,
    exp_imag,
    gibbs_part,
    pair_trace,
    single_spin_gibbs,
    trace_triple,
)
from su2_reference import series_exp, xz_matrix


def brute_triple(i1, r, i2):
    """tr[exp(i I1) exp(R) exp(i I2)] / tr exp(R) from series exponentials."""
    gibbs = series_exp(xz_matrix(r))
    return np.trace(
        series_exp(1j * xz_matrix(i1)) @ gibbs @ series_exp(1j * xz_matrix(i2))
    ) / np.trace(gibbs)


def gibbs_of(r):
    """G of exp(R) / tr exp(R): gibbs_part at fields (2a, 2b) and T = 1."""
    return gibbs_part(2.0 * r.a, 2.0 * r.b, 1.0)


def test_exp_of_zero_is_identity():
    z = TracelessXZ(0.0, 0.0)
    np.testing.assert_allclose(exp_imag(z), np.eye(2), atol=1e-15)


def test_exp_imag_matches_series():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        m = TracelessXZ(*rng.uniform(-3, 3, size=2))
        assert np.abs(exp_imag(m) - series_exp(1j * xz_matrix(m))).max() < 1e-12


def test_exp_imag_unitary():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        u = exp_imag(TracelessXZ(*rng.uniform(-8, 8, size=2)))
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-14


def test_traces_closed_form():
    rng = np.random.default_rng(5)
    z = TracelessXZ(0.0, 0.0)
    for _ in range(300):
        m = TracelessXZ(*rng.uniform(-4, 4, size=2))
        # trace_triple with identity outer factors is tr g
        assert trace_triple(z, gibbs_of(m), z) == 1.0
        assert abs(np.trace(exp_imag(m)) - 2.0 * math.cos(m.q)) < 1e-13


def test_small_q_series_branch():
    # exercise the |q| < 1e-4 series against the generic formula
    m = TracelessXZ(3e-5, -4e-5)
    assert np.abs(exp_imag(m) - series_exp(1j * xz_matrix(m))).max() < 1e-15
    # the Gibbs state's tanh(q)/q series, through the triple trace
    i1, i2 = TracelessXZ(0.3, -0.2), TracelessXZ(-0.1, 0.4)
    assert abs(trace_triple(i1, gibbs_of(m), i2) - brute_triple(i1, m, i2)) < 1e-15


def test_trace_triple_all_zero():
    z = TracelessXZ(0.0, 0.0)
    assert trace_triple(z, z, z) == pytest.approx(1.0, abs=1e-15)


def test_trace_triple_degenerate_factor():
    rng = np.random.default_rng(6)
    z = TracelessXZ(0.0, 0.0)
    for _ in range(100):
        r = TracelessXZ(*rng.uniform(-2, 2, size=2))
        i2 = TracelessXZ(*rng.uniform(-2, 2, size=2))
        gibbs = series_exp(xz_matrix(r))
        direct = np.trace(gibbs @ exp_imag(i2)) / np.trace(gibbs)
        assert abs(trace_triple(z, gibbs_of(r), i2) - direct) < 1e-13


def test_trace_triple_vs_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        i1, r, i2 = (TracelessXZ(*rng.uniform(-2, 2, size=2)) for _ in range(3))
        assert abs(trace_triple(i1, gibbs_of(r), i2) - brute_triple(i1, r, i2)) < 1e-13


def test_trace_triple_sigma_x_reflection_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(300):
        i1, r, i2 = (TracelessXZ(*rng.uniform(-2, 2, size=2)) for _ in range(3))
        flipped = (TracelessXZ(-m.a, m.b) for m in (i1, gibbs_of(r), i2))
        assert trace_triple(i1, gibbs_of(r), i2) == pytest.approx(
            trace_triple(*flipped), abs=1e-13
        )


def test_pair_trace():
    x = TracelessXZ(1.5, -0.5)
    y = TracelessXZ(0.25, 2.0)
    assert pair_trace(x, y) == pytest.approx(
        np.trace(xz_matrix(x) @ xz_matrix(y)).real, abs=1e-14
    )


def test_gibbs_isotropic_limit():
    np.testing.assert_allclose(single_spin_gibbs(0.0, 0.0, 1.0), np.eye(2) / 2)


def test_gibbs_ground_state_limit():
    # T -> 0 with h > 0 projects onto the upper S^z eigenstate |0>
    g = single_spin_gibbs(0.0, 2.0, 1e-6)
    np.testing.assert_allclose(g, np.diag([1.0, 0.0]), atol=1e-15)
    # field along -z projects onto |1>
    g = single_spin_gibbs(0.0, -2.0, 1e-6)
    np.testing.assert_allclose(g, np.diag([0.0, 1.0]), atol=1e-15)


def test_gibbs_matches_normalized_exponential():
    rng = np.random.default_rng(9)
    for _ in range(300):
        w, h = rng.uniform(-3, 3, size=2)
        T = rng.uniform(0.2, 5.0)
        m = TracelessXZ(w / (2 * T), h / (2 * T))
        expected = series_exp(xz_matrix(m), terms=80).real / (2.0 * math.cosh(m.q))
        assert np.abs(single_spin_gibbs(w, h, T) - expected).max() < 1e-13


def test_gibbs_past_an_overflowing_field_is_the_field_direction_projector():
    # a = w/(2T) overflows to inf: the T -> 0 limit, with no 0 * inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = single_spin_gibbs(1e300, 0.0, 1e-10)
        assert g.tobytes() == np.full((2, 2), 0.5).tobytes()
        assert single_spin_gibbs(0.0, -1e300, 1e-10).tobytes() == np.diag([0.0, 1.0]).tobytes()
        # finite a and b whose hypot overflows: the same limit, not tanhc(inf) * a = 0
        g = single_spin_gibbs(1e308, 1e308, 0.5)
    np.testing.assert_allclose(g, single_spin_gibbs(1.0, 1.0, 1e-3), rtol=0, atol=2e-16)
    np.testing.assert_allclose(g @ g, g, rtol=0, atol=1e-15)


def test_gibbs_is_density_matrix():
    rng = np.random.default_rng(10)
    for _ in range(200):
        g = single_spin_gibbs(rng.uniform(0, 3), rng.uniform(-3, 3), rng.uniform(0.05, 5))
        assert abs(np.trace(g) - 1.0) < 1e-14
        assert np.abs(g - g.conj().T).max() < 1e-15
        assert np.linalg.eigvalsh(g).min() >= -1e-15


@pytest.mark.parametrize("q", [800.0, 1e6, 1e300, math.inf])
def test_trace_triple_is_finite_past_cosh_overflow(q):
    # g tends to the projector onto the field's upper eigenvector, so the
    # trace is <up| exp(i I2) exp(i I1) |up>; at q = inf, w/(2T) overflows
    scale, T = (2.0 * q, 1.0) if math.isfinite(q) else (1e10, 1e-300)
    i1, i2 = TracelessXZ(0.1, 0.3), TracelessXZ(-0.4, 0.2)
    for a, b, up in ((0.0, 1.0, [1.0, 0.0]), (0.0, -1.0, [0.0, 1.0]), (1.0, 0.0, [1.0, 1.0])):
        up = np.array(up) / np.linalg.norm(up)
        want = up @ exp_imag(i2) @ exp_imag(i1) @ up
        assert abs(trace_triple(i1, gibbs_part(a * scale, b * scale, T), i2) - want) < 1e-14


def test_invalid_inputs():
    with pytest.raises(InvalidParams):
        TracelessXZ(float("nan"), 0.0)
    with pytest.raises(InvalidParams):
        single_spin_gibbs(1.0, 1.0, 0.0)


def _array_fields(rng, shape):
    """Random (a, b) arrays with q spread over both sides of the small-q
    series switch, exact zeros included."""
    scale = 10.0 ** rng.uniform(-9, 1, size=shape)
    a, b = rng.uniform(-1, 1, size=(2,) + shape) * scale
    a.flat[0] = b.flat[0] = 0.0
    return a, b


def test_exp_imag_broadcasts_elementwise():
    rng = np.random.default_rng(11)
    a, b = _array_fields(rng, (7, 30))
    got = exp_imag(TracelessXZ(a, b))
    assert got.shape == (7, 30, 2, 2)
    for idx in np.ndindex(a.shape):
        np.testing.assert_allclose(
            got[idx], exp_imag(TracelessXZ(float(a[idx]), float(b[idx]))), rtol=0, atol=2e-16
        )


def test_trace_triple_broadcasts_elementwise():
    rng = np.random.default_rng(12)
    i1, i2 = (TracelessXZ(*_array_fields(rng, (200,))) for _ in range(2))
    r = gibbs_part(1.4, -2.6, 1.0)
    got = trace_triple(i1, r, i2)
    assert got.shape == (200,)
    want = [
        trace_triple(TracelessXZ(float(i1.a[k]), float(i1.b[k])), r,
                     TracelessXZ(float(i2.a[k]), float(i2.b[k])))
        for k in range(200)
    ]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_scalar_fields_keep_scalar_results():
    m = TracelessXZ(0.3, -0.4)
    assert exp_imag(m).shape == (2, 2)
    assert isinstance(trace_triple(m, m, m), complex)
    assert single_spin_gibbs(0.3, 0.4, 1.0).dtype == np.float64


def test_series_branch_meets_ratio_at_small_q_switch():
    # at q = 0 and on both sides of the switch, no 0/0 and no warning
    q = np.array([0.0, 1e-12, 0.999e-4, 1.001e-4, 1.0])
    m = TracelessXZ(np.zeros_like(q), q)
    got = exp_imag(m)
    for k, qk in enumerate(q):
        np.testing.assert_allclose(got[k], series_exp(1j * xz_matrix(TracelessXZ(0.0, qk))),
                                   rtol=0, atol=1e-15)


def test_invalid_array_fields():
    with pytest.raises(InvalidParams):
        TracelessXZ(np.array([0.0, np.inf]), 0.0)
