"""60-digit references, independent of the code under test: the mean-field
order parameter (the root of tanh(Theta/2T) = Theta/J by bisection) and
the per-spin bath echo tr[U_a g U_b^dag]^N of the exact oracle."""

import functools

import mpmath


@functools.lru_cache(maxsize=None)
def order_root(J, w, T):
    """Theta from a 60-digit bisection on [w, J], at the exact doubles given."""
    with mpmath.workdps(60):
        J, w, T = mpmath.mpf(J), mpmath.mpf(w), mpmath.mpf(T)
        lo, hi = w, J
        for _ in range(300):
            mid = (lo + hi) / 2
            if mpmath.tanh(mid / (2 * T)) > mid / J:
                lo = mid
            else:
                hi = mid
        return hi


@functools.lru_cache(maxsize=None)
def echo_power(J, w, T, J0, N, t, a, b):
    """tr[U_a g U_b^dag]^N at 60 digits, from 2x2 mpmath.expm at the exact
    doubles given: the per-spin bath factor of the coupling level pair (a, b).

    U_l = exp(i t (w S^x + h_l S^z)) with h_l = h0 + (J0/sqrt N) l, and
    g = exp((w S^x + h0 S^z)/T) / tr, where h0 = 2 m J = sqrt(Theta^2 - w^2)
    at the order_root Theta and S = sigma/2.
    """
    theta = order_root(J, w, T)
    with mpmath.workdps(60):
        w, T, J0, t, a, b = map(mpmath.mpf, (w, T, J0, t, a, b))
        h0 = mpmath.sqrt(theta**2 - w**2)

        def spin(h):  # w S^x + h S^z
            return mpmath.matrix([[h, w], [w, -h]]) / 2

        def u(level):
            return mpmath.expm(1j * t * spin(h0 + J0 / mpmath.sqrt(N) * level))

        g = mpmath.expm(spin(h0) / T)
        echo = u(a) * g * u(b).H
        return complex(((echo[0, 0] + echo[1, 1]) / (g[0, 0] + g[1, 1])) ** N)
