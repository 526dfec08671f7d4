"""60-digit references, independent of the code under test: the mean-field
order parameter (the root of tanh(Theta/2T) = Theta/J by bisection), the
per-spin bath echo tr[U_a g U_b^dag]^N of the exact oracle, and the
Wootters concurrence of a dephased pure state."""

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


# the coupling level of |00>, |01>, |10>, |11>
_LEVEL_OF = (0, 1, 1, 2)


def dephased_wootters(psi, xi0, t, coef):
    """Wootters' C = max(l1 - l2 - l3 - l4, 0) at 60 digits, the l_i being the
    square roots of the eigenvalues of R = rho (sy x sy) rho^* (sy x sy), for
    rho_ij = psi_i psi_j^* M3[l_i, l_j] at the exact doubles given.

    M3 is the unit-diagonal level multiplier with A p between levels 0 and 1,
    B between 0 and 2 and D p^* between 1 and 2, p = exp(i xi0 t / 2); coef
    holds A, B and D.  A negative or complex eigenvalue of R counts its real
    part clipped at 0.
    """
    with mpmath.workdps(60):
        psi = [mpmath.mpc(complex(z)) for z in psi]
        A, B, D = (mpmath.mpc(complex(z)) for z in coef)
        p = mpmath.expj(mpmath.mpf(xi0) * mpmath.mpf(t) / 2)
        upper = {(0, 1): A * p, (0, 2): B, (1, 2): D * mpmath.conj(p)}
        m3 = mpmath.eye(3)
        for (i, j), z in upper.items():
            m3[i, j], m3[j, i] = z, mpmath.conj(z)
        rho = mpmath.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                rho[i, j] = psi[i] * mpmath.conj(psi[j]) * m3[_LEVEL_OF[i], _LEVEL_OF[j]]
        yy = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        evals = mpmath.eig(rho * yy * rho.conjugate() * yy, left=False, right=False)
        l1, l2, l3, l4 = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in evals), reverse=True)
        return float(max(l1 - l2 - l3 - l4, 0))
