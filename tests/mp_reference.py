"""60-digit reference for the mean-field order parameter: the root of
tanh(Theta/2T) = Theta/J by bisection, independent of the solvers."""

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
