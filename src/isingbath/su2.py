"""Closed-form 2x2 exponentials and trace identities for the sigma_x/sigma_z family.

Every bath operator in the mean-field model is a real combination
a*sigma_x + b*sigma_z, i.e. a traceless real-symmetric 2x2 matrix.  For this
two-parameter family the unitary exponential, the per-spin Gibbs state
g = I/2 + G and the trace of exp(i*I1) g exp(i*I2) have closed forms in terms
of q = sqrt(a^2 + b^2).  The trace is exact (not a commuting approximation):
the product of any three family members has a traceless sigma_x/sigma_z
part, so the naive four-term expansion loses nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams

# below this, evaluate sinc-like ratios by series to avoid 0/0
_SMALL_Q = 1e-4


@dataclass(frozen=True)
class TracelessXZ:
    """Coefficients of a*sigma_x + b*sigma_z, i.e. [[b, a], [a, -b]].

    a and b are floats or arrays that broadcast against each other; the
    functions below then broadcast over their common shape.
    """

    a: float | np.ndarray
    b: float | np.ndarray

    def __post_init__(self):
        bad = ~(np.isfinite(self.a) & np.isfinite(self.b))
        if bad.any():
            k = np.flatnonzero(bad)[0]
            a, b = np.broadcast_arrays(self.a, self.b)
            raise InvalidParams(f"non-finite coefficients ({a.flat[k]}, {b.flat[k]})")

    @property
    def q(self) -> float | np.ndarray:
        return np.hypot(self.a, self.b)


# _xz_matrix, exp_imag and single_spin_gibbs have no caller in the package:
# the benchmark's single-qubit reference (bench/checks.py) and its tracer
# (bench/layers.py), tests/dense_reference.py and the explicit-propagator
# reference in tests/test_oracle.py use them; they go once those move
def _xz_matrix(c, a, b) -> np.ndarray:
    """c I + a sigma_x + b sigma_z, shaped (..., 2, 2) over the broadcast
    shape of c, a and b."""
    c, a, b = np.broadcast_arrays(c, a, b)
    return np.stack([np.stack([c + b, a], axis=-1), np.stack([a, c - b], axis=-1)], axis=-2)


def _series_or_ratio(q, series, ratio):
    """series(q) where |q| < _SMALL_Q, else ratio(q); each side only ever
    sees its own entries, so neither evaluates 0/0 nor overflows q*q."""
    small = np.abs(q) < _SMALL_Q
    return np.where(
        small, series(np.where(small, q, 0.0)), ratio(np.where(small, 1.0, q))
    )[()]


def _sinc(q):
    """sin(q)/q with the q -> 0 limit."""
    return _series_or_ratio(q, lambda x: 1.0 - x * x / 6.0, lambda x: np.sin(x) / x)


def _tanhc(q):
    """tanh(q)/q with the q -> 0 limit."""
    return _series_or_ratio(q, lambda x: 1.0 - x * x / 3.0, lambda x: np.tanh(x) / x)


def exp_imag(M: TracelessXZ) -> np.ndarray:
    """exp(i M) = cos(q) I + i (sin(q)/q) M; always unitary."""
    q = M.q
    s = 1j * _sinc(q)
    return _xz_matrix(np.cos(q), s * M.a, s * M.b)


def pair_trace(X: TracelessXZ, Y: TracelessXZ) -> float:
    """tr(XY) = 2 (a_x a_y + b_x b_y) for this family."""
    return 2.0 * (X.a * Y.a + X.b * Y.b)


def trace_triple(I1: TracelessXZ, G: TracelessXZ, I2: TracelessXZ) -> complex:
    """tr[exp(i I1) (I/2 + G) exp(i I2)] in closed form.

    Expanding each exponential as cos(q) I + i (sin(q)/q) M leaves four terms
    with nonzero trace; I1*G*I2 is traceless for this family, so the formula
    is exact.  G from gibbs_part has |G| <= 1/2, so no term overflows.
    """
    x, z = I1.q, I2.q
    cos_x, cos_z = np.cos(x), np.cos(z)
    sinc_x, sinc_z = _sinc(x), _sinc(z)
    out = cos_x * cos_z
    out = out + 1j * sinc_x * cos_z * pair_trace(I1, G)
    out = out + 1j * cos_x * sinc_z * pair_trace(G, I2)
    out = out - 0.5 * sinc_x * sinc_z * pair_trace(I1, I2)
    return out


def gibbs_part(w: float, h: float, T: float) -> TracelessXZ:
    """G of one bath spin's thermal state g = I/2 + G in fields (w, h).

    g = exp((w S^x + h S^z)/T) / tr, S = sigma/2, so G = tanh(q) (a sigma_x +
    b sigma_z)/(2q) with a = w/2T, b = h/2T: |G| <= 1/2 at any field/temperature
    ratio, and T -> 0 gives the projector onto the upper eigenstate.
    """
    if T <= 0:
        raise InvalidParams(f"temperature must be positive, got {T}")
    a = w / (2.0 * T)
    b = h / (2.0 * T)
    q = math.hypot(a, b)
    if math.isinf(q):  # tanh(q) = 1, and (a, b)/q from (w, h) scaled to 1, not 0 * inf
        s = max(abs(w), abs(h))
        a, b = w / s, h / s
        f = 0.5 / math.hypot(a, b)
    else:
        f = 0.5 * _tanhc(q)
    return TracelessXZ(f * a, f * b)


def single_spin_gibbs(w: float, h: float, T: float) -> np.ndarray:
    """g = I/2 + gibbs_part(w, h, T) as a real 2x2 matrix."""
    G = gibbs_part(w, h, T)
    return _xz_matrix(0.5, G.a, G.b)
