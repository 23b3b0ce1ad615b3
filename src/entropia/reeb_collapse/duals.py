"""Forward-mode second-order derivatives for the profile constructions.

The entropy-collapse profiles are built from smooth-step and flat-exponential
primitives; their first and second derivatives are needed analytically (the
contact volume density uses h = f g' - f' g, flow Jacobians use d/dr of
g'/h and f'/h).  A tiny (value, d1, d2) triple with arithmetic and exp is
all that takes.
"""

import numpy as np


class Dual:
    """Value with first and second derivative, broadcasting over arrays."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v = np.asarray(v, dtype=float)
        self.d1 = np.broadcast_to(np.asarray(d1, dtype=float), self.v.shape).copy() \
            if np.shape(d1) != self.v.shape else np.asarray(d1, dtype=float)
        self.d2 = np.broadcast_to(np.asarray(d2, dtype=float), self.v.shape).copy() \
            if np.shape(d2) != self.v.shape else np.asarray(d2, dtype=float)

    @classmethod
    def variable(cls, v):
        v = np.asarray(v, dtype=float)
        return cls(v, np.ones_like(v), np.zeros_like(v))

    @classmethod
    def constant(cls, v):
        v = np.asarray(v, dtype=float)
        return cls(v, np.zeros_like(v), np.zeros_like(v))

    def _coerce(self, other):
        return other if isinstance(other, Dual) else Dual.constant(
            np.broadcast_to(np.asarray(other, float), self.v.shape))

    def __add__(self, other):
        o = self._coerce(other)
        return Dual(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.v, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        return Dual(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    __rmul__ = __mul__

    def reciprocal(self):
        inv = 1.0 / self.v
        return Dual(
            inv,
            -self.d1 * inv ** 2,
            (2.0 * self.d1 ** 2 * inv - self.d2) * inv ** 2,
        )

    def exp(self):
        e = np.exp(self.v)
        return Dual(e, self.d1 * e, (self.d2 + self.d1 ** 2) * e)

    def where(self, mask, other):
        """Select self where mask, other elsewhere (both Duals)."""
        o = self._coerce(other)
        return Dual(
            np.where(mask, self.v, o.v),
            np.where(mask, self.d1, o.d1),
            np.where(mask, self.d2, o.d2),
        )


# clamp for the flat step: beyond this the exponent under/overflows and the
# function is flat to far below machine precision anyway
_STEP_CLIP = 0.004


def smooth_step_on(x: Dual, a: float, b: float, p: float = 1.0) -> Dual:
    """C-infinity step from 0 at a to 1 at b (a < b): S_p((x - a) / (b - a))
    with S_p(u) = 1 / (1 + exp(p (1/u - 1/(1-u)))).

    Identically 0 for x <= a and 1 for x >= b with infinitely flat contact.
    The parameter p < 1 slows the step; the profile constructions use it to
    respect slope budgets.  The slope in u is 2p at the midpoint, and that
    is the maximal slope only for p >= sqrt(3)/2.  For smaller p the
    midpoint is a local minimum of the slope and the maximum moves off it,
    symmetrically: 1.534 at u = 0.21 and 0.79 for p = 0.5, 1.503 for
    p = 0.55, 1.491 for p = 0.6; no p takes it below about 1.491.
    """
    u = (x - a) * (1.0 / (b - a))
    lo = u.v <= _STEP_CLIP
    hi = u.v >= 1.0 - _STEP_CLIP
    mid = ~(lo | hi)
    safe = Dual(np.where(mid, u.v, 0.5), u.d1, u.d2)
    q = (safe.reciprocal() - (1.0 - safe).reciprocal()) * p
    s = (q.exp() + 1.0).reciprocal()
    zero = Dual.constant(np.zeros_like(u.v))
    one = Dual.constant(np.ones_like(u.v))
    return s.where(mid, zero.where(lo, one))
