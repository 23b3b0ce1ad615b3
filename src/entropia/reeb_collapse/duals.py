"""Values with their first and second derivatives, for the profile
constructions.

The profiles f, g and the Dehn twist tau are blends of smooth steps, and
h = f g' - f' g and the flow Jacobians need their first two r
derivatives.  `smooth_step_on` writes the step and its derivatives out in
closed form; `product` and `blend` apply the product rule.  The order
of operations in each formula is fixed: the exact pins of
tests/test_reeb_pins.py hold to the bit, and reordering a sum or a
product can move the last bits.

`Dual` is a plain (v, d1, d2) record.  It stays a class with its own
`__init__`, not a tuple, because perfbench's tracer counts profile
evaluations by wrapping `Dual.__init__`; the record can go once the
program traces itself (ROADMAP A).
"""

import numpy as np


class Dual:
    """A value v with its first and second derivatives d1 and d2; each is
    an array or a scalar that broadcasts against the other two."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1, d2):
        self.v, self.d1, self.d2 = v, d1, d2


def product(a: Dual, b: Dual) -> Dual:
    """a b with its derivatives by the product rule."""
    return Dual(a.v * b.v, a.d1 * b.v + a.v * b.d1,
                a.d2 * b.v + 2.0 * a.d1 * b.d1 + a.v * b.d2)


def blend(w: Dual, lo: Dual, hi: Dual) -> Dual:
    """(1 - w) lo + w hi with its derivatives."""
    c, c1, c2 = 1.0 - w.v, -w.d1, -w.d2
    return Dual(
        c * lo.v + w.v * hi.v,
        (c1 * lo.v + c * lo.d1) + (w.d1 * hi.v + w.v * hi.d1),
        (c2 * lo.v + 2.0 * c1 * lo.d1 + c * lo.d2)
        + (w.d2 * hi.v + 2.0 * w.d1 * hi.d1 + w.v * hi.d2),
    )


# clamp for the flat step: beyond this the exponent under/overflows and the
# function is flat to far below machine precision anyway
_STEP_CLIP = 0.004


def smooth_step_on(x: Dual, a: float, b: float) -> Dual:
    """C-infinity step from 0 at a to 1 at b (a < b): S((x - a) / (b - a))
    with S(u) = 1 / (1 + exp(1/u - 1/(1-u))).

    Identically 0 for x <= a and 1 for x >= b with infinitely flat contact.
    Its steepest slope in u is 2, at the midpoint.
    """
    k = 1.0 / (b - a)
    u = (x.v - a) * k
    du, ddu = x.d1 * k, x.d2 * k
    lo = u <= _STEP_CLIP
    hi = u >= 1.0 - _STEP_CLIP
    mid = ~(lo | hi)
    u = np.where(mid, u, 0.5)
    ia, ib = 1.0 / u, 1.0 / (1.0 - u)
    # q = 1/u - 1/(1 - u), then S = 1 / (1 + e^q)
    q = ia - ib
    q1 = -du * ia ** 2 - du * ib ** 2
    q2 = ((2.0 * du ** 2 * ia - ddu) * ia ** 2
          - (2.0 * du ** 2 * ib + ddu) * ib ** 2)
    e = np.exp(q)
    e1, e2 = q1 * e, (q2 + q1 ** 2) * e
    inv = 1.0 / (e + 1.0)
    return Dual(np.where(mid, inv, np.where(lo, 0.0, 1.0)),
                np.where(mid, -e1 * inv ** 2, 0.0),
                np.where(mid, (2.0 * e1 ** 2 * inv - e2) * inv ** 2, 0.0))
