"""Radial profile functions (f, g, h = f g' - f' g) for the entropy-collapse
contact form on the solid torus glued to the mapping torus.

The one family lives on [0, R_EPS] = [0, 1]: f decreases from 2 - r^4
behaviour at 0 to 2 - r at 1; g rises from r^2/2 to 1 with all
derivatives vanishing at 1.  Near 0 this gives h(r) = r (2 + r^4)
identically, and near 1 the form reads dtheta + s (2 - r) dx, the collar
of the mapping torus.

The construction is a closed-form blend of smooth steps and takes no
input, so tests/test_reeb_collapse.py, not the program, asserts its
properties on a dense grid.  h, the solid-torus Reeb speeds (-f'/h, g'/h)
and their r derivatives all come from one evaluation of f and g (`_fgh`).
"""

import numpy as np

from .duals import Dual, blend, product, smooth_step_on


# Windows (start, end) of the smooth steps that blend the branches of f and
# g.  Each step is identically 0 before its window and 1 after it, so the
# profiles are smooth but not analytic at the window ends; quadratures of
# h split there (BREAKPOINTS).
_DIM3_F_WINDOW = (0.15, 0.85)  # r^4 into r, in r
_DIM3_G_WINDOW = (0.25, 1.0)  # r^2/2 into 1, in r

R_EPS = 1.0

# 0, R_EPS and the window ends of every smooth step in f and g, sorted: f
# and g are analytic between two neighbours
BREAKPOINTS = np.array(sorted({0.0, *_DIM3_F_WINDOW, *_DIM3_G_WINDOW, R_EPS}))

# above the largest |g'/h| and |(g'/h)'| on (0, R_EPS], 5.5234158... at r =
# 0.8736: g'/(s h) and its r derivative are finite where X_SPEED_PEAK / s is
X_SPEED_PEAK = 5.5234159

# the branch 1 of g, as a record with zero derivatives
_ONE = Dual(1.0, 0.0, 0.0)


def _f_dual(r) -> Dual:
    """f at r with its first two r derivatives: f = 2 - m, m blending r^4
    into r."""
    r = Dual(np.asarray(r, dtype=float), 1.0, 0.0)
    w = smooth_step_on(r, *_DIM3_F_WINDOW)
    r2 = product(r, r)
    m = blend(w, product(r2, r2), r)
    # 0.0 - d, not -d: a zero derivative (f'' where f = 2 - r) is +0.0
    return Dual(2.0 - m.v, 0.0 - m.d1, 0.0 - m.d2)


def _g_dual(r) -> Dual:
    """g at r with its first two r derivatives: g = (1-W) r^2/2 + W, W
    flat-one exactly at r = 1."""
    r = Dual(np.asarray(r, dtype=float), 1.0, 0.0)
    r2 = product(r, r)
    half_r2 = Dual(r2.v * 0.5, r2.d1 * 0.5, r2.d2 * 0.5)
    return blend(smooth_step_on(r, *_DIM3_G_WINDOW), half_r2, _ONE)


def f(r):
    return _f_dual(r).v


def fp(r):
    return _f_dual(r).d1


def g(r):
    return _g_dual(r).v


def gp(r):
    return _g_dual(r).d1


def _fgh(r):
    """f and g as Duals at r, and h = f g' - f' g: the one evaluation
    behind h, the Reeb speeds and their derivatives."""
    f, g = _f_dual(r), _g_dual(r)
    return f, g, f.v * g.d1 - f.d1 * g.v


def h(r):
    return _fgh(r)[2]


def speeds(r):
    """(-f'/h, g'/h): the theta component of the Reeb field and its x
    component before the 1/s factor."""
    f, g, h = _fgh(r)
    return -f.d1 / h, g.d1 / h


def speeds_and_derivatives(r):
    """The speeds and their d/dr, (ang, fib, d_ang, d_fib), for flow
    Jacobians; ang and fib equal `speeds(r)` bit for bit."""
    f, g, h = _fgh(r)
    hp = f.v * g.d2 - f.d2 * g.v
    d_ang = -(f.d2 * h - f.d1 * hp) / h ** 2
    d_fib = (g.d2 * h - g.d1 * hp) / h ** 2
    return -f.d1 / h, g.d1 / h, d_ang, d_fib
