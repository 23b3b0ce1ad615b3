"""Radial profile functions (f, g, h = f g' - f' g) for the entropy-collapse
contact form on the solid torus glued to the mapping torus.

The one family lives on [0, 1]: f decreases from 2 - r^4 behaviour at 0
to 2 - r at 1; g rises from r^2/2 to 1 with all derivatives vanishing at
1.  Near 0 this gives h(r) = r (2 + r^4) identically, and near 1 the form
reads dtheta + s (2 - r) dx, the collar of the mapping torus.

The construction is a closed-form blend of smooth steps.  A validator
samples the profiles densely and asserts every required property; the
construction itself carries no proofs.

h, the solid-torus Reeb speeds (-f'/h, g'/h) and their r derivatives all
come from one evaluation of f and g (`ProfileFunctions._fgh`), which the
validator shares.
"""

import numpy as np

from .duals import Dual, blend, product, smooth_step_on


# Windows (start, end) of the smooth steps that blend the branches of f and
# g.  Each step is identically 0 before its window and 1 after it, so the
# profiles are smooth but not analytic at the window ends; quadratures of
# h split there (ProfileFunctions.breakpoints).
_DIM3_F_WINDOW = (0.15, 0.85)  # r^4 into r, in r
_DIM3_G_WINDOW = (0.25, 1.0)  # r^2/2 into 1, in r

# the branch 1 of g, as a record with zero derivatives
_ONE = Dual(1.0, 0.0, 0.0)


class ProfileError(Exception):
    pass


class ProfileValidationError(ProfileError):
    pass


class ProfileFunctions:
    """Profile triple on [0, r_eps]; values and first two derivatives."""

    r_eps = 1.0

    def _f_dual(self, r) -> Dual:
        """f at r with its first two r derivatives: f = 2 - m, m blending
        r^4 into r."""
        r = Dual(np.asarray(r, dtype=float), 1.0, 0.0)
        w = smooth_step_on(r, *_DIM3_F_WINDOW)
        r2 = product(r, r)
        m = blend(w, product(r2, r2), r)
        # 0.0 - d, not -d: a zero derivative (f'' where f = 2 - r) is +0.0
        return Dual(2.0 - m.v, 0.0 - m.d1, 0.0 - m.d2)

    def _g_dual(self, r) -> Dual:
        """g at r with its first two r derivatives: g = (1-W) r^2/2 + W,
        W flat-one exactly at r = 1."""
        r = Dual(np.asarray(r, dtype=float), 1.0, 0.0)
        r2 = product(r, r)
        half_r2 = Dual(r2.v * 0.5, r2.d1 * 0.5, r2.d2 * 0.5)
        return blend(smooth_step_on(r, *_DIM3_G_WINDOW), half_r2, _ONE)

    @property
    def breakpoints(self):
        """0, r_eps and the window ends of every smooth step in f and g,
        sorted: f and g are analytic between two neighbours."""
        return np.array(sorted({0.0, *_DIM3_F_WINDOW, *_DIM3_G_WINDOW, self.r_eps}))

    # -- plain evaluators ----------------------------------------------------

    def f(self, r):
        return self._f_dual(r).v

    def fp(self, r):
        return self._f_dual(r).d1

    def g(self, r):
        return self._g_dual(r).v

    def gp(self, r):
        return self._g_dual(r).d1

    def _fgh(self, r):
        """f and g as Duals at r, and h = f g' - f' g: the one evaluation
        behind h, the Reeb speeds and their derivatives."""
        f, g = self._f_dual(r), self._g_dual(r)
        return f, g, f.v * g.d1 - f.d1 * g.v

    def h(self, r):
        return self._fgh(r)[2]

    def speeds(self, r):
        """(-f'/h, g'/h): the theta component of the Reeb field and its x
        component before the 1/s factor."""
        f, g, h = self._fgh(r)
        return -f.d1 / h, g.d1 / h

    def speeds_and_derivatives(self, r):
        """The speeds and their d/dr, (ang, fib, d_ang, d_fib), for flow
        Jacobians; ang and fib equal `speeds(r)` bit for bit."""
        f, g, h = self._fgh(r)
        hp = f.v * g.d2 - f.d2 * g.v
        d_ang = -(f.d2 * h - f.d1 * hp) / h ** 2
        d_fib = (g.d2 * h - g.d1 * hp) / h ** 2
        return -f.d1 / h, g.d1 / h, d_ang, d_fib


_N_VALIDATE = 10_000


def _check(cond, msg):
    if not cond:
        raise ProfileValidationError(msg)


# Constructions with infinitely flat contact have derivatives below the
# double-precision floor within ~0.5% of the flat endpoint; strict sign
# checks stop just short of it.
_FLAT_SKIN = 0.995


def _validate_dim3(p: ProfileFunctions):
    r = np.linspace(1e-9, 1.0, _N_VALIDATE)
    f, g, h = p._fgh(r)
    _check(np.all(f.d1 < 0.0), "dim3: f' must be negative on (0, 1]")
    near1 = r >= 0.9
    _check(np.max(np.abs(f.v[near1] - (2.0 - r[near1]))) < 1e-12,
           "dim3: f must equal 2 - r near 1")
    near0 = r <= 0.1
    _check(np.max(np.abs(f.v[near0] - (2.0 - r[near0] ** 4))) < 1e-12,
           "dim3: f must equal 2 - r^4 near 0")
    inner = (r > 0.0) & (r <= _FLAT_SKIN)
    _check(np.all(g.d1[inner] > 0.0), "dim3: g' must be positive on (0, 1)")
    _check(np.all(g.d1 >= 0.0), "dim3: g' must be nonnegative")
    g1 = p._g_dual(np.array([1.0]))
    _check(abs(g1.v[0] - 1.0) < 1e-12 and abs(g1.d1[0]) < 1e-12
           and abs(g1.d2[0]) < 1e-12, "dim3: g flat-one at 1")
    _check(np.max(np.abs(g.v[near0] - r[near0] ** 2 / 2)) < 1e-12,
           "dim3: g must equal r^2/2 near 0")
    small = r <= 0.05
    _check(np.max(np.abs(h[small] - r[small] * (2.0 + r[small] ** 4))) < 1e-10,
           "dim3: h must equal r(2 + r^4) near 0")
    _check(np.all(h > 0.0), "dim3: h must be positive on (0, 1]")


def build_profiles() -> ProfileFunctions:
    """Construct and validate the profile triple; s enters only downstream,
    in the contact form."""
    p = ProfileFunctions()
    _validate_dim3(p)
    return p
