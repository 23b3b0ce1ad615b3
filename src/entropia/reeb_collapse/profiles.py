"""Radial profile functions (f, g, h = f g' - f' g) for the entropy-collapse
contact forms on solid tori.

Two families:

dim3    on [0, 1]: f decreases from 2 - r^4 behaviour at 0 to 2 - r at 1;
        g rises from r^2/2 to 1 with all derivatives vanishing at 1.
        Near 0 this gives h(r) = r (2 + r^4) identically.

higher  on [0, r_eps], parameters 0 < s < r_eps/2: f = 1 near 0, passes
        through 1/2 at r_eps/2, equals s/r near r_eps, with slope bounded
        by 2/r_eps; g = r^2/2 near 0 and 1 on [r_eps/2, r_eps] with slope
        bounded by 4/r_eps.  Then h > 0 on (0, r_eps], h = r near 0,
        h <= 6/r_eps and g'/h <= 2.

The constructions are closed-form blends of smooth steps.  A validator
samples the profiles densely and asserts every required property; the
construction itself carries no proofs.

h, the solid-torus Reeb speeds (-f'/h, g'/h) and their r derivatives all
come from one evaluation of f and g (`ProfileFunctions._fgh`), which the
validators share.
"""

from dataclasses import dataclass

import numpy as np

from .duals import Dual, blend, product, smooth_step_on


# Windows (start, end) of the smooth steps that blend the branches of f and
# g.  Each step is identically 0 before its window and 1 after it, so the
# profiles are smooth but not analytic at the window ends; quadratures of
# h split there (ProfileFunctions.breakpoints).
_DIM3_F_WINDOW = (0.15, 0.85)  # r^4 into r, in r
_DIM3_G_WINDOW = (0.25, 1.0)  # r^2/2 into 1, in r
_HIGHER_F_WINDOW = (0.05, 0.48)  # 1 into the middle line, in r / r_eps
_HIGHER_G_WINDOW = (0.1, 1.0)  # r^2/2 into 1, in 2 r / r_eps

# the branch 1 of f and g, as a record with zero derivatives
_ONE = Dual(1.0, 0.0, 0.0)


class ProfileError(Exception):
    pass


class InfeasibleParameters(ProfileError):
    pass


class ProfileValidationError(ProfileError):
    pass


@dataclass
class ProfileFunctions:
    """Profile triple on [0, r_eps]; values and first two derivatives."""

    r_eps: float
    s: float
    family: str

    # -- family evaluators returning Duals ---------------------------------

    def _f_zones(self):
        """Blend windows of the higher-family f; see _f_dual."""
        r_eps, s = self.r_eps, self.s
        lo = max(2.0 * s, r_eps / 2.0)
        b1 = lo + 0.1 * (r_eps - lo)
        b2 = r_eps - 0.1 * (r_eps - lo)
        m1 = 0.5 - s / b1  # > 0 since b1 > 2s
        kappa = min(0.5 * m1 / (b2 - r_eps / 2.0), 0.5 / r_eps)
        return b1, b2, kappa

    def _f_dual(self, r) -> Dual:
        """f at r with its first two r derivatives."""
        r = Dual(np.asarray(r, dtype=float), 1.0, 0.0)
        if self.family == "dim3":
            # f = 2 - m, m blending r^4 into r
            w = smooth_step_on(r, *_DIM3_F_WINDOW)
            r2 = product(r, r)
            m = blend(w, product(r2, r2), r)
            # 0.0 - d, not -d: a zero derivative (f'' where f = 2 - r) is +0.0
            return Dual(2.0 - m.v, 0.0 - m.d1, 0.0 - m.d2)
        # higher family: 1 near 0, the gentle line through (r_eps/2, 1/2)
        # in the middle, s/r near r_eps.  Blends always go from the larger
        # branch to the smaller one, which keeps f' <= 0.
        r_eps, s = self.r_eps, self.s
        b1, b2, kappa = self._f_zones()
        line = Dual(0.5 - (r.v - r_eps / 2.0) * kappa, -(r.d1 * kappa),
                    -(r.d2 * kappa))
        w1 = smooth_step_on(r, _HIGHER_F_WINDOW[0] * r_eps,
                            _HIGHER_F_WINDOW[1] * r_eps, p=0.6)
        left = blend(w1, _ONE, line)
        w2 = smooth_step_on(r, b1, b2, p=0.5)
        # guard r = 0 in the s/r branch; w2 is identically 0 there
        inv = 1.0 / np.maximum(r.v, 1e-300)
        s_over_r = Dual(inv * s, -r.d1 * inv ** 2 * s,
                        (2.0 * r.d1 ** 2 * inv - r.d2) * inv ** 2 * s)
        return blend(w2, left, s_over_r)

    def _g_dual(self, r) -> Dual:
        """g at r with its first two r derivatives."""
        r = Dual(np.asarray(r, dtype=float), 1.0, 0.0)
        r2 = product(r, r)
        half_r2 = Dual(r2.v * 0.5, r2.d1 * 0.5, r2.d2 * 0.5)
        if self.family == "dim3":
            # g = (1-W) r^2/2 + W, W flat-one exactly at r = 1
            w = smooth_step_on(r, *_DIM3_G_WINDOW)
        else:
            # higher: same blend compressed into [0, r_eps/2], slowed step
            c = 2.0 / self.r_eps
            u = Dual(r.v * c, r.d1 * c, r.d2 * c)
            w = smooth_step_on(u, *_HIGHER_G_WINDOW, p=0.55)
        return blend(w, half_r2, _ONE)

    @property
    def breakpoints(self):
        """0, r_eps and the window ends of every smooth step in f and g,
        sorted: f and g are analytic between two neighbours."""
        if self.family == "dim3":
            ends = (*_DIM3_F_WINDOW, *_DIM3_G_WINDOW)
        else:
            r_eps = self.r_eps
            b1, b2, _ = self._f_zones()
            ends = (*(a * r_eps for a in _HIGHER_F_WINDOW),
                    *(a * r_eps / 2.0 for a in _HIGHER_G_WINDOW), b1, b2)
        return np.array(sorted({0.0, *ends, self.r_eps}))

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


def _validate_higher(p: ProfileFunctions):
    r_eps, s = p.r_eps, p.s
    b1, b2, _ = p._f_zones()
    r = np.linspace(1e-12 * r_eps, r_eps, _N_VALIDATE)
    f, g, h = p._fgh(r)
    near_end = r >= b2
    _check(np.max(np.abs(f.v[near_end] - s / r[near_end])) < 1e-12,
           "higher: f must equal s/r near r_eps")
    near0 = r <= 0.05 * r_eps
    _check(np.max(np.abs(f.v[near0] - 1.0)) < 1e-12, "higher: f must be 1 near 0")
    f_half = p.f(np.array([r_eps / 2.0]))[0]
    _check(abs(f_half - 0.5) < 1e-12, "higher: f(r_eps/2) must be 1/2")
    _check(np.all(f.d1 <= 1e-15), "higher: f' must be <= 0")
    _check(np.min(f.d1) >= -2.0 / r_eps * (1.0 + 1e-9),
           "higher: f' must be >= -2/r_eps")
    right = r >= r_eps / 2.0
    _check(np.all(f.d1[right] < 0.0), "higher: f' < 0 on [r_eps/2, r_eps]")
    _check(np.all(g.d1 >= -1e-15), "higher: g' must be >= 0")
    _check(np.max(g.d1) <= 4.0 / r_eps * (1.0 + 1e-9),
           "higher: g' must be <= 4/r_eps")
    interior = (r > 0.0) & (r <= _FLAT_SKIN * r_eps / 2.0)
    _check(np.all(g.d1[interior] > 0.0), "higher: g' > 0 on (0, r_eps/2)")
    _check(np.max(np.abs(g.v[right] - 1.0)) < 1e-12,
           "higher: g = 1 on [r_eps/2, r_eps]")
    _check(np.max(np.abs(g.v[near0] - r[near0] ** 2 / 2)) < 1e-12,
           "higher: g = r^2/2 near 0")
    _check(np.all(h > 0.0), "higher: h > 0 on (0, r_eps]")
    near0_h = r <= 0.04 * r_eps
    _check(np.max(np.abs(h[near0_h] - r[near0_h])) < 1e-10, "higher: h = r near 0")
    _check(np.max(h) <= 6.0 / r_eps * (1.0 + 1e-9), "higher: h <= 6/r_eps")
    _check(np.max(g.d1 / h) <= 2.0 * (1.0 + 1e-9), "higher: g'/h <= 2")


def build_profiles(r_eps: float, s: float, family: str = "higher") -> ProfileFunctions:
    """Construct and validate a profile triple.

    family "higher" requires 0 < s < r_eps/2.  family "dim3" fixes
    r_eps = 1; s is only used downstream in the contact form and the
    validator ignores it.
    """
    if family == "dim3":
        p = ProfileFunctions(1.0, float(s), "dim3")
        _validate_dim3(p)
    elif family == "higher":
        if not (0.0 < s < r_eps / 2.0):
            raise InfeasibleParameters("need 0 < s < r_eps / 2")
        p = ProfileFunctions(float(r_eps), float(s), "higher")
        _validate_higher(p)
    else:
        raise ProfileError(f"unknown family {family!r}")
    return p
