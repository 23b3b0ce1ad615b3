"""Entropy-collapse contact forms on the mapping torus and the solid torus,
their Reeb fields, flows, return maps and volume estimates.

The mapping torus (`MappingTorusSpec`) has the page annulus [1,3] x S^1
with primitive (2-r) dx and monodromy a k-fold Dehn twist
(r, x) -> (r, x + tau(r)).  The glued solid torus uses the profiles of
profiles.py, so the collar forms match exactly: near r = 1 both read
dtheta + s (2-r) dx.

All coordinates are (theta, r, x) with theta the open-book angle and x the
fiber/binding angle.  Everything is x-independent and r is constant along
both Reeb flows, so the page return map and the solid-torus flow are closed
forms; the mapping-torus time-one map (sweep.py) still integrates
`MappingTorusField` by RK4, and `solid_torus_flow_rk4` is the
solid-torus oracle.

Each part of the glued form (chi and its derivatives, tau, y_x, the
mapping-torus Reeb field, the page midpoint rule, int h dr, and in
profiles.py the solid-torus speeds) has one definition, which the systems
in sweep.py call too.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .. import MAX_TWISTS
from .duals import _STEP_CLIP, Dual, product, smooth_step_on
from . import profiles

TWO_PI = 2.0 * math.pi

# reported in place of an infinite contact threshold (trivial monodromy)
S_SCAN_CAP = 1e6

# rows in r that `contact_threshold` samples by default
_THRESHOLD_ROWS = 64

# each threshold is (1 - _THRESHOLD_MARGIN) times the s its test fails at
_THRESHOLD_MARGIN = 1e-4

# Gauss-Legendre nodes per breakpoint panel of the solid-torus volume
_GL_NODES = 96

# time step of the solid-torus RK4 oracle
_RK4_DT = 1e-3

# largest value of chi', taken at theta = pi: (140 / 2 pi) (1/4)^3
_CHI_PRIME_MAX = 35.0 / (32.0 * math.pi)


class FormsError(Exception):
    pass


class GridTooCoarse(FormsError):
    pass


class NoReturn(FormsError):
    pass


class FitPoor(FormsError):
    pass


class NonPositiveVolume(FormsError):
    pass


class VolumeOverflow(FormsError):
    """A volume of the sweep, or s^2, is not a finite float."""


class NoContactThreshold(FormsError):
    """Trivial monodromy: no contact threshold bounds a default sweep."""


class AboveContactThreshold(FormsError):
    """An s of the sweep above s0, where alpha_s is not a contact form."""


class AboveSpeedCap(FormsError):
    """An s of the sweep whose theta-speed bound passes the cap up to which
    the mapping-torus RK4 resolves the flow."""


# --------------------------------------------------------------- mapping torus

# the constants of `_chi_first` and `MappingTorusField.speed` as 0-d float64
# arrays: numpy converts a Python scalar on every call, and these run four
# times per RK4 step; the floats are the same
_ONE, _THREE = np.array(1.0), np.array(3.0)
_INV_TWO_PI, _CHI1_SCALE = np.array(1.0 / TWO_PI), np.array(140.0 / TWO_PI)

def _chi_first(theta, out=(None, None, None), tmp=None):
    """u = theta / 2 pi, w = u (1 - u) and chi' = (140 / 2 pi) w^3, the
    slope of the cutoff chi(theta) = smoothstep7(u) for theta in [0, 2 pi]
    (the smoothstep 35u^4 - 84u^5 + 70u^6 - 20u^7 has slope 140 u^3
    (1-u)^3); `out` takes three arrays to write them into, and `tmp` one
    for the temporaries."""
    u = np.multiply(theta, _INV_TWO_PI, out[0])
    w = np.multiply(u, np.subtract(_ONE, u, tmp), out[1])
    return u, w, np.multiply(_CHI1_SCALE, np.power(w, _THREE, tmp), out[2])


def _chi_second(u, w):
    """chi'' from u and w of `_chi_first`: the smoothstep's second
    derivative is 420 u^2 (1-u)^2 (1-2u)."""
    return (420.0 / TWO_PI ** 2) * w * w * (1.0 - 2.0 * u)


def _chi(theta):
    """The cutoff chi(theta) = smoothstep7(theta / 2 pi), 0 for theta <= 0
    and 1 for theta >= 2 pi (chi' vanishes to third order at the ends)."""
    u = np.clip(np.asarray(theta, float) * (1.0 / TWO_PI), 0.0, 1.0)
    u2 = u * u
    return u2 * u2 * (35.0 + u * (-84.0 + u * (70.0 + u * (-20.0))))


@dataclass
class MappingTorusSpec:
    """Annulus page [1, 3] x S^1, lambda = (2 - r) dx, k-fold Dehn twist
    tau supported in the middle of the annulus: a smooth monotone step of
    total increment 2 pi k on tau_support."""

    k_twists: int = 1
    r_range: tuple = (1.0, 3.0)
    tau_support: tuple = (1.3, 2.7)

    def __post_init__(self):
        (r0, r1), (a, b) = self.r_range, self.tau_support
        if not r0 < r1:
            raise FormsError(f"r_range must be increasing, got {list(self.r_range)}")
        if not math.isfinite(r1 - r0):
            raise FormsError(f"r_range must be finite, got {list(self.r_range)}")
        if not r0 <= a < b <= r1:
            raise FormsError("tau_support must have positive width inside r_range, "
                             f"got {list(self.tau_support)} in {list(self.r_range)}")
        # the twist's step on the rows that `contact_threshold` samples
        # across the support, whatever k_twists, and just inside its two
        # flat ends: on a support a float or so wide every row is a flat
        # end, and on one whose width's inverse square overflows so do the
        # step's r derivatives, first next to the flat ends, where the
        # terms of the second derivative are largest (a numpy d1, so that
        # the overflow gives inf instead of raising)
        edge = _STEP_CLIP * (1.0 + 1e-6)
        r = np.append(np.linspace(a, b, _THRESHOLD_ROWS),
                      a + (b - a) * np.array([edge, 1.0 - edge]))
        with np.errstate(all="ignore"):
            step = smooth_step_on(Dual(r, np.float64(1.0), 0.0), a, b)
        if not np.any(step.d1[:_THRESHOLD_ROWS]):
            raise FormsError(f"tau_support {list(self.tau_support)} is too narrow "
                             "to sample: the twist is flat on every row")
        if not (np.isfinite(step.d1).all() and np.isfinite(step.d2).all()):
            raise FormsError(f"tau_support {list(self.tau_support)} is too narrow: "
                             "the twist's r derivatives leave the float range")

    def tau_dual(self, r) -> Dual:
        """tau(r) with its first and second derivatives in r."""
        w = smooth_step_on(Dual(np.asarray(r, float), 1.0, 0.0), *self.tau_support)
        return product(w, Dual(TWO_PI * self.k_twists, 0.0, 0.0))

    def tau(self, r):
        return self.tau_dual(r).v

    def tau_prime(self, r):
        return self.tau_dual(r).d1

    def chi_prime(self, theta):
        theta = np.asarray(theta, float)
        inside = (theta > 0.0) & (theta < TWO_PI)
        return np.where(inside, _chi_first(theta)[2], 0.0)

    def lam(self, r):
        """Coefficient of dx in the primitive lambda."""
        return 2.0 - np.asarray(r, float)

    # -- derived fields ------------------------------------------------------

    def y_x(self, theta, r):
        """Page vector field Y = y_x(theta, r) d_x solving i_Y dlambda =
        -chi' lambda_psi."""
        return -self.chi_prime(theta) * self.lam(r) * self.tau_prime(r)

    def lambda_theta_of_y(self, theta, r):
        """lambda_theta(Y) = (2-r) y_x; the return-time correction density."""
        return self.lam(r) * self.y_x(theta, r)

    def contact_density(self, s, theta, r):
        """alpha_s ^ dalpha_s = s (1 + s lambda_theta(Y)) dtheta dx dr."""
        return s * (1.0 + s * self.lambda_theta_of_y(theta, r))

    def dlambda_page_integral(self) -> float:
        """int over the page of dlambda = omega (the area form)."""
        r0, r1 = self.r_range
        return TWO_PI * (r1 - r0)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"k_twists": self.k_twists, "r_range": list(self.r_range),
                "tau_support": list(self.tau_support)}

    @classmethod
    def from_json(cls, obj) -> "MappingTorusSpec":
        """Strict inverse of to_json, from the object or its JSON text: an
        object with k_twists, an integral number, and r_range and
        tau_support, lists of two numbers; a missing key takes its default
        and no other key is read.  Booleans are no numbers."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise FormsError("a spec is an object with the keys k_twists, r_range "
                             f"and tau_support, got {type(obj).__name__}")
        k = obj.get("k_twists", 1)
        unknown = sorted(set(obj) - {"k_twists", "r_range", "tau_support"})
        if unknown:
            raise FormsError(f"unknown spec key(s) {unknown}")
        if type(k) not in (int, float) or k % 1 or not abs(k) <= MAX_TWISTS:
            raise FormsError(f"k_twists must be an integer of size <= {MAX_TWISTS}, "
                             f"got {k!r}")
        return cls(int(k), _pair("r_range", obj.get("r_range", [1.0, 3.0])),
                   _pair("tau_support", obj.get("tau_support", [1.3, 2.7])))


def _pair(key: str, values) -> tuple:
    """The JSON list values under key as two floats; booleans and strings
    are no numbers."""
    if not isinstance(values, list) or len(values) != 2:
        got = (f"{len(values)} values" if isinstance(values, list)
               else type(values).__name__)
        raise FormsError(f"{key} must be a list of two numbers, got {got}")
    for i, v in enumerate(values):
        if type(v) not in (int, float):
            raise FormsError(f"{key}[{i}] must be a number, got {v!r}")
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise FormsError(f"{key} holds an integer past the float range") from None


class MappingTorusField:
    """Reeb field of alpha_s on the orbits at radii r (s: one value or one
    per radius); r_dot = 0.  The field is (1, y_x) / (1 + s lambda y_x) and
    does not depend on x, so everything that depends on r alone is
    evaluated once, here; `tau` is the twist tau(r) with its r derivatives
    (the monodromy gluing adds tau and tau').

    `speed(theta)` is theta_dot alone, which depends on theta and r only;
    it also returns the terms the other five outputs are built from, and
    `rest(*terms)` builds those five.  Calling the field gives (theta_dot,
    x_dot, d theta_dot / d theta, d theta_dot / d r, d x_dot / d theta,
    d x_dot / d r) through the two, at theta mod 2 pi.  The radii run along
    the last axis of theta; any leading axes evaluate many theta rows at
    once, element by element the same floats as one row at a time."""

    def __init__(self, spec: MappingTorusSpec, r, s):
        self.tau = spec.tau_dual(r)
        self._lam = spec.lam(r)
        # -lambda: y_x = (chi' (-lambda)) tau' is -chi' lambda tau' bit for
        # bit, as negation is exact, with one operation fewer
        self._neg_lam = -self._lam
        self._s = s
        self._s_lam = s * self._lam
        # -d(lambda tau')/dr = tau' - lambda tau'', the negation of
        # -tau' + lambda tau'' bit for bit
        self._neg_dlam_tau = self.tau.d1 - self._lam * self.tau.d2

    def speed(self, theta, out=(None,) * 5, dot=None, tmp=None):
        """(theta_dot, terms) at theta in [0, 2 pi), which the caller
        reduces: terms are u, w and chi' of `_chi_first`, y_x and the
        denominator 1 + s lambda y_x.  They go into the five arrays of
        `out`, theta_dot into `dot` and the temporaries into `tmp`, when
        the caller gives them; the floats are the same either way."""
        u, w, chi1 = _chi_first(theta, out[:3], tmp)
        yx = np.multiply(np.multiply(chi1, self._neg_lam, tmp), self.tau.d1, out[3])
        denom = np.add(_ONE, np.multiply(self._s_lam, yx, tmp), out[4])
        return np.divide(_ONE, denom, dot), (u, w, chi1, yx, denom)

    def rest(self, u, w, chi1, yx, denom, out=(None,) * 5):
        """(x_dot, d theta_dot / d theta, d theta_dot / d r,
        d x_dot / d theta, d x_dot / d r) from the terms of `speed`,
        written into the five arrays of `out` when it gives them.

        With dy = dy_x and dd = d(1 + s lambda y_x), the derivatives are
        -dd / denom^2 and (dy denom - y_x dd) / denom^2.  They are formed
        from -dy_x/dtheta, -dd/dtheta and -dd/dr, which saves five
        negations; as negation is exact, every float is the one the signed
        terms give."""
        lam, s = self._lam, self._s
        chi2 = _chi_second(u, w)
        denom2 = denom ** 2
        neg_dy_dth = chi2 * lam * self.tau.d1
        dy_dr = chi1 * self._neg_dlam_tau
        neg_dd_dth = self._s_lam * neg_dy_dth
        neg_dd_dr = s * (yx - lam * dy_dr)
        return (np.divide(yx, denom, out=out[0]),
                np.divide(neg_dd_dth, denom2, out=out[1]),
                np.divide(neg_dd_dr, denom2, out=out[2]),
                np.divide(yx * neg_dd_dth - neg_dy_dth * denom, denom2, out=out[3]),
                np.divide(dy_dr * denom + yx * neg_dd_dr, denom2, out=out[4]))

    def __call__(self, theta):
        th_dot, terms = self.speed(theta % TWO_PI)
        return (th_dot,) + self.rest(*terms)


def contact_threshold(spec: MappingTorusSpec, grid: int = _THRESHOLD_ROWS):
    """(s0, s1): contactness and bounded-speed thresholds.

    The correction density factors as lambda_theta(Y) = chi'(theta)
    (-lambda^2 tau'(r)) with 0 <= chi' <= chi'(pi), so both of its
    extrema lie on the row theta = pi.  That row is sampled at `grid`
    values of r and each extremum is refined by a local zoom in r.  s0 is
    (1 - 1e-4) times the largest s with alpha_s ^ dalpha_s > 0 there: 1/neg
    for the largest value neg of -lambda_theta(Y); s1 is (1 - 1e-4) times
    the largest s with 1/2 <= theta_dot <= 2 there, at
    most s0.  A twist support between two samples gets the samples of its
    own span.  tau' == 0 yields the scan cap for both.  Raises
    GridTooCoarse when a threshold fails the test on the sampled row.
    """
    r = np.linspace(spec.r_range[0], spec.r_range[1], grid)
    a, b = spec.tau_support
    if spec.k_twists and not np.any((r > a) & (r < b)):
        r = np.linspace(a, b, grid)
    lam_y = spec.lambda_theta_of_y(math.pi, r)
    if not np.all(np.isfinite(lam_y)):
        raise GridTooCoarse("non-finite correction density on the grid")

    def refine(sign):
        """Polish the sampled extremum of sign*lam_y by local zoom in r."""
        vals = sign * lam_y
        k = int(np.argmax(vals))
        r0, wr = r[k], (r[-1] - r[0]) / grid
        best = float(vals[k])
        for _ in range(6):
            rg = np.clip(np.linspace(r0 - wr, r0 + wr, 17), r[0], r[-1])
            local = sign * spec.lambda_theta_of_y(math.pi, rg)
            j = int(np.argmax(local))
            best = max(best, float(local[j]))
            r0, wr = rg[j], wr / 4.0
        return best

    neg = refine(-1.0)  # kills contactness
    pos = refine(+1.0)

    def below(limit):
        return S_SCAN_CAP if limit <= 0.0 else 1.0 / limit * (1.0 - _THRESHOLD_MARGIN)

    # contactness: 1 + s lam_y > 0  <=>  s < 1/neg
    s0 = below(neg)
    # speed: 1/2 <= 1/(1 + s lam_y) <= 2  <=>  s <= 1/(2 neg) and s <= 1/(2 pos)
    s1 = min(below(2.0 * neg), below(2.0 * pos), s0)
    # neg and pos bound the sampled extrema, so both tests hold with room
    # to spare
    q0, q1 = 1.0 + s0 * lam_y, 1.0 + s1 * lam_y
    if (s0 < S_SCAN_CAP and not q0.min() > 0.0) or (
            s1 < S_SCAN_CAP and not (q1.min() >= 0.5 and q1.max() <= 2.0)):
        raise GridTooCoarse(f"thresholds s0={s0}, s1={s1} fail the lattice test")
    return s0, s1


def theta_speed_bound(s, s0: float):
    """The largest theta_dot = 1 / (1 + s lambda_theta(Y)) of alpha_s for
    each s below s0: 1 / (1 - s neg), with neg the largest value of
    -lambda_theta(Y), on the row theta = pi, read back from the contact
    threshold s0 = (1 - 1e-4) / neg of `contact_threshold`.  A threshold at
    the scan cap means lambda_theta(Y) >= 0, and theta_dot is at most 1."""
    if s0 >= S_SCAN_CAP:
        return np.ones_like(np.asarray(s, float))
    return 1.0 / (1.0 - np.asarray(s, float) * ((1.0 - _THRESHOLD_MARGIN) / s0))


def return_map_and_time(spec: MappingTorusSpec, start, s):
    """First return to the page {theta = 0}: (T_s, (r, x) image).

    start is one (r, x) or an (n, 2) array, and s broadcasts against the
    starts (an (n_s, 1) column gives every s at every start).  r is
    constant along the flow and chi' integrates to 1 over a turn, so with
    c = s lambda^2 tau'(r) and a = -lambda tau'(r), T_s = 2 pi - c and x
    gains a before the monodromy gluing adds tau(r).  Raises NoReturn
    where dt/dtheta = 1 - c chi' is not positive (c chi'(pi) >= 1) or past
    time 8 pi.
    """
    r, x0 = np.asarray(start, float).T
    tau, lam = spec.tau_dual(r), spec.lam(r)
    c = s * lam * lam * tau.d1
    if np.any(c * _CHI_PRIME_MAX >= 1.0):
        raise NoReturn("Reeb field not positively transverse to the pages")
    t_return = TWO_PI - c
    if np.any(t_return > 8.0 * math.pi):
        raise NoReturn("no page return within time 8 pi")
    x_im = (x0 - lam * tau.d1 + tau.v) % TWO_PI
    return t_return, np.stack(np.broadcast_arrays(r, x_im, t_return)[:2], axis=-1)


def mapping_torus_volume(spec: MappingTorusSpec, s: float,
                         grid: int = 256) -> float:
    """int alpha_s ^ dalpha_s over the mapping torus by the grid x grid
    midpoint rule in (theta, r); the x direction contributes a factor 2 pi
    exactly."""
    r0, r1 = spec.r_range
    theta = (np.arange(grid)[:, None] + 0.5) * TWO_PI / grid
    r = r0 + (np.arange(grid) + 0.5) * (r1 - r0) / grid
    return TWO_PI * float(spec.contact_density(s, theta, r).mean()) * TWO_PI * (r1 - r0)


# --------------------------------------------------------------- solid torus

def solid_torus_reeb(state, s: float):
    """Reeb velocity of sigma_s = g dtheta + s f dx at (theta, r, x):
    (-f'/h, 0, g'/(s h)), and (0, 0, 1/(2s)) on the core circle."""
    theta, r, x = state
    if r <= 1e-12:
        return np.array([0.0, 0.0, 0.5 / s])
    ang, fib = profiles.speeds(np.asarray([r], float))
    return np.array([ang[0], 0.0, fib[0] / s])


def solid_torus_flow(state, t: float, s: float):
    """Closed-form linear flow on the invariant torus {r = const}:
    (theta, r, x), angles left unreduced."""
    theta, r, x = state
    vel = solid_torus_reeb(state, s)
    return theta + vel[0] * t, r, x + vel[2] * t


def solid_torus_flow_rk4(state, t: float, s: float):
    """(theta, r, x) by fixed-step RK4 integration of the solid-torus Reeb
    field, step _RK4_DT (oracle companion to the closed form; angles left
    unreduced).

    The field depends on the state only through r, and its r entry is 0.0,
    so r never changes and every stage of every step has the velocity at
    the start: it is evaluated once, and the integration is bit-exact
    against a stage-by-stage field query.
    """
    y = np.asarray(state, float)
    n = max(1, int(round(abs(t) / _RK4_DT)))
    hstep = t / n
    v = solid_torus_reeb(y, s)
    # k1 = k2 = k3 = k4 = v, summed in the RK4's order
    inc = hstep / 6.0 * (v + 2 * v + 2 * v + v)
    for _ in range(n):
        y = y + inc
    return tuple(y)


def solid_torus_volume(s: float) -> float:
    """int sigma_s ^ dsigma_s = s (2 pi)^2 int h dr.

    int h dr is a composite Gauss-Legendre rule, _GL_NODES nodes on each
    panel between neighbouring profile breakpoints, where h is analytic;
    one evaluation of h covers every node.
    """
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    edges = profiles.BREAKPOINTS
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    val = float(half @ (profiles.h(mid[:, None] + half[:, None] * x) @ w))
    return s * TWO_PI ** 2 * val


# --------------------------------------------------------------- assembly

# a huge s overflows the volumes, s^2 or the squared residuals: the checks
# below report that, so numpy's overflow warnings are silenced
@np.errstate(over="ignore", invalid="ignore")
def collapse_volumes(spec: MappingTorusSpec, s_list, grid: int = 256,
                     fit_tol: float = 0.01):
    """Volume table of the glued form over a sweep of s.

    Returns (rows, fit) where rows have s, vol_mt, vol_st, vol_total and
    fit has the least-squares coefficients of vol(s) = a s + b s^2, the
    relative residual, and the quadrature prediction for a.  Raises
    VolumeOverflow when a volume or s^2 is not finite, and FitPoor when the
    relative residual exceeds fit_tol.
    """
    s_arr = np.asarray(sorted(s_list), float)
    if np.any(s_arr <= 0):
        raise FormsError("s values must be positive")
    # solid_torus_volume is linear in s: one quadrature serves every s
    vol_st_unit = solid_torus_volume(1.0)
    rows = []
    for s in s_arr:
        vol_mt = mapping_torus_volume(spec, s, grid)
        vol_st = s * vol_st_unit
        rows.append({"s": float(s), "vol_mt": vol_mt, "vol_st": vol_st,
                     "vol_total": vol_mt + vol_st})
    totals = np.array([row["vol_total"] for row in rows])
    design = np.stack([s_arr, s_arr ** 2], axis=1)
    if not (np.isfinite(totals).all() and np.isfinite(design).all()):
        raise VolumeOverflow(
            f"the volume fit at s up to {s_arr[-1]} leaves the float range")
    coef, *_ = np.linalg.lstsq(design, totals, rcond=None)
    a, b = float(coef[0]), float(coef[1])
    resid = float(np.sqrt(np.mean((design @ coef - totals) ** 2))
                  / np.mean(np.abs(totals)))
    predicted = TWO_PI * spec.dlambda_page_integral() + vol_st_unit
    if not resid <= fit_tol:  # an overflowed residual is inf or nan
        raise FitPoor(f"volume fit residual {resid} exceeds {fit_tol}")
    fit = {"a": a, "b": b, "residual": resid, "a_predicted": predicted,
           "curvature_ratio": abs(b) * float(s_arr.max()) / a}
    return rows, fit


def normalize_form(vol: float, n: int, gamma_or_h: float):
    """Scale to contact volume one: c = vol^(-1/(n+1)); the growth rate of
    the scaled form is gamma vol^(1/(n+1))."""
    if vol <= 0:
        raise NonPositiveVolume("volume must be positive")
    scale = vol ** (-1.0 / (n + 1))
    return scale, gamma_or_h * vol ** (1.0 / (n + 1))
