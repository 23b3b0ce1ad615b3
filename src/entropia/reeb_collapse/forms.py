"""Entropy-collapse contact forms on mapping tori and solid tori, their
Reeb fields, flows, return maps and volume estimates.

Concrete instances:

MappingTorusSpec   page = annulus [1,3] x S^1 with primitive (2-r) dx and
                   monodromy a k-fold Dehn twist (r, x) -> (r, x + tau(r)).
                   The glued solid torus uses the dim3 profile family, so
                   the collar forms match exactly: near r = 1 both read
                   dtheta + s (2-r) dx.

OpenBook3D         the one-complex-dimensional page instance of the general
                   construction: page (0, R] x S^1 with primitive
                   (eps_hat / r) dx, binding circle with base form
                   eps_hat dx where eps_hat = eps / (2 pi), so the raw
                   contact integral over the binding is eps.  The glued
                   solid torus uses the higher profile family on [0, r_eps].

All coordinates are (theta, r, x) with theta the open-book angle and x the
fiber/binding angle.  Everything is x-independent and r is constant along
both Reeb flows, so the page return map and the solid-torus flow are closed
forms; the mapping-torus time-one map (sweep.py) still integrates
`mapping_torus_field` by RK4, and `solid_torus_flow_rk4` is the
solid-torus oracle.

Each part of the glued form (chi and its derivatives, tau, y_x, the
mapping-torus Reeb field, the page midpoint rule, int h dr, and in
profiles.py the solid-torus speeds) has one definition, which the systems
in sweep.py call too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .. import MAX_TWISTS
from .duals import Dual, product, smooth_step_on
from .profiles import ProfileFunctions

TWO_PI = 2.0 * math.pi

# reported in place of an infinite contact threshold (trivial monodromy)
S_SCAN_CAP = 1e6

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


# --------------------------------------------------------------- mapping torus

def _chi_derivatives(theta):
    """chi' and chi'' of the cutoff chi(theta) = smoothstep7(theta / 2 pi)
    for theta in [0, 2 pi], in closed form: with u = theta / 2 pi the
    smoothstep 35u^4 - 84u^5 + 70u^6 - 20u^7 has slope 140 u^3 (1-u)^3 and
    second derivative 420 u^2 (1-u)^2 (1-2u)."""
    u = theta * (1.0 / TWO_PI)
    w = u * (1.0 - u)
    return (140.0 / TWO_PI) * w ** 3, (420.0 / TWO_PI ** 2) * w * w * (1.0 - 2.0 * u)


class _TwistedPage:
    """The monodromy and cutoff shared by the page instances, which carry
    `k_twists` and `tau_support`.

    tau is the k-fold Dehn-twist angle, a smooth monotone step of total
    increment 2 pi k on tau_support; chi is the 7th-order polynomial
    smoothstep in theta / 2 pi, 0 for theta <= 0 and 1 for theta >= 2 pi
    (chi' vanishes to third order at the ends).
    """

    def tau_dual(self, r) -> Dual:
        """tau(r) with its first and second derivatives in r."""
        w = smooth_step_on(Dual(np.asarray(r, float), 1.0, 0.0), *self.tau_support)
        return product(w, Dual(TWO_PI * self.k_twists, 0.0, 0.0))

    def tau(self, r):
        return self.tau_dual(r).v

    def tau_prime(self, r):
        return self.tau_dual(r).d1

    def chi(self, theta):
        u = np.clip(np.asarray(theta, float) * (1.0 / TWO_PI), 0.0, 1.0)
        u2 = u * u
        return u2 * u2 * (35.0 + u * (-84.0 + u * (70.0 + u * (-20.0))))

    def chi_prime(self, theta):
        theta = np.asarray(theta, float)
        inside = (theta > 0.0) & (theta < TWO_PI)
        return np.where(inside, _chi_derivatives(theta)[0], 0.0)


@dataclass
class MappingTorusSpec(_TwistedPage):
    """Annulus page [1, 3] x S^1, lambda = (2 - r) dx, k-fold Dehn twist
    tau supported in the middle of the annulus."""

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

    def monodromy(self, r, x):
        return r, x + self.tau(r)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"k_twists": self.k_twists, "r_range": list(self.r_range),
                "tau_support": list(self.tau_support)}

    @classmethod
    def from_json(cls, obj) -> "MappingTorusSpec":
        """Strict inverse of to_json; a missing key takes its default."""
        k = obj.get("k_twists", 1)
        unknown = sorted(set(obj) - {"k_twists", "r_range", "tau_support"})
        if unknown:
            raise FormsError(f"unknown spec key(s) {unknown}")
        if type(k) not in (int, float) or k % 1 or not abs(k) <= MAX_TWISTS:
            raise FormsError(f"k_twists must be an integer of size <= {MAX_TWISTS}, "
                             f"got {k!r}")
        return cls(int(k), tuple(map(float, obj.get("r_range", (1.0, 3.0)))),
                   tuple(map(float, obj.get("tau_support", (1.3, 2.7)))))


def mapping_torus_field(spec: MappingTorusSpec, r, s):
    """Reeb field of alpha_s on the orbits at radii r (s: one value or one
    per radius) as theta -> (theta_dot, x_dot, d theta_dot / d theta,
    d theta_dot / d r, d x_dot / d theta, d x_dot / d r); r_dot = 0.  The
    field is (1, y_x) / (1 + s lambda y_x) and does not depend on x, so
    everything that depends on r alone is evaluated once, here."""
    tau = spec.tau_dual(r)
    lam = spec.lam(r)
    s_lam = s * lam
    dtau_dr = -tau.d1 + lam * tau.d2

    def field(theta):
        chi1, chi2 = _chi_derivatives(theta % TWO_PI)
        yx = -chi1 * lam * tau.d1
        denom = 1.0 + s_lam * yx
        denom2 = denom ** 2
        dy_dth = -chi2 * lam * tau.d1
        dy_dr = -chi1 * dtau_dr
        dden_dth = s_lam * dy_dth
        dden_dr = s * (-yx + lam * dy_dr)
        return (1.0 / denom, yx / denom,
                -dden_dth / denom2, -dden_dr / denom2,
                (dy_dth * denom - yx * dden_dth) / denom2,
                (dy_dr * denom - yx * dden_dr) / denom2)

    return field


def contact_threshold(spec: MappingTorusSpec, grid: int = 64):
    """(s0, s1): contactness and bounded-speed thresholds.

    The correction density factors as lambda_theta(Y) = chi'(theta)
    (-lambda^2 tau'(r)) with 0 <= chi' <= chi'(pi), so both of its
    extrema lie on the row theta = pi.  That row is sampled at `grid`
    values of r and each extremum is refined by a local zoom in r.  s0 is
    (1 - 1e-4) times the largest s with alpha_s ^ dalpha_s > 0 there; s1
    is (1 - 1e-4) times the largest s with 1/2 <= theta_dot <= 2 there, at
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
        return S_SCAN_CAP if limit <= 0.0 else 1.0 / limit * (1.0 - 1e-4)

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


def return_map_and_time(spec: MappingTorusSpec, start, s: float):
    """First return to the page {theta = 0}: (T_s, (r, x) image).

    r is constant along the flow and chi' integrates to 1 over a turn, so
    with c = s lambda^2 tau'(r) and a = -lambda tau'(r), T_s = 2 pi - c and
    x gains a before the monodromy gluing adds tau(r).  Raises NoReturn
    where dt/dtheta = 1 - c chi' is not positive (c chi'(pi) >= 1) or past
    time 8 pi.
    """
    r, x0 = float(start[0]), float(start[1])
    lam = float(spec.lam(r))
    tau_p = float(spec.tau_prime(np.array([r]))[0])
    c = s * lam * lam * tau_p
    if c * _CHI_PRIME_MAX >= 1.0:
        raise NoReturn("Reeb field not positively transverse to the pages")
    t_return = TWO_PI - c
    if t_return > 8.0 * math.pi:
        raise NoReturn("no page return within time 8 pi")
    r_im, x_im = spec.monodromy(r, x0 - lam * tau_p)
    return t_return, (r_im, float(x_im) % TWO_PI)


def _page_volume(density, r0: float, r1: float, grid: int) -> float:
    """int of density(theta, r) dtheta dr dx over [0, 2 pi) x [r0, r1] x S^1
    by the grid x grid midpoint rule (the x direction contributes a factor
    2 pi exactly)."""
    theta = (np.arange(grid) + 0.5) * TWO_PI / grid
    r = r0 + (np.arange(grid) + 0.5) * (r1 - r0) / grid
    th, rr = np.meshgrid(theta, r, indexing="ij")
    return TWO_PI * float(density(th, rr).mean()) * TWO_PI * (r1 - r0)


def mapping_torus_volume(spec: MappingTorusSpec, s: float,
                         grid: int = 256) -> float:
    """int alpha_s ^ dalpha_s over the mapping torus by midpoint quadrature."""
    return _page_volume(lambda th, rr: spec.contact_density(s, th, rr),
                        *spec.r_range, grid)


# --------------------------------------------------------------- solid torus

def solid_torus_reeb(profiles: ProfileFunctions, state, s: float):
    """Reeb velocity of sigma_s = g dtheta + s f dx at (theta, r, x):
    (-f'/h, 0, g'/(s h)); on the core circle the dim3 family gives
    (0, 0, 1/(2s)) and the higher family (0, 0, 1/s)."""
    theta, r, x = state
    if r <= 1e-12:
        core = 0.5 / s if profiles.family == "dim3" else 1.0 / s
        return np.array([0.0, 0.0, core])
    ang, fib = profiles.speeds(np.asarray([r], float))
    return np.array([ang[0], 0.0, fib[0] / s])


def solid_torus_flow(profiles: ProfileFunctions, state, t: float, s: float):
    """Closed-form linear flow on the invariant torus {r = const}:
    (theta, r, x), angles left unreduced."""
    theta, r, x = state
    vel = solid_torus_reeb(profiles, state, s)
    return theta + vel[0] * t, r, x + vel[2] * t


def solid_torus_flow_rk4(profiles: ProfileFunctions, state, t: float, s: float):
    """(theta, r, x) by fixed-step RK4 integration of the solid-torus Reeb
    field, step _RK4_DT (oracle companion to the closed form; angles left
    unreduced).

    The field depends on the state only through r, so stage evaluations at
    an unchanged r reuse the cached velocity; the integration is bit-exact
    against a stage-by-stage field query.
    """
    y = np.asarray(state, float)
    n = max(1, int(round(abs(t) / _RK4_DT)))
    hstep = t / n
    cache_r = None
    cache_v = None

    def f(yy):
        nonlocal cache_r, cache_v
        if cache_r is None or yy[1] != cache_r:
            cache_r = yy[1]
            cache_v = solid_torus_reeb(profiles, yy, s)
        return cache_v

    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * hstep * k1)
        k3 = f(y + 0.5 * hstep * k2)
        k4 = f(y + hstep * k3)
        y = y + hstep / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return tuple(y)


def solid_torus_volume(profiles: ProfileFunctions, s: float,
                       x_coefficient: float = 1.0) -> float:
    """int sigma_s ^ dsigma_s = s c (2 pi)^2 int h dr, c the dx scale of the
    base form (1 for the dim3 torus, eps/(2 pi) for the open-book binding).

    int h dr is a composite Gauss-Legendre rule, _GL_NODES nodes on each
    panel between neighbouring profile breakpoints, where h is analytic;
    one evaluation of h covers every node.
    """
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    edges = profiles.breakpoints
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    val = float(half @ (profiles.h(mid[:, None] + half[:, None] * x) @ w))
    return s * x_coefficient * TWO_PI ** 2 * val


# --------------------------------------------------------------- assembly

# a huge s overflows the volumes, s^2 or the squared residuals: the checks
# below report that, so numpy's overflow warnings are silenced
@np.errstate(over="ignore", invalid="ignore")
def collapse_volumes(spec: MappingTorusSpec, profiles: ProfileFunctions,
                     s_list, grid: int = 256, fit_tol: float = 0.01):
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
    vol_st_unit = solid_torus_volume(profiles, 1.0)
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


# --------------------------------------------------------------- open book 3d

@dataclass
class OpenBook3D(_TwistedPage):
    """The one-dimensional-binding instance of the general construction.

    Page (0, R] x S^1 with ideal primitive lambda = (eps_hat / r) dx,
    eps_hat = eps / (2 pi) so the raw contact integral of the base form
    eps_hat dx over the binding circle equals eps.  Monodromy is a k-fold
    Dehn twist supported in [tau_lo, tau_hi], away from [0, r_eps].
    """

    eps: float = 0.1
    r_eps: float = 0.4
    page_r_max: float = 3.0
    k_twists: int = 1
    tau_support: tuple = (1.0, 2.5)

    def __post_init__(self):
        if self.tau_support[0] <= self.r_eps:
            raise FormsError("monodromy support must avoid [0, r_eps]")

    @property
    def eps_hat(self) -> float:
        return self.eps / TWO_PI

    def lambda_theta_of_y(self, theta, r):
        """lambda_theta(Y) = -eps_hat chi'(theta) tau'(r)."""
        return -self.eps_hat * self.chi_prime(theta) * self.tau_prime(r)

    def dlambda_page_integral(self, r_lo: float) -> float:
        """int of dlambda over the truncated page {r >= r_lo}."""
        return self.eps * (1.0 / r_lo - 1.0 / self.page_r_max)

    def mapping_torus_volume(self, s: float, r_lo: float,
                             grid: int = 256) -> float:
        return _page_volume(
            lambda th, rr: s * (self.eps_hat / rr ** 2) * (
                1.0 + s * self.lambda_theta_of_y(th, rr)),
            r_lo, self.page_r_max, grid)

    def total_volume(self, profiles: ProfileFunctions, s: float) -> float:
        if profiles.family != "higher" or profiles.r_eps != self.r_eps:
            raise FormsError("open book needs higher-family profiles on [0, r_eps]")
        mt = self.mapping_torus_volume(s, self.r_eps)
        st = solid_torus_volume(profiles, 1.0, x_coefficient=self.eps_hat)
        return mt + st

    def volume_bound(self, s: float) -> float:
        """Right-hand side 2 s int_{F_eps} dlambda + 12 pi n eps, n = 1."""
        return 2.0 * s * self.dlambda_page_integral(self.r_eps) + 12.0 * math.pi * self.eps

    def return_time(self, s: float, r: float) -> float:
        """T_s(r) = 2 pi + s int lambda_theta(Y) dtheta = 2 pi - s eps_hat tau'(r)."""
        return TWO_PI - s * self.eps_hat * self.tau_prime(np.array([r]))[0]
