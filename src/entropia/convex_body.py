"""Star and convex bodies in R^n given by radial samples on a direction grid.

A body is stored as its radial function over a fixed quasi-uniform grid of
unit directions: radial[i] is the distance from the origin to the boundary
along directions[i].  This representation handles non-convex stars and
convex bodies uniformly.  Operations that need convexity (polar duality,
symmetrizations, Loewner fits) check it first.

Two tolerance regimes apply.  Solver-level quantities (ellipsoid fits,
closed-form identities) are accurate to EPS_FIT.  Radial comparisons
between bodies that went through sampling are only meaningful down to the
grid mesh; use grid_tolerance(body) for those.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .spheres import (
    antipodal_indices,
    circle_grid,
    grid_mesh,
    sphere_grid,
    unit_ball_volume,
)

# solver tolerances
EPS_FIT = 1e-6          # ellipsoid containment / fixed-point slack
EPS_VOL = 1e-7          # relative volume optimality of the Loewner fit
EPS_SYM = 1e-9          # relative central-symmetry slack
EPS_HULL_REL = 1e-9     # convexity: hull-boundary distance, relative to diameter
EPS_TURN_REL = 1e-12    # planar hull: collinearity slack, relative to max |coord|
LOEWNER_MAX_ITER = 100_000

# grid-limited radial comparisons are good to about this many meshes
# (the constant absorbs vertex-angle effects of polygonal samples; measured
# involution errors on random polygons reach ~3 meshes)
GRID_TOL_FACTOR = 4.0


class BodyError(Exception):
    pass


class NotConvex(BodyError):
    pass


class OriginNotInterior(BodyError):
    pass


class DegenerateBody(BodyError):
    pass


class UnsupportedDim(BodyError):
    pass


@dataclass
class StarBody:
    """A star-shaped body sampled by its radial function.

    dim         ambient dimension (>= 2; hulls and fits have no dim 1)
    directions  (N, dim) unit vectors, centrally symmetric grid
    radial      (N,) positive distances to the boundary
    convex_flag cached convexity, None = unknown
    """

    dim: int
    directions: np.ndarray
    radial: np.ndarray
    convex_flag: bool | None = None

    def __post_init__(self):
        self.directions = np.asarray(self.directions, dtype=float)
        self.radial = np.asarray(self.radial, dtype=float)
        if self.directions.ndim != 2 or self.directions.shape[1] != self.dim:
            raise BodyError("directions must be (N, dim)")
        if self.radial.shape != (len(self.directions),):
            raise BodyError("radial must match directions")
        if not np.all(np.isfinite(self.radial)) or np.any(self.radial <= 0.0):
            raise OriginNotInterior("radial function must be strictly positive")
        norms = np.linalg.norm(self.directions, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise BodyError("directions must be unit vectors")

    # -- constructors ------------------------------------------------------

    @classmethod
    def ball(cls, dim: int, radius: float = 1.0, n: int | None = None) -> "StarBody":
        dirs = sphere_grid(dim, n)
        return cls(dim, dirs, np.full(len(dirs), float(radius)), convex_flag=True)

    @classmethod
    def from_radial_function(cls, dim, fn, n=None, convex=None) -> "StarBody":
        dirs = sphere_grid(dim, n)
        return cls(dim, dirs, np.asarray(fn(dirs), dtype=float), convex_flag=convex)

    @classmethod
    def from_points(cls, points: np.ndarray, n: int | None = None) -> "StarBody":
        """Convex hull of a point cloud (origin must be interior), resampled."""
        points = np.asarray(points, dtype=float)
        dim = points.shape[1]
        dirs = sphere_grid(dim, n)
        rad = hull_radial(points, dirs)
        return cls(dim, dirs, rad, convex_flag=True)

    # -- serialization (External Interfaces) --------------------------------

    @classmethod
    def from_json(cls, obj) -> "StarBody":
        if isinstance(obj, str):
            obj = json.loads(obj)
        dim = int(obj["dim"])
        if dim < 2:
            raise UnsupportedDim(f"dim must be at least 2, got {dim}")
        radial = np.asarray(obj["radial"], dtype=float)
        if "directions" in obj and obj["directions"] is not None:
            dirs = np.asarray(obj["directions"], dtype=float)
        else:
            dirs = sphere_grid(dim, len(radial))
        return cls(dim, dirs, radial)

    def to_json(self, include_directions: bool = False) -> str:
        obj = {"dim": self.dim, "radial": self.radial.tolist()}
        if include_directions:
            obj["directions"] = self.directions.tolist()
        return json.dumps(obj)

    # -- basic geometry ------------------------------------------------------

    @property
    def points(self) -> np.ndarray:
        return self.radial[:, None] * self.directions

    @property
    def mesh(self) -> float:
        return grid_mesh(self.directions)

    def antipodal_radial(self) -> np.ndarray:
        return self.radial[antipodal_indices(self.directions)]

    def support(self, u: np.ndarray) -> np.ndarray:
        """h_K(u) = max_i <radial_i d_i, u> from the samples (inner approx)."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return (u @ self.points.T).max(axis=1)

    def is_symmetric(self, tol: float = None) -> bool:
        tol = EPS_SYM if tol is None else tol
        r = self.radial
        return float(np.max(np.abs(self.antipodal_radial() - r) / r)) <= tol

    def scaled(self, c: float) -> "StarBody":
        return StarBody(self.dim, self.directions, c * self.radial, self.convex_flag)


def grid_tolerance(body: StarBody) -> float:
    """Relative tolerance for radial comparisons limited by the grid mesh.

    Scales with the radial aspect ratio: eccentric bodies have boundary
    vertices nearly parallel to the rays, which amplifies sampling error
    proportionally.
    """
    aspect = float(body.radial.max() / body.radial.min())
    return GRID_TOL_FACTOR * body.mesh * max(1.0, 0.5 * aspect)


# -- convex hull machinery ---------------------------------------------------


def _planar_hull_vertices(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise vertices of conv(points) in R^2 (monotone chain).

    A middle point is dropped when its distance to the chord of its
    neighbours is at most EPS_TURN_REL times the largest |coordinate|, so
    near-collinear samples of one edge, and points that nearly coincide,
    leave no micro-edge whose normal would be rounding noise.  Abscissae
    that differ by at most that slack count as equal in the sort, so the
    samples of a near-vertical edge, whose x differ by rounding only, reach
    the chain in order of y, as on an exactly vertical edge; in x order
    alone an extreme sample could arrive beyond its neighbours and be
    dropped as their middle point.
    """
    tol = EPS_TURN_REL * float(np.abs(points).max())
    order = np.lexsort((points[:, 1], points[:, 0]))
    column = np.concatenate([[0], np.cumsum(np.diff(points[order, 0]) > tol)])
    order = order[np.lexsort((points[order, 1], column))]
    pts = points[order].tolist()

    def chain(seq):
        out = []
        for x, y in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                cross = (ax - ox) * (y - oy) - (ay - oy) * (x - ox)
                if cross > tol * math.hypot(x - ox, y - oy):
                    break
                out.pop()
            out.append((x, y))
        return out

    return np.array(chain(pts)[:-1] + chain(reversed(pts))[:-1])


def _qhull(points: np.ndarray):
    """scipy's ConvexHull of points in dim >= 3; a cloud that qhull rejects
    raises DegenerateBody."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        return ConvexHull(points)
    except QhullError as exc:
        # qhull's first line names the error; the rest is a manual
        reason = str(exc).strip().splitlines()[0]
        raise DegenerateBody(f"point cloud is degenerate: {reason}") from exc


def _hull_equations(points: np.ndarray) -> np.ndarray:
    """Facets of conv(points) as rows (a, b) of a.x + b <= 0, a outward.

    dim 2 runs a monotone chain with unit edge normals; other dims run qhull
    (dim >= 3; it rejects dim 1).
    """
    points = np.asarray(points, dtype=float)
    if points.shape[1] != 2:
        return _qhull(points).equations
    verts = _planar_hull_vertices(points)
    if len(verts) < 3:
        raise DegenerateBody("point cloud spans fewer than 3 hull vertices")
    edge = np.roll(verts, -1, axis=0) - verts
    normals = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return np.hstack([normals, -np.einsum("ij,ij->i", normals, verts)[:, None]])


def _min_over_facets(x: np.ndarray, normals: np.ndarray, value) -> np.ndarray:
    """Row minima of value(x @ normals.T), in chunks of about 4e6 entries."""
    out = np.empty(len(x))
    chunk = max(1, int(4e6) // max(len(normals), 1))
    for lo in range(0, len(x), chunk):
        sl = slice(lo, min(lo + chunk, len(x)))
        out[sl] = value(x[sl] @ normals.T).min(axis=1)
    return out


def hull_radial(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Radial function of conv(points) (origin interior) by facet ray casting."""
    eq = _hull_equations(points)
    A, b = eq[:, :-1], eq[:, -1]
    if np.any(b >= 0.0):
        raise OriginNotInterior("origin is not interior to the hull")
    return _min_over_facets(directions, A, lambda denom: np.where(
        denom > 1e-300, -b[None, :] / np.where(denom > 0, denom, 1.0), np.inf))


def is_convex(body: StarBody) -> bool:
    """All sampled boundary points lie on the boundary of their convex hull
    (within EPS_HULL_REL times the diameter)."""
    if body.convex_flag is not None:
        return body.convex_flag
    pts = body.points
    diam = 2.0 * float(body.radial.max())
    eq = _hull_equations(pts)
    A, b = eq[:, :-1], eq[:, -1]
    # distance of each sample to the hull boundary (samples are inside by def)
    depth = _min_over_facets(pts, A, lambda prod: -prod - b[None, :])
    ok = bool(depth.max() <= max(EPS_HULL_REL * diam, 1e-12))
    body.convex_flag = ok
    return ok


def _require_convex(body: StarBody):
    if not is_convex(body):
        raise NotConvex("operation requires a convex body")


def _hull_facet_normals(points: np.ndarray) -> np.ndarray:
    A = _hull_equations(points)[:, :-1]
    return A / np.linalg.norm(A, axis=1, keepdims=True)


# -- operations ---------------------------------------------------------------


def polar_dual(body: StarBody) -> StarBody:
    """Polar body: radial of the dual equals 1 / h_K at every grid direction."""
    _require_convex(body)
    h = body.support(body.directions)
    return StarBody(body.dim, body.directions, 1.0 / h, convex_flag=True)


def reflection_body(body: StarBody) -> StarBody:
    """conv(K u -K), the symmetrization with the 2^n Rogers-Shephard bound."""
    _require_convex(body)
    pts = body.points
    rad = hull_radial(np.vstack([pts, -pts]), body.directions)
    return StarBody(body.dim, body.directions, rad, convex_flag=True)


def difference_body(body: StarBody) -> StarBody:
    """Minkowski difference body K - K via support-function addition.

    radial_{K-K}(d) = min_u (h_K(u) + h_K(-u)) / <d,u>, minimized over the
    facet normals of the sampled body (exact for polytopal samples) plus the
    grid directions as a safeguard for smooth bodies.
    """
    _require_convex(body)
    pts = body.points
    normals = _hull_facet_normals(pts)
    cand = np.vstack([normals, -normals, body.directions])
    h_plus = (pts @ cand.T).max(axis=0)
    h_minus = (pts @ (-cand.T)).max(axis=0)
    hsum = h_plus + h_minus
    rad = _min_over_facets(body.directions, cand, lambda denom: np.where(
        denom > 1e-12, hsum[None, :] / np.where(denom > 0, denom, 1.0), np.inf))
    return StarBody(body.dim, body.directions, rad, convex_flag=True)


@dataclass
class Ellipsoid:
    """Centered ellipsoid {x : x^T A x <= 1} with symmetric positive A."""

    dim: int
    form: np.ndarray

    def __post_init__(self):
        self.form = np.asarray(self.form, dtype=float)
        if self.form.shape != (self.dim, self.dim):
            raise BodyError("form must be (dim, dim)")
        if np.max(np.abs(self.form - self.form.T)) > EPS_SYM * (1 + np.abs(self.form).max()):
            raise BodyError("form must be symmetric")
        self.form = 0.5 * (self.form + self.form.T)
        if np.any(np.linalg.eigvalsh(self.form) <= 0.0):
            raise DegenerateBody("form must be positive definite")

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.dim) / math.sqrt(float(np.linalg.det(self.form)))

    def radial(self, u: np.ndarray) -> np.ndarray:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return 1.0 / np.sqrt(np.einsum("ij,jk,ik->i", u, self.form, u))

    def contains(self, points: np.ndarray, tol: float = EPS_FIT) -> bool:
        q = np.einsum("ij,jk,ik->i", points, self.form, points)
        return bool(q.max() <= 1.0 + tol)

    def polar(self) -> "Ellipsoid":
        return Ellipsoid(self.dim, np.linalg.inv(self.form))


def _quadratic_form_rows(cols: np.ndarray, Q: np.ndarray, out: np.ndarray,
                         buf: np.ndarray) -> np.ndarray:
    """out[i] = x_i^T Q x_i, where cols (d, m) holds the points x_i as columns.

    Forms every term (x_j Q_jk) x_k in buf (d, d, m) and sums them j outer, k
    inner: the products and the order of np.einsum("ij,jk,ik->i", x, Q, x),
    so the two agree bit for bit, in three array operations.
    """
    d, m = cols.shape
    np.multiply(cols[:, None, :], Q[:, :, None], out=buf)
    np.multiply(buf, cols, out=buf)
    return np.add.reduce(buf.reshape(d * d, m), axis=0, out=out)


def _mvee_centered(points: np.ndarray) -> np.ndarray:
    """Minimum-volume centered ellipsoid of a symmetric point cloud.

    Khachiyan barycentric coordinate ascent with Wolfe away steps.  Returns
    the form A of {x : x^T A x <= 1}, rescaled so every input point is
    contained exactly (the extreme point sits on the boundary).  A fit stops
    when it converges or at LOEWNER_MAX_ITER iterations; one whose weights
    repeat bit for bit jumps to the cap and returns the same form.
    """
    m, d = points.shape
    if m <= d or np.linalg.matrix_rank(points) < d:
        raise DegenerateBody("samples span a lower-dimensional subspace")
    u = np.full(m, 1.0 / m)
    # stop when the volume excess (kappa/d)^(d/2) - 1 drops below EPS_VOL
    kappa_tol = 2.0 * EPS_VOL / d
    # per-iteration arrays, allocated once
    cols = np.ascontiguousarray(points.T)
    weighted = np.empty_like(points)
    M = np.empty((d, d))
    w = np.empty(m)
    terms = np.empty((d, d, m))

    def gram_and_distances():
        np.multiply(points, u[:, None], out=weighted)
        np.matmul(weighted.T, points, out=M)
        _quadratic_form_rows(cols, np.linalg.inv(M), w, terms)

    # Brent's cycle detection.  u is the whole iteration state (M, w and the
    # buffers are rewritten from it), so when its bits repeat with period p
    # every later state is one already seen, and failed the stopping test:
    # the state at the cap is the one (cap - it) mod p updates ahead.
    saved, saved_kappa, saved_at, power = None, math.nan, 0, 1
    it = 0
    while it < LOEWNER_MAX_ITER:
        gram_and_distances()
        j = int(np.argmax(w))
        kappa = w[j]
        active = u > 1e-16
        jm = int(np.argmin(np.where(active, w, np.inf)))
        kmin = w[jm]
        if kappa / d - 1.0 <= kappa_tol and 1.0 - kmin / d <= kappa_tol:
            break
        if it == power:
            saved, saved_kappa, saved_at, power = u.tobytes(), kappa, it, 2 * power
        elif kappa == saved_kappa and u.tobytes() == saved:
            it = LOEWNER_MAX_ITER - (LOEWNER_MAX_ITER - it) % (it - saved_at)
            if it == LOEWNER_MAX_ITER:
                break  # M and w already belong to the state at the cap
        if kappa - d >= d - kmin:
            beta = (kappa - d) / (d * (kappa - 1.0))
            u *= 1.0 - beta
            u[j] += beta
        else:
            beta = min((d - kmin) / (d * (kmin - 1.0)), u[jm] / (1.0 - u[jm]))
            u *= 1.0 + beta
            u[jm] -= beta
        it += 1
    else:
        gram_and_distances()
    return np.linalg.inv(M * w.max())


def outer_loewner(body: StarBody) -> Ellipsoid:
    """Outer Loewner ellipsoid: minimum-volume centered ellipsoid containing
    the samples and their reflections.

    A symmetric body is fitted on the hull vertices of its samples: a
    centered ellipsoid contains x exactly when it contains -x, and it
    contains a point set exactly when it contains the set's hull vertices
    (the core-set view of Kumar and Yildirim, 2005).  Containment of every
    sample and its reflection at EPS_FIT is checked after the fit either
    way, and is the certificate.
    """
    samples = body.points
    pts = np.vstack([samples, -samples])
    if not body.is_symmetric(tol=1e-7):
        # Kept on every sample only because the capped fits of non-symmetric
        # bodies are pinned by perfbench/goldens.json and
        # tests/test_bodies_replay.py; on hull vertices they reach the true
        # minimum, 16-18% smaller.  Goes with the away-step fix (ROADMAP B).
        fit = pts
    elif body.dim == 2:
        fit = _planar_hull_vertices(samples)
    else:
        fit = samples[_qhull(samples).vertices]
    ell = Ellipsoid(body.dim, _mvee_centered(fit))
    if not ell.contains(pts, EPS_FIT):
        raise BodyError("Loewner fit lost containment")
    return ell


def inner_loewner(body: StarBody) -> Ellipsoid:
    """Maximum-volume centered inscribed ellipsoid of a symmetric convex body.

    Computed by polarity: the polar of the outer Loewner ellipsoid of the
    polar body.  Asserts John's sandwich E <= K <= sqrt(n) E on the samples
    up to the grid tolerance.
    """
    _require_convex(body)
    work = body
    if not body.is_symmetric(tol=1e-7):
        work = reflection_body(body)
    dual = polar_dual(work)
    ell = outer_loewner(dual).polar()
    tol = grid_tolerance(work)
    r_e = ell.radial(work.directions)
    if np.any(r_e > work.radial * (1.0 + tol)):
        raise BodyError("John sandwich violated: E exceeds K beyond tolerance")
    if np.any(work.radial > math.sqrt(work.dim) * r_e * (1.0 + tol)):
        raise BodyError("John sandwich violated: K exceeds sqrt(n) E")
    return ell


def volume(body: StarBody, method: str = "radial_quadrature",
           seed: int = 0, n_samples: int = 200_000):
    """Volume of the body.

    exact2d            polygon shoelace on the boundary samples (dim 2 only)
    radial_quadrature  int radial^n / n over the sphere grid
    monte_carlo        unbiased sampling of omega_n E[radial(U)^n]; returns
                       (value, standard_error)
    """
    n = body.dim
    if method == "exact2d":
        if n != 2:
            raise UnsupportedDim("exact2d requires dim == 2")
        pts = body.points
        x, y = pts[:, 0], pts[:, 1]
        return 0.5 * float(np.abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
    if method == "radial_quadrature":
        return unit_ball_volume(n) * float(np.mean(body.radial ** n))
    if method == "monte_carlo":
        return _volume_monte_carlo(body, seed, n_samples)
    raise ValueError(f"unknown volume method: {method}")


def _volume_monte_carlo(body: StarBody, seed: int, n_samples: int):
    """vol = omega_n E[radial(U)^n] over uniform directions U.

    The radial function at off-grid directions is the piecewise-linear
    interpolant in angle for dim 2 and the nearest grid sample otherwise,
    which is the body the estimator is unbiased for.  Sampling runs in
    fixed-size chunks with per-chunk seeds so results are reproducible and
    independent of any worker partitioning.
    """
    n = body.dim
    # nearest-direction lookup in d >= 3 builds an (m, N) score matrix;
    # keep chunks small enough to bound it
    chunk = 1 << 14 if n == 2 else max(1, (1 << 24) // len(body.directions))
    total = 0.0
    total_sq = 0.0
    done = 0
    k = 0
    if n == 2:
        ang = np.arctan2(body.directions[:, 1], body.directions[:, 0])
        order = np.argsort(ang)
        ang_sorted = ang[order]
        rad_sorted = body.radial[order]
    while done < n_samples:
        m = min(chunk, n_samples - done)
        rng = np.random.default_rng(seed + k)
        g = rng.normal(size=(m, n))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        if n == 2:
            a = np.arctan2(u[:, 1], u[:, 0])
            r = np.interp(a, ang_sorted, rad_sorted,
                          period=2 * np.pi)
        else:
            idx = np.argmax(u @ body.directions.T, axis=1)
            r = body.radial[idx]
        vals = r ** n
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
        done += m
        k += 1
    w = unit_ball_volume(n)
    mean = total / n_samples
    var = max(total_sq / n_samples - mean ** 2, 0.0) / n_samples
    return w * mean, w * math.sqrt(var)


def irreversibility_ratio(body: StarBody) -> float:
    """theta = max_u radial(-u) / radial(u); 1 iff centrally symmetric."""
    _require_convex(body)
    ratios = body.antipodal_radial() / body.radial
    return float(ratios.max())


def sigma_starshapedness(body: StarBody):
    """Upper bound for the starshapedness modulus via the convex hull.

    With C = conv(K) one has K <= C, so sigma_- = 1 and
    sigma_upper = max_u radial_C(u) / radial_K(u).  Returns the bound and
    the witness body C.  Equals 1 exactly when K is convex.
    """
    rad_c = hull_radial(body.points, body.directions)
    witness = StarBody(body.dim, body.directions, rad_c, convex_flag=True)
    sigma_upper = float((rad_c / body.radial).max())
    return max(sigma_upper, 1.0), witness
