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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .spheres import (
    MAX_BALL_DIM,
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
EPS_TURN_REL = 1e-12    # hulls: collinear/coplanar slack, relative to max |coord|
LOEWNER_MAX_ITER = 100_000

# cap on n^floor(d/2) for the hull of n points in R^d, the upper-bound
# theorem's order of its facet count: the canonical 4-D and 5-D balls
# (4,096 samples, 1.7e7) take a few seconds, the 6-D ball (6.9e10) about
# 44 s and 64 samples in 12-D (6.9e10) over a minute
BODY_BUDGET = 10 ** 9

# grid-limited radial comparisons are good to about this many meshes
# (the constant absorbs vertex-angle effects of polygonal samples; measured
# involution errors on random polygons reach ~3 meshes)
GRID_TOL_FACTOR = 4.0


class BodyBudgetExceeded(Exception):
    """A hull over BODY_BUDGET; a usage error, not a body failure."""


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


def _numbers(key: str, values) -> np.ndarray:
    """The JSON list values under key as a float array; booleans and
    strings are no numbers."""
    if not isinstance(values, list):
        raise BodyError(f"{key} must be a list of numbers, got "
                        f"{type(values).__name__}")
    for i, v in enumerate(values):
        if type(v) not in (int, float):
            raise BodyError(f"{key}[{i}] must be a number, got {v!r}")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise BodyError(f"{key} holds an integer past the float range") from None


@dataclass
class StarBody:
    """A star-shaped body sampled by its radial function.

    dim         ambient dimension (>= 2; hulls and fits have no dim 1)
    directions  (N, dim) unit vectors, centrally symmetric grid
    radial      (N,) positive distances to the boundary
    convex_flag cached convexity, None = unknown
    hull        cached hull of the samples, None = not yet computed
    """

    dim: int
    directions: np.ndarray
    radial: np.ndarray
    convex_flag: bool | None = None
    hull: "Hull | None" = field(default=None, repr=False, compare=False)

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
        if not np.all(np.abs(norms - 1.0) <= 1e-9):  # NaN fails too
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
        """Strict inverse of to_json: an object with dim, an integral number
        from 2 to MAX_BALL_DIM, radial, a list of numbers, and optional
        directions, a centrally symmetric grid of unit vectors; no other
        key.  Booleans are no numbers."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise BodyError("a body is an object with the keys dim and radial, "
                            f"got {type(obj).__name__}")
        missing = [key for key in ("dim", "radial") if key not in obj]
        if missing:
            raise BodyError(f"missing body key(s) {missing}")
        unknown = sorted(set(obj) - {"dim", "radial", "directions"})
        if unknown:
            raise BodyError(f"unknown body key(s) {unknown}")
        dim = obj["dim"]
        if type(dim) not in (int, float) or dim % 1:
            raise UnsupportedDim(f"dim must be an integer, got {dim!r}")
        dim = int(dim)
        if dim < 2:
            raise UnsupportedDim(f"dim must be at least 2, got {dim}")
        if dim > MAX_BALL_DIM:
            raise UnsupportedDim(f"dim must be at most {MAX_BALL_DIM}, where the "
                                 f"unit-ball volume leaves the float range, got {dim}")
        radial = _numbers("radial", obj["radial"])
        directions = obj.get("directions")
        if directions is None:
            # the canonical grids are centrally symmetric: an even count
            if not len(radial) or len(radial) % 2:
                raise BodyError("radial without directions must hold an even, "
                                f"positive number of samples, got {len(radial)}")
            return cls(dim, sphere_grid(dim, len(radial)), radial)
        if not isinstance(directions, list):
            raise BodyError(f"directions must be a list of unit vectors, got "
                            f"{type(directions).__name__}")
        directions = [_numbers(f"directions[{i}]", d) for i, d in enumerate(directions)]
        for i, d in enumerate(directions):
            if len(d) != dim:
                raise BodyError(f"directions[{i}] must have {dim} numbers, "
                                f"got {len(d)}")
        body = cls(dim, np.array(directions), radial)
        try:
            antipodal_indices(body.directions)
        except ValueError as exc:
            raise BodyError(str(exc)) from exc
        return body

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


class Hull(NamedTuple):
    """conv(points): facet rows (a, b) of a.x + b <= 0, a unit and outward,
    the indices of the points that are its vertices, and, where the hull's
    certificate measured them, the distances of the other points below its
    boundary (min over facets of -(a.x + b)), in index order."""

    equations: np.ndarray
    vertices: np.ndarray
    depth: np.ndarray | None = None


def _planar_hull_vertices(points: np.ndarray) -> np.ndarray:
    """Indices of the counter-clockwise vertices of conv(points) in R^2
    (monotone chain).

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
    pts = [(x, y, i) for i, (x, y) in zip(order.tolist(), points[order].tolist())]

    def chain(seq):
        out = []
        for x, y, i in seq:
            while len(out) >= 2:
                (ox, oy, _), (ax, ay, _) = out[-2], out[-1]
                cross = (ax - ox) * (y - oy) - (ay - oy) * (x - ox)
                if cross > tol * math.hypot(x - ox, y - oy):
                    break
                out.pop()
            out.append((x, y, i))
        return out

    hull = chain(pts)[:-1] + chain(reversed(pts))[:-1]
    return np.array([i for _, _, i in hull], dtype=np.intp)


def _planar_hull(points: np.ndarray) -> Hull:
    """conv(points) in R^2, with the unit normals of the chain's edges."""
    idx = _planar_hull_vertices(points)
    if len(idx) < 3:
        raise DegenerateBody("point cloud spans fewer than 3 hull vertices")
    verts = points[idx]
    edge = np.roll(verts, -1, axis=0) - verts
    normals = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return Hull(np.hstack([normals, -np.einsum("ij,ij->i", normals, verts)[:, None]]),
                idx)


def _facet_planes(points: np.ndarray, tri: np.ndarray):
    """Unit normals and offsets of the triangles tri, each row counter-
    clockwise seen from the side its normal points to.  The normal is the
    cross product of the two shorter edges, whose rounding error is the
    smallest of the three choices."""
    corner = points[tri]
    edge = corner[:, [1, 2, 0]] - corner
    # edges e and e + 1 meet at corner e + 1; skip the longest edge
    e = (np.argmax(np.einsum("fij,fij->fi", edge, edge), axis=1) + 1) % 3
    rows = np.arange(len(tri))
    u, v = edge[rows, e], edge[rows, (e + 1) % 3]
    normal = u[:, [1, 2, 0]] * v[:, [2, 0, 1]] - u[:, [2, 0, 1]] * v[:, [1, 2, 0]]
    normal /= np.sqrt(np.einsum("ij,ij->i", normal, normal))[:, None]
    return normal, -np.einsum("ij,ij->i", normal, corner.sum(axis=1)) / 3.0


def _initial_tetrahedron(points: np.ndarray, tol: float) -> np.ndarray:
    """Four facets (rows of point indices, outward counter-clockwise) of a
    tetrahedron on extreme points; a cloud with no such tetrahedron of
    height above tol raises DegenerateBody."""
    lo, hi = points.argmin(axis=0), points.argmax(axis=0)
    axis = int(np.argmax(points[hi, [0, 1, 2]] - points[lo, [0, 1, 2]]))
    i, j = int(lo[axis]), int(hi[axis])
    if points[j, axis] - points[i, axis] <= tol:
        raise DegenerateBody("point cloud is degenerate: its points coincide")
    rel = points - points[i]
    u = rel[j] / np.linalg.norm(rel[j])
    off_line = np.linalg.norm(rel - np.outer(rel @ u, u), axis=1)
    k = int(np.argmax(off_line))
    if off_line[k] <= tol:
        raise DegenerateBody("point cloud is degenerate: its points lie on a line")
    normal = np.cross(rel[j], rel[k])
    height = rel @ (normal / np.linalg.norm(normal))
    m = int(np.argmax(np.abs(height)))
    if abs(height[m]) <= tol:
        raise DegenerateBody("point cloud is degenerate: its points lie in a plane")
    a, b, c = (i, k, j) if height[m] > 0 else (i, j, k)
    return np.array([[a, b, c], [b, a, m], [c, b, m], [a, c, m]])


def _spatial_facets(points: np.ndarray):
    """The facets of conv(points) in R^3 as rows of point indices, counter-
    clockwise seen from outside, and the Hull, which keeps the certificate's
    depths; None when the result fails its certificate.

    Quickhull (Barber, Dobkin and Huhdanpaa 1996), run in rounds so that
    numpy does the work of many insertions at once.

    The hull is a closed surface of triangles; nbr[f, e] is the facet across
    edge e of facet f, the edge from tri[f, e] to tri[f, (e + 1) % 3].  A
    point counts as above a facet when it is more than EPS_TURN_REL times
    the largest |coordinate| above its plane, so points on a facet within
    that slack (coplanar samples, near-duplicates) are never inserted.
    Each round takes the furthest point above every facet that has one,
    finds the facets it sees, and inserts the points whose visible facets
    no better-ranked point reaches, and which see no facet that a better-
    ranked point reaches (a Luby-style independent set): their cones are
    disjoint and not adjacent, so they can be built together.  The furthest
    point ranks first and is always inserted.  Points above a deleted facet
    move to the new facet of the same cone they are furthest above, or drop
    out as inside.

    Within the slack, facets may fold slightly.  Where many points crowd
    far below that scale (clusters of points 1e-9 apart, say), a fold of a
    sliver facet can tilt its plane far enough to misplace later points.
    So the result is certified: no vertex across an edge of a facet, and no
    point that is not a vertex, may lie more than the convexity slack
    (EPS_HULL_REL times the diameter) above the facet's plane.
    """
    n = len(points)
    tol = EPS_TURN_REL * float(np.abs(points).max())
    tri = _initial_tetrahedron(points, tol)
    nbr = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    normal, offset = _facet_planes(points, tri)
    alive = np.ones(4, dtype=bool)
    above = points @ normal.T + offset
    facet = np.argmax(above, axis=1)
    height = above[np.arange(n), facet]
    pt = np.flatnonzero(height > tol)
    facet, height = facet[pt], height[pt]
    while len(pt):
        nf = len(tri)
        # candidates: the furthest point above each facet, furthest first
        top = np.zeros(nf)
        np.maximum.at(top, facet, height)
        furthest = np.flatnonzero(height == top[facet])
        first = np.full(nf, -1)
        first[facet[furthest]] = furthest
        first = first[first >= 0]
        first = first[np.argsort(-height[first], kind="stable")]
        apex, nc = pt[first], len(first)
        # visible facets by breadth-first search from each candidate's own
        # facet.  A candidate is inserted unless a better-ranked one reaches
        # a facet it sees, or sees a facet it reaches (two rims may meet)
        seer, reacher = np.full(nf, nc), np.full(nf, nc)
        lost = np.zeros(nc, dtype=bool)
        vc, vf = np.arange(nc), facet[first]
        seer[vf] = reacher[vf] = vc
        reach_c, reach_f, sees = [vc], [vf], [np.ones(nc, dtype=bool)]
        while len(vc):
            key = np.sort(np.repeat(vc, 3) * nf + nbr[vf].ravel())
            c, f = np.divmod(key[np.concatenate([[True], key[1:] != key[:-1]])], nf)
            fresh = ~lost[c] & (reacher[f] != c)
            c, f = c[fresh], f[fresh]
            up = np.einsum("ij,ij->i", points[apex[c]], normal[f]) + offset[f] > tol
            np.minimum.at(reacher, f, c)
            np.minimum.at(seer, f[up], c[up])
            lost[c[(seer[f] < c) | up & (reacher[f] < c)]] = True
            reach_c.append(c)
            reach_f.append(f)
            sees.append(up)
            vc, vf = c[up], f[up]
        c, f, up = (np.concatenate(x) for x in (reach_c, reach_f, sees))
        lost[c[(seer[f] < c) | up & (reacher[f] < c)]] = True
        vc, vf = c[up & ~lost[c]], f[up & ~lost[c]]
        # horizon: the edges from a visible facet to one its apex does not see
        cone = np.full(nf, -1)
        cone[vf] = vc
        hf, he = np.repeat(vf, 3), np.tile(np.arange(3), len(vf))
        hg = nbr[hf, he]
        rim = cone[hg] < 0
        hf, he, hg = hf[rim], he[rim], hg[rim]
        by_cone = np.argsort(cone[hf], kind="stable")
        hf, he, hg = hf[by_cone], he[by_cone], hg[by_cone]
        hc = cone[hf]
        a, b = tri[hf, he], tri[hf, (he + 1) % 3]
        # one new facet (a, b, apex) per horizon edge a -> b
        nh = len(hf)
        new = nf + np.arange(nh)
        new_tri = np.stack([a, b, apex[hc]], axis=1)
        new_nbr = np.empty((nh, 3), dtype=nbr.dtype)
        new_nbr[:, 0] = hg
        nbr[hg, np.argmax(nbr[hg] == hf[:, None], axis=1)] = new
        # within a cone, the facet on edge b -> apex starts its horizon edge at b
        starts, ends = hc * n + a, hc * n + b
        by_start = np.argsort(starts)
        nxt = by_start[np.minimum(np.searchsorted(starts, ends, sorter=by_start),
                                  nh - 1)]
        if np.any(starts[nxt] != ends) or np.any(np.diff(starts[by_start]) == 0):
            return None  # a horizon that is not one cycle
        new_nbr[:, 1] = new[nxt]
        new_nbr[nxt, 2] = new
        new_normal, new_offset = _facet_planes(points, new_tri)
        tri = np.concatenate([tri, new_tri])
        nbr = np.concatenate([nbr, new_nbr])
        normal = np.concatenate([normal, new_normal])
        offset = np.concatenate([offset, new_offset])
        alive = np.concatenate([alive, np.ones(nh, dtype=bool)])
        alive[vf] = False
        # reassign the points above deleted facets, except the new vertices
        owner = cone[facet]
        inserted = np.zeros(n, dtype=bool)
        inserted[apex[~lost]] = True
        moved = (owner >= 0) & ~inserted[pt]
        keep = owner < 0
        m_pt, m_c = pt[moved], owner[moved]
        pt, facet, height = pt[keep], facet[keep], height[keep]
        if len(m_pt):
            count = np.bincount(hc, minlength=nc)
            rep = count[m_c]
            end = np.cumsum(rep)
            begin = end - rep
            fid = np.arange(end[-1]) + np.repeat(np.cumsum(count)[m_c] - count[m_c]
                                                 - begin, rep)
            d = np.einsum("ij,ij->i", points[np.repeat(m_pt, rep)],
                          new_normal[fid]) + new_offset[fid]
            best = np.maximum.reduceat(d, begin)
            hit = np.flatnonzero(d == np.repeat(best, rep))
            hit = hit[np.searchsorted(hit, begin)]
            out = best > tol
            pt = np.concatenate([pt, m_pt[out]])
            facet = np.concatenate([facet, nf + fid[hit][out]])
            height = np.concatenate([height, best[out]])
    # certificate: no vertex across an edge, and no other point, lies more
    # than the convexity slack above a facet
    slack = EPS_HULL_REL * 2.0 * float(np.abs(points).max())
    facets = np.flatnonzero(alive)
    f, g = np.repeat(facets, 3), nbr[facets].ravel()
    across = tri[g, (np.argmax(nbr[g] == f[:, None], axis=1) + 2) % 3]
    tri, normal, offset = tri[facets], normal[facets], offset[facets]
    rest = np.ones(n, dtype=bool)
    rest[tri] = False
    depth = _min_over_facets(points[rest], -normal,
                             lambda prod: np.subtract(prod, offset, out=prod))
    if (np.einsum("ij,ij->i", points[across], np.repeat(normal, 3, axis=0))
            + np.repeat(offset, 3)).max() > slack or depth.min(initial=0.0) < -slack:
        return None
    return tri, Hull(np.hstack([normal, offset[:, None]]), np.flatnonzero(~rest),
                     depth)


def _qhull(points: np.ndarray) -> Hull:
    """scipy's ConvexHull of the points; a cloud that qhull rejects raises
    DegenerateBody, in the quickhull's words when the cloud is flat."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        if np.linalg.matrix_rank(points - points[0]) < points.shape[1]:
            raise DegenerateBody("point cloud is degenerate: its points lie "
                                 "in a hyperplane") from exc
        # qhull's first line names the error; the rest is a manual
        reason = str(exc).strip().splitlines()[0]
        raise DegenerateBody(f"point cloud is degenerate: {reason}") from exc
    return Hull(hull.equations, hull.vertices)


def _convex_hull(points: np.ndarray) -> Hull:
    """conv(points) as facet rows (a, b) of a.x + b <= 0, a unit and outward,
    plus the indices of its vertices.

    dim 2 runs a monotone chain (vertices counter-clockwise), dim 3 a numpy
    quickhull, and other dims, or a 3-D cloud whose quickhull fails its
    certificate, qhull (scipy; it rejects dim 1).  A flat, collinear or
    coincident cloud raises DegenerateBody, and n points in R^d with
    n^floor(d/2) over BODY_BUDGET raise BodyBudgetExceeded first.
    """
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    if n ** (dim // 2) > BODY_BUDGET:
        raise BodyBudgetExceeded(
            f"the hull of {n} points in R^{dim} may have up to {n}^{dim // 2} "
            f"facets, over the budget of {BODY_BUDGET:.0e}")
    if dim == 2:
        return _planar_hull(points)
    facets = _spatial_facets(points) if dim == 3 else None
    return _qhull(points) if facets is None else facets[1]


def _sample_hull(body: "StarBody") -> Hull:
    """The hull of the body's samples, computed once per body."""
    if body.hull is None:
        body.hull = _convex_hull(body.points)
    return body.hull


def _min_over_facets(x: np.ndarray, normals: np.ndarray, value) -> np.ndarray:
    """Row minima of value(x @ normals.T), in chunks of about 4e6 entries."""
    out = np.empty(len(x))
    chunk = max(1, int(4e6) // max(len(normals), 1))
    for lo in range(0, len(x), chunk):
        sl = slice(lo, min(lo + chunk, len(x)))
        out[sl] = value(x[sl] @ normals.T).min(axis=1)
    return out


def _ray_cast(directions: np.ndarray, normals: np.ndarray, offsets: np.ndarray):
    """Radial function of {x : <x, normal> <= offset > 0 for every normal}."""
    return _min_over_facets(directions, normals, lambda denom: np.where(
        denom > 1e-300, offsets[None, :] / np.where(denom > 0, denom, 1.0), np.inf))


def hull_radial(points: np.ndarray, directions: np.ndarray,
                hull: Hull | None = None) -> np.ndarray:
    """Radial function of conv(points) (origin interior) by facet ray casting;
    `hull` is conv(points) when it is already known."""
    eq = (_convex_hull(points) if hull is None else hull).equations
    A, b = eq[:, :-1], eq[:, -1]
    if np.any(b >= 0.0):
        raise OriginNotInterior("origin is not interior to the hull")
    return _ray_cast(directions, A, -b)


def is_convex(body: StarBody) -> bool:
    """All sampled boundary points lie on the boundary of their convex hull
    (within EPS_HULL_REL times the diameter).  The hull's vertices lie on it,
    so only the other samples are measured, unless the hull's certificate
    already measured them."""
    if body.convex_flag is not None:
        return body.convex_flag
    hull = _sample_hull(body)
    depth = hull.depth
    if depth is None:
        rest = np.ones(len(body.radial), dtype=bool)
        rest[hull.vertices] = False
        A, b = hull.equations[:, :-1], hull.equations[:, -1]
        # distance of each sample to the hull boundary (inside by definition)
        depth = _min_over_facets(body.points[rest], A, lambda prod: -prod - b[None, :])
    diam = 2.0 * float(body.radial.max())
    ok = bool(depth.max(initial=0.0) <= max(EPS_HULL_REL * diam, 1e-12))
    body.convex_flag = ok
    return ok


def _require_convex(body: StarBody):
    if not is_convex(body):
        raise NotConvex("operation requires a convex body")


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
    normals = _sample_hull(body).equations[:, :-1]
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    cand = np.vstack([normals, -normals, body.directions])
    proj = body.points @ cand.T
    rad = _ray_cast(body.directions, cand, proj.max(axis=0) - proj.min(axis=0))
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
    else:
        fit = samples[_sample_hull(body).vertices]
    ell = Ellipsoid(body.dim, _mvee_centered(fit))
    if not ell.contains(pts, EPS_FIT):
        raise BodyError("Loewner fit lost containment")
    return ell


def inner_loewner(body: StarBody, dual: StarBody | None = None) -> Ellipsoid:
    """Maximum-volume centered inscribed ellipsoid of a symmetric convex body.

    Computed by polarity: the polar of the outer Loewner ellipsoid of the
    polar body.  `dual`, polar_dual(body) when the caller has built it,
    is used for a symmetric body.  Asserts John's sandwich E <= K <=
    sqrt(n) E on the samples up to the grid tolerance.
    """
    _require_convex(body)
    work = body
    if not body.is_symmetric(tol=1e-7):
        work, dual = reflection_body(body), None
    if dual is None:
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

    Along the direction of a sample that is a vertex of C, radial_C is the
    sample's own radius, so only the other directions are cast (none, when
    every sample is a vertex; the cast still checks the origin).
    """
    hull = _sample_hull(body)
    rad_c = body.radial.copy()
    cast = np.ones(len(rad_c), dtype=bool)
    cast[hull.vertices] = False
    rad_c[cast] = hull_radial(body.points, body.directions[cast], hull)
    witness = StarBody(body.dim, body.directions, rad_c, convex_flag=True)
    sigma_upper = float((rad_c / body.radial).max())
    return max(sigma_upper, 1.0), witness
