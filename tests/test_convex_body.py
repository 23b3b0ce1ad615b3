import itertools
import json
import math

import numpy as np
import pytest

from entropia.convex_body import (
    EPS_FIT,
    EPS_HULL_REL,
    EPS_VOL,
    DegenerateBody,
    NotConvex,
    OriginNotInterior,
    StarBody,
    UnsupportedDim,
    difference_body,
    grid_tolerance,
    hull_radial,
    inner_loewner,
    irreversibility_ratio,
    is_convex,
    outer_loewner,
    polar_dual,
    reflection_body,
    sigma_starshapedness,
    volume,
)
from conftest import random_convex_polygon

SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------- oracles

def shoelace(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def dense_boundary_area(radial_fn, n=100_000):
    """Brute-force shoelace on a densely sampled boundary curve."""
    a = 2 * np.pi * np.arange(n) / n
    dirs = np.stack([np.cos(a), np.sin(a)], axis=1)
    r = radial_fn(dirs)
    return shoelace(r[:, None] * dirs)


def square(side=2.0, n=720):
    h = side / 2.0
    return StarBody.from_points([[h, h], [-h, h], [-h, -h], [h, -h]], n=n)


def spiky_star(a=0.65, b=0.35, n=720):
    """Four-spike star r = a + b cos(4 phi); spikes a+b, valleys a-b."""
    return StarBody.from_radial_function(
        2, lambda d: a + b * np.cos(4 * np.arctan2(d[:, 1], d[:, 0])), n=n
    )


# ---------------------------------------------------------------- type basics

def test_star_body_requires_positive_radial():
    dirs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(OriginNotInterior):
        StarBody(2, dirs, np.array([1.0, 0.0]))


def test_convexity_detection():
    assert is_convex(StarBody.ball(2))
    assert is_convex(square())
    assert not is_convex(spiky_star())


def test_json_roundtrip_default_grid():
    body = square()
    back = StarBody.from_json(body.to_json())
    assert np.allclose(back.radial, body.radial)
    obj = json.loads(body.to_json(include_directions=True))
    assert len(obj["directions"]) == len(obj["radial"])


# ---------------------------------------------------------------- planar hull
# dim 2 hulls run a monotone chain; qhull (scipy) is the oracle

def _qhull_radial(points, dirs):
    from scipy.spatial import ConvexHull

    eq = ConvexHull(points).equations
    denom = dirs @ eq[:, :-1].T
    return np.where(denom > 0, -eq[:, -1] / np.where(denom > 0, denom, 1.0),
                    np.inf).min(axis=1)


def _qhull_is_convex(body):
    from scipy.spatial import ConvexHull

    pts = body.points
    eq = ConvexHull(pts).equations
    depth = (-(pts @ eq[:, :-1].T) - eq[:, -1]).min(axis=1)
    return bool(depth.max() <= max(EPS_HULL_REL * 2 * body.radial.max(), 1e-12))


def _ray_polygon(rng, n=720):
    """Random convex polygon sampled at n rays (vertices are not samples)."""
    dirs = StarBody.ball(2, n=n).directions
    verts = rng.normal(size=(int(rng.integers(3, 10)), 2))
    return _qhull_radial(verts - verts.mean(axis=0), dirs)[:, None] * dirs


def _pm_cloud(rng):
    pts = rng.normal(size=(int(rng.integers(2, 40)), 2)) * 10 ** rng.uniform(-3, 3)
    return np.vstack([pts, -pts])


def _star_samples(rng, n=720):
    dirs = StarBody.ball(2, n=n).directions
    k = int(rng.integers(2, 8))
    a = rng.uniform(0.5, 1.5) / (k * k - 1)  # convex iff a (k^2 - 1) <= 1
    r = 1.0 + a * np.cos(k * np.arctan2(dirs[:, 1], dirs[:, 0]) + rng.uniform(0, 6))
    return r[:, None] * dirs


def _collinear_edges(rng):
    """Many samples on the edges of a quadrilateral, plus its corners."""
    corners = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    corners *= rng.uniform(0.5, 3.0, size=(4, 1))
    i = rng.integers(0, 4, 400)
    s = rng.random((400, 1))
    return np.vstack([corners[i] + s * (corners[(i + 1) % 4] - corners[i]), corners])


def _near_duplicates(rng):
    pts = _pm_cloud(rng)
    return np.vstack([pts, pts + 1e-13 * rng.normal(size=pts.shape)])


@pytest.mark.parametrize("make", [_ray_polygon, _pm_cloud, _star_samples,
                                  _collinear_edges, _near_duplicates])
def test_planar_hull_radial_matches_qhull(rng, make):
    dirs = StarBody.ball(2).directions
    for _ in range(20):
        pts = make(rng)
        ours, oracle = hull_radial(pts, dirs), _qhull_radial(pts, dirs)
        assert np.max(np.abs(ours - oracle) / oracle) <= 1e-12


@pytest.mark.parametrize("make", [_ray_polygon, _star_samples])
def test_planar_is_convex_matches_qhull(rng, make):
    decisions = set()
    for _ in range(30):
        pts = make(rng)
        r = np.linalg.norm(pts, axis=1)
        body = StarBody(2, pts / r[:, None], r)
        ours = is_convex(body)
        assert ours == _qhull_is_convex(body)
        decisions.add(ours)
    if make is _star_samples:
        assert decisions == {True, False}


@pytest.mark.parametrize("pts", [
    [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [-3.0, -3.0]],      # collinear
    [[1.0, 0.5], [-2.0, -1.0], [0.5, 0.25], [1.0, 0.5]],     # collinear, repeated
    [[1.0, 2.0]] * 5,                                        # one distinct point
    [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]],      # two distinct points
    [[1.0, 0.0], [-1.0, 1e-20], [1.0 + 1e-14, 0.0]],         # collinear to rounding
])
def test_planar_hull_degenerate_raises(pts):
    with pytest.raises(DegenerateBody):
        hull_radial(np.array(pts), StarBody.ball(2, n=8).directions)


@pytest.mark.parametrize("shift", [[0.0, 0.0], [0.5, 0.0], [1.5, 0.5]])
def test_planar_hull_origin_on_or_outside_raises(shift):
    # the square [0, 1]^2 minus `shift`: origin at a vertex, on an edge, outside
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) - shift
    with pytest.raises(OriginNotInterior):
        hull_radial(pts, StarBody.ball(2, n=8).directions)


# ---------------------------------------------------------------- polar_dual

def test_polar_unit_disk_self_dual():
    disk = StarBody.ball(2)
    dual = polar_dual(disk)
    assert np.allclose(dual.radial, 1.0, atol=1e-12)


def test_polar_square_is_cross_polytope():
    # [-1,1]^2 -> {|x|+|y| <= 1}: radial 1 on the axes, 1/sqrt2 on diagonals
    dual = polar_dual(square(side=2.0))
    assert abs(dual.radial[0] - 1.0) < 1e-12          # angle 0
    assert abs(dual.radial[90] - 1.0 / SQ2) < 1e-12   # angle 45 deg (720 grid)


def test_polar_homogeneity():
    k = square(side=2.0)
    ck = k.scaled(2.0)
    d1 = polar_dual(k)
    d2 = polar_dual(ck)
    assert np.allclose(d2.radial, d1.radial / 2.0, rtol=1e-12)


def test_polar_rejects_nonconvex():
    with pytest.raises(NotConvex):
        polar_dual(spiky_star())


def test_polar_involution_on_random_polygons(rng):
    for _ in range(25):
        body = random_convex_polygon(rng, symmetric=bool(rng.integers(2)))
        back = polar_dual(polar_dual(body))
        err = np.max(np.abs(back.radial - body.radial) / body.radial)
        assert err <= grid_tolerance(body)


# ---------------------------------------------------------------- reflection

def test_reflection_fixes_symmetric_bodies():
    body = square()
    refl = reflection_body(body)
    assert np.allclose(refl.radial, body.radial, rtol=1e-9)
    assert refl.is_symmetric()


# long thin symmetric hexagon; the edges of its polar dual at x = +-1/3 are
# near-vertical runs of samples whose abscissae differ by rounding only
THIN_HEXAGON = np.array(
    [[3.0, 0.0], [1.5, 0.4], [-1.5, 0.4], [-3.0, 0.0], [-1.5, -0.4], [1.5, -0.4]]
)


def thin_hexagon_dual():
    return polar_dual(StarBody.from_points(THIN_HEXAGON, n=1440))


def test_reflection_fixes_the_thin_hexagon_dual():
    # the planar hull must keep the corners at the ends of the near-vertical
    # edges; dropping one moved the radial function by 3e-3
    body = thin_hexagon_dual()
    refl = reflection_body(body)
    assert np.max(np.abs(refl.radial - body.radial) / body.radial) <= 1e-12


def test_reflection_origin_vertex_triangle_ratio_four():
    # sharp equality case: triangle with one vertex at the origin; the apex
    # is nudged inside so the origin stays interior.  Vertices sit on grid
    # angles 0, 90 and 225 degrees so the sampling is exact.
    d = 1e-9
    tri = StarBody.from_points(
        [[1.0, 0.0], [0.0, 1.0], [-d / SQ2, -d / SQ2]], n=2 ** 14
    )
    refl = reflection_body(tri)
    ratio = volume(refl, "exact2d") / volume(tri, "exact2d")
    assert abs(ratio - 4.0) < 1e-6


def test_reflection_rogers_shephard_on_random_polygons(rng):
    for _ in range(30):
        body = random_convex_polygon(rng)
        ratio = volume(reflection_body(body), "exact2d") / volume(body, "exact2d")
        assert ratio <= 4.0 + 1e-9


# ---------------------------------------------------------------- difference

def test_difference_disk_doubles():
    disk = StarBody.ball(2)
    diff = difference_body(disk)
    assert np.max(np.abs(diff.radial - 2.0)) < 1e-9


def test_difference_symmetric_body_is_2K():
    body = square(side=2.0)
    diff = difference_body(body)
    assert np.max(np.abs(diff.radial - 2.0 * body.radial) / body.radial) < 1e-9


def test_difference_triangle_ratio_six_vs_minkowski_oracle():
    # oracle: K - K = conv{v_i - v_j} (explicit Minkowski sum on vertices)
    verts = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.6]])
    tri = StarBody.from_points(verts, n=2 ** 14)
    diff = difference_body(tri)
    ratio = volume(diff, "exact2d") / volume(tri, "exact2d")
    assert abs(ratio - 6.0) < 1e-6
    pairwise = (verts[:, None, :] - verts[None, :, :]).reshape(-1, 2)
    hexagon = np.unique(pairwise, axis=0)
    oracle = hull_radial(hexagon, tri.directions)
    assert np.max(np.abs(diff.radial - oracle) / oracle) < 1e-9


def test_difference_rogers_shephard_on_random_polygons(rng):
    for _ in range(20):
        body = random_convex_polygon(rng)
        ratio = volume(difference_body(body), "exact2d") / volume(body, "exact2d")
        assert ratio <= 6.0 + 1e-6


# ---------------------------------------------------------------- Loewner fits

def test_outer_loewner_of_square_is_disk_radius_sqrt2():
    ell = outer_loewner(square(side=2.0))
    assert abs(ell.volume - 2.0 * math.pi) < 1e-4
    ratio = ell.volume / 4.0
    assert abs(ratio - math.pi / 2.0) < 1e-4


def test_outer_loewner_cross_polytope_unit_disk():
    cross = polar_dual(square(side=2.0))
    ell = outer_loewner(cross)
    assert abs(ell.volume - math.pi) < 1e-4
    # ratio pi/2 = 2! * omega_2 / 2^2
    ratio = ell.volume / volume(cross, "exact2d")
    assert abs(ratio - math.pi / 2.0) < 2e-4


def test_outer_loewner_fixed_point_on_ellipse():
    A = np.array([[1.0 / 4.0, 0.0], [0.0, 4.0]])
    body = StarBody.from_radial_function(
        2, lambda d: 1.0 / np.sqrt(np.einsum("ij,jk,ik->i", d, A, d))
    )
    ell = outer_loewner(body)
    r_fit = ell.radial(body.directions)
    assert np.max(np.abs(r_fit - body.radial) / body.radial) < 10 * EPS_FIT


def test_outer_loewner_minimality_shrink_violates():
    body = square(side=2.0)
    ell = outer_loewner(body)
    pts = np.vstack([body.points, -body.points])
    shrunk = ell.form / (1.0 - 10 * EPS_FIT) ** 2
    q = np.einsum("ij,jk,ik->i", pts, shrunk, pts)
    assert q.max() > 1.0 + EPS_FIT


def test_outer_loewner_degenerate_raises():
    from entropia.convex_body import _mvee_centered

    flat = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]])
    with pytest.raises(DegenerateBody):
        _mvee_centered(flat)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [7, 1440, 4000])
def test_quadratic_form_rows_equal_einsum_bit_for_bit(d, m):
    from entropia.convex_body import _quadratic_form_rows

    rng = np.random.default_rng(100 * d + m)
    x = rng.normal(size=(m, d)) * rng.uniform(1e-3, 1e3, size=(m, 1))
    u = rng.uniform(size=m)
    Q = np.linalg.inv((x * (u / u.sum())[:, None]).T @ x)
    got = _quadratic_form_rows(np.ascontiguousarray(x.T), Q, np.empty(m),
                               np.empty((d, d, m)))
    assert np.array_equal(got, np.einsum("ij,jk,ik->i", x, Q, x))


def _p_ball_cloud(d, n, seed):
    """Boundary samples, on the centrally symmetric grid of n directions, of
    a seeded linear image of the unit ball of the l^3 norm in R^d."""
    from entropia.spheres import sphere_grid

    u = sphere_grid(d, n)
    x = u / ((np.abs(u) ** 3).sum(axis=1, keepdims=True)) ** (1.0 / 3.0)
    lin = np.eye(d) + 0.3 * np.random.default_rng(seed).normal(size=(d, d))
    return x @ lin.T


@pytest.fixture
def distance_evaluations(monkeypatch):
    """Counts the Khachiyan fit's distance evaluations, one per iteration
    plus the last: calls of convex_body._quadratic_form_rows."""
    from entropia import convex_body

    calls = [0]
    inner = convex_body._quadratic_form_rows

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(convex_body, "_quadratic_form_rows", counted)
    return calls


# _mvee_centered forms recorded while the fit still evaluated its distances
# with np.einsum (980 and 1048 iterations, both converged), as hex floats
MVEE_PINS = {
    (2, 720, 2): ["0x1.fda34170bf71bp-1", "0x1.fac31b285e7a9p+0",
                  "0x1.fac31b285e7a8p+0", "0x1.a219563e6fa51p+3"],
    (3, 128, 3): ["0x1.26cf30f629bfap-1", "0x1.5ad236473b9d2p-1",
                  "0x1.04fbfcb86adf0p-1", "0x1.5ad236473b9d1p-1",
                  "0x1.a8238f9a9e582p+0", "0x1.3f4bb35b06372p-1",
                  "0x1.04fbfcb86adf1p-1", "0x1.3f4bb35b06374p-1",
                  "0x1.3bffa37025fd7p+0"],
}
# distance evaluations of those fits, one per iteration: a converged fit
# must not pay for the cycle detection with a single extra iteration
MVEE_EVALUATIONS = {(2, 720, 2): 980, (3, 128, 3): 1048}


@pytest.mark.parametrize("key", sorted(MVEE_PINS))
def test_mvee_centered_forms_are_pinned_bit_for_bit(key, distance_evaluations):
    from entropia.convex_body import _mvee_centered

    d = key[0]
    form = _mvee_centered(_p_ball_cloud(*key))
    expected = np.array([float.fromhex(h) for h in MVEE_PINS[key]]).reshape(d, d)
    assert np.array_equal(form, expected)
    assert distance_evaluations[0] == MVEE_EVALUATIONS[key]


PENTAGON = np.array([[1.0, 0.0], [0.2, 0.9], [-0.7, 0.4], [-0.5, -0.6],
                     [0.4, -0.8]]) + [0.15, 0.05]


def _pentagon_cloud():
    """The samples and reflections that outer_loewner fits for the pentagon."""
    pts = StarBody.from_points(PENTAGON, n=64).points
    return np.vstack([pts, -pts])


# the pentagon's fit never converges (ROADMAP B); its form at the cap of
# 100,000 iterations, recorded while the fit still ran every one of them
PENTAGON_MVEE_PIN = ["0x1.5bf3ef30623e4p-1", "0x1.23401cfd60ef5p+0",
                     "0x1.23401cfd60ef6p+0", "-0x1.ecb8c5e7d92c9p+2"]


def test_mvee_centered_capped_pentagon_is_pinned_bit_for_bit(distance_evaluations):
    from entropia.convex_body import _mvee_centered

    form = _mvee_centered(_pentagon_cloud())
    expected = np.array([float.fromhex(h) for h in PENTAGON_MVEE_PIN]).reshape(2, 2)
    assert np.array_equal(form, expected)
    # its weights repeat from iteration 713 with period 6, which the fit
    # sees at iteration 1030 (100,001 evaluations without the jump)
    assert distance_evaluations[0] <= 2000


def _plain_loop_forms(points):
    """Reference: the fit's loop without cycle detection.  Yields, for
    cap = 0, 1, 2, ..., the form _mvee_centered returns with
    LOEWNER_MAX_ITER = cap, and stops once the fit converges."""
    m, d = points.shape
    u = np.full(m, 1.0 / m)
    kappa_tol = 2.0 * EPS_VOL / d
    while True:
        M = (points * u[:, None]).T @ points
        w = np.einsum("ij,jk,ik->i", points, np.linalg.inv(M), points)
        yield np.linalg.inv(M * w.max())
        j = int(np.argmax(w))
        kappa = w[j]
        jm = int(np.argmin(np.where(u > 1e-16, w, np.inf)))
        kmin = w[jm]
        if kappa / d - 1.0 <= kappa_tol and 1.0 - kmin / d <= kappa_tol:
            return
        if kappa - d >= d - kmin:
            beta = (kappa - d) / (d * (kappa - 1.0))
            u *= 1.0 - beta
            u[j] += beta
        else:
            beta = min((d - kmin) / (d * (kmin - 1.0)), u[jm] / (1.0 - u[jm]))
            u *= 1.0 + beta
            u[jm] -= beta


# every cap up to 40; the cycle of the pentagon's weights starts at 713 and
# is seen at 1030, so the caps from 1024 to 1100 meet the jump at every
# remainder mod its period, and those past 2048 after a second save
REPLAY_CAPS = [*range(1, 41), *range(700, 1024, 17), *range(1024, 1101),
               2047, 2048, 2049, *range(5000, 5006)]


def test_mvee_centered_matches_the_plain_loop_at_every_cap(monkeypatch):
    from entropia import convex_body

    cloud = _pentagon_cloud()
    reference = list(itertools.islice(_plain_loop_forms(cloud), max(REPLAY_CAPS) + 1))
    for cap in REPLAY_CAPS:
        monkeypatch.setattr(convex_body, "LOEWNER_MAX_ITER", cap)
        assert np.array_equal(convex_body._mvee_centered(cloud), reference[cap]), cap


def _symmetric_polytope_3d(seed):
    pts = np.random.default_rng(seed).normal(size=(7, 3))
    return StarBody.from_points(np.vstack([pts, -pts]), n=512)


SYMMETRIC_FIT_BODIES = {
    **{f"polygon-{seed}": lambda seed=seed: random_convex_polygon(
        np.random.default_rng(seed), symmetric=True) for seed in range(3)},
    "thin-hexagon-dual": thin_hexagon_dual,
    **{f"polytope3d-{seed}": lambda seed=seed: _symmetric_polytope_3d(seed)
       for seed in range(2)},
    "disk": lambda: StarBody.ball(2),
}


@pytest.mark.parametrize("name", list(SYMMETRIC_FIT_BODIES))
def test_symmetric_outer_loewner_fits_on_hull_vertices(name, distance_evaluations):
    from entropia.convex_body import Ellipsoid, _mvee_centered

    body = SYMMETRIC_FIT_BODIES[name]()
    assert body.is_symmetric(tol=1e-7)
    samples = np.vstack([body.points, -body.points])
    vertex_fit = outer_loewner(body)
    vertex_evaluations = distance_evaluations[0]
    distance_evaluations[0] = 0
    full_fit = Ellipsoid(body.dim, _mvee_centered(samples))
    assert abs(vertex_fit.volume / full_fit.volume - 1.0) <= 2 * EPS_VOL
    # every sample inside, the extreme one on the boundary
    q = np.einsum("ij,jk,ik->i", samples, vertex_fit.form, samples)
    assert abs(q.max() - 1.0) <= EPS_FIT
    # the disk's uniform weights are optimal at once: one evaluation either way
    assert vertex_evaluations < distance_evaluations[0] or distance_evaluations[0] == 1


@pytest.mark.parametrize("body", [
    lambda: StarBody.from_points(PENTAGON, n=128),
    lambda: random_convex_polygon(np.random.default_rng(0), n_pts=6, n_grid=256),
], ids=["pentagon", "polygon"])
def test_nonsymmetric_outer_loewner_fits_every_sample_bit_for_bit(body):
    from entropia.convex_body import Ellipsoid, _mvee_centered

    body = body()
    assert not body.is_symmetric(tol=1e-7)
    samples = np.vstack([body.points, -body.points])
    expected = Ellipsoid(body.dim, _mvee_centered(samples)).form
    assert np.array_equal(outer_loewner(body).form, expected)


def _mvee_area_oracle(points):
    """Least area of a centered ellipse containing the 2-D points, by
    enumeration: the optimum touches 2 or 3 of the hull vertices (and their
    reflections), and each such contact set fixes one candidate form."""
    from scipy.spatial import ConvexHull

    both = np.vstack([points, -points])
    verts = both[ConvexHull(both).vertices]
    best = math.inf
    for k in (2, 3):
        for idx in itertools.combinations(range(len(verts)), k):
            x = verts[list(idx)]
            if k == 2:
                if abs(np.linalg.det(x)) < 1e-12:
                    continue
                binv = np.linalg.inv(x.T)
                A = binv.T @ binv  # x_i^T A x_j = delta_ij, the least area
            else:
                G = np.stack([x[:, 0] ** 2, 2 * x[:, 0] * x[:, 1], x[:, 1] ** 2], axis=1)
                if abs(np.linalg.det(G)) < 1e-12:
                    continue
                a, b, c = np.linalg.solve(G, np.ones(3))
                A = np.array([[a, b], [b, c]])
                if a <= 0 or a * c - b * b <= 0:
                    continue
            if np.einsum("ij,jk,ik->i", both, A, both).max() <= 1 + 1e-12:
                best = min(best, math.pi / math.sqrt(np.linalg.det(A)))
    return best


def test_mvee_area_oracle_on_square():
    assert abs(_mvee_area_oracle(square(side=2.0).points) - 2 * math.pi) < 1e-9


@pytest.mark.xfail(strict=True, raises=(DegenerateBody, AssertionError), reason=(
    "Khachiyan away step: beta = (d - kmin) / (d (kmin - 1)) is negative once "
    "kmin < 1, so u *= 1 + beta drives weights below zero (ROADMAP B)"))
def test_outer_loewner_nonsymmetric_pentagon_is_optimal():
    body = StarBody.from_points(PENTAGON, n=64)
    oracle = _mvee_area_oracle(body.points)
    assert abs(outer_loewner(body).volume / oracle - 1.0) <= 1e-6


def test_inner_loewner_square_unit_disk():
    body = square(side=2.0)
    ell = inner_loewner(body)
    assert abs(ell.volume - math.pi) < 1e-4
    r_e = ell.radial(body.directions)
    # sqrt(2) dilate contains the square
    assert np.all(body.radial <= SQ2 * r_e * (1.0 + grid_tolerance(body)))


def test_inner_loewner_disk_fixed_point():
    disk = StarBody.ball(2)
    ell = inner_loewner(disk)
    assert np.max(np.abs(ell.radial(disk.directions) - 1.0)) < 1e-6


def test_inner_loewner_thin_hexagon_sandwich():
    # dense boundary check of the sandwich
    body = StarBody.from_points(THIN_HEXAGON, n=1440)
    ell = inner_loewner(body)
    dense = StarBody.from_points(THIN_HEXAGON, n=2 ** 13)
    r_e = ell.radial(dense.directions)
    tol = grid_tolerance(dense)
    assert np.all(r_e <= dense.radial * (1 + tol))
    assert np.all(dense.radial <= SQ2 * r_e * (1 + tol))


def test_john_sandwich_random_symmetric_polygons(rng):
    for _ in range(20):
        body = random_convex_polygon(rng, symmetric=True)
        ell = inner_loewner(body)
        r_e = ell.radial(body.directions)
        tol = grid_tolerance(body)
        assert np.all(r_e <= body.radial * (1 + tol))
        assert np.all(body.radial <= SQ2 * r_e * (1 + tol))


# ---------------------------------------------------------------- volumes

def test_volume_unit_disk():
    disk = StarBody.ball(2)
    assert abs(volume(disk, "radial_quadrature") - math.pi) < 1e-3
    assert abs(volume(disk, "exact2d") - math.pi) < 1e-3


def test_volume_square():
    assert abs(volume(square(side=2.0), "exact2d") - 4.0) < 1e-12


def test_volume_exact2d_wrong_dim():
    with pytest.raises(UnsupportedDim):
        volume(StarBody.ball(3, n=256), "exact2d")


def test_volume_spiky_star_matches_dense_shoelace():
    star = spiky_star(n=2048)
    oracle = dense_boundary_area(
        lambda d: 0.65 + 0.35 * np.cos(4 * np.arctan2(d[:, 1], d[:, 0]))
    )
    # analytic: pi (a^2 + b^2/2)
    assert abs(oracle - math.pi * (0.65 ** 2 + 0.35 ** 2 / 2)) < 1e-6
    assert abs(volume(star, "exact2d") - oracle) < 1e-4
    assert abs(volume(star, "radial_quadrature") - oracle) < 1e-4


def test_volume_methods_cross_agreement(rng):
    for _ in range(10):
        body = random_convex_polygon(rng)
        v_exact = volume(body, "exact2d")
        v_quad = volume(body, "radial_quadrature")
        v_mc, se = volume(body, "monte_carlo", seed=7, n_samples=200_000)
        assert abs(v_quad - v_exact) < 5e-3 * v_exact
        assert abs(v_mc - v_exact) < max(3 * se, 1e-3 * v_exact)


def test_volume_monte_carlo_deterministic():
    body = square()
    a = volume(body, "monte_carlo", seed=3, n_samples=50_000)
    b = volume(body, "monte_carlo", seed=3, n_samples=50_000)
    assert a == b


def test_volume_ball_3d():
    ball = StarBody.ball(3)
    assert abs(volume(ball, "radial_quadrature") - 4 * math.pi / 3) < 1e-6


# ---------------------------------------------------------------- theta, sigma

def test_irreversibility_disk():
    assert abs(irreversibility_ratio(StarBody.ball(2)) - 1.0) < 1e-12


def test_irreversibility_translated_disk():
    # unit disk centered at (0.5, 0): radial(phi) = c cos phi + sqrt(1 - c^2 sin^2 phi)
    c = 0.5

    def rad(d):
        phi = np.arctan2(d[:, 1], d[:, 0])
        return c * np.cos(phi) + np.sqrt(1 - (c * np.sin(phi)) ** 2)

    body = StarBody.from_radial_function(2, rad, convex=True)
    theta = irreversibility_ratio(body)
    # along the axis: (1 + c)/(1 - c) = 3; grid max is the 1-D oracle
    dense = StarBody.from_radial_function(2, rad, n=10_000, convex=True)
    oracle = float((dense.antipodal_radial() / dense.radial).max())
    assert abs(theta - 3.0) < 1e-4
    assert abs(theta - oracle) < 1e-4


def test_irreversibility_triangle_matches_dense_grid(rng):
    verts = np.array([[1.2, 0.1], [-0.7, 0.9], [-0.4, -1.1]])
    verts -= verts.mean(axis=0)  # centroid at origin
    body = StarBody.from_points(verts, n=720)
    dense = StarBody.from_points(verts, n=10_000)
    theta = irreversibility_ratio(body)
    oracle = float((dense.antipodal_radial() / dense.radial).max())
    assert abs(theta - oracle) < 5e-3 * oracle


def test_sigma_convex_is_one(rng):
    for _ in range(10):
        body = random_convex_polygon(rng)
        sigma, witness = sigma_starshapedness(body)
        assert abs(sigma - 1.0) < 1e-9
        assert is_convex(witness)


def test_sigma_four_spike_star_matches_hull_oracle():
    star = spiky_star(a=0.625, b=0.375)  # valleys at 0.25
    sigma, witness = sigma_starshapedness(star)
    # oracle: dense hull radial over dense sampling of the same curve
    a = 2 * np.pi * np.arange(40_000) / 40_000
    dirs = np.stack([np.cos(a), np.sin(a)], axis=1)
    r = 0.625 + 0.375 * np.cos(4 * a)
    rad_hull = hull_radial(r[:, None] * dirs, dirs)
    oracle = float((rad_hull / r).max())
    assert sigma > 1.5
    assert abs(sigma - oracle) < 5e-3 * oracle


def test_sigma_scale_invariant():
    star = spiky_star()
    s1, _ = sigma_starshapedness(star)
    s2, _ = sigma_starshapedness(star.scaled(2.0))
    assert abs(s1 - s2) < 1e-12


# ---------------------------------------------------------------- Santalo

def test_blaschke_santalo_random_symmetric(rng):
    w2sq = math.pi ** 2
    for _ in range(25):
        body = random_convex_polygon(rng, symmetric=True)
        prod = volume(body, "exact2d") * volume(polar_dual(body), "exact2d")
        assert prod <= w2sq * (1 + 1e-9)


def test_blaschke_santalo_equality_on_ellipses():
    A = np.array([[1.0 / 2.89, 0.0], [0.0, 1.0 / 0.36]])
    body = StarBody.from_radial_function(
        2, lambda d: 1.0 / np.sqrt(np.einsum("ij,jk,ik->i", d, A, d)), convex=True
    )
    prod = volume(body, "exact2d") * volume(polar_dual(body), "exact2d")
    assert abs(prod / math.pi ** 2 - 1.0) < 1e-3
