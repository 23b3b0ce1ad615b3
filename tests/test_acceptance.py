"""Acceptance suite: every shipped criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion; any failure is a hard test failure.
"""

import math

import numpy as np
import pytest

from entropia.convex_body import (
    StarBody,
    difference_body,
    grid_tolerance,
    inner_loewner,
    outer_loewner,
    polar_dual,
    reflection_body,
    sigma_starshapedness,
    volume,
)
from entropia.entropy_bounds import (
    TargetBelowRange,
    c_n,
    finsler_floor,
    katok_bound,
    sl3_constants,
    spectrum_range_left,
    spectrum_tuner,
    spectrum_value,
    verovic_constants,
    weyl_cell_integrals,
    weyl_closed_form,
)
from entropia.entropy_estimators import (
    cat_system,
    doubling_system,
    gamma_plus,
    gamma_properties_suite,
    htop_separated,
    hvol_ball_growth,
    manning_check,
    rotation_system,
    suspension_cat_system,
    time_change_bound,
)
from entropia.finsler_volume import (
    BaseChart,
    FinslerField,
    busemann_hausdorff_volume,
    holmes_thompson_volume,
)
from entropia.reeb_collapse import (
    MappingTorusSpec,
    build_profiles,
    contact_threshold,
    return_map_and_time,
    solid_torus_flow,
    solid_torus_flow_rk4,
    solid_torus_reeb,
)
from entropia.reeb_collapse.sweep import collapse_sweep
from conftest import random_convex_polygon

CAT_ENTROPY = math.log((3 + math.sqrt(5)) / 2)
SQ2 = math.sqrt(2.0)


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_constants_table():
    assert abs(c_n(2) - 0.398942) < 1e-6
    assert abs(2 * c_n(4) - 0.6065) < 5e-4
    assert abs(2 * c_n(5) - 0.5507) < 5e-4
    assert abs(2 * c_n(6) - 0.5079) < 5e-4
    # commonly quoted three-digit roundings
    assert abs(2 * c_n(4) - 0.606) < 5e-4
    assert abs(2 * c_n(5) - 0.551) < 5e-4
    assert abs(2 * c_n(6) - 0.508) < 5e-4
    _ok(1, "dimension constants c_2, 2c_4, 2c_5, 2c_6")


def test_criterion_02_verovic_constants():
    c2bh, c2ht = verovic_constants(2)
    c3bh, c3ht = verovic_constants(3)
    for got, want in ((c2bh, 0.9306), (c3bh, 0.9069),
                      (c2ht, 0.8409), (c3ht, 0.7783)):
        assert abs(got - want) < 5e-4
    lim_bh, lim_ht = math.sqrt(2 / math.e), math.sqrt(1 / math.e)
    prev = verovic_constants(2)
    for k in range(3, 61):
        cur = verovic_constants(k)
        assert cur[0] < prev[0] and cur[1] < prev[1]
        assert cur[0] > lim_bh and cur[1] > lim_ht
        prev = cur
    _ok(2, "Verovic constants and monotone limits to sqrt(2/e), sqrt(1/e)")


def test_criterion_03_weyl_integrals():
    for k in range(1, 6):
        for body in ("ball", "cross_polytope", "cube"):
            n = 2_000_000 if k >= 4 else 0
            val, se = weyl_cell_integrals(k, body, n_samples=n or 10_000_000)
            assert abs(val - weyl_closed_form(k, body)) <= max(3 * se, 1e-8)
    _ok(3, "Weyl cell integrals match closed forms for k <= 5")


def test_criterion_04_sl3_constants():
    i_in, c_bh, c_ht = sl3_constants(tol=1e-6)  # raises if quadrature drifts
    closed = 3 * math.sqrt(3) / 640 * (27 * math.log(3) + 68)
    assert abs(i_in - closed) <= 1e-6 * closed
    assert abs(c_bh - 0.9496) < 1e-3
    assert abs(c_ht - 0.9120) < 1e-3
    _ok(4, "SL(3)/SO(3) hexagon quadrature and constants")


def test_criterion_05_katok_finsler_floors():
    assert abs(katok_bound(2, True) - 2 * math.sqrt(math.pi)) < 1e-12
    assert abs(finsler_floor(2, False) - SQ2) < 1e-12
    assert abs(finsler_floor(2, True) - 2 * SQ2) < 1e-12
    for k in range(2, 12):
        assert abs(finsler_floor(k, False) - c_n(2) * katok_bound(k, True)) < 1e-12
    _ok(5, "genus-2 floors and the c_2 * katok chain identity")


def test_criterion_06_convex_sharp_cases():
    rng = np.random.default_rng(61803)
    square = StarBody.from_points([[1, 1], [-1, 1], [-1, -1], [1, -1]], n=720)
    ratio = outer_loewner(square).volume / volume(square, "exact2d")
    assert abs(ratio - math.pi / 2) < 1e-4

    for _ in range(100):
        body = random_convex_polygon(rng, symmetric=True)
        ell = inner_loewner(body)
        r_e = ell.radial(body.directions)
        tol = grid_tolerance(body)
        assert np.all(r_e <= body.radial * (1 + tol))
        assert np.all(body.radial <= SQ2 * r_e * (1 + tol))

    d = 1e-9
    tri = StarBody.from_points(
        [[1.0, 0.0], [0.0, 1.0], [-d / SQ2, -d / SQ2]], n=2 ** 14)
    refl_ratio = volume(reflection_body(tri), "exact2d") / volume(tri, "exact2d")
    assert abs(refl_ratio - 4.0) < 1e-6
    for _ in range(1000):
        body = random_convex_polygon(rng)
        rr = volume(reflection_body(body), "exact2d") / volume(body, "exact2d")
        assert rr <= 4.0 + 1e-9

    tri2 = StarBody.from_points([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.6]], n=2 ** 14)
    diff_ratio = volume(difference_body(tri2), "exact2d") / volume(tri2, "exact2d")
    assert abs(diff_ratio - 6.0) < 1e-6

    w2sq = math.pi ** 2
    for _ in range(100):
        body = random_convex_polygon(rng, symmetric=True)
        prod = volume(body, "exact2d") * volume(polar_dual(body), "exact2d")
        assert prod <= w2sq * (1 + 1e-9)
    ell_body = StarBody.from_radial_function(
        2, lambda u: 1.0 / np.sqrt((u[:, 0] / 1.3) ** 2 + (u[:, 1] / 0.7) ** 2),
        convex=True)
    prod = volume(ell_body, "exact2d") * volume(polar_dual(ell_body), "exact2d")
    assert abs(prod / w2sq - 1.0) < 1e-3
    _ok(6, "outer-ellipse ratio, John sandwich, Rogers-Shephard, Santalo")


def test_criterion_07_reeb_solid_torus():
    profiles = build_profiles(1.0, 0.1, "dim3")
    s = 0.05
    # closed form vs RK4 at t = 100
    start = (0.3, 0.5, 1.1)
    exact = solid_torus_flow(profiles, start, 100.0, s)
    rk4 = solid_torus_flow_rk4(profiles, start, 100.0, s)
    assert np.max(np.abs(np.array(exact) - np.array(rk4))) <= 1e-8
    # Reeb defining equations to 1e-10
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = rng.uniform(1e-3, 1.0)
        vth, vr, vx = solid_torus_reeb(profiles, (0.0, r, 0.0), s)
        ra = np.array([r])
        assert abs(profiles.g(ra)[0] * vth + s * profiles.f(ra)[0] * vx - 1) < 1e-10
        assert abs(profiles.gp(ra)[0] * vth + s * profiles.fp(ra)[0] * vx) < 1e-10
        assert vr == 0.0
    # boundary and core velocities exact
    assert np.allclose(solid_torus_reeb(profiles, (0, 1.0, 0), s),
                       [1.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(solid_torus_reeb(profiles, (0, 0.0, 0), s),
                       [0.0, 0.0, 1.0 / (2 * s)], atol=1e-14)
    _ok(7, "solid-torus flow: RK4 oracle, Reeb equations, boundary/core")


def test_criterion_08_collapse_sweep():
    spec = MappingTorusSpec(k_twists=1)
    rows, fit, meta = collapse_sweep(spec, n_steps=8, n_returns=24,
                                     gamma_horizon=16, gamma_states=24, seed=0)
    assert len(rows) == 8
    assert abs(fit["a"] - fit["a_predicted"]) / fit["a_predicted"] < 0.05
    assert fit["residual"] < 0.01
    for row in rows:
        assert math.pi <= row["T_s_min"] <= row["T_s_max"] <= 4 * math.pi
    # T_s = 2 pi off the twist support
    _, s1 = contact_threshold(spec)
    t_off, _ = return_map_and_time(spec, (1.1, 0.5), s1 / 2)
    assert abs(t_off - 2 * math.pi) < 1e-12
    assert meta["return_map_spread"] <= 1e-8
    prods = [row["gamma_times_vol_pow"] for row in rows]
    tail = prods[: len(prods) // 2 + 1]  # the s -> 0 tail of the sweep
    assert all(a <= b + 1e-12 for a, b in zip(tail, tail[1:]))
    _ok(8, "collapse sweep: volume law, return times, net Gamma decay")


def test_criterion_09_entropy_estimators():
    cat = cat_system()
    g_cat = gamma_plus(cat, horizon=64, n_states=32)
    assert abs(g_cat.value - 0.9624) < 1e-3
    h_cat = htop_separated(cat, [0.3, 0.2], horizon=5, n_candidates=20000,
                           seed=0)
    assert abs(h_cat.value - 0.9624) <= 0.15 * 0.9624
    h_doub = htop_separated(doubling_system(), [0.05, 0.03], horizon=8,
                            n_candidates=40000, seed=0)
    assert abs(h_doub.value - math.log(2)) <= 0.1 * math.log(2)
    rot = rotation_system(0.37)
    assert abs(gamma_plus(rot, horizon=16).value) <= 1e-3
    h_rot = htop_separated(rot, [0.1, 0.05], horizon=10, n_candidates=4000,
                           seed=0)
    assert abs(h_rot.value) <= 1e-3
    h_hyp = hvol_ball_growth(("hyperbolic",), r_max=30.0)
    assert abs(h_hyp.value - 1.0) <= 1e-3
    h_scaled = hvol_ball_growth(("scaled", 2.0, ("hyperbolic",)), r_max=60.0)
    assert abs(h_scaled.value - 0.5) <= 1e-3
    # Manning and the dim * Gamma chain on the built-in systems
    rep = manning_check(h_hyp, h_hyp)
    assert rep["manning_ok"]
    flat = hvol_ball_growth(("euclidean",), r_max=4000.0)
    assert manning_check(flat, flat)["manning_ok"]
    rep_cat = manning_check(h_cat, h_cat, gamma_est=g_cat, dim=2)
    assert rep_cat["manning_ok"] and rep_cat["gamma_chain_ok"]
    g_doub = gamma_plus(doubling_system(), horizon=32)
    rep_doub = manning_check(h_doub, h_doub, gamma_est=g_doub, dim=1)
    assert rep_doub["manning_ok"] and rep_doub["gamma_chain_ok"]
    _ok(9, "cat/doubling/rotation/hyperbolic estimates and Manning reports")


def test_criterion_10_gamma_laws_and_time_change():
    rows = gamma_properties_suite(horizon=48, n_states=64, seed=0, tol=2e-2)
    assert len(rows) >= 5
    for row in rows:
        assert row["ok"], row
    base = suspension_cat_system(0.0)
    changed = suspension_cat_system(0.3)
    rep = time_change_bound(base, changed, f_sup=1.3, horizon=40, n_states=64,
                            slack=2e-2)
    assert rep["bound_ok"]
    const = time_change_bound(base, suspension_cat_system(0.0, t_sample=1.5),
                              f_sup=1.5, horizon=40, n_states=64, slack=2e-2)
    assert const["bound_ok"]
    _ok(10, "norm-growth laws (conjugacy/monotone/decompose/power/product) "
            "and time-change bound")


def test_criterion_11_spectrum_tuner():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        v = rng.uniform(1e-6, 1 - 1e-6)
        h = 10.0 ** rng.uniform(-3, 3)
        n = int(rng.integers(1, 7))
        c = spectrum_range_left(v, h, n) * (1.0 + 10.0 ** rng.uniform(-9, 2))
        delta = spectrum_tuner(v, h, n, c)
        assert abs(spectrum_value(v, h, n, delta) - c) / c <= 1e-12
    for _ in range(200):
        v = rng.uniform(1e-6, 1 - 1e-6)
        h = 10.0 ** rng.uniform(-2, 2)
        n = int(rng.integers(1, 7))
        left = spectrum_range_left(v, h, n)
        with pytest.raises(TargetBelowRange):
            spectrum_tuner(v, h, n, left * rng.uniform(0.2, 1.0))
    _ok(11, "spectrum tuner round trip and rejection boundary")


def test_criterion_12_property_suites():
    rng = np.random.default_rng(12)
    # polar involution, 1000 trials
    for _ in range(1000):
        body = random_convex_polygon(rng, n_pts=6,
                                     symmetric=bool(rng.integers(2)))
        back = polar_dual(polar_dual(body))
        assert np.max(np.abs(back.radial - body.radial) / body.radial) \
            <= grid_tolerance(body)
    # volume method cross-agreement, 1000 trials
    for k in range(1000):
        body = random_convex_polygon(rng, n_pts=6)
        v_e = volume(body, "exact2d")
        v_q = volume(body, "radial_quadrature")
        assert abs(v_q - v_e) <= 5e-3 * v_e
        if k % 50 == 0:
            v_mc, se = volume(body, "monte_carlo", seed=k, n_samples=100_000)
            assert abs(v_mc - v_e) <= max(3 * se, 2e-3 * v_e)
    # sigma_upper == 1 on convex bodies, 1000 trials
    for _ in range(1000):
        body = random_convex_polygon(rng, n_pts=7)
        sigma, _ = sigma_starshapedness(body)
        assert abs(sigma - 1.0) < 1e-9
    # monotonicity of both Finsler volumes under co-disk inclusion
    base = BaseChart((1.0, 1.0), (2, 2))
    dirs = StarBody.ball(2).directions
    for _ in range(1000):
        r = 0.3 + rng.random(720) * 0.7
        inner = StarBody.from_points(r[:, None] * dirs)
        outer = StarBody(2, inner.directions,
                         inner.radial * (1.0 + rng.random()), True)
        fi = FinslerField(2, base, [inner])
        fo = FinslerField(2, base, [outer])
        assert holmes_thompson_volume(fi) <= holmes_thompson_volume(fo) * (1 + 1e-9)
        assert busemann_hausdorff_volume(fi) <= busemann_hausdorff_volume(fo) * (1 + 1e-9)
    _ok(12, "randomized property suites (1000 trials each, fixed seeds)")
