import math

import numpy as np
import pytest
from scipy import integrate

from entropia.reeb_collapse import (
    InfeasibleParameters,
    MappingTorusSpec,
    NoReturn,
    OpenBook3D,
    build_profiles,
    collapse_volumes,
    contact_threshold,
    mapping_torus_reeb,
    mapping_torus_volume,
    normalize_form,
    return_map_and_time,
    solid_torus_flow,
    solid_torus_flow_rk4,
    solid_torus_reeb,
    solid_torus_volume,
)
from entropia.reeb_collapse.forms import (
    NonPositiveVolume,
    S_SCAN_CAP,
    VolumeOverflow,
)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def dim3():
    return build_profiles(1.0, 0.1, "dim3")


@pytest.fixture(scope="module")
def spec():
    return MappingTorusSpec(k_twists=1)


# ---------------------------------------------------------------- profiles

def test_build_profiles_higher_pins():
    p = build_profiles(0.4, 0.1, "higher")
    assert abs(p.f(np.array([0.2]))[0] - 0.5) < 1e-12  # f(r_eps/2) = 1/2
    r = np.linspace(1e-6, 0.04 * 0.4, 200)
    assert np.max(np.abs(p.h(r) - r)) < 1e-10  # h = r near 0
    rr = np.linspace(1e-6, 0.4, 5000)
    assert np.max(p.gp(rr) / p.h(rr)) <= 2.0 + 1e-9


def test_build_profiles_dim3_h_near_zero(dim3):
    r = np.linspace(1e-6, 0.05, 500)
    assert np.max(np.abs(dim3.h(r) - r * (2 + r ** 4))) < 1e-10


def test_build_profiles_infeasible():
    with pytest.raises(InfeasibleParameters):
        build_profiles(0.4, 0.2, "higher")
    with pytest.raises(InfeasibleParameters):
        build_profiles(0.4, 0.3, "higher")


def test_profiles_higher_parameter_range():
    for frac in (0.05, 0.25, 0.45):
        p = build_profiles(0.7, frac * 0.7, "higher")
        r = np.linspace(1e-9, 0.7, 2000)
        assert np.all(p.h(r) > 0)
        assert np.max(p.h(r)) <= 6.0 / 0.7 * (1 + 1e-9)


# ---------------------------------------------------------------- solid torus

def test_reeb_boundary_is_page_rotation(dim3):
    v = solid_torus_reeb(dim3, (0.3, 1.0, 0.7), s=0.05)
    assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-12)


def test_reeb_core_velocity(dim3):
    s = 0.07
    v = solid_torus_reeb(dim3, (0.0, 0.0, 0.0), s)
    assert np.allclose(v, [0.0, 0.0, 1.0 / (2 * s)], atol=1e-12)
    # limit along r -> 0 agrees with the core formula
    v_near = solid_torus_reeb(dim3, (0.0, 1e-7, 0.0), s)
    assert abs(v_near[2] - 1.0 / (2 * s)) < 1e-6


def test_reeb_defining_equations(dim3):
    # sigma_s(R) = 1 and dsigma_s(R, .) = 0 on the coordinate basis:
    # g(r) thdot + s f(r) xdot = 1 and g' thdot + s f' xdot = 0
    rng = np.random.default_rng(5)
    s = 0.04
    for _ in range(50):
        r = rng.uniform(1e-3, 1.0)
        th, rr, x = solid_torus_reeb(dim3, (0.0, r, 0.0), s)
        ra = np.array([r])
        alpha_of_r = dim3.g(ra)[0] * th + s * dim3.f(ra)[0] * x
        dalpha_of_r = dim3.gp(ra)[0] * th + s * dim3.fp(ra)[0] * x
        assert abs(alpha_of_r - 1.0) < 1e-10
        assert abs(dalpha_of_r) < 1e-10
        assert rr == 0.0


def test_flow_preserves_r_and_t0_identity(dim3):
    st = (0.3, 0.6, 1.1)
    out = solid_torus_flow(dim3, st, 0.0, s=0.05)
    assert np.allclose(out, st)
    out = solid_torus_flow(dim3, st, 57.0, s=0.05)
    assert out[1] == st[1]


def test_flow_closed_form_vs_rk4(dim3):
    # ODE oracle: fixed-step RK4 against the linear closed form at t = 100
    s = 0.05
    st = (0.3, 0.5, 1.1)
    exact = solid_torus_flow(dim3, st, 100.0, s)
    rk4 = solid_torus_flow_rk4(dim3, st, 100.0, s)
    err = np.max(np.abs(np.array(exact) - np.array(rk4)))
    assert err <= 1e-8


def test_solid_torus_volume_quadrature_vs_mc(dim3):
    # sigma_s ^ dsigma_s = s h dr dtheta dx: MC oracle of the 3-form integral
    s = 0.03
    vol = solid_torus_volume(dim3, s)
    rng = np.random.default_rng(11)
    n = 200_000
    r = rng.random(n)
    vals = s * dim3.h(r) * TWO_PI ** 2
    mc = float(vals.mean())
    se = float(vals.std() / math.sqrt(n))
    assert abs(vol - mc) <= 3 * se


# ---------------------------------------------------------------- mapping torus

def test_mapping_torus_reeb_off_support(spec):
    # off supp(tau') or supp(chi'): velocity (1, 0, 0)
    v = mapping_torus_reeb(spec, (0.0, 2.0, 0.3), s=0.01)
    assert np.allclose(v, [1.0, 0.0, 0.0])
    v = mapping_torus_reeb(spec, (3.0, 1.1, 0.3), s=0.01)
    assert np.allclose(v, [1.0, 0.0, 0.0])


def test_mapping_torus_contact_equations(spec):
    # alpha_s(R) = 1, dalpha_s(R, .) = 0 at random states, to 1e-10.
    # alpha_s = dtheta + s[(2-r) dx + chi (2-r) tau' dr]
    # dalpha_s = s[dx^dr + chi' (2-r) tau' dtheta^dr - (chi (2-r) tau')_r' ... ]
    rng = np.random.default_rng(2)
    s = 0.005
    _, s1 = contact_threshold(spec)
    assert s <= s1
    for _ in range(1000):
        th = rng.uniform(0, TWO_PI)
        r = rng.uniform(1.0, 3.0)
        vth, vr, vx = mapping_torus_reeb(spec, (th, r, 0.0), s)
        chi = spec.chi(np.array([th]))[0]
        chi_p = spec.chi_prime(np.array([th]))[0]
        tau_p = spec.tau_prime(np.array([r]))[0]
        lam = 2.0 - r
        alpha_r = vth + s * (lam * vx + chi * lam * tau_p * vr)
        assert abs(alpha_r - 1.0) < 1e-10
        # dalpha = s[ -dr^dx + d(chi lam tau')^dr ] has components:
        # on (dtheta, dr): s chi' lam tau' ; on (dx, dr): -s... evaluate
        # i_R dalpha on basis vectors d_theta, d_r, d_x
        c_theta_r = s * chi_p * lam * tau_p
        # pairing i_R dalpha (d_r): from dx^dr: vx * (-1)... use matrix form
        omega = np.zeros((3, 3))  # coords (theta, r, x)
        omega[0, 1] = c_theta_r  # dtheta ^ dr coefficient
        omega[1, 0] = -c_theta_r
        omega[2, 1] = s  # dx ^ dr
        omega[1, 2] = -s
        contraction = omega.T @ np.array([vth, vr, vx])
        assert np.max(np.abs(contraction)) < 1e-10


def test_mapping_torus_speed_bounds(spec):
    _, s1 = contact_threshold(spec)
    rng = np.random.default_rng(3)
    for _ in range(500):
        th = rng.uniform(0, TWO_PI)
        r = rng.uniform(1.0, 3.0)
        vth = mapping_torus_reeb(spec, (th, r, 0.0), s1)[0]
        assert 0.5 - 1e-9 <= vth <= 2.0 + 1e-9


def test_contact_threshold_trivial_monodromy():
    s0, s1 = contact_threshold(MappingTorusSpec(k_twists=0))
    assert s0 == S_SCAN_CAP
    assert s1 == S_SCAN_CAP


def test_contact_threshold_ordering_and_grid_stability(spec):
    s0a, s1a = contact_threshold(spec, grid=64)
    s0b, s1b = contact_threshold(spec, grid=128)
    assert s1a <= s0a
    assert abs(s0a - s0b) <= 2e-3 * max(s0a, s0b)
    assert abs(s1a - s1b) <= 2e-3 * max(s1a, s1b)


def test_spec_json_round_trip():
    spec = MappingTorusSpec(k_twists=3, r_range=(1.0, 2.5), tau_support=(1.2, 2.0))
    assert spec.to_json() == {"k_twists": 3, "r_range": [1.0, 2.5],
                              "tau_support": [1.2, 2.0]}
    assert MappingTorusSpec.from_json(spec.to_json()) == spec


def test_contact_threshold_narrow_twist_support():
    # no row of the 64-row lattice on [1, 3] lies inside [1.3, 1.31]
    narrow = MappingTorusSpec(k_twists=1, tau_support=(1.3, 1.31))
    s0, s1 = contact_threshold(narrow)
    assert s1 <= s0 < S_SCAN_CAP
    np.testing.assert_allclose((s0, s1), contact_threshold(narrow, grid=512),
                               rtol=1e-6)


# ---------------------------------------------------------------- returns

def test_return_off_support_is_2pi_identity(spec):
    _, s1 = contact_threshold(spec)
    t, (r, x) = return_map_and_time(spec, (1.05, 0.4), s1 / 2)
    assert abs(t - TWO_PI) < 1e-12
    assert abs(r - 1.05) < 1e-12 and abs(x - 0.4) < 1e-12


def test_return_time_range_and_s_independence(spec):
    _, s1 = contact_threshold(spec)
    rng = np.random.default_rng(7)
    for _ in range(40):
        r = rng.uniform(1.0, 3.0)
        x = rng.uniform(0, TWO_PI)
        t_a, im_a = return_map_and_time(spec, (r, x), s1)
        t_b, im_b = return_map_and_time(spec, (r, x), s1 / 3)
        assert math.pi <= t_a <= 4 * math.pi
        assert math.pi <= t_b <= 4 * math.pi
        dx = abs(im_a[1] - im_b[1]) % TWO_PI
        assert min(dx, TWO_PI - dx) < 1e-8
        assert abs(im_a[0] - im_b[0]) < 1e-12


def test_return_time_window_thousand_starts(spec):
    _, s1 = contact_threshold(spec)
    rng = np.random.default_rng(73)
    for _ in range(1000):
        r = rng.uniform(1.0, 3.0)
        x = rng.uniform(0, TWO_PI)
        t, _ = return_map_and_time(spec, (r, x), s1, n_steps=1024)
        assert math.pi <= t <= 4 * math.pi


def test_return_closed_form_oracle(spec):
    # oracle: T_s = 2 pi - s (2-r)^2 tau'(r), image x = x - (2-r) tau' + tau
    _, s1 = contact_threshold(spec)
    s = s1 / 2
    for r in (1.5, 2.0, 2.4):
        t, (r_im, x_im) = return_map_and_time(spec, (r, 1.0), s)
        tau_p = spec.tau_prime(np.array([r]))[0]
        tau_v = spec.tau(np.array([r]))[0]
        t_pred = TWO_PI - s * (2.0 - r) ** 2 * tau_p
        x_pred = (1.0 - (2.0 - r) * tau_p + tau_v) % TWO_PI
        assert abs(t - t_pred) < 1e-9
        dx = abs(x_im - x_pred) % TWO_PI
        assert min(dx, TWO_PI - dx) < 1e-9


def test_no_return_above_contact_threshold(spec):
    # pick the radius where the twist correction peaks ((2-r)^2 tau' is
    # zero at r = 2, so probe off-center)
    s0, _ = contact_threshold(spec)
    r_grid = np.linspace(1.0, 3.0, 401)
    dens = (2 - r_grid) ** 2 * spec.tau_prime(r_grid)
    r_star = float(r_grid[np.argmax(dens)])
    with pytest.raises(NoReturn):
        return_map_and_time(spec, (r_star, 0.0), 3.0 * s0)


# ---------------------------------------------------------------- volumes

def test_mapping_torus_volume_closed_form(spec):
    # alpha ^ dalpha integrates to 8 pi^2 s - 2 pi s^2 J with
    # J = int (2-r)^2 tau' dr  (int chi' = 1 exactly)
    s = 0.01
    J, _ = integrate.quad(
        lambda r: (2 - r) ** 2 * spec.tau_prime(np.array([r]))[0], 1.0, 3.0)
    vol = mapping_torus_volume(spec, s, grid=512)
    pred = 8 * math.pi ** 2 * s - 2 * math.pi * s ** 2 * J
    assert abs(vol - pred) / pred < 1e-6


def test_collapse_volumes_slope_and_residual(spec, dim3):
    _, s1 = contact_threshold(spec)
    s_list = [s1 * (k + 1) / 8 for k in range(8)]
    rows, fit = collapse_volumes(spec, dim3, s_list)
    assert fit["residual"] < 0.01
    assert abs(fit["a"] - fit["a_predicted"]) / fit["a_predicted"] < 0.05
    assert fit["curvature_ratio"] < 0.05
    # halving s roughly halves the volume (O(s) law)
    v = {row["s"]: row["vol_total"] for row in rows}
    assert abs(v[s_list[3]] / v[s_list[7]] - 0.5) < 0.02


def test_collapse_volumes_prediction_terms(spec, dim3):
    # leading coefficient = 2 pi * page area + (2 pi)^2 int h
    h_int, _ = integrate.quad(lambda r: dim3.h(np.array([r]))[0], 0, 1)
    _, fit = collapse_volumes(spec, dim3, [0.001, 0.002, 0.004])
    pred = TWO_PI * (TWO_PI * 2.0) + TWO_PI ** 2 * h_int
    assert abs(fit["a_predicted"] - pred) < 1e-9


@pytest.mark.parametrize("s_max", [1e300, 1e160])
def test_collapse_volumes_overflow_is_forms_error(spec, dim3, s_max):
    # s^2 (and at 1e300 the volumes) leave the float range: the check
    # comes before the least-squares fit, whose SVD would not converge
    with pytest.raises(VolumeOverflow, match="leaves the float range"):
        collapse_volumes(spec, dim3, [1e-3, s_max], grid=16)


def test_gluing_collar_match(spec, dim3):
    # near r = 1 the solid-torus form reads dtheta + s (2-r) dx, matching
    # the mapping-torus form on the collar to 1e-10
    r = np.linspace(0.9975, 1.0, 50)
    s = 0.02
    assert np.max(np.abs(dim3.g(r) - 1.0)) < 1e-10
    assert np.max(np.abs(s * dim3.f(r) - s * (2.0 - r))) < 1e-10
    # mapping-torus side: tau' = 0 on [1, 1.3], so alpha_s = dtheta + s(2-r)dx
    assert np.max(np.abs(spec.tau_prime(np.linspace(1.0, 1.25, 50)))) == 0.0


def test_contact_positivity_up_to_threshold(spec):
    # alpha_s ^ dalpha_s stays positive on the verification grid for every
    # s below s0 (sampled at the top of the range)
    s0, _ = contact_threshold(spec)
    theta = np.linspace(0, TWO_PI, 96, endpoint=False)
    r = np.linspace(1.0, 3.0, 96)
    th, rr = np.meshgrid(theta, r, indexing="ij")
    for s in (0.999 * s0, 0.5 * s0, 0.01 * s0):
        assert np.all(spec.contact_density(s, th, rr) > 0.0)


def test_contact_density_exact_identity(spec, dim3):
    # sigma_s ^ dsigma_s = s h dr^dtheta^dx exactly: cross-check the
    # 1-form coefficients at random radii
    rng = np.random.default_rng(9)
    s = 0.03
    r = rng.uniform(0.01, 1.0, size=200)
    lhs = dim3.g(r) * dim3.fp(r) * (-s) + s * dim3.f(r) * dim3.gp(r)
    assert np.max(np.abs(lhs - s * dim3.h(r))) < 1e-12


# ---------------------------------------------------------------- normalize

def test_normalize_form_identity_and_idempotence():
    scale, val = normalize_form(1.0, 2, 0.8)
    assert scale == 1.0 and val == 0.8
    _, v1 = normalize_form(3.7, 1, 2.0)
    s2, v2 = normalize_form(1.0, 1, v1)
    assert abs(v2 - v1) < 1e-12 and s2 == 1.0
    with pytest.raises(NonPositiveVolume):
        normalize_form(0.0, 1, 1.0)


# ---------------------------------------------------------------- open book

def test_open_book_volume_bound():
    ob = OpenBook3D(eps=0.05, r_eps=0.4, k_twists=1)
    for s in (0.02, 0.05, 0.1, 0.19):
        p = build_profiles(0.4, s, "higher")
        total = ob.total_volume(p, s)
        assert total <= ob.volume_bound(s)
        assert total > 0


def test_open_book_solid_part_le_12_pi_eps():
    ob = OpenBook3D(eps=0.07, r_eps=0.4)
    p = build_profiles(0.4, 0.1, "higher")
    st = solid_torus_volume(p, 1.0, x_coefficient=ob.eps_hat)
    assert st <= 12 * math.pi * ob.eps * (1 + 1e-9)


def test_open_book_return_times():
    ob = OpenBook3D(eps=0.05, r_eps=0.4, k_twists=1)
    rng = np.random.default_rng(3)
    s = 0.05
    for r in rng.uniform(0.4, 3.0, size=50):
        t = ob.return_time(s, r)
        assert math.pi <= t <= 4 * math.pi
    # away from the twist support the return time is exactly 2 pi
    assert abs(ob.return_time(s, 0.6) - TWO_PI) < 1e-12
