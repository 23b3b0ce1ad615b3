import json
import math

import numpy as np
import pytest
from scipy import integrate

from entropia.reeb_collapse import (
    FormsError,
    MappingTorusSpec,
    NoReturn,
    collapse_volumes,
    contact_threshold,
    mapping_torus_system,
    mapping_torus_volume,
    normalize_form,
    profiles,
    return_map_and_time,
    solid_torus_flow,
    solid_torus_flow_rk4,
    solid_torus_reeb,
    solid_torus_volume,
)
from entropia.reeb_collapse.forms import (
    MappingTorusField,
    NonPositiveVolume,
    S_SCAN_CAP,
    VolumeOverflow,
    _chi,
)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def spec():
    return MappingTorusSpec(k_twists=1)


# ---------------------------------------------------------------- profiles

def test_profiles_dim3_h_near_zero():
    r = np.linspace(1e-6, 0.05, 500)
    assert np.max(np.abs(profiles.h(r) - r * (2 + r ** 4))) < 1e-10


# Constructions with infinitely flat contact have derivatives below the
# double-precision floor within ~0.5% of the flat endpoint; strict sign
# checks stop just short of it.
_FLAT_SKIN = 0.995


def test_profiles_dim3_properties():
    # every property the collapse needs of the one profile family, on a
    # dense grid of (0, 1]
    r = np.linspace(1e-9, 1.0, 10_000)
    f, g, h = profiles._fgh(r)
    assert np.all(f.d1 < 0.0), "f' must be negative on (0, 1]"
    near1 = r >= 0.9
    assert np.max(np.abs(f.v[near1] - (2.0 - r[near1]))) < 1e-12, "f = 2 - r near 1"
    near0 = r <= 0.1
    assert np.max(np.abs(f.v[near0] - (2.0 - r[near0] ** 4))) < 1e-12, \
        "f = 2 - r^4 near 0"
    inner = (r > 0.0) & (r <= _FLAT_SKIN)
    assert np.all(g.d1[inner] > 0.0), "g' must be positive on (0, 1)"
    assert np.all(g.d1 >= 0.0), "g' must be nonnegative"
    g1 = profiles._g_dual(np.array([1.0]))
    assert (abs(g1.v[0] - 1.0) < 1e-12 and abs(g1.d1[0]) < 1e-12
            and abs(g1.d2[0]) < 1e-12), "g flat-one at 1"
    assert np.max(np.abs(g.v[near0] - r[near0] ** 2 / 2)) < 1e-12, "g = r^2/2 near 0"
    small = r <= 0.05
    assert np.max(np.abs(h[small] - r[small] * (2.0 + r[small] ** 4))) < 1e-10, \
        "h = r(2 + r^4) near 0"
    assert np.all(h > 0.0), "h must be positive on (0, 1]"


def test_x_speed_peak_bounds_the_x_speed_and_its_derivative():
    # X_SPEED_PEAK is a rounded-up maximum: above every sampled value, and
    # within 1e-7 relative of the largest
    r = np.linspace(1e-9, profiles.R_EPS, 100_001)
    _, fib, _, d_fib = profiles.speeds_and_derivatives(r)
    peak = max(np.abs(fib).max(), np.abs(d_fib).max())
    assert peak < profiles.X_SPEED_PEAK < peak * (1 + 1e-7)


# ---------------------------------------------------------------- solid torus

def test_reeb_boundary_is_page_rotation():
    v = solid_torus_reeb((0.3, 1.0, 0.7), s=0.05)
    assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-12)


def test_reeb_core_velocity():
    s = 0.07
    v = solid_torus_reeb((0.0, 0.0, 0.0), s)
    assert np.allclose(v, [0.0, 0.0, 1.0 / (2 * s)], atol=1e-12)
    # limit along r -> 0 agrees with the core formula
    v_near = solid_torus_reeb((0.0, 1e-7, 0.0), s)
    assert abs(v_near[2] - 1.0 / (2 * s)) < 1e-6


def test_reeb_defining_equations():
    # sigma_s(R) = 1 and dsigma_s(R, .) = 0 on the coordinate basis:
    # g(r) thdot + s f(r) xdot = 1 and g' thdot + s f' xdot = 0
    rng = np.random.default_rng(5)
    s = 0.04
    for _ in range(50):
        r = rng.uniform(1e-3, 1.0)
        th, rr, x = solid_torus_reeb((0.0, r, 0.0), s)
        ra = np.array([r])
        alpha_of_r = profiles.g(ra)[0] * th + s * profiles.f(ra)[0] * x
        dalpha_of_r = profiles.gp(ra)[0] * th + s * profiles.fp(ra)[0] * x
        assert abs(alpha_of_r - 1.0) < 1e-10
        assert abs(dalpha_of_r) < 1e-10
        assert rr == 0.0


def test_flow_preserves_r_and_t0_identity():
    st = (0.3, 0.6, 1.1)
    out = solid_torus_flow(st, 0.0, s=0.05)
    assert np.allclose(out, st)
    out = solid_torus_flow(st, 57.0, s=0.05)
    assert out[1] == st[1]


def test_flow_closed_form_vs_rk4():
    # ODE oracle: fixed-step RK4 against the linear closed form at t = 100
    s = 0.05
    st = (0.3, 0.5, 1.1)
    exact = solid_torus_flow(st, 100.0, s)
    rk4 = solid_torus_flow_rk4(st, 100.0, s)
    err = np.max(np.abs(np.array(exact) - np.array(rk4)))
    assert err <= 1e-8


def test_solid_torus_volume_quadrature_vs_mc():
    # sigma_s ^ dsigma_s = s h dr dtheta dx: MC oracle of the 3-form integral
    s = 0.03
    vol = solid_torus_volume(s)
    rng = np.random.default_rng(11)
    n = 200_000
    r = rng.random(n)
    vals = s * profiles.h(r) * TWO_PI ** 2
    mc = float(vals.mean())
    se = float(vals.std() / math.sqrt(n))
    assert abs(vol - mc) <= 3 * se


# ---------------------------------------------------------------- mapping torus

def _reeb_velocity(spec, theta, r, s):
    """(theta_dot, r_dot, x_dot) of the field the time-one map integrates."""
    th_dot, x_dot = MappingTorusField(spec, np.array([r]), s)(np.array([theta]))[:2]
    return np.array([th_dot[0], 0.0, x_dot[0]])


def test_mapping_torus_reeb_off_support(spec):
    # off supp(tau') or supp(chi'): velocity (1, 0, 0), no derivatives
    assert np.allclose(_reeb_velocity(spec, 0.0, 2.0, 0.01), [1.0, 0.0, 0.0])
    assert np.allclose(_reeb_velocity(spec, 3.0, 1.1, 0.01), [1.0, 0.0, 0.0])
    field = MappingTorusField(spec, np.array([1.1, 2.0]), 0.01)
    assert np.allclose(np.stack(field(np.array([3.0, 0.0]))[2:]), 0.0)


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
        vth, vr, vx = _reeb_velocity(spec, th, r, s)
        chi = _chi(np.array([th]))[0]
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
        vth = _reeb_velocity(spec, th, r, s1)[0]
        assert 0.5 - 1e-9 <= vth <= 2.0 + 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_time_one_map_keeps_the_first_integrals(k):
    # with c = s lam^2 tau' and a = -lam tau', theta - c chi(theta) grows
    # like time and x - a chi(theta) is constant along the flow; a crossing
    # of the page subtracts 2 pi - c from the first and adds tau + a to the
    # second
    spec = MappingTorusSpec(k_twists=k)
    _, s1 = contact_threshold(spec)
    for s in (0.01, s1 / 2, s1):
        sys = mapping_torus_system(spec, s)
        states = sys.sampler(2000, np.random.default_rng(k))
        image = sys.step(states)
        th0, r, x0 = states.T
        th1, x1 = image[:, 0], image[:, 2]
        lam, tau_p = spec.lam(r), spec.tau_prime(r)
        c, a = s * lam ** 2 * tau_p, -lam * tau_p
        crossed = th1 < th0
        assert crossed.any() and not crossed.all()
        time = (th1 - c * _chi(th1)) - (th0 - c * _chi(th0))
        np.testing.assert_allclose(time + crossed * (TWO_PI - c), 1.0,
                                   rtol=0.0, atol=1e-8)
        drift = (x1 - a * _chi(th1)) - (x0 - a * _chi(th0))
        np.testing.assert_allclose(drift - crossed * (spec.tau(r) + a), 0.0,
                                   rtol=0.0, atol=1e-8)


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
    assert MappingTorusSpec.from_json(json.dumps(spec.to_json())) == spec


@pytest.mark.parametrize("obj, text", [
    ([1], "a spec is an object with the keys k_twists, r_range and "
          "tau_support, got list"),
    ({"r_range": [True, 3]}, "r_range[0] must be a number, got True"),
    ({"r_range": [1, "3"]}, "r_range[1] must be a number, got '3'"),
    ({"r_range": [1, 2, 3]}, "r_range must be a list of two numbers, got 3 values"),
    ({"r_range": None}, "r_range must be a list of two numbers, got NoneType"),
    ({"tau_support": [1.3, 10 ** 400]},
     "tau_support holds an integer past the float range"),
    # one float apart: every row of the threshold lattice is a flat end
    ({"tau_support": [1.3, 1.3000000000000003]},
     "tau_support [1.3, 1.3000000000000003] is too narrow to sample"),
    ({"k_twists": 0, "tau_support": [1.3, 1.3000000000000003]},
     "tau_support [1.3, 1.3000000000000003] is too narrow to sample"),
    # a width whose inverse square overflows
    ({"k_twists": 0, "r_range": [1e-160, 3e-160], "tau_support": [1e-160, 2e-160]},
     "tau_support [1e-160, 2e-160] is too narrow: the twist's r derivatives "
     "leave the float range"),
])
def test_spec_from_json_names_the_bad_field(obj, text):
    with pytest.raises(FormsError) as info:
        MappingTorusSpec.from_json(obj)
    assert str(info.value).startswith(text)


@pytest.mark.parametrize("width", [1e-9, 4.5e-16])
def test_narrow_twist_supports_that_sample_stay_valid(width):
    # two floats apart is still a row inside the step
    spec = MappingTorusSpec(k_twists=1, tau_support=(1.3, 1.3 + width))
    assert spec.tau_support[1] > 1.3 and contact_threshold(spec)[0] < S_SCAN_CAP


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
        t, _ = return_map_and_time(spec, (r, x), s1)
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


@pytest.mark.parametrize("k", [1, -2, 3])
def test_return_map_on_arrays_equals_the_scalar_calls(k):
    # every (s, start) of an (n_s, 1) column and an (n, 2) array of starts
    # gives the floats of its own scalar call
    spec = MappingTorusSpec(k_twists=k)
    _, s1 = contact_threshold(spec)
    rng = np.random.default_rng(11)
    starts = np.stack([rng.uniform(1.0, 3.0, 50), rng.uniform(0, TWO_PI, 50)], axis=1)
    s_values = s1 * np.array([0.125, 0.5, 1.0])
    times, images = return_map_and_time(spec, starts, s_values[:, None])
    assert times.shape == (3, 50) and images.shape == (3, 50, 2)
    for i, s in enumerate(s_values.tolist()):
        for j, (r, x) in enumerate(starts.tolist()):
            t, (r_im, x_im) = return_map_and_time(spec, (r, x), s)
            assert (times[i, j], *images[i, j]) == (t, r_im, x_im)


def test_no_return_at_any_start_of_an_array_raises(spec):
    s0, _ = contact_threshold(spec)
    r_grid = np.linspace(1.0, 3.0, 401)
    r_star = float(r_grid[np.argmax((2 - r_grid) ** 2 * spec.tau_prime(r_grid))])
    starts = np.array([[1.1, 0.0], [r_star, 0.0]])
    return_map_and_time(spec, starts[:1], np.array([[0.5 * s0], [3.0 * s0]]))
    with pytest.raises(NoReturn, match="transverse"):
        return_map_and_time(spec, starts, np.array([[0.5 * s0], [3.0 * s0]]))


def test_no_return_above_contact_threshold(spec):
    # pick the radius where the twist correction peaks ((2-r)^2 tau' is
    # zero at r = 2, so probe off-center)
    s0, _ = contact_threshold(spec)
    r_grid = np.linspace(1.0, 3.0, 401)
    dens = (2 - r_grid) ** 2 * spec.tau_prime(r_grid)
    r_star = float(r_grid[np.argmax(dens)])
    with pytest.raises(NoReturn):
        return_map_and_time(spec, (r_star, 0.0), 3.0 * s0)


def _chi_prime(theta):
    """chi' written out from the smoothstep 35u^4 - 84u^5 + 70u^6 - 20u^7,
    u = theta / 2 pi."""
    u = theta / TWO_PI
    return 140.0 * (u * (1.0 - u)) ** 3 / TWO_PI


@pytest.mark.parametrize("k", [1, 3])
def test_return_map_matches_quadrature_oracle(k):
    # T_s = int_0^2pi (1 - c chi') and x gains int_0^2pi a chi', then tau(r),
    # with c = s lambda^2 tau'(r) and a = -lambda tau'(r), by adaptive
    # quadrature; r below, inside and above the twist support
    spec = MappingTorusSpec(k_twists=k)
    s0, s1 = contact_threshold(spec)
    lo, hi = spec.tau_support
    for r in (1.1, lo + 0.1, 1.7, 2.0, 2.4, hi - 0.05, 2.9):
        tau = spec.tau_dual(np.array([r]))
        lam, tau_v, tau_p = 2.0 - r, tau.v[0], tau.d1[0]
        images = set()
        for s in (s1 / 3, s1, 0.95 * s0):
            t, (r_im, x_im) = return_map_and_time(spec, (r, 0.7), s)
            c = s * lam ** 2 * tau_p
            t_quad, _ = integrate.quad(lambda th: 1.0 - c * _chi_prime(th),
                                       0.0, TWO_PI, epsabs=0.0, epsrel=1.2e-14)
            dx, _ = integrate.quad(lambda th: -lam * tau_p * _chi_prime(th),
                                   0.0, TWO_PI, epsabs=0.0, epsrel=1.2e-14)
            np.testing.assert_allclose(t, t_quad, rtol=1e-12, atol=0.0)
            assert r_im == r
            gap = abs(x_im - (0.7 + dx + tau_v)) % TWO_PI
            assert min(gap, TWO_PI - gap) <= 1e-12 * TWO_PI
            images.add(x_im)
        # the image does not depend on s: a sweep's return_map_spread is 0
        assert len(images) == 1


def test_no_return_at_the_transversality_boundary(spec):
    # dt/dtheta = 1 - s lambda^2 tau' chi' first reaches 0 at theta = pi,
    # where chi' is largest (35 / (32 pi)), at the r where lambda^2 tau' is
    r_grid = np.linspace(1.0, 3.0, 4001)
    dens = (2 - r_grid) ** 2 * spec.tau_prime(r_grid)
    r_star = float(r_grid[np.argmax(dens)])
    s_crit = 32.0 * math.pi / (35.0 * dens.max())
    with pytest.raises(NoReturn, match="transverse"):
        return_map_and_time(spec, (r_star, 0.0), 1.001 * s_crit)
    t, _ = return_map_and_time(spec, (r_star, 0.0), 0.999 * s_crit)
    assert 0.0 < t < TWO_PI
    # a negative twist slows the return instead: T_s = 2 pi + |c| passes
    # 8 pi at |c| = 6 pi
    back = MappingTorusSpec(k_twists=-1)
    s_late = 6.0 * math.pi / dens.max()
    with pytest.raises(NoReturn, match="8 pi"):
        return_map_and_time(back, (r_star, 0.0), 1.001 * s_late)
    t, _ = return_map_and_time(back, (r_star, 0.0), 0.999 * s_late)
    assert TWO_PI < t <= 8.0 * math.pi


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


@pytest.mark.parametrize("k, s, grid", [(1, 0.01, 256), (3, 0.002, 97), (-2, 0.05, 16)])
def test_mapping_torus_volume_equals_the_meshgrid_sum(k, s, grid):
    # the density on the (theta, r) mesh, evaluated on all grid^2 points
    spec = MappingTorusSpec(k_twists=k)
    r0, r1 = spec.r_range
    theta = (np.arange(grid) + 0.5) * TWO_PI / grid
    r = r0 + (np.arange(grid) + 0.5) * (r1 - r0) / grid
    th, rr = np.meshgrid(theta, r, indexing="ij")
    want = TWO_PI * float(spec.contact_density(s, th, rr).mean()) * TWO_PI * (r1 - r0)
    assert mapping_torus_volume(spec, s, grid) == want


def test_collapse_volumes_slope_and_residual(spec):
    _, s1 = contact_threshold(spec)
    s_list = [s1 * (k + 1) / 8 for k in range(8)]
    rows, fit = collapse_volumes(spec, s_list)
    assert fit["residual"] < 0.01
    assert abs(fit["a"] - fit["a_predicted"]) / fit["a_predicted"] < 0.05
    assert fit["curvature_ratio"] < 0.05
    # halving s roughly halves the volume (O(s) law)
    v = {row["s"]: row["vol_total"] for row in rows}
    assert abs(v[s_list[3]] / v[s_list[7]] - 0.5) < 0.02


def test_collapse_volumes_prediction_terms(spec):
    # leading coefficient = 2 pi * page area + (2 pi)^2 int h
    h_int, _ = integrate.quad(lambda r: profiles.h(np.array([r]))[0], 0, 1)
    _, fit = collapse_volumes(spec, [0.001, 0.002, 0.004])
    pred = TWO_PI * (TWO_PI * 2.0) + TWO_PI ** 2 * h_int
    assert abs(fit["a_predicted"] - pred) < 1e-9


@pytest.mark.parametrize("s_max", [1e300, 1e160])
def test_collapse_volumes_overflow_is_forms_error(spec, s_max):
    # s^2 (and at 1e300 the volumes) leave the float range: the check
    # comes before the least-squares fit, whose SVD would not converge
    with pytest.raises(VolumeOverflow, match="leaves the float range"):
        collapse_volumes(spec, [1e-3, s_max], grid=16)


def test_gluing_collar_match(spec):
    # near r = 1 the solid-torus form reads dtheta + s (2-r) dx, matching
    # the mapping-torus form on the collar to 1e-10
    r = np.linspace(0.9975, 1.0, 50)
    s = 0.02
    assert np.max(np.abs(profiles.g(r) - 1.0)) < 1e-10
    assert np.max(np.abs(s * profiles.f(r) - s * (2.0 - r))) < 1e-10
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


def test_contact_density_exact_identity(spec):
    # sigma_s ^ dsigma_s = s h dr^dtheta^dx exactly: cross-check the
    # 1-form coefficients at random radii
    rng = np.random.default_rng(9)
    s = 0.03
    r = rng.uniform(0.01, 1.0, size=200)
    lhs = profiles.g(r) * profiles.fp(r) * (-s) + s * profiles.f(r) * profiles.gp(r)
    assert np.max(np.abs(lhs - s * profiles.h(r))) < 1e-12


# ---------------------------------------------------------------- normalize

def test_normalize_form_identity_and_idempotence():
    scale, val = normalize_form(1.0, 2, 0.8)
    assert scale == 1.0 and val == 0.8
    _, v1 = normalize_form(3.7, 1, 2.0)
    s2, v2 = normalize_form(1.0, 1, v1)
    assert abs(v2 - v1) < 1e-12 and s2 == 1.0
    with pytest.raises(NonPositiveVolume):
        normalize_form(0.0, 1, 1.0)


def test_normalize_form_rescale_invariance():
    # (vol, gamma) -> (c^(n+1) vol, gamma / c) leaves gamma vol^(1/(n+1)) fixed
    c, n, vol, gamma = 3.0, 1, 1.7, 0.9
    _, a = normalize_form(vol, n, gamma)
    _, b = normalize_form(c ** (n + 1) * vol, n, gamma / c)
    assert abs(a - b) < 1e-12


def test_normalize_form_genus2():
    # a hyperbolic genus-2 surface, area 4 pi and entropy 1, normalizes to
    # Katok's floor 2 sqrt(pi)
    _, value = normalize_form(4 * math.pi, 1, 1.0)
    assert abs(value - 2 * math.sqrt(math.pi)) < 1e-12
