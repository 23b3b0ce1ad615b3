"""Pins of the glued Reeb field: the solid-torus system and field, the
solid-torus volume, page returns, contact thresholds and the volume table.

The goldens were recorded from the code in which chi', h and the
solid-torus speeds each had several definitions (a Dual chain next to a
closed form, one h per ProfileFunctions method).  The solid-torus
arithmetic keeps its order of operations, so it is pinned exactly; the
page quantities now take chi' in closed form and are pinned at 1e-13
relative.  The solid-torus volume and the volume table are recorded from
the composite Gauss-Legendre rule over the profile breakpoints, and an
adaptive quadrature checks that rule at 1e-14 relative.
"""

import numpy as np
import pytest
from scipy import integrate

from entropia.reeb_collapse import (
    MappingTorusSpec,
    build_profiles,
    collapse_volumes,
    contact_threshold,
    return_map_and_time,
    solid_torus_reeb,
    solid_torus_system,
    solid_torus_volume,
)

RTOL = 1e-13

ST_STATES = [[0.3, 0.05, 6.1], [1.7, 0.3, 2.2], [3.1, 0.55, 0.4],
             [4.9, 0.8, 5.5], [6.2, 0.95, 3.3]]
ST_STEP = [
    [0.3049999843750488, 0.05, 3.5335981357384796],
    [2.4211240459747847, 0.3, 5.67811672711381],
    [3.5336179061850888, 0.55, 4.3127564622120875],
    [5.323862068067486, 0.8, 2.9404864502545873],
    [0.9166591516021638, 0.95, 3.302972023393824],
]
ST_JAC = [
    [1.0, 0.1999981250097656, 0.0, 0.0, 1.0, 0.0,
     0.0, -0.002499984375089619, 1.0],
    [1.0, 11.320591142419179, 0.0, 0.0, 1.0, 0.0,
     0.0, -5.139545576566918, 1.0],
    [1.0, 0.15732893074425336, 0.0, 0.0, 1.0, 0.0,
     0.0, -0.7960338429486887, 1.0],
    [1.0, 2.7483928198823984, 0.0, 0.0, 1.0, 0.0,
     0.0, -43.18323788194992, 1.0],
    [1.0, 0.041137481655700914, 0.0, 0.0, 1.0, 0.0,
     0.0, -0.7835706951388711, 1.0],
]
# r -> Reeb velocity at (0.5, r, 1.0), s = 0.05
REEB = {
    1e-3: [1.999999999999e-06, 0.0, 9.999999999995],
    0.3: [0.7211240459747846, 0.0, 9.761302034293395],
    0.7: [0.37800768207564445, 0.0, 10.775401219565765],
    1.0: [1.0, 0.0, 0.0],
}
ST_VOLUME = 82.69739045757329
# (k_twists, s, (r, x)) -> (T_s, r image, x image)
RETURN_MAP = {
    (1, 0.01, (1.2, 0.4)): [6.283185307179588, 1.2, 0.4],
    (1, 0.01, (1.9, 2.5)): [6.282307634699141, 1.9, 3.8727505849856936],
    (1, 0.01, (2.4, 5.0)): [6.277904634448911, 2.4, 6.116056322875512],
    (1, 0.05, (1.2, 0.4)): [6.283185307179588, 1.2, 0.4],
    (1, 0.05, (1.9, 2.5)): [6.278796944777362, 1.9, 3.8727505849856936],
    (1, 0.05, (2.4, 5.0)): [6.256781943526207, 2.4, 6.116056322875512],
    (3, 0.01, (1.2, 0.4)): [6.283185307179588, 1.2, 0.4],
    (3, 0.01, (1.9, 2.5)): [6.280552289738251, 1.9, 0.3350664477774954],
    (3, 0.01, (2.4, 5.0)): [6.267343288987558, 2.4, 2.064983661446945],
    (3, 0.05, (1.2, 0.4)): [6.283185307179588, 1.2, 0.4],
    (3, 0.05, (1.9, 2.5)): [6.270020219972914, 1.9, 0.3350664477774954],
    (3, 0.05, (2.4, 5.0)): [6.203975216219449, 2.4, 2.064983661446945],
}
THRESHOLDS = {1: [4.8321076488219665, 2.4160538244109833],
              3: [1.6107025496073222, 0.8053512748036611]}
VOLUME_S = [0.001, 0.002, 0.004]
VOLUME_ROWS = [
    {"s": 0.001, "vol_mt": 0.07895475230087612, "vol_st": 0.0826973904575733,
     "vol_total": 0.1616521427584494},
    {"s": 0.002, "vol_mt": 0.15790533878607474, "vol_st": 0.1653947809151466,
     "vol_total": 0.3233001197012213},
    {"s": 0.004, "vol_mt": 0.3157940143094394, "vol_st": 0.3307895618302932,
     "vol_total": 0.6465835761397325},
]
VOLUME_FIT = {"a": 161.65422566628823, "b": -2.082907838778406,
              "residual": 9.500086383193072e-17,
              "a_predicted": 161.65422566628814,
              "curvature_ratio": 5.1539830281412324e-05}
# (v, d1, d2) of tau for k_twists 3 across its support, recorded from the
# forward-mode Dual arithmetic that the closed forms replaced.
TAU_R = [1.35, 1.6, 2.0, 2.3, 2.65]
TAU3 = [
    [3.676504420600253e-11, 2.0616666764587784e-08, 1.0737675457936122e-05],
    [0.612335579380299, 9.90126137001708, 94.53225503129548],
    [9.424777960769376, 26.92793703076965, 0.0],
    [16.79312928954993, 18.595581787680945, -72.5386081512655],
    [18.849555921501995, 2.0616666764590434e-08, -1.0737675457937398e-05],
]


@pytest.fixture(scope="module")
def dim3():
    return build_profiles()


def test_solid_torus_system_exact(dim3):
    sys = solid_torus_system(dim3, 0.05)
    states = np.array(ST_STATES)
    assert np.array_equal(sys.time_one(states), np.array(ST_STEP))
    assert np.array_equal(sys.time_one_jacobian(states)[1].reshape(-1, 9),
                          np.array(ST_JAC))


@pytest.mark.parametrize("r", sorted(REEB))
def test_solid_torus_reeb_exact(dim3, r):
    assert solid_torus_reeb(dim3, (0.5, r, 1.0), 0.05).tolist() == REEB[r]


def test_solid_torus_volume_exact(dim3):
    assert solid_torus_volume(dim3, 1.0) == ST_VOLUME


def _triples(d):
    return np.stack([d.v, d.d1, d.d2], axis=1).tolist()


def test_tau_dual_exact():
    tau = MappingTorusSpec(k_twists=3).tau_dual(np.array(TAU_R))
    assert _triples(tau) == TAU3


def test_solid_torus_volume_matches_adaptive_quadrature(dim3):
    val, _ = integrate.quad(lambda r: dim3.h(np.array([r]))[0], 0.0, dim3.r_eps,
                            points=dim3.breakpoints[1:-1], epsabs=0.0,
                            epsrel=1.2e-14, limit=4000)
    np.testing.assert_allclose(solid_torus_volume(dim3, 1.0),
                               (2.0 * np.pi) ** 2 * val, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("key", sorted(RETURN_MAP))
def test_return_map_and_time(key):
    k, s, start = key
    t, (r, x) = return_map_and_time(MappingTorusSpec(k_twists=k), start, s)
    np.testing.assert_allclose([t, r, x], RETURN_MAP[key], rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("k", sorted(THRESHOLDS))
def test_contact_threshold(k):
    np.testing.assert_allclose(contact_threshold(MappingTorusSpec(k_twists=k)),
                               THRESHOLDS[k], rtol=RTOL, atol=0.0)


def test_collapse_volumes(dim3):
    rows, fit = collapse_volumes(MappingTorusSpec(), dim3, VOLUME_S)
    assert [row.keys() for row in rows] == [row.keys() for row in VOLUME_ROWS]
    for row, want in zip(rows, VOLUME_ROWS):
        np.testing.assert_allclose(list(row.values()), list(want.values()),
                                   rtol=RTOL, atol=0.0)
    assert fit.keys() == VOLUME_FIT.keys()
    for key, want in VOLUME_FIT.items():
        np.testing.assert_allclose(fit[key], want, rtol=RTOL, atol=0.0,
                                   err_msg=key)
