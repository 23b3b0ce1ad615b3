"""The closed-form smooth step and the profile derivatives built on it.

`smooth_step_on` writes S, S' and S'' out by hand, so these tests check
the derivatives against central differences on every window the profiles
and the Dehn twist use, the exact flatness beyond the clip, and the slope
statement of its docstring.
"""

import numpy as np
import pytest

from entropia.reeb_collapse import MappingTorusSpec, ProfileFunctions
from entropia.reeb_collapse.duals import _STEP_CLIP, Dual, smooth_step_on
from entropia.reeb_collapse.profiles import (
    _DIM3_F_WINDOW,
    _DIM3_G_WINDOW,
    _HIGHER_F_WINDOW,
    _HIGHER_G_WINDOW,
)

R_EPS = 0.4
_B1, _B2, _ = ProfileFunctions(R_EPS, 0.1, "higher")._f_zones()

# (a, b, p) of every smooth step in f, g and tau; the higher family's at
# r_eps 0.4, s 0.1, its g window in the rescaled variable 2 r / r_eps
WINDOWS = {
    "dim3 f": (*_DIM3_F_WINDOW, 1.0),
    "dim3 g": (*_DIM3_G_WINDOW, 1.0),
    "higher f left": (_HIGHER_F_WINDOW[0] * R_EPS, _HIGHER_F_WINDOW[1] * R_EPS, 0.6),
    "higher f right": (_B1, _B2, 0.5),
    "higher g": (*_HIGHER_G_WINDOW, 0.55),
    "tau": (*MappingTorusSpec().tau_support, 1.0),
}


def _step(x, a, b, p):
    return smooth_step_on(Dual(np.asarray(x, float), 1.0, 0.0), a, b, p)


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_derivatives_match_central_differences(name):
    a, b, p = WINDOWS[name]
    x = a + (b - a) * np.linspace(0.01, 0.99, 397)
    dx = 1e-6 * (b - a)
    lo, mid, hi = (_step(x + t * dx, a, b, p) for t in (-1.0, 0.0, 1.0))
    fd1 = (hi.v - lo.v) / (2.0 * dx)
    fd2 = (hi.d1 - lo.d1) / (2.0 * dx)
    assert np.max(np.abs(fd1 - mid.d1)) <= 1e-7 * np.max(np.abs(mid.d1))
    assert np.max(np.abs(fd2 - mid.d2)) <= 1e-7 * np.max(np.abs(mid.d2))


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_flat_beyond_the_clip(name):
    a, b, p = WINDOWS[name]
    edge = _STEP_CLIP * (b - a)
    below = _step(np.array([a - 1.0, a, a + 0.5 * edge, a + 0.99 * edge]), a, b, p)
    above = _step(np.array([b - 0.99 * edge, b - 0.5 * edge, b, b + 1.0]), a, b, p)
    for out, value in ((below, 0.0), (above, 1.0)):
        assert out.v.tolist() == [value] * 4
        assert out.d1.tolist() == [0.0] * 4
        assert out.d2.tolist() == [0.0] * 4


@pytest.mark.parametrize("p", [0.5, 0.55, 0.6, 1.0])
def test_slope_at_the_midpoint_is_2p(p):
    assert abs(_step(np.array([0.5]), 0.0, 1.0, p).d1[0] - 2.0 * p) < 1e-12


@pytest.mark.parametrize("p, slope", [(0.5, 1.534), (0.55, 1.503), (0.6, 1.491)])
def test_slow_step_is_steepest_off_the_midpoint(p, slope):
    u = np.linspace(0.0, 1.0, 20001)
    d1 = _step(u, 0.0, 1.0, p).d1
    assert round(float(d1.max()), 3) == slope
    assert d1.max() > 2.0 * p
    # the slope is symmetric about the midpoint
    assert np.max(np.abs(d1 - d1[::-1])) < 1e-9
    if p == 0.5:
        half = len(u) // 2
        assert abs(u[np.argmax(d1[:half])] - 0.21) < 0.005
        assert abs(u[half + np.argmax(d1[half:])] - 0.79) < 0.005


def test_fast_step_is_steepest_at_the_midpoint():
    u = np.linspace(0.0, 1.0, 20001)
    d1 = _step(u, 0.0, 1.0, 1.0).d1
    assert u[np.argmax(d1)] == 0.5
    assert d1.max() == pytest.approx(2.0, abs=1e-12)
