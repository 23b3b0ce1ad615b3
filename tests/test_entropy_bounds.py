import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropia import entropy_bounds
from entropia.entropy_bounds import (
    GenusTooSmall,
    QuadratureDisagreement,
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


# ---------------------------------------------------------------- katok

def test_katok_genus2():
    assert abs(katok_bound(2, True) - 2 * math.sqrt(math.pi)) < 1e-12
    assert abs(katok_bound(2, True) - 3.5449) < 1e-4
    assert abs(katok_bound(2, False) - math.sqrt(2 * math.pi)) < 1e-12


def test_katok_orientable_ratio_sqrt2():
    for k in range(2, 9):
        assert abs(katok_bound(k, True) / katok_bound(k, False) - math.sqrt(2)) < 1e-12


def test_katok_genus_guard():
    with pytest.raises(GenusTooSmall):
        katok_bound(1, True)


# ---------------------------------------------------------------- floors

def test_finsler_floor_genus2():
    assert abs(finsler_floor(2, False) - math.sqrt(2)) < 1e-12
    assert abs(finsler_floor(2, True) - 2 * math.sqrt(2)) < 1e-12


def test_finsler_floor_chain_identity():
    for k in range(2, 10):
        assert abs(finsler_floor(k, False) - c_n(2) * katok_bound(k, True)) < 1e-12
        assert abs(finsler_floor(k, True) - 2 * c_n(2) * katok_bound(k, True)) < 1e-12


# ---------------------------------------------------------------- verovic

def test_verovic_reported_values():
    c2bh, c2ht = verovic_constants(2)
    c3bh, c3ht = verovic_constants(3)
    assert abs(c2bh - 0.9306) < 5e-4
    assert abs(c2ht - 0.8409) < 5e-4
    assert abs(c3bh - 0.9069) < 5e-4
    assert abs(c3ht - 0.7783) < 5e-4


def test_verovic_monotone_to_limits():
    lim_bh, lim_ht = math.sqrt(2 / math.e), math.sqrt(1 / math.e)
    prev = verovic_constants(2)
    for k in range(3, 61):
        cur = verovic_constants(k)
        assert cur[0] < prev[0]
        assert cur[1] < prev[1]
        assert cur[0] > lim_bh
        assert cur[1] > lim_ht
        prev = cur
    assert verovic_constants(60)[0] - lim_bh < 3e-3
    assert verovic_constants(60)[1] - lim_ht < 2e-2


def test_verovic_ordering():
    for k in range(2, 30):
        c_bh, c_ht = verovic_constants(k)
        assert c_ht < c_bh < 1.0


# ---------------------------------------------------------------- weyl

def test_weyl_closed_forms_small_k():
    assert abs(weyl_closed_form(2, "ball") - 1 / 8) < 1e-15
    assert abs(weyl_closed_form(2, "cross_polytope") - 1 / 24) < 1e-15
    assert abs(weyl_closed_form(3, "cube") - 1 / 8) < 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("body", ["ball", "cross_polytope", "cube"])
def test_weyl_quadrature_matches_closed(k, body):
    # the k <= 3 integrands are polynomials the 4-node rule integrates exactly
    val, se = weyl_cell_integrals(k, body)
    assert se == 0.0
    assert abs(val - weyl_closed_form(k, body)) <= 1e-14


@pytest.mark.parametrize("body", ["ball", "cross_polytope", "cube"])
def test_weyl_mc_matches_closed_k5(body):
    val, se = weyl_cell_integrals(5, body, n_samples=2_000_000)
    assert abs(val - weyl_closed_form(5, body)) <= max(3 * se, 1e-8)


# ---------------------------------------------------------------- sl3

def test_sl3_values():
    i_in, c_bh, c_ht = sl3_constants()
    # closed form (3 sqrt(3)/640)(27 ln 3 + 68) evaluated independently by
    # hexagon quadrature; both give 0.7929209 to 1e-9
    closed = 3 * math.sqrt(3) / 640 * (27 * math.log(3) + 68)
    assert abs(i_in - closed) < 1e-6 * closed
    assert abs(i_in - 0.7929209) < 1e-6
    assert abs(c_bh - 0.9496) < 1e-3
    assert abs(c_ht - 0.9120) < 1e-3
    # two-digit roundings
    assert abs(c_bh - 0.95) < 5e-3
    assert abs(c_ht - 0.912) < 1e-3


def test_hexagon_rule_matches_closed_form():
    closed = 3 * math.sqrt(3) / 640 * (27 * math.log(3) + 68)
    assert abs(entropy_bounds._hexagon_r3_integral() - closed) <= 1e-13


def test_coarse_rules_fail_the_dual_path_checks(monkeypatch):
    # the closed-form checks must be able to fail: a 2-node hexagon rule is
    # 2.6% off, a 1-node Weyl rule misses the degree-3 k = 2 integrand
    monkeypatch.setattr(entropy_bounds, "HEXAGON_NODES", 2)
    with pytest.raises(QuadratureDisagreement):
        sl3_constants()
    monkeypatch.setattr(entropy_bounds, "WEYL_NODES", 1)
    with pytest.raises(QuadratureDisagreement):
        weyl_cell_integrals(2, "ball")


# ---------------------------------------------------------------- tuner

def test_tuner_example():
    delta = spectrum_tuner(0.5, 1.0, 1, 2.0)
    assert abs(delta - 3.5 ** -0.5) < 1e-12
    assert abs(spectrum_value(0.5, 1.0, 1, delta) - 2.0) < 1e-12


def test_tuner_vbar_zero_limit():
    # v_bar -> 0: delta -> h/c
    for v in (1e-6, 1e-9, 1e-12):
        d = spectrum_tuner(v, 2.0, 2, 5.0)
        assert abs(d - 2.0 / 5.0) < 1e-3


def test_tuner_near_left_endpoint():
    v, h, n = 0.7, 1.3, 2
    left = spectrum_range_left(v, h, n)
    d = spectrum_tuner(v, h, n, left + 1e-9)
    assert math.isfinite(d) and d > 10.0
    with pytest.raises(TargetBelowRange):
        spectrum_tuner(v, h, n, left)


@pytest.mark.parametrize("n", [1, 2])
def test_tuner_rejects_non_positive_target(n):
    # f(delta) > 0, so no delta reaches c <= 0, whatever the parity of n + 1
    for c in (-2.0, 0.0):
        with pytest.raises(TargetBelowRange):
            spectrum_tuner(0.5, 1.0, n, c)


@settings(max_examples=200, deadline=None)
@given(
    v=st.floats(1e-6, 1 - 1e-6),
    h=st.floats(1e-3, 1e3),
    n=st.integers(1, 6),
    t=st.floats(1e-9, 50.0),
)
def test_tuner_round_trip(v, h, n, t):
    c = spectrum_range_left(v, h, n) * (1.0 + t)
    delta = spectrum_tuner(v, h, n, c)
    assert abs(spectrum_value(v, h, n, delta) - c) / c <= 1e-12
