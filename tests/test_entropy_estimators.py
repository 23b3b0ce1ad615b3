import math

import numpy as np
import pytest

from entropia import entropy_bounds
from entropia.entropy_estimators import (
    GAMMA_BUDGET,
    BudgetExceeded,
    DiscreteSystem,
    EstimatorError,
    cat_system,
    conjugated_cat_system,
    doubling_system,
    gamma,
    gamma_plus,
    gamma_properties_suite,
    htop_separated,
    hvol_ball_growth,
    manning_check,
    power_system,
    product_system,
    rotation_system,
    suspension_cat_system,
    time_change_bound,
    torus_metric,
)
from entropia.reeb_collapse.sweep import solid_torus_system

CAT_ENTROPY = math.log((3 + math.sqrt(5)) / 2)  # 0.9624...


# ---------------------------------------------------------------- systems

def test_jacobian_consistency_builtin_systems():
    for sys in (cat_system(), rotation_system(0.31), doubling_system(),
                suspension_cat_system(0.3)):
        assert sys.validate_jacobian(100, seed=1, tol=1e-4) < 1e-4


# ---------------------------------------------------------------- gamma

def test_gamma_plus_rotation_is_zero():
    est = gamma_plus(rotation_system(0.37), horizon=16)
    assert abs(est.value) <= 1e-6


def test_gamma_plus_cat_map():
    est = gamma_plus(cat_system(), horizon=64, n_states=32)
    assert abs(est.value - CAT_ENTROPY) < 1e-3


def test_gamma_cat_includes_inverse():
    est = gamma(cat_system(), horizon=64, n_states=32)
    assert abs(est.value - CAT_ENTROPY) < 1e-3


def test_gamma_long_horizon_no_overflow():
    # beyond 50 steps the rescaled accumulation must keep norms finite
    est = gamma_plus(cat_system(), horizon=400, n_states=8)
    assert abs(est.value - CAT_ENTROPY) < 1e-4


def test_gamma_solid_torus_tends_to_zero(rng):
    sys = solid_torus_system(s=0.05)
    short = gamma_plus(sys, horizon=25, n_states=64, seed=2)
    long = gamma_plus(sys, horizon=200, n_states=64, seed=2)
    assert long.value <= 1e-2
    assert long.value < short.value  # integrable: estimate decays with horizon


def test_gamma_budget_guard():
    # checked before any state is sampled or any step taken
    with pytest.raises(BudgetExceeded, match="exceeds the budget"):
        gamma_plus(cat_system(), horizon=GAMMA_BUDGET // 8 + 1, n_states=8)


def test_gamma_requires_inverse():
    with pytest.raises(EstimatorError):
        gamma(doubling_system(), horizon=16)


# the linear maps with their numpy systems and their shared Jacobians
LINEAR = [
    ("cat", cat_system, entropy_bounds.CAT),
    ("doubling", doubling_system, entropy_bounds.DOUBLING),
    ("rotation", lambda: rotation_system(0.37), entropy_bounds.ROTATION),
]


@pytest.mark.parametrize("make, jacobian", [row[1:] for row in LINEAR],
                         ids=[row[0] for row in LINEAR])
def test_linear_systems_use_the_shared_jacobians(make, jacobian):
    states = np.random.default_rng(5).random((7, len(jacobian)))
    _, jac = make().time_one_jacobian(states)
    assert np.array_equal(jac, np.tile(np.array(jacobian), (7, 1, 1)))


@pytest.mark.parametrize("horizon", [8, 16, 64, 400])
@pytest.mark.parametrize("make, jacobian", [row[1:] for row in LINEAR],
                         ids=[row[0] for row in LINEAR])
def test_gamma_linear_matches_gamma_plus(make, jacobian, horizon):
    # every state carries the same cocycle, so any seed gives the closed form
    closed = entropy_bounds.gamma_linear(jacobian, horizon)
    assert (closed.horizon, closed.samples) == (float(horizon), 128)
    for seed in range(3):
        sampled = gamma_plus(make(), horizon, 128, seed)
        if jacobian is entropy_bounds.ROTATION:
            assert closed.value == 0.0
        else:
            assert closed.value == pytest.approx(sampled.value, rel=1e-12, abs=0.0)
        assert abs(closed.fit_residual - sampled.fit_residual) <= 1e-12


def test_gamma_linear_keeps_the_gamma_budget():
    horizon = GAMMA_BUDGET // 128 + 1
    with pytest.raises(BudgetExceeded,
                       match=f"gamma over {horizon} steps of 128 states"):
        entropy_bounds.gamma_linear(entropy_bounds.CAT, horizon)
    entropy_bounds.gamma_linear(entropy_bounds.CAT, horizon - 1)
    with pytest.raises(EstimatorError, match="at least 8"):
        entropy_bounds.gamma_linear(entropy_bounds.CAT, 7)


# ---------------------------------------------------------------- suite

def test_gamma_properties_suite_all_pass():
    rows = gamma_properties_suite(horizon=48, n_states=64, seed=0, tol=2e-2)
    names = {row["name"] for row in rows}
    assert {"conjugacy", "monotonicity", "decomposition", "power",
            "product"} <= names
    for row in rows:
        assert row["ok"], row


def test_conjugated_cat_value():
    est = gamma(conjugated_cat_system(1), horizon=64, n_states=32)
    assert abs(est.value - CAT_ENTROPY) < 2e-2


def test_power_rule_value():
    est = gamma(power_system(cat_system(), 2), horizon=32, n_states=32)
    assert abs(est.value - 2 * CAT_ENTROPY) < 2e-2


def test_product_rule_value():
    est = gamma(product_system(cat_system(), rotation_system(0.29)),
                horizon=64, n_states=32)
    assert abs(est.value - CAT_ENTROPY) < 2e-2


# ---------------------------------------------------------------- time change

def test_time_change_constant_speed_equality():
    base = suspension_cat_system(0.0)
    # constant f = c is a pure time rescaling: Gamma scales by c
    fast = suspension_cat_system(0.0, t_sample=1.5)
    rep = time_change_bound(base, fast, f_sup=1.5, horizon=40, n_states=64)
    assert rep["bound_ok"]
    assert abs(rep["lhs"] - 1.5 * rep["rhs"]) <= 3e-2


def test_time_change_variable_speed():
    base = suspension_cat_system(0.0)
    changed = suspension_cat_system(0.3)
    rep = time_change_bound(base, changed, f_sup=1.3, horizon=40, n_states=64)
    assert rep["bound_ok"]


def test_time_change_identity():
    base = suspension_cat_system(0.0)
    rep = time_change_bound(base, base, f_sup=1.0, horizon=32, n_states=48)
    assert rep["bound_ok"]
    assert abs(rep["lhs"] - rep["rhs"]) < 1e-12


def test_time_change_ohno_entropy_companion():
    base = suspension_cat_system(0.0)
    changed = suspension_cat_system(0.3)
    rep = time_change_bound(
        base, changed, f_sup=1.3, horizon=32, n_states=48,
        htop_params={"delta_list": [0.4, 0.3], "horizon": 4,
                     "n_candidates": 8000})
    assert rep["bound_ok"]
    assert rep["htop_bound_ok"]
    assert rep["htop_lhs"] > 0.3  # the suspension genuinely carries entropy


# ---------------------------------------------------------------- h_top

def test_htop_rotation_zero():
    est = htop_separated(rotation_system(0.37), [0.1, 0.05], horizon=10,
                         n_candidates=4000, seed=0)
    assert abs(est.value) <= 1e-3


def test_htop_doubling_log2():
    est = htop_separated(doubling_system(), [0.05, 0.03], horizon=8,
                         n_candidates=40000, seed=0)
    assert abs(est.value - math.log(2)) <= 0.1 * math.log(2)


def test_htop_cat_map():
    est = htop_separated(cat_system(), [0.3, 0.2], horizon=5,
                         n_candidates=20000, seed=0)
    assert abs(est.value - CAT_ENTROPY) <= 0.15 * CAT_ENTROPY


def test_htop_counts_monotone():
    est, counts = htop_separated(cat_system(), [0.35, 0.22], horizon=4,
                                 n_candidates=6000, seed=1, return_counts=True)
    for delta, cs in counts.items():
        assert all(a <= b for a, b in zip(cs, cs[1:]))  # nondecreasing in T


def test_htop_product_counts_dominate_factor():
    # a (T, delta)-separated set of a factor stays separated in the product
    cat = cat_system()
    prod = product_system(cat, rotation_system(0.29))
    _, c_fac = htop_separated(cat, [0.3], horizon=4, n_candidates=6000,
                              seed=3, return_counts=True)
    _, c_prod = htop_separated(prod, [0.3], horizon=4, n_candidates=6000,
                               seed=3, return_counts=True)
    assert all(p >= f for p, f in zip(c_prod[0.3], c_fac[0.3]))


def test_htop_rejects_delta_below_the_cell_grid():
    # two cell indices of 2**31 or more do not pack into one int64 cell id;
    # an input bound like the work budget, so the CLI exits 1
    with pytest.raises(BudgetExceeded, match="too small for the cell grid"):
        htop_separated(cat_system(), [1e-10], 1, n_candidates=10)


def test_htop_searches_each_distinct_delta_once(monkeypatch):
    # a repeated delta is one search, counted once against HTOP_BUDGET
    monkeypatch.setattr("entropia.entropy_estimators.HTOP_BUDGET", 300 * 4)
    sys = cat_system()
    metric, rows = sys.metric, []
    sys.metric = lambda a, b: rows.append(len(b)) or metric(a, b)
    once = htop_separated(sys, [0.3], 3, n_candidates=300, return_counts=True)
    n_rows = sum(rows)
    twice = htop_separated(sys, [0.3, 0.3], 3, n_candidates=300,
                           return_counts=True)
    assert twice == once
    assert sum(rows) == 2 * n_rows


def test_htop_budget_guard():
    # 40 distinct deltas: a repeated one would count once
    with pytest.raises(BudgetExceeded):
        htop_separated(cat_system(), [0.1 + 0.001 * k for k in range(40)],
                       horizon=200, n_candidates=200000)


# ---------------------------------------------------------------- h_vol

def test_hvol_hyperbolic_unit():
    est = hvol_ball_growth(("hyperbolic",), r_max=30.0)
    assert abs(est.value - 1.0) <= 1e-3


def test_hvol_hyperbolic_past_cosh_overflow():
    # cosh overflows past R = 710; the log-volume is taken in closed form
    est = hvol_ball_growth(("hyperbolic",), r_max=800.0)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert math.isfinite(est.fit_residual)


def test_hvol_euclidean_zero():
    # polynomial growth: the log-volume slope is 2/R, so it reaches the
    # 1e-3 band once the horizon is long enough
    est = hvol_ball_growth(("euclidean",), r_max=4000.0)
    assert abs(est.value) <= 1e-3


def test_hvol_scaling_halves():
    est = hvol_ball_growth(("scaled", 2.0, ("hyperbolic",)), r_max=60.0)
    assert abs(est.value - 0.5) <= 1e-3


def test_hvol_monotone_under_scaling():
    # F1 <= F2 pointwise (scaled c <= 1 shrinks the metric): h_vol larger
    a = hvol_ball_growth(("hyperbolic",), r_max=40.0)
    b = hvol_ball_growth(("scaled", 2.0, ("hyperbolic",)), r_max=40.0)
    assert a.value >= b.value - 1e-6


def test_ball_volume_subadditive_log():
    # f(R) = log V(R + 2b) - log v is subadditive for the hyperbolic plane
    b, v = 2.0, 2 * math.pi * (math.cosh(1.0) - 1.0)

    def f(r):
        return math.log(2 * math.pi * (math.cosh(r + 2 * b) - 1.0)) - math.log(v)

    grid = np.linspace(0.1, 20.0, 60)
    for r in grid[::6]:
        for s in grid[::6]:
            assert f(r + s) <= f(r) + f(s) + 1e-12


def test_exponential_gap_scan():
    # for f(R) = 2 pi (cosh R - 1), h = 1, eps = 0.1, delta = 1 there is an
    # R with (f(R+delta) - f(R)) / e^{(h-eps)R} > 1e3
    def f(r):
        return 2 * math.pi * (math.cosh(r) - 1.0)

    found = any(
        (f(r + 1.0) - f(r)) / math.exp(0.9 * r) > 1e3
        for r in np.linspace(1.0, 80.0, 400)
    )
    assert found


# ---------------------------------------------------------------- manning

def test_manning_hyperbolic_surface_closed_forms():
    h_vol = hvol_ball_growth(("hyperbolic",), r_max=30.0)
    h_top = hvol_ball_growth(("hyperbolic",), r_max=30.0)  # equality case
    rep = manning_check(h_top, h_vol)
    assert rep["manning_ok"]
    assert abs(rep["h_top"] - rep["h_vol"]) < 1e-9


def test_manning_flat_torus():
    z = hvol_ball_growth(("euclidean",), r_max=40.0)
    rep = manning_check(z, z)
    assert rep["manning_ok"]


def test_manning_cat_chain():
    h_top = htop_separated(cat_system(), [0.3], horizon=5,
                           n_candidates=10000, seed=0)
    g = gamma_plus(cat_system(), horizon=64, n_states=32)
    rep = manning_check(h_top, h_top, gamma_est=g, dim=2)
    assert rep["gamma_chain_ok"]
    assert rep["gamma_bound"] >= CAT_ENTROPY  # 2 * 0.9624 >= 0.9624


# ---------------------------------------------------------------- metric

def test_torus_metric_wraps():
    a = np.array([[0.95, 0.1]])
    b = np.array([[0.05, 0.9]])
    assert abs(torus_metric(a, b)[0] - math.sqrt(0.1 ** 2 + 0.2 ** 2)) < 1e-12
