import numpy as np
import pytest

from entropia.entropy_estimators import BudgetExceeded, GAMMA_BUDGET, gamma_plus
from entropia.reeb_collapse import FormsError, MappingTorusSpec, NoContactThreshold
from entropia.reeb_collapse import contact_threshold, sweep
from entropia.reeb_collapse.forms import AboveContactThreshold
from entropia.reeb_collapse.sweep import (
    collapse_sweep,
    mapping_torus_system,
    solid_torus_system,
)
from entropia.reeb_collapse import build_profiles


def test_mapping_torus_system_jacobian_validates():
    sys = mapping_torus_system(MappingTorusSpec(), 0.05)
    assert sys.validate_jacobian(16, seed=0, tol=1e-4) < 1e-4


def test_solid_torus_system_jacobian_validates():
    profiles = build_profiles()
    sys = solid_torus_system(profiles, 0.05)
    assert sys.validate_jacobian(60, seed=0, tol=1e-4) < 1e-4


def test_collapse_sweep_small():
    spec = MappingTorusSpec(k_twists=1)
    rows, fit, meta = collapse_sweep(spec, n_steps=3, n_returns=6,
                                     gamma_horizon=10, gamma_states=12,
                                     seed=1)
    assert len(rows) == 3
    assert meta["s1"] <= meta["s0"]
    assert meta["return_map_spread"] <= 1e-8
    assert fit["residual"] < 0.01
    svals = [row["s"] for row in rows]
    assert svals == sorted(svals)
    # the normalized product shrinks with s
    prods = [row["gamma_times_vol_pow"] for row in rows]
    assert prods[0] < prods[-1]


def test_collapse_sweep_deterministic():
    spec = MappingTorusSpec(k_twists=1)
    a = collapse_sweep(spec, n_steps=2, n_returns=4, gamma_horizon=8,
                       gamma_states=8, seed=5)
    b = collapse_sweep(spec, n_steps=2, n_returns=4, gamma_horizon=8,
                       gamma_states=8, seed=5)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_collapse_sweep_without_twist_needs_s_list():
    # k_twists 0 has no contact threshold: contact_threshold reports the
    # 1e6 scan cap, which must not become the end of a default sweep
    with pytest.raises(NoContactThreshold) as info:
        collapse_sweep(MappingTorusSpec(k_twists=0), n_steps=2, n_returns=2,
                       gamma_horizon=8, gamma_states=4, grid=32)
    assert isinstance(info.value, FormsError)


def test_collapse_sweep_above_the_contact_threshold_fails_after_the_volumes(monkeypatch):
    # an s past s0 fails after the volumes, before any return map runs
    spec = MappingTorusSpec(k_twists=2)
    s0, _ = contact_threshold(spec)
    monkeypatch.setattr(sweep, "return_map_and_time", None)
    with pytest.raises(AboveContactThreshold) as info:
        collapse_sweep(spec, [0.5 * s0, s0 * (1.0 + 1e-12)], n_steps=2,
                       n_returns=2, gamma_horizon=8, gamma_states=4, grid=32)
    assert isinstance(info.value, FormsError)
    assert str(info.value) == (f"s = {s0 * (1.0 + 1e-12)} is above the contact "
                               f"threshold s0 = {s0} of k_twists 2")
    # s0 itself is still contact
    monkeypatch.undo()
    rows, _, meta = collapse_sweep(spec, [0.5 * s0, s0], n_steps=2, n_returns=2,
                                   gamma_horizon=8, gamma_states=4, grid=32)
    assert meta["s0"] == s0 and rows[-1]["s"] == s0


# Exact pins of collapse_sweep(spec, S_LISTS[k], n_returns=3,
# gamma_horizon=8, gamma_states=6, seed=4, grid=32), recorded before the
# mapping-torus Gamma of a sweep was stacked over every s: one list per
# row, in ROW_KEYS order.  T_s_min and T_s_max were re-recorded when the
# return time became the closed form 2 pi - s lambda^2 tau' (1-2 ulp from
# the Simpson rule's; test_reeb_collapse checks it against quadrature).
S_LISTS = {1: [0.3, 0.9, 2.0], 3: [0.1, 0.4, 0.8]}
ROW_KEYS = ["s", "vol_mt", "vol_st", "vol_total", "T_s_min", "T_s_max",
            "gamma_est", "gamma_times_vol_pow"]
ROW_PINS = {
    1: [
        [0.3, 23.49958556319355, 24.809217137271986, 48.308802700465534,
         6.281804674793684, 6.283185307179586, 0.1722442120152794,
         1.1971753719424583],
        [0.9, 69.3739666930552, 74.42765141181596, 143.80161810487115,
         6.279043410021881, 6.283185307179586, 0.17211892022370945,
         2.06400383244422],
        [2.0, 149.58189266538926, 165.39478091514658, 314.9766735805358,
         6.273981091273575, 6.283185307179586, 0.17202020291508513,
         3.0529426895261826],
    ],
    3: [
        [0.1, 7.833195187731184, 8.26973904575733, 16.102934233488515,
         6.281804674793684, 6.283185307179586, 0.17227267779798505,
         0.691303752064741],
        [0.4, 30.582920753241087, 33.07895618302932, 63.6618769362704,
         6.27766277763598, 6.283185307179586, 0.17222338443730234,
         1.3741427120239473],
        [0.8, 59.166214845992464, 66.15791236605864, 125.32412721205111,
         6.272140248092374, 6.283185307179586, 0.17213684559896278,
         1.9270420196139664],
    ],
}
FIT_PINS = {
    1: {"a": 161.65422566628826, "b": -2.0829444380101174,
        "residual": 8.351108470470867e-16, "a_predicted": 161.65422566628814,
        "curvature_ratio": 0.025770367949552456},
    3: {"a": 161.65422566628817, "b": -6.2488333140303425,
        "residual": 1.697280367031078e-16, "a_predicted": 161.65422566628814,
        "curvature_ratio": 0.03092444153946292},
}
META_PINS = {
    1: {"s0": 4.832107648821965, "s1": 2.4160538244109824,
        "return_map_spread": 0.0},
    3: {"s0": 1.610702549607322, "s1": 0.805351274803661,
        "return_map_spread": 0.0},
}
# (value, fit_residual) of gamma_plus(mapping_torus_system(spec, s), 8, 6, 4)
# for each s of S_LISTS[k]
GAMMA_PINS = {
    1: [(0.0979769862044072, 0.03675150927841162),
        (0.09972973999282768, 0.03697277554383038),
        (0.10328503287204388, 0.03626018677076247)],
    3: [(0.09847184305155864, 0.036945738773573676),
        (0.10091018124515783, 0.03785482011592933),
        (0.10416598841887813, 0.03827687420769601)],
}


@pytest.mark.parametrize("k", sorted(S_LISTS))
def test_collapse_sweep_rows_match_pins(k):
    rows, fit, meta = collapse_sweep(MappingTorusSpec(k_twists=k), S_LISTS[k],
                                     n_steps=3, n_returns=3, gamma_horizon=8,
                                     gamma_states=6, seed=4, grid=32)
    assert [list(row) for row in rows] == [ROW_KEYS] * 3
    assert [list(row.values()) for row in rows] == ROW_PINS[k]
    assert fit == FIT_PINS[k]
    assert meta == META_PINS[k]


@pytest.mark.parametrize("k", sorted(S_LISTS))
def test_mapping_torus_gamma_matches_pins_alone_and_stacked(k):
    spec = MappingTorusSpec(k_twists=k)
    alone = [gamma_plus(mapping_torus_system(spec, s), 8, 6, 4)
             for s in S_LISTS[k]]
    stacked = gamma_plus(mapping_torus_system(spec, S_LISTS[k]), 8, 6, 4)
    assert [(e.value, e.fit_residual) for e in alone] == GAMMA_PINS[k]
    assert stacked == alone
    # a one-value array is a stack of one: a list, not a bare estimate
    assert gamma_plus(mapping_torus_system(spec, S_LISTS[k][:1]), 8, 6, 4) == alone[:1]


def test_collapse_sweep_budget_counts_every_s(monkeypatch):
    from entropia.reeb_collapse import sweep

    def threshold(*args, **kwargs):
        raise AssertionError("contact_threshold ran before the budget check")

    monkeypatch.setattr(sweep, "contact_threshold", threshold)
    # each s alone is within the budget, the stacked states are not
    states, horizon = 24, 500
    assert horizon * states <= GAMMA_BUDGET < 100 * horizon * states
    with pytest.raises(BudgetExceeded, match="of 2400 states"):
        collapse_sweep(MappingTorusSpec(), n_steps=100, n_returns=2,
                       gamma_horizon=horizon, gamma_states=states)
    with pytest.raises(BudgetExceeded, match="of 2400 states"):
        collapse_sweep(MappingTorusSpec(), list(np.linspace(0.01, 1.0, 100)),
                       n_steps=2, n_returns=2, gamma_horizon=horizon,
                       gamma_states=states)
