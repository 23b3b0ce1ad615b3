"""The separated-set search against a plain greedy oracle.

The oracle takes the candidates one at a time in index order, at every step
T, and tests each against every accepted point on every slice 0..T: no
cells, no blocks, no blockers.  `htop_separated` must return its counts on
small seeded clouds, also with `HTOP_PAIRS` so small that blocks are cut
short and resolved inside while candidates wait on their blockers."""

import numpy as np
import pytest

from entropia import entropy_estimators as ee
from entropia.reeb_collapse import build_profiles
from entropia.reeb_collapse.sweep import solid_torus_system


def greedy_counts(sys, delta, horizon, n, seed):
    traj = [sys.sampler(n, np.random.default_rng(seed))]
    for _ in range(horizon):
        traj.append(sys.step(traj[-1]))
    traj = np.stack(traj)
    accepted = []
    counts = []
    for t in range(1, horizon + 1):
        for c in range(n):
            if c in accepted:
                continue
            near = sys.metric(traj[:t + 1, accepted], traj[:t + 1, c, None]) < delta
            if not near.all(axis=0).any():
                accepted.append(c)
        counts.append(len(accepted))
    return counts


CASES = [
    pytest.param(ee.cat_system, [0.3, 0.2], 5, 300, 1, id="cat"),
    pytest.param(ee.doubling_system, [0.05, 0.03], 6, 400, 2, id="doubling"),
    pytest.param(lambda: ee.rotation_system(0.37), [0.1, 0.05], 6, 200, 3,
                 id="rotation"),
    pytest.param(lambda: ee.product_system(ee.cat_system(),
                                           ee.rotation_system(0.29)),
                 [0.35], 4, 300, 4, id="cat-x-rotation-4d"),
    pytest.param(lambda: ee.suspension_cat_system(0.3), [0.4, 0.3], 4, 300, 5,
                 id="suspension-3d"),
    pytest.param(lambda: solid_torus_system(build_profiles(),
                                            s=0.05),
                 [0.3, 0.2], 5, 250, 6, id="solid-torus"),
    pytest.param(ee.cat_system, [0.6], 5, 150, 7, id="wrap-1-cell"),
    pytest.param(ee.doubling_system, [0.4], 6, 150, 8, id="wrap-2-cells"),
]


@pytest.mark.parametrize("make, deltas, horizon, n, seed", CASES)
def test_htop_matches_the_plain_greedy(monkeypatch, make, deltas, horizon,
                                       n, seed):
    sys = make()
    want = {delta: greedy_counts(sys, delta, horizon, n, seed) for delta in deltas}
    for pairs in (ee.HTOP_PAIRS, 64, 4):
        monkeypatch.setattr(ee, "HTOP_PAIRS", pairs)
        _, got = ee.htop_separated(sys, deltas, horizon, n_candidates=n,
                                   seed=seed, return_counts=True)
        assert got == want, pairs
