"""Separated-set counts recorded before the search was rewritten as a
chunked array greedy, with the one-candidate-at-a-time loop (commit
1293c7a).  That rewrite and the incremental blocker search after it keep
the greedy order and find the same conflicts, so every count list must
match exactly."""

import tracemalloc

import pytest

from entropia.entropy_estimators import (
    cat_system,
    doubling_system,
    htop_separated,
    product_system,
    rotation_system,
    suspension_cat_system,
)
from entropia.reeb_collapse import build_profiles
from entropia.reeb_collapse.sweep import solid_torus_system


def _solid_torus():
    # the system of `entropia estimate --system reeb-solid-torus`
    return solid_torus_system(build_profiles(), s=0.05)


def _rotation():
    return rotation_system(0.37)


PINS = [
    # the htop_separated calls of the other test files
    pytest.param(cat_system, [0.3, 0.2], 5, 20000, 0,
                 {0.3: [17, 41, 109, 281, 703],
                  0.2: [37, 93, 241, 603, 1458]}, id="cat-20000"),
    pytest.param(_rotation, [0.1, 0.05], 10, 4000, 0,
                 {0.1: [8] * 10, 0.05: [13] * 10}, id="rotation-4000"),
    pytest.param(cat_system, [0.35, 0.22], 4, 6000, 1,
                 {0.35: [13, 33, 78, 197], 0.22: [30, 77, 189, 463]},
                 id="cat-6000-seed1"),
    pytest.param(cat_system, [0.3], 4, 6000, 3,
                 {0.3: [17, 43, 107, 264]}, id="cat-6000-seed3"),
    pytest.param(lambda: product_system(cat_system(), rotation_system(0.29)),
                 [0.3], 4, 6000, 3,
                 {0.3: [51, 124, 300, 676]}, id="cat-x-rotation"),
    pytest.param(cat_system, [0.3], 5, 10000, 0,
                 {0.3: [17, 40, 107, 277, 667]}, id="cat-10000"),
    pytest.param(lambda: suspension_cat_system(0.3), [0.4, 0.3], 4, 8000, 0,
                 {0.4: [26, 68, 173, 418], 0.3: [54, 151, 383, 925]},
                 id="suspension-0.3"),
    pytest.param(lambda: suspension_cat_system(0.0), [0.4, 0.3], 4, 8000, 0,
                 {0.4: [20, 49, 120, 301], 0.3: [41, 99, 242, 566]},
                 id="suspension-0"),
    pytest.param(_rotation, [0.1, 0.05], 8, 200, 0,
                 {0.1: [8] * 8, 0.05: [13] * 8}, id="rotation-200-cli"),
    # one per htop class of perfbench (seed 0)
    pytest.param(cat_system, [0.3, 0.2], 5, 2000, 0,
                 {0.3: [17, 39, 98, 231, 492],
                  0.2: [35, 86, 201, 456, 858]}, id="bench-cat"),
    pytest.param(doubling_system, [0.05, 0.03], 6, 4000, 0,
                 {0.05: [32, 66, 128, 242, 457, 843],
                  0.03: [46, 103, 209, 372, 711, 1246]}, id="bench-doubling"),
    pytest.param(_rotation, [0.1, 0.05], 8, 2000, 0,
                 {0.1: [8] * 8, 0.05: [13] * 8}, id="bench-rotation"),
    pytest.param(_solid_torus, [0.3, 0.2], 6, 1000, 0,
                 {0.3: [700, 767, 810, 829, 850, 860],
                  0.2: [871, 905, 924, 935, 940, 945]}, id="bench-solid-torus"),
    # floor(period / delta) = 1 or 2: the offsets -1 and +1 land on one cell
    pytest.param(cat_system, [0.6], 5, 2000, 0,
                 {0.6: [2, 4, 4, 4, 7]}, id="wrap-cat-1-cell"),
    pytest.param(cat_system, [0.4], 5, 2000, 0,
                 {0.4: [10, 23, 58, 137, 325]}, id="wrap-cat-2-cells"),
    pytest.param(doubling_system, [0.6], 6, 2000, 0,
                 {0.6: [1] * 6}, id="wrap-doubling-1-cell"),
    pytest.param(doubling_system, [0.4], 6, 2000, 0,
                 {0.4: [4, 5, 12, 19, 37, 58]}, id="wrap-doubling-2-cells"),
    pytest.param(_solid_torus, [2.5], 6, 1000, 0,
                 {2.5: [8, 14, 19, 26, 34, 45]}, id="wrap-solid-torus-2-cells"),
    # counts need not be monotone in delta: 82 > 81 at T = 3 (searched
    # together by tests/test_cli.py, which the old delta check rejected)
    pytest.param(cat_system, [0.3], 4, 400, 3,
                 {0.3: [15, 37, 82, 157]}, id="cat-400-delta-0.3"),
    pytest.param(cat_system, [0.29], 4, 400, 3,
                 {0.29: [16, 38, 81, 160]}, id="cat-400-delta-0.29"),
]


@pytest.mark.parametrize("make, deltas, horizon, n, seed, counts", PINS)
def test_htop_counts_pinned(make, deltas, horizon, n, seed, counts):
    _, got = htop_separated(make(), deltas, horizon, n_candidates=n,
                            seed=seed, return_counts=True)
    assert got == counts


# tracemalloc peak of this call (MB of 2**20 bytes), in a fresh process and
# after the pins above: 6.23 and 5.56 with the block search that re-tested
# every slice, 7.62 and 6.95 with the incremental search, which also holds
# its blockers (up to 64 k pairs of int32 here) and tests them in one metric
# call.  The trajectories take 2.9 MB.  The bound is a quarter above the
# 6.96 MB of the one-candidate loop that preceded both.  An unchunked pair
# search holds about 80 M near pairs here, over 1 GB.
DOUBLING_PEAK_BOUND = 1.25 * 6.96 * 2 ** 20


def test_htop_doubling_40000_counts_and_memory():
    tracemalloc.start()
    try:
        _, got = htop_separated(doubling_system(), [0.05, 0.03], 8, 40000,
                                return_counts=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == {0.05: [32, 66, 138, 280, 541, 1024, 1960, 3705],
                   0.03: [47, 104, 216, 438, 854, 1644, 3138, 5846]}
    assert peak <= DOUBLING_PEAK_BOUND
