import numpy as np
import pytest

from entropia.reeb_collapse import FormsError, MappingTorusSpec, NoContactThreshold
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
    profiles = build_profiles(1.0, 0.1, "dim3")
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
