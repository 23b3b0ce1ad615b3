"""Entropy-collapse contact forms: radial profiles, mapping-torus and
solid-torus Reeb dynamics, volume and return-time estimates, and the
normalized norm-growth sweep."""

from .forms import (
    FitPoor,
    FormsError,
    GridTooCoarse,
    MappingTorusSpec,
    NoContactThreshold,
    NoReturn,
    collapse_volumes,
    contact_threshold,
    mapping_torus_volume,
    normalize_form,
    return_map_and_time,
    solid_torus_flow,
    solid_torus_flow_rk4,
    solid_torus_reeb,
    solid_torus_volume,
)
from .profiles import (
    ProfileFunctions,
    ProfileValidationError,
    build_profiles,
)
from .sweep import collapse_sweep, mapping_torus_system, solid_torus_system

__all__ = [
    "FitPoor", "FormsError", "GridTooCoarse",
    "MappingTorusSpec", "NoContactThreshold", "NoReturn",
    "collapse_volumes", "contact_threshold", "mapping_torus_volume",
    "normalize_form", "return_map_and_time", "solid_torus_flow",
    "solid_torus_flow_rk4", "solid_torus_reeb", "solid_torus_volume",
    "ProfileFunctions", "ProfileValidationError",
    "build_profiles", "collapse_sweep", "mapping_torus_system",
    "solid_torus_system",
]
