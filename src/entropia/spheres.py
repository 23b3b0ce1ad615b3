"""Direction grids on spheres and Euclidean ball constants.

All radial-function bodies in this package sample the unit sphere S^{d-1}
on a fixed quasi-uniform grid.  The canonical grids built here are exactly
centrally symmetric (the second half of the grid is the antipode of the
first half), so that radial(-u) is a plain index lookup.
"""

import math

import numpy as np

# canonical grid sizes
CIRCLE_GRID = 720
SPHERE_GRID = 4096  # 2**12, built as 2**11 points plus antipodes
_ANTIPODE_TOL = 1e-9  # largest coordinate error of a matched antipode


def unit_ball_volume(n: int) -> float:
    """omega_n = pi^(n/2) / Gamma(n/2 + 1), volume of the unit ball in R^n."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def sphere_area(n: int) -> float:
    """Surface area of S^(n-1) in R^n, equal to n * omega_n."""
    return n * unit_ball_volume(n)


def circle_grid(n: int = CIRCLE_GRID) -> np.ndarray:
    """n evenly spaced unit vectors in R^2; n must be even for symmetry."""
    if n % 2:
        raise ValueError("use an even number of angles")
    a = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(a), np.sin(a)], axis=1)


def _fibonacci_hemi(m: int) -> np.ndarray:
    """m Fibonacci-spiral points on S^2 (full sphere, unsymmetrized)."""
    i = np.arange(m) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / m)
    golden = np.pi * (1.0 + np.sqrt(5.0))
    theta = golden * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
        axis=1,
    )


def _halton_directions(dim: int, m: int) -> np.ndarray:
    """Deterministic low-discrepancy directions for d >= 4 via Halton + Gauss."""
    from scipy.stats import qmc
    from scipy.special import ndtri

    sampler = qmc.Halton(d=dim, scramble=False, seed=0)
    u = sampler.random(m + 1)[1:]  # drop the all-zero first point
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def sphere_grid(dim: int, n: int | None = None) -> np.ndarray:
    """Centrally symmetric quasi-uniform grid of n unit vectors in R^dim."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        return circle_grid(n or CIRCLE_GRID)
    n = n or SPHERE_GRID
    if n % 2:
        raise ValueError("use an even grid size")
    half = n // 2
    if dim == 3:
        pts = _fibonacci_hemi(half)
    else:
        pts = _halton_directions(dim, half)
    return np.vstack([pts, -pts])


def antipodal_indices(directions: np.ndarray) -> np.ndarray:
    """Index map i -> j with directions[j] == -directions[i].

    Canonical grids place antipodes half a grid apart, which is tried first;
    otherwise falls back to a nearest-neighbour search and insists on an
    exact (within _ANTIPODE_TOL) match.
    """
    n = len(directions)
    if n % 2 == 0:
        shifted = np.roll(directions, n // 2, axis=0)
        if np.max(np.abs(shifted + directions)) < _ANTIPODE_TOL:
            return (np.arange(n) + n // 2) % n
    prod = directions @ directions.T
    idx = np.argmin(prod, axis=1)
    if np.max(np.abs(directions[idx] + directions)) > _ANTIPODE_TOL:
        raise ValueError("direction grid is not centrally symmetric")
    return idx


def grid_mesh(directions: np.ndarray) -> float:
    """Upper estimate of the grid mesh (max angular gap to nearest neighbour)."""
    n, d = directions.shape
    if d == 2:
        ang = np.sort(np.mod(np.arctan2(directions[:, 1], directions[:, 0]), 2 * np.pi))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
        return float(gaps.max())
    # spherical cap estimate: mesh ~ 2 * (area per point)^(1/(d-1))
    return float(2.0 * (sphere_area(d) / n) ** (1.0 / (d - 1)))
