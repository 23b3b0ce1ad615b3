"""Holmes-Thompson and Busemann-Hausdorff volumes of discretized Finsler
fields and the dimension constants c_n.

A Finsler field assigns to every cell of a flat-torus base a fiber body,
by convention the unit co-disk in the cotangent fiber.  The two volume
densities are evaluated directly as |fiber| / omega_n (Holmes-Thompson,
cotangent fibers) and omega_n / |fiber| (Busemann-Hausdorff, tangent
fibers); base curvature never enters.
"""

import math
from dataclasses import dataclass

import numpy as np

from .convex_body import StarBody, polar_dual, volume
from .spheres import unit_ball_volume


class FinslerError(Exception):
    pass


class DimensionMismatch(FinslerError):
    pass


def c_n(n: int) -> float:
    """c_n = 1 / (n! omega_n)^(1/n); for instance c_2 = 1/sqrt(2 pi).

    Evaluated in the log domain: n! omega_n overflows long before the
    constant itself becomes small.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    log_omega = 0.5 * n * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0)
    return math.exp(-(math.lgamma(n + 1) + log_omega) / n)


@dataclass
class BaseChart:
    """Flat torus [0, L_1] x ... x [0, L_d] with a uniform cell grid.

    A point base (single cell of volume one) is lengths=(), grid=().
    """

    lengths: tuple = ()
    grid: tuple = ()

    def __post_init__(self):
        self.lengths = tuple(float(x) for x in self.lengths)
        self.grid = tuple(int(g) for g in self.grid)
        if len(self.lengths) != len(self.grid):
            raise DimensionMismatch("lengths and grid must align")

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.grid)) if self.grid else 1

    @property
    def cell_volume(self) -> float:
        if not self.lengths:
            return 1.0
        return float(np.prod(self.lengths)) / self.n_cells


@dataclass
class FinslerField:
    """Fiberwise body data over a BaseChart.

    fibers holds one StarBody per cell, or a single shared body.
    co_or_tangent marks whether fibers live in T*Q ("cotangent", the
    co-disk D_q*) or TQ ("tangent", the disk D_q).
    """

    dim: int
    base: BaseChart
    fibers: list
    reversible_flag: bool = False
    co_or_tangent: str = "cotangent"

    def __post_init__(self):
        if self.co_or_tangent not in ("cotangent", "tangent"):
            raise FinslerError("co_or_tangent must be 'cotangent' or 'tangent'")
        if len(self.fibers) not in (1, self.base.n_cells):
            raise DimensionMismatch("need one fiber per cell or a single shared fiber")
        for f in self.fibers:
            if f.dim != self.dim:
                raise DimensionMismatch("fiber dimension must equal the base dimension")
        if self.reversible_flag:
            for f in self.fibers:
                if not f.is_symmetric(tol=1e-7):
                    raise FinslerError("reversible field requires symmetric fibers")

    def cell_fibers(self):
        if len(self.fibers) == 1:
            return [self.fibers[0]] * self.base.n_cells
        return self.fibers

    def converted(self, convention: str) -> "FinslerField":
        """Switch fiber convention via fiberwise polar duality (Legendre at
        the body level)."""
        if convention == self.co_or_tangent:
            return self
        return FinslerField(
            self.dim,
            self.base,
            [polar_dual(f) for f in self.fibers],
            self.reversible_flag,
            convention,
        )


def _fiber_volume(body: StarBody) -> float:
    if body.dim == 2:
        return volume(body, "exact2d")
    return volume(body, "radial_quadrature")


def holmes_thompson_volume(field: FinslerField) -> float:
    """vol_HT = sum over cells of cell_volume * |D_q*| / omega_n."""
    work = field.converted("cotangent")
    w = unit_ball_volume(field.dim)
    cell = work.base.cell_volume
    return cell * float(sum(_fiber_volume(f) / w for f in work.cell_fibers()))


def busemann_hausdorff_volume(field: FinslerField) -> float:
    """vol_BH = sum over cells of cell_volume * omega_n / |D_q|."""
    work = field.converted("tangent")
    w = unit_ball_volume(field.dim)
    cell = work.base.cell_volume
    return cell * float(sum(w / _fiber_volume(f) for f in work.cell_fibers()))
