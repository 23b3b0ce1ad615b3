import math

import numpy as np
import pytest

from entropia.convex_body import StarBody
from entropia.finsler_volume import (
    BaseChart,
    DimensionMismatch,
    FinslerField,
    busemann_hausdorff_volume,
    c_n,
    holmes_thompson_volume,
)


def square_body(side=2.0, n=720):
    h = side / 2.0
    return StarBody.from_points([[h, h], [-h, h], [-h, -h], [h, -h]], n=n)


def torus_field(fiber, lengths=(2 * math.pi, 2 * math.pi), grid=(8, 8), **kw):
    return FinslerField(2, BaseChart(lengths, grid), [fiber], **kw)


# ------------------------------------------------------------------- c_n

def test_c2_closed_form():
    assert abs(c_n(2) - 1.0 / math.sqrt(2 * math.pi)) < 1e-15
    assert abs(c_n(2) - 0.398942) < 1e-6


def test_reported_doubles():
    assert abs(2 * c_n(4) - 0.606) < 5e-4
    assert abs(2 * c_n(5) - 0.551) < 5e-4
    assert abs(2 * c_n(6) - 0.508) < 5e-4


def test_cn_asymptotics():
    # c_n ~ sqrt(e / (2 pi)) / sqrt(n)
    n = 400
    assert abs(c_n(n) * math.sqrt(n) / math.sqrt(math.e / (2 * math.pi)) - 1) < 0.01


# ------------------------------------------------------------------- volumes

def test_riemannian_case_unit_disk_fibers():
    # polygonal fiber quadrature: agreement to quadrature accuracy
    field = torus_field(StarBody.ball(2), grid=(4, 4))
    assert abs(holmes_thompson_volume(field) / (2 * math.pi) ** 2 - 1.0) < 1e-4
    assert abs(busemann_hausdorff_volume(field) / (2 * math.pi) ** 2 - 1.0) < 1e-4


def test_square_fibers_unit_base():
    # tangent square [-1,1]^2: co-disk is the cross-polytope, HT = 2/pi
    field = FinslerField(
        2, BaseChart((1.0, 1.0), (1, 1)), [square_body()], co_or_tangent="tangent"
    )
    ht = holmes_thompson_volume(field)
    assert abs(ht - 2.0 / math.pi) < 1e-4


def test_square_tangent_fibers_unit_base():
    field = FinslerField(
        2, BaseChart((1.0, 1.0), (1, 1)), [square_body()], co_or_tangent="tangent"
    )
    bh = busemann_hausdorff_volume(field)
    assert abs(bh - math.pi / 4.0) < 1e-4


def test_bh_over_ht_square_field():
    # same square as tangent body: BH/HT = (pi/4) / (2/pi) = pi^2 / 8
    base = BaseChart((1.0, 1.0), (1, 1))
    tangent = FinslerField(2, base, [square_body()], co_or_tangent="tangent")
    ratio = busemann_hausdorff_volume(tangent) / holmes_thompson_volume(tangent)
    assert ratio > 1.0
    assert abs(ratio - math.pi ** 2 / 8.0) < 1e-3


def test_scaling_by_c():
    body = square_body()
    base = BaseChart((1.0, 1.0), (2, 2))
    f1 = FinslerField(2, base, [body])
    f2 = FinslerField(2, base, [body.scaled(3.0)])
    # cotangent fibers scaled by c: both volumes scale by c^n
    assert abs(holmes_thompson_volume(f2) / holmes_thompson_volume(f1) - 9.0) < 1e-9
    t1 = FinslerField(2, base, [body], co_or_tangent="tangent")
    t2 = FinslerField(2, base, [body.scaled(3.0)], co_or_tangent="tangent")
    assert abs(busemann_hausdorff_volume(t2) / busemann_hausdorff_volume(t1) - 1 / 9.0) < 1e-9


def test_monotonicity_under_fiber_inclusion(rng):
    # F1 <= F2 means co-disk inclusion D*(F1) <= D*(F2); then both volumes
    # of F1 are <= those of F2
    base = BaseChart((1.0,) * 2, (2, 2))
    for _ in range(10):
        r = 0.3 + rng.random(720) * 0.7
        inner = StarBody.from_points((r[:, None] * StarBody.ball(2).directions))
        outer = StarBody(2, inner.directions, inner.radial * (1.0 + rng.random()), True)
        fi = FinslerField(2, base, [inner])
        fo = FinslerField(2, base, [outer])
        assert holmes_thompson_volume(fi) <= holmes_thompson_volume(fo) * (1 + 1e-9)
        assert busemann_hausdorff_volume(fi) <= busemann_hausdorff_volume(fo) * (1 + 1e-9)


def test_ht_le_bh_reversible_equality_iff_ellipse():
    base = BaseChart((1.0, 1.0), (1, 1))
    ell = StarBody.from_radial_function(
        2,
        lambda d: 1.0 / np.sqrt((d[:, 0] / 1.4) ** 2 + (d[:, 1] / 0.8) ** 2),
        convex=True,
    )
    fe = FinslerField(2, base, [ell], reversible_flag=True, co_or_tangent="tangent")
    ht, bh = holmes_thompson_volume(fe), busemann_hausdorff_volume(fe)
    assert ht <= bh * (1 + 1e-6)
    assert abs(ht - bh) < 2e-3 * bh  # equality on ellipse fields
    fs = FinslerField(2, base, [square_body()], reversible_flag=True,
                      co_or_tangent="tangent")
    assert holmes_thompson_volume(fs) < busemann_hausdorff_volume(fs) * (1 - 1e-3)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        FinslerField(2, BaseChart((1.0, 1.0), (2, 2)), [square_body()] * 3)
