import os
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """Environment for a child interpreter: this checkout's src/ first on
    PYTHONPATH, ahead of any inherited value, so subprocesses import the
    package under test without an install or an exported PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_convex_polygon(rng, n_pts=8, scale=1.0, symmetric=False, n_grid=720):
    """Random convex polygon as a StarBody (origin interior by construction)."""
    from entropia.convex_body import StarBody

    pts = rng.normal(size=(n_pts, 2)) * scale
    pts += 0.1 * np.sign(pts)  # push away from origin a little
    if symmetric:
        pts = np.vstack([pts, -pts])
    else:
        # recentre on the centroid so the origin is interior
        pts = pts - pts.mean(axis=0)
    return StarBody.from_points(pts, n=n_grid)
