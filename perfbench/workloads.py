"""Seeded inputs for the four benchmark workloads.

Every workload is a list of `entropia` command lines.  The command lines
come from a fixed pool per invocation class: pool entry k of a class is a
pure function of (class, k), so its output could be recorded once as a
golden (goldens.json).  The workload seed only picks pool entries
and their order.  Outside quick, whose invocations are mostly the import
of the CLI, the entries of one class share every size option (cloud,
horizon, grid, returns, body class) and differ in their `--seed` and in
the shapes of generated bodies; with a fixed mix of classes, runs with
different seeds do about the same work.

Body files are written by this module from the pool entry's own seed; the
program only ever sees the generated files and argument lists.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

POOL_SIZE = 6
WORK_DIR = os.path.join("perfbench", "_work")


@dataclass(frozen=True)
class Invocation:
    """One CLI run: argv after `python -m entropia.cli`, and the body file
    (relative path, JSON text) it reads, if any."""

    key: str
    klass: str
    argv: tuple
    body: tuple | None = None


@dataclass(frozen=True)
class Klass:
    name: str
    make: callable         # rng -> (argv list, body dict or None)
    per_round: int = 1


# ------------------------------------------------------------------ bodies

def _circle_grid(n):
    a = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(a), np.sin(a)], axis=1)


def _fibonacci_grid(n):
    """The canonical centrally symmetric S^2 grid of n directions."""
    half = n // 2
    i = np.arange(half) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / half)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    pts = np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
                    np.cos(phi)], axis=1)
    return np.vstack([pts, -pts])


def _hull_radial(points, directions):
    """Distance from the origin to the boundary of conv(points) along each
    direction (the origin must be interior)."""
    eq = ConvexHull(points).equations
    a, b = eq[:, :-1], eq[:, -1]
    if np.any(b >= 0.0):
        raise ValueError("origin not interior")
    denom = directions @ a.T
    t = np.where(denom > 1e-300, -b[None, :] / np.where(denom > 0, denom, 1.0),
                 np.inf)
    return t.min(axis=1)


def _random_points(rng, k, dim, symmetric):
    u = rng.normal(size=(k, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = u * rng.uniform(0.6, 1.4, size=(k, 1))
    if symmetric:
        return np.vstack([pts, -pts])
    return pts - pts.mean(axis=0)


def _polytope(rng, dim, symmetric, grid):
    k = int(rng.integers(5, 9)) if dim == 2 else int(rng.integers(8, 15))
    dirs = _circle_grid(grid) if dim == 2 else _fibonacci_grid(grid)
    while True:
        pts = _random_points(rng, k, dim, symmetric)
        try:
            return {"dim": dim, "radial": _hull_radial(pts, dirs).tolist()}
        except ValueError:
            continue


def _star(rng):
    """A non-convex star: radial 1 + a cos(k t + p) + a2 cos(k2 t + p2)."""
    t = 2.0 * np.pi * np.arange(720) / 720
    k, k2 = int(rng.integers(3, 8)), int(rng.integers(2, 6))
    a, a2 = rng.uniform(0.25, 0.4), rng.uniform(0.0, 0.1)
    p, p2 = rng.uniform(0, 2 * np.pi, size=2)
    radial = 1.0 + a * np.cos(k * t + p) + a2 * np.cos(k2 * t + p2)
    return {"dim": 2, "radial": radial.tolist()}


def _bodies_argv(rng, body):
    return ["--seed", str(int(rng.integers(0, 1000))), "--format", "json",
            "bodies", "--body"], body


# --------------------------------------------------------------- commands

def _gflags(rng):
    return ["--seed", str(int(rng.integers(0, 1000))), "--format", "json"]


def _collapse(twists):
    def make(rng):
        return _gflags(rng) + [
            "--tol", "fit=0.01", "collapse", "--steps", "2",
            "--twists", str(twists), "--returns", "6",
            "--horizon", "8", "--grid", "96"], None
    return make


def _htop(system, cloud, horizon, deltas):
    def make(rng):
        return _gflags(rng) + [
            "estimate", "--system", system, "--what", "htop",
            "--horizon", str(horizon), "--delta", deltas,
            "--cloud", str(cloud)], None
    return make


def _constants(rng):
    lo = int(rng.integers(1, 4))
    return _gflags(rng) + ["constants", "--n", f"{lo}..{lo + int(rng.integers(2, 8))}"], None


def _bounds(rng):
    lo = int(rng.integers(2, 4))
    return _gflags(rng) + ["bounds", "--genus", f"{lo}..{lo + int(rng.integers(1, 6))}"], None


def _verovic(rng):
    return _gflags(rng) + ["verovic", "--k-max", str(int(rng.integers(2, 10)))], None


def _sl3(rng):
    return _gflags(rng) + ["sl3"], None


def _spectrum(rng):
    v_bar = round(float(rng.uniform(0.1, 0.9)), 3)
    h = round(float(rng.uniform(0.5, 2.0)), 3)
    c = round(h * float(rng.uniform(1.1, 3.0)), 3)  # above the range's left end
    return _gflags(rng) + ["spectrum", "--v-bar", str(v_bar), "--h", str(h),
                           "--n", str(int(rng.integers(1, 5))), "--c", str(c)], None


def _gamma(system, lo, hi):
    def make(rng):
        return _gflags(rng) + [
            "estimate", "--system", system, "--what", "gamma",
            "--horizon", str(int(rng.integers(lo, hi))),
            "--delta", "0.3,0.2", "--cloud", "20000"], None
    return make


def _hvol(rng):
    return _gflags(rng) + [
        "estimate", "--system", "hyperbolic", "--what", "hvol",
        "--horizon", str(int(rng.integers(4, 21))),
        "--delta", "0.3,0.2", "--cloud", "20000"], None


def _default_body(rng):
    return _gflags(rng) + ["bodies"], None


def _body(maker):
    def make(rng):
        return _bodies_argv(rng, maker(rng))
    return make


# per_round: invocations of the class in one round.  One round of each
# workload took 14-21 s at the recording commit on a 2-core machine.  The counts put the median invocation inside a cluster of
# similar ones (sym2d on bodies, rotation on htop, whose cost does not
# depend on the candidate cloud), so that cmd_p50_s does not rest on a
# single sample.  The reason for each class is in README.md.
WORKLOADS = {
    "collapse": [
        Klass("sweep-k1", _collapse(1)),
        Klass("sweep-k2", _collapse(2)),
        Klass("sweep-k3", _collapse(3)),
    ],
    "htop": [
        Klass("cat", _htop("cat", 2000, 5, "0.3,0.2")),
        Klass("doubling", _htop("doubling", 4000, 6, "0.05,0.03")),
        Klass("rotation", _htop("rotation", 2000, 8, "0.1,0.05"), 4),
        Klass("reeb-solid-torus", _htop("reeb-solid-torus", 1000, 6, "0.3,0.2"), 2),
    ],
    "bodies": [
        Klass("sym2d", _body(lambda rng: _polytope(rng, 2, True, 720)), 3),
        Klass("nonsym2d", _body(lambda rng: _polytope(rng, 2, False, 720))),
        Klass("star2d", _body(_star)),
        Klass("sym3d", _body(lambda rng: _polytope(rng, 3, True, 1024))),
    ],
    "quick": [
        Klass(name, make, 2) for name, make in [
            ("constants", _constants), ("bounds", _bounds), ("verovic", _verovic),
            ("sl3", _sl3), ("spectrum", _spectrum),
            ("gamma-cat", _gamma("cat", 16, 65)),
            ("gamma-reeb", _gamma("reeb-solid-torus", 8, 25)),
            ("hvol", _hvol), ("disk", _default_body)]
    ],
}

# Non-symmetric 3-D polytopes: at the recording commit some of their outer
# fits end with a form that is not positive definite and the CLI exits 1
# with a DegenerateBody traceback.  Only the "known-failures" workload runs
# them, because the timed workloads must contain no failing operation.
KNOWN_FAILURES = [
    Klass("nonsym3d", _body(lambda rng: _polytope(rng, 3, False, 256))),
]


def classes(workload):
    if workload == "known-failures":
        return KNOWN_FAILURES
    return WORKLOADS[workload]


def pool_entry(klass: Klass, k: int) -> Invocation:
    """Pool entry k of a class; depends on nothing but (class name, k)."""
    digest = hashlib.sha256(f"{klass.name}/{k}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    argv, body = klass.make(rng)
    key = f"{klass.name}-{k}"
    if body is None:
        return Invocation(key, klass.name, tuple(argv))
    path = os.path.join(WORK_DIR, f"{key}.json")
    return Invocation(key, klass.name, tuple(argv) + (path,),
                      (path, json.dumps(body)))


def _pool(klass):
    return [pool_entry(klass, k) for k in range(POOL_SIZE)]


def pool(workload):
    return [inv for c in classes(workload) for inv in _pool(c)]


def _usable(klass, goldens):
    """The class's pool entries that succeeded at the recording commit."""
    return [inv for inv in _pool(klass) if goldens["entries"][inv.key]["rc"] == 0]


def expected_s(inv, goldens):
    """Wall time the invocation took when its golden was recorded."""
    return goldens["entries"][inv.key]["wall_s"]


def rounds(workload, seed, goldens):
    """The seeded invocation sequence of a timed run, one round at a time.

    A round holds `per_round` invocations of every class of the workload,
    in seeded order; the seed picks each invocation's pool entry from the
    entries that succeeded at the recording commit.  Entries that failed
    there are left to the "known-failures" workload.
    """
    rng = np.random.default_rng(seed)
    while True:
        out = []
        for c in WORKLOADS[workload]:
            usable = _usable(c, goldens)
            out += [usable[i] for i in rng.integers(0, len(usable), c.per_round)]
        yield [out[i] for i in rng.permutation(len(out))]


def invocation_list(workload, seed, goldens):
    """The first round of a timed workload, or for "known-failures" the
    nonsym3d pool and the bodies entries that failed at the recording
    commit, in seeded order."""
    if workload != "known-failures":
        return next(rounds(workload, seed, goldens))
    out = pool(workload) + [inv for c in WORKLOADS["bodies"] for inv in _pool(c)
                            if goldens["entries"][inv.key]["rc"] != 0]
    return [out[i] for i in np.random.default_rng(seed).permutation(len(out))]


def write_bodies(root, invocations):
    for inv in invocations:
        if inv.body is None:
            continue
        path = os.path.join(root, inv.body[0])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(inv.body[1])


def digest(inv: Invocation) -> str:
    """Identity of an invocation's inputs, stored with its golden."""
    blob = json.dumps([inv.argv, inv.body and inv.body[1]])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
