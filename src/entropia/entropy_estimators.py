"""Finite-horizon estimators for topological entropy (separated orbit
sets), volume entropy (ball growth) and norm growth, plus the inequality
checks that tie them together (Manning, dim * Gamma, Ohno time change).

Estimator discipline: every estimate is the slope of a least-squares line
through the tail half of the horizon, with the fit residual reported.  No
extrapolation beyond that; the numbers stay auditable.
"""

import math
from dataclasses import dataclass, field

import numpy as np


class EstimatorError(Exception):
    pass


class BudgetExceeded(EstimatorError):
    pass


class JacobianOverflow(EstimatorError):
    pass


HTOP_CLOUD = 20_000       # default candidate cloud (N_c)
HTOP_BUDGET = 40_000_000  # cap on cloud * deltas * steps
GAMMA_BUDGET = 1_000_000  # cap on horizon * states of one gamma_plus
HTOP_PAIRS = 16_384       # near pairs a separated-set block holds at once
FD_STEP = 1e-6


@dataclass
class GrowthEstimate:
    value: float
    horizon: float
    samples: int
    fit_residual: float
    delta: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise EstimatorError("non-finite growth estimate")


def _tail_slope(xs, ys):
    """Least-squares slope over the tail half of the horizon."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    tail = xs >= xs[-1] / 2.0
    A = np.stack([xs[tail], np.ones(int(tail.sum()))], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys[tail], rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - ys[tail]) ** 2)))
    return float(coef[0]), resid


def torus_metric(a, b):
    """Euclidean distance on the unit torus, broadcasting over rows."""
    d = np.abs(np.asarray(a, float) - np.asarray(b, float))
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d * d).sum(axis=-1))


@dataclass
class DiscreteSystem:
    """A map with enough structure to estimate growth rates.

    Every system gives its time-one map twice, and both are required:
    step      states (m, d) -> image states (m, d); the separated-set
              search and the finite-difference check use it
    step_jacobian
              states (m, d) -> (image (m, d), Jacobian (m, d, d)) from one
              evaluation; its image equals step's bit for bit
    Callers go through `time_one` and `time_one_jacobian`, the call sites
    that the benchmark's tracer wraps by name.

    metric    (a, b) -> distances; defaults to the unit-torus metric
    sampler   (m, rng) -> seed states; defaults to uniform on [0,1)^d
    inverse   optional DiscreteSystem factory for the inverse dynamics
    period    coordinate period of the chart.  The separated-set search
              buckets the first min(d, 2) coordinates in cells of side
              period / floor(period / delta), adjacent cyclically, and tests
              only pairs in adjacent cells.  When the metric bounds each of
              those coordinates' cyclic differences, no pair closer than
              delta is missed; a coordinate that does not wrap (the
              solid-torus r) only adds pairs that the metric then rejects.
    copies    None for one system.  An int k marks k systems stacked in one:
              the maps take k equal blocks of rows, block i stepped by
              system i, and the sampler draws the states of one block.
              `gamma_plus` runs every block on the same states and returns
              one estimate per block.
    """

    state_dim: int
    step: callable
    step_jacobian: callable
    metric: callable = None
    sampler: callable = None
    inverse: callable = None
    period: float = 1.0
    name: str = ""
    copies: int | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.metric is None:
            self.metric = torus_metric
        if self.sampler is None:
            self.sampler = lambda m, rng: rng.random((m, self.state_dim))

    # -- dynamics -------------------------------------------------------------

    def time_one(self, states):
        return self.step(states)

    def time_one_jacobian(self, states):
        return self.step_jacobian(states)

    def _fd_jacobian(self, states):
        states = np.asarray(states, float)
        m, d = states.shape
        half = 0.5 * self.period
        jac = np.empty((m, d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = FD_STEP
            plus = self.time_one(states + e)
            minus = self.time_one(states - e)
            # unwrap across the chart seam
            diff = (plus - minus + half) % self.period - half
            jac[:, :, j] = diff / (2 * FD_STEP)
        return jac

    def validate_jacobian(self, n_states: int = 100, seed: int = 0,
                          tol: float = 1e-4) -> float:
        """Cross-check the analytic Jacobian against central differences."""
        rng = np.random.default_rng(seed)
        states = self.sampler(n_states, rng)
        ja = self.time_one_jacobian(states)[1]
        jf = self._fd_jacobian(states)
        scale = np.maximum(np.abs(ja).max(), 1.0)
        err = float(np.abs(ja - jf).max() / scale)
        if err > tol:
            raise EstimatorError(f"jacobian cross-check failed: {err}")
        return err


# ------------------------------------------------------------------ systems

def rotation_system(alpha: float = 0.3) -> DiscreteSystem:
    def step(x):
        return (x + alpha) % 1.0

    def step_jacobian(x):
        return step(x), np.ones((len(x), 1, 1))

    return DiscreteSystem(
        1, step, step_jacobian, name=f"rotation({alpha})",
        inverse=lambda: rotation_system(-alpha))


def doubling_system() -> DiscreteSystem:
    def step(x):
        return (2.0 * x) % 1.0

    def step_jacobian(x):
        return step(x), np.full((len(x), 1, 1), 2.0)

    return DiscreteSystem(1, step, step_jacobian, name="doubling")


CAT = np.array([[2.0, 1.0], [1.0, 1.0]])


def _linear_torus_system(mat, name) -> DiscreteSystem:
    mat = np.asarray(mat, float)
    inv = np.linalg.inv(mat)

    def step(x):
        return (x @ mat.T) % 1.0

    def step_jacobian(x):
        return step(x), np.tile(mat, (len(x), 1, 1))

    return DiscreteSystem(
        mat.shape[0], step, step_jacobian, name=name,
        inverse=lambda: _linear_torus_system(inv, name + "^-1"))


def cat_system() -> DiscreteSystem:
    return _linear_torus_system(CAT, "cat")


def conjugated_cat_system(shear: float = 1.0) -> DiscreteSystem:
    """psi^-1 cat psi for the integer shear psi(x) = (x1 + k x2, x2)."""
    k = int(shear)
    psi = np.array([[1.0, k], [0.0, 1.0]])
    mat = np.linalg.inv(psi) @ CAT @ psi
    return _linear_torus_system(mat, f"cat_conj({k})")


def power_system(sys: DiscreteSystem, m: int) -> DiscreteSystem:
    def step(x):
        for _ in range(m):
            x = sys.step(x)
        return x

    def step_jacobian(x):
        x, j = sys.time_one_jacobian(x)
        for _ in range(m - 1):
            x, jx = sys.time_one_jacobian(x)
            j = np.einsum("mij,mjk->mik", jx, j)
        return x, j

    inv = None
    if sys.inverse is not None:
        inv = lambda: power_system(sys.inverse(), m)
    return DiscreteSystem(sys.state_dim, step, step_jacobian,
                          name=f"{sys.name}^{m}", inverse=inv)


def product_system(a: DiscreteSystem, b: DiscreteSystem) -> DiscreteSystem:
    da, db = a.state_dim, b.state_dim

    def step(x):
        return np.concatenate([a.step(x[:, :da]), b.step(x[:, da:])], axis=1)

    def step_jacobian(x):
        ia, ja = a.time_one_jacobian(x[:, :da])
        ib, jb = b.time_one_jacobian(x[:, da:])
        jac = np.zeros((len(x), da + db, da + db))
        jac[:, :da, :da] = ja
        jac[:, da:, da:] = jb
        return np.concatenate([ia, ib], axis=1), jac

    inv = None
    if a.inverse is not None and b.inverse is not None:
        inv = lambda: product_system(a.inverse(), b.inverse())
    return DiscreteSystem(da + db, step, step_jacobian,
                          name=f"{a.name}x{b.name}", inverse=inv)


def union_system(pieces) -> DiscreteSystem:
    """Disjoint union of same-dimension map systems; the first state
    coordinate is the (frozen) piece label."""
    d = pieces[0].state_dim

    def split(x):
        lab = np.rint(x[:, 0]).astype(int)
        return lab, x[:, 1:]

    def step(x):
        lab, y = split(x)
        out = np.empty_like(y)
        for i, p in enumerate(pieces):
            m = lab == i
            if m.any():
                out[m] = p.step(y[m])
        return np.concatenate([x[:, :1], out], axis=1)

    def step_jacobian(x):
        lab, y = split(x)
        image = np.empty_like(y)
        jac = np.zeros((len(x), d + 1, d + 1))
        jac[:, 0, 0] = 1.0
        inner = range(1, d + 1)
        for i, p in enumerate(pieces):
            m = lab == i
            if m.any():
                image[m], jac[np.ix_(np.flatnonzero(m), inner, inner)] = \
                    p.time_one_jacobian(y[m])
        return np.concatenate([x[:, :1], image], axis=1), jac

    def sampler(m, rng):
        lab = rng.integers(0, len(pieces), size=m)
        return np.concatenate([lab[:, None].astype(float),
                               rng.random((m, d))], axis=1)

    return DiscreteSystem(d + 1, step, step_jacobian, sampler=sampler,
                          name="union(" + ",".join(p.name for p in pieces) + ")")


def suspension_cat_system(amplitude: float = 0.0, t_sample: float = 1.0
                          ) -> DiscreteSystem:
    """Suspension flow of the cat map with ceiling speed
    f(x) = 1 + amplitude sin(2 pi x_1); amplitude 0 is the unit-speed
    suspension.  State (x1, x2, tau); the time-t map and its Jacobian are
    evaluated in closed form through the page crossings.
    """

    def speed(x):
        return 1.0 + amplitude * np.sin(2 * np.pi * x[:, 0])

    def grad_speed(x):
        g = np.zeros_like(x[:, :2])
        g[:, 0] = 2 * np.pi * amplitude * np.cos(2 * np.pi * x[:, 0])
        return g

    def flow(states, t):
        """Returns final states and the Jacobian of the time-t map."""
        states = np.asarray(states, float)
        m = states.shape[0]
        x = states[:, :2].copy()
        tau = states[:, 2].copy()
        jac = np.tile(np.eye(3), (m, 1, 1))
        # accumulated t_K gradient wrt (x, tau)
        dtk_dx = np.zeros((m, 2))
        dtk_dtau = np.zeros(m)
        t_k = np.zeros(m)
        a_pow = np.tile(np.eye(2), (m, 1, 1))
        f0 = speed(x)
        # first crossing
        t_next = t_k + (1.0 - tau) / f0
        live = t_next <= t
        first = np.ones(m, bool)
        while live.any():
            i = np.flatnonzero(live)
            fi = speed(x[i])
            gi = grad_speed(x[i])
            rem = np.where(first[i], (1.0 - tau[i]), 1.0)
            dtk_dx[i] -= (rem / fi ** 2)[:, None] * np.einsum(
                "mj,mjk->mk", gi, a_pow[i])
            dtk_dtau[i] = np.where(first[i], -1.0 / fi, dtk_dtau[i])
            t_k[i] = t_next[i]
            x[i] = (x[i] @ CAT.T) % 1.0
            a_pow[i] = np.einsum("jk,mkl->mjl", CAT, a_pow[i])
            first[i] = False
            t_next[i] = t_k[i] + 1.0 / speed(x[i])
            live[i] = t_next[i] <= t
        f_end = speed(x)
        g_end = grad_speed(x)
        tau_out = np.where(first, tau + t * f0, (t - t_k) * f_end)
        x_out = x
        # chain rule for tau'
        dtau_dx = np.where(
            first[:, None],
            t * grad_speed(states[:, :2]),
            -f_end[:, None] * dtk_dx
            + ((t - t_k) * 1.0)[:, None] * np.einsum("mj,mjk->mk", g_end, a_pow),
        )
        dtau_dtau = np.where(first, 1.0, -f_end * dtk_dtau)
        jac[:, :2, :2] = a_pow
        jac[:, 2, :2] = dtau_dx
        jac[:, 2, 2] = dtau_dtau
        return np.concatenate([x_out, tau_out[:, None]], axis=1), jac

    def step_jacobian(states):
        return flow(states, t_sample)

    def step(states):
        return flow(states, t_sample)[0]

    def sampler(m, rng):
        s = rng.random((m, 3))
        s[:, 2] = 0.2 + 0.6 * s[:, 2]  # keep seeds away from the page seam
        return s

    sys = DiscreteSystem(3, step, step_jacobian, sampler=sampler,
                         name=f"suspension_cat(a={amplitude},t={t_sample})")
    sys.meta["speed_sup"] = 1.0 + abs(amplitude)
    return sys


# --------------------------------------------------------------- norm growth

def check_gamma_budget(horizon: int, n_states: int):
    """Raise BudgetExceeded when one gamma_plus over `horizon` steps of
    `n_states` states would exceed GAMMA_BUDGET."""
    if horizon * n_states > GAMMA_BUDGET:
        raise BudgetExceeded(
            f"gamma over {horizon} steps of {n_states} states exceeds the "
            f"budget of {GAMMA_BUDGET} state steps")


def gamma_plus(sys: DiscreteSystem, horizon: int, n_states: int = 128,
               seed: int = 0, weight: np.ndarray | None = None):
    """Finite-horizon estimate of the norm growth
    lim (1/n) log ||d phi^n||_infty.

    The Jacobian cocycle accumulates with per-step scalar rescaling (the
    log of the scale is tracked), so arbitrarily long products never
    overflow; ||d phi^n||_infty is the max over a seeded state grid of the
    operator norm.  An optional SPD weight changes the Riemannian norm.
    Each step takes the image and the Jacobian from one `time_one_jacobian`
    call.  A stacked system (`copies` k) steps its k systems together on k
    copies of the same n_states states, and the result is a list of k
    estimates, each equal bit for bit to that system's own estimate; every
    per-state operation is elementwise, and the maximum over states is
    taken per copy.  Raises BudgetExceeded when horizon * n_states * k
    exceeds GAMMA_BUDGET.
    """
    if horizon < 8:
        raise EstimatorError("horizon must be at least 8")
    k = sys.copies or 1
    m = n_states * k
    check_gamma_budget(horizon, m)
    rng = np.random.default_rng(seed)
    x = np.tile(sys.sampler(n_states, rng), (k, 1))
    d = x.shape[1]
    w_half = w_inv = None
    if weight is not None:
        vals, vecs = np.linalg.eigh(weight)
        w_half = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
        w_inv = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    cocycle = np.tile(np.eye(d), (m, 1, 1))
    log_scale = np.zeros(m)
    log_norms = np.empty((k, horizon))
    for n in range(1, horizon + 1):
        x, jac = sys.time_one_jacobian(x)
        if not np.all(np.isfinite(jac)):
            raise JacobianOverflow("non-finite Jacobian encountered")
        cocycle = np.einsum("mij,mjk->mik", jac, cocycle)
        scale = np.abs(cocycle).reshape(m, -1).max(axis=1)
        scale = np.maximum(scale, 1e-300)
        cocycle /= scale[:, None, None]
        log_scale += np.log(scale)
        mat = cocycle
        if weight is not None:
            mat = np.einsum("ij,mjk,kl->mil", w_half, cocycle, w_inv)
        ops = np.linalg.norm(mat, ord=2, axis=(1, 2))
        log_ops = log_scale + np.log(ops)
        log_norms[:, n - 1] = log_ops.reshape(k, n_states).max(axis=1)
    estimates = []
    for row in log_norms:
        slope, resid = _tail_slope(np.arange(1, horizon + 1), row)
        estimates.append(GrowthEstimate(slope, float(horizon), n_states, resid))
    return estimates if sys.copies else estimates[0]


def gamma(sys: DiscreteSystem, horizon: int, n_states: int = 128,
          seed: int = 0) -> GrowthEstimate:
    """Gamma = max(Gamma_+(phi), Gamma_+(phi^-1))."""
    fwd = gamma_plus(sys, horizon, n_states, seed)
    if sys.inverse is None:
        raise EstimatorError(f"system {sys.name} has no inverse")
    bwd = gamma_plus(sys.inverse(), horizon, n_states, seed)
    best = max(fwd, bwd, key=lambda e: e.value)
    return GrowthEstimate(max(fwd.value, bwd.value), float(horizon),
                          n_states, best.fit_residual)


# ------------------------------------------------------------ separated sets

def _expand(lo, hi):
    """(row, position) for every position in [lo, hi) of each row of the
    (m, n) range arrays lo and hi, row by row."""
    sizes = hi - lo
    rows = np.repeat(np.arange(len(lo)), sizes.sum(axis=1))
    sizes = sizes.ravel()
    starts = np.repeat(lo.ravel() - np.cumsum(sizes) + sizes, sizes)
    return rows, np.arange(len(starts)) + starts


def htop_separated(sys: DiscreteSystem, delta_list, horizon: int,
                   n_candidates: int = HTOP_CLOUD, seed: int = 0,
                   return_counts: bool = False):
    """Topological entropy from maximal (T, delta)-separated sets.

    Greedy maximal construction over a seeded candidate cloud, nested in T:
    the set accepted at T seeds the search at T+1, so for each delta the
    counts are non-decreasing in T (checked).  Every delta starts from an
    empty set, so counts need not be monotone in delta.  The reported value
    is the max over delta of the tail-half slope of log nu(T, delta); greedy
    counts are lower bounds, so the estimate is biased down.

    At step T each candidate not yet accepted is accepted, in index order,
    unless it conflicts with a point accepted before it.  Only near pairs
    are tested: at slice T the two points lie in the same or cyclically
    adjacent cells of side period / floor(period / delta) on the first
    min(d, 2) coordinates.  A near pair conflicts when `sys.metric` is below
    delta on every slice 0..T, slice T first.  The candidates go in blocks:
    a block is tested against every accepted point with array work, and its
    survivors are resolved against each other in index order, so the counts
    are those of the one-at-a-time greedy.  A block holds at most HTOP_PAIRS
    near pairs (more only when one candidate alone has more), which bounds
    the memory of the search beyond the trajectories.
    """
    deltas = sorted(delta_list, reverse=True)
    if n_candidates * len(deltas) * (horizon + 1) > HTOP_BUDGET:
        raise BudgetExceeded("separated-set search exceeds budget")
    rng = np.random.default_rng(seed)
    states = sys.sampler(n_candidates, rng)
    d = states.shape[1]
    traj = np.empty((horizon + 1, n_candidates, d))
    traj[0] = states
    for k in range(1, horizon + 1):
        traj[k] = sys.step(traj[k - 1])
    metric = sys.metric
    dims = min(d, 2)  # bucketed coordinates

    def run_delta(delta):
        n_cells = max(1, int(math.floor(sys.period / delta)))
        if n_cells ** dims >= 2 ** 62:
            raise EstimatorError(f"delta {delta} is too small for the cell grid")
        cell = sys.period / n_cells
        # -1, 0, +1 modulo n_cells: they coincide below three cells
        offsets = np.array(sorted({-1 % n_cells, 0, 1 % n_cells}))

        def conflicts(a, b, t):
            """Positions of the pairs (a[i], b[i]) closer than delta at
            every slice 0..t."""
            live = np.arange(len(a))
            for s in (t, *range(t)):
                if not len(live):
                    break
                x = traj[s]
                near = metric(x.take(a.take(live), axis=0),
                              x.take(b.take(live), axis=0)) < delta
                live = live[near]
            return live

        accepted = np.zeros(n_candidates, bool)
        counts = []
        for t in range(1, horizon + 1):
            idx = np.floor(traj[t, :, :dims] / cell).astype(int) % n_cells
            cell_id = idx[:, 0] if dims == 1 else idx[:, 0] * n_cells + idx[:, 1]

            def by_cell(ids):
                ids = ids[np.argsort(cell_id[ids], kind="stable")]
                return ids, cell_id[ids]

            acc_ids, acc_cells = by_cell(np.flatnonzero(accepted))
            pending = np.flatnonzero(~accepted)
            start, width = 0, 256
            while start < len(pending):
                block = pending[start:start + width]
                nb = (idx[block, 0, None] + offsets) % n_cells
                if dims == 2:
                    nb = (nb[:, :, None] * n_cells
                          + (idx[block, 1, None, None] + offsets) % n_cells)
                    nb = nb.reshape(len(block), -1)
                a_lo = np.searchsorted(acc_cells, nb)
                a_hi = np.searchsorted(acc_cells, nb, "right")
                load = np.cumsum((a_hi - a_lo).sum(axis=1))
                b = max(1, int(np.searchsorted(load, HTOP_PAIRS, "right")))
                block, nb = block[:b], nb[:b]
                rows, pos = _expand(a_lo[:b], a_hi[:b])
                free = np.ones(b, bool)
                free[rows[conflicts(block[rows], acc_ids[pos], t)]] = False
                surv = np.flatnonzero(free)
                take = []
                if len(surv):
                    # survivors against the lower-index survivors of the
                    # block: sorted by (cell, index), a cell's run of lower
                    # indices is a range of the keys seg * m + index
                    m = len(surv)
                    order = np.argsort(cell_id[block[surv]], kind="stable")
                    own = cell_id[block[surv]][order]
                    seg = np.concatenate(([0], np.cumsum(own[1:] != own[:-1])))
                    keys = seg * m + order
                    at = np.minimum(np.searchsorted(own, nb[surv]), m - 1)
                    base = np.where(own[at] == nb[surv], seg[at] * m, -m)
                    s_lo = np.searchsorted(keys, base)
                    s_hi = np.searchsorted(keys, base + np.arange(m)[:, None])
                    load = np.cumsum((s_hi - s_lo).sum(axis=1))
                    c = max(1, int(np.searchsorted(load, HTOP_PAIRS, "right")))
                    if c < m:  # end the block before the first unresolved one
                        b, surv = surv[c], surv[:c]
                    rows, pos = _expand(s_lo[:c], s_hi[:c])
                    lower = order[pos]
                    hit = conflicts(block[surv[rows]], block[surv[lower]], t)
                    # conflict edges (j, i < j) come in increasing j, so
                    # take[i] is final when an edge of j reads it
                    take = [True] * len(surv)
                    for j, i in zip(rows[hit].tolist(), lower[hit].tolist()):
                        if take[i]:
                            take[j] = False
                new = block[surv[np.array(take, bool)]]
                if len(new):
                    accepted[new] = True
                    acc_ids, acc_cells = by_cell(np.concatenate([acc_ids, new]))
                start += b
                width = 2 * b
            counts.append(int(accepted.sum()))
        return counts

    all_counts = {}
    for delta in deltas:
        all_counts[delta] = run_delta(delta)
    # the accepted set only grows with T; assert it
    for delta, counts in all_counts.items():
        if any(a > b for a, b in zip(counts, counts[1:])):
            raise EstimatorError(
                f"separated-set counts at delta {delta} decrease in T")
    t_grid = np.arange(1, horizon + 1)
    best = None
    for delta in deltas:
        counts = np.asarray(all_counts[delta], float)
        slope, resid = _tail_slope(t_grid, np.log(np.maximum(counts, 1.0)))
        est = GrowthEstimate(slope, float(horizon), n_candidates, resid,
                             delta=delta)
        if best is None or est.value > best.value:
            best = est
    best.value = max(0.0, best.value)  # counts never fall with T: below 0 is rounding
    if return_counts:
        return best, all_counts
    return best


# ------------------------------------------------------------- ball growth

def _log_ball_volume(geometry, r):
    """log Vol(B_r); 2 pi (cosh r - 1) = pi e^r (1 - e^-r)^2 stays finite."""
    kind = geometry[0]
    if kind == "hyperbolic":
        return math.log(math.pi) + r + 2.0 * np.log1p(-np.exp(-r))
    if kind == "euclidean":
        return math.log(math.pi) + 2.0 * np.log(r)
    if kind == "scaled":
        _, c, inner = geometry
        return _log_ball_volume(inner, r / c)
    raise EstimatorError(f"unknown geometry {geometry!r}")


def hvol_ball_growth(geometry, r_max: float) -> GrowthEstimate:
    """Volume entropy from closed-form ball volumes: slope of log Vol(B_R)
    over [R_max/2, R_max], sampled at 200 radii from R_max/4.

    geometry: ("hyperbolic",) curvature -1 plane, ("euclidean",), or
    ("scaled", c, inner) using B(cF, R) = B(F, R/c).
    """
    r = np.linspace(r_max / 4.0, r_max, 200)
    slope, resid = _tail_slope(r, _log_ball_volume(geometry, r))
    return GrowthEstimate(slope, float(r_max), len(r), resid)


# ---------------------------------------------------------------- reports

def manning_check(h_top_est: GrowthEstimate, h_vol_est: GrowthEstimate,
                  gamma_est: GrowthEstimate | None = None,
                  dim: int | None = None) -> dict:
    """h_top >= h_vol within the residual budget plus a slack of 0.02;
    optionally the upper chain h_top <= dim * Gamma_+."""
    budget = h_top_est.fit_residual + h_vol_est.fit_residual + 2e-2
    report = {
        "h_top": h_top_est.value,
        "h_vol": h_vol_est.value,
        "budget": budget,
        "manning_ok": h_top_est.value >= h_vol_est.value - budget,
    }
    if gamma_est is not None and dim is not None:
        report["gamma_bound"] = dim * gamma_est.value
        report["gamma_chain_ok"] = (
            h_top_est.value <= dim * gamma_est.value + budget
            + dim * gamma_est.fit_residual)
    return report


def time_change_bound(base: DiscreteSystem, changed: DiscreteSystem,
                      f_sup: float, horizon: int, n_states: int = 96,
                      slack: float = 2e-2,
                      htop_params: dict | None = None) -> dict:
    """Gamma_+(phi_fX) <= sup f * Gamma_+(phi_X) at matched horizons.

    With htop_params (keys delta_list, horizon, n_candidates) also runs the
    companion entropy check h_top(phi_fX) <= sup f * h_top(phi_X) through
    the separated-set estimator; both sides share the estimator bias, so
    the report uses a proportional slack.
    """
    lhs = gamma_plus(changed, horizon, n_states)
    rhs = gamma_plus(base, horizon, n_states)
    report = {
        "lhs": lhs.value,
        "rhs": rhs.value,
        "f_sup": f_sup,
        "bound_ok": lhs.value <= f_sup * rhs.value + slack,
        "lhs_residual": lhs.fit_residual,
        "rhs_residual": rhs.fit_residual,
    }
    if htop_params is not None:
        p = dict(htop_params)
        h_lhs = htop_separated(changed, p["delta_list"], p["horizon"],
                               p.get("n_candidates", HTOP_CLOUD))
        h_rhs = htop_separated(base, p["delta_list"], p["horizon"],
                               p.get("n_candidates", HTOP_CLOUD))
        report["htop_lhs"] = h_lhs.value
        report["htop_rhs"] = h_rhs.value
        report["htop_bound_ok"] = (
            h_lhs.value <= f_sup * h_rhs.value + 0.1 * max(h_rhs.value, 1.0))
    return report


def gamma_properties_suite(horizon: int = 48, n_states: int = 96,
                           seed: int = 0, tol: float = 2e-2) -> list:
    """Numerical checks of the elementary norm-growth laws on the built-in
    systems: conjugacy invariance, monotonicity under restriction,
    decomposition, powers, and products."""
    cat = cat_system()
    rot = rotation_system(0.37)
    rows = []

    def row(name, lhs, rhs):
        rows.append({"name": name, "lhs": lhs, "rhs": rhs,
                     "tol": tol, "ok": abs(lhs - rhs) <= tol})

    g_cat = gamma(cat, horizon, n_states, seed).value
    g_conj = gamma(conjugated_cat_system(1), horizon, n_states, seed).value
    row("conjugacy", g_conj, g_cat)

    union = union_system([cat, _linear_torus_system(np.eye(2), "id")])
    g_union = gamma_plus(union, horizon, 2 * n_states, seed).value
    rows.append({"name": "monotonicity", "lhs": g_cat, "rhs": g_union,
                 "tol": tol, "ok": g_cat <= g_union + tol})
    row("decomposition", g_union, g_cat)

    g_sq = gamma(power_system(cat, 2), horizon // 2, n_states, seed).value
    row("power", g_sq, 2.0 * g_cat)

    g_prod = gamma(product_system(cat, rot), horizon, n_states, seed).value
    row("product", g_prod, g_cat)
    return rows
