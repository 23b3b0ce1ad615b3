"""Finite-horizon estimators for topological entropy (separated orbit
sets), volume entropy (ball growth, from entropy_bounds) and norm growth,
plus the inequality checks that tie them together (Manning, dim * Gamma,
Ohno time change).

Estimator discipline: every estimate is the slope of a least-squares line
through the tail half of the horizon, with the fit residual reported.  No
extrapolation beyond that; the numbers stay auditable.
"""

import math
from dataclasses import dataclass

import numpy as np

# the growth record, the ball-growth rule, the gamma budget and the
# Jacobians of the linear maps need no numpy, so they live in
# entropy_bounds; hvol_ball_growth, GAMMA_BUDGET and the budget error (as
# BudgetExceeded, which htop_separated raises too) keep their old names here
from . import entropy_bounds as _eb
from .entropy_bounds import (GAMMA_BUDGET, GAMMA_STATES, EstimatorError,
                             GrowthEstimate, check_gamma_budget, hvol_ball_growth)
from .entropy_bounds import EstimateBudgetExceeded as BudgetExceeded


class JacobianOverflow(EstimatorError):
    pass


HTOP_CLOUD = 20_000       # default candidate cloud (N_c)
HTOP_BUDGET = 40_000_000  # cap on cloud * deltas * steps
HTOP_PAIRS = 16_384       # near pairs a separated-set block holds at once
FD_STEP = 1e-6


def _tail_slope(xs, ys):
    """Least-squares slope over the tail half of the horizon.

    entropy_bounds fits the ball growth in closed form; this lstsq stays
    for gamma and htop, whose pinned estimates depend on its bits."""
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
    step      states (m, d) -> image states (m, d)
    step_jacobian
              states (m, d) -> (image (m, d), Jacobian (m, d, d)) from one
              evaluation; its image equals step's bit for bit
    `gamma_plus`, the finite-difference check and the Jacobians of the
    composed systems call them through `time_one_jacobian` and `time_one`,
    the call sites that the benchmark's tracer wraps by name; the
    separated-set search and the images of the composed systems call
    `step` directly.

    metric    (a, b) -> distances; defaults to the unit-torus metric
    sampler   (m, rng) -> seed states; defaults to uniform on [0,1)^d
    inverse   optional DiscreteSystem factory for the inverse dynamics
    period    coordinate period of the chart.  The separated-set search
              buckets the first min(d, 2) coordinates in cells of side
              period / floor(period / delta), adjacent cyclically, and tests
              new pairs only in adjacent cells, then each blocker on every
              later slice wherever it lies.  When the metric bounds each of
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
    jac = np.array(_eb.ROTATION)

    def step(x):
        return (x + alpha) % 1.0

    def step_jacobian(x):
        return step(x), np.tile(jac, (len(x), 1, 1))

    return DiscreteSystem(
        1, step, step_jacobian, name=f"rotation({alpha})",
        inverse=lambda: rotation_system(-alpha))


def doubling_system() -> DiscreteSystem:
    jac = np.array(_eb.DOUBLING)
    factor = jac[0, 0]

    def step(x):
        return (factor * x) % 1.0

    def step_jacobian(x):
        return step(x), np.tile(jac, (len(x), 1, 1))

    return DiscreteSystem(1, step, step_jacobian, name="doubling")


CAT = np.array(_eb.CAT)


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

    return DiscreteSystem(3, step, step_jacobian, sampler=sampler,
                          name=f"suspension_cat(a={amplitude},t={t_sample})")


# --------------------------------------------------------------- norm growth

def gamma_plus(sys: DiscreteSystem, horizon: int, n_states: int = GAMMA_STATES,
               seed: int = 0):
    """Finite-horizon estimate of the norm growth
    lim (1/n) log ||d phi^n||_infty.

    The Jacobian cocycle accumulates with per-step scalar rescaling (the
    log of the scale is tracked), so arbitrarily long products never
    overflow; ||d phi^n||_infty is the max over a seeded state grid of the
    operator norm.  Each step takes the image and the Jacobian from one
    `time_one_jacobian` call.  A stacked system (`copies` k) steps its k
    systems together on k copies of the same n_states states, and the
    result is a list of k estimates, each equal bit for bit to that
    system's own estimate; every per-state operation is elementwise, and
    the maximum over states is taken per copy.  Raises BudgetExceeded when
    horizon * n_states * k exceeds GAMMA_BUDGET.  On a system whose
    Jacobian is one constant matrix every state carries the same cocycle,
    and entropy_bounds.gamma_linear gives the estimate without sampling.
    """
    if horizon < 8:
        raise EstimatorError("horizon must be at least 8")
    k = sys.copies or 1
    m = n_states * k
    check_gamma_budget(horizon, m)
    rng = np.random.default_rng(seed)
    x = np.tile(sys.sampler(n_states, rng), (k, 1))
    d = x.shape[1]
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
        ops = np.linalg.norm(cocycle, ord=2, axis=(1, 2))
        log_ops = log_scale + np.log(ops)
        log_norms[:, n - 1] = log_ops.reshape(k, n_states).max(axis=1)
    estimates = []
    for row in log_norms:
        slope, resid = _tail_slope(np.arange(1, horizon + 1), row)
        estimates.append(GrowthEstimate(slope, float(horizon), n_states, resid))
    return estimates if sys.copies else estimates[0]


def gamma(sys: DiscreteSystem, horizon: int, n_states: int = GAMMA_STATES,
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
    counts are non-decreasing in T (checked).  Each distinct delta is
    searched once, from an empty set, so counts need not be monotone in
    delta.  The reported value is the max over delta of the tail-half slope
    of log nu(T, delta); greedy counts are lower bounds, so the estimate is
    biased down.

    At step T each candidate not yet accepted is accepted, in index order,
    unless it conflicts with a point accepted before it: `sys.metric` is
    below delta on every slice 0..T.  This Bowen distance never shrinks as
    T grows, so each pair is tested in full once.  A candidate c keeps
    seen[c], the number of points accepted when it was last tested in full,
    and its blockers, the conflicts found then.  Step T tests all blockers
    on slice T alone; a candidate with a surviving blocker is rejected, and
    the ranks from seen[c] on wait.  Every other candidate is tested, slice
    T first, against the accepted points of rank seen[c] or more that lie
    in the same or cyclically adjacent cells of side
    period / floor(period / delta) on the first min(d, 2) coordinates at
    slice T.  These go in blocks: a block is tested against the accepted
    points with array work, and its survivors are resolved against each
    other in index order, so the counts are those of the one-at-a-time
    greedy.  A block holds at most HTOP_PAIRS untested near pairs (more only
    when one candidate alone has more) and HTOP_PAIRS / 3^min(d, 2)
    candidates (256 if that is fewer); beyond the trajectories and the
    blockers the search holds a few arrays of one entry per candidate.
    """
    deltas = sorted(set(delta_list), reverse=True)
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
            raise BudgetExceeded(f"delta {delta} is too small for the cell grid")
        cell = sys.period / n_cells
        # -1, 0, +1 modulo n_cells: they coincide below three cells
        offsets = np.array(sorted({-1 % n_cells, 0, 1 % n_cells}))
        max_width = max(256, HTOP_PAIRS // len(offsets) ** dims)

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

        def by_cell(ids):
            """The positions in ids sorted stably by cell, and their index:
            the sorted cells, the segment of each, and the keys
            seg * n_candidates + position, so that a cell's positions from
            lo to hi are a range of keys."""
            order = np.argsort(cell_id[ids], kind="stable")
            own = cell_id[ids[order]]
            seg = np.concatenate(([0], np.cumsum(own[1:] != own[:-1])))
            return order, (own, seg, seg * n_candidates + order)

        def windows(index, nb, lo, hi):
            """For each cell of nb, the range of the index's entries in that
            cell whose positions lie in [lo, hi)."""
            own, seg, keys = index
            if not len(own):
                return (np.zeros(nb.shape, np.intp),) * 2
            at = np.minimum(np.searchsorted(own, nb), len(own) - 1)
            base = np.where(own[at] == nb, seg[at] * n_candidates, -n_candidates)
            return np.searchsorted(keys, base + lo), np.searchsorted(keys, base + hi)

        ranked = np.empty(n_candidates, np.int32)  # accepted ids by rank
        seen = np.zeros(n_candidates, np.int32)
        blocked = blocker = np.empty(0, np.int32)  # pairs (candidate, accepted)
        n_acc = 0
        counts = []
        for t in range(1, horizon + 1):
            x = traj[t]
            if len(blocked):
                near = metric(x.take(blocked, axis=0),
                              x.take(blocker, axis=0)) < delta
                blocked, blocker = blocked[near], blocker[near]
            idx = np.floor(x[:, :dims] / cell).astype(int) % n_cells
            cell_id = idx[:, 0] if dims == 1 else idx[:, 0] * n_cells + idx[:, 1]
            waiting = np.ones(n_candidates, bool)
            waiting[ranked[:n_acc]] = False
            waiting[blocked] = False
            pending = np.flatnonzero(waiting).astype(np.int32)
            acc_order, acc = by_cell(ranked[:n_acc])
            start, width = 0, 256
            while start < len(pending):
                block = pending[start:start + width]
                nb = (idx[block, 0, None] + offsets) % n_cells
                if dims == 2:
                    nb = (nb[:, :, None] * n_cells
                          + (idx[block, 1, None, None] + offsets) % n_cells)
                    nb = nb.reshape(len(block), -1)
                a_lo, a_hi = windows(acc, nb, seen[block, None], n_candidates)
                load = np.cumsum((a_hi - a_lo).sum(axis=1))
                b = max(1, int(np.searchsorted(load, HTOP_PAIRS, "right")))
                block, nb = block[:b], nb[:b]
                rows, pos = _expand(a_lo[:b], a_hi[:b])
                pos = ranked[acc_order[pos]]
                hit = conflicts(block[rows], pos, t)
                rows, pos = rows[hit], pos[hit]
                free = np.ones(b, bool)
                free[rows] = False
                surv = np.flatnonzero(free)
                # survivors against the lower-index survivors of the block
                m = len(surv)
                order, index = by_cell(block[surv])
                s_lo, s_hi = windows(index, nb[surv], 0, np.arange(m)[:, None])
                load = np.cumsum((s_hi - s_lo).sum(axis=1))
                c = max(1, int(np.searchsorted(load, HTOP_PAIRS, "right")))
                if c < m:  # end the block before the first unresolved one
                    b, surv = surv[c], surv[:c]
                j, i = _expand(s_lo[:c], s_hi[:c])
                i = order[i]
                hit = conflicts(block[surv[j]], block[surv[i]], t)
                j, i = j[hit], i[hit]
                # conflict edges (j, i < j) come in increasing j, so
                # take[i] is final when an edge of j reads it
                take = [True] * len(surv)
                for jj, ii in zip(j.tolist(), i.tolist()):
                    if take[ii]:
                        take[jj] = False
                take = np.array(take, bool)
                # the conflicts of the resolved candidates with accepted
                # points become their blockers
                cut, edge = np.searchsorted(rows, b), take[i]
                blocked = np.concatenate((blocked, block[rows[:cut]],
                                          block[surv[j[edge]]]))
                blocker = np.concatenate((blocker, pos[:cut], block[surv[i[edge]]]))
                seen[block[:b]] = n_acc
                seen[block[surv]] += np.cumsum(take) - take
                new = block[surv[take]]
                if len(new):
                    ranked[n_acc:n_acc + len(new)] = new
                    n_acc += len(new)
                    acc_order, acc = by_cell(ranked[:n_acc])
                start += b
                width = min(2 * b, max_width)
            counts.append(n_acc)
        return counts

    t_grid = np.arange(1, horizon + 1)
    all_counts, best = {}, None
    for delta in deltas:
        counts = all_counts[delta] = run_delta(delta)
        # the accepted set only grows with T; assert it
        if any(a > b for a, b in zip(counts, counts[1:])):
            raise EstimatorError(
                f"separated-set counts at delta {delta} decrease in T")
        log_counts = np.log(np.maximum(np.asarray(counts, float), 1.0))
        slope, resid = _tail_slope(t_grid, log_counts)
        est = GrowthEstimate(slope, float(horizon), n_candidates, resid,
                             delta=delta)
        if best is None or est.value > best.value:
            best = est
    best.value = max(0.0, best.value)  # counts never fall with T: below 0 is rounding
    if return_counts:
        return best, all_counts
    return best


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
