"""Collapse sweep: volumes, return times, and normalized norm growth of
the glued contact forms over a range of s."""

import math

import numpy as np

from ..entropy_bounds import check_gamma_budget, gamma_linear
from ..entropy_estimators import DiscreteSystem, gamma_plus
from .forms import (
    S_SCAN_CAP,
    TWO_PI,
    AboveContactThreshold,
    AboveSpeedCap,
    FormsError,
    MappingTorusField,
    MappingTorusSpec,
    NoContactThreshold,
    collapse_volumes,
    contact_threshold,
    normalize_form,
    return_map_and_time,
    theta_speed_bound,
)
from . import profiles

# the solid-torus sampler's radii ST_R_LOW + ST_R_SPAN u, u in [0, 1), and
# the `_chart_metric` distance that no two of its states reach
ST_R_LOW, ST_R_SPAN = 0.05, 0.9 * profiles.R_EPS
ST_CHART_DIAMETER = math.hypot(math.pi, math.pi, ST_R_SPAN)

# RK4 steps of the mapping-torus time-one map (step 0.02)
_MT_STEPS = 50

# largest theta-speed bound of a swept s (`theta_speed_bound`): up to it the
# 50-step Gamma of k_twists 1, 2 and 3 is within 1e-6 of a 5,000-step one,
# and one step moves theta by far less than 2 pi, as `_mt_rk4` needs
_MT_SPEED_CAP = 4.0

# stage values (steps x 4 stages x states) that one block of the
# mapping-torus RK4 holds; a block has at least one step
_MT_BLOCK_VALUES = 4096


def _chart_metric(a, b):
    """Distance on the (theta, r, x) charts: angles wrap at 2 pi, the
    radial coordinate is absolute."""
    d0 = np.abs(a[..., 0] - b[..., 0]) % TWO_PI
    d0 = np.minimum(d0, TWO_PI - d0)
    d2 = np.abs(a[..., 2] - b[..., 2]) % TWO_PI
    d2 = np.minimum(d2, TWO_PI - d2)
    return np.sqrt(d0 ** 2 + (a[..., 1] - b[..., 1]) ** 2 + d2 ** 2)


def solid_torus_system(s: float) -> DiscreteSystem:
    """Time-one map of the solid-torus Reeb flow as a DiscreteSystem;
    states (theta, r, x) with angles in [0, 2 pi), analytic Jacobian (a
    shear in r)."""

    def advance(states, ang, fib):
        out = states.copy()
        out[:, 0] = (states[:, 0] + ang) % TWO_PI
        out[:, 2] = (states[:, 2] + fib / s) % TWO_PI
        return out

    def step(states):
        return advance(states, *profiles.speeds(states[:, 1]))

    def step_jacobian(states):
        ang, fib, d_ang, d_fib = profiles.speeds_and_derivatives(states[:, 1])
        jac = np.tile(np.eye(3), (len(states), 1, 1))
        jac[:, 0, 1] = d_ang
        jac[:, 2, 1] = d_fib / s
        return advance(states, ang, fib), jac

    def sampler(m, rng):
        st = np.empty((m, 3))
        st[:, 0] = rng.random(m) * TWO_PI
        st[:, 1] = ST_R_LOW + ST_R_SPAN * rng.random(m)
        st[:, 2] = rng.random(m) * TWO_PI
        return st

    return DiscreteSystem(3, step, step_jacobian, metric=_chart_metric,
                          sampler=sampler, period=TWO_PI,
                          name=f"reeb_solid_torus(s={s})")


def solid_torus_gamma(s, horizon: int, n_states: int, seed: int = 0):
    """Gamma_+ of `solid_torus_system(s)` in closed form, for the
    `n_states` states that `gamma_plus` would draw with `seed`; s is one
    value, or a 1-D array of values that share those states, which gives a
    list of estimates.

    The time-one Jacobian at radius r is the shear I + v e_r^T with
    v = (ang'(r), 0, fib'(r) / s), so its n-th power is I + n v e_r^T,
    whose operator norm is that of the shear ((1, n |v|), (0, 1)) and grows
    with |v|.  The maximum over the states is therefore the power of the
    steepest sampled shear, which `gamma_linear` takes.  v is read off one
    `step_jacobian` call at s = 1, whose x row holds fib'(r) itself, and
    fib'(r) / s is the x row at s bit for bit."""
    system = solid_torus_system(1.0)
    jac = system.step_jacobian(system.sampler(n_states, np.random.default_rng(seed)))[1]
    s_values = np.atleast_1d(np.asarray(s, float))
    steepest = np.hypot(jac[:, 0, 1], jac[:, 2, 1] / s_values[:, None]).max(axis=1)
    estimates = [gamma_linear(((1.0, float(u)), (0.0, 1.0)), horizon, n_states)
                 for u in steepest]
    return estimates if np.ndim(s) else estimates[0]


def _mt_rk4(field, theta, x):
    """RK4 time-one map (_MT_STEPS steps) of the mapping-torus states with
    angles theta in [0, 2 pi) and x on `field`: (theta, (a, b), (x, c, d)),
    where (a, b) and (c, d) are the theta row and the x row of the Jacobian
    in (theta, r).  The gluing at theta = 2 pi is theta -= 2 pi,
    x += tau(r) and d = dx/dr += tau'(r).  One step moves theta by less
    than 2 pi wherever the theta-speed bound is below 314, far above
    _MT_SPEED_CAP, so the gluing leaves theta in [0, 2 pi) and the first
    stage of a step takes it unreduced.

    Only theta has to be stepped in sequence, so each block of steps runs
    in three passes, and every element goes through the same floats in
    the same order as in one RK4 on the six rows: pass 1 steps theta alone
    on `field.speed`, keeping the terms of every stage and the rows that
    cross theta = 2 pi; pass 2 builds the rest of the field at every
    stage; pass 3 steps (a, b), which feed back only into themselves, and
    sums the stage slopes of x and (c, d) in one go."""
    m = len(theta)
    h = 1.0 / _MT_STEPS
    # the step's multiples as 0-d arrays, which numpy takes without
    # converting a Python scalar on every call
    half_h, sixth_h = np.array(0.5 * h), np.array(h / 6.0)
    h = np.array(h)
    n = min(_MT_STEPS, max(1, _MT_BLOCK_VALUES // (4 * m)))
    # pass 2 runs on this many stage rows at a time, so that the
    # temporaries of `field.rest` stay small
    piece = max(1, _MT_BLOCK_VALUES // m)
    terms, rest = np.empty((2, 5, 4 * n, m))
    ab_stage, inc = np.empty((n, 4, 2, m)), np.empty((n, 3, m))
    # scratch, borrowed from the buffer of another pass: pass 1 keeps its
    # stage speeds, a stage's theta and a temporary in `rest`, which pass 2
    # fills after it, and pass 3 its stage slopes and two temporaries in
    # `terms`, which pass 2 has read before it
    k1, k2, k3, k4, arg, tmp = rest.reshape(-1, m)[:6]
    q1, q2, q3, q4, p1, p2 = terms.reshape(-1, 2, m)[:6]
    ab = np.zeros((2, m))
    ab[0] = 1.0
    xcd = np.zeros((3, m))
    xcd[0] = x
    for first in range(0, _MT_STEPS, n):
        steps = min(n, _MT_STEPS - first)
        # pass 1: theta, and the field's terms at every stage, the five of
        # a stage in its rows of `terms`; a stage's theta lies in [0, 4 pi),
        # where fmod is % and costs less
        stage_terms = zip(*terms[:, :4 * steps])
        glued = []
        for _ in range(steps):
            field.speed(theta, next(stage_terms), k1, tmp)
            np.add(theta, np.multiply(half_h, k1, arg), arg)
            field.speed(np.fmod(arg, TWO_PI, arg), next(stage_terms), k2, tmp)
            np.add(theta, np.multiply(half_h, k2, arg), arg)
            field.speed(np.fmod(arg, TWO_PI, arg), next(stage_terms), k3, tmp)
            np.add(theta, np.multiply(h, k3, arg), arg)
            field.speed(np.fmod(arg, TWO_PI, arg), next(stage_terms), k4, tmp)
            # theta + h/6 (k1 + 2 k2 + 2 k3 + k4), in that order (2 k is
            # k + k, exactly)
            np.add(k1, np.add(k2, k2, tmp), tmp)
            np.add(tmp, np.add(k3, k3, arg), tmp)
            theta = theta + np.multiply(sixth_h, np.add(tmp, k4, tmp), tmp)
            idx = (theta >= TWO_PI).nonzero()[0]
            if len(idx):
                theta[idx] -= TWO_PI
            glued.append(idx)
        # pass 2: the rest of the field at every stage
        for i in range(0, 4 * steps, piece):
            j = min(i + piece, 4 * steps)
            field.rest(*terms[:, i:j], out=rest[:, i:j])
        x_dot, t_th, t_r, x_th, x_r = rest[:, :4 * steps].reshape(5, steps, 4, m)
        # pass 3: (a, b) in sequence, with slope t_th (a, b) + (0, t_r)
        for stage, t, tr in zip(ab_stage, t_th, t_r):
            stage[0] = ab
            np.multiply(t[0], ab, q1)
            q1[1] += tr[0]
            np.add(ab, np.multiply(half_h, q1, p1), stage[1])
            np.multiply(t[1], stage[1], q2)
            q2[1] += tr[1]
            np.add(ab, np.multiply(half_h, q2, p1), stage[2])
            np.multiply(t[2], stage[2], q3)
            q3[1] += tr[2]
            np.add(ab, np.multiply(h, q3, p1), stage[3])
            np.multiply(t[3], stage[3], q4)
            q4[1] += tr[3]
            np.add(q1, np.add(q2, q2, p1), p1)
            np.add(p1, np.add(q3, q3, p2), p1)
            ab = ab + np.multiply(sixth_h, np.add(p1, q4, p1), p1)
        # the slopes of x, c and d at every stage, summed per step, then
        # added step by step with the gluing
        slope = np.multiply(x_th[:, :, None], ab_stage[:steps], out=ab_stage[:steps])
        slope[:, :, 1] += x_r
        for row, k in ((inc[:steps, 0], x_dot), (inc[:steps, 1:], slope)):
            np.multiply(sixth_h, k[:, 0] + 2 * k[:, 1] + 2 * k[:, 2] + k[:, 3], out=row)
        for i, idx in enumerate(glued):
            np.add(xcd, inc[i], xcd)
            if len(idx):
                xcd[0, idx] += field.tau.v[idx]
                xcd[2, idx] += field.tau.d1[idx]
    return theta, ab, xcd


def mapping_torus_system(spec: MappingTorusSpec, s) -> DiscreteSystem:
    """Time-one map of the mapping-torus Reeb flow with its Jacobian (RK4,
    step 0.02, on `MappingTorusField`).

    r is fixed along the flow and the field does not depend on x, so the
    Jacobian in (theta, r, x) has the r row (0, 1, 0) and the x column
    (0, 0, 1).  The RK4 (`_mt_rk4`) integrates z = (theta, x, a, b, c, d),
    where (a, b) and (c, d) are the theta row and the x row of the
    Jacobian in (theta, r), in blocks of at most _MT_BLOCK_VALUES stage
    values (steps x 4 x states, at least one step).  Only theta is stepped
    stage by stage: a block first steps theta alone on the field's speed,
    then evaluates the rest of the field at all of its stages at once, and
    last steps (a, b) and sums the stages of x, c and d, with the same
    floats in the same order as one RK4 on all six rows.  The (m, 3, 3)
    Jacobian is assembled once, at the end.

    s is one value, or a 1-D array of k values for k stacked systems
    (`copies` k): the maps then take k equal blocks of rows, block i at
    s[i].  The integration is elementwise in the rows, so each block's
    image and Jacobian equal those of the system at its own s bit for bit;
    a scalar s is the one-block case."""
    s_values = np.atleast_1d(np.asarray(s, float))
    if s_values.ndim != 1 or not len(s_values):
        raise ValueError("s must be one value or a non-empty 1-D array")
    k = len(s_values)
    single = np.ndim(s) == 0

    def step_jacobian(states):
        states = np.asarray(states, float)
        m = len(states)
        if m % k:
            raise ValueError(f"{m} states do not split into {k} blocks")
        r = states[:, 1]
        field = MappingTorusField(spec, r, np.repeat(s_values, m // k))
        theta, ab, xcd = _mt_rk4(field, states[:, 0], states[:, 2])
        jac = np.zeros((m, 3, 3))
        jac[:, 0, :2] = ab.T
        jac[:, 2, :2] = xcd[1:].T
        jac[:, [1, 2], [1, 2]] = 1.0
        return np.stack([theta, r, xcd[0]], axis=1), jac

    def step(states):
        return step_jacobian(states)[0]

    def sampler(m, rng):
        st = np.empty((m, 3))
        st[:, 0] = rng.random(m) * TWO_PI
        st[:, 1] = spec.r_range[0] + (spec.r_range[1] - spec.r_range[0]) * rng.random(m)
        st[:, 2] = rng.random(m) * TWO_PI
        return st

    label = s if single else s_values.tolist()
    return DiscreteSystem(3, step, step_jacobian, metric=_chart_metric,
                          sampler=sampler, period=TWO_PI,
                          name=f"reeb_mapping_torus(s={label})",
                          copies=None if single else k)


def collapse_sweep(spec: MappingTorusSpec, s_list=None, *, n_steps: int,
                   n_returns: int, gamma_horizon: int, gamma_states: int,
                   seed: int = 0, grid: int = 256, fit_tol: float = 0.01):
    """Full sweep table: volumes, return-time range, return-map spread
    across s, finite-horizon Gamma and the normalized product
    Gamma * vol^(1/2).

    Returns (rows, fit, meta).  Deterministic given (spec, seed).
    Without s_list the sweep runs up to the contact threshold s1; a spec
    whose threshold is the scan cap (k_twists 0) raises NoContactThreshold.
    After the volumes, an s above s0 raises AboveContactThreshold, an s at
    which the solid torus's x speed overflows raises FormsError, and an s
    whose theta-speed bound passes _MT_SPEED_CAP (every s <= s1 is within
    it) raises AboveSpeedCap.  The Gamma of every s comes from one
    `gamma_plus` over the stacked mapping torus (its rows equal those of one
    s at a time) and one `solid_torus_gamma`, and the return map from one
    call for every s and start.  A stacked gamma estimate over GAMMA_BUDGET
    (horizon x states x values of s) raises BudgetExceeded before any work
    is done.
    """
    n_s = n_steps if s_list is None else len(s_list)
    check_gamma_budget(gamma_horizon, n_s * gamma_states)
    s0, s1 = contact_threshold(spec)
    if s_list is None:
        if s1 >= S_SCAN_CAP:
            raise NoContactThreshold(
                f"k_twists {spec.k_twists}: no contact threshold to sweep up "
                "to (the scan cap); pass s_list")
        s_list = list(np.linspace(s1 / n_steps, s1, n_steps))
    rows, fit = collapse_volumes(spec, s_list, grid=grid, fit_tol=fit_tol)
    if s0 < S_SCAN_CAP and rows[-1]["s"] > s0:
        raise AboveContactThreshold(f"s = {rows[-1]['s']} is above the contact "
                                    f"threshold s0 = {s0} of k_twists {spec.k_twists}")
    if rows[0]["s"] < profiles.X_SPEED_PEAK / np.finfo(float).max:
        raise FormsError(f"s = {rows[0]['s']} is too small: the solid torus's x "
                         "speed g'/(s h) or its r derivative leaves the float range")
    s_values = np.array([row["s"] for row in rows])
    bound = theta_speed_bound(s_values, s0)
    if bound[-1] > _MT_SPEED_CAP:
        i = int(np.argmax(bound > _MT_SPEED_CAP))
        raise AboveSpeedCap(
            f"s = {s_values[i]} has the theta-speed bound {bound[i]:.6g}, above "
            f"{_MT_SPEED_CAP:g}: the RK4 step 1/{_MT_STEPS} does not resolve the "
            f"mapping-torus flow of k_twists {spec.k_twists} there")
    rng = np.random.default_rng(seed)
    starts = np.stack([
        spec.r_range[0] + (spec.r_range[1] - spec.r_range[0]) * rng.random(n_returns),
        rng.random(n_returns) * TWO_PI,
    ], axis=1)
    g_mt = gamma_plus(mapping_torus_system(spec, s_values), gamma_horizon,
                      gamma_states, seed)
    g_st = solid_torus_gamma(s_values, gamma_horizon, gamma_states, seed)
    times, images = return_map_and_time(spec, starts, s_values[:, None])
    for row, mt, st, t in zip(rows, g_mt, g_st, times):
        row["T_s_min"] = float(t.min())
        row["T_s_max"] = float(t.max())
        row["gamma_est"] = max(mt.value, st.value)
        _, scaled = normalize_form(row["vol_total"], 1, row["gamma_est"])
        row["gamma_times_vol_pow"] = scaled
    # the largest gap of an image at any s from its image at the first s,
    # x across the wrap
    gap = np.abs(images[1:] - images[0])
    gap[..., 1] = np.minimum(gap[..., 1] % TWO_PI, TWO_PI - gap[..., 1] % TWO_PI)
    meta = {"s0": s0, "s1": s1, "return_map_spread": float(gap.max(initial=0.0))}
    return rows, fit, meta
