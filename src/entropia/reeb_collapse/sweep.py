"""Collapse sweep: volumes, return times, and normalized norm growth of
the glued contact forms over a range of s."""

import numpy as np

from ..entropy_estimators import DiscreteSystem, check_gamma_budget, gamma_plus
from .forms import (
    S_SCAN_CAP,
    MappingTorusSpec,
    NoContactThreshold,
    _chi_derivatives,
    collapse_volumes,
    contact_threshold,
    normalize_form,
    return_map_and_time,
)
from .profiles import ProfileFunctions, build_profiles

TWO_PI = 2.0 * np.pi
# RK4 steps of the mapping-torus time-one map (step 0.02)
_MT_STEPS = 50


def _chart_metric(a, b):
    """Distance on the (theta, r, x) charts: angles wrap at 2 pi, the
    radial coordinate is absolute."""
    d0 = np.abs(a[..., 0] - b[..., 0]) % TWO_PI
    d0 = np.minimum(d0, TWO_PI - d0)
    d2 = np.abs(a[..., 2] - b[..., 2]) % TWO_PI
    d2 = np.minimum(d2, TWO_PI - d2)
    return np.sqrt(d0 ** 2 + (a[..., 1] - b[..., 1]) ** 2 + d2 ** 2)


def solid_torus_system(profiles: ProfileFunctions, s: float) -> DiscreteSystem:
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
        st[:, 1] = 0.05 + 0.9 * rng.random(m) * profiles.r_eps
        st[:, 2] = rng.random(m) * TWO_PI
        return st

    return DiscreteSystem(3, step, step_jacobian, metric=_chart_metric,
                          sampler=sampler, period=TWO_PI,
                          name=f"reeb_solid_torus(s={s})")


def mapping_torus_system(spec: MappingTorusSpec, s: float) -> DiscreteSystem:
    """Time-one map of the mapping-torus Reeb flow with the variational
    Jacobian integrated alongside (RK4, step 0.02, analytic field derivatives)."""

    def step_jacobian(states):
        y = states.copy().astype(float)
        m = len(y)
        th, r, x = y[:, 0], y[:, 1], y[:, 2]
        # the flow preserves r, so tau and lambda are constant on each orbit
        tau = spec.tau_dual(r)
        lam = 2.0 - r

        def field(theta):
            """(theta_dot, x_dot) and their gradient in (theta, r) as a
            (m, 3, 3) matrix field."""
            chi1, chi2 = _chi_derivatives(theta % TWO_PI)
            # Y = y_x d_x with y_x = -chi' lam tau', and its theta and r
            # derivatives
            yx = -chi1 * lam * tau.d1
            denom = 1.0 + s * lam * yx
            vth = 1.0 / denom
            vx = yx / denom
            dy_dth = -chi2 * lam * tau.d1
            dy_dr = -chi1 * (-tau.d1 + lam * tau.d2)
            dden_dth = s * lam * dy_dth
            dden_dr = s * (-yx + lam * dy_dr)
            grad = np.zeros((m, 3, 3))
            grad[:, 0, 0] = -dden_dth / denom ** 2
            grad[:, 0, 1] = -dden_dr / denom ** 2
            grad[:, 2, 0] = (dy_dth * denom - yx * dden_dth) / denom ** 2
            grad[:, 2, 1] = (dy_dr * denom - yx * dden_dr) / denom ** 2
            return vth, vx, grad

        jac = np.tile(np.eye(3), (m, 1, 1))
        h = 1.0 / _MT_STEPS
        for _ in range(_MT_STEPS):
            k1, l1, g1 = field(th)
            k2, l2, g2 = field(th + 0.5 * h * k1)
            k3, l3, g3 = field(th + 0.5 * h * k2)
            k4, l4, g4 = field(th + h * k3)
            th = th + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            x = x + h / 6.0 * (l1 + 2 * l2 + 2 * l3 + l4)
            j1 = np.einsum("mij,mjk->mik", g1, jac)
            j2 = np.einsum("mij,mjk->mik", g2, jac + 0.5 * h * j1)
            j3 = np.einsum("mij,mjk->mik", g3, jac + 0.5 * h * j2)
            j4 = np.einsum("mij,mjk->mik", g4, jac + h * j3)
            jac = jac + h / 6.0 * (j1 + 2 * j2 + 2 * j3 + j4)
            # monodromy gluing when theta passes 2 pi: x gains tau(r), so the
            # differential adds tau' times the r row to the x row
            wrap = th >= TWO_PI
            if wrap.any():
                idx = np.flatnonzero(wrap)
                th[idx] -= TWO_PI
                x[idx] = x[idx] + tau.v[idx]
                jac[idx, 2] += tau.d1[idx, None] * jac[idx, 1]
        return np.stack([th, r, x], axis=1), jac

    def step(states):
        return step_jacobian(states)[0]

    def sampler(m, rng):
        st = np.empty((m, 3))
        st[:, 0] = rng.random(m) * TWO_PI
        st[:, 1] = spec.r_range[0] + (spec.r_range[1] - spec.r_range[0]) * rng.random(m)
        st[:, 2] = rng.random(m) * TWO_PI
        return st

    return DiscreteSystem(3, step, step_jacobian, metric=_chart_metric,
                          sampler=sampler, period=TWO_PI,
                          name=f"reeb_mapping_torus(s={s})")


def collapse_sweep(spec: MappingTorusSpec, s_list=None, *, n_steps: int,
                   n_returns: int, gamma_horizon: int, gamma_states: int,
                   seed: int = 0, grid: int = 256, fit_tol: float = 0.01):
    """Full sweep table: volumes, return-time range, return-map spread
    across s, finite-horizon Gamma and the normalized product
    Gamma * vol^(1/2).

    Returns (rows, fit, meta).  Deterministic given (spec, seed).
    Without s_list the sweep runs up to the contact threshold s1; a spec
    whose threshold is the scan cap (k_twists 0) raises NoContactThreshold.
    A gamma estimate over GAMMA_BUDGET raises BudgetExceeded before any
    work is done.
    """
    check_gamma_budget(gamma_horizon, gamma_states)
    profiles = build_profiles(1.0, 0.1, "dim3")
    s0, s1 = contact_threshold(spec)
    if s_list is None:
        if s1 >= S_SCAN_CAP:
            raise NoContactThreshold(
                f"k_twists {spec.k_twists}: no contact threshold to sweep up "
                "to (the scan cap); pass s_list")
        s_list = list(np.linspace(s1 / n_steps, s1, n_steps))
    rows, fit = collapse_volumes(spec, profiles, s_list, grid=grid,
                                 fit_tol=fit_tol)
    rng = np.random.default_rng(seed)
    starts = np.stack([
        spec.r_range[0] + (spec.r_range[1] - spec.r_range[0]) * rng.random(n_returns),
        rng.random(n_returns) * TWO_PI,
    ], axis=1)
    images = []
    for row in rows:
        s = row["s"]
        times = np.empty(n_returns)
        imgs = np.empty((n_returns, 2))
        for i, (r, x) in enumerate(starts):
            t, im = return_map_and_time(spec, (r, x), s)
            times[i] = t
            imgs[i] = im
        images.append(imgs)
        row["T_s_min"] = float(times.min())
        row["T_s_max"] = float(times.max())
        mt_sys = mapping_torus_system(spec, s)
        st_sys = solid_torus_system(profiles, s)
        g_mt = gamma_plus(mt_sys, gamma_horizon, gamma_states, seed).value
        g_st = gamma_plus(st_sys, gamma_horizon, gamma_states, seed).value
        row["gamma_est"] = max(g_mt, g_st)
        _, scaled = normalize_form(row["vol_total"], 1, row["gamma_est"])
        row["gamma_times_vol_pow"] = scaled
    spread = 0.0
    base = images[0]
    for imgs in images[1:]:
        d = np.abs(imgs - base)
        d[:, 1] = np.minimum(d[:, 1] % TWO_PI, TWO_PI - (d[:, 1] % TWO_PI))
        spread = max(spread, float(d.max()))
    meta = {"s0": s0, "s1": s1, "return_map_spread": spread}
    return rows, fit, meta
