"""Command-line interface: every module as a subcommand with reproducible
seeds and CSV/JSON emission.

Exit codes: 0 success, 1 usage error, 2 validation failure (a numeric
invariant violated at run time); any other error ends in a traceback.
All output is deterministic for a fixed (argv, seed).
"""

import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from . import entropy_bounds as eb
from . import entropy_estimators as ee
from .convex_body import (
    StarBody,
    inner_loewner,
    irreversibility_ratio,
    outer_loewner,
    polar_dual,
    sigma_starshapedness,
    volume,
)
from .reeb_collapse import FormsError, MappingTorusSpec, build_profiles
from .reeb_collapse.profiles import ProfileError
from .reeb_collapse.sweep import collapse_sweep


@dataclass
class RunConfig:
    subcommand: str
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"
    args: dict = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps(
            {"cmd": self.subcommand, "seed": self.seed, "args": self.args},
            sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _emit(config: RunConfig, rows: list):
    """Serialize rows (list of dicts) as CSV or JSON with the config hash."""
    cfg = config.digest()
    for row in rows:
        row["config"] = cfg
    if config.fmt == "json":
        payload = json.dumps(rows, indent=None, sort_keys=True) + "\n"
    else:
        cols = []
        for row in rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        payload = buf.getvalue()
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _report_rows(reports):
    return [
        {"name": r.name, "value": repr(r.value),
         "inputs": json.dumps(r.inputs, sort_keys=True),
         "formula_id": r.formula_id, "tolerance": r.tolerance}
        for r in reports
    ]


class ValidationFailure(Exception):
    pass


class UsageError(ValueError):
    """Bad command-line input (exit 1)."""


# numeric invariants that the collapse and estimate layers check at run time
_VALIDATION_ERRORS = (ValidationFailure, FormsError, ProfileError,
                      ee.EstimatorError)


def run(config: RunConfig) -> int:
    """Dispatch a RunConfig; returns the process exit code.  Any exception
    other than a usage error or a validation failure propagates."""
    try:
        rows = _dispatch(config)
        _emit(config, rows)
        return 0
    except UsageError as exc:
        _fail(config, f"usage error: {exc}")
        return 1
    except _VALIDATION_ERRORS as exc:
        _fail(config, str(exc))
        return 2


def _fail(config, message):
    if config.fmt == "json":
        sys.stderr.write(json.dumps({"error": message}) + "\n")
    else:
        sys.stderr.write(message + "\n")


def _parse_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _dispatch(config: RunConfig) -> list:
    cmd = config.subcommand
    a = config.args
    if cmd == "collapse":
        return _collapse_rows(a, config.seed)
    if cmd == "estimate":
        return _estimate_rows(a, config.seed)
    if cmd not in _REPORTS:
        raise UsageError(f"unknown subcommand {cmd}")
    # the report layers check their own inputs: every error they raise
    # short of a validation failure is a usage error
    try:
        return _REPORTS[cmd](a)
    except (eb.BoundsError, ValueError, KeyError) as exc:
        raise UsageError(str(exc)) from exc


def _spectrum_rows(a) -> list:
    v, h, n, c = (float(a["v_bar"]), float(a["h"]), int(a["n"]),
                  float(a["c"]))
    try:
        delta = eb.spectrum_tuner(v, h, n, c)
    except eb.TargetBelowRange as exc:
        raise ValidationFailure(str(exc)) from exc
    check = eb.spectrum_value(v, h, n, delta)
    return [{"name": "delta", "value": repr(delta),
             "inputs": json.dumps({"v_bar": v, "h": h, "n": n, "c": c}),
             "formula_id": "spectrum_tuner",
             "tolerance": abs(check - c) / c}]


def _bodies_rows(a) -> list:
    path = a.get("body")
    if path:
        with open(path) as fh:
            body = StarBody.from_json(fh.read())
    else:
        body = StarBody.ball(2)
    rows = []

    def add(name, value, formula, tol):
        rows.append({"name": name, "value": repr(float(value)),
                     "inputs": json.dumps({"dim": body.dim}),
                     "formula_id": formula, "tolerance": tol})

    vol_method = "exact2d" if body.dim == 2 else "radial_quadrature"
    add("volume", volume(body, vol_method), vol_method, 0.0)
    sigma, _ = sigma_starshapedness(body)
    add("sigma_upper", sigma, "sigma_starshapedness", 0.0)
    from .convex_body import is_convex

    if is_convex(body):
        add("theta", irreversibility_ratio(body), "irreversibility_ratio", 0.0)
        outer = outer_loewner(body)
        add("outer_loewner_volume", outer.volume, "outer_loewner", 1e-6)
        if body.is_symmetric(tol=1e-7):
            inner = inner_loewner(body)
            add("inner_loewner_volume", inner.volume, "inner_loewner", 1e-6)
        dual = polar_dual(body)
        add("santalo_product",
            volume(body, vol_method) * volume(dual, vol_method),
            "santalo", 1e-3)
    return rows


_REPORTS = {
    "constants": lambda a: _report_rows(
        eb.constants_report(_parse_range(a.get("n", "2..6")))),
    "bounds": lambda a: _report_rows(
        eb.floors_report(_parse_range(a.get("genus", "2..5")))),
    "verovic": lambda a: _report_rows(eb.verovic_report(int(a.get("k_max", 6)))),
    "sl3": lambda a: _report_rows(eb.sl3_report()),
    "spectrum": _spectrum_rows,
    "bodies": _bodies_rows,
}


def _collapse_rows(a, seed) -> list:
    s_min = a.get("s_min")
    s_max = a.get("s_max")
    if (s_min is None) != (s_max is None):
        raise UsageError("--s-min and --s-max must be given together")
    try:
        if a.get("spec"):
            with open(a["spec"]) as fh:
                spec = MappingTorusSpec.from_json(json.load(fh))
        else:
            spec = MappingTorusSpec(k_twists=int(a.get("twists", 1)))
        steps, returns, grid, horizon, states = (
            int(a.get(key, default)) for key, default in
            (("steps", 8), ("returns", 32), ("grid", 256), ("horizon", 16),
             ("states", 24)))
        fit_tol = float(a.get("tol", {}).get("fit", 0.01))
        s_bounds = None if s_min is None else (float(s_min), float(s_max))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    if min(steps, returns, grid) < 1:
        raise UsageError("--steps, --returns and --grid must be at least 1")
    if horizon < 8:
        raise UsageError(f"collapse needs --horizon 8 or more, got {horizon}")
    s_list = None
    if s_bounds is not None:
        for flag, value in zip(("--s-min", "--s-max"), s_bounds):
            if not value > 0.0:
                raise UsageError(f"{flag} must be positive, got {value}")
        s_list = list(np.linspace(*s_bounds, steps))
    rows, fit, meta = collapse_sweep(
        spec, s_list=s_list, n_steps=steps,
        n_returns=returns, gamma_horizon=horizon,
        gamma_states=states, seed=seed, grid=grid, fit_tol=fit_tol)
    out = []
    for row in rows:
        out.append({k: repr(float(v)) for k, v in row.items()})
        out[-1]["formula_id"] = "collapse_sweep"
        out[-1]["tolerance"] = fit["residual"]
    return out


_SYSTEMS = {
    "cat": ee.cat_system,
    "rotation": lambda: ee.rotation_system(0.37),
    "doubling": ee.doubling_system,
}


def _estimate_rows(a, seed) -> list:
    what = a.get("what", "gamma")
    name = a.get("system", "cat")
    try:
        horizon = int(a.get("horizon", 48))
        deltas = [float(x) for x in a.get("delta", "0.3,0.2").split(",")]
        cloud = int(a.get("cloud", 20000))
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    rows = []
    if what == "hvol":
        if name != "hyperbolic":
            raise UsageError("hvol estimates support the hyperbolic geometry")
        est = ee.hvol_ball_growth(("hyperbolic",), r_max=float(horizon))
    else:
        if name == "reeb-solid-torus":
            from .reeb_collapse.sweep import solid_torus_system

            profiles = build_profiles(1.0, 0.1, "dim3")
            sys_ = solid_torus_system(profiles, s=0.05)
        elif name in _SYSTEMS:
            sys_ = _SYSTEMS[name]()
        else:
            raise UsageError(f"unknown system {name}")
        if what == "gamma":
            if horizon < 8:
                raise UsageError(f"gamma needs --horizon 8 or more, got {horizon}")
            est = ee.gamma_plus(sys_, horizon, seed=seed)
        elif what == "htop":
            if not 1 <= horizon <= 8:
                raise UsageError(f"htop needs --horizon from 1 to 8, got {horizon}")
            try:
                est = ee.htop_separated(sys_, deltas, horizon,
                                        n_candidates=cloud, seed=seed)
            except ee.BudgetExceeded as exc:
                # the budget caps --cloud x --delta x --horizon: an input size
                raise UsageError(str(exc)) from exc
        else:
            raise UsageError(f"unknown estimate {what}")
    rows.append({
        "name": f"{what}({name})", "value": repr(est.value),
        "inputs": json.dumps({"horizon": est.horizon, "samples": est.samples,
                              "delta": est.delta}),
        "formula_id": what, "tolerance": est.fit_residual,
    })
    return rows


# ------------------------------------------------------------------- click

@click.group()
@click.option("--seed", default=0, type=int, show_default=True,
              help="Seed for every stochastic component.")
@click.option("--out", default=None, type=str, help="Output path (default stdout).")
@click.option("--format", "fmt", default="csv",
              type=click.Choice(["csv", "json"]), show_default=True)
@click.option("--tol", multiple=True, metavar="KEY=VALUE",
              help="Tolerance overrides, e.g. --tol fit=0.02 (repeatable).")
@click.pass_context
def main(ctx, seed, out, fmt, tol):
    """Entropy machinery: constants, bounds, bodies, collapse, estimates."""
    overrides = {}
    for item in tol:
        key, _, value = item.partition("=")
        overrides[key] = float(value)
    ctx.obj = {"seed": seed, "out": out, "fmt": fmt, "tol": overrides}


def _run_and_exit(ctx, subcommand, args):
    args = dict(args)
    if ctx.obj["tol"]:
        args["tol"] = ctx.obj["tol"]
    config = RunConfig(subcommand, ctx.obj["seed"], ctx.obj["out"],
                       ctx.obj["fmt"], args)
    sys.exit(run(config))


@main.command()
@click.option("--n", default="2..6", show_default=True)
@click.pass_context
def constants(ctx, n):
    """Dimension constants c_n."""
    _run_and_exit(ctx, "constants", {"n": n})


@main.command()
@click.option("--genus", default="2..5", show_default=True)
@click.pass_context
def bounds(ctx, genus):
    """Katok and Finsler entropy floors."""
    _run_and_exit(ctx, "bounds", {"genus": genus})


@main.command()
@click.option("--k-max", default=6, show_default=True)
@click.pass_context
def verovic(ctx, k_max):
    """Rank-k symmetric-space constants."""
    _run_and_exit(ctx, "verovic", {"k_max": k_max})


@main.command()
@click.pass_context
def sl3(ctx):
    """SL(3)/SO(3) hexagon constants."""
    _run_and_exit(ctx, "sl3", {})


@main.command()
@click.option("--v-bar", required=True, type=float)
@click.option("--h", required=True, type=float)
@click.option("--n", required=True, type=int)
@click.option("--c", required=True, type=float)
@click.pass_context
def spectrum(ctx, v_bar, h, n, c):
    """Solve the entropy-spectrum tuning equation for delta."""
    _run_and_exit(ctx, "spectrum", {"v_bar": v_bar, "h": h, "n": n, "c": c})


@main.command()
@click.option("--body", default=None, type=str,
              help="Path to a body JSON file (default: unit disk).")
@click.pass_context
def bodies(ctx, body):
    """Convex-geometric summary of a star body."""
    _run_and_exit(ctx, "bodies", {"body": body})


@main.command()
@click.option("--s-min", default=None, type=float)
@click.option("--s-max", default=None, type=float)
@click.option("--steps", default=8, show_default=True)
@click.option("--twists", default=1, show_default=True)
@click.option("--returns", default=32, show_default=True)
@click.option("--horizon", default=16, show_default=True)
@click.option("--grid", default=256, show_default=True,
              help="Quadrature grid per axis for the volume integrals.")
@click.option("--spec", "spec_file", default=None, type=str,
              help="Path to a MappingTorusSpec JSON file.")
@click.pass_context
def collapse(ctx, s_min, s_max, steps, twists, returns, horizon, grid,
             spec_file):
    """Entropy-collapse sweep over the contact parameter s."""
    args = {"steps": steps, "twists": twists, "returns": returns,
            "horizon": horizon, "grid": grid, "spec": spec_file}
    if s_min is not None:
        args["s_min"] = s_min
    if s_max is not None:
        args["s_max"] = s_max
    _run_and_exit(ctx, "collapse", args)


@main.command()
@click.option("--system", default="cat", show_default=True)
@click.option("--what", default="gamma", show_default=True,
              type=click.Choice(["htop", "hvol", "gamma"]))
@click.option("--horizon", default=None, type=int,
              help="Steps or radius [default: 48; 8 for htop].")
@click.option("--delta", default="0.3,0.2", show_default=True)
@click.option("--cloud", default=20000, show_default=True,
              help="Candidate cloud size for separated-set estimates.")
@click.pass_context
def estimate(ctx, system, what, horizon, delta, cloud):
    """Finite-horizon entropy and norm-growth estimates."""
    if horizon is None:
        horizon = 8 if what == "htop" else 48
    _run_and_exit(ctx, "estimate",
                  {"system": system, "what": what, "horizon": horizon,
                   "delta": delta, "cloud": cloud})


if __name__ == "__main__":
    main()
