"""Command-line interface: every module as a subcommand with reproducible
seeds and CSV/JSON emission.

Click is the only argument layer: it types and defaults every option once
and hands the typed values to the subcommand, which builds its rows from
them.  The `--n`/`--genus` ranges and the `--delta` list are parsed once,
in their subcommands.  `--tol fit=X` overrides the volume-fit tolerance of
`collapse` and is accepted with `collapse` only.

Exit codes: 0 success, 1 usage error (every argument error, click's
included, and a run over an estimator's work budget, reported as one
line on stderr), 2 validation failure (a numeric invariant violated at
run time); any other error ends in a traceback.
All output is deterministic for a fixed (argv, seed).
"""

import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field

import click
import numpy as np
from click import UsageError

from . import entropy_bounds as eb
from . import entropy_estimators as ee
from .convex_body import (
    BodyError,
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

# relative residual allowed to the collapse volume fit, unless --tol fit=X
_FIT_TOL = 0.01
# trajectories per Gamma estimate in a collapse sweep
_GAMMA_STATES = 24
# most values a list option may ask for: the --n and --genus ranges, the
# k = 2..K of `verovic --k-max K`, and collapse's --steps and --returns
_MAX_VALUES = 10_000
# largest collapse --grid: the volume integrals hold about 130 B per point
# of the grid x grid mesh, so 2,048 per axis is about 0.5 GB
_MAX_GRID = 2_048


@dataclass
class RunConfig:
    """What the `config` column hashes: the subcommand, the seed and the
    typed option values in args."""

    subcommand: str
    seed: int
    out: str | None
    fmt: str
    args: dict = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps(
            {"cmd": self.subcommand, "seed": self.seed, "args": self.args},
            sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _emit(config: RunConfig, rows: list, **args):
    """Serialize rows (list of dicts) as CSV or JSON with the config hash;
    args are the subcommand's option values."""
    config.args.update(args)
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
        try:
            with open(config.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write --out {config.out}: "
                             f"{type(exc).__name__}: {exc}") from exc
    else:
        sys.stdout.write(payload)


class ValidationFailure(Exception):
    pass


# numeric invariants that the collapse and estimate layers check at run time
_VALIDATION_ERRORS = (ValidationFailure, FormsError, ProfileError,
                      ee.EstimatorError)


def run(argv) -> int:
    """Parse argv, run the subcommand and emit its rows; returns the process
    exit code.  Any exception other than a usage error or a validation
    failure propagates."""
    fmt = None  # errors before --format is parsed are plain text
    try:
        with main.make_context("entropia", list(argv)) as ctx:
            fmt = ctx.params["fmt"]
            main.invoke(ctx)
        return 0
    except click.exceptions.Exit as exc:  # --help
        return exc.exit_code
    except UsageError as exc:
        _fail(fmt, f"usage error: {exc.format_message()}")
        return 1
    except ee.BudgetExceeded as exc:
        # the htop and gamma work budgets cap input sizes, not invariants
        _fail(fmt, f"usage error: {exc}")
        return 1
    except _VALIDATION_ERRORS as exc:
        _fail(fmt, str(exc))
        return 2


def _fail(fmt, message):
    if fmt == "json":
        sys.stderr.write(json.dumps({"error": message}) + "\n")
    else:
        sys.stderr.write(message + "\n")


def _parse_range(flag: str, text: str) -> list:
    """'LO..HI' (inclusive) or 'N' as a non-empty list of at most
    _MAX_VALUES ints."""
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise UsageError(f"{flag} expects N or LO..HI, got {text!r}") from None
    if hi < lo:
        raise UsageError(f"{flag} range {text} is empty")
    if hi - lo >= _MAX_VALUES:
        raise UsageError(f"{flag} range {text} has {hi - lo + 1} values, "
                         f"more than {_MAX_VALUES}")
    return list(range(lo, hi + 1))


def _report_rows(report, *args) -> list:
    """Rows of an entropy_bounds report.  The report layer checks its own
    inputs, so every error it raises is a usage error."""
    try:
        reports = report(*args)
    except (eb.BoundsError, ValueError, KeyError) as exc:
        raise UsageError(str(exc)) from exc
    return [
        {"name": r.name, "value": repr(r.value),
         "inputs": json.dumps(r.inputs, sort_keys=True),
         "formula_id": r.formula_id, "tolerance": r.tolerance}
        for r in reports
    ]


class _Finite(click.ParamType):
    """A float that must be finite: nan and inf are usage errors."""

    name = "float"

    def convert(self, value, param, ctx):
        number = click.FLOAT.convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return number


class _FitTolerance(_Finite):
    """`fit=VALUE`, the one tolerance `--tol` overrides; VALUE > 0."""

    name = "fit=VALUE"

    def convert(self, value, param, ctx):
        key, _, number = value.partition("=")
        if key != "fit":
            self.fail(f"only fit=VALUE is known, got {value!r}", param, ctx)
        tol = super().convert(number, param, ctx)
        if not tol > 0.0:
            self.fail(f"fit must be positive, got {value!r}", param, ctx)
        return tol


class _Entropia(click.Group):
    """The `entropia` group.  Every invocation goes through run(), so
    click's own usage errors exit 1 with one line, as ours do, with or
    without click's standalone mode."""

    def main(self, args=None, **_):
        sys.exit(run(sys.argv[1:] if args is None else args))


# ------------------------------------------------------------------- click

@click.group(cls=_Entropia, no_args_is_help=False)
@click.option("--seed", default=0, type=int, show_default=True,
              help="Seed for every stochastic component.")
@click.option("--out", default=None, type=str, help="Output path (default stdout).")
@click.option("--format", "fmt", default="csv",
              type=click.Choice(["csv", "json"]), show_default=True)
@click.option("--tol", multiple=True, type=_FitTolerance(), metavar="fit=VALUE",
              help="collapse only: the volume fit's relative residual bound "
                   f"[default: fit={_FIT_TOL}]; the last one given wins.")
@click.pass_context
def main(ctx, seed, out, fmt, tol):
    """Entropy machinery: constants, bounds, bodies, collapse, estimates."""
    ctx.obj = RunConfig(ctx.invoked_subcommand, seed, out, fmt)
    if tol:
        if ctx.invoked_subcommand != "collapse":
            raise UsageError("--tol applies to collapse only")
        ctx.obj.args["tol"] = {"fit": tol[-1]}


@main.command()
@click.option("--n", default="2..6", show_default=True)
@click.pass_obj
def constants(config, n):
    """Dimension constants c_n."""
    _emit(config, _report_rows(eb.constants_report, _parse_range("--n", n)), n=n)


@main.command()
@click.option("--genus", default="2..5", show_default=True)
@click.pass_obj
def bounds(config, genus):
    """Katok and Finsler entropy floors."""
    _emit(config, _report_rows(eb.floors_report, _parse_range("--genus", genus)),
          genus=genus)


@main.command()
@click.option("--k-max", default=6, show_default=True, type=click.IntRange(min=2))
@click.pass_obj
def verovic(config, k_max):
    """Rank-k symmetric-space constants."""
    if k_max > _MAX_VALUES:
        raise UsageError(f"--k-max {k_max} is above {_MAX_VALUES}")
    _emit(config, _report_rows(eb.verovic_report, k_max), k_max=k_max)


@main.command()
@click.pass_obj
def sl3(config):
    """SL(3)/SO(3) hexagon constants."""
    _emit(config, _report_rows(eb.sl3_report))


@main.command()
@click.option("--v-bar", required=True, type=_Finite())
@click.option("--h", required=True, type=_Finite())
@click.option("--n", required=True, type=int)
@click.option("--c", required=True, type=_Finite())
@click.pass_obj
def spectrum(config, v_bar, h, n, c):
    """Solve the entropy-spectrum tuning equation for delta."""
    try:
        delta = eb.spectrum_tuner(v_bar, h, n, c)
        check = eb.spectrum_value(v_bar, h, n, delta)
    except eb.TargetBelowRange as exc:
        raise ValidationFailure(str(exc)) from exc
    except eb.BoundsError as exc:
        raise UsageError(str(exc)) from exc
    _emit(config, [{"name": "delta", "value": repr(delta),
                    "inputs": json.dumps({"v_bar": v_bar, "h": h, "n": n, "c": c}),
                    "formula_id": "spectrum_tuner",
                    "tolerance": abs(check - c) / c}],
          v_bar=v_bar, h=h, n=n, c=c)


@main.command()
@click.option("--body", default=None, type=str,
              help="Path to a body JSON file (default: unit disk).")
@click.pass_obj
def bodies(config, body):
    """Convex-geometric summary of a star body."""
    if body:
        try:
            with open(body) as fh:
                star = StarBody.from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError, BodyError) as exc:
            raise UsageError(
                f"cannot read --body {body}: {type(exc).__name__}: {exc}") from exc
    else:
        star = StarBody.ball(2)
    try:
        rows = _body_rows(star)
    except BodyError as exc:
        raise ValidationFailure(f"bodies: {type(exc).__name__}: {exc}") from exc
    _emit(config, rows, body=body)


def _body_rows(star: StarBody) -> list:
    """The rows of `bodies` for one star body; a failed body operation
    raises BodyError."""
    rows = []

    def add(name, value, formula, tol):
        rows.append({"name": name, "value": repr(float(value)),
                     "inputs": json.dumps({"dim": star.dim}),
                     "formula_id": formula, "tolerance": tol})

    vol_method = "exact2d" if star.dim == 2 else "radial_quadrature"
    add("volume", volume(star, vol_method), vol_method, 0.0)
    sigma, _ = sigma_starshapedness(star)
    add("sigma_upper", sigma, "sigma_starshapedness", 0.0)
    from .convex_body import is_convex

    if is_convex(star):
        add("theta", irreversibility_ratio(star), "irreversibility_ratio", 0.0)
        outer = outer_loewner(star)
        add("outer_loewner_volume", outer.volume, "outer_loewner", 1e-6)
        if star.is_symmetric(tol=1e-7):
            inner = inner_loewner(star)
            add("inner_loewner_volume", inner.volume, "inner_loewner", 1e-6)
        dual = polar_dual(star)
        add("santalo_product",
            volume(star, vol_method) * volume(dual, vol_method),
            "santalo", 1e-3)
    return rows


@main.command()
@click.option("--s-min", default=None, type=_Finite())
@click.option("--s-max", default=None, type=_Finite())
@click.option("--steps", default=8, show_default=True)
@click.option("--twists", default=1, show_default=True)
@click.option("--returns", default=32, show_default=True)
@click.option("--horizon", default=16, show_default=True)
@click.option("--grid", default=256, show_default=True,
              help="Quadrature grid per axis for the volume integrals.")
@click.option("--spec", default=None, type=str,
              help="Path to a MappingTorusSpec JSON file.")
@click.pass_obj
def collapse(config, s_min, s_max, steps, twists, returns, horizon, grid, spec):
    """Entropy-collapse sweep over the contact parameter s."""
    args = {"steps": steps, "twists": twists, "returns": returns,
            "horizon": horizon, "grid": grid, "spec": spec}
    if (s_min is None) != (s_max is None):
        raise UsageError("--s-min and --s-max must be given together")
    if spec:
        try:
            with open(spec) as fh:
                mt_spec = MappingTorusSpec.from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                FormsError) as exc:
            raise UsageError(
                f"cannot read --spec {spec}: {type(exc).__name__}: {exc}") from exc
    else:
        mt_spec = MappingTorusSpec(k_twists=twists)
    if min(steps, returns, grid) < 1:
        raise UsageError("--steps, --returns and --grid must be at least 1")
    for flag, value, cap in (("--steps", steps, _MAX_VALUES),
                             ("--returns", returns, _MAX_VALUES),
                             ("--grid", grid, _MAX_GRID)):
        if value > cap:
            raise UsageError(f"{flag} {value} is above {cap}")
    if steps < 2:
        raise UsageError("collapse fits vol(s) = a s + b s^2 and needs --steps 2 or more")
    if horizon < 8:
        raise UsageError(f"collapse needs --horizon 8 or more, got {horizon}")
    if s_min is None and mt_spec.k_twists == 0:
        # trivial monodromy: no contact threshold bounds the default sweep
        raise UsageError("collapse with k_twists 0 has no contact threshold "
                         "to sweep up to; give --s-min and --s-max")
    s_list = None
    if s_min is not None:
        for flag, value in (("--s-min", s_min), ("--s-max", s_max)):
            if not value > 0.0:
                raise UsageError(f"{flag} must be positive, got {value}")
        if not s_min < s_max:
            raise UsageError(
                f"--s-min must be below --s-max, got {s_min} and {s_max}")
        s_list = list(np.linspace(s_min, s_max, steps))
        # an omitted --s-min/--s-max stays out of the config hash
        args.update(s_min=s_min, s_max=s_max)
    fit_tol = config.args["tol"]["fit"] if "tol" in config.args else _FIT_TOL
    rows, fit, _ = collapse_sweep(
        mt_spec, s_list=s_list, n_steps=steps,
        n_returns=returns, gamma_horizon=horizon,
        gamma_states=_GAMMA_STATES, seed=config.seed, grid=grid, fit_tol=fit_tol)
    out = []
    for row in rows:
        out.append({k: repr(float(v)) for k, v in row.items()})
        out[-1]["formula_id"] = "collapse_sweep"
        out[-1]["tolerance"] = fit["residual"]
    _emit(config, out, **args)


_SYSTEMS = {
    "cat": ee.cat_system,
    "rotation": lambda: ee.rotation_system(0.37),
    "doubling": ee.doubling_system,
}


@main.command()
@click.option("--system", default="cat", show_default=True)
@click.option("--what", default="gamma", show_default=True,
              type=click.Choice(["htop", "hvol", "gamma"]))
@click.option("--horizon", default=None, type=int,
              help="Steps or radius [default: 48; 8 for htop].")
@click.option("--delta", default="0.3,0.2", show_default=True)
@click.option("--cloud", default=20000, show_default=True,
              type=click.IntRange(min=1),
              help="Candidate cloud size for separated-set estimates.")
@click.pass_obj
def estimate(config, system, what, horizon, delta, cloud):
    """Finite-horizon entropy and norm-growth estimates."""
    if horizon is None:
        horizon = 8 if what == "htop" else 48
    try:
        deltas = [float(x) for x in delta.split(",")]
    except ValueError:
        raise UsageError(
            f"--delta expects comma-separated numbers, got {delta!r}") from None
    if not all(math.isfinite(d) and d > 0.0 for d in deltas):
        raise UsageError(f"--delta values must be positive and finite, got {delta!r}")
    if what == "hvol":
        if system != "hyperbolic":
            raise UsageError("hvol estimates support the hyperbolic geometry")
        if horizon < 1:
            raise UsageError(f"hvol needs --horizon 1 or more, got {horizon}")
        est = ee.hvol_ball_growth(("hyperbolic",), r_max=float(horizon))
    else:
        if system == "reeb-solid-torus":
            from .reeb_collapse.sweep import solid_torus_system

            profiles = build_profiles(1.0, 0.1, "dim3")
            sys_ = solid_torus_system(profiles, s=0.05)
            # its chart metric: two angles mod 2 pi and r in [0, r_eps]
            diameter = math.hypot(math.pi, math.pi, profiles.r_eps)
        elif system in _SYSTEMS:
            sys_ = _SYSTEMS[system]()
            # the unit torus under torus_metric
            diameter = math.sqrt(sys_.state_dim) / 2.0
        else:
            raise UsageError(f"unknown system {system}")
        if what == "gamma":
            if horizon < 8:
                raise UsageError(f"gamma needs --horizon 8 or more, got {horizon}")
            est = ee.gamma_plus(sys_, horizon, seed=config.seed)
        else:
            if not 1 <= horizon <= 8:
                raise UsageError(f"htop needs --horizon from 1 to 8, got {horizon}")
            # no two points are delta-separated once delta reaches the
            # chart's diameter: every count would be 1
            wide = [d for d in deltas if d >= diameter]
            if wide:
                raise UsageError(
                    f"--delta {wide[0]} is at or above the {system} chart's "
                    f"diameter {diameter:.6g}")
            est = ee.htop_separated(sys_, deltas, horizon,
                                    n_candidates=cloud, seed=config.seed)
    rows = [{
        "name": f"{what}({system})", "value": repr(est.value),
        "inputs": json.dumps({"horizon": est.horizon, "samples": est.samples,
                              "delta": est.delta}),
        "formula_id": what, "tolerance": est.fit_residual,
    }]
    _emit(config, rows, system=system, what=what, horizon=horizon,
          delta=delta, cloud=cloud)


if __name__ == "__main__":
    main()
