"""Command-line interface: every module as a subcommand with reproducible
seeds and CSV/JSON emission.

Click is the only argument layer: it types, bounds and defaults each option
once, and `--help` prints the bounds.  Rules that tie options together, and
the `--n`/`--genus`/`--delta` lists, are checked in the subcommands.
`--tol fit=X` sets the volume-fit tolerance and goes with `collapse` only.

Exit codes: 0 success, 1 usage error (every argument error, click's
included, and a run over an estimator's work budget, reported as one
line on stderr), 2 validation failure (a numeric invariant violated at
run time); any other error ends in a traceback.
All output is deterministic for a fixed (argv, seed).

Importing this module loads no layer but entropy_bounds: each command
imports what it runs, so `constants`, `bounds`, `verovic` and `spectrum`
load no numpy.
"""

import csv
import hashlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass, field

import click
from click import UsageError
from click.core import ParameterSource

from . import MAX_TWISTS
from . import entropy_bounds as eb

# relative residual allowed to the collapse volume fit, unless --tol fit=X
_FIT_TOL = 0.01
# trajectories per Gamma estimate in a collapse sweep
_GAMMA_STATES = 24
# most values a list option may ask for: the --n and --genus ranges, the
# k = 2..K of `verovic --k-max K`, and collapse's --steps and --returns
_MAX_VALUES = 10_000
_MAX_RADIUS = 1_000_000  # largest hvol --horizon; past it the fit residual is rounding
# largest collapse --grid: the volume integrals hold about 130 B per point
# of the grid x grid mesh, so 2,048 per axis is about 0.5 GB
_MAX_GRID = 2_048

# The layer functions that perfbench's tracer wraps on this module, each
# bound on first access (PEP 562); the commands call them as attributes of
# `_this`, so a wrapper bound after the import is the one that runs.  The
# shim goes when the program traces itself (ROADMAP A).
_TRACED = {"collapse_sweep": ".reeb_collapse.sweep", **dict.fromkeys([
    "inner_loewner", "irreversibility_ratio", "outer_loewner", "polar_dual",
    "sigma_starshapedness", "volume"], ".convex_body")}
_this = sys.modules[__name__]


def __getattr__(name):
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(_TRACED[name], __package__)
    globals()[name] = getattr(module, name)
    return globals()[name]


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
        cols = list(dict.fromkeys(key for row in rows for key in row))
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


# (module, class, exit code) of the layer errors run() reports, looked up in
# sys.modules, as a layer's error implies its module is loaded: a work budget
# (1, before its base class) or a numeric invariant checked at run time (2)
_LAYER_ERRORS = [
    (".entropy_estimators", "BudgetExceeded", 1),
    (".entropy_estimators", "EstimatorError", 2),
    (".reeb_collapse.forms", "FormsError", 2),
    (".reeb_collapse.profiles", "ProfileError", 2),
]


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
    except ValidationFailure as exc:
        _fail(fmt, str(exc))
        return 2
    except Exception as exc:
        for module, name, code in _LAYER_ERRORS:
            if isinstance(exc, getattr(sys.modules.get(__package__ + module), name, ())):
                _fail(fmt, f"usage error: {exc}" if code == 1 else str(exc))
                return code
        raise


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


class _FiniteRange(click.FloatRange):
    """A finite float in a range that --help shows."""

    def convert(self, value, param, ctx):
        return super().convert(_Finite().convert(value, param, ctx), param, ctx)


class _FitTolerance(_FiniteRange):
    """`fit=VALUE`, the one tolerance `--tol` overrides."""

    def convert(self, value, param, ctx):
        key, _, number = value.partition("=")
        if key != "fit":
            self.fail(f"only fit=VALUE is known, got {value!r}", param, ctx)
        return super().convert(number, param, ctx)


class _Entropia(click.Group):
    """The `entropia` group.  Every invocation goes through run(), so
    click's own usage errors exit 1 with one line, as ours do, with or
    without click's standalone mode."""

    def main(self, args=None, **_):
        sys.exit(run(sys.argv[1:] if args is None else args))


# ------------------------------------------------------------------- click

@click.group(cls=_Entropia, no_args_is_help=False)
@click.option("--seed", default=0, type=click.IntRange(min=0), show_default=True,
              help="Seed for every stochastic component.")
@click.option("--out", default=None, type=str, help="Output path (default stdout).")
@click.option("--format", "fmt", default="csv",
              type=click.Choice(["csv", "json"]), show_default=True)
@click.option("--tol", multiple=True, type=_FitTolerance(min=0, min_open=True),
              metavar="fit=VALUE",
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
@click.option("--k-max", default=6, show_default=True,
              type=click.IntRange(2, _MAX_VALUES))
@click.pass_obj
def verovic(config, k_max):
    """Rank-k symmetric-space constants."""
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
    from .convex_body import BodyError, StarBody

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


def _body_rows(star) -> list:
    """The rows of `bodies` for one StarBody; a failed body operation
    raises BodyError."""
    import numpy as np

    from .convex_body import BodyError, is_convex

    rows = []

    def add(name, value, formula, tol):
        rows.append({"name": name, "value": repr(float(value)),
                     "inputs": json.dumps({"dim": star.dim}),
                     "formula_id": formula, "tolerance": tol})

    vol_method = "exact2d" if star.dim == 2 else "radial_quadrature"
    with np.errstate(over="ignore", invalid="ignore"):
        vol = _this.volume(star, vol_method)
    # the hulls and ellipsoid fits take determinants that scale as vol^2
    if not sys.float_info.min < vol * vol < math.inf:
        raise BodyError(f"the {vol_method} volume {vol:.3g} of radial up to "
                        f"{star.radial.max():.3g} squared leaves the float range")
    add("volume", vol, vol_method, 0.0)
    sigma, _ = _this.sigma_starshapedness(star)
    add("sigma_upper", sigma, "sigma_starshapedness", 0.0)
    if is_convex(star):
        add("theta", _this.irreversibility_ratio(star), "irreversibility_ratio", 0.0)
        outer = _this.outer_loewner(star)
        add("outer_loewner_volume", outer.volume, "outer_loewner", 1e-6)
        if star.is_symmetric(tol=1e-7):
            inner = _this.inner_loewner(star)
            add("inner_loewner_volume", inner.volume, "inner_loewner", 1e-6)
        dual = _this.polar_dual(star)
        add("santalo_product",
            vol * _this.volume(dual, vol_method),
            "santalo", 1e-3)
    return rows


@main.command()
@click.option("--s-min", default=None, type=_FiniteRange(min=0, min_open=True))
@click.option("--s-max", default=None, type=_FiniteRange(min=0, min_open=True))
@click.option("--steps", default=8, show_default=True,
              type=click.IntRange(2, _MAX_VALUES))
@click.option("--twists", default=1, show_default=True,
              type=click.IntRange(-MAX_TWISTS, MAX_TWISTS))
@click.option("--returns", default=32, show_default=True,
              type=click.IntRange(1, _MAX_VALUES))
@click.option("--horizon", default=16, show_default=True,
              type=click.IntRange(min=8))
@click.option("--grid", default=256, show_default=True,
              type=click.IntRange(1, _MAX_GRID),
              help="Quadrature grid per axis for the volume integrals.")
@click.option("--spec", default=None, type=str,
              help="Path to a MappingTorusSpec JSON file.")
@click.pass_obj
def collapse(config, s_min, s_max, steps, twists, returns, horizon, grid, spec):
    """Entropy-collapse sweep over the contact parameter s."""
    from .reeb_collapse import FormsError, MappingTorusSpec

    args = {"steps": steps, "twists": twists, "returns": returns,
            "horizon": horizon, "grid": grid, "spec": spec}
    if (s_min is None) != (s_max is None):
        raise UsageError("--s-min and --s-max must be given together")
    if spec and click.get_current_context().get_parameter_source(
            "twists") is ParameterSource.COMMANDLINE:
        raise UsageError("--twists and --spec cannot be given together: "
                         "the spec file sets k_twists")
    if spec:
        try:
            with open(spec) as fh:
                mt_spec = MappingTorusSpec.from_json(json.load(fh))
        except (OSError, ValueError, TypeError, AttributeError, FormsError) as exc:
            raise UsageError(
                f"cannot read --spec {spec}: {type(exc).__name__}: {exc}") from exc
    else:
        mt_spec = MappingTorusSpec(k_twists=twists)
    if s_min is None and mt_spec.k_twists == 0:
        # trivial monodromy: no contact threshold bounds the default sweep
        raise UsageError("collapse with k_twists 0 has no contact threshold "
                         "to sweep up to; give --s-min and --s-max")
    s_list = None
    if s_min is not None:
        if not s_min < s_max:
            raise UsageError(
                f"--s-min must be below --s-max, got {s_min} and {s_max}")
        import numpy as np
        s_list = list(np.linspace(s_min, s_max, steps))
        # an omitted --s-min/--s-max stays out of the config hash
        args.update(s_min=s_min, s_max=s_max)
    fit_tol = config.args["tol"]["fit"] if "tol" in config.args else _FIT_TOL
    rows, fit, _ = _this.collapse_sweep(
        mt_spec, s_list=s_list, n_steps=steps,
        n_returns=returns, gamma_horizon=horizon,
        gamma_states=_GAMMA_STATES, seed=config.seed, grid=grid, fit_tol=fit_tol)
    out = [{**{k: repr(float(v)) for k, v in row.items()},
            "formula_id": "collapse_sweep", "tolerance": fit["residual"]}
           for row in rows]
    _emit(config, out, **args)


_SYSTEMS = ("cat", "rotation", "doubling")


@main.command()
@click.option("--system", default="cat", show_default=True,
              type=click.Choice([*_SYSTEMS, "reeb-solid-torus", "hyperbolic"]))
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
    from . import entropy_estimators as ee

    if horizon is None:
        horizon = 8 if what == "htop" else 48
    try:
        deltas = [float(x) for x in delta.split(",")]
    except ValueError:
        raise UsageError(
            f"--delta expects comma-separated numbers, got {delta!r}") from None
    if not all(math.isfinite(d) and d > 0.0 for d in deltas):
        raise UsageError(f"--delta values must be positive and finite, got {delta!r}")
    if (what == "hvol") != (system == "hyperbolic"):
        raise UsageError("--what hvol and --system hyperbolic go together")
    if what == "hvol":
        if not 1 <= horizon <= _MAX_RADIUS:
            raise UsageError(f"hvol needs --horizon 1 or more, up to "
                             f"{_MAX_RADIUS}, got {horizon}")
        est = ee.hvol_ball_growth(("hyperbolic",), r_max=float(horizon))
    else:
        if system == "reeb-solid-torus":
            from .reeb_collapse import build_profiles
            from .reeb_collapse.sweep import solid_torus_system

            profiles = build_profiles(1.0, 0.1, "dim3")
            sys_ = solid_torus_system(profiles, s=0.05)
            # its chart metric: two angles mod 2 pi and r in [0, r_eps]
            diameter = math.hypot(math.pi, math.pi, profiles.r_eps)
        else:
            sys_ = {"cat": ee.cat_system, "doubling": ee.doubling_system,
                    "rotation": lambda: ee.rotation_system(0.37)}[system]()
            # the unit torus under torus_metric
            diameter = math.sqrt(sys_.state_dim) / 2.0
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
