"""Command-line interface: every module as a subcommand with reproducible
seeds and CSV/JSON emission.

The `--flag VALUE` grammar is parsed directly, one pass per level.  Each
option is declared once, as an _Option beside its subcommand: its type,
bounds and default, which `--help` prints.  A rejected value is reported
in the words of the click-based CLI before it, which the tests pin.  Rules
that tie options together, and the `--n`/`--genus`/`--delta` lists, are
checked in the subcommands.  `--tol fit=X` sets the volume-fit tolerance
and goes with `collapse` only.

Exit codes: 0 success, 1 usage error (every argument error, a body file
whose dim is past 341, where the unit-ball volume leaves the float range,
and a run over an estimator's or a hull's work budget, reported as one line
on stderr), 2 validation failure (a numeric invariant violated at run
time); any other error ends in a traceback.  All output is deterministic
for a fixed (argv, seed).

Importing this module loads no layer: each command imports what it runs,
so `constants`, `bounds`, `verovic`, `sl3`, `spectrum`, `estimate --what
hvol` and `estimate --what gamma` on cat, doubling and rotation load no
numpy.  A linear map's Jacobian cocycle is the same matrix power A^n at
every state, so its Gamma needs no sampled states: the maximum over the
seeded grid is the value at any one of them.
"""

import gc
import importlib
import io
import json
import math
import sys

from . import MAX_TWISTS

# sha256 from CPython's built-in module, so that the config hash loads no
# OpenSSL (hashlib's _hashlib)
try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

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


class UsageError(Exception):
    """An argument the command cannot run with: exit 1."""


class ValidationFailure(Exception):
    """A numeric invariant violated at run time: exit 2."""


class RunConfig:
    """What the `config` column hashes: the subcommand, the seed and the
    typed option values in args.  `given` holds the subcommand options
    given on the command line."""

    def __init__(self, subcommand: str, seed: int, out, fmt: str, given: set):
        self.subcommand, self.seed, self.out, self.fmt = subcommand, seed, out, fmt
        self.given = given
        self.args = {}

    def digest(self) -> str:
        blob = json.dumps(
            {"cmd": self.subcommand, "seed": self.seed, "args": self.args},
            sort_keys=True)
        return sha256(blob.encode()).hexdigest()[:12]


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
        import csv

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


# (module, class, exit code) of the layer errors run() reports, looked up in
# sys.modules, as a layer's error implies its module is loaded: a work budget
# (1, before its base class) or a numeric invariant checked at run time (2)
_LAYER_ERRORS = [
    (".convex_body", "BodyBudgetExceeded", 1),
    (".entropy_bounds", "EstimateBudgetExceeded", 1),
    (".entropy_bounds", "EstimatorError", 2),
    (".reeb_collapse.forms", "FormsError", 2),
    (".reeb_collapse.profiles", "ProfileError", 2),
]


def run(argv) -> int:
    """Parse argv, run the subcommand and emit its rows; returns the process
    exit code.  Any exception other than a usage error or a validation
    failure propagates."""
    fmt = None  # errors before --format is parsed are plain text
    try:
        # the subcommand: the first token neither an option nor its value
        at, flags = 0, {option.flag for option in _OPTIONS}
        while at < len(argv) and argv[at].startswith("-"):
            at += 2 if argv[at] in flags else 1
        top, _ = _parse(None, argv[:at])
        fmt = top["format"]
        if at >= len(argv):
            raise UsageError("Missing command.")
        name = argv[at]
        if name not in COMMANDS:
            raise UsageError(f"No such command '{name}'.")
        if top["tol"] is not None and name != "collapse":
            raise UsageError("--tol applies to collapse only")
        values, given = _parse(name, argv[at + 1:])
        config = RunConfig(name, top["seed"], top["out"], fmt, given)
        if top["tol"] is not None:
            config.args["tol"] = {"fit": top["tol"]}
        COMMANDS[name](config, **values)
        return 0
    except SystemExit as exc:  # --help
        return exc.code
    except UsageError as exc:
        _fail(fmt, f"usage error: {exc}")
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


def main(args=None, **_):
    """The `entropia` console script: exits with run()'s code on argv, or
    on args.  Also bound as `main.main`, so that the click-style call
    `main.main(args=[...], prog_name="entropia", standalone_mode=False)`
    keeps working.

    On argv, the process path, the collector is frozen (gc.freeze) before
    the exit: the interpreter's final collections then skip every object
    numpy and entropia loaded, all of which the exit tears down anyway.
    atexit handlers, the stdio flush, the exit code and any traceback are
    unchanged.  A call with args, like run(), leaves the collector as it
    is."""
    if args is not None:
        sys.exit(run(args))
    try:
        sys.exit(run(sys.argv[1:]))
    finally:
        gc.freeze()


main.main = main


def _fail(fmt, message):
    if fmt == "json":
        sys.stderr.write(json.dumps({"error": message}) + "\n")
    else:
        sys.stderr.write(message + "\n")


# ---------------------------------------------------------------- arguments

class _Option:
    """A `--flag VALUE` option, declared once: its kind (int, float, str or
    a list of choices), bounds, default and help.  A float must be finite.
    convert() rejects a value in click's words, and help shows the default
    and bounds."""

    def __init__(self, flag, kind=str, default=None, lo=None, hi=None,
                 open_lo=False, required=False, help="", metavar=None):
        self.flag, self.kind, self.default, self.required = flag, kind, default, required
        self.lo, self.hi, self.open_lo = lo, hi, open_lo
        self.dest = flag[2:].replace("-", "_")
        if lo is None:
            self.bounds = ""
        elif hi is None:
            self.bounds = f"x{'>' if open_lo else '>='}{lo}"
        else:
            self.bounds = f"{lo}<=x<={hi}"
        self.metavar = metavar or (
            f"[{'|'.join(kind)}]" if isinstance(kind, list) else
            {int: "INTEGER", float: "FLOAT", str: "TEXT"}[kind]
            + (" RANGE" if self.bounds else ""))
        shown = "; ".join(filter(None, [
            "" if default is None else f"default: {default}", self.bounds,
            "required" if required else ""]))
        self.help = " ".join(filter(None, [help, shown and f"[{shown}]"]))

    def invalid(self, message) -> UsageError:
        return UsageError(f"Invalid value for '{self.flag}': {message}")

    def convert(self, text):
        if self.kind is str:
            return text
        if isinstance(self.kind, list):
            if text not in self.kind:
                raise self.invalid(f"{text!r} is not one of "
                                   f"{', '.join(map(repr, self.kind))}.")
            return text
        try:
            value = self.kind(text)
        except ValueError:
            raise self.invalid(f"{text!r} is not a valid "
                               f"{'integer' if self.kind is int else 'float'}.") from None
        if self.kind is float and not math.isfinite(value):
            raise self.invalid(f"{text!r} is not a finite number")
        if (self.lo is not None and (value <= self.lo if self.open_lo else value < self.lo)
                or self.hi is not None and value > self.hi):
            raise self.invalid(f"{value} is not in the range {self.bounds}.")
        return value


class _FitTolerance(_Option):
    """`--tol fit=VALUE`, the one tolerance the option overrides."""

    def convert(self, text):
        key, _, number = text.partition("=")
        if key != "fit":
            raise self.invalid(f"only fit=VALUE is known, got {text!r}")
        return super().convert(number)


# the options before the subcommand
_OPTIONS = [
    _Option("--seed", int, 0, lo=0, help="Seed for every stochastic component."),
    _Option("--out", help="Output path (default stdout)."),
    _Option("--format", ["csv", "json"], "csv"),
    _FitTolerance("--tol", float, lo=0, open_lo=True, metavar="fit=VALUE",
                  help="collapse only: the volume fit's relative residual bound "
                       f"[default: fit={_FIT_TOL}]; the last one given wins."),
]


def _options(*options):
    """Declares the options of the subcommand it decorates."""
    def declare(command):
        command.options = options
        return command
    return declare


def _parse(name, tokens):
    """({dest: value} of every option, defaults filled in, {dests given})
    from the tokens of subcommand `name`, or of the top level for None.
    Each option takes one value, after '=' or else the next token, even
    one starting with '-', as in click; the last one given wins.  Tokens
    after '--' are extra arguments.  `--help` raises SystemExit(0)."""
    options = COMMANDS[name].options if name else _OPTIONS
    known = {option.flag: option for option in options}
    values, extra = {}, []
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, text = token.partition("=")
        if token == "--":
            extra += tokens
        elif flag == "--help":
            if eq:
                raise UsageError(f"argument --help: ignored explicit argument {text!r}")
            sys.stdout.write(_help(name, options))
            raise SystemExit(0)
        elif flag not in known:
            extra.append(token)
        else:
            text = text if eq else next(tokens, None)
            if text is None:
                raise UsageError(f"argument {flag}: expected one argument")
            values[known[flag].dest] = known[flag].convert(text)
    if extra and extra[0].startswith("-"):
        raise UsageError(f"No such option '{extra[0].partition('=')[0]}'.")
    if extra:
        raise UsageError(f"Got unexpected extra argument ({' '.join(extra)})")
    for option in options:
        if option.required and option.dest not in values:
            raise UsageError(f"Missing option '{option.flag}'.")
    return ({option.dest: values.get(option.dest, option.default) for option in options},
            set(values))


def _help(name, options) -> str:
    """The help: usage, about, then each option with its metavar and help,
    wrapped at 78 columns from column 24; the top level (`name` None) then
    lists the subcommands."""
    import textwrap

    usage, about = (f"entropia {name} [OPTIONS]", COMMANDS[name].__doc__) if name else (
        "entropia [OPTIONS] COMMAND [ARGS]...",
        "Entropy machinery: constants, bounds, bodies, collapse, estimates.")
    lines = [f"Usage: {usage}", "", about, "", "Options:"]
    for left, right in [*((f"{o.flag} {o.metavar}", o.help) for o in options),
                        ("--help", "Show this message and exit.")]:
        first = f"  {left:20}  " if len(left) <= 20 else f"  {left}\n{'':24}"
        lines.append(first + textwrap.fill(right, 54).replace("\n", "\n" + " " * 24))
    if not name:
        lines += ["", "Commands:", *(f"  {command:10} {function.__doc__}"
                                    for command, function in COMMANDS.items())]
    return "\n".join(lines) + "\n"


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


def _read_file(flag: str, path: str, from_json, error):
    """from_json of the text of the input file at path.  A file that cannot
    be opened or parsed, or that from_json refuses with `error`, is a
    usage error naming the flag and the path."""
    try:
        with open(path) as fh:
            return from_json(fh.read())
    except (OSError, ValueError, RecursionError, error) as exc:
        raise UsageError(
            f"cannot read {flag} {path}: {type(exc).__name__}: {exc}") from exc


def _report_rows(report, *args) -> list:
    """Rows of an entropy_bounds report.  The report layer checks its own
    inputs, so every error it raises is a usage error."""
    from .entropy_bounds import BoundsError

    try:
        reports = report(*args)
    except (BoundsError, ValueError, KeyError) as exc:
        raise UsageError(str(exc)) from exc
    return [
        {"name": r.name, "value": repr(r.value),
         "inputs": json.dumps(r.inputs, sort_keys=True),
         "formula_id": r.formula_id, "tolerance": r.tolerance}
        for r in reports
    ]


# -------------------------------------------------------------- subcommands

@_options(_Option("--n", default="2..6"))
def constants(config, n):
    """Dimension constants c_n."""
    from .entropy_bounds import constants_report

    _emit(config, _report_rows(constants_report, _parse_range("--n", n)), n=n)


@_options(_Option("--genus", default="2..5"))
def bounds(config, genus):
    """Katok and Finsler entropy floors."""
    from .entropy_bounds import floors_report

    _emit(config, _report_rows(floors_report, _parse_range("--genus", genus)),
          genus=genus)


@_options(_Option("--k-max", int, 6, lo=2, hi=_MAX_VALUES))
def verovic(config, k_max):
    """Rank-k symmetric-space constants."""
    from .entropy_bounds import verovic_report

    _emit(config, _report_rows(verovic_report, k_max), k_max=k_max)


@_options()
def sl3(config):
    """SL(3)/SO(3) hexagon constants."""
    from .entropy_bounds import sl3_report

    _emit(config, _report_rows(sl3_report))


@_options(_Option("--v-bar", float, required=True),
          _Option("--h", float, required=True),
          _Option("--n", int, required=True),
          _Option("--c", float, required=True))
def spectrum(config, v_bar, h, n, c):
    """Solve the entropy-spectrum tuning equation for delta."""
    from . import entropy_bounds as eb

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


@_options(_Option("--body", help="Path to a body JSON file (default: unit disk)."))
def bodies(config, body):
    """Convex-geometric summary of a star body."""
    from .convex_body import BodyError, StarBody

    star = (_read_file("--body", body, StarBody.from_json, BodyError) if body
            else StarBody.ball(2))
    try:
        rows = _body_rows(star)
    except BodyError as exc:
        raise ValidationFailure(f"bodies: {type(exc).__name__}: {exc}") from exc
    _emit(config, rows, body=body)


def _body_rows(star) -> list:
    """The rows of `bodies` for one StarBody; a failed body operation
    raises BodyError."""
    import numpy as np

    from .convex_body import BodyError, DegenerateBody, is_convex

    rows = []

    def add(name, value, formula, tol):
        rows.append({"name": name, "value": repr(float(value)),
                     "inputs": json.dumps({"dim": star.dim}),
                     "formula_id": formula, "tolerance": tol})

    vol_method = "exact2d" if star.dim == 2 else "radial_quadrature"
    top = float(star.radial.max())
    with np.errstate(over="ignore", invalid="ignore"):
        vol = _this.volume(star, vol_method)
    if vol == 0.0:
        # no volume at all, or one that underflows: rescaled to radial up
        # to 1, a body that spans a volume has one
        if _this.volume(star.scaled(1.0 / top), vol_method) == 0.0:
            raise DegenerateBody(f"the {vol_method} volume is 0: the samples "
                                 "span no volume")
        raise BodyError(f"the {vol_method} volume of radial up to {top:.3g} "
                        "underflows to 0")
    # the hulls and ellipsoid fits take determinants that scale as vol^2
    if not sys.float_info.min < vol * vol < math.inf:
        raise BodyError(f"the {vol_method} volume {vol:.3g} of radial up to "
                        f"{top:.3g} squared leaves the float range: it "
                        f"{'underflows' if vol < 1.0 else 'overflows'}")
    add("volume", vol, vol_method, 0.0)
    sigma, _ = _this.sigma_starshapedness(star)
    add("sigma_upper", sigma, "sigma_starshapedness", 0.0)
    if is_convex(star):
        add("theta", _this.irreversibility_ratio(star), "irreversibility_ratio", 0.0)
        outer = _this.outer_loewner(star)
        add("outer_loewner_volume", outer.volume, "outer_loewner", 1e-6)
        dual = _this.polar_dual(star)
        if star.is_symmetric(tol=1e-7):
            inner = _this.inner_loewner(star, dual)
            add("inner_loewner_volume", inner.volume, "inner_loewner", 1e-6)
        add("santalo_product",
            vol * _this.volume(dual, vol_method),
            "santalo", 1e-3)
    return rows


@_options(_Option("--s-min", float, lo=0, open_lo=True),
          _Option("--s-max", float, lo=0, open_lo=True),
          _Option("--steps", int, 8, lo=2, hi=_MAX_VALUES),
          _Option("--twists", int, 1, lo=-MAX_TWISTS, hi=MAX_TWISTS),
          _Option("--returns", int, 32, lo=1, hi=_MAX_VALUES),
          _Option("--horizon", int, 16, lo=8),
          _Option("--grid", int, 256, lo=1, hi=_MAX_GRID,
                  help="Quadrature grid per axis for the volume integrals."),
          _Option("--spec", help="Path to a MappingTorusSpec JSON file."))
def collapse(config, s_min, s_max, steps, twists, returns, horizon, grid, spec):
    """Entropy-collapse sweep over the contact parameter s."""
    from .reeb_collapse import FormsError, MappingTorusSpec

    args = {"steps": steps, "twists": twists, "returns": returns,
            "horizon": horizon, "grid": grid, "spec": spec}
    if (s_min is None) != (s_max is None):
        raise UsageError("--s-min and --s-max must be given together")
    if spec and "twists" in config.given:
        raise UsageError("--twists and --spec cannot be given together: "
                         "the spec file sets k_twists")
    mt_spec = (_read_file("--spec", spec, MappingTorusSpec.from_json, FormsError)
               if spec else MappingTorusSpec(k_twists=twists))
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


@_options(_Option("--system", [*_SYSTEMS, "reeb-solid-torus", "hyperbolic"], "cat"),
          _Option("--what", ["htop", "hvol", "gamma"], "gamma"),
          _Option("--horizon", int,
                  help="Steps or radius [default: 48; 8 for htop]."),
          _Option("--delta", default="0.3,0.2"),
          _Option("--cloud", int, 20000, lo=1,
                  help="Candidate cloud size for separated-set estimates."))
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
    if (what == "hvol") != (system == "hyperbolic"):
        raise UsageError("--what hvol and --system hyperbolic go together")
    if what == "gamma" and horizon < 8:
        raise UsageError(f"gamma needs --horizon 8 or more, got {horizon}")
    if what == "hvol":
        if not 1 <= horizon <= _MAX_RADIUS:
            raise UsageError(f"hvol needs --horizon 1 or more, up to "
                             f"{_MAX_RADIUS}, got {horizon}")
        from .entropy_bounds import hvol_ball_growth

        est = hvol_ball_growth(("hyperbolic",), r_max=float(horizon))
    elif what == "gamma" and system in _SYSTEMS:
        # a linear map's cocycle is the same matrix power at every state
        from . import entropy_bounds as eb

        est = eb.gamma_linear(
            {"cat": eb.CAT, "doubling": eb.DOUBLING, "rotation": eb.ROTATION}[system],
            horizon)
    else:
        from . import entropy_estimators as ee

        if system == "reeb-solid-torus":
            from .reeb_collapse import build_profiles
            from .reeb_collapse.sweep import solid_torus_system

            profiles = build_profiles()
            sys_ = solid_torus_system(profiles, s=0.05)
            # its chart metric: two angles mod 2 pi and r in [0, r_eps]
            diameter = math.hypot(math.pi, math.pi, profiles.r_eps)
        else:
            sys_ = {"cat": ee.cat_system, "doubling": ee.doubling_system,
                    "rotation": lambda: ee.rotation_system(0.37)}[system]()
            # the unit torus under torus_metric
            diameter = math.sqrt(sys_.state_dim) / 2.0
        if what == "gamma":
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


# the subcommands by name, as `entropia --help` lists them
COMMANDS = {command.__name__: command for command in (
    bodies, bounds, collapse, constants, estimate, sl3, spectrum, verovic)}

if __name__ == "__main__":
    main()
