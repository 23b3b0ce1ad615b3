import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from entropia.spheres import sphere_grid

CLI = [sys.executable, "-m", "entropia.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=child_env())


def test_constants_table_contains_c2():
    res = run_cli("constants", "--n", "2..6")
    assert res.returncode == 0
    line = [l for l in res.stdout.splitlines() if l.startswith("c_2,")][0]
    assert abs(float(line.split(",")[1]) - 0.398942) < 1e-6


def test_verovic_row():
    res = run_cli("verovic", "--k-max", "2")
    assert res.returncode == 0
    vals = {}
    for line in res.stdout.splitlines()[1:]:
        parts = line.split(",")
        vals[parts[0]] = float(parts[1])
    assert abs(vals["c_2^BH"] - 0.9306) < 5e-4
    assert abs(vals["c_2^HT"] - 0.8409) < 5e-4


def test_collapse_deterministic_bytes():
    a = run_cli("--seed", "3", "collapse", "--steps", "3", "--returns", "4",
                "--horizon", "8")
    b = run_cli("--seed", "3", "collapse", "--steps", "3", "--returns", "4",
                "--horizon", "8")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_estimate_json_mode():
    res = run_cli("--format", "json", "estimate", "--system", "rotation",
                  "--what", "gamma", "--horizon", "16")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert abs(float(rows[0]["value"])) < 1e-6
    assert "config" in rows[0]


def test_sl3_subcommand():
    res = run_cli("sl3")
    assert res.returncode == 0
    assert "c^BH(SL3/SO3)" in res.stdout


def test_spectrum_subcommand_and_validation_exit():
    ok = run_cli("spectrum", "--v-bar", "0.5", "--h", "1.0", "--n", "1",
                 "--c", "2.0")
    assert ok.returncode == 0
    assert abs(float(ok.stdout.splitlines()[1].split(",")[1]) - 3.5 ** -0.5) < 1e-12
    bad = run_cli("spectrum", "--v-bar", "0.5", "--h", "1.0", "--n", "1",
                  "--c", "0.1")
    assert bad.returncode == 2


def test_usage_error_exit_code():
    res = run_cli("estimate", "--system", "nonsense")
    assert res.returncode == 1


def test_bodies_default_disk(tmp_path):
    res = run_cli("bodies")
    assert res.returncode == 0
    rows = {l.split(",")[0]: float(l.split(",")[1]) for l in
            res.stdout.splitlines()[1:]}
    assert abs(rows["volume"] - 3.14159) < 1e-3
    assert abs(rows["sigma_upper"] - 1.0) < 1e-9
    assert abs(rows["santalo_product"] - 9.8696) < 1e-2


def test_bodies_from_file(tmp_path):
    from entropia.convex_body import StarBody

    path = tmp_path / "body.json"
    path.write_text(StarBody.ball(2, radius=2.0).to_json())
    res = run_cli("bodies", "--body", str(path))
    assert res.returncode == 0
    rows = {l.split(",")[0]: float(l.split(",")[1]) for l in
            res.stdout.splitlines()[1:]}
    assert abs(rows["volume"] - 4 * 3.14159265) < 1e-2


def test_out_file(tmp_path):
    out = tmp_path / "rows.csv"
    res = run_cli("--out", str(out), "constants", "--n", "2..3")
    assert res.returncode == 0
    assert out.read_text().startswith("name,")


def _one_line_error(res, code, text):
    assert res.returncode == code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and text in lines[0], res.stderr


@pytest.mark.parametrize("args, text", [
    (("--s-min", "-1", "--s-max", "1"),
     "Invalid value for '--s-min': -1.0 is not in the range x>0."),
    (("--s-min", "0.1"), "--s-min and --s-max must be given together"),
    (("--horizon", "4"), "Invalid value for '--horizon': 4 is not in the range x>=8."),
    (("--grid", "0"),
     "Invalid value for '--grid': 0 is not in the range 1<=x<=2048."),
    (("--steps", "0"),
     "Invalid value for '--steps': 0 is not in the range 2<=x<=10000."),
    (("--s-min", "0.02", "--s-max", "0.01"), "--s-min must be below --s-max"),
    (("--s-min", "0.01", "--s-max", "0.01"), "--s-min must be below --s-max"),
])
def test_collapse_bad_sweep_is_usage_error(args, text):
    res = run_cli("collapse", "--steps", "2", *args)
    _one_line_error(res, 1, text)


def test_estimate_gamma_short_horizon_is_usage_error():
    res = run_cli("estimate", "--what", "gamma", "--horizon", "4")
    _one_line_error(res, 1, "--horizon 8 or more")


def test_estimate_htop_long_horizon_is_usage_error():
    res = run_cli("estimate", "--what", "htop", "--horizon", "64",
                  "--cloud", "100")
    _one_line_error(res, 1, "--horizon from 1 to 8")


def test_estimate_htop_over_budget_is_usage_error():
    res = run_cli("estimate", "--what", "htop", "--horizon", "8",
                  "--cloud", "10000000")
    _one_line_error(res, 1, "exceeds budget")


def test_estimate_htop_delta_below_the_cell_grid_is_usage_error():
    # like a delta at or above the chart diameter, an input bound, not an
    # invariant violated at run time
    res = run_cli("estimate", "--what", "htop", "--delta", "1e-10",
                  "--horizon", "1", "--cloud", "10")
    _one_line_error(res, 1, "usage error: delta 1e-10 is too small for the cell grid")


@pytest.mark.parametrize("args", [
    ("estimate", "--what", "gamma", "--horizon", "100000000"),
    ("collapse", "--steps", "2", "--returns", "2", "--grid", "16",
     "--horizon", "100000000"),
    ("estimate", "--system", "doubling", "--what", "gamma", "--horizon", "100000000"),
    ("estimate", "--system", "rotation", "--what", "gamma", "--horizon", "100000000"),
    ("estimate", "--system", "reeb-solid-torus", "--what", "gamma",
     "--horizon", "100000000"),
])
def test_gamma_over_budget_is_usage_error(args):
    # without the budget these allocate 800 MB and run for hours
    res = subprocess.run(CLI + list(args), capture_output=True, text=True,
                         env=child_env(), timeout=60)
    _one_line_error(res, 1, "exceeds the budget of 1000000 state steps")


def test_estimate_htop_counts_not_monotone_in_delta_exit_0():
    # greedy counts at delta 0.3 exceed those at 0.29 at T = 3 here (82 > 81);
    # each delta is searched from scratch, so that is valid output
    res = run_cli("--seed", "3", "estimate", "--system", "cat", "--what",
                  "htop", "--delta", "0.3,0.29", "--cloud", "400",
                  "--horizon", "4")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("name,value")


def test_collapse_numeric_value_error_is_not_usage_error(monkeypatch):
    from entropia import cli

    def broken_sweep(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "collapse_sweep", broken_sweep)
    with pytest.raises(ValueError) as info:
        cli.run(["collapse", "--steps", "2", "--horizon", "8"])
    assert type(info.value) is ValueError


# `config` values recorded before click became the only argument layer
@pytest.mark.parametrize("args, digest", [
    (("constants",), "3e3582a67e32"),
    (("--tol", "fit=0.01", "collapse", "--steps", "2", "--returns", "6",
      "--horizon", "8", "--grid", "96"), "a51408642a92"),
    (("estimate", "--what", "htop", "--system", "rotation", "--cloud", "200",
      "--delta", "0.1,0.05"), "fde974b43109"),
    (("bodies",), "a3d471067846"),
    (("spectrum", "--v-bar", "0.5", "--h", "1.0", "--n", "1", "--c", "2.0"),
     "46cb5587b10e"),
])
def test_config_digest_golden(args, digest):
    res = run_cli("--format", "json", *args)
    assert res.returncode == 0, res.stderr
    assert {row["config"] for row in json.loads(res.stdout)} == {digest}


@pytest.mark.parametrize("args, text", [
    (("collapse", "--steps", "abc"), "'abc' is not a valid integer"),
    (("estimate", "--what", "bogus"), "'bogus' is not one of"),
    (("spectrum", "--v-bar", "0.5", "--n", "1", "--c", "2.0"),
     "Missing option '--h'"),
    (("--tol", "foo", "collapse"), "only fit=VALUE is known"),
    (("--tol", "fit=0.02", "constants"), "--tol applies to collapse only"),
    (("--tol", "bogus=1", "collapse"), "only fit=VALUE is known"),
    (("constants", "--n", "3..1"), "--n range 3..1 is empty"),
    (("bounds", "--genus", "5..2"), "--genus range 5..2 is empty"),
    (("verovic", "--k-max", "1"),
     "Invalid value for '--k-max': 1 is not in the range 2<=x<=10000."),
    (("verovic", "--k-max", "0"),
     "Invalid value for '--k-max': 0 is not in the range 2<=x<=10000."),
    (("collapse", "--steps", "1"),
     "Invalid value for '--steps': 1 is not in the range 2<=x<=10000."),
    (("estimate", "--what", "htop", "--delta", "0.3,"), "comma-separated numbers"),
    (("estimate", "--what", "htop", "--delta", "0.3,0"), "must be positive"),
    (("spectrum", "--v-bar", "0.5", "--h", "1.0", "--n", "-1", "--c", "2.0"),
     "n must be at least 1"),
    (("spectrum", "--v-bar", "0.5", "--h", "1.0", "--n", "0", "--c", "2.0"),
     "n must be at least 1"),
    (("estimate", "--system", "cat", "--what", "htop", "--cloud", "0"),
     "not in the range x>=1"),
    (("estimate", "--system", "cat", "--what", "htop", "--cloud", "-5"),
     "not in the range x>=1"),
    (("estimate", "--system", "hyperbolic", "--what", "hvol", "--horizon", "-3"),
     "hvol needs --horizon 1 or more"),
    (("estimate", "--system", "hyperbolic", "--what", "hvol", "--horizon", "0"),
     "hvol needs --horizon 1 or more"),
    (("spectrum", "--v-bar", "0.5", "--h", "1", "--n", "2", "--c", "nan"),
     "'nan' is not a finite number"),
    (("spectrum", "--v-bar", "0.5", "--h", "1", "--n", "2", "--c", "inf"),
     "'inf' is not a finite number"),
    (("estimate", "--system", "cat", "--what", "htop", "--delta", "inf",
      "--cloud", "200", "--horizon", "3"), "must be positive and finite"),
    (("collapse", "--s-min", "1e-3", "--s-max", "inf", "--steps", "2",
      "--horizon", "8"), "'inf' is not a finite number"),
    (("--tol", "fit=nan", "collapse"), "'nan' is not a finite number"),
    (("--tol", "fit=-1", "collapse"),
     "Invalid value for '--tol': -1.0 is not in the range x>0."),
    (("spectrum", "--v-bar", "0.5", "--h", "1e-200", "--n", "2", "--c", "1"),
     "leaves the float range"),
    (("spectrum", "--v-bar", "0.5", "--h", "1", "--n", "400", "--c", "10"),
     "leaves the float range"),
    (("spectrum", "--v-bar", "0.5", "--h", "1e-300", "--n", "2", "--c", "1e300"),
     "c / h = 1e+300 / 1e-300 leaves the float range"),
    (("estimate", "--system", "cat", "--what", "htop", "--delta", "1e300",
      "--cloud", "50", "--horizon", "2"), "at or above the cat chart's diameter"),
    (("estimate", "--system", "cat", "--what", "htop", "--delta", "0.9",
      "--cloud", "50", "--horizon", "2"), "at or above the cat chart's diameter"),
    (("constants", "--n", "1..10001"), "has 10001 values, more than 10000"),
    (("bounds", "--genus", "2..20001"), "has 20000 values, more than 10000"),
    (("verovic", "--k-max", "10001"),
     "Invalid value for '--k-max': 10001 is not in the range 2<=x<=10000."),
    (("collapse", "--steps", "10001"),
     "Invalid value for '--steps': 10001 is not in the range 2<=x<=10000."),
    (("collapse", "--returns", "10001"),
     "Invalid value for '--returns': 10001 is not in the range 1<=x<=10000."),
    (("collapse", "--grid", "2049"),
     "Invalid value for '--grid': 2049 is not in the range 1<=x<=2048."),
    # 100 values of s x 24 states x 500 steps: each s alone is in budget
    (("collapse", "--steps", "100", "--horizon", "500"),
     "gamma over 500 steps of 2400 states exceeds the budget"),
    (("collapse", "--twists", "1000001"),
     "Invalid value for '--twists': 1000001 is not in the range -1000000<=x<=1000000."),
    (("--seed", "-1", "collapse"),
     "Invalid value for '--seed': -1 is not in the range x>=0."),
    (("estimate", "--system", "hyperbolic", "--what", "hvol", "--horizon",
      str(10 ** 400)), "hvol needs --horizon 1 or more, up to 1000000, got 1000"),
    # no abbreviated options, no group option after the subcommand, and a
    # subcommand is required
    (("collapse", "--hor", "8"), "No such option '--hor'"),
    (("constants", "--format", "json"), "No such option '--format'"),
    ((), "Missing command"),
])
def test_usage_error_is_one_line(args, text):
    _one_line_error(run_cli(*args), 1, text)


# The grammar's corner cases, each with the exit code and stderr bytes it
# had under the argparse-based parser before it
@pytest.mark.parametrize("args, code, err", [
    # a value may start with '-', given apart or after '='
    (("spectrum", "--v-bar", "0.5", "--h", "1", "--n", "1", "--c", "-2"), 2,
     "target -2.0 at or below range left endpoint 0.7071067811865476"),
    (("spectrum", "--v-bar=0.5", "--h=1", "--n=1", "--c=-2"), 2,
     "target -2.0 at or below range left endpoint 0.7071067811865476"),
    (("--seed=-1", "constants"), 1,
     "usage error: Invalid value for '--seed': -1 is not in the range x>=0."),
    (("--seed", "--n", "constants"), 1,
     "usage error: Invalid value for '--seed': '--n' is not a valid integer."),
    # a trailing flag without its value
    (("constants", "--n"), 1, "usage error: argument --n: expected one argument"),
    (("--seed",), 1, "usage error: argument --seed: expected one argument"),
    # every token after '--' is an extra argument
    (("constants", "--", "--n"), 1, "usage error: No such option '--n'."),
    (("constants", "--", "foo"), 1, "usage error: Got unexpected extra argument (foo)"),
    (("-h",), 1, "usage error: No such option '-h'."),
    (("constants", "-h"), 1, "usage error: No such option '-h'."),
    (("constants", "foo", "bar"), 1,
     "usage error: Got unexpected extra argument (foo bar)"),
    (("verovic", "--k-max", "x", "--k-max", "3"), 1,
     "usage error: Invalid value for '--k-max': 'x' is not a valid integer."),
    (("sl3", "--help=x"), 1,
     "usage error: argument --help: ignored explicit argument 'x'"),
])
def test_grammar_corner_case_bytes(args, code, err):
    res = run_cli(*args)
    assert (res.returncode, res.stdout, res.stderr) == (code, "", err + "\n")


@pytest.mark.parametrize("args, same_as", [
    (("constants", "--n=3"), ("constants", "--n", "3")),
    # the last one given wins
    (("constants", "--n", "2", "--n", "3"), ("constants", "--n", "3")),
    (("--seed", "1", "--seed", "0", "--format=json", "sl3"),
     ("--format", "json", "sl3")),
    (("--", "constants"), ("constants",)),
    (("constants", "--"), ("constants",)),
])
def test_equivalent_argvs_print_the_same_bytes(args, same_as):
    res, want = run_cli(*args), run_cli(*same_as)
    assert want.returncode == 0 and want.stdout
    assert (res.returncode, res.stdout, res.stderr) == (0, want.stdout, "")


def test_help_before_and_after_the_subcommand():
    top = run_cli("--help")
    assert top.stdout.startswith("Usage: entropia [OPTIONS] COMMAND [ARGS]...\n")
    assert "\nCommands:\n  bodies " in top.stdout
    before = run_cli("--help", "constants")
    assert (before.returncode, before.stdout, before.stderr) == (0, top.stdout, "")
    after = run_cli("constants", "--help")
    assert after.returncode == 0 and after.stderr == ""
    assert after.stdout.startswith("Usage: entropia constants [OPTIONS]\n")
    assert "  --n TEXT " in after.stdout and "[default: 2..6]" in after.stdout
    # options are read in order: --help ends the pass where it stands
    assert run_cli("verovic", "--help", "--k-max", "x").returncode == 0
    assert run_cli("verovic", "--k-max", "x", "--help").returncode == 1


@pytest.mark.parametrize("args, text", [
    (("collapse", "--steps", "abc"), "'abc' is not a valid integer"),
    ((), "Missing command"),
    (("--tol", "fit=0.02", "constants"), "--tol applies to collapse only"),
])
def test_usage_error_after_format_json_is_json(args, text):
    res = run_cli("--format", "json", *args)
    assert res.returncode == 1 and res.stdout == ""
    assert text in json.loads(res.stderr)["error"], res.stderr


def test_range_at_the_cap_is_accepted():
    from entropia import cli

    assert cli._parse_range("--n", f"1..{cli._MAX_VALUES}") == list(
        range(1, cli._MAX_VALUES + 1))


def test_collapse_over_gamma_budget_fails_before_any_work(monkeypatch, capsys):
    from entropia import cli
    from entropia.reeb_collapse import sweep

    def threshold(*args, **kwargs):
        raise AssertionError("contact_threshold ran before the budget check")

    monkeypatch.setattr(sweep, "contact_threshold", threshold)
    assert cli.run(["collapse", "--horizon", "100000000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "exceeds the budget" in err


@pytest.mark.parametrize("args, text", [
    (("spectrum", "--v-bar", "0.5", "--h", "1", "--n", "1", "--c", "-2"),
     "at or below range left endpoint"),
    (("spectrum", "--v-bar", "0.5", "--h", "1", "--n", "2", "--c", "-2"),
     "at or below range left endpoint"),
    (("collapse", "--s-min", "1e-3", "--s-max", "1e300", "--steps", "2",
      "--returns", "2", "--horizon", "8", "--grid", "16"),
     "leaves the float range"),
    # finite volumes whose squared fit residuals overflow: no numpy warning
    (("collapse", "--s-min", "1e-3", "--s-max", "1e100", "--steps", "2",
      "--returns", "2", "--horizon", "8", "--grid", "16"),
     "volume fit residual inf exceeds"),
    # s0 = 4.832 for one twist: at s = 4.9, 1 + s lambda_theta(Y) < 0 on
    # some radii, which the sampled return starts need not hit
    (("collapse", "--s-min", "4", "--s-max", "4.9", "--steps", "2",
      "--returns", "4", "--horizon", "8", "--grid", "16"),
     "s = 4.9 is above the contact threshold s0 = 4.832107648821965 of k_twists 1"),
])
def test_validation_failure_is_one_line(args, text):
    _one_line_error(run_cli(*args), 2, text)


@pytest.mark.parametrize("content, text", [
    (None, "FileNotFoundError"),
    ("not json", "JSONDecodeError"),
    # a body is an object with the keys dim and radial
    ("3", "BodyError: a body is an object with the keys dim and radial, got int"),
    ('"ball"', "BodyError: a body is an object with the keys dim and radial, got str"),
    ('{"dim": 2}', "BodyError: missing body key(s) ['radial']"),
    ('{"radial": [1.0, 1.0, 1.0, 1.0]}', "BodyError: missing body key(s) ['dim']"),
    # radial is a list of numbers, and booleans are none, as for dim
    ('{"dim": 2, "radial": [true, true, true, true]}',
     "BodyError: radial[0] must be a number, got True"),
    ('{"dim": 2, "radial": 1.0}', "BodyError: radial must be a list of numbers, got float"),
    ('{"dim": 2, "radial": [1.0, 1.0, 1.0, 1' + "0" * 400 + ']}',
     "BodyError: radial holds an integer past the float range"),
    ('{"dim": 2, "radial": [1.0, 0.0, 1.0, 1.0]}', "OriginNotInterior"),
    ('{"dim": 1, "radial": [1.0, 2.0]}', "UnsupportedDim: dim must be at least 2"),
    # dim is an integral, finite number, and only the three keys are read
    ('{"dim": 2.5, "radial": [1.0, 1.0, 1.0, 1.0]}',
     "UnsupportedDim: dim must be an integer, got 2.5"),
    ('{"dim": 1e400, "radial": [1.0, 1.0]}', "UnsupportedDim: dim must be an integer, got inf"),
    ('{"dim": true, "radial": [1.0, 1.0]}', "UnsupportedDim: dim must be an integer, got True"),
    ('{"dim": "2", "radial": [1.0, 1.0]}', "UnsupportedDim: dim must be an integer, got '2'"),
    # without directions, radial sits on a canonical, centrally symmetric grid
    ('{"dim": 2, "radial": [1, 1, 1]}', "BodyError: radial without directions "
     "must hold an even, positive number of samples, got 3"),
    ('{"dim": 3, "radial": [1, 1, 1, 1, 1]}', "BodyError: radial without "
     "directions must hold an even, positive number of samples, got 5"),
    ('{"dim": 2, "radial": []}', "BodyError: radial without directions must "
     "hold an even, positive number of samples, got 0"),
    ('{"dim": 2, "radial": [1.0, 1.0], "radius": 2}',
     "BodyError: unknown body key(s) ['radius']"),
    # directions are lists of numbers, and booleans are none, as for radial
    ('{"dim": 2, "radial": [1, 1, 1, 1], '
     '"directions": [[true, false], [false, true], [-1, 0], [0, -1]]}',
     "BodyError: directions[0][0] must be a number, got True"),
    ('{"dim": 2, "radial": [1, 1, 1, 1], '
     '"directions": [[1, 0], [0, 1, 0], [-1, 0], [0, -1]]}',
     "BodyError: directions[1] must have 2 numbers, got 3"),
    # a file nested past the parser's recursion limit
    pytest.param("[" * 100_000 + "]" * 100_000,
                 "RecursionError: maximum recursion depth exceeded",
                 id="nested-100000"),
    # past dim 341 Gamma(n/2 + 1) overflows, so the unit-ball volume does
    (json.dumps({"dim": 400, "radial": [1.0] * 64}),
     "UnsupportedDim: dim must be at most 341, where the unit-ball volume"),
    ('{"dim": 100000, "radial": [1.0, 1.0, 1.0, 1.0]}', "got 100000"),
    # a NaN norm is no unit norm
    ('{"dim": 2, "radial": [1, 1, 1, 1], '
     '"directions": [[NaN, 0], [0, 1], [-1, 0], [0, -1]]}',
     "BodyError: directions must be unit vectors"),
    # direction grids without antipodes: 5 planar directions, and the
    # canonical 64-direction S^2 grid less its last direction
    pytest.param(json.dumps({"dim": 2, "radial": [1.0] * 5, "directions": [
        [math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5)]
        for k in range(5)]}),
        "BodyError: direction grid is not centrally symmetric", id="pentagon-grid"),
    pytest.param(json.dumps({"dim": 3, "radial": [1.0] * 63,
                             "directions": sphere_grid(3, 64)[:-1].tolist()}),
                 "BodyError: direction grid is not centrally symmetric",
                 id="sphere-grid-less-one"),
    # hulls over BODY_BUDGET: n^floor(d/2) bounds their facet count
    pytest.param(json.dumps({"dim": 6, "radial": [1.0] * 4096}),
                 "the hull of 4096 points in R^6 may have up to 4096^3 facets, "
                 "over the budget of 1e+09", id="ball-6d"),
    pytest.param(json.dumps({"dim": 12, "radial": [1.0] * 64}),
                 "the hull of 64 points in R^12 may have up to 64^6 facets",
                 id="64-samples-12d"),
    pytest.param(json.dumps({"dim": 20, "radial": [1.0] * 64}),
                 "the hull of 64 points in R^20 may have up to 64^10 facets",
                 id="64-samples-20d"),
])
def test_bad_body_file_is_usage_error(tmp_path, content, text):
    path = tmp_path / "body.json"
    if content is not None:
        path.write_text(content)
    _one_line_error(run_cli("bodies", "--body", str(path)), 1, text)


@pytest.mark.parametrize("dim, n, radial, text", [
    # the volume itself overflows
    (2, 720, 1e160, "the exact2d volume nan of radial up to 1e+160"),
    (3, 4096, 1e110, "the radial_quadrature volume inf of radial up to 1e+110"),
    # finite volumes whose squares, like the fits' determinants, do not fit
    (2, 720, 1e100, "the exact2d volume 3.14e+200 of radial up to 1e+100"),
    (3, 64, 1e-100, "the radial_quadrature volume 4.19e-300 of radial up to 1e-100"),
])
def test_overflowing_body_volume_is_validation_failure(tmp_path, dim, n,
                                                        radial, text):
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"dim": dim, "radial": [radial] * n}))
    _one_line_error(run_cli("bodies", "--body", str(path)), 2,
                    f"bodies: BodyError: {text} squared leaves the float range")


@pytest.mark.parametrize("body, text", [
    # samples that span a volume too small for a float
    pytest.param({"dim": 2, "radial": [1e-300] * 720},
                 "BodyError: the exact2d volume of radial up to 1e-300 underflows to 0",
                 id="radial-1e-300-plane"),
    pytest.param({"dim": 341, "radial": [1.0] * 4},
                 "BodyError: the radial_quadrature volume 6.12e-224 of radial up to 1 "
                 "squared leaves the float range: it underflows", id="4-samples-341d"),
    # four antipodal pairs span no 5-space; qhull is not left to say so
    pytest.param({"dim": 5, "radial": [1.0] * 8},
                 "DegenerateBody: point cloud is degenerate: its points lie in a "
                 "hyperplane", id="8-samples-5d"),
])
def test_degenerate_body_is_validation_failure(tmp_path, body, text):
    path = tmp_path / "body.json"
    path.write_text(json.dumps(body))
    _one_line_error(run_cli("bodies", "--body", str(path)), 2, f"bodies: {text}")


def test_zero_volume_body_is_degenerate(tmp_path):
    # two opposite samples in the plane span no area
    path = tmp_path / "body.json"
    path.write_text('{"dim": 2, "radial": [1.0, 1.0]}')
    _one_line_error(run_cli("bodies", "--body", str(path)), 2,
                    "bodies: DegenerateBody: the exact2d volume is 0")


def test_flat_3d_body_is_validation_failure(tmp_path):
    # four samples of a 3-D body on the canonical grid lie in one plane
    path = tmp_path / "body.json"
    path.write_text('{"dim": 3, "radial": [1.0, 1.0, 1.0, 1.0]}')
    _one_line_error(run_cli("bodies", "--body", str(path)), 2,
                    "bodies: DegenerateBody: point cloud is degenerate: ")


def _bodies_in_process(capsys):
    from entropia import cli

    rc = cli.run(["bodies"])
    out, err = capsys.readouterr()
    assert out == ""
    return rc, err.splitlines()


def test_lost_loewner_containment_is_validation_failure(monkeypatch, capsys):
    from entropia import convex_body

    fit = convex_body._mvee_centered
    monkeypatch.setattr(convex_body, "_mvee_centered", lambda pts: 4.0 * fit(pts))
    rc, lines = _bodies_in_process(capsys)
    assert rc == 2 and lines == ["bodies: BodyError: Loewner fit lost containment"]


@pytest.mark.parametrize("scale, text", [
    (1e-6, "John sandwich violated: E exceeds K beyond tolerance"),
    (1e6, "John sandwich violated: K exceeds sqrt(n) E"),
])
def test_john_sandwich_violation_is_validation_failure(monkeypatch, capsys,
                                                       scale, text):
    from entropia import convex_body

    # inner_loewner takes the polar of the outer fit of the polar body, so
    # a fit of radius sqrt(scale) there gives an E of radius 1/sqrt(scale)
    monkeypatch.setattr(convex_body, "outer_loewner", lambda body: (
        convex_body.Ellipsoid(body.dim, np.eye(body.dim) / scale)))
    rc, lines = _bodies_in_process(capsys)
    assert rc == 2 and lines == [f"bodies: BodyError: {text}"]


@pytest.mark.parametrize("spec, text", [
    ({"r_range": [3, 1]}, "FormsError: r_range must be increasing, got [3.0, 1.0]"),
    ({"tau_support": [2, 2]},
     "FormsError: tau_support must have positive width inside r_range"),
    ({"tau_support": [0.5, 2.0]},
     "FormsError: tau_support must have positive width inside r_range"),
    ({"r_range": ["one", "three"]}, "FormsError: r_range[0] must be a number, got 'one'"),
    ({"r_range": [1, float("inf")]},
     "FormsError: r_range must be finite, got [1.0, inf]"),
    ({"k_twists": 1.7}, "k_twists must be an integer of size <= 1000000, got 1.7"),
    ({"k_twists": "1"}, "k_twists must be an integer of size <= 1000000, got '1'"),
    ({"k_twists": -10 ** 400}, "k_twists must be an integer of size <= 1000000"),
    ({"k_twist": 2}, "FormsError: unknown spec key(s) ['k_twist']"),
    ({"k_twists": 1, "s": 0.01}, "FormsError: unknown spec key(s) ['s']"),
    # a spec is an object, and its ranges are lists of two numbers
    ([1], "FormsError: a spec is an object with the keys k_twists, r_range and "
          "tau_support, got list"),
    ({"r_range": [True, 3]}, "FormsError: r_range[0] must be a number, got True"),
    ({"r_range": [1, "3"]}, "FormsError: r_range[1] must be a number, got '3'"),
    ({"r_range": [1, 2, 3]},
     "FormsError: r_range must be a list of two numbers, got 3 values"),
    ({"r_range": None}, "FormsError: r_range must be a list of two numbers, got NoneType"),
    # twist supports too narrow to sample or for the float range
    ({"tau_support": [1.3, 1.3000000000000003]},
     "FormsError: tau_support [1.3, 1.3000000000000003] is too narrow to sample: "
     "the twist is flat on every row"),
    ({"r_range": [1e-160, 3e-160], "tau_support": [1e-160, 2e-160]},
     "FormsError: tau_support [1e-160, 2e-160] is too narrow: the twist's r "
     "derivatives leave the float range"),
    # finite on every threshold row, but not just inside the flat ends
    ({"r_range": [1e-100, 3e-100], "tau_support": [1e-100, 2e-100]},
     "FormsError: tau_support [1e-100, 2e-100] is too narrow: the twist's r "
     "derivatives leave the float range"),
    # a file nested past the parser's recursion limit, given as its text
    pytest.param("[" * 100_000 + "]" * 100_000,
                 "RecursionError: maximum recursion depth exceeded",
                 id="nested-100000"),
])
def test_bad_spec_fields_are_usage_error(tmp_path, spec, text):
    path = tmp_path / "spec.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    _one_line_error(run_cli("collapse", "--spec", str(path), "--steps", "2",
                            "--returns", "2", "--horizon", "8", "--grid", "16"),
                    1, text)


def test_narrow_twist_support_has_a_threshold(tmp_path):
    # the threshold lattice on r_range has no row inside this support
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"k_twists": 1, "tau_support": [1.3, 1.31]}))
    res = run_cli("collapse", "--spec", str(path), "--steps", "2",
                  "--returns", "2", "--horizon", "8", "--grid", "16")
    assert res.returncode == 0, res.stderr
    assert float(res.stdout.splitlines()[2].split(",")[0]) < 0.0024


def test_usage_error_in_process_exits_1():
    from entropia import cli

    with pytest.raises(SystemExit) as info:
        cli.main.main(args=["collapse", "--steps", "abc"], prog_name="entropia",
                      standalone_mode=False)
    assert info.value.code == 1


def test_in_process_calls_leave_the_collector_unfrozen(capsys):
    import gc

    from entropia import cli

    frozen = gc.get_freeze_count()
    assert cli.run(["constants", "--n", "2"]) == 0
    for argv, code in ((["constants", "--n", "2"], 0), (["constants", "--n", "x"], 1)):
        with pytest.raises(SystemExit) as info:
            cli.main(args=argv)
        assert info.value.code == code
    assert gc.get_freeze_count() == frozen


# main() on sys.argv, as the console script calls it, with the freeze
# count read by an atexit handler, which runs after main's exit
_FREEZE_PROBE = """
import atexit, gc, sys
from entropia import cli
atexit.register(lambda: sys.stderr.write(f"frozen {gc.get_freeze_count()}\\n"))
cli.main()
"""


@pytest.mark.parametrize("argv, code", [
    (["constants", "--n", "2"], 0),
    (["constants", "--n", "x"], 1),
])
def test_process_path_freezes_the_collector_before_exit(argv, code):
    res = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, *argv],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == code
    assert res.stdout.startswith("name,") == (code == 0)
    *errors, last = res.stderr.splitlines()
    assert len(errors) == code
    assert last.startswith("frozen ") and int(last.split()[1]) > 0


# (flag, default or None, range) of each bounded option, by command
_BOUNDED = {
    (): [("--seed", "0", "x>=0"), ("--tol", "fit=0.01", "x>0")],
    ("collapse",): [
        ("--s-min", None, "x>0"), ("--s-max", None, "x>0"),
        ("--steps", "8", "2<=x<=10000"),
        ("--twists", "1", "-1000000<=x<=1000000"),
        ("--returns", "32", "1<=x<=10000"), ("--horizon", "16", "x>=8"),
        ("--grid", "256", "1<=x<=2048")],
    ("verovic",): [("--k-max", "6", "2<=x<=10000")],
    ("estimate",): [("--cloud", "20000", "x>=1")],
}


def _option_help(text, flag):
    """The help of one option: from its flag to the next option's."""
    start = text.index(f"  {flag} ")
    return text[start:text.find("\n  --", start + 1)]


@pytest.mark.parametrize("args", [
    ("--help",), ("collapse", "--help"),
    *[(command, "--help") for command in ("constants", "bounds", "verovic",
                                          "sl3", "spectrum", "bodies",
                                          "estimate")]])
def test_help_exits_0(args):
    res = run_cli(*args)
    assert res.returncode == 0
    assert res.stdout.startswith("Usage: ") and res.stderr == ""
    for flag, default, bounds in _BOUNDED.get(args[:-1], []):
        shown = _option_help(res.stdout, flag)
        assert bounds in shown, shown
        assert default is None or f"default: {default}" in shown, shown


def test_unwritable_out_is_usage_error(tmp_path):
    out = tmp_path / "missing" / "x.csv"
    _one_line_error(run_cli("--out", str(out), "sl3"), 1,
                    f"cannot write --out {out}")


def test_collapse_without_twist_needs_explicit_range(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"k_twists": 0}))
    sweep = ("--steps", "2", "--returns", "2", "--horizon", "8", "--grid", "32")
    for args in (("--twists", "0"), ("--spec", str(spec))):
        _one_line_error(run_cli("collapse", *sweep, *args), 1,
                        "give --s-min and --s-max")
    res = run_cli("collapse", *sweep, "--twists", "0",
                  "--s-min", "0.01", "--s-max", "0.02")
    assert res.returncode == 0, res.stderr


def test_collapse_twists_with_spec_is_usage_error(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"k_twists": 2}))
    sweep = ("--steps", "2", "--returns", "2", "--horizon", "8", "--grid", "16")
    # the spec sets k_twists, so a given --twists would change nothing; the
    # default value counts as given too
    for twists in ("2", "1"):
        _one_line_error(run_cli("collapse", *sweep, "--spec", str(spec),
                                "--twists", twists), 1,
                        "usage error: --twists and --spec cannot be given together")
