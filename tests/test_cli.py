import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env

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
])
def test_gamma_over_budget_is_usage_error(args):
    # without the budget these allocate 800 MB and run for hours
    res = subprocess.run(CLI + list(args), capture_output=True, text=True,
                         env=child_env(), timeout=60)
    _one_line_error(res, 1, "exceeds the budget")


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
     "leaves the float range"),
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
])
def test_usage_error_is_one_line(args, text):
    _one_line_error(run_cli(*args), 1, text)


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
])
def test_validation_failure_is_one_line(args, text):
    _one_line_error(run_cli(*args), 2, text)


@pytest.mark.parametrize("content, text", [
    (None, "FileNotFoundError"),
    ("not json", "JSONDecodeError"),
    ('{"dim": 2}', "KeyError: 'radial'"),
    ('{"dim": 2, "radial": [1.0, 0.0, 1.0, 1.0]}', "OriginNotInterior"),
    ('{"dim": 1, "radial": [1.0, 2.0]}', "UnsupportedDim: dim must be at least 2"),
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


def test_flat_3d_body_is_validation_failure(tmp_path):
    # four samples of a 3-D body on the canonical grid lie in one plane
    path = tmp_path / "body.json"
    path.write_text('{"dim": 3, "radial": [1.0, 1.0, 1.0, 1.0]}')
    _one_line_error(run_cli("bodies", "--body", str(path)), 2,
                    "bodies: DegenerateBody: point cloud is degenerate: QH")


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
    ({"r_range": ["one", "three"]}, "ValueError: could not convert string"),
    ({"r_range": [1, float("inf")]},
     "FormsError: r_range must be finite, got [1.0, inf]"),
    ({"k_twists": 1.7}, "k_twists must be an integer of size <= 1000000, got 1.7"),
    ({"k_twists": "1"}, "k_twists must be an integer of size <= 1000000, got '1'"),
    ({"k_twists": -10 ** 400}, "k_twists must be an integer of size <= 1000000"),
    ({"k_twist": 2}, "FormsError: unknown spec key(s) ['k_twist']"),
    ({"k_twists": 1, "s": 0.01}, "FormsError: unknown spec key(s) ['s']"),
])
def test_bad_spec_fields_are_usage_error(tmp_path, spec, text):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
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


@pytest.mark.parametrize("args", [("--help",), ("collapse", "--help")])
def test_help_exits_0(args):
    res = run_cli(*args)
    assert res.returncode == 0
    assert res.stdout.startswith("Usage: ") and res.stderr == ""


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
