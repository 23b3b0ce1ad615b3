import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "entropia.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


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
    (("--s-min", "-1", "--s-max", "1"), "--s-min must be positive"),
    (("--s-min", "0.1"), "--s-min and --s-max must be given together"),
    (("--horizon", "4"), "--horizon 8 or more"),
    (("--grid", "0"), "must be at least 1"),
    (("--steps", "0"), "must be at least 1"),
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


def test_collapse_numeric_value_error_is_not_usage_error(monkeypatch):
    from entropia import cli

    def broken_sweep(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "collapse_sweep", broken_sweep)
    config = cli.RunConfig("collapse", args={"steps": 2, "horizon": 8})
    with pytest.raises(ValueError) as info:
        cli.run(config)
    assert type(info.value) is ValueError
