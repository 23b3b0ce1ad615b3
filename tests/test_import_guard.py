"""scipy stays off `import entropia.cli` and every command but `bodies` on
a body of dimension >= 3; numpy stays off `import entropia.cli` and the
closed-form commands `constants`, `bounds`, `verovic` and `spectrum`.

Each check starts a fresh interpreter, so no module imported by another
test can hide an import.  Planar hulls are a numpy monotone chain, and the
Weyl and hexagon checks of `sl3` and the solid-torus volume of `collapse`
are fixed Gauss-Legendre rules from numpy; only the qhull hull of a body
of dimension >= 3 imports scipy (`scipy.spatial`), where it runs.  The CLI
imports each layer, and with it numpy, inside the commands that run it,
so numpy loads with `sl3`, `bodies`, `collapse` and `estimate` only.  The
assertions are on module sets only, never on timings.
"""

import json
import subprocess
import sys

import numpy as np

from conftest import child_env
from entropia.convex_body import StarBody

SCRIPT = """
import contextlib, io, json, sys

def modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == sys.argv[2])

report = {}
from entropia import cli
report["import"] = modules()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run(argv)
    report[" ".join(argv)] = [rc, modules()]
print(json.dumps(report))
"""


def _fresh_run(*commands, package="scipy"):
    """{"import": `package` modules after `import entropia.cli`, command:
    [exit code, `package` modules after it]} from one fresh interpreter
    that runs the commands in order."""
    res = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands),
                          package],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def _body_file(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body.to_json())
    return str(path)


def test_cli_import_and_short_commands_load_no_scipy(tmp_path):
    square = StarBody.from_radial_function(
        2, lambda d: 1.0 / np.abs(d).max(axis=1))
    commands = [
        ["constants"],
        ["sl3"],
        ["estimate", "--system", "cat", "--what", "htop", "--cloud", "50",
         "--horizon", "2", "--delta", "0.3"],
        ["collapse", "--steps", "2", "--returns", "2", "--horizon", "8",
         "--grid", "16"],
        ["bodies"],
        ["bodies", "--body", _body_file(tmp_path, "square.json", square)],
    ]
    report = _fresh_run(*commands)
    assert report["import"] == []
    for argv in commands:
        assert report[" ".join(argv)] == [0, []], argv


def test_3d_body_imports_scipy_spatial_and_succeeds(tmp_path):
    argv = ["bodies", "--body",
            _body_file(tmp_path, "ball3.json", StarBody.ball(3, n=256))]
    report = _fresh_run(argv)
    assert report["import"] == []
    rc, modules = report[" ".join(argv)]
    assert rc == 0
    assert "scipy.spatial" in modules


def test_cli_import_and_closed_form_commands_load_no_numpy():
    commands = [
        ["constants"],
        ["bounds"],
        ["verovic"],
        ["spectrum", "--v-bar", "0.5", "--h", "1.0", "--n", "1", "--c", "2.0"],
    ]
    report = _fresh_run(*commands, package="numpy")
    assert report["import"] == []
    for argv in commands:
        assert report[" ".join(argv)] == [0, []], argv
