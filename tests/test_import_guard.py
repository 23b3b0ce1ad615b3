"""scipy stays off `import entropia.cli` and every command but `bodies` on
a body of dimension >= 4; numpy stays off `import entropia.cli` and the
closed-form commands `constants`, `bounds`, `verovic`, `sl3`, `spectrum`,
`estimate --what hvol` and `estimate --what gamma` on cat, doubling and
rotation, and `dataclasses` and OpenSSL's `_hashlib` off those nine too;
click and argparse load nowhere, as the CLI parses its own grammar, and
`numpy.ma` not in a 3-D `bodies`.

Each check starts a fresh interpreter, so no module imported by another
test can hide an import.  Planar hulls are a numpy monotone chain, spatial
ones a numpy quickhull, and the solid-torus volume of `collapse` is a fixed
Gauss-Legendre rule from numpy; the Weyl and hexagon checks of `sl3` are
Gauss-Legendre rules whose nodes are computed in pure Python, the ball
growth of `hvol` is a least-squares line in `math`, and the Gamma of a
linear torus map is the growth of one 2 x 2 or 1 x 1 matrix power, the
same at every state.  The config hash takes sha256 from CPython's
built-in module.  Only a body of dimension >= 4 imports scipy, for its
Halton direction grid (`scipy.stats`) and its qhull hull
(`scipy.spatial`), where they run.  The CLI imports each layer, and with
it numpy, inside the commands that run it, so numpy loads with `bodies`,
`collapse` and the other `estimate` commands only, whose states come from
numpy's generator (which loads `hashlib` itself).  The assertions are on
module sets only, never on timings.
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


CLOSED_FORM = [
    ["constants"],
    ["bounds"],
    ["verovic"],
    ["sl3"],
    ["spectrum", "--v-bar", "0.5", "--h", "1.0", "--n", "1", "--c", "2.0"],
    ["estimate", "--system", "hyperbolic", "--what", "hvol"],
    ["estimate", "--system", "cat", "--what", "gamma"],
    ["estimate", "--system", "doubling", "--what", "gamma", "--horizon", "64"],
    ["estimate", "--system", "rotation", "--what", "gamma", "--horizon", "8"],
]


def _assert_none_load(package, commands):
    report = _fresh_run(*commands, package=package)
    assert report["import"] == []
    for argv in commands:
        assert report[" ".join(argv)] == [0, []], argv


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
        ["bodies", "--body",
         _body_file(tmp_path, "ball3.json", StarBody.ball(3, n=256))],
    ]
    _assert_none_load("scipy", commands)


def test_4d_body_imports_scipy_spatial_and_succeeds(tmp_path):
    argv = ["bodies", "--body",
            _body_file(tmp_path, "ball4.json", StarBody.ball(4, n=64))]
    report = _fresh_run(argv)
    assert report["import"] == []
    rc, modules = report[" ".join(argv)]
    assert rc == 0
    assert "scipy.spatial" in modules


def test_3d_body_loads_no_numpy_ma(tmp_path):
    # numpy 2's np.unique imports numpy.ma; the quickhull reads its
    # vertices off a mask instead
    argv = ["bodies", "--body",
            _body_file(tmp_path, "ball3.json", StarBody.ball(3, n=256))]
    rc, modules = _fresh_run(argv, package="numpy")[" ".join(argv)]
    assert rc == 0
    assert "numpy.ma" not in modules


def test_cli_import_and_closed_form_commands_load_no_numpy():
    _assert_none_load("numpy", CLOSED_FORM)


def test_cli_import_and_closed_form_commands_load_no_dataclasses():
    _assert_none_load("dataclasses", CLOSED_FORM)


def test_cli_import_and_closed_form_commands_load_no_openssl():
    _assert_none_load("_hashlib", CLOSED_FORM)


def _every_layer(tmp_path):
    return [
        *CLOSED_FORM,
        ["estimate", "--system", "cat", "--what", "htop", "--cloud", "50",
         "--horizon", "2", "--delta", "0.3"],
        ["collapse", "--steps", "2", "--returns", "2", "--horizon", "8",
         "--grid", "16"],
        ["bodies", "--body",
         _body_file(tmp_path, "ball3.json", StarBody.ball(3, n=256))],
    ]


def test_no_command_loads_click(tmp_path):
    _assert_none_load("click", _every_layer(tmp_path))


def test_no_command_or_help_loads_argparse(tmp_path):
    _assert_none_load("argparse", [*_every_layer(tmp_path), ["--help"],
                                   ["collapse", "--help"]])
