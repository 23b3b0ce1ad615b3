"""scipy stays off `import entropia.cli` and the commands that need none of it.

Each check starts a fresh interpreter, so no module imported by another
test can hide an import.  Only the hull code of `bodies` and the hexagon
check of `sl3` import scipy, where they run; `collapse` integrates the
solid-torus volume with numpy's Gauss-Legendre nodes and loads none of it.
The assertions are on module sets only, never on timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = {}
from entropia import cli
report["import"] = scipy_modules()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run(argv)
    report[" ".join(argv)] = [rc, scipy_modules()]
print(json.dumps(report))
"""


def _fresh_run(*commands):
    """{"import": scipy modules after `import entropia.cli`, command:
    [exit code, scipy modules after it]} from one fresh interpreter that
    runs the commands in order."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_cli_import_and_short_commands_load_no_scipy():
    constants = ["constants"]
    htop = ["estimate", "--system", "cat", "--what", "htop", "--cloud", "50",
            "--horizon", "2", "--delta", "0.3"]
    collapse = ["collapse", "--steps", "2", "--returns", "2", "--horizon", "8",
                "--grid", "16"]
    report = _fresh_run(constants, htop, collapse)
    assert report["import"] == []
    for argv in (constants, htop, collapse):
        assert report[" ".join(argv)] == [0, []]


@pytest.mark.parametrize("argv, module", [
    (["sl3"], "scipy.integrate"),
    (["bodies"], "scipy.spatial"),
])
def test_commands_that_need_scipy_import_it_and_succeed(argv, module):
    report = _fresh_run(argv)
    assert report["import"] == []
    rc, modules = report[" ".join(argv)]
    assert rc == 0
    assert module in modules
