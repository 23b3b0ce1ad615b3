"""The names of entropia that the benchmark's tracer binds.

perfbench/tracer.py wraps functions, two `DiscreteSystem` methods,
`Dual.__init__` and `entropy_bounds.integrate` by name.  This test loads
that file unchanged, installs its wrappers as the benchmark does and runs
five short commands in this process, plain and traced.  A change that
removes or renames a bound name fails here, not only in a benchmark run,
and so does a collapse sweep whose mapping-torus steps bypass the wrapped
`time_one_jacobian` or are no longer stacked over every s, or whose return
map runs more than once.

The benchmark installs the tracer right after `from entropia.cli import
main`, before any command has loaded a layer.  A second case does the same
in a fresh interpreter, so the CLI's lazily bound layer names must resolve
at install time and the commands must call them through the names the
tracer wrapped.
"""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

from conftest import child_env
from entropia import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

COMMANDS = [
    ["sl3"],
    ["estimate", "--system", "cat", "--what", "htop", "--cloud", "300",
     "--horizon", "3", "--delta", "0.3"],
    ["estimate", "--system", "reeb-solid-torus", "--what", "gamma",
     "--horizon", "8"],
    ["bodies"],
    ["collapse", "--steps", "2", "--returns", "2", "--horizon", "8",
     "--grid", "16"],
]


FRESH = """
import contextlib, importlib.util, io, json, sys

from entropia.cli import main  # as perfbench/inproc.py does, before install

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tr = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tr)
tracer = tr.Tracer()
if sys.argv[2] == "traced":
    tr.install(tracer)
from entropia.cli import run

out = []
for argv in json.loads(sys.argv[3]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run(argv)
    out.append([rc, buf.getvalue()])
print(json.dumps({"out": out, "spans": sorted({span[0] for span in tracer.spans})}))
"""


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_all():
    """(exit code, stdout) of each command, run through cli.run."""
    out = []
    for argv in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
        out.append((rc, buf.getvalue()))
    return out


def test_tracer_binds_every_name_and_leaves_output_unchanged():
    tr = _load_tracer()
    plain = _run_all()
    tracer = tr.Tracer()
    tr.install(tracer)
    patched = list(tracer._undo)
    try:
        traced = _run_all()
    finally:
        tracer.uninstall()
    assert [rc for rc, _ in plain] == [0] * len(COMMANDS)
    assert traced == plain
    for name in ("entropy_bounds.quad_calls", "entropy_estimators.htop_accepted",
                 "reeb_collapse.dual_objects"):
        assert tracer.counts.get(name, 0) > 0, name
    # the collapse sweep steps every s of its mapping torus in one stacked
    # gamma_plus: one time-one Jacobian per step of the horizon (8), not
    # one per step per s
    assert sum(span[0] == "reeb_collapse.mt_jacobian" for span in tracer.spans) == 8
    mt_gamma = [span for span in tracer.spans
                if span[0] == "entropy_estimators.gamma_plus"
                and str(span[5]).startswith("reeb_mapping_torus")]
    assert len(mt_gamma) == 1
    # the solid torus's Gamma is the closed form of its steepest shear, in
    # the sweep and in `estimate`: no other gamma_plus runs, and no sampled
    # solid-torus Jacobian products
    assert sum(span[0] == "entropy_estimators.gamma_plus" for span in tracer.spans) == 1
    assert not any(span[0] == "reeb_collapse.st_jacobian" for span in tracer.spans)
    # and takes its return times and images for every s and start in one
    # return-map call, not one per (s, start)
    assert sum(span[0] == "reeb_collapse.return_map" for span in tracer.spans) == 1
    assert patched
    for owner, attr, old in patched:
        assert owner.__dict__[attr] is old, f"{owner.__name__}.{attr} not restored"


def _fresh_run(mode, commands):
    """{"out": [exit code, stdout] per command, "spans": span names} from a
    fresh interpreter that installs the tracer (mode "traced") or not
    ("plain") right after importing the CLI."""
    res = subprocess.run(
        [sys.executable, "-c", FRESH, str(TRACER), mode, json.dumps(commands)],
        capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_tracer_installed_before_any_command_wraps_the_calls():
    commands = [["bodies"], COMMANDS[-1]]
    plain = _fresh_run("plain", commands)
    traced = _fresh_run("traced", commands)
    assert [rc for rc, _ in plain["out"]] == [0] * len(commands)
    assert traced["out"] == plain["out"]
    for name in ("convex_body.volume", "convex_body.inner_loewner",
                 "convex_body.sigma_starshapedness",
                 "reeb_collapse.collapse_sweep"):
        assert name in traced["spans"], name
