"""The names of entropia that the benchmark's tracer binds.

perfbench/tracer.py wraps functions, two `DiscreteSystem` methods,
`Dual.__init__` and `entropy_bounds.integrate` by name.  This test loads
that file unchanged, installs its wrappers as the benchmark does and runs
five short commands in this process, plain and traced.  A change that
removes or renames a bound name fails here, not only in a benchmark run,
and so does a collapse sweep whose mapping-torus steps bypass the wrapped
`time_one_jacobian` or are no longer stacked over every s.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

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
    assert patched
    for owner, attr, old in patched:
        assert owner.__dict__[attr] is old, f"{owner.__name__}.{attr} not restored"
