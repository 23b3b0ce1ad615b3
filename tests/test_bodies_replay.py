"""The capped Loewner fits of the benchmark's bodies workload, in process.

The non-symmetric planar pool entries nonsym2d-0..5 are the benchmark's
bodies whose outer fit runs to LOEWNER_MAX_ITER (see ROADMAP B).  This test
builds them with perfbench/workloads.py, writes their body files under a
temporary directory (at the relative path the benchmark's argv names) and
runs `cli.run` on them: entries 1-4 must print exactly the rows recorded in
perfbench/goldens.json, and entries 0 and 5 must fail validation with one
DegenerateBody line.  It reads perfbench/ and writes nothing there.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from entropia import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def goldens():
    with open(PERFBENCH / "goldens.json") as fh:
        return json.load(fh)["entries"]


def _run_entry(k, tmp_path, monkeypatch):
    """(exit code, stdout, stderr) of pool entry nonsym2d-k run in tmp_path."""
    wl = _workloads()
    klass = next(c for c in wl.WORKLOADS["bodies"] if c.name == "nonsym2d")
    inv = wl.pool_entry(klass, k)
    monkeypatch.chdir(tmp_path)
    wl.write_bodies(tmp_path, [inv])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(inv.argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_capped_nonsym2d_entry_prints_its_golden_rows(k, goldens, tmp_path,
                                                      monkeypatch):
    rc, out, _ = _run_entry(k, tmp_path, monkeypatch)
    assert rc == 0
    assert json.loads(out) == goldens[f"nonsym2d-{k}"]["rows"]


@pytest.mark.parametrize("k", [0, 5])
def test_failing_nonsym2d_entry_exits_2_with_one_line(k, tmp_path, monkeypatch):
    rc, out, err = _run_entry(k, tmp_path, monkeypatch)
    assert (rc, out) == (2, "")
    assert err.splitlines() == [json.dumps(
        {"error": "bodies: DegenerateBody: form must be positive definite"})]
