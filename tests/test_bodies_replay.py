"""The bodies workload of the benchmark, replayed in process.

Every pool entry of the benchmark's bodies classes, and of quick's default
disk, is built with perfbench/workloads.py, its body file written under a
temporary directory (at the relative path the benchmark's argv names), and
run through `cli.run`.

- The non-symmetric planar entries nonsym2d-0..5 are the bodies whose
  outer fit runs to LOEWNER_MAX_ITER (see ROADMAP B): entries 1-4 must
  print exactly the rows recorded in perfbench/goldens.json, and entries 0
  and 5 must fail validation with one DegenerateBody line.
- Every entry of sym2d, sym3d, star2d and disk must pass perfbench's own
  `check.verdict` against its golden, so a fit that drifts past a row's
  declared tolerance fails here without a benchmark run.

The test reads perfbench/ and writes nothing there.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from entropia import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module, without importing perfbench."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def goldens():
    with open(PERFBENCH / "goldens.json") as fh:
        return json.load(fh)["entries"]


def _run_entry(klass_name, k, tmp_path, monkeypatch):
    """(exit code, stdout, stderr) of pool entry <klass_name>-k run in
    tmp_path."""
    wl = _load("workloads")
    klass = next(c for c in wl.WORKLOADS["bodies"] + wl.WORKLOADS["quick"]
                 if c.name == klass_name)
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
    rc, out, _ = _run_entry("nonsym2d", k, tmp_path, monkeypatch)
    assert rc == 0
    assert json.loads(out) == goldens[f"nonsym2d-{k}"]["rows"]


@pytest.mark.parametrize("k", [0, 5])
def test_failing_nonsym2d_entry_exits_2_with_one_line(k, tmp_path, monkeypatch):
    rc, out, err = _run_entry("nonsym2d", k, tmp_path, monkeypatch)
    assert (rc, out) == (2, "")
    assert err.splitlines() == [json.dumps(
        {"error": "bodies: DegenerateBody: form must be positive definite"})]


@pytest.mark.parametrize("key", [f"{klass}-{k}" for klass in
                                 ("sym2d", "sym3d", "star2d", "disk")
                                 for k in range(6)])
def test_pool_entry_passes_the_benchmark_check(key, goldens, tmp_path,
                                               monkeypatch):
    klass, k = key.rsplit("-", 1)
    rc, out, _ = _run_entry(klass, int(k), tmp_path, monkeypatch)
    assert _load("check").verdict(goldens[key], rc, out) is None
