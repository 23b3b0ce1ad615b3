"""Goldens: CLI outputs recorded at the benchmark's recording commit, and
the comparison every benchmark run makes against them."""

import json
import math
import os

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
REL, ABS = 1e-9, 1e-12
# rows from iterative solvers may move by up to their own declared tolerance
SOLVER_ROWS = {"outer_loewner", "inner_loewner", "santalo"}
EXACT_KEYS = {"name", "formula_id", "config"}


def load():
    with open(GOLDENS) as fh:
        return json.load(fh)


def _close(a, b, rel, abs_):
    return a == b or (math.isfinite(a) and math.isfinite(b)
                      and abs(a - b) <= rel * abs(b) + abs_)


def _same(got, want, rel):
    """Structural equality with numbers (and numeric strings) compared at
    `rel` relative plus ABS absolute."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k], rel) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w, rel) for g, w in zip(got, want)))
    if isinstance(want, bool) or want is None:
        return got == want
    if isinstance(want, (int, float)):
        return isinstance(got, (int, float)) and _close(float(got), float(want), rel, ABS)
    if isinstance(want, str) and isinstance(got, str):
        if got == want:
            return True
        try:
            return _close(float(got), float(want), rel, ABS)
        except ValueError:
            pass
        try:
            return _same(json.loads(got), json.loads(want), rel)
        except ValueError:
            return False
    return False


def _finite_rows(rows):
    for row in rows:
        for value in row.values():
            try:
                if not math.isfinite(float(value)):
                    return False
            except (TypeError, ValueError):
                continue
    return True


def verdict(golden, rc, stdout):
    """None when the invocation passes, else a one-line reason.

    An invocation without a golden (it failed at the recording commit)
    passes only once it exits 0 with finite rows.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        rows = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if golden is None:
        return None if rows and _finite_rows(rows) else "no finite rows"
    want = golden["rows"]
    if len(rows) != len(want):
        return f"{len(rows)} rows, golden has {len(want)}"
    for got, exp in zip(rows, want):
        rel = REL
        if exp.get("formula_id") in SOLVER_ROWS:
            rel = max(REL, float(exp["tolerance"]))
        if got.keys() != exp.keys() or not all(
                got[k] == exp[k] if k in EXACT_KEYS else _same(got[k], exp[k], rel)
                for k in exp):
            return f"row {exp.get('name')!r} differs from its golden"
    return None
