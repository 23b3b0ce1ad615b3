"""Records the goldens: every pool entry of every workload, run once
through the CLI.

    python3 perfbench/record_goldens.py

The goldens are the outputs of commit f7cc5e7 (stored as `commit` in
goldens.json), and every later commit is checked against them.  This
script reproduces them: it refuses to run unless src/ in the working tree
is the same as at that commit, and it always records the whole pool and
keeps the commit stamp.  Run from the root of a git checkout.
An entry that exits nonzero is stored with its exit code and error line
and no rows; the benchmark counts it as failed until it exits 0 with
finite rows.
"""

import json
import os
import subprocess
import sys

import check
import run
import workloads


def _src_differs(commit):
    changed = subprocess.run(["git", "diff", "--quiet", commit, "--", "src"],
                             cwd=run.ROOT).returncode != 0
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard", "--", "src"],
        capture_output=True, text=True, cwd=run.ROOT).stdout.strip()
    return changed or bool(untracked)


def main():
    commit = check.load()["commit"]
    if _src_differs(commit):
        sys.exit(f"src/ differs from {commit[:12]}, the commit the goldens "
                 "describe: refusing to record")
    os.makedirs(run.WORK, exist_ok=True)
    entries = {}
    for workload in run.TIMED + ["known-failures"]:
        for inv in workloads.pool(workload):
            workloads.write_bodies(run.ROOT, [inv])
            child = run.spawn([sys.executable, "-m", "entropia.cli", *inv.argv], 600)
            rc, wall, out, err = child.rc, child.wall, child.out, child.err
            entry = {"digest": workloads.digest(inv), "rc": rc, "wall_s": round(wall, 2)}
            if rc == 0:
                entry["rows"] = json.loads(out)
            else:
                entry["error"] = (err.strip().splitlines() or [""])[-1]
            entries[inv.key] = entry
            print(f"{inv.key:24s} rc={rc} {wall:6.2f}s {entry.get('error', '')}",
                  flush=True)
    with open(check.GOLDENS, "w") as fh:
        json.dump({"commit": commit, "entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
