"""Checks the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Run from the root of a git checkout.  Verifies that
  1. every per-layer metric is nonzero on the workloads that should move it
     (NONZERO below), from one traced run per workload;
  2. CLI stdout bytes are identical with and without the tracer's wrappers
     installed, invocation by invocation;
  3. the traced run attributes the time as profiled at the recording
     commit: on collapse at least 80% in gamma_plus on the mapping-torus
     system, on htop at least 90% in htop_separated, and on quick the
     import of entropia.cli is more than half of the median invocation
     (unscaled, as printed in the summary);
  4. `git diff` shows src/ untouched after the runs: no uncommitted or
     untracked change there, so the outputs checked are those of the
     committed source and the benchmark wrote nothing into it.  The
     goldens stay those of f7cc5e7 (see record_goldens.py).
Exits 1 if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

import run

ALL = tuple(run.TIMED)
NONZERO = {
    "cli.import_s": ALL,
    "cli.import_scipy_s": ALL,
    "cli.inproc_wall_s": ALL,
    "cli.run_self_s": ("quick",),
    "cli.child_cpu_s": ("quick",),
    "spheres.sphere_grid_calls": ("bodies",),
    "spheres.sphere_grid_s": ("bodies",),
    "convex_body.outer_loewner_calls": ("bodies",),
    "convex_body.outer_loewner_s": ("bodies",),
    "convex_body.inner_loewner_s": ("bodies",),
    "convex_body.fit_points": ("bodies",),
    "convex_body.hull_radial_calls": ("bodies",),
    "convex_body.hull_radial_s": ("bodies",),
    "convex_body.is_convex_s": ("bodies",),
    "convex_body.polar_dual_s": ("bodies",),
    "convex_body.sigma_starshapedness_s": ("bodies",),
    "convex_body.volume_s": ("bodies",),
    "finsler_volume.c_n_calls": ("quick",),
    "finsler_volume.c_n_s": ("quick",),
    "entropy_bounds.reports_s": ("quick",),
    "entropy_bounds.spectrum_tuner_s": ("quick",),
    "entropy_bounds.quad_calls": ("quick",),
    "reeb_collapse.collapse_sweep_s": ("collapse",),
    "reeb_collapse.collapse_volumes_s": ("collapse",),
    "reeb_collapse.return_map_calls": ("collapse",),
    "reeb_collapse.return_map_s": ("collapse",),
    "reeb_collapse.mt_time_one_calls": ("collapse",),
    "reeb_collapse.mt_time_one_s": ("collapse",),
    "reeb_collapse.mt_jacobian_calls": ("collapse",),
    "reeb_collapse.mt_jacobian_s": ("collapse",),
    "reeb_collapse.dual_objects": ("collapse",),
    "reeb_collapse.st_jacobian_s": ("collapse", "quick"),
    "entropy_estimators.gamma_plus_calls": ("collapse", "quick"),
    "entropy_estimators.gamma_plus_s": ("collapse", "quick"),
    "entropy_estimators.gamma_plus_self_s": ("collapse", "quick"),
    "entropy_estimators.gamma_plus_mt_s": ("collapse",),
    "entropy_estimators.htop_s": ("htop",),
    "entropy_estimators.htop_total_s": ("htop",),
    "entropy_estimators.htop_metric_s": ("htop",),
    "entropy_estimators.htop_pair_tests": ("htop",),
    "entropy_estimators.htop_accepted": ("htop",),
    "entropy_estimators.htop_accept_ratio": ("htop",),
    "entropy_estimators.hvol_s": ("quick",),
}


def _benchmark(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark run failed:\n{proc.stdout}{proc.stderr}")
    print(proc.stdout, end="")
    lines = proc.stdout.strip().splitlines()
    summary = {}
    for line in lines[1:-1]:
        fields = line.split()
        if len(fields) >= 2 and not line.startswith(" "):
            summary[fields[0]] = fields[1]
    return json.loads(lines[-1]), summary


def _stdout_by_invocation(mode):
    with open(os.path.join(run.WORK, f"inproc-{mode}.json")) as fh:
        return [(r["key"], r["stdout"].encode()) for r in json.load(fh)["results"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    args = parser.parse_args()
    problems = []

    layer = {}
    for workload in ALL:
        result, _ = _benchmark(workload, args.seed, args.seconds, 1)
        if not result["correct"]:
            problems.append(f"{workload}: outputs disagree with the goldens")
        layer[workload] = {k: v["value"] for k, v in result["metrics"].items()}
        if _stdout_by_invocation("plain") != _stdout_by_invocation("traced"):
            problems.append(f"{workload}: stdout differs with the wrappers installed")

    for metric, where in NONZERO.items():
        for workload in where:
            if not layer[workload][metric]:
                problems.append(f"{metric} is zero on {workload}")

    def traced_wall(w):
        return layer[w]["cli.inproc_wall_s"] * (1.0 + layer[w]["trace.overhead_frac"])

    shares = {
        "collapse: gamma_plus on the mapping torus":
            (layer["collapse"]["entropy_estimators.gamma_plus_mt_s"]
             / traced_wall("collapse"), 0.8),
        "htop: htop_separated":
            (layer["htop"]["entropy_estimators.htop_total_s"] / traced_wall("htop"), 0.9),
    }
    # import time from -X importtime is not scaled to the reference speed,
    # so it is compared with the unscaled median
    _, quick = _benchmark("quick", args.seed, args.seconds, 0)
    p50 = float(quick["cmd_p50_raw_s"])
    shares["quick: import entropia.cli over the median invocation"] = (
        layer["quick"]["cli.import_s"] / p50, 0.5)
    for what, (share, floor) in shares.items():
        print(f"share {what}: {share:.3f} (needs >= {floor})")
        if share < floor:
            problems.append(f"share {what} is {share:.3f}, below {floor}")

    changed = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"],
                             cwd=run.ROOT).returncode != 0
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard", "--", "src"],
        capture_output=True, text=True, cwd=run.ROOT).stdout.strip()
    if changed or untracked:
        problems.append("git diff shows changes under src/")

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
