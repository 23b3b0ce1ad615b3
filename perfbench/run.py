"""End-to-end benchmark of the `entropia` CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  W is one of collapse, htop, bodies,
quick (the workloads of BENCHMARK.json), known-failures (the invocations
that fail at the recording commit, see workloads.py) or all (each timed
workload in turn).

--trace 0: a closed loop with one client runs rounds of the workload's
invocation mix for S seconds, each invocation a fresh
`python -m entropia.cli` process started when the previous one has
exited, and reports the end-to-end metrics in reference seconds: wall
times scaled by the machine's speed measured on the same core while each
child ran (calibrate.py).  The benchmark and its children are pinned to
one core.
--trace 1: the workload's first round runs inside one process through
`entropia.cli.main`, once plain and once with the tracer's wrappers, and
the per-layer metrics are reported (see tracer.py).

Every output is checked against its golden.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import collections
import itertools
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import calibrate
import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, workloads.WORK_DIR)
TIMED = ["collapse", "htop", "bodies", "quick"]
SETUP_REPEATS = 5
RUN_LIMIT_S = 150.0     # a timed run must end within 180 s
KNOWN_FAILURES_LIMIT_S = 600.0


def _env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


@dataclass
class Child:
    rc: int          # exit code; -9 if killed at its time limit
    wall: float      # wall time, s
    scale: float     # calibrate.REF_CHUNK_S over the mean chunk time meanwhile
    usage: object    # rusage from wait4
    out: str
    err: str

    @property
    def scaled(self):
        """Wall time in reference seconds (calibrate.py)."""
        return self.wall * self.scale


def spawn(argv, timeout):
    """Runs argv as a child of this process and waits for it, running a
    calibration chunk every calibrate.PERIOD_S meanwhile.  A child still
    running after `timeout` seconds is killed."""
    out_path, err_path = os.path.join(WORK, "stdout"), os.path.join(WORK, "stderr")
    chunks = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_env())
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                chunks.append(calibrate.chunk_s())
                if select.select([pidfd], [], [], calibrate.PERIOD_S)[0]:
                    break
                if perf_counter() - t0 > timeout:
                    proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            wall = perf_counter() - t0
            _, status, usage = os.wait4(proc.pid, 0)
            os.close(pidfd)
    with open(out_path) as out, open(err_path) as err:
        return Child(os.waitstatus_to_exitcode(status), wall,
                     calibrate.REF_CHUNK_S / statistics.fmean(chunks), usage,
                     out.read(), err.read())


def _python(*args):
    return [sys.executable, *args]


def _import(deadline):
    """A fresh interpreter run until `import entropia.cli` returns; None if
    the run's time limit has passed or ends the import."""
    if perf_counter() >= deadline:
        return None
    child = spawn(_python("-c", "import entropia.cli"), deadline - perf_counter())
    if child.rc != 0 and perf_counter() >= deadline:
        return None
    if child.rc != 0:
        raise SystemExit(f"import entropia.cli failed: {child.err.strip()[-300:]}")
    return child


def _tail(times):
    """(value, percentile, count beyond): the highest percentile with at
    least ten invocations beyond it.  Below 21 invocations that percentile
    would not be above the median, and the maximum is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    i = n - 11 if n > 20 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def _failure(inv, golden, why):
    return {"key": inv.key, "why": why, "has_golden": golden is not None}


def _golden_for(goldens, inv):
    entry = goldens["entries"].get(inv.key)
    if entry is None or entry["digest"] != workloads.digest(inv):
        raise SystemExit(f"no golden recorded for {inv.key} with these inputs; "
                         "run perfbench/record_goldens.py at the recording commit")
    return entry if entry["rc"] == 0 else None


def untraced(workload, seed, seconds, goldens, deadline):
    """The closed loop: rounds of the workload's mix (workloads.rounds)
    until `seconds` are used, each invocation a fresh CLI process.

    The first round always runs to its end; a later invocation starts only
    if it is expected to end within `seconds`, at its recorded time scaled
    by how fast the run has gone so far.  Every timing is reported in
    reference seconds (calibrate.py), the raw ones only in the summary.
    setup_s is the median of SETUP_REPEATS imports spread evenly over the
    run, after one untimed import that fills the bytecode and file caches.
    round_s is one round's time from per-class medians, which does not
    depend on where the run stopped.
    """
    start = perf_counter()
    _import(deadline)
    setup_due = [start + k * seconds / SETUP_REPEATS for k in range(SETUP_REPEATS)]
    setups, children, by_class, failures = [], [], {}, []
    spent = recorded = 0.0

    def fits(expected):
        pace = spent / recorded if recorded else 1.0
        return perf_counter() + expected * pace <= start + seconds

    if workload == "known-failures":
        sequence = iter([workloads.invocation_list(workload, seed, goldens)])
    else:
        sequence = workloads.rounds(workload, seed, goldens)
    first = next(sequence)
    per_round = collections.Counter(inv.klass for inv in first)
    invocations = itertools.chain(first, itertools.chain.from_iterable(sequence))
    for i, inv in enumerate(invocations):
        golden = _golden_for(goldens, inv)
        expected = workloads.expected_s(inv, goldens)
        if i >= len(first) and not fits(expected):
            break
        while setup_due and perf_counter() >= setup_due[0]:
            setup_due.pop(0)
            setups.append(_import(deadline))
        if perf_counter() >= deadline:
            failures.append(_failure(inv, golden, "not started: run time limit"))
            continue
        workloads.write_bodies(ROOT, [inv])
        child = spawn(_python("-m", "entropia.cli", *inv.argv), deadline - perf_counter())
        children.append(child)
        by_class.setdefault(inv.klass, []).append(child)
        spent, recorded = spent + child.wall, recorded + expected
        why = check.verdict(golden, child.rc, child.out)
        if why:
            last = child.err.strip().splitlines()[-1:]
            failures.append(_failure(inv, golden, f"{why} {last[0] if last else ''}"))
    setups += [_import(deadline) for _ in setup_due]
    setups = [c for c in setups if c is not None]

    def med(cs, raw=False):
        return statistics.median(c.wall if raw else c.scaled for c in cs)

    def round_time(raw=False):
        return sum(k * med(by_class[c], raw) for c, k in per_round.items()
                   if c in by_class)

    metrics = {
        "setup_s": (med(setups), "s"),
        "round_s": (round_time(), "s"),
        "cmd_p50_s": (med(children), "s"),
        "peak_rss_mb": (max(c.usage.ru_maxrss for c in children) / 1024.0, "MB"),
    }
    # printed but not reported as metrics: the raw timings, the machine's
    # speed, and cmd_tail_s, which below 21 invocations is the slowest
    # single invocation, too noisy to bound
    n = len(children)
    tail, pct, beyond = _tail([c.scaled for c in children])
    shown = dict(
        metrics, cmd_tail_s=(tail, "s"),
        speed_scale=(statistics.median(c.scale for c in children), "ratio"),
        setup_raw_s=(med(setups, True), "s"), round_raw_s=(round_time(True), "s"),
        cmd_p50_raw_s=(med(children, True), "s"),
        wall_raw_s=(sum(c.wall for c in children), "s"),
        cpu_raw_s=(sum(c.usage.ru_utime + c.usage.ru_stime for c in children), "s"))
    notes = {"round_s": "per-class medians of one round: " + ", ".join(
                 f"{k} {c}" for c, k in per_round.items()),
             "cmd_p50_s": f"median of {n} invocations",
             "cmd_tail_s": f"p{pct:.0f}, {beyond} of {n} invocations beyond it",
             "speed_scale": "median over the invocations",
             "wall_raw_s": f"all {n} invocations",
             "cpu_raw_s": "user + system time of the invocations"}
    attempted = n + sum(f["why"].startswith("not started") for f in failures)
    print_summary(shown, notes, attempted, failures)
    return metrics, failures, attempted


def _import_times():
    """(total s of `import entropia.cli`, scipy's share) from -X importtime:
    the cumulative time of entropia.cli and the self times of scipy.*."""
    child = spawn(_python("-X", "importtime", "-c", "import entropia.cli"), 60)
    if child.rc != 0:
        raise SystemExit("import entropia.cli failed")
    total = scipy = 0.0
    for line in child.err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue
        name = name.strip()
        if name == "entropia.cli":
            total = int(cum_us) / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy += int(self_us) / 1e6
    return total, scipy


def _inproc(workload, seed, mode, deadline):
    out = os.path.join(WORK, f"inproc-{mode}.json")
    child = spawn(
        _python(os.path.join(HERE, "inproc.py"), workload, str(seed), mode, out),
        deadline - perf_counter())
    if child.rc != 0:
        raise SystemExit(f"in-process {mode} run failed: {child.err.strip()[-500:]}")
    with open(out) as fh:
        report = json.load(fh)
    if mode == "traced":
        with open(out + ".spans.jsonl") as fh:
            report["spans"] = [json.loads(line) for line in fh]
    return report


def traced(workload, seed, goldens, deadline):
    """The workload's first round in process, plain and traced."""
    invocations = workloads.invocation_list(workload, seed, goldens)
    workloads.write_bodies(ROOT, invocations)
    import_s, scipy_s = _import_times()
    plain = _inproc(workload, seed, "plain", deadline)
    traced_run = _inproc(workload, seed, "traced", deadline)
    failures = []
    for inv, a, b in zip(invocations, plain["results"], traced_run["results"]):
        golden = _golden_for(goldens, inv)
        why = (check.verdict(golden, a["rc"], a["stdout"])
               or check.verdict(golden, b["rc"], b["stdout"]))
        if why:
            failures.append(_failure(inv, golden, why))
    extra = {
        "cli.import_s": import_s,
        "cli.import_scipy_s": scipy_s,
        "cli.child_cpu_s": plain["cpu_s"],
        "cli.inproc_wall_s": plain["wall_s"],
        "trace.overhead_frac": traced_run["wall_s"] / plain["wall_s"] - 1.0,
    }
    metrics = tracer.layer_metrics(traced_run["spans"], traced_run["counts"], extra)
    print_summary(metrics, {}, len(invocations), failures)
    return metrics, failures, len(invocations)


def print_summary(metrics, notes, attempted, failures):
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:14.6g} {unit}{note}")
    print(f"{'failed_frac':40s} {len(failures) / attempted:14.6g} ratio"
          f"  ({len(failures)} of {attempted} invocations)")
    for f in failures:
        print(f"  failed {f['key']}: {f['why']}")


def run(workload, seed, seconds, trace):
    limit = KNOWN_FAILURES_LIMIT_S if workload == "known-failures" else RUN_LIMIT_S
    deadline = perf_counter() + limit
    goldens = check.load()
    os.makedirs(WORK, exist_ok=True)
    print(f"# workload {workload}, seed {seed}, {seconds:g} s, trace {trace}")
    if trace:
        metrics, failures, attempted = traced(workload, seed, goldens, deadline)
    else:
        metrics, failures, attempted = untraced(workload, seed, seconds, goldens,
                                                deadline)
    # an invocation that failed at the recording commit has no golden and
    # fails until it is fixed; every other failure is a wrong output
    print(json.dumps({
        "correct": all(not f["has_golden"] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=TIMED + ["known-failures", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through spawn, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # one core for the benchmark and every child it starts (calibrate.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(ROOT, "src", "entropia", "cli.py")):
        sys.exit("no src/entropia here: run from the root of an entropia checkout")
    for workload in TIMED if args.workload == "all" else [args.workload]:
        run(workload, args.seed, args.seconds, args.trace)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
