"""Runs one workload's invocation list through `entropia.cli.main` inside
this one process, with or without the tracer's wrappers installed.

    python3 perfbench/inproc.py WORKLOAD SEED plain|traced OUT.json

The list is the workload's first round (workloads.invocation_list).
Run from the checkout root with PYTHONPATH=src.  Writes OUT.json with
each invocation's exit code and stdout, the pass's wall and CPU time and,
when traced, the counters; spans go to OUT.json's sibling `.spans.jsonl`.
"""

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import click

import check
import tracer as tr
import workloads


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _call(main, argv):
    """Exit code of one CLI call, as the process would report it."""
    try:
        main.main(args=list(argv), prog_name="entropia", standalone_mode=False)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        return exc.exit_code
    except Exception:
        return 1   # an uncaught exception exits the CLI process with 1


def main():
    workload, seed, mode, out_path = sys.argv[1:5]
    from entropia.cli import main as cli_main

    invocations = workloads.invocation_list(workload, int(seed), check.load())
    tracer = tr.Tracer() if mode == "traced" else None
    if tracer:
        tr.install(tracer)
    results = []
    cpu0, t0 = _cpu(), perf_counter()
    for i, inv in enumerate(invocations):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer:
                tracer.invocation = i
                span = tracer.open("cli.run", inv.key)
            rc = _call(cli_main, inv.argv)
            if tracer:
                tracer.close(span)
        results.append({"key": inv.key, "rc": rc, "stdout": stdout.getvalue()})
    wall, cpu = perf_counter() - t0, _cpu() - cpu0
    report = {"wall_s": wall, "cpu_s": cpu, "results": results}
    if tracer:
        tracer.uninstall()
        report["counts"] = tracer.counts
        tracer.dump(out_path + ".spans.jsonl")
    with open(out_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
