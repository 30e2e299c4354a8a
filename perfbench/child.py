"""One Table 3 run in a fresh process, as a user's ``repro table`` is.

``run.py`` starts this script once per timed run, so the process-wide
memos (the pattern state cache, the core-time memo) start cold every
time.  It sets up (imports, ``load_benchmark``, resolving the C engines),
runs the p93791 table plan with verification on, renders the table and
prints one JSON object as its last line of output: the set-up split, plan
wall and CPU time, peak RSS, the table text, the engines and sweep
backend in use, and the run's counters and timers.

Usage::

    python3 perfbench/child.py --spawned T [--setup-only]
        [--patterns N --seed S --jobs J] [--trace]

``T`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time includes interpreter start-up.
"""

import time

START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

SOC = "p93791"


def _cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of the largest single process: this one or a worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def run(args) -> dict:
    imported = time.monotonic()
    from repro.experiments.render import render_report
    from repro.experiments.runner import PlanRunner
    from repro.experiments.table_runner import table_plan
    from repro.runtime import Instrumentation, use_instrumentation
    from repro.runtime.pool import warm_engines
    from repro.soc.benchmarks import load_benchmark

    loading = time.monotonic()
    soc = load_benchmark(SOC)
    resolving = time.monotonic()
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        engines = warm_engines()
        ready = time.monotonic()
        result = {
            "setup_s": ready - args.spawned,
            "setup": {
                "interpreter_s": START - args.spawned,
                "import_s": loading - imported,
                "soc_load_s": resolving - loading,
                "engines_s": ready - resolving,
            },
            "engines": engines,
        }
        if args.setup_only:
            result["counters"] = instrumentation.snapshot()["counters"]
            return result
        if args.trace:
            import layers

            result["missing_hooks"] = layers.install()
        cpu_start = _cpu_seconds()
        plan_start = time.perf_counter()
        runner = PlanRunner(jobs=args.jobs, verify=True)
        plan_run = runner.run(table_plan(soc, args.patterns, seed=args.seed))
        table = (
            render_report("table", plan_run.report)
            if plan_run.status == "complete"
            else None
        )
        wall = time.perf_counter() - plan_start
        cpu = _cpu_seconds() - cpu_start
    snapshot = instrumentation.snapshot()
    result.update(
        wall_s=wall,
        plan_wall_s=plan_run.wall_seconds,
        cpu_s=cpu,
        peak_rss_mb=_peak_rss_mb(),
        status=plan_run.status,
        backend=plan_run.backend,
        table=table,
        counters=snapshot["counters"],
    )
    if args.trace:
        result["layers"] = layers.layer_metrics(
            snapshot["counters"], snapshot["timers"], plan_run.wall_seconds,
            args.jobs,
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--patterns", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except Exception as error:  # reported to the parent as a failed run
        print(json.dumps({"error": f"{type(error).__name__}: {error}"}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
