"""Paper-scale Table 3 benchmark: the p93791 ``W_max`` x grouping sweep.

Each timed run is a fresh process (``child.py``), as a user's ``repro
table p93791 --verify`` is, so the process-wide memos start cold.  Every
run is checked: it must complete, pass ``--verify``, render the committed
table at seed 1 (``golden/``), render the same table as every other run
of the invocation (and, under ``--jobs 2``, as a serial reference run),
repeat the exact layer counts, and run on the C engines with no recovery
event.  A run that fails any check counts in ``failed`` and the command
exits 1.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S]

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones, from runs traced by ``layers.py``
alternating with untraced runs (their wall-time gap is the tracing
overhead).  ``--workload all`` runs every workload and adds the
``--jobs 2`` speedup over serial.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout: the C engines' compiled objects
#: land here (the children's ``TMPDIR``).
SCRATCH = ROOT / ".bench_build" / "perfbench"

# The layer tables import the program, so without its sources this fails
# before any run.
sys.path.insert(0, str(ROOT / "src"))
import layers  # noqa: E402


@dataclass(frozen=True)
class Workload:
    patterns: int
    jobs: int


WORKLOADS = {
    "table3_nr100k_serial": Workload(patterns=100_000, jobs=1),
    "table3_nr100k_jobs2": Workload(patterns=100_000, jobs=2),
    "table3_nr10k_serial": Workload(patterns=10_000, jobs=1),
}

#: The seed of the committed tables in ``golden/``.
GOLDEN_SEED = 1
#: Set-up-only processes per invocation, besides every run's own set-up.
SETUP_PROBES = 5
#: One invocation ends within this many seconds.
DEADLINE_S = 170.0


def _kill_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _child(flags: list[str], timeout: float) -> dict:
    """Run ``child.py`` with ``flags``; its JSON result, or ``{"error"}``."""
    # The program's own switches (fault plans, engine toggles) stay unset:
    # the benchmark measures the default configuration.
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["TMPDIR"] = str(SCRATCH)
    started = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "--spawned", repr(started),
         *flags],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(process.pid)
        process.communicate()
        return {"error": f"timed out after {timeout:.0f}s"}
    _kill_group(process.pid)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {process.returncode}: {tail[0]}"}
    result["elapsed_s"] = time.monotonic() - started
    return result


@dataclass
class Measurement:
    """What one workload invocation saw."""

    name: str
    seed: int
    trace: bool
    setup: list[dict] = field(default_factory=list)
    runs: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reference_wall_s: float | None = None


def _counts(result: dict) -> dict:
    """The exact counts of one run that must repeat."""
    counts = {
        name: result["counters"].get(name, 0)
        for name in layers.EXACT_COUNTERS
    }
    if "layers" in result:
        for name in layers.EXACT_LAYER_COUNTS + layers.PER_PROCESS_COUNTS:
            counts[name] = result["layers"][name]
    return counts


def _check(result: dict, expected_table: str | None, reference: dict | None,
           same_jobs: bool) -> list[str]:
    """Every reason ``result`` is not a good run (empty when it is)."""
    if "error" in result:
        return [result["error"]]
    problems = []
    if result["status"] != "complete":
        problems.append(f"run ended {result['status']}")
    elif expected_table is not None and \
            result["table"].rstrip("\n") != expected_table.rstrip("\n"):
        problems.append("rendered table differs from the expected table")
    for engine, resolved in sorted(result["engines"].items()):
        if not resolved:
            problems.append(f"C engine {engine} fell back to Python")
    for name, value in sorted(result["counters"].items()):
        if name.startswith("recovery.") and value:
            problems.append(f"{name}={value}")
    if reference is not None:
        counts = _counts(result)
        for name, value in _counts(reference).items():
            if name not in counts or (
                not same_jobs and name in layers.PER_PROCESS_COUNTS
            ):
                continue
            if counts[name] != value:
                problems.append(f"{name}={counts[name]}, expected {value}")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool) -> Measurement:
    """Run one workload: warm-up, set-up probes, an untimed serial
    reference under ``--jobs 2``, then timed runs for ``seconds``."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    SCRATCH.mkdir(parents=True, exist_ok=True)
    outcome = Measurement(name=name, seed=seed, trace=trace)

    def remaining() -> float:
        return deadline - time.monotonic()

    def table_run(jobs: int, traced: bool) -> dict:
        flags = ["--patterns", str(workload.patterns), "--seed", str(seed),
                 "--jobs", str(jobs)]
        return _child(flags + (["--trace"] if traced else []), remaining())

    def settle(result: dict, problems: list[str]) -> bool:
        outcome.attempted += 1
        if "setup_s" in result:
            outcome.setup.append(result)
        if problems:
            outcome.failed += 1
            outcome.problems.extend(problems)
        return not problems

    # One untimed warm-up, so the one-time compile of the C engines and
    # the byte-code cache stay out of every measured set-up.
    warm = _child(["--setup-only"], remaining())
    if "error" in warm:
        settle(warm, [f"warm-up: {warm['error']}"])
        return outcome
    for _ in range(SETUP_PROBES):
        probe = _child(["--setup-only"], remaining())
        settle(probe, [probe["error"]] if "error" in probe else [])

    golden = None
    if seed == GOLDEN_SEED:
        golden = (
            HERE / "golden" / f"table3_p93791_nr{workload.patterns}.txt"
        ).read_text()
    expected, reference = golden, None
    if workload.jobs > 1:
        serial = table_run(1, trace)
        if not settle(serial, _check(serial, golden, None, True)):
            return outcome
        expected, reference = serial["table"], serial
        outcome.reference_wall_s = serial["wall_s"]
    # Under --jobs 2 the reference is the serial run, whose per-process
    # counts differ by design.
    same_jobs = workload.jobs == 1

    started = time.monotonic()
    while True:
        traced = trace and len(outcome.runs) % 2 == 0
        result = table_run(workload.jobs, traced)
        if settle(result, _check(result, expected, reference, same_jobs)):
            outcome.runs.append(result)
            if expected is None:
                expected = result["table"]
            if reference is None:
                reference = result
        else:
            break
        estimate = statistics.median(run["elapsed_s"] for run in outcome.runs)
        elapsed = time.monotonic() - started
        enough = len(outcome.runs) >= (2 if trace else 1)
        if (enough and elapsed >= seconds) or remaining() < 2 * estimate + 5:
            break
    if trace and len(outcome.runs) < 2:
        outcome.problems.append("too little time for a traced and an "
                                "untraced run")
        outcome.failed += 1
    return outcome


def end_to_end(outcome: Measurement) -> dict:
    """Medians over the timed runs (set-up: over every process)."""
    metrics = {
        name: statistics.median(run[name] for run in outcome.runs)
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(
        result["setup_s"] for result in outcome.setup
    )
    return metrics


def per_layer(outcome: Measurement) -> dict:
    """Layer metrics of the traced run with the median plan wall time
    (one consistent run, so its layer times sum to its wall time), plus
    set-up split medians, engines and the tracing overhead."""
    traced = sorted(
        (run for run in outcome.runs if "layers" in run),
        key=lambda run: run["plan_wall_s"],
    )
    untraced = [run for run in outcome.runs if "layers" not in run]
    metrics = dict(traced[(len(traced) - 1) // 2]["layers"])
    for part in ("import_s", "soc_load_s", "engines_s"):
        metrics[f"setup.{part}"] = statistics.median(
            result["setup"][part] for result in outcome.setup
        )
    metrics["trace.overhead_s"] = statistics.median(
        run["wall_s"] for run in traced
    ) - statistics.median(run["wall_s"] for run in untraced)
    first = outcome.runs[0]
    for engine in ("cscan", "movescan"):
        metrics[f"engines.{engine}"] = int(bool(first["engines"][engine]))
    metrics["recovery.events"] = sum(
        value
        for run in outcome.runs
        for name, value in run["counters"].items()
        if name.startswith("recovery.")
    )
    return metrics


def _declared(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }


def report(outcome: Measurement) -> dict:
    """Print the human summary of ``outcome``; return its metric block
    (empty when a run failed)."""
    print(f"workload {outcome.name}: seed {outcome.seed}, "
          f"{'traced' if outcome.trace else 'untraced'}, "
          f"{len(outcome.runs)} timed runs")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    print(f"  failed_frac {outcome.failed / max(outcome.attempted, 1):.4f} "
          f"({outcome.failed} of {outcome.attempted} checked processes)")
    if not outcome.runs or outcome.failed:
        return {}
    check = "golden table" if outcome.seed == GOLDEN_SEED else \
        "tables identical across runs"
    if WORKLOADS[outcome.name].jobs > 1:
        check += ", identical to a serial reference run " \
            f"({outcome.reference_wall_s:.3f} s untimed)"
    print(f"  checks: --verify, {check}, exact counts repeat")
    walls = ", ".join(f"{run['wall_s']:.3f}" for run in outcome.runs)
    print(f"  wall_s of the timed runs: {walls}; setup_s of "
          f"{len(outcome.setup)} processes")
    units = _declared(outcome.trace)
    values = per_layer(outcome) if outcome.trace else end_to_end(outcome)
    unknown = set(units) ^ set(values)
    if unknown:
        raise KeyError(f"metrics unlike BENCHMARK.json: {sorted(unknown)}")
    for metric, unit in units.items():
        print(f"  {metric:<32} {values[metric]:>16.6f} {unit}")
    missing = sorted({hook for run in outcome.runs
                      for hook in run.get("missing_hooks", ())})
    if missing:
        print(f"  untraced, hook not found: {', '.join(missing)}")
    if outcome.trace and WORKLOADS[outcome.name].jobs == 1:
        total = layers.attributed_sum(values)
        print(f"  layer times + plan.unattributed_s = {total:.6f} s "
              f"= plan.wall_s {values['plan.wall_s']:.6f} s")
    return {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit in units.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Paper-scale Table 3 benchmark (p93791)."
    )
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"
        ]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        outcome = measure(name, args.seed, seconds, bool(args.trace))
        block = report(outcome)
        attempted += outcome.attempted
        failed += outcome.failed
        if args.workload == "all":
            block = {f"{name}.{key}": value for key, value in block.items()}
        metrics.update(block)
    if args.workload == "all" and not failed and not args.trace:
        serial = metrics["table3_nr100k_serial.wall_s"]["value"]
        parallel = metrics["table3_nr100k_jobs2.wall_s"]["value"]
        metrics["speedup_jobs2_over_serial"] = {
            "value": serial / parallel, "unit": "x"
        }
        print(f"speedup over serial at --jobs 2: {serial / parallel:.3f}x "
              f"= table3_nr100k_serial.wall_s {serial:.3f} s / "
              f"table3_nr100k_jobs2.wall_s {parallel:.3f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
