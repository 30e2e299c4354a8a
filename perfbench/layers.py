"""Per-layer spans of the Table 3 benchmark, recorded outside the program.

:func:`install` replaces each layer's public entry point, at the module
attribute the table sweep looks it up through, with a wrapper that times
the call through :meth:`Instrumentation.timeit` under the timer
``perfbench.<layer>`` and adds a few ``perfbench.*`` counters.  Because
the wrappers write to whatever instrumentation is current, times recorded
inside sweep workers come back on the program's own snapshot protocol.
Workers are forked from the process that called :func:`install`, so they
inherit the wrappers.

A call made while another traced layer is running also adds its time to
the timer ``perfbench.<parent>.nested``; a layer's self time is its busy
time minus that.  The self times of all layers plus the unattributed rest
sum to the plan's wall time in a serial run.

:func:`layer_metrics` turns one run's counters and timers into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib

from repro.runtime.instrumentation import get_instrumentation, incr

#: (module, attribute, layer): the entry points wrapped, at the module
#: attribute their caller in the table sweep resolves them through.
HOOKS = (
    ("repro.sitest.generator", "generate_random_patterns", "generator"),
    ("repro.experiments.table_runner", "build_si_test_groups", "grouping"),
    ("repro.compaction.horizontal", "partition", "hypergraph"),
    ("repro.compaction.horizontal", "greedy_compact", "compaction"),
    ("repro.compaction._cscan", "greedy_scan", "scan"),
    ("repro.experiments.table_runner", "optimize_tam", "optimizer"),
    ("repro.experiments.table_runner", "evaluate_architecture", "scheduling"),
    ("repro.resilience.verify", "verify_optimization", "verify"),
)

LAYERS = tuple(layer for _module, _attribute, layer in HOOKS)

#: Program counters that must repeat exactly across runs of one problem,
#: serial or parallel.
EXACT_COUNTERS = (
    "compaction.patterns_in",
    "compaction.patterns_out",
    "compaction.residual_patterns",
    "compaction.greedy_runs",
    "compaction.bitset.words_compared",
    "compaction.bitset.candidates_pruned",
    "optimizer.runs",
    "optimizer.merges_tried",
    "optimizer.core_moves_tried",
    "optimizer.moves_pruned",
    "optimizer.wires_distributed",
    "movescan.moves_scored",
    "evaluator.evaluations",
    "verify.schedules_checked",
    "plan.cells_executed",
)

#: Per-layer count metrics that must repeat exactly across traced runs of
#: one workload and match between the serial and ``--jobs 2`` runs.
EXACT_LAYER_COUNTS = (
    "hypergraph.calls",
    "hypergraph.edges",
    "hypergraph.cut_weight",
    "compaction.calls",
    "compaction.patterns_in",
    "compaction.patterns_out",
    "compaction.words_compared",
    "compaction.candidates_pruned",
    "grouping.residual_patterns",
    "optimizer.calls",
    "optimizer.merges_tried",
    "optimizer.core_moves_tried",
    "optimizer.moves_pruned",
    "movescan.moves_scored",
    "scheduling.calls",
    "evaluator.evaluations",
    "verify.calls",
    "plan.cells_executed",
)

#: Counts that repeat across runs of one workload but differ between the
#: serial and ``--jobs 2`` runs by design: each worker generates its own
#: copy of the pattern set.
PER_PROCESS_COUNTS = (
    "generator.calls",
    "generator.patterns",
    "statecache.patterns_generated",
)


def _count_patterns(_args, _kwargs, result) -> None:
    incr("perfbench.generator.patterns", len(result))


def _count_partition(args, _kwargs, result) -> None:
    incr("perfbench.hypergraph.edges", args[0].edge_count)
    incr("perfbench.hypergraph.cut_weight", result.cut)


_COUNTERS = {"generator": _count_patterns, "hypergraph": _count_partition}

#: The layer of the innermost traced call running in this process.
_stack: list[str] = []


def _traced(layer: str, fn):
    count = _COUNTERS.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        instrumentation = get_instrumentation()
        parent = _stack[-1] if _stack else None
        _stack.append(layer)
        try:
            with instrumentation.timeit(f"perfbench.{layer}"):
                if parent is None:
                    result = fn(*args, **kwargs)
                else:
                    with instrumentation.timeit(f"perfbench.{parent}.nested"):
                        result = fn(*args, **kwargs)
        finally:
            _stack.pop()
        if count is not None:
            count(args, kwargs, result)
        return result

    return wrapper


def install() -> list[str]:
    """Wrap every hook point; return the ones that no longer exist.

    A missing hook leaves its layer at zero, and its time then shows as
    unattributed, instead of failing the run.
    """
    missing = []
    for module_name, attribute, layer in HOOKS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attribute, None)
        if fn is None:
            missing.append(f"{module_name}.{attribute}")
        else:
            setattr(module, attribute, _traced(layer, fn))
    return missing


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(counters: dict, timers: dict, plan_wall: float,
                  jobs: int) -> dict:
    """Per-layer metrics of one traced run.

    ``plan_wall`` is the plan's wall time and ``jobs`` its worker count.
    Busy times sum over processes, so under ``--jobs 2`` they can exceed
    the wall time and ``plan.unattributed_s`` turns negative; it is the
    unattributed rest only in a serial run.
    """
    def timer(name: str, field: str = "wall_seconds") -> float:
        return timers.get(name, {}).get(field, 0)

    def busy(layer: str) -> float:
        return timer(f"perfbench.{layer}")

    def calls(layer: str) -> int:
        return timer(f"perfbench.{layer}", "calls")

    def own(layer: str) -> float:
        return busy(layer) - timer(f"perfbench.{layer}.nested")

    def count(name: str) -> int:
        return counters.get(name, 0)

    tried = (
        count("optimizer.merges_tried") + count("optimizer.core_moves_tried")
    )
    cell_busy = sum(
        busy(layer)
        for layer in ("generator", "grouping", "optimizer", "scheduling")
    )
    return {
        "generator.busy_s": busy("generator"),
        "generator.calls": calls("generator"),
        "generator.patterns": count("perfbench.generator.patterns"),
        "hypergraph.busy_s": busy("hypergraph"),
        "hypergraph.calls": calls("hypergraph"),
        "hypergraph.edges": count("perfbench.hypergraph.edges"),
        "hypergraph.cut_weight": count("perfbench.hypergraph.cut_weight"),
        "compaction.busy_s": busy("compaction"),
        "compaction.calls": calls("compaction"),
        "compaction.scan_s": busy("scan"),
        "compaction.patterns_in": count("compaction.patterns_in"),
        "compaction.patterns_out": count("compaction.patterns_out"),
        "compaction.kept_ratio": _ratio(count("compaction.patterns_out"),
                                        count("compaction.patterns_in")),
        "compaction.words_compared": count("compaction.bitset.words_compared"),
        "compaction.candidates_pruned":
            count("compaction.bitset.candidates_pruned"),
        "grouping.busy_s": busy("grouping"),
        "grouping.self_s": own("grouping"),
        "grouping.residual_patterns": count("compaction.residual_patterns"),
        "optimizer.busy_s": busy("optimizer"),
        "optimizer.calls": calls("optimizer"),
        "optimizer.merges_tried": count("optimizer.merges_tried"),
        "optimizer.core_moves_tried": count("optimizer.core_moves_tried"),
        "optimizer.moves_pruned": count("optimizer.moves_pruned"),
        "optimizer.prune_ratio": _ratio(count("optimizer.moves_pruned"),
                                        tried),
        "movescan.moves_scored": count("movescan.moves_scored"),
        "scheduling.busy_s": busy("scheduling"),
        "scheduling.calls": calls("scheduling"),
        "evaluator.evaluations": count("evaluator.evaluations"),
        "verify.busy_s": busy("verify"),
        "verify.calls": calls("verify"),
        "plan.wall_s": plan_wall,
        "plan.unattributed_s": plan_wall - sum(own(layer) for layer in LAYERS),
        "plan.cells_executed": count("plan.cells_executed"),
        "plan.cells_failed":
            count("executor.cells_failed") + count("plan.cells_poisoned"),
        "pool.warmup_s": timer("worker.warmup"),
        "pool.utilization": _ratio(cell_busy, jobs * plan_wall),
        "pool.cells_stolen": count("steal.cells_stolen"),
        "pool.reassignments": count("pool.reassignments"),
        "statecache.patterns_generated":
            count("statecache.patterns_generated"),
    }


def attributed_sum(metrics: dict) -> float:
    """The layer busy times that partition a serial run's plan wall time
    (with ``plan.unattributed_s``): every layer but the ones nested in
    grouping, and compaction's scan, which is inside compaction."""
    return sum(
        metrics[name]
        for name in (
            "generator.busy_s",
            "grouping.self_s",
            "hypergraph.busy_s",
            "compaction.busy_s",
            "optimizer.busy_s",
            "scheduling.busy_s",
            "verify.busy_s",
            "plan.unattributed_s",
        )
    )
