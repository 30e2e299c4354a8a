"""Command-line interface: ``repro-soc`` (or ``python -m repro``).

Subcommands:

* ``list`` — shipped benchmark SOCs.
* ``describe SOC`` — core table of a benchmark.
* ``compact SOC`` — run two-dimensional SI compaction and print statistics.
* ``optimize SOC`` — optimize the test architecture and print the schedule.
* ``table SOC`` — regenerate a Table 2/3 style experiment.
* ``bounds SOC`` — lower bounds and the optimality gap of the heuristic.
* ``overhead SOC`` — DFT area cost of SI-capable wrappers.
* ``svg SOC`` — export the optimized schedule as an SVG figure.
* ``synth NAME`` — generate a synthetic ITC'02-style SOC.
* ``evaluate SOC`` — price a saved architecture against a test set.
* ``pareto SOC`` — pin-budget trade-off curve with knee detection.
* ``scaling`` — optimizer scaling study on synthesized SOCs.
* ``volume SOC`` — test-data-volume study of 2-D compaction.
* ``coverage SOC`` — MA fault coverage of a random pattern set.
* ``compare SOC`` — head-to-head optimizer comparison.
* ``multisite SOC`` — multi-site throughput study.
* ``sensitivity SOC`` — generator-knob sensitivity study.
* ``stability SOC`` — seed-stability of the table metrics.
* ``cache verify|gc`` — integrity-check / prune the on-disk cache store.
* ``serve`` — run the optimization service (async HTTP job server).
* ``submit`` — submit an experiment to a running service and wait.
* ``jobs`` — list, inspect, or stream jobs on a running service.

Exit codes are uniform across commands (``repro.runtime.status``):
0 = ok, 1 = failed, 3 = partial (``--allow-partial`` salvage), 2 =
argparse usage error, 87 = injected fault abort (test harness only).

Every experiment command (``pareto``, ``scaling``, ``table``,
``volume``, ``compare``, ``multisite``, ``sensitivity``, ``stability``)
runs through the declarative plan layer
(:mod:`repro.experiments.plan` / :class:`~repro.experiments.runner.PlanRunner`)
and uniformly accepts ``--jobs``, ``--cache``, ``--resume`` and
``--verify``, plus ``--profile`` for the unified JSON run report
(``docs/experiments.md``).  ``optimize`` and ``evaluate`` also accept
``--verify`` for the independent schedule post-condition verifier
(``docs/resilience.md``).

See ``docs/cli.md`` for worked examples of every command.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.compaction.horizontal import build_si_test_groups
from repro.core.optimizer import optimize_tam
from repro.experiments.reporting import save_result
from repro.experiments.table_runner import (
    DEFAULT_GROUP_COUNTS,
    DEFAULT_WIDTHS,
)
from repro.sitest.generator import generate_random_patterns
from repro.soc.benchmarks import available_benchmarks, load_benchmark
from repro.soc.itc02 import parse_file
from repro.soc.model import Soc
from repro.tam.gantt import render_schedule


def _load_soc(name: str) -> Soc:
    """Load a shipped benchmark by name, or an ITC'02 file by path."""
    if name in available_benchmarks():
        return load_benchmark(name)
    return parse_file(name)


def _make_cache(args: argparse.Namespace):
    """Build the evaluation cache requested by ``--cache``, or ``None``."""
    store_dir = getattr(args, "cache", None)
    if store_dir is None:
        return None
    from repro.runtime import EvaluationCache

    return EvaluationCache(store_dir=store_dir)


#: Where ``--resume`` without a PATH puts its checkpoint files.
DEFAULT_CHECKPOINT_DIR = "results/checkpoints"


def _make_checkpoint(args: argparse.Namespace, plan):
    """Build the ``--resume`` checkpoint for ``plan``, or ``None``.

    Without an explicit PATH the file is derived from the plan's content
    fingerprint under :data:`DEFAULT_CHECKPOINT_DIR`, so resuming the
    same experiment finds the same checkpoint and a different experiment
    never aliases it.
    """
    resume = getattr(args, "resume", None)
    if resume is None:
        return None
    from pathlib import Path

    from repro.resilience.checkpoint import SweepCheckpoint

    if resume == "auto":
        tag = plan.fingerprint().split("-", 1)[1][:16]
        resume = Path(DEFAULT_CHECKPOINT_DIR) / f"{plan.name}-{tag}.json"
    checkpoint = SweepCheckpoint(resume)
    if checkpoint.resumed_from_disk:
        print(
            f"resuming from {checkpoint.path} "
            f"({len(checkpoint)} recorded cells)"
        )
    return checkpoint


def _runtime_arguments(args: argparse.Namespace) -> dict:
    """The uniform runtime-flag tail of a run report's arguments."""
    return {
        "jobs": args.jobs,
        "cache": args.cache,
        "resume": args.resume,
        "verify": getattr(args, "verify", False),
        "policy": getattr(args, "policy", None),
        "allow_partial": getattr(args, "allow_partial", False),
    }


def _make_policy(args: argparse.Namespace):
    """Build the run policy from ``--policy``/``--allow-partial``, or
    ``None`` for the (behavior-identical) default policy."""
    spec = getattr(args, "policy", None)
    allow_partial = getattr(args, "allow_partial", False)
    if spec is None and not allow_partial:
        return None
    from repro.runtime.supervision import RunPolicy

    policy = RunPolicy.parse(spec) if spec else RunPolicy()
    if allow_partial:
        policy = policy.replace(allow_partial=True)
    return policy


def _render_partial(run) -> None:
    """The partial-run banner: what was salvaged, what was quarantined."""
    print(
        f"PARTIAL RUN: {len(run.poisoned)} of {run.cells} cells "
        "quarantined; no report assembled"
    )
    for cell_id, reason in sorted(run.poisoned.items()):
        print(f"  poisoned {cell_id}: {reason}")
    salvaged = run.executed + run.cached + run.resumed
    print(
        f"{salvaged} cells completed (checkpoint/cache keep them); "
        "re-run with --resume to retry the quarantined cells"
    )


def _run_plan(args: argparse.Namespace, command: str, make_plan,
              arguments: dict, render) -> int:
    """Execute one experiment plan under the uniform runtime flags.

    ``make_plan`` is called inside the instrumentation context (so any
    parent-side preparation it does — e.g. building SI groups — is
    counted), then the plan runs through :class:`PlanRunner` with the
    command's ``--jobs/--cache/--resume/--verify``
    settings and ``render(run)`` prints the command's output.
    ``--profile`` then emits the unified run report
    (:func:`repro.experiments.reporting.experiment_report`).

    Returns the uniform exit code for the run's status
    (:mod:`repro.runtime.status`): 0 ok, 3 partial.
    """
    from repro.experiments.runner import PlanRunner
    from repro.runtime import Instrumentation, use_instrumentation
    from repro.runtime.status import exit_code, run_status

    cache = _make_cache(args)
    instrumentation = Instrumentation()
    start = time.perf_counter()
    with use_instrumentation(instrumentation):
        plan = make_plan()
        checkpoint = _make_checkpoint(args, plan)
        runner = PlanRunner(
            jobs=args.jobs,
            cache=cache,
            checkpoint=checkpoint,
            verify=getattr(args, "verify", False),
            policy=_make_policy(args),
        )
        run = runner.run(plan)
    if run.status == "partial":
        _render_partial(run)
    else:
        render(run)
    destination = getattr(args, "profile", None)
    if destination is not None:
        from repro.experiments.reporting import experiment_report

        report = experiment_report(
            command,
            arguments,
            run,
            wall_seconds=time.perf_counter() - start,
            instrumentation=instrumentation,
        )
        if destination == "-":
            print()
            print(report.summary())
        else:
            report.save(destination)
            print(f"run report written to {destination}")
    return exit_code(run_status(run))


def _plan_renderer(kind: str):
    """The shared per-kind report renderer
    (:func:`repro.experiments.render.render_report`) as a ``render``
    callback for :func:`_run_plan` — the same registry the service uses,
    so CLI output and service job results are byte-identical."""
    from repro.experiments.render import render_report

    return lambda run: print(render_report(kind, run.report))


def _add_verify_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verify", action="store_true",
        help="independently re-verify the produced schedule (width "
        "budget, full core/group coverage, no rail overlap, recomputed "
        "T_soc) and fail on any violation",
    )


def _verify_or_fail(soc, architecture, evaluation, groups,
                    w_max=None) -> int:
    """Run the post-condition verifier; print the verdict, return an
    exit code."""
    from repro.resilience.verify import verify_schedule

    violations = verify_schedule(
        soc, architecture, evaluation, groups, w_max=w_max
    )
    if violations:
        print()
        print("schedule verification FAILED:", file=sys.stderr)
        for violation in violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    print()
    print("schedule verification passed")
    return 0


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """The uniform plan-runner flags every experiment command accepts:
    ``--jobs``, ``--cache``, ``--resume``, ``--verify`` — plus
    ``--profile`` for the unified run report."""
    from repro.runtime.cache import DEFAULT_STORE_DIR

    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the plan cells (1 = serial, more = "
        "warm work-stealing workers; results are bit-identical either "
        "way)",
    )
    parser.add_argument(
        "--cache", nargs="?", const=str(DEFAULT_STORE_DIR), default=None,
        metavar="DIR",
        help="memoize plan cells on disk, shared across experiments "
        f"(default directory: {DEFAULT_STORE_DIR})",
    )
    parser.add_argument(
        "--resume", nargs="?", const="auto", default=None, metavar="PATH",
        help="record every completed cell to a crash-safe checkpoint and "
        "replay recorded cells on the next run; without PATH the file "
        "is derived from the plan fingerprint under "
        f"{DEFAULT_CHECKPOINT_DIR}/",
    )
    _add_verify_flag(parser)
    parser.add_argument(
        "--policy", default=None, metavar="SPEC",
        help="run supervision policy, comma-separated key=value pairs "
        "(e.g. 'retries=4,backoff=0.5,timeout=120,breaker=0.5,"
        "allow-partial'); see docs/supervision.md for the schema",
    )
    parser.add_argument(
        "--allow-partial", action="store_true",
        help="quarantine cells that exhaust their retry budget (and "
        "their dependents) instead of aborting: the run completes with "
        "an explicit partial report and the checkpoint records the "
        "poisoned cells for a later --resume retry",
    )
    parser.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the unified JSON run report (plan fingerprint, "
        "backend, cell counts, counters, timers, cache statistics); "
        "without PATH, print a summary to stdout",
    )


def _cmd_list(_: argparse.Namespace) -> int:
    for name in available_benchmarks():
        soc = load_benchmark(name)
        print(
            f"{name:<10} {len(soc):>3} cores  "
            f"{soc.total_terminals:>6} terminals  "
            f"{soc.total_scan_cells:>7} scan cells"
        )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    print(_load_soc(args.soc).describe())
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    soc = _load_soc(args.soc)
    patterns = generate_random_patterns(soc, args.patterns, seed=args.seed)
    grouping = build_si_test_groups(soc, patterns, parts=args.parts,
                                    seed=args.seed, jobs=args.jobs)
    print(
        f"{len(patterns)} patterns -> "
        f"{grouping.total_compacted_patterns} compacted in "
        f"{len(grouping.groups)} groups "
        f"({grouping.cut_patterns} originals in the residual group)"
    )
    for group, compaction in zip(grouping.groups, grouping.compactions):
        kind = "residual" if group.is_residual else f"part over {len(group.cores)} cores"
        print(
            f"  group {group.group_id}: {kind}, "
            f"{compaction.original_count} -> {group.patterns} patterns "
            f"(ratio {compaction.ratio:.1f}x)"
        )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    soc = _load_soc(args.soc)
    groups = ()
    if args.patterns:
        patterns = generate_random_patterns(soc, args.patterns, seed=args.seed)
        grouping = build_si_test_groups(soc, patterns, parts=args.parts,
                                        seed=args.seed)
        groups = grouping.groups
    result = optimize_tam(soc, args.wmax, groups=groups)
    evaluation = result.evaluation
    print(
        f"T_total = {evaluation.t_total} cc "
        f"(T_in = {evaluation.t_in}, T_si = {evaluation.t_si})"
    )
    for index, rail in enumerate(result.architecture.rails):
        cores = ", ".join(str(core_id) for core_id in rail.cores)
        print(f"  TAM{index}: width {rail.width:>2}, cores [{cores}]")
    print()
    print(render_schedule(soc, result.architecture, evaluation))
    if args.utilization:
        from repro.tam.report import format_utilization_report

        print()
        print(format_utilization_report(soc, result.architecture, evaluation))
    if args.save_arch:
        from repro.tam.serialize import save_architecture

        save_architecture(result.architecture, args.save_arch)
        print(f"\narchitecture written to {args.save_arch}")
    if args.verify:
        return _verify_or_fail(
            soc, result.architecture, evaluation, groups, w_max=args.wmax
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.optimizer import evaluate_architecture
    from repro.tam.serialize import load_architecture

    soc = _load_soc(args.soc)
    architecture = load_architecture(args.arch)
    groups = _si_groups_for(args, soc)
    evaluation = evaluate_architecture(soc, architecture, groups)
    print(
        f"T_total = {evaluation.t_total} cc "
        f"(T_in = {evaluation.t_in}, T_si = {evaluation.t_si})"
    )
    print(render_schedule(soc, architecture, evaluation))
    if args.verify:
        return _verify_or_fail(soc, architecture, evaluation, groups)
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.experiments.pareto import pareto_plan

    soc = _load_soc(args.soc)
    return _run_plan(
        args,
        "pareto",
        lambda: pareto_plan(
            soc, tuple(args.widths), groups=_si_groups_for(args, soc)
        ),
        {
            "soc": args.soc,
            "widths": list(args.widths),
            "patterns": args.patterns,
            "parts": args.parts,
            "seed": args.seed,
            **_runtime_arguments(args),
        },
        _plan_renderer("pareto"),
    )


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.experiments.scaling import scaling_plan

    return _run_plan(
        args,
        "scaling",
        lambda: scaling_plan(
            tuple(args.cores),
            w_max=args.wmax,
            pattern_count=args.patterns,
            parts=args.parts,
            seed=args.seed,
        ),
        {
            "cores": list(args.cores),
            "wmax": args.wmax,
            "patterns": args.patterns,
            "parts": args.parts,
            "seed": args.seed,
            **_runtime_arguments(args),
        },
        _plan_renderer("scaling"),
    )


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments.table_runner import (
        print_table_progress,
        table_plan,
    )

    soc = _load_soc(args.soc)

    def render(run) -> None:
        from repro.experiments.render import render_report

        result = run.report
        result.elapsed_seconds = run.wall_seconds
        if args.verbose:
            print_table_progress(result)
        print(render_report("table", result))
        print(f"(elapsed: {result.elapsed_seconds:.1f}s)")
        if args.json:
            save_result(result, args.json)
            print(f"JSON written to {args.json}")

    return _run_plan(
        args,
        "table",
        lambda: table_plan(
            soc,
            args.patterns,
            widths=tuple(args.widths),
            group_counts=tuple(args.parts),
            seed=args.seed,
        ),
        {
            "soc": args.soc,
            "patterns": args.patterns,
            "widths": list(args.widths),
            "parts": list(args.parts),
            "seed": args.seed,
            **_runtime_arguments(args),
        },
        render,
    )


def _si_groups_for(args: argparse.Namespace, soc: Soc):
    if not args.patterns:
        return ()
    patterns = generate_random_patterns(soc, args.patterns, seed=args.seed)
    return build_si_test_groups(
        soc, patterns, parts=args.parts, seed=args.seed
    ).groups


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.core.bounds import bound_report

    soc = _load_soc(args.soc)
    groups = _si_groups_for(args, soc)
    report = bound_report(soc, args.wmax, groups)
    result = optimize_tam(soc, args.wmax, groups=groups)
    print(f"core floor:        {report.core_floor} cc")
    print(f"bandwidth bound:   {report.bandwidth_bound} cc")
    print(f"SI floor:          {report.si_floor} cc")
    print(f"T_total bound:     {report.t_total_bound} cc")
    print(f"achieved T_total:  {result.t_total} cc")
    print(f"optimality gap:    {report.gap(result.t_total):.1%}")
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.wrapper.cells import format_overhead_report

    print(format_overhead_report(_load_soc(args.soc)))
    return 0


def _cmd_svg(args: argparse.Namespace) -> int:
    from repro.tam.svg import write_schedule_svg

    soc = _load_soc(args.soc)
    groups = _si_groups_for(args, soc)
    result = optimize_tam(soc, args.wmax, groups=groups)
    write_schedule_svg(soc, result.architecture, result.evaluation, args.out)
    print(f"wrote {args.out} (T_total = {result.t_total} cc)")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.soc.itc02 import dump_file
    from repro.soc.synth import synthesize_soc

    soc = synthesize_soc(args.name, args.cores, seed=args.seed)
    dump_file(soc, args.out)
    print(f"wrote {args.out}")
    print(soc.describe())
    return 0


def _cmd_volume(args: argparse.Namespace) -> int:
    from repro.experiments.compaction_study import volume_plan

    soc = _load_soc(args.soc)
    return _run_plan(
        args,
        "volume",
        lambda: volume_plan(
            soc,
            args.patterns,
            group_counts=tuple(args.parts),
            seed=args.seed,
        ),
        {
            "soc": args.soc,
            "patterns": args.patterns,
            "parts": list(args.parts),
            "seed": args.seed,
            **_runtime_arguments(args),
        },
        _plan_renderer("volume"),
    )


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.sitest.simulator import coverage_curve, simulate
    from repro.sitest.topology import random_topology

    soc = _load_soc(args.soc)
    topology = random_topology(soc, fanouts_per_core=args.fanouts,
                               locality=args.locality, seed=args.seed)
    patterns = generate_random_patterns(soc, args.patterns, seed=args.seed)
    report = simulate(topology, patterns)
    print(
        f"{len(patterns)} random patterns: {report.coverage:.1%} MA "
        f"coverage ({len(report.detected)}/{report.total_faults} faults)"
    )
    checkpoints = tuple(
        max(1, args.patterns * step // 4) for step in range(1, 5)
    )
    for count, coverage in coverage_curve(topology, patterns, checkpoints):
        print(f"  after {count:>8} patterns: {coverage:>6.1%}")
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.core.whatif import format_whatif_report, what_if

    soc = _load_soc(args.soc)
    groups = _si_groups_for(args, soc)
    result = optimize_tam(soc, args.wmax, groups=groups)
    print(format_whatif_report(what_if(soc, result.architecture, groups)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.compare import compare_plan

    soc = _load_soc(args.soc)
    return _run_plan(
        args,
        "compare",
        lambda: compare_plan(
            soc,
            args.wmax,
            groups=_si_groups_for(args, soc),
            annealing_steps=args.sa_steps,
        ),
        {
            "soc": args.soc,
            "wmax": args.wmax,
            "patterns": args.patterns,
            "parts": args.parts,
            "seed": args.seed,
            "sa_steps": args.sa_steps,
            **_runtime_arguments(args),
        },
        _plan_renderer("compare"),
    )


def _cmd_multisite(args: argparse.Namespace) -> int:
    from repro.experiments.multisite import multisite_plan

    soc = _load_soc(args.soc)
    return _run_plan(
        args,
        "multisite",
        lambda: multisite_plan(
            soc, args.channels, groups=_si_groups_for(args, soc)
        ),
        {
            "soc": args.soc,
            "channels": args.channels,
            "patterns": args.patterns,
            "parts": args.parts,
            "seed": args.seed,
            **_runtime_arguments(args),
        },
        _plan_renderer("multisite"),
    )


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import sensitivity_plan

    soc = _load_soc(args.soc)
    return _run_plan(
        args,
        "sensitivity",
        lambda: sensitivity_plan(
            soc, args.patterns, args.wmax, parts=args.parts, seed=args.seed
        ),
        {
            "soc": args.soc,
            "wmax": args.wmax,
            "patterns": args.patterns,
            "parts": args.parts,
            "seed": args.seed,
            **_runtime_arguments(args),
        },
        _plan_renderer("sensitivity"),
    )


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.experiments.stability import stability_plan

    soc = _load_soc(args.soc)
    return _run_plan(
        args,
        "stability",
        lambda: stability_plan(
            soc, args.patterns, args.wmax, seeds=tuple(args.seeds)
        ),
        {
            "soc": args.soc,
            "wmax": args.wmax,
            "patterns": args.patterns,
            "seeds": list(args.seeds),
            **_runtime_arguments(args),
        },
        _plan_renderer("stability"),
    )


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    from repro.runtime.cache import audit_store, verify_store

    if args.json:
        import json as json_module

        report = audit_store(args.dir)
        if args.quarantine:
            report["problems"] = verify_store(args.dir, quarantine=True)
            report["quarantined"] = len(report["problems"])
        print(json_module.dumps(report, indent=2, sort_keys=True))
        return 0 if not report["problems"] else 1
    problems = verify_store(args.dir, quarantine=args.quarantine)
    if not problems:
        print(f"{args.dir}: store healthy")
        return 0
    for problem in problems:
        print(problem)
    verb = "quarantined (*.corrupt)" if args.quarantine else "found"
    print(f"{len(problems)} bad {'entry' if len(problems) == 1 else 'entries'} {verb}")
    return 1


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    from repro.runtime.cache import gc_store

    removed = gc_store(args.dir, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for name in removed:
        print(f"{verb} {name}")
    tail = "would be pruned" if args.dry_run else "pruned"
    print(f"{args.dir}: {len(removed)} files {tail}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service import OptimizationService, ServiceConfig

    service = OptimizationService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            state_dir=Path(args.state_dir),
            jobs=args.jobs,
            cache_dir=args.cache,
            queue_limit=args.queue_limit,
            policy=args.policy,
            verify=args.verify,
        )
    )
    service.start()
    # Exact line first, flushed: scripts (and the test suite) discover a
    # port-0 server by reading it from the pipe.
    print(f"serving on {service.url}", flush=True)
    stats = service.stats()
    print(
        f"state dir {args.state_dir} | jobs {args.jobs} | "
        f"queue limit {args.queue_limit} | "
        f"{stats['jobs']} journaled jobs restored",
        flush=True,
    )
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        service.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.runtime.status import STATUS_FAILED, exit_code
    from repro.service import ServiceClient, build_plan

    soc = _load_soc(args.soc) if args.soc is not None else None
    plan = build_plan(
        args.kind,
        soc,
        patterns=args.patterns,
        wmax=args.wmax,
        widths=args.widths,
        parts=args.parts,
        seed=args.seed,
        seeds=args.seeds,
        cores=args.cores,
        channels=args.channels,
        sa_steps=args.sa_steps,
        arch=args.arch,
    )
    client = ServiceClient(args.url, timeout=args.timeout)
    response = client.submit(
        plan, priority=args.priority, fresh=args.fresh, tag=args.tag
    )
    job = response["job"]
    verb = "submitted" if response["created"] else "joined"
    print(
        f"{verb} job {job['id']} ({response['fingerprint']})",
        file=sys.stderr,
    )
    if args.no_wait:
        print(job["id"])
        return 0
    outcome = client.wait(job["id"], timeout=args.timeout)
    job = outcome["job"]
    if job["state"] == "failed":
        error = job.get("error") or {}
        print(
            f"job {job['id']} failed: "
            f"{error.get('message', 'unknown error')}",
            file=sys.stderr,
        )
        return exit_code(STATUS_FAILED)
    result = outcome.get("result") or {}
    if result.get("rendered"):
        print(result["rendered"])
    if job["state"] == "partial":
        plan_block = result.get("plan") or {}
        cells = plan_block.get("cells") or {}
        print(
            f"job {job['id']} completed PARTIAL "
            f"({cells.get('poisoned', '?')} cells quarantined)",
            file=sys.stderr,
        )
    return exit_code(job["state"])


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.runtime.status import exit_code
    from repro.service import ServiceClient, TERMINAL_STATES

    client = ServiceClient(args.url)
    if args.job is None:
        for job in client.jobs():
            tag = f"  tag {job['tag']}" if job.get("tag") else ""
            print(
                f"{job['id']}  {job['state']:<8} {job['kind']:<12} "
                f"prio {job['priority']:>4}  x{job['submissions']}"
                f"{tag}"
            )
        return 0
    if args.watch:
        state = None
        for event in client.events(args.job):
            state = event.get("state", state)
            print(json_module.dumps(event, sort_keys=True), flush=True)
        if state in TERMINAL_STATES:
            return exit_code(state)
        return 0
    print(
        json_module.dumps(
            client.job(args.job), indent=2, sort_keys=True
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-soc",
        description="SOC test architecture optimization for SI faults "
        "(DAC 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list shipped benchmark SOCs").set_defaults(
        func=_cmd_list
    )

    describe = sub.add_parser("describe", help="print a benchmark's core table")
    describe.add_argument("soc", help="benchmark name or .soc file path")
    describe.set_defaults(func=_cmd_describe)

    compact = sub.add_parser("compact", help="run two-dimensional SI compaction")
    compact.add_argument("soc")
    compact.add_argument("--patterns", type=int, default=10_000,
                         help="initial SI pattern count N_r")
    compact.add_argument("--parts", type=int, default=4,
                         help="number of core groups")
    compact.add_argument("--seed", type=int, default=1)
    compact.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the per-group compactions (1 = serial)",
    )
    compact.set_defaults(func=_cmd_compact)

    optimize = sub.add_parser("optimize", help="optimize a test architecture")
    optimize.add_argument("soc")
    optimize.add_argument("--wmax", type=int, required=True,
                          help="SOC TAM width budget W_max")
    optimize.add_argument("--patterns", type=int, default=0,
                          help="SI pattern count (0 = InTest only)")
    optimize.add_argument("--parts", type=int, default=4)
    optimize.add_argument("--seed", type=int, default=1)
    optimize.add_argument("--utilization", action="store_true",
                          help="also print the per-rail utilization report")
    optimize.add_argument("--save-arch",
                          help="write the architecture to this JSON file")
    _add_verify_flag(optimize)
    optimize.set_defaults(func=_cmd_optimize)

    evaluate = sub.add_parser(
        "evaluate", help="price a saved architecture against a test set"
    )
    evaluate.add_argument("soc")
    evaluate.add_argument("--arch", required=True,
                          help="architecture JSON from 'optimize --save-arch'")
    evaluate.add_argument("--patterns", type=int, default=0)
    evaluate.add_argument("--parts", type=int, default=4)
    evaluate.add_argument("--seed", type=int, default=1)
    _add_verify_flag(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    pareto = sub.add_parser(
        "pareto", help="sweep W_max and report the trade-off curve"
    )
    pareto.add_argument("soc")
    pareto.add_argument("--widths", type=int, nargs="+",
                        default=[8, 16, 24, 32, 40, 48, 56, 64])
    pareto.add_argument("--patterns", type=int, default=0)
    pareto.add_argument("--parts", type=int, default=4)
    pareto.add_argument("--seed", type=int, default=1)
    _add_experiment_flags(pareto)
    pareto.set_defaults(func=_cmd_pareto)

    scaling = sub.add_parser(
        "scaling", help="optimizer scaling study on synthetic SOCs"
    )
    scaling.add_argument("--cores", type=int, nargs="+",
                         default=[8, 16, 24, 32])
    scaling.add_argument("--wmax", type=int, default=32)
    scaling.add_argument("--patterns", type=int, default=2_000)
    scaling.add_argument("--parts", type=int, default=4)
    scaling.add_argument("--seed", type=int, default=0)
    _add_experiment_flags(scaling)
    scaling.set_defaults(func=_cmd_scaling)

    table = sub.add_parser("table", help="regenerate a Table 2/3 experiment")
    table.add_argument("soc")
    table.add_argument("--patterns", type=int, default=10_000)
    table.add_argument("--widths", type=int, nargs="+",
                       default=list(DEFAULT_WIDTHS))
    table.add_argument("--parts", type=int, nargs="+",
                       default=list(DEFAULT_GROUP_COUNTS))
    table.add_argument("--seed", type=int, default=1)
    table.add_argument("--json", help="also write a JSON summary here")
    table.add_argument("--verbose", action="store_true")
    _add_experiment_flags(table)
    table.set_defaults(func=_cmd_table)

    bounds = sub.add_parser("bounds",
                            help="lower bounds and the optimality gap")
    bounds.add_argument("soc")
    bounds.add_argument("--wmax", type=int, required=True)
    bounds.add_argument("--patterns", type=int, default=0)
    bounds.add_argument("--parts", type=int, default=4)
    bounds.add_argument("--seed", type=int, default=1)
    bounds.set_defaults(func=_cmd_bounds)

    overhead = sub.add_parser("overhead",
                              help="DFT area cost of SI-capable wrappers")
    overhead.add_argument("soc")
    overhead.set_defaults(func=_cmd_overhead)

    svg = sub.add_parser("svg", help="export the schedule as an SVG figure")
    svg.add_argument("soc")
    svg.add_argument("--wmax", type=int, required=True)
    svg.add_argument("--patterns", type=int, default=0)
    svg.add_argument("--parts", type=int, default=4)
    svg.add_argument("--seed", type=int, default=1)
    svg.add_argument("--out", default="schedule.svg")
    svg.set_defaults(func=_cmd_svg)

    synth = sub.add_parser("synth",
                           help="generate a synthetic ITC'02-style SOC")
    synth.add_argument("name")
    synth.add_argument("--cores", type=int, default=16)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", default="synth.soc")
    synth.set_defaults(func=_cmd_synth)

    volume = sub.add_parser(
        "volume", help="test-data-volume study of 2-D compaction"
    )
    volume.add_argument("soc")
    volume.add_argument("--patterns", type=int, default=5_000)
    volume.add_argument("--parts", type=int, nargs="+", default=[1, 2, 4, 8])
    volume.add_argument("--seed", type=int, default=1)
    _add_experiment_flags(volume)
    volume.set_defaults(func=_cmd_volume)

    coverage = sub.add_parser(
        "coverage", help="MA fault coverage of a random pattern set"
    )
    coverage.add_argument("soc")
    coverage.add_argument("--patterns", type=int, default=5_000)
    coverage.add_argument("--fanouts", type=int, default=2)
    coverage.add_argument("--locality", type=int, default=2)
    coverage.add_argument("--seed", type=int, default=1)
    coverage.set_defaults(func=_cmd_coverage)

    whatif = sub.add_parser(
        "whatif", help="marginal pin/move analysis of the optimized design"
    )
    whatif.add_argument("soc")
    whatif.add_argument("--wmax", type=int, required=True)
    whatif.add_argument("--patterns", type=int, default=0)
    whatif.add_argument("--parts", type=int, default=4)
    whatif.add_argument("--seed", type=int, default=1)
    whatif.set_defaults(func=_cmd_whatif)

    compare = sub.add_parser(
        "compare", help="head-to-head optimizer comparison"
    )
    compare.add_argument("soc")
    compare.add_argument("--wmax", type=int, required=True)
    compare.add_argument("--patterns", type=int, default=0)
    compare.add_argument("--parts", type=int, default=4)
    compare.add_argument("--seed", type=int, default=1)
    compare.add_argument("--sa-steps", type=int, default=4_000)
    _add_experiment_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    multisite = sub.add_parser(
        "multisite", help="multi-site throughput study"
    )
    multisite.add_argument("soc")
    multisite.add_argument("--channels", type=int, default=64,
                           help="total tester channel budget")
    multisite.add_argument("--patterns", type=int, default=0)
    multisite.add_argument("--parts", type=int, default=4)
    multisite.add_argument("--seed", type=int, default=1)
    _add_experiment_flags(multisite)
    multisite.set_defaults(func=_cmd_multisite)

    sensitivity = sub.add_parser(
        "sensitivity", help="generator-knob sensitivity study"
    )
    sensitivity.add_argument("soc")
    sensitivity.add_argument("--wmax", type=int, default=32)
    sensitivity.add_argument("--patterns", type=int, default=2_000)
    sensitivity.add_argument("--parts", type=int, default=4)
    sensitivity.add_argument("--seed", type=int, default=1)
    _add_experiment_flags(sensitivity)
    sensitivity.set_defaults(func=_cmd_sensitivity)

    stability = sub.add_parser(
        "stability", help="seed-stability of the table metrics"
    )
    stability.add_argument("soc")
    stability.add_argument("--wmax", type=int, default=24)
    stability.add_argument("--patterns", type=int, default=2_000)
    stability.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    _add_experiment_flags(stability)
    stability.set_defaults(func=_cmd_stability)

    serve = sub.add_parser(
        "serve", help="run the optimization service (HTTP job server)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787,
        help="listen port (0 = pick a free port; the chosen port is "
        "printed on startup)",
    )
    serve.add_argument(
        "--state-dir", default="results/service",
        help="durable state root: job journal, checkpoints, and the "
        "shared evaluation cache live here",
    )
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per plan run (the warm pool is shared "
        "across all jobs)",
    )
    serve.add_argument(
        "--cache", default=None, metavar="DIR",
        help="shared evaluation cache directory "
        "(default: <state-dir>/cache)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=256,
        help="bounded job queue depth; submissions beyond it get "
        "429 + Retry-After",
    )
    serve.add_argument(
        "--policy", default=None, metavar="SPEC",
        help="run supervision policy applied to every job "
        "(same SPEC as the experiment commands)",
    )
    serve.add_argument(
        "--verify", action="store_true",
        help="independently verify every job's results before "
        "reporting it ok",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit an experiment to a running service"
    )
    submit.add_argument(
        "kind",
        help="plan kind: table, pareto, volume, compare, multisite, "
        "scaling, sensitivity, stability, optimize, evaluate",
    )
    submit.add_argument(
        "soc", nargs="?", default=None,
        help="benchmark name or .soc path (omit for 'scaling')",
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="service base URL",
    )
    submit.add_argument("--patterns", type=int, default=None)
    submit.add_argument("--wmax", type=int, default=None)
    submit.add_argument("--widths", type=int, nargs="+", default=None)
    submit.add_argument("--parts", type=int, nargs="+", default=None)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--seeds", type=int, nargs="+", default=None)
    submit.add_argument("--cores", type=int, nargs="+", default=None)
    submit.add_argument("--channels", type=int, default=None)
    submit.add_argument("--sa-steps", type=int, default=None)
    submit.add_argument(
        "--arch", default=None,
        help="architecture JSON (the 'evaluate' kind)",
    )
    submit.add_argument(
        "--priority", type=int, default=0,
        help="queue priority (higher runs first; -100..100)",
    )
    submit.add_argument(
        "--fresh", action="store_true",
        help="bypass dedup: force a new job even if an identical plan "
        "is already queued, running, or finished",
    )
    submit.add_argument("--tag", default=None, help="free-form job label")
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return immediately instead of "
        "waiting for the result",
    )
    submit.add_argument(
        "--timeout", type=float, default=3600.0,
        help="seconds to wait for the result",
    )
    submit.set_defaults(func=_cmd_submit)

    jobs_cmd = sub.add_parser(
        "jobs", help="list or inspect jobs on a running service"
    )
    jobs_cmd.add_argument(
        "job", nargs="?", default=None,
        help="job id for a detail view (omit to list all jobs)",
    )
    jobs_cmd.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="service base URL",
    )
    jobs_cmd.add_argument(
        "--watch", action="store_true",
        help="stream the job's event feed (ndjson) until it finishes; "
        "the exit code reflects the final state",
    )
    jobs_cmd.set_defaults(func=_cmd_jobs)

    from repro.runtime.cache import DEFAULT_STORE_DIR

    cache_cmd = sub.add_parser(
        "cache", help="inspect and maintain the on-disk evaluation cache"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    cache_verify = cache_sub.add_parser(
        "verify", help="integrity-check every store entry "
        "(checksums, format, key aliasing)"
    )
    cache_verify.add_argument(
        "dir", nargs="?", default=str(DEFAULT_STORE_DIR),
        help="cache store directory",
    )
    cache_verify.add_argument(
        "--quarantine", action="store_true",
        help="move each bad entry aside to <name>.corrupt so later runs "
        "recompute it",
    )
    cache_verify.add_argument(
        "--json", action="store_true",
        help="emit a JSON health report (entry/debris counts, bytes, "
        "per-kind totals, problems) instead of text",
    )
    cache_verify.set_defaults(func=_cmd_cache_verify)
    cache_gc = cache_sub.add_parser(
        "gc", help="prune quarantined entries, stale temp files, and "
        "entries of old store versions"
    )
    cache_gc.add_argument(
        "dir", nargs="?", default=str(DEFAULT_STORE_DIR),
        help="cache store directory",
    )
    cache_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be pruned without deleting anything",
    )
    cache_gc.set_defaults(func=_cmd_cache_gc)
    return parser


def _failure_exceptions() -> tuple:
    """The exception types that are *failed runs*, not crashes: they
    exit with the uniform ``failed`` code (1) and a one-line stderr
    diagnostic instead of a traceback."""
    from repro.resilience.validation import ValidationError
    from repro.resilience.verify import ScheduleVerificationError
    from repro.runtime.executor import CellError
    from repro.runtime.supervision import (
        CircuitOpenError,
        PlanDeadlineError,
        PolicyError,
    )
    from repro.service.client import ServiceError

    return (
        ValidationError,
        ScheduleVerificationError,
        CellError,
        CircuitOpenError,
        PlanDeadlineError,
        PolicyError,
        ServiceError,
        TimeoutError,
        ConnectionError,
    )


def main(argv: list[str] | None = None) -> int:
    from repro.runtime.status import EXIT_FAILED

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. `head`):
        # not an error.  Detach stdout so the interpreter's shutdown
        # flush does not raise again.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except _failure_exceptions() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
