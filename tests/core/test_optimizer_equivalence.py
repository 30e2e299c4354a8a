"""Golden equivalence: the incremental optimizer is bit-identical to the
reference Algorithm 2.

``optimize_tam`` runs the incremental engine for the default cost model.
It mirrors the reference decision sequence (``_optimize_tam``) — same
candidate enumeration order, same strict-``<`` selections, same
tie-breaks — so for every SOC and every pin budget the two must
produce the *same object*: identical ``OptimizationResult`` (architecture,
evaluation, schedule) down to the last cycle.  This suite pins that
contract on all four shipped ITC'02 SOCs across the ``W_max`` sweep,
twice: once with the C move-scan kernel (when it compiles) and once with
the kernel force-disabled, so the pure-Python patch path is held to the
same bit-identity bar.

The reference results are computed once per module and shared between
the two engine legs; ``REPRO_OPTIMIZER_CSCAN=0`` is additionally covered
as an environment toggle (mirroring the compaction kernel's tests).
"""

from __future__ import annotations

import pytest

from repro.compaction.horizontal import build_si_test_groups
from repro.core import _movescan, optimizer
from repro.core.optimizer import (
    _optimize_tam,
    evaluate_architecture,
    optimize_tam,
)
from repro.core.scheduling import IncrementalTamEvaluator, TamEvaluator
from repro.resilience.verify import verify_optimization
from repro.runtime.instrumentation import Instrumentation, use_instrumentation
from repro.sitest.generator import generate_random_patterns
from repro.soc.benchmarks import load_benchmark

#: (SOC, W_max) sweep: every shipped ITC'02 SOC over a budget range that
#: exercises merge-down starts (W < cores), free-wire starts (W > cores),
#: and the leftover-redistribution inner loop.
SWEEP = [
    ("d695", (8, 12, 16, 24, 32)),
    ("p22810", (16, 32, 48, 64)),
    ("p34392", (16, 32, 48, 64)),
    ("p93791", (16, 32, 48, 64)),
]
CASES = [(name, w) for name, widths in SWEEP for w in widths]
IDS = [f"{name}-W{w}" for name, w in CASES]

PATTERNS = 200
PARTS = 4
SEED = 7


@pytest.fixture(scope="module")
def suite():
    """Per-SOC groups plus the reference results, computed once."""
    socs, groups, reference = {}, {}, {}
    for name, widths in SWEEP:
        soc = load_benchmark(name)
        socs[name] = soc
        patterns = generate_random_patterns(soc, PATTERNS, seed=SEED)
        groups[name] = build_si_test_groups(
            soc, patterns, parts=PARTS, seed=SEED
        ).groups
        for w_max in widths:
            reference[(name, w_max)] = _reference(soc, w_max, groups[name])
    return socs, groups, reference


def _reference(soc, w_max, groups=()):
    return _optimize_tam(soc, w_max, groups, 1, None)


def _assert_identical(reference, incremental):
    assert incremental.architecture == reference.architecture
    assert incremental.evaluation == reference.evaluation
    assert incremental.evaluation.schedule == reference.evaluation.schedule
    assert incremental.w_max == reference.w_max
    assert incremental.t_total == reference.t_total


class TestBitIdentity:
    @pytest.mark.parametrize("name,w_max", CASES, ids=IDS)
    def test_with_c_kernel(self, suite, name, w_max):
        socs, groups, reference = suite
        result = optimize_tam(socs[name], w_max, groups[name])
        _assert_identical(reference[(name, w_max)], result)

    @pytest.mark.parametrize("name,w_max", CASES, ids=IDS)
    def test_without_c_kernel(
        self, suite, monkeypatch, reprobe_engines, name, w_max
    ):
        monkeypatch.setenv("REPRO_OPTIMIZER_CSCAN", "0")
        socs, groups, reference = suite
        result = optimize_tam(socs[name], w_max, groups[name])
        _assert_identical(reference[(name, w_max)], result)

    def test_intest_only_matches_reference(self, suite):
        socs, _, _ = suite
        for name in ("d695", "p93791"):
            for w_max in (16, 64):
                _assert_identical(
                    _reference(socs[name], w_max),
                    optimize_tam(socs[name], w_max, ()),
                )

    def test_environment_toggle_disables_engine(
        self, suite, monkeypatch, reprobe_engines
    ):
        monkeypatch.setenv("REPRO_OPTIMIZER_CSCAN", "0")
        assert _movescan.available() is False
        socs, groups, reference = suite
        result = optimize_tam(socs["d695"], 16, groups["d695"])
        _assert_identical(reference[("d695", 16)], result)


class TestVerifiedAndComposed:
    """The incremental engine composes with the surrounding machinery."""

    @pytest.mark.parametrize("name", [name for name, _ in SWEEP])
    def test_verify_optimization_passes_on_incremental(self, suite, name):
        socs, groups, _ = suite
        w_max = 24 if name == "d695" else 32
        result = optimize_tam(socs[name], w_max, groups[name])
        assert verify_optimization(socs[name], result, groups[name]) == []

    def test_evaluate_architecture_backends_agree(self, suite):
        """Full evaluations agree between the plain and the incremental
        evaluator, so ``evaluate_architecture`` needs only the plain one."""
        socs, groups, reference = suite
        result = reference[("d695", 16)]
        args = (socs["d695"], groups["d695"])
        incremental = IncrementalTamEvaluator(*args).evaluate(
            result.architecture
        )
        assert TamEvaluator(*args).evaluate(result.architecture) == incremental
        assert evaluate_architecture(
            socs["d695"], result.architecture, groups["d695"]
        ) == result.evaluation == incremental


class TestBackendSelection:
    """Which engine ``optimize_tam`` runs, and what it counts."""

    def test_custom_evaluator_forces_reference(self, d695, monkeypatch):
        """A custom cost model takes the object-based reference path:
        the incremental scorer replicates the default model only."""
        calls = []

        class CountingEvaluator(TamEvaluator):
            def t_total(self, architecture):
                calls.append(architecture)
                return super().t_total(architecture)

        def refuse(*_args):
            raise AssertionError("custom evaluator reached the engine")

        monkeypatch.setattr(optimizer, "_IncrementalOptimizer", refuse)
        result = optimize_tam(d695, 16, evaluator=CountingEvaluator(d695, ()))
        assert calls
        _assert_identical(_reference(d695, 16), result)

    def test_moves_pruned_counter_fires(self):
        # The ITC'02 instances keep the bounds loose; this synthetic SOC
        # has prunable core-reshuffle moves (several rails share the
        # bottleneck), so the counter must record them — and pruning must
        # not break bit-identity.
        from repro.soc.synth import synthesize_soc

        soc = synthesize_soc("prune-probe", 6, seed=0)
        instrumentation = Instrumentation()
        with use_instrumentation(instrumentation):
            incremental = optimize_tam(soc, 6)
        counters = instrumentation.counters
        assert counters["optimizer.moves_pruned"] > 0
        assert counters["optimizer.merges_tried"] > 0
        assert not any(k.startswith("optimizer.backend.") for k in counters)
        _assert_identical(_reference(soc, 6), incremental)
