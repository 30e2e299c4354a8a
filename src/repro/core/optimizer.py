"""SI-aware TAM design and optimization (paper, Section 4.2 / Fig. 6).

``optimize_tam`` implements Algorithm 2 (``TAM_Optimization``): a start
solution assigns every core its own one-wire TestRail, which is then merged
down (or padded with free wires) to the pin budget ``W_max`` and optimized
bottom-up, top-down, and by core reshuffling — always scoring candidates by
the *combined* objective ``T_soc = T_soc_in + T_soc_si``.

With no SI groups the combined objective degenerates to the InTest time and
the procedure becomes the TR-Architect baseline of Goel & Marinissen
(ITC 2002), exposed as :func:`repro.tam.tr_architect.tr_architect`.

The key departure from TR-Architect (paper, Section 4.2) is that several
*bottleneck TAMs* can exist at once — the InTest-critical rail plus the
``r_btn`` of every SI group on the SI schedule's critical chain — and free
wires are only worth giving to those.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compaction.groups import SITestGroup
from repro.core.bounds import intest_bandwidth_bound, si_floor
from repro.core.scheduling import (
    MOVE_CORE,
    MOVE_MERGE,
    MOVE_WIDEN,
    Evaluation,
    IncrementalTamEvaluator,
    PackedState,
    TamEvaluator,
    _excl_max,
)
from repro.runtime.instrumentation import get_instrumentation, incr
from repro.soc.model import Soc
from repro.tam.testrail import TestRailArchitecture, initial_architecture

@dataclass(frozen=True)
class OptimizationResult:
    """Final architecture of an optimization run plus its evaluation."""

    architecture: TestRailArchitecture
    evaluation: Evaluation
    w_max: int

    @property
    def t_total(self) -> int:
        return self.evaluation.t_total


def bottleneck_rails(
    evaluator: TamEvaluator,
    architecture: TestRailArchitecture,
    evaluation: Evaluation | None = None,
) -> set[int]:
    """Indices of the SOC's bottleneck TAMs.

    A rail is a bottleneck when assigning it extra wires can reduce
    ``T_soc``: every rail achieving the InTest maximum, plus the bottleneck
    rail ``r_btn(s)`` of every SI group on the critical chain of the SI
    schedule (a group is critical when it ends at ``T_soc_si`` or ends
    exactly where a critical group begins).
    """
    if evaluation is None:
        evaluation = evaluator.evaluate(architecture)
    bottlenecks = {
        index
        for index, stats in enumerate(evaluation.rail_stats)
        if stats.time_in == evaluation.t_in and evaluation.t_in > 0
    }
    if evaluation.schedule:
        critical_times = {evaluation.t_si}
        for entry in sorted(evaluation.schedule, key=lambda e: -e.end):
            if entry.end in critical_times:
                bottlenecks.add(entry.bottleneck_rail)
                if entry.begin > 0:
                    critical_times.add(entry.begin)
    return bottlenecks


def distribute_free_wires(
    evaluator: TamEvaluator,
    architecture: TestRailArchitecture,
    free_wires: int,
) -> TestRailArchitecture:
    """``distributeFreeWires``: hand each free wire to the bottleneck rail
    whose widening minimizes ``T_soc``.

    Rail statistics (and therefore the bottleneck set) are recomputed after
    every assignment, as required by the paper.
    """
    incr("optimizer.wires_distributed", free_wires)
    for _ in range(free_wires):
        evaluation = evaluator.evaluate(architecture)
        candidates = bottleneck_rails(evaluator, architecture, evaluation)
        if not candidates:
            candidates = set(range(len(architecture.rails)))
        best_architecture = None
        best_total = None
        for index in sorted(candidates):
            candidate = architecture.with_rail(
                index, architecture.rails[index].widened(1)
            )
            total = evaluator.t_total(candidate)
            if best_total is None or total < best_total:
                best_total = total
                best_architecture = candidate
        assert best_architecture is not None
        architecture = best_architecture
    return architecture


def merge_tams(
    evaluator: TamEvaluator,
    architecture: TestRailArchitecture,
    rail_index: int,
) -> TestRailArchitecture:
    """``mergeTAMs``: merge the rail at ``rail_index`` with the partner,
    width, and leftover-wire redistribution that minimize ``T_soc``.

    For every other rail ``r_i`` the merged width is swept over
    ``[max(w_1, w_i), w_1 + w_i]``; freed wires go to bottleneck rails via
    :func:`distribute_free_wires`.  Returns the input architecture when no
    merge strictly improves ``T_soc``.
    """
    best_total = evaluator.t_total(architecture)
    best_architecture = architecture
    base = architecture.rails[rail_index]
    for partner_index, partner in enumerate(architecture.rails):
        if partner_index == rail_index:
            continue
        width_sum = base.width + partner.width
        width_min = max(base.width, partner.width)
        for width in range(width_min, width_sum + 1):
            incr("optimizer.merges_tried")
            merged = architecture.merged(rail_index, partner_index, width)
            leftover = width_sum - width
            if leftover:
                merged = distribute_free_wires(evaluator, merged, leftover)
            total = evaluator.t_total(merged)
            if total < best_total:
                best_total = total
                best_architecture = merged
    return best_architecture


def core_reshuffle(
    evaluator: TamEvaluator,
    architecture: TestRailArchitecture,
) -> TestRailArchitecture:
    """``coreReshuffle``: repeatedly move one core off a bottleneck rail
    onto another rail while that reduces ``T_soc``."""
    while True:
        evaluation = evaluator.evaluate(architecture)
        current_total = evaluation.t_total
        sources = bottleneck_rails(evaluator, architecture, evaluation)
        if not sources:
            sources = set(range(len(architecture.rails)))
        best_total = current_total
        best_architecture = None
        for source in sorted(sources):
            rail = architecture.rails[source]
            if len(rail.cores) < 2:
                continue
            for core_id in rail.cores:
                for destination in range(len(architecture.rails)):
                    if destination == source:
                        continue
                    incr("optimizer.core_moves_tried")
                    candidate = architecture.with_core_moved(
                        core_id, source, destination
                    )
                    total = evaluator.t_total(candidate)
                    if total < best_total:
                        best_total = total
                        best_architecture = candidate
        if best_architecture is None:
            return architecture
        architecture = best_architecture


def _rail_order_by_used(
    evaluator: TamEvaluator, architecture: TestRailArchitecture
) -> list[int]:
    """Rail indices sorted by non-increasing ``time_used(r)``."""
    return sorted(
        range(len(architecture.rails)),
        key=lambda index: (
            -evaluator.rail_stats(architecture.rails[index]).time_used,
            index,
        ),
    )


def _start_solution(
    evaluator: TamEvaluator,
    soc: Soc,
    w_max: int,
) -> TestRailArchitecture:
    """Lines 1–16 of Algorithm 2: one-wire rail per core, merged down or
    padded up to exactly ``w_max`` wires."""
    architecture = initial_architecture(soc.core_ids, width_per_rail=1)
    core_count = len(architecture.rails)
    if w_max < core_count:
        while len(architecture.rails) > w_max:
            order = _rail_order_by_used(evaluator, architecture)
            overflow = order[w_max]  # r_{W_max + 1} in the paper's sort
            best_total = None
            best_architecture = None
            for position in order[:w_max]:
                candidate = architecture.merged(position, overflow, 1)
                total = evaluator.t_total(candidate)
                if best_total is None or total < best_total:
                    best_total = total
                    best_architecture = candidate
            assert best_architecture is not None
            architecture = best_architecture
    elif w_max > core_count:
        architecture = distribute_free_wires(
            evaluator, architecture, w_max - core_count
        )
    return architecture


def optimize_tam(
    soc: Soc,
    w_max: int,
    groups: tuple[SITestGroup, ...] = (),
    capture_cycles: int = 1,
    evaluator: TamEvaluator | None = None,
) -> OptimizationResult:
    """Solve Problem ``P_SI_opt`` with Algorithm 2 (``TAM_Optimization``).

    Args:
        soc: The SOC (every core becomes a wrapped TAM client).
        w_max: SOC pin budget ``W_max``.
        groups: Compacted SI test groups; pass ``()`` for the InTest-only
            TR-Architect baseline.
        capture_cycles: Launch/capture cycles charged per SI pattern.
        evaluator: Custom cost model (e.g. a Test Bus or power-aware
            evaluator); defaults to the paper's TestRail model over
            ``groups``.  Without one the run takes the incremental engine,
            which mirrors the reference decision sequence over packed
            states (with bounds pruning and the optional C move scanner)
            and returns bit-identical results; a custom evaluator takes
            the object-based reference path, since the incremental scorer
            replicates the default TestRail cost model only.

    Returns:
        The optimized architecture and its evaluation.

    Raises:
        ValueError: If ``w_max`` is not positive or the SOC has no cores.
    """
    if w_max <= 0:
        raise ValueError(f"W_max must be positive, got {w_max}")
    if not len(soc):
        raise ValueError(f"SOC {soc.name} has no cores")

    incr("optimizer.runs")
    with get_instrumentation().timeit("optimizer.optimize_tam"):
        if evaluator is None:
            return _IncrementalOptimizer(
                soc, w_max, groups, capture_cycles
            ).run()
        return _optimize_tam(soc, w_max, groups, capture_cycles, evaluator)


def _optimize_tam(
    soc: Soc,
    w_max: int,
    groups: tuple[SITestGroup, ...],
    capture_cycles: int,
    evaluator: TamEvaluator | None,
) -> OptimizationResult:
    if evaluator is None:
        evaluator = TamEvaluator(soc, groups, capture_cycles=capture_cycles)
    architecture = _start_solution(evaluator, soc, w_max)

    # Optimize bottom-up: merge the least-utilized rail (lines 17-23).
    while len(architecture.rails) > 1:
        initial_total = evaluator.t_total(architecture)
        order = _rail_order_by_used(evaluator, architecture)
        architecture = merge_tams(evaluator, architecture, order[-1])
        if evaluator.t_total(architecture) == initial_total:
            break

    # Optimize top-down: merge the most-utilized rail (lines 24-30).
    skip = set()
    while len(architecture.rails) > 1:
        initial_total = evaluator.t_total(architecture)
        order = _rail_order_by_used(evaluator, architecture)
        architecture = merge_tams(evaluator, architecture, order[0])
        if evaluator.t_total(architecture) == initial_total:
            skip = {architecture.rails[order[0]]}
            break

    # Try the remaining rails, most-utilized first (lines 31-36).
    while True:
        remaining = [
            index
            for index in range(len(architecture.rails))
            if architecture.rails[index] not in skip
        ]
        if not remaining or len(architecture.rails) < 2:
            break
        initial_total = evaluator.t_total(architecture)
        target = max(
            remaining,
            key=lambda index: (
                evaluator.rail_stats(architecture.rails[index]).time_used,
                -index,
            ),
        )
        candidate_rail = architecture.rails[target]
        architecture = merge_tams(evaluator, architecture, target)
        if evaluator.t_total(architecture) == initial_total:
            skip.add(candidate_rail)

    # Final polish: move cores off bottleneck rails (line 37).
    architecture = core_reshuffle(evaluator, architecture)

    return OptimizationResult(
        architecture=architecture,
        evaluation=evaluator.evaluate(architecture),
        w_max=w_max,
    )


class _IncrementalOptimizer:
    """Algorithm 2 over packed states — the default-cost-model engine.

    Mirrors ``_optimize_tam`` decision for decision: the same candidate
    enumeration order, the same strict-``<`` selections, the same
    tie-breaks, so the final :class:`OptimizationResult` is bit-identical
    to the reference path.  What changes is the cost of a candidate:
    :class:`IncrementalTamEvaluator` patches only the (at most two)
    affected rails, and two sound lower bounds skip candidates that
    provably cannot beat the incumbent:

    * ``floor_total`` — the pin-bandwidth bound on the InTest phase plus
      the SI floor (``core/bounds.py``), valid for every architecture
      within the pin budget; once the incumbent reaches it, no candidate
      can *strictly* beat the incumbent, which is what selection needs.
    * the *exclusion bound* — unchanged rails keep their InTest times and
      group contributions, so any single-move candidate costs at least
      ``max`` (unchanged ``time_in``) + ``max_s`` (unchanged involved
      rail time of ``s``), answered in O(groups) from the packed top-3
      tables.  Not applied to merge candidates with leftover wires: the
      redistribution may widen any rail.

    A pruned candidate's cost is at least the incumbent's at the moment
    of pruning, and the incumbent only improves, so pruning never alters
    which candidate a strict-``<`` scan selects — bit-identity survives.
    """

    def __init__(
        self,
        soc: Soc,
        w_max: int,
        groups: tuple[SITestGroup, ...],
        capture_cycles: int,
    ) -> None:
        self.soc = soc
        self.w_max = w_max
        self.evaluator = IncrementalTamEvaluator(
            soc, groups, capture_cycles=capture_cycles
        )
        self.floor_total = intest_bandwidth_bound(soc, w_max) + si_floor(
            soc, self.evaluator.groups, w_max, capture_cycles
        )

    def run(self) -> OptimizationResult:
        evaluator = self.evaluator
        state = self._start_solution()

        # Optimize bottom-up: merge the least-utilized rail.
        while len(state.cores) > 1:
            initial_total = state.t_total
            order = self._order_by_used(state)
            state = self._merge_tams(state, order[-1])
            if state.t_total == initial_total:
                break

        # Optimize top-down: merge the most-utilized rail.
        skip: set[tuple] = set()
        while len(state.cores) > 1:
            initial_total = state.t_total
            order = self._order_by_used(state)
            state = self._merge_tams(state, order[0])
            if state.t_total == initial_total:
                skip = {(state.cores[order[0]], state.widths[order[0]])}
                break

        # Try the remaining rails, most-utilized first.
        while True:
            remaining = [
                index
                for index in range(len(state.cores))
                if (state.cores[index], state.widths[index]) not in skip
            ]
            if not remaining or len(state.cores) < 2:
                break
            initial_total = state.t_total
            target = max(
                remaining,
                key=lambda index: (evaluator.rail_used(state, index), -index),
            )
            candidate_rail = (state.cores[target], state.widths[target])
            state = self._merge_tams(state, target)
            if state.t_total == initial_total:
                skip.add(candidate_rail)

        # Final polish: move cores off bottleneck rails.
        state = self._core_reshuffle(state)

        architecture = evaluator.state_architecture(state)
        return OptimizationResult(
            architecture=architecture,
            evaluation=evaluator.evaluate(architecture),
            w_max=self.w_max,
        )

    # ------------------------------------------------------------------
    # pruning bounds and the shared strict-< scan

    def _move_bound(
        self, state: PackedState, first: int, second: int = -1
    ) -> int:
        """Exclusion lower bound on any candidate that changes only the
        given rails (``second`` may be removed by the move)."""
        bound = _excl_max(state.in_top, first, second)
        best_group = 0
        for top in state.group_top:
            value = _excl_max(top, first, second)
            if value > best_group:
                best_group = value
        return bound + best_group

    def _select_first_min(self, state, moves):
        """First-candidate-initialised strict-``<`` selection — the
        ``best_total=None`` scans of ``distribute_free_wires`` and
        ``_start_solution``, where the first candidate always wins the
        initial comparison and therefore can never be pruned.  One batch
        scores everything; the walk replicates the reference order."""
        if len(moves) == 1:
            return moves[0]
        best_total = None
        best_move = None
        for move, total in zip(
            moves, self.evaluator.score_moves(state, moves)
        ):
            if best_total is None or total < best_total:
                best_total = total
                best_move = move
        return best_move

    def _scan_bounded(self, state, moves, bounds, incumbent):
        """Strict-``<`` scan against an existing ``incumbent`` total.

        A candidate whose exclusion bound is at least the incumbent can
        never win a strict-``<`` comparison (the running best only
        decreases from the incumbent), so it is skipped unscored; the
        survivors are scored in a single batch and walked in reference
        enumeration order.  Returns the winning move, or ``None`` when
        nothing strictly improves.
        """
        kept = []
        pruned = 0
        for move, bound in zip(moves, bounds):
            if bound >= incumbent:
                pruned += 1
            else:
                kept.append(move)
        if pruned:
            incr("optimizer.moves_pruned", pruned)
        best_total = incumbent
        best_move = None
        if kept:
            for move, total in zip(
                kept, self.evaluator.score_moves(state, kept)
            ):
                if total < best_total:
                    best_total = total
                    best_move = move
        return best_move

    # ------------------------------------------------------------------
    # the Algorithm 2 building blocks, mirrored over packed states

    def _order_by_used(self, state: PackedState) -> list[int]:
        evaluator = self.evaluator
        return sorted(
            range(len(state.cores)),
            key=lambda index: (-evaluator.rail_used(state, index), index),
        )

    def _start_solution(self) -> PackedState:
        evaluator = self.evaluator
        core_ids = self.soc.core_ids
        state = evaluator.pack(
            [(core_id,) for core_id in core_ids], [1] * len(core_ids)
        )
        core_count = len(core_ids)
        if self.w_max < core_count:
            while len(state.cores) > self.w_max:
                order = self._order_by_used(state)
                overflow = order[self.w_max]  # r_{W_max + 1}
                # The floor does not apply here (the intermediate
                # architectures still exceed the pin budget) and the
                # first candidate always initialises the best, so score
                # the whole merge sweep in a single batch.
                moves = [
                    (MOVE_MERGE, position, overflow, 1)
                    for position in order[: self.w_max]
                ]
                best_move = self._select_first_min(state, moves)
                state = evaluator.apply_move(state, best_move)
        elif self.w_max > core_count:
            state = self._distribute(state, self.w_max - core_count)
        return state

    def _distribute(self, state: PackedState, free_wires: int) -> PackedState:
        evaluator = self.evaluator
        incr("optimizer.wires_distributed", free_wires)
        for _ in range(free_wires):
            candidates = sorted(evaluator.state_bottlenecks(state))
            if not candidates:
                candidates = list(range(len(state.cores)))
            moves = [(MOVE_WIDEN, index, 0, 0) for index in candidates]
            best_move = self._select_first_min(state, moves)
            state = evaluator.apply_move(state, best_move)
        return state

    def _merge_tams(self, state: PackedState, rail_index: int) -> PackedState:
        evaluator = self.evaluator
        floor = self.floor_total
        best_total = state.t_total
        base_width = state.widths[rail_index]
        partners = [
            index
            for index in range(len(state.cores))
            if index != rail_index
        ]
        if best_total <= floor:
            # No merge can strictly improve an incumbent at the floor;
            # count the enumeration the reference would have performed
            # (min(w_1, w_i) + 1 widths per partner) and keep the state.
            tried = sum(
                min(base_width, state.widths[index]) + 1
                for index in partners
            )
            incr("optimizer.merges_tried", tried)
            incr("optimizer.moves_pruned", tried)
            return state

        # The merged rail serializes the cores of both rails on at most
        # ``w_1 + w_i`` wires, whatever the sweep width or the leftover
        # redistribution — when its arithmetic bound already matches the
        # incumbent, the whole partner sweep is pruned unbuilt.
        skip_partner = {
            index
            for index in partners
            if evaluator.merged_rail_bound(
                state.cores[rail_index],
                state.cores[index],
                base_width + state.widths[index],
            )
            >= best_total
        }

        # Exact merges (leftover == 0, one per partner: width == w_1 + w_i)
        # change exactly two rails, so the exclusion bound covers them and
        # the survivors can be pre-scored in a single batch — scoring is
        # side-effect-free, so batch order cannot alter the walk below.
        exact_totals: dict[int, int] = {}
        batch = [
            index
            for index in partners
            if index not in skip_partner
            and self._move_bound(state, rail_index, index) < best_total
        ]
        if batch:
            exact_moves = [
                (MOVE_MERGE, rail_index, index,
                 base_width + state.widths[index])
                for index in batch
            ]
            for index, total in zip(
                batch, evaluator.score_moves(state, exact_moves)
            ):
                exact_totals[index] = total

        best_state = state
        best_move = None
        tried = 0
        pruned = 0
        for partner_index in partners:
            width_sum = base_width + state.widths[partner_index]
            width_min = max(base_width, state.widths[partner_index])
            if partner_index in skip_partner:
                count = width_sum - width_min + 1
                tried += count
                pruned += count
                continue
            for width in range(width_min, width_sum + 1):
                tried += 1
                if best_total <= floor:
                    pruned += 1
                    continue
                if width == width_sum:
                    total = exact_totals.get(partner_index)
                    if total is None:
                        # Bound-pruned at batch time; the bound only
                        # tightens as the incumbent improves.
                        pruned += 1
                    elif total < best_total:
                        best_total = total
                        best_move = (
                            MOVE_MERGE, rail_index, partner_index, width
                        )
                        best_state = None
                else:
                    # Redistribution may widen any rail, so no exclusion
                    # bound applies.  The C engine replays the merge plus
                    # the full wire-by-wire greedy redistribution and
                    # returns the candidate's total with the chosen rails,
                    # so only a *winning* candidate is materialized.
                    move = (MOVE_MERGE, rail_index, partner_index, width)
                    leftover = width_sum - width
                    scored = evaluator.score_merge_distribute(
                        state, rail_index, partner_index, width, leftover
                    )
                    if scored is None:
                        # Engine unavailable — build the candidate in full.
                        merged = self._distribute(
                            evaluator.apply_move(state, move), leftover
                        )
                        if merged.t_total < best_total:
                            best_total = merged.t_total
                            best_state = merged
                            best_move = None
                    else:
                        incr("optimizer.wires_distributed", leftover)
                        total, choices = scored
                        if total < best_total:
                            best_total = total
                            merged = evaluator.apply_move(state, move)
                            for rail in choices:
                                merged = evaluator.apply_move(
                                    merged, (MOVE_WIDEN, rail, 0, 0)
                                )
                            best_state = merged
                            best_move = None
        incr("optimizer.merges_tried", tried)
        if pruned:
            incr("optimizer.moves_pruned", pruned)
        if best_state is None:
            best_state = evaluator.apply_move(state, best_move)
        return best_state

    def _core_reshuffle(self, state: PackedState) -> PackedState:
        evaluator = self.evaluator
        floor = self.floor_total
        while True:
            current_total = state.t_total
            sources = sorted(evaluator.state_bottlenecks(state))
            if not sources:
                sources = list(range(len(state.cores)))
            eligible = [
                source
                for source in sources
                if len(state.cores[source]) >= 2
            ]
            destinations = len(state.cores) - 1
            count = destinations * sum(
                len(state.cores[source]) for source in eligible
            )
            if not count:
                return state
            incr("optimizer.core_moves_tried", count)
            if current_total <= floor:
                incr("optimizer.moves_pruned", count)
                return state
            moves = []
            bounds = []
            pair_bounds: dict[tuple[int, int], int] = {}
            for source in eligible:
                for core_id in state.cores[source]:
                    for destination in range(len(state.cores)):
                        if destination == source:
                            continue
                        pair = (source, destination)
                        bound = pair_bounds.get(pair)
                        if bound is None:
                            bound = pair_bounds[pair] = self._move_bound(
                                state, source, destination
                            )
                        moves.append(
                            (MOVE_CORE, core_id, source, destination)
                        )
                        bounds.append(bound)
            best_move = self._scan_bounded(
                state, moves, bounds, current_total
            )
            if best_move is None:
                return state
            state = evaluator.apply_move(state, best_move)


def evaluate_architecture(
    soc: Soc,
    architecture: TestRailArchitecture,
    groups: tuple[SITestGroup, ...] = (),
    capture_cycles: int = 1,
) -> Evaluation:
    """Evaluate a fixed architecture under a (possibly different) SI
    grouping — used e.g. to price the SI-oblivious baseline ``T_[8]``.
    """
    return TamEvaluator(soc, groups, capture_cycles=capture_cycles).evaluate(
        architecture
    )
