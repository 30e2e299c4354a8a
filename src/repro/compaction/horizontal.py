"""Horizontal SI test compaction: pattern-length reduction via core grouping.

Following Section 3 of the paper, cores are partitioned into ``parts``
groups by hypergraph partitioning (Fig. 2): vertices are cores weighted by
their wrapper-output-cell counts, hyperedges are the distinct care-core sets
of the SI patterns weighted by how many patterns share that care set.
Patterns whose care cores all fall into one part only need to shift that
part's WOCs; the rest form a *residual* group whose patterns keep the full
length (all cores).  Vertical compaction then runs inside every group.

The pattern set is read in columnar form
(:class:`~repro.sitest.pattern_set.PatternSet`; a plain list is encoded
once): hyperedges come from the per-pattern care-core masks, each
distinct mask is routed once, and every group's bucket is an index view
over the shared columns.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.compaction.groups import SITestGroup
from repro.compaction.vertical import CompactionResult, greedy_compact
from repro.hypergraph.hypergraph import build_hypergraph
from repro.hypergraph.multilevel import partition
from repro.runtime.executor import run_cells
from repro.runtime.instrumentation import (
    absorb_snapshot,
    call_with_instrumentation,
    get_instrumentation,
    incr,
)
from repro.sitest.pattern_set import PatternSet
from repro.sitest.patterns import SIPattern
from repro.soc.model import Soc


@dataclass(frozen=True)
class GroupingResult:
    """Outcome of two-dimensional compaction.

    Attributes:
        groups: The SI test groups (part groups first, residual last); empty
            groups are dropped.
        part_of_core: Part index per core id (cores without output cells
            are absent).
        cut_patterns: Number of original patterns that landed in the
            residual group.
        compactions: Per-group vertical compaction details, parallel to
            ``groups``.
    """

    groups: tuple[SITestGroup, ...]
    part_of_core: dict[int, int]
    cut_patterns: int
    compactions: tuple[CompactionResult, ...]

    @property
    def total_compacted_patterns(self) -> int:
        return sum(group.patterns for group in self.groups)


def _vertical_cell(bucket):
    """Sweep cell: vertical compaction of one group's pattern bucket.

    The result travels without its source; the caller re-attaches the
    bucket it already holds."""
    compaction, snapshot = call_with_instrumentation(greedy_compact, bucket)
    return replace(compaction, source=()), snapshot


def build_si_test_groups(
    soc: Soc,
    patterns: Sequence[SIPattern],
    parts: int,
    epsilon: float = 0.10,
    seed: int = 0,
    jobs: int = 1,
) -> GroupingResult:
    """Run two-dimensional compaction: partition cores, split the pattern
    set, and vertically compact each group.

    Args:
        soc: The SOC the patterns belong to.
        patterns: Uncompacted SI patterns.
        parts: Number of core groups (``i`` in the paper's ``T_g_i``);
            ``parts=1`` degenerates to one-dimensional (vertical only)
            compaction over all cores.
        epsilon: Partitioner balance tolerance.
        seed: Partitioner seed.
        jobs: Worker processes for the per-group compactions; groups are
            independent, so fanning out never changes the result.

    Raises:
        ValueError: If ``parts`` is not positive or exceeds the number of
            cores with output cells.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    with get_instrumentation().timeit("compaction.build_si_test_groups"):
        return _build_si_test_groups(soc, patterns, parts, epsilon, seed,
                                     jobs)


def random_si_groups(
    soc: Soc, pattern_count: int, parts: int, seed: int
) -> tuple[SITestGroup, ...]:
    """The SI test groups of ``pattern_count`` random SI patterns drawn
    and partitioned with ``seed`` into ``parts`` core groups; none when
    ``pattern_count`` is 0 (InTest only)."""
    if not pattern_count:
        return ()
    from repro.sitest.generator import generate_random_patterns

    patterns = generate_random_patterns(soc, pattern_count, seed=seed)
    return build_si_test_groups(soc, patterns, parts=parts, seed=seed).groups


def _build_si_test_groups(
    soc: Soc,
    patterns: Sequence[SIPattern],
    parts: int,
    epsilon: float,
    seed: int,
    jobs: int,
) -> GroupingResult:
    host_ids = [core.core_id for core in soc if core.woc_count > 0]
    if parts > len(host_ids):
        raise ValueError(
            f"cannot form {parts} core groups from {len(host_ids)} cores "
            "with output cells"
        )

    pattern_set = PatternSet.from_patterns(patterns)
    masks = pattern_set.care_masks()
    # care-core set and pattern count per distinct care mask, in
    # first-seen order (Counter keeps insertion order)
    care_sets = {
        mask: (pattern_set.mask_cores(mask), weight)
        for mask, weight in Counter(masks).items()
    }

    if parts == 1:
        part_of_core = {core_id: 0 for core_id in host_ids}
    else:
        part_of_core = _partition_cores(soc, care_sets, host_ids, parts,
                                        epsilon, seed)

    # Route each care set to its part, or to the residual bucket (index
    # ``parts``), then each pattern by its mask.
    route = {}
    for mask, (core_ids, _weight) in care_sets.items():
        owners = {part_of_core[core_id] for core_id in core_ids}
        route[mask] = owners.pop() if len(owners) == 1 else parts
    rows = [array("i") for _ in range(parts + 1)]
    add = [bucket_rows.append for bucket_rows in rows]
    for index, mask in enumerate(masks):
        add[route[mask]](index)

    # One cell per non-empty bucket (part groups in order, residual last);
    # groups are independent, so they fan out over worker processes.
    cells: list[tuple[PatternSet, frozenset[int], bool]] = []
    for part in range(parts):
        if not rows[part]:
            continue
        cores = frozenset(
            core_id for core_id, assigned in part_of_core.items()
            if assigned == part
        )
        cells.append((pattern_set.select(rows[part]), cores, False))
    residual = len(rows[parts])
    if residual:
        cells.append(
            (pattern_set.select(rows[parts]), frozenset(host_ids), True)
        )

    outcomes = run_cells(
        _vertical_cell,
        [bucket for bucket, _cores, _is_residual in cells],
        jobs=jobs,
    )

    groups: list[SITestGroup] = []
    compactions: list[CompactionResult] = []
    for (bucket, cores, is_residual), (compaction, snapshot) in zip(
        cells, outcomes
    ):
        absorb_snapshot(snapshot)
        groups.append(
            SITestGroup(
                group_id=len(groups),
                cores=cores,
                patterns=compaction.compacted_count,
                original_patterns=len(bucket),
                is_residual=is_residual,
            )
        )
        compactions.append(replace(compaction, source=bucket))

    incr("compaction.groupings")
    incr("compaction.patterns_in", len(pattern_set))
    incr("compaction.patterns_out",
         sum(group.patterns for group in groups))
    incr("compaction.residual_patterns", residual)
    return GroupingResult(
        groups=tuple(groups),
        part_of_core=part_of_core,
        cut_patterns=residual,
        compactions=tuple(compactions),
    )


def _partition_cores(
    soc: Soc,
    care_sets: dict[int, tuple[list[int], int]],
    host_ids: list[int],
    parts: int,
    epsilon: float,
    seed: int,
) -> dict[int, int]:
    """Partition the cores with output cells into ``parts`` balanced groups
    minimizing the weight of cut care-core sets (Fig. 2).

    ``care_sets`` maps each distinct care mask to its core ids and
    pattern count, in first-seen order: every set of two or more cores is
    one hyperedge weighted by its count, in that order.
    """
    index_of = {core_id: index for index, core_id in enumerate(host_ids)}
    vertex_weights = [soc.core_by_id(core_id).woc_count for core_id in host_ids]

    weighted_edges: dict[frozenset[int], int] = {}
    for core_ids, weight in care_sets.values():
        care = frozenset(index_of[core_id] for core_id in core_ids)
        if len(care) >= 2:
            weighted_edges[care] = weight

    graph = build_hypergraph(vertex_weights, weighted_edges)
    result = partition(graph, parts, epsilon=epsilon, seed=seed)
    return {
        core_id: result.assignment[index_of[core_id]] for core_id in host_ids
    }
