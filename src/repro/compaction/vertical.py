"""Vertical SI test compaction: pattern-count reduction.

Finding the minimum number of merged patterns is the clique-cover problem on
the compatibility graph (NP-complete); equivalently, graph coloring of the
*conflict* graph, since compatibility is pairwise-sufficient for SI symbol
vectors.  Two algorithms are provided:

* :func:`greedy_compact` — the paper's heuristic: take the first uncompacted
  pattern and merge every following compatible pattern into it, repeat.
  Linear-ish in practice and the one used by the experiments.
* :func:`color_compact` — a Welsh–Powell-style greedy coloring of the
  conflict graph, the classical approximation the paper compares against.
  Builds the O(n²) conflict graph, so intended for moderate pattern counts.

Both take a ``backend`` argument: ``"reference"`` runs the plain dict-walk
implementation in this module, ``"bitset"`` the packed big-int kernel from
:mod:`repro.compaction.kernel`, and ``"auto"`` (the default) picks the
kernel at or above its measured break-even pattern count.  The two backends
return bit-identical :class:`CompactionResult` objects; the choice only
affects speed, and is recorded in the ``compaction.backend.*`` counters.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

from repro.runtime.instrumentation import incr
from repro.sitest.patterns import SIPattern

BACKENDS = ("auto", "reference", "bitset")


@dataclass(frozen=True, eq=False)
class CompactionResult:
    """Outcome of a vertical compaction run.

    Attributes:
        members: For each merged pattern, indices (into the input
            sequence) of the original patterns it absorbed.
        original_count: Number of input patterns.
        source: The input sequence, for building merged patterns.
        merged: The merged patterns, when the compactor built them while
            it ran; otherwise :attr:`compacted` builds them from
            ``source`` on first use.
    """

    members: tuple[tuple[int, ...], ...]
    original_count: int
    source: Sequence[SIPattern] = field(default=(), repr=False)
    merged: tuple[SIPattern, ...] | None = field(default=None, repr=False)

    @cached_property
    def compacted(self) -> tuple[SIPattern, ...]:
        """The merged patterns, one per entry of :attr:`members`.

        Merging the members in absorption order with ``dict.update``
        keeps first-seen key order, and compatible members only re-store
        equal values, so this equals the incrementally merged dicts of
        the greedy scan.
        """
        if self.merged is not None:
            return self.merged
        source = self.source
        compacted = []
        for absorbed in self.members:
            seed = source[absorbed[0]]
            cares = dict(seed.cares)
            bus_claims = dict(seed.bus_claims)
            for index in absorbed[1:]:
                follower = source[index]
                cares.update(follower.cares)
                bus_claims.update(follower.bus_claims)
            compacted.append(SIPattern(cares=cares, bus_claims=bus_claims))
        return tuple(compacted)

    @property
    def compacted_count(self) -> int:
        return len(self.members)

    @property
    def ratio(self) -> float:
        """Compaction ratio ``original / compacted`` (1.0 for empty input)."""
        if not self.members:
            return 1.0
        return self.original_count / len(self.members)

    def __eq__(self, other):
        if not isinstance(other, CompactionResult):
            return NotImplemented
        return (
            self.members == other.members
            and self.original_count == other.original_count
            and self.compacted == other.compacted
        )

    __hash__ = None


def _resolve_backend(backend: str, count: int, threshold: int) -> str:
    """Map a ``backend`` argument to ``"reference"`` or ``"bitset"``."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown compaction backend {backend!r}; choose from {BACKENDS}"
        )
    if backend == "auto":
        return "bitset" if count >= threshold else "reference"
    return backend


def greedy_compact(
    patterns: Sequence[SIPattern], backend: str = "auto"
) -> CompactionResult:
    """Compact ``patterns`` with the paper's greedy clique-cover heuristic.

    In each cycle the first uncompacted pattern seeds a merged pattern,
    which then absorbs every following pattern compatible with the merge
    accumulated so far.  Compatibility respects both symbol intersection
    and the shared-bus-line driver rule.

    Args:
        patterns: The patterns to compact.
        backend: ``"reference"``, ``"bitset"``, or ``"auto"`` (bitset at or
            above :data:`repro.compaction.kernel.GREEDY_AUTO_THRESHOLD`
            patterns).  Both backends produce identical results.
    """
    from repro.compaction import kernel

    chosen = _resolve_backend(backend, len(patterns),
                              kernel.GREEDY_AUTO_THRESHOLD)
    incr(f"compaction.backend.{chosen}")
    if chosen == "bitset":
        result = kernel.greedy_compact_bitset(patterns)
    else:
        result = _greedy_reference(patterns)
    incr("compaction.greedy_runs")
    incr("compaction.patterns_merged_away",
         result.original_count - result.compacted_count)
    return result


def _greedy_reference(patterns: Sequence[SIPattern]) -> CompactionResult:
    patterns = list(patterns)
    n = len(patterns)
    used = bytearray(n)
    compacted: list[SIPattern] = []
    members: list[tuple[int, ...]] = []

    for start in range(n):
        if used[start]:
            continue
        used[start] = 1
        seed = patterns[start]
        cares = dict(seed.cares)
        bus_claims = dict(seed.bus_claims)
        absorbed = [start]
        cares_get = cares.get
        bus_get = bus_claims.get
        for candidate_index in range(start + 1, n):
            if used[candidate_index]:
                continue
            candidate = patterns[candidate_index]
            compatible = True
            for terminal, symbol in candidate.cares.items():
                existing = cares_get(terminal)
                if existing is not None and existing != symbol:
                    compatible = False
                    break
            if compatible and candidate.bus_claims:
                for line, driver in candidate.bus_claims.items():
                    existing = bus_get(line)
                    if existing is not None and existing != driver:
                        compatible = False
                        break
            if not compatible:
                continue
            used[candidate_index] = 1
            cares.update(candidate.cares)
            bus_claims.update(candidate.bus_claims)
            absorbed.append(candidate_index)
        compacted.append(SIPattern(cares=cares, bus_claims=bus_claims))
        members.append(tuple(absorbed))

    return CompactionResult(
        members=tuple(members),
        original_count=n,
        merged=tuple(compacted),
    )


def color_compact(
    patterns: Sequence[SIPattern], backend: str = "auto"
) -> CompactionResult:
    """Compact via greedy coloring of the conflict graph (Welsh–Powell).

    Vertices in non-increasing conflict-degree order each take the smallest
    color whose class they are compatible with; every color class becomes
    one merged pattern.  The reference backend builds the O(n²) pairwise
    conflict graph; the bitset backend derives per-vertex conflict masks
    from the packed conflict index and is the ``"auto"`` choice from
    :data:`repro.compaction.kernel.COLOR_AUTO_THRESHOLD` patterns up.
    """
    from repro.compaction import kernel

    chosen = _resolve_backend(backend, len(patterns),
                              kernel.COLOR_AUTO_THRESHOLD)
    incr(f"compaction.backend.{chosen}")
    if chosen == "bitset":
        result = kernel.color_compact_bitset(patterns)
    else:
        result = _color_reference(patterns)
    incr("compaction.color_runs")
    incr("compaction.patterns_merged_away",
         result.original_count - result.compacted_count)
    return result


def _color_reference(patterns: Sequence[SIPattern]) -> CompactionResult:
    patterns = list(patterns)
    n = len(patterns)
    conflicts: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        pattern_i = patterns[i]
        for j in range(i + 1, n):
            if not pattern_i.is_compatible(patterns[j]):
                conflicts[i].append(j)
                conflicts[j].append(i)

    order = sorted(range(n), key=lambda v: -len(conflicts[v]))
    color_of = [-1] * n
    classes: list[list[int]] = []
    merged_cares: list[dict] = []
    merged_bus: list[dict] = []

    for vertex in order:
        forbidden = {color_of[u] for u in conflicts[vertex] if color_of[u] != -1}
        pattern = patterns[vertex]
        chosen = -1
        for color in range(len(classes)):
            if color in forbidden:
                continue
            # Conflict-graph coloring already guarantees pairwise
            # compatibility with every member of the class, which is
            # sufficient for a non-empty intersection.
            chosen = color
            break
        if chosen == -1:
            chosen = len(classes)
            classes.append([])
            merged_cares.append({})
            merged_bus.append({})
        color_of[vertex] = chosen
        classes[chosen].append(vertex)
        merged_cares[chosen].update(pattern.cares)
        merged_bus[chosen].update(pattern.bus_claims)

    return CompactionResult(
        members=tuple(tuple(sorted(members)) for members in classes),
        original_count=n,
        merged=tuple(
            SIPattern(cares=merged_cares[c], bus_claims=merged_bus[c])
            for c in range(len(classes))
        ),
    )
