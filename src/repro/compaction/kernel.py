"""Packed-bitset vertical compaction kernel.

The reference compactors in :mod:`repro.compaction.vertical` walk Python
dicts per candidate pair, which is O(n · cares) *per merge cycle* and
dominates experiment wall time beyond a few thousand patterns.  This module
re-encodes a pattern list densely so the same algorithms run on arbitrary-
width Python ints:

* **Bit space.**  Pattern ``i`` of ``n`` owns bit ``n - 1 - i`` ("reversed"
  order).  The *lowest-index remaining pattern* — what the greedy scan asks
  for constantly — is then the **top** set bit, found in O(1) with
  ``int.bit_length()``; masks of later candidates shrink as the scan
  advances, so big-int ops get cheaper over a run instead of staying
  full-width.
* **Terminal planes** (:class:`PackedPatternSet`).  Per terminal, a *care
  mask* (bit set ⇔ the pattern assigns the terminal) plus two *symbol
  bit-planes* holding the low/high bit of the symbol id (``0``→0, ``1``→1,
  ``R``→2, ``F``→3).  A pattern's symbol at a terminal is recoverable from
  two bit tests; the per-symbol occupancy masks are disjoint slices of the
  care mask.
* **Bus claims** are packed per ``(line, driver)`` the same way, with a
  per-line total mask.
* **Conflict index.**  From the planes, each ``(terminal, symbol)`` key gets
  the mask of patterns caring that terminal with a *different* symbol, and
  each ``(line, driver)`` claim the mask of patterns claiming the line from
  a different core.  Candidate-versus-merge compatibility then costs a
  handful of big-int AND/XOR/sub ops instead of a dict walk per candidate —
  and the greedy pass never visits a conflicting candidate at all.

:func:`greedy_compact_bitset` and :func:`color_compact_bitset` reproduce
the reference implementations **bit-identically** (same
:class:`~repro.compaction.vertical.CompactionResult`, including member
partition and ordering); ``verify=True`` cross-checks against the reference
at full cost.  Dispatch between backends lives in
:func:`repro.compaction.vertical.greedy_compact` /
:func:`~repro.compaction.vertical.color_compact` via their ``backend``
argument.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from repro.runtime.instrumentation import incr
from repro.sitest.pattern_set import SYMBOL_IDS, PatternSet
from repro.sitest.patterns import SIPattern, Terminal

#: ``backend="auto"`` picks the bitset kernel at or above these pattern
#: counts.  Below them the packed index costs more than it saves; the
#: crossovers were measured on the bundled ITC'02 SOCs (see
#: ``benchmarks/bench_compaction.py``).
GREEDY_AUTO_THRESHOLD = 2048
COLOR_AUTO_THRESHOLD = 64


class KernelMismatchError(AssertionError):
    """The bitset kernel disagreed with the reference implementation."""


class PackedPatternSet:
    """Dense big-int encoding of an :class:`SIPattern` list.

    Pattern ``i`` of ``size`` owns bit ``size - 1 - i`` in every mask (see
    module docstring for why the order is reversed).

    Attributes:
        size: Number of encoded patterns.
        terminal_ids: Dense id per terminal, in first-seen order.
        care: Per terminal id, the mask of patterns assigning the terminal.
        plane0: Per terminal id, the mask of patterns whose symbol id there
            has bit 0 set (``1`` or ``F``).  Subset of ``care``.
        plane1: Same for bit 1 (``R`` or ``F``).  Subset of ``care``.
        bus_total: Per bus line, the mask of patterns claiming the line.
        bus_claim: Per ``(line, driver)``, the mask of patterns claiming
            the line from that core boundary.  The claims of one line are
            disjoint and OR to ``bus_total[line]``.
    """

    __slots__ = (
        "size", "terminal_ids", "care", "plane0", "plane1",
        "bus_total", "bus_claim",
    )

    def __init__(self, size, terminal_ids, care, plane0, plane1,
                 bus_total, bus_claim):
        self.size = size
        self.terminal_ids: dict[Terminal, int] = terminal_ids
        self.care: list[int] = care
        self.plane0: list[int] = plane0
        self.plane1: list[int] = plane1
        self.bus_total: dict[int, int] = bus_total
        self.bus_claim: dict[tuple[int, int], int] = bus_claim

    @classmethod
    def from_patterns(cls, patterns: Sequence[SIPattern]) -> "PackedPatternSet":
        """Encode ``patterns`` into terminal planes and bus claim masks."""
        view = PatternSet.from_patterns(patterns)
        n = len(view)
        _keys, _claims, occ, occ_bus = _occurrences(view)
        to_int = _bit_packer(n)
        terminals = view.terminals()
        # dense terminal ids in first-seen order (occ keeps key order)
        global_tids: dict[int, int] = {}
        terminal_ids: dict[Terminal, int] = {}
        for key in occ:
            if key >> 2 not in global_tids:
                global_tids[key >> 2] = len(global_tids)
                terminal_ids[terminals[key >> 2]] = len(terminal_ids)

        count = len(terminal_ids)
        care = [0] * count
        plane0 = [0] * count
        plane1 = [0] * count
        for global_tid, tid in global_tids.items():
            base = global_tid * 4
            slices = [occ.get(base + sid) for sid in range(4)]
            present = [sid for sid in range(4) if slices[sid]]
            if len(present) == 1:
                sid = present[0]
                mask = to_int(slices[sid])
                care[tid] = mask
                if sid & 1:
                    plane0[tid] = mask
                if sid & 2:
                    plane1[tid] = mask
                continue
            everything: list[int] = []
            low: list[int] = []
            high: list[int] = []
            for sid in present:
                everything.extend(slices[sid])
                if sid & 1:
                    low.extend(slices[sid])
                if sid & 2:
                    high.extend(slices[sid])
            care[tid] = to_int(everything)
            plane0[tid] = to_int(low) if low else 0
            plane1[tid] = to_int(high) if high else 0

        cores = len(view.cores)
        bus_claim = {
            (key // cores, view.cores[key % cores]): to_int(indices)
            for key, indices in occ_bus.items()
        }
        bus_total: dict[int, int] = {}
        for (line, _driver), mask in bus_claim.items():
            # claims of one line are disjoint (one driver per pattern)
            bus_total[line] = bus_total.get(line, 0) + mask
        return cls(n, terminal_ids, care, plane0, plane1,
                   bus_total, bus_claim)

    def bit(self, index: int) -> int:
        """The mask bit owned by pattern ``index``."""
        return 1 << (self.size - 1 - index)

    def pattern_indices(self, mask: int) -> list[int]:
        """Decode ``mask`` into ascending original pattern indices."""
        top = self.size - 1
        indices = []
        while mask:
            rev = mask.bit_length() - 1
            indices.append(top - rev)
            mask -= 1 << rev
        return indices

    def symbol_mask(self, terminal: Terminal, symbol: str) -> int:
        """Mask of patterns assigning ``symbol`` to ``terminal``."""
        tid = self.terminal_ids.get(terminal)
        if tid is None:
            return 0
        sid = SYMBOL_IDS[symbol]
        plane0, plane1, care = self.plane0[tid], self.plane1[tid], self.care[tid]
        mask = plane0 if sid & 1 else care - plane0
        return mask & plane1 if sid & 2 else mask - (mask & plane1)

    def conflict_masks(self) -> tuple[dict[int, int],
                                      dict[tuple[int, int], int]]:
        """Build the conflict index from the planes.

        Returns ``(symbol_conflicts, bus_conflicts)``: for every present
        ``tid * 4 + symbol_id`` key, the mask of patterns caring that
        terminal with a *different* symbol; for every ``(line, driver)``
        claim, the mask of patterns claiming the line from another core.
        Masks may be zero (no conflict); keys never seen in the input are
        absent.
        """
        conflicts: dict[int, int] = {}
        for tid, total in enumerate(self.care):
            plane0 = self.plane0[tid]
            plane1 = self.plane1[tid]
            both = plane0 & plane1
            either = plane0 | plane1
            base = tid * 4
            # per-symbol occupancy masks are disjoint slices of `total`,
            # so each conflict mask is an exact subtraction
            for sid, mask in enumerate(
                (total - either, plane0 - both, plane1 - both, both)
            ):
                if mask:
                    conflicts[base + sid] = total - mask
        bus_conflicts = {
            claim: self.bus_total[claim[0]] - mask
            for claim, mask in self.bus_claim.items()
        }
        return conflicts, bus_conflicts


def _occurrences(view: PatternSet):
    """One pass over a view's columns for the bitset encodings.

    Returns ``(keys_of, claims_of, occ, occ_bus)``: per view position its
    care keys and bus keys, and per key the list of *reversed* positions
    (``n - 1 - i``) holding it, keys in first-seen order.
    """
    n = len(view)
    care_keys, care_off = view.care_keys, view.care_off
    bus_keys, bus_off = view.bus_keys, view.bus_off
    keys_of: list = []
    claims_of: list = []
    occ: defaultdict[int, list[int]] = defaultdict(list)
    occ_bus: defaultdict[int, list[int]] = defaultdict(list)
    rev = n
    for row in view.row_ids():
        rev -= 1
        keys = care_keys[care_off[row]:care_off[row + 1]]
        for key in keys:
            occ[key].append(rev)
        keys_of.append(keys)
        claims = bus_keys[bus_off[row]:bus_off[row + 1]]
        for claim in claims:
            occ_bus[claim].append(rev)
        claims_of.append(claims)
    return keys_of, claims_of, occ, occ_bus


def _bit_packer(n: int):
    """``to_int(indices)``: the n-bit mask with those bits set."""
    scratch = bytearray((n >> 3) + 1)

    def to_int(indices: list[int]) -> int:
        for i in indices:
            scratch[i >> 3] |= 1 << (i & 7)
        value = int.from_bytes(scratch, "little")
        for i in indices:
            scratch[i >> 3] = 0
        return value

    return to_int


def greedy_compact_bitset(patterns: Sequence[SIPattern], *,
                          verify: bool = False):
    """Greedy clique-cover compaction on the packed encoding.

    Bit-identical to :func:`repro.compaction.vertical.greedy_compact` with
    ``backend="reference"``: in each cycle the lowest remaining pattern
    seeds a merge, then absorbs every later pattern compatible with the
    merge so far, in index order.  The kernel keeps an ``eligible`` mask of
    candidates compatible with the running merge — seeded from ``avail``
    and pruned by the conflict masks of every symbol/claim the merge
    acquires — so conflicting candidates are never visited at all.
    Equivalence holds because a pattern incompatible with the merge stays
    incompatible for the rest of the cycle (merges only gain cares) and
    the top-bit extraction yields exactly the reference's visit order.

    Both scan engines read the columns of a
    :class:`~repro.sitest.pattern_set.PatternSet` (or index view); a plain
    list is encoded into one first.  The merged patterns are built only
    when :attr:`CompactionResult.compacted` is read.

    Args:
        patterns: The patterns to compact.
        verify: Re-run the reference implementation and raise
            :class:`KernelMismatchError` on any difference (debugging aid;
            costs the full reference runtime).

    Emits ``compaction.bitset.candidates_pruned`` (candidate visits the
    reference would have made that the kernel skipped) and
    ``compaction.bitset.words_compared`` (conflict-row words applied: in
    the C engine one per ``(word, bits)`` run cleared out of the eligible
    set, in the Python engine the width in words of each combined
    conflict mask).
    """
    from repro.compaction import _cscan
    from repro.compaction.vertical import CompactionResult

    view = PatternSet.from_patterns(patterns)
    scanned = _cscan.greedy_scan(view)
    if scanned is not None:
        incr("compaction.bitset.cscan")
        member_lists, pruned, words = scanned
    else:
        member_lists, pruned, words = _greedy_scan_python(view)
    incr("compaction.bitset.candidates_pruned", pruned)
    incr("compaction.bitset.words_compared", words)
    result = CompactionResult(
        members=tuple(tuple(absorbed) for absorbed in member_lists),
        original_count=len(view),
        source=patterns,
    )
    if verify:
        _check_against_reference("greedy", patterns, result)
    return result


def _greedy_scan_python(patterns: Sequence[SIPattern]):
    """Pure-Python greedy scan on big-int bitsets.

    The fallback engine when :mod:`repro.compaction._cscan` has no C
    compiler to work with — same cycles, same ``pruned`` (``words``
    counts differently: conflict-row runs applied in C, combined mask
    widths here).
    It reads the same column views as the C engine: care keys
    (``terminal_id * 4 + symbol_id``) dedup per terminal as ``key >> 2``,
    bus keys (``line * cores + driver``) per line as ``key // cores``.
    Returns ``(member_lists, pruned, words)``.
    """
    view = PatternSet.from_patterns(patterns)
    n = len(view)
    cores = len(view.cores)
    top = n - 1
    keys_of, claims_of, occ, occ_bus = _occurrences(view)
    to_int = _bit_packer(n)

    def conflict_index(occurrences, group_of):
        masks = {key: to_int(indices) for key, indices in occurrences.items()}
        totals: dict[int, int] = {}
        for key, mask in masks.items():
            # the occupancy masks of one terminal (line) are disjoint, so
            # plain addition composes the exact total
            group = group_of(key)
            totals[group] = totals.get(group, 0) + mask
        return {key: totals[group_of(key)] - mask
                for key, mask in masks.items()}

    conflicts = conflict_index(occ, lambda key: key >> 2)
    bus_conflicts = conflict_index(occ_bus, lambda key: key // cores)

    member_lists: list[list[int]] = []
    scratch = bytearray((n >> 3) + 1)
    avail = (1 << n) - 1 if n else 0
    pruned = 0
    words = 0
    while avail:
        high = avail.bit_length() - 1
        start = top - high
        avail -= 1 << high
        candidates = avail.bit_count()
        merged_tids = set()
        tid_add = merged_tids.add
        merged_lines = set()
        line_add = merged_lines.add
        absorbed = [start]
        eligible = avail
        newconf = 0
        for key in keys_of[start]:
            tid_add(key >> 2)
            conflict = conflicts[key]
            if conflict:
                # first mask binds by reference: `0 | mask` would copy
                # the full width for nothing
                if newconf:
                    newconf |= conflict
                else:
                    newconf = conflict
        for claim in claims_of[start]:
            line_add(claim // cores)
            conflict = bus_conflicts[claim]
            if conflict:
                if newconf:
                    newconf |= conflict
                else:
                    newconf = conflict
        if newconf:
            words += (newconf.bit_length() >> 6) + 1
            hit = eligible & newconf
            if hit:
                eligible -= hit
        while eligible:
            rev = eligible.bit_length() - 1
            bit = 1 << rev
            # absorbed bits are batch-cleared from `avail` at cycle end;
            # the inner loop only reads `eligible`
            scratch[rev >> 3] |= 1 << (rev & 7)
            index = top - rev
            absorbed.append(index)
            newconf = 0
            for key in keys_of[index]:
                tid = key >> 2
                if tid not in merged_tids:
                    tid_add(tid)
                    conflict = conflicts[key]
                    if conflict:
                        if newconf:
                            newconf |= conflict
                        else:
                            newconf = conflict
            for claim in claims_of[index]:
                line = claim // cores
                if line not in merged_lines:
                    line_add(line)
                    conflict = bus_conflicts[claim]
                    if conflict:
                        if newconf:
                            newconf |= conflict
                        else:
                            newconf = conflict
            if newconf:
                words += (newconf.bit_length() >> 6) + 1
                # a pattern never conflicts with its own cares, so `bit`
                # is disjoint from the hit set: clear both in one pass
                eligible -= (eligible & newconf) + bit
            else:
                eligible -= bit
        if len(absorbed) > 1:
            avail -= int.from_bytes(scratch, "little")
            for index in absorbed[1:]:
                scratch[(top - index) >> 3] = 0
        pruned += candidates - (len(absorbed) - 1)
        member_lists.append(absorbed)
    return member_lists, pruned, words


def color_compact_bitset(patterns: list[SIPattern], *, verify: bool = False):
    """Welsh–Powell conflict-graph coloring on the packed encoding.

    Bit-identical to :func:`repro.compaction.vertical.color_compact` with
    ``backend="reference"``.  Instead of the reference's O(n²) pairwise
    compatibility matrix, each vertex gets a conflict mask (OR of the
    conflict masks of its cares and claims — never including itself), its
    degree is the mask's popcount, and a color is forbidden exactly when
    the vertex mask intersects the color class's member mask.  The
    degree sort is stable, so tie order matches the reference.

    Stores one n-bit mask per pattern (O(n²/64) words); meant for the
    moderate pattern counts coloring is used at.
    """
    from repro.compaction.vertical import CompactionResult

    n = len(patterns)
    packed = PackedPatternSet.from_patterns(patterns)
    conflicts, bus_conflicts = packed.conflict_masks()
    base_of = {t: tid * 4 for t, tid in packed.terminal_ids.items()}
    symbol_ids = SYMBOL_IDS
    top = n - 1
    words = 0

    vertex_masks: list[int] = []
    for pattern in patterns:
        mask = 0
        for terminal, symbol in pattern.cares.items():
            conflict = conflicts[base_of[terminal] + symbol_ids[symbol]]
            if conflict:
                words += (conflict.bit_length() >> 6) + 1
                mask |= conflict
        for claim in pattern.bus_claims.items():
            conflict = bus_conflicts[claim]
            if conflict:
                words += (conflict.bit_length() >> 6) + 1
                mask |= conflict
        vertex_masks.append(mask)

    order = sorted(range(n), key=lambda v: -vertex_masks[v].bit_count())
    class_masks: list[int] = []
    classes: list[list[int]] = []
    merged_cares: list[dict] = []
    merged_bus: list[dict] = []
    for vertex in order:
        vertex_mask = vertex_masks[vertex]
        chosen = -1
        for color, class_mask in enumerate(class_masks):
            if class_mask & vertex_mask:
                words += (class_mask.bit_length() >> 6) + 1
                continue
            chosen = color
            break
        if chosen == -1:
            chosen = len(class_masks)
            class_masks.append(0)
            classes.append([])
            merged_cares.append({})
            merged_bus.append({})
        class_masks[chosen] |= 1 << (top - vertex)
        classes[chosen].append(vertex)
        merged_cares[chosen].update(patterns[vertex].cares)
        merged_bus[chosen].update(patterns[vertex].bus_claims)

    incr("compaction.bitset.words_compared", words)
    result = CompactionResult(
        members=tuple(tuple(sorted(members)) for members in classes),
        original_count=n,
        merged=tuple(
            SIPattern(cares=merged_cares[c], bus_claims=merged_bus[c])
            for c in range(len(classes))
        ),
    )
    if verify:
        _check_against_reference("color", patterns, result)
    return result


def _check_against_reference(algorithm: str, patterns, result) -> None:
    from repro.compaction import vertical

    reference_impl = {
        "greedy": vertical._greedy_reference,
        "color": vertical._color_reference,
    }[algorithm]
    expected = reference_impl(patterns)
    if result != expected:
        raise KernelMismatchError(
            f"bitset {algorithm} kernel diverged from the reference on "
            f"{len(patterns)} patterns: {result.compacted_count} vs "
            f"{expected.compacted_count} compacted"
        )
