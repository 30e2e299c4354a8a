"""Packed-bitset kernel tests: reference equivalence and the encoding itself.

The kernel's contract is *bit-identical* results: for any input, both
algorithms must return exactly the dict-walk reference's
:class:`CompactionResult` — same merged patterns, same member partition,
same ordering.  Hypothesis drives the equivalence over adversarial pattern
sets (symbol clashes and shared-bus-line driver clashes), an edge battery
covers the degenerate shapes, and the bundled benchmark SOCs anchor the
equivalence on realistic terminal distributions.
"""

from __future__ import annotations

import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction.kernel import (
    PackedPatternSet,
    color_compact_bitset,
    greedy_compact_bitset,
)
from repro.compaction.vertical import (
    _color_reference,
    _greedy_reference,
    color_compact,
    greedy_compact,
)
from repro.native import _DISABLE_VALUES
from repro.runtime.instrumentation import (
    Instrumentation,
    use_instrumentation,
)
from repro.sitest.generator import generate_random_patterns
from repro.sitest.pattern_set import PatternSet
from repro.sitest.patterns import SIPattern, SYMBOLS
from repro.soc.benchmarks import load_benchmark

_TERMINALS = [(core_id, index) for core_id in (1, 2, 3) for index in range(4)]

# Few terminals/lines and few symbols per slot → dense clash probability,
# so the conflict-mask pruning and the bus driver rule are both exercised.
_patterns = st.lists(
    st.builds(
        lambda cares, bus_claims: SIPattern(
            cares=cares, bus_claims=bus_claims
        ),
        st.dictionaries(
            st.sampled_from(_TERMINALS),
            st.sampled_from(SYMBOLS),
            max_size=6,
        ),
        st.dictionaries(
            st.integers(min_value=0, max_value=3),
            st.sampled_from((1, 2, 3)),
            max_size=3,
        ),
    ),
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(_patterns)
def test_greedy_bitset_matches_reference(patterns):
    assert greedy_compact_bitset(patterns) == _greedy_reference(patterns)


@settings(max_examples=120, deadline=None)
@given(_patterns)
def test_color_bitset_matches_reference(patterns):
    assert color_compact_bitset(patterns) == _color_reference(patterns)


@settings(max_examples=60, deadline=None)
@given(_patterns)
def test_kernel_verify_mode_passes(patterns):
    assert greedy_compact_bitset(patterns) == _greedy_reference(patterns)
    assert color_compact_bitset(patterns) == _color_reference(patterns)


@pytest.mark.parametrize("soc_name", ["d695", "p93791"])
@pytest.mark.parametrize("seed", [1, 7])
def test_backends_agree_on_benchmark_socs(soc_name, seed):
    soc = load_benchmark(soc_name)
    patterns = generate_random_patterns(soc, 1_500, seed=seed)
    assert greedy_compact(patterns) == _greedy_reference(patterns)
    assert color_compact(patterns) == _color_reference(patterns)


# --- edge battery -----------------------------------------------------------


def _compatible_pair():
    return [
        SIPattern(cares={(1, 0): "0"}, bus_claims={0: 1}),
        SIPattern(cares={(1, 1): "R"}, bus_claims={1: 2}),
    ]


_EDGE_CASES = {
    "empty": [],
    "single": [SIPattern(cares={(1, 0): "R"})],
    "single_empty_pattern": [SIPattern()],
    "all_empty_patterns": [SIPattern() for _ in range(5)],
    "compatible_pair": _compatible_pair(),
    "all_conflicting_symbols": [
        SIPattern(cares={(1, 0): SYMBOLS[i % 2]}) for i in range(8)
    ],
    "all_conflicting_drivers": [
        SIPattern(cares={(core, 0): "1"}, bus_claims={0: core})
        for core in range(1, 6)
    ],
    "duplicates": [SIPattern(cares={(2, 3): "F"}, bus_claims={1: 2})] * 4,
    "four_symbols_one_terminal": [
        SIPattern(cares={(1, 0): symbol}) for symbol in SYMBOLS
    ],
}


@pytest.mark.parametrize("name", sorted(_EDGE_CASES))
def test_edge_cases_match_reference(name):
    patterns = _EDGE_CASES[name]
    greedy = greedy_compact_bitset(patterns)
    color = color_compact_bitset(patterns)
    assert greedy == _greedy_reference(patterns)
    assert color == _color_reference(patterns)
    assert greedy.original_count == len(patterns)
    assert color.original_count == len(patterns)


def test_all_conflicting_patterns_stay_separate():
    patterns = _EDGE_CASES["all_conflicting_symbols"]
    result = greedy_compact_bitset(patterns)
    # alternating 0/1 on one terminal → two merged patterns, interleaved
    assert result.compacted_count == 2
    assert result.members == ((0, 2, 4, 6), (1, 3, 5, 7))


def test_conflicting_bus_drivers_never_merge():
    result = greedy_compact_bitset(_EDGE_CASES["all_conflicting_drivers"])
    assert result.compacted_count == 5


# --- packed encoding --------------------------------------------------------


def test_packed_pattern_set_planes():
    patterns = [
        SIPattern(cares={(1, 0): "0", (1, 1): "R"}, bus_claims={2: 1}),
        SIPattern(cares={(1, 0): "1"}, bus_claims={2: 3}),
        SIPattern(cares={(1, 1): "R"}),
        SIPattern(cares={(1, 0): "F"}),
    ]
    packed = PackedPatternSet.from_patterns(patterns)
    assert packed.size == 4
    for index, pattern in enumerate(patterns):
        for terminal, symbol in pattern.cares.items():
            assert packed.symbol_mask(terminal, symbol) & packed.bit(index)
            tid = packed.terminal_ids[terminal]
            assert packed.care[tid] & packed.bit(index)
    # (1, 0) carries symbols 0, 1, F -> every pairwise combination clashes
    mask = packed.symbol_mask((1, 0), "0")
    assert packed.pattern_indices(mask) == [0]
    assert packed.symbol_mask((1, 0), "R") == 0
    assert packed.symbol_mask((9, 9), "R") == 0
    # line 2 is claimed by cores 1 and 3
    assert packed.pattern_indices(packed.bus_total[2]) == [0, 1]
    assert packed.pattern_indices(packed.bus_claim[(2, 1)]) == [0]


def test_conflict_masks_match_brute_force():
    patterns = [
        SIPattern(cares={(1, 0): "0", (2, 1): "R"}, bus_claims={0: 1}),
        SIPattern(cares={(1, 0): "1"}, bus_claims={0: 2}),
        SIPattern(cares={(1, 0): "0", (2, 1): "F"}),
        SIPattern(cares={(2, 1): "R"}, bus_claims={0: 1}),
    ]
    packed = PackedPatternSet.from_patterns(patterns)
    conflicts, bus_conflicts = packed.conflict_masks()
    for terminal in {(1, 0), (2, 1)}:
        tid = packed.terminal_ids[terminal]
        for sid, symbol in enumerate(SYMBOLS):
            expected = [
                index
                for index, pattern in enumerate(patterns)
                if pattern.cares.get(terminal) not in (None, symbol)
            ]
            mask = conflicts.get(tid * 4 + sid)
            if mask is None:
                # key absent ⇔ no pattern uses this (terminal, symbol)
                assert all(
                    pattern.cares.get(terminal) != symbol
                    for pattern in patterns
                )
            else:
                assert packed.pattern_indices(mask) == expected
    for (line, driver), mask in bus_conflicts.items():
        expected = [
            index
            for index, pattern in enumerate(patterns)
            if pattern.bus_claims.get(line) not in (None, driver)
        ]
        assert packed.pattern_indices(mask) == expected


# --- instrumentation --------------------------------------------------------


def test_bitset_kernel_counters():
    soc = load_benchmark("d695")
    patterns = generate_random_patterns(soc, 400, seed=5)
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        result = greedy_compact_bitset(patterns)
    counters = instrumentation.counters
    # Every candidate the reference would visit is either absorbed or
    # pruned.  Per cycle the reference visits all still-uncompacted
    # patterns except the seed (the seed is always the lowest remaining).
    visits = 0
    absorbed = 0
    remaining = len(patterns)
    for members in result.members:
        visits += remaining - 1
        absorbed += len(members) - 1
        remaining -= len(members)
    assert counters["compaction.bitset.candidates_pruned"] == visits - absorbed
    assert counters["compaction.bitset.words_compared"] > 0


def test_color_counters_on_both_backends():
    """The entry point counts its run and what it merged away; the
    merged count is the reference's."""
    patterns = [
        SIPattern(cares={(1, 0): SYMBOLS[i % 2]}) for i in range(6)
    ]
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        result = color_compact(patterns)
    assert result == _color_reference(patterns)
    assert instrumentation.counters["compaction.color_runs"] == 1
    assert instrumentation.counters[
        "compaction.patterns_merged_away"
    ] == len(patterns) - result.compacted_count


# --- scan engines (C vs pure Python) ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(_patterns)
def test_greedy_python_engine_matches_reference(patterns):
    """The pure-Python fallback scan alone reproduces the reference cycles."""
    from repro.compaction.kernel import _greedy_scan_python

    member_lists, _pruned, _words = _greedy_scan_python(patterns)
    reference = _greedy_reference(patterns)
    assert tuple(tuple(m) for m in member_lists) == reference.members


def test_greedy_bitset_without_cscan_matches_reference(monkeypatch):
    """Kernel output is identical when the C engine reports unavailable."""
    from repro.compaction import _cscan

    monkeypatch.setattr(_cscan, "greedy_scan", lambda patterns: None)
    soc = load_benchmark("d695")
    patterns = generate_random_patterns(soc, 600, seed=11)
    assert greedy_compact_bitset(patterns) == _greedy_reference(patterns)


def test_scan_engines_agree():
    from repro.compaction import _cscan
    from repro.compaction.kernel import _greedy_scan_python

    if not _cscan.available():
        pytest.skip("no C compiler on this host")
    soc = load_benchmark("d695")
    patterns = generate_random_patterns(soc, 600, seed=3)
    member_lists, pruned, _words = _greedy_scan_python(patterns)
    scanned = _cscan.greedy_scan(patterns)
    assert scanned is not None
    c_members, c_pruned, c_words = scanned
    assert c_members == member_lists
    assert c_pruned == pruned
    assert c_words > 0


def test_cscan_disabled_by_environment(monkeypatch, reprobe_engines):
    from repro.compaction import _cscan

    monkeypatch.setenv("REPRO_COMPACTION_CSCAN", "0")
    assert not _cscan.available()
    assert _cscan.greedy_scan([SIPattern(cares={(1, 0): "R"})]) is None


# --- C scan: word-run conflict rows -----------------------------------------


def _c_scan(patterns):
    """The C engine's ``(member_lists, pruned, words)``.

    Skipped only where the engine is not wanted; a wanted engine that
    fails to resolve (e.g. its smoke check) fails the test instead.
    """
    from repro.compaction import _cscan

    wanted = os.environ.get(_cscan.ENGINE.env_var, "").strip().lower()
    if wanted in _DISABLE_VALUES or not (
        shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    ):
        pytest.skip("no C compiler, or the C scan is disabled")
    scanned = _cscan.greedy_scan(patterns)
    assert scanned is not None
    return scanned


def _assert_c_matches_reference(patterns):
    from repro.compaction.kernel import _greedy_scan_python

    members, pruned, _words = _c_scan(patterns)
    assert tuple(map(tuple, members)) == _greedy_reference(patterns).members
    assert pruned == _greedy_scan_python(patterns)[1]


@pytest.fixture(scope="module")
def p93791_patterns():
    return generate_random_patterns(load_benchmark("p93791"), 4097, seed=2)


@pytest.mark.parametrize("size", [1, 63, 64, 65, 127, 128, 129, 4097])
@pytest.mark.parametrize("order", ["ascending", "reversed"])
def test_c_scan_view_sizes_match_reference(p93791_patterns, size, order):
    """Views ending at, just before and just past a word boundary."""
    rows = range(size) if order == "ascending" else range(size - 1, -1, -1)
    _assert_c_matches_reference(p93791_patterns.select(rows))


def test_c_scan_applies_run_in_absorbing_word():
    """Absorbing position 65 acquires (2, 0)='0', whose conflict run in
    word 1 holds position 64 (below 65, already pruned by the seed) and
    position 66 (above it): the run must still be applied from word 1."""
    patterns = [SIPattern(cares={(1, 0): "0"})]
    patterns += [SIPattern() for _ in range(63)]
    patterns += [
        SIPattern(cares={(1, 0): "1", (2, 0): "1"}),  # 64: seed conflict
        SIPattern(cares={(2, 0): "0"}),               # 65: absorbed
        SIPattern(cares={(2, 0): "1"}),               # 66: 65's conflict
        SIPattern(cares={(3, 0): "R"}),               # 67: absorbed
    ]
    patterns += [SIPattern(cares={(2, 0): "1"})] * 70  # runs past word 1
    members, _pruned, _words = _c_scan(patterns)
    assert members[0] == [*range(64), 65, 67]
    assert 66 in members[1]
    _assert_c_matches_reference(patterns)


def test_c_scan_empty_conflict_rows_apply_nothing():
    """A key no other symbol or driver shares has an empty conflict row."""
    patterns = [
        SIPattern(cares={(1, 0): "R", (2, index % 3): "F"}, bus_claims={5: 2})
        for index in range(70)
    ]
    members, pruned, words = _c_scan(patterns)
    assert members == [list(range(70))]
    assert (pruned, words) == (0, 0)
    # one shared key with a non-empty row: only its runs are applied
    patterns.append(SIPattern(cares={(1, 0): "0"}))
    members, pruned, words = _c_scan(patterns)
    assert members == [list(range(70)), [70]]
    assert (pruned, words) == (1, 2)


def test_c_scan_bus_heavy_dense_rows():
    """Every pattern claims three or four of four lines, driven by one of
    five cores: the bus conflict rows are dense in every word."""
    import random

    rng = random.Random(5)
    patterns = []
    for _ in range(700):
        driver = rng.randint(1, 5)
        lines = rng.sample(range(4), rng.randint(3, 4))
        patterns.append(SIPattern(
            cares={(driver, rng.randrange(3)): rng.choice(SYMBOLS)},
            bus_claims={line: driver for line in lines},
        ))
    _assert_c_matches_reference(patterns)
    _assert_c_matches_reference(PatternSet.from_patterns(patterns).select(
        range(len(patterns) - 1, -1, -1)
    ))


@pytest.fixture(scope="module")
def d695_patterns():
    return generate_random_patterns(load_benchmark("d695"), 1_500, seed=9)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_c_and_python_scans_agree_on_random_views(d695_patterns, data):
    """Random row subsets of a generated set, in either order."""
    from repro.compaction.kernel import _greedy_scan_python

    rows = sorted(data.draw(st.sets(
        st.integers(0, len(d695_patterns) - 1), max_size=300
    )))
    if data.draw(st.booleans()):
        rows.reverse()
    view = d695_patterns.select(rows)
    members, pruned, _words = _c_scan(view)
    assert (members, pruned) == _greedy_scan_python(view)[:2]


def test_entry_points_always_take_the_kernel(monkeypatch):
    """No size threshold: even a one-pattern input runs the kernel."""
    from repro.compaction import kernel

    calls = []

    def spy(name):
        original = getattr(kernel, name)

        def wrapper(patterns):
            calls.append(name)
            return original(patterns)

        return wrapper

    for name in ("greedy_compact_bitset", "color_compact_bitset"):
        monkeypatch.setattr(kernel, name, spy(name))
    single = [SIPattern(cares={(1, 0): "R"})]
    assert greedy_compact(single) == _greedy_reference(single)
    assert color_compact(single) == _color_reference(single)
    assert calls == ["greedy_compact_bitset", "color_compact_bitset"]
