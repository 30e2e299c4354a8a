"""The columnar pattern set reproduces the dict-based generator exactly.

The oracle below is a frozen copy of the generator as it was before it
wrote columns: one ``SIPattern`` per pattern, built from ``choice``,
``randrange``, ``randint`` and ``sample`` calls.  The columnar generator
must consume the same draws, so for every SOC, seed and configuration
its set equals the oracle's patterns pattern for pattern, dict
insertion order included, and encodes to the same columns.  The draw
equivalence suite runs twice: on the C generator (when it resolves) and
with it forced off, on the Python loop.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction.horizontal import build_si_test_groups
from repro.compaction.vertical import _greedy_reference, greedy_compact
from repro.native import _DISABLE_VALUES
from repro.sitest import _cgen
from repro.sitest.generator import (
    GeneratorConfig,
    _draw_columns,
    generate_random_patterns,
)
from repro.sitest.pattern_set import PatternSet
from repro.sitest.patterns import SIPattern, SYMBOLS, TRANSITIONS
from repro.soc.benchmarks import load_benchmark
from repro.soc.model import Soc
from repro.soc.synth import synthesize_soc
from tests.conftest import make_core

BENCHMARKS = ("d695", "p22810", "p34392", "p93791")


def _oracle_pattern(rng, hosts, config):
    victim_core = rng.choice(hosts)
    victim_index = rng.randrange(victim_core.woc_count)
    victim = (victim_core.core_id, victim_index)
    cares = {victim: rng.choice(SYMBOLS)}

    total_aggressors = rng.randint(config.min_aggressors, config.max_aggressors)
    external_limit = min(config.max_external_aggressors, total_aggressors)
    external_count = rng.randint(0, external_limit) if len(hosts) > 1 else 0
    internal_count = total_aggressors - external_count

    internal_candidates = [
        index for index in range(victim_core.woc_count) if index != victim_index
    ]
    for index in rng.sample(
        internal_candidates, min(internal_count, len(internal_candidates))
    ):
        cares[(victim_core.core_id, index)] = rng.choice(TRANSITIONS)

    other_hosts = [core for core in hosts if core.core_id != victim_core.core_id]
    for _ in range(external_count):
        host = rng.choice(other_hosts)
        terminal = (host.core_id, rng.randrange(host.woc_count))
        if terminal not in cares:
            cares[terminal] = rng.choice(TRANSITIONS)

    bus_claims = {}
    if config.bus_width and rng.random() < config.bus_probability:
        occupied = rng.randint(1, min(total_aggressors, config.bus_width))
        for line in rng.sample(range(config.bus_width), occupied):
            bus_claims[line] = victim_core.core_id

    return SIPattern(cares=cares, bus_claims=bus_claims, victim=victim)


def oracle(soc, count, seed=0, config=GeneratorConfig()):
    rng = random.Random(seed)
    hosts = [core for core in soc if core.woc_count > 0]
    return [_oracle_pattern(rng, hosts, config) for _ in range(count)]


def columns_hash(pattern_set: PatternSet) -> str:
    digest = hashlib.sha256(repr(pattern_set.cores).encode())
    for column in (
        pattern_set.bases, pattern_set.care_keys, pattern_set.care_off,
        pattern_set.bus_keys, pattern_set.bus_off, pattern_set.victims,
        pattern_set.masks,
    ):
        digest.update(bytes(column))
    return digest.hexdigest()


def _ordered(pattern: SIPattern):
    return (list(pattern.cares.items()), list(pattern.bus_claims.items()),
            pattern.victim)


def assert_matches_oracle(soc, count, seed, config=GeneratorConfig()):
    generated = generate_random_patterns(soc, count, seed=seed, config=config)
    expected = oracle(soc, count, seed=seed, config=config)
    assert isinstance(generated, PatternSet)
    assert len(generated) == count
    assert columns_hash(generated) == columns_hash(
        PatternSet.from_patterns(expected, soc)
    )
    materialized = list(generated)
    assert materialized == expected
    assert [_ordered(p) for p in materialized] == [
        _ordered(p) for p in expected
    ]
    return generated, expected


def _soc(*outputs) -> Soc:
    return Soc(
        name="edge",
        cores=tuple(
            make_core(i, outputs=woc) for i, woc in enumerate(outputs, 1)
        ),
    )


def _synthesized_sweep(test):
    return settings(max_examples=25, deadline=None)(given(
        cores=st.integers(min_value=1, max_value=12),
        soc_seed=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=0, max_value=150),
    )(test))


def _check_synthesized_soc(cores, soc_seed, seed, count):
    soc = synthesize_soc("synth", cores, seed=soc_seed)
    if any(core.woc_count for core in soc):
        assert_matches_oracle(soc, count, seed)


class TestDrawEquivalence:
    #: Whether the C generator may run; it still honours its toggle.
    cgen = True

    @pytest.fixture(autouse=True, scope="class")
    def _generator_engine(self, request):
        _cgen.ENGINE.reset()
        if not request.cls.cgen:
            _cgen.ENGINE.handle = False
        yield
        _cgen.ENGINE.reset()

    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_bundled_benchmarks(self, name, seed):
        assert_matches_oracle(load_benchmark(name), 1_500, seed)

    @_synthesized_sweep
    def test_synthesized_socs(self, cores, soc_seed, seed, count):
        _check_synthesized_soc(cores, soc_seed, seed, count)

    def test_zero_count(self, d695):
        generated, _ = assert_matches_oracle(d695, 0, 3)
        assert list(generated) == []

    def test_single_host_never_draws_external_count(self):
        assert_matches_oracle(_soc(9), 300, 4)

    def test_single_terminal_hosts(self):
        # every victim core has no spare terminal: the sample is empty
        assert_matches_oracle(_soc(1, 1, 1), 300, 5)

    def test_zero_bus_width(self, d695):
        generated, _ = assert_matches_oracle(
            d695, 300, 6, GeneratorConfig(bus_width=0)
        )
        assert len(generated.bus_keys) == 0

    @pytest.mark.parametrize("probability", (0.0, 1.0))
    def test_bus_probability_extremes(self, d695, probability):
        generated, _ = assert_matches_oracle(
            d695, 300, 8, GeneratorConfig(bus_probability=probability)
        )
        used = sum(1 for pattern in generated if pattern.bus_claims)
        assert used == (0 if probability == 0.0 else 300)

    def test_aggressors_beyond_spare_terminals(self):
        # max_aggressors >= woc_count: the internal sample is clamped
        config = GeneratorConfig(min_aggressors=4, max_aggressors=9)
        assert_matches_oracle(_soc(3, 5, 2), 400, 9, config)

    def test_duplicate_external_terminals(self):
        # two one-terminal neighbours and many external draws: repeats
        # are common and must not draw a symbol
        config = GeneratorConfig(min_aggressors=6, max_aggressors=6,
                                 max_external_aggressors=6)
        generated, _ = assert_matches_oracle(_soc(4, 1), 400, 10, config)
        externals = [
            sum(1 for core_id, _ in pattern.cares if core_id == 2)
            for pattern in generated
        ]
        assert max(externals) == 1


class TestDrawEquivalencePython(TestDrawEquivalence):
    """The same suite with the C generator forced off."""

    cgen = False

    # Hypothesis runs a test method on one class only.
    @_synthesized_sweep
    def test_synthesized_socs(self, cores, soc_seed, seed, count):
        _check_synthesized_soc(cores, soc_seed, seed, count)


# Skipped only where the engine is not wanted; a wanted engine that fails
# to resolve fails these tests instead of hiding behind the Python loop.
needs_cgen = pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc") or shutil.which("clang"))
    or os.environ.get(_cgen.ENGINE.env_var, "").strip().lower()
    in _DISABLE_VALUES,
    reason="no C compiler, or the C generator is disabled",
)


def _columns(pattern_set: PatternSet) -> list[list[int]]:
    return [
        list(column) for column in (
            pattern_set.bases, pattern_set.care_keys, pattern_set.care_off,
            pattern_set.bus_keys, pattern_set.bus_off, pattern_set.victims,
            pattern_set.masks,
        )
    ]


class TestCgen:
    """The C generator against CPython's generator, primitive by
    primitive and loop against loop."""

    @needs_cgen
    @pytest.mark.parametrize("seed", (0, 1, 12345))
    @pytest.mark.parametrize("burn", (0, 1, 623, 700))
    def test_word_stream_matches_getrandbits(self, seed, burn):
        rng = random.Random(seed)
        for _ in range(burn):
            rng.getrandbits(32)
        before = rng.getstate()
        words = _cgen.mt_words(rng, 3 * 624 + 5)
        assert rng.getstate() == before  # drawn from a copy
        assert words == [rng.getrandbits(32) for _ in range(3 * 624 + 5)]

    @needs_cgen
    @settings(max_examples=80, deadline=None)
    @given(
        wocs=st.lists(st.integers(1, 40), min_size=1, max_size=8),
        bounds=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        externals=st.integers(0, 6),
        bus_width=st.integers(0, 40),
        bus_probability=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 200),
    )
    def test_config_sweep_matches_python_loop(
        self, wocs, bounds, externals, bus_width, bus_probability, seed,
        count,
    ):
        # wocs up to 40 and bus widths up to 40 cross CPython's pool/set
        # threshold of sample() (21 for k <= 5, 85 above) both ways
        config = GeneratorConfig(
            min_aggressors=min(bounds), max_aggressors=max(bounds),
            max_external_aggressors=externals, bus_width=bus_width,
            bus_probability=bus_probability,
        )
        soc = _soc(*wocs)
        generated = generate_random_patterns(soc, count, seed, config)
        drawn = _cgen.draw(random.Random(seed), count, generated.bases,
                           config)
        assert drawn is not None
        python = _draw_columns(random.Random(seed), count, generated.bases,
                               config)
        assert [list(column) for column in drawn] == [
            list(column) for column in python
        ]
        assert [column.typecode for column in drawn] == [
            column.typecode for column in python
        ]
        assert _columns(generated)[1:] == [list(column) for column in python]

    def test_more_than_64_hosts_take_the_python_path(self):
        soc = _soc(*([3, 1, 5] * 23))
        bases = generate_random_patterns(soc, 1, 0).bases
        assert _cgen.draw(random.Random(2), 10, bases, GeneratorConfig()) \
            is None
        generated = generate_random_patterns(soc, 300, seed=2)
        assert isinstance(generated.masks, list)
        assert _columns(generated) == _columns(
            PatternSet.from_patterns(oracle(soc, 300, seed=2), soc)
        )

    def test_over_cap_config_takes_the_python_path(self):
        config = GeneratorConfig(
            min_aggressors=_cgen.MAX_AGGRESSORS - 2,
            max_aggressors=_cgen.MAX_AGGRESSORS + 1,
            max_external_aggressors=3, bus_width=80,
        )
        soc = _soc(90, 4, 70)
        bases = generate_random_patterns(soc, 1, 0).bases
        assert _cgen.draw(random.Random(3), 10, bases, config) is None
        assert_matches_oracle(soc, 200, 3, config)


class TestSequence:
    def test_indexing_slicing_and_views(self, d695):
        generated = generate_random_patterns(d695, 200, seed=2)
        expected = oracle(d695, 200, seed=2)
        assert generated[-1] == expected[-1]
        assert generated[10:20] == expected[10:20]
        with pytest.raises(IndexError):
            generated[200]
        view = generated.select([5, 3, 150])
        assert list(view) == [expected[5], expected[3], expected[150]]
        nested = view.select([2, 0])
        assert list(nested) == [expected[150], expected[5]]
        assert list(nested.row_ids()) == [150, 5]

    def test_round_trip_of_arbitrary_patterns(self):
        patterns = [
            SIPattern(cares={(7, 3): "R", (2, 0): "0"}, bus_claims={4: 9}),
            SIPattern(cares={}, bus_claims={}, victim=(5, 1)),
            SIPattern(cares={(2, 1): "F"}, bus_claims={0: 2, 1: 7}),
        ]
        encoded = PatternSet.from_patterns(patterns)
        assert encoded.cores == (2, 5, 7, 9)
        assert [_ordered(p) for p in encoded] == [_ordered(p) for p in patterns]
        assert PatternSet.from_patterns(encoded) is encoded

    def test_pickle_round_trip(self, d695):
        import pickle

        generated = generate_random_patterns(d695, 100, seed=4)
        list(generated)  # warm the terminal table; it must not pickle
        restored = pickle.loads(pickle.dumps(generated))
        assert restored._terminals is None
        assert PatternSet.is_current(restored)
        assert restored == generated


class TestViewCompaction:
    """Grouping routes patterns into index views; compacting a view must
    equal the dict-walk reference on the materialized bucket."""

    @pytest.mark.parametrize("cscan", ("1", "0"))
    def test_views_match_reference(self, d695, cscan, monkeypatch,
                                   reprobe_engines):
        monkeypatch.setenv("REPRO_COMPACTION_CSCAN", cscan)
        for engine in reprobe_engines:
            engine.reset()
        patterns = generate_random_patterns(d695, 2_500, seed=12)
        grouping = build_si_test_groups(d695, patterns, parts=4, seed=12)
        assert grouping.compactions
        for compaction in grouping.compactions:
            bucket = compaction.source
            assert isinstance(bucket, PatternSet)
            reference = _greedy_reference(list(bucket))
            assert greedy_compact(bucket) == reference
            assert compaction == greedy_compact(list(bucket))
