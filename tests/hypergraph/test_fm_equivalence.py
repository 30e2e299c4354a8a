"""Delta-gain FM refinement is bit-identical to full gain recomputation.

The reference below is a frozen copy of the FM pass as it was before it
applied pin-count deltas: after every move it recomputed the gain of each
unlocked pin of each edge incident to the moved vertex, and pushed the
pins whose gain changed, in sorted order.  The delta pass must leave the
same entries on the heap, so refinement and the whole multilevel
partition give the same assignment on every graph.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compaction import horizontal
from repro.compaction.horizontal import build_si_test_groups
from repro.hypergraph import fm
from repro.hypergraph.fm import BalanceEnvelope, fm_refine
from repro.hypergraph.hypergraph import build_hypergraph
from repro.hypergraph.multilevel import partition
from repro.sitest.generator import generate_random_patterns
from repro.soc.benchmarks import load_benchmark


def _reference_gain(graph, incident, in0, in1, vertex, part):
    gain = 0
    for edge_index in incident[vertex]:
        weight = graph.edge_weights[edge_index]
        same = in0[edge_index] if part == 0 else in1[edge_index]
        other = in1[edge_index] if part == 0 else in0[edge_index]
        if same == 1:
            gain += weight
        if other == 0:
            gain -= weight
    return gain


def _reference_pass(graph, assignment, envelope, incident):
    in0, in1 = fm._pin_counts(graph, assignment)
    weight0 = sum(
        graph.vertex_weights[v] for v in range(graph.vertex_count)
        if assignment[v] == 0
    )
    locked = [False] * graph.vertex_count
    heap = []
    current_gain = [0] * graph.vertex_count
    for vertex in range(graph.vertex_count):
        gain = _reference_gain(graph, incident, in0, in1, vertex,
                               assignment[vertex])
        current_gain[vertex] = gain
        heapq.heappush(heap, (-gain, vertex))

    moves = []
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0
    while heap:
        neg_gain, vertex = heapq.heappop(heap)
        if locked[vertex] or -neg_gain != current_gain[vertex]:
            continue
        part = assignment[vertex]
        vertex_weight = graph.vertex_weights[vertex]
        new_weight0 = (weight0 - vertex_weight if part == 0
                       else weight0 + vertex_weight)
        if not envelope.admits(new_weight0):
            locked[vertex] = True
            continue
        locked[vertex] = True
        assignment[vertex] = 1 - part
        weight0 = new_weight0
        cumulative += current_gain[vertex]
        moves.append(vertex)
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(moves)

        touched = set()
        for edge_index in incident[vertex]:
            if part == 0:
                in0[edge_index] -= 1
                in1[edge_index] += 1
            else:
                in1[edge_index] -= 1
                in0[edge_index] += 1
            for pin in graph.edges[edge_index]:
                if not locked[pin]:
                    touched.add(pin)
        for pin in sorted(touched):
            gain = _reference_gain(graph, incident, in0, in1, pin,
                                   assignment[pin])
            if gain != current_gain[pin]:
                current_gain[pin] = gain
                heapq.heappush(heap, (-gain, pin))

    for vertex in moves[best_prefix:]:
        assignment[vertex] = 1 - assignment[vertex]
    return best_cumulative > 0


@st.composite
def hypergraphs(draw, max_vertices=48):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    pin_sets = draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=2,
                      max_size=min(n, 8)),
        max_size=4 * n,
    ))
    edge_weights = draw(st.lists(st.integers(1, 12), min_size=len(pin_sets),
                                 max_size=len(pin_sets)))
    return build_hypergraph(weights, dict(zip(pin_sets, edge_weights)))


def _envelope(graph, fraction, epsilon):
    total = graph.total_vertex_weight
    return BalanceEnvelope(int(round(total * fraction)), total, epsilon,
                           max(graph.vertex_weights))


def _reference_partition(graph, parts, seed, epsilon=0.10):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fm, "_fm_pass", _reference_pass)
        return partition(graph, parts, epsilon=epsilon, seed=seed)


class TestDeltaGainFm:
    @settings(max_examples=120, deadline=None)
    @given(
        graph=hypergraphs(),
        data=st.data(),
        fraction=st.floats(0.2, 0.8),
        epsilon=st.floats(0.0, 0.3),
        passes=st.integers(1, 10),
    )
    def test_refine_matches_full_recompute(self, graph, data, fraction,
                                           epsilon, passes):
        start = data.draw(st.lists(st.integers(0, 1),
                                   min_size=graph.vertex_count,
                                   max_size=graph.vertex_count))
        envelope = _envelope(graph, fraction, epsilon)
        expected = list(start)
        incident = graph.incidence()
        for _ in range(passes):
            if not _reference_pass(graph, expected, envelope, incident):
                break
        assert fm_refine(graph, list(start), envelope, passes) == expected

    @settings(max_examples=40, deadline=None)
    @given(graph=hypergraphs(max_vertices=80), parts=st.integers(1, 4),
           seed=st.integers(0, 1_000))
    def test_partition_matches_full_recompute(self, graph, parts, seed):
        parts = min(parts, graph.vertex_count)
        expected = _reference_partition(graph, parts, seed)
        assert partition(graph, parts, seed=seed) == expected

    @pytest.mark.parametrize("name", ("d695", "p22810", "p34392", "p93791"))
    def test_benchmark_graphs(self, name, monkeypatch):
        soc = load_benchmark(name)
        graphs = []
        real = horizontal.partition

        def spy(graph, parts, epsilon, seed):
            graphs.append((graph, parts, epsilon, seed))
            return real(graph, parts, epsilon=epsilon, seed=seed)

        monkeypatch.setattr(horizontal, "partition", spy)
        patterns = generate_random_patterns(soc, 3_000, seed=5)
        for parts in (2, 3, 4):
            build_si_test_groups(soc, patterns, parts=parts, seed=5)
        assert len(graphs) == 3
        for graph, parts, epsilon, seed in graphs:
            assert real(graph, parts, epsilon=epsilon, seed=seed) == (
                _reference_partition(graph, parts, seed, epsilon)
            )
