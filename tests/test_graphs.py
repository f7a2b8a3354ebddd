import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ba_draws_loop, battery_schedules, enumerate_paths
from polyagraph.graphs import (
    ba_draws,
    ba_generate,
    generate,
    graph_from_draws,
    reconstruct_graph,
)
from polyagraph.schedules import Constant, parse_schedule
from polyagraph.seeding import as_generator
from polyagraph.urn import DrawHistory

_SCHEDULES = st.sampled_from([sched for _, sched in battery_schedules()])


def _is_tree_rooted_at_one(graph):
    """The graph minus the self-loop must be a tree spanning all vertices."""
    n = graph.num_vertices
    attach = [edge for edge in graph.edges if edge != (1, 1)]
    if len(attach) != n - 1:
        return False
    adjacency = {v: [] for v in range(1, n + 1)}
    for u, v in attach:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


class TestReconstruct:
    def test_golden_edge_set(self):
        history = DrawHistory(schedule=Constant(1.0), draws=np.array([1, 1, 2, 2]))
        graph = reconstruct_graph(history)
        assert graph.edges == [(1, 1), (1, 2), (1, 3), (2, 4), (2, 5)]
        assert set(graph.edges) == {(1, 1), (1, 2), (1, 3), (2, 4), (2, 5)}

    def test_golden_degrees(self):
        graph = graph_from_draws(np.array([1, 1, 2, 2]))
        assert graph.degrees[1:].tolist() == [3, 3, 1, 1, 1]
        assert graph.degrees[1:].sum() == 2 * 4 + 1

    def test_empty_history(self):
        graph = graph_from_draws(np.array([], dtype=np.int64))
        assert graph.num_vertices == 1
        assert graph.edges == [(1, 1)]
        assert graph.degrees[1] == 1

    def test_edges_encode_the_draws(self):
        # Reconstruction is injective: the draw of step n is recoverable as
        # the parent of vertex n + 1.
        draws = np.array([1, 2, 1, 3, 2])
        graph = graph_from_draws(draws)
        recovered = [u for u, v in graph.edges[1:]]
        assert recovered == draws.tolist()

    def test_exports(self):
        graph = graph_from_draws(np.array([1, 1]))
        assert graph.edge_list_text() == "1 1\n1 2\n1 3\n"
        assert list(graph.degree_rows()) == [(1, 3, 0), (2, 1, 1), (3, 1, 2)]


class TestGenerate:
    def test_horizon_zero(self):
        _, graph = generate(0, Constant(1.0), seed=1)
        assert graph.num_vertices == 1
        assert graph.edges == [(1, 1)]

    def test_first_edge_is_deterministic(self):
        for seed in range(5):
            _, graph = generate(1, Constant(1.0), seed=seed)
            assert graph.edges == [(1, 1), (1, 2)]

    def test_same_seed_same_edges(self):
        sched = parse_schedule("paper-f")
        _, a = generate(300, sched, seed=42)
        _, b = generate(300, sched, seed=42)
        assert a.edges == b.edges

    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(0, 80), sched=_SCHEDULES)
    @settings(max_examples=40, deadline=None)
    def test_structural_invariants(self, seed, t, sched):
        history, graph = generate(t, sched, seed=seed)
        assert graph.num_vertices == t + 1
        assert len(graph.edges) == t + 1
        assert graph.edges[0] == (1, 1)
        assert int(graph.degrees[1:].sum()) == 2 * t + 1
        assert graph.degrees[t + 1] == 1
        assert _is_tree_rooted_at_one(graph)
        counts = history.draw_counts()
        for j in range(1, t + 2):
            assert graph.degrees[j] == 1 + counts[j]
            assert graph.degrees[j] <= t - j + 2  # color j is drawable only from time j


class TestBaseline:
    def test_first_edge(self):
        graph = ba_generate(1, seed=3)
        assert graph.edges == [(1, 1), (1, 2)]

    def test_structure(self):
        graph = ba_generate(200, seed=8)
        assert graph.num_vertices == 201
        assert int(graph.degrees[1:].sum()) == 401
        assert _is_tree_rooted_at_one(graph)

    def test_deterministic(self):
        assert ba_generate(100, seed=5).edges == ba_generate(100, seed=5).edges

    def test_path_law_matches_unit_reinforcement_urn(self):
        # Exhaustively: each draw sequence has the same probability under
        # degree-proportional attachment as under the unit-reinforcement urn.
        t = 5
        for path, urn_prob in enumerate_paths(t, Constant(1.0)):
            ba_prob = 1.0
            degrees = [0] + [1] * (t + 1)
            degrees[1] = 1
            for n, target in enumerate(path, start=1):
                ba_prob *= degrees[target] / (2 * (n - 1) + 1)
                degrees[target] += 1
            assert ba_prob == pytest.approx(urn_prob, abs=1e-14)

    def test_attachment_frequencies(self):
        # Empirically, early steps pick vertex 1 with its degree share.
        rng = as_generator(77)
        hits = sum(ba_draws(2, rng)[1] == 1 for _ in range(4000))
        assert hits / 4000 == pytest.approx(2 / 3, abs=0.03)

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 12, 500, 5000])
    def test_matches_endpoint_list_loop(self, t):
        for seed in range(20):
            draws = ba_draws(t, as_generator(seed))
            assert draws.dtype == np.int64
            assert np.array_equal(draws, ba_draws_loop(t, as_generator(seed))), seed


class TestCoupling:
    def test_composition_equals_degree_share_along_a_run(self):
        # At unit reinforcement the urn mass of every color equals the degree
        # of its vertex, so the composition is the degree-proportional law.
        t = 400
        history, graph = generate(t, Constant(1.0), seed=21)
        weights = np.zeros(t + 2)
        degrees = np.zeros(t + 2)
        weights[1] = 1.0
        degrees[1] = 1.0
        worst = 0.0
        for n in range(1, t + 1):
            drawn = history.draws[n - 1]
            weights[drawn] += 1.0
            weights[n + 1] = 1.0
            degrees[drawn] += 1.0
            degrees[n + 1] = 1.0
            total = 2 * n + 1
            gap = np.max(np.abs(weights[1 : n + 2] / total - degrees[1 : n + 2] / total))
            worst = max(worst, gap)
        assert worst <= 1e-12
        assert np.array_equal(degrees[1:], graph.degrees[1:])
