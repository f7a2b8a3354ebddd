import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Replay, ba_draws_loop, battery_schedules, enumerate_paths
from polyagraph.errors import InvalidColor
from polyagraph.graphs import (
    EvolvingGraph,
    ba_block_draws,
    ba_draws,
    degree_rows,
    generate,
    graph_from_draws,
)
from polyagraph.rowtext import CHUNK_ROWS
from polyagraph.schedules import Constant, NaturalLog, parse_schedule
from polyagraph.seeding import PASS, as_generator
from polyagraph.urn import GuideTable, copy_pointer_draws, sample_history

_SCHEDULES = st.sampled_from([sched for _, sched in battery_schedules()])


def _ba_graph(t, seed):
    """The BA graph of horizon t from the stream of ``seed``."""
    return graph_from_draws(ba_draws(t, as_generator(seed)))


def _edge_tuples(graph):
    """The (t + 1, 2) edge array as a list of (u, v) tuples."""
    return list(map(tuple, graph.edges.tolist()))


def _is_tree_rooted_at_one(graph):
    """The graph minus the self-loop must be a tree spanning all vertices."""
    n = graph.num_vertices
    attach = [edge for edge in _edge_tuples(graph) if edge != (1, 1)]
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
        graph = graph_from_draws(np.array([1, 1, 2, 2]))
        assert _edge_tuples(graph) == [(1, 1), (1, 2), (1, 3), (2, 4), (2, 5)]
        assert set(_edge_tuples(graph)) == {(1, 1), (1, 2), (1, 3), (2, 4), (2, 5)}

    def test_golden_degrees(self):
        graph = graph_from_draws(np.array([1, 1, 2, 2]))
        assert graph.degrees[1:].tolist() == [3, 3, 1, 1, 1]
        assert graph.degrees[1:].sum() == 2 * 4 + 1

    def test_empty_history(self):
        graph = graph_from_draws(np.array([], dtype=np.int64))
        assert graph.num_vertices == 1
        assert _edge_tuples(graph) == [(1, 1)]
        assert graph.degrees[1] == 1

    def test_edges_encode_the_draws(self):
        # Reconstruction is injective: the draw of step n is recoverable as
        # the parent of vertex n + 1.
        draws = np.array([1, 2, 1, 3, 2])
        graph = graph_from_draws(draws)
        recovered = [u for u, v in _edge_tuples(graph)[1:]]
        assert recovered == draws.tolist()

    @pytest.mark.parametrize("draws", [[0, 1], [5], [1, 3]])
    def test_rejects_a_color_not_yet_born(self, draws):
        with pytest.raises(InvalidColor):
            graph_from_draws(np.array(draws))

    def test_exports(self):
        graph = graph_from_draws(np.array([1, 1]))
        assert graph.edge_list_text() == "1 1\n1 2\n1 3\n"
        assert "".join(graph.degree_table_chunks()) == (
            "vertex,degree,birth_time\n1,3,0\n2,1,1\n3,1,2\n")


def _graphs(t):
    """A graph of horizon t for each battery schedule, and a BA graph."""
    graphs = [generate(t, sched, seed=t) for _, sched in battery_schedules()]
    graphs.append(_ba_graph(t, seed=t))
    return graphs


class TestDerivedFields:
    def test_draws_are_the_one_field(self):
        assert list(EvolvingGraph._fields) == ["draws"]

    @pytest.mark.parametrize("t", [0, 1, 12, 500])
    def test_degrees_and_vertex_count_come_from_the_edges(self, t):
        for graph in _graphs(t):
            assert graph.num_vertices == len(graph.edges) == t + 1 == len(graph.draws) + 1
            assert np.array_equal(graph.degrees, degree_rows(graph.draws[None, :])[0])
            assert graph.degrees is graph.degrees  # computed once, then kept

    @pytest.mark.parametrize("t", [0, 1, 12, 500])
    def test_edges_keep_the_self_loop_and_birth_order_layout(self, t):
        for graph in _graphs(t):
            expected = np.array([[1, 1]] + [[d, n + 1] for n, d in
                                            enumerate(graph.draws.tolist(), start=1)])
            assert graph.edges.dtype == np.int64
            assert np.array_equal(graph.edges, expected)

    @pytest.mark.parametrize("draws", [[2], [1, 1.5]])
    def test_a_non_history_cannot_be_built(self, draws):
        with pytest.raises(InvalidColor):
            EvolvingGraph(draws=np.array(draws))

    def test_the_graph_keeps_its_own_read_only_draws(self):
        draws = np.array([1, 1, 2, 2])
        graph = graph_from_draws(draws)
        draws[:] = 1  # before the degrees are first read
        assert graph.draws.tolist() == [1, 1, 2, 2]
        assert graph.degrees[1:].tolist() == [3, 3, 1, 1, 1]
        assert not graph.draws.flags.writeable
        with pytest.raises(ValueError):
            graph.draws[0] = 2

    def test_an_unpickled_graph_is_checked_and_read_only(self):
        graph = graph_from_draws(np.array([1, 1, 2]))
        copy = pickle.loads(pickle.dumps(graph))
        assert copy.draws.tolist() == [1, 1, 2] and not copy.draws.flags.writeable
        assert np.array_equal(copy.degrees, graph.degrees)


class TestTexts:
    @pytest.mark.parametrize("t", [CHUNK_ROWS - 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_streamed_texts_equal_one_shot_texts(self, t):
        # Both texts have t + 1 rows, and the edge list's t draw rows follow
        # the self-loop, so these horizons put each text's last chunk boundary
        # a row before, on, and a row after its end.
        graph = generate(t, NaturalLog(), seed=t)
        vertices = np.arange(1, t + 2)
        table = np.column_stack((vertices, graph.degrees[1:], vertices - 1))
        assert graph.edge_list_text() == (
            ("%d %d\n" * (t + 1)) % tuple(graph.edges.ravel().tolist()))
        assert "".join(graph.degree_table_chunks()) == "vertex,degree,birth_time\n" + (
            ("%d,%d,%d\n" * (t + 1)) % tuple(table.ravel().tolist()))
        for chunks in (graph.edge_list_chunks(), graph.degree_table_chunks()):
            assert max(chunk.count("\n") for chunk in chunks) <= CHUNK_ROWS


class TestDegreeRows:
    @pytest.mark.parametrize("model", ["polya", "ba"])
    @pytest.mark.parametrize("t", [0, 1, 12, 4097])
    def test_rows_equal_one_graph_each(self, model, t):
        if model == "ba":
            block = ba_block_draws(5, t, as_generator(t))
        else:
            table = GuideTable(parse_schedule("paper-g").cumulative(t))
            block = copy_pointer_draws(5, table, as_generator(t))
        deg = degree_rows(block)
        assert deg.shape == (5, t + 2)
        for row, draws in zip(deg, block):
            assert np.array_equal(row, graph_from_draws(draws).degrees)
        # The engine's birth-time counts rest on this: vertex t + 1 is never
        # drawn by time t, so it has degree 1 in every row.
        assert (deg[:, t + 1] == 1).all()


class TestGenerate:
    def test_horizon_zero(self):
        graph = generate(0, Constant(1.0), seed=1)
        assert graph.num_vertices == 1
        assert _edge_tuples(graph) == [(1, 1)]

    def test_negative_horizon_is_named(self):
        # The one-row samplers check t with ExperimentConfig's wording.
        with pytest.raises(ValueError, match=r"^horizon must be >= 0, got -1$"):
            generate(-1, Constant(1.0), seed=0)
        with pytest.raises(ValueError, match=r"^horizon must be >= 0, got -3$"):
            sample_history(-3, Constant(1.0), as_generator(0))
        with pytest.raises(ValueError, match=r"^horizon must be >= 0, got -4$"):
            ba_draws(-4, as_generator(0))

    def test_first_edge_is_deterministic(self):
        for seed in range(5):
            graph = generate(1, Constant(1.0), seed=seed)
            assert _edge_tuples(graph) == [(1, 1), (1, 2)]

    def test_same_seed_same_edges(self):
        sched = parse_schedule("paper-f")
        a = generate(300, sched, seed=42)
        b = generate(300, sched, seed=42)
        assert _edge_tuples(a) == _edge_tuples(b)

    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(0, 80), sched=_SCHEDULES)
    @settings(max_examples=40, deadline=None)
    def test_structural_invariants(self, seed, t, sched):
        graph = generate(t, sched, seed=seed)
        draws = sample_history(t, sched, as_generator(seed))
        assert np.array_equal(graph.draws, draws)
        assert graph.num_vertices == t + 1
        assert graph.edges.dtype == np.int64 and graph.edges.shape == (t + 1, 2)
        assert _edge_tuples(graph)[0] == (1, 1)
        assert int(graph.degrees[1:].sum()) == 2 * t + 1
        assert graph.degrees[t + 1] == 1
        assert _is_tree_rooted_at_one(graph)
        counts = np.bincount(draws, minlength=t + 2)
        for j in range(1, t + 2):
            assert graph.degrees[j] == 1 + counts[j]
            assert graph.degrees[j] <= t - j + 2  # color j is drawable only from time j


class TestBaseline:
    def test_first_edge(self):
        graph = _ba_graph(1, seed=3)
        assert _edge_tuples(graph) == [(1, 1), (1, 2)]

    def test_structure(self):
        graph = _ba_graph(200, seed=8)
        assert graph.num_vertices == 201
        assert int(graph.degrees[1:].sum()) == 401
        assert _is_tree_rooted_at_one(graph)

    def test_deterministic(self):
        assert _edge_tuples(_ba_graph(100, seed=5)) == _edge_tuples(_ba_graph(100, seed=5))

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

    @pytest.mark.parametrize("t", [0, 1, 12, PASS - 1, PASS, PASS + 1, 2 * PASS + 1])
    def test_block_rows_match_endpoint_list_loop(self, t):
        # Row r of the block reads uniforms r·t .. r·t+t-1, as the loop does
        # when it is called once per row on one generator.
        block = ba_block_draws(5, t, as_generator(9))
        rng = as_generator(9)
        for row in block:
            assert np.array_equal(row, ba_draws_loop(t, rng))

    @pytest.mark.parametrize("t", [PASS, PASS + 1, 2 * PASS + 1])
    def test_deepest_copy_chain_matches_endpoint_list_loop(self, t):
        # Step n >= 2 lands on odd slot 2n - 3 and so copies the target of step
        # n - 1: one chain through every step and every chunk, the most rounds
        # of pointer jumping and a pointer into the previous chunk at each chunk.
        n = np.arange(1, t + 1)
        uniforms = np.maximum(2 * n - 2.5, 0.0) / (2 * n - 1)
        assert np.array_equal((uniforms * (2 * n - 1)).astype(int)[1:], 2 * n[1:] - 3)
        expected = ba_draws_loop(t, Replay(uniforms))
        assert np.array_equal(expected, np.ones(t, dtype=np.int64))
        assert np.array_equal(ba_draws(t, Replay(uniforms)), expected)
        assert np.array_equal(ba_block_draws(2, t, Replay(np.tile(uniforms, 2))),
                              np.stack([expected, expected]))


class TestCoupling:
    def test_composition_equals_degree_share_along_a_run(self):
        # At unit reinforcement the urn mass of every color equals the degree
        # of its vertex, so the composition is the degree-proportional law.
        t = 400
        graph = generate(t, Constant(1.0), seed=21)
        weights = np.zeros(t + 2)
        degrees = np.zeros(t + 2)
        weights[1] = 1.0
        degrees[1] = 1.0
        worst = 0.0
        for n in range(1, t + 1):
            drawn = graph.draws[n - 1]  # the color drawn at time n
            weights[drawn] += 1.0
            weights[n + 1] = 1.0
            degrees[drawn] += 1.0
            degrees[n + 1] = 1.0
            total = 2 * n + 1
            gap = np.max(np.abs(weights[1 : n + 2] / total - degrees[1 : n + 2] / total))
            worst = max(worst, gap)
        assert worst <= 1e-12
        assert np.array_equal(degrees[1:], graph.degrees[1:])
