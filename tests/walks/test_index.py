"""Unit tests for the Algorithm 6 walk index."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, IndexNotBuiltError
from repro.graph import SocialGraph
from repro.walks import WalkIndex, hoeffding_sample_size


class TestHoeffding:
    def test_known_value(self):
        # ln(2/0.05) / (2 * 0.1^2) = ln(40)/0.02 ~ 184.44 -> 185
        assert hoeffding_sample_size(0.1, 0.05) == 185

    def test_tighter_epsilon_needs_more_samples(self):
        assert hoeffding_sample_size(0.05, 0.05) > hoeffding_sample_size(0.1, 0.05)

    @pytest.mark.parametrize("epsilon,delta", [(0, 0.1), (1, 0.1), (0.1, 0), (0.1, 1)])
    def test_rejects_degenerate_parameters(self, epsilon, delta):
        with pytest.raises(ConfigurationError):
            hoeffding_sample_size(epsilon, delta)


class TestBuildLifecycle:
    def test_unbuilt_queries_raise(self, chain_graph):
        index = WalkIndex(chain_graph, 3, 2, seed=1)
        assert not index.is_built
        with pytest.raises(IndexNotBuiltError):
            index.walks_from(0)
        with pytest.raises(IndexNotBuiltError):
            index.hitting_frequency(1, 0)
        with pytest.raises(IndexNotBuiltError):
            index.reverse_reachable(0)

    def test_built_classmethod(self, chain_graph):
        index = WalkIndex.built(chain_graph, 3, 2, seed=1)
        assert index.is_built

    def test_build_idempotent(self, chain_graph):
        index = WalkIndex.built(chain_graph, 3, 2, seed=1)
        first = index.walks_from(0)
        index.build()
        assert index.walks_from(0) is first

    @pytest.mark.parametrize("n_nodes", [0, 3])
    def test_graph_without_edges(self, n_nodes):
        index = WalkIndex.built(SocialGraph(n_nodes, []), 3, 2, seed=1)
        assert index.padded_paths().shape == (n_nodes * 2, 1)
        for node in range(n_nodes):
            assert [r.steps_taken for r in index.walks_from(node)] == [0, 0]
            assert index.reverse_reachable(node).size == 0

    def test_parameters_validated(self, chain_graph):
        with pytest.raises(ConfigurationError):
            WalkIndex(chain_graph, 0, 2)
        with pytest.raises(ConfigurationError):
            WalkIndex(chain_graph, 3, 0)


class TestWalkStorage:
    def test_r_walks_per_node(self, chain_graph):
        index = WalkIndex.built(chain_graph, 3, 4, seed=1)
        for node in chain_graph.nodes:
            assert len(index.walks_from(node)) == 4

    def test_walks_start_at_node(self, chain_graph):
        index = WalkIndex.built(chain_graph, 3, 4, seed=1)
        for node in chain_graph.nodes:
            for record in index.walks_from(node):
                assert record.path[0] == node

    def test_walk_lengths_bounded(self, triangle_graph):
        index = WalkIndex.built(triangle_graph, 4, 3, seed=2)
        for node in triangle_graph.nodes:
            for record in index.walks_from(node):
                assert record.steps_taken <= 4


class TestHittingFrequency:
    def test_rows_zero_beyond_reach(self, chain_graph):
        index = WalkIndex.built(chain_graph, 3, 5, seed=3)
        table = index.hitting_frequencies()
        assert table.shape == (4, 5)
        assert np.all(table[0] == 0.0)

    def test_values_are_multiples_of_inverse_r(self, chain_graph):
        samples = 5
        index = WalkIndex.built(chain_graph, 3, samples, seed=3)
        table = index.hitting_frequencies()
        scaled = table * samples
        assert np.allclose(scaled, np.round(scaled))

    def test_chain_deterministic_hits(self, chain_graph):
        # On a chain, the walk from node i deterministically reaches i+j at
        # step j, so H[j][i+j] is exactly 1/R.
        samples = 4
        index = WalkIndex.built(chain_graph, 3, samples, seed=3)
        assert index.hitting_frequency(1, 1) == pytest.approx(1 / samples)
        assert index.hitting_frequency(2, 2) == pytest.approx(1 / samples)
        assert index.hitting_frequency(3, 3) == pytest.approx(1 / samples)

    def test_step_bounds_checked(self, chain_graph):
        index = WalkIndex.built(chain_graph, 3, 2, seed=3)
        with pytest.raises(ConfigurationError):
            index.hitting_frequency(0, 1)
        with pytest.raises(ConfigurationError):
            index.hitting_frequency(4, 1)

    def test_revisit_increases_frequency(self, triangle_graph):
        # A 3-cycle walk of length 4 revisits its start: visited[start]
        # reaches 2/R, which H must record at the revisit step.
        samples = 2
        index = WalkIndex.built(triangle_graph, 4, samples, seed=1)
        table = index.hitting_frequencies()
        assert table.max() == pytest.approx(2 / samples)


class TestReverseReachable:
    def test_chain_reverse_reachability(self, chain_graph):
        index = WalkIndex.built(chain_graph, 4, 3, seed=1)
        # Walks are deterministic on a chain: every earlier node reaches 4.
        assert index.reverse_reachable(4).tolist() == [0, 1, 2, 3]

    def test_excludes_unreachable(self, chain_graph):
        index = WalkIndex.built(chain_graph, 4, 3, seed=1)
        assert index.reverse_reachable(0).size == 0

    def test_respects_walk_length(self, chain_graph):
        index = WalkIndex.built(chain_graph, 2, 3, seed=1)
        # L=2: only nodes within 2 hops can appear.
        assert index.reverse_reachable(4).tolist() == [2, 3]

    def test_set_view_matches_array(self, chain_graph):
        index = WalkIndex.built(chain_graph, 4, 3, seed=1)
        assert index.reverse_reachable_set(4) == set(
            index.reverse_reachable(4).tolist()
        )

    def test_subset_of_exact_reachability(self):
        # Sampled I_L must always be a subset of the exact L-hop set.
        rng = np.random.default_rng(4)
        edges = set()
        while len(edges) < 80:
            u, v = rng.integers(0, 25, size=2)
            if u != v:
                edges.add((int(u), int(v)))
        graph = SocialGraph(25, [(u, v, 0.4) for u, v in edges])
        length = 3
        index = WalkIndex.built(graph, length, 4, seed=9)
        from repro.graph import reverse_reachable

        for node in graph.nodes:
            sampled = set(index.reverse_reachable(node).tolist())
            exact = set(reverse_reachable(graph, node, length).tolist())
            assert sampled <= exact


class TestMemory:
    def test_memory_accounts_something(self, chain_graph):
        index = WalkIndex.built(chain_graph, 3, 2, seed=1)
        assert index.memory_bytes() > 0
