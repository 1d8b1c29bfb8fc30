"""The vectorized Algorithm 6 build against the frozen scalar oracle.

On graphs where no walk reaches a dead end before ``L`` steps, the block
build must reproduce the scalar per-transition loop bit for bit: paths,
visit counts, steps, H, I_L and the generator state it leaves behind (the
RCL path draws from the same generator next). On graphs with dead ends
it must equal the oracle run under the slot contract, where every walk
reserves ``L`` draws.
"""

import numpy as np
import pytest

from repro.datasets import data_2k
from repro.graph import SocialGraph
from repro.walks import WalkEngine, WalkIndex

from ..oracles.scalar_walks import scalar_walk_index

# With R = 5, 3/R differs from 1/R + 1/R + 1/R in the last bit, so H's
# third-visit frequencies check the repeated-addition table.
SAMPLES = 5


@pytest.fixture(scope="module")
def data_2k_slice() -> SocialGraph:
    graph = data_2k(seed=2011, n_nodes=200, with_corpus=False).graph
    assert np.diff(graph._out_indptr).min() > 0  # dead-end free
    return graph


@pytest.fixture(scope="module")
def dead_end_graph() -> SocialGraph:
    rng = np.random.default_rng(4)
    edges = set()
    while len(edges) < 60:
        u, v = (int(x) for x in rng.integers(0, 25, size=2))
        if u != v:
            edges.add((u, v))
    graph = SocialGraph(25, [(u, v, 0.4) for u, v in sorted(edges)])
    assert (np.diff(graph._out_indptr) == 0).any()
    return graph


def _assert_matches_oracle(graph, length, seed, *, slot_contract):
    built_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    index = WalkIndex.built(graph, length, SAMPLES, seed=built_rng)
    oracle = scalar_walk_index(
        graph, length, SAMPLES, oracle_rng, slot_contract=slot_contract
    )
    padded = index.padded_paths()
    width = max(len(path) for path in oracle.paths)
    assert padded.shape == (graph.n_nodes * SAMPLES, width)
    for walk, (path, counts, steps) in enumerate(
        zip(oracle.paths, oracle.counts, oracle.steps)
    ):
        assert padded[walk].tolist() == path + [-1] * (width - len(path))
        record = index.walks_from(walk // SAMPLES)[walk % SAMPLES]
        assert record.path.tolist() == path
        assert record.visit_counts.tolist() == counts
        assert record.steps_taken == steps
    assert np.array_equal(index.hitting_frequencies(), oracle.hit)
    for node in range(graph.n_nodes):
        assert index.reverse_reachable(node).tolist() == sorted(
            oracle.reverse[node]
        )
    assert built_rng.bit_generator.state == oracle_rng.bit_generator.state


class TestDeadEndFreeParity:
    @pytest.mark.parametrize("length", [3, 6])
    def test_triangle(self, triangle_graph, length):
        _assert_matches_oracle(triangle_graph, length, 11, slot_contract=False)

    @pytest.mark.parametrize("length", [3, 5])
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_data_2k_slice(self, data_2k_slice, length, seed):
        _assert_matches_oracle(data_2k_slice, length, seed, slot_contract=False)

    def test_revisits_reach_third_visit_frequencies(self, triangle_graph):
        # Guards the parity above against a sample without third visits:
        # on a 3-cycle, L = 6 brings every walk back to its start twice.
        index = WalkIndex.built(triangle_graph, 6, SAMPLES, seed=7)
        assert index.hitting_frequencies().max() > 2.5 / SAMPLES


class TestDeadEndSlotContract:
    @pytest.mark.parametrize("length", [3, 5])
    def test_matches_slot_contract_oracle(self, dead_end_graph, length):
        _assert_matches_oracle(dead_end_graph, length, 3, slot_contract=True)


class TestUnweightedChoice:
    def test_out_neighbours_picked_uniformly(self):
        # Skewed probabilities must not matter when weighted=False.
        graph = SocialGraph(
            5, [(0, 1, 0.97), (0, 2, 0.01), (0, 3, 0.01), (0, 4, 0.01)]
        )
        samples = 4000
        index = WalkIndex.built(graph, 1, samples, weighted=False, seed=3)
        firsts = index.padded_paths()[:samples, 1]
        shares = np.bincount(firsts, minlength=5)[1:] / samples
        assert np.all(np.abs(shares - 0.25) < 0.03)

    def test_floor_of_draw_times_degree(self):
        graph = SocialGraph(4, [(0, 1, 0.9), (0, 2, 0.05), (0, 3, 0.05)])
        engine = WalkEngine(graph, weighted=False, seed=0)
        draws = np.array([0.0, 0.33, 0.34, 0.66, 0.67, 0.999999])
        picked = engine.advance(np.zeros(draws.size, dtype=np.int64), draws)
        assert picked.tolist() == [1, 1, 2, 2, 3, 3]
