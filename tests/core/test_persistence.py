"""Unit tests for offline-artifact persistence."""

import numpy as np
import pytest

from repro._artifacts import load_npz_payload, save_npz_payload
from repro.core import (
    PropagationIndex,
    TopicSummary,
    load_sharded_index,
    load_summaries,
    load_walk_index,
    save_sharded_index,
    save_summaries,
    save_walk_index,
)
from repro.exceptions import (
    ArtifactCorruptedError,
    ArtifactError,
    ConfigurationError,
    IndexNotBuiltError,
)
from repro.graph import SocialGraph, preferential_attachment_graph
from repro.walks import WalkIndex


@pytest.fixture
def graph():
    return preferential_attachment_graph(40, 3, seed=1)


class TestSummaries:
    def test_roundtrip(self, graph, tmp_path):
        summaries = {
            0: TopicSummary(0, {1: 0.5, 2: 0.25}),
            3: TopicSummary(3, {7: 1.0}),
        }
        path = tmp_path / "summaries.json"
        save_summaries(summaries, graph, path)
        loaded = load_summaries(path, graph)
        assert set(loaded) == {0, 3}
        assert loaded[0].weights == {1: 0.5, 2: 0.25}
        assert loaded[3].topic_id == 3

    def test_wrong_graph_rejected(self, graph, tmp_path):
        path = tmp_path / "summaries.json"
        save_summaries({0: TopicSummary(0, {1: 0.5})}, graph, path)
        other = SocialGraph(3, [(0, 1, 0.5)])
        with pytest.raises(ConfigurationError, match="built for a graph"):
            load_summaries(path, other)


class TestPropagationIndexPersistence:
    """Γ persists only as a shard directory (:mod:`repro.core.shards`)."""

    def test_wrong_graph_rejected(self, graph, tmp_path):
        index = PropagationIndex(graph, 0.02).build_all()
        save_sharded_index(index, tmp_path / "prop")
        sources, targets, probs = graph.edge_arrays()
        probs[0] = probs[0] / 2  # same node and edge counts, new weight
        reweighted = SocialGraph.from_arrays(
            graph.n_nodes, sources, targets, probs
        )
        with pytest.raises(ConfigurationError, match="different graph"):
            load_sharded_index(tmp_path / "prop", reweighted)

    def test_fully_built_index_round_trips_exactly(self, graph, tmp_path):
        index = PropagationIndex(graph, 0.02, max_branches=5000).build_all()
        save_sharded_index(index, tmp_path / "prop", shard_nodes=16)
        loaded = load_sharded_index(tmp_path / "prop", graph)
        assert loaded.n_cached == graph.n_nodes
        assert loaded.theta == index.theta
        assert loaded.max_branches == 5000
        assert loaded.strict == index.strict
        for node in graph.nodes:
            original = index.entry(node)
            restored = loaded.entry(node)
            # Exact equality: floats survive the round trip bit-for-bit.
            assert dict(restored.gamma) == dict(original.gamma)
            assert restored.marked == original.marked
            assert restored.branches == original.branches

    def test_empty_index_round_trips(self, tmp_path):
        edgeless = SocialGraph(5, [])
        index = PropagationIndex(edgeless, 0.02).build_all()
        save_sharded_index(index, tmp_path / "prop", shard_nodes=2)
        loaded = load_sharded_index(tmp_path / "prop", edgeless)
        assert loaded.n_cached == 5
        assert all(loaded.entry(node).size == 0 for node in range(5))


class TestWalkIndexPersistence:
    def test_roundtrip_walks_and_queries(self, graph, tmp_path):
        index = WalkIndex.built(graph, 4, 3, seed=2)
        path = tmp_path / "walks.npz"
        save_walk_index(index, path)
        loaded = load_walk_index(path, graph)
        assert loaded.walk_length == 4
        assert loaded.samples_per_node == 3
        for node in graph.nodes:
            original = index.walks_from(node)
            restored = loaded.walks_from(node)
            assert len(restored) == len(original)
            for a, b in zip(original, restored):
                assert a.path.tolist() == b.path.tolist()
                assert a.visit_counts.tolist() == b.visit_counts.tolist()
                assert a.steps_taken == b.steps_taken
            assert (
                loaded.reverse_reachable(node).tolist()
                == index.reverse_reachable(node).tolist()
            )
        assert np.allclose(
            loaded.hitting_frequencies(), index.hitting_frequencies()
        )
        assert np.array_equal(loaded.padded_paths(), index.padded_paths())
        assert loaded.memory_bytes() == index.memory_bytes()

    @pytest.mark.parametrize("damage", ["offsets", "paths", "counts", "hit"])
    def test_inconsistent_payload_rejected(self, graph, tmp_path, damage):
        # A well-sealed file whose arrays do not frame one walk per sample.
        index = WalkIndex.built(graph, 3, 2, seed=1)
        path = tmp_path / "walks.npz"
        save_walk_index(index, path)
        payload = load_npz_payload(path)
        payload = {k: v for k, v in payload.items() if not k.startswith("_")}
        if damage == "offsets":
            payload["offsets"] = payload["offsets"][:-1]
        elif damage == "paths":
            payload["paths"] = payload["paths"].copy()
            payload["paths"][-1] = graph.n_nodes
        elif damage == "counts":
            payload["counts"] = payload["counts"][:-1]
        else:
            payload["hit"] = payload["hit"][:-1]
        save_npz_payload(path, payload)
        with pytest.raises(ArtifactCorruptedError, match="inconsistent walk"):
            load_walk_index(path, graph)

    def test_unbuilt_index_rejected(self, graph, tmp_path):
        index = WalkIndex(graph, 3, 2)
        with pytest.raises(IndexNotBuiltError):
            save_walk_index(index, tmp_path / "walks.npz")

    def test_wrong_graph_rejected(self, graph, tmp_path):
        index = WalkIndex.built(graph, 3, 2, seed=1)
        path = tmp_path / "walks.npz"
        save_walk_index(index, path)
        other = SocialGraph(3, [(0, 1, 0.5)])
        with pytest.raises(ConfigurationError):
            load_walk_index(path, other)


class TestCorruptedArtifacts:
    """Damaged artifacts must surface as typed errors, never raw numpy
    / json / zipfile exceptions from deep inside a loader."""

    def test_truncated_walk_npz_rejected(self, graph, tmp_path):
        index = WalkIndex.built(graph, 3, 2, seed=1)
        path = tmp_path / "walks.npz"
        save_walk_index(index, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-40])
        with pytest.raises(ArtifactCorruptedError):
            load_walk_index(path, graph)

    def test_walk_npz_missing_arrays_rejected(self, graph, tmp_path):
        path = tmp_path / "walks.npz"
        np.savez(path, walk_length=np.asarray([3]))
        with pytest.raises(ArtifactCorruptedError, match="missing keys"):
            load_walk_index(path, graph)

    def test_summaries_json_missing_keys_rejected(self, graph, tmp_path):
        path = tmp_path / "summaries.json"
        path.write_text('{"n_nodes": 40}')
        with pytest.raises(ArtifactCorruptedError, match="missing keys"):
            load_summaries(path, graph)

    def test_summaries_invalid_json_rejected(self, graph, tmp_path):
        path = tmp_path / "summaries.json"
        path.write_text('{"summaries": [tru')
        with pytest.raises(ArtifactCorruptedError, match="unreadable JSON"):
            load_summaries(path, graph)

    def test_summaries_tampered_payload_rejected(self, graph, tmp_path):
        import json

        path = tmp_path / "summaries.json"
        save_summaries({0: TopicSummary(0, {1: 0.5})}, graph, path)
        payload = json.loads(path.read_text())
        payload["summaries"]["0"]["1"] = 0.99  # bump one summary weight
        path.write_text(json.dumps(payload))  # checksum now stale
        with pytest.raises(ArtifactCorruptedError, match="checksum mismatch"):
            load_summaries(path, graph)

    def test_missing_artifacts_typed_errors(self, graph, tmp_path):
        with pytest.raises(ArtifactError, match="not found"):
            load_sharded_index(tmp_path / "nope", graph)
        with pytest.raises(ArtifactError, match="not found"):
            load_walk_index(tmp_path / "nope.npz", graph)
        with pytest.raises(ArtifactError, match="not found"):
            load_summaries(tmp_path / "nope.json", graph)

    def test_newer_format_version_rejected(self, graph, tmp_path):
        import json

        path = tmp_path / "summaries.json"
        save_summaries({0: TopicSummary(0, {1: 0.5})}, graph, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactCorruptedError, match="newer than"):
            load_summaries(path, graph)
