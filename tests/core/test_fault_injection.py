"""Fault-injection tests for the offline pipeline.

Proves the robustness contract end-to-end: a sharded build killed
mid-way and resumed from its manifest produces a shard directory
byte-identical to an uninterrupted build; crashed workers are retried on
fresh processes; persistent failures degrade gracefully or raise
:class:`~repro.exceptions.BuildFailedError` per the ``strict`` flag; and
corrupted shards (single flipped byte, truncation) are rejected at load
time with :class:`~repro.exceptions.ArtifactCorruptedError`.
"""

import hashlib
import warnings

import pytest

from repro import _faults
from repro.core import (
    PropagationIndex,
    load_sharded_index,
    save_sharded_index,
)
from repro.exceptions import (
    ArtifactCorruptedError,
    BuildFailedError,
    ConfigurationError,
)
from repro.graph import preferential_attachment_graph

THETA = 0.01
SHARD_NODES = 16


@pytest.fixture(autouse=True)
def _clean_faults():
    """Never leak an injected fault into another test."""
    yield
    _faults.clear_faults()


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_graph(70, 3, seed=5)


def _dir_digest(directory):
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _build(graph, directory, **kwargs):
    return PropagationIndex(
        graph, THETA, metrics=kwargs.pop("metrics", None)
    ).build_sharded(directory, shard_nodes=SHARD_NODES, **kwargs)


@pytest.fixture(scope="module")
def reference_digest(graph, tmp_path_factory):
    """The shard directory digest of an uninterrupted serial build."""
    directory = tmp_path_factory.mktemp("reference") / "prop"
    _build(graph, directory, workers=1)
    return _dir_digest(directory)


class _FailFromNode:
    """Fail every worker chunk holding a node >= *node* (picklable)."""

    def __init__(self, node):
        self.node = node

    def __call__(self, *, nodes, **_):
        if max(nodes) >= self.node:
            raise RuntimeError(f"injected fault: chunk reaches {self.node}")


class TestInjectionRegistry:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            _faults.set_fault("nope.nope", lambda **_: None)

    def test_fault_context_restores_previous_hook(self):
        calls = []
        _faults.set_fault("propagation.build_entry", lambda **c: calls.append("outer"))
        with _faults.fault("propagation.build_entry", lambda **c: calls.append("inner")):
            _faults.inject("propagation.build_entry", node=0, attempt=0)
        _faults.inject("propagation.build_entry", node=0, attempt=0)
        assert calls == ["inner", "outer"]

    def test_transform_keeps_bytes_without_hook(self):
        assert _faults.transform("artifact.load_bytes", b"abc", path=None) == b"abc"


class TestResumeAfterCrash:
    def test_interrupted_build_resumes_byte_identical(
        self, graph, reference_digest, tmp_path
    ):
        """The acceptance-criteria scenario, serial flavour."""
        directory = tmp_path / "prop"
        # Kill the build at node 40; shards [0, 16) and [16, 32) are
        # published, the third shard's built entries are lost.
        with _faults.fault(
            "propagation.build_entry", _faults.InterruptOnEntry(40)
        ):
            with pytest.raises(KeyboardInterrupt):
                _build(graph, directory, workers=1)
        with pytest.raises(ArtifactCorruptedError, match="incomplete"):
            load_sharded_index(directory, graph)

        resumed = _build(graph, directory, workers=1)
        assert resumed.last_build_stats.n_resumed == 2 * SHARD_NODES
        assert resumed.last_build_stats.n_built == (
            graph.n_nodes - 2 * SHARD_NODES
        )
        assert _dir_digest(directory) == reference_digest

    def test_parallel_failures_then_resume_byte_identical(
        self, graph, reference_digest, tmp_path
    ):
        """A parallel build that keeps failing in its third shard raises
        with two shards on disk; the resumed parallel build finishes."""
        directory = tmp_path / "prop"
        with _faults.fault(
            "propagation.worker_chunk", _FailFromNode(2 * SHARD_NODES)
        ):
            with pytest.raises(BuildFailedError):
                _build(
                    graph, directory,
                    workers=2, max_retries=1, retry_backoff=0.0, strict=True,
                )
        resumed = _build(graph, directory, workers=2)
        assert resumed.last_build_stats.n_resumed == 2 * SHARD_NODES
        assert resumed.last_build_stats.failed_nodes == ()
        assert _dir_digest(directory) == reference_digest

    def test_mismatched_checkpoint_rejected(self, graph, tmp_path):
        directory = tmp_path / "prop"
        _build(graph, directory, workers=1)
        other = PropagationIndex(graph, THETA * 2)
        with pytest.raises(ConfigurationError, match="built with"):
            other.build_sharded(directory, shard_nodes=SHARD_NODES)

    def test_resume_false_ignores_checkpoint(self, graph, tmp_path):
        directory = tmp_path / "prop"
        _build(graph, directory, workers=1)
        index = _build(graph, directory, workers=1, resume=False)
        assert index.last_build_stats.n_resumed == 0
        assert index.last_build_stats.n_built == graph.n_nodes


class TestMetricsSurviveCrashes:
    """Cumulative observability counters across crash + resume builds."""

    def test_crash_and_resume_report_cumulative_counters(
        self, graph, tmp_path
    ):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        directory = tmp_path / "prop"
        with _faults.fault(
            "propagation.build_entry", _faults.InterruptOnEntry(40)
        ):
            with pytest.raises(KeyboardInterrupt):
                _build(graph, directory, workers=1, metrics=registry)
        # The kill never reached stats construction, but every entry
        # finished before it is already on the registry.
        assert registry.counter_value("propagation.entries_built") == 40
        assert registry.counter_value("propagation.shards_written") == 2

        resumed = _build(graph, directory, workers=1, metrics=registry)
        snapshot = registry.snapshot()
        # Cumulative across both builds: the interrupted shard's 8 entries
        # were never published, so the resumed build builds them again.
        assert snapshot.counter("propagation.entries_built") == (
            graph.n_nodes + 40 - 2 * SHARD_NODES
        )
        n_shards = -(-graph.n_nodes // SHARD_NODES)
        assert snapshot.counter("propagation.shards_written") == n_shards
        assert snapshot.counter("propagation.shards_resumed") == 2
        # The per-call stats remain scoped to the resumed build alone.
        assert resumed.last_build_stats.n_built == (
            graph.n_nodes - 2 * SHARD_NODES
        )
        assert resumed.last_build_stats.n_resumed == 2 * SHARD_NODES
        # Both build attempts closed their build_sharded span.
        phase = snapshot.histogram("phase.propagation.build_sharded.seconds")
        assert phase.count == 2

    def test_retries_are_counted(self, graph):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        with _faults.fault(
            "propagation.build_entry", _faults.FailOnEntry(7, attempts=(0, 1))
        ):
            index = PropagationIndex(graph, THETA, metrics=registry).build_all(
                workers=1, max_retries=2, retry_backoff=0.0
            )
        assert index.last_build_stats.failed_nodes == ()
        assert registry.counter_value("propagation.entry_retries") == 2
        assert registry.counter_value("propagation.entries_built") == (
            graph.n_nodes
        )
        assert registry.counter_value("propagation.entries_failed") == 0


class TestWorkerCrashRetry:
    def test_hard_killed_worker_is_retried_on_fresh_pool(self, graph):
        """os._exit in a worker breaks the pool; a fresh pool finishes."""
        with _faults.fault(
            "propagation.worker_chunk", _faults.ExitOnChunk(2, attempts=(0,))
        ):
            index = PropagationIndex(graph, THETA).build_all(
                workers=2, max_retries=2, retry_backoff=0.0
            )
        stats = index.last_build_stats
        assert stats.failed_nodes == ()
        assert index.n_cached == graph.n_nodes

    def test_crash_retried_build_matches_clean_build(
        self, graph, tmp_path, reference_digest
    ):
        directory = tmp_path / "prop"
        with _faults.fault(
            "propagation.worker_chunk", _faults.ExitOnChunk(0, attempts=(0,))
        ):
            _build(graph, directory, workers=2, retry_backoff=0.0)
        assert _dir_digest(directory) == reference_digest

    def test_serial_transient_failure_is_retried(self, graph):
        with _faults.fault(
            "propagation.build_entry", _faults.FailOnEntry(7, attempts=(0,))
        ):
            index = PropagationIndex(graph, THETA).build_all(
                workers=1, max_retries=1, retry_backoff=0.0
            )
        assert index.last_build_stats.failed_nodes == ()
        assert index.n_cached == graph.n_nodes

    def test_persistent_failure_degrades_gracefully(self, graph):
        hook = _faults.FailOnEntry(7, attempts=(0, 1, 2, 3))
        with _faults.fault("propagation.build_entry", hook):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                index = PropagationIndex(graph, THETA).build_all(
                    workers=1, max_retries=2, retry_backoff=0.0, strict=False
                )
        stats = index.last_build_stats
        assert stats.failed_nodes == (7,)
        assert stats.n_failed == 1
        assert stats.n_built == graph.n_nodes - 1
        assert any("failed to build" in str(w.message) for w in caught)

    def test_persistent_failure_raises_in_strict_mode(self, graph):
        hook = _faults.FailOnEntry(7, attempts=(0, 1, 2, 3))
        with _faults.fault("propagation.build_entry", hook):
            with pytest.raises(BuildFailedError) as excinfo:
                PropagationIndex(graph, THETA).build_all(
                    workers=1,
                    max_retries=2,
                    retry_backoff=0.0,
                    strict=True,
                )
        error = excinfo.value
        assert error.failed_nodes == [7]
        assert error.n_built == graph.n_nodes - 1
        # The partial result survives, attached to the error.
        assert error.partial_index is not None
        assert error.partial_index.n_cached == graph.n_nodes - 1

    def test_deterministic_library_errors_are_not_retried(self):
        from repro.exceptions import BudgetExceededError
        from repro.graph import SocialGraph

        edges = [(u, v, 0.9) for u in range(10) for v in range(10) if u != v]
        dense = SocialGraph(10, edges)
        index = PropagationIndex(dense, 0.0001, max_branches=10, strict=True)
        with pytest.raises(BudgetExceededError):
            index.build_all(workers=1, max_retries=5, retry_backoff=0.0)


class TestKillDuringWrite:
    def test_destination_survives_injected_crash(self, graph, tmp_path):
        directory = tmp_path / "prop"
        save_sharded_index(
            PropagationIndex(graph, THETA).build_all(workers=1),
            directory, shard_nodes=SHARD_NODES,
        )
        before = _dir_digest(directory)
        replacement = PropagationIndex(graph, THETA * 2).build_all(workers=1)
        with _faults.fault("artifact.pre_replace", _faults.FailOnReplace()):
            with pytest.raises(OSError, match="injected"):
                save_sharded_index(
                    replacement, directory, shard_nodes=SHARD_NODES
                )
        # Old artifact intact, temp file cleaned up.
        assert _dir_digest(directory) == before
        # The surviving artifact still loads and verifies.
        assert load_sharded_index(directory, graph).theta == THETA
        # A later, uninterrupted save publishes the new version.
        save_sharded_index(replacement, directory, shard_nodes=SHARD_NODES)
        assert load_sharded_index(directory, graph).theta == THETA * 2


def _shard_bytes_only(hook):
    """Apply a load-bytes *hook* to shard segments, not the manifest."""
    def apply(*, data, path, **context):
        if path.name.startswith("shard-"):
            return hook(data=data, path=path, **context)
        return None
    return apply


class TestBitFlipOnLoad:
    @pytest.fixture
    def artifact(self, graph, tmp_path):
        directory = tmp_path / "prop"
        _build(graph, directory, workers=1)
        return directory

    @staticmethod
    def _touch_all(graph, directory):
        """Open with verification and map every shard."""
        index = load_sharded_index(directory, graph, verify=True)
        for node in range(graph.n_nodes):
            index.entry(node)
        return index

    @pytest.mark.parametrize("relative_offset", [0.1, 0.5, 0.9])
    def test_single_flipped_byte_rejected(self, graph, artifact, relative_offset):
        """Acceptance criterion: one flipped byte -> typed rejection."""
        size = (artifact / "shard-0000000000-0000000016.bin").stat().st_size
        hook = _shard_bytes_only(_faults.FlipByte(int(size * relative_offset)))
        with _faults.fault("artifact.load_bytes", hook):
            with pytest.raises(ArtifactCorruptedError) as excinfo:
                self._touch_all(graph, artifact)
        assert str(artifact) in str(excinfo.value)

    def test_flipped_byte_on_disk_rejected(self, graph, artifact):
        shard = sorted(artifact.glob("shard-*"))[1]
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 3] ^= 0x01  # single bit, mid-file
        shard.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptedError):
            self._touch_all(graph, artifact)

    def test_truncated_artifact_rejected(self, graph, artifact):
        size = (artifact / "shard-0000000000-0000000016.bin").stat().st_size
        hook = _shard_bytes_only(_faults.TruncateBytes(size // 2))
        with _faults.fault("artifact.load_bytes", hook):
            with pytest.raises(ArtifactCorruptedError, match="truncated"):
                self._touch_all(graph, artifact)

    def test_clean_artifact_still_loads(self, graph, artifact):
        assert self._touch_all(graph, artifact).n_cached == graph.n_nodes
