"""Persistence for the offline artifacts (library extension).

The paper amortizes its expensive offline stage ("building the L-length
random walk index required around seven hours ... Since it is only ran
once, this cost is amortized", §6.6) - which presumes the artifacts are
*stored*. This module provides that storage:

* topic summaries - JSON (human-inspectable, tiny);
* walk indexes - compressed NPZ (paths flattened with offsets).

The propagation index Γ is stored as a sharded, memory-mapped directory
instead (:mod:`repro.core.shards`).

A seven-hour artifact must also be *trustworthy*, so every writer goes
through :mod:`repro._artifacts`: writes are atomic (same-directory temp
file + ``os.replace``), payloads carry a SHA-256 content checksum and a
format-version field, and loaders verify both - a truncated or
bit-flipped file raises :class:`~repro.exceptions.ArtifactCorruptedError`
naming the path and digests instead of crashing deep inside numpy. All
loaders additionally validate the declared graph signature (node/edge
counts) so an index cannot silently be replayed against a different
graph.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

from .._artifacts import (
    load_json_payload,
    load_npz_payload,
    require_keys,
    save_json_payload,
    save_npz_payload,
)
from ..exceptions import ArtifactCorruptedError, ConfigurationError, IndexNotBuiltError
from ..graph import SocialGraph
from ..walks import WalkIndex
from .summarization import TopicSummary

__all__ = [
    "save_summaries",
    "load_summaries",
    "save_walk_index",
    "load_walk_index",
]

PathLike = Union[str, Path]


def _graph_signature(graph: SocialGraph) -> Dict[str, int]:
    return {"n_nodes": graph.n_nodes, "n_edges": graph.n_edges}


def _check_signature(payload: Dict, graph: SocialGraph, path: Path) -> None:
    expected = _graph_signature(graph)
    found = {
        "n_nodes": int(payload["n_nodes"]),
        "n_edges": int(payload["n_edges"]),
    }
    if found != expected:
        raise ConfigurationError(
            f"{path}: artifact was built for a graph with {found}, "
            f"but the supplied graph has {expected}"
        )


# ---------------------------------------------------------------------------
# Topic summaries
# ---------------------------------------------------------------------------


def save_summaries(
    summaries: Dict[int, TopicSummary], graph: SocialGraph, path: PathLike
) -> None:
    """Write ``topic_id -> TopicSummary`` to a checksummed JSON file."""
    payload = {
        **_graph_signature(graph),
        "summaries": {
            str(topic_id): {str(node): weight
                            for node, weight in summary.weights.items()}
            for topic_id, summary in summaries.items()
        },
    }
    save_json_payload(Path(path), payload)


def load_summaries(path: PathLike, graph: SocialGraph) -> Dict[int, TopicSummary]:
    """Read summaries written by :func:`save_summaries`."""
    path = Path(path)
    payload = load_json_payload(path, "summaries artifact")
    require_keys(payload, ("n_nodes", "n_edges", "summaries"), path)
    _check_signature(payload, graph, path)
    summaries: Dict[int, TopicSummary] = {}
    try:
        for topic_key, weights in payload["summaries"].items():
            topic_id = int(topic_key)
            summaries[topic_id] = TopicSummary(
                topic_id, {int(node): float(w) for node, w in weights.items()}
            )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ArtifactCorruptedError(
            path, reason=f"malformed summaries payload ({exc})"
        ) from exc
    return summaries


# ---------------------------------------------------------------------------
# Walk index
# ---------------------------------------------------------------------------

_WALK_KEYS = (
    "n_nodes", "n_edges", "walk_length", "samples", "offsets", "paths",
    "counts", "hit",
)


def save_walk_index(index: WalkIndex, path: PathLike) -> None:
    """Write a built walk index to NPZ (paths flattened with offsets)."""
    if not index.is_built:
        raise IndexNotBuiltError("cannot save an unbuilt WalkIndex")
    paths = index.padded_paths()
    keep = paths >= 0
    save_npz_payload(Path(path), {
        "n_nodes": np.asarray([index.graph.n_nodes]),
        "n_edges": np.asarray([index.graph.n_edges]),
        "walk_length": np.asarray([index.walk_length]),
        "samples": np.asarray([index.samples_per_node]),
        "offsets": np.concatenate([[0], np.cumsum(keep.sum(axis=1))]),
        "paths": paths[keep],
        "counts": index._counts[keep].astype(np.int64),
        "hit": index.hitting_frequencies(),
    })


def load_walk_index(path: PathLike, graph: SocialGraph) -> WalkIndex:
    """Read a walk index written by :func:`save_walk_index`.

    The flat paths and counts are scattered back into the index's padded
    columns and the reverse-reachability CSR is rebuilt from them, so the
    loaded index answers every query identically to the saved one.
    """
    path = Path(path)
    payload = load_npz_payload(path, "walk index artifact")
    require_keys(payload, _WALK_KEYS, path)
    _check_signature(
        {"n_nodes": payload["n_nodes"][0], "n_edges": payload["n_edges"][0]},
        graph,
        path,
    )
    index = WalkIndex(
        graph,
        int(payload["walk_length"][0]),
        int(payload["samples"][0]),
    )
    n_walks = graph.n_nodes * index.samples_per_node
    offsets = payload["offsets"]
    paths = payload["paths"]
    counts = payload["counts"]
    hit = payload["hit"]
    sizes = np.diff(offsets)
    if (
        offsets.size != n_walks + 1
        or offsets[0] != 0
        or sizes.min(initial=1) < 1
        or offsets[-1] != paths.size
        or counts.shape != paths.shape
        or counts.min(initial=1) < 1
        or paths.min(initial=0) < 0
        or paths.max(initial=0) >= graph.n_nodes
        or hit.shape != (index.walk_length + 1, graph.n_nodes)
    ):
        raise ArtifactCorruptedError(
            path, reason="inconsistent walk payload (offsets, paths, counts "
            "and hit do not frame one walk per sample)"
        )
    rows = np.repeat(np.arange(n_walks), sizes)
    cols = np.arange(paths.size) - np.repeat(offsets[:-1], sizes)
    padded = np.full((n_walks, int(sizes.max(initial=1))), -1, dtype=np.int64)
    padded[rows, cols] = paths
    aligned = np.zeros(padded.shape, dtype=np.int32)
    aligned[rows, cols] = counts
    index._adopt(padded, aligned, hit)
    return index
