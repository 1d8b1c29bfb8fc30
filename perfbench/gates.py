"""Correctness gates: daemon answers against in-process reference engines.

* Sampled ``/search`` responses must equal, bit for bit (results and
  ``stats``), what :meth:`ServingEngine.from_artifacts` answers over the
  same artifacts, loaded with ``verify_shards=True``.
* After the last delta, a fixed probe set must equal a from-scratch
  engine over the benchmark's own copy of the final graph and the same
  summaries artifact.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

STAT_FIELDS = (
    "topics_considered",
    "topics_pruned",
    "entries_probed",
    "expansion_rounds",
    "representatives_touched",
)


def expected_body(engine, user: int, query: str, k: int) -> Dict:
    """The results and stats a correct daemon returns for one request."""
    results, stats = engine.search(user, query, k, with_stats=True)
    return {
        "results": [
            {"topic_id": r.topic_id, "label": r.label, "influence": r.influence}
            for r in results
        ],
        "stats": {f: getattr(stats, f) for f in STAT_FIELDS},
    }


def mismatches(
    engine, answered: Sequence[Tuple[Tuple[int, str], bytes]], k: int
) -> List[Dict]:
    """Requests whose daemon body differs from *engine*'s answer."""
    bad = []
    for (user, query), body in answered:
        got = json.loads(body)
        want = expected_body(engine, user, query, k)
        if got.get("results") != want["results"] or got.get("stats") != want["stats"]:
            bad.append({"user": user, "query": query, "got": got, "want": want})
    return bad


def artifact_engine(bundle, summaries_path, index_dir):
    """The daemon's engine, rebuilt in-process from the same artifacts."""
    from repro.core import ServingEngine

    return ServingEngine.from_artifacts(
        bundle.graph, bundle.topic_index, summaries_path,
        index_dir=index_dir, verify_shards=True,
    )


def scratch_engine(bundle, tracked, summaries_path):
    """A from-scratch engine over the tracked final graph and the original
    summaries (deltas leave summaries as built)."""
    from repro.core import ServingEngine
    from repro.core.persistence import load_summaries
    from repro.graph import SocialGraph

    summaries = load_summaries(summaries_path, bundle.graph)
    graph = SocialGraph.from_arrays(tracked.n_nodes, *tracked.arrays())
    return ServingEngine(graph, bundle.topic_index, summaries)
