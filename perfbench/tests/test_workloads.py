"""Seed determinism of the schedules and validity of the delta stream."""

import json

import numpy as np
import pytest

from record import Counters, parse_prometheus
from workloads import (
    WORKLOADS,
    RequestStream,
    TrackedGraph,
    arrival_offsets,
    delta_stream,
    query_tokens,
    search_items,
)

LABELS = [f"{a} {b}" for a in ("anime", "apple", "music", "phone", "tv") for b in
          ("movie", "sport", "science", "travel", "music", "phone")]


def _graph(seed=0, n=60, m=400):
    rng = np.random.default_rng(seed)
    edges = {}
    while len(edges) < m:
        s, t = (int(v) for v in rng.integers(0, n, 2))
        if s != t:
            edges[(s, t)] = round(float(rng.uniform(0.05, 0.5)), 6)
    keys = sorted(edges)
    return n, (np.array([k[0] for k in keys]), np.array([k[1] for k in keys]),
               np.array([edges[k] for k in keys]))


def test_query_tokens_rank_by_topic_count():
    assert query_tokens(LABELS, 3) == ["music", "phone", "anime"]
    with pytest.raises(ValueError):
        query_tokens(LABELS, 100)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_request_stream_is_a_function_of_the_seed(name):
    w = WORKLOADS[name]
    w = type(w)(**{**w.__dict__, "n_queries": 5})
    a = RequestStream(w, LABELS, 200, seed=4)
    b = RequestStream(w, LABELS, 200, seed=4)
    c = RequestStream(w, LABELS, 200, seed=5)
    first = a.take(300)
    assert first == b.take(300)
    assert a.take(50) == b.take(50)
    assert first != c.take(300)


def test_zipf_stream_concentrates_on_few_pairs():
    w = WORKLOADS["hot-zipf"]
    w = type(w)(**{**w.__dict__, "n_queries": 5})
    pairs = RequestStream(w, LABELS, 200, seed=1).take(5000)
    counts = sorted((pairs.count(p) for p in set(pairs)), reverse=True)
    assert len(set(pairs)) <= 50
    assert counts[0] > 20 * counts[-1]


def test_arrival_schedule_is_seeded_and_scales_with_rate():
    a = arrival_offsets(500, 100.0, [3, 10])
    assert np.array_equal(a, arrival_offsets(500, 100.0, [3, 10]))
    assert np.allclose(arrival_offsets(500, 200.0, [3, 10]), a / 2)
    assert 4.0 < a[-1] < 6.0  # 500 requests at 100/s take about 5 s


def test_search_items_carry_their_requests_in_time_order():
    w = WORKLOADS["hot-zipf"]
    w = type(w)(**{**w.__dict__, "n_queries": 5})
    stream = RequestStream(w, LABELS, 200, seed=2)
    items, requests = search_items(stream, 400, 200.0, [2, 10], first_tag=7)
    assert [json.loads(i.body)["user"] for i in items] == [r[0] for r in requests]
    assert [i.due for i in items] == sorted(i.due for i in items)
    assert [i.tag for i in items] == list(range(7, 407))


def test_delta_stream_is_seeded():
    n, arrays = _graph()
    one = list(delta_stream(TrackedGraph(n, *arrays), seed=9, count=12))
    two = list(delta_stream(TrackedGraph(n, *arrays), seed=9, count=12))
    assert one == two
    assert one[4] == one[9] == {"decay": 0.99}
    assert all(len(d["inserts"]) == len(d["deletes"]) == len(d["reweights"]) == 2
               for i, d in enumerate(one) if i not in (4, 9))


def test_every_delta_is_valid_against_the_tracked_graph():
    """Deletes and re-weights name live edges, inserts new ones, and the
    tracked copy matches the program's own delta application."""
    from repro.core import GraphDelta, apply_delta_to_graph
    from repro.graph import SocialGraph

    n, arrays = _graph(seed=3)
    tracked = TrackedGraph(n, *arrays)
    graph = SocialGraph.from_arrays(n, *arrays)
    shadow = TrackedGraph(n, *arrays)
    for delta in delta_stream(tracked, seed=1, count=25):
        for s, t in delta.get("deletes", []):
            assert (s, t) in shadow.prob
        for s, t, _ in delta.get("reweights", []):
            assert (s, t) in shadow.prob
        for s, t, _ in delta.get("inserts", []):
            assert (s, t) not in shadow.prob and s != t
        shadow.apply(delta)
        graph, _ = apply_delta_to_graph(graph, GraphDelta(**delta))
    src, dst, prob = graph.edge_arrays()
    order = np.lexsort((dst, src))
    ours = tracked.arrays()
    assert np.array_equal(src[order], ours[0])
    assert np.array_equal(dst[order], ours[1])
    assert np.array_equal(prob[order], ours[2])


def test_tracked_graph_refuses_invalid_edits():
    n, arrays = _graph()
    tracked = TrackedGraph(n, *arrays)
    live = tracked.sample_edges(np.random.default_rng(0), 1)[0]
    with pytest.raises(ValueError):
        tracked.apply({"inserts": [[live[0], live[1], 0.2]]})
    with pytest.raises(ValueError):
        tracked.apply({"deletes": [[live[0], live[1]], [live[0], live[1]]]})
    with pytest.raises(ValueError):
        tracked.apply({"reweights": [[n + 5, 0, 0.2]]})


def test_counters_take_means_from_sum_and_count():
    before = parse_prometheus(
        "# TYPE x histogram\nrepro_serve_batch_size_sum 10\nrepro_serve_batch_size_count 8\n"
        'repro_serve_batch_size_bucket{le="1.0"} 8\nrepro_cache_tier_answers_hits 5\n'
    )
    after = parse_prometheus(
        "repro_serve_batch_size_sum 40\nrepro_serve_batch_size_count 28\n"
        "repro_cache_tier_answers_hits 95\nrepro_cache_tier_answers_misses 10\n"
    )
    c = Counters(before, after)
    assert c.mean("serve.batch_size") == 1.5
    assert c.ratio("cache.tier.answers.hits", "cache.tier.answers.misses") == 0.9
    assert c.mean("serve.queue_wait_seconds") is None
