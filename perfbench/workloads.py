"""Workload definitions and their seeded inputs.

Each workload serves one fixed dataset (``data_2k`` at its default
dataset seed) with one fixed stream of graph deltas, so every run builds
the same graph and artifacts and applies the same edits. What the run
seed varies is the traffic: the query users, the request stream and the
arrival schedule are derived from it, so the same seed gives the same
inputs on every commit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from loadgen import Item


#: Every workload serves ``data_2k`` at this size and dataset seed (the
#: dataset's default), indexed in shards of SHARD_NODES nodes, and asks
#: for the top K topics.
DATASET_NODES = 2000
DATASET_SEED = 2011
SHARD_NODES = 256
K = 10


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one daemon configuration."""

    name: str
    why: str
    n_queries: int
    n_users: Optional[int]  # None: every node is a query user
    zipf: float  # 0 = uniform over (user, query) pairs
    nominal_rps: float
    #: Rate search (traced runs): the limit on the step_quantile latency,
    #: about 3x the unloaded p99 this workload showed when the benchmark was
    #: written, and the bounds it bisects between.
    limit_ms: float
    rate_lo: float
    rate_hi: float
    step_requests: int
    step_quantile: float
    shard_cache_mb: Optional[int] = None  # None: the daemon default
    #: Answer every distinct (user, query) pair once before timing, so the
    #: nominal phase sees the steady state of a working set that fits.
    warm_all_pairs: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hot-zipf",
            why="200 user-query pairs under Zipf 1.1 fit every cache: answer-tier "
            "hits, so HTTP, JSON and coalescer costs set latency",
            n_queries=20, n_users=10, zipf=1.1,
            nominal_rps=400.0,
            limit_ms=10.0, rate_lo=400.0, rate_hi=6400.0,
            step_requests=600, step_quantile=0.98,
            warm_all_pairs=True,
        ),
        Workload(
            name="cold-uniform",
            why="120k uniform user-query pairs and a 1 MiB shard cache: every "
            "request pays Gamma fetch, shard page-ins and the top-k kernel",
            n_queries=60, n_users=None, zipf=0.0,
            nominal_rps=40.0,
            limit_ms=100.0, rate_lo=40.0, rate_hi=320.0,
            step_requests=200, step_quantile=0.95,
            shard_cache_mb=1,
        ),
    )
}


def query_tokens(labels: Sequence[str], n_queries: int) -> List[str]:
    """The *n_queries* label tokens matching the most topics (at least 2),
    ties broken alphabetically."""
    counts: Dict[str, int] = {}
    for label in labels:
        for token in set(label.lower().split()):
            counts[token] = counts.get(token, 0) + 1
    ranked = sorted(
        (t for t, c in counts.items() if c >= 2), key=lambda t: (-counts[t], t)
    )
    if len(ranked) < n_queries:
        raise ValueError(f"only {len(ranked)} query tokens, need {n_queries}")
    return ranked[:n_queries]


class RequestStream:
    """An endless seeded stream of ``(user, query)`` search requests."""

    def __init__(self, workload: Workload, labels: Sequence[str], n_nodes: int, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.queries = query_tokens(labels, workload.n_queries)
        if workload.n_users is None:
            self.users = list(range(n_nodes))
        else:
            self.users = sorted(
                int(u) for u in rng.choice(n_nodes, workload.n_users, replace=False)
            )
        n_pairs = len(self.users) * len(self.queries)
        self._order = rng.permutation(n_pairs)  # popularity rank -> pair
        if workload.zipf > 0:
            weights = np.arange(1, n_pairs + 1, dtype=np.float64) ** -workload.zipf
            self._cdf = np.cumsum(weights / weights.sum())
        else:
            self._cdf = None
        self._rng = np.random.default_rng([seed, 2])

    @property
    def n_pairs(self) -> int:
        return len(self._order)

    def take(self, n: int) -> List[Tuple[int, str]]:
        """The next *n* requests."""
        if self._cdf is None:
            ranks = self._rng.integers(0, self.n_pairs, size=n)
        else:
            ranks = np.searchsorted(self._cdf, self._rng.random(n), side="right")
            ranks = np.minimum(ranks, self.n_pairs - 1)
        pairs = self._order[ranks]
        n_queries = len(self.queries)
        return [
            (self.users[int(p) // n_queries], self.queries[int(p) % n_queries])
            for p in pairs
        ]

    def all_pairs(self) -> List[Tuple[int, str]]:
        return [(u, q) for u in self.users for q in self.queries]

    def body(self, request: Tuple[int, str]) -> bytes:
        user, query = request
        return json.dumps({"user": user, "query": query, "k": K}).encode()


def arrival_offsets(n: int, rate: float, seed: Sequence[int]) -> np.ndarray:
    """Poisson arrival times (seconds) of *n* requests at *rate* per second.

    The unit-rate gaps depend only on *seed*, so two rates replay the same
    burst pattern, stretched.
    """
    gaps = np.random.default_rng(list(seed)).exponential(1.0, size=n)
    return np.cumsum(gaps) / rate


class TrackedGraph:
    """The benchmark's own copy of the edge set, so every delta is valid.

    Edges live in a dict ``(source, target) -> probability`` plus a key
    list for O(1) uniform sampling and swap-removal.
    """

    def __init__(self, n_nodes: int, sources, targets, probs):
        self.n_nodes = int(n_nodes)
        self.prob: Dict[Tuple[int, int], float] = {}
        self._keys: List[Tuple[int, int]] = []
        self._pos: Dict[Tuple[int, int], int] = {}
        for s, t, p in zip(sources.tolist(), targets.tolist(), probs.tolist()):
            self._add((s, t), p)

    def _add(self, key: Tuple[int, int], p: float) -> None:
        self.prob[key] = p
        self._pos[key] = len(self._keys)
        self._keys.append(key)

    def _remove(self, key: Tuple[int, int]) -> None:
        del self.prob[key]
        i = self._pos.pop(key)
        last = self._keys.pop()
        if i < len(self._keys):
            self._keys[i] = last
            self._pos[last] = i

    def sample_edges(self, rng: np.random.Generator, n: int) -> List[Tuple[int, int]]:
        picks = rng.choice(len(self._keys), size=n, replace=False)
        return [self._keys[int(i)] for i in picks]

    def apply(self, delta: Dict) -> None:
        """Apply one delta body; raises ``ValueError`` on an invalid edit."""
        touched = set()
        for s, t in delta.get("deletes", []):
            if (s, t) not in self.prob or (s, t) in touched:
                raise ValueError(f"delete of missing or repeated edge {(s, t)}")
            touched.add((s, t))
            self._remove((s, t))
        for s, t, p in delta.get("reweights", []):
            if (s, t) not in self.prob or (s, t) in touched or not 0 < p <= 1:
                raise ValueError(f"bad reweight {(s, t, p)}")
            touched.add((s, t))
            self.prob[(s, t)] = p
        for s, t, p in delta.get("inserts", []):
            if (s, t) in self.prob or (s, t) in touched or s == t or not 0 < p <= 1:
                raise ValueError(f"bad insert {(s, t, p)}")
            if not (0 <= s < self.n_nodes and 0 <= t < self.n_nodes):
                raise ValueError(f"insert outside the node set {(s, t)}")
            touched.add((s, t))
            self._add((s, t), p)
        decay = delta.get("decay", 1.0)
        if decay != 1.0:
            # Inserted edges join at their stated post-decay probability.
            inserted = {(s, t) for s, t, _ in delta.get("inserts", [])}
            for key in self._keys:
                if key not in inserted:
                    self.prob[key] = self.prob[key] * decay

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys = sorted(self.prob)
        src = np.fromiter((k[0] for k in keys), np.int64, len(keys))
        dst = np.fromiter((k[1] for k in keys), np.int64, len(keys))
        prob = np.fromiter((self.prob[k] for k in keys), np.float64, len(keys))
        return src, dst, prob


def delta_stream(graph: TrackedGraph, seed: int, count: int) -> Iterator[Dict]:
    """*count* valid delta bodies, applied to *graph* as they are made.

    Each holds 2 inserts, 2 deletes and 2 re-weights; every 5th is a pure
    aging step with decay 0.99.
    """
    rng = np.random.default_rng([seed, 3])
    for i in range(1, count + 1):
        if i % 5 == 0:
            delta: Dict = {"decay": 0.99}
        else:
            picked = graph.sample_edges(rng, 4)
            inserts: List[List] = []
            while len(inserts) < 2:
                s, t = (int(v) for v in rng.integers(0, graph.n_nodes, size=2))
                if s != t and (s, t) not in graph.prob and all(
                    (s, t) != (a, b) for a, b, _ in inserts
                ):
                    inserts.append([s, t, round(float(rng.uniform(0.05, 0.4)), 6)])
            delta = {
                "inserts": inserts,
                "deletes": [list(e) for e in picked[:2]],
                "reweights": [
                    [s, t, round(float(rng.uniform(0.05, 0.4)), 6)]
                    for s, t in picked[2:]
                ],
            }
        graph.apply(delta)
        yield delta


def search_items(
    stream: RequestStream,
    n: int,
    rate: float,
    seed: Sequence[int],
    first_tag: int,
) -> Tuple[List[Item], List[Tuple[int, str]]]:
    """*n* search items at *rate* (Poisson) and the requests they carry."""
    requests = stream.take(n)
    offsets = arrival_offsets(n, rate, seed)
    items = [
        Item(due=float(t), path="/search", body=stream.body(r), tag=first_tag + i)
        for i, (t, r) in enumerate(zip(offsets, requests))
    ]
    return items, requests
