"""Random-walk engine (substrate S6).

A walk of length ``L`` starts at a node and repeatedly moves to an
out-neighbor chosen with probability proportional to the edge's transition
probability (uniform choice is available for ablations). Following
Algorithm 6 of the paper, a walk *may* revisit nodes, but the recorded path
is deduplicated: each node is appended only on its first visit. A walk
terminates early at a dead end (node with no out-edges).

:class:`WalkEngine` pre-computes one cumulative probability table over the
CSR layout, so a step is a single binary search and a block of walks steps
together with one vectorized search (:meth:`WalkEngine.advance`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .._utils import SeedLike, coerce_rng, require_in_range
from ..graph import SocialGraph

__all__ = ["WalkEngine", "WalkRecord", "first_visits"]


class WalkRecord:
    """Result of one sampled walk.

    Attributes
    ----------
    path:
        ``int64`` array of nodes in first-visit order; ``path[0]`` is the
        start node (this mirrors Algorithm 6's ``I[i][w]``, with the start
        prepended so positions double as hop distances along the walk).
    visit_counts:
        Mapping-free representation of Algorithm 6's ``visited[]``: the
        number of times each node in *path* was visited during the walk,
        aligned with *path*.
    steps_taken:
        Number of transitions actually performed (``<= L`` when the walk hit
        a dead end).
    """

    __slots__ = ("path", "visit_counts", "steps_taken")

    def __init__(self, path: np.ndarray, visit_counts: np.ndarray, steps_taken: int):
        self.path = path
        self.visit_counts = visit_counts
        self.steps_taken = steps_taken

    @classmethod
    def from_row(cls, path: np.ndarray, counts: np.ndarray) -> "WalkRecord":
        """The record of one ``-1``-padded path row and its aligned counts."""
        keep = path >= 0
        return cls(path[keep], counts[keep].astype(np.int64), int(counts.sum()) - 1)

    def __len__(self) -> int:
        return int(self.path.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WalkRecord(path={self.path.tolist()}, steps={self.steps_taken})"


class WalkEngine:
    """Samples transition-probability-weighted random walks on a graph.

    Parameters
    ----------
    graph:
        The social graph to walk on.
    weighted:
        When true (default), the next hop is chosen with probability
        proportional to the edge transition probability; when false, chosen
        uniformly among out-neighbors (the literal reading of Algorithm 6's
        "randomly selected neighbor" - kept as an ablation knob; DESIGN.md
        note 1 explains why weighted is the default).
    seed:
        Seed or generator for the walk stream.
    """

    def __init__(self, graph: SocialGraph, *, weighted: bool = True, seed: SeedLike = None):
        self._graph = graph
        self._weighted = bool(weighted)
        self._rng = coerce_rng(seed)
        # Per-node cumulative transition mass, aligned with the CSR layout.
        self._cumprobs = np.cumsum(graph._out_probs)
        self._indptr = graph._out_indptr
        self._targets = graph._out_targets

    @property
    def graph(self) -> SocialGraph:
        """The underlying graph."""
        return self._graph

    @property
    def weighted(self) -> bool:
        """Whether steps are transition-probability weighted."""
        return self._weighted

    # ------------------------------------------------------------------
    def step(self, node: int) -> Optional[int]:
        """One transition out of *node*; ``None`` at a dead end (no draw)."""
        if self._indptr[node] == self._indptr[node + 1]:
            return None
        draw = np.asarray([self._rng.random()])
        return int(self.advance(np.asarray([node]), draw)[0])

    def advance(self, nodes: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """One transition out of each of *nodes*, driven by uniform *draws*.

        Weighted: one global ``searchsorted`` of the cumulative table, clamped
        to each node's CSR range. Unweighted: neighbour ``floor(u * deg)``.
        Dead ends yield ``-1``.
        """
        lo, hi = self._indptr[nodes], self._indptr[nodes + 1]
        out = np.full(nodes.shape, -1, dtype=np.int64)
        live = np.flatnonzero(hi > lo)
        lo, hi, u = lo[live], hi[live], draws[live]
        if self._weighted:
            cum = self._cumprobs
            base = np.where(lo > 0, cum[lo - 1], 0.0)
            pick = np.searchsorted(cum, base + u * (cum[hi - 1] - base), side="right")
        else:
            pick = lo + (u * (hi - lo)).astype(np.int64)
        out[live] = self._targets[np.clip(pick, lo, hi - 1)]
        return out

    def walk_block(self, starts: np.ndarray, length: int) -> np.ndarray:
        """Advance one walk from each of *starts* together, *length* steps.

        Returns the ``(len(starts), length + 1)`` trail: column ``j`` is the
        node each walk reached at step ``j`` (column 0 its start), ``-1``
        after a dead end. Walk ``w`` takes step ``j`` from draw
        ``w * length + j - 1``; a dead end leaves the rest of its slot unread.
        """
        draws = self._rng.random(starts.size * length).reshape(starts.size, length)
        trail = np.full((starts.size, length + 1), -1, dtype=np.int64)
        trail[:, 0] = starts
        live = np.arange(starts.size)
        for j in range(1, length + 1):
            nxt = self.advance(trail[live, j - 1], draws[live, j - 1])
            live, nxt = live[nxt >= 0], nxt[nxt >= 0]
            trail[live, j] = nxt
        return trail

    def walk(self, start: int, length: int) -> WalkRecord:
        """Sample one walk of up to *length* transitions from *start*.

        The returned record's ``path`` is the deduplicated first-visit order
        (Algorithm 6 semantics); revisits only increase ``visit_counts``.
        """
        return self.walks(start, 1, length)[0]

    def walks(self, start: int, count: int, length: int) -> List[WalkRecord]:
        """Sample *count* independent walks from *start* as one block."""
        require_in_range("count", count, 1)
        require_in_range("length", length, 0)
        starts = np.full(count, self._graph._check_node(start), dtype=np.int64)
        paths, counts, _ = first_visits(self.walk_block(starts, length))
        return [WalkRecord.from_row(p, c) for p, c in zip(paths, counts)]


def first_visits(trail: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold walk trails (see :meth:`WalkEngine.walk_block`) into Algorithm 6 form.

    Returns ``(paths, counts, running)``, all shaped like *trail*: each
    walk's nodes in first-visit order, ``-1``-padded; their visit counts;
    and ``running[w, j]``, the visits to ``trail[w, j]`` up to and including
    step ``j`` (meaningless where the trail is ``-1``).
    """
    same = trail[:, :, None] == trail[:, None, :]
    running = np.tril(same).sum(axis=2)
    first = (running == 1) & (trail >= 0)
    rank = np.cumsum(first, axis=1) - 1
    rows, cols = np.nonzero(first)
    paths = np.full(trail.shape, -1, dtype=np.int64)
    counts = np.zeros(trail.shape, dtype=np.int32)
    paths[rows, rank[rows, cols]] = trail[rows, cols]
    counts[rows, rank[rows, cols]] = same[rows, cols].sum(axis=1)
    return paths, counts, running
