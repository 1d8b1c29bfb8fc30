"""Walk index construction - Algorithm 6, ``INVERTTVHIT_INDEX`` (S7).

For every node ``w`` the index stores ``R`` sampled L-length random walks
(``I[R][n]``), a *time-variant visiting frequency* table ``H[L][n]`` whose
entry ``H[j][v]`` is the maximum per-walk visiting frequency of node ``v``
observed at walk step ``j`` (in units of ``1/R``), and a sampled reverse
reachability index ``I_L[v]`` listing the walk start nodes whose walks
reached ``v`` (the Monte-Carlo stand-in for "nodes that can reach v within L
hops" used by Algorithms 1 and 4).

Storage is column-wise: a ``-1``-padded path matrix (row ``v * R + k`` is
walk ``k`` of node ``v``), visit counts aligned with it and ``I_L`` as CSR.

The paper bounds the sample size ``R`` via the Hoeffding inequality;
:func:`hoeffding_sample_size` reproduces that bound so callers can pick
``R`` from a target accuracy instead of guessing.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set

import numpy as np

from .._utils import SeedLike, require_in_range
from ..exceptions import ConfigurationError, IndexNotBuiltError
from ..graph import SocialGraph
from .engine import WalkEngine, WalkRecord, first_visits

__all__ = ["WalkIndex", "hoeffding_sample_size"]

#: Walks advanced together by one block of :meth:`WalkIndex.build`.
_BLOCK_WALKS = 1 << 14


def hoeffding_sample_size(epsilon: float, delta: float) -> int:
    """Sample size ``R`` so a mean of [0,1] variables errs < *epsilon* w.p. >= 1-*delta*.

    Standard Hoeffding bound: ``R >= ln(2/delta) / (2 * epsilon^2)``. The
    paper invokes this to size its walk samples (§4.1).
    """
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon!r}")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta!r}")
    return int(math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon)))


class WalkIndex:
    """Materialized random-walk samples for every node of a graph.

    Parameters
    ----------
    graph:
        The social graph to index.
    walk_length:
        ``L`` - the maximum number of transitions per walk.
    samples_per_node:
        ``R`` - walks sampled from every node.
    weighted:
        Passed to :class:`~repro.walks.engine.WalkEngine`.
    seed:
        Seed or generator; a fixed seed makes the whole index deterministic.

    Call :meth:`build` (or construct via :meth:`built`) before querying.
    """

    def __init__(self, graph: SocialGraph, walk_length: int, samples_per_node: int,
                 *, weighted: bool = True, seed: SeedLike = None):
        require_in_range("walk_length", walk_length, 1)
        require_in_range("samples_per_node", samples_per_node, 1)
        self._graph = graph
        self._length = int(walk_length)
        self._samples = int(samples_per_node)
        self._engine = WalkEngine(graph, weighted=weighted, seed=seed)
        # The column store, filled by build() or load (see _adopt).
        self._paths = self._counts = self._hit_frequency = None
        self._reverse_indptr = self._reverse_starts = None
        self._records: Dict[int, List[WalkRecord]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def built(cls, graph: SocialGraph, walk_length: int, samples_per_node: int,
              *, weighted: bool = True, seed: SeedLike = None) -> "WalkIndex":
        """Construct and immediately :meth:`build` an index."""
        return cls(graph, walk_length, samples_per_node, weighted=weighted, seed=seed).build()

    @property
    def graph(self) -> SocialGraph:
        """The indexed graph."""
        return self._graph

    @property
    def walk_length(self) -> int:
        """``L`` - maximum transitions per walk."""
        return self._length

    @property
    def samples_per_node(self) -> int:
        """``R`` - walks sampled per node."""
        return self._samples

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._paths is not None

    def _require_built(self) -> None:
        if self._paths is None:
            raise IndexNotBuiltError("WalkIndex.build() has not been called")

    # ------------------------------------------------------------------
    def build(self) -> "WalkIndex":
        """Run Algorithm 6: sample walks and fill I, H and I_L.

        Idempotent: calling build twice leaves the first result in place.
        Blocks of walks advance together (:meth:`WalkEngine.walk_block`).
        """
        if self._paths is not None:
            return self
        n, length, samples = self._graph.n_nodes, self._length, self._samples
        # Row j (1-based step) holds H[j][v]; row 0 stays zero.
        hit = np.zeros((length + 1, n), dtype=np.float64)
        # freq[c] is c/R summed as c sequential additions of 1/R.
        freq = np.cumsum(np.r_[0.0, np.full(length + 1, 1.0 / samples)])
        starts = np.repeat(np.arange(n, dtype=np.int64), samples)
        paths, counts = [], []
        for lo in range(0, max(n * samples, 1), _BLOCK_WALKS):  # >= 1 block
            trail = self._engine.walk_block(starts[lo : lo + _BLOCK_WALKS], length)
            block_paths, block_counts, running = first_visits(trail)
            paths.append(block_paths)
            counts.append(block_counts)
            # H[j][v]: the highest visit frequency of v at step j of any walk.
            rows, steps = np.nonzero(trail[:, 1:] >= 0)
            steps += 1
            np.maximum.at(hit, (steps, trail[rows, steps]), freq[running[rows, steps]])
        self._adopt(np.concatenate(paths), np.concatenate(counts), hit)
        return self

    def _adopt(self, paths: np.ndarray, counts: np.ndarray, hit: np.ndarray) -> None:
        """Install the columns, trimmed to the longest path, and derive ``I_L``.

        ``I_L[v]`` collects the start of every walk whose path holds ``v``
        past position 0, sorted and deduplicated into CSR arrays. A walk's
        steps are its total visits minus one, so they need no column.
        """
        width = int((paths >= 0).sum(axis=1).max(initial=1))
        paths = np.ascontiguousarray(paths[:, :width])
        counts = np.ascontiguousarray(counts[:, :width])
        n = self._graph.n_nodes
        rows, cols = np.nonzero(paths[:, 1:] >= 0)
        keys = np.sort(paths[rows, cols + 1] * n + rows // self._samples)
        reached, members = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(reached, minlength=n), out=indptr[1:])
        for array in (paths, counts):
            array.setflags(write=False)
        self._paths, self._counts, self._hit_frequency = paths, counts, hit
        self._reverse_indptr, self._reverse_starts = indptr, members
        self._records = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def walks_from(self, node: int) -> List[WalkRecord]:
        """The ``R`` walk records sampled from *node* (``I[.][node]``).

        Cut from the columns on first request and memoized per node.
        """
        self._require_built()
        node = self._graph._check_node(node)
        records = self._records.get(node)
        if records is None:
            rows = range(node * self._samples, (node + 1) * self._samples)
            records = self._records[node] = [
                WalkRecord.from_row(self._paths[k], self._counts[k]) for k in rows
            ]
        return records

    def padded_paths(self) -> np.ndarray:
        """Every walk's first-visit path as one padded int matrix.

        Shape ``(n_nodes * R, width)`` int64, padded with ``-1``: row
        ``v * R + k`` is walk ``k`` of node ``v`` (column 0 the start
        node), so a batch of source nodes maps to row blocks with pure
        arithmetic - no per-record Python loop. The index's own read-only
        path column, not a copy.
        """
        self._require_built()
        return self._paths

    def hitting_frequency(self, step: int, node: int) -> float:
        """``H[step][node]`` - max per-walk visit frequency at walk step *step*.

        *step* is 1-based, matching the paper's Iteration-1 .. Iteration-L.
        """
        self._require_built()
        require_in_range("step", step, 1, self._length)
        return float(self._hit_frequency[step][self._graph._check_node(node)])

    def hitting_frequencies(self) -> np.ndarray:
        """The full ``H`` table, shape ``(L+1, n)``; row 0 is all zeros."""
        self._require_built()
        return self._hit_frequency

    def reverse_reachable(self, node: int) -> np.ndarray:
        """``I_L[node]`` - sampled set of start nodes whose walks hit *node*.

        Sorted ``int64`` array; does not include *node* itself unless one of
        its own walks looped back to it (it cannot: the start is recorded as
        already visited).
        """
        self._require_built()
        node = self._graph._check_node(node)
        lo, hi = self._reverse_indptr[node : node + 2]
        return self._reverse_starts[lo:hi].copy()

    def reverse_reachable_set(self, node: int) -> Set[int]:
        """``I_L[node]`` as a set."""
        return set(self.reverse_reachable(node).tolist())

    def memory_bytes(self) -> int:
        """Resident size of the index columns and tables, in bytes."""
        self._require_built()
        arrays = (self._paths, self._counts, self._hit_frequency,
                  self._reverse_indptr, self._reverse_starts)
        return int(sum(array.nbytes for array in arrays))
