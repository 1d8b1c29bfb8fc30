"""Frozen scalar Algorithm 6 walk-index build - the reference for parity tests.

This is the per-transition loop the vectorized :meth:`repro.walks.WalkIndex.build`
replaced: one binary search and one ``random()`` call per step, a Python
dict per walk for first-visit bookkeeping and a Python set per node for
``I_L``. It reads the graph's CSR arrays directly, so it shares no code
with the build it checks.

``slot_contract=False`` is the original stream: a walk stopped by a dead
end draws nothing further, so the next walk starts on the next draw.
``slot_contract=True`` makes every walk reserve ``L`` draws and discard
those a dead end leaves unread - the stream the vectorized build uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.graph import SocialGraph


class ScalarWalkIndex:
    """The outputs of one scalar build, in their original Python shapes."""

    def __init__(self, paths, counts, steps, hit, reverse):
        self.paths: List[List[int]] = paths      # walk w = start * R + k
        self.counts: List[List[int]] = counts    # aligned with paths
        self.steps: List[int] = steps
        self.hit: np.ndarray = hit               # (L + 1, n); row 0 zero
        self.reverse: List[Set[int]] = reverse   # I_L per node


def _step(graph: SocialGraph, cumprobs: np.ndarray, node: int,
          rng: np.random.Generator) -> Optional[int]:
    """The original weighted ``WalkEngine.step``."""
    indptr = graph._out_indptr
    lo, hi = int(indptr[node]), int(indptr[node + 1])
    if lo == hi:
        return None
    base = cumprobs[lo - 1] if lo > 0 else 0.0
    total = cumprobs[hi - 1] - base
    draw = base + rng.random() * total
    j = int(np.searchsorted(cumprobs[lo:hi], draw, side="right"))
    j = min(j, hi - lo - 1)
    return int(graph._out_targets[lo + j])


def scalar_walk_index(
    graph: SocialGraph,
    length: int,
    samples: int,
    rng: np.random.Generator,
    *,
    slot_contract: bool = False,
) -> ScalarWalkIndex:
    """Sample ``samples`` weighted walks per node, walk by walk, step by step."""
    n = graph.n_nodes
    cumprobs = np.cumsum(graph._out_probs)
    inv_r = 1.0 / samples
    hit = np.zeros((length + 1, n), dtype=np.float64)
    reverse: List[Set[int]] = [set() for _ in range(n)]
    all_paths, all_counts, all_steps = [], [], []
    for start in range(n):
        for _ in range(samples):
            path: List[int] = [start]
            position: Dict[int, int] = {start: 0}
            counts: List[int] = [1]
            visited: Dict[int, float] = {start: inv_r}
            current = start
            steps = 0
            for j in range(1, length + 1):
                nxt = _step(graph, cumprobs, current, rng)
                if nxt is None:
                    break
                steps += 1
                if nxt not in visited:
                    visited[nxt] = inv_r
                    position[nxt] = len(path)
                    path.append(nxt)
                    counts.append(1)
                    reverse[nxt].add(start)
                else:
                    visited[nxt] += inv_r
                    counts[position[nxt]] += 1
                if hit[j][nxt] < visited[nxt]:
                    hit[j][nxt] = visited[nxt]
                current = nxt
            if slot_contract and steps < length:
                rng.random(length - steps)
            all_paths.append(path)
            all_counts.append(counts)
            all_steps.append(steps)
    return ScalarWalkIndex(all_paths, all_counts, all_steps, hit, reverse)
