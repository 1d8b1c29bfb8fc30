"""The typed record every run writes, and the daemon counters it reads.

Counters come from the daemon's ``/metrics`` Prometheus text. Means are
taken from a histogram's ``_sum`` / ``_count`` only: every histogram in
the registry shares one latency-seconds bucket ladder, so bucket
quantiles of non-latency histograms (``serve.batch_size``) are wrong.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

RECORD_SCHEMA = "perfbench/v1"


def parse_prometheus(text: str) -> Dict[str, float]:
    """Unlabelled samples of a Prometheus exposition: ``{name: value}``."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


class Counters:
    """Differences between two ``/metrics`` scrapes, by registry name."""

    def __init__(self, before: Dict[str, float], after: Dict[str, float]):
        self._before = before
        self._after = after

    @staticmethod
    def _prom(name: str) -> str:
        return "repro_" + name.replace(".", "_")

    def delta(self, name: str) -> float:
        key = self._prom(name)
        return self._after.get(key, 0.0) - self._before.get(key, 0.0)

    def gauge(self, name: str) -> float:
        return self._after.get(self._prom(name), 0.0)

    def mean(self, histogram: str) -> Optional[float]:
        count = self.delta(histogram + "_count")
        return self.delta(histogram + "_sum") / count if count else None

    def ratio(self, hits: str, misses: str) -> Optional[float]:
        h, m = self.delta(hits), self.delta(misses)
        return h / (h + m) if h + m else None


@dataclass
class Metric:
    value: float
    unit: str


@dataclass
class Gate:
    value: object
    bound: object
    ok: bool


@dataclass
class PhaseRecord:
    """Requests sent, succeeded and failed in one phase, and generator lag."""

    name: str
    sent: int
    succeeded: int
    failed: int
    offered_rps: float
    wall_s: float
    late_p50_ms: Optional[float]
    late_max_ms: float
    backlog_max: int
    latency_ms: Dict = field(default_factory=dict)  # {"n", "p50", ..., "p99.9"}


@dataclass
class Environment:
    git_sha: str
    nproc: int
    python: str
    numpy: str

    @staticmethod
    def capture(root: Path) -> "Environment":
        import numpy

        return Environment(
            git_sha=_git_sha(root), nproc=os.cpu_count() or 1,
            python=platform.python_version(), numpy=numpy.__version__,
        )


def _git_sha(root: Path) -> str:
    """HEAD of *root*'s own ``.git`` (read directly, never a parent's)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class RunRecord:
    schema: str
    environment: Environment
    workload: str
    seed: int
    trace: bool
    seconds: float
    phases: List[PhaseRecord] = field(default_factory=list)
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    tracing_overhead: Optional[Dict] = None
    gates: Dict[str, Gate] = field(default_factory=dict)
    checks: Dict[str, Gate] = field(default_factory=dict)
    notes: Dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(g.ok for g in self.gates.values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True, default=str))
