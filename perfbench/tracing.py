"""In-memory span recorder that wraps public functions of the program.

The benchmark does not edit the program to trace it. Instead a recorder
replaces module or class attributes (``repro.serve.server.encode_response``,
``repro.core.search.PersonalizedSearcher.search_many``, ...) with thin
wrappers that time each call. Spans nest through a per-thread parent
stack, so the daemon's event-loop thread and its search-executor thread
keep separate trees. A span's self time is its duration minus the time
its direct children cover.

Spans are aggregated as they close (count, total and self seconds) under
a key naming the span and the root of its tree (``"root>name"``; a root
span is keyed by its own name), so Γ fetches made while answering a
search and those made while applying a delta stay apart. No raw spans
are kept, so a run of hundreds of thousands of fetches stays small in
memory.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class SpanTotals:
    """Aggregate of every closed span sharing one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "total_s": self.total_s, "self_s": self.self_s}


@dataclass
class _Frame:
    name: str
    start: float
    parent: Optional[str]
    root: str
    child_s: float = 0.0


@dataclass
class SpanRecorder:
    """Collects spans from any number of threads.

    ``enabled`` can be flipped at run time; a disabled recorder's
    wrappers call straight through.
    """

    enabled: bool = True
    clock: Callable[[], float] = time.perf_counter
    totals: Dict[str, SpanTotals] = field(default_factory=dict)

    def __post_init__(self):
        self._local = threading.local()
        # Re-entrant: a signal handler may snapshot while its thread records.
        self._lock = threading.RLock()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> None:
        stack = self._stack()
        if stack:
            parent, root = stack[-1].name, stack[0].name
        else:
            parent, root = None, name
        stack.append(_Frame(name, self.clock(), parent, root))

    def close(self) -> None:
        end = self.clock()
        stack = self._stack()
        frame = stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
        key = frame.name if frame.parent is None else f"{frame.root}>{frame.name}"
        with self._lock:
            totals = self.totals.get(key)
            if totals is None:
                totals = self.totals[key] = SpanTotals()
            totals.count += 1
            totals.total_s += duration
            totals.self_s += duration - frame.child_s

    def span(self, name: str):
        """Context manager recording one span."""
        return _SpanContext(self, name)

    def wrap(
        self,
        func: Callable,
        name: str,
        accept: Optional[Callable[..., bool]] = None,
    ) -> Callable:
        """Return *func* wrapped in a span called *name*.

        *accept*, when given, sees the call's arguments and decides
        whether this call is recorded (used to keep only the encodes of
        search responses).
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled or (accept is not None and not accept(*args, **kwargs)):
                return func(*args, **kwargs)
            self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close()

        traced.__wrapped_by_perfbench__ = True
        return traced

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "totals": {k: v.as_dict() for k, v in sorted(self.totals.items())},
            }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str):
        self._recorder = recorder
        self._name = name
        self._opened = False

    def __enter__(self):
        self._opened = self._recorder.enabled
        if self._opened:
            self._recorder.open(self._name)
        return self

    def __exit__(self, *exc):
        if self._opened:
            self._recorder.close()
        return False


def resolve(target: str) -> Tuple[object, str]:
    """Split ``"pkg.mod:Class.attr"`` into (owner object, attribute name)."""
    module_name, _, attr_path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(
    recorder: SpanRecorder,
    targets: List[Tuple[str, str, Optional[Callable[..., bool]]]],
) -> Callable[[], None]:
    """Patch every ``(target, span name, accept)``; return an undo function."""
    undo = []
    for target, name, accept in targets:
        owner, attr = resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, recorder.wrap(original, name, accept))
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _is_search_payload(status, payload=None, *args, **kwargs) -> bool:
    return isinstance(payload, dict) and "results" in payload


#: Serving-path wrap points: ``module:attribute`` -> span name. Functions
#: the daemon imported by name are patched where it looks them up
#: (``repro.serve.server``), not where they are defined.
SERVE_TARGETS: List[Tuple[str, str, Optional[Callable[..., bool]]]] = [
    ("repro.serve.server:parse_search_request", "serve.protocol.parse", None),
    ("repro.serve.server:results_payload", "serve.protocol.results_payload", None),
    ("repro.serve.server:encode_response", "serve.protocol.encode", _is_search_payload),
    ("repro.core.serve_facade:ServingEngine.search_batch", "core.serve_facade.search", None),
    ("repro.core.serve_facade:ServingEngine.search", "core.serve_facade.search", None),
    ("repro.core.serve_facade:ServingEngine.apply_delta", "core.serve_facade.apply_delta", None),
    ("repro.core.search:PersonalizedSearcher.search_many", "core.search.kernel", None),
    ("repro.core.search:PersonalizedSearcher.search", "core.search.kernel", None),
    ("repro.topics:TopicIndex.related_topics", "core.search.plan_compile", None),
    ("repro.core.propagation:PropagationIndex.entry", "core.propagation.fetch", None),
    ("repro.core.propagation:PropagationIndex.get_cached", "core.propagation.fetch", None),
]

