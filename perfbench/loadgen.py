"""Open-loop HTTP load generator: one thread, at most two keep-alive sockets.

A phase is a list of :class:`Item`\\ s, each due at a fixed offset from the
phase start. A dispatcher releases every item at its due time into one
client queue, whatever the daemon is doing, and each connection worker
takes the next item as soon as its previous response is in. So the
daemon sees at most one request per connection in flight, and a daemon
stall shows up as a growing client queue. Latency is measured from the
item's *due* time, so the wait a stall imposes on later requests counts.
How late the dispatcher itself woke up is reported separately.

Searches and ``/admin/delta`` posts share the same connections.
"""

from __future__ import annotations

import asyncio
import gc
import math
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

#: A status for requests that got no HTTP response.
TIMEOUT = -1
CONNECTION_ERROR = 0

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def steal_ticks() -> int:
    """Clock ticks the hypervisor has taken from this machine's CPUs so far
    (0 where ``/proc/stat`` has no steal column)."""
    try:
        with open("/proc/stat") as handle:
            return int(handle.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


@dataclass(frozen=True)
class Item:
    """One request of a phase."""

    due: float  # seconds after the phase start
    path: str  # "/search" or "/admin/delta"
    body: bytes
    tag: int = -1  # caller's index (which request or delta this is)


@dataclass
class Outcome:
    """What happened to one item."""

    item: Item
    sent: float  # absolute loop time the request was written
    done: float  # absolute loop time the response was read (or given up)
    status: int
    body: bytes  # kept only for items the phase was asked to keep
    nbytes: int  # response body length
    due_at: float  # absolute due time

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        """Seconds from due time to response; ``inf`` when not answered 200."""
        return self.done - self.due_at if self.ok else math.inf

    @property
    def service(self) -> float:
        """Seconds from write to response (no client queueing)."""
        return self.done - self.sent


@dataclass
class PhaseResult:
    """Every outcome of one phase plus how the generator kept up."""

    name: str
    outcomes: List[Outcome]
    lateness: List[float]  # dispatcher wake-up lateness per item, seconds
    backlog_end: int  # client queue length when the last item was released
    backlog_max: int
    wall_s: float

    def of(self, path: str) -> List[Outcome]:
        return [o for o in self.outcomes if o.item.path == path]

    def counts(self, path: str) -> Dict[str, int]:
        outs = self.of(path)
        ok = sum(1 for o in outs if o.ok)
        return {"sent": len(outs), "succeeded": ok, "failed": len(outs) - ok}


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank *q*-quantile, or ``None`` when it cannot be trusted.

    A tail quantile (``q > 0.5``) needs at least :data:`MIN_BEYOND`
    samples beyond it; the median needs one sample.
    """
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if q > 0.5 and n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def summarize(latencies: Sequence[float], quantiles=(0.5, 0.9, 0.95, 0.99, 0.999)) -> Dict:
    """``{"n": .., "p50": .., "p90": .., ...}`` in the input's unit; ``None``
    where the sample is too small (a failed request is ``inf``)."""
    out: Dict = {"n": len(latencies)}
    for q in quantiles:
        out[f"p{round(q * 100, 1):g}"] = percentile(latencies, q)
    return out


class HttpConnection:
    """A minimal HTTP/1.1 keep-alive client over asyncio streams."""

    def __init__(self, host: str, port: int, timeout: float):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _exchange(self, head: bytes, body: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            await self._connect()
        assert self._reader is not None and self._writer is not None
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("connection closed by server")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        close = False
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection" and value.strip().lower() == b"close":
                close = True
        payload = await self._reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, payload

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        """Send one request; ``(status, body)``. Never raises for I/O trouble:
        a timeout is :data:`TIMEOUT` and a socket error :data:`CONNECTION_ERROR`
        (the connection is then reopened for the next request)."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        try:
            return await asyncio.wait_for(self._exchange(head, body), self._timeout)
        except asyncio.TimeoutError:
            await self.close()
            return TIMEOUT, b""
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError, IndexError):
            await self.close()
            return CONNECTION_ERROR, b""


async def run_phase(
    name: str,
    connections: Sequence[HttpConnection],
    items: Sequence[Item],
    *,
    keep_body: Callable[[Item], bool] = lambda item: True,
) -> PhaseResult:
    """Release *items* on schedule and answer them over *connections*."""
    loop = asyncio.get_running_loop()
    queue: "asyncio.Queue[Optional[Tuple[Item, float]]]" = asyncio.Queue()
    outcomes: List[Outcome] = []
    lateness: List[float] = []
    backlog = {"max": 0, "end": 0}

    async def dispatch() -> None:
        for item in items:
            due_at = start + item.due
            delay = due_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(max(0.0, loop.time() - due_at))
            queue.put_nowait((item, due_at))
            backlog["max"] = max(backlog["max"], queue.qsize())
        backlog["end"] = queue.qsize()
        for _ in connections:
            queue.put_nowait(None)

    async def work(conn: HttpConnection) -> None:
        while True:
            entry = await queue.get()
            if entry is None:
                return
            item, due_at = entry
            sent = loop.time()
            status, body = await conn.request("POST", item.path, item.body)
            outcomes.append(Outcome(
                item=item, sent=sent, done=loop.time(), status=status,
                body=body if keep_body(item) else b"", nbytes=len(body),
                due_at=due_at,
            ))

    # The client's own garbage collections would show up as latency.
    gc.collect()
    gc.disable()
    start = loop.time() + 0.02  # lets the dispatcher start before the first due time
    try:
        tasks = [asyncio.ensure_future(dispatch())]
        tasks += [asyncio.ensure_future(work(c)) for c in connections]
        await asyncio.gather(*tasks)
    finally:
        gc.enable()
    return PhaseResult(
        name=name,
        outcomes=outcomes,
        lateness=lateness,
        backlog_end=backlog["end"],
        backlog_max=backlog["max"],
        wall_s=loop.time() - start,
    )


@dataclass
class Step:
    """One rate-search probe."""

    rate: float
    ok: bool
    detail: Dict = field(default_factory=dict)


def step_passes(
    latencies: Sequence[float],
    *,
    quantile: float,
    limit_s: float,
    backlog_end: int,
    max_backlog: int,
) -> Tuple[bool, Optional[float]]:
    """A step passes when its *quantile* latency (failures are ``inf``) is
    measurable and within *limit_s*, and the client queue did not grow."""
    value = percentile(latencies, quantile)
    ok = value is not None and value <= limit_s and backlog_end <= max_backlog
    return ok, value


async def rate_search(
    probe: Callable[[float], Awaitable[Step]],
    lo: float,
    hi: float,
    resolution: float = 0.05,
) -> Tuple[float, List[Step]]:
    """Highest passing rate between *lo* and *hi*, to within *resolution*.

    Bisects in log space, assuming *lo* passes and *hi* fails; the result
    is the highest rate seen to pass, or *lo* when none did (the steps say
    which). The number of probes depends only on the bounds.
    """
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got {lo}, {hi}")
    steps: List[Step] = []
    while hi / lo > 1.0 + resolution:
        step = await probe(math.sqrt(lo * hi))
        steps.append(step)
        if step.ok:
            lo = step.rate
        else:
            hi = step.rate
    return lo, steps
