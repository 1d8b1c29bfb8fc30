"""The percentile rule, the rate search and the open-loop client."""

import asyncio
import math

import numpy as np
import pytest

from loadgen import (
    HttpConnection,
    Item,
    Step,
    percentile,
    rate_search,
    run_phase,
    step_passes,
    summarize,
)


def test_tail_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1000)), 0.99) == 989  # 10 samples beyond
    assert percentile(list(range(999)), 0.99) is None  # only 9
    assert percentile(list(range(250)), 0.96) == 239
    assert percentile(list(range(249)), 0.96) is None


def test_median_and_summary_state_the_sample_count():
    assert percentile([3.0], 0.5) == 3.0
    assert percentile([], 0.5) is None
    assert percentile([5, 1, 3, 2, 4], 0.5) == 3
    out = summarize([float(v) for v in range(100)])
    assert out == {"n": 100, "p50": 49.0, "p90": 89.0, "p95": None, "p99": None,
                   "p99.9": None}


def test_failures_count_as_missing_every_limit():
    latencies = [0.001] * 990 + [math.inf] * 10
    ok, value = step_passes(latencies, quantile=0.98, limit_s=0.01, backlog_end=0, max_backlog=5)
    assert ok and value == 0.001
    latencies = [0.001] * 970 + [math.inf] * 30
    ok, value = step_passes(latencies, quantile=0.98, limit_s=0.01, backlog_end=0, max_backlog=5)
    assert not ok and value == math.inf


def test_growing_backlog_fails_a_step():
    ok, _ = step_passes([0.001] * 600, quantile=0.98, limit_s=0.01, backlog_end=31, max_backlog=30)
    assert not ok


def _search(capacity, lo, hi, resolution=0.05):
    seen = []

    async def probe(rate):
        seen.append(rate)
        return Step(rate=rate, ok=rate <= capacity)

    result, steps = asyncio.run(rate_search(probe, lo, hi, resolution))
    return result, steps, seen


def test_rate_search_finds_capacity_within_resolution():
    result, steps, _ = _search(capacity=530.0, lo=100.0, hi=3200.0)
    assert 530.0 / 1.05 <= result <= 530.0
    assert all(s.ok == (s.rate <= 530.0) for s in steps)


def test_rate_search_step_count_depends_only_on_bounds():
    counts = {len(_search(c, 100.0, 3200.0)[1]) for c in (150.0, 530.0, 2900.0)}
    assert counts == {7}


def test_rate_search_saturates_at_the_bounds():
    assert _search(capacity=10.0, lo=100.0, hi=3200.0)[0] == 100.0
    assert _search(capacity=1e9, lo=100.0, hi=3200.0)[0] >= 3200.0 / 1.05


def test_rate_search_on_a_queueing_latency_curve():
    """M/M/1-like latencies: p98 crosses a 10 ms limit near 1 - ln(50)/(mu*0.01)."""
    mu = 1000.0
    rng = np.random.default_rng(7)

    async def probe(rate):
        if rate >= mu:
            return Step(rate=rate, ok=False)
        samples = rng.exponential(1.0 / (mu - rate), size=2000)
        ok, _ = step_passes(samples.tolist(), quantile=0.98, limit_s=0.01,
                            backlog_end=0, max_backlog=100)
        return Step(rate=rate, ok=ok)

    result, _ = asyncio.run(rate_search(probe, 100.0, 3200.0))
    exact = mu - math.log(50) / 0.01  # ~609 rps
    assert exact * 0.85 <= result <= exact * 1.1


def test_rate_search_rejects_bad_bounds():
    with pytest.raises(ValueError):
        asyncio.run(rate_search(None, 10.0, 5.0))


def test_open_loop_client_times_from_due_and_shares_connections():
    """A slow echo server: requests due together queue at the client."""

    async def scenario():
        async def handle(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b""):
                        break
                    if header.lower().startswith(b"content-length"):
                        length = int(header.split(b":")[1])
                body = await reader.readexactly(length)
                await asyncio.sleep(0.02)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        conns = [HttpConnection("127.0.0.1", port, 5.0) for _ in range(2)]
        items = [Item(due=0.0, path="/search", body=b'{"n": %d}' % i, tag=i) for i in range(4)]
        try:
            return await run_phase("t", conns, items)
        finally:
            for c in conns:
                await c.close()
            server.close()
            await server.wait_closed()

    phase = asyncio.run(scenario())
    assert phase.counts("/search") == {"sent": 4, "succeeded": 4, "failed": 0}
    latencies = sorted(o.latency for o in phase.outcomes)
    # Two connections, 20 ms each: two answers near 20 ms, two near 40 ms.
    assert latencies[1] < 0.035 <= latencies[2]
    assert all(o.body == o.item.body for o in phase.outcomes)
    assert phase.backlog_max >= 2
