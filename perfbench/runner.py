"""One benchmark run: build, serve, load, check, and report.

An untraced run (``trace=False``) measures the end-to-end metrics in
:data:`ROUNDS` rounds, so every metric samples the whole run rather than
one stretch of it. Each round:

1. **Set-up**: ``pit-search build-index --shard-nodes`` and
   ``build-summaries`` run side by side as child processes, then
   ``pit-search serve`` starts over their output and is ready when
   ``GET /readyz`` answers 200.
2. **Warm-up** (workloads whose working set fits): every distinct
   user-query pair once.
3. **Nominal phase**: the workload's open-loop schedule for
   ``seconds / ROUNDS`` seconds.
4. **Deltas**: the same :data:`DELTAS` graph deltas, one after another.
5. **Final probe**: a fixed request set over the final graph.
6. The daemon drains and stops.

Set-up time is the median over the rounds, build times the mean, delta
latency the median of every delta, and search latency the lowest of the rounds'
median latencies: interference from outside the program only slows a
round down. The gates compare sampled responses with
an in-process engine over the first round's artifacts as built, and each
round's final probe with a from-scratch engine over the final graph.

A traced run (``trace=True``) reports the per-layer metrics instead. It
builds once, serves a nominal phase of ``seconds / 2`` from a plain
daemon and then runs the rate search against it, then serves the same
nominal phase from a traced daemon (the p50 difference is the tracing
overhead), reads that daemon's ``/metrics`` counters around each phase,
and replays the offline build in-process under spans.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import gates
import tracing
from loadgen import (
    HttpConnection,
    Item,
    PhaseResult,
    Step,
    percentile,
    rate_search,
    run_phase,
    steal_ticks,
    step_passes,
    summarize,
)
from procs import Daemon, child_env, cpu_split, http_get, run_concurrently
from record import (
    RECORD_SCHEMA,
    Counters,
    Environment,
    Gate,
    Metric,
    PhaseRecord,
    RunRecord,
    parse_prometheus,
)
from workloads import (
    DATASET_NODES,
    DATASET_SEED,
    K,
    SHARD_NODES,
    RequestStream,
    TrackedGraph,
    Workload,
    delta_stream,
    search_items,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

ROUNDS = 4
#: Graph deltas each daemon applies after its nominal phase (every fifth
#: is an aging step).
DELTAS = 10
#: A run sends at least this many nominal searches.
MIN_NOMINAL = 400
#: Rate-search resolution (ratio between the last passing and failing rate).
RATE_RESOLUTION = 0.05
#: A step fails when the client queue still holds this share of its requests
#: when the last one is released.
BACKLOG_SHARE = 0.05
REQUEST_TIMEOUT_S = 10.0
PROBE_REQUESTS = 60
#: Keep (and check) the response of roughly one search in this many.
VERIFY_EVERY = 29
THETA = 0.002


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


class Run:
    """State of one run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        from repro.datasets.twitter import data_2k

        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = child_env(SRC)
        # The load generator (this process) and the daemon get their own CPUs.
        self.all_cpus = set(os.sched_getaffinity(0))
        self.client_cpus, self.daemon_cpus = cpu_split() or (None, None)
        self.work = WORK / f"{workload.name}-{seed}-{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.record = RunRecord(
            schema=RECORD_SCHEMA, environment=Environment.capture(ROOT),
            workload=workload.name, seed=seed, trace=trace, seconds=seconds,
        )
        # The benchmark's own copy of the dataset: the source of query tokens,
        # the tracked graph for deltas, and the reference engines' input.
        self.bundle = data_2k(
            seed=DATASET_SEED, n_nodes=DATASET_NODES, with_corpus=False
        )
        self.stream = RequestStream(
            workload, self.bundle.topic_index.labels, DATASET_NODES, seed
        )
        self.tracked = TrackedGraph(DATASET_NODES, *self.bundle.graph.edge_arrays())
        # The edit stream belongs to the dataset, like the graph: every daemon
        # of every run applies the same deltas.
        self.deltas = list(delta_stream(self.tracked, DATASET_SEED, DELTAS))
        if trace:
            self.nominal = [self._nominal_items(seconds / 2, 0)]
        else:
            self.nominal = [
                self._nominal_items(seconds / ROUNDS, r) for r in range(ROUNDS)
            ]
        self.probe_set = self.stream.take(PROBE_REQUESTS)
        self.attempted = 0
        self.failed = 0
        self.steal_ticks = 0

    # ------------------------------------------------------------------
    # Child processes
    # ------------------------------------------------------------------
    def _cli(self, *args: str) -> List[str]:
        return [
            sys.executable, "-m", "repro.cli", *args,
            "--dataset", "data_2k", "--size", str(DATASET_NODES),
            "--seed", str(DATASET_SEED),
        ]

    def build(self, out: Path):
        """Both CLI builds side by side; returns their :class:`Finished`."""
        index, summaries = run_concurrently(
            [
                self._cli("build-index", "--shard-nodes", str(SHARD_NODES),
                          "--output", str(out / "shards")),
                self._cli("build-summaries", "--output", str(out / "summaries.json")),
            ],
            self.env, out / "logs", cpus=self.all_cpus,
        )
        return index, summaries

    def start_daemon(self, out: Path, name: str, trace_out: Optional[Path] = None) -> Daemon:
        args = self._cli()[3:] + [
            "--summaries", str(out / "summaries.json"),
            "--index-dir", str(out / "shards"),
        ]
        if self.w.shard_cache_mb is not None:
            args += ["--shard-cache-mb", str(self.w.shard_cache_mb)]
        daemon = Daemon(args, self.env, self.work / f"{name}.log", trace_out,
                        cpus=self.daemon_cpus)
        try:
            daemon.wait_ready()
        except BaseException:
            daemon.stop()
            raise
        return daemon

    def stop_daemon(self, daemon: Daemon, gate: str) -> None:
        code = daemon.stop()
        self.record.gates[gate] = Gate(value=code, bound=0, ok=code == 0)

    # ------------------------------------------------------------------
    # Client phases
    # ------------------------------------------------------------------
    def _nominal_items(self, seconds: float, part: int) -> List[Item]:
        """Open-loop searches for *seconds*, at least ``MIN_NOMINAL / ROUNDS``."""
        w = self.w
        n = max(MIN_NOMINAL // ROUNDS, int(round(w.nominal_rps * seconds)))
        items, _ = search_items(
            self.stream, n, w.nominal_rps, [self.seed, 10, part],
            first_tag=1_000_000 * part,
        )
        return items

    def _keep(self, item: Item) -> bool:
        return item.path != "/search" or item.tag % VERIFY_EVERY == self.seed % VERIFY_EVERY

    def _account(self, phase: PhaseResult) -> PhaseRecord:
        searches = phase.of("/search")
        sent = len(phase.outcomes)
        succeeded = sum(1 for o in phase.outcomes if o.ok)
        self.attempted += sent
        self.failed += sent - succeeded
        record = PhaseRecord(
            name=phase.name, sent=sent, succeeded=succeeded, failed=sent - succeeded,
            offered_rps=(len(searches) / phase.wall_s) if phase.wall_s else 0.0,
            wall_s=phase.wall_s,
            late_p50_ms=(
                1e3 * percentile(phase.lateness, 0.5) if phase.lateness else None
            ),
            late_max_ms=1e3 * max(phase.lateness, default=0.0),
            backlog_max=phase.backlog_max,
            latency_ms=summarize([1e3 * o.latency for o in searches]),
        )
        self.record.phases.append(record)
        return record

    def _client(self, port: int, script):
        """Run ``script(connections)`` on this process's client CPU."""

        async def main():
            conns = [HttpConnection("127.0.0.1", port, REQUEST_TIMEOUT_S) for _ in range(2)]
            try:
                return await script(conns)
            finally:
                for conn in conns:
                    await conn.close()

        if self.client_cpus:
            os.sched_setaffinity(0, self.client_cpus)
        steal = steal_ticks()
        try:
            return asyncio.run(main())
        finally:
            self.steal_ticks += steal_ticks() - steal
            if self.client_cpus:
                os.sched_setaffinity(0, self.all_cpus)

    async def _phase(self, name: str, conns, items, keep=None) -> PhaseResult:
        phase = await run_phase(name, conns, items, keep_body=keep or self._keep)
        self._account(phase)
        return phase

    async def _warm(self, conns) -> None:
        if self.w.warm_all_pairs:
            items = [
                Item(due=0.0, path="/search", body=self.stream.body(r), tag=i)
                for i, r in enumerate(self.stream.all_pairs())
            ]
            await self._phase("warm-up", conns, items, keep=lambda i: False)

    async def _sequential(self, conns, name: str, path: str, bodies) -> PhaseResult:
        """Send requests one after another on one connection (closed loop)."""
        items = [Item(due=0.0, path=path, body=b, tag=i) for i, b in enumerate(bodies)]
        return await self._phase(name, conns[:1], items, keep=lambda i: True)

    async def _deltas(self, conns, suffix: str) -> PhaseResult:
        return await self._sequential(
            conns, f"deltas{suffix}", "/admin/delta",
            [json.dumps(d).encode() for d in self.deltas],
        )

    async def _final_probe(self, conns, suffix: str) -> PhaseResult:
        return await self._sequential(
            conns, f"final-probe{suffix}", "/search",
            [self.stream.body(r) for r in self.probe_set],
        )

    async def _rate_search(self, conns) -> Tuple[float, List[Step], List[PhaseResult]]:
        w = self.w
        phases: List[PhaseResult] = []

        async def attempt(rate: float) -> Tuple[bool, Dict]:
            i = len(phases)
            items, _ = search_items(
                self.stream, w.step_requests, rate, [self.seed, 20 + i],
                first_tag=100_000 * (i + 1),
            )
            phase = await self._phase(f"rate-step-{i}", conns, items)
            phases.append(phase)
            ok, value = step_passes(
                [o.latency for o in phase.outcomes],
                quantile=w.step_quantile, limit_s=w.limit_ms / 1e3,
                backlog_end=phase.backlog_end,
                max_backlog=int(BACKLOG_SHARE * w.step_requests),
            )
            return ok, {
                f"p{round(w.step_quantile * 100, 1):g}_ms":
                    None if value is None else 1e3 * value,
                "backlog_end": phase.backlog_end,
            }

        async def probe(rate: float) -> Step:
            # Interference from outside the program only ever slows a step,
            # so a failed step is repeated once before the rate is refused.
            ok, detail = await attempt(rate)
            tries = [detail]
            if not ok:
                ok, detail = await attempt(rate)
                tries.append(detail)
            return Step(rate=rate, ok=ok, detail={"tries": tries})

        rate, steps = await rate_search(probe, w.rate_lo, w.rate_hi, RATE_RESOLUTION)
        return rate, steps, phases

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------
    def _gate_responses(self, name: str, engine, phases: Sequence[PhaseResult]) -> None:
        answered = []
        for phase in phases:
            for o in phase.of("/search"):
                if o.ok and o.body and self._keep(o.item):
                    body = json.loads(o.item.body)
                    answered.append(((body["user"], body["query"]), o.body))
        bad = gates.mismatches(engine, answered, K)
        self.record.gates[name] = Gate(value=len(bad), bound=0, ok=not bad and bool(answered))
        self.record.notes[f"{name}.checked"] = len(answered)
        if bad:
            self.record.notes[f"{name}.first_mismatch"] = bad[0]

    def _gate_final(self, delta_outcomes, probes: Sequence[PhaseResult],
                    summaries: Path) -> None:
        """Every daemon applied every delta, and each final probe matches a
        from-scratch engine over the final graph."""
        failed = [o.status for o in delta_outcomes if not o.ok]
        self.record.gates["deltas_all_200"] = Gate(
            value=len(failed), bound=0,
            ok=not failed and len(delta_outcomes) == len(self.deltas) * len(probes),
        )
        self.record.gates["final_probe_all_200"] = Gate(
            value=sum(1 for p in probes for o in p.outcomes if not o.ok), bound=0,
            ok=all(o.ok for p in probes for o in p.outcomes),
        )
        engine = gates.scratch_engine(self.bundle, self.tracked, summaries)
        answered = []
        for probe in probes:
            outcomes = sorted(probe.outcomes, key=lambda o: o.item.tag)
            answered += [(r, o.body) for r, o in zip(self.probe_set, outcomes) if o.ok]
        bad = gates.mismatches(engine, answered, K)
        self.record.gates["final_probe_vs_scratch"] = Gate(
            value=len(bad), bound=0,
            ok=not bad and len(answered) == PROBE_REQUESTS * len(probes),
        )
        if bad:
            self.record.notes["final_probe_vs_scratch.first_mismatch"] = bad[0]

    # ------------------------------------------------------------------
    # Untraced run: end-to-end metrics
    # ------------------------------------------------------------------
    def run_untraced(self) -> None:
        setups, index_s, summaries_s, build_rss, cpus, rss = [], [], [], [], [], []
        nominals, deltas, probes, steal, daemon_cpu_s = [], [], [], [], 0.0
        reference = self.work / "reference"
        for r in range(ROUNDS):
            out = self.work / f"round-{r}"
            started = time.monotonic()
            index, summaries = self.build(out)
            built_s = time.monotonic() - started
            if r == 0:
                # Deltas rewrite a daemon's artifacts; the gates need them as built.
                shutil.copytree(out, reference, ignore=shutil.ignore_patterns("logs"))
            daemon = self.start_daemon(out, f"daemon-{r}")
            setups.append(built_s + daemon.ready_s)
            index_s.append(index.wall_s)
            summaries_s.append(summaries.wall_s)
            cpus.append((index.cpu_s, summaries.cpu_s))
            build_rss.append(max(index.peak_rss_mb, summaries.peak_rss_mb))
            try:
                nominal, cpu_s, ticks, round_deltas, probe = self._client(
                    daemon.port, lambda c: self._round_script(c, daemon, r)
                )
                rss.append(daemon.peak_rss_mb())
            finally:
                self.stop_daemon(daemon, f"daemon_{r}_exit_0")
            shutil.rmtree(out)
            nominals.append(nominal)
            deltas += round_deltas
            probes.append(probe)
            steal.append(ticks)
            daemon_cpu_s += cpu_s

        searches = [o for phase in nominals for o in phase.of("/search")]
        delta_ms = [1e3 * o.service for o in deltas]
        # Interference from outside the program only slows a round down, so
        # search latency is the lowest of the rounds' medians. Every round
        # applies the same deltas; their median is taken over all rounds.
        search_p50 = min(
            percentile([o.latency for o in phase.of("/search")], 0.5) for phase in nominals
        )
        self.record.notes.update(
            setup_s_all=setups, index_build_s_all=index_s,
            summaries_build_s_all=summaries_s, build_cpu_s_all=cpus,
            daemon_rss_mb_all=rss, delta_ms_all=delta_ms,
            nominal_samples=len(searches), nominal_steal_ticks=steal,
            daemon_cpu_ms_per_search=1e3 * daemon_cpu_s / len(searches),
        )
        engine = gates.artifact_engine(
            self.bundle, reference / "summaries.json", reference / "shards"
        )
        self._gate_responses("responses_vs_artifacts", engine, nominals)
        self._gate_final(deltas, probes, reference / "summaries.json")

        m = self.record.end_to_end
        m["search_p50_ms"] = Metric(1e3 * search_p50, "ms")
        m["served_share"] = Metric((self.attempted - self.failed) / self.attempted, "share")
        m["delta_p50_ms"] = Metric(_median(delta_ms), "ms")
        m["setup_s"] = Metric(_median(setups), "s")
        m["daemon_rss_mb"] = Metric(_median(rss), "MiB")
        # In some rounds, varying from run to run, both builds wait about
        # 0.55 s for the virtual machine before their first output; a mean
        # over the rounds moves less with how many rounds that hits than a
        # median does.
        m["index_build_s"] = Metric(statistics.fmean(index_s), "s")
        m["summaries_build_s"] = Metric(statistics.fmean(summaries_s), "s")
        m["build_rss_mb"] = Metric(_median(build_rss), "MiB")
        m["artifact_mb"] = Metric(
            (_tree_bytes(reference / "shards") + _tree_bytes(reference / "summaries.json"))
            / 2**20, "MiB",
        )

    async def _round_script(self, conns, daemon: Daemon, r: int):
        await self._warm(conns)
        cpu_before = daemon.cpu_seconds()
        steal = steal_ticks()
        nominal = await self._phase(f"nominal-{r}", conns, self.nominal[r])
        steal = steal_ticks() - steal
        cpu_s = daemon.cpu_seconds() - cpu_before
        deltas = await self._deltas(conns, f"-{r}")
        probe = await self._final_probe(conns, f"-{r}")
        return nominal, cpu_s, steal, deltas.of("/admin/delta"), probe

    # ------------------------------------------------------------------
    # Traced run: per-layer metrics
    # ------------------------------------------------------------------
    def run_traced(self) -> None:
        out = self.work / "setup-0"
        index, _ = self.build(out)
        pristine = self.work / "pristine"
        shutil.copytree(out, pristine, ignore=shutil.ignore_patterns("logs"))
        reference = self.work / "reference"
        shutil.copytree(out, reference, ignore=shutil.ignore_patterns("logs"))

        # Plain daemon: the untraced baseline of the nominal phase, then the
        # rate search.
        plain = self.start_daemon(out, "daemon-plain")
        try:
            base, (sustained, steps, step_phases) = self._client(plain.port, self._plain_script)
        finally:
            self.stop_daemon(plain, "daemon_plain_exit_0")
        self.record.notes["rate_search"] = [
            {"rate": s.rate, "ok": s.ok, **s.detail} for s in steps
        ]

        # Traced daemon over a fresh copy of the same artifacts.
        spans_path = self.work / "spans.json"
        traced = self.start_daemon(pristine, "daemon-traced", trace_out=spans_path)
        try:
            scrapes, phase, delta_outcomes, probe = self._client(
                traced.port, lambda c: self._traced_script(c, traced)
            )
        finally:
            self.stop_daemon(traced, "daemon_traced_exit_0")
        spans = json.loads(spans_path.read_text())["totals"]

        summaries = reference / "summaries.json"
        self._gate_final(delta_outcomes, [probe], summaries)
        engine = gates.artifact_engine(self.bundle, summaries, reference / "shards")
        self._gate_responses("responses_vs_artifacts", engine, [phase, *step_phases])
        offline = self._offline_spans()
        self._per_layer(base, phase, delta_outcomes, scrapes, spans, offline, index,
                        plain.ready_s, sustained)

    async def _plain_script(self, conns):
        await self._warm(conns)
        base = await self._phase("nominal-untraced", conns, self.nominal[0])
        return base, await self._rate_search(conns)

    async def _scrape(self, port: int) -> Dict[str, float]:
        loop = asyncio.get_running_loop()
        status, body = await loop.run_in_executor(None, http_get, port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_prometheus(body.decode())

    async def _traced_script(self, conns, daemon: Daemon):
        """Spans are recorded from the nominal phase through the deltas; the
        ``/metrics`` scrapes bracket the same stretch. A scrape is a round
        trip through the daemon's loop, so it also waits out the signal."""
        await self._warm(conns)
        daemon.proc.send_signal(signal.SIGUSR1)
        before = await self._scrape(daemon.port)
        phase = await self._phase(
            "nominal-traced", conns, self.nominal[0], keep=lambda i: True
        )
        mid = await self._scrape(daemon.port)
        deltas = await self._deltas(conns, "")
        daemon.proc.send_signal(signal.SIGUSR2)
        after = await self._scrape(daemon.port)
        probe = await self._final_probe(conns, "")
        return (before, mid, after), phase, deltas.of("/admin/delta"), probe

    def _offline_spans(self) -> Dict[str, float]:
        """Replay the offline build in-process under spans (seconds)."""
        from repro.core import PITEngine
        from repro.core.persistence import save_summaries
        from repro.core.propagation import PropagationIndex
        from repro.datasets.twitter import data_2k

        rec = tracing.SpanRecorder()
        out = self.work / "inprocess"
        out.mkdir()
        with rec.span("datasets.graph"):
            bundle = data_2k(
                seed=DATASET_SEED, n_nodes=DATASET_NODES, with_corpus=False
            )
        with rec.span("core.propagation.build"):
            PropagationIndex(bundle.graph, THETA, max_branches=200_000).build_sharded(
                out / "shards", shard_nodes=SHARD_NODES, workers=1
            )
        engine = PITEngine.from_dataset(bundle, summarizer="lrw", seed=DATASET_SEED)
        with rec.span("core.summarization.build"):
            engine.build_summaries(workers=1)
        with rec.span("core.persistence.write"):
            save_summaries(engine.summaries, bundle.graph, out / "summaries.json")
        return {name: t.total_s for name, t in rec.totals.items()}

    def _per_layer(self, base, phase, delta_outcomes, scrapes, spans, offline, index,
                   ready_s, sustained) -> None:
        before, mid, after = scrapes
        reads = Counters(before, mid)
        writes = Counters(mid, after)
        searches = [o for o in phase.of("/search") if o.ok]
        n = len(searches)
        bodies = [json.loads(o.body) for o in searches]

        def total(key: str) -> float:
            return spans.get(key, {}).get("total_s", 0.0)

        def per_call_us(key: str) -> float:
            s = spans.get(key)
            return 1e6 * s["total_s"] / s["count"] if s and s["count"] else 0.0

        facade = "core.serve_facade.search"
        facade_ms = 1e3 * total(facade) / n
        serve_ms = 1e3 * (reads.mean("serve.latency_seconds") or 0.0)
        wait_ms = 1e3 * (reads.mean("serve.queue_wait_seconds") or 0.0)
        client_ms = 1e3 * statistics.fmean(o.service for o in searches)
        n_deltas = max(1, len(delta_outcomes))
        delta_bodies = [json.loads(o.body) for o in delta_outcomes if o.ok]

        def per_delta(key: str) -> float:
            return statistics.fmean(b.get(key, 0) for b in delta_bodies) if delta_bodies else 0.0

        p50_plain = percentile([o.latency for o in base.of("/search")], 0.5)
        p50_traced = percentile([o.latency for o in phase.of("/search")], 0.5)
        overhead = p50_traced / p50_plain - 1.0
        self.record.tracing_overhead = {
            "p50_untraced_ms": 1e3 * p50_plain, "p50_traced_ms": 1e3 * p50_traced,
            "share": overhead,
        }
        m = {
            "client.sustained_rps": (sustained, "1/s"),
            "serve.server.outside_ms": (client_ms - serve_ms, "ms"),
            "serve.protocol.parse_us": (per_call_us("serve.protocol.parse"), "us"),
            "serve.protocol.encode_us": (
                per_call_us("serve.protocol.results_payload")
                + per_call_us("serve.protocol.encode"), "us"),
            "serve.protocol.response_bytes": (statistics.fmean(o.nbytes for o in searches), "bytes"),
            "serve.admission.shed_share": (
                reads.delta("serve.shed") / max(1.0, reads.delta("serve.requests")), "share"),
            "serve.coalescer.queue_wait_ms": (wait_ms, "ms"),
            "serve.coalescer.batch_size": (reads.mean("serve.batch_size") or 0.0, "count"),
            "serve.coalescer.hop_ms": (serve_ms - wait_ms - facade_ms, "ms"),
            "core.serve_facade.search_ms": (facade_ms, "ms"),
            "core.serve_facade.answer_hit_ratio": (
                _or_one(reads.ratio("cache.tier.answers.hits", "cache.tier.answers.misses")),
                "share"),
            "core.serve_facade.delta_ms": (
                1e3 * total("core.serve_facade.apply_delta") / n_deltas, "ms"),
            "core.serve_facade.answers_invalidated": (
                writes.delta("dynamics.answers_invalidated") / n_deltas, "count"),
            "core.search.kernel_ms": (
                1e3 * spans.get(f"{facade}>core.search.kernel", {}).get("self_s", 0.0) / n,
                "ms"),
            "core.search.plan_compile_ms": (
                1e3 * total(f"{facade}>core.search.plan_compile") / n, "ms"),
            "core.search.plan_hit_ratio": (
                _or_one(reads.ratio("cache.tier.plans.hits", "cache.tier.plans.misses")),
                "share"),
            "core.propagation.fetch_ms": (1e3 * total(f"{facade}>core.propagation.fetch") / n, "ms"),
            "core.shards.hit_ratio": (
                _or_one(reads.ratio("index.shard.hits", "index.shard.misses")),
                "share"),
            "core.shards.loads_per_kreq": (1e3 * reads.delta("index.shard.loads") / n, "count"),
            "core.shards.resident_mb": (reads.gauge("index.shard.resident_bytes") / 2**20, "MiB"),
            "core.dynamics.affected_ms": (
                1e3 * (writes.mean("dynamics.affected_seconds") or 0.0), "ms"),
            "core.dynamics.refresh_ms": (
                1e3 * (writes.mean("dynamics.refresh_seconds") or 0.0), "ms"),
            "core.dynamics.nodes_affected": (per_delta("affected"), "count"),
            "core.dynamics.entries_rebuilt": (per_delta("entries_rebuilt"), "count"),
            "core.dynamics.shards_rewritten": (per_delta("shards_rewritten"), "count"),
            "datasets.graph_s": (offline["datasets.graph"], "s"),
            "core.propagation.build_s": (offline["core.propagation.build"], "s"),
            "core.propagation.entries_per_s": (
                DATASET_NODES / offline["core.propagation.build"], "1/s"),
            "core.summarization.build_s": (offline["core.summarization.build"], "s"),
            "core.persistence.write_s": (offline["core.persistence.write"], "s"),
            "cli.startup_s": (index.first_output_s or 0.0, "s"),
            "serve.startup.ready_s": (ready_s, "s"),
            "trace.overhead_share": (overhead, "share"),
        }
        for field in gates.STAT_FIELDS[1:]:
            m[f"core.search.{field}"] = (
                statistics.fmean(b["stats"][field] for b in bodies), "count")
        self.record.per_layer = {k: Metric(float(v), u) for k, (v, u) in m.items()}
        self.record.checks.update(self._stress_checks(m, client_ms))

    def _stress_checks(self, m, client_ms) -> Dict[str, Gate]:
        """What each workload was chosen to stress (reported, not gated)."""
        hit = m["core.serve_facade.answer_hit_ratio"][0]
        share = m["core.serve_facade.search_ms"][0] / client_ms
        if self.w.name == "hot-zipf":
            return {"answer_hit_ratio": Gate(hit, ">= 0.9", hit >= 0.9),
                    "facade_share_of_client": Gate(share, "< 0.25", share < 0.25)}
        return {"answer_hit_ratio": Gate(hit, "<= 0.1", hit <= 0.1),
                "facade_share_of_client": Gate(share, "> 0.6", share > 0.6)}

    def finish(self) -> None:
        self.record.notes.update(
            attempted=self.attempted, failed=self.failed,
            steal_ticks_while_loading=self.steal_ticks,
        )
        self.record.write(OUT / f"{self.w.name}-seed{self.seed}-trace{int(self.trace)}.json")
        shutil.rmtree(self.work, ignore_errors=True)


def _or_one(ratio: Optional[float]) -> float:
    """A hit ratio, or 1.0 (nothing missed) when the tier saw no lookups."""
    return 1.0 if ratio is None else ratio


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> RunRecord:
    """Run *workload* once and return its record (also written to disk)."""
    bench = Run(workload, seed, seconds, trace)
    try:
        if trace:
            bench.run_traced()
        else:
            bench.run_untraced()
    finally:
        bench.finish()
    return bench.record
