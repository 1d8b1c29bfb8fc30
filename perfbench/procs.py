"""Child processes: the CLI builds and the serving daemon.

Builds are timed from outside (spawn to exit); their CPU time and peak
RSS come from ``wait4``'s per-child rusage. The daemon runs under
``perfbench/launcher.py``; its readiness is ``GET /readyz`` answering 200
and its peak RSS is ``VmHWM`` read from ``/proc`` before it is stopped.
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent


class ChildFailed(RuntimeError):
    """A child process exited non-zero or never became ready."""


def cpu_split() -> Optional[Tuple[Set[int], Set[int]]]:
    """``(client CPUs, daemon CPUs)``: the first usable CPU for the load
    generator and the rest for the daemon, or ``None`` on a one-CPU box.

    Keeping the client off the daemon's CPUs stops the two from stealing
    time slices from each other, which otherwise dominates tail latency.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


def _pinned(cpus: Optional[Set[int]]):
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Finished:
    """One child run to completion."""

    argv: List[str]
    wall_s: float
    cpu_s: float  # user + system
    first_output_s: Optional[float]
    peak_rss_mb: float
    exit_code: int
    output: str


def _run_one(argv: List[str], env: Dict[str, str], log: Path,
             cpus: Optional[Set[int]], results: List, slot: int) -> None:
    started = time.monotonic()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        preexec_fn=_pinned(cpus),
    )
    first = None
    with open(log, "wb") as handle:
        assert proc.stdout is not None
        for line in proc.stdout:
            if first is None:
                first = time.monotonic() - started
            handle.write(line)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    results[slot] = Finished(
        argv=argv, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime, first_output_s=first,
        peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode,
        output=log.read_text(errors="replace"),
    )


def run_concurrently(commands: Sequence[Sequence[str]], env: Dict[str, str], logs: Path,
                     cpus: Optional[Set[int]] = None) -> List[Finished]:
    """Run *commands* side by side; each is timed spawn-to-exit.

    One thread per child blocks on its output and then on ``wait4``, which
    also gives the child's own peak RSS; nothing polls. The time of the
    child's first output line is recorded as its start-up time.
    """
    logs.mkdir(parents=True, exist_ok=True)
    results: List[Optional[Finished]] = [None] * len(commands)
    threads = [
        threading.Thread(
            target=_run_one,
            args=(list(argv), env, logs / f"child-{i}.log", cpus, results, i),
        )
        for i, argv in enumerate(commands)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for argv, result in zip(commands, results):
        if result is None:
            raise ChildFailed(f"{' '.join(argv[2:5])} was not reaped")
        if result.exit_code != 0:
            raise ChildFailed(
                f"{' '.join(result.argv[2:5])} exited {result.exit_code}: "
                f"{result.output[-800:]}"
            )
    return results  # type: ignore[return-value]


def http_get(port: int, path: str, timeout: float = 10.0) -> tuple:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Daemon:
    """``pit-search serve`` run through the benchmark's launcher."""

    def __init__(self, serve_args: Sequence[str], env: Dict[str, str], log: Path,
                 trace_out: Optional[Path] = None, cpus: Optional[Set[int]] = None):
        argv = [sys.executable, str(HERE / "launcher.py")]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        argv += ["serve", *serve_args, "--port", "0"]
        self._log = open(log, "wb")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env,
            preexec_fn=_pinned(cpus),
        )
        self.port: Optional[int] = None
        self.ready_s: Optional[float] = None
        self.exit_code: Optional[int] = None

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until ``/readyz`` is 200; return seconds since spawn."""
        deadline = self.started + timeout
        assert self.proc.stdout is not None
        while self.port is None:
            line = self.proc.stdout.readline().decode(errors="replace")
            if not line:
                raise ChildFailed(f"daemon exited before listening ({self.proc.wait()})")
            if line.startswith("listening on http://"):
                self.port = int(line.strip().rsplit(":", 1)[1])
        while time.monotonic() < deadline:
            try:
                status, _ = http_get(self.port, "/readyz", timeout=2.0)
            except OSError:
                status = 0
            if status == 200:
                self.ready_s = time.monotonic() - self.started
                return self.ready_s
            if self.proc.poll() is not None:
                raise ChildFailed(f"daemon exited with {self.proc.returncode}")
            time.sleep(0.005)
        raise ChildFailed("daemon did not become ready")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the daemon has used, all threads."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # utime and stime are fields 14 and 15 of stat(5), counted from 1.
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the running daemon, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ChildFailed("no VmHWM in /proc status")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, wait for the drain, return the exit code (kill on timeout)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        self.exit_code = self.proc.returncode
        return self.exit_code
