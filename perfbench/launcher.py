"""Run ``pit-search`` in this process, optionally traced.

Usage: ``python perfbench/launcher.py [--trace-out PATH] <pit-search args>``

Without ``--trace-out`` this is exactly ``pit-search <args>``. With it,
the serving-path functions named in :data:`tracing.SERVE_TARGETS` are
wrapped in spans before the CLI starts. Recording starts on ``SIGUSR1``
and stops on ``SIGUSR2``, so the benchmark can bracket the phase it
measures; the span totals are written to PATH when the command returns
(for ``serve``: after the drain).
"""

from __future__ import annotations

import signal
import sys

import tracing


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro import cli

    recorder = None
    if trace_out is not None:
        recorder = tracing.SpanRecorder(enabled=False)
        tracing.install(recorder, tracing.SERVE_TARGETS)
        signal.signal(signal.SIGUSR1, lambda *_: setattr(recorder, "enabled", True))
        signal.signal(signal.SIGUSR2, lambda *_: setattr(recorder, "enabled", False))
    try:
        return cli.main(argv)
    finally:
        if recorder is not None:
            recorder.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
