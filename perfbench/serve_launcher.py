"""Run ``repro serve`` in this process, optionally with ingest spans.

Started by the benchmark as its own process::

    python3 -m perfbench.serve_launcher --report PATH [--trace] [serve args]

It runs the CLI's ``serve`` command unchanged on ephemeral ports (the
service prints the bound ports on its first line).  With ``--trace``,
SIGUSR2 installs spans around the live ingest path
(:func:`perfbench.layers.instrument_service`).  On SIGINT the service
drains and stops, and the launcher writes a JSON report to
``--report``: the process's peak RSS and the span summary.  When its
standard input closes (the benchmark stopped or died), it exits at once.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import resource
import signal
import sys
import threading


def _exit_at_end_of_input() -> None:
    """Exit the process once standard input reaches its end."""
    while os.read(0, 4096):
        pass
    os._exit(1)


def main(argv: list[str] | None = None) -> int:
    """Serve until interrupted, then write the report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", required=True,
                        help="JSON report written when the service stops")
    parser.add_argument("--trace", action="store_true",
                        help="record spans around the ingest path")
    args, serve_args = parser.parse_known_args(argv)
    # The benchmark stops the service with SIGINT, which a parent started
    # in the background may have set to be ignored; restore the default
    # so that the service drains and stops.  SIGUSR1 dumps every
    # thread's stack to stderr (a stop that hangs).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    faulthandler.register(signal.SIGUSR1)
    threading.Thread(target=_exit_at_end_of_input, daemon=True).start()

    from repro.cli import main as repro_main

    from .layers import instrument_service
    from .spans import Tracer

    tracer = Tracer()
    if args.trace:
        # Spans start on SIGUSR2, sent once the service is warmed up.
        signal.signal(signal.SIGUSR2,
                      lambda signum, frame: instrument_service(tracer))
    try:
        code = repro_main(["serve", "--tcp-port", "0", "--http-port", "0",
                           *serve_args])
    finally:
        tracer.restore()
        report = {
            "peak_rss_kib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": tracer.summary(),
        }
        with open(args.report, "w", encoding="utf-8") as out:
            json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
