"""The ``repro serve`` process and the load generator that replays into it.

:class:`ServiceProcess` starts ``repro serve`` (through
:mod:`perfbench.serve_launcher`) as its own process and stops it.  The
load generator is this benchmark process: it replays one log over
``n_feeds`` TCP ingest connections, partitioned by object id, in two
ways.

* :func:`replay_unpaced` writes every line as fast as the socket takes
  it and reports lines/s from the first connect until the service's
  ``/metrics`` counters show every line ingested.
* :func:`replay_open_loop` sends fixed-size batches on a fixed schedule
  (an open loop: the schedule does not wait for the service).  Each
  batch's latency runs from when it was due until a ``/metrics`` poll
  shows the feed's ingest cursor past it, so a stall also delays the
  batches queued behind it.  How late the sender itself ran is
  reported separately.

Logs travel over the text wire, so the service's ``FeedWorker.
ingest_lines`` does the work.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

#: Seconds to wait for the service to print its ports, or to stop.
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0

#: Seconds between ``/metrics`` polls while waiting for a drain.
_DRAIN_POLL_S = 0.002

#: Seconds a replay may wait for the service to drain.
_DRAIN_TIMEOUT_S = 120.0


#: The ``/metrics`` counter that advances as a feed processes lines.
_CURSOR = "lines_ingested"


class ServiceError(RuntimeError):
    """The service process misbehaved (no start, crash, no drain)."""


class ServiceProcess:
    """One ``repro serve`` process on ephemeral localhost ports."""

    def __init__(self, root: str, report_path: str, *, trace: bool,
                 env: dict[str, str]) -> None:
        command = [sys.executable, "-m", "perfbench.serve_launcher",
                   "--report", report_path]
        if trace:
            command.append("--trace")
        self.report_path = report_path
        # The service's standard input stays open until it has stopped;
        # the launcher exits when it closes, so a benchmark that dies
        # does not leave the service behind.
        self.proc = subprocess.Popen(command, cwd=root, env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.host = "127.0.0.1"
        try:
            line = self._first_line()
            fields = dict(part.split("=", 1) for part in line.split()
                          if "=" in part)
            self.tcp_port = int(fields["tcp"])
            self.http_port = int(fields["http"])
        except (ServiceError, KeyError, ValueError) as exc:
            self.kill()
            raise ServiceError(f"service did not start: {exc}") from exc

    def _first_line(self) -> str:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=_START_TIMEOUT_S):
                raise ServiceError("no listening line before the timeout")
        line = self.proc.stdout.readline().decode("ascii", "replace")
        if not line.startswith("repro-serve listening"):
            raise ServiceError(f"unexpected first line {line!r}")
        return line

    def start_tracing(self) -> None:
        """Start the spans of a ``trace=True`` service (SIGUSR2)."""
        self.proc.send_signal(signal.SIGUSR2)
        # The handler runs once the service's loop wakes: wake it.
        asyncio.run(http_json(self.host, self.http_port, "/healthz"))

    def stop(self) -> dict[str, Any]:
        """Interrupt the service, wait for it, and return its report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.send_signal(signal.SIGUSR1)
                time.sleep(1.0)
                self.kill()
                raise ServiceError("service did not stop on SIGINT") from None
        self._close_pipes()
        if self.proc.returncode != 0:
            raise ServiceError(
                f"service exited with code {self.proc.returncode}")
        with open(self.report_path, encoding="utf-8") as report:
            return dict(json.load(report))

    def kill(self) -> None:
        """Stop the process without asking (cleanup path)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


async def http_json(host: str, port: int, path: str) -> Any:
    """``GET path`` from the service's HTTP port, decoded as JSON."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                     "Connection: close\r\n\r\n".encode("ascii"))
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    if b" 200 " not in head.split(b"\r\n", 1)[0] + b" ":
        raise ServiceError(f"GET {path}: {head[:80]!r}")
    return json.loads(body)


# ----------------------------------------------------------------------
# Replay inputs
# ----------------------------------------------------------------------
@dataclass
class FeedInput:
    """One feed's share of a log, ready to write to a socket."""

    preamble: bytes
    preamble_units: int
    units: list[bytes]
    unit_rows: list[int]

    @property
    def rows(self) -> int:
        """Data rows (lines or entries) this feed carries."""
        return sum(self.unit_rows)


@dataclass
class ReplayInput:
    """A log split into per-feed streams of batches."""

    feeds: list[FeedInput]

    @property
    def rows(self) -> int:
        """Data rows across every feed."""
        return sum(feed.rows for feed in self.feeds)


def text_input(path: str, n_feeds: int, batch_lines: int) -> ReplayInput:
    """Split a text log by object id into batches of ``batch_lines``."""
    with open(path, "rb") as log:
        lines = log.read().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    header = [line for line in lines if line.startswith(b"#")]
    fields = next(line for line in header if line.startswith(b"#Fields:"))
    uri_at = fields.split()[1:].index(b"cs-uri-stem")
    per_feed: list[list[bytes]] = [[] for _ in range(n_feeds)]
    for line in lines:
        if line and not line.startswith(b"#"):
            uri = line.split()[uri_at]
            per_feed[int(uri[len(b"/live/feed"):]) % n_feeds].append(line)
    feeds = []
    for data in per_feed:
        units = [b"\n".join(data[at:at + batch_lines]) + b"\n"
                 for at in range(0, len(data), batch_lines)]
        rows = [min(batch_lines, len(data) - at)
                for at in range(0, len(data), batch_lines)]
        feeds.append(FeedInput(b"\n".join(header) + b"\n", len(header),
                               units, rows))
    return ReplayInput(feeds)


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
@dataclass
class ReplayResult:
    """What one replay measured and what went wrong in it."""

    rows: int
    started: float
    wall_s: float
    latencies_s: list[float]
    late_s: list[float]
    failed_rows: int
    errors: list[str]


async def _open(svc: ServiceProcess, feed: str, preamble: bytes
                ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    from repro.serve.protocol import format_handshake
    reader, writer = await asyncio.open_connection(svc.host, svc.tcp_port)
    writer.write(format_handshake("text", feed) + preamble)
    await writer.drain()
    return reader, writer


async def _close(reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> str:
    if writer.can_write_eof():
        writer.write_eof()
    await writer.drain()
    response = await reader.readline()
    writer.close()
    await writer.wait_closed()
    return response.decode("ascii", "replace").strip()


async def _counters(svc: ServiceProcess) -> dict[str, dict[str, int]]:
    metrics = await http_json(svc.host, svc.http_port, "/metrics")
    return {name: block["counters"]
            for name, block in metrics["feeds"].items()}


async def _cursors(svc: ServiceProcess, names: list[str]) -> list[int]:
    """Each feed's ingest cursor now (0 for a feed not created yet)."""
    counters = await _counters(svc)
    return [counters.get(name, {}).get(_CURSOR, 0) for name in names]


async def _await_drain(svc: ServiceProcess, names: list[str],
                       targets: list[int]) -> dict[str, dict[str, int]]:
    """Poll until every feed's cursor reaches its target."""
    deadline = time.perf_counter() + _DRAIN_TIMEOUT_S
    while True:
        counters = await _counters(svc)
        if all(counters.get(name, {}).get(_CURSOR, -1) >= target
               for name, target in zip(names, targets, strict=True)):
            return counters
        if time.perf_counter() > deadline:
            raise ServiceError("service did not drain before the timeout")
        await asyncio.sleep(_DRAIN_POLL_S)


def _failed_rows(counters: dict[str, dict[str, int]],
                 names: list[str]) -> int:
    """Shed and truncated lines plus errored batches."""
    return sum(counters.get(name, {}).get(key, 0) for name in names
               for key in ("shed_lines", "feed_errors", "truncated_lines"))


async def replay_unpaced(svc: ServiceProcess, replay: ReplayInput,
                         prefix: str) -> ReplayResult:
    """Write every feed's units back to back; time until the drain."""
    names = [f"{prefix}{k}" for k in range(len(replay.feeds))]

    async def send(name: str, feed: FeedInput) -> str:
        reader, writer = await _open(svc, name, feed.preamble)
        for unit in feed.units:
            writer.write(unit)
            await writer.drain()
        return await _close(reader, writer)

    base = await _cursors(svc, names)
    targets = [b + feed.preamble_units + feed.rows
               for b, feed in zip(base, replay.feeds, strict=True)]
    started = time.perf_counter()
    responses = await asyncio.gather(*(
        send(name, feed) for name, feed in zip(names, replay.feeds,
                                               strict=True)))
    counters = await _await_drain(svc, names, targets)
    wall = time.perf_counter() - started
    errors = [r for r in responses if not r.startswith("OK")]
    return ReplayResult(replay.rows, started, wall, [], [],
                        _failed_rows(counters, names), errors)


async def replay_open_loop(svc: ServiceProcess, replay: ReplayInput,
                           prefix: str, rate_rows_s: float,
                           poll_s: float) -> ReplayResult:
    """Send each feed's batches on a fixed schedule at ``rate_rows_s``.

    Feeds interleave: feed ``k`` of ``n`` runs ``k/n`` of a period
    behind feed 0, so the service sees evenly spaced batches.
    """
    names = [f"{prefix}{k}" for k in range(len(replay.feeds))]
    n_feeds = len(replay.feeds)
    batch_rows = max(replay.feeds[0].unit_rows)
    period = batch_rows * n_feeds / rate_rows_s
    base = await _cursors(svc, names)
    connections = [await _open(svc, name, feed.preamble)
                   for name, feed in zip(names, replay.feeds, strict=True)]
    # Header lines are ingested before the clock runs.
    base = [b + feed.preamble_units
            for b, feed in zip(base, replay.feeds, strict=True)]
    await _await_drain(svc, names, base)

    t0 = time.perf_counter() + 0.05
    due = [[t0 + (j + k / n_feeds) * period for j in range(len(f.units))]
           for k, f in enumerate(replay.feeds)]
    late: list[float] = []

    async def send(k: int) -> None:
        writer = connections[k][1]
        for j, unit in enumerate(replay.feeds[k].units):
            delay = due[k][j] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(unit)
            late.append(time.perf_counter() - due[k][j])
            await writer.drain()

    targets = []
    for b, feed in zip(base, replay.feeds, strict=True):
        targets.append((np.cumsum(feed.unit_rows) + b).tolist())
    latencies: list[float] = []

    async def watch() -> dict[str, dict[str, int]]:
        pending = [0] * n_feeds
        deadline = t0 + len(due[0]) * period + _DRAIN_TIMEOUT_S
        while True:
            counters = await _counters(svc)
            seen = time.perf_counter()
            for k, name in enumerate(names):
                cursor = counters.get(name, {}).get(_CURSOR, 0)
                while (pending[k] < len(targets[k])
                       and targets[k][pending[k]] <= cursor):
                    latencies.append(seen - due[k][pending[k]])
                    pending[k] += 1
            if all(p == len(t) for p, t in zip(pending, targets,
                                               strict=True)):
                return counters
            if seen > deadline:
                raise ServiceError("open-loop batches were never ingested")
            await asyncio.sleep(poll_s)

    watcher = asyncio.ensure_future(watch())
    try:
        await asyncio.gather(*(send(k) for k in range(n_feeds)))
        counters = await watcher
    finally:
        if not watcher.done():
            watcher.cancel()
    wall = time.perf_counter() - t0
    responses = [await _close(reader, writer)
                 for reader, writer in connections]
    errors = [r for r in responses if not r.startswith("OK")]
    return ReplayResult(replay.rows, t0, wall, latencies, late,
                        _failed_rows(counters, names), errors)


def service_env(root: str) -> dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    paths = [root, os.path.join(root, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
