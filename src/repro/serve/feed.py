"""Per-feed ingest worker: bounded queue + the live accumulator stack.

One :class:`FeedWorker` owns all state for one logical feed: the
:class:`~repro.trace.streaming.StreamingCharacterizer` (fed in arrival
order — its accumulation is order-blind, which is what makes live
results bit-identical to batch characterization of the same log), an
:class:`~repro.stream.sessionize.OnlineSessionizer` behind a start-order
reorder buffer, and the metrics accumulators of
:mod:`repro.serve.tracking`.

Backpressure
------------
Connections *offer* batches with ``offer_*``; a full queue sheds the
batch — the offer returns ``False``, shed counters advance, and the
service surfaces an ``ERR backpressure`` line and closes the offending
connection.  Nothing is ever buffered beyond ``queue_batches`` batches,
so a feed that outpaces its worker degrades loudly instead of growing
without bound.  Clients recover by reconnecting and replaying from the
worker's processed cursor (``lines_ingested`` / ``frames_ingested``),
which counts *processed* input only — exactly the prefix a checkpoint
captures.

Reordering
----------
Ingest delivers entries in transfer-end order; sessionization requires
globally non-decreasing starts.  Entries wait in a reorder buffer until
the end frontier ``M`` guarantees their start can no longer be preceded
(``start <= M - lateness``); released entries are stably start-sorted,
so ties keep arrival order and the session stream matches the batch
sessionizer's ``(client, start)`` canonical order.  Entries arriving
below the released floor (possible only for transfers longer than
``lateness``) are dropped from session tracking and counted.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Any, Callable

import numpy as np

from .._typing import FloatArray, IntArray
from ..errors import ProtocolError, ReproError, TraceError
from ..stream.sessionize import FinalizedSessions, OnlineSessionizer, merge_finalized
from ..trace.codecs import ClientColumns, decode_entry_columns
from ..trace.streaming import StreamingCharacterizer, _OnlineLogMoments
from ..trace.wms_log import (
    LOG_FIELDS,
    _parse_fields_header,
    join_log_lines,
    split_log_block,
    tokenize_wms_lines,
)
from ..units import DEFAULT_SESSION_TIMEOUT
from .config import DEFAULT_LATENESS
from .tracking import (
    DEFAULT_BIN_SECONDS,
    DEFAULT_WINDOW_BINS,
    ConcurrencyTracker,
    GapMoments,
    LatencyHistogram,
)

#: Queue item kinds.
_LINES = "lines"
_ENTRIES = "entries"
_CLIENTS = "clients"


class FeedWorker:
    """All live state for one feed, fed through a bounded batch queue.

    The synchronous ``ingest_*`` methods do the actual accumulation and
    are what tests drive directly; :meth:`run` is the asyncio consumer
    loop the service spawns, which pulls offered batches and calls them.
    A batch is processed without touching the event loop, so any state
    snapshot taken between batches (checkpoints, ``/state``) is
    consistent.
    """

    def __init__(self, name: str, *,
                 timeout: float = DEFAULT_SESSION_TIMEOUT,
                 lateness: float = DEFAULT_LATENESS,
                 queue_batches: int = 64,
                 bin_seconds: float = DEFAULT_BIN_SECONDS,
                 window_bins: int = DEFAULT_WINDOW_BINS,
                 keep_sessions: bool = False,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.name = name
        self.timeout = float(timeout)
        self.lateness = float(lateness)
        self.keep_sessions = bool(keep_sessions)
        self._clock = clock
        self._queue: asyncio.Queue[tuple[str, Any, float] | None] = (
            asyncio.Queue(maxsize=int(queue_batches)))
        self._gate: asyncio.Event | None = None

        self.characterizer = StreamingCharacterizer()
        self._capacity = 1
        self.sessionizer = OnlineSessionizer(1, timeout=self.timeout)
        self._gap = GapMoments(1, timeout=self.timeout)
        self._conc = ConcurrencyTracker(bin_seconds=bin_seconds,
                                        window_bins=window_bins)
        self._on_moments = _OnlineLogMoments()
        self._spc = np.zeros(1, dtype=np.int64)
        self.latency = LatencyHistogram()

        # Text-mode machinery.
        self._fields: list[str] | None = None
        self._player_index: dict[bytes, int] = {}
        # Binary-mode machinery.
        self._identities: dict[int, tuple[str, str, str]] = {}
        self._table: ClientColumns | None = None

        # Reorder buffer (arrival order preserved across chunks).
        self._pend: list[tuple[IntArray, FloatArray, FloatArray]] = []
        self._pend_rows = 0
        self._pend_min = math.inf
        self._max_end = -math.inf
        self._released_floor = -math.inf

        self._mode: str | None = None
        self.lines_ingested = 0
        self.frames_ingested = 0
        self.clients_frames = 0
        self.entries_ingested = 0
        self.shed_lines = 0
        self.shed_frames = 0
        self.shed_events = 0
        self.late_drops = 0
        self.truncated_lines = 0
        self.mode_conflicts = 0
        self.feed_errors = 0
        self.last_error: str | None = None
        self._session_parts: list[FinalizedSessions] = []

    # ------------------------------------------------------------------
    # Offer side (connection handlers)
    # ------------------------------------------------------------------
    def offer_lines(self, lines: list[str]) -> bool:
        """Enqueue a batch of raw log lines; ``False`` if shed."""
        try:
            self._queue.put_nowait((_LINES, lines, self._clock()))
        except asyncio.QueueFull:
            self.shed_lines += len(lines)
            self.shed_events += 1
            return False
        return True

    def offer_entries(self, quantized: dict[str, IntArray]) -> bool:
        """Enqueue one decoded ENTRIES frame; ``False`` if shed."""
        try:
            self._queue.put_nowait((_ENTRIES, quantized, self._clock()))
        except asyncio.QueueFull:
            self.shed_frames += 1
            self.shed_events += 1
            return False
        return True

    def offer_clients(self, rows: list[tuple[int, str, str, str]]) -> bool:
        """Enqueue one CLIENTS identity frame; ``False`` if shed."""
        try:
            self._queue.put_nowait((_CLIENTS, rows, self._clock()))
        except asyncio.QueueFull:
            self.shed_frames += 1
            self.shed_events += 1
            return False
        return True

    # ------------------------------------------------------------------
    # Consumer loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Pull offered batches until :meth:`shutdown` is awaited."""
        while True:
            item = await self._queue.get()
            try:
                if item is None:
                    return
                if self._gate is not None:
                    await self._gate.wait()
                kind, payload, enqueued_at = item
                try:
                    if kind == _LINES:
                        self.ingest_lines(payload)
                    elif kind == _ENTRIES:
                        self.ingest_entries(payload)
                    else:
                        self.ingest_clients(payload)
                except ReproError as exc:
                    # A bad batch must not kill the feed: count it,
                    # remember the message, keep consuming.
                    self.feed_errors += 1
                    self.last_error = f"{type(exc).__name__}: {exc}"
                self.latency.observe(self._clock() - enqueued_at)
            finally:
                self._queue.task_done()

    async def shutdown(self) -> None:
        """Ask :meth:`run` to exit after the queued batches drain."""
        # Shutdown overrides a pause: a held gate would leave the queue
        # full and this put waiting forever.
        self.resume_processing()
        await self._queue.put(None)

    async def drain(self) -> None:
        """Wait until every offered batch has been processed."""
        await self._queue.join()

    def pause(self) -> None:
        """Test hook: hold the consumer before its next batch."""
        if self._gate is None:
            self._gate = asyncio.Event()
        self._gate.clear()

    def resume_processing(self) -> None:
        """Release a :meth:`pause`."""
        if self._gate is not None:
            self._gate.set()

    @property
    def queue_depth(self) -> int:
        """Batches currently waiting in the worker queue."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # Synchronous ingestion
    # ------------------------------------------------------------------
    def ingest_lines(self, lines: list[str]) -> int:
        """Fold a batch of raw text log lines; returns entries parsed.

        Mirrors the batch pipeline exactly: each run of data lines is
        tokenized once under the current ``#Fields`` layout (directives
        are intercepted here, mid-batch included), and the same columns
        feed the characterizer, in arrival order, and the session
        tracking's ``(client, start, duration)``, so both sides agree
        line for line on what counts as an entry.
        """
        if not self._enter_mode("text"):
            return 0
        self.lines_ingested += len(lines)
        parsed = 0
        for _, run, directive in split_log_block(join_log_lines(lines)):
            if not directive:
                parsed += self._consume_text_run(run)
            elif run.startswith(b"#Fields:"):
                self._fields = _parse_fields_header(
                    run.decode("ascii", "replace"), 0)
        self.entries_ingested += parsed
        return parsed

    def _consume_text_run(self, run: bytes) -> int:
        tokens = tokenize_wms_lines(
            run, self._fields if self._fields is not None else LOG_FIELDS)
        parsed = self.characterizer.consume_columns(tokens)
        if parsed:
            index = self._player_index
            for player in dict.fromkeys(tokens.player):
                index.setdefault(player, len(index))
            client = np.fromiter(map(index.__getitem__, tokens.player),
                                 dtype=np.int64, count=parsed)
            self._ensure_capacity(len(index))
            self._enqueue_reorder(
                client, tokens.timestamp.astype(np.float64) - tokens.duration,
                tokens.duration)
        return parsed

    def ingest_clients(self, rows: list[tuple[int, str, str, str]]) -> None:
        """Fold one CLIENTS identity frame (idempotent re-sends are fine)."""
        if not self._enter_mode("binary"):
            return
        for index, ip, player, os_name in rows:
            if index < 0:
                raise ProtocolError(
                    f"negative client index {index} in CLIENTS frame")
            self._identities[int(index)] = (ip, player, os_name)
        self._table = None
        # Identity frames are idempotent and re-sent on reconnect, so
        # they do not advance the resume cursor (frames_ingested).
        self.clients_frames += 1

    def ingest_entries(self, quantized: dict[str, IntArray]) -> int:
        """Fold one quantized ENTRIES frame; returns rows consumed.

        One frame is consumed as one
        :meth:`~repro.trace.streaming.StreamingCharacterizer.consume_columns`
        call; its accumulators sum in entry order whatever the grouping,
        so the state equals the batch binary reader's.
        """
        if not self._enter_mode("binary"):
            return 0
        columns = decode_entry_columns(quantized)
        client = np.asarray(columns["client_index"], dtype=np.int64)
        n = int(client.size)
        self.frames_ingested += 1
        if n == 0:
            return 0
        try:
            self.characterizer.consume_columns(columns, self._client_table())
        except TraceError as exc:
            raise ProtocolError(str(exc)) from None
        self.entries_ingested += n
        self._ensure_capacity(int(client.max()) + 1)
        self._enqueue_reorder(
            client,
            np.asarray(columns["start"], dtype=np.float64),
            np.asarray(columns["duration"], dtype=np.float64))
        return n

    def _client_table(self) -> ClientColumns:
        if self._table is None:
            if not self._identities:
                raise ProtocolError(
                    "ENTRIES frame before any CLIENTS frame on feed "
                    f"{self.name!r}")
            items = sorted(self._identities.items())
            self._table = ClientColumns(
                index=np.asarray([index for index, _ in items],
                                 dtype=np.int64),
                player_ids=np.asarray(
                    [identity[1].encode("utf-8") for _, identity in items],
                    dtype=np.bytes_),
                source=f"feed {self.name!r}")
        return self._table

    def _enter_mode(self, mode: str) -> bool:
        if self._mode is None:
            self._mode = mode
            return True
        if self._mode != mode:
            self.mode_conflicts += 1
            return False
        return True

    def _ensure_capacity(self, n_clients: int) -> None:
        if n_clients <= self._capacity:
            return
        while self._capacity < n_clients:
            self._capacity *= 2
        self.sessionizer.grow(self._capacity)
        self._gap.grow(self._capacity)
        grown = np.zeros(self._capacity, dtype=np.int64)
        grown[:self._spc.size] = self._spc
        self._spc = grown

    # ------------------------------------------------------------------
    # Reorder buffer -> session stack
    # ------------------------------------------------------------------
    def _enqueue_reorder(self, client: IntArray, start: FloatArray,
                         duration: FloatArray) -> None:
        ends = start + duration
        if ends.size:
            frontier = float(ends.max())
            if frontier > self._max_end:
                self._max_end = frontier
            low = float(start.min())
            if low < self._pend_min:
                self._pend_min = low
        self._pend.append((client, start, duration))
        self._pend_rows += int(start.size)
        self._release(self._max_end - self.lateness)

    def _release(self, watermark: float, *, final: bool = False) -> None:
        if not self._pend or (not final and self._pend_min > watermark):
            return
        client = np.concatenate([part[0] for part in self._pend])
        start = np.concatenate([part[1] for part in self._pend])
        duration = np.concatenate([part[2] for part in self._pend])
        if final:
            take = np.ones(start.size, dtype=bool)
        else:
            take = start <= watermark
        if not np.any(take):
            self._pend = [(client, start, duration)]
            return
        keep = ~take
        if np.any(keep):
            kept = (client[keep], start[keep], duration[keep])
            self._pend = [kept]
            self._pend_rows = int(kept[1].size)
            self._pend_min = float(kept[1].min())
        else:
            self._pend = []
            self._pend_rows = 0
            self._pend_min = math.inf
        client, start, duration = client[take], start[take], duration[take]

        late = start < self._released_floor
        if np.any(late):
            self.late_drops += int(np.count_nonzero(late))
            ontime = ~late
            client, start, duration = (client[ontime], start[ontime],
                                       duration[ontime])
        if start.size == 0:
            return
        order = np.argsort(start, kind="stable")
        client, start, duration = client[order], start[order], duration[order]
        self._released_floor = float(start[-1])
        self._push_sessions(client, start, duration,
                            horizon=None if final else self._released_floor)

    def _push_sessions(self, client: IntArray, start: FloatArray,
                       duration: FloatArray, *,
                       horizon: float | None) -> None:
        finalized = self.sessionizer.push(client, start, duration,
                                          horizon=horizon)
        self._gap.push(client, start, duration)
        self._absorb_finalized(finalized)

    def _absorb_finalized(self, finalized: FinalizedSessions) -> None:
        if finalized.n_sessions == 0:
            return
        on_times = finalized.end - finalized.start
        displays = np.floor(np.maximum(on_times, 0.0)).astype(np.int64) + 1
        values, counts = np.unique(displays, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist(),
                                strict=True):
            self._on_moments.counts[value] = (
                self._on_moments.counts.get(value, 0) + count)
        self._conc.observe(finalized.start, finalized.end)
        np.add.at(self._spc, finalized.client_index, 1)
        if self.keep_sessions:
            self._session_parts.append(finalized)

    def finish(self) -> FinalizedSessions:
        """Flush the reorder buffer and finalize every open session.

        A *terminal* operation for tests and one-shot ingests — the
        long-running service never calls it (feeds outlive connections).
        """
        self._release(math.inf, final=True)
        finalized = self.sessionizer.finish()
        self._absorb_finalized(finalized)
        if self.keep_sessions:
            return self.finalized_sessions()
        return finalized

    def finalized_sessions(self) -> FinalizedSessions:
        """Every finalized session in canonical ``(client, start)`` order
        (requires ``keep_sessions=True``)."""
        return merge_finalized(self._session_parts)

    def intern_table(self) -> list[str]:
        """Player IDs in interned index order (text mode)."""
        # Interning appends, so key order is index order.
        return [player.decode("utf-8") for player in self._player_index]

    # ------------------------------------------------------------------
    # Metrics / state
    # ------------------------------------------------------------------
    def gap_moments(self) -> tuple[float, float]:
        """Live ``(mu, sigma)`` of intra-session gap log-displays."""
        return self._gap.moments()

    def gap_moments_count(self) -> int:
        """Number of accumulated intra-session gap observations."""
        return self._gap.n

    def on_time_moments(self) -> tuple[float, float]:
        """Live ``(mu, sigma)`` of finalized-session ON-time displays."""
        return self._on_moments.moments()

    def sessions_per_client(self) -> IntArray:
        """Finalized-session count per interned client index."""
        return self._spc

    def concurrency(self) -> ConcurrencyTracker:
        """The feed's live ``c(t)`` tracker."""
        return self._conc

    def counters(self) -> dict[str, int]:
        """Operational counters (monotone; checkpointed)."""
        return {
            "lines_ingested": self.lines_ingested,
            "frames_ingested": self.frames_ingested,
            "clients_frames": self.clients_frames,
            "entries_ingested": self.entries_ingested,
            "shed_lines": self.shed_lines,
            "shed_frames": self.shed_frames,
            "shed_events": self.shed_events,
            "late_drops": self.late_drops,
            "truncated_lines": self.truncated_lines,
            "mode_conflicts": self.mode_conflicts,
            "feed_errors": self.feed_errors,
        }

    def state_meta(self) -> dict[str, Any]:
        """JSON-serializable scalar state (checkpoint + ``/state``)."""
        return {
            "mode": self._mode,
            "capacity": self._capacity,
            "fields": self._fields,
            "counters": self.counters(),
            "reorder": {
                "max_end": self._max_end,
                "released_floor": self._released_floor,
                "pend_min": self._pend_min,
                "pend_rows": self._pend_rows,
            },
            "characterizer": self.characterizer.state_dict(),
            "sessionizer": self.sessionizer.state_meta(),
            "gap": self._gap.state_meta(),
            "concurrency": self._conc.state_meta(),
            "on_counts_n": self._on_moments.n,
        }

    def state_arrays(self) -> dict[str, np.ndarray[Any, np.dtype[Any]]]:
        """Array state (checkpoint payload; un-prefixed keys)."""
        if self._pend:
            pend_client = np.concatenate([p[0] for p in self._pend])
            pend_start = np.concatenate([p[1] for p in self._pend])
            pend_duration = np.concatenate([p[2] for p in self._pend])
        else:
            pend_client = np.empty(0, dtype=np.int64)
            pend_start = np.empty(0, dtype=np.float64)
            pend_duration = np.empty(0, dtype=np.float64)
        on_items = sorted(self._on_moments.counts.items())
        ident_items = sorted(self._identities.items())
        arrays: dict[str, np.ndarray[Any, np.dtype[Any]]] = {
            "pend_client": pend_client,
            "pend_start": pend_start,
            "pend_duration": pend_duration,
            "spc": self._spc.copy(),
            "on_display": np.asarray([d for d, _ in on_items],
                                     dtype=np.int64),
            "on_count": np.asarray([c for _, c in on_items],
                                   dtype=np.int64),
            "players": np.asarray(self.intern_table(), dtype=np.str_),
            "ident_index": np.asarray([k for k, _ in ident_items],
                                      dtype=np.int64),
            "ident_ip": np.asarray([v[0] for _, v in ident_items],
                                   dtype=np.str_),
            "ident_player": np.asarray([v[1] for _, v in ident_items],
                                       dtype=np.str_),
            "ident_os": np.asarray([v[2] for _, v in ident_items],
                                   dtype=np.str_),
        }
        arrays.update(self.sessionizer.state_arrays())
        arrays.update(self._gap.state_arrays())
        arrays.update(self._conc.state_arrays())
        return arrays

    def restore(self, meta: dict[str, Any],
                arrays: dict[str, np.ndarray[Any, np.dtype[Any]]]) -> None:
        """Restore state captured by the two ``state_*`` methods."""
        self._mode = meta["mode"]
        self._capacity = int(meta["capacity"])
        fields = meta["fields"]
        self._fields = list(fields) if fields is not None else None
        counters = meta["counters"]
        self.lines_ingested = int(counters["lines_ingested"])
        self.frames_ingested = int(counters["frames_ingested"])
        self.clients_frames = int(counters["clients_frames"])
        self.entries_ingested = int(counters["entries_ingested"])
        self.shed_lines = int(counters["shed_lines"])
        self.shed_frames = int(counters["shed_frames"])
        self.shed_events = int(counters["shed_events"])
        self.late_drops = int(counters["late_drops"])
        self.truncated_lines = int(counters["truncated_lines"])
        self.mode_conflicts = int(counters["mode_conflicts"])
        self.feed_errors = int(counters["feed_errors"])
        reorder = meta["reorder"]
        self._max_end = float(reorder["max_end"])
        self._released_floor = float(reorder["released_floor"])
        self._pend_min = float(reorder["pend_min"])

        self.characterizer = StreamingCharacterizer.from_state_dict(
            meta["characterizer"])
        self.sessionizer = OnlineSessionizer(
            int(meta["sessionizer"]["n_clients"]), timeout=self.timeout)
        self.sessionizer.restore(meta["sessionizer"],
                                 {k: arrays[k] for k in
                                  ("sess_open", "sess_start",
                                   "sess_run_max", "sess_count")})
        self._gap = GapMoments(int(meta["gap"]["n_clients"]),
                               timeout=self.timeout)
        self._gap.restore(meta["gap"],
                          {k: arrays[k] for k in
                           ("gap_display", "gap_count", "gap_open",
                            "gap_run_max", "gap_last_start")})
        self._conc.restore(meta["concurrency"],
                           {"conc_deltas": np.asarray(
                               arrays["conc_deltas"], dtype=np.int64)})

        pend_start = np.asarray(arrays["pend_start"], dtype=np.float64)
        if pend_start.size:
            self._pend = [(
                np.asarray(arrays["pend_client"], dtype=np.int64),
                pend_start,
                np.asarray(arrays["pend_duration"], dtype=np.float64))]
        else:
            self._pend = []
        self._pend_rows = int(pend_start.size)

        self._on_moments = _OnlineLogMoments()
        for value, count in zip(
                np.asarray(arrays["on_display"], dtype=np.int64).tolist(),
                np.asarray(arrays["on_count"], dtype=np.int64).tolist(),
                strict=True):
            self._on_moments.counts[value] = count
        self._spc = np.asarray(arrays["spc"], dtype=np.int64).copy()

        self._player_index = {
            str(player).encode("utf-8"): k
            for k, player in enumerate(arrays["players"].tolist())}
        self._identities = {}
        for k, index in enumerate(
                np.asarray(arrays["ident_index"], dtype=np.int64).tolist()):
            self._identities[int(index)] = (
                str(arrays["ident_ip"][k]), str(arrays["ident_player"][k]),
                str(arrays["ident_os"][k]))
        self._table = None
        self._session_parts = []
