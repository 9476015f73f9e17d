"""One-pass (streaming) log characterization.

A month of logs at the paper's scale is millions of lines; the columnar
:class:`~repro.trace.store.Trace` handles that comfortably, but a
production pipeline watching a *live* server wants running statistics
without ever materializing the trace.  :class:`StreamingCharacterizer`
consumes WMS-style log lines incrementally — across any number of files or
harvests — and maintains, in O(clients) memory:

* the transfer-length lognormal fit (online log-moments, with the paper's
  ``floor(t)+1`` convention);
* total transfers, bytes served, per-feed counts;
* per-client transfer counts (the interest profile);
* the congestion-bound bandwidth fraction and a log-spaced bandwidth
  histogram (Figure 20's shape);
* the diurnal profile of transfer starts (Figure 4's shape).

Everything it reports is cross-checked against the batch pipeline in the
test suite: same log in, same statistics out.

Every accumulator is **mergeable**: :meth:`StreamingCharacterizer.merge`
folds another characterizer's state into this one, exactly.  Two
characterizers fed disjoint halves of a log and merged report the same
:class:`StreamingSummary` as one characterizer fed the whole log — counts
and histograms are integer-exact, and the lognormal length fit is held in
an integer-count form (:class:`_OnlineLogMoments`) whose moments are
computed once at summary time, so even the floating-point fields agree
bit for bit.  That contract is what lets
:func:`repro.parallel.characterize_logs` map chunks across processes and
reduce without changing any reported statistic.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .._typing import FloatArray, IntArray
from ..units import DAY
from .codecs import ClientColumns
from .wms_log import (
    WmsColumns,
    iter_log_blocks,
    iter_wms_runs,
    split_log_block,
    tokenize_wms_lines,
)

#: Shape/dtype-generic array (decoded binary segment columns).
_AnyArray = np.ndarray[Any, np.dtype[Any]]

#: Default log-spaced bandwidth histogram edges (bits/second).
DEFAULT_BANDWIDTH_EDGES = np.logspace(3, 7, 41)

#: Bandwidths below this count as congestion bound (matches
#: :data:`repro.core.transfer_layer.CONGESTION_BOUND_THRESHOLD_BPS`).
CONGESTION_THRESHOLD_BPS = 24_000.0


class _OnlineLogMoments:
    """Mergeable accumulator of the log-length moments.

    The paper's display convention maps every measured length to the
    integer ``floor(t) + 1``, so the accumulator keeps exact *counts per
    integer display length* rather than running float moments.  Counts
    merge exactly (integer addition is associative), and the lognormal
    ``mu``/``sigma`` are computed once at read time by a deterministic
    walk over the sorted support — which makes chunked-and-merged
    results bit-identical to a single sequential pass.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}

    def add(self, display: int) -> None:
        self.counts[display] = self.counts.get(display, 0) + 1

    def merge(self, other: "_OnlineLogMoments") -> None:
        for display, count in other.counts.items():
            self.counts[display] = self.counts.get(display, 0) + count

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def moments(self) -> tuple[float, float]:
        """The ``(mu, sigma)`` of ``log(display)`` over the counts."""
        n = self.n
        if n == 0:
            return 0.0, 0.0
        items = sorted(self.counts.items())
        logs = [(math.log(display), count) for display, count in items]
        mu = sum(value * count for value, count in logs) / n
        if n < 2:
            return mu, 0.0
        m2 = sum((value - mu) ** 2 * count for value, count in logs)
        return mu, math.sqrt(m2 / n)


@dataclass(frozen=True)
class StreamingSummary:
    """Snapshot of the running statistics.

    Attributes
    ----------
    n_entries, n_skipped:
        Parsed and skipped (malformed) line counts.
    n_clients:
        Distinct player IDs seen.
    length_log_mu, length_log_sigma:
        Online lognormal fit of transfer lengths (``floor(t)+1``).
    bytes_served:
        Accumulated ``duration * bandwidth / 8``.
    feed_counts:
        Transfers per live-object id.
    congestion_bound_fraction:
        Fraction of transfers below the congestion threshold.
    bandwidth_histogram, bandwidth_edges:
        Log-spaced histogram of per-transfer bandwidth.
    diurnal_counts:
        Transfer-start counts folded into bins of one day.
    top_clients:
        The ``(player_id, count)`` pairs of the most active clients.
    """

    n_entries: int
    n_skipped: int
    n_clients: int
    length_log_mu: float
    length_log_sigma: float
    bytes_served: float
    feed_counts: dict[int, int]
    congestion_bound_fraction: float
    bandwidth_histogram: FloatArray = field(repr=False)
    bandwidth_edges: FloatArray = field(repr=False)
    diurnal_counts: FloatArray = field(repr=False)
    top_clients: tuple[tuple[str, int], ...] = ()


class StreamingCharacterizer:
    """Incremental characterizer of WMS-style logs.

    Feed it files or streams with :meth:`consume`; read a
    :class:`StreamingSummary` at any point with :meth:`summary`.

    Parameters
    ----------
    diurnal_bins:
        Bins per day of the arrival profile (96 = 15-minute).
    bandwidth_edges:
        Log-spaced histogram edges for bandwidth (bits/second).
    """

    def __init__(self, *, diurnal_bins: int = 96,
                 bandwidth_edges: FloatArray | None = None) -> None:
        if diurnal_bins < 1:
            raise ValueError("diurnal_bins must be positive")
        self._log_length = _OnlineLogMoments()
        self._bits = 0.0  # duration * bandwidth, divided by 8 at read time
        self._n_entries = 0
        self._n_skipped = 0
        self._congested = 0
        self._client_counts: dict[str, int] = {}
        # Binary ingest counts clients by position in the current
        # declared table; _fold_clients moves them into _client_counts.
        self._table: ClientColumns | None = None
        self._table_counts = np.zeros(0, dtype=np.int64)
        self._feed_counts: dict[int, int] = {}
        self._edges = (DEFAULT_BANDWIDTH_EDGES if bandwidth_edges is None
                       else np.asarray(bandwidth_edges, dtype=np.float64))
        self._bandwidth_hist = np.zeros(self._edges.size - 1,
                                        dtype=np.float64)
        self._diurnal = np.zeros(diurnal_bins, dtype=np.float64)
        self._bin_width = DAY / diurnal_bins

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def consume(self, source: str | Path | TextIO | Iterable[str]) -> int:
        """Consume one log file/stream; returns entries parsed from it.

        Malformed data lines (see
        :func:`repro.trace.wms_log.tokenize_wms_lines`) are counted and
        skipped — a streaming consumer cannot afford to abort
        mid-harvest; a missing ``#Fields`` header still raises, since
        nothing after it could be interpreted.  Every ``#Fields``
        directive is followed.  Sources are read in blocks of lines.
        """
        parsed = 0
        for _, run, fields in iter_wms_runs(source):
            parsed += self._consume_tokens(tokenize_wms_lines(run, fields))
        return parsed

    def consume_lines(self, lines: Iterable[str] | bytes,
                      fields: Sequence[str]) -> int:
        """Consume data lines against a known field layout.

        The chunked ingestion path: callers that already located the
        ``#Fields`` header (e.g. :func:`repro.parallel.characterize_logs`
        workers fed byte ranges of a split log) hand the layout in
        directly.  ``lines`` is text lines, or the raw bytes of whole
        lines of a log file.  Blank and ``#`` lines are ignored;
        malformed data lines are counted and skipped exactly as in
        :meth:`consume`.  Returns the number of entries parsed.
        """
        parsed = 0
        for first, block in iter_log_blocks(lines):
            for _, run, directive in split_log_block(block, first):
                if not directive:
                    parsed += self._consume_tokens(
                        tokenize_wms_lines(run, fields))
        return parsed

    def consume_columns(self, columns: Mapping[str, _AnyArray] | WmsColumns,
                        clients: ClientColumns | None = None) -> int:
        """Consume one block of entries as column arrays.

        ``columns`` is either one decoded binary segment's trace-domain
        columns (see
        :meth:`repro.trace.codecs.BinaryTraceReader.segment_columns`),
        with ``clients`` the declared client table its ``client_index``
        column refers to (see
        :meth:`repro.trace.codecs.BinaryTraceReader.client_columns`), or
        a run of tokenized text lines
        (:func:`repro.trace.wms_log.tokenize_wms_lines`), whose players
        are counted by token and whose malformed lines count as skipped.
        Binary clients are counted by table position in an ``int64``
        array and folded into the player-ID counts once per table, not
        per entry.  Both forms feed one accumulator, so the same entries
        give the same state whichever codec carried them.  Returns the
        number of entries consumed.

        Raises
        ------
        TraceError
            If an entry names a client the table does not declare; the
            segment is then not consumed.
        """
        if isinstance(columns, WmsColumns):
            return self._consume_tokens(columns)
        if clients is None:
            raise TypeError("binary columns need their client table")
        position = clients.positions(columns["client_index"])
        n = self._accumulate(
            np.asarray(columns["timestamp"], dtype=np.int64),
            np.asarray(columns["duration"], dtype=np.float64),
            np.asarray(columns["bandwidth_bps"], dtype=np.float64),
            np.asarray(columns["object_id"], dtype=np.int64))
        if n == 0:
            return 0
        if clients is not self._table:
            self._fold_clients()
            self._table = clients
            self._table_counts = np.zeros(len(clients), dtype=np.int64)
        self._table_counts += np.bincount(position, minlength=len(clients))
        return n

    def _consume_tokens(self, tokens: WmsColumns) -> int:
        self._n_skipped += tokens.n_skipped
        # A text bandwidth may be inf or NaN; its products stay IEEE,
        # as the per-entry sum's do, without numpy's warnings.
        with np.errstate(invalid="ignore", over="ignore"):
            n = self._accumulate(tokens.timestamp, tokens.duration,
                                 tokens.bandwidth_bps, tokens.object_id)
        counts = Counter(tokens.player)
        client_counts = self._client_counts
        players = b"\n".join(counts).decode("ascii").split("\n")
        for player, count in zip(players, counts.values()):
            client_counts[player] = client_counts.get(player, 0) + count
        return n

    def _accumulate(self, timestamp: IntArray, duration: FloatArray,
                    bandwidth: FloatArray, feed: IntArray) -> int:
        """Fold one block of entries into every accumulator but clients.

        The arithmetic is the per-entry rule applied elementwise, so each
        update is bit-identical to consuming the entries one at a time;
        ``bytes_served`` is summed in entry order by a cumulative sum
        seeded with the running total.
        """
        n = int(duration.size)
        if n == 0:
            return 0
        self._n_entries += n
        clamped = np.maximum(duration, 0.0)
        # The paper's floor(t) + 1 display convention (log_display_time),
        # kept as an exact integer so accumulators merge losslessly.
        display = np.floor(clamped).astype(np.int64) + 1
        for value, count in zip(*(arr.tolist() for arr in
                                  np.unique(display, return_counts=True)),
                                strict=True):
            self._log_length.counts[value] = (
                self._log_length.counts.get(value, 0) + count)
        bits = np.empty(n + 1, dtype=np.float64)
        bits[0] = self._bits
        np.multiply(clamped, np.maximum(bandwidth, 0.0), out=bits[1:])
        self._bits = float(np.add.accumulate(bits, out=bits)[-1])
        for value, count in zip(*(arr.tolist() for arr in
                                  np.unique(feed, return_counts=True)),
                                strict=True):
            self._feed_counts[value] = self._feed_counts.get(value, 0) + count
        self._congested += int(
            np.count_nonzero(bandwidth < CONGESTION_THRESHOLD_BPS))
        # The last edge at or below bw (NaN lands past the end).
        bin_idx = np.searchsorted(self._edges, bandwidth,
                                  side="right").astype(np.int64) - 1
        in_range = (bin_idx >= 0) & (bin_idx < self._bandwidth_hist.size)
        self._bandwidth_hist += np.bincount(
            bin_idx[in_range], minlength=self._bandwidth_hist.size
            ).astype(np.float64)
        # start = timestamp - duration, unclamped.
        phase = (timestamp.astype(np.float64) - duration) % DAY
        diurnal_idx = np.minimum(
            (phase / self._bin_width).astype(np.int64),
            self._diurnal.size - 1)
        self._diurnal += np.bincount(
            diurnal_idx, minlength=self._diurnal.size).astype(np.float64)
        return n

    def _fold_clients(self) -> None:
        """Fold the per-position client counts into ``_client_counts``."""
        if self._table is None:
            return
        counts = self._table_counts
        nonzero = np.flatnonzero(counts)
        client_counts = self._client_counts
        for player, count in zip(self._table.players(nonzero),
                                 counts[nonzero].tolist(), strict=True):
            client_counts[player] = client_counts.get(player, 0) + count
        self._table = None
        self._table_counts = np.zeros(0, dtype=np.int64)

    def __getstate__(self) -> dict[str, Any]:
        # Pool results fold in the worker: that work stays parallel and
        # the payload carries counts, not the client table.
        self._fold_clients()
        return self.__dict__.copy()

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "StreamingCharacterizer"
              ) -> "StreamingCharacterizer":
        """Fold ``other``'s accumulated state into this characterizer.

        The merge is exact: feeding two characterizers disjoint parts of
        a log and merging reports the same :class:`StreamingSummary` as
        one characterizer fed everything (see the module docstring for
        why this extends to the floating-point fields).  Both sides must
        have been built with the same ``diurnal_bins`` and
        ``bandwidth_edges``.  Returns ``self`` for chaining; ``other``
        is left unchanged.

        Raises
        ------
        ValueError
            If the two characterizers' binning configurations differ.
        """
        if not np.array_equal(self._edges, other._edges):
            raise ValueError("cannot merge: bandwidth_edges differ")
        if self._diurnal.size != other._diurnal.size:
            raise ValueError("cannot merge: diurnal_bins differ")
        self._fold_clients()
        other._fold_clients()
        self._log_length.merge(other._log_length)
        self._bits += other._bits
        self._n_entries += other._n_entries
        self._n_skipped += other._n_skipped
        self._congested += other._congested
        for player, count in other._client_counts.items():
            self._client_counts[player] = (
                self._client_counts.get(player, 0) + count)
        for feed, count in other._feed_counts.items():
            self._feed_counts[feed] = self._feed_counts.get(feed, 0) + count
        self._bandwidth_hist += other._bandwidth_hist
        self._diurnal += other._diurnal
        return self

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """The full accumulator state as a JSON-serializable dict.

        Everything the characterizer holds is either integer counts or
        floats whose JSON round trip is exact (Python serializes floats
        via their shortest exact representation), so
        ``StreamingCharacterizer.from_state_dict(c.state_dict())`` resumes
        with *bit-identical* future summaries — the contract behind
        ``repro characterize --checkpoint/--resume``.
        """
        self._fold_clients()
        return {
            "length_counts": {str(display): count for display, count
                              in self._log_length.counts.items()},
            "bits": self._bits,
            "n_entries": self._n_entries,
            "n_skipped": self._n_skipped,
            "congested": self._congested,
            "client_counts": dict(self._client_counts),
            "feed_counts": {str(feed): count for feed, count
                            in self._feed_counts.items()},
            "bandwidth_edges": self._edges.tolist(),
            "bandwidth_histogram": self._bandwidth_hist.tolist(),
            "diurnal_counts": self._diurnal.tolist(),
        }

    @classmethod
    def from_state_dict(cls, state: dict[str, Any]
                        ) -> "StreamingCharacterizer":
        """Rebuild a characterizer from :meth:`state_dict` output."""
        characterizer = cls(
            diurnal_bins=len(state["diurnal_counts"]),
            bandwidth_edges=np.asarray(state["bandwidth_edges"],
                                       dtype=np.float64))
        characterizer._log_length.counts = {
            int(display): int(count)
            for display, count in state["length_counts"].items()}
        characterizer._bits = float(state["bits"])
        characterizer._n_entries = int(state["n_entries"])
        characterizer._n_skipped = int(state["n_skipped"])
        characterizer._congested = int(state["congested"])
        characterizer._client_counts = {
            str(player): int(count)
            for player, count in state["client_counts"].items()}
        characterizer._feed_counts = {
            int(feed): int(count)
            for feed, count in state["feed_counts"].items()}
        characterizer._bandwidth_hist = np.asarray(
            state["bandwidth_histogram"], dtype=np.float64)
        characterizer._diurnal = np.asarray(state["diurnal_counts"],
                                            dtype=np.float64)
        return characterizer

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self, *, top_k: int = 10) -> StreamingSummary:
        """Snapshot the running statistics (cheap; call any time)."""
        self._fold_clients()
        # Player IDs are unique keys, so this equals a full sort's head.
        top = heapq.nsmallest(top_k, self._client_counts.items(),
                              key=lambda item: (-item[1], item[0]))
        congested_fraction = (self._congested / self._n_entries
                              if self._n_entries else 0.0)
        length_log_mu, length_log_sigma = self._log_length.moments()
        return StreamingSummary(
            n_entries=self._n_entries,
            n_skipped=self._n_skipped,
            n_clients=len(self._client_counts),
            length_log_mu=length_log_mu,
            length_log_sigma=length_log_sigma,
            bytes_served=self._bits / 8.0,
            feed_counts=dict(sorted(self._feed_counts.items())),
            congestion_bound_fraction=congested_fraction,
            bandwidth_histogram=self._bandwidth_hist.copy(),
            bandwidth_edges=self._edges.copy(),
            diurnal_counts=self._diurnal.copy(),
            top_clients=tuple(top),
        )

    def client_counts(self) -> dict[str, int]:
        """The full per-client transfer counts (the interest profile)."""
        self._fold_clients()
        return dict(self._client_counts)
