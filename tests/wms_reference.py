"""The per-line WMS log rule the text readers used to apply, as an oracle.

``StreamingCharacterizer``, ``characterize_logs``, ``FeedWorker`` and
``read_wms_log`` each carried a copy of this rule, one Python call per
line.  They now share the batch tokenizer
(:func:`repro.trace.wms_log.tokenize_wms_lines`); this module keeps the
old rule, verbatim, as the reference those readers must reproduce line
for line (the ``_reference_*`` idiom).  Where the tokenizer differs on
purpose, :func:`_intended_skip` decides the line first; every such case
is listed in :data:`INTENDED_DIFFERENCES`.

It also builds the mutated logs the differential tests feed to both.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right

import numpy as np

from repro.errors import LogParseError
from repro.trace.builder import TraceBuilder
from repro.trace.records import ClientRecord
from repro.trace.streaming import DEFAULT_BANDWIDTH_EDGES, CONGESTION_THRESHOLD_BPS
from repro.trace.wms_log import LOG_FIELDS, _parse_fields_header, iter_log_lines
from repro.units import DAY

_URI_PREFIX = "/live/feed"

#: What ``errors="replace"`` decoding leaves for an undecodable byte.
_REPLACEMENT = "�"

_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1

#: Where the tokenizer's one rule departs from the per-line rule.
INTENDED_DIFFERENCES = (
    "A non-finite x-duration (nan, inf) is a malformed line.  The "
    "per-line rule let ValueError or OverflowError escape the "
    "characterizer and killed a serve feed; read_wms_log accepted it.",
    "An x-duration of 2**63 or more is a malformed line: its floor(t)+1 "
    "display has no int64.",
    "An x-timestamp, feed id or sc-status outside int64 is a malformed "
    "line.  The per-line rule kept them as Python ints.",
    "read_wms_log: a negative x-duration is a malformed line "
    "(LogParseError, or skipped under on_error='skip').  It used to be "
    "a TraceError from TraceBuilder, raised even under 'skip'.",
    "A str line holding a non-ASCII character is malformed.  The "
    "per-line rule rejected only U+FFFD; bytes decoded with "
    "errors='replace' never hold any other.",
    "characterize_logs splits lines at \\n, \\r\\n and \\r only, as the "
    "file reader does; its chunk reader used str.splitlines, which also "
    "split at \\x0b, \\x0c and \\x1c-\\x1e.",
)


def _intended_skip(row: dict[str, str], *, trace: bool = False) -> bool:
    """Whether a line the per-line rule accepts is malformed now."""
    duration = float(row["x-duration"])
    if not (math.isfinite(duration) and duration < 2.0 ** 63):
        return True
    if trace and duration < 0:
        return True
    ints = [int(row["x-timestamp"]),
            int(row["cs-uri-stem"][len(_URI_PREFIX):])]
    if trace:
        ints.append(int(row["sc-status"]))
    return not all(_INT64_MIN <= value <= _INT64_MAX for value in ints)


class _ReferenceCharacterizer:
    """``StreamingCharacterizer``'s per-line path as it was."""

    def __init__(self, diurnal_bins: int = 96) -> None:
        self.length_counts: dict[int, int] = {}
        self.bits = 0.0
        self.n_entries = 0
        self.n_skipped = 0
        self.congested = 0
        self.client_counts: dict[str, int] = {}
        self.feed_counts: dict[int, int] = {}
        self.edges = DEFAULT_BANDWIDTH_EDGES.tolist()
        self.hist = np.zeros(len(self.edges) - 1)
        self.diurnal = np.zeros(diurnal_bins)
        self.bin_width = DAY / diurnal_bins

    def consume_stream(self, stream) -> int:
        parsed = 0
        fields = None
        for number, line in iter_log_lines(stream):
            if line.startswith("#"):
                if line.startswith("#Fields:"):
                    fields = _parse_fields_header(line, number)
                continue
            if fields is None:
                raise LogParseError("data before #Fields header",
                                    line_number=number, line=line)
            if self.consume_line(line, fields):
                parsed += 1
        return parsed

    def consume_feed_lines(self, lines) -> int:
        """The old ``FeedWorker.ingest_lines``: follows ``#Fields``."""
        parsed = 0
        fields = list(LOG_FIELDS)
        for raw in lines:
            line = raw.strip()
            if line.startswith("#"):
                if line.startswith("#Fields:"):
                    fields = _parse_fields_header(line, 0)
                continue
            if line and self.consume_line(line, fields):
                parsed += 1
        return parsed

    def consume_line(self, line: str, fields) -> bool:
        return _reference_consume_line(self, line, fields)

    def state_dict(self) -> dict:
        return {
            "length_counts": {str(k): v for k, v in self.length_counts.items()},
            "bits": self.bits,
            "n_entries": self.n_entries,
            "n_skipped": self.n_skipped,
            "congested": self.congested,
            "client_counts": dict(self.client_counts),
            "feed_counts": {str(k): v for k, v in self.feed_counts.items()},
            "bandwidth_edges": list(self.edges),
            "bandwidth_histogram": self.hist.tolist(),
            "diurnal_counts": self.diurnal.tolist(),
        }


def _reference_consume_line(state: _ReferenceCharacterizer, line: str,
                            fields) -> bool:
    """The old ``StreamingCharacterizer._consume_line``, plus
    :func:`_intended_skip`."""
    if _REPLACEMENT in line:
        state.n_skipped += 1
        return False
    parts = line.split()
    if len(parts) != len(fields):
        state.n_skipped += 1
        return False
    row = dict(zip(fields, parts, strict=True))
    try:
        duration = float(row["x-duration"])
        bandwidth = float(row["avg-bandwidth"])
        timestamp = int(row["x-timestamp"])
        uri = row["cs-uri-stem"]
        if not uri.startswith(_URI_PREFIX):
            raise ValueError("bad uri")
        feed = int(uri[len(_URI_PREFIX):])
        player = row["c-playerid"]
    except (KeyError, ValueError):
        state.n_skipped += 1
        return False
    if not line.isascii() or _intended_skip(row):
        state.n_skipped += 1
        return False

    state.n_entries += 1
    display = math.floor(max(duration, 0.0)) + 1
    state.length_counts[display] = state.length_counts.get(display, 0) + 1
    state.bits += max(duration, 0.0) * max(bandwidth, 0.0)
    state.client_counts[player] = state.client_counts.get(player, 0) + 1
    state.feed_counts[feed] = state.feed_counts.get(feed, 0) + 1
    if bandwidth < CONGESTION_THRESHOLD_BPS:
        state.congested += 1
    bin_idx = bisect_right(state.edges, bandwidth) - 1
    if 0 <= bin_idx < state.hist.size:
        state.hist[bin_idx] += 1
    phase = (timestamp - duration) % DAY
    state.diurnal[min(int(phase / state.bin_width),
                      state.diurnal.size - 1)] += 1
    return True


def _reference_read_wms_log(text: str, *, on_error: str = "raise",
                            error_sink: list | None = None):
    """The old ``read_wms_log`` loop over decoded text, plus
    :func:`_intended_skip`."""
    builder = TraceBuilder()
    fields = None
    for number, line in iter_log_lines(io.StringIO(text, newline=None)):
        if line.startswith("#"):
            if line.startswith("#Fields:"):
                fields = _parse_fields_header(line, number)
            continue
        if fields is None:
            raise LogParseError("data before #Fields header",
                                line_number=number, line=line)
        try:
            if _REPLACEMENT in line or not line.isascii():
                raise LogParseError("undecodable", line_number=number,
                                    line=line)
            parts = line.split()
            if len(parts) != len(fields):
                raise LogParseError("columns", line_number=number,
                                    line=line)
            row = dict(zip(fields, parts, strict=True))
            try:
                timestamp = int(row["x-timestamp"])
                duration = float(row["x-duration"])
                uri = row["cs-uri-stem"]
                if not uri.startswith(_URI_PREFIX):
                    raise ValueError(f"unexpected URI stem {uri!r}")
                object_id = int(uri[len(_URI_PREFIX):])
                bandwidth = float(row["avg-bandwidth"])
                loss = float(row["packet-loss-rate"])
                cpu = float(row["s-cpu-util"])
                status = int(row["sc-status"])
            except (KeyError, ValueError) as exc:
                raise LogParseError(str(exc), line_number=number,
                                    line=line) from exc
            if _intended_skip(row, trace=True):
                raise LogParseError("intended", line_number=number,
                                    line=line)
        except LogParseError as exc:
            if on_error == "skip":
                if error_sink is not None:
                    error_sink.append(exc)
                continue
            raise
        client = builder.add_client(ClientRecord(
            player_id=row["c-playerid"], ip=row["c-ip"],
            os_name=row["c-os"]))
        builder.add_transfer(client_index=client, object_id=object_id,
                             start=float(timestamp) - duration,
                             duration=duration, bandwidth_bps=bandwidth,
                             packet_loss=loss, server_cpu=cpu,
                             status=status)
    return builder.build()


# ----------------------------------------------------------------------
# Mutated logs
# ----------------------------------------------------------------------
_SEPARATORS = (" ", " ", " ", "  ", "\t", "\x0b", "\x0c",
               "\x1c", "\x1d", "\x1e", "\x1f")


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def _spell_int(rng: np.random.Generator, value: int) -> str:
    choice = int(rng.integers(8))
    if choice == 0:
        return f"+{value}"
    if choice == 1 and value >= 10:
        text = str(value)
        return f"{text[0]}_{text[1:]}"
    if choice == 2:
        return f"00{value}"
    if choice == 3 and value == 0:
        return "-0"
    return str(value)


def _spell_float(rng: np.random.Generator, value: int) -> str:
    choice = int(rng.integers(8))
    if choice == 0 and value % 1000 == 0 and value:
        return f"{value // 1000}e3"
    if choice == 1:
        return f"{value}.0"
    return _spell_int(rng, value)


def _bad_number(rng: np.random.Generator) -> str:
    return _pick(rng, ["nan", "-inf", "inf", "NaN", "1e999", "x7", "",
                       "1.5.2", "9" * 25, "-" + "9" * 25, "0x10", "1e3"])


def mutated_log(rng: np.random.Generator, n_lines: int, *,
                crlf: bool = True) -> bytes:
    """A WMS log of ``n_lines`` entries, some of them damaged.

    Entries come from six clients with fixed identities, so a log never
    re-registers a player.  Mutations: separators (tabs, ``\\x0b``,
    ``\\x0c``, ``\\x1c``-``\\x1f``, runs of spaces), leading and trailing
    whitespace, CRLF and lone CR line ends (``crlf``), blank,
    whitespace-only and comment lines and repeated ``#Fields`` headers
    mid-log, non-ASCII bytes, number spellings (``+5``, ``1_0``, ``007``,
    ``-0``, ``1e3``, ``5.0``), non-finite, negative, malformed and
    out-of-int64 numbers, bad URIs, and dropped or extra tokens.
    """
    header = f"#Fields: {' '.join(LOG_FIELDS)}"
    lines = ["#Software: Windows Media Services 4.1", "#Version: 1.0",
             header]
    ends = []
    for _ in range(n_lines):
        roll = float(rng.random())
        if roll < 0.04:
            lines.append(_pick(rng, ["", "   ", "\t", "\x1c",
                                     "# harvest boundary", "  #note",
                                     header]))
            continue
        client = int(rng.integers(6))
        duration = _pick(rng, [0, 1, 5, 30, 300, 1000, 3000])
        tokens = [
            _spell_int(rng, int(rng.integers(200_000))),
            f"10.0.0.{client}", f"player-{client}",
            ("Windows_98", "WinNT", "-")[client % 3],
            f"{_URI_PREFIX}{_spell_int(rng, int(rng.integers(3)))}",
            _spell_float(rng, duration),
            _spell_float(rng, _pick(rng, [0, 20_000, 56_000, 300_000,
                                          1_000_000])),
            _pick(rng, ["0.0000", "0.0125", "1e-3"]),
            _pick(rng, ["0.0000", "0.5000"]),
            _spell_int(rng, _pick(rng, [200, 304, 404])),
            "-",
        ]
        roll = float(rng.random())
        if roll < 0.04:
            tokens[5] = _bad_number(rng)
        elif roll < 0.06:
            tokens[5] = f"-{duration + 1}"
        elif roll < 0.08:
            tokens[0] = _bad_number(rng)
        elif roll < 0.10:
            tokens[6] = _bad_number(rng)
        elif roll < 0.12:
            tokens[4] = _pick(rng, ["/live/feedX", "/live/feed",
                                    "/vod/feed1", "/live/feed/live/feed1",
                                    "/live/feed" + "9" * 20,
                                    "/live/feed-3"])
        elif roll < 0.13:
            tokens[9] = _bad_number(rng)
        elif roll < 0.14:
            tokens[7] = _bad_number(rng)
        elif roll < 0.16:
            tokens = tokens[:int(rng.integers(len(tokens)))]
        elif roll < 0.17:
            tokens.append("extra")
        line = tokens[0] if tokens else ""
        for token in tokens[1:]:
            line += _pick(rng, _SEPARATORS) + token
        if float(rng.random()) < 0.05:
            line = _pick(rng, _SEPARATORS) + line + _pick(rng, _SEPARATORS)
        if float(rng.random()) < 0.02:
            at = int(rng.integers(len(line) + 1))
            line = line[:at] + "\udcff" + line[at:]
        lines.append(line)
    for _ in lines:
        ends.append(_pick(rng, ["\n", "\n", "\n", "\r\n", "\r"]
                          if crlf else ["\n"]))
    text = "".join(line + end for line, end in zip(lines, ends))
    # "\udcff" stands for a raw 0xff byte.
    return text.encode("ascii", "surrogateescape")
