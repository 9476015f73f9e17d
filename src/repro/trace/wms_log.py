"""Windows-Media-Server-style log writing and parsing.

The paper's trace is a Windows Media Services 4.1 log: one space-separated
entry per client/server request-response with client identification,
environment, requested object, transfer statistics, server load, and a
one-second-resolution timestamp (Section 2.3).  This module emulates that
format closely enough that the sanitization and characterization pipeline
exercises the same parsing realities — coarse timestamps, ``-`` placeholders,
and per-entry (not per-session) rows.

The log intentionally does *not* carry autonomous-system or country columns:
the paper derived those by tracing IPs back to ASes with external routing
data (Section 3.1).  :func:`read_wms_log` accepts an optional ``resolver``
callable standing in for that external mapping.

The text format implemented here is one of the interchangeable trace
codecs registered in :mod:`repro.trace.codecs`; the columnar binary codec
shares this module's :class:`StreamingTraceWriter` reorder buffer, so both
emit entries in the identical ``(end, trace position)`` order.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain, compress, islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .._typing import FloatArray, IntArray
from ..errors import LogParseError, TraceError
from .records import ClientRecord
from .store import ClientTable, Trace

#: An ndarray of any dtype (the reorder buffer mixes floats and ints).
_AnyArray = np.ndarray[Any, np.dtype[Any]]

#: Columns written by :func:`write_wms_log`, in order.
LOG_FIELDS: tuple[str, ...] = (
    "x-timestamp",        # integer seconds since trace start (entry creation)
    "c-ip",
    "c-playerid",
    "c-os",
    "cs-uri-stem",        # /live/feed<object_id>
    "x-duration",         # transfer length, integer seconds
    "avg-bandwidth",      # bits per second
    "packet-loss-rate",   # fraction in [0, 1]
    "s-cpu-util",         # fraction in [0, 1]
    "sc-status",
    "cs-referer",
)

_URI_PREFIX = "/live/feed"

#: Type of the optional IP -> (as_number, country) resolver.
IpResolver = Callable[[str], tuple[int, str]]


def _format_entry(timestamp: int, ip: str, player_id: str, os_name: str,
                  object_id: int, duration: int, bandwidth: float,
                  loss: float, cpu: float, status: int) -> str:
    return " ".join((
        str(timestamp),
        ip,
        player_id,
        os_name or "-",
        f"{_URI_PREFIX}{object_id}",
        str(duration),
        f"{bandwidth:.0f}",
        f"{loss:.4f}",
        f"{cpu:.4f}",
        str(status),
        "-",
    ))


#: Type of the client-identity provider used by the streaming writers:
#: maps a client index to ``(ip, player_id, os_name)``.
ClientIdentity = Callable[[int], tuple[str, str, str]]

#: Per-transfer columns buffered by :class:`StreamingTraceWriter`, in
#: checkpoint/state order.
_WRITER_COLUMNS: tuple[tuple[str, type], ...] = (
    ("end", np.float64), ("position", np.int64),
    ("client_index", np.int64), ("object_id", np.int64),
    ("duration", np.float64), ("bandwidth_bps", np.float64),
    ("packet_loss", np.float64), ("server_cpu", np.float64),
    ("status", np.int64),
)


def _table_identity(trace: Trace) -> ClientIdentity:
    """Client identities looked up from a trace's client table."""
    clients = trace.clients

    def identity(index: int) -> tuple[str, str, str]:
        return (str(clients.ips[index]), str(clients.player_ids[index]),
                str(clients.os_names[index]))

    return identity


class StreamingTraceWriter:
    """Reorder buffer shared by every incremental trace codec writer.

    The server logs an entry when a transfer *completes*, so the emitted
    stream is ordered by transfer end while generation streams transfers
    by start.  The writer keeps an in-flight reorder buffer: a pushed
    transfer is held until the caller's ``horizon`` — a lower bound on
    every future transfer's start — guarantees no later transfer can end
    before it (``end >= start >= horizon``).  Buffered memory is
    therefore bounded by the workload's peak concurrency, never by the
    trace length, and entries are handed to the codec-specific
    :meth:`_emit_entries` in ``(end, trace position)`` order — exactly
    the batch writer's stable sort by end.

    Subclasses implement :meth:`_emit_entries` (and may extend the
    checkpoint state via :meth:`state_meta` / :meth:`state_arrays` /
    :meth:`restore`).

    Parameters
    ----------
    identity:
        Maps a client index to ``(ip, player_id, os_name)`` — e.g. a
        client-table lookup, or
        :func:`repro.core.gismo.synthetic_client_identity` for generated
        workloads where materializing the table would defeat the memory
        bound.
    """

    def __init__(self, identity: ClientIdentity) -> None:
        self._identity = identity
        self.n_written = 0
        self._buffer: dict[str, _AnyArray] = {
            name: np.empty(0, dtype=dtype)
            for name, dtype in _WRITER_COLUMNS}

    @property
    def n_buffered(self) -> int:
        """Number of in-flight (pushed, not yet flushed) entries."""
        return int(self._buffer["end"].size)

    def push(self, *, client_index: IntArray, object_id: IntArray,
             start: FloatArray, duration: FloatArray,
             bandwidth_bps: FloatArray, global_offset: int,
             horizon: float,
             packet_loss: FloatArray | None = None,
             server_cpu: FloatArray | None = None,
             status: IntArray | None = None) -> int:
        """Buffer one batch of transfers and flush what the horizon allows.

        ``global_offset`` is the trace position of the batch's first
        transfer (positions break end-time ties exactly like the batch
        writer's stable sort).  ``horizon`` promises that every transfer
        of every *later* push starts at or after it; entries with
        ``end < horizon`` are flushed now.  Returns the number of entries
        written by this call.
        """
        start = np.asarray(start, dtype=np.float64)
        n = start.size
        new: dict[str, _AnyArray] = {
            "end": start + np.asarray(duration, dtype=np.float64),
            "position": global_offset + np.arange(n, dtype=np.int64),
            "client_index": np.asarray(client_index, dtype=np.int64),
            "object_id": np.asarray(object_id, dtype=np.int64),
            "duration": np.asarray(duration, dtype=np.float64),
            "bandwidth_bps": np.asarray(bandwidth_bps, dtype=np.float64),
            "packet_loss": (np.zeros(n, dtype=np.float64)
                            if packet_loss is None
                            else np.asarray(packet_loss, dtype=np.float64)),
            "server_cpu": (np.zeros(n, dtype=np.float64)
                           if server_cpu is None
                           else np.asarray(server_cpu, dtype=np.float64)),
            "status": (np.full(n, 200, dtype=np.int64) if status is None
                       else np.asarray(status, dtype=np.int64)),
        }
        self._buffer = {name: np.concatenate([col, new[name]])
                        for name, col in self._buffer.items()}
        return self._flush_below(horizon)

    def _flush_below(self, horizon: float) -> int:
        """Emit buffered entries with ``end < horizon``; keep the rest."""
        buffer = self._buffer
        ready = buffer["end"] < horizon
        n_ready = int(np.count_nonzero(ready))
        if n_ready == 0:
            return 0
        keep = ~ready
        emit = {name: col[ready] for name, col in buffer.items()}
        self._buffer = {name: col[keep].copy()
                        for name, col in buffer.items()}
        # (end, trace position) == the batch writer's stable sort by end.
        order = np.lexsort((emit["position"], emit["end"]))
        self._emit_entries({name: col[order] for name, col in emit.items()})
        self.n_written += n_ready
        return n_ready

    def _emit_entries(self, emit: Mapping[str, _AnyArray]) -> None:
        """Write one flushed batch, already in ``(end, position)`` order.

        ``emit`` holds the :data:`_WRITER_COLUMNS` arrays; codec
        subclasses serialize them however their format requires.
        """
        raise NotImplementedError

    def finish(self) -> int:
        """Flush every buffered entry; returns the total written so far.

        The output stream itself is left open (the caller owns it).
        """
        self._flush_below(np.inf)
        return self.n_written

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_meta(self) -> dict[str, Any]:
        """JSON-serializable scalar writer state (for checkpointing)."""
        return {"n_written": self.n_written}

    def state_arrays(self) -> dict[str, _AnyArray]:
        """The reorder buffer as named arrays (for checkpointing)."""
        return {name: col.copy() for name, col in self._buffer.items()}

    def restore(self, meta: Mapping[str, Any],
                arrays: Mapping[str, _AnyArray]) -> None:
        """Restore a checkpointed buffer and written-entry count."""
        self.n_written = int(meta["n_written"])
        self._buffer = {
            name: np.asarray(arrays[name], dtype=dtype)
            for name, dtype in _WRITER_COLUMNS}


class StreamingWmsLogWriter(StreamingTraceWriter):
    """Writes a WMS-style text log from start-ordered transfer batches.

    The emitted file is byte-identical to :func:`write_wms_log` over the
    materialized trace (see :class:`StreamingTraceWriter` for the
    ordering argument).

    Parameters
    ----------
    stream:
        Open text stream to write to (the caller owns it).
    identity:
        See :class:`StreamingTraceWriter`.
    software:
        The ``#Software`` header value.
    write_header:
        Write the three header lines immediately.  Pass ``False`` when
        resuming into a log file that already has them.
    """

    def __init__(self, stream: TextIO, identity: ClientIdentity, *,
                 software: str = "Windows Media Services 4.1",
                 write_header: bool = True) -> None:
        super().__init__(identity)
        self._stream = stream
        if write_header:
            stream.write(f"#Software: {software}\n")
            stream.write("#Version: 1.0\n")
            stream.write(f"#Fields: {' '.join(LOG_FIELDS)}\n")

    def _emit_entries(self, emit: Mapping[str, _AnyArray]) -> None:
        identity = self._identity
        lines = []
        rows = zip(*(emit[name].tolist() for name, _ in _WRITER_COLUMNS),
                   strict=True)
        for end, _, client, obj, dur, bw, loss, cpu, stat in rows:
            ip, player_id, os_name = identity(client)
            lines.append(_format_entry(
                timestamp=int(end), ip=ip, player_id=player_id,
                os_name=os_name, object_id=obj,
                duration=int(round(dur)), bandwidth=bw, loss=loss,
                cpu=cpu, status=stat))
        lines.append("")
        self._stream.write("\n".join(lines))


def write_wms_log(trace: Trace, path: str | Path | TextIO, *,
                  software: str = "Windows Media Services 4.1") -> int:
    """Write ``trace`` as a WMS-style log; returns the number of entries.

    Entries are emitted in order of entry-creation time (the transfer *end*,
    floored to whole seconds — the server logs a request/response when the
    transfer completes).  Durations are rounded to whole seconds, matching
    the paper's one-second resolution.

    This is the one-shot front end to :class:`StreamingWmsLogWriter`: the
    whole trace is pushed as a single batch and flushed, which is what
    makes the incremental writer byte-identical to this function by
    construction.
    """
    own = isinstance(path, (str, Path))
    stream: TextIO = (open(path, "w", encoding="ascii")
                      if isinstance(path, (str, Path)) else path)
    try:
        writer = StreamingWmsLogWriter(stream, _table_identity(trace),
                                       software=software)
        writer.push(
            client_index=trace.client_index, object_id=trace.object_id,
            start=trace.start, duration=trace.duration,
            bandwidth_bps=trace.bandwidth_bps,
            packet_loss=trace.packet_loss, server_cpu=trace.server_cpu,
            status=trace.status, global_offset=0, horizon=-np.inf)
        return writer.finish()
    finally:
        if own:
            stream.close()


def _parse_fields_header(line: str, line_number: int) -> list[str]:
    fields = line[len("#Fields:"):].split()
    missing = [f for f in LOG_FIELDS if f not in fields]
    if missing:
        raise LogParseError(f"log is missing required fields: {missing}",
                            line_number=line_number, line=line)
    return fields


def iter_log_lines(stream: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield ``(line_number, stripped_line)`` skipping blanks."""
    for number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line:
            yield number, line


# ----------------------------------------------------------------------
# Reading: one batch tokenizer behind every text reader
# ----------------------------------------------------------------------
#: Target size of one tokenized run of lines: bounds the token lists a
#: :func:`tokenize_wms_lines` call holds (about 4,800 generated lines).
TOKENIZE_BYTES = 512 * 1024

#: Bytes (paths) or characters (text streams) read per block.
_READ_SIZE = 1024 * 1024

#: Lines per block when the source is an iterable of lines.
_LINE_BATCH = 8192

#: What ``str.strip()``/``str.split()`` treat as whitespace in ASCII.
#: ``bytes.split()`` misses the information separators ``\x1c``-``\x1f``,
#: so the tokenizer maps them to spaces first.
_WHITESPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_SEPARATORS = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")

#: Token closing every line in the uniform fast path; an ASCII block
#: cannot hold it.
_EOL = b"\xff"

_URI_PREFIX_BYTES = _URI_PREFIX.encode("ascii")

#: Durations from here up have no int64 ``floor(t) + 1`` display.
_DURATION_LIMIT = 2.0 ** 63


def _feed_id(token: bytes) -> int:
    if not token.startswith(_URI_PREFIX_BYTES):
        raise ValueError(f"unexpected URI stem {token!r}")
    return int(token[len(_URI_PREFIX_BYTES):])


def _finite_duration(values: FloatArray) -> _AnyArray:
    return np.isfinite(values) & (values < _DURATION_LIMIT)


def _trace_duration(values: FloatArray) -> _AnyArray:
    return _finite_duration(values) & (values >= 0.0)


@dataclass(frozen=True)
class _Rule:
    """How one numeric field of a data line must parse.

    ``convert`` runs per token (``int`` and ``float`` take ASCII bytes);
    the value must then fit ``dtype`` and, if given, pass ``valid``.
    """

    field: str
    column: str
    convert: Callable[[bytes], Any]
    dtype: type
    valid: Callable[[Any], _AnyArray] | None = None
    expect: str = ""
    #: Convert each distinct token once (few distinct values).
    distinct: bool = False


_TIMESTAMP = _Rule("x-timestamp", "timestamp", int, np.int64)
_OBJECT = _Rule("cs-uri-stem", "object_id", _feed_id, np.int64,
                distinct=True)
_BANDWIDTH = _Rule("avg-bandwidth", "bandwidth_bps", float, np.float64)

#: The numeric fields every reader parses, in error-report order.
_RULES: tuple[_Rule, ...] = (
    _TIMESTAMP,
    _Rule("x-duration", "duration", float, np.float64, _finite_duration,
          "finite and below 2**63"),
    _OBJECT,
    _BANDWIDTH,
)

#: :func:`read_wms_log` also parses these, and a Trace holds no
#: negative duration.
_TRACE_RULES: tuple[_Rule, ...] = (
    _TIMESTAMP,
    _Rule("x-duration", "duration", float, np.float64, _trace_duration,
          "finite, non-negative and below 2**63"),
    _OBJECT,
    _BANDWIDTH,
    _Rule("packet-loss-rate", "packet_loss", float, np.float64),
    _Rule("s-cpu-util", "server_cpu", float, np.float64),
    _Rule("sc-status", "status", int, np.int64),
)

#: Token columns kept as bytes: (field, column) pairs.
_PLAYER = (("c-playerid", "player"),)
_IDENTITY = (("c-playerid", "player"), ("c-ip", "ip"), ("c-os", "os_name"))


@dataclass(frozen=True)
class WmsColumns:
    """Trace-domain columns of one run of WMS log lines.

    What :func:`tokenize_wms_lines` returns: one row per well-formed
    data line, in line order.  ``line`` and ``skipped`` are 0-based line
    indices within the run of the rows and of the malformed data lines.
    The identity tokens are ASCII bytes; ``ip``, ``os_name`` and the
    last three numeric columns are ``None`` unless ``trace=True``.
    """

    line: IntArray
    skipped: IntArray
    timestamp: IntArray
    duration: FloatArray
    bandwidth_bps: FloatArray
    object_id: IntArray
    player: list[bytes]
    ip: list[bytes] | None = None
    os_name: list[bytes] | None = None
    packet_loss: FloatArray | None = None
    server_cpu: FloatArray | None = None
    status: IntArray | None = None

    def __len__(self) -> int:
        return int(self.line.size)

    @property
    def n_skipped(self) -> int:
        """Malformed data lines in the run."""
        return int(self.skipped.size)


def tokenize_wms_lines(run: bytes, fields: Sequence[str], *,
                       trace: bool = False) -> WmsColumns:
    """Tokenize a run of WMS log lines into columns, by one rule.

    ``run`` is lines separated by ``\\n``; ``fields`` is the
    ``#Fields`` layout they follow (a name listed twice is read from its
    last position).  Blank lines and lines whose first token starts with
    ``#`` are not data lines.  A data line is malformed, and is counted
    in :attr:`WmsColumns.skipped` instead of becoming a row, when

    * it holds a byte outside ASCII;
    * it does not split into exactly ``len(fields)`` tokens (ASCII
      whitespace and ``\\x1c``-``\\x1f`` separate tokens);
    * ``x-timestamp`` is not an integer in the int64 range;
    * ``x-duration`` is not a float, or is not finite, or is ``2**63``
      or more (negative too with ``trace=True``: a Trace holds none);
    * ``cs-uri-stem`` is not ``/live/feed`` followed by an int64;
    * ``avg-bandwidth`` is not a float;
    * with ``trace=True``: ``packet-loss-rate`` or ``s-cpu-util`` is not
      a float, or ``sc-status`` not an int64;
    * ``fields`` lacks a field the columns need.

    Numbers parse as Python's ``int``/``float`` parse them (``+5``,
    ``1_0``, ``-0`` and, for floats, ``1e3``, ``nan`` and ``inf`` too).
    Runs are tokenized with one ``bytes.split`` and one conversion per
    column; only runs holding a blank, malformed or ``#`` line take the
    per-line path.  Feed runs of at most about :data:`TOKENIZE_BYTES`
    (:func:`split_log_block` cuts them so).
    """
    run = run.translate(_SEPARATORS)
    if run and not run.endswith(b"\n"):
        run += b"\n"
    n_fields = len(fields)
    uniform = _uniform_tokens(run, n_fields)
    if uniform is not None:
        flat, stride = uniform, n_fields + 1
        line = np.arange(len(flat) // stride, dtype=np.int64)
        skipped = np.empty(0, dtype=np.int64)
    else:
        flat, line, skipped = _ragged_tokens(run, n_fields)
        stride = n_fields
    column = {name: k for k, name in enumerate(fields)}
    rules, strings = (_TRACE_RULES, _IDENTITY) if trace else (_RULES, _PLAYER)
    bad = np.zeros(line.size, dtype=bool)
    if any(field not in column for field in
           [rule.field for rule in rules] + [field for field, _ in strings]):
        bad[:] = True

    def tokens(field: str) -> list[bytes]:
        k = column.get(field)
        return flat[k::stride] if k is not None else [b""] * line.size

    values: dict[str, Any] = {rule.column: _parse_column(tokens(rule.field),
                                                         rule, bad)
                              for rule in rules}
    values.update((name, tokens(field)) for field, name in strings)
    if bad.any():
        keep = ~bad
        keep_list = keep.tolist()
        values = {name: (list(compress(value, keep_list))
                         if isinstance(value, list) else value[keep])
                  for name, value in values.items()}
        skipped = np.sort(np.concatenate([skipped, line[bad]]))
        line = line[keep]
    return WmsColumns(line=line, skipped=skipped, **values)


def _uniform_tokens(run: bytes, n_fields: int) -> list[bytes] | None:
    """All tokens of ``run`` with an :data:`_EOL` token closing each line,
    if every line is an ASCII, non-``#`` line of ``n_fields`` tokens."""
    if not run.isascii() or b"#" in run:
        return None
    n_lines = run.count(b"\n")
    flat = run.replace(b"\n", b" \xff ").split()
    stride = n_fields + 1
    # The run holds no 0xff byte, so there are exactly n_lines markers;
    # one at every stride position leaves n_fields tokens per line.
    if (len(flat) != n_lines * stride
            or flat[n_fields::stride].count(_EOL) != n_lines):
        return None
    return flat


def _ragged_tokens(run: bytes, n_fields: int
                   ) -> tuple[list[bytes], IntArray, IntArray]:
    """The per-line path: tokens of the well-shaped data lines (stride
    ``n_fields``), their line indices, and the misshapen lines'."""
    rows: list[list[bytes]] = []
    line: list[int] = []
    skipped: list[int] = []
    for k, text in enumerate(run.split(b"\n")[:-1]):
        tokens = text.split()
        if not tokens or tokens[0].startswith(b"#"):
            continue
        if len(tokens) == n_fields and text.isascii():
            rows.append(tokens)
            line.append(k)
        else:
            skipped.append(k)
    return (list(chain.from_iterable(rows)),
            np.asarray(line, dtype=np.int64),
            np.asarray(skipped, dtype=np.int64))


def _parse_column(tokens: list[bytes], rule: _Rule,
                  bad: _AnyArray) -> _AnyArray:
    """One column's values; rows whose token breaks ``rule`` are set in
    ``bad`` (their value is a placeholder 0)."""
    n = len(tokens)
    try:
        if rule.distinct:
            memo = {token: rule.convert(token)
                    for token in dict.fromkeys(tokens)}
            values = np.fromiter(map(memo.__getitem__, tokens),
                                 dtype=rule.dtype, count=n)
        else:
            values = np.fromiter(map(rule.convert, tokens),
                                 dtype=rule.dtype, count=n)
    except (ValueError, OverflowError):
        values = np.zeros(n, dtype=rule.dtype)
        for k, token in enumerate(tokens):
            try:
                values[k] = rule.convert(token)
            except (ValueError, OverflowError):
                bad[k] = True
    if rule.valid is not None:
        bad |= ~rule.valid(values)
    return values


def _malformed_reason(text: bytes, fields: Sequence[str]) -> str:
    """Why :func:`tokenize_wms_lines` (``trace=True``) rejects a line."""
    if not text.isascii():
        return "undecodable bytes (non-ASCII) in entry"
    tokens = text.translate(_SEPARATORS).split()
    if len(tokens) != len(fields):
        return f"expected {len(fields)} columns, got {len(tokens)}"
    column = {name: k for k, name in enumerate(fields)}
    for rule in _TRACE_RULES:
        token = tokens[column[rule.field]]
        try:
            value = np.asarray(rule.convert(token), dtype=rule.dtype)
        except (ValueError, OverflowError) as exc:
            return f"{rule.field}: {exc}"
        if rule.valid is not None and not rule.valid(value):
            return (f"{rule.field} must be {rule.expect}, got "
                    f"{token.decode('ascii')}")
    raise AssertionError("line passes every rule")  # pragma: no cover


def join_log_lines(lines: Sequence[str]) -> bytes:
    """Encode text lines as one block the tokenizer reads, one line each.

    Characters outside ASCII become bytes outside ASCII, so their lines
    are malformed; a newline inside an item is whitespace.
    """
    if not lines:
        return b""
    block = ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")
    if block.count(b"\n") != len(lines):
        block = ("\n".join(line.replace("\n", " ") for line in lines)
                 + "\n").encode("utf-8", "surrogatepass")
    return block


def _universal_newlines(blob: bytes) -> bytes:
    """``\\r\\n`` and lone ``\\r`` as ``\\n``, as text-mode files read."""
    if b"\r" in blob:
        blob = blob.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return blob


def iter_log_blocks(source: str | Path | bytes | TextIO | Iterable[str]
                    ) -> Iterator[tuple[int, bytes]]:
    """Read a log as ``(first line number, block)`` pairs of whole lines.

    Paths are read in binary and raw ``bytes`` taken whole, both with
    :func:`_universal_newlines`; text streams are read in blocks and
    other iterables of lines in batches, each item one line.
    """
    if isinstance(source, bytes):
        yield 1, _universal_newlines(source)
    elif isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            yield from _read_blocks(stream.read, universal=True)
    elif isinstance(source, io.TextIOBase):
        yield from _read_blocks(source.read, universal=False)
    else:
        lines = iter(source)
        number = 1
        while batch := list(islice(lines, _LINE_BATCH)):
            yield number, join_log_lines(batch)
            number += len(batch)


def _read_blocks(read: Callable[[int], str | bytes], *, universal: bool
                 ) -> Iterator[tuple[int, bytes]]:
    number = 1
    carry = b""
    while data := read(_READ_SIZE):
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")
        data = carry + data
        cut = data.rfind(b"\n") + 1
        if universal:
            # A lone \r ends a line too; one in the last byte may be
            # the first half of a \r\n split by the read.
            cut = max(cut, data.rfind(b"\r", 0, len(data) - 1) + 1)
        block, carry = data[:cut], data[cut:]
        if block:
            if universal:
                block = _universal_newlines(block)
            yield number, block
            number += block.count(b"\n")
    if carry:
        yield number, _universal_newlines(carry) if universal else carry


def split_log_block(block: bytes, first_line: int = 1
                    ) -> Iterator[tuple[int, bytes, bool]]:
    """Cut a block into directive lines and runs of data lines.

    Yields ``(line number, piece, is_directive)``: each line whose first
    non-whitespace byte is ``#`` alone and stripped, and the lines
    between them in runs of at most about :data:`TOKENIZE_BYTES`, ready
    for :func:`tokenize_wms_lines`.
    """
    if block and not block.endswith(b"\n"):
        block += b"\n"
    number, pos, end = first_line, 0, len(block)
    while pos < end:
        directive = _next_directive(block, pos)
        while pos < directive:
            cut = block.find(b"\n", min(pos + TOKENIZE_BYTES,
                                        directive) - 1) + 1
            yield number, block[pos:cut], False
            number += block.count(b"\n", pos, cut)
            pos = cut
        if directive < end:
            pos = block.find(b"\n", directive) + 1
            yield number, block[directive:pos].strip(_WHITESPACE), True
            number += 1


def _next_directive(block: bytes, pos: int) -> int:
    """Offset of the first ``#`` line at or after ``pos``, else the end."""
    at = block.find(b"#", pos)
    while at != -1:
        newline = block.rfind(b"\n", pos, at)
        start = newline + 1 if newline != -1 else pos
        if not block[start:at].strip(_WHITESPACE):
            return start
        at = block.find(b"#", block.find(b"\n", at) + 1)
    return len(block)


def iter_wms_runs(source: str | Path | TextIO | Iterable[str]
                  ) -> Iterator[tuple[int, bytes, list[str]]]:
    """Yield ``(first line number, run, fields)`` for a log's data runs.

    Follows every ``#Fields`` directive; other ``#`` lines are skipped.

    Raises
    ------
    LogParseError
        On a data line before the first ``#Fields`` header, or a header
        missing a required field.
    """
    fields: list[str] | None = None
    for first, block in iter_log_blocks(source):
        for number, piece, directive in split_log_block(block, first):
            if directive:
                if piece.startswith(b"#Fields:"):
                    fields = _parse_fields_header(
                        piece.decode("ascii", "replace"), number)
                continue
            if fields is None:
                for k, text in enumerate(piece.split(b"\n")):
                    if text.strip(_WHITESPACE):
                        raise LogParseError(
                            "data before #Fields header",
                            line_number=number + k,
                            line=text.strip(_WHITESPACE).decode(
                                "ascii", "replace"))
                continue
            yield number, piece, fields


class _ClientInterner:
    """Client table of a parsed log, interned by first appearance."""

    def __init__(self, resolver: IpResolver | None) -> None:
        self._resolver = resolver
        self.index: dict[bytes, int] = {}
        self._identity: list[tuple[bytes, bytes]] = []

    def intern(self, player: list[bytes], ip: list[bytes],
               os_name: list[bytes]) -> IntArray:
        """Client index of every row.

        Raises
        ------
        TraceError
            At the first row whose player was first seen with another
            IP or OS.
        """
        index, identity = self.index, self._identity
        for key, ip_token, os_token in dict.fromkeys(zip(player, ip,
                                                         os_name)):
            known = index.get(key)
            if known is None:
                index[key] = len(identity)
                identity.append((ip_token, os_token))
            elif identity[known] != (ip_token, os_token):
                raise TraceError(
                    f"player {key.decode('ascii')!r} re-registered with "
                    "different identity fields")
        return np.fromiter(map(index.__getitem__, player), dtype=np.int64,
                           count=len(player))

    def table(self) -> ClientTable:
        players = _decode(list(self.index))
        ips = _decode([ip for ip, _ in self._identity])
        places = [(0, "")] * len(ips)
        if self._resolver is not None:
            # ClientRecord validates what the resolver returns.
            places = [(record.as_number, record.country) for record in (
                ClientRecord(player_id=player, ip=ip, as_number=as_number,
                             country=country)
                for player, ip, (as_number, country)
                in zip(players, ips, map(self._resolver, ips)))]
        return ClientTable(
            player_ids=players, ips=ips,
            as_numbers=np.asarray([place[0] for place in places],
                                  dtype=np.int64),
            countries=[place[1] for place in places],
            os_names=_decode([os_name for _, os_name in self._identity]))


def _decode(tokens: list[bytes]) -> list[str]:
    """ASCII tokens (which hold no newline) as strings, in one decode."""
    return b"\n".join(tokens).decode("ascii").split("\n") if tokens else []


def _line_errors(run: bytes, lines: IntArray, first_line: int,
                 fields: Sequence[str]) -> Iterator[LogParseError]:
    texts = run.split(b"\n")
    for k in lines.tolist():
        text = texts[k]
        yield LogParseError(
            _malformed_reason(text, fields), line_number=first_line + k,
            line=text.strip(_WHITESPACE).decode("ascii", "replace"))


def read_wms_log(path: str | Path | TextIO, *,
                 resolver: IpResolver | None = None,
                 extent: float | None = None,
                 on_error: str = "raise",
                 error_sink: list[LogParseError] | None = None) -> Trace:
    """Parse a WMS-style log back into a :class:`Trace`.

    Lines are read in blocks through :func:`tokenize_wms_lines` (with
    ``trace=True``), whose rule decides which lines are malformed.

    Parameters
    ----------
    path:
        Log file path or open text stream.  Undecodable (non-ASCII)
        bytes make their line malformed instead of aborting the read.
    resolver:
        Optional ``ip -> (as_number, country)`` mapping standing in for the
        external IP-to-AS traceback the paper performed; unresolved clients
        get AS 0 and an empty country.  Called once per client.
    extent:
        Observation-window length override.  When omitted, the latest entry
        timestamp is used.
    on_error:
        ``"raise"`` (default) aborts on the first malformed data line;
        ``"skip"`` drops malformed lines and continues — real month-long
        logs contain truncated or corrupt lines at harvest boundaries.  A
        missing or incomplete ``#Fields`` header always raises.
    error_sink:
        With ``on_error="skip"``, an optional list that collects the
        :class:`LogParseError` for every skipped line.

    Raises
    ------
    LogParseError
        On malformed lines (``on_error="raise"``) or a missing/incomplete
        ``#Fields`` header.
    TraceError
        If a player reappears with another IP or OS.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    clients = _ClientInterner(resolver)
    parts: list[tuple[WmsColumns, IntArray]] = []
    for number, run, fields in iter_wms_runs(path):
        tokens = tokenize_wms_lines(run, fields, trace=True)
        assert tokens.ip is not None and tokens.os_name is not None
        if tokens.n_skipped and on_error == "raise":
            # Rows before the first bad line register first: a clash
            # among them is the earlier error.
            head = int(np.searchsorted(tokens.line, tokens.skipped[0]))
            clients.intern(tokens.player[:head], tokens.ip[:head],
                           tokens.os_name[:head])
            raise next(_line_errors(run, tokens.skipped[:1], number, fields))
        parts.append((tokens, clients.intern(tokens.player, tokens.ip,
                                             tokens.os_name)))
        if error_sink is not None:
            error_sink.extend(_line_errors(run, tokens.skipped, number,
                                           fields))

    def column(name: str, dtype: type) -> _AnyArray:
        return np.concatenate([np.empty(0, dtype=dtype)]
                              + [getattr(tokens, name) for tokens, _ in parts])

    duration = column("duration", np.float64)
    return Trace(
        clients=clients.table(),
        client_index=np.concatenate([np.empty(0, dtype=np.int64)]
                                    + [client for _, client in parts]),
        object_id=column("object_id", np.int64),
        start=column("timestamp", np.int64).astype(np.float64) - duration,
        duration=duration,
        bandwidth_bps=column("bandwidth_bps", np.float64),
        packet_loss=column("packet_loss", np.float64),
        server_cpu=column("server_cpu", np.float64),
        status=column("status", np.int64),
        extent=extent)


def log_round_trip(trace: Trace, *, resolver: IpResolver | None = None) -> Trace:
    """Serialize ``trace`` through the log format and parse it back.

    Useful in tests: the result reflects exactly what the paper's pipeline
    could have seen (one-second timestamps, rounded durations).
    """
    buffer = io.StringIO()
    write_wms_log(trace, buffer)
    buffer.seek(0)
    return read_wms_log(buffer, resolver=resolver, extent=trace.extent)
