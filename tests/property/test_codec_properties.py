"""Property-based tests of codec interchangeability.

The contract under test: for *any* trace, the text log and the columnar
binary file are two encodings of one artifact — decoding either yields
bit-identical traces, re-formatting the binary entry stream through
the text formatter reproduces the text log's data lines byte for byte,
and characterizing either yields the same summary and client counts.
"""

import io
import math
import os
import tempfile
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.characterize import (
    DEFAULT_CHUNK_BYTES,
    characterize_logs,
    consume_chunk,
    plan_log_chunks,
)
from repro.trace.codecs import (
    BinaryTraceReader,
    BinaryTraceWriter,
    format_quantized_entry,
    read_binary_trace,
    write_binary_trace,
)
from repro.trace.store import TRANSFER_COLUMNS, ClientTable, Trace
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import StreamingWmsLogWriter, read_wms_log, write_wms_log

finite = dict(allow_nan=False, allow_infinity=False)

# Transfers with every statistic column randomized: the ratio columns
# draw from [0, 1] where the 4-decimal quantization's half-even rounding
# and re-format stability actually bite.
rich_transfers = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),                  # client
        st.integers(min_value=0, max_value=2),                  # object
        st.floats(min_value=0.0, max_value=90_000.0, **finite),  # start
        st.floats(min_value=0.0, max_value=900.0, **finite),     # duration
        st.floats(min_value=0.0, max_value=5e6, **finite),       # bandwidth
        st.floats(min_value=0.0, max_value=1.0, **finite),       # loss
        st.floats(min_value=0.0, max_value=1.0, **finite),       # cpu
        st.sampled_from([200, 304, 404, 500]),                   # status
    ),
    min_size=0, max_size=40)

identity_strings = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=64)


def _build_trace(transfers):
    clients = ClientTable(
        player_ids=[f"player-{i:05d}" for i in range(4)],
        ips=[f"10.9.0.{i}" for i in range(4)],
        as_numbers=[7, 7, 9, 11], countries=["US", "BR", "US", "DE"],
        os_names=["Windows_98", "Windows_2000", "", "Mac_OS"])
    columns = (list(zip(*transfers, strict=True)) if transfers
               else [[]] * 8)
    return Trace(clients, columns[0], columns[1], columns[2], columns[3],
                 bandwidth_bps=columns[4], packet_loss=columns[5],
                 server_cpu=columns[6], status=columns[7],
                 extent=100_000.0)


@given(transfers=rich_transfers)
@settings(max_examples=60, deadline=None)
def test_binary_decode_bit_identical_to_text_decode(transfers):
    trace = _build_trace(transfers)
    text = io.StringIO()
    write_wms_log(trace, text)
    text.seek(0)
    from_text = read_wms_log(text, extent=trace.extent)

    handle, path = tempfile.mkstemp(suffix=".rtb")
    os.close(handle)
    try:
        write_binary_trace(trace, path)
        from_binary = read_binary_trace(path, extent=trace.extent)
    finally:
        os.unlink(path)

    for column in TRANSFER_COLUMNS:
        a, b = getattr(from_text, column), getattr(from_binary, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column
    for column in ("player_ids", "ips", "os_names"):
        assert np.array_equal(getattr(from_text.clients, column),
                              getattr(from_binary.clients, column)), column
    assert from_text.extent == from_binary.extent


@given(transfers=rich_transfers)
@settings(max_examples=60, deadline=None)
def test_binary_entry_stream_reformats_to_text_lines(transfers):
    trace = _build_trace(transfers)
    text = io.StringIO()
    write_wms_log(trace, text)
    data_lines = [line for line in text.getvalue().splitlines()
                  if not line.startswith("#")]

    handle, path = tempfile.mkstemp(suffix=".rtb")
    os.close(handle)
    try:
        write_binary_trace(trace, path)
        with BinaryTraceReader(path) as reader:
            identity = reader.identity_lookup()
            formatted = [
                format_quantized_entry(quantized, row, identity)
                for quantized in reader.iter_quantized()
                for row in range(int(quantized["timestamp"].shape[0]))]
    finally:
        os.unlink(path)
    assert formatted == data_lines


@given(player=identity_strings, os_name=identity_strings)
@settings(max_examples=40, deadline=None)
def test_identity_width_round_trip(player, os_name):
    """Arbitrary-width printable identity strings survive the binary
    fixed-width client blocks."""
    clients = ClientTable(player_ids=[player], ips=["198.51.100.7"],
                          as_numbers=[3], countries=["US"],
                          os_names=[os_name])
    trace = Trace(clients, [0], [0], [1.0], [2.0], extent=10.0)
    handle, path = tempfile.mkstemp(suffix=".rtb")
    os.close(handle)
    try:
        write_binary_trace(trace, path)
        with BinaryTraceReader(path) as reader:
            identities = reader.client_identity_map()
    finally:
        os.unlink(path)
    assert identities[0] == ("198.51.100.7", player, os_name)


def _sparse_identity(index):
    return (f"10.{index % 256}.0.1", f"p{index}", "Windows_XP")


# Client indices drawn sparsely from a huge range, and batches of
# transfers over them; each batch flushes as its own segment, so client
# blocks are split across segments (a client is declared in the block
# of the first segment that uses it).
sparse_streams = st.lists(
    st.integers(min_value=0, max_value=2 ** 45), min_size=1, max_size=8,
    unique=True).flatmap(lambda ids: st.lists(
        st.lists(st.tuples(st.sampled_from(ids),                  # client
                           st.integers(min_value=0, max_value=900),  # start
                           st.integers(min_value=1, max_value=50),   # dur
                           st.integers(min_value=1_000, max_value=90_000)),
                 min_size=1, max_size=12),
        min_size=1, max_size=5))


def _push_batches(writer, batches):
    offset = 0
    for k, batch in enumerate(batches):
        client, start, duration, bandwidth = zip(*batch, strict=True)
        writer.push(client_index=np.asarray(client, dtype=np.int64),
                    object_id=np.asarray(client, dtype=np.int64) % 3,
                    start=k * 1_000.0 + np.asarray(start, dtype=np.float64),
                    duration=np.asarray(duration, dtype=np.float64),
                    bandwidth_bps=np.asarray(bandwidth, dtype=np.float64),
                    global_offset=offset, horizon=(k + 1) * 1_000.0)
        offset += len(batch)
    writer.finish()


@given(batches=sparse_streams,
       chunk_bytes=st.sampled_from([1, 96, DEFAULT_CHUNK_BYTES]))
@settings(max_examples=40, deadline=None)
def test_sparse_client_indices_characterize_like_text(batches, chunk_bytes):
    with tempfile.TemporaryDirectory() as root:
        bin_path = os.path.join(root, "t.rtb")
        text_path = os.path.join(root, "t.log")
        with open(bin_path, "wb") as stream:
            _push_batches(BinaryTraceWriter(stream, _sparse_identity),
                          batches)
        with open(text_path, "w", encoding="ascii") as stream:
            _push_batches(StreamingWmsLogWriter(stream, _sparse_identity),
                          batches)
        with BinaryTraceReader(bin_path) as reader:
            assert reader.n_segments == len(batches)
            declared = reader.client_columns().index.tolist()
        got = characterize_logs(bin_path, chunk_bytes=chunk_bytes)
        want = characterize_logs(text_path)
        state = StreamingCharacterizer()
        for chunk in plan_log_chunks([bin_path], chunk_bytes=chunk_bytes):
            consume_chunk(state, chunk)

    used = sorted({row[0] for batch in batches for row in batch})
    assert declared == used
    expected = Counter(f"p{row[0]}" for batch in batches for row in batch)
    assert state.state_dict()["client_counts"] == dict(expected)
    for name in ("n_entries", "n_clients", "feed_counts", "top_clients",
                 "length_log_mu", "length_log_sigma",
                 "congestion_bound_fraction"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("bandwidth_histogram", "diurnal_counts"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert math.isclose(got.bytes_served, want.bytes_served, rel_tol=1e-12)
