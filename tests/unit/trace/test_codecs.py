"""Unit tests for the trace codec registry and the binary codec."""

import io

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.codecs import (
    BINARY_MAGIC,
    BinaryTraceReader,
    BinaryTraceWriter,
    available_codecs,
    detect_codec,
    format_quantized_entry,
    get_codec,
    read_binary_trace,
    write_binary_trace,
)
from repro.trace.store import TRANSFER_COLUMNS, ClientTable, Trace
from repro.trace.wms_log import read_wms_log, write_wms_log
from tests.conftest import build_trace


def _assert_traces_bit_identical(a, b):
    for column in TRANSFER_COLUMNS:
        assert np.array_equal(getattr(a, column), getattr(b, column)), column
    for column in ("player_ids", "ips", "os_names"):
        assert np.array_equal(getattr(a.clients, column),
                              getattr(b.clients, column)), column
    assert a.extent == b.extent


class TestRegistry:
    def test_both_codecs_registered(self):
        assert set(available_codecs()) >= {"text", "binary"}

    def test_get_codec_round_trip_names(self):
        assert get_codec("text").name == "text"
        assert get_codec("binary").name == "binary"

    def test_unknown_codec_names_available(self):
        with pytest.raises(TraceError, match="binary.*text|text.*binary"):
            get_codec("parquet")

    def test_suffixes_differ(self):
        assert get_codec("text").suffix != get_codec("binary").suffix


class TestDetect:
    def test_detects_binary(self, tmp_path):
        path = tmp_path / "t.rtb"
        write_binary_trace(build_trace([(0, 0, 1.0, 5.0)]), path)
        assert detect_codec(path) == "binary"
        assert path.read_bytes().startswith(BINARY_MAGIC)

    def test_detects_text(self, tmp_path):
        path = tmp_path / "t.log"
        write_wms_log(build_trace([(0, 0, 1.0, 5.0)]), path)
        assert detect_codec(path) == "text"


class TestBinaryRoundTrip:
    def test_empty_trace(self, tmp_path):
        trace = Trace(ClientTable([], [], [], []), [], [], [], [],
                      extent=0.0)
        path = tmp_path / "empty.rtb"
        assert write_binary_trace(trace, path) == 0
        parsed = read_binary_trace(path)
        assert parsed.n_transfers == 0
        assert len(parsed.clients) == 0
        with BinaryTraceReader(path) as reader:
            assert reader.n_entries == 0
            assert reader.n_segments == 0

    def test_single_client(self, tmp_path):
        trace = build_trace([(0, 0, 3.0, 10.0), (0, 1, 20.0, 5.0)],
                            n_clients=1, extent=100.0)
        path = tmp_path / "one.rtb"
        write_binary_trace(trace, path)
        parsed = read_binary_trace(path, extent=trace.extent)

        text = io.StringIO()
        write_wms_log(trace, text)
        text.seek(0)
        expected = read_wms_log(text, extent=trace.extent)
        _assert_traces_bit_identical(expected, parsed)

    def test_max_width_identity_strings(self, tmp_path):
        # One short and one very wide identity per column: the per-batch
        # fixed-width S arrays must size to the widest and pad the rest.
        wide_player = "p" * 128
        wide_os = "O" * 96
        clients = ClientTable(
            player_ids=["a", wide_player],
            ips=["10.0.0.1", "203.0.113.255"],
            as_numbers=[1, 2], countries=["US", "BR"],
            os_names=["", wide_os])
        trace = Trace(clients, [0, 1], [0, 1], [0.0, 5.0], [10.0, 10.0],
                      extent=60.0)
        path = tmp_path / "wide.rtb"
        write_binary_trace(trace, path)
        parsed = read_binary_trace(path, extent=trace.extent)
        assert wide_player in parsed.clients.player_ids
        assert wide_os in parsed.clients.os_names
        # Empty os_name decodes as the text format's "-" placeholder.
        assert "-" in parsed.clients.os_names

    def test_entry_stream_matches_text_lines(self, tmp_path):
        trace = build_trace([(i % 3, i % 2, float(i) * 7.0, 5.5)
                             for i in range(20)],
                            n_clients=3, extent=500.0)
        text = io.StringIO()
        write_wms_log(trace, text)
        data_lines = [line for line in text.getvalue().splitlines()
                      if not line.startswith("#")]

        path = tmp_path / "t.rtb"
        write_binary_trace(trace, path)
        with BinaryTraceReader(path) as reader:
            identity = reader.identity_lookup()
            formatted = [
                format_quantized_entry(quantized, row, identity)
                for quantized in reader.iter_quantized()
                for row in range(int(quantized["timestamp"].shape[0]))]
        assert formatted == data_lines


def _two_block_rtb(path):
    """Two segments, each declaring clients in first-appearance order:
    block 0 declares [9, 2], block 1 declares [5]."""
    identity = {9: ("10.0.0.9", "p-nine", "Linux"),
                2: ("10.0.0.2", "p-two", "Windows_XP"),
                5: ("10.0.0.5", "p-five", "Mac_OS")}.__getitem__
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, identity)
        for k, clients in enumerate(([9, 2, 9], [5, 2])):
            n = len(clients)
            writer.push(client_index=np.asarray(clients, dtype=np.int64),
                        object_id=np.zeros(n, dtype=np.int64),
                        start=k * 100.0 + np.arange(n, dtype=np.float64),
                        duration=np.full(n, 2.0),
                        bandwidth_bps=np.full(n, 30_000.0),
                        global_offset=3 * k, horizon=(k + 1) * 100.0)
        writer.finish()
    return path


def _patch(path, offset, data):
    blob = bytearray(path.read_bytes())
    blob[offset:offset + len(data)] = data
    path.write_bytes(bytes(blob))


class TestClientColumns:
    def test_sorted_across_blocks(self, tmp_path):
        path = _two_block_rtb(tmp_path / "t.rtb")
        with BinaryTraceReader(path) as reader:
            assert [block["n"] for block in reader.footer["clients"]] == [2, 1]
            table = reader.client_columns()
        assert table.index.tolist() == [2, 5, 9]
        assert table.player_ids.tolist() == [b"p-two", b"p-five", b"p-nine"]
        assert table.ips is None and table.os_names is None
        assert len(table) == 3
        assert table.positions(np.asarray([9, 2, 5, 9])).tolist() == [
            2, 0, 1, 2]
        assert table.players(np.asarray([1, 2])) == ["p-five", "p-nine"]
        with pytest.raises(TraceError, match="without IPs"):
            table.identities()

    def test_identities_on_request(self, tmp_path):
        path = _two_block_rtb(tmp_path / "t.rtb")
        with BinaryTraceReader(path) as reader:
            table = reader.client_columns(identities=True)
            identity_map = reader.client_identity_map()
        assert table.identities() == (
            ["10.0.0.2", "10.0.0.5", "10.0.0.9"],
            ["p-two", "p-five", "p-nine"],
            ["Windows_XP", "Mac_OS", "Linux"])
        assert identity_map == {2: ("10.0.0.2", "p-two", "Windows_XP"),
                                5: ("10.0.0.5", "p-five", "Mac_OS"),
                                9: ("10.0.0.9", "p-nine", "Linux")}

    @pytest.mark.parametrize("client", [0, 3, 10, -1, 2 ** 40])
    def test_undeclared_client_is_trace_error(self, tmp_path, client):
        path = _two_block_rtb(tmp_path / "t.rtb")
        with BinaryTraceReader(path) as reader:
            table = reader.client_columns()
        with pytest.raises(TraceError, match=f"client {client} absent"):
            table.positions(np.asarray([2, client, 9]))

    def test_empty_table_rejects_any_entry(self, tmp_path):
        path = tmp_path / "empty.rtb"
        write_binary_trace(Trace(ClientTable([], [], [], []), [], [], [], [],
                                 extent=0.0), path)
        with BinaryTraceReader(path) as reader:
            table = reader.client_columns()
        assert table.positions(np.empty(0, dtype=np.int64)).size == 0
        with pytest.raises(TraceError, match="client 0 absent"):
            table.positions(np.asarray([0]))

    @pytest.mark.parametrize("declared, match", [
        (-4, "negative client index -4"),
        (5, "client 5 is declared in more than one client block"),
    ])
    def test_bad_declarations_are_trace_errors(self, tmp_path, declared,
                                               match):
        path = _two_block_rtb(tmp_path / "t.rtb")
        with BinaryTraceReader(path) as reader:
            offset = reader.footer["clients"][0]["index_offset"]
        _patch(path, offset, declared.to_bytes(8, "little", signed=True))
        with BinaryTraceReader(path) as reader:
            with pytest.raises(TraceError, match=match):
                reader.client_columns()

    def test_non_utf8_player_is_trace_error(self, tmp_path):
        path = _two_block_rtb(tmp_path / "t.rtb")
        with BinaryTraceReader(path) as reader:
            offset = reader.footer["clients"][1]["player_ids"]["offset"]
        _patch(path, offset, b"\xff")
        with pytest.raises(TraceError, match="not UTF-8"):
            read_binary_trace(path)

    @pytest.mark.parametrize("field, value", [
        ("n", 10 ** 12), ("n", -1), ("index_offset", 10 ** 12),
        ("n", "many"), ("player_ids", {"offset": 0, "itemsize": 2 ** 40}),
        ("player_ids", {"offset": 0, "itemsize": 0})])
    def test_block_outside_the_file_is_trace_error(self, tmp_path, field,
                                                   value):
        path = _two_block_rtb(tmp_path / "t.rtb")
        with BinaryTraceReader(path) as reader:
            reader.footer["clients"][0][field] = value
            with pytest.raises(TraceError, match="client block 0"):
                reader.client_columns()


class TestCodecObjects:
    def test_text_codec_write_read(self, tmp_path):
        codec = get_codec("text")
        trace = build_trace([(0, 0, 1.0, 9.0)], extent=50.0)
        path = tmp_path / f"t{codec.suffix}"
        codec.write(trace, path)
        parsed = codec.read(path, extent=trace.extent)
        assert parsed.n_transfers == 1

    def test_binary_codec_write_read(self, tmp_path):
        codec = get_codec("binary")
        trace = build_trace([(0, 0, 1.0, 9.0)], extent=50.0)
        path = tmp_path / f"t{codec.suffix}"
        codec.write(trace, path)
        parsed = codec.read(path, extent=trace.extent)
        assert parsed.n_transfers == 1

    def test_codecs_decode_identically(self, tmp_path):
        trace = build_trace([(i % 4, 0, float(i) * 3.0, 2.0 + i)
                             for i in range(12)],
                            n_clients=4, extent=200.0)
        decoded = {}
        for name in ("text", "binary"):
            codec = get_codec(name)
            path = tmp_path / f"t{codec.suffix}"
            codec.write(trace, path)
            decoded[name] = codec.read(path, extent=trace.extent)
        _assert_traces_bit_identical(decoded["text"], decoded["binary"])
