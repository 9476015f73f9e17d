"""Unit tests for map-reduce log characterization (repro.parallel)."""

import logging
import os

import numpy as np
import pytest

from repro.errors import LogParseError, TraceError
from repro.parallel.characterize import (
    characterize_chunk,
    characterize_logs,
    plan_log_chunks,
)
from repro.stream.characterize import characterize_logs_resumable
from repro.trace.codecs import BinaryTraceReader, BinaryTraceWriter, write_binary_trace
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import write_wms_log
from tests.conftest import build_trace


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    trace = build_trace([
        (i % 5, i % 2, float(i * 40), 30.0 + i, 50_000.0 + 100 * i)
        for i in range(200)
    ], n_clients=5, extent=10_000.0)
    path = tmp_path_factory.mktemp("logs") / "harvest.log"
    write_wms_log(trace, path)
    return path


@pytest.fixture(scope="module")
def serial_summary(log_path):
    characterizer = StreamingCharacterizer()
    characterizer.consume(log_path)
    return characterizer.summary()


class TestPlanLogChunks:
    def test_single_chunk_for_small_file(self, log_path):
        chunks = plan_log_chunks([log_path], chunk_bytes=1 << 30)
        assert len(chunks) == 1
        assert chunks[0].byte_lo == 0
        assert chunks[0].n_bytes > 0

    def test_chunks_tile_the_file(self, log_path):
        chunks = plan_log_chunks([log_path], chunk_bytes=1024)
        assert len(chunks) > 1
        assert chunks[0].byte_lo == 0
        for a, b in zip(chunks, chunks[1:], strict=False):
            assert a.byte_hi == b.byte_lo
        assert chunks[-1].byte_hi == os.path.getsize(log_path)

    def test_cuts_are_line_aligned(self, log_path):
        chunks = plan_log_chunks([log_path], chunk_bytes=512)
        blob = log_path.read_bytes()
        for chunk in chunks[1:]:
            assert blob[chunk.byte_lo - 1:chunk.byte_lo] == b"\n"

    def test_plan_independent_of_jobs_concept(self, log_path):
        # Pure function of (files, chunk_bytes): two calls agree exactly.
        a = plan_log_chunks([log_path], chunk_bytes=700)
        b = plan_log_chunks([log_path], chunk_bytes=700)
        assert a == b

    def test_headerless_empty_file_skipped(self, tmp_path, log_path):
        empty = tmp_path / "empty.log"
        empty.write_text("# just a comment\n")
        chunks = plan_log_chunks([empty, log_path], chunk_bytes=1 << 30)
        assert len(chunks) == 1
        assert chunks[0].path == str(log_path)

    def test_data_before_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text("1 2 3\n")
        with pytest.raises(LogParseError):
            plan_log_chunks([bad])

    def test_invalid_chunk_bytes(self, log_path):
        with pytest.raises(ValueError):
            plan_log_chunks([log_path], chunk_bytes=0)


class TestCharacterizeChunk:
    def test_chunks_sum_to_serial(self, log_path, serial_summary):
        chunks = plan_log_chunks([log_path], chunk_bytes=1024)
        parts = [characterize_chunk(chunk) for chunk in chunks]
        assert sum(p.summary().n_entries for p in parts) == \
            serial_summary.n_entries


class TestCharacterizeLogs:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("chunk_bytes", [512, 1 << 30])
    def test_exactly_reproduces_serial(self, log_path, serial_summary,
                                       jobs, chunk_bytes):
        summary = characterize_logs([log_path], jobs=jobs,
                                    chunk_bytes=chunk_bytes)
        assert summary.n_entries == serial_summary.n_entries
        assert summary.n_clients == serial_summary.n_clients
        assert summary.length_log_mu == serial_summary.length_log_mu
        assert summary.length_log_sigma == serial_summary.length_log_sigma
        assert summary.bytes_served == serial_summary.bytes_served
        assert summary.feed_counts == serial_summary.feed_counts
        assert summary.top_clients == serial_summary.top_clients
        np.testing.assert_array_equal(summary.diurnal_counts,
                                      serial_summary.diurnal_counts)
        np.testing.assert_array_equal(summary.bandwidth_histogram,
                                      serial_summary.bandwidth_histogram)

    def test_single_path_accepted(self, log_path, serial_summary):
        summary = characterize_logs(log_path)
        assert summary.n_entries == serial_summary.n_entries

    def test_multiple_files(self, log_path, serial_summary):
        summary = characterize_logs([log_path, log_path], chunk_bytes=2048)
        assert summary.n_entries == 2 * serial_summary.n_entries

    def test_progress_logged(self, log_path, caplog):
        with caplog.at_level(logging.INFO, logger="repro.parallel"):
            characterize_logs([log_path], chunk_bytes=1024)
        messages = [record.message for record in caplog.records]
        assert any("chunk(s)" in message for message in messages)
        assert any("reduced" in message for message in messages)


# ----------------------------------------------------------------------
# .rtb client indices: every entry must name a declared client
# ----------------------------------------------------------------------
def _sparse_rtb(path):
    """A one-segment .rtb whose entries use clients 0, 2 and 4 only, so
    the client blocks declare exactly those three indices."""
    trace = build_trace([
        ((0, 2, 4)[i % 3], i % 2, float(i * 40), 30.0, 50_000.0 + i)
        for i in range(30)], n_clients=5, extent=5_000.0)
    write_binary_trace(trace, path)
    return path


def _patch_first_entry_client(path, raw):
    """Overwrite the stored ``client_index`` of the first entry."""
    with BinaryTraceReader(path) as reader:
        [segment] = reader.footer["segments"]
    column = segment["columns"]["client_index"]
    assert column["dtype"] == "u1" and column["base"] == 0
    data = bytearray(path.read_bytes())
    data[column["offset"]] = raw
    path.write_bytes(bytes(data))


def _write_rtb(path, client_index, identity):
    n = len(client_index)
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, identity)
        writer.push(client_index=np.asarray(client_index, dtype=np.int64),
                    object_id=np.zeros(n, dtype=np.int64),
                    start=np.arange(n, dtype=np.float64) * 10.0,
                    duration=np.full(n, 5.0),
                    bandwidth_bps=np.full(n, 40_000.0),
                    global_offset=0, horizon=-np.inf)
        writer.finish()


def _resumable(path, tmp_path):
    return characterize_logs_resumable(
        path, checkpoint_path=tmp_path / "ck.npz")


class TestBinaryClientIndex:
    @pytest.mark.parametrize("raw", [1, 3], ids=["gap", "gap-high"])
    @pytest.mark.parametrize("run", ["jobs1", "jobs2", "resumable"])
    def test_undeclared_index_below_max_is_trace_error(self, tmp_path, raw,
                                                       run):
        # Parent behaviour: counted under the player "" with no error.
        path = _sparse_rtb(tmp_path / "t.rtb")
        _patch_first_entry_client(path, raw)
        with pytest.raises(TraceError, match=f"client {raw} absent"):
            if run == "resumable":
                _resumable(path, tmp_path)
            else:
                characterize_logs(path, jobs=int(run[-1]))

    @pytest.mark.parametrize("run", ["jobs1", "jobs2", "resumable"])
    def test_index_past_the_table_is_trace_error(self, tmp_path, run):
        # Parent behaviour: a bare IndexError.
        path = _sparse_rtb(tmp_path / "t.rtb")
        _patch_first_entry_client(path, 200)
        with pytest.raises(TraceError, match="client 200 absent"):
            if run == "resumable":
                _resumable(path, tmp_path)
            else:
                characterize_logs(path, jobs=int(run[-1]))

    def test_huge_declared_index_allocates_by_declared_count(self, tmp_path):
        huge = 2 ** 40
        clients = [huge, 3, huge, 0, huge, 3]
        path = tmp_path / "huge.rtb"
        _write_rtb(path, clients,
                   lambda i: (f"10.0.0.{i % 256}", f"p{i}", "Windows"))
        with BinaryTraceReader(path) as reader:
            table = reader.client_columns()
        assert table.index.tolist() == [0, 3, huge]
        summary = characterize_logs(path)
        assert summary.n_clients == 3
        assert summary.top_clients == ((f"p{huge}", 3), ("p3", 2),
                                       ("p0", 1))

    def test_block_patched_to_huge_index_is_trace_error(self, tmp_path):
        path = _sparse_rtb(tmp_path / "t.rtb")
        with BinaryTraceReader(path) as reader:
            [block] = reader.footer["clients"]
            order = reader.client_columns().index.tolist()
        assert order == [0, 2, 4]
        data = bytearray(path.read_bytes())
        # Redeclare the block's first client (index 0) as 2**40.
        offset = block["index_offset"]
        data[offset:offset + 8] = (2 ** 40).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with BinaryTraceReader(path) as reader:
            assert reader.client_columns().index.tolist() == [2, 4, 2 ** 40]
        with pytest.raises(TraceError, match="client 0 absent"):
            characterize_logs(path)
