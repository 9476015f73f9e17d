"""Differential properties of the batch WMS tokenizer against the old
per-line rule (``tests/wms_reference.py``).

Every text reader — ``StreamingCharacterizer.consume``, the chunked
``characterize_logs`` map step, ``FeedWorker.ingest_lines`` and
``read_wms_log`` — must reach the reference's result on damaged logs:
the same characterizer state, the same trace, the same malformed lines.
The differences that are intended are listed in
``wms_reference.INTENDED_DIFFERENCES``.
"""

import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogParseError
from repro.parallel.characterize import (
    DEFAULT_CHUNK_BYTES,
    characterize_chunk,
    plan_log_chunks,
)
from repro.parallel.pool import map_ordered
from repro.rng import make_rng
from repro.serve.feed import FeedWorker
from repro.trace.store import TRANSFER_COLUMNS
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import read_wms_log
from tests.wms_reference import (
    _reference_read_wms_log,
    _ReferenceCharacterizer,
    mutated_log,
)

logs = st.builds(lambda seed, n: mutated_log(make_rng(seed), n),
                 st.integers(min_value=0, max_value=2 ** 32),
                 st.integers(min_value=0, max_value=90))


def _canonical(state):
    # json spells NaN alike on both sides; dict key order is ignored.
    return json.dumps(state, sort_keys=True)


def _reference_state(blob):
    """The reference over a log file: text-mode universal newlines."""
    reference = _ReferenceCharacterizer()
    reference.consume_stream(io.StringIO(
        blob.decode("ascii", errors="replace"), newline=None))
    return reference.state_dict()


def _assert_chunked_state(path, chunk_bytes, expected, jobs=1):
    """``characterize_logs``'s map and reduce against the reference.

    Chunk totals of ``bits`` add on merge, in chunk order: exact for a
    log's integer products, within rounding for the 1e25-sized bandwidth
    values the mutations spell.
    """
    chunks = plan_log_chunks([path], chunk_bytes=chunk_bytes)
    parts = map_ordered(characterize_chunk, chunks, jobs=jobs, label="chunk")
    total = StreamingCharacterizer()
    for part in parts:
        total.merge(part)
    state, expected = total.state_dict(), dict(expected)
    bits, expected_bits = state.pop("bits"), expected.pop("bits")
    assert _canonical(state) == _canonical(expected)
    assert math.isclose(bits, expected_bits, rel_tol=1e-12) or (
        math.isnan(bits) and math.isnan(expected_bits))


def _serve_lines(blob):
    """Lines as the service hands them over: split at \\n, decoded."""
    return [piece.decode("ascii", errors="replace")
            for piece in blob.split(b"\n")[:-1]]


def _assert_same_trace(trace, reference):
    for name in ("player_ids", "ips", "os_names", "countries",
                 "as_numbers"):
        np.testing.assert_array_equal(getattr(trace.clients, name),
                                      getattr(reference.clients, name))
    for name in TRANSFER_COLUMNS:
        np.testing.assert_array_equal(getattr(trace, name),
                                      getattr(reference, name))
    assert trace.extent == reference.extent


@settings(max_examples=60, deadline=None)
@given(blob=logs)
def test_consume_and_chunks_match_reference(blob):
    expected = _reference_state(blob)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "damaged.log")
        with open(path, "wb") as stream:
            stream.write(blob)
        streamed = StreamingCharacterizer()
        streamed.consume(path)
        assert _canonical(streamed.state_dict()) == _canonical(expected)
        for chunk_bytes in (1024, DEFAULT_CHUNK_BYTES):
            _assert_chunked_state(path, chunk_bytes, expected)


@settings(max_examples=60, deadline=None)
@given(blob=logs, cuts=st.lists(st.integers(min_value=0, max_value=120),
                                max_size=6))
def test_serve_ingest_matches_reference(blob, cuts):
    lines = _serve_lines(blob)
    reference = _ReferenceCharacterizer()
    expected = reference.consume_feed_lines(lines)
    worker = FeedWorker("f0", keep_sessions=True)
    bounds = sorted({0, len(lines), *(min(c, len(lines)) for c in cuts)})
    parsed = sum(worker.ingest_lines(lines[lo:hi])
                 for lo, hi in zip(bounds, bounds[1:]))
    assert parsed == expected
    assert _canonical(worker.characterizer.state_dict()) == _canonical(
        reference.state_dict())
    # The sessionizer saw exactly the entries the characterizer counted.
    sessions = worker.finish()
    assert int(sessions.n_transfers.sum()) + worker.late_drops == parsed
    assert worker.feed_errors == 0


@settings(max_examples=60, deadline=None)
@given(blob=logs)
def test_read_wms_log_matches_reference(blob):
    text = blob.decode("ascii", errors="replace")
    expected_errors = []
    expected = _reference_read_wms_log(text, on_error="skip",
                                       error_sink=expected_errors)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "damaged.log")
        with open(path, "wb") as stream:
            stream.write(blob)
        errors = []
        trace = read_wms_log(path, on_error="skip", error_sink=errors)
        _assert_same_trace(trace, expected)
        assert ([e.line_number for e in errors]
                == [e.line_number for e in expected_errors])
        if expected_errors:
            with pytest.raises(LogParseError) as raised:
                read_wms_log(path)
            assert raised.value.line_number == expected_errors[0].line_number
        else:
            _assert_same_trace(read_wms_log(path), expected)


@settings(max_examples=40, deadline=None)
@given(blob=logs)
def test_text_stream_matches_path(blob):
    """An open text stream reads like the file it came from."""
    text = blob.decode("ascii", errors="replace")
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "damaged.log")
        with open(path, "wb") as stream:
            stream.write(blob)
        from_path = StreamingCharacterizer()
        from_path.consume(path)
        with open(path, "r", encoding="ascii", errors="replace") as stream:
            from_stream = StreamingCharacterizer()
            from_stream.consume(stream)
        assert (_canonical(from_stream.state_dict())
                == _canonical(from_path.state_dict()))
        errors = []
        read_wms_log(io.StringIO(text, newline=None), on_error="skip",
                     error_sink=errors)
        path_errors = []
        read_wms_log(path, on_error="skip", error_sink=path_errors)
        assert ([e.line_number for e in errors]
                == [e.line_number for e in path_errors])


@pytest.mark.parametrize("seed", [3, 17, 2002])
@pytest.mark.parametrize("chunk_bytes", [1024, DEFAULT_CHUNK_BYTES])
def test_chunks_match_reference_across_jobs(tmp_path, seed, chunk_bytes):
    blob = mutated_log(make_rng(seed), 600)
    path = tmp_path / "damaged.log"
    path.write_bytes(blob)
    expected = _reference_state(blob)
    for jobs in (1, 2):
        _assert_chunked_state(path, chunk_bytes, expected, jobs=jobs)
