"""Unit tests for the batch WMS log tokenizer and the readers built on it."""

import io
import json
import warnings

import numpy as np
import pytest

from repro.errors import LogParseError, TraceError
from repro.parallel.characterize import characterize_logs
from repro.rng import make_rng
from repro.trace import wms_log
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.wms_log import (
    LOG_FIELDS,
    TOKENIZE_BYTES,
    read_wms_log,
    split_log_block,
    tokenize_wms_lines,
)
from tests.wms_reference import mutated_log

HEADER = f"#Fields: {' '.join(LOG_FIELDS)}\n"


def entry(timestamp=100, player="p1", ip="10.0.0.1", os_name="WinNT",
          feed="0", duration="30", bandwidth="56000", status="200"):
    return (f"{timestamp} {ip} {player} {os_name} /live/feed{feed} "
            f"{duration} {bandwidth} 0.0000 0.0000 {status} -")


def block(*lines):
    return "".join(line + "\n" for line in lines).encode("ascii")


class TestTokenizeWmsLines:
    def test_columns_of_clean_lines(self):
        tokens = tokenize_wms_lines(
            block(entry(), entry(timestamp=200, player="p2", feed="1",
                                 duration="5", bandwidth="1e3")),
            LOG_FIELDS)
        np.testing.assert_array_equal(tokens.timestamp, [100, 200])
        np.testing.assert_array_equal(tokens.duration, [30.0, 5.0])
        np.testing.assert_array_equal(tokens.bandwidth_bps, [56e3, 1e3])
        np.testing.assert_array_equal(tokens.object_id, [0, 1])
        assert tokens.player == [b"p1", b"p2"]
        assert tokens.ip is None and tokens.status is None
        np.testing.assert_array_equal(tokens.line, [0, 1])
        assert tokens.n_skipped == 0

    def test_trace_columns(self):
        tokens = tokenize_wms_lines(block(entry(status="404")), LOG_FIELDS,
                                    trace=True)
        assert tokens.ip == [b"10.0.0.1"]
        assert tokens.os_name == [b"WinNT"]
        np.testing.assert_array_equal(tokens.status, [404])
        np.testing.assert_array_equal(tokens.packet_loss, [0.0])

    def test_ragged_path_matches_uniform_path(self):
        lines = [entry(timestamp=t, player=f"p{t % 3}") for t in range(50)]
        uniform = tokenize_wms_lines(block(*lines), LOG_FIELDS)
        # A blank line forces the per-line path; rows stay the same.
        ragged = tokenize_wms_lines(block(*lines[:10], "   ", *lines[10:]),
                                    LOG_FIELDS)
        assert ragged.player == uniform.player
        np.testing.assert_array_equal(ragged.timestamp, uniform.timestamp)
        np.testing.assert_array_equal(ragged.line,
                                      np.r_[0:10, 11:51])
        assert ragged.n_skipped == 0

    @pytest.mark.parametrize("bad", [
        entry(duration="nan"), entry(duration="inf"), entry(duration="-inf"),
        entry(duration="1e19"), entry(timestamp="9" * 20),
        entry(feed="9" * 20), entry(feed="x"), entry(timestamp="1.5"),
        entry(bandwidth="fast"), entry()[:-2], entry() + " extra",
        entry().replace("p1", "pé1"),
    ])
    def test_malformed_lines_are_skipped(self, bad):
        text = (entry() + "\n" + bad + "\n" + entry() + "\n").encode(
            "utf-8")
        tokens = tokenize_wms_lines(text, LOG_FIELDS)
        np.testing.assert_array_equal(tokens.skipped, [1])
        np.testing.assert_array_equal(tokens.line, [0, 2])

    @pytest.mark.parametrize("spelling,value", [
        ("+5", 5), ("1_0", 10), ("-0", 0), ("007", 7)])
    def test_integer_spellings_parse_like_int(self, spelling, value):
        tokens = tokenize_wms_lines(block(entry(timestamp=spelling)),
                                    LOG_FIELDS)
        np.testing.assert_array_equal(tokens.timestamp, [value])

    def test_negative_duration_only_malformed_for_traces(self):
        run = block(entry(duration="-5"))
        assert tokenize_wms_lines(run, LOG_FIELDS).n_skipped == 0
        assert tokenize_wms_lines(run, LOG_FIELDS, trace=True).n_skipped == 1

    @pytest.mark.parametrize("separator", ["\t", "  ", "\x0b", "\x0c",
                                           "\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separators(self, separator):
        line = entry().replace(" ", separator)
        tokens = tokenize_wms_lines(
            (separator + line + separator + "\r\n").encode("ascii"),
            LOG_FIELDS)
        assert tokens.player == [b"p1"]

    def test_duplicate_field_reads_last_position(self):
        fields = ["x-duration"] + list(LOG_FIELDS)
        tokens = tokenize_wms_lines(block("7 " + entry()), fields)
        np.testing.assert_array_equal(tokens.duration, [30.0])

    def test_layout_missing_a_field_skips_every_data_line(self):
        fields = [f for f in LOG_FIELDS if f != "x-duration"] + ["x"]
        tokens = tokenize_wms_lines(block(entry(), "", entry()), fields)
        assert len(tokens) == 0
        np.testing.assert_array_equal(tokens.skipped, [0, 2])


class TestSplitLogBlock:
    def test_directives_and_runs(self):
        text = block("#Software: x", HEADER.strip(), entry(), entry(),
                     "  # note", entry())
        pieces = list(split_log_block(text, first_line=10))
        assert [(n, directive) for n, _, directive in pieces] == [
            (10, True), (11, True), (12, False), (14, True), (15, False)]
        assert pieces[3][1] == b"# note"

    def test_hash_inside_a_token_is_data(self):
        pieces = list(split_log_block(block(entry(player="p#1"))))
        assert [directive for _, _, directive in pieces] == [False]

    def test_runs_are_bounded(self):
        line = entry() + "\n"
        text = (line * (3 * TOKENIZE_BYTES // len(line))).encode("ascii")
        pieces = list(split_log_block(text))
        assert len(pieces) >= 3
        assert max(len(piece) for _, piece, _ in pieces) <= (
            TOKENIZE_BYTES + len(line))
        assert b"".join(piece for _, piece, _ in pieces) == text
        assert [n for n, _, _ in pieces][1] == 1 + pieces[0][1].count(b"\n")


class TestNonFiniteDuration:
    """A ``nan`` or ``inf`` duration is a malformed line everywhere."""

    def log(self, tmp_path):
        path = tmp_path / "nonfinite.log"
        path.write_text(HEADER + "\n".join([
            entry(timestamp=10), entry(timestamp=20, duration="nan"),
            entry(timestamp=30, duration="inf"), entry(timestamp=40),
            entry(timestamp=50, duration="-inf")]) + "\n")
        return path

    def test_consume_skips(self, tmp_path):
        characterizer = StreamingCharacterizer()
        assert characterizer.consume(self.log(tmp_path)) == 2
        summary = characterizer.summary()
        assert (summary.n_entries, summary.n_skipped) == (2, 3)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_characterize_logs_skips(self, tmp_path, jobs):
        summary = characterize_logs(self.log(tmp_path), jobs=jobs,
                                    chunk_bytes=200)
        assert (summary.n_entries, summary.n_skipped) == (2, 3)


class TestReadWmsLogDurations:
    """Negative and non-finite durations follow ``on_error``."""

    @pytest.mark.parametrize("duration", ["-5", "nan", "inf", "-inf"])
    def test_raise_mode(self, duration):
        text = HEADER + entry() + "\n" + entry(duration=duration) + "\n"
        with pytest.raises(LogParseError) as raised:
            read_wms_log(io.StringIO(text))
        assert raised.value.line_number == 3
        assert "x-duration" in str(raised.value)

    @pytest.mark.parametrize("duration", ["-5", "nan", "inf", "-inf"])
    def test_skip_mode(self, duration):
        text = (HEADER + entry() + "\n" + entry(duration=duration) + "\n"
                + entry(timestamp=300) + "\n")
        errors = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = read_wms_log(io.StringIO(text), on_error="skip",
                                 error_sink=errors)
        assert trace.n_transfers == 2
        assert np.isfinite(trace.extent)
        assert [e.line_number for e in errors] == [3]


class TestReadWmsLogClients:
    def test_clients_in_first_appearance_order(self):
        text = HEADER + "\n".join([
            entry(player="b", ip="1.1.1.2"), entry(player="a"),
            entry(player="b", ip="1.1.1.2")]) + "\n"
        trace = read_wms_log(io.StringIO(text),
                             resolver=lambda ip: (int(ip[-1]), "BR"))
        assert trace.clients.player_ids.tolist() == ["b", "a"]
        assert trace.clients.as_numbers.tolist() == [2, 1]
        assert trace.clients.countries.tolist() == ["BR", "BR"]
        assert sorted(trace.client_index.tolist()) == [0, 0, 1]

    def test_identity_clash_raises_even_when_skipping(self):
        text = HEADER + entry() + "\n" + entry(ip="10.9.9.9") + "\n"
        with pytest.raises(TraceError, match="re-registered"):
            read_wms_log(io.StringIO(text), on_error="skip")

    def test_clash_before_bad_line_is_the_error(self):
        text = (HEADER + entry() + "\n" + entry(os_name="Mac") + "\n"
                + entry(duration="x") + "\n")
        with pytest.raises(TraceError) as raised:
            read_wms_log(io.StringIO(text))
        assert not isinstance(raised.value, LogParseError)

    def test_bad_line_before_clash_is_the_error(self):
        text = (HEADER + entry() + "\n" + entry(duration="x") + "\n"
                + entry(os_name="Mac") + "\n")
        with pytest.raises(LogParseError) as raised:
            read_wms_log(io.StringIO(text))
        assert raised.value.line_number == 3


class TestConsumeLines:
    def test_raw_bytes_equal_text_lines(self):
        lines = [HEADER.strip(), entry(), "", entry(duration="x"),
                 entry(player="p2")]
        from_text = StreamingCharacterizer()
        assert from_text.consume_lines(lines, LOG_FIELDS) == 2
        from_bytes = StreamingCharacterizer()
        assert from_bytes.consume_lines(
            "\r\n".join(lines).encode("ascii"), LOG_FIELDS) == 2
        assert from_bytes.state_dict() == from_text.state_dict()
        assert from_text.summary().n_skipped == 1

    def test_lines_holding_newlines(self):
        characterizer = StreamingCharacterizer()
        lines = [entry() + "\n", entry(player="p2") + "\n"]
        assert characterizer.consume_lines(lines, LOG_FIELDS) == 2


class TestBlockBoundaries:
    """Where reads and runs are cut changes nothing."""

    @pytest.mark.parametrize("read_size,run_bytes", [(7, 100), (64, 1),
                                                     (4096, 333)])
    def test_small_reads_and_runs(self, tmp_path, monkeypatch, read_size,
                                  run_bytes):
        path = tmp_path / "damaged.log"
        path.write_bytes(mutated_log(make_rng(5), 300))

        def read():
            characterizer = StreamingCharacterizer()
            characterizer.consume(path)
            errors = []
            trace = read_wms_log(path, on_error="skip", error_sink=errors)
            # json spells the log's NaN bit total alike on both sides.
            return (json.dumps(characterizer.state_dict(), sort_keys=True),
                    trace.n_transfers,
                    [(e.line_number, e.line) for e in errors])

        expected = read()
        monkeypatch.setattr(wms_log, "_READ_SIZE", read_size)
        monkeypatch.setattr(wms_log, "TOKENIZE_BYTES", run_bytes)
        assert read() == expected
