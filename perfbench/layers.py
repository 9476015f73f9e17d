"""Which repro functions each layer's spans wrap, and the per-layer metrics.

Layer names are the repro module names.  :func:`instrument_pipeline`
covers the calls one benchmark process makes (generation, writers,
characterization, decoding, CDN planning); :func:`instrument_service`
covers the live ingest path inside the ``repro serve`` process.
:func:`per_layer_metrics` turns the merged span summaries of both
processes into the metrics ``BENCHMARK.json`` declares under
``per_layer``.
"""

from __future__ import annotations

import statistics
from typing import Any

from .spans import Tracer

#: (metric name, unit) of every per-layer metric, in report order.
PER_LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("stream.generate.self_s", "s"),
    ("stream.generate.peak_pending", "count"),
    ("stream.sessionize.self_s", "s"),
    ("stream.sessionize.peak_open", "count"),
    ("trace.wms_log.write_self_s", "s"),
    ("trace.wms_log.identity_calls_per_row", "calls/row"),
    ("trace.writer.peak_buffered", "count"),
    ("trace.codecs.write_self_s", "s"),
    ("trace.codecs.decode_self_s", "s"),
    ("trace.codecs.bytes_per_row", "B/row"),
    ("parallel.characterize.plan_self_s", "s"),
    ("parallel.characterize.chunks", "count"),
    ("trace.streaming.consume_self_s", "s"),
    ("trace.streaming.merge_self_s", "s"),
    ("trace.streaming.summary_self_s", "s"),
    ("cdn.assignment.self_s", "s"),
    ("cdn.admission.self_s", "s"),
    ("cdn.admission.calls", "count"),
    ("cdn.report.self_s", "s"),
    ("cdn.engine.self_s", "s"),
    ("cdn.planner.config_p50_s", "s"),
    ("cdn.planner.config_max_s", "s"),
    ("parallel.pool.efficiency", "ratio"),
    ("serve.feed.ingest_self_s", "s"),
    ("serve.feed.busy_ratio", "ratio"),
    ("serve.feed.queue_depth_max", "count"),
    ("serve.feed.shed_lines", "count"),
    ("loadgen.late_p99_ms", "ms"),
)


def _result_rows(args: tuple[Any, ...], kwargs: dict[str, Any],
                 result: Any) -> int:
    return int(result)


def _len_rows(args: tuple[Any, ...], kwargs: dict[str, Any],
              result: Any) -> int:
    return len(result)


def _first_column_rows(args: tuple[Any, ...], kwargs: dict[str, Any],
                       result: Any) -> int:
    return int(next(iter(result.values())).size) if result else 0


def instrument_pipeline(tracer: Tracer) -> None:
    """Wrap the layer entry points a benchmark process calls."""
    from repro.cdn import engine, planner
    from repro.parallel import characterize
    from repro.stream import pipeline
    from repro.stream.generate import GenerationStream
    from repro.trace import codecs, wms_log

    tracer.patch(GenerationStream, "block_steps", "stream.generate",
                 generator=True,
                 rows=lambda a, k, batches: sum(b.n_transfers
                                                for b in batches),
                 after=lambda a, k, batches: tracer.peak(
                     "stream.generate.peak_pending", a[0].n_pending))

    _instrument_sessionizer(tracer)
    _instrument_writers(tracer, wms_log, codecs)

    # The identity callable the pipeline hands to every writer.
    identity = pipeline.synthetic_client_identity

    def counted_identity(index: int) -> tuple[str, str, str]:
        if tracer.current() == "trace.wms_log.write":
            tracer.count("trace.wms_log.identity_calls")
        return identity(index)

    tracer.replace(pipeline, "synthetic_client_identity", counted_identity)

    tracer.patch(codecs, "read_binary_trace", "trace.codecs.decode",
                 rows=_len_rows)
    tracer.patch(codecs.BinaryTraceReader, "segment_columns",
                 "trace.codecs.decode", rows=_first_column_rows)
    tracer.patch(wms_log, "read_wms_log", "trace.wms_log.read",
                 rows=_len_rows)

    tracer.patch(characterize, "characterize_logs", "parallel.characterize")
    tracer.patch(characterize, "plan_log_chunks",
                 "parallel.characterize.plan",
                 after=lambda a, k, r: tracer.count(
                     "parallel.characterize.chunks", len(r)))
    _instrument_characterizer(tracer)

    tracer.patch(planner, "plan_deployment", "cdn.planner")
    tracer.patch(planner, "map_ordered", "parallel.pool")
    tracer.patch(planner, "simulate_cdn", "cdn.engine",
                 rows=lambda a, k, r: r.n_requests)
    tracer.patch(engine, "assignment_keys", "cdn.assignment")
    tracer.patch(engine, "assign_static", "cdn.assignment")
    tracer.patch(engine, "admit_requests", "cdn.admission",
                 rows=lambda a, k, r: int(len(a[0])))
    tracer.patch(engine, "build_result", "cdn.report")


def _instrument_sessionizer(tracer: Tracer) -> None:
    from repro.stream.sessionize import OnlineSessionizer

    # push_batch (the pipeline) and the serve feed both end in push.
    tracer.patch(OnlineSessionizer, "push", "stream.sessionize",
                 rows=lambda a, k, r: int(len(a[1])),
                 after=lambda a, k, r: tracer.peak(
                     "stream.sessionize.peak_open", a[0].peak_open))


def _instrument_writers(tracer: Tracer, wms_log: Any, codecs: Any) -> None:
    def buffered(args: tuple[Any, ...], kwargs: dict[str, Any],
                 result: Any) -> None:
        tracer.peak("trace.writer.peak_buffered", args[0].n_buffered)

    def text_done(args: tuple[Any, ...], kwargs: dict[str, Any],
                  result: Any) -> None:
        tracer.count("trace.wms_log.rows", result)

    def binary_done(args: tuple[Any, ...], kwargs: dict[str, Any],
                    result: Any) -> None:
        tracer.count("trace.codecs.rows", result)
        tracer.count("trace.codecs.bytes", args[0].byte_offset)

    for cls, layer, done in (
            (wms_log.StreamingWmsLogWriter, "trace.wms_log.write", text_done),
            (codecs.BinaryTraceWriter, "trace.codecs.write", binary_done)):
        tracer.patch(cls, "push", layer, rows=_result_rows, after=buffered)
        tracer.patch(cls, "finish", layer, after=done)


def _instrument_characterizer(tracer: Tracer) -> None:
    from repro.trace.streaming import StreamingCharacterizer

    for method in ("consume_lines", "consume_columns"):
        tracer.patch(StreamingCharacterizer, method,
                     "trace.streaming.consume", rows=_result_rows)
    tracer.patch(StreamingCharacterizer, "merge", "trace.streaming.merge")
    tracer.patch(StreamingCharacterizer, "summary",
                 "trace.streaming.summary")


def instrument_service(tracer: Tracer) -> None:
    """Wrap the live ingest path inside a ``repro serve`` process."""
    from repro.serve import feed

    def sampled(args: tuple[Any, ...], kwargs: dict[str, Any]) -> None:
        # The batch being ingested has left the queue; count it back in.
        tracer.peak("serve.feed.queue_depth_max", args[0].queue_depth + 1)

    for method in ("ingest_lines", "ingest_entries"):
        tracer.patch(feed.FeedWorker, method, "serve.feed.ingest",
                     rows=_result_rows, before=sampled)
    _instrument_sessionizer(tracer)
    tracer.patch(feed, "decode_entry_columns", "trace.codecs.decode",
                 rows=_first_column_rows)
    _instrument_characterizer(tracer)


def _self(layers: dict[str, Any], name: str) -> float:
    layer = layers.get(name)
    return float(layer["self_s"]) if layer is not None else 0.0


def per_layer_metrics(merged: dict[str, Any], *,
                      plan_wall_s: float, plan_jobs: int,
                      open_windows: list[tuple[float, float]],
                      late_p99_ms: float, shed_lines: int
                      ) -> dict[str, float]:
    """Per-layer metric values from merged span summaries.

    ``plan_wall_s`` is the wall time of the pooled ``map_ordered`` sweep
    at ``plan_jobs`` workers; the inline sweep's per-config spans give
    the serial side of ``parallel.pool.efficiency``.  ``open_windows``
    are the open-loop phases, over which the feed workers' ingest time
    gives ``serve.feed.busy_ratio``.
    """
    layers = merged["layers"]
    counters = merged["counters"]
    peaks = merged["peaks"]
    text_rows = counters.get("trace.wms_log.rows", 0.0)
    binary_rows = counters.get("trace.codecs.rows", 0.0)
    configs = [end - start for start, end
               in layers.get("cdn.engine", {}).get("spans", [])]
    ingest = layers.get("serve.feed.ingest", {}).get("spans", [])
    busy = sum(max(0.0, min(end, hi) - max(start, lo))
               for lo, hi in open_windows for start, end in ingest)
    window = sum(hi - lo for lo, hi in open_windows)
    values = {
        "stream.generate.self_s": _self(layers, "stream.generate"),
        "stream.generate.peak_pending":
            peaks.get("stream.generate.peak_pending", 0.0),
        "stream.sessionize.self_s": _self(layers, "stream.sessionize"),
        "stream.sessionize.peak_open":
            peaks.get("stream.sessionize.peak_open", 0.0),
        "trace.wms_log.write_self_s": _self(layers, "trace.wms_log.write"),
        "trace.wms_log.identity_calls_per_row":
            (counters.get("trace.wms_log.identity_calls", 0.0) / text_rows
             if text_rows else 0.0),
        "trace.writer.peak_buffered":
            peaks.get("trace.writer.peak_buffered", 0.0),
        "trace.codecs.write_self_s": _self(layers, "trace.codecs.write"),
        "trace.codecs.decode_self_s": _self(layers, "trace.codecs.decode"),
        "trace.codecs.bytes_per_row":
            (counters.get("trace.codecs.bytes", 0.0) / binary_rows
             if binary_rows else 0.0),
        "parallel.characterize.plan_self_s":
            _self(layers, "parallel.characterize.plan"),
        "parallel.characterize.chunks":
            counters.get("parallel.characterize.chunks", 0.0),
        "trace.streaming.consume_self_s":
            _self(layers, "trace.streaming.consume"),
        "trace.streaming.merge_self_s": _self(layers, "trace.streaming.merge"),
        "trace.streaming.summary_self_s":
            _self(layers, "trace.streaming.summary"),
        "cdn.assignment.self_s": _self(layers, "cdn.assignment"),
        "cdn.admission.self_s": _self(layers, "cdn.admission"),
        "cdn.admission.calls":
            float(layers.get("cdn.admission", {}).get("calls", 0)),
        "cdn.report.self_s": _self(layers, "cdn.report"),
        "cdn.engine.self_s": _self(layers, "cdn.engine"),
        "cdn.planner.config_p50_s":
            statistics.median(configs) if configs else 0.0,
        "cdn.planner.config_max_s": max(configs) if configs else 0.0,
        "parallel.pool.efficiency":
            (sum(configs) / (plan_jobs * plan_wall_s)
             if configs and plan_wall_s > 0 else 0.0),
        "serve.feed.ingest_self_s": _self(layers, "serve.feed.ingest"),
        "serve.feed.busy_ratio": busy / window if window > 0 else 0.0,
        "serve.feed.queue_depth_max":
            peaks.get("serve.feed.queue_depth_max", 0.0),
        "serve.feed.shed_lines": float(shed_lines),
        "loadgen.late_p99_ms": late_p99_ms,
    }
    assert list(values) == [name for name, _ in PER_LAYER_METRICS]
    return values
