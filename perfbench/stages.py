"""One benchmark run: set-up, timed rounds of stages, output checks.

Every call into repro goes through a module attribute at call time
(``codecs.read_binary_trace``, ``planner.plan_deployment``, ...), so the
spans :mod:`perfbench.layers` installs see the same calls the untimed
run makes.  Output checks run outside the timed stages and count each
mismatch, exception, shed or errored line as a failed operation.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import loadgen
from .probe import PROBE_REF_S, SpeedProbe
from .spans import Tracer
from .workloads import (
    MAIN_CLIENTS,
    OPEN_BATCH_LINES,
    OPEN_RATE,
    PLAN_BANDWIDTHS_BPS,
    PLAN_EDGES,
    PLAN_POLICY,
    PLAN_SLO,
    SERVE_CLIENTS,
    SERVE_FEEDS,
    SERVE_SLICES,
    SESSION_RATE,
    Workload,
)

#: Repetitions of each stage per round; every rep is a sample.
REPS = 2

#: Service starts per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Lines per socket write in an unpaced text replay.
UNPACED_WRITE_LINES = 4096

#: Both serve phases feed ``f0``, ``f1``, ...: ``/metrics`` renders
#: every feed on each poll, so a third and fourth feed would slow it.
SERVE_FEED_PREFIX = "f"

#: Lines replayed into a new service before it is measured.
WARM_UP_LINES = 100_000

#: Seconds between ``/metrics`` polls in the open-loop phase.
OPEN_LOOP_POLL_S = 0.010

#: Relative tolerance for float fields of two characterization
#: summaries whose accumulators summed in a different order.
SUMMARY_RTOL = 1e-9


def model(n_clients: int) -> Any:
    """The paper-defaults workload model at ``n_clients`` clients."""
    from repro.core.model import LiveWorkloadModel
    return LiveWorkloadModel.paper_defaults(mean_session_rate=SESSION_RATE,
                                            n_clients=n_clients)


def generate(path: str, codec: str, days: float, seed: int,
             n_clients: int = MAIN_CLIENTS) -> Any:
    """``repro generate --stream``: generate, sessionize and write a log."""
    from repro.stream import pipeline
    return pipeline.run_streaming_generation(
        model(n_clients), days, seed=seed, sessionize=True,
        collect_sessions=False, log_path=path, codec=codec)


def characterize(path: str | list[str]) -> Any:
    """Serial characterization of one or more logs."""
    from repro.parallel import characterize as parallel_characterize
    return parallel_characterize.characterize_logs(path, jobs=1)


def decode(path: str, codec: str) -> Any:
    """Decode a log into a :class:`~repro.trace.store.Trace`."""
    from repro.trace import codecs, wms_log
    if codec == "binary":
        return codecs.read_binary_trace(path)
    return wms_log.read_wms_log(path)


def plan(trace_path: str, jobs: int) -> Any:
    """The fixed 12-config deployment sweep."""
    from repro.cdn import planner
    return planner.plan_deployment(
        trace_path, policy=PLAN_POLICY, slo=PLAN_SLO,
        edge_counts=PLAN_EDGES, bandwidths_bps=PLAN_BANDWIDTHS_BPS,
        jobs=jobs)


def corrupt(path: str) -> None:
    """Damage a log the way a torn copy would: cut its last 1% off."""
    size = os.path.getsize(path)
    with open(path, "r+b") as log:
        log.truncate(size - max(64, size // 100))


def summaries_match(a: Any, b: Any) -> bool:
    """Whether two characterization summaries agree.

    Counts, histograms and top clients must be equal; float sums may
    differ in the last digits when accumulated in another order.
    """
    for name in ("n_entries", "n_skipped", "n_clients", "feed_counts",
                 "top_clients"):
        if getattr(a, name) != getattr(b, name):
            return False
    for name in ("length_log_mu", "length_log_sigma", "bytes_served",
                 "congestion_bound_fraction"):
        if not math.isclose(getattr(a, name), getattr(b, name),
                            rel_tol=SUMMARY_RTOL, abs_tol=1e-12):
            return False
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("bandwidth_histogram", "bandwidth_edges",
                            "diurnal_counts"))


@dataclass
class Samples:
    """What a run measured and how many operations failed."""

    rates: dict[str, list[float]] = field(default_factory=dict)
    raw_rates: dict[str, list[float]] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    open_windows: list[tuple[float, float]] = field(default_factory=list)
    round_walls: list[float] = field(default_factory=list)
    pool_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    shed_lines: int = 0
    problems: list[str] = field(default_factory=list)

    def rate(self, name: str, work: float, seconds: float,
             probe_s: float) -> None:
        """Record one rep's throughput, raw and at the reference speed."""
        self.raw_rates.setdefault(name, []).append(work / seconds)
        self.rates.setdefault(name, []).append(
            work / seconds * probe_s / PROBE_REF_S)

    def fail(self, what: str, count: int = 1) -> None:
        """Count ``count`` failed operations."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)


@dataclass
class ServeSlice:
    """One round's share of the serve log for one phase."""

    path: str
    unpaced: loadgen.ReplayInput
    open_loop: loadgen.ReplayInput


def _split_serve_log(path: str, workdir: str, workload: Workload
                     ) -> list[ServeSlice]:
    """Cut the serve log into :data:`SERVE_SLICES` text logs."""
    with open(path, "rb") as log:
        lines = log.read().split(b"\n")
    header = [line for line in lines if line.startswith(b"#")]
    data = [line for line in lines if line and not line.startswith(b"#")]
    size = min(workload.serve_lines, len(data) // SERVE_SLICES)
    slices = []
    for k in range(SERVE_SLICES):
        slice_path = os.path.join(workdir, f"serve-{k}.log")
        with open(slice_path, "wb") as out:
            out.write(b"\n".join(header + data[k * size:(k + 1) * size])
                      + b"\n")
        slices.append(ServeSlice(
            slice_path,
            loadgen.text_input(slice_path, SERVE_FEEDS, UNPACED_WRITE_LINES),
            loadgen.text_input(slice_path, SERVE_FEEDS, OPEN_BATCH_LINES)))
    return slices


def _timed(samples: Samples, probe: SpeedProbe, cores: int, metric: str,
           what: str, call: Any, check: Any) -> Any:
    """Run ``call`` as one operation; record rows/s if ``check`` passes.

    ``check(result)`` returns ``(rows, problem)``; a problem or an
    exception counts as a failed operation and records no sample.
    """
    samples.attempted += 1
    before = probe.measure(cores)
    try:
        t0 = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - t0
    except Exception as exc:  # a damaged log may raise anything
        samples.fail(f"{what} raised {type(exc).__name__}: {exc}")
        return None
    probe_s = (before + probe.measure(cores)) / 2
    rows, problem = check(result)
    if problem:
        samples.fail(f"{what}: {problem}")
    else:
        samples.rate(metric, rows, elapsed, probe_s)
    return result


class Run:
    """One benchmark run of one workload in a working directory."""

    def __init__(self, workload: Workload, seed: int, workdir: str,
                 root: str, *, inject_fault: bool = False,
                 inline_plan: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.inject_fault = inject_fault
        self.inline_plan = inline_plan
        self.jobs = min(2, os.cpu_count() or 1)
        suffix = ".rtb" if workload.codec == "binary" else ".log"
        self.main_log = os.path.join(workdir, "main" + suffix)
        self.trace_npz = os.path.join(workdir, "plan.npz")
        self.slices: list[ServeSlice] = []
        self.service: loadgen.ServiceProcess | None = None
        self.n_transfers = 0
        self.n_plan_rows = 0
        self.reports: list[Any] = []
        self.replayed: list[str] = []
        self.setup_s = 0.0
        self.probe = SpeedProbe(root, loadgen.service_env(root))

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Generate the inputs and start the service.

        ``setup_s`` is the input preparation plus the median of
        :data:`SETUP_REPEATS` service starts (each start but the last is
        stopped again).  It is not scaled by the speed probe: starts are
        process launches and imports, which the probe does not track.
        """
        w = self.workload
        started = time.perf_counter()
        serve_log = os.path.join(self.workdir, "serve-all.log")
        generate(serve_log, "text", w.serve_days, self.seed + 1,
                 n_clients=SERVE_CLIENTS)
        self.slices = _split_serve_log(serve_log, self.workdir, w)
        result = generate(self.main_log, w.codec, w.days, self.seed)
        self.n_transfers = result.n_transfers
        self._save_plan_trace(decode(self.main_log, w.codec))
        prepare_s = time.perf_counter() - started

        starts = []
        for _ in range(SETUP_REPEATS):
            if self.service is not None:
                self.stop()
            t0 = time.perf_counter()
            self.start_service(traced=False)
            starts.append(time.perf_counter() - t0)
        self.setup_s = prepare_s + statistics.median(starts)

    def _save_plan_trace(self, trace: Any) -> None:
        from repro.trace.transform import time_slice
        end = min(self.workload.plan_days * 86_400.0, trace.extent)
        window = time_slice(trace, 0.0, end)
        self.n_plan_rows = len(window)
        window.save_npz(self.trace_npz)

    def start_service(self, traced: bool) -> None:
        """Start ``repro serve``, with ingest spans when ``traced``."""
        report = os.path.join(self.workdir, "service-report.json")
        self.service = loadgen.ServiceProcess(
            self.root, report, trace=traced,
            env=loadgen.service_env(self.root))
        self.replayed = []

    def warm_up(self, samples: Samples) -> None:
        """Replay :data:`WARM_UP_LINES` lines, untimed, into the service.

        A freshly started service runs its first full garbage collection
        (a 40-60 ms pause) some 60,000 lines in; a long-running service
        pays it once, so it belongs before the timed rounds.
        """
        assert self.service is not None
        sent = 0
        while sent < WARM_UP_LINES:
            serve_slice = self._slice(len(self.replayed))
            samples.attempted += serve_slice.unpaced.rows
            self._serve_ok(samples, asyncio.run(loadgen.replay_unpaced(
                self.service, serve_slice.unpaced, SERVE_FEED_PREFIX)))
            self.replayed.append(serve_slice.path)
            sent += serve_slice.unpaced.rows

    def stop(self) -> dict[str, Any]:
        """Stop the service and return its report (peak RSS, spans)."""
        assert self.service is not None
        service, self.service = self.service, None
        return service.stop()

    def close(self) -> None:
        """Stop every process this run started (the cleanup path)."""
        if self.service is not None:
            self.service.kill()
            self.service = None
        self.probe.close()

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def rounds(self, samples: Samples, seconds: float, first: int,
               max_rounds: int, tracer: Tracer | None = None) -> int:
        """Run rounds until ``seconds`` pass; returns rounds completed.

        A new round starts only if a round of median length still fits.
        Serve slices are replayed in turn, modulo the slice count.
        """
        deadline = time.perf_counter() + seconds
        done = 0
        while done < max_rounds:
            if done and (time.perf_counter()
                         + statistics.median(samples.round_walls)
                         > deadline):
                break
            t0 = time.perf_counter()
            self.round(samples, first + done, tracer)
            samples.round_walls.append(time.perf_counter() - t0)
            done += 1
        return done

    def round(self, samples: Samples, index: int,
              tracer: Tracer | None) -> None:
        """Every stage, :data:`REPS` times each (the open loop once)."""
        w = self.workload
        for _ in range(REPS):
            _timed(samples, self.probe, 1, "generate_rows_per_s", "generate",
                   lambda: generate(self.main_log, w.codec, w.days,
                                    self.seed),
                   lambda r: (r.n_transfers,
                              None if r.n_transfers == self.n_transfers
                              == r.n_entries else
                              f"wrote {r.n_entries} of {r.n_transfers}"))
        if self.inject_fault:
            corrupt(self.main_log)
        for _ in range(REPS):
            _timed(samples, self.probe, 1, "characterize_rows_per_s",
                   "characterize",
                   lambda: characterize(self.main_log),
                   lambda r: (r.n_entries,
                              None if r.n_entries == self.n_transfers
                              and r.n_skipped == 0 else
                              f"{r.n_entries} entries ({r.n_skipped} "
                              f"skipped) of {self.n_transfers}"))
        for _ in range(REPS):
            _timed(samples, self.probe, 1, "decode_rows_per_s", "decode",
                   lambda: len(decode(self.main_log, w.codec)),
                   lambda n: (n, None if n == self.n_transfers else
                              f"{n} of {self.n_transfers} transfers"))
        for _ in range(REPS):
            self._plan_stage(samples, tracer)
        for rep in range(REPS):
            self._unpaced(samples, REPS * index + rep)
        self._open_loop(samples, index)

    def _plan_stage(self, samples: Samples, tracer: Tracer | None) -> None:
        n_configs = len(PLAN_EDGES) * len(PLAN_BANDWIDTHS_BPS)
        first_span = len(tracer.names) if tracer is not None else 0
        report = _timed(samples, self.probe, self.jobs, "plan_configs_per_s",
                        "plan",
                        lambda: plan(self.trace_npz, self.jobs),
                        lambda r: (n_configs, self._plan_problem(r)))
        if report is not None:
            self.reports.append(report)
        if tracer is not None:
            samples.pool_walls.extend(
                tracer.ends[k] - tracer.starts[k]
                for k in range(first_span, len(tracer.names))
                if tracer.names[k] == "parallel.pool")
        if self.inline_plan:
            # Inline, so that per-config spans stay in this process.
            samples.attempted += 1
            problem = self._plan_problem(plan(self.trace_npz, 1))
            if problem:
                samples.fail(f"inline plan: {problem}")

    def _plan_problem(self, report: Any) -> str | None:
        """Why a sweep report is wrong, or ``None``."""
        for outcome in report.outcomes:
            if not (outcome.n_requests == self.n_plan_rows
                    and 0 <= outcome.n_rejected <= outcome.n_requests
                    and math.isclose(outcome.rejection_rate,
                                     outcome.n_rejected
                                     / max(1, outcome.n_requests))):
                return (f"config {outcome.n_edges}x{outcome.bandwidth_bps} "
                        "report is inconsistent")
        if self.reports and report.to_dict() != self.reports[0].to_dict():
            return "report differs from the first sweep"
        return None

    def _slice(self, index: int) -> ServeSlice:
        return self.slices[index % len(self.slices)]

    def _unpaced(self, samples: Samples, index: int) -> None:
        assert self.service is not None
        unpaced = self._slice(index).unpaced
        samples.attempted += unpaced.rows
        before = self.probe.measure(2)
        result = asyncio.run(loadgen.replay_unpaced(
            self.service, unpaced, SERVE_FEED_PREFIX))
        probe_s = (before + self.probe.measure(2)) / 2
        self.replayed.append(self._slice(index).path)
        if self._serve_ok(samples, result):
            samples.rate("ingest_lines_per_s", result.rows, result.wall_s,
                         probe_s)

    def _open_loop(self, samples: Samples, index: int) -> None:
        assert self.service is not None
        open_loop = self._slice(index).open_loop
        samples.attempted += open_loop.rows
        # The load generator must not stall on a collection of this
        # process's heap mid-schedule; collect now and pause the
        # collector for the phase (it allocates little).
        gc.collect()
        gc.disable()
        try:
            result = asyncio.run(loadgen.replay_open_loop(
                self.service, open_loop, SERVE_FEED_PREFIX,
                OPEN_RATE, OPEN_LOOP_POLL_S))
        finally:
            gc.enable()
        self.replayed.append(self._slice(index).path)
        self._serve_ok(samples, result)
        samples.latencies_s.extend(result.latencies_s)
        samples.late_s.extend(result.late_s)
        samples.open_windows.append(
            (result.started, result.started + result.wall_s))

    @staticmethod
    def _serve_ok(samples: Samples, result: loadgen.ReplayResult) -> bool:
        """Count shed, errored or truncated lines as failed operations."""
        samples.shed_lines += result.failed_rows
        if result.failed_rows or result.errors:
            samples.fail(f"serve: {result.failed_rows} lines failed, "
                         f"{result.errors}", max(1, result.failed_rows))
            return False
        return True

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check(self, samples: Samples) -> None:
        """Output checks against independent paths (outside any timing)."""
        self._check_other_codec(samples)
        self._check_best_config(samples)

    def _check_other_codec(self, samples: Samples) -> None:
        """The main log's summary equals the other codec's, same seed."""
        w = self.workload
        other = "text" if w.codec == "binary" else "binary"
        path = os.path.join(self.workdir,
                            "other" + (".log" if other == "text" else ".rtb"))
        samples.attempted += 1
        try:
            generate(path, other, w.days, self.seed)
            if not summaries_match(characterize(self.main_log),
                                   characterize(path)):
                samples.fail("text and .rtb summaries differ")
        except Exception as exc:  # a damaged log may raise anything
            samples.fail(f"cross-codec check raised {type(exc).__name__}")

    def _check_best_config(self, samples: Samples) -> None:
        """The sweep's winner, re-simulated alone, gives the same outcome."""
        from repro.cdn import engine
        from repro.trace.store import Trace
        from repro.cdn.topology import CdnTopology
        samples.attempted += 1
        best = self.reports[0].best if self.reports else None
        if best is None:
            samples.fail("the sweep found no deployment meeting the SLO")
            return
        result = engine.simulate_cdn(
            Trace.load_npz(self.trace_npz),
            CdnTopology.uniform(best.n_edges,
                                bandwidth_bps=best.bandwidth_bps),
            policy=PLAN_POLICY)
        if not (result.n_rejected == best.n_rejected
                and result.n_requests == best.n_requests
                and result.rejection_rate <= PLAN_SLO
                and max(e.peak_connections for e in result.edges)
                == best.peak_connections):
            samples.fail("best config differs when re-simulated")

    def check_feeds(self, samples: Samples) -> None:
        """The running service's feeds, merged, equal ``characterize_logs``
        of every serve slice replayed into it."""
        from repro.trace.streaming import StreamingCharacterizer
        assert self.service is not None
        samples.attempted += 1
        state = asyncio.run(loadgen.http_json(
            self.service.host, self.service.http_port, "/state"))["feeds"]
        live = StreamingCharacterizer()
        for k in range(SERVE_FEEDS):
            feed = state.get(f"{SERVE_FEED_PREFIX}{k}")
            if feed is None:
                samples.fail(f"feed {SERVE_FEED_PREFIX}{k} missing")
                return
            live.merge(StreamingCharacterizer.from_state_dict(
                feed["meta"]["characterizer"]))
        if not summaries_match(live.summary(), characterize(self.replayed)):
            samples.fail("feeds differ from characterize_logs of the "
                         "replayed log")
