"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload text-log --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics and prints the raw rates
beside the ones scaled to the reference speed (see
:class:`perfbench.probe.SpeedProbe`) and the open-loop latencies.
``--trace 1`` runs half the rounds untraced and as many traced, then
reports the per-layer metrics and prints a stage table (layer, self
seconds, share, rows/s) and the tracing overhead.  Before the result,
every run prints the host it ran on.  The last line of standard output
is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The benchmark needs the repository's ``src/`` next to this directory;
without it, it exits with an error and prints no result.
"""

from __future__ import annotations

import os

# Every process the benchmark starts inherits single-threaded BLAS and
# OpenMP pools, so a library thread never competes with the sweep's
# worker processes or the service.  Set before numpy is imported.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from typing import Any  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Upper bound on rounds per run (the time limit normally ends it).
MAX_ROUNDS = 1000

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END_METRICS: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("generate_rows_per_s", "rows/s"),
    ("characterize_rows_per_s", "rows/s"),
    ("decode_rows_per_s", "rows/s"),
    ("plan_configs_per_s", "configs/s"),
    ("ingest_lines_per_s", "lines/s"),
    ("peak_rss_mib", "MiB"),
)


def host_line() -> str:
    """Core count, CPU model, versions and thread settings of this run."""
    import numpy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = ",".join(f"{name}={os.environ[name]}"
                       for name in THREAD_VARIABLES)
    return (f"host: nproc={os.cpu_count()} cpu={model!r} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"threads={threads}")


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` with n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _median(values: list[float] | None) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mib() -> float:
    """Peak RSS of this process or any child it waited for, in MiB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def end_to_end(run: Any, samples: Any) -> dict[str, float]:
    """The end-to-end metric values of an untraced run."""
    return {
        "setup_s": run.setup_s,
        "generate_rows_per_s": _median(samples.rates.get(
            "generate_rows_per_s")),
        "characterize_rows_per_s": _median(samples.rates.get(
            "characterize_rows_per_s")),
        "decode_rows_per_s": _median(samples.rates.get("decode_rows_per_s")),
        "plan_configs_per_s": _median(samples.rates.get(
            "plan_configs_per_s")),
        "ingest_lines_per_s": _median(samples.rates.get(
            "ingest_lines_per_s")),
        "peak_rss_mib": _peak_rss_mib(),
    }


def stage_table(merged: dict[str, Any], wall_s: float) -> list[str]:
    """Per-layer self time, share of the traced wall time, and rows/s."""
    lines = [f"{'layer':32s} {'self s':>9s} {'share':>7s} {'rows/s':>12s}"]
    layers = sorted(merged["layers"].items(),
                    key=lambda item: -item[1]["self_s"])
    for name, layer in layers:
        rows = layer["rows"]
        rate = (f"{rows / layer['self_s']:12,.0f}"
                if rows and layer["self_s"] > 0 else f"{'-':>12s}")
        lines.append(f"{name:32s} {layer['self_s']:9.3f} "
                     f"{layer['self_s'] / wall_s:7.1%} {rate}")
    return lines


def run_untraced(run: Any, seconds: float) -> tuple[Any, dict[str, float]]:
    """Set up, run rounds for ``seconds``, check; end-to-end metrics."""
    from .stages import Samples
    from .workloads import OPEN_RATE
    samples = Samples()
    run.setup()
    run.warm_up(samples)
    rounds = run.rounds(samples, seconds, 0, MAX_ROUNDS)
    run.check_feeds(samples)
    run.stop()
    run.check(samples)
    # Open-loop latencies are printed, not reported as metrics: on a
    # shared 2-core host their ten-run spread reached a quarter (p50) to
    # a third (p90), and one 40-60 ms garbage collection in the service
    # moves the p99 by a third.
    latency = samples.latencies_s
    print(f"rounds: {rounds}; open loop: {len(latency)} batches offered at "
          f"{OPEN_RATE:.0f} lines/s, latency p50 "
          f"{_quantile(latency, 50) * 1e3:.1f} ms, p90 "
          f"{_quantile(latency, 90) * 1e3:.1f} ms, p99 "
          f"{_quantile(latency, 99) * 1e3:.1f} ms")
    for name, raw in sorted(samples.raw_rates.items()):
        print(f"{name}: raw median {_median(raw):,.1f} over {len(raw)} reps, "
              f"{_median(samples.rates[name]):,.1f} at the reference speed")
    return samples, end_to_end(run, samples)


def run_traced(run: Any, seconds: float) -> tuple[Any, dict[str, float]]:
    """Untraced rounds, then as many traced ones; per-layer metrics."""
    from .layers import instrument_pipeline, per_layer_metrics
    from .spans import Tracer, merge_summaries
    from .stages import Samples

    plain = Samples()
    run.setup()
    run.warm_up(plain)
    rounds = run.rounds(plain, seconds / 2, 0, MAX_ROUNDS)
    run.check_feeds(plain)
    run.stop()

    traced = Samples()
    run.start_service(True)
    run.warm_up(traced)
    assert run.service is not None
    run.service.start_tracing()
    tracer = Tracer()
    instrument_pipeline(tracer)
    try:
        traced_rounds = run.rounds(traced, float("inf"), rounds, rounds,
                                   tracer=tracer)
    finally:
        tracer.restore()
    run.check_feeds(traced)
    service = run.stop()
    run.check(traced)

    merged = merge_summaries([tracer.summary(), service["spans"]])
    metrics = per_layer_metrics(
        merged, plan_wall_s=sum(traced.pool_walls), plan_jobs=run.jobs,
        open_windows=traced.open_windows,
        late_p99_ms=_quantile(traced.late_s, 99) * 1e3,
        shed_lines=traced.shed_lines)
    wall = sum(traced.round_walls)
    base = sum(plain.round_walls[:traced_rounds])
    for line in stage_table(merged, wall):
        print(line)
    print(f"tracing overhead: {wall - base:+.3f} s over {traced_rounds} "
          f"round(s) ({wall:.3f} s traced, {base:.3f} s untraced)")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems.extend(plain.problems)
    return traced, metrics


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the workload, print the result."""
    from .workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="truncate the main log before each "
                             "characterize (the checks must fail)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (smoke tests)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2

    from .layers import PER_LAYER_METRICS
    from .stages import Run
    workload = WORKLOADS[args.workload].scaled(args.scale)
    print(host_line())
    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    run = Run(workload, args.seed, workdir, ROOT,
              inject_fault=args.inject_fault, inline_plan=bool(args.trace))
    try:
        if args.trace:
            samples, values = run_traced(run, args.seconds)
            units = dict(PER_LAYER_METRICS)
        else:
            samples, values = run_untraced(run, args.seconds)
            units = dict(END_TO_END_METRICS)
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in samples.problems:
        print(f"failed: {problem}")
    result = {
        "correct": samples.failed == 0,
        "attempted": max(1, samples.attempted),
        "failed": samples.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _terminate(signum: int, frame: Any) -> None:
    """On SIGTERM, unwind so that every started process is stopped."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, ROOT)
    from perfbench.run import main as _main
    try:
        sys.exit(_main())
    except Exception:  # report, and exit without a result line
        traceback.print_exc()
        sys.exit(1)
