"""The benchmark's workloads: one pipeline, two codecs.

Every workload runs the same round of stages over inputs generated from
its seed, so every end-to-end metric exists on every workload::

    generate -> characterize -> decode -> plan -> serve (unpaced, open loop)

Rounds repeat until the run's time is spent.  Each throughput is the
median over the run's reps; the latencies pool every open-loop batch of
the run.  ``text-log`` and ``rtb-log`` share the paper-defaults model,
the seed and so the rows, and differ in the main log's codec only: one
exercises the text writer, parser and per-line characterizer, the other
the ``.rtb`` writer, reader and columnar characterizer.  Both run the
12-config deployment sweep at ``jobs`` = 2 and the replay into
``repro serve``, so every layer is measured on both.

The replay into ``repro serve`` uses its own log from a 1,000-client
population.  ``/metrics`` sorts every feed's client counts on each
request, so with the paper's 50,000 clients each poll would stall the
service for tens of milliseconds and the latency figures would measure
the poller, not ingest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Session arrival rate and client population of the paper defaults.
SESSION_RATE = 1.4
MAIN_CLIENTS = 50_000
SERVE_CLIENTS = 1_000

#: Transfers per day the serve-log model generates, rounded down (about
#: 145,000 at 1,000 clients); the serve log is sized with it.
TRANSFERS_PER_DAY = 130_000

#: The deployment grid of the plan stage: 4 edge counts x 3 bandwidths.
PLAN_EDGES = (1, 2, 4, 8)
PLAN_BANDWIDTHS_BPS = (10e6, 50e6, 200e6)
PLAN_POLICY = "as-hash"
PLAN_SLO = 0.01

#: Feeds (TCP connections) of the serve stage; no more than the cores.
SERVE_FEEDS = 2

#: Slices the serve log is cut into; rounds replay them in turn.
SERVE_SLICES = 4

#: Lines per open-loop batch.
OPEN_BATCH_LINES = 100

#: Offered open-loop rate in lines/s, about a tenth of the unpaced rate
#: on a 2-core host: 100 batches/s.  The ``/metrics`` polls that time
#: each batch also take the service's loop, and the batches queued
#: behind one full garbage collection in the service (40-60 ms) must
#: stay well under 1% of a run's batches, or that one pause decides the
#: p99.
OPEN_RATE = 10_000.0


@dataclass(frozen=True)
class Workload:
    """How much input each stage of a round gets.

    Attributes
    ----------
    codec:
        ``"text"`` or ``"binary"``: the main log's codec, and so its
        writer, decoder and characterizer path.
    days:
        Window of the main log each round generates, characterizes and
        decodes.
    plan_days:
        Leading window of the decoded main log the deployment sweep runs
        over.
    serve_lines:
        Text lines per serve slice: each unpaced rep and each round's
        open-loop phase replays one slice.
    """

    name: str
    codec: str
    days: float
    plan_days: float
    serve_lines: int

    @property
    def serve_days(self) -> float:
        """Serve-log window holding :data:`SERVE_SLICES` slices."""
        return SERVE_SLICES * self.serve_lines / TRANSFERS_PER_DAY

    def scaled(self, factor: float) -> "Workload":
        """The same workload with every input ``factor`` times as large."""
        return replace(self, days=self.days * factor,
                       plan_days=self.plan_days * factor,
                       serve_lines=max(OPEN_BATCH_LINES,
                                       int(self.serve_lines * factor)))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # Text writer and per-line characterizer; the .rtb codec is unused.
    Workload("text-log", codec="text", days=0.15, plan_days=0.1,
             serve_lines=10_000),
    # Same model, seed and rows through the .rtb writer, reader and
    # columnar characterizer; the text writer is unused.
    Workload("rtb-log", codec="binary", days=0.15, plan_days=0.1,
             serve_lines=10_000),
)}
