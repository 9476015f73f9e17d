"""Unit tests for repro.cdn.planner: sweep parsing, grid, frontier."""

import json
import os

import numpy as np
import pytest

from repro.cdn import (
    ConfigOutcome,
    EdgeFailure,
    FailurePlan,
    parse_sweep,
    plan_deployment,
    sweep_configs,
)
from repro.cdn.planner import _evaluate_config, _load_trace
from repro.core.gismo import LiveWorkloadGenerator
from repro.core.model import LiveWorkloadModel
from repro.errors import CdnError


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.02,
                                             n_clients=300)
    workload = LiveWorkloadGenerator(model).generate(0.5, seed=31)
    path = tmp_path_factory.mktemp("plan") / "trace.npz"
    workload.trace.save_npz(path)
    return str(path)


class TestParseSweep:
    def test_comma_list(self):
        assert parse_sweep("1,2.5,4") == (1.0, 2.5, 4.0)

    def test_range_includes_endpoint(self):
        assert parse_sweep("1:4:1", integral=True) == (1.0, 2.0, 3.0, 4.0)

    def test_range_with_float_step(self):
        values = parse_sweep("0.5:2:0.5")
        assert values == (0.5, 1.0, 1.5, 2.0)

    @pytest.mark.parametrize("spec", [
        "", "a,b", "1:2", "1:2:3:4", "1:2:0", "1:2:-1", "5:1:1",
    ])
    def test_malformed_ranges_rejected(self, spec):
        with pytest.raises(CdnError):
            parse_sweep(spec)

    def test_integral_rejects_fractions(self):
        with pytest.raises(CdnError, match="whole numbers"):
            parse_sweep("1,2.5", integral=True)


class TestSweepConfigs:
    def test_cross_product_sorted(self):
        configs = sweep_configs((2, 1), (5e6, 1e6))
        assert [(c.n_edges, c.bandwidth_bps) for c in configs] == [
            (1, 1e6), (1, 5e6), (2, 1e6), (2, 5e6)]

    def test_none_bandwidth_means_unlimited(self):
        configs = sweep_configs((1,), None)
        assert configs[0].bandwidth_bps is None
        assert configs[0].topology().edges[0].bandwidth_cap_bps is None

    def test_zero_edge_count_rejected(self):
        with pytest.raises(CdnError, match="at least one edge"):
            sweep_configs((0,), None)

    def test_empty_sweep_rejected(self):
        with pytest.raises(CdnError):
            sweep_configs((), None)


class TestPlanDeployment:
    def test_report_is_identical_across_jobs(self, trace_path):
        kwargs = dict(policy="as-hash", slo=0.05,
                      edge_counts=(1, 2), bandwidths_bps=(1e6, 5e6))
        serial = plan_deployment(trace_path, jobs=1, **kwargs)
        sharded = plan_deployment(trace_path, jobs=3, **kwargs)
        assert json.dumps(serial.to_dict(), sort_keys=True) == \
            json.dumps(sharded.to_dict(), sort_keys=True)

    def test_frontier_is_cheapest_per_edge_count(self, trace_path):
        report = plan_deployment(
            trace_path, slo=1.0, edge_counts=(1, 2),
            bandwidths_bps=(1e6, 2e6, 4e6))
        assert len(report.frontier) == 2
        for outcome in report.frontier:
            cheaper = [o for o in report.outcomes
                       if o.n_edges == outcome.n_edges
                       and o.bandwidth_bps < outcome.bandwidth_bps]
            assert all(not o.meets(1.0) for o in cheaper)
        # slo=1.0 is met by everything, so the cheapest bandwidth wins.
        assert report.best.n_edges == 1
        assert report.best.bandwidth_bps == 1e6

    def test_impossible_slo_yields_no_best(self, trace_path):
        report = plan_deployment(
            trace_path, slo=0.0, edge_counts=(1,),
            max_connections=1)
        assert report.best is None
        assert report.frontier == ()
        assert all(not o.meets(0.0) for o in report.outcomes)

    def test_rejections_fall_with_provisioning(self, trace_path):
        report = plan_deployment(
            trace_path, slo=1.0, edge_counts=(1, 2, 4),
            max_connections=4)
        by_edges = {o.n_edges: o.n_rejected for o in report.outcomes}
        assert by_edges[4] <= by_edges[2] <= by_edges[1]
        assert by_edges[1] > by_edges[4]

    def test_failures_flow_into_outcomes(self, trace_path):
        from repro.trace.store import Trace
        from repro.analysis.concurrency import sampled_concurrency

        trace = Trace.load_npz(trace_path)
        single = sampled_concurrency(trace.start, trace.end,
                                     extent=trace.extent, step=60.0)
        t_fail = float(np.argmax(single)) * 60.0 + 30.0
        report = plan_deployment(
            trace_path, slo=1.0, edge_counts=(4,),
            failures=FailurePlan((EdgeFailure(edge=0, at=t_fail),)))
        assert report.outcomes[0].n_reassigned > 0

    def test_invalid_slo_rejected(self, trace_path):
        with pytest.raises(CdnError, match="slo"):
            plan_deployment(trace_path, slo=1.5, edge_counts=(1,))

    def test_failure_must_fit_smallest_deployment(self, trace_path):
        with pytest.raises(CdnError, match="names edge"):
            plan_deployment(
                trace_path, edge_counts=(1, 2),
                failures=FailurePlan((EdgeFailure(edge=1, at=10.0),)))


class TestWorkerTask:
    def test_evaluate_config_is_picklable_and_typed(self, trace_path):
        import pickle

        task = (trace_path, 2, 1e6, None, "as-hash", 60.0, (), 300_000.0)
        pickle.dumps(task)
        row = _evaluate_config(task)
        assert len(row) == 8
        assert all(isinstance(v, (int, float)) for v in row)

    def test_outcome_meets_is_inclusive(self):
        outcome = ConfigOutcome(
            n_edges=1, bandwidth_bps=None, max_connections=None,
            n_requests=100, n_rejected=1, n_reassigned=0,
            n_failover_rejected=0, rejection_rate=0.01,
            peak_connections=5, peak_bandwidth_bps=500,
            origin_peak_streams=1)
        assert outcome.meets(0.01)
        assert not outcome.meets(0.0099)


class TestTraceCache:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trace_rewritten_in_place_is_reread(self, tmp_path, jobs):
        model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.02,
                                                 n_clients=300)
        path = tmp_path / "trace.npz"
        first = LiveWorkloadGenerator(model).generate(0.5, seed=31).trace
        second = LiveWorkloadGenerator(model).generate(0.2, seed=32).trace
        assert len(first) != len(second)

        first.save_npz(path)
        # Inline, so this process caches the first trace; forked
        # workers of the jobs=2 sweep below inherit that cache.
        before = plan_deployment(str(path), edge_counts=(1,), jobs=1)
        assert before.outcomes[0].n_requests == len(first)

        second.save_npz(path)
        after = plan_deployment(str(path), edge_counts=(1, 2), jobs=jobs)
        assert [o.n_requests for o in after.outcomes] == [len(second)] * 2

    def test_same_size_rewrite_within_one_tick_is_reread(self, trace_path,
                                                         tmp_path):
        with np.load(trace_path) as data:
            arrays = {name: data[name] for name in data.files}
        path = tmp_path / "trace.npz"
        # Uncompressed, so both versions have exactly the same size.
        np.savez(path, **arrays)
        stat = path.stat()
        first = _load_trace(str(path))
        np.testing.assert_array_equal(first.duration, arrays["duration"])

        np.savez(path, **{**arrays, "duration": arrays["duration"] / 2})
        # Put the old timestamps back, as if written within one tick.
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        rewritten = path.stat()
        assert (rewritten.st_size, rewritten.st_mtime_ns) == (
            stat.st_size, stat.st_mtime_ns)
        np.testing.assert_array_equal(_load_trace(str(path)).duration,
                                      arrays["duration"] / 2)
