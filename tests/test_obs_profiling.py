"""Continuous profiling layer: timelines, cost attribution, exporters.

The timeline's load-bearing property is tiling: the six pipeline
segments are consecutive differences of one perf_counter clock's
boundary timestamps, so they sum to the batch's wall time *exactly* —
coverage 1.0 is a property of the construction, and these tests pin
that construction (clamping, zero-wall guards, aggregation) so it
survives refactors. Cost records must pass the enclave telemetry gate's
closed schema at construction; the integration test reconciles the
per-batch attribution against the enclave's own lifetime counters.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.deploy import (
    BatchPolicy,
    MicroBatchScheduler,
    SecureInferenceSession,
    VaultServer,
    zipf_workload,
)
from repro.deploy.profiler import InferenceProfile
from repro.obs import (
    BatchTimeline,
    PipelineProfiler,
    ProfileReport,
    TelemetryLeak,
    enclave_cost_record,
    spans_to_folded,
    timelines_to_folded,
    timelines_to_json,
    validate_cost_record,
)
from repro.obs.profiling import SEGMENTS, render_gantt
from repro.obs.tracing import Span
from repro.tee.runtime import SgxCostModel


def _timeline(index=1, overlap=0.0, profile=None, cost=None, **bounds):
    """A timeline with explicit boundary offsets (seconds from t=0)."""
    defaults = dict(
        queued_at=0.0, collect_start=0.001, stage_start=0.002,
        stage_end=0.005, execute_start=0.006, execute_end=0.010,
        done_at=0.011,
    )
    defaults.update(bounds)
    return BatchTimeline(
        index=index, num_queries=4, targets_requested=4, targets_unique=3,
        overlap_seconds=overlap, profile=profile, cost=cost or {},
        **defaults,
    )


def _profile(backbone=0.002, transfer=0.001, enclave=0.004, paging=0.001,
             payload=4096, peak=1 << 20):
    return InferenceProfile(
        backbone_seconds=backbone, transfer_seconds=transfer,
        enclave_seconds=enclave, paging_seconds=paging,
        payload_bytes=payload, peak_enclave_memory_bytes=peak,
    )


class TestBatchTimeline:
    def test_segments_tile_wall_exactly(self):
        t = _timeline()
        segs = t.segments()
        assert tuple(segs) == SEGMENTS
        assert sum(segs.values()) == pytest.approx(t.wall_seconds, abs=1e-12)
        assert t.coverage() == pytest.approx(1.0)
        assert segs["queue"] == pytest.approx(0.001)
        assert segs["execute"] == pytest.approx(0.004)

    def test_out_of_order_timestamps_clamp_to_zero(self):
        # stage_end recorded *before* stage_start: the stage segment
        # clamps to 0 rather than going negative and inflating coverage.
        t = _timeline(stage_start=0.005, stage_end=0.002)
        segs = t.segments()
        assert segs["stage"] == 0.0
        assert all(value >= 0.0 for value in segs.values())

    def test_zero_wall_coverage_is_one(self):
        t = _timeline(
            queued_at=1.0, collect_start=1.0, stage_start=1.0,
            stage_end=1.0, execute_start=1.0, execute_end=1.0, done_at=1.0,
        )
        assert t.wall_seconds == 0.0
        assert t.coverage() == 1.0

    def test_overlap_fraction_guards_zero_stage(self):
        t = _timeline(stage_start=0.002, stage_end=0.002, overlap=0.5)
        assert t.overlap_fraction == 0.0

    def test_overlap_fraction_clamped_to_unit_interval(self):
        assert _timeline(overlap=99.0).overlap_fraction == 1.0
        assert _timeline(overlap=-1.0).overlap_fraction == 0.0
        assert _timeline(overlap=0.0015).overlap_fraction == pytest.approx(
            0.5
        )

    def test_bubble_is_handoff_gap(self):
        t = _timeline(stage_end=0.005, execute_start=0.0075)
        assert t.bubble_seconds == pytest.approx(0.0025)
        assert t.segments()["handoff"] == pytest.approx(0.0025)

    def test_to_dict_includes_profile_stages(self):
        profile = _profile()
        t = _timeline(profile=profile, cost={"ecall_count": 1})
        d = t.to_dict()
        assert d["stages"] == profile.breakdown()
        assert d["cost"] == {"ecall_count": 1}
        assert _timeline().to_dict().get("stages") is None


class TestCostRecord:
    def test_cost_record_joins_profile_and_cost_model(self):
        cost_model = SgxCostModel()
        profile = _profile(enclave=0.004, paging=0.001)
        record = enclave_cost_record(
            profile, ecall_count=2, cost_model=cost_model
        )
        assert record["ecall_count"] == 2
        assert record["compute_seconds"] == pytest.approx(0.003)
        assert record["paging_seconds"] == pytest.approx(0.001)
        assert record["paging_pages"] == profile.estimated_pages(cost_model)
        assert record["payload_bytes"] == 4096

    def test_cost_record_uses_default_cost_model(self):
        record = enclave_cost_record(_profile())
        assert record["paging_pages"] > 0

    def test_validate_rejects_forbidden_vocabulary(self):
        with pytest.raises(TelemetryLeak):
            validate_cost_record({"node_count": 3})

    def test_validate_rejects_unsuffixed_key(self):
        with pytest.raises(TelemetryLeak):
            validate_cost_record({"latency": 0.1})

    def test_validate_rejects_non_scalar_value(self):
        with pytest.raises(TelemetryLeak):
            validate_cost_record({"payload_bytes": [1, 2, 3]})

    def test_validate_returns_record_unchanged(self):
        record = {"transfer_seconds": 0.1}
        assert validate_cost_record(record) is record


class TestPipelineProfiler:
    def test_deque_bound_keeps_memory_constant(self):
        profiler = PipelineProfiler(max_batches=4)
        for index in range(10):
            profiler.record(_timeline(index=index))
        assert len(profiler) == 4
        assert profiler.batches_recorded == 10
        assert profiler.queries_recorded == 40
        assert [t.index for t in profiler.timelines()] == [6, 7, 8, 9]

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            PipelineProfiler(max_batches=0)

    def test_clear_empties_snapshot_not_counters(self):
        profiler = PipelineProfiler()
        profiler.record(_timeline())
        profiler.clear()
        assert len(profiler) == 0
        assert profiler.batches_recorded == 1


class TestProfileReport:
    def test_aggregation_sums_segments_and_costs(self):
        timelines = [
            _timeline(index=1, cost={"ecall_count": 1, "payload_bytes": 10,
                                     "peak_memory_bytes": 100}),
            _timeline(index=2, cost={"ecall_count": 1, "payload_bytes": 30,
                                     "peak_memory_bytes": 70}),
        ]
        report = ProfileReport.from_timelines(timelines)
        assert report.batches == 2
        assert report.queries == 8
        assert report.mean_batch_size == pytest.approx(4.0)
        assert report.coverage == pytest.approx(1.0)
        assert report.cost_totals["payload_bytes"] == 40
        # peak memory aggregates as a max, not a sum
        assert report.cost_totals["peak_memory_bytes"] == 100
        assert report.ecalls_per_query == pytest.approx(2 / 8)

    def test_empty_report(self):
        report = ProfileReport.from_timelines([])
        assert report.batches == 0
        assert report.coverage == 1.0
        assert report.mean_batch_size == 0.0
        assert report.ecalls_per_query == 0.0

    def test_render_contains_segments_and_gantt(self):
        timelines = [_timeline(cost={"ecall_count": 1})]
        text = ProfileReport.from_timelines(timelines).render(timelines)
        for name in SEGMENTS:
            assert name in text
        assert "ecall cost attribution" in text
        assert "batch 1 (4 queries" in text
        assert "#" in text  # the Gantt bars

    def test_gantt_bars_scale_with_segments(self):
        rows = render_gantt(_timeline(), width=40).splitlines()
        execute_row = next(row for row in rows if "execute" in row)
        queue_row = next(row for row in rows if "queue" in row)
        assert execute_row.count("#") > queue_row.count("#")


class TestExporters:
    def test_timeline_json_roundtrip(self):
        timelines = [
            _timeline(index=1, cost={"ecall_count": 1}),
            _timeline(index=2, queued_at=0.02, collect_start=0.021,
                      stage_start=0.022, stage_end=0.025,
                      execute_start=0.026, execute_end=0.030, done_at=0.031),
        ]
        doc = json.loads(timelines_to_json(timelines))
        assert doc["schema"] == "repro.profile.timeline/v1"
        assert doc["summary"]["batches"] == 2
        assert len(doc["batches"]) == 2
        assert len(doc["traceEvents"]) == 2 * len(SEGMENTS)
        first = doc["traceEvents"][0]
        assert first["ph"] == "X"
        assert first["ts"] == 0.0  # origin-relative
        # collector stages on tid 1, enclave worker on tid 2
        tids = {e["name"].split(" ")[0]: e["tid"] for e in doc["traceEvents"]}
        assert tids["stage"] == 1
        assert tids["execute"] == 2

    def test_folded_execute_attribution_is_proportional(self):
        profile = _profile(transfer=0.001, enclave=0.004, paging=0.001)
        text = timelines_to_folded([_timeline(profile=profile)])
        weights = {
            line.rsplit(" ", 1)[0]: int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
        }
        execute_children = [
            weights["pipeline;execute;transfer"],
            weights["pipeline;execute;rectifier"],
            weights["pipeline;execute;paging"],
        ]
        # children tile the measured execute wall time (4 ms)...
        assert sum(execute_children) == pytest.approx(4000, abs=2)
        # ...in the cost model's 1:3:1 proportion
        assert execute_children[1] == pytest.approx(
            3 * execute_children[0], abs=2
        )

    def test_folded_without_profile_keeps_flat_execute(self):
        text = timelines_to_folded([_timeline()])
        assert "pipeline;execute " in text
        assert "rectifier" not in text

    def test_spans_to_folded_self_time_semantics(self):
        parent = Span("serve")
        parent.set_seconds(0.010)
        parent.add_stage("backbone", 0.004)
        parent.add_stage("ecall", 0.005)
        folded = dict(
            line.rsplit(" ", 1) for line in
            spans_to_folded([parent]).splitlines()
        )
        assert int(folded["serve"]) == 1000  # 10 ms minus children
        assert int(folded["serve;backbone"]) == 4000
        assert int(folded["serve;ecall"]) == 5000

    def test_folded_drops_zero_weight_frames(self):
        t = _timeline(queued_at=0.001)  # queue segment becomes 0
        assert "pipeline;queue" not in timelines_to_folded([t])


class TestPipelineIntegration:
    """End-to-end: scheduler → profiler → reconciled cost attribution."""

    NUM_QUERIES = 96
    CLIENTS = 4

    @pytest.fixture
    def server(self, trained_vault):
        run = trained_vault
        session = SecureInferenceSession(
            run.backbone, run.rectifiers["series"], run.substitute,
            run.graph.adjacency,
        )
        return VaultServer(session, run.graph.features)

    def _drive(self, scheduler, workload):
        errors = []

        def client(index):
            try:
                for node in workload[index::self.CLIENTS]:
                    scheduler.query(int(node), client=f"client_{index}")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

    def test_pipelined_timelines_cover_and_reconcile(self, trained_vault,
                                                     server):
        run = trained_vault
        workload = zipf_workload(run.graph.num_nodes, self.NUM_QUERIES,
                                 seed=5)
        profiler = PipelineProfiler()
        enclave = server._session.enclave
        before = enclave.ecall_cost_totals()
        policy = BatchPolicy(max_batch_size=8, max_wait_ms=2.0)
        server.attach_profiler(profiler)
        with MicroBatchScheduler(server, policy) as sched:
            self._drive(sched, workload)

        timelines = profiler.timelines()
        assert timelines
        assert profiler.queries_recorded == self.NUM_QUERIES

        # Tiling: every batch accounts for its whole wall time.
        for t in timelines:
            assert t.coverage() == pytest.approx(1.0, abs=1e-9)
            assert t.profile is not None
            assert isinstance(t.profile, InferenceProfile)
            validate_cost_record(t.cost)

        # Reconciliation: summed per-batch attribution equals the
        # enclave's own lifetime counters over the same window.
        after = enclave.ecall_cost_totals()
        totals = profiler.report().cost_totals
        assert totals["ecall_count"] == (
            after["ecall_count"] - before["ecall_count"]
        )
        assert totals["payload_bytes"] == (
            after["payload_bytes"] - before["payload_bytes"]
        )
        for key in ("transfer_seconds", "paging_seconds"):
            assert totals[key] == pytest.approx(
                after[key] - before[key], abs=1e-9
            )

    def test_scheduler_close_publishes_pipeline_gauges(self, trained_vault,
                                                       server):
        run = trained_vault
        workload = zipf_workload(run.graph.num_nodes, 24, seed=6)
        policy = BatchPolicy(max_batch_size=8, max_wait_ms=2.0)
        with MicroBatchScheduler(server, policy) as sched:
            self._drive(sched, workload)
        registry = server.telemetry.registry
        assert registry.get("pipeline_queries").value() == 24.0
        assert registry.get("pipeline_batches").value() >= 1.0

    def test_sequential_hook_records_degenerate_timelines(self, trained_vault,
                                                          server):
        run = trained_vault
        profiler = PipelineProfiler()
        server.attach_profiler(profiler)
        try:
            server.serve(zipf_workload(run.graph.num_nodes, 12, seed=7),
                         batch_size=4)
        finally:
            server.detach_profiler()
        timelines = profiler.timelines()
        assert len(timelines) == 3  # 12 queries at batch_size=4
        for t in timelines:
            # no scheduler: queue/collect/handoff collapse to zero
            segs = t.segments()
            assert segs["queue"] == 0.0
            assert segs["collect"] == 0.0
            assert t.coverage() == pytest.approx(1.0, abs=1e-9)
            validate_cost_record(t.cost)
        # detached: serving again records nothing
        server.serve(np.array([0, 1]), batch_size=1)
        assert len(profiler.timelines()) == 3
