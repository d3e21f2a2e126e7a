"""Micro-batch scheduler: exactness, fencing, policy, and backpressure.

The load-bearing property is the first class: whatever the batch policy,
client interleaving, or mid-stream graph updates, the scheduler's answers
must be bit-identical to the sequential per-query loop — batching changes
the schedule, never the labels.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.deploy import (
    BatchPolicy,
    GraphUpdate,
    MicroBatchScheduler,
    QueryBudgetExceeded,
    SchedulerOverloaded,
    SecureInferenceSession,
    StripedLocks,
    VaultServer,
    seal_graph_update,
    zipf_workload,
)


@pytest.fixture
def make_server(trained_vault):
    def factory(**kwargs):
        run = trained_vault
        session = SecureInferenceSession(
            run.backbone,
            run.rectifiers["series"],
            run.substitute,
            run.graph.adjacency,
        )
        return VaultServer(session, run.graph.features, **kwargs)

    return factory


def _concurrent_query(scheduler, workload, num_clients=4):
    """Drive ``workload`` through client threads; answers back in order."""
    labels = np.empty(len(workload), dtype=np.int64)
    errors = []

    def client(index):
        try:
            for position in range(index, len(workload), num_clients):
                labels[position] = scheduler.query(
                    int(workload[position]), client=f"client_{index}"
                )
        except Exception as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return labels


class TestBatchPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_wait_ms": -1.0},
            {"max_queue_depth": 0},
            {"max_inflight_per_client": -1},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchPolicy(**kwargs)

    def test_striped_locks_are_stable_per_key(self):
        locks = StripedLocks(stripes=4)
        assert locks.lock_for("alice") is locks.lock_for("alice")
        with pytest.raises(ValueError):
            StripedLocks(stripes=0)


class TestExactness:
    """Scheduler answers == sequential per-query loop, bit for bit."""

    @pytest.mark.parametrize("max_batch_size", [1, 3, 8])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_concurrent_labels_match_sequential(
        self, make_server, trained_vault, max_batch_size, seed
    ):
        run = trained_vault
        workload = zipf_workload(
            run.graph.num_nodes, 60, alpha=1.3,
            rng=np.random.default_rng(seed),
        )
        sequential = make_server()
        expected = np.array(
            [sequential.query(int(node)) for node in workload], dtype=np.int64
        )
        server = make_server()
        policy = BatchPolicy(max_batch_size=max_batch_size, max_wait_ms=1.0)
        with MicroBatchScheduler(server, policy) as scheduler:
            actual = _concurrent_query(scheduler, workload)
            batches = scheduler.stats.batches
        assert actual.tobytes() == expected.tobytes()
        assert batches >= int(np.ceil(len(workload) / max_batch_size))

    def test_server_serve_scheduler_entry_point(self, make_server, trained_vault):
        run = trained_vault
        workload = zipf_workload(
            run.graph.num_nodes, 40, alpha=1.3,
            rng=np.random.default_rng(1),
        )
        expected = make_server().serve(workload, batch_size=1)
        via_policy = make_server().serve(
            workload, scheduler=BatchPolicy(max_batch_size=8)
        )
        assert via_policy.tobytes() == expected.tobytes()

    def test_mid_stream_add_node_stays_exact(self, make_server, trained_vault):
        """Fenced update between bursts: both halves match sequential
        references taken at the same graph version."""
        run = trained_vault
        workload = zipf_workload(
            run.graph.num_nodes, 30, alpha=1.3,
            rng=np.random.default_rng(3),
        )
        blob = seal_graph_update(
            GraphUpdate(neighbours=(0, 1, 2)), run.rectifiers["series"]
        )
        row = run.graph.features[:3].mean(axis=0)

        reference = make_server()
        before_expected = np.array(
            [reference.query(int(n)) for n in workload], dtype=np.int64
        )
        reference.add_node(row, [0, 1], blob)
        after_expected = np.array(
            [reference.query(int(n)) for n in workload], dtype=np.int64
        )

        server = make_server()
        with MicroBatchScheduler(server, BatchPolicy(max_batch_size=4)) as sched:
            before = _concurrent_query(sched, workload)
            new_id = sched.add_node(row, [0, 1], blob)
            after = _concurrent_query(sched, workload)
            new_label = sched.query(new_id)
        assert before.tobytes() == before_expected.tobytes()
        assert after.tobytes() == after_expected.tobytes()
        assert new_id == run.graph.num_nodes
        assert new_label == int(reference.query(new_id))

    def test_add_node_racing_live_clients_never_corrupts(
        self, make_server, trained_vault
    ):
        """The fence under fire: clients stream queries while the graph
        grows mid-stream. Every query must complete without error and the
        post-update state must answer exactly like a fresh deployment."""
        run = trained_vault
        workload = zipf_workload(
            run.graph.num_nodes, 80, alpha=1.3,
            rng=np.random.default_rng(4),
        )
        blob = seal_graph_update(
            GraphUpdate(neighbours=(3, 4)), run.rectifiers["series"]
        )
        row = run.graph.features[3:5].mean(axis=0)

        server = make_server()
        with MicroBatchScheduler(server, BatchPolicy(max_batch_size=8)) as sched:
            update_done = []

            def updater():
                update_done.append(sched.add_node(row, [3], blob))

            update_thread = threading.Thread(target=updater)
            update_thread.start()
            _concurrent_query(sched, workload)
            update_thread.join()
            post = _concurrent_query(sched, workload)
        assert update_done == [run.graph.num_nodes]

        reference = make_server()
        reference.add_node(row, [3], blob)
        expected = np.array(
            [reference.query(int(n)) for n in workload], dtype=np.int64
        )
        assert post.tobytes() == expected.tobytes()


class TestBackpressureAndBudget:
    def test_queue_depth_overload(self, make_server):
        server = make_server()
        policy = BatchPolicy(max_batch_size=2, max_queue_depth=1)
        with MicroBatchScheduler(server, policy) as scheduler:
            with scheduler.paused():
                first = scheduler.submit([0])
                with pytest.raises(SchedulerOverloaded):
                    scheduler.submit([1])
            assert int(first.result(timeout=10.0)[0]) == server.query(0)

    def test_per_client_inflight_cap(self, make_server):
        server = make_server()
        policy = BatchPolicy(
            max_batch_size=4, max_inflight_per_client=1, max_queue_depth=8
        )
        with MicroBatchScheduler(server, policy) as scheduler:
            with scheduler.paused():
                held = scheduler.submit([0], client="greedy")
                with pytest.raises(SchedulerOverloaded):
                    scheduler.submit([1], client="greedy")
                other = scheduler.submit([1], client="patient")
            held.result(timeout=10.0)
            other.result(timeout=10.0)
            # the in-flight slot is released on completion
            scheduler.submit([2], client="greedy").result(timeout=10.0)

    def test_slotless_request_never_frees_a_held_slot(self, make_server):
        # The ledger's quota flips while a request admitted without a
        # slot (uncapped policy) is still queued; that request finishing
        # must not free the slot the next, capped request holds.
        from repro.obs.tenancy import TenantCostLedger

        server = make_server()
        ledger = TenantCostLedger()
        quota = {"over": False}
        ledger.over_quota = lambda client: quota["over"]
        server.attach_tenancy(ledger)
        entered, release = threading.Event(), threading.Event()
        execute = server._execute_batch

        def gated_execute(staged, pipeline=None):
            if any(request.node_ids == (1,) for request in staged.requests):
                entered.set()
                assert release.wait(timeout=10.0)
            execute(staged, pipeline)

        server._execute_batch = gated_execute
        policy = BatchPolicy(max_batch_size=1, max_queue_depth=8)
        with MicroBatchScheduler(server, policy) as scheduler:
            with scheduler.paused():
                slotless = scheduler.submit([0], client="greedy")
                quota["over"] = True  # backpressure cap of 1 engages
                held = scheduler.submit([1], client="greedy")
                with pytest.raises(SchedulerOverloaded):
                    scheduler.submit([2], client="greedy")
            slotless.result(timeout=10.0)
            # the worker reaches the held request only after the slotless
            # one has finished and released whatever it holds
            assert entered.wait(timeout=10.0)
            try:
                with pytest.raises(SchedulerOverloaded):
                    scheduler.submit([3], client="greedy")
                assert scheduler._client_inflight == {"greedy": 1}
            finally:
                release.set()
            held.result(timeout=10.0)
            assert scheduler._client_inflight == {}
            scheduler.submit([4], client="greedy").result(timeout=10.0)

    def test_query_budget_enforced_across_clients(self, make_server):
        server = make_server(query_budget=10)
        with MicroBatchScheduler(server, BatchPolicy(max_batch_size=4)) as sched:
            workload = [int(n) for n in np.arange(10) % 5]
            _concurrent_query(sched, np.asarray(workload), num_clients=2)
            with pytest.raises(QueryBudgetExceeded):
                sched.query(0)

    def test_submit_after_close_rejected(self, make_server):
        scheduler = MicroBatchScheduler(make_server())
        scheduler.start()
        scheduler.close()
        with pytest.raises(RuntimeError):
            scheduler.submit([0])

    def test_close_drains_queued_requests(self, make_server):
        server = make_server()
        scheduler = MicroBatchScheduler(server, BatchPolicy(max_batch_size=4))
        scheduler.start()
        with scheduler.paused():  # hold formation back while we enqueue
            pending = [scheduler.submit([n]) for n in range(6)]
        scheduler.close()
        answers = [int(p.result(timeout=10.0)[0]) for p in pending]
        assert answers == [server.query(n) for n in range(6)]


class TestPipelineStats:
    def test_stats_account_every_query_and_batch(self, make_server, trained_vault):
        run = trained_vault
        workload = zipf_workload(
            run.graph.num_nodes, 48, alpha=1.3,
            rng=np.random.default_rng(6),
        )
        server = make_server()
        with MicroBatchScheduler(server, BatchPolicy(max_batch_size=6)) as sched:
            sched.serve(workload)
            snap = sched.stats.snapshot()
        assert snap["queries"] == len(workload)
        assert sum(
            int(size) * count
            for size, count in snap["batch_size_histogram"].items()
        ) == len(workload)
        assert snap["ecalls_per_query"] == snap["batches"] / snap["queries"]
        assert snap["targets_unique"] <= snap["targets_requested"]
        assert 0.0 <= snap["pipeline_overlap_fraction"] <= 1.0
        # the server-side view agrees with the pipeline's
        assert server.stats.queries_served == len(workload)

    def test_overlap_fraction_guards_zero_staged_seconds(self):
        from repro.deploy.scheduler import PipelineStats

        stats = PipelineStats()
        # A batch can legitimately stage in ~0 time (cache-hot backbone)
        # while the unlocked busy-ledger read reports a positive overlap
        # delta; the fraction must stay defined and inside [0, 1].
        stats.record_batch(
            num_queries=4, targets_requested=4, targets_unique=4,
            staged_seconds=0.0, enclave_seconds=0.001,
            overlapped_seconds=0.5,
        )
        assert stats.overlap_fraction == 0.0
        snap = stats.snapshot()
        assert snap["pipeline_overlap_fraction"] == 0.0

    def test_overlap_clamped_to_staged_and_nonnegative(self):
        from repro.deploy.scheduler import PipelineStats

        stats = PipelineStats()
        # racy busy-ledger reads can produce overlap > staged or < 0
        stats.record_batch(
            num_queries=2, targets_requested=2, targets_unique=2,
            staged_seconds=0.002, enclave_seconds=0.001,
            overlapped_seconds=99.0,
        )
        stats.record_batch(
            num_queries=2, targets_requested=2, targets_unique=2,
            staged_seconds=0.002, enclave_seconds=0.001,
            overlapped_seconds=-1.0,
        )
        assert 0.0 <= stats.overlap_fraction <= 1.0

    def test_publish_gauges_exports_scalars_only(self):
        from repro.deploy.scheduler import PipelineStats
        from repro.obs import MetricsRegistry

        stats = PipelineStats()
        stats.record_batch(
            num_queries=6, targets_requested=6, targets_unique=5,
            staged_seconds=0.004, enclave_seconds=0.002,
            overlapped_seconds=0.001,
        )
        registry = MetricsRegistry()
        stats.publish_gauges(registry)
        assert registry.get("pipeline_batches").value() == 1.0
        assert registry.get("pipeline_queries").value() == 6.0
        assert registry.get("pipeline_mean_batch_size").value() == 6.0
        assert registry.get("pipeline_overlap_fraction").value() == (
            stats.overlap_fraction
        )
        # the histogram is not a scalar and must not become a gauge
        assert registry.get("pipeline_batch_size_histogram") is None


class TestSinkErrors:
    """A telemetry sink that raises never strands an answered batch."""

    def test_raising_audit_sink_still_answers(self, make_server, trained_vault,
                                              monkeypatch):
        server = make_server()
        expected, _ = server._session.predict(trained_vault.graph.features)

        def broken(*args, **kwargs):
            raise RuntimeError("audit store unavailable")

        monkeypatch.setattr(server.telemetry.audit, "append", broken)
        nodes = [0, 5, 9]
        labels = server.query_batch(nodes)
        assert labels.tobytes() == expected[nodes].tobytes()
        assert server.stats.sink_errors("audit") == 1
        # answered, so the charge stands and nothing was dropped
        assert server._budget_used == len(nodes)
        with MicroBatchScheduler(server, BatchPolicy(max_batch_size=2)) as sched:
            for batch in ([1, 2], [3], [4, 6, 7]):
                answer = sched.query_batch(batch, timeout=10.0)
                assert answer.tobytes() == expected[batch].tobytes()
        assert server.stats.sink_errors("audit") == 4
        assert server.stats.sink_errors() == 4

    def test_raising_health_observer_never_replays_a_batch(
            self, make_server, monkeypatch):
        from repro.obs.health import HealthMonitor

        server = make_server()
        seen = []
        observe = HealthMonitor.observe_batch

        def flaky(self, count, profile):
            seen.append(profile)  # held, so no id is reused
            if len(seen) == 70:  # inside the second drain
                raise RuntimeError("health store unavailable")
            return observe(self, count, profile)

        monkeypatch.setattr(HealthMonitor, "observe_batch", flaky)
        for step in range(200):
            server.query_batch([step % 50])
        server.flush_health()
        assert server.stats.sink_errors("health") == 1
        assert len({id(profile) for profile in seen}) == len(seen)
