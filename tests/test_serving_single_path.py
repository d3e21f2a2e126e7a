"""One ECALL execution path for sequential and pipelined serving.

``VaultServer.query_batch`` runs a request as a micro-batch of one
through the same execute step the scheduler's enclave worker runs. These
tests pin what that buys: labels bitwise identical to the full-graph
``predict`` oracle on every entry, one admission check for both entries,
server-owned batch sequence numbers, ECALL-count deltas that survive an
enclave restart, and degraded answers accounted the same either way.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.deploy import (
    BatchPolicy,
    DEGRADED_BACKBONE_ONLY,
    EnclaveSupervisor,
    GraphUpdate,
    InvalidQuery,
    MicroBatchScheduler,
    RecoveryPolicy,
    SecureInferenceSession,
    VaultServer,
    seal_graph_update,
    zipf_workload,
)
from repro.errors import RecoveryFailed
from repro.obs import PipelineProfiler, StructuredLogger, TenantCostLedger
from repro.tee import FaultInjector, FaultPlan, FaultSpec, seal
from repro.tee.faults import FAULT_KILL


def make_server(run, scheme="series", supervised=False,
                degraded_mode=None) -> VaultServer:
    session = SecureInferenceSession(
        run.backbone, run.rectifiers[scheme], run.substitute,
        run.graph.adjacency,
    )
    server = VaultServer(session, run.graph.features)
    if supervised:
        policy = (RecoveryPolicy() if degraded_mode is None
                  else RecoveryPolicy(degraded_mode=degraded_mode))
        server.attach_supervisor(EnclaveSupervisor(session, policy))
    return server


def labels_bytes(labels) -> bytes:
    return np.asarray(labels, dtype=np.int64).tobytes()


class TestDifferentialLabels:
    """Every serving entry agrees bit for bit with the offline oracle."""

    POLICIES = (1, 4, 16)

    @pytest.mark.parametrize("supervised", [False, True])
    @pytest.mark.parametrize("scheme", ["series", "parallel", "cascaded"])
    def test_entries_match_full_graph_oracle(self, trained_vault, scheme,
                                             supervised):
        run = trained_vault
        workload = zipf_workload(run.graph.num_nodes, 24, alpha=1.3, seed=4)
        blob = seal_graph_update(
            GraphUpdate(neighbours=(0, 1, 2)), run.rectifiers[scheme]
        )
        row = run.graph.features[:3].mean(axis=0)
        servers = {
            name: make_server(run, scheme, supervised)
            for name in ("oracle", "sequential", *self.POLICIES)
        }
        features = run.graph.features
        for phase in ("before", "after"):
            if phase == "after":
                for server in servers.values():
                    new_id = server.add_node(row, [0, 1], blob)
                features = np.vstack([features, row])
                workload = np.append(workload, new_id)
            full, _ = servers["oracle"].session.predict(features)
            expected = labels_bytes(full[workload])
            assert labels_bytes(
                servers["sequential"].serve(workload, batch_size=1)
            ) == expected, phase
            assert labels_bytes(
                servers["sequential"].query_batch(list(workload))
            ) == expected, phase
            for size in self.POLICIES:
                served = servers[size].serve(
                    workload, scheduler=BatchPolicy(max_batch_size=size)
                )
                assert labels_bytes(served) == expected, (phase, size)


BAD_IDS = [
    pytest.param([1.5], id="float"),
    pytest.param(["3"], id="str"),
    pytest.param([True], id="bool"),
    pytest.param([np.float64(2.0)], id="numpy-float"),
    pytest.param([-1], id="negative"),
    pytest.param([10 ** 6], id="out-of-range"),
    pytest.param([0, None], id="none-in-batch"),
    pytest.param([], id="empty"),
]


class TestAdmissionValidation:
    """One admission check guards both entries."""

    @pytest.mark.parametrize("entry", ["query_batch", "submit"])
    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_malformed_ids_rejected_before_any_ecall(self, trained_vault,
                                                     entry, bad):
        server = make_server(trained_vault)
        enclave = server.session.enclave
        before = enclave.ecall_transitions
        if entry == "query_batch":
            with pytest.raises(InvalidQuery):
                server.query_batch(bad, client="evil")
        else:
            with MicroBatchScheduler(server, BatchPolicy()) as scheduler:
                with pytest.raises(InvalidQuery):
                    scheduler.submit(bad, client="evil")
                assert scheduler.client_tally() == {}
            assert scheduler.stats.batches == 0
        assert enclave.ecall_transitions == before
        assert server.stats.queries_served == 0
        assert not server.telemetry.audit.events("query_served")

    @pytest.mark.parametrize("entry", ["query_batch", "submit"])
    def test_numpy_and_python_ints_admitted(self, trained_vault, entry):
        server = make_server(trained_vault)
        ids = [np.int64(3), np.int32(4), 5]
        if entry == "query_batch":
            labels = server.query_batch(ids)
        else:
            with MicroBatchScheduler(server, BatchPolicy()) as scheduler:
                labels = scheduler.submit(ids).result(timeout=30.0)
        assert labels.shape == (3,)

    def test_invalid_tenant_cannot_fail_its_batch_mates(self, trained_vault):
        server = make_server(trained_vault)
        reference = make_server(trained_vault)
        enclave = server.session.enclave
        policy = BatchPolicy(max_batch_size=16, max_wait_ms=50.0)
        with MicroBatchScheduler(server, policy) as scheduler:
            before = enclave.ecall_transitions
            with scheduler.paused():  # all six would share one batch
                valid = [scheduler.submit([node], client=f"tenant_{node}")
                         for node in range(5)]
                with pytest.raises(InvalidQuery):
                    scheduler.submit([10 ** 6], client="evil")
            answers = [int(request.result(timeout=30.0)[0])
                       for request in valid]
        assert answers == [reference.query(node) for node in range(5)]
        assert enclave.ecall_transitions - before == 1
        assert scheduler.stats.batches == 1 and scheduler.stats.queries == 5


class TestBatchSequence:
    """batch_seq is owned by the server: unique, and joined on both paths."""

    def test_unique_across_schedulers_and_sequential_calls(self,
                                                           trained_vault):
        run = trained_vault
        server = make_server(run)
        log = StructuredLogger(capacity=16_384)
        server.attach_logger(log)
        workload = zipf_workload(run.graph.num_nodes, 8, seed=30)
        server.serve(workload, scheduler=BatchPolicy(max_batch_size=4))
        server.serve(workload, batch_size=2)
        server.serve(workload, scheduler=BatchPolicy(max_batch_size=4))
        seqs = [row["batch_seq"] for row in log.records("ecall")]
        assert len(seqs) == len(set(seqs))
        assert len(seqs) >= 4 + 2

    @pytest.mark.parametrize("path", ["sequential", "pipelined"])
    def test_every_admit_joins_one_batch_ecall_and_timeline(
            self, trained_vault, path):
        run = trained_vault
        server = make_server(run)
        log = StructuredLogger(capacity=16_384)
        profiler = PipelineProfiler()
        server.attach_logger(log)
        workload = zipf_workload(run.graph.num_nodes, 24, seed=31)
        if path == "sequential":
            server.attach_profiler(profiler)
            server.serve(workload, batch_size=3)
        else:
            policy = BatchPolicy(max_batch_size=4, max_wait_ms=1.0)
            with MicroBatchScheduler(server, policy,
                                     profiler=profiler) as scheduler:
                scheduler.serve(workload)
        admits = {row["corr"] for row in log.records("admit")}
        batch_of = {}
        for row in log.records("batch"):
            assert row["corr"] not in batch_of
            batch_of[row["corr"]] = row["batch_seq"]
        assert set(batch_of) == admits
        ecall_seqs = [row["batch_seq"] for row in log.records("ecall")]
        assert len(ecall_seqs) == len(set(ecall_seqs))
        timeline_seqs = [t.index for t in profiler.timelines()]
        assert sorted(timeline_seqs) == sorted(ecall_seqs)
        assert set(batch_of.values()) == set(ecall_seqs)
        resolved = {row["corr"] for row in log.records("resolve")}
        assert resolved == admits


class TestConcurrentEntries:
    """Sequential callers and a running scheduler share the execute step."""

    def test_mixed_entries_stay_exact_and_uniquely_numbered(self,
                                                            trained_vault):
        run = trained_vault
        server = make_server(run)
        log = StructuredLogger(capacity=16_384)
        server.attach_logger(log)
        reference = make_server(run)
        workload = zipf_workload(run.graph.num_nodes, 48, seed=34)
        expected = [reference.query(int(node)) for node in workload]
        answers = {}
        errors = []

        def drive(index, entry):
            try:
                for slot in range(index, len(workload), 6):
                    answers[slot] = entry(int(workload[slot]),
                                          client=f"client_{index}")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            policy = BatchPolicy(max_batch_size=4, max_wait_ms=1.0)
            with MicroBatchScheduler(server, policy) as scheduler:
                threads = [
                    threading.Thread(target=drive, args=(
                        index,
                        server.query if index % 2 else scheduler.query,
                    ))
                    for index in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert [answers[slot] for slot in range(len(workload))] == expected
        seqs = [row["batch_seq"] for row in log.records("ecall")]
        assert len(seqs) == len(set(seqs))
        assert len(log.records("resolve")) == len(workload)


class TestEcallDeltaAcrossRestart:
    """The killed attempt and its retry are both charged to their batch."""

    KILL_AT = 26
    QUERIES = 30

    @pytest.mark.parametrize("path", ["sequential", "pipelined"])
    def test_restarted_batch_reads_two_and_ledger_reconciles(
            self, trained_vault, path):
        run = trained_vault
        server = make_server(run, supervised=True)
        session = server.session
        profiler = PipelineProfiler()
        ledger = TenantCostLedger()
        server.attach_tenancy(ledger)
        plan = FaultPlan((FaultSpec(FAULT_KILL, self.KILL_AT),))
        session.attach_fault_injector(FaultInjector(plan))
        workload = zipf_workload(run.graph.num_nodes, self.QUERIES, seed=32)
        before = session.ecall_cost_totals()
        if path == "sequential":
            server.attach_profiler(profiler)
            server.serve(workload, batch_size=1)
        else:
            policy = BatchPolicy(max_batch_size=1)
            with MicroBatchScheduler(server, policy,
                                     profiler=profiler) as scheduler:
                for node in workload:
                    scheduler.query(int(node))
        after = session.ecall_cost_totals()
        assert server.supervisor.restarts_total == 1
        counts = [t.cost["ecall_count"] for t in profiler.timelines()]
        assert len(counts) == self.QUERIES
        assert counts[self.KILL_AT] == 2
        assert sorted(counts) == [1] * (self.QUERIES - 1) + [2]
        assert after["ecall_count"] - before["ecall_count"] == self.QUERIES + 1
        assert ledger.tenant_totals()["ecall_count"] == self.QUERIES + 1
        assert ledger.reconcile(before, after)["ok"]


class TestDegradedAccounting:
    """Backbone-only answers are accounted identically on both entries."""

    def _degraded_server(self, run):
        server = make_server(run, supervised=True,
                             degraded_mode=DEGRADED_BACKBONE_ONLY)
        supervisor = server.supervisor
        supervisor._snapshot = seal(
            {"weights": {}, "adjacency": None}, "some-other-enclave-build"
        )
        server.session.enclave.kill()
        with pytest.raises(RecoveryFailed):
            supervisor.recover()
        assert supervisor.degraded
        log = StructuredLogger(capacity=4096)
        server.attach_logger(log)
        return server, log

    def test_sequential_and_pipelined_account_alike(self, trained_vault):
        run = trained_vault
        workload = zipf_workload(run.graph.num_nodes, 12, seed=33)
        outcomes = {}
        for path in ("sequential", "pipelined"):
            server, log = self._degraded_server(run)
            if path == "sequential":
                labels = server.serve(workload, batch_size=1)
            else:
                labels = server.serve(
                    workload, scheduler=BatchPolicy(max_batch_size=4)
                )
            served = server.telemetry.audit.events("query_served")
            resolves = log.records("resolve")
            outcomes[path] = {
                "labels": labels_bytes(labels),
                "queries_served": server.stats.queries_served,
                "audited": sum(event["batch_count"] for event in served),
                "resolves": len(resolves),
                "degraded_resolves": sum(
                    1 for row in resolves if row.get("degraded")
                ),
                "queries_degraded": server.supervisor.queries_degraded,
            }
        assert outcomes["sequential"] == outcomes["pipelined"]
        assert outcomes["sequential"]["queries_served"] == len(workload)
        assert outcomes["sequential"]["degraded_resolves"] == len(workload)
        assert outcomes["sequential"]["queries_degraded"] == len(workload)
