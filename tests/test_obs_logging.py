"""Correlated structured logging: closed schema, redaction, volume control.

The join property is the point of the layer, so the integration test
pins it end-to-end: under a concurrent multi-tenant workload through the
pipelined scheduler, every query's correlation id appears on exactly one
``batch`` line, that line's ``batch_seq`` joins exactly one profiler
timeline, and every admitted query resolves. The schema tests pin the
closed vocabulary and the redaction grammar (a raw client id cannot be
emitted, structurally).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.deploy import (
    BatchPolicy,
    MicroBatchScheduler,
    SecureInferenceSession,
    VaultServer,
    zipf_workload,
)
from repro.obs import (
    LOG_SCHEMA,
    LogSchemaViolation,
    PipelineProfiler,
    StructuredLogger,
    TenantCostLedger,
    hash_tenant,
    validate_log_jsonl,
    validate_log_record,
)
from repro.obs.vocabulary import forbidden_words_in

TOKEN = hash_tenant("alice")


class TestSchema:
    def test_all_events_round_trip(self):
        log = StructuredLogger()
        corr = log.mint()
        assert log.emit("admit", corr=corr, tenant=TOKEN, size_count=3)
        assert log.emit("batch", corr=corr, tenant=TOKEN, batch_seq=1,
                        size_count=3)
        assert log.emit("ecall", batch_seq=1, queries_count=2,
                        unique_count=3, seconds=0.004, pages_count=2,
                        payload_bytes=4096)
        assert log.emit("retry", batch_seq=1, attempt_count=1,
                        error="EnclaveCrashed")
        assert log.emit("resolve", corr=corr, tenant=TOKEN, seconds=0.01)
        assert log.emit("drop", corr=corr, tenant=TOKEN,
                        error="QueryBudgetExceeded")
        assert validate_log_jsonl(log.to_jsonl()) == 6

    def test_unknown_event_rejected(self):
        with pytest.raises(LogSchemaViolation):
            StructuredLogger().emit("debug", corr="q00000001")

    def test_unknown_field_rejected(self):
        log = StructuredLogger()
        with pytest.raises(LogSchemaViolation, match="does not admit"):
            log.emit("admit", corr=log.mint(), tenant=TOKEN,
                     size_count=1, extra_count=2)

    def test_missing_required_field_rejected(self):
        with pytest.raises(LogSchemaViolation, match="missing required"):
            StructuredLogger().emit("admit", tenant=TOKEN, size_count=1)

    def test_raw_client_id_cannot_be_emitted(self):
        log = StructuredLogger()
        with pytest.raises(LogSchemaViolation, match="hashed"):
            log.emit("admit", corr=log.mint(), tenant="client_7",
                     size_count=1)

    def test_free_form_string_rejected_in_scalar_field(self):
        log = StructuredLogger()
        with pytest.raises(LogSchemaViolation, match="scalar"):
            log.emit("admit", corr=log.mint(), tenant=TOKEN,
                     size_count="three")

    def test_unminted_corr_rejected(self):
        with pytest.raises(LogSchemaViolation, match="correlation"):
            StructuredLogger().emit(
                "resolve", corr="node-17-posterior", tenant=TOKEN,
                seconds=0.1,
            )

    def test_error_must_be_identifier_like(self):
        log = StructuredLogger()
        with pytest.raises(LogSchemaViolation):
            log.emit("drop", corr=log.mint(), tenant=TOKEN,
                     error="leaked embedding row: [0.1, 0.2]")

    def test_schema_keys_obey_redaction_vocabulary(self):
        for event, spec in LOG_SCHEMA.items():
            for key in (event, *spec["required"], *spec["optional"]):
                assert not forbidden_words_in(key), key

    def test_validate_jsonl_names_offending_line(self):
        good = json.dumps({"event": "ecall", "batch_seq": 1,
                           "queries_count": 1, "unique_count": 1,
                           "seconds": 0.1})
        bad = json.dumps({"event": "ecall", "batch_seq": 1})
        with pytest.raises(LogSchemaViolation, match="line 2"):
            validate_log_jsonl(good + "\n" + bad + "\n")

    def test_validate_record_rejects_non_dict_event(self):
        with pytest.raises(LogSchemaViolation):
            validate_log_record({"event": 7})


class TestVolumeControls:
    def test_mint_is_unique_and_well_formed(self):
        log = StructuredLogger()
        ids = [log.mint() for _ in range(100)]
        assert len(set(ids)) == 100
        assert all(i.startswith("q") and len(i) == 11 for i in ids)

    def test_deterministic_sampling_keeps_fraction_per_tenant(self):
        log = StructuredLogger(sample_rate=0.25)
        corr = log.mint()
        kept = sum(
            log.emit("admit", corr=corr, tenant=TOKEN, size_count=1)
            for _ in range(400)
        )
        assert kept == 100
        assert log.sampled_out == 300

    def test_rate_limit_is_per_tenant(self):
        log = StructuredLogger(rate_limit=5, rate_window=10_000)
        corr = log.mint()
        other = hash_tenant("bob")
        for _ in range(20):
            log.emit("admit", corr=corr, tenant=TOKEN, size_count=1)
        assert log.emit("admit", corr=corr, tenant=other, size_count=1)
        assert log.rate_limited == 15
        assert len(log.records()) == 6

    def test_rate_window_resets(self):
        log = StructuredLogger(rate_limit=2, rate_window=4)
        corr = log.mint()
        results = [
            log.emit("admit", corr=corr, tenant=TOKEN, size_count=1)
            for _ in range(8)
        ]
        # 2 admitted, 2 limited per 4-attempt window
        assert results == [True, True, False, False] * 2

    def test_batch_scoped_events_bypass_tenant_controls(self):
        log = StructuredLogger(rate_limit=1, rate_window=10)
        for seq in range(50):
            assert log.emit("ecall", batch_seq=seq, queries_count=1,
                            unique_count=1, seconds=0.001)
        assert log.rate_limited == 0

    def test_bounded_buffer_counts_drops(self):
        log = StructuredLogger(capacity=10)
        for seq in range(25):
            log.emit("ecall", batch_seq=seq, queries_count=1,
                     unique_count=1, seconds=0.001)
        assert len(log) == 10
        assert log.dropped == 15

    def test_write_round_trips(self, tmp_path):
        log = StructuredLogger()
        corr = log.mint()
        log.emit("admit", corr=corr, tenant=TOKEN, size_count=1)
        path = log.write(tmp_path / "log.jsonl")
        assert validate_log_jsonl(path.read_text()) == 1
        record = json.loads(path.read_text())
        assert record["corr"] == corr
        assert record["seq"] == 1


class TestCorrelationPropagation:
    """Satellite: corr ids join queries to batches to timelines."""

    CLIENTS = 4
    NUM_QUERIES = 64

    @pytest.fixture
    def server(self, trained_vault):
        run = trained_vault
        session = SecureInferenceSession(
            run.backbone, run.rectifiers["series"], run.substitute,
            run.graph.adjacency,
        )
        return VaultServer(session, run.graph.features)

    def test_every_query_joins_exactly_one_batch_timeline(
            self, trained_vault, server):
        run = trained_vault
        log = StructuredLogger(capacity=16_384)
        ledger = TenantCostLedger()
        profiler = PipelineProfiler()
        server.attach_logger(log)
        server.attach_tenancy(ledger)
        workload = zipf_workload(run.graph.num_nodes, self.NUM_QUERIES,
                                 seed=21)
        policy = BatchPolicy(max_batch_size=8, max_wait_ms=2.0)
        server.attach_profiler(profiler)
        with MicroBatchScheduler(server, policy) as scheduler:
            def drive(index):
                for node in workload[index::self.CLIENTS]:
                    scheduler.query(int(node), client=f"client_{index}")

            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(self.CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        # the emitted stream is schema-clean end to end
        assert validate_log_jsonl(log.to_jsonl()) == len(log)

        admits = log.records("admit")
        batches = log.records("batch")
        resolves = log.records("resolve")
        ecalls = log.records("ecall")
        assert len(admits) == self.NUM_QUERIES

        # every admitted corr joins exactly one micro-batch ...
        batch_of = {}
        for row in batches:
            assert row["corr"] not in batch_of
            batch_of[row["corr"]] = row["batch_seq"]
        assert set(batch_of) == {row["corr"] for row in admits}

        # ... every batch line's seq names exactly one ecall line and
        # one profiler timeline of the same batch ...
        ecall_seqs = [row["batch_seq"] for row in ecalls]
        assert len(ecall_seqs) == len(set(ecall_seqs))
        timeline_by_seq = {t.index: t for t in profiler.timelines()}
        assert set(ecall_seqs) == set(timeline_by_seq)
        for corr, seq in batch_of.items():
            assert seq in timeline_by_seq

        # ... and every admitted query resolved, under its own tenant.
        resolved = {row["corr"]: row for row in resolves}
        assert set(resolved) == set(batch_of)
        tenant_of = {row["corr"]: row["tenant"] for row in admits}
        for corr, row in resolved.items():
            assert row["tenant"] == tenant_of[corr]

        # batch sizes reconcile: per-batch query counts from the log
        # match the ecall lines' own tallies.
        per_batch = {}
        for corr, seq in batch_of.items():
            per_batch[seq] = per_batch.get(seq, 0) + 1
        for row in ecalls:
            assert per_batch[row["batch_seq"]] == row["queries_count"]

        # no raw client id anywhere in the stream
        text = log.to_jsonl()
        assert "client_0" not in text
        assert hash_tenant("client_0") in text

    def test_retry_lines_carry_batch_seq(self, trained_vault, server):
        from repro.deploy import EnclaveSupervisor, RecoveryPolicy
        from repro.tee import FaultInjector, FaultPlan

        run = trained_vault
        log = StructuredLogger(capacity=16_384)
        server.attach_logger(log)
        supervisor = EnclaveSupervisor(
            server.session, RecoveryPolicy(), telemetry=server.telemetry
        )
        server.attach_supervisor(supervisor)
        plan = FaultPlan.seeded(3, 64, memory_faults=4)
        server.session.attach_fault_injector(FaultInjector(plan))
        workload = zipf_workload(run.graph.num_nodes, 32, seed=23)
        policy = BatchPolicy(max_batch_size=4, max_wait_ms=1.0)
        with MicroBatchScheduler(server, policy) as scheduler:
            for node in workload:
                scheduler.query(int(node), client="tenant_a")
        retries = log.records("retry")
        assert retries, "fault plan injected no retryable faults"
        ecall_seqs = {row["batch_seq"] for row in log.records("ecall")}
        for row in retries:
            assert row["batch_seq"] in ecall_seqs
            assert row["error"]
        assert validate_log_jsonl(log.to_jsonl()) == len(log)

    def test_sequential_path_logs_admit_and_resolve(self, trained_vault,
                                                    server):
        run = trained_vault
        log = StructuredLogger()
        server.attach_logger(log)
        server.serve(zipf_workload(run.graph.num_nodes, 12, seed=25),
                     batch_size=4)
        admits = log.records("admit")
        resolves = log.records("resolve")
        assert len(admits) == 3  # one admission per sequential batch
        assert {row["corr"] for row in resolves} == {
            row["corr"] for row in admits
        }
        server.detach_logger()
        server.serve(zipf_workload(run.graph.num_nodes, 4, seed=26),
                     batch_size=4)
        assert len(log.records("admit")) == 3  # detached: no new lines
