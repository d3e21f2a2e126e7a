"""Security invariants: the threat-model guarantees GNNVault must uphold.

These are integration tests of the defence itself, phrased as adversarial
checks: what the untrusted world can see must not contain the private
assets, and the enclave boundary must only ever emit labels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import link_stealing_attack
from repro.deploy import SecureInferenceSession
from repro.errors import SecurityViolation
from repro.graph import edge_overlap, gcn_normalize
from repro.tee import LabelOnlyResult, OneWayChannel


@pytest.fixture
def session(trained_vault):
    run = trained_vault
    return SecureInferenceSession(
        backbone=run.backbone,
        rectifier=run.rectifiers["parallel"],
        substitute_adjacency=run.substitute,
        private_adjacency=run.graph.adjacency,
    )


class TestModelIpProtection:
    def test_untrusted_world_holds_only_backbone_weights(self, session, trained_vault):
        run = trained_vault
        view = session.adversary_view()
        exposed = set(view["backbone_state"])
        rectifier_params = set(run.rectifiers["parallel"].state_dict())
        # the name spaces could coincide; compare actual values
        for name in exposed & rectifier_params:
            assert not np.array_equal(
                view["backbone_state"][name],
                run.rectifiers["parallel"].state_dict()[name],
            )

    def test_backbone_is_the_inaccurate_model(self, trained_vault):
        """The accurate model (rectifier) must not be derivable from the
        untrusted world alone: the backbone alone scores worse."""
        run = trained_vault
        assert run.p_bb < run.p_rec["parallel"]


class TestEdgePrivacy:
    def test_substitute_graph_is_not_the_private_graph(self, trained_vault):
        run = trained_vault
        assert edge_overlap(run.substitute, run.graph.adjacency) < 0.6

    def test_exposed_embeddings_leak_no_more_than_features(self, trained_vault):
        """Table IV's qualitative claim at mini scale: attacking what
        GNNVault exposes is no better than attacking raw features."""
        run = trained_vault
        gv = link_stealing_attack(
            run.backbone_embeddings(), run.graph.adjacency, seed=0
        )
        base = link_stealing_attack(
            run.graph.features, run.graph.adjacency, seed=0
        )
        org = link_stealing_attack(
            run.original_embeddings(), run.graph.adjacency, seed=0
        )
        assert org.mean_auc() > gv.mean_auc()
        assert gv.mean_auc() <= base.mean_auc() + 0.1

    def test_private_adjacency_never_in_untrusted_view(self, session, trained_vault):
        view = session.adversary_view()
        observable = view["substitute_adjacency"]
        private = trained_vault.graph.adjacency
        assert observable.edge_set() != private.edge_set()


class TestOneWayFlow:
    def test_enclave_outputs_only_labels(self, session, trained_vault):
        labels, _ = session.predict(trained_vault.graph.features)
        assert labels.dtype.kind == "i"

    def test_channel_rejects_embedding_export(self):
        channel = OneWayChannel()
        with pytest.raises(SecurityViolation):
            channel.publish(np.random.default_rng(0).random((10, 8)))

    def test_channel_rejects_float_labels(self):
        channel = OneWayChannel()
        with pytest.raises(SecurityViolation):
            channel.publish(LabelOnlyResult(np.array([0.0, 1.0])))

    def test_rectifier_gradients_never_reach_backbone(self, trained_vault):
        """Training-time one-way flow (partition-before-training)."""
        from repro import nn

        run = trained_vault
        backbone = run.backbone
        backbone.unfreeze()
        backbone.zero_grad()
        outs = backbone.forward_with_intermediates(
            nn.Tensor(run.graph.features), gcn_normalize(run.substitute)
        )
        rect = run.rectifiers["parallel"]
        rect(outs, run.graph.normalized_adjacency()).sum().backward()
        assert all(p.grad is None for p in backbone.parameters())
        backbone.freeze()

    def test_transfer_log_is_the_only_observable_flow(self, session, trained_vault):
        """Everything that crossed into the enclave is in the audit log and
        consists of backbone embeddings only (no raw private data)."""
        run = trained_vault
        # fresh channel per predict; inspect through a manual run
        channel = OneWayChannel()
        embeddings = run.backbone_embeddings()
        for layer in run.rectifiers["parallel"].consumed_layers():
            channel.push(embeddings[layer], description=f"layer{layer}")
        descriptions = [r.description for r in channel.transfer_log]
        assert all(d.startswith("layer") for d in descriptions)


class TestTelemetryRedaction:
    """Enclave-originated telemetry is aggregate-only: no node ids, no
    edges, no embedding payloads may cross the boundary via the exporters."""

    @pytest.fixture
    def served(self, trained_vault):
        from repro.deploy import VaultServer, zipf_workload
        from repro.obs import Telemetry

        run = trained_vault
        telemetry = Telemetry(max_traces=64)
        session = SecureInferenceSession(
            backbone=run.backbone,
            rectifier=run.rectifiers["parallel"],
            substitute_adjacency=run.substitute,
            private_adjacency=run.graph.adjacency,
            telemetry=telemetry,
        )
        server = VaultServer(session, run.graph.features)
        workload = zipf_workload(run.graph.num_nodes, 25, alpha=1.3, seed=5)
        server.serve(workload, batch_size=1)
        return telemetry, run

    @staticmethod
    def _enclave_spans(span):
        if span.origin == "enclave":
            yield span
        for child in span.children:
            yield from TestTelemetryRedaction._enclave_spans(child)

    def test_enclave_spans_carry_only_scalar_aggregates(self, served):
        import numbers

        from repro.obs.vocabulary import forbidden_words_in

        telemetry, _ = served
        spans = [
            s for root in telemetry.tracer.roots()
            for s in self._enclave_spans(root)
        ]
        assert spans, "workload produced no enclave-originated spans"
        for span in spans:
            for key, value in span.attributes.items():
                assert not forbidden_words_in(key), key
                assert isinstance(value, numbers.Number), (key, value)

    def test_trace_export_contains_no_embedding_payloads(self, served):
        import json

        telemetry, run = served
        enclave_dump = json.dumps([
            span.to_dict()
            for root in telemetry.tracer.roots()
            for span in self._enclave_spans(root)
        ])
        # exact reprs of private embedding entries must never appear
        sample = run.backbone_embeddings()[0].ravel()[:50]
        for value in sample:
            if abs(value) > 1e-9:
                assert repr(float(value)) not in enclave_dump

    def test_prometheus_enclave_series_have_no_id_labels(self, served):
        import re

        from repro.obs import parse_prometheus

        telemetry, _ = served
        parsed = parse_prometheus(telemetry.render_prometheus())
        enclave_names = [n for n in parsed if n.startswith("enclave_")]
        assert enclave_names, "workload produced no enclave metrics"
        for name in enclave_names:
            for label_chunk in parsed[name]:
                # histogram bucket bounds (le=...) are structural, not data
                chunk = re.sub(r'le="[^"]*"', "", label_chunk)
                # enum words only: a digit in a label value is an id leak
                assert not re.search(r"\d", chunk), (name, label_chunk)
        # contrast: the *untrusted* side legitimately tracks per-node
        # counts (it sees the queries anyway) — redaction is per-origin
        assert any(
            '{node="' in chunk for chunk in parsed["vault_node_queries_total"]
        )

    def test_gate_blocks_smuggling_attempts(self, served):
        from repro.obs import TelemetryLeak

        telemetry, run = served
        gate = telemetry.enclave_gate()
        with pytest.raises(TelemetryLeak):
            gate.inc("enclave_node_ids_total")
        with pytest.raises(TelemetryLeak):
            gate.inc("enclave_ecalls_total", target=str(5))
        with gate.span("ecall") as span:
            with pytest.raises(TelemetryLeak):
                span.set_attribute("touched_rows", [1, 2, 3])
            with pytest.raises(TelemetryLeak):
                span.set_attribute(
                    "payload_bytes", run.graph.features[:2]
                )


class TestLabelOnlyRationale:
    def test_logits_leak_more_than_labels(self, trained_vault):
        """Why the paper keeps logits inside: attacking rectifier logits
        succeeds better than attacking hard labels."""
        run = trained_vault
        rect = run.rectifiers["parallel"]
        outs = rect.forward_with_intermediates(
            run.backbone_embeddings(), run.graph.normalized_adjacency()
        )
        logits = outs[-1].data
        labels = logits.argmax(axis=1)
        one_hot = np.eye(logits.shape[1])[labels]
        logit_attack = link_stealing_attack(logits, run.graph.adjacency, seed=0)
        label_attack = link_stealing_attack(one_hot, run.graph.adjacency, seed=0)
        assert logit_attack.mean_auc() >= label_attack.mean_auc() - 0.02


class TestAuditTrustBoundary:
    """The audit log spans both worlds, but enclave events have exactly one
    door: the telemetry gate, which schema-checks every kind and field."""

    @pytest.fixture
    def deployment(self, trained_vault):
        from repro.obs import Telemetry

        run = trained_vault
        telemetry = Telemetry()
        session = SecureInferenceSession(
            backbone=run.backbone,
            rectifier=run.rectifiers["parallel"],
            substitute_adjacency=run.substitute,
            private_adjacency=run.graph.adjacency,
            telemetry=telemetry,
        )
        return telemetry, session

    def test_provisioning_ceremony_is_audited_with_enclave_origin(
        self, deployment
    ):
        telemetry, _ = deployment
        enclave_events = telemetry.audit.events(origin="enclave")
        kinds = [event.kind for event in enclave_events]
        assert "attestation" in kinds
        assert kinds.count("provision") == 2  # weights + private graph
        stages = {e.get("stage") for e in enclave_events if e.kind == "provision"}
        assert stages == {"weights", "private"}

    def test_untrusted_append_refuses_enclave_kinds(self, deployment):
        telemetry, _ = deployment
        with pytest.raises(SecurityViolation, match="EnclaveTelemetryGate"):
            telemetry.audit.append("provision", stage="weights")

    def test_gate_refuses_untrusted_only_kinds(self, deployment):
        from repro.obs import TelemetryLeak

        telemetry, _ = deployment
        gate = telemetry.enclave_gate()
        # the enclave must not be able to forge host-side narrative events
        for kind in ("query_served", "model_update", "security_alert"):
            with pytest.raises(TelemetryLeak):
                gate.audit(kind)

    def test_gate_blocks_audit_field_smuggling(self, deployment):
        from repro.obs import TelemetryLeak

        telemetry, _ = deployment
        gate = telemetry.enclave_gate()
        # per-entity keys are vocabulary-rejected
        with pytest.raises(TelemetryLeak):
            gate.audit("graph_update", node_count=3)
        with pytest.raises(TelemetryLeak):
            gate.audit("graph_update", touched_edges=7)
        # free-form strings cannot ride on enum keys
        with pytest.raises(TelemetryLeak):
            gate.audit("attestation", result="node 17 and 21 linked")
        # non-enum keys cannot carry strings at all
        with pytest.raises(TelemetryLeak):
            gate.audit("cache_invalidation", invalidated_entries="payload")
        # arrays are not scalars
        with pytest.raises(TelemetryLeak):
            gate.audit("graph_update", applied_count=np.arange(4))

    def test_every_enclave_event_satisfies_the_gate_schema(self, trained_vault):
        """End-to-end: serve traffic + apply an online update, then check
        every enclave-origin audit event against the redaction schema."""
        from repro.deploy import VaultServer, seal_graph_update, zipf_workload
        from repro.deploy.updates import GraphUpdate
        from repro.obs import Telemetry
        from repro.obs.redaction import (
            AUDIT_ENUM_KEYS,
            _LABEL_VALUE_RE,
            check_aggregate_key,
            check_scalar,
        )
        from repro.obs.audit import ENCLAVE_AUDIT_KINDS

        run = trained_vault
        telemetry = Telemetry()
        session = SecureInferenceSession(
            backbone=run.backbone,
            rectifier=run.rectifiers["parallel"],
            substitute_adjacency=run.substitute,
            private_adjacency=run.graph.adjacency,
            telemetry=telemetry,
        )
        server = VaultServer(session, run.graph.features)
        server.serve(zipf_workload(run.graph.num_nodes, 20, seed=1))
        new_id = run.graph.num_nodes
        update = GraphUpdate(neighbours=(0, 1))
        server.add_node(
            run.graph.features[:1],
            substitute_neighbours=(2, 3),
            sealed_update=seal_graph_update(update, run.rectifiers["parallel"]),
        )
        assert session.feature_version == 1
        server.query(new_id)

        enclave_events = telemetry.audit.events(origin="enclave")
        assert enclave_events, "deployment produced no enclave audit events"
        kinds = {event.kind for event in enclave_events}
        assert "graph_update" in kinds  # the online update crossed the gate
        for event in enclave_events:
            assert event.kind in ENCLAVE_AUDIT_KINDS
            for key, value in event.fields:
                check_aggregate_key(key, allowed=AUDIT_ENUM_KEYS)
                if isinstance(value, str):
                    assert key in AUDIT_ENUM_KEYS
                    assert _LABEL_VALUE_RE.match(value), (key, value)
                else:
                    check_scalar(key, value)

    def test_attestation_failures_are_audited(self, trained_vault):
        from repro.obs import AuditLog
        from repro.tee.attestation import AttestationError, verify_quote
        from repro.tee.enclave import RectifierEnclave

        run = trained_vault
        enclave = RectifierEnclave(run.rectifiers["parallel"])
        quote = enclave.attest(challenge="c")
        audit = AuditLog()
        with pytest.raises(AttestationError):
            verify_quote(quote, "wrong-measurement", "c", audit=audit)
        event = audit.events(kind="attestation")[0]
        assert event.origin == "untrusted"
        assert event["result"] == "measurement_mismatch"
        assert event["verified"] is False


class TestPipelinedServing:
    """Micro-batching must not widen the enclave boundary.

    Coalescing concurrent queries into one ECALL changes the *schedule*
    of the one-way channel, not its direction or contents: embeddings
    still only flow in, labels still only flow out, and every world
    transition stays countable from the outside.
    """

    @pytest.fixture
    def pipelined(self, trained_vault):
        import threading

        from repro.deploy import (
            BatchPolicy, MicroBatchScheduler, VaultServer, zipf_workload,
        )
        from repro.obs import Telemetry

        run = trained_vault
        telemetry = Telemetry(max_traces=64)
        session = SecureInferenceSession(
            backbone=run.backbone,
            rectifier=run.rectifiers["parallel"],
            substitute_adjacency=run.substitute,
            private_adjacency=run.graph.adjacency,
            telemetry=telemetry,
        )
        server = VaultServer(session, run.graph.features)
        workload = zipf_workload(run.graph.num_nodes, 48, alpha=1.3, seed=5)
        with MicroBatchScheduler(server, BatchPolicy(max_batch_size=8)) as sched:
            threads = [
                threading.Thread(
                    target=lambda shard=workload[i::4], c=f"client_{i}": [
                        sched.query(int(n), client=c) for n in shard
                    ]
                )
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            batches = sched.stats.batches
        return telemetry, session, batches

    def test_one_ecall_transition_per_microbatch(self, pipelined):
        """The amortisation claim is externally auditable: the enclave's
        lifetime transition counter equals the number of micro-batches."""
        _, session, batches = pipelined
        assert batches > 0
        assert session.enclave.ecall_transitions == batches

    def test_coalesced_payload_is_one_logged_transfer(self, trained_vault):
        run = trained_vault
        embeddings = run.backbone_embeddings()
        channel = OneWayChannel()
        block = [embeddings[0], embeddings[1]]
        channel.push_coalesced(block, description="backbone_microbatch")
        assert len(channel.transfer_log) == 1
        record = channel.transfer_log[0]
        assert record.description == "backbone_microbatch"
        assert record.num_bytes == sum(e.nbytes for e in block)
        with pytest.raises(ValueError):
            channel.push_coalesced([], description="empty")

    def test_microbatch_ecall_rejects_empty_requests(self, trained_vault):
        run = trained_vault
        session = SecureInferenceSession(
            backbone=run.backbone,
            rectifier=run.rectifiers["parallel"],
            substitute_adjacency=run.substitute,
            private_adjacency=run.graph.adjacency,
        )
        embeddings = run.backbone_embeddings()
        with pytest.raises(SecurityViolation):
            session.predict_microbatch_precomputed(embeddings, [])
        with pytest.raises(SecurityViolation):
            session.predict_microbatch_precomputed(embeddings, [[3], []])

    def test_microbatch_egress_is_labels_only(self, trained_vault):
        run = trained_vault
        session = SecureInferenceSession(
            backbone=run.backbone,
            rectifier=run.rectifiers["parallel"],
            substitute_adjacency=run.substitute,
            private_adjacency=run.graph.adjacency,
        )
        embeddings = run.backbone_embeddings()
        labels, profile = session.predict_microbatch_precomputed(
            embeddings, [[0, 1], [1], [5, 0]]
        )
        assert labels.dtype == np.int64
        assert labels.shape == (5,)  # concatenated per-request, dupes kept
        assert profile.payload_bytes > 0

    def test_pipelined_enclave_spans_stay_aggregate_only(self, pipelined):
        import numbers

        from repro.obs.vocabulary import forbidden_words_in

        telemetry, _, _ = pipelined
        spans = [
            s for root in telemetry.tracer.roots()
            for s in TestTelemetryRedaction._enclave_spans(root)
        ]
        assert spans, "pipelined workload produced no enclave spans"
        for span in spans:
            for key, value in span.attributes.items():
                assert not forbidden_words_in(key), key
                assert isinstance(value, numbers.Number), (key, value)


class TestProfilingBoundary:
    """Continuous profiling must not widen the enclave boundary.

    Per-batch cost attribution joins the enclave's transition counter
    with the cost-model profile — both already gate-approved aggregates.
    The timeline's *other* fields (batch composition, queue timestamps)
    are untrusted-side observations the scheduler makes about its own
    behaviour, so the closed schema applies to the enclave-origin
    ``cost`` records: aggregate-suffixed keys, scalar values, none of
    the per-entity vocabulary.
    """

    @pytest.fixture
    def profiled(self, trained_vault):
        import threading

        from repro.deploy import (
            BatchPolicy, MicroBatchScheduler, VaultServer, zipf_workload,
        )
        from repro.obs import PipelineProfiler

        run = trained_vault
        session = SecureInferenceSession(
            backbone=run.backbone,
            rectifier=run.rectifiers["series"],
            substitute_adjacency=run.substitute,
            private_adjacency=run.graph.adjacency,
        )
        server = VaultServer(session, run.graph.features)
        workload = zipf_workload(run.graph.num_nodes, 48, alpha=1.3, seed=9)
        profiler = PipelineProfiler()
        policy = BatchPolicy(max_batch_size=8, max_wait_ms=2.0)
        server.attach_profiler(profiler)
        with MicroBatchScheduler(server, policy) as sched:
            threads = [
                threading.Thread(
                    target=lambda shard=workload[i::4], c=f"client_{i}": [
                        sched.query(int(n), client=c) for n in shard
                    ]
                )
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return profiler

    def test_every_cost_record_satisfies_the_gate_schema(self, profiled):
        from repro.obs.redaction import check_aggregate_key, check_scalar

        timelines = profiled.timelines()
        assert timelines, "profiled run recorded no batches"
        for timeline in timelines:
            assert timeline.cost, "batch carries no cost attribution"
            for key, value in timeline.cost.items():
                check_aggregate_key(key)  # raises TelemetryLeak on leak
                check_scalar(key, value)

    @pytest.mark.parametrize("poisoned", [
        {"node_count": 3},                      # per-entity vocabulary
        {"queried_ids_total": 7},               # id smuggling
        {"latency": 0.5},                       # no aggregate suffix
        {"payload_bytes": [1, 2, 3]},           # non-scalar payload
        {"transfer_seconds": "0,1,4,9"},        # string side channel
    ])
    def test_poisoned_cost_records_are_rejected(self, poisoned):
        from repro.obs.profiling import validate_cost_record
        from repro.obs.redaction import TelemetryLeak

        with pytest.raises(TelemetryLeak):
            validate_cost_record(poisoned)

    def test_timeline_export_cost_sections_stay_clean(self, profiled):
        import json

        from repro.obs.profiling import timelines_to_json
        from repro.obs.vocabulary import AGGREGATE_SUFFIXES, forbidden_words_in

        doc = json.loads(timelines_to_json(profiled.timelines()))
        cost_dicts = [b["cost"] for b in doc["batches"]]
        cost_dicts.append(doc["summary"]["cost_totals"])
        assert all(cost_dicts)
        for cost in cost_dicts:
            for key, value in cost.items():
                assert not forbidden_words_in(key), key
                assert key.endswith(AGGREGATE_SUFFIXES), key
                assert isinstance(value, (int, float)), (key, value)


class TestResilienceBoundary:
    """Crashes, retries, and recovery must not widen the egress contract.

    The fault-injection harness simulates availability events only; every
    path it exercises — a faulted ECALL, a retried batch, a restarted
    enclave, a degraded backbone-only answer — has to leave the label-only
    one-way channel rules exactly as strict as the fault-free path.
    """

    def _faulted_session(self, trained_vault, *specs):
        from repro.tee import FaultInjector, FaultPlan

        run = trained_vault
        session = SecureInferenceSession(
            backbone=run.backbone,
            rectifier=run.rectifiers["series"],
            substitute_adjacency=run.substitute,
            private_adjacency=run.graph.adjacency,
        )
        session.attach_fault_injector(FaultInjector(FaultPlan(tuple(specs))))
        return session

    @pytest.mark.parametrize("kind", ["memory", "kill", "corrupt"])
    def test_faulted_ecall_publishes_nothing(self, trained_vault, kind):
        """An ECALL that dies mid-flight must leave the outbox empty: a
        partial result crossing the channel would be a leak, so collect()
        on the untrusted side raises instead of returning stale data."""
        from repro.tee import FaultInjector, FaultPlan
        from repro.tee.faults import FaultSpec

        run = trained_vault
        session = self._faulted_session(trained_vault, FaultSpec(kind, 0))
        enclave = session.enclave
        channel = session._fresh_channel()
        embeddings, _ = session.embed(run.graph.features)
        for block in embeddings:
            channel.push(block)
        with pytest.raises(Exception):
            enclave.ecall_infer(channel)
        with pytest.raises(SecurityViolation):
            channel.collect()

    def test_restarted_enclave_keeps_label_only_egress(self, trained_vault):
        """A recovered enclave re-earns trust via attestation and then obeys
        the same publish() type-check as the original instance."""
        run = trained_vault
        session = SecureInferenceSession(
            backbone=run.backbone,
            rectifier=run.rectifiers["series"],
            substitute_adjacency=run.substitute,
            private_adjacency=run.graph.adjacency,
        )
        blob = session.enclave.seal_snapshot()
        session.enclave.kill()
        session.rebuild_enclave(blob)
        channel = OneWayChannel()
        with pytest.raises(SecurityViolation):
            channel.publish(np.zeros(3))  # floats still cannot leave
        labels, _ = session.predict_nodes(run.graph.features, [5])
        assert np.issubdtype(labels.dtype, np.integer)

    def test_retried_batch_crosses_as_ordinary_push(self, trained_vault):
        """Retry after a memory fault re-stages through a fresh channel —
        the adversary sees another logged push, never a widened interface."""
        from repro.deploy import EnclaveSupervisor, VaultServer
        from repro.tee.faults import FaultSpec

        run = trained_vault
        session = self._faulted_session(trained_vault, FaultSpec("memory", 0))
        server = VaultServer(session, run.graph.features)
        server.attach_supervisor(EnclaveSupervisor(session))
        labels = server.query_batch([8], client="retry")
        assert np.issubdtype(labels.dtype, np.integer)

    def test_degraded_answers_never_touch_the_channel(self, trained_vault):
        """Backbone-only fallback is computed wholly in the untrusted world:
        the dead enclave's transition counter must not move, and the answer
        is still integer labels (no logits escape via the fallback)."""
        run = trained_vault
        session = SecureInferenceSession(
            backbone=run.backbone,
            rectifier=run.rectifiers["series"],
            substitute_adjacency=run.substitute,
            private_adjacency=run.graph.adjacency,
        )
        session.enclave.kill()
        transitions = session.enclave.ecall_transitions
        embeddings, _ = session.embed(run.graph.features)
        labels = session.backbone_labels(embeddings, [0, 7, 11])
        assert session.enclave.ecall_transitions == transitions
        assert np.issubdtype(labels.dtype, np.integer)

    def test_injector_cannot_widen_egress(self, trained_vault):
        """Corruption happens on the *untrusted* staging side; with an
        injector attached the enclave-side publish gate is unchanged."""
        from repro.tee import FaultInjector, FaultPlan

        session = self._faulted_session(trained_vault)  # empty plan
        channel = session._fresh_channel()
        with pytest.raises(SecurityViolation):
            channel.publish((np.zeros(2), np.ones(2)))
        with pytest.raises(SecurityViolation):
            LabelOnlyResult(np.zeros(3))  # float labels rejected at the type


class TestTenancyBoundary:
    """Tenant attribution must not widen the enclave egress contract.

    Tenant-labelled series cross the gate, so the label value grammar
    applies: only the hashed lowercase token (or the overflow spelling)
    is admissible — a raw client identifier, which typically carries
    digits or underscores, is rejected at the gate, and the ``tenant``
    label key itself had to be allow-listed.
    """

    def test_gate_admits_hashed_tenant_label(self):
        from repro.obs import Telemetry, hash_tenant

        telemetry = Telemetry()
        gate = telemetry.enclave_gate()
        gate.inc(
            "enclave_tenant_compute_seconds_total", 0.5,
            tenant=hash_tenant("client_7"),
        )
        counter = telemetry.registry.get(
            "enclave_tenant_compute_seconds_total"
        )
        assert counter.value(tenant=hash_tenant("client_7")) == 0.5

    @pytest.mark.parametrize("raw", [
        "client_7",        # underscore + digit
        "alice42",         # digit
        "Bob",             # uppercase
        "node-17",         # id-shaped
    ])
    def test_gate_rejects_raw_client_labels(self, raw):
        from repro.errors import SecurityViolation
        from repro.obs import Telemetry

        gate = Telemetry().enclave_gate()
        with pytest.raises(SecurityViolation):
            gate.inc("enclave_tenant_compute_seconds_total", 1.0,
                     tenant=raw)

    def test_gate_rejects_unknown_label_keys(self):
        from repro.errors import SecurityViolation
        from repro.obs import Telemetry, hash_tenant

        gate = Telemetry().enclave_gate()
        with pytest.raises(SecurityViolation):
            gate.inc("enclave_tenant_compute_seconds_total", 1.0,
                     client=hash_tenant("a"))

    def test_ledger_gate_emissions_survive_prometheus_round_trip(self):
        from repro.obs import (
            Telemetry, TenantCostLedger, parse_prometheus_samples,
            render_prometheus,
        )

        telemetry = Telemetry()
        ledger = TenantCostLedger(gate=telemetry.enclave_gate())
        ledger.record_batch(
            [("alice", [1, 2]), ("bob", [2, 3])],
            {"ecall_count": 1.0, "transfer_seconds": 1e-3,
             "compute_seconds": 4e-3, "paging_seconds": 5e-4,
             "paging_pages": 2.0, "payload_bytes": 4096.0},
        )
        samples = parse_prometheus_samples(
            render_prometheus(telemetry.registry)
        )
        tenant_series = samples["enclave_tenant_compute_seconds_total"]
        assert len(tenant_series) == 2
        for label_set in tenant_series:
            labels = dict(label_set)
            assert set(labels) == {"tenant"}
            assert labels["tenant"].isalpha()
            assert labels["tenant"].islower()

    def test_structured_log_rejects_forbidden_field_vocabulary(self):
        # the closed log schema cannot be extended at emit time with a
        # per-entity field, even a numeric one
        from repro.obs import LogSchemaViolation, StructuredLogger, hash_tenant

        log = StructuredLogger()
        with pytest.raises(LogSchemaViolation):
            log.emit("ecall", batch_seq=1, queries_count=1,
                     unique_count=1, seconds=0.1, node_count=5)
