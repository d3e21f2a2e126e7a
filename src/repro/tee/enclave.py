"""The simulated SGX enclave hosting a GNN rectifier.

:class:`RectifierEnclave` reproduces the trusted half of GNNVault's
deployment (paper Fig. 2, right): the rectifier weights and the real
adjacency (COO + pre-computed degrees) live only inside the enclave,
provisioned as sealed blobs after attestation; inference enters through a
one-way channel and exits as label-only predictions.

The enclave does real numeric work (numpy forward pass of the rectifier)
while *accounting* for SGX costs — ECALL transitions, buffer marshalling,
in-enclave slowdown, EPC paging — through :class:`~repro.tee.runtime.SgxCostModel`
and :class:`~repro.tee.memory.EnclaveMemoryModel`. See DESIGN.md §2 for the
substitution rationale.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import (
    ChannelCorruption,
    EnclaveKilled,
    EnclaveMemoryError,
    SecurityViolation,
)
from ..graph import CooAdjacency, Subgraph, extract_subgraph, gcn_normalize
from ..models.rectifier import Rectifier
from ..obs.redaction import EnclaveTelemetryGate
from .attestation import Quote, generate_quote
from .channel import LabelOnlyResult, OneWayChannel
from .faults import FAULT_KILL, FAULT_LATENCY, FAULT_MEMORY, FaultInjector, FaultSpec
from .memory import EPC_BYTES, EnclaveMemoryModel
from .runtime import DEFAULT_COST_MODEL, SgxCostModel
from .sealed import SealedBlob, measure_code, seal, unseal

_FLOAT_BYTES = 8


@dataclass(frozen=True)
class EnclaveConfig:
    """Enclave sizing and device-cost parameters."""

    epc_bytes: int = EPC_BYTES
    hard_limit_bytes: Optional[int] = None
    cost_model: SgxCostModel = DEFAULT_COST_MODEL
    #: max receptive-field plans kept resident between per-node ECALLs
    #: (0 disables the cache). Each cached plan is charged against the
    #: EPC like any other enclave allocation, so the memory simulation
    #: stays honest about the speed/space trade. 256 plans of a few pages
    #: each stay well under the 96 MB EPC while covering the hot set of a
    #: heavy-tailed (Zipf) query stream.
    plan_cache_capacity: int = 256


@dataclass
class SubgraphPlan:
    """A cached receptive-field plan for the per-node ECALL fast path.

    Holds the extracted k-hop subgraph and its globally-degree-normalised
    propagation matrix for one ``(targets, hops)`` key — everything the
    rectifier needs except the (per-request) embedding rows.
    """

    sub: Subgraph
    adj_norm: sp.spmatrix
    slot: int
    num_bytes: int


@dataclass
class EcallReport:
    """Cost accounting for one inference ECALL."""

    transfer_seconds: float
    compute_seconds: float
    paging_seconds: float
    payload_bytes: int
    peak_memory_bytes: int
    swapped_pages: int

    @property
    def enclave_seconds(self) -> float:
        """Time spent inside the trusted world (compute + paging)."""
        return self.compute_seconds + self.paging_seconds

    @property
    def total_seconds(self) -> float:
        return self.transfer_seconds + self.enclave_seconds


def rectifier_measurement(rectifier: Rectifier) -> str:
    """MRENCLAVE-like identity of the enclave code for this rectifier.

    Covers everything that defines the enclave's computation: the
    communication scheme, layer shapes, and the convolution type (a GCN
    and a SAGE rectifier with identical shapes are different code).
    """
    description = {
        "scheme": rectifier.scheme,
        "input_dims": list(rectifier.input_dims()),
        "channels": list(rectifier.channels),
        "conv": [type(conv).__name__ for conv in rectifier.convs],
    }
    return measure_code(description)


class RectifierEnclave:
    """Trusted compartment running a GNN rectifier over the private graph."""

    def __init__(
        self,
        rectifier: Rectifier,
        config: Optional[EnclaveConfig] = None,
        telemetry: Optional[EnclaveTelemetryGate] = None,
    ) -> None:
        self._rectifier = rectifier
        self._rectifier.eval()
        self.config = config or EnclaveConfig()
        # Telemetry leaves the enclave only through the redaction gate:
        # enclave code never holds a raw tracer/registry handle, so spans
        # and metrics are aggregate-only by type (see repro.obs.redaction).
        self._telemetry = telemetry
        self.memory = EnclaveMemoryModel(
            epc_bytes=self.config.epc_bytes,
            hard_limit_bytes=self.config.hard_limit_bytes,
        )
        self.measurement = rectifier_measurement(rectifier)
        self._adjacency: Optional[CooAdjacency] = None
        self._adj_norm = None
        self._provisioned_weights = False
        # LRU receptive-field plan cache: (targets, hops) → SubgraphPlan.
        # Lives inside the enclave, so each entry is charged EPC pages;
        # invalidated whenever the private graph changes.
        self._plan_cache: "OrderedDict[Tuple, SubgraphPlan]" = OrderedDict()
        self._plan_slot = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # One TCS: real SGX enclaves execute one thread per trusted stack,
        # and the one-way channel protocol assumes one inference at a time.
        # The pipelined scheduler already serialises ECALLs onto a single
        # enclave worker thread; this lock makes the property structural.
        self._tcs = threading.RLock()
        #: lifetime count of world transitions into this enclave — the
        #: simulation-level ground truth the amortised-ECALL benchmarks
        #: and the pipeline security tests compare micro-batch counts to.
        self.ecall_transitions = 0
        # Lifetime ECALL cost tallies (simulation ground truth, one entry
        # per EcallReport field that aggregates as a sum). The continuous
        # profiling layer cross-checks its per-batch attribution against
        # these totals; like ecall_transitions they are plain counters,
        # independent of whether telemetry is attached.
        self.ecall_transfer_seconds = 0.0
        self.ecall_compute_seconds = 0.0
        self.ecall_paging_seconds = 0.0
        self.ecall_payload_bytes = 0
        self.ecall_swapped_pages = 0
        # Availability state: a destroyed enclave instance (power
        # transition, EPC teardown, injected kill) fails every ECALL until
        # the supervisor provisions a *fresh* instance; fault injection is
        # the simulation of those events (see repro.tee.faults).
        self._dead = False
        self._fault_injector: Optional[FaultInjector] = None
        # Model parameters are resident for the enclave's lifetime.
        self.memory.allocate(
            "model/parameters", rectifier.num_parameters() * _FLOAT_BYTES
        )

    # ------------------------------------------------------------------
    # Provisioning (vendor → device)
    # ------------------------------------------------------------------
    def attest(self, challenge: str = "") -> Quote:
        """Produce an attestation quote for the vendor to verify."""
        if self._telemetry is not None:
            self._telemetry.audit("attestation", result="ok")
        return generate_quote(self.measurement, challenge)

    def provision_weights(self, blob: SealedBlob) -> None:
        """Unseal and install rectifier weights (fails on identity mismatch)."""
        state = unseal(blob, self.measurement)
        self._rectifier.load_state_dict(state)
        self._provisioned_weights = True
        if self._telemetry is not None:
            self._telemetry.audit("provision", stage="weights", result="ok")

    def provision_graph(self, blob: SealedBlob) -> None:
        """Unseal and install the private adjacency (COO + degree cache)."""
        adjacency = unseal(blob, self.measurement)
        if not isinstance(adjacency, CooAdjacency):
            raise SecurityViolation(
                f"graph blob contained {type(adjacency).__name__}, expected CooAdjacency"
            )
        if self._adjacency is not None:
            self.memory.free("graph/adjacency")
        self._clear_plan_cache()
        self._adjacency = adjacency
        self._adj_norm = gcn_normalize(adjacency)
        self.memory.allocate("graph/adjacency", adjacency.memory_bytes())
        if self._telemetry is not None:
            self._telemetry.audit("provision", stage="private", result="ok")

    def provision_graph_update(self, blob: SealedBlob) -> None:
        """Unseal and apply a private-graph delta (new node + edges).

        The edges only ever exist inside the enclave; the memory charge for
        the grown adjacency is re-booked atomically.
        """
        from ..deploy.updates import GraphUpdate, extend_adjacency

        if self._adjacency is None:
            raise SecurityViolation("cannot update a graph that was never provisioned")
        update = unseal(blob, self.measurement)
        if not isinstance(update, GraphUpdate):
            raise SecurityViolation(
                f"update blob contained {type(update).__name__}, expected GraphUpdate"
            )
        with self._tcs:  # never swap the graph under an in-flight ECALL
            extended = extend_adjacency(self._adjacency, update.neighbours)
            self.memory.free("graph/adjacency")
            self._clear_plan_cache()
            self._adjacency = extended
            self._adj_norm = gcn_normalize(extended)
            self.memory.allocate("graph/adjacency", extended.memory_bytes())
        if self._telemetry is not None:
            self._telemetry.audit("graph_update", result="ok")

    @property
    def ready(self) -> bool:
        return self._provisioned_weights and self._adjacency is not None

    @property
    def num_nodes(self) -> Optional[int]:
        """Node count of the provisioned private graph (None before).

        Deployment-shape metadata for the operator-side facade — the
        substitute graph must cover the same node set, so the count is
        public by construction. Edges, weights, and embeddings stay in.
        """
        adjacency = self._adjacency
        return None if adjacency is None else adjacency.num_nodes

    def attach_telemetry(self, gate: Optional[EnclaveTelemetryGate]) -> None:
        """Install (or remove) the redacted telemetry gate.

        Only an :class:`~repro.obs.redaction.EnclaveTelemetryGate` is
        accepted — handing the enclave a raw tracer or registry would
        bypass the trust-boundary redaction.
        """
        if gate is not None and not isinstance(gate, EnclaveTelemetryGate):
            raise SecurityViolation(
                f"enclave telemetry must go through an EnclaveTelemetryGate, "
                f"got {type(gate).__name__}"
            )
        self._telemetry = gate

    # ------------------------------------------------------------------
    # Availability: fault injection, death, sealed snapshots
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """False once the enclave instance has been destroyed."""
        return not self._dead

    def attach_fault_injector(self, injector: Optional[FaultInjector]) -> None:
        """Install (or remove) the deterministic fault-injection harness.

        The injector simulates availability events only — EPC exhaustion,
        enclave death, latency stalls. It cannot widen the egress
        contract: a faulted ECALL raises before :meth:`OneWayChannel.publish`
        is ever reached, so nothing crosses the channel at all.
        """
        self._fault_injector = injector

    def kill(self) -> None:
        """Destroy this enclave instance (simulated power transition).

        Real SGX enclaves do not survive S3/S4 sleep or EPC teardown; all
        in-enclave state is lost and every subsequent ECALL fails. Only a
        sealed snapshot restored into a *fresh* instance with the same
        measurement brings the service back (see
        :class:`~repro.deploy.resilience.EnclaveSupervisor`).
        """
        self._dead = True

    def _check_alive(self) -> None:
        if self._dead:
            raise EnclaveKilled(
                "ECALL against a destroyed enclave instance; the supervisor "
                "must re-provision from a sealed snapshot"
            )

    def _fire_fault(self) -> Optional[FaultSpec]:
        """Consume the injector's next-ECALL slot; simulate what it says.

        Called once per ECALL, after the transition is counted (a faulted
        world switch still happened). ``memory``/``kill`` faults raise
        here; ``latency`` specs are returned for the caller to fold into
        the cost report; ``corrupt`` specs need no entry action — the
        corruption happened on the untrusted side at staging time and is
        caught by payload validation.
        """
        injector = self._fault_injector
        if injector is None:
            return None
        spec = injector.next_ecall()
        if spec is None:
            return None
        if spec.kind == FAULT_MEMORY:
            raise EnclaveMemoryError(
                "injected fault: EPC exhausted during ECALL"
            )
        if spec.kind == FAULT_KILL:
            self.kill()
            raise EnclaveKilled("injected fault: enclave destroyed mid-ECALL")
        return spec

    @staticmethod
    def _validate_payloads(blocks: Sequence[np.ndarray]) -> None:
        """Input validation on the rows the enclave is about to compute on.

        A corrupted staging buffer (bit flips, truncation — simulated as
        non-finite values) must never turn into published labels: garbage
        in, refusal out. Validation covers exactly the rows pulled into
        the enclave, so the hot path pays O(receptive field), not O(graph).
        """
        for block in blocks:
            if block.size and not np.isfinite(block).all():
                raise ChannelCorruption(
                    "staged embeddings contain non-finite values; refusing "
                    "to rectify a corrupted payload"
                )

    def seal_snapshot(self, plan_hints: int = 32) -> SealedBlob:
        """Seal a recovery snapshot of the enclave's provisioned state.

        The blob carries the private adjacency, the rectifier weights, and
        the most-recently-used receptive-field plan keys (cache-warming
        hints), sealed to this enclave's measurement — so it only ever
        opens inside a fresh instance running the *same* code, after the
        supervisor has re-verified attestation. Nothing in the blob is
        readable in untrusted storage.
        """
        with self._tcs:
            if not self.ready:
                raise SecurityViolation(
                    "cannot snapshot an unprovisioned enclave"
                )
            payload = {
                "adjacency": self._adjacency,
                "weights": self._rectifier.state_dict(),
                "plan_keys": list(self._plan_cache.keys())[-plan_hints:],
            }
            return seal(payload, self.measurement)

    def restore_snapshot(self, blob: SealedBlob) -> None:
        """Re-provision this (fresh) instance from a sealed snapshot.

        Raises :class:`~repro.errors.SealingError` when the snapshot was
        sealed by a different enclave identity (version skew) — the
        supervisor treats that as unrecoverable and degrades instead of
        crash-looping. Plan-cache hints are replayed to pre-warm the
        receptive-field cache before traffic resumes.
        """
        self._check_alive()
        payload = unseal(blob, self.measurement)
        with self._tcs:
            self._rectifier.load_state_dict(payload["weights"])
            self._provisioned_weights = True
            if self._adjacency is not None:
                self.memory.free("graph/adjacency")
            self._clear_plan_cache()
            adjacency = payload["adjacency"]
            self._adjacency = adjacency
            self._adj_norm = gcn_normalize(adjacency)
            self.memory.allocate("graph/adjacency", adjacency.memory_bytes())
            for targets, hops in payload.get("plan_keys", ()):
                self._subgraph_plan(targets, hops)
        if self._telemetry is not None:
            self._telemetry.audit("provision", stage="snapshot", result="ok")

    # ------------------------------------------------------------------
    # Receptive-field plan cache
    # ------------------------------------------------------------------
    def _clear_plan_cache(self) -> None:
        """Drop every cached plan (stale after any private-graph change).

        Hit/miss counters reset alongside the entries: they describe the
        cache's behaviour *for the current private graph*, and carrying
        them across a graph change would make ``plan_cache_stats()``
        internally inconsistent (hits against plans that no longer
        exist). Lifetime totals live in the metrics registry instead.
        """
        if self._plan_cache and self._telemetry is not None:
            self._telemetry.audit(
                "cache_invalidation", invalidated_entries=len(self._plan_cache)
            )
        for plan in self._plan_cache.values():
            self.memory.free(f"plancache/{plan.slot}")
        self._plan_cache.clear()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    def _subgraph_plan(self, targets: Sequence[int], hops: int) -> SubgraphPlan:
        """Cached k-hop extraction + normalisation for a target set.

        Keyed by the sorted unique target ids plus the hop count; hits
        skip both the frontier expansion and the Â_sub normalisation. New
        plans are charged to enclave memory as ``plancache/<slot>``
        regions; beyond :attr:`EnclaveConfig.plan_cache_capacity` the
        least-recently-used plan is evicted and its pages freed.
        """
        gate = self._telemetry
        key = (tuple(sorted(set(int(t) for t in targets))), int(hops))
        plan = self._plan_cache.get(key)
        if plan is not None:
            self._plan_cache.move_to_end(key)
            self.plan_cache_hits += 1
            if gate is not None:
                gate.inc("enclave_plan_cache_events_total", result="hit")
            return plan
        self.plan_cache_misses += 1
        if gate is not None:
            gate.inc("enclave_plan_cache_events_total", result="miss")
        sub = extract_subgraph(self._adjacency, key[0], hops)
        adj_norm = sub.normalized_adjacency().tocsr()
        num_bytes = (
            sub.adjacency.memory_bytes()
            + adj_norm.data.nbytes
            + adj_norm.indices.nbytes
            + adj_norm.indptr.nbytes
            + sub.nodes.nbytes
            + sub.targets_local.nbytes
            + sub.global_degrees.nbytes
        )
        plan = SubgraphPlan(
            sub=sub, adj_norm=adj_norm, slot=self._plan_slot, num_bytes=num_bytes
        )
        self._plan_slot += 1
        if self.config.plan_cache_capacity > 0:
            while len(self._plan_cache) >= self.config.plan_cache_capacity:
                _, evicted = self._plan_cache.popitem(last=False)
                self.memory.free(f"plancache/{evicted.slot}")
            self.memory.allocate(f"plancache/{plan.slot}", num_bytes)
            self._plan_cache[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Inference ECALL
    # ------------------------------------------------------------------
    def ecall_infer(self, channel: OneWayChannel) -> EcallReport:
        """Run one rectifier inference over the channel's pending payloads.

        Drains the backbone embeddings pushed by the untrusted world,
        executes the rectifier against the private adjacency, publishes a
        :class:`LabelOnlyResult`, and returns the cost report. Intermediate
        embeddings and logits never leave this method.
        """
        with self._tcs:
            return self._ecall_infer_locked(channel)

    def _ecall_infer_locked(self, channel: OneWayChannel) -> EcallReport:
        self._check_alive()
        if not self.ready:
            raise SecurityViolation(
                "enclave not provisioned (weights and graph must be unsealed first)"
            )
        self.ecall_transitions += 1
        fault = self._fire_fault()
        embeddings = self._drain_embeddings(channel)
        self._validate_payloads(embeddings)  # full-graph path: whole matrices
        num_nodes = embeddings[0].shape[0]
        if num_nodes != self._adjacency.num_nodes:
            # The message only echoes the payload-derived count; the
            # private graph's size stays inside the enclave.
            raise ValueError(
                f"embeddings cover {num_nodes} nodes, which does not match "
                f"the provisioned private graph"
            )

        payload_bytes = sum(e.nbytes for e in embeddings)
        cost = self.config.cost_model

        # --- memory: copy inbound buffers into the enclave heap ---------
        self.memory.reset_peak()
        for index, embedding in enumerate(embeddings):
            self.memory.allocate(f"ecall/input{index}", embedding.nbytes)

        # --- actual rectifier forward (functional correctness) ----------
        outputs = self._rectifier.forward_with_intermediates(
            self._expand_inputs(embeddings), self._adj_norm
        )
        for index, out in enumerate(outputs):
            self.memory.allocate(f"ecall/act{index}", out.data.nbytes)
        logits = outputs[-1].data

        # --- analytic cost accounting ------------------------------------
        transfer_seconds = cost.ecall_time(payload_bytes)
        if fault is not None and fault.kind == FAULT_LATENCY:
            transfer_seconds += fault.extra_seconds
        compute_seconds = self._rectifier_compute_seconds(num_nodes, cost)
        stats = self.memory.stats()
        paging_seconds = cost.paging_time(stats.swapped_pages_peak)
        report = EcallReport(
            transfer_seconds=transfer_seconds,
            compute_seconds=compute_seconds,
            paging_seconds=paging_seconds,
            payload_bytes=payload_bytes,
            peak_memory_bytes=stats.peak_bytes,
            swapped_pages=stats.swapped_pages_peak,
        )

        # --- label-only egress -------------------------------------------
        channel.publish(LabelOnlyResult(labels=logits.argmax(axis=1)))

        # Scratch buffers are freed when the ECALL returns.
        self.memory.free_all("ecall/")
        self._record_ecall_telemetry("full", report)
        return report

    def ecall_infer_nodes(
        self, channel: OneWayChannel, targets: Sequence[int]
    ) -> EcallReport:
        """Per-query inference: one request's micro-batch ECALL (see
        :meth:`ecall_infer_microbatch`)."""
        return self.ecall_infer_microbatch(channel, [targets])

    def ecall_infer_microbatch(
        self, channel: OneWayChannel, requests: Sequence[Sequence[int]]
    ) -> EcallReport:
        """One ECALL transition answering a whole micro-batch of queries.

        ``requests`` is a sequence of target-id sequences, one per client
        query. The enclave pays the world switch once, pulls in the
        *union* of all requests' k-hop receptive fields (overlapping
        neighbourhoods and duplicate targets are staged and rectified
        once — the intra-batch dedup), and runs a single vectorised
        rectifier pass over the union subgraph. Global-degree
        normalisation makes every target's logits exactly what a
        full-graph pass — and therefore what a per-query ECALL — would
        produce, so batching is an amortisation, not an approximation.

        The published result is one :class:`LabelOnlyResult` carrying the
        concatenated per-request labels in request order; the untrusted
        scheduler splits it by request lengths. Nothing else leaves.

        The untrusted world stages the full embedding matrices (it must
        not learn which rows the enclave needs — that would leak edges),
        but the enclave pulls in only the k-hop neighbourhood of the
        queried nodes over the *private* graph, normalised with global
        degrees so the target logits match a full-graph pass exactly.
        Enclave memory and compute then scale with the neighbourhood, not
        the graph. Access-pattern side channels (the OS observing which
        staged rows the enclave touches) are out of scope, matching the
        paper's threat model.

        The telemetry ``stage`` is ``per_node`` for a single request and
        ``micro_batch`` otherwise.
        """
        with self._tcs:
            self._check_alive()
            if not self.ready:
                raise SecurityViolation(
                    "enclave not provisioned (weights and graph must be unsealed first)"
                )
            normalised = [tuple(int(t) for t in request) for request in requests]
            if not normalised or any(not request for request in normalised):
                raise SecurityViolation(
                    "micro-batch ECALL needs at least one non-empty request"
                )
            self.ecall_transitions += 1
            fault = self._fire_fault()
            embeddings = self._drain_embeddings(channel)
            union = sorted({t for request in normalised for t in request})
            labels_by_node, report = self._rectify_targets(embeddings, union)
            if fault is not None and fault.kind == FAULT_LATENCY:
                report.transfer_seconds += fault.extra_seconds
            flat = np.asarray(
                [labels_by_node[t] for request in normalised for t in request],
                dtype=np.int64,
            )
            channel.publish(LabelOnlyResult(labels=flat))
            self._record_ecall_telemetry(
                "per_node" if len(normalised) == 1 else "micro_batch", report
            )
            return report

    def _drain_embeddings(self, channel: OneWayChannel) -> List[np.ndarray]:
        """Take the staged backbone embeddings off the one-way channel.

        Accepts both the per-query form (one payload per consumed layer)
        and the coalesced micro-batch form (a single tuple staged by
        :meth:`OneWayChannel.push_coalesced`).
        """
        payloads = channel._drain()
        if len(payloads) == 1 and type(payloads[0]) is tuple:
            payloads = list(payloads[0])
        if not payloads:
            raise SecurityViolation("inference ECALL with no input payload")
        embeddings = [np.asarray(p, dtype=np.float64) for p in payloads]
        if embeddings[0].shape[0] != self._adjacency.num_nodes:
            # Same redaction as the locked path: echo the payload shape,
            # never the private graph's node count.
            raise ValueError(
                f"embeddings cover {embeddings[0].shape[0]} nodes, which "
                f"does not match the provisioned private graph"
            )
        return embeddings

    def _rectify_targets(
        self, embeddings: Sequence[np.ndarray], targets: Sequence[int]
    ) -> Tuple[Dict[int, int], EcallReport]:
        """Shared ECALL core: rectify the targets' receptive field.

        Returns the per-node label map (global id → class) and the cost
        report; callers decide the output ordering and the telemetry kind.
        """
        hops = len(self._rectifier.convs)
        plan = self._subgraph_plan(targets, hops)
        sub = plan.sub
        local = [e[sub.nodes] for e in embeddings]
        self._validate_payloads(local)  # exactly the rows pulled in
        cost = self.config.cost_model

        self.memory.reset_peak()
        for index, embedding in enumerate(local):
            self.memory.allocate(f"ecall/input{index}", embedding.nbytes)
        outputs = self._rectifier.forward_with_intermediates(
            self._expand_inputs(local), plan.adj_norm
        )
        for index, out in enumerate(outputs):
            self.memory.allocate(f"ecall/act{index}", out.data.nbytes)
        logits = outputs[-1].data

        payload_bytes = sum(e.nbytes for e in local)  # rows actually pulled in
        transfer_seconds = cost.ecall_time(payload_bytes)
        nnz = sub.adjacency.num_entries + sub.num_nodes
        compute_seconds = 0.0
        for conv in self._rectifier.convs:
            compute_seconds += cost.dense_matmul_time(
                sub.num_nodes, conv.in_features, conv.out_features, in_enclave=True
            )
            compute_seconds += cost.sparse_matmul_time(
                nnz, conv.out_features, in_enclave=True
            )
            compute_seconds += cost.elementwise_time(
                sub.num_nodes * conv.out_features, in_enclave=True
            )
        stats = self.memory.stats()
        paging_seconds = cost.paging_time(stats.swapped_pages_peak)
        report = EcallReport(
            transfer_seconds=transfer_seconds,
            compute_seconds=compute_seconds,
            paging_seconds=paging_seconds,
            payload_bytes=payload_bytes,
            peak_memory_bytes=stats.peak_bytes,
            swapped_pages=stats.swapped_pages_peak,
        )
        labels_by_node = sub.lift_labels(logits.argmax(axis=1))
        self.memory.free_all("ecall/")
        return labels_by_node, report

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _record_ecall_telemetry(self, kind: str, report: EcallReport) -> None:
        """Emit the ECALL's span tree and metrics through the gate.

        The stage spans carry the analytic cost model's seconds
        (``set_seconds``), so one traced query reproduces the Fig. 6
        breakdown exactly: ``transfer`` / ``enclave`` (compute) /
        ``paging`` sum to the report's total. Only aggregates cross the
        boundary — the gate's types reject anything per-node.
        """
        self.ecall_transfer_seconds += report.transfer_seconds
        self.ecall_compute_seconds += report.compute_seconds
        self.ecall_paging_seconds += report.paging_seconds
        self.ecall_payload_bytes += report.payload_bytes
        self.ecall_swapped_pages += report.swapped_pages
        gate = self._telemetry
        if gate is None:
            return
        gate.record_ecall(
            kind, report.total_seconds, report.transfer_seconds,
            report.compute_seconds, report.paging_seconds,
            report.payload_bytes, report.peak_memory_bytes,
            report.swapped_pages,
        )

    def ecall_cost_totals(self) -> Dict[str, float]:
        """Lifetime ECALL cost tallies, keyed with gate-clean aggregate
        names (the profiling layer reconciles per-batch attribution
        against these)."""
        return {
            "ecall_count": self.ecall_transitions,
            "transfer_seconds": self.ecall_transfer_seconds,
            "compute_seconds": self.ecall_compute_seconds,
            "paging_seconds": self.ecall_paging_seconds,
            "payload_bytes": self.ecall_payload_bytes,
            "paging_pages": self.ecall_swapped_pages,
        }

    def _expand_inputs(self, embeddings: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Map channel payloads onto the backbone-embedding slots.

        Parallel/cascaded rectifiers receive one payload per consumed
        backbone layer; the series rectifier receives exactly one, which
        must be placed at its tap position.
        """
        consumed = self._rectifier.consumed_layers()
        if len(embeddings) != len(consumed):
            raise ValueError(
                f"rectifier consumes {len(consumed)} embeddings, got {len(embeddings)}"
            )
        slots: Dict[int, np.ndarray] = dict(zip(consumed, embeddings))
        size = max(consumed) + 1
        num_nodes = embeddings[0].shape[0]
        filler = np.zeros((num_nodes, 0))
        return [slots.get(i, filler) for i in range(size)]

    def _rectifier_compute_seconds(self, num_nodes: int, cost: SgxCostModel) -> float:
        """Analytic forward-pass latency of the rectifier inside the enclave."""
        nnz = self._adjacency.num_entries + self._adjacency.num_nodes  # + self loops
        seconds = 0.0
        for conv in self._rectifier.convs:
            seconds += cost.dense_matmul_time(
                num_nodes, conv.in_features, conv.out_features, in_enclave=True
            )
            seconds += cost.sparse_matmul_time(nnz, conv.out_features, in_enclave=True)
            seconds += cost.elementwise_time(num_nodes * conv.out_features, in_enclave=True)
        return seconds

    def plan_cache_stats(self) -> Dict[str, int]:
        """Receptive-field plan cache behaviour (for serving telemetry)."""
        return {
            "entries": len(self._plan_cache),
            "capacity": self.config.plan_cache_capacity,
            "hits": self.plan_cache_hits,
            "misses": self.plan_cache_misses,
            "resident_bytes": sum(p.num_bytes for p in self._plan_cache.values()),
        }

    def memory_report(self) -> Dict[str, int]:
        """Bytes per live region (model, graph) for Fig. 6-style reporting."""
        return {
            name: allocation.num_bytes
            for name, allocation in self.memory.allocations().items()
        }


def seal_rectifier_weights(rectifier: Rectifier) -> SealedBlob:
    """Vendor-side: seal trained weights to the rectifier's enclave identity."""
    return seal(rectifier.state_dict(), rectifier_measurement(rectifier))


def seal_private_graph(adjacency: CooAdjacency, rectifier: Rectifier) -> SealedBlob:
    """Vendor-side: seal the private adjacency to the enclave identity."""
    return seal(adjacency, rectifier_measurement(rectifier))
