"""End-to-end secure inference session.

:class:`SecureInferenceSession` wires together the full GNNVault runtime
(paper Fig. 2, step 4): the untrusted world executes the public backbone
over the substitute graph; the consumed embeddings cross the one-way
channel into the :class:`~repro.tee.enclave.RectifierEnclave`; predictions
come back label-only, with a per-stage cost profile.

Provisioning follows the real deployment story: the vendor verifies an
attestation quote, then ships weights and the private graph as sealed
blobs the enclave unseals internally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import CooAdjacency, gcn_normalize
from ..models.rectifier import Rectifier
from ..obs import Telemetry
from ..tee.attestation import verify_quote
from ..tee.channel import OneWayChannel
from ..tee.enclave import (
    EnclaveConfig,
    RectifierEnclave,
    seal_private_graph,
    seal_rectifier_weights,
)
from ..tee.faults import FaultInjector
from ..tee.sealed import SealedBlob
from .profiler import InferenceProfile, model_compute_seconds


class SecureInferenceSession:
    """A provisioned GNNVault deployment ready to serve queries."""

    def __init__(
        self,
        backbone,
        rectifier: Rectifier,
        substitute_adjacency: CooAdjacency,
        private_adjacency: Optional[CooAdjacency] = None,
        enclave_config: Optional[EnclaveConfig] = None,
        telemetry: Optional[Telemetry] = None,
        sealed_weights: Optional[SealedBlob] = None,
        sealed_graph: Optional[SealedBlob] = None,
    ) -> None:
        # Two provisioning stories: the vendor side holds the plaintext
        # private graph and seals it here; the device side (bundle
        # import) only ever holds sealed blobs, which the enclave
        # unseals internally — plaintext never touches this layer.
        if private_adjacency is not None:
            if sealed_weights is not None or sealed_graph is not None:
                raise ValueError(
                    "pass either private_adjacency (vendor-side) or the "
                    "sealed blobs (device-side), not both"
                )
            if substitute_adjacency.num_nodes != private_adjacency.num_nodes:
                raise ValueError(
                    f"substitute graph covers "
                    f"{substitute_adjacency.num_nodes} nodes but the "
                    f"private graph has {private_adjacency.num_nodes}"
                )
        elif sealed_weights is None or sealed_graph is None:
            raise ValueError(
                "provisioning needs private_adjacency (vendor-side) or "
                "both sealed_weights and sealed_graph (device-side)"
            )
        self.backbone = backbone
        self.backbone.eval()
        self.substitute_adjacency = substitute_adjacency
        self._substitute_norm = gcn_normalize(substitute_adjacency)
        self._num_nodes = substitute_adjacency.num_nodes
        # Kept for crash recovery: the supervisor provisions *fresh*
        # enclave instances for this rectifier from sealed snapshots.
        self._rectifier = rectifier
        self._fault_injector: Optional[FaultInjector] = None
        # ECALL cost tallies of enclave instances retired by
        # rebuild_enclave; ecall_cost_totals adds the live instance's.
        self._retired_ecall_totals: Dict[str, float] = {}

        # --- vendor-side provisioning ceremony ---------------------------
        # Telemetry is wired up *before* the ceremony so the attestation
        # and provisioning steps land in the audit trail: the enclave side
        # only ever holds the redaction gate, and the vendor-side quote
        # verification records its outcome as an untrusted event.
        self.enclave = RectifierEnclave(rectifier, enclave_config)
        self.telemetry: Optional[Telemetry] = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)
        quote = self.enclave.attest(challenge="gnnvault-provision")
        verify_quote(
            quote, self.enclave.measurement, "gnnvault-provision",
            audit=telemetry.audit if telemetry is not None else None,
        )
        if private_adjacency is not None:
            sealed_weights = seal_rectifier_weights(rectifier)
            sealed_graph = seal_private_graph(private_adjacency, rectifier)
        self.enclave.provision_weights(sealed_weights)
        self.enclave.provision_graph(sealed_graph)
        if self.enclave.num_nodes != substitute_adjacency.num_nodes:
            raise ValueError(
                f"substitute graph covers {substitute_adjacency.num_nodes} "
                f"nodes but the sealed private graph covers a different "
                f"node set"
            )

        self._rectifier_consumed = rectifier.consumed_layers()
        self._cost = self.enclave.config.cost_model
        # Monotone counter identifying the (graph, feature-shape) version.
        # Bumped by add_node; serving layers key their backbone-embedding
        # caches on it so online updates invalidate stale embeddings.
        self._feature_version = 0

    @property
    def feature_version(self) -> int:
        """Current deployment version (bumped by every :meth:`add_node`)."""
        return self._feature_version

    def attach_telemetry(self, telemetry: Optional[Telemetry]) -> None:
        """Wire a telemetry hub through the session and into the enclave.

        The enclave side never sees the hub itself — only the redaction
        gate derived from it (``telemetry.enclave_gate()``), which is
        ``None`` when telemetry is disabled so the ECALL hot path pays a
        single branch.
        """
        self.telemetry = telemetry
        self.enclave.attach_telemetry(
            telemetry.enclave_gate() if telemetry is not None else None
        )

    def attach_fault_injector(self, injector: Optional[FaultInjector]) -> None:
        """Thread a fault-injection harness through the whole session.

        The enclave gets it for ECALL-entry faults (memory, kill, latency)
        and every fresh :class:`OneWayChannel` gets it for staging-time
        payload corruption. Pass ``None`` to detach.
        """
        self._fault_injector = injector
        self.enclave.attach_fault_injector(injector)

    def _fresh_channel(self) -> OneWayChannel:
        channel = OneWayChannel()
        if self._fault_injector is not None:
            channel.attach_fault_injector(self._fault_injector)
        return channel

    # ------------------------------------------------------------------
    # Crash recovery (driven by deploy.resilience.EnclaveSupervisor)
    # ------------------------------------------------------------------
    def rebuild_enclave(self, snapshot: SealedBlob) -> RectifierEnclave:
        """Provision a fresh enclave instance from a sealed snapshot.

        Mirrors the vendor ceremony: the new instance is attested and its
        quote verified *before* the snapshot is unsealed inside it — a
        restarted enclave re-earns trust the same way the original did.
        Raises :class:`~repro.errors.SealingError` if the snapshot was
        sealed by a different enclave identity (version skew), in which
        case ``self.enclave`` is left unchanged.
        """
        enclave = RectifierEnclave(self._rectifier, self.enclave.config)
        if self.telemetry is not None:
            enclave.attach_telemetry(self.telemetry.enclave_gate())
        quote = enclave.attest(challenge="gnnvault-recovery")
        verify_quote(
            quote, enclave.measurement, "gnnvault-recovery",
            audit=self.telemetry.audit if self.telemetry is not None else None,
        )
        enclave.restore_snapshot(snapshot)
        enclave.attach_fault_injector(self._fault_injector)
        self._retired_ecall_totals = self.ecall_cost_totals()
        self.enclave = enclave
        return enclave

    def ecall_cost_totals(self) -> Dict[str, float]:
        """Lifetime ECALL cost tallies of this deployment.

        The sum over every enclave instance the session has run: those
        retired by :meth:`rebuild_enclave` plus the live one. A per-batch
        delta or a ledger reconciliation taken across an enclave restart
        stays exact, where the live instance's own
        :meth:`RectifierEnclave.ecall_cost_totals` restarts from zero.
        """
        retired = self._retired_ecall_totals
        return {
            key: retired.get(key, 0) + value
            for key, value in self.enclave.ecall_cost_totals().items()
        }

    @property
    def ecall_count(self) -> int:
        """``ecall_cost_totals()["ecall_count"]`` without building the
        dict: the serving path reads it around every observed batch."""
        return (self._retired_ecall_totals.get("ecall_count", 0)
                + self.enclave.ecall_transitions)

    def backbone_labels(self, embeddings: Sequence[np.ndarray], node_ids) -> np.ndarray:
        """Backbone-only predictions for degraded (non-rectified) serving.

        Argmax over the public backbone's final-layer logits — computed
        entirely in the untrusted world from already-staged embeddings,
        so a dead enclave cannot block it and the label-only egress
        contract is untouched (nothing crosses the channel at all).
        Accuracy is the unrectified backbone's; results must be marked
        ``degraded`` wherever they are served.
        """
        logits = np.asarray(embeddings[-1], dtype=np.float64)
        targets = np.asarray(list(node_ids), dtype=np.int64)
        return logits[targets].argmax(axis=1).astype(np.int64)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def embed(
        self, features: np.ndarray, workers=None
    ) -> Tuple[List[np.ndarray], float]:
        """Run the public backbone once over the substitute graph.

        Returns every layer's embedding plus the simulated backbone
        latency. This is the untrusted half of an inference — pure
        pre-computation (paper §IV-C), so serving layers may compute it
        once per :attr:`feature_version` and reuse it across queries.

        ``workers`` may be a
        :class:`~repro.deploy.scheduler.ShardedBackboneWorkers` pool; the
        dense projection and sparse propagation are then row-sharded
        across its threads (bit-identical output, untrusted world only —
        the enclave never parallelises).
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != self._num_nodes:
            raise ValueError(
                f"features cover {features.shape[0]} nodes, deployment expects "
                f"{self._num_nodes}"
            )
        if workers is not None:
            embeddings = workers.embeddings(
                self.backbone, features, self._substitute_norm
            )
        else:
            embeddings = self.backbone.embeddings(features, self._substitute_norm)
        nnz = self.substitute_adjacency.num_entries + self._num_nodes
        backbone_seconds = model_compute_seconds(
            self.backbone, self._num_nodes, nnz, self._cost, in_enclave=False
        )
        return embeddings, backbone_seconds

    def predict(self, features: np.ndarray) -> Tuple[np.ndarray, InferenceProfile]:
        """Classify every node; returns (labels, cost profile).

        Only integer labels are returned — logits and intermediate
        embeddings never exist outside the enclave (paper §IV-E).
        """
        # Untrusted world: run the public backbone on the substitute graph.
        embeddings, backbone_seconds = self.embed(features)

        # One-way transfer of exactly the consumed embeddings.
        channel = self._fresh_channel()
        for layer in self._rectifier_consumed:
            channel.push(embeddings[layer], description=f"backbone_layer_{layer}")

        # Trusted world: rectify and publish label-only output.
        report = self.enclave.ecall_infer(channel)
        labels = channel.collect().labels

        profile = InferenceProfile(
            backbone_seconds=backbone_seconds,
            transfer_seconds=report.transfer_seconds,
            enclave_seconds=report.enclave_seconds,
            paging_seconds=report.paging_seconds,
            payload_bytes=report.payload_bytes,
            peak_enclave_memory_bytes=report.peak_memory_bytes,
        )
        return labels, profile

    def predict_nodes(
        self, features: np.ndarray, node_ids
    ) -> Tuple[np.ndarray, InferenceProfile]:
        """Classify only the queried nodes (the edge-device query mode).

        The backbone still embeds every node (the untrusted world must not
        learn which neighbourhood the enclave reads — that would leak
        edges), but the enclave rectifies only the targets' receptive
        field over the private graph, so trusted memory and compute scale
        with the neighbourhood size. Output labels align with ``node_ids``.
        """
        embeddings, backbone_seconds = self.embed(features)
        return self.predict_nodes_precomputed(
            embeddings, node_ids, backbone_seconds=backbone_seconds
        )

    def predict_nodes_precomputed(
        self,
        embeddings: Sequence[np.ndarray],
        node_ids,
        backbone_seconds: float = 0.0,
    ) -> Tuple[np.ndarray, InferenceProfile]:
        """One request's labels from already-computed backbone embeddings
        (a micro-batch of one; see :meth:`predict_microbatch_precomputed`)."""
        return self.predict_microbatch_precomputed(
            embeddings, [node_ids], backbone_seconds=backbone_seconds
        )

    def predict_microbatch_precomputed(
        self,
        embeddings: Sequence[np.ndarray],
        requests: Sequence[Sequence[int]],
        backbone_seconds: float = 0.0,
    ) -> Tuple[np.ndarray, InferenceProfile]:
        """Answer a micro-batch of queries with a single amortised ECALL.

        The one inference call of the serving path, for a sequential
        request (a batch of one) and a scheduler micro-batch alike: the
        server computes the untrusted half once per feature version via
        :meth:`embed` and answers the whole query stream from it, paying
        ``backbone_seconds = 0`` on cache hits.

        The consumed backbone embeddings are staged as one coalesced
        payload block (:meth:`OneWayChannel.push_coalesced`) and the
        enclave answers every request in one world transition
        (:meth:`RectifierEnclave.ecall_infer_microbatch`). Returns the
        concatenated labels in request order — callers split by request
        lengths — plus the per-batch cost profile.
        """
        embeddings = [np.asarray(e, dtype=np.float64) for e in embeddings]
        if embeddings and embeddings[0].shape[0] != self._num_nodes:
            raise ValueError(
                f"embeddings cover {embeddings[0].shape[0]} nodes, deployment "
                f"expects {self._num_nodes}"
            )
        channel = self._fresh_channel()
        channel.push_coalesced(
            [embeddings[layer] for layer in self._rectifier_consumed],
            description="backbone_microbatch",
        )
        report = self.enclave.ecall_infer_microbatch(channel, requests)
        labels = channel.collect().labels
        profile = InferenceProfile(
            backbone_seconds=backbone_seconds,
            transfer_seconds=report.transfer_seconds,
            enclave_seconds=report.enclave_seconds,
            paging_seconds=report.paging_seconds,
            payload_bytes=report.payload_bytes,
            peak_enclave_memory_bytes=report.peak_memory_bytes,
        )
        return labels, profile

    # ------------------------------------------------------------------
    # Online updates (new nodes arriving at a live deployment)
    # ------------------------------------------------------------------
    def add_node(self, substitute_neighbours, sealed_update) -> int:
        """Register a new node with the live deployment; returns its id.

        ``substitute_neighbours`` is public (derived from the new node's
        features, e.g. its KNN matches) and extends the untrusted
        substitute graph; ``sealed_update`` carries the *private* edges
        into the enclave, where they are unsealed and applied without ever
        existing in untrusted memory.

        Every cached derivation tied to the old graph version is refreshed
        or invalidated here: the substitute normalisation is rebuilt for
        the extended adjacency (the extended object lazily re-derives its
        own Â), the enclave drops its receptive-field plan cache when the
        private graph grows, and :attr:`feature_version` is bumped so
        serving-layer embedding caches miss on the next query.
        """
        from ..graph import gcn_normalize as _normalize
        from .updates import extend_adjacency

        new_id = self._num_nodes
        self.substitute_adjacency = extend_adjacency(
            self.substitute_adjacency, substitute_neighbours
        )
        self._substitute_norm = _normalize(self.substitute_adjacency)
        self._num_nodes += 1
        self.enclave.provision_graph_update(sealed_update)
        self._feature_version += 1
        if self.telemetry is not None:
            self.telemetry.registry.counter(
                "vault_graph_updates_total",
                help="online add_node updates applied to the deployment",
            ).inc()
            # Host-side view of the update (the enclave's own application
            # is audited separately, through the gate, as origin=enclave).
            self.telemetry.audit.append(
                "graph_update", version=self._feature_version
            )
        return new_id

    # ------------------------------------------------------------------
    # Baselines (for Fig. 6's overhead comparison)
    # ------------------------------------------------------------------
    def unprotected_baseline_seconds(
        self, reference_model, private_adjacency_nnz: int
    ) -> float:
        """Latency of running an unprotected GNN on the plain CPU.

        ``reference_model`` is the original GNN (backbone architecture,
        real adjacency); no enclave, no transfer.
        """
        return model_compute_seconds(
            reference_model,
            self._num_nodes,
            private_adjacency_nnz + self._num_nodes,
            self._cost,
            in_enclave=False,
        )

    def adversary_view(self) -> dict:
        """Everything an attacker in the untrusted world can observe.

        Used by the security analysis: backbone weights, substitute graph,
        and (after queries) the transferred embeddings — but never the
        rectifier weights, real adjacency, logits, or enclave internals.
        """
        return {
            "backbone_state": self.backbone.state_dict(),
            "substitute_adjacency": self.substitute_adjacency,
            "consumed_layers": self._rectifier_consumed,
        }
