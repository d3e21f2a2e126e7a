"""Access-pattern side-channel auditing.

The paper scopes side channels out of its threat model (§IV-A), but a
deployment review should still *quantify* them. The serving ECALL
(:meth:`RectifierEnclave.ecall_infer_microbatch`, which every sequential
query and scheduler micro-batch goes through; ``ecall_infer_nodes`` is
its one-request alias) reads only the queried targets' k-hop rows from
the staged embedding buffers; a malicious OS that observes page-level
access patterns therefore learns which rows the enclave touched — and
the touched set is exactly the union of the batch's private
neighbourhoods.

This module provides an auditor that simulates that observer and measures
how much adjacency information leaks per query, so a deployer can weigh
the per-node path's memory savings against its (out-of-threat-model)
access-pattern exposure. The full-graph path touches every row and leaks
nothing by this channel — the quantitative argument for preferring it on
hostile hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from ..graph import CooAdjacency, k_hop_neighbourhood


@dataclass
class AccessObservation:
    """One observed ECALL: which staged rows the enclave read."""

    targets: Tuple[int, ...]
    touched_rows: frozenset


class AccessPatternAuditor:
    """Simulated OS-level observer of the enclave's staged-buffer reads.

    Feed it the same information a page-fault-monitoring OS would get
    (queried nodes are public — the user issued them; touched rows come
    from page-access traces), then score the reconstructed edges.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        self.observations: List[AccessObservation] = []

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe_full_graph_ecall(self, targets: Sequence[int]) -> None:
        """A full-graph ECALL touches every row — no selective signal."""
        self.observations.append(
            AccessObservation(
                targets=tuple(int(t) for t in targets),
                touched_rows=frozenset(range(self.num_nodes)),
            )
        )

    def observe_node_ecall(
        self, adjacency: CooAdjacency, targets: Sequence[int], hops: int
    ) -> AccessObservation:
        """Record what a per-node ECALL reveals: the k-hop row set."""
        touched = k_hop_neighbourhood(adjacency, targets, hops)
        observation = AccessObservation(
            targets=tuple(int(t) for t in targets),
            touched_rows=frozenset(int(n) for n in touched),
        )
        self.observations.append(observation)
        return observation

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def candidate_edges(self) -> Set[Tuple[int, int]]:
        """Edges the observer can assert: target ↔ touched row pairs.

        From a single-target observation with ``hops >= 1``, every touched
        non-target row is within k hops; with many observations the
        1-hop neighbours are the rows touched in *every* observation that
        targeted the node. We report the union-of-pairs reconstruction —
        the standard conservative attack surface measure.
        """
        candidates: Set[Tuple[int, int]] = set()
        for obs in self.observations:
            if len(obs.touched_rows) == self.num_nodes:
                continue  # full-graph ECALL: nothing selective
            for target in obs.targets:
                for row in obs.touched_rows:
                    if row != target:
                        candidates.add((min(target, row), max(target, row)))
        return candidates

    def leakage_report(self, private_adjacency: CooAdjacency) -> "LeakageReport":
        """Score the reconstruction against the true private edges."""
        candidates = self.candidate_edges()
        true_edges = private_adjacency.edge_set()
        hits = candidates & true_edges
        precision = len(hits) / len(candidates) if candidates else 0.0
        recall = len(hits) / len(true_edges) if true_edges else 0.0
        return LeakageReport(
            num_observations=len(self.observations),
            num_candidates=len(candidates),
            num_true_edges=len(true_edges),
            num_recovered=len(hits),
            precision=precision,
            recall=recall,
        )


@dataclass(frozen=True)
class LeakageReport:
    """How much of the private edge set the access pattern revealed."""

    num_observations: int
    num_candidates: int
    num_true_edges: int
    num_recovered: int
    precision: float
    recall: float

    @property
    def leaks(self) -> bool:
        """True if the observer recovered any private edge at all."""
        return self.num_recovered > 0

    def summary(self) -> str:
        return (
            f"{self.num_observations} observations -> {self.num_candidates} "
            f"candidate pairs, {self.num_recovered}/{self.num_true_edges} true "
            f"edges recovered (precision {self.precision:.2f}, "
            f"recall {self.recall:.2f})"
        )
