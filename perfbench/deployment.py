"""Training, provisioning and the offline label oracle.

Every workload serves the citeseer stand-in with the ``series``
rectifier, trained from the workload seed. The oracle is a separately
provisioned :class:`SecureInferenceSession` whose full-graph ``predict``
gives the expected label of every node at every graph version.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.datasets.synthetic import load_dataset
from repro.deploy import SecureInferenceSession
from repro.deploy.updates import GraphUpdate, seal_graph_update
from repro.experiments import run_gnnvault
from repro.training import TrainConfig

from .streams import Write

DATASET = "citeseer"
#: the stand-in graph is the same for every workload seed
DATASET_SEED = 0
SCHEME = "series"
#: a fixed epoch count (patience never triggers), so every seed trains
#: for the same amount of work
TRAIN_CONFIG = TrainConfig(epochs=60, patience=60)


def train(seed: int):
    """Train backbone and rectifier on the stand-in graph; the workload
    seed sets the training split and the weight initialisation."""
    return run_gnnvault(
        graph=load_dataset(DATASET, seed=DATASET_SEED), schemes=(SCHEME,),
        train_config=TRAIN_CONFIG, seed=seed, train_original=False,
    )


def provision(run) -> SecureInferenceSession:
    """Attest, seal and unseal a fresh enclave for the trained run."""
    return SecureInferenceSession(
        run.backbone, run.rectifiers[SCHEME], run.substitute, run.graph.adjacency
    )


def seal_writes(run, writes: Sequence[Write]) -> list:
    """Vendor side: seal each write's private edges for the enclave."""
    rectifier = run.rectifiers[SCHEME]
    return [
        seal_graph_update(GraphUpdate(neighbours=w.private_neighbours), rectifier)
        for w in writes
    ]


class AnswerLog:
    """Every answered query: node id, graph version and served label."""

    def __init__(self) -> None:
        self.nodes: List[int] = []
        self.versions: List[int] = []
        self.labels: List[int] = []

    def __len__(self) -> int:
        return len(self.labels)


class Oracle:
    """Full-graph labels per graph version from a reference session.

    Version 0 is the provisioned graph; :meth:`replay` applies the same
    writes the served deployment applied, in the same order, and records
    the labels after each.
    """

    def __init__(self, run) -> None:
        self._session = provision(run)
        self._features = np.asarray(run.graph.features, dtype=np.float64)
        self.versions: List[np.ndarray] = [self._predict()]

    def _predict(self) -> np.ndarray:
        labels, _ = self._session.predict(self._features)
        return np.asarray(labels, dtype=np.int64)

    def replay(self, writes: Sequence[Write], blobs: Sequence) -> None:
        for write, blob in zip(writes, blobs):
            self._session.add_node(write.substitute_neighbours, blob)
            self._features = np.vstack([self._features, write.features_row[None, :]])
            self.versions.append(self._predict())

    def corrupt(self) -> None:
        """Flip every expected label (self-check: must fail the comparison)."""
        self.versions = [(labels + 1) % (labels.max() + 2) for labels in self.versions]

    def agreement(self, answers: AnswerLog) -> float:
        """Fraction of answered labels equal to the oracle's."""
        if not len(answers):
            return 0.0
        nodes = np.asarray(answers.nodes, dtype=np.int64)
        versions = np.asarray(answers.versions, dtype=np.int64)
        served = np.asarray(answers.labels, dtype=np.int64)
        expected = np.empty_like(served)
        for version in np.unique(versions):
            mask = versions == version
            expected[mask] = self.versions[int(version)][nodes[mask]]
        return float(np.mean(served == expected))
