"""Seeded query and write streams.

Every stream is a pure function of the workload seed and the stream's
name, so the same seed always gives the same inputs. The generators use
numpy only; the serving program receives the generated ids and writes,
never the seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

ZIPF_ALPHA = 1.2
#: node popularity ranking is a property of the dataset, fixed across
#: seeds: which nodes are hot decides most of a Zipf stream's cost
POPULARITY_SEED = 0
NUM_TENANTS = 64
#: one ``add_node`` write after every this many reads (churn-resilient)
WRITE_EVERY = 100
#: private edges per written node, and public substitute edges
WRITE_PRIVATE_DEGREE = 3
WRITE_SUBSTITUTE_DEGREE = 2


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, stream name)."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def zipf_ids(seed: int, stream: str, num_nodes: int, count: int) -> np.ndarray:
    """Zipf(1.2) node ids: the seed draws the ranks, the dataset's fixed
    popularity ranking maps ranks to nodes."""
    ranks = np.minimum(rng_for(seed, stream).zipf(ZIPF_ALPHA, size=count), num_nodes) - 1
    popularity = rng_for(POPULARITY_SEED, "popularity").permutation(num_nodes)
    return popularity[ranks].astype(np.int64)


def uniform_fractions(seed: int, stream: str, count: int) -> np.ndarray:
    """Uniform draws in [0, 1); scaled by the live node count at read time,
    so reads cover nodes added by earlier writes too."""
    return rng_for(seed, stream).random(count)


def tenants(seed: int, stream: str, count: int) -> List[str]:
    """The client id of each query, uniform over the tenant population."""
    picks = rng_for(seed, stream).integers(0, NUM_TENANTS, size=count)
    return [f"tenant-{int(k):02d}" for k in picks]


def poisson_offsets(seed: int, stream: str, rate: float, seconds: float) -> np.ndarray:
    """Due times (seconds from phase start) of a Poisson arrival stream."""
    rng = rng_for(seed, stream)
    expected = int(rate * seconds)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(expected ** 0.5) + 64)
    due = np.cumsum(gaps)
    return due[due < seconds]


@dataclass(frozen=True)
class Write:
    """One ``add_node``: the public feature row and substitute edges, plus
    the private edges the vendor seals for the enclave."""

    features_row: np.ndarray
    substitute_neighbours: Tuple[int, ...]
    private_neighbours: Tuple[int, ...]


def writes(seed: int, stream: str, features: np.ndarray, count: int) -> List[Write]:
    """New nodes joining the graph.

    Each joins ``WRITE_PRIVATE_DEGREE`` random existing nodes privately;
    its public feature row is their mean, and its public substitute edges
    go to the nodes nearest that row by cosine similarity (the substitute
    graph is derived from features alone).
    """
    rng = rng_for(seed, stream)
    base = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(base, axis=1)
    norms[norms == 0] = 1.0
    unit = base / norms[:, None]
    out: List[Write] = []
    for _ in range(count):
        private = rng.choice(base.shape[0], size=WRITE_PRIVATE_DEGREE, replace=False)
        row = base[private].mean(axis=0)
        nearest = np.argsort(-(unit @ row), kind="stable")[:WRITE_SUBSTITUTE_DEGREE]
        out.append(Write(
            features_row=row,
            substitute_neighbours=tuple(int(n) for n in nearest),
            private_neighbours=tuple(int(n) for n in private),
        ))
    return out
