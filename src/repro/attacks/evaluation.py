"""Attack evaluation: ROC-AUC and curves, implemented from scratch."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def roc_auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney U) formulation.

    Handles ties through average ranks, matching sklearn's behaviour.
    """
    # Imported here: scipy.stats costs ~0.6 s and ~50 MB to load, and the
    # serving path imports this package without ever scoring an attack.
    from scipy.stats import rankdata

    labels = np.asarray(labels).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError(
            f"labels shape {labels.shape} != scores shape {scores.shape}"
        )
    num_pos = int(labels.sum())
    num_neg = labels.size - num_pos
    if num_pos == 0 or num_neg == 0:
        raise ValueError("ROC-AUC needs both positive and negative examples")
    ranks = rankdata(scores)
    pos_rank_sum = ranks[labels].sum()
    return float((pos_rank_sum - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg))


def roc_curve(
    labels: np.ndarray, scores: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(false-positive rate, true-positive rate, thresholds), descending."""
    labels = np.asarray(labels).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores)[::-1]
    labels = labels[order]
    scores = scores[order]
    distinct = np.flatnonzero(np.diff(scores)) if scores.size > 1 else np.array([], int)
    threshold_idx = np.concatenate([distinct, [labels.size - 1]])
    tps = np.cumsum(labels)[threshold_idx]
    fps = (threshold_idx + 1) - tps
    num_pos = labels.sum()
    num_neg = labels.size - num_pos
    tpr = tps / max(num_pos, 1)
    fpr = fps / max(num_neg, 1)
    return fpr, tpr, scores[threshold_idx]


def attack_advantage(auc: float) -> float:
    """How far an attack exceeds random guessing: ``2·|AUC − 0.5|``."""
    return 2.0 * abs(auc - 0.5)
