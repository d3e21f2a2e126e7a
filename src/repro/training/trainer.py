"""Training loops for backbones and rectifiers.

Two entry points mirror GNNVault's two training phases (paper Fig. 2):

* :func:`train_node_classifier` — phase 2: fit a backbone (or the
  unprotected "original" reference GNN) with full-batch Adam and
  early stopping on validation accuracy.
* :func:`train_rectifier` — phase 3: freeze the backbone, compute its
  inference-mode embeddings once, and fit only the rectifier parameters
  against the real adjacency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from .. import nn
from ..datasets import Split
from ..models.rectifier import Rectifier
from ..obs import Telemetry
from .metrics import accuracy


class _EpochTelemetry:
    """Per-epoch loss/accuracy/duration metrics for one training phase."""

    def __init__(self, telemetry: Optional[Telemetry], phase: str) -> None:
        self._telemetry = telemetry
        self._phase = phase
        if telemetry is not None:
            registry = telemetry.registry
            self._epochs = registry.counter(
                "training_epochs_total", help="optimiser epochs run"
            )
            self._duration = registry.histogram(
                "training_epoch_seconds", help="wall-clock seconds per epoch"
            )
            self._loss = registry.gauge(
                "training_loss", help="last epoch's training loss"
            )
            self._val = registry.gauge(
                "training_val_accuracy", help="last epoch's validation accuracy"
            )

    def epoch(self, loss: float, val_accuracy: float, seconds: float) -> None:
        if self._telemetry is None:
            return
        self._epochs.inc(phase=self._phase)
        self._duration.observe(seconds, phase=self._phase)
        self._loss.set(loss, phase=self._phase)
        self._val.set(val_accuracy, phase=self._phase)

    def finish(self, result: "TrainResult") -> None:
        if self._telemetry is None:
            return
        registry = self._telemetry.registry
        registry.counter(
            "training_runs_total", help="completed training runs"
        ).inc(phase=self._phase)
        registry.gauge(
            "training_best_val_accuracy", help="best validation accuracy"
        ).set(result.best_val_accuracy, phase=self._phase)
        registry.gauge(
            "training_test_accuracy", help="test accuracy of the restored model"
        ).set(result.test_accuracy, phase=self._phase)


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for full-batch training (standard GCN recipe)."""

    epochs: int = 200
    lr: float = 0.01
    weight_decay: float = 5e-4
    patience: int = 40  # early-stopping window on validation accuracy
    log_every: int = 0  # 0 disables progress printing
    schedule: str = "constant"  # constant / step / cosine
    warmup_epochs: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")

    def make_schedule(self):
        """The LR schedule this config describes."""
        from .schedules import make_schedule

        return make_schedule(
            self.schedule, self.lr, self.epochs, warmup_epochs=self.warmup_epochs
        )


@dataclass
class TrainResult:
    """Outcome of a training run."""

    best_val_accuracy: float
    test_accuracy: float
    epochs_run: int
    loss_history: List[float] = field(default_factory=list)
    val_history: List[float] = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"TrainResult(val={self.best_val_accuracy:.3f}, "
            f"test={self.test_accuracy:.3f}, epochs={self.epochs_run})"
        )


def _evaluate(logits: np.ndarray, labels: np.ndarray, index: np.ndarray) -> float:
    return accuracy(logits, labels, index)


def train_node_classifier(
    model,
    features: np.ndarray,
    adj_norm: sp.spmatrix,
    labels: np.ndarray,
    split: Split,
    config: Optional[TrainConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> TrainResult:
    """Fit ``model`` (backbone interface) for node classification.

    ``model`` must expose ``forward(x, adj) -> logits`` over trainable
    parameters; the adjacency is whichever graph the phase calls for
    (substitute for backbones, real for the original reference model).
    The input is built once, in the form the model asks for
    (``model.prepare_input``: CSR for the GCN and MLP backbones, whose
    first layer then touches only the stored entries of the bag-of-words
    features; a dense tensor otherwise).
    Restores the best-validation weights before returning. When
    ``telemetry`` is given, per-epoch loss/accuracy/duration land in its
    metrics registry under ``phase="classifier"``.
    """
    config = config or TrainConfig()
    labels = np.asarray(labels)
    epoch_telemetry = _EpochTelemetry(telemetry, phase="classifier")
    optimizer = nn.Adam(
        model.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    schedule = config.make_schedule()
    best_val = -1.0
    best_state = model.state_dict()
    since_best = 0
    losses: List[float] = []
    vals: List[float] = []
    epochs_run = 0
    inputs = model.prepare_input(features)

    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        epochs_run = epoch + 1
        schedule.apply(optimizer, epoch)
        model.train()
        optimizer.zero_grad()
        logits = model(inputs, adj_norm)
        loss = nn.cross_entropy(logits, labels, mask=split.train)
        loss.backward()
        optimizer.step()
        losses.append(loss.item())

        model.eval()
        eval_logits = model(inputs, adj_norm).data
        val_acc = _evaluate(eval_logits, labels, split.val)
        vals.append(val_acc)
        epoch_telemetry.epoch(
            loss.item(), val_acc, time.perf_counter() - epoch_start
        )
        if config.log_every and epoch % config.log_every == 0:
            print(f"epoch {epoch:4d} loss {loss.item():.4f} val {val_acc:.4f}")
        if val_acc > best_val:
            best_val = val_acc
            best_state = model.state_dict()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    model.load_state_dict(best_state)
    model.eval()
    final_logits = model(inputs, adj_norm).data
    test_acc = _evaluate(final_logits, labels, split.test)
    result = TrainResult(best_val, test_acc, epochs_run, losses, vals)
    epoch_telemetry.finish(result)
    return result


def train_rectifier(
    rectifier: Rectifier,
    backbone,
    features: np.ndarray,
    backbone_adj_norm: Optional[sp.spmatrix],
    real_adj_norm: sp.spmatrix,
    labels: np.ndarray,
    split: Split,
    config: Optional[TrainConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> TrainResult:
    """Fit a rectifier with the backbone frozen (paper §IV-D).

    The backbone's inference-mode embeddings are computed once and reused
    every epoch — valid because the backbone is frozen and the rectifier
    detaches its inputs (one-way data flow). Per-epoch metrics land under
    ``phase="rectifier"`` when ``telemetry`` is given.
    """
    config = config or TrainConfig()
    labels = np.asarray(labels)
    epoch_telemetry = _EpochTelemetry(telemetry, phase="rectifier")
    backbone.freeze()
    backbone_embeddings = backbone.embeddings(features, backbone_adj_norm)
    inputs = [nn.Tensor(e) for e in backbone_embeddings]

    optimizer = nn.Adam(
        rectifier.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    schedule = config.make_schedule()
    best_val = -1.0
    best_state = rectifier.state_dict()
    since_best = 0
    losses: List[float] = []
    vals: List[float] = []
    epochs_run = 0

    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        epochs_run = epoch + 1
        schedule.apply(optimizer, epoch)
        rectifier.train()
        optimizer.zero_grad()
        logits = rectifier(inputs, real_adj_norm)
        loss = nn.cross_entropy(logits, labels, mask=split.train)
        loss.backward()
        optimizer.step()
        losses.append(loss.item())

        rectifier.eval()
        eval_logits = rectifier(inputs, real_adj_norm).data
        val_acc = _evaluate(eval_logits, labels, split.val)
        vals.append(val_acc)
        epoch_telemetry.epoch(
            loss.item(), val_acc, time.perf_counter() - epoch_start
        )
        if config.log_every and epoch % config.log_every == 0:
            print(f"epoch {epoch:4d} loss {loss.item():.4f} val {val_acc:.4f}")
        if val_acc > best_val:
            best_val = val_acc
            best_state = rectifier.state_dict()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    rectifier.load_state_dict(best_state)
    rectifier.eval()
    final_logits = rectifier(inputs, real_adj_norm).data
    test_acc = _evaluate(final_logits, labels, split.test)
    result = TrainResult(best_val, test_acc, epochs_run, losses, vals)
    epoch_telemetry.finish(result)
    return result
