"""MLP ("DNN") backbone — the graph-free baseline of Table III.

Exposes the same ``forward_with_intermediates`` interface as
:class:`~repro.models.gcn.GCNBackbone` so rectifiers and the deployment
pipeline treat both interchangeably; the adjacency argument is accepted and
ignored.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .. import nn


class MlpBackbone(nn.Module):
    """Feed-forward network over node features only."""

    def __init__(
        self,
        in_features: int,
        channels: Sequence[int],
        dropout: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if len(channels) < 1:
            raise ValueError("need at least one layer")
        self.in_features = in_features
        self.channels = tuple(int(c) for c in channels)
        rng = np.random.default_rng(seed)
        self.layers = nn.ModuleList()
        self.dropouts = nn.ModuleList()
        widths = [in_features, *self.channels]
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            self.layers.append(nn.Linear(fan_in, fan_out, rng=rng))
            self.dropouts.append(nn.Dropout(dropout, rng=rng))

    def prepare_input(self, x) -> sp.csr_matrix:
        """The features as a constant CSR matrix: the first layer's dropout
        and product then touch only the stored (non-zero) entries."""
        return sp.csr_matrix(x, dtype=np.float64)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_classes(self) -> int:
        return self.channels[-1]

    def forward_with_intermediates(
        self, x, adj_norm: Optional[sp.spmatrix] = None
    ) -> List[nn.Tensor]:
        """Per-layer outputs; ``adj_norm`` is ignored (graph-free model)."""
        h = x if isinstance(x, nn.Tensor) or sp.issparse(x) else nn.Tensor(x)
        outputs: List[nn.Tensor] = []
        last = self.num_layers - 1
        for index, (layer, drop) in enumerate(zip(self.layers, self.dropouts)):
            h = drop(h)
            h = layer(h)
            if index != last:
                h = nn.relu(h)
            outputs.append(h)
        return outputs

    def forward(self, x, adj_norm: Optional[sp.spmatrix] = None) -> nn.Tensor:
        return self.forward_with_intermediates(x, adj_norm)[-1]

    def embeddings(self, x, adj_norm: Optional[sp.spmatrix] = None) -> List[np.ndarray]:
        """Inference-mode layer embeddings as plain arrays."""
        was_training = self.training
        self.eval()
        try:
            outputs = self.forward_with_intermediates(x, adj_norm)
        finally:
            self.train(was_training)
        return [out.data for out in outputs]

    def predict(self, x, adj_norm: Optional[sp.spmatrix] = None) -> np.ndarray:
        return self.embeddings(x, adj_norm)[-1].argmax(axis=1)

    def layer_output_dims(self) -> Tuple[int, ...]:
        return self.channels
