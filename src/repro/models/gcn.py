"""GCN backbone models.

:class:`GCNBackbone` is the paper's public backbone (Fig. 3a): a stack of
GCN layers trained against a *substitute* adjacency. The same class also
serves as the "original GNN" reference model (same architecture, trained on
the real adjacency — the paper's ``p_org`` row).

``forward_with_intermediates`` exposes every layer's output embedding:
these are exactly the tensors the untrusted world ships to the enclave, so
the rectifiers, the deployment profiler and the link-stealing attack all
consume this interface.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .. import nn


class GCNBackbone(nn.Module):
    """Multi-layer GCN: ``H_k = ReLU(Â H_{k-1} W_k)``, linear final layer.

    Parameters
    ----------
    in_features:
        Input feature dimension ``d``.
    channels:
        Output width of every layer; the last entry is the class count.
        E.g. the paper's M1 is ``(128, 32, C)``.
    dropout:
        Dropout probability applied to each layer's input during training.
    seed:
        Weight-initialisation seed.
    """

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
            self.layers.append(nn.GCNConv(fan_in, fan_out, rng=rng))
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
        self, x, adj_norm: sp.spmatrix
    ) -> List[nn.Tensor]:
        """Return every layer's output (hidden: post-ReLU; final: raw logits)."""
        h = x if isinstance(x, nn.Tensor) or sp.issparse(x) else nn.Tensor(x)
        outputs: List[nn.Tensor] = []
        last = self.num_layers - 1
        for index, (conv, drop) in enumerate(zip(self.layers, self.dropouts)):
            h = drop(h)
            h = conv(h, adj_norm)
            if index != last:
                h = nn.relu(h)
            outputs.append(h)
        return outputs

    def forward(self, x, adj_norm: sp.spmatrix) -> nn.Tensor:
        """Return the final logits only."""
        return self.forward_with_intermediates(x, adj_norm)[-1]

    def embeddings(self, x, adj_norm: sp.spmatrix) -> List[np.ndarray]:
        """Inference-mode layer embeddings as plain arrays (no autograd)."""
        was_training = self.training
        self.eval()
        try:
            outputs = self.forward_with_intermediates(x, adj_norm)
        finally:
            self.train(was_training)
        return [out.data for out in outputs]

    def predict(self, x, adj_norm: sp.spmatrix) -> np.ndarray:
        """Inference-mode argmax class predictions."""
        return self.embeddings(x, adj_norm)[-1].argmax(axis=1)

    def layer_output_dims(self) -> Tuple[int, ...]:
        """Widths of the per-layer embeddings shipped to a rectifier."""
        return self.channels
