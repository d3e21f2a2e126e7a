"""Neural-network layers: dense, graph-convolution, and dropout.

``GCNConv`` implements the propagation rule of Eq. (1) in the paper:

    H^(k) = σ( Â · H^(k-1) · W^(k) )

where ``Â`` is the degree-normalised adjacency with self-loops. The layer
itself is adjacency-agnostic: the (sparse, constant) ``Â`` is passed at call
time, which is exactly what lets GNNVault swap the substitute adjacency
(untrusted world) for the real adjacency (enclave) around the same layer
implementation.

The first layer of a model may also be fed its input features as a
constant ``scipy.sparse`` matrix: ``Linear``, ``GCNConv`` and ``Dropout``
then touch only the stored entries (see :func:`_project`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import init
from .module import Module, Parameter
from .tensor import Tensor, dropout, sparse_matmul


def _project(x, weight: Tensor) -> Tensor:
    """``x @ weight`` for a dense tensor or a constant sparse input.

    The sparse product's backward yields ``weight.grad = xᵀ @ grad``, as
    the dense one does; ``x`` itself never needs a gradient.
    """
    if sp.issparse(x):
        return sparse_matmul(x, weight)
    return x @ weight


class Linear(Module):
    """Affine map ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.glorot_uniform((in_features, out_features), rng), name="weight"
        )
        self.bias = Parameter(init.zeros(out_features), name="bias") if bias else None

    def forward(self, x) -> Tensor:
        out = _project(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features} -> {self.out_features})"


class GCNConv(Module):
    """Graph convolution layer: ``σ`` is applied by the caller.

    Forward computes ``Â @ (x @ W) + b`` — projecting first keeps the dense
    intermediate at the smaller output width, which matters when features
    are high-dimensional (e.g. CoraFull's 8,710-d features).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.glorot_uniform((in_features, out_features), rng), name="weight"
        )
        self.bias = Parameter(init.zeros(out_features), name="bias") if bias else None

    def forward(self, x, adj_norm: sp.spmatrix) -> Tensor:
        if adj_norm.shape[0] != x.shape[0]:
            raise ValueError(
                f"adjacency has {adj_norm.shape[0]} rows but features have "
                f"{x.shape[0]} nodes"
            )
        out = sparse_matmul(adj_norm, _project(x, self.weight))
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"GCNConv({self.in_features} -> {self.out_features})"


class LayerNorm(Module):
    """Per-row layer normalisation with learnable scale/shift.

    Standard stabiliser for deeper GCN stacks: normalises each node's
    embedding to zero mean / unit variance across features, then applies
    a learned affine transform.
    """

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {num_features}")
        self.num_features = num_features
        self.eps = eps
        self.gain = Parameter(np.ones(num_features), name="gain")
        self.bias = Parameter(np.zeros(num_features), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=1, keepdims=True)
        normalised = centered * ((variance + self.eps) ** -0.5)
        return normalised * self.gain + self.bias

    def __repr__(self) -> str:
        return f"LayerNorm({self.num_features})"


class Dropout(Module):
    """Inverted dropout module (active only in training mode).

    Accepts a dense tensor or a constant sparse input (see
    :func:`~repro.nn.tensor.dropout`).
    """

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x):
        return dropout(x, self.p, training=self.training, rng=self._rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
