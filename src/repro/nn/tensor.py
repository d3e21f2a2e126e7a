"""Reverse-mode automatic differentiation on numpy arrays.

This module is the training substrate for the whole reproduction: the paper
trains its GCN backbones and rectifiers with PyTorch, which is not available
here, so we implement the minimal-but-complete tensor/autograd engine the
GNNVault algorithms require.

The design follows the classic tape-based approach:

* A :class:`Tensor` wraps a ``numpy.ndarray`` together with an optional
  gradient buffer and a closure that propagates gradients to its parents.
* Operations build a DAG; :meth:`Tensor.backward` topologically sorts the
  DAG and runs each node's backward closure exactly once.
* Broadcasting is supported for elementwise ops; gradients are un-broadcast
  by summing over the broadcast axes.

Sparse-dense products (the message-passing step ``Â @ H``) treat the sparse
matrix as a constant — its gradient is never needed because adjacency
matrices are data, not parameters.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

ArrayLike = Union[np.ndarray, float, int, Sequence]

_DEFAULT_DTYPE = np.float64


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a float numpy array of the engine's dtype."""
    arr = np.asarray(value)
    if arr.dtype != _DEFAULT_DTYPE:
        arr = arr.astype(_DEFAULT_DTYPE)
    return arr


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation.

    Parameters
    ----------
    data:
        Array-like initial value. Always stored as ``float64``.
    requires_grad:
        If True, gradients accumulate into :attr:`grad` during
        :meth:`backward`.
    parents:
        Tensors this node was computed from (autograd graph edges).
    backward_fn:
        Closure invoked with the node's output gradient; responsible for
        accumulating into each parent's ``grad``.
    name:
        Optional debug label.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar (size-1) tensor as a Python float."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph bookkeeping
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor. Defaults to
            1.0, which is only valid for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        order = self._topological_order()
        self._accumulate(grad)
        for node in order:
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def _topological_order(self) -> list:
        """Return graph nodes in reverse topological order (self first)."""
        order: list = []
        visited = set()
        # Iterative DFS to avoid recursion limits on deep graphs.
        stack: list = [(self, iter(self._parents))]
        visited.add(id(self))
        while stack:
            node, parents = stack[-1]
            advanced = False
            for parent in parents:
                if id(parent) not in visited:
                    visited.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return add(self, _ensure_tensor(other))

    __radd__ = __add__

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return add(self, _ensure_tensor(other) * -1.0)

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return add(_ensure_tensor(other), self * -1.0)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return mul(self, _ensure_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return mul(self, _ensure_tensor(other) ** -1.0)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return mul(_ensure_tensor(other), self ** -1.0)

    def __pow__(self, exponent: float) -> "Tensor":
        return power(self, float(exponent))

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    # ------------------------------------------------------------------
    # Reductions and reshapes (method sugar)
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        return reshape(self, shape)

    def transpose(self) -> "Tensor":
        return transpose(self)

    @property
    def T(self) -> "Tensor":
        return transpose(self)


def _ensure_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._backward_fn is not None for t in tensors)


def _make(
    data: np.ndarray, parents: Tuple[Tensor, ...], backward_fn: Callable[[np.ndarray], None]
) -> Tensor:
    """Create a graph node iff any parent participates in autograd."""
    if _needs_grad(*parents):
        return Tensor(data, parents=parents, backward_fn=backward_fn)
    return Tensor(data)


# ----------------------------------------------------------------------
# Primitive operations
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (broadcasting) addition."""
    out_data = a.data + b.data

    def backward_fn(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad, a.data.shape))
        b._accumulate(_unbroadcast(grad, b.data.shape))

    return _make(out_data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (broadcasting) multiplication."""
    out_data = a.data * b.data

    def backward_fn(grad: np.ndarray) -> None:
        if _needs_grad(a):
            a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
        if _needs_grad(b):
            b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

    return _make(out_data, (a, b), backward_fn)


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with constant exponent."""
    out_data = a.data**exponent

    def backward_fn(grad: np.ndarray) -> None:
        a._accumulate(grad * exponent * a.data ** (exponent - 1.0))

    return _make(out_data, (a,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Dense matrix product ``a @ b`` for 2-D operands."""
    out_data = a.data @ b.data

    def backward_fn(grad: np.ndarray) -> None:
        # A constant operand (e.g. the input feature matrix) needs no
        # gradient; skipping it saves a full-size product per step.
        if _needs_grad(a):
            a._accumulate(grad @ b.data.T)
        if _needs_grad(b):
            b._accumulate(a.data.T @ grad)

    return _make(out_data, (a, b), backward_fn)


def sparse_matmul(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """Product of a constant sparse matrix with a dense tensor.

    This is the GNN message-passing primitive ``Â @ H``, and the first
    layer's projection ``X @ W`` when the input features are fed sparse.
    The sparse operand carries no gradient (adjacency and features are
    data); the gradient w.r.t. ``x`` is ``Âᵀ @ grad``.
    """
    csr = matrix.tocsr()
    out_data = csr @ x.data

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(csr.T @ grad)

    return _make(out_data, (x,), backward_fn)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = x.data > 0
    out_data = x.data * mask

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return _make(out_data, (x,), backward_fn)


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    out_data = np.exp(x.data)

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * out_data)

    return _make(out_data, (x,), backward_fn)


def log(x: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    out_data = np.log(x.data)

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad / x.data)

    return _make(out_data, (x,), backward_fn)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    out_data = np.tanh(x.data)

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - out_data**2))

    return _make(out_data, (x,), backward_fn)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * out_data * (1.0 - out_data))

    return _make(out_data, (x,), backward_fn)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU (used by the GAT extension)."""
    mask = x.data > 0
    scale = np.where(mask, 1.0, negative_slope)
    out_data = x.data * scale

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * scale)

    return _make(out_data, (x,), backward_fn)


def tensor_sum(
    x: Tensor, axis: Optional[int] = None, keepdims: bool = False
) -> Tensor:
    """Sum reduction."""
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(grad: np.ndarray) -> None:
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.data.shape).copy())

    return _make(np.asarray(out_data, dtype=_DEFAULT_DTYPE), (x,), backward_fn)


def tensor_mean(
    x: Tensor, axis: Optional[int] = None, keepdims: bool = False
) -> Tensor:
    """Mean reduction."""
    if axis is None:
        count = x.data.size
    else:
        count = x.data.shape[axis]
    return tensor_sum(x, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(x: Tensor, shape: Iterable[int]) -> Tensor:
    """Reshape preserving autograd."""
    shape = tuple(shape)
    out_data = x.data.reshape(shape)

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad.reshape(x.data.shape))

    return _make(out_data, (x,), backward_fn)


def transpose(x: Tensor) -> Tensor:
    """2-D transpose."""
    out_data = x.data.T

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad.T)

    return _make(out_data, (x,), backward_fn)


def concatenate(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` (the cascaded-rectifier input op)."""
    if not tensors:
        raise ValueError("concatenate() requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return _make(out_data, tuple(tensors), backward_fn)


def take_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows ``x[indices]`` with gradient scatter-add."""
    indices = np.asarray(indices)
    out_data = x.data[indices]

    def backward_fn(grad: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        np.add.at(full, indices, grad)
        x._accumulate(full)

    return _make(out_data, (x,), backward_fn)


def log_softmax(x: Tensor, axis: int = 1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    softmax = np.exp(out_data)

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

    return _make(out_data, (x,), backward_fn)


def softmax(x: Tensor, axis: int = 1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return exp(log_softmax(x, axis=axis))


def dropout(x, p: float, training: bool, rng: Optional[np.random.Generator] = None):
    """Inverted dropout: zero activations with probability ``p`` at train time.

    ``x`` may also be a constant ``scipy.sparse`` matrix (a model's input
    features). The same full-shape uniform draw is taken, so the generator
    stream and the kept positions match the dense path, but thresholding
    and scaling touch only the stored entries: the result is a CSR matrix
    with ``x``'s structure whose values are bitwise the dense path's at
    those positions (dropped entries are stored as explicit zeros).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = rng if rng is not None else np.random.default_rng()
    if sp.issparse(x):
        csr = x.tocsr()
        draw = rng.random(csr.shape)
        rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
        scale = (draw[rows, csr.indices] >= p) / (1.0 - p)
        return sp.csr_matrix(
            (csr.data * scale, csr.indices, csr.indptr), shape=csr.shape
        )
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    out_data = x.data * mask

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return _make(out_data, (x,), backward_fn)
