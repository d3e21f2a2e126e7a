"""Autograd engine tests: every op's gradient against finite differences."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import nn
from repro.nn.tensor import _unbroadcast


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x)
        flat[i] = original - eps
        lower = fn(x)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


def check_unary(op, x_data, loss_weight=None):
    """Assert autograd gradient of sum(w * op(x)) matches finite differences."""
    weight = (
        loss_weight
        if loss_weight is not None
        else np.random.default_rng(0).random(op(nn.Tensor(x_data)).shape)
    )

    def scalar_fn(data):
        return float((op(nn.Tensor(data)).data * weight).sum())

    x = nn.Tensor(x_data.copy(), requires_grad=True)
    out = op(x)
    out.backward(weight)
    expected = numerical_gradient(scalar_fn, x_data.copy())
    np.testing.assert_allclose(x.grad, expected, rtol=1e-4, atol=1e-6)


class TestBasicOps:
    def test_add_forward(self):
        out = nn.Tensor([1.0, 2.0]) + nn.Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_gradient(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        b = nn.Tensor([3.0, 4.0], requires_grad=True)
        (a + b).backward([1.0, 1.0])
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_add_broadcast_gradient(self):
        a = nn.Tensor(np.ones((3, 4)), requires_grad=True)
        b = nn.Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_array_equal(b.grad, [3.0] * 4)

    def test_mul_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.random((4, 3))
        y = rng.random((4, 3))
        a = nn.Tensor(x, requires_grad=True)
        b = nn.Tensor(y, requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, y)
        np.testing.assert_allclose(b.grad, x)

    def test_scalar_operators(self):
        a = nn.Tensor([2.0], requires_grad=True)
        out = (3.0 * a - 1.0) / 2.0 + 5.0
        assert out.data[0] == pytest.approx(7.5)
        out.backward([1.0])
        assert a.grad[0] == pytest.approx(1.5)

    def test_neg(self):
        a = nn.Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_array_equal(a.grad, [-1.0, -1.0])

    def test_power_gradient(self):
        rng = np.random.default_rng(2)
        check_unary(lambda t: t**3.0, rng.random((3, 3)) + 0.5)

    def test_division_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.random((3, 2)) + 1.0
        a = nn.Tensor(x, requires_grad=True)
        (1.0 / a).sum().backward()
        np.testing.assert_allclose(a.grad, -1.0 / x**2, rtol=1e-10)

    def test_rsub(self):
        a = nn.Tensor([1.0], requires_grad=True)
        (5.0 - a).backward([1.0])
        assert a.grad[0] == pytest.approx(-1.0)


class TestMatmul:
    def test_forward(self):
        a = nn.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = nn.Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal((a @ b).data, [[3.0], [7.0]])

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x, w = rng.random((5, 3)), rng.random((3, 2))
        a = nn.Tensor(x, requires_grad=True)
        b = nn.Tensor(w, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((5, 2)) @ w.T)
        np.testing.assert_allclose(b.grad, x.T @ np.ones((5, 2)))

    @pytest.mark.parametrize("op", ["matmul", "mul"])
    def test_constant_operand_gets_no_gradient(self, op):
        """A constant left operand is skipped in backward; the weight's
        gradient is bitwise the one computed when both operands track."""
        rng = np.random.default_rng(8)
        x = rng.random((7, 5))
        w = rng.random((5, 3)) if op == "matmul" else rng.random((7, 5))
        apply = (lambda a, b: a @ b) if op == "matmul" else (lambda a, b: a * b)
        grads = []
        for track in (False, True):
            a = nn.Tensor(x, requires_grad=track)
            b = nn.Tensor(w, requires_grad=True)
            (apply(a, b) ** 2.0).sum().backward()
            grads.append((a.grad, b.grad))
        (const_a, const_w), (tracked_a, tracked_w) = grads
        assert const_a is None
        assert tracked_a is not None
        assert const_w.tobytes() == tracked_w.tobytes()

    def test_chain_through_two_matmuls(self):
        rng = np.random.default_rng(5)
        x = rng.random((4, 3))
        w1 = nn.Tensor(rng.random((3, 3)), requires_grad=True)
        w2 = nn.Tensor(rng.random((3, 2)), requires_grad=True)
        out = (nn.Tensor(x) @ w1) @ w2
        out.sum().backward()
        assert w1.grad.shape == (3, 3)
        assert w2.grad.shape == (3, 2)

    def test_sparse_matmul_forward(self):
        adj = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x = nn.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nn.sparse_matmul(adj, x)
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [1.0, 2.0]])

    def test_sparse_matmul_gradient(self):
        rng = np.random.default_rng(6)
        dense = rng.random((6, 6)) * (rng.random((6, 6)) > 0.5)
        adj = sp.csr_matrix(dense)
        x_data = rng.random((6, 3))
        x = nn.Tensor(x_data, requires_grad=True)
        weight = rng.random((6, 3))
        nn.sparse_matmul(adj, x).backward(weight)
        np.testing.assert_allclose(x.grad, dense.T @ weight, rtol=1e-10)


class TestActivations:
    def test_relu_forward(self):
        out = nn.relu(nn.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize(
        "op",
        [nn.relu, nn.exp, nn.tanh, nn.sigmoid, lambda t: nn.leaky_relu(t, 0.2)],
        ids=["relu", "exp", "tanh", "sigmoid", "leaky_relu"],
    )
    def test_unary_gradients(self, op):
        rng = np.random.default_rng(7)
        # avoid the ReLU kink at exactly 0
        x = rng.random((4, 3)) + 0.1
        check_unary(op, x)

    def test_log_gradient(self):
        rng = np.random.default_rng(8)
        check_unary(nn.log, rng.random((3, 3)) + 0.5)

    def test_leaky_relu_negative_slope(self):
        out = nn.leaky_relu(nn.Tensor([-10.0]), 0.2)
        assert out.data[0] == pytest.approx(-2.0)


class TestSoftmax:
    def test_log_softmax_rows_normalise(self):
        rng = np.random.default_rng(9)
        out = nn.log_softmax(nn.Tensor(rng.random((5, 4))), axis=1)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), np.ones(5))

    def test_log_softmax_stability(self):
        out = nn.log_softmax(nn.Tensor([[1e6, 1e6 + 1.0]]), axis=1)
        assert np.all(np.isfinite(out.data))

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(10)
        check_unary(lambda t: nn.log_softmax(t, axis=1), rng.random((4, 5)))

    def test_softmax_gradient(self):
        rng = np.random.default_rng(11)
        check_unary(lambda t: nn.softmax(t, axis=1), rng.random((3, 4)))


class TestReductionsAndShapes:
    def test_sum_all(self):
        x = nn.Tensor(np.ones((3, 4)), requires_grad=True)
        total = x.sum()
        assert total.item() == pytest.approx(12.0)
        total.backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_axis(self):
        x = nn.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum(axis=0).backward([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(x.grad, [[1.0, 2.0, 3.0]] * 2)

    def test_sum_axis_keepdims(self):
        x = nn.Tensor(np.ones((2, 3)), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.backward(np.ones((2, 1)))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_mean_gradient(self):
        x = nn.Tensor(np.ones((4,)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, [0.25] * 4)

    def test_reshape_roundtrip_gradient(self):
        x = nn.Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones(6))

    def test_transpose_gradient(self):
        x = nn.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        weight = np.arange(6.0).reshape(3, 2)
        x.T.backward(weight)
        np.testing.assert_array_equal(x.grad, weight.T)

    def test_concatenate_forward_and_gradient(self):
        a = nn.Tensor(np.ones((2, 2)), requires_grad=True)
        b = nn.Tensor(2 * np.ones((2, 3)), requires_grad=True)
        out = nn.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        grad = np.arange(10.0).reshape(2, 5)
        out.backward(grad)
        np.testing.assert_array_equal(a.grad, grad[:, :2])
        np.testing.assert_array_equal(b.grad, grad[:, 2:])

    def test_concatenate_empty_raises(self):
        with pytest.raises(ValueError):
            nn.concatenate([])

    def test_take_rows_gradient_scatter_adds(self):
        x = nn.Tensor(np.zeros((4, 2)), requires_grad=True)
        nn.take_rows(x, np.array([0, 0, 3])).sum().backward()
        np.testing.assert_array_equal(x.grad, [[2, 2], [0, 0], [0, 0], [1, 1]])


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = nn.Tensor(np.ones((10, 10)))
        out = nn.dropout(x, 0.5, training=False)
        assert out is x

    def test_zero_probability_is_identity(self):
        x = nn.Tensor(np.ones((5, 5)))
        assert nn.dropout(x, 0.0, training=True) is x

    def test_train_mode_scales_survivors(self):
        rng = np.random.default_rng(12)
        x = nn.Tensor(np.ones((2000,)))
        out = nn.dropout(x, 0.5, training=True, rng=rng)
        survivors = out.data[out.data > 0]
        np.testing.assert_allclose(survivors, 2.0)
        # inverted dropout keeps the expectation
        assert out.data.mean() == pytest.approx(1.0, abs=0.1)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.dropout(nn.Tensor([1.0]), 1.0, training=True)

    def test_gradient_masks_match_forward(self):
        rng = np.random.default_rng(13)
        x = nn.Tensor(np.ones((100,)), requires_grad=True)
        out = nn.dropout(x, 0.3, training=True, rng=rng)
        out.sum().backward()
        np.testing.assert_allclose((out.data > 0).astype(float) / 0.7, x.grad)


class TestBackwardMechanics:
    def test_backward_requires_scalar_without_grad(self):
        with pytest.raises(ValueError):
            nn.Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_backward_shape_mismatch(self):
        x = nn.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            x.backward(np.ones(3))

    def test_gradient_accumulates_across_uses(self):
        x = nn.Tensor([1.0], requires_grad=True)
        (x + x).backward([1.0])
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_diamond_graph(self):
        x = nn.Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        (a + b).backward([1.0])
        assert x.grad[0] == pytest.approx(7.0)

    def test_zero_grad(self):
        x = nn.Tensor([1.0], requires_grad=True)
        (x * 2.0).backward([1.0])
        x.zero_grad()
        assert x.grad is None

    def test_detach_cuts_graph(self):
        x = nn.Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach()
        z = nn.Tensor([1.0], requires_grad=True)
        (y * z).backward([1.0])
        assert x.grad is None
        assert z.grad[0] == pytest.approx(2.0)

    def test_no_graph_without_requires_grad(self):
        out = nn.Tensor([1.0]) * nn.Tensor([2.0])
        assert out._backward_fn is None

    def test_deep_chain_no_recursion_error(self):
        x = nn.Tensor([1.0], requires_grad=True)
        out = x
        for _ in range(3000):
            out = out + 0.0
        out.backward([1.0])
        assert x.grad[0] == pytest.approx(1.0)

    def test_repr(self):
        t = nn.Tensor(np.ones((2, 3)), requires_grad=True, name="w")
        assert "2, 3" in repr(t) and "w" in repr(t)

    def test_item_and_len(self):
        assert nn.Tensor([[5.0]]).item() == 5.0
        assert len(nn.Tensor(np.zeros((7, 2)))) == 7


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 4))
        assert _unbroadcast(g, (3, 4)) is g

    def test_leading_axis(self):
        g = np.ones((5, 3))
        np.testing.assert_array_equal(_unbroadcast(g, (3,)), [5.0] * 3)

    def test_size_one_axis(self):
        g = np.ones((3, 4))
        out = _unbroadcast(g, (3, 1))
        np.testing.assert_array_equal(out, [[4.0]] * 3)

    def test_scalar_target(self):
        g = np.ones((2, 2))
        assert _unbroadcast(g, ()) == pytest.approx(4.0)
