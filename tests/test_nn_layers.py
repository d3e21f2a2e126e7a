"""Linear / GCNConv / Dropout layer behaviour."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import nn
from repro.graph import gcn_normalize, make_sbm_graph


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestLinear:
    def test_shapes(self, rng):
        layer = nn.Linear(5, 3, rng=rng)
        out = layer(nn.Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_matches_manual_affine(self, rng):
        layer = nn.Linear(4, 2, rng=rng)
        x = rng.random((3, 4))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(nn.Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_glorot_scale(self, rng):
        layer = nn.Linear(100, 100, rng=rng)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= limit

    def test_repr(self, rng):
        assert "4 -> 2" in repr(nn.Linear(4, 2, rng=rng))


class TestGCNConv:
    def test_shapes(self, rng):
        graph = make_sbm_graph(20, 2, 8, 4.0, seed=1)
        adj = gcn_normalize(graph.adjacency)
        conv = nn.GCNConv(8, 5, rng=rng)
        out = conv(nn.Tensor(graph.features), adj)
        assert out.shape == (20, 5)

    def test_equals_dense_formula(self, rng):
        graph = make_sbm_graph(15, 2, 6, 4.0, seed=2)
        adj = gcn_normalize(graph.adjacency)
        conv = nn.GCNConv(6, 4, rng=rng)
        expected = adj.toarray() @ (graph.features @ conv.weight.data) + conv.bias.data
        np.testing.assert_allclose(
            conv(nn.Tensor(graph.features), adj).data, expected, rtol=1e-10
        )

    def test_isolated_node_gets_self_only(self, rng):
        # 3 nodes, node 2 isolated: with self loops its output is its own
        # projected feature scaled by 1 (degree 1).
        adj = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))
        norm = gcn_normalize(adj)
        conv = nn.GCNConv(2, 2, bias=False, rng=rng)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        out = conv(nn.Tensor(x), norm)
        np.testing.assert_allclose(out.data[2], x[2] @ conv.weight.data, rtol=1e-10)

    def test_node_count_mismatch_raises(self, rng):
        adj = gcn_normalize(sp.identity(4, format="csr"))
        conv = nn.GCNConv(3, 2, rng=rng)
        with pytest.raises(ValueError):
            conv(nn.Tensor(np.ones((5, 3))), adj)

    def test_gradients_flow_to_weight(self, rng):
        graph = make_sbm_graph(12, 2, 5, 3.0, seed=3)
        adj = gcn_normalize(graph.adjacency)
        conv = nn.GCNConv(5, 3, rng=rng)
        conv(nn.Tensor(graph.features), adj).sum().backward()
        assert conv.weight.grad is not None
        assert conv.bias.grad is not None

    def test_repr(self, rng):
        assert "5 -> 3" in repr(nn.GCNConv(5, 3, rng=rng))


class TestDropoutModule:
    def test_respects_training_flag(self, rng):
        layer = nn.Dropout(0.9, rng=rng)
        layer.training = False
        x = nn.Tensor(np.ones(100))
        assert layer(x) is x

    def test_drops_in_training(self, rng):
        layer = nn.Dropout(0.5, rng=rng)
        out = layer(nn.Tensor(np.ones(1000)))
        assert (out.data == 0).sum() > 300

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(-0.1)

    def test_repr(self):
        assert "0.5" in repr(nn.Dropout(0.5))


def _binary_features(rng, shape=(40, 30), density=0.1):
    return (rng.random(shape) < density).astype(np.float64)


class TestSparseInput:
    """A constant CSR input takes the dense path's values at stored entries."""

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_csr_dropout_matches_dense_bitwise(self, rng, p):
        dense = _binary_features(rng)
        csr = sp.csr_matrix(dense)
        dense_rng, sparse_rng = np.random.default_rng(5), np.random.default_rng(5)
        want = nn.dropout(nn.Tensor(dense), p, True, dense_rng).data
        got = nn.dropout(csr, p, True, sparse_rng)
        assert sp.isspmatrix_csr(got)
        # structure kept, only the values replaced
        np.testing.assert_array_equal(got.indptr, csr.indptr)
        np.testing.assert_array_equal(got.indices, csr.indices)
        rows, cols = csr.nonzero()
        assert got.data.tobytes() == want[rows, cols].tobytes()
        assert got.toarray().tobytes() == want.tobytes()
        assert dense_rng.bit_generator.state == sparse_rng.bit_generator.state

    def test_csr_dropout_identity_in_eval(self, rng):
        csr = sp.csr_matrix(_binary_features(rng))
        assert nn.dropout(csr, 0.5, False, rng) is csr
        layer = nn.Dropout(0.5, rng=rng)
        layer.training = False
        assert layer(csr) is csr

    @pytest.mark.parametrize("kind", ["gcn", "mlp"])
    def test_csr_forward_backward_matches_dense(self, rng, kind):
        from repro.models import GCNBackbone, MlpBackbone

        graph = make_sbm_graph(num_nodes=40, num_classes=3, num_features=30,
                               avg_degree=4.0, seed=1)
        adj = gcn_normalize(graph.adjacency)
        features = _binary_features(rng)
        cls = GCNBackbone if kind == "gcn" else MlpBackbone
        grads = []
        for dense in (True, False):
            model = cls(30, (16, 8, 3), dropout=0.5, seed=4)
            x = nn.Tensor(features) if dense else model.prepare_input(features)
            assert sp.issparse(x) != dense
            logits = model(x, adj)
            loss = nn.cross_entropy(logits, graph.labels)
            loss.backward()
            grads.append({name: param.grad
                          for name, param in model.named_parameters()})
        want, got = grads
        assert want.keys() == got.keys()
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12,
                                       atol=1e-15, err_msg=name)
