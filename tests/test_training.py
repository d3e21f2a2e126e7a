"""Training loop tests: convergence, early stopping, frozen-backbone rule."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.datasets import per_class_split
from repro.graph import gcn_normalize
from repro.models import GCNBackbone, make_rectifier
from repro.training import (
    TrainConfig,
    accuracy,
    confusion_matrix,
    train_node_classifier,
    train_rectifier,
)


class TestMetrics:
    def test_accuracy_from_labels(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_accuracy_from_logits(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_accuracy_with_index(self):
        preds = np.array([0, 1, 0, 1])
        labels = np.array([0, 0, 0, 0])
        assert accuracy(preds, labels, index=np.array([0, 2])) == 1.0

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_confusion_matrix(self):
        cm = confusion_matrix(np.array([0, 1, 1]), np.array([0, 0, 1]), 2)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])

    def test_confusion_matrix_from_logits(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        cm = confusion_matrix(logits, np.array([0, 1]), 2)
        np.testing.assert_array_equal(cm, np.eye(2))


class TestTrainConfig:
    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_rejects_zero_patience(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=0)


class TestTrainNodeClassifier:
    def test_learns_tiny_graph(self, tiny_graph, tiny_split):
        adj = gcn_normalize(tiny_graph.adjacency)
        model = GCNBackbone(tiny_graph.num_features, (16, 3), seed=0)
        result = train_node_classifier(
            model, tiny_graph.features, adj, tiny_graph.labels, tiny_split,
            TrainConfig(epochs=60, patience=30),
        )
        assert result.test_accuracy > 0.6
        assert result.loss_history[-1] < result.loss_history[0]

    def test_early_stopping_triggers(self, tiny_graph, tiny_split):
        adj = gcn_normalize(tiny_graph.adjacency)
        model = GCNBackbone(tiny_graph.num_features, (16, 3), seed=0)
        result = train_node_classifier(
            model, tiny_graph.features, adj, tiny_graph.labels, tiny_split,
            TrainConfig(epochs=500, patience=5),
        )
        assert result.epochs_run < 500

    def test_restores_best_weights(self, tiny_graph, tiny_split):
        adj = gcn_normalize(tiny_graph.adjacency)
        model = GCNBackbone(tiny_graph.num_features, (16, 3), seed=0)
        result = train_node_classifier(
            model, tiny_graph.features, adj, tiny_graph.labels, tiny_split,
            TrainConfig(epochs=40, patience=40),
        )
        model.eval()
        from repro import nn

        val_acc = accuracy(
            model(nn.Tensor(tiny_graph.features), adj).data,
            tiny_graph.labels,
            tiny_split.val,
        )
        assert val_acc == pytest.approx(result.best_val_accuracy)

    def test_histories_recorded(self, tiny_graph, tiny_split):
        adj = gcn_normalize(tiny_graph.adjacency)
        model = GCNBackbone(tiny_graph.num_features, (8, 3), seed=0)
        result = train_node_classifier(
            model, tiny_graph.features, adj, tiny_graph.labels, tiny_split,
            TrainConfig(epochs=10, patience=10),
        )
        assert len(result.loss_history) == result.epochs_run
        assert len(result.val_history) == result.epochs_run

    def test_model_left_in_eval_mode(self, tiny_graph, tiny_split):
        adj = gcn_normalize(tiny_graph.adjacency)
        model = GCNBackbone(tiny_graph.num_features, (8, 3), seed=0)
        train_node_classifier(
            model, tiny_graph.features, adj, tiny_graph.labels, tiny_split,
            TrainConfig(epochs=5, patience=5),
        )
        assert not model.training


class TestSparseInputTraining:
    """GCN/MLP backbones train on CSR input: same weights up to rounding."""

    @staticmethod
    def _run(monkeypatch, dataset, seed, dense):
        from repro.experiments import run_gnnvault
        from repro.models import MlpBackbone

        with monkeypatch.context() as patch:
            if dense:
                for cls in (GCNBackbone, MlpBackbone):
                    patch.setattr(cls, "prepare_input", nn.Module.prepare_input)
            return run_gnnvault(
                dataset=dataset, seed=seed, schemes=("series",),
                train_config=TrainConfig(epochs=60, patience=60),
                train_original=False,
            )

    @staticmethod
    def _labels(run):
        backbone_layers = run.backbone_embeddings()
        rectifier = run.rectifiers["series"]
        rectifier.eval()
        logits = rectifier(
            [nn.Tensor(e) for e in backbone_layers],
            run.graph.normalized_adjacency(),
        ).data
        return backbone_layers[-1].argmax(axis=1), logits.argmax(axis=1)

    @pytest.mark.parametrize(
        "dataset,seed",
        [("cora", 1), ("cora", 2), ("citeseer", 1), ("citeseer", 2)],
    )
    def test_trained_weights_agreement(self, monkeypatch, dataset, seed):
        dense = self._run(monkeypatch, dataset, seed, dense=True)
        sparse = self._run(monkeypatch, dataset, seed, dense=False)
        for want_model, got_model in (
            (dense.backbone, sparse.backbone),
            (dense.rectifiers["series"], sparse.rectifiers["series"]),
        ):
            want, got = want_model.state_dict(), got_model.state_dict()
            assert want.keys() == got.keys()
            for name in want:
                np.testing.assert_allclose(got[name], want[name], rtol=0,
                                           atol=1e-9, err_msg=name)
        assert sparse.p_bb == dense.p_bb
        assert sparse.p_rec == dense.p_rec
        for want_labels, got_labels in zip(self._labels(dense),
                                           self._labels(sparse)):
            assert np.mean(want_labels == got_labels) == 1.0

    def test_no_dense_product_touches_the_feature_matrix(self, monkeypatch):
        from repro.graph import make_sbm_graph
        from repro.nn import tensor as tensor_module

        graph = make_sbm_graph(num_nodes=90, num_classes=3, num_features=70,
                               avg_degree=5.0, seed=3)
        split = per_class_split(graph.labels, train_per_class=8, seed=0)
        adj = gcn_normalize(graph.adjacency)
        full = (graph.num_nodes, graph.num_features)

        def operand_shapes(model):
            shapes = []
            dense_matmul = tensor_module.matmul

            def recording(a, b):
                shapes.extend((a.shape, b.shape))
                return dense_matmul(a, b)

            with monkeypatch.context() as patch:
                patch.setattr(tensor_module, "matmul", recording)
                train_node_classifier(
                    model, graph.features, adj, graph.labels, split,
                    TrainConfig(epochs=5, patience=5),
                )
            return shapes

        sparse_shapes = operand_shapes(GCNBackbone(70, (16, 3), seed=0))
        assert sparse_shapes and full not in sparse_shapes
        # the recorder does see the n x d operand when the input is dense
        dense_model = GCNBackbone(70, (16, 3), seed=0)
        monkeypatch.setattr(dense_model, "prepare_input", nn.Tensor)
        assert full in operand_shapes(dense_model)


class TestTrainRectifier:
    def _trained_backbone(self, graph, split, adj):
        backbone = GCNBackbone(graph.num_features, (16, 8, 3), seed=0)
        train_node_classifier(
            backbone, graph.features, adj, graph.labels, split,
            TrainConfig(epochs=40, patience=20),
        )
        return backbone

    def test_backbone_weights_untouched(self, tiny_graph, tiny_split):
        from repro.substitute import KnnGraphBuilder

        sub_adj = gcn_normalize(KnnGraphBuilder(2)(tiny_graph.features))
        real_adj = gcn_normalize(tiny_graph.adjacency)
        backbone = self._trained_backbone(tiny_graph, tiny_split, sub_adj)
        before = backbone.state_dict()
        rectifier = make_rectifier("parallel", (16, 8, 3), (16, 8, 3), seed=1)
        train_rectifier(
            rectifier, backbone, tiny_graph.features, sub_adj, real_adj,
            tiny_graph.labels, tiny_split, TrainConfig(epochs=30, patience=15),
        )
        after = backbone.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_rectifier_improves_on_backbone(self, tiny_graph, tiny_split):
        """The core GNNVault claim at miniature scale: real edges help."""
        from repro.substitute import RandomGraphBuilder

        # deliberately bad substitute so the backbone underperforms
        sub = RandomGraphBuilder(num_edges=tiny_graph.num_edges, seed=0)(
            tiny_graph.features
        )
        sub_adj = gcn_normalize(sub)
        real_adj = gcn_normalize(tiny_graph.adjacency)
        backbone = self._trained_backbone(tiny_graph, tiny_split, sub_adj)
        from repro import nn

        backbone.eval()
        p_bb = accuracy(
            backbone(nn.Tensor(tiny_graph.features), sub_adj).data,
            tiny_graph.labels,
            tiny_split.test,
        )
        rectifier = make_rectifier("parallel", (16, 8, 3), (16, 8, 3), seed=1)
        result = train_rectifier(
            rectifier, backbone, tiny_graph.features, sub_adj, real_adj,
            tiny_graph.labels, tiny_split, TrainConfig(epochs=60, patience=30),
        )
        assert result.test_accuracy > p_bb

    @pytest.mark.parametrize("scheme", ["parallel", "series", "cascaded"])
    def test_all_schemes_train(self, tiny_graph, tiny_split, scheme):
        from repro.substitute import KnnGraphBuilder

        sub_adj = gcn_normalize(KnnGraphBuilder(2)(tiny_graph.features))
        real_adj = gcn_normalize(tiny_graph.adjacency)
        backbone = self._trained_backbone(tiny_graph, tiny_split, sub_adj)
        rectifier = make_rectifier(scheme, (16, 8, 3), (16, 8, 3), seed=1)
        result = train_rectifier(
            rectifier, backbone, tiny_graph.features, sub_adj, real_adj,
            tiny_graph.labels, tiny_split, TrainConfig(epochs=40, patience=20),
        )
        assert result.test_accuracy > 0.5
