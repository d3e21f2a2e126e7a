"""Deployment tests: partition planning and the secure inference session."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.deploy import (
    SecureInferenceSession,
    enclave_budget,
    model_compute_seconds,
    plan_deployment,
)
from repro.deploy.partition import coo_memory_bytes, enclave_budget_analytic
from repro.errors import EnclaveMemoryError
from repro.graph import CooAdjacency
from repro.models import GCNBackbone, MlpBackbone
from repro.tee import DEFAULT_COST_MODEL


@pytest.fixture
def deployment(trained_vault):
    run = trained_vault
    return SecureInferenceSession(
        backbone=run.backbone,
        rectifier=run.rectifiers["parallel"],
        substitute_adjacency=run.substitute,
        private_adjacency=run.graph.adjacency,
    )


class TestPlanDeployment:
    def test_basic_plan(self, trained_vault):
        run = trained_vault
        plan = plan_deployment(
            run.backbone,
            run.rectifiers["parallel"],
            run.substitute,
            run.graph.adjacency,
        )
        assert plan.untrusted_parameter_count == run.backbone.num_parameters()
        assert plan.trusted_parameter_count == run.rectifiers["parallel"].num_parameters()
        assert plan.private_edges == run.graph.num_edges
        assert 0 < plan.parameter_ratio

    def test_mismatched_graphs_rejected(self, trained_vault):
        run = trained_vault
        with pytest.raises(ValueError):
            plan_deployment(
                run.backbone,
                run.rectifiers["parallel"],
                CooAdjacency.empty(5),
                run.graph.adjacency,
            )

    def test_require_fit_raises_when_too_big(self, trained_vault):
        run = trained_vault
        with pytest.raises(EnclaveMemoryError):
            plan_deployment(
                run.backbone,
                run.rectifiers["parallel"],
                run.substitute,
                run.graph.adjacency,
                epc_bytes=1024,
                require_fit=True,
            )

    def test_budget_components(self, trained_vault):
        run = trained_vault
        rect = run.rectifiers["parallel"]
        budget = enclave_budget(rect, run.graph.adjacency, run.graph.num_nodes)
        parts = budget.as_dict()
        assert parts["model"] == rect.num_parameters() * 8
        assert parts["adjacency"] == run.graph.adjacency.memory_bytes()
        assert budget.total_bytes == sum(parts.values())
        assert budget.fits_epc()

    def test_series_budget_smaller_than_parallel(self, trained_vault):
        run = trained_vault
        n = run.graph.num_nodes
        parallel = enclave_budget(run.rectifiers["parallel"], run.graph.adjacency, n)
        series = enclave_budget(run.rectifiers["series"], run.graph.adjacency, n)
        assert series.total_bytes < parallel.total_bytes

    def test_analytic_matches_materialised(self, trained_vault):
        run = trained_vault
        rect = run.rectifiers["cascaded"]
        n = run.graph.num_nodes
        materialised = enclave_budget(rect, run.graph.adjacency, n)
        analytic = enclave_budget_analytic(
            rect, n, run.graph.adjacency.memory_bytes()
        )
        assert materialised == analytic

    def test_float32_halves_budget(self, trained_vault):
        run = trained_vault
        rect = run.rectifiers["parallel"]
        n = run.graph.num_nodes
        f64 = enclave_budget_analytic(rect, n, 0, float_bytes=8)
        f32 = enclave_budget_analytic(rect, n, 0, float_bytes=4)
        assert f32.total_bytes * 2 == f64.total_bytes

    def test_coo_memory_bytes_matches_class(self, trained_vault):
        adj = trained_vault.graph.adjacency
        assert coo_memory_bytes(adj.num_entries, adj.num_nodes) == adj.memory_bytes()


class TestModelComputeSeconds:
    def test_gcn_charges_spmm(self):
        gcn = GCNBackbone(16, (8, 4), seed=0)
        mlp = MlpBackbone(16, (8, 4), seed=0)
        t_gcn = model_compute_seconds(gcn, 100, 1000, DEFAULT_COST_MODEL)
        t_mlp = model_compute_seconds(mlp, 100, 1000, DEFAULT_COST_MODEL)
        assert t_gcn > t_mlp

    def test_scales_with_nodes(self):
        gcn = GCNBackbone(16, (8, 4), seed=0)
        assert model_compute_seconds(gcn, 200, 100, DEFAULT_COST_MODEL) > (
            model_compute_seconds(gcn, 100, 100, DEFAULT_COST_MODEL)
        )


class TestSecureInferenceSession:
    def test_predictions_match_rectifier(self, deployment, trained_vault):
        run = trained_vault
        labels, profile = deployment.predict(run.graph.features)
        rect = run.rectifiers["parallel"]
        embeddings = run.backbone_embeddings()
        expected = rect.predict(embeddings, run.graph.normalized_adjacency())
        np.testing.assert_array_equal(labels, expected)

    def test_label_only_output(self, deployment, trained_vault):
        labels, _ = deployment.predict(trained_vault.graph.features)
        assert labels.dtype.kind == "i"
        assert labels.ndim == 1

    def test_profile_breakdown(self, deployment, trained_vault):
        _, profile = deployment.predict(trained_vault.graph.features)
        assert profile.backbone_seconds > 0
        assert profile.transfer_seconds > 0
        assert profile.enclave_seconds > 0
        assert profile.total_seconds == pytest.approx(
            sum(profile.breakdown().values())
        )
        assert profile.payload_bytes > 0
        assert profile.peak_enclave_memory_mb > 0

    def test_wrong_feature_count_rejected(self, deployment):
        with pytest.raises(ValueError):
            deployment.predict(np.ones((3, 5)))

    def test_secure_accuracy_close_to_direct(self, deployment, trained_vault):
        """End-to-end secure path preserves the rectifier's accuracy."""
        run = trained_vault
        labels, _ = deployment.predict(run.graph.features)
        test = run.split.test
        accuracy = (labels[test] == run.graph.labels[test]).mean()
        assert accuracy == pytest.approx(run.p_rec["parallel"], abs=1e-9)

    def test_series_session_transfers_less(self, trained_vault):
        run = trained_vault
        parallel = SecureInferenceSession(
            run.backbone, run.rectifiers["parallel"], run.substitute,
            run.graph.adjacency,
        )
        series = SecureInferenceSession(
            run.backbone, run.rectifiers["series"], run.substitute,
            run.graph.adjacency,
        )
        _, p_profile = parallel.predict(run.graph.features)
        _, s_profile = series.predict(run.graph.features)
        assert s_profile.payload_bytes < p_profile.payload_bytes
        assert s_profile.transfer_seconds < p_profile.transfer_seconds

    def test_overhead_vs_baseline(self, deployment, trained_vault):
        run = trained_vault
        _, profile = deployment.predict(run.graph.features)
        baseline = deployment.unprotected_baseline_seconds(
            run.original, run.graph.adjacency.num_entries
        )
        assert profile.overhead_vs(baseline) > 0  # protection costs something

    def test_overhead_rejects_bad_baseline(self, deployment, trained_vault):
        _, profile = deployment.predict(trained_vault.graph.features)
        with pytest.raises(ValueError):
            profile.overhead_vs(0.0)

    def test_adversary_view_excludes_secrets(self, deployment):
        view = deployment.adversary_view()
        assert "backbone_state" in view
        assert "substitute_adjacency" in view
        # nothing rectifier- or private-graph-shaped leaks
        assert all(
            "rectifier" not in key and "private" not in key for key in view
        )

    def test_repeated_queries_consistent(self, deployment, trained_vault):
        a, _ = deployment.predict(trained_vault.graph.features)
        b, _ = deployment.predict(trained_vault.graph.features)
        np.testing.assert_array_equal(a, b)


def test_serving_import_does_not_load_scipy_stats():
    """``scipy.stats`` (~0.6 s, ~50 MB) is for attack scoring only; the
    serving stack must not pay for it at import time."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, repro.deploy; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert out.stdout.strip() == "[]"
