"""Command-line interface for the GNNVault reproduction.

Subcommands mirror the lifecycle a user of the library walks through:

* ``repro datasets``              — list the paper's datasets (Table I);
* ``repro train``                 — train GNNVault and export a bundle;
* ``repro predict``               — serve queries from an exported bundle;
* ``repro attack``                — run the link stealing audit;
* ``repro experiment``            — regenerate a paper table/figure;
* ``repro metrics``               — serve a workload, export metrics (prom/jsonl);
* ``repro trace``                 — serve a workload, dump query traces (jsonl/prom);
* ``repro health``                — serve a workload, evaluate SLOs; exit code
  reflects the verdict (0 healthy, 1 violated, 2 no data) for CI/liveness probes;
* ``repro dashboard``             — serve a workload, render the static HTML
  operator dashboard;
* ``repro chaos``                 — serve a workload under injected enclave
  faults (mid-stream kill, EPC pressure, payload corruption) and verify
  crash recovery answers every query with labels identical to a fault-free
  baseline (exit 0 pass / 1 fail).

Every subcommand prints plain text and returns a process exit code, so the
CLI is scriptable in CI pipelines.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .experiments import render_table1, run_table1

    print(render_table1(run_table1()))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .experiments import run_gnnvault
    from .io import export_bundle, save_graph
    from .training import TrainConfig

    config = TrainConfig(epochs=args.epochs, patience=args.patience, lr=args.lr)
    print(f"training GNNVault ({args.scheme}) on {args.dataset}...")
    run = run_gnnvault(
        dataset=args.dataset,
        schemes=(args.scheme,),
        substitute_kind=args.substitute,
        knn_k=args.knn_k,
        seed=args.seed,
        train_config=config,
    )
    print(f"p_org = {100 * run.p_org:.1f}%  p_bb = {100 * run.p_bb:.1f}%  "
          f"p_rec = {100 * run.p_rec[args.scheme]:.1f}%  "
          f"(dp = +{100 * run.protection(args.scheme):.1f} pts)")
    if args.output:
        bundle = export_bundle(
            args.output,
            run.backbone,
            run.rectifiers[args.scheme],
            run.substitute,
            run.graph.adjacency,
        )
        save_graph(run.graph, bundle.directory / "dataset.npz")
        print(f"bundle exported to {bundle.directory}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from .io import import_bundle, load_graph

    session = import_bundle(args.bundle)
    graph = load_graph(args.graph)
    if args.nodes:
        labels, profile = session.predict_nodes(graph.features, args.nodes)
        for node, label in zip(args.nodes, labels):
            print(f"node {node}: class {label}")
    else:
        labels, profile = session.predict(graph.features)
        print(f"predicted {labels.shape[0]} labels "
              f"(class histogram: {np.bincount(labels).tolist()})")
    print(f"cost: backbone {1e3 * profile.backbone_seconds:.2f} ms, "
          f"transfer {1e3 * profile.transfer_seconds:.3f} ms, "
          f"enclave {1e3 * profile.enclave_seconds:.2f} ms, "
          f"peak enclave memory {profile.peak_enclave_memory_mb:.2f} MB")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from .experiments import render_table4, run_table4

    rows = run_table4(
        datasets=tuple(args.datasets), num_pairs=args.pairs, seed=args.seed
    )
    print(render_table4(rows))
    worst_gap = max(
        row.m_gv[m] - row.m_base[m] for row in rows for m in row.m_gv
    )
    print(f"worst GNNVault-vs-baseline AUC gap: {worst_gap:+.3f}")
    return 0 if worst_gap < args.tolerance else 1


def _cmd_calibration(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .datasets import check_all

    checks = check_all(seed=args.seed)
    print(
        render_table(
            ["dataset", "target hom", "real hom", "sub hom", "mean deg",
             "mixing", "healthy"],
            [
                [c.dataset, round(c.target_homophily, 2),
                 round(c.real_homophily, 2), round(c.substitute_homophily, 2),
                 round(c.mean_degree, 1), round(c.mixing_fraction, 4),
                 "yes" if c.healthy else "NO"]
                for c in checks
            ],
            title="Synthetic dataset calibration",
        )
    )
    return 0 if all(c.healthy for c in checks) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import write_report

    path = write_report(args.results_dir, args.output)
    print(f"report written to {path}")
    return 0


def _build_deployment(args: argparse.Namespace):
    """Train a small vault and stand up an instrumented server.

    Returns ``(telemetry, server, run)``; the workload commands layer
    their own serving strategy (sequential loop, scheduler replay) on
    top of the same trained deployment.
    """
    from .deploy import SecureInferenceSession, VaultServer
    from .experiments import run_gnnvault
    from .obs import Telemetry
    from .training import TrainConfig

    telemetry = Telemetry(max_traces=max(args.queries, 8))
    print(
        f"training GNNVault ({args.scheme}) on {args.dataset} "
        f"[{args.epochs} epochs]...",
    )
    run = run_gnnvault(
        dataset=args.dataset,
        schemes=(args.scheme,),
        seed=args.seed,
        train_config=TrainConfig(epochs=args.epochs, patience=args.patience),
        telemetry=telemetry,
    )
    session = SecureInferenceSession(
        run.backbone,
        run.rectifiers[args.scheme],
        run.substitute,
        run.graph.adjacency,
        telemetry=telemetry,
    )
    server = VaultServer(session, run.graph.features)
    return telemetry, server, run


def _run_telemetry_workload(args: argparse.Namespace):
    """Train a small vault, serve a Zipf workload, return the telemetry hub.

    Shared by ``repro metrics`` and ``repro trace``: the whole pipeline —
    training epochs, backbone cache, enclave ECALLs — is instrumented, so
    the export shows the Fig. 6 telemetry story end-to-end.
    """
    from .deploy import zipf_workload

    telemetry, server, run = _build_deployment(args)
    workload = zipf_workload(
        run.graph.num_nodes, args.queries, alpha=args.alpha, seed=args.seed
    )
    print(f"serving {args.queries} Zipf({args.alpha}) queries...")
    server.serve(workload, batch_size=args.batch_size)
    if getattr(args, "probe", False):
        _replay_probe(server, run, seed=args.seed)
    return telemetry, server


def _replay_probe(server, run, seed: int = 0, num_pairs: int = 8,
                  rounds: int = 16) -> None:
    """Replay a link-stealing-shaped probe against a live server.

    Candidate pairs come from the attack module's own sampler (the exact
    pairs the offline evaluation queries); each is then probed repeatedly
    — the way an attacker comparing posteriors averages out noise — under
    a distinct client id. This is the demo workload behind ``repro health
    --probe`` and the dashboard's security panel: the pair-probing
    detector fires on the repeated-adjacent-pair lift it produces.
    """
    from .attacks.link_stealing import sample_pairs

    left, right, _ = sample_pairs(
        run.graph.adjacency, num_pairs=num_pairs, seed=seed
    )
    print(
        f"replaying link-stealing probe "
        f"({len(left)} candidate pairs x {rounds} rounds)..."
    )
    for _ in range(rounds):
        for u, v in zip(left, right):
            server.query_batch([int(u), int(v)], client="probe")
    server.flush_health()
    if server.monitor is not None:
        server.monitor.evaluate("probe")


def _emit(text: str, output, what: str) -> None:
    if output:
        from pathlib import Path

        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"{what} written to {path}")
    else:
        print()
        print(text, end="")


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import render_metrics_jsonl

    telemetry, server = _run_telemetry_workload(args)
    if not list(telemetry.registry.metrics()):
        print("error: no metrics collected (empty registry)", file=sys.stderr)
        return 1
    if args.format == "jsonl":
        text = render_metrics_jsonl(telemetry.registry)
    else:
        text = telemetry.render_prometheus()
    _emit(text, args.output, f"metrics ({args.format})")
    summary = server.stats.latency_summary()
    print(
        f"# served {server.stats.queries_served} queries: "
        f"p50 {1e3 * summary['p50']:.3f} ms, "
        f"p95 {1e3 * summary['p95']:.3f} ms, "
        f"p99 {1e3 * summary['p99']:.3f} ms (simulated)"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import render_prometheus, spans_to_jsonl, traces_to_registry

    telemetry, server = _run_telemetry_workload(args)
    roots = telemetry.tracer.roots()
    if not roots:
        print("error: no traces collected", file=sys.stderr)
        return 1
    if args.format == "prom":
        text = render_prometheus(traces_to_registry(roots))
    else:
        text = spans_to_jsonl(roots)
    _emit(text, args.output, f"{len(roots)} traces ({args.format})")
    last = telemetry.tracer.last()
    if last is not None:
        stages = last.stages()
        rendered = ", ".join(
            f"{name} {1e6 * seconds:.1f} µs"
            for name, seconds in stages.items()
            if name != "ecall"
        )
        print(f"# last query stages: {rendered}")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from .obs import render_health_report

    telemetry, server = _run_telemetry_workload(args)
    if server.health is None:
        print("error: health monitoring unavailable", file=sys.stderr)
        return 2
    report = server.health_report()
    print()
    print(render_health_report(report))
    if args.audit_output:
        from pathlib import Path

        path = Path(args.audit_output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(telemetry.audit_jsonl())
        print(f"audit log written to {path}")
    return report.exit_code


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from .obs import write_dashboard

    telemetry, server = _run_telemetry_workload(args)
    output = args.output or "benchmarks/results/dashboard.html"
    path = write_dashboard(
        output, telemetry, health=server.health, monitor=server.monitor
    )
    print(f"dashboard written to {path}")
    if server.health is not None:
        report = server.health_report()
        verdict = "healthy" if report.healthy else "UNHEALTHY"
        print(
            f"# {verdict}: {len(report.slo_violations)} SLO violation(s), "
            f"{len(report.security_alerts)} security alert(s)"
        )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Replay a workload through the pipelined scheduler under the
    continuous profiler and emit timeline + flamegraph artifacts."""
    import threading
    from pathlib import Path

    from .deploy import BatchPolicy, MicroBatchScheduler, zipf_workload
    from .obs import (
        PipelineProfiler, spans_to_folded, timelines_to_folded,
        timelines_to_json,
    )

    telemetry, server, run = _build_deployment(args)
    workload = zipf_workload(
        run.graph.num_nodes, args.queries, alpha=args.alpha, seed=args.seed
    )
    profiler = PipelineProfiler()
    policy = BatchPolicy(
        max_batch_size=args.max_batch, max_wait_ms=args.max_wait_ms
    )
    clients = max(1, args.clients)
    print(
        f"replaying {args.queries} Zipf({args.alpha}) queries through the "
        f"pipeline ({clients} clients, max batch {policy.max_batch_size})..."
    )
    server.attach_profiler(profiler)
    with MicroBatchScheduler(server, policy) as scheduler:
        def drive(index: int) -> None:
            for node in workload[index::clients]:
                scheduler.query(int(node), client=f"client_{index}")

        threads = [
            threading.Thread(target=drive, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    server.flush_health()
    timelines = profiler.timelines()
    if not timelines:
        print("error: no batches profiled", file=sys.stderr)
        return 1
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timeline_path = out_dir / "timeline.json"
    timeline_path.write_text(timelines_to_json(timelines) + "\n")
    folded_path = out_dir / "flame.folded"
    folded_path.write_text(timelines_to_folded(timelines))
    artifacts = [timeline_path, folded_path]
    roots = telemetry.tracer.roots()
    if roots:
        spans_path = out_dir / "spans.folded"
        spans_path.write_text(spans_to_folded(roots))
        artifacts.append(spans_path)
    print()
    print(profiler.report().render(timelines), end="")
    for path in artifacts:
        print(f"profile artifact written to {path}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos drill: serve a workload under injected enclave faults.

    Records a fault-free baseline, then replays the same workload through
    the micro-batch scheduler while a seeded :class:`FaultPlan` kills the
    enclave mid-stream (plus memory pressure, payload corruption, and
    latency spikes) and an :class:`EnclaveSupervisor` recovers it from
    sealed snapshots. Exit code 0 requires every query answered and every
    non-degraded label bitwise-identical to the baseline.
    """
    import json
    import threading
    from pathlib import Path

    from .deploy import (
        BatchPolicy, EnclaveSupervisor, MicroBatchScheduler, RecoveryPolicy,
        zipf_workload,
    )
    from .tee import FaultInjector, FaultPlan

    telemetry, server, run = _build_deployment(args)
    workload = zipf_workload(
        run.graph.num_nodes, args.queries, alpha=args.alpha, seed=args.seed
    )
    print("recording fault-free baseline labels...")
    baseline = server.query_batch([int(node) for node in workload],
                                  client="baseline")

    policy = RecoveryPolicy(
        snapshot_interval=args.snapshot_interval,
        degraded_mode=args.degraded_mode,
    )
    supervisor = EnclaveSupervisor(
        server.session, policy, telemetry=telemetry, health=server.health
    )
    server.attach_supervisor(supervisor)
    # ECALL horizon: one ECALL per micro-batch plus retry headroom. The
    # kill must land inside the stream, so the horizon always covers it.
    num_ecalls = max(2 * args.queries, (args.kill_at or 0) + 8, 16)
    plan = FaultPlan.seeded(
        args.seed,
        num_ecalls,
        kill_at=args.kill_at,
        memory_faults=args.memory_faults,
        corrupt_faults=args.corrupt_faults,
        latency_faults=args.latency_faults,
    )
    injector = FaultInjector(plan)
    server.session.attach_fault_injector(injector)

    clients = max(1, args.clients)
    kill_note = (
        f"enclave kill at ECALL {args.kill_at}" if args.kill_at is not None
        else "no enclave kill"
    )
    print(
        f"replaying {args.queries} queries under chaos ({clients} clients, "
        f"{len(plan)} planned faults, {kill_note})..."
    )
    # Per-query outcome slots, written by client threads at stride offsets.
    outcomes: List[Optional[tuple]] = [None] * args.queries
    batch_policy = BatchPolicy(
        max_batch_size=args.max_batch, max_wait_ms=args.max_wait_ms
    )
    with MicroBatchScheduler(server, batch_policy) as scheduler:
        def drive(index: int) -> None:
            for offset, node in enumerate(workload[index::clients]):
                slot = index + offset * clients
                try:
                    request = scheduler.submit(
                        [int(node)], client=f"client_{index}"
                    )
                    labels = request.result(timeout=120.0)
                    outcomes[slot] = ("ok", int(labels[0]), request.degraded)
                except Exception as exc:  # failures are data, not aborts
                    outcomes[slot] = ("error", type(exc).__name__, False)

        threads = [
            threading.Thread(target=drive, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    server.flush_health()

    answered = sum(1 for o in outcomes if o is not None and o[0] == "ok")
    degraded = sum(1 for o in outcomes if o is not None and o[0] == "ok" and o[2])
    errors = sorted(
        {o[1] for o in outcomes if o is not None and o[0] == "error"}
    )
    diverged = sum(
        1 for i, o in enumerate(outcomes)
        if o is not None and o[0] == "ok" and not o[2]
        and o[1] != int(baseline[i])
    )
    recovery = supervisor.recovery_report()
    faults = injector.summary()
    report = {
        "seed": args.seed,
        "queries": args.queries,
        "clients": clients,
        "kill_at": args.kill_at,
        "answered": answered,
        "answered_fraction": answered / args.queries if args.queries else 1.0,
        "degraded_queries": degraded,
        "diverged_labels": diverged,
        "error_kinds": errors,
        "faults": faults,
        "recovery": recovery,
    }
    print(
        f"answered {answered}/{args.queries} "
        f"({100 * report['answered_fraction']:.1f}%), "
        f"{degraded} degraded (backbone-only), "
        f"{diverged} diverged vs baseline"
    )
    print(
        "faults fired: "
        + ", ".join(f"{kind} x{count}" for kind, count in faults.items()
                    if kind != "ecalls_observed")
        + f" over {faults['ecalls_observed']} ECALLs"
    )
    print(
        f"recovery: state {recovery['state']}, "
        f"{recovery['restarts_total']} restart(s), "
        f"{recovery['batches_retried']} batch(es) retried, "
        f"MTTR {1e3 * recovery['mttr_wall_seconds']:.2f} ms wall / "
        f"{1e3 * recovery['mttr_simulated_seconds']:.2f} ms simulated"
    )
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"chaos report written to {path}")
    ok = answered == args.queries and diverged == 0
    print("chaos drill PASSED" if ok else "chaos drill FAILED")
    return 0 if ok else 1


def _cmd_tenants(args: argparse.Namespace) -> int:
    """Replay a multi-client workload through the pipelined scheduler with
    the tenant cost ledger and structured logger attached; emit the
    per-tenant attribution report (hashed tenant ids only) as JSON.

    Exit code 0 requires the ledger to reconcile exactly against the
    enclave's own ECALL cost counters.
    """
    import json
    import threading

    from .deploy import BatchPolicy, MicroBatchScheduler, zipf_workload
    from .obs import StructuredLogger, TenantCostLedger, TenantQuota

    telemetry, server, run = _build_deployment(args)
    workload = zipf_workload(
        run.graph.num_nodes, args.queries, alpha=args.alpha, seed=args.seed
    )
    quota = None
    if args.quota_queries > 0:
        quota = TenantQuota(max_queries=args.quota_queries)
    ledger = TenantCostLedger(
        registry=telemetry.registry,
        gate=telemetry.enclave_gate(),
        max_tenants=args.max_tenants,
        quota=quota,
        alerts=server.health.alerts if server.health is not None else None,
    )
    logger = StructuredLogger(capacity=max(8 * args.queries, 1024))
    server.attach_tenancy(ledger)
    server.attach_logger(logger)
    before = server.session.enclave.ecall_cost_totals()
    policy = BatchPolicy(
        max_batch_size=args.max_batch, max_wait_ms=args.max_wait_ms
    )
    clients = max(1, args.clients)
    print(
        f"replaying {args.queries} Zipf({args.alpha}) queries through the "
        f"pipeline ({clients} tenants, max batch {policy.max_batch_size})..."
    )
    with MicroBatchScheduler(server, policy) as scheduler:
        def drive(index: int) -> None:
            for node in workload[index::clients]:
                scheduler.query(int(node), client=f"client_{index}")

        threads = [
            threading.Thread(target=drive, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if getattr(args, "probe", False):
        _replay_probe(server, run, seed=args.seed)
    server.flush_health()
    after = server.session.enclave.ecall_cost_totals()
    recon = ledger.reconcile(before, after)
    report = ledger.report()
    report["reconciled"] = recon["ok"]
    _emit(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        args.output, "tenant report",
    )
    if args.log_output:
        path = logger.write(args.log_output)
        print(
            f"structured log written to {path} "
            f"({len(logger)} lines)"
        )
    print(
        f"# {report['tenants']} tenants, {report['batches']} batches "
        f"attributed, reconciled={recon['ok']}"
    )
    return 0 if recon["ok"] else 1


def _cmd_logcheck(args: argparse.Namespace) -> int:
    """Validate a structured-log JSONL file against the closed schema.

    The CI log lint: exit 0 iff every line parses and conforms, 1 on a
    schema violation, 2 when the file is missing/empty.
    """
    from pathlib import Path

    from .obs import LogSchemaViolation, validate_log_jsonl

    path = Path(args.path)
    if not path.is_file():
        print(f"error: no such log file {path}", file=sys.stderr)
        return 2
    try:
        count = validate_log_jsonl(path.read_text())
    except LogSchemaViolation as exc:
        print(f"log schema violation: {exc}", file=sys.stderr)
        return 1
    if count == 0:
        print(f"error: {path} holds no log records", file=sys.stderr)
        return 2
    print(f"{path}: {count} log lines conform to the closed schema")
    return 0


def _cmd_vaultlint(args: argparse.Namespace) -> int:
    """Statically prove the trust-boundary invariants over src/repro.

    Exit 0 when the tree is clean (modulo the ratchet baseline), 1 on
    new findings, 2 on usage or parse errors.
    """
    from pathlib import Path

    from .analysis_static import (
        Baseline,
        render_json,
        render_text,
        run_vaultlint,
    )

    root = Path(args.root) if args.root else None
    baseline_path = Path(args.baseline)
    report = run_vaultlint(
        root=root,
        baseline=baseline_path if baseline_path.is_file() else None,
        changed_only=args.changed_only,
    )
    if report.parse_errors:
        for where, message in report.parse_errors:
            print(f"vaultlint: error in {where}: {message}",
                  file=sys.stderr)
        return 2

    if args.write_baseline:
        findings = report.all_findings
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(Baseline().to_json(findings))
        print(f"baseline with {len(findings)} finding(s) written to "
              f"{baseline_path}")
        return 0

    if args.format == "json":
        text = render_json(report.findings, report.files_linted,
                           len(report.baselined))
    else:
        text = render_text(report.findings, report.files_linted,
                           len(report.baselined))
    _emit(text, args.output, "vaultlint report")
    return report.exit_code


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import experiments as exp

    drivers = {
        "table1": lambda: exp.render_table1(exp.run_table1()),
        "table2": lambda: exp.render_table2(exp.run_table2()),
        "table3": lambda: exp.render_table3(exp.run_table3()),
        "table4": lambda: exp.render_table4(exp.run_table4()),
        "fig4": lambda: exp.render_fig4(exp.run_fig4()),
        "fig5": lambda: exp.render_fig5(exp.run_fig5()),
        "fig6": lambda: exp.render_fig6(exp.run_fig6()),
    }
    print(drivers[args.name]())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GNNVault reproduction (DAC 2025): TEE-protected GNN inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the paper's datasets").set_defaults(
        func=_cmd_datasets
    )

    train = sub.add_parser("train", help="train GNNVault and export a bundle")
    train.add_argument("--dataset", default="cora")
    train.add_argument(
        "--scheme", default="parallel", choices=("parallel", "series", "cascaded")
    )
    train.add_argument(
        "--substitute", default="knn", choices=("knn", "cosine", "random")
    )
    train.add_argument("--knn-k", type=int, default=2)
    train.add_argument("--epochs", type=int, default=150)
    train.add_argument("--patience", type=int, default=30)
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", help="directory for the deployment bundle")
    train.set_defaults(func=_cmd_train)

    predict = sub.add_parser("predict", help="serve queries from a bundle")
    predict.add_argument("bundle", help="bundle directory from `repro train`")
    predict.add_argument("graph", help="dataset .npz with node features")
    predict.add_argument(
        "--nodes", type=int, nargs="*", help="specific node ids to classify"
    )
    predict.set_defaults(func=_cmd_predict)

    attack = sub.add_parser("attack", help="run the link stealing audit")
    attack.add_argument("--datasets", nargs="+", default=["cora"])
    attack.add_argument("--pairs", type=int, default=2000)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument(
        "--tolerance",
        type=float,
        default=0.12,
        help="max acceptable M_gv-vs-M_base AUC gap before exit code 1",
    )
    attack.set_defaults(func=_cmd_attack)

    calibration = sub.add_parser(
        "calibration", help="verify the synthetic datasets' premises"
    )
    calibration.add_argument("--seed", type=int, default=0)
    calibration.set_defaults(func=_cmd_calibration)

    report = sub.add_parser(
        "report", help="collate benchmark results into REPORT.md"
    )
    report.add_argument(
        "--results-dir", default="benchmarks/results",
        help="directory of archived benchmark outputs",
    )
    report.add_argument("--output", help="output path (default: <dir>/REPORT.md)")
    report.set_defaults(func=_cmd_report)

    def add_workload_options(parser_: argparse.ArgumentParser) -> None:
        parser_.add_argument("--dataset", default="cora")
        parser_.add_argument(
            "--scheme", default="series",
            choices=("parallel", "series", "cascaded"),
        )
        parser_.add_argument("--epochs", type=int, default=20)
        parser_.add_argument("--patience", type=int, default=10)
        parser_.add_argument("--queries", type=int, default=100)
        parser_.add_argument("--batch-size", type=int, default=1)
        parser_.add_argument("--alpha", type=float, default=1.2,
                             help="Zipf skew of the query workload")
        parser_.add_argument("--seed", type=int, default=0)
        parser_.add_argument("--output", help="write the export to this file")

    metrics = sub.add_parser(
        "metrics",
        help="serve an instrumented workload and export metrics",
    )
    add_workload_options(metrics)
    metrics.add_argument(
        "--format", default="prom", choices=("prom", "jsonl"),
        help="Prometheus exposition or lossless JSONL dump",
    )
    metrics.set_defaults(func=_cmd_metrics)

    trace = sub.add_parser(
        "trace",
        help="serve an instrumented workload and dump query traces",
    )
    add_workload_options(trace)
    trace.add_argument(
        "--format", default="jsonl", choices=("prom", "jsonl"),
        help="per-span JSONL or aggregated Prometheus exposition",
    )
    trace.set_defaults(func=_cmd_trace)

    health = sub.add_parser(
        "health",
        help="serve a workload and evaluate SLOs (exit 0 healthy / 1 violated / 2 no data)",
    )
    add_workload_options(health)
    health.add_argument(
        "--probe", action="store_true",
        help="also replay a link-stealing probe to exercise the query monitor",
    )
    health.add_argument(
        "--audit-output", help="also write the audit log as JSONL to this file"
    )
    health.set_defaults(func=_cmd_health)

    dashboard = sub.add_parser(
        "dashboard",
        help="serve a workload and render the static HTML operator dashboard",
    )
    add_workload_options(dashboard)
    dashboard.add_argument(
        "--probe", action="store_true",
        help="also replay a link-stealing probe so the security panel lights up",
    )
    dashboard.set_defaults(func=_cmd_dashboard)

    profile = sub.add_parser(
        "profile",
        help="replay a workload through the pipeline under the continuous "
             "profiler; emit timeline JSON + folded flamegraph stacks",
    )
    add_workload_options(profile)
    profile.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client threads driving the scheduler",
    )
    profile.add_argument(
        "--max-batch", type=int, default=8,
        help="scheduler max_batch_size (amortisation factor)",
    )
    profile.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="scheduler coalescing window",
    )
    profile.add_argument(
        "--output-dir", default="benchmarks/results/profile",
        help="directory for timeline.json / flame.folded / spans.folded",
    )
    profile.set_defaults(func=_cmd_profile)

    chaos = sub.add_parser(
        "chaos",
        help="serve a workload under injected enclave faults; exit 0 iff "
             "every query is answered and non-degraded labels match a "
             "fault-free baseline",
    )
    add_workload_options(chaos)
    chaos.add_argument(
        "--kill-at", type=int, default=None,
        help="ECALL index at which the enclave is destroyed mid-stream",
    )
    chaos.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client threads driving the scheduler",
    )
    chaos.add_argument(
        "--max-batch", type=int, default=1,
        help="scheduler max_batch_size (1 = one ECALL per query, so "
             "--kill-at indexes into the query stream)",
    )
    chaos.add_argument(
        "--max-wait-ms", type=float, default=0.5,
        help="scheduler coalescing window",
    )
    chaos.add_argument(
        "--memory-faults", type=int, default=3,
        help="injected EPC-exhaustion faults (retryable)",
    )
    chaos.add_argument(
        "--corrupt-faults", type=int, default=3,
        help="injected channel-payload corruptions (detected in-enclave)",
    )
    chaos.add_argument(
        "--latency-faults", type=int, default=2,
        help="injected transfer latency spikes",
    )
    chaos.add_argument(
        "--snapshot-interval", type=int, default=16,
        help="successful batches between sealed recovery snapshots",
    )
    chaos.add_argument(
        "--degraded-mode", default="queue", choices=("queue", "backbone_only"),
        help="behaviour once recovery is abandoned: keep queueing (fail "
             "rectified queries) or serve backbone-only answers marked "
             "non-rectified",
    )
    chaos.set_defaults(func=_cmd_chaos)

    tenants = sub.add_parser(
        "tenants",
        help="replay a multi-tenant workload with per-client cost "
             "attribution; emit the hashed-tenant report (exit 0 iff the "
             "ledger reconciles against the enclave cost counters)",
    )
    add_workload_options(tenants)
    tenants.add_argument(
        "--clients", type=int, default=4,
        help="concurrent tenant threads driving the scheduler",
    )
    tenants.add_argument(
        "--max-batch", type=int, default=8,
        help="scheduler max_batch_size (amortisation factor)",
    )
    tenants.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="scheduler coalescing window",
    )
    tenants.add_argument(
        "--max-tenants", type=int, default=256,
        help="cardinality bound on distinct tenant labels (rest overflow)",
    )
    tenants.add_argument(
        "--quota-queries", type=int, default=0,
        help="per-tenant query quota (0 = unlimited); breaches fire "
             "security alerts and engage scheduler backpressure",
    )
    tenants.add_argument(
        "--probe", action="store_true",
        help="also replay a link-stealing probe so detector flags route "
             "into the ledger's suspicion tallies",
    )
    tenants.add_argument(
        "--log-output",
        help="also write the correlated structured log as JSONL here",
    )
    tenants.set_defaults(func=_cmd_tenants)

    logcheck = sub.add_parser(
        "logcheck",
        help="validate a structured-log JSONL file against the closed "
             "schema (exit 0 ok / 1 violation / 2 missing or empty)",
    )
    logcheck.add_argument("path", help="JSONL file to validate")
    logcheck.set_defaults(func=_cmd_logcheck)

    vaultlint = sub.add_parser(
        "vaultlint",
        help="statically prove the enclave trust-boundary invariants",
        description="AST-level analyzer enforcing the import-boundary, "
                    "egress-taint, telemetry-gate, and lock-discipline "
                    "invariants over src/repro; exit 0 clean / 1 "
                    "findings / 2 errors",
    )
    vaultlint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    vaultlint.add_argument(
        "--output", default=None,
        help="write the report to this file instead of stdout",
    )
    vaultlint.add_argument(
        "--root", default=None,
        help="tree to lint (default: the installed repro package)",
    )
    vaultlint.add_argument(
        "--baseline", default="vaultlint_baseline.json",
        help="ratchet baseline path; missing file means empty baseline",
    )
    vaultlint.add_argument(
        "--changed-only", action="store_true",
        help="lint only files in `git diff --name-only` (pre-commit)",
    )
    vaultlint.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into the baseline and exit 0",
    )
    vaultlint.set_defaults(func=_cmd_vaultlint)

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment.add_argument(
        "name",
        choices=("table1", "table2", "table3", "table4", "fig4", "fig5", "fig6"),
    )
    experiment.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
