"""Serving fast-path microbenchmarks: cached vs uncached query streams.

The serving fast path has three caches — memoised adjacency derivations
(CSR/degrees/Â), the per-feature-version backbone-embedding cache in
:class:`VaultServer`, and the enclave's LRU receptive-field plan cache.
This suite times a 1000-query Zipf workload through the uncached path
(every cache disabled, the pre-fast-path behaviour) and the cached path
(cold: first pass fills the caches; warm: second pass over the same
stream), asserts the cached path answers byte-identically, and writes a
machine-readable ``BENCH_serving.json`` so later PRs can track the perf
trajectory.

Run via ``make bench-serving`` or
``pytest benchmarks/test_perf_serving.py -q``.
"""

from __future__ import annotations

import json
import platform
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import render_table
from repro.deploy import (
    BatchPolicy,
    MicroBatchScheduler,
    SecureInferenceSession,
    VaultServer,
    zipf_workload,
)
from repro.experiments import run_gnnvault
from repro.tee import EnclaveConfig
from repro.training import TrainConfig

from .conftest import archive
from .history import append_history

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_serving.json"

NUM_QUERIES = 1000
ZIPF_ALPHA = 1.2
BATCH_SIZE = 1  # one query per ECALL: the per-query path the paper times


@pytest.fixture(scope="module")
def deployment():
    """A trained vault plus two identically-provisioned sessions.

    ``fast`` keeps every cache enabled; ``slow`` disables the enclave plan
    cache and is served through a cache-less VaultServer, reproducing the
    pre-fast-path per-query cost (full backbone pass + fresh subgraph
    extraction per ECALL).
    """
    run = run_gnnvault(
        dataset="citeseer",
        schemes=("series",),
        train_config=TrainConfig(epochs=60, patience=20),
        seed=1,
    )
    fast = SecureInferenceSession(
        run.backbone, run.rectifiers["series"], run.substitute,
        run.graph.adjacency,
    )
    slow = SecureInferenceSession(
        run.backbone, run.rectifiers["series"], run.substitute,
        run.graph.adjacency,
        enclave_config=EnclaveConfig(plan_cache_capacity=0),
    )
    return run, fast, slow


def _timed_serve(server: VaultServer, workload: np.ndarray) -> tuple:
    start = time.perf_counter()
    labels = server.serve(workload, batch_size=BATCH_SIZE)
    return labels, time.perf_counter() - start


def test_fast_path_speedup_and_exactness(deployment):
    run, fast_session, slow_session = deployment
    workload = zipf_workload(
        run.graph.num_nodes, NUM_QUERIES, alpha=ZIPF_ALPHA, seed=0
    )

    # Uncached reference: the pre-fast-path behaviour.
    slow_server = VaultServer(
        slow_session, run.graph.features, cache_embeddings=False
    )
    slow_labels, slow_seconds = _timed_serve(slow_server, workload)

    # Cached path: cold pass fills the caches, warm pass reuses them.
    fast_server = VaultServer(fast_session, run.graph.features)
    cold_labels, cold_seconds = _timed_serve(fast_server, workload)
    warm_labels, warm_seconds = _timed_serve(fast_server, workload)

    # Exactness: the cached path is an optimisation, not an approximation.
    np.testing.assert_array_equal(cold_labels, slow_labels)
    np.testing.assert_array_equal(warm_labels, slow_labels)
    assert cold_labels.tobytes() == slow_labels.tobytes()

    # Warm-path cache behaviour is observable, not inferred from timing.
    stats = fast_server.stats
    assert stats.embedding_cache_misses == 1
    assert stats.embedding_cache_hits == 2 * NUM_QUERIES - 1
    plan_stats = fast_session.enclave.plan_cache_stats()
    assert plan_stats["hits"] > plan_stats["misses"]
    assert plan_stats["entries"] <= plan_stats["capacity"]

    speedup_warm = slow_seconds / warm_seconds
    speedup_cold = slow_seconds / cold_seconds
    text = render_table(
        ["path", "seconds", "speedup vs uncached"],
        [
            ["uncached (pre-fast-path)", round(slow_seconds, 3), 1.0],
            ["cached, cold", round(cold_seconds, 3), round(speedup_cold, 1)],
            ["cached, warm", round(warm_seconds, 3), round(speedup_warm, 1)],
        ],
        title=(
            f"Serving fast path: Zipf({ZIPF_ALPHA}) stream of "
            f"{NUM_QUERIES} queries (batch={BATCH_SIZE})"
        ),
    )
    archive("perf_serving", text)

    BENCH_JSON.write_text(json.dumps({
        "benchmark": "serving_fast_path",
        "workload": {
            "num_queries": NUM_QUERIES,
            "zipf_alpha": ZIPF_ALPHA,
            "batch_size": BATCH_SIZE,
            "dataset": "citeseer",
            "num_nodes": run.graph.num_nodes,
        },
        "seconds": {
            "uncached": slow_seconds,
            "cached_cold": cold_seconds,
            "cached_warm": warm_seconds,
        },
        "speedup": {
            "warm_over_uncached": speedup_warm,
            "cold_over_uncached": speedup_cold,
        },
        "embedding_cache": {
            "hits": stats.embedding_cache_hits,
            "misses": stats.embedding_cache_misses,
        },
        "plan_cache": plan_stats,
        "labels_identical": True,
        "python": platform.python_version(),
    }, indent=2) + "\n")

    append_history("serving_fast_path", {
        "warm_over_uncached": speedup_warm,
        "cold_over_uncached": speedup_cold,
        "uncached_seconds": slow_seconds,
        "warm_seconds": warm_seconds,
    })

    # The acceptance bar: ≥10× at equal outputs on the warm path.
    assert speedup_warm >= 10.0, (
        f"warm fast path is only {speedup_warm:.1f}x faster than the "
        f"uncached path (need >= 10x)"
    )


def _paired_overhead(
    baseline, candidate, workload: np.ndarray,
    chunk_size: int = 50, repetitions: int = 10,
) -> tuple:
    """Relative warm-path CPU overhead of ``candidate`` over ``baseline``.

    Each arm is anything with a ``serve(chunk, batch_size=...)`` method
    over pre-warmed state. The workload is served in small
    chunks (CPU time, not wall, so scheduler preemption doesn't count),
    each chunk timed back-to-back on both arms with the order flipped
    every chunk. The estimate is the **median over all per-chunk-pair
    relative deltas** (~``chunks × repetitions`` paired samples): on a
    noisy shared machine each back-to-back pair spans a few tens of
    milliseconds, so drift cancels within the pair and the median over
    hundreds of pairs resolves sub-percent effects that rep-level sums
    cannot (the null — two identical servers — measures ~0.1%).

    The cyclic GC is paused during the timed region (and restored after):
    gen-0 collections trigger on *process-wide* allocation counts, so
    whichever arm happens to cross the threshold gets a whole
    collection — almost entirely the other arm's garbage — billed to its
    window, which turns a deterministic comparison into a coin flip.

    Returns ``(overhead_fraction, baseline_cpu_seconds, candidate_cpu_seconds)``.
    """
    import gc

    chunks = [
        workload[start : start + chunk_size]
        for start in range(0, len(workload), chunk_size)
    ]
    arms = ((0, baseline), (1, candidate))
    deltas = []
    totals = {0: 0.0, 1: 0.0}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for rep in range(repetitions):
            for index, chunk in enumerate(chunks):
                ordered = arms if (index + rep) % 2 == 0 else arms[::-1]
                seconds = {}
                for key, server in ordered:
                    start = time.process_time()
                    server.serve(chunk, batch_size=BATCH_SIZE)
                    seconds[key] = time.process_time() - start
                totals[0] += seconds[0]
                totals[1] += seconds[1]
                if seconds[0] > 0.0:
                    deltas.append(seconds[1] / seconds[0] - 1.0)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    deltas.sort()
    overhead = deltas[len(deltas) // 2]
    return overhead, totals[0] / repetitions, totals[1] / repetitions


def test_instrumentation_overhead_under_five_percent(deployment):
    """Observability must be close to free on the warm serving path.

    Two fresh identically-provisioned deployments: one with the default
    (enabled) telemetry — per-query span trees plus the enclave gate —
    and one with ``Telemetry(enabled=False)``, the uninstrumented
    baseline. The metrics registry backing ServerStats is live in *both*
    (query accounting must always be correct); only tracing and the
    enclave gate differ. The health/audit layer is disabled on both arms
    — it has its own, tighter budget in
    :func:`test_health_layer_overhead_under_two_percent`.
    """
    from repro.obs import Telemetry

    run, _, _ = deployment

    def build(enabled: bool) -> VaultServer:
        session = SecureInferenceSession(
            run.backbone, run.rectifiers["series"], run.substitute,
            run.graph.adjacency, telemetry=Telemetry(enabled=enabled),
        )
        return VaultServer(session, run.graph.features, enable_health=False)

    workload = zipf_workload(
        run.graph.num_nodes, NUM_QUERIES, alpha=ZIPF_ALPHA, seed=0
    )
    instrumented = build(True)
    baseline = build(False)
    for server in (instrumented, baseline):  # fill every cache
        server.serve(workload, batch_size=BATCH_SIZE)

    overhead, baseline_cpu, instrumented_cpu = _paired_overhead(
        baseline, instrumented, workload
    )

    assert instrumented.telemetry.tracer.last() is not None
    assert baseline.telemetry.tracer.last() is None
    assert baseline.stats.queries_served == instrumented.stats.queries_served

    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
        payload["instrumentation"] = {
            "warm_cpu_seconds_instrumented": instrumented_cpu,
            "warm_cpu_seconds_baseline": baseline_cpu,
            "overhead_fraction": overhead,
        }
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    assert overhead < 0.05, (
        f"telemetry costs {100 * overhead:.1f}% on the warm path (budget 5%)"
    )


class _HealthToggle:
    """Serve through one shared server with the health layer flipped.

    Using a *single* server for both arms — instead of two separately
    built ones — removes the per-instance memory-layout luck that makes
    two "identical" servers differ systematically by up to ~1% in CPU
    time. Flipping two attributes per 50-query chunk is the entire cost
    of the trick.
    """

    def __init__(self, server: VaultServer, health, monitor) -> None:
        self._server = server
        self._health = health
        self._monitor = monitor

    def serve(self, chunk, batch_size):
        server = self._server
        server.health = self._health
        server.monitor = self._monitor
        return server.serve(chunk, batch_size=batch_size)


def test_health_layer_overhead_under_two_percent(deployment):
    """The health/audit layer must cost ≤ 2% on the warm serving path.

    Telemetry (tracing, metrics, audit log) is live throughout, so this
    isolates exactly what PR 4 added on the hot path: the buffered SLO /
    anomaly / query-pattern accounting and its periodic drains. Both arms
    serve through the *same* warmed server; the baseline arm detaches the
    health monitor and pattern monitor, the candidate arm reattaches
    them. Same paired chunked CPU-time estimator as the instrumentation
    test.
    """
    from repro.obs import Telemetry

    run, _, _ = deployment

    session = SecureInferenceSession(
        run.backbone, run.rectifiers["series"], run.substitute,
        run.graph.adjacency, telemetry=Telemetry(),
    )
    server = VaultServer(session, run.graph.features)
    health, monitor = server.health, server.monitor
    assert health is not None and monitor is not None

    workload = zipf_workload(
        run.graph.num_nodes, NUM_QUERIES, alpha=ZIPF_ALPHA, seed=0
    )
    server.serve(workload, batch_size=BATCH_SIZE)  # fill every cache

    overhead, without_cpu, with_cpu = _paired_overhead(
        _HealthToggle(server, None, None),
        _HealthToggle(server, health, monitor),
        workload,
    )
    server.health, server.monitor = health, monitor

    # The layer actually ran: SLOs observed every batch, verdict healthy.
    assert health.batches_observed > NUM_QUERIES
    assert server.health_report().exit_code == 0

    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
        payload["health_overhead"] = {
            "warm_cpu_seconds_with_health": with_cpu,
            "warm_cpu_seconds_without_health": without_cpu,
            "overhead_fraction": overhead,
        }
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    assert overhead < 0.02, (
        f"health/audit layer costs {100 * overhead:.1f}% on the warm path "
        f"(budget 2%)"
    )


NUM_CLIENTS = 16
THROUGHPUT_QUERIES = 960  # divisible by NUM_CLIENTS: equal shards
SCHED_BATCH = 16


def test_concurrent_throughput_and_amortised_ecalls(deployment):
    """Pipelined micro-batch serving vs the sequential per-query loop.

    16 client threads issue single-node queries through a
    :class:`MicroBatchScheduler` (one amortised ECALL per micro-batch,
    stage-U/stage-E double buffering); the baseline serves the identical
    workload sequentially at ``batch_size=1``. Both arms are warm — the
    point is steady-state throughput, not cache fill. Acceptance: ≥2×
    QPS, *bit-identical* labels, and fewer than one ECALL per query.
    """
    run, _, _ = deployment
    workload = zipf_workload(
        run.graph.num_nodes, THROUGHPUT_QUERIES, alpha=ZIPF_ALPHA,
        rng=np.random.default_rng(7),
    )

    def build() -> VaultServer:
        session = SecureInferenceSession(
            run.backbone, run.rectifiers["series"], run.substitute,
            run.graph.adjacency,
        )
        return VaultServer(session, run.graph.features)

    def run_concurrent(scheduler, stream: np.ndarray, dtype) -> tuple:
        """Drive ``stream`` through 16 client threads; labels by stride.

        Queries interleave round-robin across the clients so arrival
        order matches the sequential stream's statistics; each client's
        answers go back into its stride, so the reassembled label vector
        is position-for-position comparable to the sequential one.
        """
        labels = np.empty(len(stream), dtype=dtype)
        barrier = threading.Barrier(NUM_CLIENTS + 1)
        failures: list = []

        def client(index: int) -> None:
            shard = stream[index::NUM_CLIENTS]
            barrier.wait()
            try:
                answers = [
                    scheduler.query(int(node), client=f"client_{index}")
                    for node in shard
                ]
            except Exception as exc:  # surface in the main thread
                failures.append(exc)
                return
            labels[index::NUM_CLIENTS] = answers

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(NUM_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        assert not failures, failures
        return labels, elapsed

    # Sequential baseline: one ECALL per query, warm caches. Best of two
    # timed passes per arm — a single pass on a shared machine can eat a
    # scheduler hiccup that dwarfs the effect under test.
    seq_server = build()
    seq_server.serve(workload, batch_size=BATCH_SIZE)  # warm
    sequential_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        seq_labels = seq_server.serve(workload, batch_size=BATCH_SIZE)
        sequential_seconds = min(
            sequential_seconds, time.perf_counter() - start
        )
    sequential_qps = len(workload) / sequential_seconds

    pipe_server = build()
    pipe_server.serve(workload, batch_size=BATCH_SIZE)  # warm
    enclave = pipe_server._session.enclave
    policy = BatchPolicy(max_batch_size=SCHED_BATCH, max_wait_ms=2.0)
    pipelined_seconds = float("inf")
    labels_identical = True
    with MicroBatchScheduler(pipe_server, policy) as scheduler:
        ecalls_before = enclave.ecall_transitions
        queries_before = scheduler.stats.queries
        for _ in range(2):
            pipe_labels, elapsed = run_concurrent(
                scheduler, workload, seq_labels.dtype
            )
            pipelined_seconds = min(pipelined_seconds, elapsed)
            labels_identical = labels_identical and (
                seq_labels.tobytes() == pipe_labels.tobytes()
            )
        ecalls = enclave.ecall_transitions - ecalls_before
        queries = scheduler.stats.queries - queries_before
        snap = scheduler.stats.snapshot()

    pipelined_qps = len(workload) / pipelined_seconds
    speedup = pipelined_qps / sequential_qps
    ecalls_per_query = ecalls / queries

    text = render_table(
        ["path", "QPS", "ECALLs/query"],
        [
            ["sequential (batch=1)", round(sequential_qps, 1), 1.0],
            [
                f"pipelined ({NUM_CLIENTS} clients, batch<={SCHED_BATCH})",
                round(pipelined_qps, 1),
                round(ecalls_per_query, 4),
            ],
        ],
        title=(
            f"Concurrent serving throughput: Zipf({ZIPF_ALPHA}) stream of "
            f"{len(workload)} queries ({speedup:.1f}x)"
        ),
    )
    archive("perf_throughput", text)

    # Double-buffering demo: with max_batch_size (8) *below* the client
    # count, two batches are in flight at once, so the collector stages
    # batch i+1 while the enclave executes batch i and the overlap
    # fraction becomes visible. (The max-QPS arm above saturates at
    # batch == clients: every client blocks on the one in-flight batch,
    # so the pipeline ping-pongs and its overlap is honestly ~0.)
    demo_server = build()
    demo_server.serve(workload, batch_size=BATCH_SIZE)  # warm
    overlap_workload = workload[:480]
    demo_policy = BatchPolicy(max_batch_size=8, max_wait_ms=2.0)
    with MicroBatchScheduler(demo_server, demo_policy) as scheduler:
        demo_labels, demo_seconds = run_concurrent(
            scheduler, overlap_workload, seq_labels.dtype
        )
        demo_snap = scheduler.stats.snapshot()
    assert demo_labels.tobytes() == seq_labels[:480].tobytes()

    payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {
        "benchmark": "serving_fast_path",
    }
    payload["throughput"] = {
        "num_clients": NUM_CLIENTS,
        "max_batch_size": SCHED_BATCH,
        "num_queries": len(workload),
        "sequential_qps": sequential_qps,
        "pipelined_qps": pipelined_qps,
        "speedup": speedup,
        "mean_batch_size": snap["mean_batch_size"],
        "batch_size_histogram": snap["batch_size_histogram"],
        "dedup_fraction": snap["dedup_fraction"],
        "pipeline_overlap_fraction": snap["pipeline_overlap_fraction"],
        "ecalls_per_query": ecalls_per_query,
        "labels_identical": labels_identical,
        "overlap_demo": {
            "max_batch_size": 8,
            "num_queries": len(overlap_workload),
            "qps": len(overlap_workload) / demo_seconds,
            "pipeline_overlap_fraction":
                demo_snap["pipeline_overlap_fraction"],
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    append_history("serving_throughput", {
        "speedup": speedup,
        "pipelined_qps": pipelined_qps,
        "sequential_qps": sequential_qps,
        "ecalls_per_query": ecalls_per_query,
        "pipeline_overlap_fraction": snap["pipeline_overlap_fraction"],
    })

    assert labels_identical, "pipelined labels diverged from sequential"
    assert ecalls == snap["batches"], (
        "enclave transition count must equal the number of micro-batches"
    )
    assert ecalls_per_query < 1.0, (
        f"{ecalls_per_query:.2f} ECALLs per query — batching is not amortising"
    )
    assert speedup >= 2.0, (
        f"pipelined serving is only {speedup:.2f}x the sequential QPS "
        f"(need >= 2x at {NUM_CLIENTS} clients)"
    )
    assert demo_snap["pipeline_overlap_fraction"] > 0.1, (
        "no stage-U/stage-E overlap observed with batch < clients — "
        "the double buffer is not pipelining"
    )


class _ProfilerToggle:
    """Serve through one shared server with the profiler flipped.

    Same single-server trick as :class:`_HealthToggle`: both arms share
    one warmed ``VaultServer`` so per-instance memory-layout luck cancels
    and the paired estimator sees only the profiler's marginal cost —
    the extra ``perf_counter`` reads, the ECALL-counter delta, and one
    :class:`BatchTimeline` allocation per batch.
    """

    def __init__(self, server: VaultServer, profiler) -> None:
        self._server = server
        self._profiler = profiler

    def serve(self, chunk, batch_size):
        server = self._server
        server.profiler = self._profiler
        return server.serve(chunk, batch_size=batch_size)


PROFILE_CLIENTS = 8
PROFILE_QUERIES = 240


def test_profiling_overhead_and_timeline_coverage(deployment):
    """The continuous profiler must be ≤2% overhead and ≥95% coverage.

    Two claims, one test. Coverage: a pipelined run with a
    :class:`PipelineProfiler` attached reconstructs per-batch timelines
    whose six segments must tile ≥95% of each batch's wall time (they
    tile it *exactly* by construction — the assertion guards the
    boundary-timestamp scheme against future drift). Every per-batch
    cost record must also pass the enclave telemetry gate's closed
    schema. Overhead: the sequential warm path is paired-timed with the
    profiler attached vs detached through one shared server.
    """
    from repro.obs import PipelineProfiler, validate_cost_record

    run, _, _ = deployment

    session = SecureInferenceSession(
        run.backbone, run.rectifiers["series"], run.substitute,
        run.graph.adjacency,
    )
    server = VaultServer(session, run.graph.features)
    workload = zipf_workload(
        run.graph.num_nodes, NUM_QUERIES, alpha=ZIPF_ALPHA, seed=0
    )
    server.serve(workload, batch_size=BATCH_SIZE)  # fill every cache

    # -- Coverage: pipelined run with the profiler attached. ------------
    profiler = PipelineProfiler()
    pipeline_workload = workload[:PROFILE_QUERIES]
    policy = BatchPolicy(max_batch_size=8, max_wait_ms=2.0)
    server.attach_profiler(profiler)
    with MicroBatchScheduler(server, policy) as sched:
        barrier = threading.Barrier(PROFILE_CLIENTS + 1)

        def client(index: int) -> None:
            barrier.wait()
            for node in pipeline_workload[index::PROFILE_CLIENTS]:
                sched.query(int(node), client=f"client_{index}")

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(PROFILE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join()

    timelines = profiler.timelines()
    assert timelines, "profiler recorded no batches from the pipelined run"
    report = profiler.report()
    assert report.queries == PROFILE_QUERIES
    coverage = min(t.coverage() for t in timelines)
    for timeline in timelines:
        validate_cost_record(timeline.cost)  # raises TelemetryLeak if dirty
        assert timeline.profile is not None

    # -- Overhead: paired warm sequential serving, profiler on vs off. --
    profiler.clear()
    overhead, without_cpu, with_cpu = _paired_overhead(
        _ProfilerToggle(server, None),
        _ProfilerToggle(server, profiler),
        workload,
    )
    server.profiler = None
    assert len(profiler) > 0, "the profiled arm never recorded a timeline"

    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
        payload["profiling"] = {
            "overhead_fraction": overhead,
            "timeline_coverage": coverage,
            "batches": report.batches,
            "ecalls_per_query": report.ecalls_per_query,
            "warm_cpu_seconds_with_profiler": with_cpu,
            "warm_cpu_seconds_without_profiler": without_cpu,
        }
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    append_history("profiling", {
        "overhead_fraction": overhead,
        "timeline_coverage": coverage,
    })

    assert coverage >= 0.95, (
        f"timeline segments account for only {coverage:.1%} of batch wall "
        f"time (need >= 95%)"
    )
    assert overhead < 0.02, (
        f"profiler costs {100 * overhead:.1f}% on the warm path (budget 2%)"
    )


def test_plan_cache_epc_accounting(deployment):
    """The plan cache is charged to enclave memory, not free speed."""
    run, fast_session, _ = deployment
    server = VaultServer(fast_session, run.graph.features)
    server.serve(zipf_workload(run.graph.num_nodes, 20, seed=3))
    report = fast_session.enclave.memory_report()
    plan_regions = {k: v for k, v in report.items() if k.startswith("plancache/")}
    assert plan_regions, "expected resident plan-cache allocations"
    assert sum(plan_regions.values()) == (
        fast_session.enclave.plan_cache_stats()["resident_bytes"]
    )


RESILIENCE_QUERIES = 480  # divisible by NUM_CLIENTS: equal shards
RESILIENCE_KILL_AT = 15   # mid-stream: after the first micro-batches land


def test_resilience_mid_stream_kill_recovery(deployment):
    """Chaos arm: enclave killed mid-stream at 16 concurrent clients.

    A fault-free sequential pass records the baseline labels; the chaos
    pass replays the identical workload through the pipelined scheduler
    while a seeded plan destroys the enclave at ECALL
    ``RESILIENCE_KILL_AT``. The supervisor must re-provision from its
    sealed snapshot and answer **every** query with labels bitwise
    identical to the baseline — recovery is an availability event, never
    an accuracy event. MTTR (wall + simulated) lands in the ``resilience``
    section of ``BENCH_serving.json`` for the regression gate.
    """
    from repro.deploy import EnclaveSupervisor, RecoveryPolicy
    from repro.tee import FaultInjector, FaultPlan
    from repro.tee.faults import FAULT_KILL, FaultSpec

    run, _, _ = deployment
    workload = zipf_workload(
        run.graph.num_nodes, RESILIENCE_QUERIES, alpha=ZIPF_ALPHA, seed=5
    )

    def build() -> VaultServer:
        session = SecureInferenceSession(
            run.backbone, run.rectifiers["series"], run.substitute,
            run.graph.adjacency,
        )
        return VaultServer(session, run.graph.features)

    baseline_server = build()
    baseline = baseline_server.serve(workload, batch_size=BATCH_SIZE)

    server = build()
    server.serve(workload, batch_size=BATCH_SIZE)  # warm every cache
    session = server.session
    supervisor = EnclaveSupervisor(
        session, RecoveryPolicy(snapshot_interval=16)
    )
    server.attach_supervisor(supervisor)
    injector = FaultInjector(
        FaultPlan((FaultSpec(FAULT_KILL, RESILIENCE_KILL_AT),))
    )
    session.attach_fault_injector(injector)

    labels = np.empty(len(workload), dtype=baseline.dtype)
    failures: list = []
    barrier = threading.Barrier(NUM_CLIENTS + 1)
    policy = BatchPolicy(max_batch_size=SCHED_BATCH, max_wait_ms=2.0)
    with MicroBatchScheduler(server, policy) as scheduler:
        def client(index: int) -> None:
            shard = workload[index::NUM_CLIENTS]
            barrier.wait()
            try:
                answers = [
                    scheduler.query(int(node), client=f"client_{index}")
                    for node in shard
                ]
            except Exception as exc:  # surface in the main thread
                failures.append(exc)
                return
            labels[index::NUM_CLIENTS] = answers

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(NUM_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        chaos_seconds = time.perf_counter() - start

    assert not failures, failures
    answered_fraction = 1.0  # any miss would have landed in `failures`
    labels_identical = labels.tobytes() == baseline.tobytes()
    report = supervisor.recovery_report()
    faults = injector.summary()

    text = render_table(
        ["metric", "value"],
        [
            ["queries answered", f"{RESILIENCE_QUERIES}/{RESILIENCE_QUERIES}"],
            ["labels identical to fault-free", str(labels_identical)],
            ["enclave restarts", report["restarts_total"]],
            ["batches retried", report["batches_retried"]],
            ["MTTR (wall)", f"{1e3 * report['mttr_wall_seconds']:.2f} ms"],
            ["MTTR (simulated)",
             f"{1e3 * report['mttr_simulated_seconds']:.2f} ms"],
            ["snapshot size", f"{report['snapshot_bytes']} B"],
        ],
        title=(
            f"Resilience: enclave kill at ECALL {RESILIENCE_KILL_AT}, "
            f"{NUM_CLIENTS} clients, {RESILIENCE_QUERIES} queries "
            f"({chaos_seconds:.2f}s)"
        ),
    )
    archive("perf_resilience", text)

    payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {
        "benchmark": "serving_fast_path",
    }
    payload["resilience"] = {
        "num_clients": NUM_CLIENTS,
        "num_queries": RESILIENCE_QUERIES,
        "kill_at_ecall": RESILIENCE_KILL_AT,
        "answered_fraction": answered_fraction,
        "labels_identical": labels_identical,
        "restarts": report["restarts_total"],
        "batches_retried": report["batches_retried"],
        "queries_degraded": report["queries_degraded"],
        "recovery_seconds": report["mttr_wall_seconds"],
        "recovery_simulated_seconds": report["mttr_simulated_seconds"],
        "snapshot_bytes": report["snapshot_bytes"],
        "chaos_run_seconds": chaos_seconds,
        "faults_fired": {
            kind: count for kind, count in faults.items()
            if kind != "ecalls_observed"
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    append_history("resilience", {
        "recovery_seconds": report["mttr_wall_seconds"],
        "recovery_simulated_seconds": report["mttr_simulated_seconds"],
        "batches_retried": report["batches_retried"],
        "restarts": report["restarts_total"],
    })

    assert labels_identical, "recovered labels diverged from the fault-free run"
    assert report["restarts_total"] == 1, (
        f"expected exactly one recovery, got {report['restarts_total']}"
    )
    assert report["state"] == "healthy"
    assert report["queries_degraded"] == 0
    assert report["mttr_wall_seconds"] > 0
    assert report["mttr_simulated_seconds"] > 0


class _TenancyToggle:
    """Serve through one shared server with the tenant ledger flipped.

    Same single-server trick as :class:`_ProfilerToggle`: both arms share
    one warmed ``VaultServer`` so the paired estimator sees only the
    ledger's marginal serving-path cost. Like the profiler, the ledger
    defers attribution off the hot path — the serving thread snapshots
    (client, node ids, profile, ECALL delta) per batch, and the
    union-plan split folds in at read time — so the measured overhead is
    the snapshot append plus the bounded-queue check. The fold itself is
    exercised (and its exactness asserted) right after the timed region:
    ``batches_recorded`` drains the queue and the reconciliation phase
    proves no cost went missing. The synthetic client id rotates so the
    attribution path exercises the hash cache and the per-tenant table,
    not a single hot entry.
    """

    def __init__(self, server: VaultServer, ledger) -> None:
        self._server = server
        self._ledger = ledger
        self._calls = 0

    def serve(self, chunk, batch_size):
        server = self._server
        server.tenancy = self._ledger
        self._calls += 1
        return server.serve(
            chunk, batch_size=batch_size,
            client=f"tenant_{self._calls % 8}",
        )


TENANCY_QUERIES = 240
TENANCY_CLIENTS = 8


def test_tenancy_attribution_overhead_and_reconciliation(deployment):
    """Tenant attribution must be ≤2% overhead and reconcile exactly.

    Two claims, one test. Reconciliation: a pipelined multi-tenant run
    with the :class:`TenantCostLedger` attached must attribute *all* of
    the enclave's cost — summed per-tenant shares equal the enclave's
    own ``ecall_cost_totals`` deltas (integer tallies exactly, seconds
    to 1e-9). Overhead: the warm sequential path is paired-timed with
    the ledger attached vs detached through one shared server.
    """
    from repro.obs import TenantCostLedger

    run, _, _ = deployment

    session = SecureInferenceSession(
        run.backbone, run.rectifiers["series"], run.substitute,
        run.graph.adjacency,
    )
    server = VaultServer(session, run.graph.features)
    workload = zipf_workload(
        run.graph.num_nodes, NUM_QUERIES, alpha=ZIPF_ALPHA, seed=0
    )
    server.serve(workload, batch_size=BATCH_SIZE)  # fill every cache

    # -- Reconciliation: pipelined multi-tenant run. --------------------
    ledger = TenantCostLedger(registry=server.telemetry.registry)
    server.attach_tenancy(ledger)
    pipeline_workload = workload[:TENANCY_QUERIES]
    before = session.enclave.ecall_cost_totals()
    policy = BatchPolicy(max_batch_size=8, max_wait_ms=2.0)
    with MicroBatchScheduler(server, policy) as sched:
        barrier = threading.Barrier(TENANCY_CLIENTS + 1)

        def client(index: int) -> None:
            barrier.wait()
            for node in pipeline_workload[index::TENANCY_CLIENTS]:
                sched.query(int(node), client=f"client_{index}")

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(TENANCY_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join()
    after = session.enclave.ecall_cost_totals()
    recon = ledger.reconcile(before, after)
    reconciled = recon["ok"]
    tenant_report = ledger.report()
    server.detach_tenancy()

    # -- Overhead: paired warm sequential serving, ledger on vs off. ----
    overhead_ledger = TenantCostLedger(
        registry=server.telemetry.registry
    )
    overhead, without_cpu, with_cpu = _paired_overhead(
        _TenancyToggle(server, None),
        _TenancyToggle(server, overhead_ledger),
        workload,
    )
    server.tenancy = None
    assert overhead_ledger.batches_recorded > 0, (
        "the attributed arm never recorded a batch"
    )

    text = render_table(
        ["metric", "value"],
        [
            ["tenants attributed", tenant_report["tenants"]],
            ["batches attributed", tenant_report["batches"]],
            ["ledger reconciles with enclave", str(reconciled)],
            ["warm overhead (ledger attached)", f"{100 * overhead:.2f}%"],
        ],
        title=(
            f"Tenant attribution: {TENANCY_CLIENTS} tenants, "
            f"{TENANCY_QUERIES} pipelined queries"
        ),
    )
    archive("perf_tenancy", text)

    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
        payload["tenancy"] = {
            "overhead_fraction": overhead,
            "reconciled": reconciled,
            "tenants": tenant_report["tenants"],
            "batches": tenant_report["batches"],
            "warm_cpu_seconds_with_ledger": with_cpu,
            "warm_cpu_seconds_without_ledger": without_cpu,
        }
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    append_history("tenancy", {
        "overhead_fraction": overhead,
        "reconciled": reconciled,
    })

    assert reconciled, (
        f"per-tenant attribution does not reconcile with the enclave's "
        f"cost counters: {recon['keys']}"
    )
    assert overhead < 0.02, (
        f"tenant ledger costs {100 * overhead:.1f}% on the warm path "
        f"(budget 2%)"
    )
