"""A query-serving front end over a secure inference session.

Edge deployments answer a *stream* of node queries, not one full-graph
pass. :class:`VaultServer` adds the serving machinery around
:class:`~repro.deploy.inference.SecureInferenceSession`:

* backbone embeddings are computed once per feature version and cached —
  the untrusted half is pure pre-computation (paper §IV-C);
* per-query answers go through the enclave's per-node ECALL, so trusted
  cost scales with the receptive field;
* every answer is label-only, and an audit log records query counts and
  cumulative simulated cost for capacity planning;
* an optional query budget models rate limiting, the standard mitigation
  against extraction-by-mass-querying;
* every query is traced and metered through :mod:`repro.obs`: a root
  ``query`` span nests the ``backbone`` stage and the enclave's redacted
  ``ecall`` subtree, and :class:`ServerStats` is a thin view over the
  shared metrics registry.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import RecoveryFailed, SecurityViolation
from ..obs import Telemetry
from ..obs.health import HealthMonitor
from ..obs.metrics import MetricsRegistry, SIZE_BUCKETS_BYTES
from ..obs.patterns import QueryPatternMonitor
from ..obs.redaction import RedactedSpan
from ..obs.tracing import COMPACT_DECODERS, Span
from .inference import SecureInferenceSession
from .profiler import InferenceProfile


class ServerStats:
    """Aggregate serving statistics — a thin view over a metrics registry.

    The public attribute surface is unchanged from the original ad-hoc
    dataclass (``queries_served``, ``total_seconds``, ...), but every
    value now lives in a :class:`~repro.obs.metrics.MetricsRegistry`, so
    the same numbers are exportable as Prometheus series and shared with
    the rest of the telemetry subsystem.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._queries = self.registry.counter(
            "vault_queries_total", help="node queries answered"
        )
        self._latency = self.registry.histogram(
            "vault_query_batch_seconds",
            help="simulated end-to-end seconds per served batch",
        )
        self._seconds = self.registry.counter(
            "vault_serving_seconds_total",
            help="cumulative simulated serving seconds",
        )
        self._payload = self.registry.counter(
            "vault_payload_bytes_total",
            help="bytes pushed through the one-way channel",
        )
        self._batch_payload = self.registry.histogram(
            "vault_batch_payload_bytes",
            help="one-way channel payload per served batch",
            buckets=SIZE_BUCKETS_BYTES,
        )
        self._peak_memory = self.registry.gauge(
            "vault_peak_enclave_memory_bytes",
            help="high watermark of enclave memory across all batches",
        )
        self._node_queries = self.registry.counter(
            "vault_node_queries_total",
            help="queries per (public) node id — capacity-planning signal",
        )
        self._embedding_cache = self.registry.counter(
            "vault_embedding_cache_events_total",
            help="backbone-embedding cache behaviour (one event per batch)",
        )

    # ------------------------------------------------------------------
    # Recording (called by VaultServer)
    # ------------------------------------------------------------------
    def record_batch(self, node_ids: Sequence[int], profile) -> None:
        self._queries.inc(len(node_ids))
        self._seconds.inc(profile.total_seconds)
        self._latency.observe(profile.total_seconds)
        self._payload.inc(profile.payload_bytes)
        self._batch_payload.observe(profile.payload_bytes)
        self._peak_memory.set_max(profile.peak_enclave_memory_bytes)
        for node in node_ids:
            self._node_queries.inc(node=str(node))

    def record_embedding_cache(self, hit: bool) -> None:
        self._embedding_cache.inc(result="hit" if hit else "miss")

    # ------------------------------------------------------------------
    # The original ServerStats read API (now registry-backed)
    # ------------------------------------------------------------------
    @property
    def queries_served(self) -> int:
        return int(self._queries.value())

    @property
    def total_seconds(self) -> float:
        return self._seconds.value()

    @property
    def total_payload_bytes(self) -> int:
        return int(self._payload.value())

    @property
    def peak_enclave_memory_bytes(self) -> int:
        return int(self._peak_memory.value())

    @property
    def per_node_counts(self) -> Dict[int, int]:
        return {
            int(dict(labels)["node"]): int(value)
            for labels, value in self._node_queries.series()
        }

    @property
    def embedding_cache_hits(self) -> int:
        return int(self._embedding_cache.value(result="hit"))

    @property
    def embedding_cache_misses(self) -> int:
        return int(self._embedding_cache.value(result="miss"))

    @property
    def mean_latency_seconds(self) -> float:
        served = self.queries_served
        if served == 0:
            return 0.0
        return self.total_seconds / served

    def latency_summary(self) -> Dict[str, float]:
        """p50/p95/p99 of per-batch simulated latency.

        All zeros before the first query: an empty histogram has no
        percentiles (they come back NaN), and NaN poisons dashboards and
        JSON consumers downstream.
        """
        summary = self._latency.summary()
        return {
            key: 0.0 if isinstance(value, float) and math.isnan(value) else value
            for key, value in summary.items()
        }

    def hottest_nodes(self, top: int = 5) -> List[int]:
        """Most frequently queried nodes (capacity-planning signal).

        Deterministic: ties on the count break towards the smaller node
        id, so dashboards and tests see a stable ranking.
        """
        ranked = sorted(
            self.per_node_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [node for node, _ in ranked[:top]]

    def __repr__(self) -> str:
        return (
            f"ServerStats(queries={self.queries_served}, "
            f"seconds={self.total_seconds:.6g}, "
            f"payload_bytes={self.total_payload_bytes})"
        )


class QueryBudgetExceeded(SecurityViolation):
    """Raised when a client exhausts its query budget (rate limiting)."""


class InvalidQuery(ValueError):
    """Admission refused: a query id is not a node id of the served graph."""


class _PendingQuery:
    """One admitted request: target ids, owner, and a completion latch."""

    __slots__ = ("node_ids", "client", "labels", "error", "_done", "queued_at",
                 "degraded", "corr_id")

    def __init__(self, node_ids: Tuple[int, ...], client: str,
                 corr_id: Optional[str] = None) -> None:
        self.node_ids = node_ids
        self.client = client
        self.labels: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        # A latch: held from admission until the request resolves or
        # fails. A bare lock costs a fraction of a threading.Event, which
        # matters on the sequential path, where every query makes one.
        self._done = threading.Lock()
        self._done.acquire()
        self.queued_at = time.perf_counter()
        #: True when the answer is a backbone-only (non-rectified)
        #: prediction served while the enclave was unrecoverable.
        self.degraded = False
        #: correlation id minted at admission (None without a logger);
        #: joins this query's log lines to its batch's timeline.
        self.corr_id = corr_id

    def _resolve(self, labels: np.ndarray, degraded: bool = False) -> None:
        self.labels = labels
        self.degraded = degraded
        self._done.release()

    def _fail(self, error: BaseException) -> None:
        self.error = error
        self._done.release()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        done = self._done
        wait = (-1 if timeout is None
                else min(max(0.0, timeout), threading.TIMEOUT_MAX))
        if not done.acquire(timeout=wait):
            # Exception text travels beyond the issuing client (operator
            # logs, alert payloads), so echo the query size, not the ids.
            raise TimeoutError(
                f"query for {len(self.node_ids)} nodes not answered "
                f"in {timeout}s"
            )
        done.release()  # open again for any other waiter
        if self.error is not None:
            raise self.error
        return self.labels


class _StagedBatch:
    """Requests plus their resolved embeddings, ready for the enclave.

    Carries the batch's boundary timestamps (``perf_counter``) so the
    profiler can reconstruct the full timeline where the batch executes.
    """

    __slots__ = ("requests", "embeddings", "backbone_seconds", "overlapped",
                 "queued_at", "collect_start", "stage_start", "stage_end")

    def __init__(self, requests, embeddings, backbone_seconds, overlapped,
                 queued_at, collect_start, stage_start, stage_end) -> None:
        self.requests = requests
        self.embeddings = embeddings
        self.backbone_seconds = backbone_seconds
        self.overlapped = overlapped
        self.queued_at = queued_at
        self.collect_start = collect_start
        self.stage_start = stage_start
        self.stage_end = stage_end


def _decode_query_trace(row: tuple) -> Span:
    """Materialise a compact serving record into its span tree.

    The serving path stores one flat tuple per query instead of ~10 span
    objects (see :meth:`repro.obs.tracing.Tracer.open_record`). Row
    layout — written by :meth:`VaultServer._execute_batch` with the ECALL
    segment spliced in by ``EnclaveTelemetryGate.record_ecall``::

        ("query", wall_seconds, batch_size,
         [ecall_total, transfer, enclave, paging,          # present only
          payload_bytes, peak_memory_bytes, swapped_pages,]  # with ECALL
         backbone_seconds, total_seconds_or_None)

    The decoded tree is identical to what per-span recording would have
    produced: ``query`` over ``backbone`` and a redacted ``ecall``
    subtree, so trace consumers never see the encoding.
    """
    root = Span("query")
    root._wall_seconds = row[1]
    root.set_attribute("batch_size", row[2])
    if row[-1] is not None:
        root.set_seconds(row[-1])
    root.add_stage("backbone", row[-2])
    if len(row) == 12:
        ecall = RedactedSpan("ecall")
        ecall.set_seconds(row[3])
        ecall.set_attribute("payload_bytes", row[7])
        ecall.set_attribute("peak_memory_bytes", row[8])
        ecall.set_attribute("swapped_pages", row[9])
        ecall.add_stage("transfer", row[4])
        ecall.add_stage("enclave", row[5])
        ecall.add_stage("paging", row[6])
        root.children.append(ecall)
    return root


COMPACT_DECODERS["query"] = _decode_query_trace


class VaultServer:
    """Serve label-only node queries from a provisioned GNNVault."""

    def __init__(
        self,
        session: SecureInferenceSession,
        features: np.ndarray,
        query_budget: Optional[int] = None,
        cache_embeddings: bool = True,
        telemetry: Optional[Telemetry] = None,
        health: Optional[HealthMonitor] = None,
        monitor: Optional[QueryPatternMonitor] = None,
        enable_health: bool = True,
    ) -> None:
        self._session = session
        self._features = np.asarray(features, dtype=np.float64)
        if query_budget is not None and query_budget <= 0:
            raise ValueError(f"query_budget must be positive, got {query_budget}")
        self.query_budget = query_budget
        self.cache_embeddings = cache_embeddings
        # One telemetry hub per deployment: reuse the session's if it has
        # one (so server spans and enclave spans share a trace tree),
        # otherwise create and wire one through to the enclave gate.
        self.telemetry = telemetry or session.telemetry or Telemetry()
        if session.telemetry is not self.telemetry:
            session.attach_telemetry(self.telemetry)
        self.stats = ServerStats(self.telemetry.registry)
        # Health & audit layer: SLO tracking plus the link-stealing query
        # monitor. Defaults on with telemetry; ``enable_health=False``
        # gives the bare serving path (the overhead benchmark's baseline).
        if health is not None:
            self.health = health
        elif enable_health and self.telemetry.enabled:
            self.health = HealthMonitor(telemetry=self.telemetry)
        else:
            self.health = None
        if self.health is not None:
            # The cache SLO reads ServerStats' counters at flush time, so
            # serving pays nothing per query for it.
            stats = self.stats
            self.health.attach_cache_probe(
                lambda: (stats.embedding_cache_hits, stats.embedding_cache_misses)
            )
        # Health/monitor observations are buffered per batch and replayed
        # in order every ``_health_drain_at`` batches (and at the end of
        # every ``serve`` / before any report). The replay preserves exact
        # per-batch semantics — the simulated clock advances batch by
        # batch — while the hot path pays one list append instead of
        # walking the SLO and pattern structures per query, which keeps
        # their cache footprint off the serving path. Each entry is one
        # served batch: ``(((node_ids, client), ...), profile)`` — a
        # micro-batch carries several (node_ids, client) groups but one
        # profile, since the enclave executed it as one ECALL.
        self._health_pending: List[Tuple[Tuple[Tuple[Sequence[int], str], ...], Any]] = []
        self._health_drain_at = 64
        self._health_lock = threading.Lock()
        if monitor is not None:
            self.monitor = monitor
        elif self.health is not None:
            self.monitor = QueryPatternMonitor(
                self._features.shape[0], self.health.alerts
            )
        else:
            self.monitor = None
        # Backbone pre-computation: computed on the first query of each
        # feature version, then served from cache until the session's
        # feature_version moves (add_node). (version, embeddings) pair.
        # The lock makes refills safe under the scheduler's worker
        # threads; the fast path (hit) stays lock-free — the pair is
        # swapped atomically and versions only move under the fence.
        self._embedding_cache: Optional[Tuple[int, List[np.ndarray]]] = None
        self._embed_lock = threading.Lock()
        # At most one MicroBatchScheduler may pump this server at a time;
        # add_node fences through it so no in-flight batch straddles a
        # graph-version change.
        self._scheduler = None
        # Batch sequence numbers for every executed batch, sequential or
        # pipelined, so a log line's batch_seq names one batch for the
        # server's lifetime. next() on a count is atomic under the GIL.
        self._batch_seqs = itertools.count(1)
        # Optional continuous profiler for the *sequential* path: when
        # attached, every query_batch records a BatchTimeline (queue and
        # collect collapse to zero — there is no pipeline).
        # Detached, the hot path pays one attribute load + None check.
        self.profiler = None
        # Optional enclave supervisor: when attached, every ECALL-bearing
        # query routes through its bounded retry + crash-recovery loop,
        # and an attached MicroBatchScheduler inherits it at start().
        self.supervisor = None
        # Optional tenant cost ledger + structured logger: attached
        # together or separately, both see only hashed tenant tokens.
        self.tenancy = None
        self.logger = None

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def attach_profiler(self, profiler) -> None:
        """Attach a :class:`~repro.obs.profiling.PipelineProfiler`."""
        self.profiler = profiler

    def detach_profiler(self) -> None:
        self.profiler = None

    # ------------------------------------------------------------------
    # Tenancy & structured logging
    # ------------------------------------------------------------------
    def attach_tenancy(self, ledger) -> None:
        """Attach a :class:`~repro.obs.tenancy.TenantCostLedger`.

        Every served batch (sequential or pipelined) is attributed to
        its contributing tenants, and the pattern monitor's flags route
        into the ledger's per-tenant suspicion tallies — all keyed by
        hashed tenant token, never by raw client string.
        """
        self.tenancy = ledger
        if self.monitor is not None and ledger is not None:
            self.monitor.on_flag = ledger.note_suspicion

    def detach_tenancy(self) -> None:
        if (self.monitor is not None and self.tenancy is not None
                and self.monitor.on_flag == self.tenancy.note_suspicion):
            self.monitor.on_flag = None
        self.tenancy = None

    def attach_logger(self, logger) -> None:
        """Attach a :class:`~repro.obs.logging.StructuredLogger`.

        Mints a correlation id per admitted query and threads it through
        admission → batch → ECALL → retry → resolution log events.
        """
        self.logger = logger

    def detach_logger(self) -> None:
        self.logger = None

    def _tenant_token(self, client: str) -> str:
        """The hashed (and cardinality-bounded) tenant id for a client."""
        tenancy = self.tenancy
        if tenancy is not None:
            return tenancy.tenant_id(client)
        from ..obs.tenancy import hash_tenant

        return hash_tenant(client)

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------
    @property
    def session(self) -> SecureInferenceSession:
        """The inference session this server fronts (for supervisors)."""
        return self._session

    def attach_supervisor(self, supervisor) -> None:
        """Attach an :class:`~repro.deploy.resilience.EnclaveSupervisor`.

        The supervisor must watch this server's own session — recovery
        swaps ``session.enclave``, and pairing a supervisor with a
        different session would restore the wrong deployment's snapshot.
        """
        if supervisor is not None and supervisor.session is not self._session:
            raise ValueError(
                "supervisor is bound to a different inference session"
            )
        self.supervisor = supervisor
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler.supervisor = supervisor

    def detach_supervisor(self) -> None:
        self.supervisor = None

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _embeddings(self, workers=None) -> Tuple[List[np.ndarray], float]:
        """Backbone embeddings for the current feature version.

        Returns ``(embeddings, backbone_seconds)`` where the seconds are
        the simulated backbone latency actually *incurred* by this call:
        the full cost on a miss, zero on a hit (the untrusted half is pure
        pre-computation, so a real deployment pays it once per version).

        ``workers`` (a :class:`~repro.deploy.scheduler.ShardedBackboneWorkers`)
        row-shards the backbone pass on a miss; the result is bit-identical
        to the single-threaded pass. Refills are serialised so concurrent
        scheduler threads never run the full-graph pass twice per version.
        """
        version = self._session.feature_version
        # vaultlint: unlocked-ok(lock-free fast path; the tuple is written atomically under _embed_lock and version-checked here, a stale read only costs one extra lock round)
        cached = self._embedding_cache
        if cached is not None and cached[0] == version:
            self.stats.record_embedding_cache(hit=True)
            return cached[1], 0.0
        with self._embed_lock:
            # Double-checked: another thread may have refilled while we
            # waited for the lock.
            version = self._session.feature_version
            cached = self._embedding_cache
            if cached is not None and cached[0] == version:
                self.stats.record_embedding_cache(hit=True)
                return cached[1], 0.0
            if cached is not None:
                # A populated cache missing means the deployment version
                # moved underneath it — an invalidation, not a cold start.
                self.telemetry.audit.append(
                    "cache_invalidation",
                    time=self.health.now if self.health is not None else 0.0,
                    stale_version=cached[0], version=version,
                )
            embeddings, backbone_seconds = self._session.embed(
                self._features, workers=workers
            )
            self.stats.record_embedding_cache(hit=False)
            if self.cache_embeddings:
                self._embedding_cache = (version, embeddings)
            return embeddings, backbone_seconds

    def query(self, node_id: int, client: str = "default") -> int:
        """Answer a single node query with its class label."""
        return int(self.query_batch([node_id], client=client)[0])

    def query_batch(
        self, node_ids: Sequence[int], client: str = "default"
    ) -> np.ndarray:
        """Answer a batch of node queries (one ECALL for the batch).

        The request runs as a micro-batch of one through
        :meth:`_execute_batch`, the same step the scheduler's enclave
        worker runs, with the embeddings resolved inline on the caller's
        thread. ``client`` identifies the requester for per-client
        query-pattern monitoring and the audit trail; it never reaches
        the enclave.
        """
        node_ids = self._validate_ids(node_ids)
        if self.query_budget is not None:
            remaining = self.query_budget - self.stats.queries_served
            if len(node_ids) > remaining:
                self._budget_exhausted(client, len(node_ids))
        request = self._admit(node_ids, client)
        try:
            embeddings, backbone_seconds = self._embeddings()
        except BaseException as exc:
            self._fail_batch((request,), exc)
            raise
        queued_at = request.queued_at
        # Queue wait and batch formation do not exist on this path, so
        # their boundaries coincide at admission.
        staged = _StagedBatch(
            (request,), embeddings, backbone_seconds, overlapped=0.0,
            queued_at=queued_at, collect_start=queued_at,
            stage_start=queued_at, stage_end=time.perf_counter(),
        )
        self._execute_batch(staged, self.profiler, self.supervisor)
        return request.result()

    def _validate_ids(self, node_ids: Sequence[int]) -> Tuple[int, ...]:
        """Admission check shared by :meth:`query_batch` and the scheduler.

        Every id must be an ``int`` or numpy integer (``bool`` is not a
        node id) naming a node of the current feature matrix. Anything
        else raises :class:`InvalidQuery` before any ECALL runs or any
        queue entry is made, so one malformed request can neither cost
        an ECALL nor fail the tenants it would have been batched with.
        The enclave keeps its own range check behind this one.
        """
        num_nodes = self._features.shape[0]
        ids = []
        for position, node in enumerate(node_ids):
            if type(node) is bool or not isinstance(node, (int, np.integer)):
                raise InvalidQuery(
                    f"query id at position {position} is a "
                    f"{type(node).__name__}, not an integer node id"
                )
            if not 0 <= node < num_nodes:
                raise InvalidQuery(
                    f"query id at position {position} is outside the "
                    f"served graph"
                )
            ids.append(int(node))
        if not ids:
            raise InvalidQuery("empty query")
        return tuple(ids)

    def _admit(self, node_ids: Tuple[int, ...], client: str) -> "_PendingQuery":
        """Wrap validated ids as one request, logging its ``admit`` line."""
        corr_id = None
        log = self.logger
        if log is not None:
            corr_id = log.mint()
            log.emit(
                "admit", corr=corr_id, tenant=self._tenant_token(client),
                size_count=len(node_ids),
            )
        return _PendingQuery(node_ids, client, corr_id=corr_id)

    def _execute_batch(self, staged: "_StagedBatch", profiler, supervisor,
                       pipeline=None) -> None:
        """Run one staged batch through the enclave and account for it.

        The one ECALL execution step, for a sequential micro-batch of one
        and for the scheduler's coalesced batches alike: the ``query``
        trace record, the correlated log lines, the ECALL through the
        supervisor's retry loop, the backbone-only fallback, and every
        sink (stats, health, audit, tenant ledger, profiler, and the
        scheduler's ``pipeline`` stats when given). Every request is
        resolved or failed before this returns.
        """
        session = self._session
        requests = staged.requests
        node_lists = [request.node_ids for request in requests]
        total = sum(len(ids) for ids in node_lists)
        tracer = self.telemetry.tracer
        tenancy = self.tenancy
        log = self.logger
        batch_seq = next(self._batch_seqs)
        record = tracer.open_record("query", total)
        on_retry = None
        if log is not None:
            # join lines: every admitted query names the batch it ran in,
            # so corr ids map to exactly one batch_seq.
            for request in requests:
                if request.corr_id is not None:
                    log.emit(
                        "batch", corr=request.corr_id,
                        tenant=self._tenant_token(request.client),
                        batch_seq=batch_seq, size_count=len(request.node_ids),
                    )

            def on_retry(attempt, exc):
                log.emit("retry", batch_seq=batch_seq, attempt_count=attempt,
                         error=type(exc).__name__)

        def ecall():
            return session.predict_microbatch_precomputed(
                staged.embeddings, node_lists,
                backbone_seconds=staged.backbone_seconds,
            )

        counted = profiler is not None or tenancy is not None
        # session-lifetime count: the delta stays right across a restart
        ecalls_before = session.ecall_count if counted else 0
        execute_start = time.perf_counter()
        degraded = False
        try:
            if supervisor is None:
                labels, profile = ecall()
            else:
                # Bounded retry + crash recovery: a retried batch crosses
                # a fresh one-way channel like any other push; a killed
                # enclave is re-provisioned from the sealed snapshot
                # (after re-attestation) before the replay.
                labels, profile = supervisor.call_with_retry(
                    ecall, queued_at=staged.queued_at, on_retry=on_retry
                )
        except BaseException as exc:
            fallback = self._resolve_degraded(staged, exc, supervisor)
            if fallback is None:
                tracer.close_record(record, staged.backbone_seconds, None)
                self._fail_batch(requests, exc)
                return
            labels, profile = fallback
            degraded = True
        execute_end = time.perf_counter()
        tracer.close_record(
            record, staged.backbone_seconds, profile.total_seconds
        )
        execute_seconds = execute_end - execute_start
        flat = [node for ids in node_lists for node in ids]
        unique = len(set(flat))
        self.stats.record_batch(flat, profile)
        if pipeline is not None:
            pipeline.record_batch(
                len(requests), total, unique,
                staged.stage_end - staged.stage_start, execute_seconds,
                staged.overlapped,
            )
        health = self.health
        if health is not None or self.monitor is not None:
            with self._health_lock:
                pending = self._health_pending
                pending.append((
                    tuple((request.node_ids, request.client)
                          for request in requests),
                    profile,
                ))
                drain = len(pending) >= self._health_drain_at
            if drain:
                self.flush_health()
        now = 0.0 if health is None else health.now
        per_client: Dict[str, int] = {}
        for request in requests:
            per_client[request.client] = (
                per_client.get(request.client, 0) + len(request.node_ids)
            )
        for client, count in per_client.items():
            self.telemetry.audit.append(
                "query_served", time=now, client=client, batch_count=count,
            )
        cost_model = session.enclave.config.cost_model
        ecall_count = session.ecall_count - ecalls_before if counted else 0
        if tenancy is not None:
            # deferred attribution: snapshot the raw inputs only; the
            # ledger folds them at read time (report/reconcile/quota).
            tenancy.defer_batch(
                tuple((request.client, request.node_ids)
                      for request in requests),
                profile, ecall_count, cost_model, execute_seconds,
            )
        if log is not None and not degraded:
            log.emit(
                "ecall", batch_seq=batch_seq, queries_count=len(requests),
                unique_count=unique, seconds=execute_seconds,
                pages_count=profile.estimated_pages(cost_model),
                payload_bytes=profile.payload_bytes,
            )
        offset = 0
        for request in requests:
            request._resolve(
                labels[offset:offset + len(request.node_ids)], degraded
            )
            offset += len(request.node_ids)
            if log is not None and request.corr_id is not None:
                flags = {"degraded": True} if degraded else {}
                log.emit(
                    "resolve", corr=request.corr_id,
                    tenant=self._tenant_token(request.client),
                    seconds=time.perf_counter() - request.queued_at, **flags,
                )
        if profiler is not None:
            # one raw tuple; the timeline and its cost record are built
            # when a reader asks, off the serving path
            profiler.record_stamps(
                batch_seq, len(requests), total, unique,
                (staged.queued_at, staged.collect_start, staged.stage_start,
                 staged.stage_end, execute_start, execute_end,
                 time.perf_counter()),
                staged.overlapped, profile, ecall_count, cost_model,
            )

    def _resolve_degraded(self, staged: "_StagedBatch", exc: BaseException,
                          supervisor):
        """Opt-in failover: backbone-only labels for a failed batch.

        Only when the supervisor is permanently degraded, the policy
        allows ``backbone_only`` mode, and the failure was an
        availability event (not a logic error). The answers are computed
        entirely in the untrusted world from the already-staged
        embeddings — the dead enclave is never touched and nothing
        crosses the one-way channel. Returns ``(labels, profile)`` with
        a backbone-only profile, or ``None`` when the failure stands.
        """
        from .resilience import DEGRADED_BACKBONE_ONLY, RETRYABLE_ERRORS

        if (supervisor is None
                or not supervisor.degraded
                or supervisor.policy.degraded_mode != DEGRADED_BACKBONE_ONLY
                or not isinstance(exc, (RecoveryFailed,) + RETRYABLE_ERRORS)):
            return None
        requests = staged.requests
        flat = [node for request in requests for node in request.node_ids]
        labels = self._session.backbone_labels(staged.embeddings, flat)
        supervisor.note_degraded(len(requests))
        return labels, InferenceProfile(
            backbone_seconds=staged.backbone_seconds,
            transfer_seconds=0.0,
            enclave_seconds=0.0,
            paging_seconds=0.0,
            payload_bytes=0,
            peak_enclave_memory_bytes=0,
        )

    def _fail_batch(self, requests: Sequence["_PendingQuery"],
                    exc: BaseException) -> None:
        """Fail every request of a batch, logging a ``drop`` line each."""
        log = self.logger
        for request in requests:
            request._fail(exc)
            if log is not None and request.corr_id is not None:
                log.emit(
                    "drop", corr=request.corr_id,
                    tenant=self._tenant_token(request.client),
                    error=type(exc).__name__,
                )

    def _budget_exhausted(self, client: str, batch_len: int) -> None:
        """Alert, audit, and refuse: a client ran its query budget dry."""
        now = self.health.now if self.health is not None else 0.0
        if self.health is not None:
            self.health.alerts.fire(
                f"budget/{client}", "security", "critical",
                f"client {client} exhausted the query budget "
                f"({self.query_budget} queries)",
                now=now,
            )
        else:
            self.telemetry.audit.append(
                "security_alert", time=now, client=client,
                reason="query_budget_exhausted",
            )
        raise QueryBudgetExceeded(
            f"query budget exhausted ({self.stats.queries_served}/"
            f"{self.query_budget} used, batch of {batch_len} denied)"
        )

    def flush_health(self) -> None:
        """Replay buffered observations into the health & monitor layer.

        Runs automatically every ``_health_drain_at`` batches, at the end
        of :meth:`serve`, and before :meth:`health_report`; call it
        directly before reading ``self.health`` / ``self.monitor`` state
        after a raw :meth:`query_batch` loop. The replay walks batches in
        arrival order, so the health layer's simulated clock and every
        detector see exactly the sequence they would have seen inline.
        """
        # The whole replay runs under the lock: the health layer itself is
        # not thread-safe, and two concurrent flushes must not interleave
        # batches out of arrival order. Appends contend only for the rare
        # drain, not per query.
        with self._health_lock:
            pending = self._health_pending
            if not pending:
                return
            health, monitor = self.health, self.monitor
            observe_batch = None if health is None else health.observe_batch
            observe_client = None if monitor is None else monitor.observe
            now = 0.0 if health is None else health.now
            for entries, profile in pending:
                if observe_batch is not None:
                    observe_batch(sum(len(ids) for ids, _ in entries), profile)
                    now = health.now
                if observe_client is not None:
                    for node_ids, client in entries:
                        observe_client(client, list(node_ids), now)
            pending.clear()

    def serve(
        self,
        workload: Sequence[int],
        batch_size: int = 1,
        client: str = "default",
        scheduler=None,
    ) -> np.ndarray:
        """Serve a whole query workload; returns all labels in order.

        ``scheduler`` switches the deployment to the pipelined micro-batch
        path: pass a :class:`~repro.deploy.scheduler.BatchPolicy` to run
        the workload through a transient
        :class:`~repro.deploy.scheduler.MicroBatchScheduler`, or an
        already-running scheduler instance to share one across calls. The
        labels are identical to the sequential path either way — batching
        changes the schedule, never the answers.
        """
        if scheduler is not None:
            from .scheduler import BatchPolicy, MicroBatchScheduler

            if isinstance(scheduler, BatchPolicy):
                with MicroBatchScheduler(self, policy=scheduler) as active:
                    return active.serve(workload, client=client)
            if isinstance(scheduler, MicroBatchScheduler) and not scheduler.running:
                with scheduler as active:
                    return active.serve(workload, client=client)
            return scheduler.serve(workload, client=client)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        answers: List[np.ndarray] = []
        workload = list(workload)
        for start in range(0, len(workload), batch_size):
            answers.append(
                self.query_batch(workload[start : start + batch_size], client=client)
            )
        self.flush_health()
        return np.concatenate(answers) if answers else np.empty(0, dtype=np.int64)

    def health_report(self):
        """The current :class:`~repro.obs.health.HealthReport` (or None)."""
        self.flush_health()
        return self.health.report() if self.health is not None else None

    # ------------------------------------------------------------------
    # Online updates
    # ------------------------------------------------------------------
    def add_node(self, features_row, substitute_neighbours, sealed_update) -> int:
        """Register a new node with the live deployment; returns its id.

        Delegates to :meth:`SecureInferenceSession.add_node` (which bumps
        the feature version, so the backbone-embedding cache misses on the
        next query) and appends the node's public feature row so the
        served feature matrix stays in sync with the grown graph.

        With a scheduler attached the update runs inside its
        :meth:`~repro.deploy.scheduler.MicroBatchScheduler.paused` fence:
        batch formation stops and in-flight batches drain before the graph
        version moves, so no micro-batch ever pairs stale embeddings with
        the grown private graph.
        """
        features_row = np.asarray(features_row, dtype=np.float64).reshape(1, -1)
        if features_row.shape[1] != self._features.shape[1]:
            raise ValueError(
                f"new node has {features_row.shape[1]} features, deployment "
                f"expects {self._features.shape[1]}"
            )
        scheduler = self._scheduler
        if scheduler is not None:
            with scheduler.paused():
                return self._apply_add_node(
                    features_row, substitute_neighbours, sealed_update
                )
        return self._apply_add_node(
            features_row, substitute_neighbours, sealed_update
        )

    def _apply_add_node(
        self, features_row, substitute_neighbours, sealed_update
    ) -> int:
        self.flush_health()
        new_id = self._session.add_node(substitute_neighbours, sealed_update)
        self._features = np.vstack([self._features, features_row])
        if self.monitor is not None:
            self.monitor.grow_graph(self._features.shape[0])
        return new_id

    # ------------------------------------------------------------------
    # Scheduler wiring
    # ------------------------------------------------------------------
    def _attach_scheduler(self, scheduler) -> None:
        if self._scheduler is not None:
            raise RuntimeError("a scheduler is already attached to this server")
        self._scheduler = scheduler

    def _detach_scheduler(self, scheduler) -> None:
        if self._scheduler is scheduler:
            self._scheduler = None


def zipf_workload(
    num_nodes: int,
    num_queries: int,
    alpha: float = 1.1,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """A Zipf-distributed node-query stream.

    Real recommendation traffic is heavy-tailed: a few popular items
    receive most lookups. ``alpha`` controls the skew (higher = more
    concentrated); node popularity ranks are shuffled by ``seed``.

    Reproducibility: pass an explicit ``rng`` to draw from a generator
    you control (e.g. one shared across a benchmark run so successive
    workloads differ deterministically); otherwise a fresh generator is
    seeded from ``seed``, so equal arguments always give equal streams.
    """
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if num_queries < 0:
        raise ValueError(f"num_queries must be >= 0, got {num_queries}")
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1 for a proper Zipf law, got {alpha}")
    if rng is None:
        rng = np.random.default_rng(seed)
    ranks = rng.zipf(alpha, size=num_queries)
    ranks = np.minimum(ranks, num_nodes) - 1  # clamp into [0, num_nodes)
    permutation = rng.permutation(num_nodes)
    return permutation[ranks]
