"""Pipelined micro-batch serving: coalesce queries, amortise ECALLs.

The paper's Fig. 6 breakdown shows GNNVault's overhead concentrated in
world transitions and in-enclave rectifier time; a sequential server pays
both *per query* while the other world idles. This module adds the
concurrency layer that tames that cost for heavy traffic:

* :class:`BatchPolicy` — admission knobs: how many concurrent queries may
  coalesce into one micro-batch and how long the first query in a batch
  may wait for company.
* :class:`MicroBatchScheduler` — an admission queue plus a **two-stage
  pipeline**: stage U (untrusted) resolves backbone embeddings and stages
  the coalesced channel payload for batch *i+1* while stage E (enclave)
  executes the single amortised ECALL for batch *i*. A bounded handoff of
  depth one double-buffers the stages.
* :class:`StripedLocks` — per-key mutual exclusion without a global
  bottleneck, used for the per-client in-flight accounting.

Security invariants are preserved across interleaving: every batch's
embeddings cross through a fresh :class:`~repro.tee.channel.OneWayChannel`
(one coalesced push, label-only egress), ECALLs stay serialised on the
enclave's single TCS, and online ``add_node`` updates are **fenced** — the
scheduler pauses batch formation and drains in-flight batches before the
graph version moves, so no batch ever mixes embeddings from one version
with a private graph from another.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import Counter as _TallyCounter
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .server import _PendingQuery, _StagedBatch


class SchedulerOverloaded(RuntimeError):
    """Admission refused: queue depth or per-client in-flight cap hit."""


@dataclass(frozen=True)
class BatchPolicy:
    """Admission-control knobs for micro-batch formation.

    ``max_batch_size`` bounds how many queries one ECALL may serve (the
    amortisation factor); ``max_wait_ms`` bounds how long the *first*
    query of a forming batch waits for companions, trading tail latency
    for batch size at low load. Under saturation the wait never triggers
    — the queue already holds a full batch. ``max_queue_depth`` and
    ``max_inflight_per_client`` are backpressure: beyond them admission
    raises :class:`SchedulerOverloaded` instead of growing without bound.
    """

    max_batch_size: int = 16
    max_wait_ms: float = 2.0
    max_queue_depth: int = 4096
    max_inflight_per_client: int = 0  # 0 disables the per-client cap

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_inflight_per_client < 0:
            raise ValueError(
                "max_inflight_per_client must be >= 0, got "
                f"{self.max_inflight_per_client}"
            )


class StripedLocks:
    """A fixed array of locks indexed by key hash.

    Per-key state touched by many threads (the per-client in-flight
    counters below) needs mutual exclusion per *key*, not globally; a
    single lock serialises unrelated clients, one lock per key grows
    without bound. Striping is the standard middle ground: contention
    only between keys that collide in the same stripe.
    """

    def __init__(self, stripes: int = 16) -> None:
        if stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        self._locks = tuple(threading.Lock() for _ in range(stripes))

    def lock_for(self, key) -> threading.Lock:
        return self._locks[hash(key) % len(self._locks)]


class PipelineStats:
    """Thread-safe aggregate view of the pipeline's behaviour."""

    def __init__(self) -> None:
        # Reentrant so the derived properties can acquire it themselves
        # and still be read from snapshot(), which already holds it.
        self._lock = threading.RLock()
        self.batches = 0
        self.queries = 0
        self.targets_requested = 0
        self.targets_unique = 0
        self.stage_untrusted_seconds = 0.0
        self.stage_enclave_seconds = 0.0
        self.overlapped_untrusted_seconds = 0.0
        self.batch_sizes: Dict[int, int] = {}

    def record_batch(self, num_queries: int, targets_requested: int,
                     targets_unique: int, staged_seconds: float,
                     enclave_seconds: float, overlapped_seconds: float) -> None:
        # A batch may legitimately report zero staged overlap, and racy
        # unlocked reads of the busy ledger can even produce a slightly
        # negative delta; clamp into [0, staged] so the aggregate
        # overlap fraction stays a fraction.
        overlapped_seconds = min(
            max(0.0, staged_seconds), max(0.0, overlapped_seconds)
        )
        with self._lock:
            self.batches += 1
            self.queries += num_queries
            self.targets_requested += targets_requested
            self.targets_unique += targets_unique
            self.stage_untrusted_seconds += staged_seconds
            self.stage_enclave_seconds += enclave_seconds
            self.overlapped_untrusted_seconds += overlapped_seconds
            self.batch_sizes[num_queries] = self.batch_sizes.get(num_queries, 0) + 1

    # -- derived ---------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            return self.queries / self.batches if self.batches else 0.0

    @property
    def ecalls_per_query(self) -> float:
        """One ECALL per micro-batch, so this is batches / queries."""
        with self._lock:
            return self.batches / self.queries if self.queries else 0.0

    @property
    def dedup_fraction(self) -> float:
        """Fraction of requested targets answered from a batch-mate's plan."""
        with self._lock:
            if self.targets_requested == 0:
                return 0.0
            return 1.0 - self.targets_unique / self.targets_requested

    @property
    def overlap_fraction(self) -> float:
        """Share of stage-U wall time hidden behind a busy enclave.

        Guarded for the zero-staged-overlap edge case: a batch can
        complete with no measurable staging time at all (embedding-cache
        hit returning in under clock resolution), in which case the
        fraction is 0, not a division error — and the result is clamped
        to [0, 1] so accounting jitter can never report >100 % overlap.
        """
        with self._lock:
            if self.stage_untrusted_seconds <= 0.0:
                return 0.0
            return min(
                1.0,
                self.overlapped_untrusted_seconds
                / self.stage_untrusted_seconds,
            )

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "batches": self.batches,
                "queries": self.queries,
                "mean_batch_size": self.mean_batch_size,
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(self.batch_sizes.items())
                },
                "ecalls_per_query": self.ecalls_per_query,
                "targets_requested": self.targets_requested,
                "targets_unique": self.targets_unique,
                "dedup_fraction": self.dedup_fraction,
                "stage_untrusted_seconds": self.stage_untrusted_seconds,
                "stage_enclave_seconds": self.stage_enclave_seconds,
                "pipeline_overlap_fraction": self.overlap_fraction,
            }

    def publish_gauges(self, registry, prefix: str = "pipeline_") -> None:
        """Expose :meth:`snapshot` scalars as gauges in a metrics registry.

        The histogram entry is skipped (it is not a scalar); everything
        else becomes ``pipeline_*`` gauges so dashboards and Prometheus
        scrapes see the pipeline without touching scheduler internals.
        """
        for key, value in self.snapshot().items():
            if not isinstance(value, (int, float)):
                continue
            name = key if key.startswith(prefix) else f"{prefix}{key}"
            registry.gauge(name).set(float(value))


class MicroBatchScheduler:
    """Coalesce concurrent queries into amortised, pipelined micro-batches.

    Usage::

        server = VaultServer(session, features)
        with MicroBatchScheduler(server, BatchPolicy(max_batch_size=16)) as s:
            label = s.query(42)              # any thread
            labels = s.serve(workload)       # bulk, answers in order

    Two worker threads implement the pipeline: the **collector** forms
    batches from the admission queue and runs stage U (embedding-cache
    resolution); the **enclave worker** takes staged batches from a
    depth-one handoff and hands each to :meth:`VaultServer._execute_batch
    <repro.deploy.server.VaultServer._execute_batch>`, the one ECALL step
    the sequential path runs too. While the enclave executes batch *i*,
    the collector stages batch *i+1* — the double buffer.

    The scheduler owns only batch formation: per-client in-flight caps,
    the queue, the pipeline and the :meth:`paused` fence. Admission, the
    query budget and every observer (supervisor, profiler, tenancy,
    logger) belong to the server, so a scheduler and sequential callers
    sharing one server see one budget and one set of observers.
    """

    def __init__(self, server, policy: Optional[BatchPolicy] = None) -> None:
        self._server = server
        self.policy = policy if policy is not None else BatchPolicy()
        self.stats = PipelineStats()
        self._queue: Deque[_PendingQuery] = deque()
        self._cv = threading.Condition()  # guards queue/fence/inflight/running
        self._handoff: "queue.Queue[Optional[_StagedBatch]]" = queue.Queue(maxsize=1)
        #: thread ident holding the :meth:`paused` fence (None when lifted)
        self._fence_owner: Optional[int] = None
        self._inflight_batches = 0
        self._running = False
        # Enclave busy-time ledger for overlap accounting: total seconds
        # the enclave worker has spent executing batches, plus the start
        # timestamp of the ECALL currently in flight (None when idle).
        # Stage U samples the ledger before and after staging; the delta
        # is stage-U wall time genuinely hidden behind a busy enclave.
        self._busy_accum = 0.0
        self._busy_start: Optional[float] = None
        self._collector: Optional[threading.Thread] = None
        self._enclave_worker: Optional[threading.Thread] = None
        self._client_inflight: Dict[str, int] = {}
        self._client_locks = StripedLocks()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatchScheduler":
        with self._cv:
            if self._running:
                raise RuntimeError("scheduler already running")
            self._running = True
        self._server._attach_scheduler(self)
        self._collector = threading.Thread(
            target=self._collect_loop, name="vault-collector", daemon=True
        )
        self._enclave_worker = threading.Thread(
            target=self._enclave_loop, name="vault-enclave", daemon=True
        )
        self._collector.start()
        self._enclave_worker.start()
        return self

    def close(self) -> None:
        """Drain queued work, stop both workers, detach from the server.

        Called from another thread while :meth:`paused` is held, it waits
        for the fence to lift before the queue drains. Called by the
        thread holding the fence, it raises instead of deadlocking.
        """
        with self._cv:
            if not self._running:
                return
            if self._fence_owner == threading.get_ident():
                raise RuntimeError(
                    "close() inside paused(): the queue cannot drain "
                    "until this thread lifts the fence"
                )
            self._running = False
            self._cv.notify_all()
        self._collector.join()
        self._enclave_worker.join()
        self.publish_stats()
        self._server._detach_scheduler(self)

    def publish_stats(self) -> None:
        """Publish :class:`PipelineStats` as ``pipeline_*`` gauges."""
        self.stats.publish_gauges(self._server.telemetry.registry)

    def __enter__(self) -> "MicroBatchScheduler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def running(self) -> bool:
        # vaultlint: unlocked-ok(single-bool liveness probe; GIL-atomic read, and callers only use it as a hint — start/close re-check under _cv)
        return self._running

    # ------------------------------------------------------------------
    # Admission (any client thread)
    # ------------------------------------------------------------------
    def submit(self, node_ids: Sequence[int], client: str = "default") -> _PendingQuery:
        """Admit one request; returns a handle whose ``result()`` blocks.

        The server's admission step runs first: a malformed request
        raises :class:`~repro.deploy.server.InvalidQuery` and an
        over-budget one :class:`~repro.deploy.server.QueryBudgetExceeded`,
        and neither joins a batch. A request the scheduler then refuses
        (not running, per-client cap, full queue) leaves no residue: its
        in-flight slot is released, its budget refunded and one ``drop``
        line logged before the error propagates.
        """
        request = self._server._admit(node_ids, client)
        try:
            request.slot = self._take_slot(client)
            with self._cv:
                if not self._running:
                    raise RuntimeError("scheduler is not running")
                if len(self._queue) >= self.policy.max_queue_depth:
                    raise SchedulerOverloaded(
                        f"admission queue is full ({self.policy.max_queue_depth})"
                    )
                self._queue.append(request)
                self._cv.notify_all()
        except BaseException as exc:
            self._release_slot(request)
            self._server._fail_batch((request,), exc)
            raise
        return request

    def _take_slot(self, client: str) -> bool:
        """Claim one per-client in-flight slot; False when uncapped.

        Whether a request holds a slot is fixed here, at admission: a
        ledger's ``over_quota`` may flip while it is in flight, and a
        request admitted without a slot must not give one back.
        """
        cap = self.policy.max_inflight_per_client
        tenancy = self._server.tenancy
        if tenancy is not None and tenancy.over_quota(client):
            # Quota-breach backpressure: the ledger's per-tenant spend
            # quota tightens this tenant's in-flight allowance to a
            # trickle (the policy cap halved, or 1 when uncapped) —
            # the tenant keeps getting answers, just serially, while
            # everyone else's admission is untouched.
            cap = 1 if cap == 0 else max(1, cap // 2)
        if cap == 0:
            return False
        with self._client_locks.lock_for(client):
            inflight = self._client_inflight.get(client, 0)
            if inflight >= cap:
                raise SchedulerOverloaded(
                    f"client {client!r} has {inflight} queries in flight "
                    f"(cap {cap})"
                )
            self._client_inflight[client] = inflight + 1
        return True

    def query(self, node_id: int, client: str = "default",
              timeout: Optional[float] = None) -> int:
        """Answer one node query (blocks until its micro-batch completes)."""
        return int(self.submit([node_id], client=client).result(timeout)[0])

    def query_batch(self, node_ids: Sequence[int], client: str = "default",
                    timeout: Optional[float] = None) -> np.ndarray:
        """Answer one multi-node request (kept whole within a micro-batch)."""
        return self.submit(node_ids, client=client).result(timeout)

    def serve(self, workload: Sequence[int], client: str = "default") -> np.ndarray:
        """Submit a whole workload as single-node queries; labels in order."""
        pending = [self.submit([node], client=client) for node in workload]
        if not pending:
            return np.empty(0, dtype=np.int64)
        labels = np.concatenate([request.result() for request in pending])
        self._server.flush_health()
        return labels

    # ------------------------------------------------------------------
    # Update fencing
    # ------------------------------------------------------------------
    @contextmanager
    def paused(self):
        """Fence: stop batch formation and drain in-flight batches.

        ``add_node`` swaps the graph version under the deployment;
        executing it concurrently with a staged batch would pair old
        embeddings with the new private graph. Inside this context no
        batch is forming, staged, or executing — queued requests stay
        queued and are served against the *new* version on resume. One
        thread holds the fence at a time; the holder may re-enter it
        (``add_node`` inside ``paused()``), other threads wait for it.
        """
        me = threading.get_ident()
        with self._cv:
            held = self._fence_owner == me
            if not held:
                self._cv.wait_for(lambda: self._fence_owner is None)
                self._fence_owner = me
                self._cv.notify_all()
                self._cv.wait_for(lambda: self._inflight_batches == 0)
        try:
            yield
        finally:
            if not held:
                with self._cv:
                    self._fence_owner = None
                    self._cv.notify_all()

    def add_node(self, features_row, substitute_neighbours, sealed_update) -> int:
        """Fenced online update (see :meth:`VaultServer.add_node`)."""
        return self._server.add_node(
            features_row, substitute_neighbours, sealed_update
        )

    # ------------------------------------------------------------------
    # Stage U: collector
    # ------------------------------------------------------------------
    def _next_batch(self) -> Optional[Tuple[List[_PendingQuery], float]]:
        with self._cv:
            # A held fence stops formation even while closing, so close()
            # from another thread drains only after the fence lifts.
            self._cv.wait_for(
                lambda: self._fence_owner is None
                and (self._queue or not self._running)
            )
            if not self._queue:
                return None  # shutdown with an empty queue
            collect_start = time.perf_counter()
            batch = [self._queue.popleft()]
            # In flight from its first request on, so a fence raised while
            # the batch waits for company also waits for it to execute.
            self._inflight_batches += 1
            deadline = time.monotonic() + self.policy.max_wait_ms / 1000.0
            while len(batch) < self.policy.max_batch_size:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                if not self._running:
                    break  # flush mode: close() drains without waiting
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(remaining)
                if not self._queue or self._fence_owner is not None:
                    break
            return batch, collect_start

    def _collect_loop(self) -> None:
        while True:
            popped = self._next_batch()
            if popped is None:
                break
            batch, collect_start = popped
            try:
                staged = self._stage(batch, collect_start)
            except BaseException as exc:  # stage-U failure fails the batch
                self._server._fail_batch(batch, exc)
                self._finish_batch(batch)
                continue
            self._handoff.put(staged)  # blocks while the enclave is busy
        self._handoff.put(None)

    def _enclave_busy_seconds(self) -> float:
        """Cumulative seconds the enclave worker has been executing.

        Reading ``_busy_accum``/``_busy_start`` unlocked is benign: both
        are plain assignments (atomic under the GIL) and the value only
        feeds overlap *accounting*, never control flow.
        """
        total = self._busy_accum
        start = self._busy_start
        if start is not None:
            total += time.perf_counter() - start
        return total

    def _stage(self, batch: List[_PendingQuery],
               collect_start: float) -> _StagedBatch:
        busy_before = self._enclave_busy_seconds()
        start = time.perf_counter()
        embeddings, backbone_seconds = self._server._embeddings()
        stage_end = time.perf_counter()
        # clamp: the unlocked busy-ledger read can race the worker's
        # accumulate-then-clear and come back marginally negative
        overlapped = min(
            stage_end - start,
            max(0.0, self._enclave_busy_seconds() - busy_before),
        )
        return _StagedBatch(
            batch, embeddings, backbone_seconds, overlapped,
            queued_at=min(request.queued_at for request in batch),
            collect_start=collect_start, stage_start=start,
            stage_end=stage_end,
        )

    # ------------------------------------------------------------------
    # Stage E: enclave worker
    # ------------------------------------------------------------------
    def _enclave_loop(self) -> None:
        while True:
            staged = self._handoff.get()
            if staged is None:
                break
            self._busy_start = time.perf_counter()
            try:
                self._server._execute_batch(staged, self.stats)
            finally:
                self._busy_accum += time.perf_counter() - self._busy_start
                self._busy_start = None
                self._finish_batch(staged.requests)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _release_slot(self, request: _PendingQuery) -> None:
        """Give back the request's in-flight slot, if it holds one."""
        if not request.slot:
            return
        request.slot = False
        client = request.client
        with self._client_locks.lock_for(client):
            remaining = self._client_inflight.get(client, 0) - 1
            if remaining > 0:
                self._client_inflight[client] = remaining
            else:
                self._client_inflight.pop(client, None)

    def _finish_batch(self, requests: Sequence[_PendingQuery]) -> None:
        for request in requests:
            self._release_slot(request)
        with self._cv:
            self._inflight_batches -= 1
            self._cv.notify_all()

    def client_tally(self) -> Dict[str, int]:
        """Current per-client in-flight counts (diagnostics)."""
        tally: "_TallyCounter[str]" = _TallyCounter()
        with self._cv:
            for request in self._queue:
                tally[request.client] += 1
        return dict(tally)
