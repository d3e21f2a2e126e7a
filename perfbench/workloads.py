"""The three serving workloads.

Each workload object is driven as ``train()`` → ``deploy()`` (set-up),
then ``prepare(part)`` and ``measure(seconds, answers)``, then
``close()``. ``measure`` only calls the serving API; the streams it feeds
are generated from the seed before each phase's clock starts.

* ``seq-zipf`` — closed loop, one client, sequential ``VaultServer.query``
  (one ECALL per query) over a Zipf(1.2) stream; server defaults.
* ``open-tenants`` — open loop through ``MicroBatchScheduler.submit``:
  Poisson arrivals at a light and then a heavy fixed rate, then a
  saturating burst; Zipf(1.2) ids from 64 tenants; tenant ledger and
  structured logger attached. The calling thread generates; one thread
  collects.
* ``churn-resilient`` — closed loop, one client, uniform reads over all
  live nodes with one ``add_node`` every 100 reads, behind an
  ``EnclaveSupervisor`` with its default recovery policy.
"""

from __future__ import annotations

import math
import queue
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.deploy import (
    BatchPolicy,
    EnclaveSupervisor,
    MicroBatchScheduler,
    VaultServer,
)
from repro.obs import StructuredLogger, TenantCostLedger

from . import deployment, streams
from .deployment import AnswerLog

#: warm-up queries served before timing, enough to fill the plan cache
WARM_QUERIES = 1000
#: id-stream length; a timed phase walks it cyclically
STREAM_LENGTH = 1 << 18
#: writes sealed ahead of timing; the churn phases cycle through them
WRITE_POOL = 256
#: open-tenants offered rates (queries/s): about 10% and 60% of the
#: saturating burst throughput with ledger and logger attached (a median
#: of about 3.1k QPS on a 2-core Xeon VM)
LIGHT_QPS = 300.0
HEAVY_QPS = 1800.0
#: open-tenants shares of a timed phase: light, heavy, burst. The heavy
#: phase is one contiguous stretch so that it spans several of the
#: tenant ledger's periodic folds, which set its latency tail.
PHASE_SPLIT = (0.2, 0.6, 0.2)
#: the burst runs as back-to-back slices of this length; its throughput
#: jitters from slice to slice, so qps is the median over slices
BURST_SLICE_S = 0.4
#: queries kept outstanding during the saturating burst
BURST_WINDOW = 256
BURST_STREAM = 1 << 14
#: a query not answered within this many seconds counts as failed
RESULT_TIMEOUT_S = 30.0
POLICY = BatchPolicy(max_batch_size=16, max_wait_ms=2.0)


@dataclass
class Latencies:
    """Per-query latency samples (seconds); failures miss every percentile."""

    samples: List[float] = field(default_factory=list)
    failed: int = 0

    def percentile_ms(self, q: float) -> float:
        values = np.asarray(self.samples + [math.inf] * self.failed)
        if not values.size:
            return 0.0
        return float(np.percentile(values, q, method="higher")) * 1e3

    @property
    def count(self) -> int:
        return len(self.samples) + self.failed

    def extend(self, other: "Latencies") -> None:
        self.samples.extend(other.samples)
        self.failed += other.failed


@dataclass
class Measurement:
    """Raw outcome of timed serving.

    ``qps`` of the closed loops is every completed query over every timed
    second; of open-tenants, the median over ``round_qps``, one entry per
    burst slice. Latency percentiles pool every sample, so rare stalls
    keep their weight in the tail.
    """

    attempted: int = 0
    failed: int = 0
    completed: int = 0
    elapsed_s: float = 0.0
    #: latency behind p50_ms / p99_ms (open-tenants: the heavy rate)
    latency: Latencies = field(default_factory=Latencies)
    round_qps: List[float] = field(default_factory=list)
    #: light-rate latency (open-tenants only)
    light: Latencies = field(default_factory=Latencies)
    writes: Latencies = field(default_factory=Latencies)
    #: generator lateness per submitted query (open-tenants only)
    late_s: List[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        if self.round_qps:
            return statistics.median(self.round_qps)
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @classmethod
    def pooled(cls, parts: Sequence["Measurement"]) -> "Measurement":
        """One measurement from several timed phases."""
        out = cls()
        for part in parts:
            out.attempted += part.attempted
            out.failed += part.failed
            out.completed += part.completed
            out.elapsed_s += part.elapsed_s
            out.latency.extend(part.latency)
            out.round_qps += part.round_qps
            out.light.extend(part.light)
            out.writes.extend(part.writes)
            out.late_s += part.late_s
        return out


class _Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.run = None
        self.session = None
        self.server: Optional[VaultServer] = None
        #: add_node writes this deployment applied (churn only)
        self.writes_applied = 0

    def train(self) -> None:
        self.run = deployment.train(self.seed)

    def deploy(self) -> None:
        raise NotImplementedError

    def prepare(self, part: int) -> None:
        """Generate the timed phase's inputs (not set-up time); ``part``
        numbers the deployments of one run, so each gets its own streams."""
        self._part = part

    def measure(self, seconds: float, answers: AnswerLog) -> Measurement:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def oracle(self, writes_applied: int = 0) -> deployment.Oracle:
        """The label oracle, through the first ``writes_applied`` writes."""
        return deployment.Oracle(self.run)

    def _ids(self, stream: str, count: int) -> np.ndarray:
        return streams.zipf_ids(self.seed, stream, self.run.graph.num_nodes, count)


class SeqZipf(_Workload):
    name = "seq-zipf"

    def deploy(self) -> None:
        self.session = deployment.provision(self.run)
        self.server = VaultServer(self.session, self.run.graph.features)
        for node in self._ids("warm", WARM_QUERIES):
            self.server.query(int(node))
        self.server.flush_health()

    def prepare(self, part: int) -> None:
        super().prepare(part)
        self._stream = self._ids(f"measure-{part}", STREAM_LENGTH).tolist()
        self._cursor = 0

    def measure(self, seconds: float, answers: AnswerLog) -> Measurement:
        out = Measurement()
        latency = out.latency
        query = self.server.query
        stream, cursor = self._stream, self._cursor
        samples = latency.samples
        clock = time.perf_counter
        start = now = clock()
        deadline = start + seconds
        while now < deadline:
            node = stream[cursor % STREAM_LENGTH]
            cursor += 1
            out.attempted += 1
            began = clock()
            try:
                label = query(node)
            except Exception:
                now = clock()
                out.failed += 1
                latency.failed += 1
                continue
            now = clock()
            samples.append(now - began)
            answers.nodes.append(node)
            answers.versions.append(0)
            answers.labels.append(label)
        self._cursor = cursor
        out.completed = len(samples)
        out.elapsed_s = now - start
        return out


class ChurnResilient(_Workload):
    name = "churn-resilient"

    def deploy(self) -> None:
        run = self.run
        self.session = deployment.provision(run)
        self.server = VaultServer(self.session, run.graph.features)
        # Warm the plan cache before the supervisor starts sealing.
        num_nodes = run.graph.num_nodes
        warm = streams.uniform_fractions(self.seed, "warm", WARM_QUERIES // 3)
        for fraction in warm:
            self.server.query(int(fraction * num_nodes))
        self.server.flush_health()
        self.supervisor = EnclaveSupervisor(
            self.session, telemetry=self.server.telemetry, health=self.server.health
        )
        self.server.attach_supervisor(self.supervisor)

    def prepare(self, part: int) -> None:
        """Generate the reads and seal the write pool (vendor side). Every
        deployment applies writes in pool order, so one oracle covers all."""
        super().prepare(part)
        self._reads = streams.uniform_fractions(
            self.seed, f"measure-{part}", STREAM_LENGTH).tolist()
        self._cursor = 0
        self._since_write = 0
        self._writes = streams.writes(
            self.seed, "writes", self.run.graph.features, WRITE_POOL
        )
        self._blobs = deployment.seal_writes(self.run, self._writes)

    def measure(self, seconds: float, answers: AnswerLog) -> Measurement:
        out = Measurement()
        latency = out.latency
        server = self.server
        base_nodes = self.run.graph.num_nodes
        reads, cursor = self._reads, self._cursor
        samples = latency.samples
        clock = time.perf_counter
        start = now = clock()
        deadline = start + seconds
        while now < deadline:
            if self._since_write >= streams.WRITE_EVERY:
                self._since_write = 0
                index = self.writes_applied % WRITE_POOL
                write = self._writes[index]
                began = clock()
                try:
                    server.add_node(
                        write.features_row, write.substitute_neighbours,
                        self._blobs[index],
                    )
                except Exception:
                    out.writes.failed += 1
                else:
                    out.writes.samples.append(clock() - began)
                    self.writes_applied += 1
                now = clock()
                continue
            version = self.writes_applied
            node = int(reads[cursor % STREAM_LENGTH] * (base_nodes + version))
            cursor += 1
            self._since_write += 1
            out.attempted += 1
            began = clock()
            try:
                label = server.query(node)
            except Exception:
                now = clock()
                out.failed += 1
                latency.failed += 1
                continue
            now = clock()
            samples.append(now - began)
            answers.nodes.append(node)
            answers.versions.append(version)
            answers.labels.append(label)
        self._cursor = cursor
        out.completed = len(samples)
        out.elapsed_s = now - start
        return out

    def oracle(self, writes_applied: int = 0) -> deployment.Oracle:
        oracle = deployment.Oracle(self.run)
        order = [k % WRITE_POOL for k in range(max(writes_applied, self.writes_applied))]
        oracle.replay([self._writes[i] for i in order], [self._blobs[i] for i in order])
        return oracle


class OpenTenants(_Workload):
    name = "open-tenants"

    def deploy(self) -> None:
        self.session = deployment.provision(self.run)
        server = VaultServer(self.session, self.run.graph.features)
        telemetry = server.telemetry
        server.attach_tenancy(TenantCostLedger(
            registry=telemetry.registry,
            gate=telemetry.enclave_gate(),
            alerts=server.health.alerts if server.health is not None else None,
        ))
        server.attach_logger(StructuredLogger())
        self.server = server
        self.scheduler = MicroBatchScheduler(server, POLICY).start()
        warm_ids = self._ids("warm", WARM_QUERIES)
        warm_clients = streams.tenants(self.seed, "warm-tenants", WARM_QUERIES)
        pending = [
            self.scheduler.submit([int(n)], client=c)
            for n, c in zip(warm_ids, warm_clients)
        ]
        for request in pending:
            request.result(RESULT_TIMEOUT_S)
        server.flush_health()

    def prepare(self, part: int) -> None:
        super().prepare(part)
        self._phases = 0

    def close(self) -> None:
        self.scheduler.close()

    def measure(self, seconds: float, answers: AnswerLog) -> Measurement:
        light_s, heavy_s, burst_s = (share * seconds for share in PHASE_SPLIT)
        out = Measurement()
        start = time.perf_counter()
        self._open_phase(LIGHT_QPS, light_s, out, out.light, answers)
        self._open_phase(HEAVY_QPS, heavy_s, out, out.latency, answers)
        for _ in range(max(1, round(burst_s / BURST_SLICE_S))):
            completed, burst_wall = self._burst(BURST_SLICE_S, out, answers)
            out.round_qps.append(completed / burst_wall if burst_wall > 0 else 0.0)
        out.elapsed_s = time.perf_counter() - start
        return out

    def _next_tag(self) -> str:
        """A stream name per phase, so each phase draws its own inputs."""
        self._phases += 1
        return f"{self._part}-{self._phases}"

    def _collect(self, inbox: "queue.SimpleQueue", latency: Latencies,
                 out: Measurement, answers: AnswerLog, done: List[float],
                 window: Optional[threading.Semaphore] = None) -> None:
        """Collector thread: wait on results in submission order."""
        while True:
            item = inbox.get()
            if item is None:
                return
            node, due, request = item
            try:
                labels = request.result(RESULT_TIMEOUT_S)
            except Exception:
                out.failed += 1
                latency.failed += 1
            else:
                finished = time.perf_counter()
                latency.samples.append(finished - due)
                done.append(finished)
                answers.nodes.append(node)
                answers.versions.append(0)
                answers.labels.append(int(labels[0]))
            finally:
                if window is not None:
                    window.release()

    def _submit(self, node: int, client: str, due: float, inbox,
                out: Measurement) -> bool:
        """Generator side; False when admission refused the query."""
        out.attempted += 1
        try:
            request = self.scheduler.submit([node], client=client)
        except Exception:
            return False
        inbox.put((node, due, request))
        return True

    def _open_phase(self, rate: float, seconds: float, out: Measurement,
                    latency: Latencies, answers: AnswerLog) -> None:
        """Poisson arrivals at ``rate``; latency counts from each due time."""
        tag = self._next_tag()
        offsets = streams.poisson_offsets(self.seed, f"arrivals-{tag}", rate, seconds)
        ids = self._ids(f"ids-{tag}", len(offsets)).tolist()
        clients = streams.tenants(self.seed, f"tenants-{tag}", len(offsets))
        inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        done: List[float] = []
        collector = threading.Thread(
            target=self._collect, args=(inbox, latency, out, answers, done),
            name="bench-collector",
        )
        collector.start()
        clock, sleep = time.perf_counter, time.sleep
        refused = 0
        start = clock()
        try:
            for offset, node, client in zip(offsets.tolist(), ids, clients):
                due = start + offset
                delay = due - clock()
                if delay > 0:
                    sleep(delay)
                out.late_s.append(max(0.0, clock() - due))
                if not self._submit(node, client, due, inbox, out):
                    refused += 1
        finally:
            inbox.put(None)
            collector.join()
        # the collector counted its own failures; add the refusals now that
        # it has stopped, so no counter is written from two threads
        out.failed += refused
        latency.failed += refused
        out.completed += len(done)

    def _burst(self, seconds: float, out: Measurement, answers: AnswerLog):
        """Keep ``BURST_WINDOW`` queries in flight for ``seconds``; returns
        (queries completed, seconds from start to the last completion)."""
        tag = self._next_tag()
        ids = self._ids(f"ids-{tag}", BURST_STREAM).tolist()
        clients = streams.tenants(self.seed, f"tenants-{tag}", BURST_STREAM)
        inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        window = threading.Semaphore(BURST_WINDOW)
        done: List[float] = []
        collector = threading.Thread(
            target=self._collect,
            args=(inbox, Latencies(), out, answers, done, window),
            name="bench-collector",
        )
        collector.start()
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds
        index = refused = 0
        try:
            while clock() < deadline:
                window.acquire()
                i = index % BURST_STREAM
                index += 1
                if not self._submit(ids[i], clients[i], clock(), inbox, out):
                    refused += 1
                    window.release()
        finally:
            inbox.put(None)
            collector.join()
        out.failed += refused
        out.completed += len(done)
        return len(done), (done[-1] - start) if done else 0.0


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (SeqZipf, OpenTenants, ChurnResilient)
}
