"""Continuous profiling: pipeline timelines, ECALL/EPC cost attribution.

Since the micro-batch scheduler (``repro.deploy.scheduler``) turned the
hot path into a double-buffered two-stage pipeline, per-query span traces
no longer describe where wall time goes: a query's latency is dominated
by *pipeline position* (queue wait, batch formation, double-buffer
stalls) rather than its own compute. This module reconstructs a
per-batch **timeline** from boundary timestamps recorded by the
scheduler's two threads, so the segments tile the batch's wall clock
exactly:

``queued_at → collect_start → stage_start → stage_end → execute_start
→ execute_end → done_at``

yielding six disjoint segments — ``queue`` (admission wait), ``collect``
(batch formation window), ``stage`` (untrusted backbone staging),
``handoff`` (double-buffer bubble: staged batch waiting for the enclave
worker), ``execute`` (the single TCS-serialised ECALL) and ``egress``
(response resolution). Overlap — stage-U seconds hidden behind a busy
enclave — is carried alongside, so operators can see both where time
goes and how much of it the pipeline already hides.

Cost attribution joins three sources into one per-batch record: the
enclave's ``ecall_transitions`` counter (real transition deltas), the
:class:`~repro.deploy.profiler.InferenceProfile` emitted by the session
(the Fig. 6 breakdown — transfer, rectifier compute, EPC paging), and
the :class:`~repro.tee.runtime.SgxCostModel` page-swap constant (to
recover an EPC page estimate from paging seconds). Every record is
validated against the :class:`~repro.obs.redaction.EnclaveTelemetryGate`
closed schema at construction — aggregate-suffixed keys, scalar values,
no per-entity vocabulary — so the profiling layer cannot become a side
channel for the private graph.

Exporters render the collected timelines as Chrome-trace-viewer JSON
(``chrome://tracing`` / Perfetto ``traceEvents``) and as folded stacks
(``stack;frame weight`` lines, Brendan Gregg's flamegraph input format);
:func:`spans_to_folded` folds the per-query span trees of the sequential
path the same way.
"""

from __future__ import annotations

import io
import json
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from .redaction import check_aggregate_key, check_scalar

if TYPE_CHECKING:  # avoid an import cycle: deploy already imports obs
    from ..deploy.profiler import InferenceProfile

__all__ = [
    "SEGMENTS",
    "BatchTimeline",
    "PipelineProfiler",
    "ProfileReport",
    "enclave_cost_record",
    "validate_cost_record",
    "timelines_to_json",
    "write_timeline_json",
    "timelines_to_folded",
    "spans_to_folded",
    "write_folded",
]

#: pipeline segments in wall-clock order; they tile a batch's wall time.
SEGMENTS = ("queue", "collect", "stage", "handoff", "execute", "egress")

_US = 1e6  # folded-stack weights are integer microseconds


# ----------------------------------------------------------------------
# Cost attribution
# ----------------------------------------------------------------------

#: memoised *approved* key sets — a key's verdict depends only on the key
#: string, so a record shape that passed once passes always; entries are
#: added only after every key checks out, so the cache loosens nothing.
#: Values are NOT cached: they change per record and are re-checked.
_APPROVED_KEY_SETS: set = set()


def validate_cost_record(record: Dict[str, float]) -> Dict[str, float]:
    """Enforce the enclave telemetry schema on a cost record.

    Every key must carry an aggregate suffix and avoid the forbidden
    per-entity vocabulary; every value must be a scalar number. Raises
    :class:`~repro.obs.redaction.TelemetryLeak` otherwise. Returns the
    record unchanged so construction sites can validate inline.

    Key validation is memoised on the record's key tuple: the serving
    hot path emits one identically-shaped record per batch, so after the
    first batch only the (cheap, exact-type) scalar checks remain.
    """
    keys = tuple(record)
    if keys in _APPROVED_KEY_SETS:
        for key, value in record.items():
            check_scalar(key, value)
        return record
    for key, value in record.items():
        check_aggregate_key(key)
        check_scalar(key, value)
    _APPROVED_KEY_SETS.add(keys)
    return record


def enclave_cost_record(
    profile: "InferenceProfile",
    *,
    ecall_count: int = 1,
    cost_model=None,
) -> Dict[str, float]:
    """Join profile + cost-model sources into one gate-clean record.

    ``ecall_count`` is the measured ``ecall_transitions`` delta for the
    batch (1 for an amortised micro-batch). The EPC page estimate is
    recovered from the profile's paging seconds via the cost model's
    per-page swap latency (``DEFAULT_COST_MODEL`` when not supplied).
    """
    if cost_model is None:
        from ..tee.runtime import DEFAULT_COST_MODEL

        cost_model = DEFAULT_COST_MODEL
    paging = profile.paging_seconds
    record = {
        "ecall_count": int(ecall_count),
        "transfer_seconds": float(profile.transfer_seconds),
        "compute_seconds": float(
            max(0.0, profile.enclave_seconds - paging)
        ),
        "paging_seconds": float(paging),
        "paging_pages": profile.estimated_pages(cost_model),
        "payload_bytes": int(profile.payload_bytes),
        "peak_memory_bytes": int(profile.peak_enclave_memory_bytes),
    }
    return validate_cost_record(record)


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------

@dataclass
class BatchTimeline:
    """One micro-batch's life, reconstructed from boundary timestamps.

    All timestamps come from ``time.perf_counter()`` (one clock, both
    threads), so consecutive boundaries are monotone and the six
    segments sum to the wall time exactly — coverage is a property of
    the construction, not a sampling artefact.
    """

    index: int
    num_queries: int
    targets_requested: int
    targets_unique: int
    queued_at: float
    collect_start: float
    stage_start: float
    stage_end: float
    execute_start: float
    execute_end: float
    done_at: float
    overlap_seconds: float = 0.0
    profile: "Optional[InferenceProfile]" = None
    cost: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return max(0.0, self.done_at - self.queued_at)

    def segments(self) -> Dict[str, float]:
        """Disjoint segment → seconds, in wall-clock order."""
        bounds = (
            self.queued_at, self.collect_start, self.stage_start,
            self.stage_end, self.execute_start, self.execute_end,
            self.done_at,
        )
        return {
            name: max(0.0, bounds[i + 1] - bounds[i])
            for i, name in enumerate(SEGMENTS)
        }

    @property
    def bubble_seconds(self) -> float:
        """Double-buffer stall: staged batch waiting for the enclave."""
        return max(0.0, self.execute_start - self.stage_end)

    @property
    def overlap_fraction(self) -> float:
        """Fraction of staging hidden behind a busy enclave, in [0, 1]."""
        stage = self.stage_end - self.stage_start
        if stage <= 0.0:
            return 0.0
        return min(1.0, max(0.0, self.overlap_seconds) / stage)

    def coverage(self) -> float:
        """Accounted-for fraction of wall time (1.0 by construction
        unless timestamps were recorded out of order)."""
        wall = self.wall_seconds
        if wall <= 0.0:
            return 1.0
        return sum(self.segments().values()) / wall

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "index": self.index,
            "num_queries": self.num_queries,
            "targets_requested": self.targets_requested,
            "targets_unique": self.targets_unique,
            "wall_seconds": self.wall_seconds,
            "segments": self.segments(),
            "overlap_seconds": self.overlap_seconds,
            "bubble_seconds": self.bubble_seconds,
            "coverage": self.coverage(),
            "cost": dict(self.cost),
        }
        if self.profile is not None:
            d["stages"] = self.profile.breakdown()
        return d


# ----------------------------------------------------------------------
# Collector
# ----------------------------------------------------------------------

class PipelineProfiler:
    """Low-overhead bounded collector of :class:`BatchTimeline` records.

    The serving path calls :meth:`record_stamps` once per executed batch
    (a single ``deque.append`` of a raw tuple); :meth:`record` takes a
    ready-made timeline. Readers materialise snapshots with
    :meth:`timelines`. The deque bound keeps memory constant under
    continuous serving.
    """

    def __init__(self, max_batches: int = 2048) -> None:
        if max_batches <= 0:
            raise ValueError(f"max_batches must be positive, got {max_batches}")
        self.max_batches = max_batches
        self._timelines: "deque" = deque(maxlen=max_batches)
        self.batches_recorded = 0
        self.queries_recorded = 0

    def record(self, timeline: BatchTimeline) -> None:
        self._timelines.append(timeline)
        self.batches_recorded += 1
        self.queries_recorded += timeline.num_queries

    def record_stamps(
        self, index: int, num_queries: int, targets_requested: int,
        targets_unique: int, stamps: tuple, overlap_seconds: float,
        profile, ecall_count: int, cost_model,
    ) -> None:
        """Record one served batch from its seven boundary stamps, cheaply.

        The serving path calls this once per batch — at ``batch_size=1``
        on the sequential path that is per query — so it appends one raw
        tuple and defers all object construction (the timeline
        dataclass, the cost record, its gate validation) to
        :meth:`timelines`, which readers call off the serving path.
        ``stamps`` holds ``queued_at, collect_start, stage_start,
        stage_end, execute_start, execute_end, done_at`` in that order; a
        sequential batch has no queue or batch formation, so its first
        three stamps coincide.
        """
        self.batches_recorded += 1
        self.queries_recorded += num_queries
        self._timelines.append((
            index, num_queries, targets_requested, targets_unique, stamps,
            overlap_seconds, profile, ecall_count, cost_model,
        ))

    @staticmethod
    def _materialise(raw: tuple) -> BatchTimeline:
        (index, num_queries, targets_requested, targets_unique, stamps,
         overlap_seconds, profile, ecall_count, cost_model) = raw
        cost: Dict[str, float] = {}
        if profile is not None:
            cost = enclave_cost_record(
                profile, ecall_count=ecall_count, cost_model=cost_model
            )
        return BatchTimeline(
            index, num_queries, targets_requested, targets_unique, *stamps,
            overlap_seconds=overlap_seconds, profile=profile, cost=cost,
        )

    def timelines(self) -> List[BatchTimeline]:
        return [
            entry if isinstance(entry, BatchTimeline)
            else self._materialise(entry)
            for entry in self._timelines
        ]

    def clear(self) -> None:
        self._timelines.clear()

    def __len__(self) -> int:
        return len(self._timelines)

    def report(self) -> "ProfileReport":
        return ProfileReport.from_timelines(self.timelines())


# ----------------------------------------------------------------------
# Aggregation / rendering
# ----------------------------------------------------------------------

@dataclass
class ProfileReport:
    """Aggregate view over a set of batch timelines."""

    batches: int
    queries: int
    wall_seconds: float
    segment_seconds: Dict[str, float]
    overlap_seconds: float
    bubble_seconds: float
    coverage: float
    cost_totals: Dict[str, float]

    @classmethod
    def from_timelines(
        cls, timelines: Sequence[BatchTimeline]
    ) -> "ProfileReport":
        segs = {name: 0.0 for name in SEGMENTS}
        wall = overlap = accounted = 0.0
        queries = 0
        cost: Dict[str, float] = {}
        for t in timelines:
            for name, secs in t.segments().items():
                segs[name] += secs
                accounted += secs
            wall += t.wall_seconds
            overlap += max(0.0, t.overlap_seconds)
            queries += t.num_queries
            for key, value in t.cost.items():
                cost[key] = cost.get(key, 0.0) + value
        # peak memory aggregates as a max, not a sum
        if timelines and any(t.cost.get("peak_memory_bytes") for t in timelines):
            cost["peak_memory_bytes"] = max(
                t.cost.get("peak_memory_bytes", 0) for t in timelines
            )
        return cls(
            batches=len(timelines),
            queries=queries,
            wall_seconds=wall,
            segment_seconds=segs,
            overlap_seconds=overlap,
            bubble_seconds=segs["handoff"],
            coverage=(accounted / wall) if wall > 0 else 1.0,
            cost_totals=cost,
        )

    @property
    def mean_batch_size(self) -> float:
        return self.queries / self.batches if self.batches else 0.0

    @property
    def ecalls_per_query(self) -> float:
        ecalls = self.cost_totals.get("ecall_count", 0.0)
        return ecalls / self.queries if self.queries else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "batches": self.batches,
            "queries": self.queries,
            "mean_batch_size": self.mean_batch_size,
            "wall_seconds": self.wall_seconds,
            "segment_seconds": dict(self.segment_seconds),
            "overlap_seconds": self.overlap_seconds,
            "bubble_seconds": self.bubble_seconds,
            "coverage": self.coverage,
            "ecalls_per_query": self.ecalls_per_query,
            "cost_totals": dict(self.cost_totals),
        }

    def render(self, timelines: Sequence[BatchTimeline] = (),
               gantt_batches: int = 3, width: int = 40) -> str:
        """Text report: segment table plus an ASCII Gantt of the last
        few batches (for the CLI and the architecture docs)."""
        out = io.StringIO()
        out.write(
            f"pipeline profile: {self.batches} batches, "
            f"{self.queries} queries "
            f"(mean batch size {self.mean_batch_size:.1f})\n"
        )
        out.write(
            f"  wall {self.wall_seconds * 1e3:.1f} ms, coverage "
            f"{self.coverage * 100:.1f}%, overlap hidden "
            f"{self.overlap_seconds * 1e3:.1f} ms, bubbles "
            f"{self.bubble_seconds * 1e3:.1f} ms\n"
        )
        total = sum(self.segment_seconds.values()) or 1.0
        for name in SEGMENTS:
            secs = self.segment_seconds[name]
            out.write(
                f"  {name:<8}{secs * 1e3:>9.2f} ms  "
                f"{secs / total * 100:5.1f}%\n"
            )
        if self.cost_totals:
            out.write("  ecall cost attribution:\n")
            for key in sorted(self.cost_totals):
                out.write(f"    {key:<22}{self.cost_totals[key]:.6g}\n")
        for t in list(timelines)[-gantt_batches:]:
            out.write(render_gantt(t, width=width))
        return out.getvalue()


def render_gantt(timeline: BatchTimeline, width: int = 40) -> str:
    """One batch as an ASCII Gantt row set (segments to scale)."""
    wall = timeline.wall_seconds or 1.0
    out = io.StringIO()
    out.write(
        f"batch {timeline.index} ({timeline.num_queries} queries, "
        f"{wall * 1e3:.1f} ms wall, "
        f"overlap {timeline.overlap_fraction * 100:.0f}%)\n"
    )
    offset = 0.0
    for name, secs in timeline.segments().items():
        lead = int(round(offset / wall * width))
        bar = max(1, int(round(secs / wall * width))) if secs > 0 else 0
        out.write(
            f"  {name:<8}|{' ' * lead}{'#' * bar:<{max(0, width - lead)}}| "
            f"{secs * 1e3:7.2f} ms\n"
        )
        offset += secs
    return out.getvalue()


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def timelines_to_json(
    timelines: Sequence[BatchTimeline], *, indent: Optional[int] = 2
) -> str:
    """Timeline JSON: a summary plus Chrome-trace-viewer ``traceEvents``.

    The ``traceEvents`` array uses the trace-event format (``ph: "X"``
    complete events, microsecond ``ts``/``dur``), loadable in
    Perfetto/`chrome://tracing`; the two pipeline stages appear as two
    "threads" (collector vs enclave worker) so the double-buffer overlap
    is visible as horizontally overlapping slices.
    """
    timelines = list(timelines)
    origin = min((t.queued_at for t in timelines), default=0.0)
    events: List[Dict[str, object]] = []
    for t in timelines:
        offset = t.queued_at
        for name, secs in t.segments().items():
            tid = 2 if name in ("execute", "egress") else 1
            events.append({
                "name": f"{name} (batch {t.index})",
                "cat": "pipeline",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round((offset - origin) * _US, 3),
                "dur": round(secs * _US, 3),
                "args": {"batch": t.index, "queries": t.num_queries},
            })
            offset += secs
    doc = {
        "schema": "repro.profile.timeline/v1",
        "summary": ProfileReport.from_timelines(timelines).to_dict(),
        "batches": [t.to_dict() for t in timelines],
        "traceEvents": events,
    }
    return json.dumps(doc, indent=indent, sort_keys=False)


def write_timeline_json(path, timelines: Sequence[BatchTimeline]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(timelines_to_json(timelines))
        fh.write("\n")


def _fold(lines: Dict[str, float], stack: str, seconds: float) -> None:
    if seconds > 0.0:
        lines[stack] = lines.get(stack, 0.0) + seconds


def timelines_to_folded(timelines: Sequence[BatchTimeline]) -> str:
    """Folded stacks (``frame;frame weight``) from batch timelines.

    Pipeline segments are wall time; the ``execute`` frame's children
    attribute its wall time across transfer / rectifier compute / EPC
    paging proportionally to the cost model's per-batch estimate (the
    profile), which is exactly the Fig. 6 attribution applied to
    measured wall clock. Weights are integer microseconds.
    """
    folded: Dict[str, float] = {}
    for t in timelines:
        segs = t.segments()
        for name, secs in segs.items():
            if name == "execute":
                continue
            _fold(folded, f"pipeline;{name}", secs)
        execute = segs["execute"]
        profile = t.profile
        model_total = (
            (profile.transfer_seconds + profile.enclave_seconds)
            if profile is not None else 0.0
        )
        if execute > 0.0 and model_total > 0.0:
            scale = execute / model_total
            _fold(folded, "pipeline;execute;transfer",
                  profile.transfer_seconds * scale)
            _fold(folded, "pipeline;execute;rectifier",
                  (profile.enclave_seconds - profile.paging_seconds) * scale)
            _fold(folded, "pipeline;execute;paging",
                  profile.paging_seconds * scale)
        else:
            _fold(folded, "pipeline;execute", execute)
    return _render_folded(folded)


def spans_to_folded(spans: Iterable) -> str:
    """Fold span trees (the sequential tracer path) into flamegraph
    input, with standard self-time semantics: a frame's own line keeps
    the seconds its children do not account for."""
    folded: Dict[str, float] = {}

    def walk(span, prefix: str) -> None:
        stack = f"{prefix};{span.name}" if prefix else span.name
        children = span.children
        child_seconds = sum(c.seconds for c in children)
        _fold(folded, stack, max(0.0, span.seconds - child_seconds))
        for child in children:
            walk(child, stack)

    for span in spans:
        walk(span, "")
    return _render_folded(folded)


def _render_folded(folded: Dict[str, float]) -> str:
    lines = []
    for stack in sorted(folded):
        weight = int(round(folded[stack] * _US))
        if weight > 0:
            lines.append(f"{stack} {weight}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_folded(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
