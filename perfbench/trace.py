"""Span tracing from outside the program, for the traced run only.

:class:`SpanTracer` wraps public functions of the serving layers with a
timing shim. Each function is patched where its caller looks it up: a
method on its class, a module-level function in the *calling* module's
namespace (``repro.tee.enclave.extract_subgraph``, ``repro.tee.enclave.seal``).
Span stacks are thread-local, because the scheduler's collector and
enclave-worker threads record spans alongside the client threads. Spans
are held in memory as tuples and written out at the end; a layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span tuple fields
NAME, THREAD, START, END, CHILD, PHASE, INFO = range(7)


def _targets(rectifier) -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, info hook) for every traced function.

    An info hook runs after the span's end stamp as
    ``hook(args, result, parent_children)`` and returns a small picklable
    value kept with the span.
    """
    import repro.tee.enclave as enclave_module
    from repro.deploy.inference import SecureInferenceSession
    from repro.deploy.resilience import EnclaveSupervisor
    from repro.deploy.scheduler import MicroBatchScheduler
    from repro.deploy.server import VaultServer
    from repro.graph.subgraph import Subgraph
    from repro.obs.audit import AuditLog
    from repro.obs.logging import StructuredLogger
    from repro.obs.redaction import EnclaveTelemetryGate
    from repro.obs.tenancy import TenantCostLedger
    from repro.obs.tracing import Tracer
    from repro.tee.channel import OneWayChannel
    from repro.tee.enclave import RectifierEnclave
    from repro.tee.memory import EnclaveMemoryModel

    def report(args, result, _):
        # EcallReport: simulated seconds, staged bytes, simulated peak
        return (result.total_seconds, result.payload_bytes, result.peak_memory_bytes)

    def microbatch_requests(args, result, _):
        return (len(args[2]), sum(len(r) for r in args[2]),
                len({t for r in args[2] for t in r}),
                result.total_seconds, result.payload_bytes, result.peak_memory_bytes)

    def forward_shape(args, result, _):
        adj = args[2]
        return (adj.shape[0], adj.nnz)

    def conv_index(args, result, parent_children):
        return parent_children

    def returned(args, result, _):
        return result

    def admitted(args, result, _):
        return True

    def blob_bytes(args, result, _):
        return result.num_bytes

    conv_classes = {type(conv) for conv in rectifier.convs}
    targets = [
        (VaultServer, "query_batch", "server.query_batch", None),
        (VaultServer, "flush_health", "obs.health_flush", None),
        (MicroBatchScheduler, "submit", "scheduler.submit", admitted),
        (SecureInferenceSession, "embed", "inference.embed", None),
        (SecureInferenceSession, "add_node", "inference.add_node", None),
        (SecureInferenceSession, "predict_nodes_precomputed", "inference.predict", None),
        (SecureInferenceSession, "predict_microbatch_precomputed", "inference.predict", None),
        (OneWayChannel, "push", "channel.push", returned),
        (OneWayChannel, "push_coalesced", "channel.push", returned),
        (RectifierEnclave, "ecall_infer_nodes", "enclave.ecall", report),
        (RectifierEnclave, "ecall_infer_microbatch", "enclave.ecall_batch", microbatch_requests),
        (enclave_module, "extract_subgraph", "subgraph.extract", None),
        (Subgraph, "normalized_adjacency", "subgraph.normalize", None),
        (type(rectifier), "forward_with_intermediates", "rectifier.forward", forward_shape),
        (EnclaveMemoryModel, "allocate", "memory.allocate", None),
        (EnclaveMemoryModel, "free_all", "memory.free_all", None),
        (enclave_module, "seal", "sealed.seal", blob_bytes),
        (EnclaveSupervisor, "snapshot_now", "resilience.snapshot", None),
        (Tracer, "open_record", "obs.tracer", None),
        (Tracer, "close_record", "obs.tracer", None),
        (AuditLog, "append", "obs.audit", None),
        (EnclaveTelemetryGate, "record_ecall", "obs.gate", None),
        (EnclaveTelemetryGate, "inc", "obs.gate", None),
        (TenantCostLedger, "defer_batch", "obs.tenancy", None),
        (TenantCostLedger, "tenant_id", "obs.tenancy", None),
        (StructuredLogger, "emit", "obs.logger", None),
        (StructuredLogger, "mint", "obs.logger", None),
    ]
    targets.extend(
        (cls, "forward", "rectifier.conv", conv_index) for cls in conv_classes
    )
    return targets


class SpanTracer:
    """Install timing shims, record spans per phase, restore on exit."""

    def __init__(self, rectifier) -> None:
        self._targets = _targets(rectifier)
        self._saved: List[Tuple[Any, str, bool, Any]] = []
        self._local = threading.local()
        self.spans: List[tuple] = []
        self.phase = "setup"
        #: (phase, live enclave memory regions) sampled at free_all
        self.regions_at_free: List[Tuple[str, int]] = []
        self._free_calls = 0

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for owner, attribute, name, hook in self._targets:
            defined_here = attribute in vars(owner)
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, defined_here, vars(owner).get(attribute)))
            setattr(owner, attribute, self._shim(original, name, hook))

    def uninstall(self) -> None:
        for owner, attribute, defined_here, original in reversed(self._saved):
            if defined_here:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved.clear()

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _shim(self, fn: Callable, name: str, hook: Optional[Callable]) -> Callable:
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        sample_regions = name == "memory.free_all"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if sample_regions:
                tracer._sample_regions(args[0])
            parent_children = 0
            if stack:
                parent_children = stack[-1][1]
                stack[-1][1] += 1
            frame = [0.0, 0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                info = None
                if hook is not None and result is not None:
                    info = hook(args, result, parent_children)
                spans.append((name, threading.get_ident(), start, end,
                              frame[0], tracer.phase, info))

        return traced

    def _sample_regions(self, memory) -> None:
        # The live-region count needs a table copy, so only every 8th call
        # pays it; the copy happens before the span's start stamp.
        self._free_calls += 1
        if self._free_calls % 8 == 1:
            self.regions_at_free.append((self.phase, len(memory.allocations())))

    # -- analysis ---------------------------------------------------------
    def by_name(self, phase: str) -> Dict[str, List[tuple]]:
        grouped: Dict[str, List[tuple]] = defaultdict(list)
        for span in self.spans:
            if span[PHASE] == phase:
                grouped[span[NAME]].append(span)
        return grouped

    def covered_by_roots(self, phase: str, thread: int) -> float:
        """Seconds of ``thread`` inside any outermost span of ``phase``.

        A root span's children lie inside it, so the root durations alone
        give the covered time: their sum, as roots never overlap.
        """
        by_thread = sorted(
            (s for s in self.spans if s[PHASE] == phase and s[THREAD] == thread),
            key=lambda s: s[START],
        )
        covered = 0.0
        horizon = -1.0
        for span in by_thread:
            if span[START] < horizon:
                continue
            covered += span[END] - span[START]
            horizon = span[END]
        return covered


def duration(span: tuple) -> float:
    return span[END] - span[START]


def self_time(span: tuple) -> float:
    return span[END] - span[START] - span[CHILD]
