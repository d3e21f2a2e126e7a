"""Run one workload of the serving benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload seq-zipf --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` sets the deployment up several times (reporting the median
set-up time), each deployment serving an equal share of ``--seconds``
untraced, and prints the end-to-end metrics. ``--trace 1`` sets up once, then
alternates untraced and traced slices (``--seconds`` of each), and
prints the per-layer metrics. Either way every answered label is
checked against the offline oracle. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()
# One BLAS thread: on a 2-core machine the harness and the scheduler's
# own threads already fill the cores. Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
#: glibc malloc arenas. By default each new thread may get an arena of
#: its own, and which ones the scheduler's and the harness's threads
#: touch moved open-tenants' peak RSS between 192 and 213 MB from run to
#: run; with two it repeats within 1%. Set before any thread starts.
MALLOC_ARENAS = 2


def _pin_malloc_arenas() -> bool:
    import ctypes

    try:
        return bool(ctypes.CDLL(None).mallopt(-8, MALLOC_ARENAS))  # M_ARENA_MAX
    except (OSError, AttributeError):  # not glibc
        return False


ARENAS_PINNED = _pin_malloc_arenas()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
#: untraced/traced slice pairs in a traced run
TRACE_PAIRS = 4
OUT_DIR = ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("seq-zipf", "open-tenants", "churn-resilient"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's self-checks instead")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


def _openblas_threads():
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (absent outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "malloc_arenas": MALLOC_ARENAS if ARENAS_PINNED else "default",
        "git_sha": _git_sha(),
    }


def _counters(workload) -> dict:
    stats = workload.server.stats
    supervisor = getattr(workload, "supervisor", None)
    return {
        "embed_hits": stats.embedding_cache_hits,
        "embed_misses": stats.embedding_cache_misses,
        "ecalls": workload.session.enclave.ecall_transitions,
        "retries": supervisor.batches_retried if supervisor is not None else 0,
    }


def run_untraced(cls, seed: int, seconds: float, import_s: float,
                 setup_repeats: int = SETUP_REPEATS):
    """Set up ``setup_repeats`` identical deployments from the seed, one
    after another; each serves an equal share of the timed phase, so the
    run samples the machine at several moments. Set-up time is the median
    over deployments; their measurements are pooled. Peak memory is the
    process's peak while it held only the first deployment: a process
    serves one, and the allocator keeps some of a closed deployment's
    pages (open-tenants' later peaks grew by ~35 MB per deployment)."""
    from perfbench.deployment import AnswerLog
    from perfbench.workloads import Measurement

    setups, parts = [], []
    answers = AnswerLog()
    writes_applied = 0
    workload = None
    peak_rss_mb = 0.0
    for repeat in range(setup_repeats):
        if workload is not None:
            workload = None
            gc.collect()
        began = time.perf_counter()
        workload = cls(seed)
        workload.train()
        workload.deploy()
        finished = time.perf_counter()
        # The first set-up runs from process start; later ones re-pay
        # everything but the interpreter start and imports, added back.
        setups.append(finished - PROCESS_START if repeat == 0
                      else import_s + finished - began)
        workload.prepare(repeat)
        try:
            parts.append(workload.measure(seconds / setup_repeats, answers))
        finally:
            workload.close()
        if repeat == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        writes_applied = max(writes_applied, workload.writes_applied)
    return (workload, writes_applied, answers, Measurement.pooled(parts),
            statistics.median(setups), setups, peak_rss_mb)


def run_traced(cls, seed: int, seconds: float):
    """Set up once (traced), then alternate untraced and traced slices,
    ``seconds`` of each in total, so both sides see the same machine."""
    from perfbench.deployment import AnswerLog
    from perfbench.trace import SpanTracer
    from perfbench.workloads import Measurement

    workload = cls(seed)
    workload.train()
    tracer = SpanTracer(workload.run.rectifiers["series"])
    with tracer:
        workload.deploy()
    workload.prepare(0)
    answers = AnswerLog()
    untraced, traced = [], []
    deltas = dict.fromkeys(_counters(workload), 0)
    tracer.phase = "timed"
    try:
        for _ in range(TRACE_PAIRS):
            untraced.append(workload.measure(seconds / TRACE_PAIRS, answers))
            before = _counters(workload)
            with tracer:
                traced.append(workload.measure(seconds / TRACE_PAIRS, answers))
            for key, value in _counters(workload).items():
                deltas[key] += value - before[key]
    finally:
        workload.close()
    overhead = statistics.median(
        u.qps / t.qps - 1.0 if t.qps else 0.0 for u, t in zip(untraced, traced))
    return (workload, answers, Measurement.pooled(untraced), Measurement.pooled(traced),
            tracer, deltas, overhead)


def _attempts(measurements) -> tuple:
    queries = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    writes = sum(m.writes.count for m in measurements)
    failed_writes = sum(m.writes.failed for m in measurements)
    return queries, failed, queries + writes, failed + failed_writes


def _write_trace(name: str, report: dict, tracer) -> Path:
    """Write the report (JSON) and the timed phase's spans (``.npz``)."""
    import numpy as np

    from perfbench.trace import CHILD, END, NAME, PHASE, START, THREAD

    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    timed = [s for s in tracer.spans if s[PHASE] == "timed"]
    names = {n: i for i, n in enumerate(sorted({s[NAME] for s in timed}))}
    threads = {t: i for i, t in enumerate(sorted({s[THREAD] for s in timed}))}
    origin = min((s[START] for s in timed), default=0.0)
    np.savez(
        out / f"spans-{name}.npz",
        names=np.asarray(list(names)),
        name=np.asarray([names[s[NAME]] for s in timed], dtype=np.int16),
        thread=np.asarray([threads[s[THREAD]] for s in timed], dtype=np.int8),
        start_s=np.asarray([s[START] - origin for s in timed]),
        end_s=np.asarray([s[END] - origin for s in timed]),
        child_s=np.asarray([s[CHILD] for s in timed]),
    )
    path = out / f"report-{name}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    return path


def _print_report(name: str, seed: int, machine: dict, rows, samples: str) -> None:
    print(f"fingerprint {json.dumps(machine, sort_keys=True)}")
    print(f"workload {name} seed {seed}: {samples}")
    for metric, value, unit, tag in rows:
        suffix = f"  [{tag}]" if tag else ""
        print(f"  {metric:<30} {value:>14.6g} {unit}{suffix}")


def execute(name: str, seed: int, seconds: float, trace: int, import_s: float,
            corrupt_oracle: bool = False, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the result object printed last."""
    from perfbench import metrics
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[name]
    if trace:
        workload, answers, untraced, traced, tracer, deltas, overhead = run_traced(
            cls, seed, seconds)
        writes_applied = workload.writes_applied
        phases = (untraced, traced)
    else:
        workload, writes_applied, answers, untraced, setup_s, setups, peak_rss_mb = (
            run_untraced(cls, seed, seconds, import_s, setup_repeats))
        phases = (untraced,)
    queries, failed_queries, attempted, failed = _attempts(phases)

    oracle = workload.oracle(writes_applied)  # outside every timed phase
    if corrupt_oracle:
        oracle.corrupt()
    agreement = oracle.agreement(answers)
    correct = len(answers) > 0 and agreement == 1.0

    latency = untraced.latency
    qps_over = (f"the median of {len(untraced.round_qps)} burst slices"
                if untraced.round_qps else f"{untraced.elapsed_s:.1f} timed s")
    samples = (f"{attempted} operations attempted, {failed} failed; latency "
               f"n={latency.count}, p50 {latency.percentile_ms(50):.3f} ms, p99 "
               f"{latency.percentile_ms(99):.3f} ms with {latency.count // 100} "
               f"beyond; qps {untraced.qps:.1f} over {qps_over} (these three "
               f"ungated); label_agreement={agreement:.6f}")
    if trace:
        values = metrics.workload_figures(untraced, agreement, queries, failed_queries)
        values.update(metrics.per_layer(
            tracer, workload.run.rectifiers["series"], traced, deltas, traced.attempted))
        values["trace.overhead"] = overhead
        table = {k: (unit, tag) for k, (unit, _, tag) in metrics.PER_LAYER.items()}
    else:
        values = metrics.end_to_end(setup_s, peak_rss_mb)
        table = {k: (unit, "") for k, (unit, _) in metrics.END_TO_END.items()}
        samples += f"; setup_s over {len(setups)} set-ups: " + ", ".join(
            f"{s:.3f}" for s in setups)
    result_metrics = {k: {"value": float(values[k]), "unit": table[k][0]} for k in table}
    machine = fingerprint()
    _print_report(name, seed, machine,
                  [(k, float(values[k]), unit, tag) for k, (unit, tag) in table.items()],
                  samples)
    if trace:
        path = _write_trace(name, {
            "workload": name, "seed": seed, "fingerprint": machine,
            "metrics": {k: {"value": float(values[k]), "unit": u, "tag": t}
                        for k, (u, t) in table.items()},
        }, tracer)
        print(f"report and spans written to {path.parent.relative_to(ROOT)}/")
    return {"correct": correct, "attempted": int(attempted), "failed": int(failed),
            "metrics": result_metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import perfbench.workloads  # noqa: F401  (imports the program)

    import_s = time.perf_counter() - PROCESS_START
    if args.smoke:
        from perfbench.selfcheck import smoke

        return smoke(execute, import_s)
    result = execute(args.workload, args.seed, args.seconds, args.trace, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
