"""Self-checks of the benchmark (``python3 perfbench/run.py --smoke``).

For every workload, a short untraced and a short traced run must print
every metric of ``BENCHMARK.json`` with its unit and pass the label
check; a deliberately corrupted oracle must fail it; and the same seed
must give the same query and write streams (another seed, other ones).
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from repro.datasets.synthetic import load_dataset

from . import streams
from .deployment import DATASET, DATASET_SEED
from .workloads import WORKLOADS

SMOKE_SECONDS = 4.0
SMOKE_SEED = 7
ROOT = Path(__file__).resolve().parent.parent


def _printed(execute, *args, **kwargs):
    """Run one workload, returning its result and everything it printed."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        result = execute(*args, **kwargs)
    return result, buffer.getvalue()


def _check_metrics(result: dict, printed: str, declared: list) -> list:
    problems = []
    lines = {tuple(line.split()[:1]): line.split() for line in printed.splitlines()}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            problems.append(f"{name}: result has {got!r}, expected unit {unit}")
        words = lines.get((name,))
        if words is None or len(words) < 3 or words[2] != unit:
            problems.append(f"{name}: not printed with unit {unit}")
    extra = set(result["metrics"]) - {entry["name"] for entry in declared}
    if extra:
        problems.append(f"undeclared metrics: {sorted(extra)}")
    return problems


def _stream_problems() -> list:
    """Same seed, same streams; another seed, other streams."""
    features = load_dataset(DATASET, seed=DATASET_SEED).features

    def draw(seed):
        return [
            streams.zipf_ids(seed, "measure", 832, 4096),
            streams.uniform_fractions(seed, "measure", 4096),
            np.asarray([int(t[-2:]) for t in streams.tenants(seed, "t", 4096)]),
            streams.poisson_offsets(seed, "arrivals", 1800.0, 2.0),
            np.stack([w.features_row for w in streams.writes(seed, "writes", features, 4)]),
            np.asarray([w.private_neighbours + w.substitute_neighbours
                        for w in streams.writes(seed, "writes", features, 4)]),
        ]

    first, again, other = draw(SMOKE_SEED), draw(SMOKE_SEED), draw(SMOKE_SEED + 1)
    problems = []
    for index, (a, b, c) in enumerate(zip(first, again, other)):
        if a.shape != b.shape or not np.array_equal(a, b):
            problems.append(f"stream {index} differs between two draws of one seed")
        if a.shape == c.shape and np.array_equal(a, c):
            problems.append(f"stream {index} is identical for two seeds")
    return problems


def smoke(execute, import_s: float) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = _stream_problems()
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, printed = _printed(execute, name, SMOKE_SEED, SMOKE_SECONDS, trace,
                                       import_s, setup_repeats=2)
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: labels disagree with the oracle")
            if result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} operations failed")
            problems += [f"{name} trace={trace}: {p}"
                         for p in _check_metrics(result, printed, declared[section])]
        corrupted, _ = _printed(execute, name, SMOKE_SEED, SMOKE_SECONDS, 0, import_s,
                                corrupt_oracle=True, setup_repeats=2)
        if corrupted["correct"]:
            problems.append(f"{name}: a corrupted oracle still passed the label check")
        print(f"smoke {name}: checked", flush=True)
    for problem in problems:
        print(f"smoke FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0
