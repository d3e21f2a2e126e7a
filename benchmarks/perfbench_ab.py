#!/usr/bin/env python
"""A/B the serving benchmark against a parent revision in alternating pairs.

Checks ``--parent`` out with ``git worktree`` into a temporary directory,
then, for every workload declared in ``BENCHMARK.json``, runs ``--pairs``
pairs of the benchmark command: one run on the parent checkout and one on
this working tree, with identical arguments (pair ``i`` uses seed
``--first-seed + i``; the run length is ``BENCHMARK.json``'s
``run_seconds``). The order inside a pair alternates, parent first
on even pairs and change first on odd ones, so a drift of the machine
over the session does not favour one side.

For each end-to-end metric of ``BENCHMARK.json`` it prints both sides'
median and quartiles, how many pairs each side won, and whether the
medians differ by more than the parent's interquartile range.

Usage, from the repository root::

    python benchmarks/perfbench_ab.py --parent HEAD~1 --pairs 10
    make perfbench-ab PARENT=HEAD~1 PAIRS=10

Exit status: 0 when every run finished with ``correct: true`` and the
change failed no larger share of operations than the parent on any
workload; 1 otherwise; 2 when a run or the checkout broke.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset of BENCHMARK.json's workloads")
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def run_once(command, checkout: Path, workload: str, seed: int, seconds: float):
    """One benchmark run; its final JSON line, or None when it broke."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(metric: dict, pairs) -> str:
    """One report line for ``metric`` over ``[(parent, change), ...]``."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [pair[i]["metrics"][name]["value"] for pair in pairs]
              for i, side in enumerate(SIDES)}
    wins = dict.fromkeys(SIDES, 0)
    for parent, change in zip(values["parent"], values["change"]):
        if parent != change:
            change_better = (change < parent) == lower
            wins["change" if change_better else "parent"] += 1
    stats = {side: quartiles(values[side]) for side in SIDES}
    (p_q1, p_med, p_q3), (_, c_med, _) = stats["parent"], stats["change"]
    delta = (c_med - p_med) / p_med if p_med else float("nan")
    beyond = abs(c_med - p_med) > p_q3 - p_q1
    cells = "  ".join(
        f"{side} {stats[side][1]:.4g} [{stats[side][0]:.4g}, {stats[side][2]:.4g}]"
        f" wins {wins[side]}/{len(pairs)}" for side in SIDES
    )
    return (f"  {name:<12} {cells}  median {delta:+.1%}"
            f"{'  beyond parent IQR' if beyond else ''}")


def failed_share(runs) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = sorted(set(wanted) - set(workloads))
        if unknown:
            print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
            return 2
        workloads = wanted
    status = 0
    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as tmp:
        parent_dir = Path(tmp) / "parent"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(parent_dir), args.parent],
            cwd=REPO_ROOT, check=True, capture_output=True,
        )
        try:
            checkouts = {"parent": parent_dir, "change": REPO_ROOT}
            for workload in workloads:
                pairs = []
                for index in range(args.pairs):
                    seed = args.first_seed + index
                    order = SIDES if index % 2 == 0 else SIDES[::-1]
                    result = {}
                    for side in order:
                        run = run_once(spec["command"], checkouts[side],
                                       workload, seed, seconds)
                        if run is None:
                            print(f"{workload} seed {seed}: {side} run broke",
                                  file=sys.stderr)
                            return 2
                        result[side] = run
                        print(f"{workload} seed {seed} {side}: correct "
                              f"{run['correct']}, failed {run['failed']}/"
                              f"{run['attempted']}", file=sys.stderr)
                    pairs.append((result["parent"], result["change"]))
                print(f"{workload} ({len(pairs)} pairs, {seconds:g} s each)")
                for metric in spec["end_to_end"]:
                    print(compare(metric, pairs))
                runs = {side: [pair[i] for pair in pairs]
                        for i, side in enumerate(SIDES)}
                shares = {side: failed_share(runs[side]) for side in SIDES}
                incorrect = sum(not run["correct"]
                                for side in SIDES for run in runs[side])
                print(f"  failed share parent {shares['parent']:.4g} change "
                      f"{shares['change']:.4g}; incorrect runs {incorrect}")
                if incorrect or shares["change"] > shares["parent"]:
                    status = 1
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(parent_dir)],
                cwd=REPO_ROOT, capture_output=True,
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
