"""Alternating parent/change pairs of the end-to-end benchmark, and the pair
rule's verdict on every metric.

Usage:
    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT OUT --workload W [--pairs 10]

PARENT_ROOT and CHANGE_ROOT are checkouts of this repository (say a parent
commit unpacked with `git archive` and the working tree). Pair i (seeds 1 to
--pairs) runs `python3 perfbench/run.py --workload W --seed i --seconds S
--trace 0` once from each root, S being the run_seconds of
CHANGE_ROOT/BENCHMARK.json, each in a fresh process with that root as its
working directory; odd pairs run the parent first, even pairs the change. For each end-to-end metric of CHANGE_ROOT/BENCHMARK.json, OUT
receives each side's quartiles (`statistics.quantiles`, inclusive) and every
run, the pairs the change wins, the parent's IQR, the median gap (the change
ahead of the parent by it, in the metric's better direction), the relative
change of the median, whether that is worse than the metric's bound, and
`met`: at least ten pairs ran, the change wins at least nine in ten of them,
the median gap exceeds the parent's IQR, and the change's failed share
(failed over attempted ops, summed over its runs, as OUT records per side)
is no larger than the parent's, since a gain does not count when more
operations fail. OUT keeps the workloads it already holds and replaces W,
so one file can hold both workloads. Both roots must hold src/bpfhelm (exit
2 otherwise), so that no run measures another tree than the one named.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def pair_verdict(parent: list[float], change: list[float], better: str,
                 bound: float, failed_share: dict[str, float]) -> dict:
    """The pair rule on one metric, from runs paired by index; failed_share
    maps each side to its share of failed ops."""
    sign = -1.0 if better == "lower" else 1.0
    quarts = {"parent": quartiles(parent), "change": quartiles(change)}
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    parent_iqr = quarts["parent"]["q3"] - quarts["parent"]["q1"]
    gap = sign * (quarts["change"]["median"] - quarts["parent"]["median"])
    relative = quarts["change"]["median"] / quarts["parent"]["median"] - 1.0
    return {**quarts, "change_better_pairs": wins, "parent_iqr": parent_iqr,
            "median_gap": gap, "relative_change": relative,
            "worse_than_bound": -sign * relative > bound,
            "met": (len(parent) >= 10 and wins >= math.ceil(0.9 * len(parent))
                    and gap > parent_iqr
                    and failed_share["change"] <= failed_share["parent"]),
            "runs": {"parent": parent, "change": change}}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one end-to-end run from root, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run from {root} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    for side, root in roots.items():
        if not (root / "src" / "bpfhelm").is_dir():
            print(f"{side} root {root} holds no src/bpfhelm", file=sys.stderr)
            return 2
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]

    seeds = list(range(1, args.pairs + 1))
    reports: dict[str, list[dict]] = {side: [] for side in SIDES}
    for seed in seeds:
        for side in (SIDES if seed % 2 else SIDES[::-1]):
            reports[side].append(run_once(roots[side], args.workload, seed, seconds))
            value = reports[side][-1]["metrics"]["op_p50_ms"]["value"]
            print(f"seed {seed} {side}: op_p50_ms {value:.4g}", file=sys.stderr)

    attempted = {side: sum(r["attempted"] for r in reports[side]) for side in SIDES}
    failed = {side: sum(r["failed"] for r in reports[side]) for side in SIDES}
    failed_share = {side: failed[side] / attempted[side] for side in SIDES}
    metrics = {}
    for metric in declared["end_to_end"]:
        runs = {side: [r["metrics"][metric["name"]]["value"] for r in reports[side]]
                for side in SIDES}
        metrics[metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **pair_verdict(runs["parent"], runs["change"], metric["better"], metric["bound"],
                           failed_share)}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["what"] = (
        "Alternating parent/change pairs of `python3 perfbench/run.py --workload W "
        f"--seed i --seconds {seconds:g} --trace 0`, written by tools/bench_pairs.py; "
        "odd seeds run the parent first. Quartiles are "
        "`statistics.quantiles(method='inclusive')`.")
    data["host"] = {"cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "machine": platform.machine()}
    data.setdefault("final", {})[args.workload] = {
        "pairs": args.pairs, "seeds": seeds,
        "attempted": attempted, "failed": failed, "failed_share": failed_share,
        "metrics": metrics}
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
