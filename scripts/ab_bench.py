#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark: a parent revision against the working tree.

Usage (from the root of a kwsense checkout)::

    python3 scripts/ab_bench.py --parent HEAD --workload cold-start --pairs 10

Without ``--workload`` every workload of ``BENCHMARK.json`` runs, one after
another, each with its own pairs and report.

REV's files are exported into a temporary directory (``git archive``). Each
pair then runs ``perfbench/run.py --trace 0`` once in that copy and once in
the working tree, with the run length ``BENCHMARK.json`` sets, on one fresh
seed per pair; the side that runs first alternates from pair to pair. Both
sides read the same generated inputs: the copy's ``perfbench/.cache`` is a
link to the working tree's, so an input set is generated once. Nothing under
``perfbench/`` is edited.

For every end-to-end metric the report gives each side's median and
quartiles over its correct runs, the pairs the working tree won (ties count
for neither side), whether the benchmark's claim rule holds for a gain (the
working tree wins at least nine pairs in ten and its median is better than
the parent's by more than the parent's interquartile range), and a
no-regression verdict against the metric's ``BENCHMARK.json`` bound:
``unresolved`` when the parent's interquartile range exceeds the bound
times its median (the runs spread too widely to tell), else ``worse`` when
the working tree's median is worse than the parent's by more than the bound
times the parent's median, else ``ok``. Runs that failed a check are
counted per side. The copy is removed on exit.

The exit status is 1 when, in any workload run, a run failed a check on
either side or a metric's verdict is ``worse``, else 0 (``unresolved`` is
reported but passes), so the script can gate a change.
"""
from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The metrics of one timed run in ``checkout``, or None if it failed a check."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"  run failed in {checkout} (exit {proc.returncode}): "
              f"{(proc.stdout + proc.stderr)[-500:]}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: tuple[float, float, float], change: float, bound: float, lower: bool) -> str:
    """``ok``, ``worse`` or ``unresolved``: the working tree's median against the parent's."""
    q1, median, q3 = parent
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    worse_by = (change - median) if lower else (median - change)
    return "worse" if worse_by > bound * abs(median) else "ok"


def report(pairs: list[tuple[dict | None, dict | None]], metrics: list[dict]) -> int:
    """Per metric: each side's quartiles, the wins, the claim rule and the bound's verdict.

    Returns the exit status: 1 if a run failed or a verdict is ``worse``, else 0.
    """
    failed = [sum(p[i] is None for p in pairs) for i in (0, 1)]
    status = int(any(failed))
    print(f"pairs {len(pairs)}; failed runs: parent {failed[0]}, working tree {failed[1]}")
    print(f"{'metric':16s} {'parent q1/median/q3':>32s} {'working tree q1/median/q3':>32s}"
          f" {'wins':>6s}  claim  bound")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        both = [(a[name], b[name]) for a, b in pairs if a and b and name in a and name in b]
        if not both:
            continue
        parent = quartiles([a for a, _ in both])
        change = quartiles([b for _, b in both])
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        gap = (parent[1] - change[1]) if lower else (change[1] - parent[1])
        holds = wins * 10 >= 9 * len(pairs) and gap > parent[2] - parent[0]
        cells = ["/".join(f"{v:.4g}" for v in q) for q in (parent, change)]
        bound = verdict(parent, change[1], m["bound"], lower)
        status |= bound == "worse"
        print(f"{name:16s} {cells[0]:>32s} {cells[1]:>32s} {wins:>3d}/{len(pairs):<2d}"
              f"  {'holds' if holds else 'no':5s}  {bound}")
    return status


def export(rev: str, tree: Path) -> None:
    """Write the files of revision ``rev`` into the directory ``tree``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def run_workloads(tree: Path, workloads: list[str], n_pairs: int, bench: dict) -> int:
    """``n_pairs`` alternating pairs of each workload in turn, each reported on its own.

    Returns the exit status over all of them: 1 if any report's is 1, else 0.
    """
    status = 0
    for workload in workloads:
        print(f"workload {workload}", flush=True)
        seeds = random.sample(range(10_000, 1_000_000), n_pairs)
        pairs = []
        for i, seed in enumerate(seeds):
            sides = [(0, tree), (1, ROOT)]
            if i % 2:
                sides.reverse()
            got: list[dict | None] = [None, None]
            for side, checkout in sides:
                got[side] = run_bench(checkout, workload, seed, bench["run_seconds"])
            pairs.append((got[0], got[1]))
            order = "parent first" if i % 2 == 0 else "working tree first"
            print(f"pair {i + 1}/{n_pairs} seed {seed} ({order}): "
                  + "; ".join(f"{k} {got[0][k]:.4g} -> {got[1][k]:.4g}"
                              for k in (got[0] or {}) if got[1] and k in got[1]),
                  flush=True)
        status |= report(pairs, bench["end_to_end"])
    return status


def _at_least_one(text: str) -> int:
    """``--pairs``: an int of at least 1, so that a verdict rests on some runs."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--workload", help="default: every workload, one after another")
    ap.add_argument("--pairs", type=_at_least_one, default=10)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}")
    # SIGTERM unwinds like Ctrl-C, so the copy is removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix="ab_bench-"))
    tree = tmp / "parent"
    try:
        tree.mkdir()
        export(args.parent, tree)
        cache = ROOT / "perfbench" / ".cache"
        cache.mkdir(exist_ok=True)
        (tree / "perfbench" / ".cache").symlink_to(cache, target_is_directory=True)
        workloads = names if args.workload is None else [args.workload]
        return run_workloads(tree, workloads, args.pairs, bench)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)  # the link goes, the shared inputs stay


if __name__ == "__main__":
    sys.exit(main())
