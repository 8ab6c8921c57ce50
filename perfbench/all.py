#!/usr/bin/env python3
"""Run every workload of the kwsense benchmark once and print all metrics.

Usage (from the root of a kwsense checkout)::

    python3 perfbench/all.py --seed 1 [--seconds 30] [--trace]

Each workload runs through ``run.py`` in its own process: the timed run, and
with ``--trace`` also the traced run. Every metric line is printed with its
unit; the exit code is 1 if any run failed its output check.
"""
from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", action="store_true", help="also run the traced runs")
    args = ap.parse_args()
    status = 0
    for workload in gen.WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(f"! {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
