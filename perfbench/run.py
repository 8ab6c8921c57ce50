#!/usr/bin/env python3
"""kwsense benchmark: one workload, one seed, one run.

Usage (from the root of a kwsense checkout)::

    python3 perfbench/run.py --workload wsd-corpus --seed 1 --seconds 10 --trace 0

Inputs are generated from the seed by ``gen.py`` into ``perfbench/.cache``
(outside timing, reused by later runs with the same seed). Every measurement
runs in a fresh ``job.py`` process, so import, load and peak memory are those
of a real process:

* ``--trace 0``: one discarded warm-up process (it warms the page cache and
  the bytecode cache), then timed job processes until ``--seconds`` have
  passed, then set-up-only processes until three set-ups were measured. The
  end-to-end metrics are printed.
* ``--trace 1``: one traced process; the per-layer metrics are printed and
  the spans are written to ``perfbench/.cache/traces``.

Outputs are checked outside timing (``check.py``). The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 1 when any check fails and 2 when the checkout has no
kwsense sources.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CACHE = HERE / ".cache"
KEEP_SEEDS = 2  # generated input sets kept per workload (cold-start: 121 MB each)
JOB_TIMEOUT_S = 170
MAX_JOBS = 40
MIN_SETUPS = 3

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import gen  # noqa: E402
import job  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "targets_per_s": "targets/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

PER_LAYER = {
    "embeddings.load_s": "s",
    "embeddings.load_mb_per_s": "MB/s",
    "embeddings.rss_delta_mb": "MB",
    "lexicon.load_s": "s",
    "cli.import_s": "s",
    "disambig.calls": "count",
    "disambig.total_ms.p50": "ms",
    "disambig.total_ms.p90": "ms",
    "disambig.active_context_ms.p50": "ms",
    "disambig.active_context_ms.p90": "ms",
    "disambig.active_context_kept_ratio": "ratio",
    "disambig.step1_ms.p50": "ms",
    "disambig.step1_ms.p90": "ms",
    "disambig.step1_pairs": "count",
    "disambig.step2_ms.p50": "ms",
    "disambig.step2_ms.p90": "ms",
    "disambig.step2_fallback_ratio": "ratio",
    "disambig.step3_ms.p50": "ms",
    "disambig.step3_ms.p90": "ms",
    "disambig.step3_boosted_ratio": "ratio",
    "disambig.self_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

ORACLE_SAMPLE = 4  # calls per run recomputed by the oracle


def ensure_inputs(workload: str, seed: int) -> Path:
    """The seed's generated inputs, generating them on first use."""
    data = CACHE / f"{workload}-seed{seed}"
    manifest = data / "manifest.json"
    if manifest.exists() and json.loads(manifest.read_text()).get("version") == gen.GENERATOR_VERSION:
        os.utime(data)
        return data
    tmp = CACHE / f"tmp-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    gen.generate(workload, seed, tmp)
    for f in tmp.iterdir():
        # Write the new files back now, not while the timed processes run.
        with f.open("rb") as fh:
            os.fsync(fh.fileno())
    shutil.rmtree(data, ignore_errors=True)
    os.replace(tmp, data)
    old = sorted(CACHE.glob(f"{workload}-seed*"), key=lambda p: p.stat().st_mtime)
    for stale in old[:-KEEP_SEEDS]:
        shutil.rmtree(stale, ignore_errors=True)
    return data


def spawn(mode: str, workload: str, data: Path, tag: str) -> tuple[dict | None, float, str]:
    """Run job.py in a fresh interpreter; (its result, wall seconds, error text).

    The result's ``spawned`` is the CLOCK_MONOTONIC time (shared by all
    processes on Linux) just before the interpreter was started.
    """
    out = CACHE / "out" / f"{workload}-{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "job.py"), mode, "--workload", workload,
           "--data", str(data), "--out", str(out)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - spawned, f"{mode} job timed out"
    wall = time.monotonic() - spawned
    if proc.returncode != 0 or not out.exists():
        return None, wall, f"{mode} job exited {proc.returncode}: {proc.stderr[-2000:]}"
    return dict(json.loads(out.read_text()), spawned=spawned), wall, ""


class Checker:
    """Loads what the output checks need, through kwsense and an independent reader."""

    def __init__(self, workload: str, data: Path):
        import kwsense as kw

        # The loaders' warnings about planted gaps are expected; keep stderr quiet.
        logging.getLogger("kwsense").setLevel(logging.ERROR)
        self.kw, self.check = kw, check
        self.manifest = json.loads((data / "manifest.json").read_text())
        self.data = data
        self.workload = workload
        self.lexicon = kw.load_lexicon(data / self.manifest["lexicon"])
        self.stopwords = kw.default_stopwords()
        self.ref = None
        self.sif = self.docvec = None

    def result_errors(self, results: list, calls: list) -> list[list[str]]:
        """Invariant problems per call."""
        out = []
        for res, (_, keyword, _, _) in zip(results, calls):
            if res is not None and res.get("senses") is None and not self.lexicon.senses_of(keyword):
                out.append([])
                continue
            out.append(self.check.invariants(res, self.lexicon, keyword))
        return out

    def _load_reference(self, contexts: list) -> None:
        """The oracle's inputs: vectors read independently, and the sense stores."""
        m = self.manifest
        wanted = self.check.wanted_tokens(self.lexicon, contexts)
        self.ref = self.check.read_model(self.data / m["model"], m["model_format"], wanted)
        if "sif_freqs" in m:
            model = self.kw.EmbeddingModel(vocab=self.ref.vocab, dim=m["dim"])
            self.sif = self.kw.build_sif_store(
                model, self.lexicon, self.kw.SifConfig(word_freq_source=self.data / m["sif_freqs"]))
        if "docvec" in m:
            self.docvec = self.kw.load_docvec_store(self.data / m["docvec"])

    def oracle_sample(self, results: list, calls: list) -> dict[int, list[str]]:
        """Oracle differences for a deterministic sample of calls, keyed by call index."""
        known = [i for i, (r, c) in enumerate(zip(results, calls))
                 if r is not None and r.get("senses") and self.lexicon.senses_of(c[1])]
        if self.workload == "query-mix":
            # The cheapest call of each strategy: the oracle is plain Python.
            pick = []
            for strategy in job.STRATEGIES:
                mine = [i for i in known if calls[i][3] == strategy]
                if mine:
                    pick.append(min(mine, key=lambda i: len(results[i]["senses"])))
        else:
            step = max(1, len(known) // ORACLE_SAMPLE)
            pick = known[::step][:ORACLE_SAMPLE]
        self._load_reference([calls[i][2] for i in pick])
        out = {}
        for i in pick:
            _, keyword, context, strategy = calls[i]
            out[i] = self.check.oracle_diff(results[i], self.ref, self.lexicon, keyword,
                                            context, strategy, self.stopwords, self.sif,
                                            self.docvec)
        return out

    def report_errors(self, report: dict | None, results: list, calls: list) -> list[str]:
        """eval_wsd report: attempted count, predictions among the candidate senses,
        and agreement with the single-target calls on the sampled targets."""
        if report is None:
            return ["eval_wsd produced no report"]
        corpus = self.kw.load_wsd_corpus(self.data / self.manifest["corpus"])
        targets = job.targets_of(corpus)
        errs = []
        known = sum(1 for t in targets if self.lexicon.senses_of(t[1]))
        if report["attempted"] != known:
            errs.append(f"eval_wsd attempted {report['attempted']} targets, {known} have senses")
        records = report["records"]
        if len(records) != len(targets):
            return errs + ["eval_wsd returned a record count unlike the corpus"]
        by_rid = {}
        for (rid, keyword, _, _), rec in zip(targets, records):
            by_rid[rid] = rec
            ids = {s.id for s in self.lexicon.senses_of(keyword)}
            if rec["attempted"] and rec["predicted"] not in ids:
                errs.append(f"{rid}: prediction is not a sense of {keyword!r}")
        for res, (rid, _, _, _) in zip(results, calls):
            if res is not None and res.get("senses") and by_rid[rid]["predicted"] != res["senses"][0]["id"]:
                errs.append(f"{rid}: eval_wsd and disambiguate disagree on the top sense")
        return errs

    def cli_errors(self, results: list) -> list[str]:
        """One untimed `kwsense disambiguate --output json` must give the same results."""
        m = self.manifest
        words = (self.data / m["keywords"]).read_text(encoding="utf-8").split()
        cmd = [sys.executable, "-m", "kwsense.cli", "disambiguate", "--model",
               str(self.data / m["model"]), "--lexicon", str(self.data / m["lexicon"]),
               "--output", "json", *words]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return ["kwsense disambiguate timed out"]
        if proc.returncode != 0:
            return [f"kwsense disambiguate exited {proc.returncode}: {proc.stderr[-500:]}"]
        if json.loads(proc.stdout)["results"] != results:
            return ["kwsense disambiguate output differs from the benchmark's results"]
        return []


def check_outputs(checker: Checker, results: list, calls: list) -> tuple[list[int], list[str]]:
    """Indices of failed calls and every problem found (invariants and oracle)."""
    problems = checker.result_errors(results, calls)
    for i, errs in checker.oracle_sample(results, calls).items():
        problems[i] += errs
    bad = [i for i, p in enumerate(problems) if p]
    return bad, [e for p in problems for e in p]


def timed_run(workload: str, data: Path, seconds: float) -> tuple[dict, int, int, list[str], list[str]]:
    warm, _, err = spawn("setup", workload, data, "warmup")
    if warm is None:
        return {}, 1, 1, [err], []
    jobs, walls, errors = [], [], []
    start = time.perf_counter()
    # Start another job only if it should end within the run's time.
    while not jobs or (time.perf_counter() - start + walls[-1] <= seconds
                       and len(jobs) < MAX_JOBS):
        res, wall, err = spawn("run", workload, data, f"job{len(jobs)}")
        if res is None:
            errors.append(err)
            break
        jobs.append(res)
        walls.append(wall)
    if not jobs:
        return {}, 1, 1, errors, []
    setups = [j["setup_s"] for j in jobs]
    while len(setups) < MIN_SETUPS:
        res, _, err = spawn("setup", workload, data, f"setup{len(setups)}")
        if res is None:
            errors.append(err)
            break
        setups.append(res["setup_s"])

    first = jobs[0]
    ops = len(first["calls"]) + first["targets"] * (workload == "wsd-corpus")
    attempted = ops * len(jobs)
    failed = 0
    checker = Checker(workload, data)
    bad, problems = check_outputs(checker, first["results"], first["calls"])
    failed += len(bad) * len(jobs)
    for j in jobs:
        failed += len(j["errors"])
        problems += j["errors"]
    for k, j in enumerate(jobs[1:], start=1):
        if j["results"] != first["results"] or j.get("report") != first.get("report"):
            failed += ops
            problems.append(f"job {k} gave different outputs than job 0")
    if workload == "wsd-corpus":
        errs = checker.report_errors(first.get("report"), first["results"], first["calls"])
        failed += len(errs) * len(jobs)
        problems += errs
    if workload == "cold-start":
        errs = checker.cli_errors(first["results"])
        failed += len(errs)
        problems += errs

    # Every job repeats the same work. A unit of work (a call, a document's
    # eval_wsd) takes its best time over the jobs, as timeit does: other
    # tenants of a shared host only ever add time, and they add much of it.
    per_call = [min(xs) for xs in zip(*(j["latencies_ms"] for j in jobs)) if None not in xs]
    if workload == "wsd-corpus":
        best_score_s = sum(min(xs) for xs in zip(*(j["doc_s"] for j in jobs)))
    else:
        best_score_s = sum(per_call) / 1e3
    if not per_call or best_score_s <= 0:
        return {}, attempted, max(1, failed), errors + problems + ["no call was timed"], []
    metrics = {
        "setup_s": min(setups),
        "run_s": min(j["first_result_at"] - j["spawned"] for j in jobs),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        "targets_per_s": first["targets"] / best_score_s,
        "latency_p50_ms": job.percentile(per_call, 50),
        "latency_p90_ms": job.percentile(per_call, 90),
    }
    notes = [
        f"samples: {len(jobs)} job processes, {len(setups)} set-ups, "
        f"{len(per_call)} calls timed {len(jobs)} times each",
        f"job process wall time, spawn to exit: best {min(walls):.6g} s, "
        f"median {statistics.median(walls):.6g} s",
        f"failed_frac {failed / max(1, attempted):.6g} ratio ({failed} of {attempted} operations)",
    ]
    if workload == "wsd-corpus" and first.get("report"):
        rep = first["report"]
        notes.append(f"f1 {rep['f1']:.6g} ratio (precision {rep['precision']:.6g}, "
                     f"recall {rep['recall']:.6g}, {rep['total']} targets)")
    if workload == "query-mix":
        notes.append(f"queries_per_s {metrics['targets_per_s']:.6g} queries/s "
                     "(closed loop, one caller)")
    return metrics, attempted, failed, errors + problems, notes


def traced_run(workload: str, data: Path, seed: int) -> tuple[dict, int, int, list[str], list[str]]:
    res, _, err = spawn("trace", workload, data, "trace")
    if res is None:
        return {}, 1, 1, [err], []
    checker = Checker(workload, data)
    bad, problems = check_outputs(checker, res["results"], res["calls"])
    problems += res["errors"]
    attempted = len(res["calls"])
    failed = len(set(bad)) + len(res["errors"])
    spans_file = CACHE / "traces" / f"{workload}-seed{seed}.json"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(json.dumps({k: res[k] for k in ("spans", "self_s", "metrics")}))
    m = res["metrics"]
    notes = [f"spans: {len(res['spans'])} written to {spans_file.relative_to(ROOT)}"]
    notes += [f"self time {name}: {t:.6g} s"
              for name, t in sorted(res["self_s"].items(), key=lambda kv: -kv[1])]
    notes += [f"{name} {value:.6g}" for name, value in sorted(m.items()) if name not in PER_LAYER]
    metrics = {name: m.get(name, 0.0) for name in PER_LAYER}
    return metrics, attempted, failed, problems, notes


def main() -> int:
    ap = argparse.ArgumentParser(description="kwsense benchmark (one workload, one run)")
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for needed in ("src/kwsense/__init__.py", "tests/oracle.py"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: run from the root of a kwsense checkout ({needed} not found)",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(CACHE / "out", ignore_errors=True)
    data = ensure_inputs(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, problems, notes = traced_run(args.workload, data, args.seed)
        units = PER_LAYER
    else:
        metrics, attempted, failed, problems, notes = timed_run(args.workload, data, args.seconds)
        units = END_TO_END
    correct = not problems and failed == 0 and bool(metrics)
    for note in notes:
        print(f"# {note}")
    for problem in problems[:20]:
        print(f"! {problem}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
