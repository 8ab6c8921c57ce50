#!/usr/bin/env python3
"""One measured process of the kwsense benchmark.

``run.py`` starts this file in a fresh interpreter for every measurement, so
that import, load and peak memory are those of a real process. Modes:

* ``setup``: import kwsense and load everything the workload needs before its
  first scored call; report the load time.
* ``run``: setup, then the workload's scored calls through kwsense's public
  functions, timed from outside; report timings, peak RSS and every output.
* ``trace``: the same work with a span around every layer call, the
  ``disambiguate`` calls split into their steps, and input-derived counts;
  report spans, per-layer metrics and outputs.

Run: ``python3 perfbench/job.py run --workload wsd-corpus --data DIR --out FILE``
with ``src`` on ``PYTHONPATH``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import time
from pathlib import Path

STRATEGIES = ("overlap", "average", "sif", "topk", "docvec")
LATENCY_SAMPLE = 150  # single-target calls after eval_wsd on wsd-corpus


def rss_mb() -> float:
    """Current resident set size of this process (reads /proc/self/statm)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def peak_rss_mb() -> float:
    """Peak resident set size of this process image (VmHWM).

    Not ``getrusage``: its ``ru_maxrss`` survives ``exec`` and so would
    include the parent's memory at fork time.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Tracer:
    """Spans kept in memory: name, start, end, parent span and request id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None, rss: bool = False, **attrs):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        rec = {"id": len(self.spans), "name": name, "parent": parent, "request": request,
               **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        if rss:
            rec["rss_before_mb"] = rss_mb()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if rss:
                rec["rss_after_mb"] = rss_mb()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out


def _untraced(name: str, **_):
    return contextlib.nullcontext()


def targets_of(corpus) -> list[tuple[str, str, list[str], tuple[str, ...]]]:
    """(request id, keyword, context, gold) per corpus target, in corpus order."""
    out = []
    for item in corpus.items:
        for j, t in enumerate(item.targets):
            context = list(item.tokens[: t.position]) + list(item.tokens[t.position + 1 :])
            out.append((f"{item.item_id}#{j}", t.keyword, context, t.gold))
    return out


def documents(kw, corpus) -> list:
    """The corpus split into its documents (item-id prefix before the first dot)."""
    docs: dict[str, list] = {}
    for item in corpus.items:
        docs.setdefault(item.item_id.split(".")[0], []).append(item)
    return [kw.WsdCorpus(name=f"{corpus.name}/{name}", items=tuple(items))
            for name, items in docs.items()]


def latency_sample(kw, lexicon, corpus) -> list[tuple[str, str, list[str], tuple[str, ...]]]:
    """Evenly spaced corpus targets with a known keyword, LATENCY_SAMPLE at most."""
    known = [t for t in targets_of(corpus) if lexicon.senses_of(t[1])]
    step = max(1, len(known) // LATENCY_SAMPLE)
    return known[::step][:LATENCY_SAMPLE]


def load_inputs(kw, manifest: dict, data: Path, span=_untraced) -> dict:
    """Everything the workload loads before its first scored call, in CLI order."""
    got: dict = {}
    with span("lexicon.load"):
        got["lexicon"] = kw.load_lexicon(data / manifest["lexicon"])
    for key in ("corpus", "queries"):
        if key in manifest:
            with span("evaluation.corpus_load"):
                got["corpus"] = kw.load_wsd_corpus(data / manifest[key])
    binary = manifest["model_format"] == "binary"
    path = data / manifest["model"]
    with span("embeddings.load", rss=True, bytes=path.stat().st_size,
              format=manifest["model_format"]):
        got["model"] = (kw.load_binary_model if binary else kw.load_text_model)(path)
    got["sif"] = got["docvec"] = None
    if "sif_freqs" in manifest:
        with span("relatedness.sif_store"):
            got["sif"] = kw.build_sif_store(
                got["model"], got["lexicon"],
                kw.SifConfig(word_freq_source=data / manifest["sif_freqs"]),
            )
    if "docvec" in manifest:
        with span("disambig.docvec_load"):
            got["docvec"] = kw.load_docvec_store(data / manifest["docvec"])
    if "keywords" in manifest:
        got["keywords"] = (data / manifest["keywords"]).read_text(encoding="utf-8").split()
    return got


def calls_of(kw, workload: str, got: dict) -> list[tuple[str, str, list[str], str]]:
    """(request id, keyword, context, strategy) for each single-target call."""
    if workload == "wsd-corpus":
        sample = latency_sample(kw, got["lexicon"], got["corpus"])
        return [(rid, k, ctx, "topk") for rid, k, ctx, _ in sample]
    if workload == "query-mix":
        return [(rid, k, ctx, STRATEGIES[i % len(STRATEGIES)])
                for i, (rid, k, ctx, _) in enumerate(targets_of(got["corpus"]))]
    words = got["keywords"]
    return [(f"kw{i}", k, words[:i] + words[i + 1 :], "topk") for i, k in enumerate(words)]


def _params(kw, strategy: str):
    return kw.AlgoParams(strategy=kw.Strategy(strategy))


def run_calls(kw, got: dict, calls, out: dict) -> tuple[list, list[float | None], list[str]]:
    """Closed loop, one caller: each call starts when the previous returns.

    Latencies line up with ``calls``; None marks a call not made or failed.
    ``out["first_result_at"]`` is set (CLOCK_MONOTONIC) when the first call
    returns, unless already set.
    """
    model, lexicon = got["model"], got["lexicon"]
    cfg = kw.ContextConfig()
    results, lat, errors = [], [], []
    for rid, keyword, context, strategy in calls:
        if not lexicon.senses_of(keyword):
            results.append({"keyword": keyword, "senses": None})
            lat.append(None)
            continue
        params = _params(kw, strategy)
        t0 = time.perf_counter()
        try:
            res = kw.disambiguate(model, lexicon, keyword, context, cfg, params,
                                  got["sif"], got["docvec"])
        except Exception as exc:  # a failed call is counted, not fatal
            errors.append(f"{rid}: {type(exc).__name__}: {exc}")
            results.append(None)
            lat.append(None)
            continue
        lat.append((time.perf_counter() - t0) * 1e3)
        out.setdefault("first_result_at", time.monotonic())
        results.append(res.to_dict())
    return results, lat, errors


def do_setup(workload: str, manifest: dict, data: Path, out: Path) -> dict:
    import kwsense as kw

    t0 = time.perf_counter()
    load_inputs(kw, manifest, data)
    return {"setup_s": time.perf_counter() - t0}


def do_run(workload: str, manifest: dict, data: Path, out_path: Path) -> dict:
    import kwsense as kw

    t0 = time.perf_counter()
    got = load_inputs(kw, manifest, data)
    out = {"setup_s": time.perf_counter() - t0, "errors": []}
    if workload == "wsd-corpus":
        # One eval_wsd call per document, default settings.
        records, doc_s = [], []
        for doc in documents(kw, got["corpus"]):
            t0 = time.perf_counter()
            try:
                records += kw.eval_wsd(got["model"], got["lexicon"], doc, jobs=1).records
            except Exception as exc:
                out["errors"].append(f"eval_wsd {doc.name}: {type(exc).__name__}: {exc}")
            doc_s.append(time.perf_counter() - t0)
            out.setdefault("first_result_at", time.monotonic())
        report = kw.WsdReport.from_records(records)
        targets = report.total
        out.update(report=report.to_dict(include_records=True), doc_s=doc_s)
    calls = calls_of(kw, workload, got)
    results, lat, errors = run_calls(kw, got, calls, out)
    if workload == "cold-start":
        # What `kwsense disambiguate --output json` writes, minus the config
        # echo; the CLI's first output is this whole document.
        out_path.with_suffix(".cli.json").write_text(
            json.dumps({"results": results}, sort_keys=True))
        out["first_result_at"] = time.monotonic()
    if workload != "wsd-corpus":
        targets = sum(x is not None for x in lat)
    out.setdefault("first_result_at", time.monotonic())  # nothing returned
    out.update(targets=targets, latencies_ms=lat, results=results,
               calls=calls, peak_rss_mb=peak_rss_mb())
    out["errors"] += errors
    return out


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced_disambiguate(kw, tr: Tracer, model, lexicon, keyword, context, cfg, params,
                        sif, docvec, request):
    """disambiguate() step by step, in its order, with a span around each step."""
    with tr.span("disambig.disambiguate", request=request, strategy=params.strategy.value):
        senses = lexicon.senses_of(keyword)
        if not senses:
            raise ValueError(f"unknown keyword: {keyword!r}")
        with tr.span("disambig.active_context"):
            ca = kw.select_active_context(model, context, keyword, cfg)
        with tr.span("disambig.step1"):
            scores = kw.step1_base_scores(model, lexicon, senses, ca, params.weights)
        with tr.span(f"disambig.step2.{params.strategy.value}"):
            scores = kw.step2_rescore(model, lexicon, scores, ca, params, sif, docvec,
                                      cfg.stopwords)
        with tr.span("disambig.step3"):
            scores = kw.step3_frequency(scores, senses, params)
        ranked = sorted(scores, key=lambda s: -s.score)
    return kw.DisambiguationResult(keyword=keyword, active_context=ca, scores=tuple(ranked))


def candidate_words(context, keyword: str, stopwords) -> int:
    """Context words that active-context selection scores (dedup, no stopwords or keyword)."""
    seen: set[str] = set()
    n = 0
    for w in context:
        norm = w.lower()
        if not norm or norm in seen:
            continue
        seen.add(norm)
        if norm not in stopwords and norm != keyword.lower():
            n += 1
    return n


def step1_pairs(lexicon, senses, ca_words) -> int:
    """Word-pair relatedness evaluations step 1 implies: synonyms plus core-context synonyms."""
    per_word = 0
    for s in senses:
        per_word += len(s.synonyms)
        per_word += sum(len(lexicon.resolve_context(r).synonyms) for r in s.core_context)
    return per_word * len(ca_words)


def _nonzero(v) -> bool:
    return v is not None and bool(v.any())


def step2_unavailable(model, sense, ca_words, keyword, strategy, sif, docvec) -> bool:
    """True when the strategy's inputs for this sense are missing (step 2 falls back)."""
    if strategy == "overlap":
        return False
    if strategy == "average":
        if not ca_words or not sense.description_terms:
            return True
        words = [model.phrase_vector(w) for w in ca_words]
        terms = [model.phrase_vector(t) for t in sense.description_terms]
        return not (any(map(_nonzero, words)) and any(map(_nonzero, terms)))
    ca_vecs = [v for w in ca_words if _nonzero(v := model.phrase_vector(w))]
    if not ca_vecs or not sum(ca_vecs).any():
        return True
    if strategy in ("sif", "docvec"):
        store = sif if strategy == "sif" else docvec.vectors
        return not _nonzero(store.get(sense.id))
    terms = [v for t in sense.description_terms if _nonzero(v := model.phrase_vector(t))]
    kd = model.phrase_vector(keyword)
    ref = ca_vecs + ([kd] if _nonzero(kd) else [])
    return not terms or not sum(ref).any()


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer, counts: dict, ref_s: float, extra: dict) -> dict:
    """Per-layer metrics from the spans and the input-derived counts."""
    dur: dict[str, list[float]] = {}
    for s in tr.spans:
        dur.setdefault(s["name"], []).append(s["end"] - s["start"])
    self_t = tr.self_times()
    m: dict[str, float] = dict(extra)
    load = next(s for s in tr.spans if s["name"] == "embeddings.load")
    load_s = load["end"] - load["start"]
    m["embeddings.load_s"] = load_s
    m[f"embeddings.load_{load['format']}_s"] = load_s
    m["embeddings.load_mb_per_s"] = load["bytes"] / 1e6 / load_s
    m["embeddings.rss_delta_mb"] = load["rss_after_mb"] - load["rss_before_mb"]
    m["lexicon.load_s"] = sum(dur["lexicon.load"])
    for name in ("evaluation.corpus_load", "relatedness.sif_store", "disambig.docvec_load"):
        if name in dur:
            m[f"{name}_s"] = sum(dur[name])
    calls = dur.get("disambig.disambiguate", [])
    m["disambig.calls"] = len(calls)
    step2 = []
    for name in sorted(dur):
        if name.startswith("disambig.step2."):
            step2 += dur[name]
            ms = [d * 1e3 for d in dur[name]]
            m[f"{name.replace('step2.', 'step2_ms.')}.p50"] = percentile(ms, 50)
            m[f"{name.replace('step2.', 'step2_ms.')}.p90"] = percentile(ms, 90)
    for key, values in (("total", calls), ("active_context", dur.get("disambig.active_context", [])),
                        ("step1", dur.get("disambig.step1", [])), ("step2", step2),
                        ("step3", dur.get("disambig.step3", []))):
        ms = [d * 1e3 for d in values]
        m[f"disambig.{key}_ms.p50"] = percentile(ms, 50)
        m[f"disambig.{key}_ms.p90"] = percentile(ms, 90)
    m["disambig.active_context_kept_ratio"] = counts["kept"] / max(1, counts["candidates"])
    m["disambig.step1_pairs"] = counts["pairs"]
    m["disambig.step2_fallback_ratio"] = counts["fallback"] / max(1, counts["senses"])
    for strat, (fb, n) in sorted(counts["fallback_by"].items()):
        m[f"disambig.step2_fallback_ratio.{strat}"] = fb / max(1, n)
    m["disambig.step3_boosted_ratio"] = counts["boosted"] / max(1, counts["senses"])
    traced = sum(calls)
    m["disambig.self_frac"] = self_t.get("disambig.disambiguate", 0.0) / traced if traced else 0.0
    m["trace.overhead_frac"] = traced / ref_s - 1.0 if ref_s else 0.0
    return m


def do_trace(workload: str, manifest: dict, data: Path, out: Path) -> dict:
    t0 = time.perf_counter()
    import kwsense as kw
    import kwsense.cli as kwcli

    import_s = time.perf_counter() - t0
    tr = Tracer()
    cfg = kw.ContextConfig()
    # (request, keyword, context, strategy, traced result, untraced result)
    record: list[tuple] = []

    def traced(model, lexicon, keyword, context, cfg=cfg, params=kw.AlgoParams(),
               sif_store=None, docvec_store=None, request=None):
        """Stands in for disambiguate(): runs it untraced and step by step, in
        alternating order, and returns the step-by-step result."""
        rid = request or f"t{len(record)}"
        args = (model, lexicon, keyword, context, cfg, params, sif_store, docvec_store)

        def reference():
            with tr.span("disambig.reference", request=rid):
                return kw.disambiguate(*args)

        ref = reference() if len(record) % 2 else None
        res = traced_disambiguate(kw, tr, *args, rid)
        ref = ref or reference()
        record.append((rid, keyword, list(context), params.strategy.value, res, ref))
        return res

    extra: dict[str, float] = {"cli.import_s": import_s}
    if workload == "cold-start":
        real_bin, real_lex, real_dis = (kwcli.load_binary_model, kwcli.load_lexicon,
                                        kwcli.disambiguate)
        got: dict = {"sif": None, "docvec": None}
        path = data / manifest["model"]

        def load_model(p):
            with tr.span("embeddings.load", rss=True, bytes=path.stat().st_size,
                         format="binary"):
                got["model"] = real_bin(p)
            return got["model"]

        def load_lex(p):
            with tr.span("lexicon.load"):
                got["lexicon"] = real_lex(p)
            return got["lexicon"]

        kwcli.load_binary_model, kwcli.load_lexicon, kwcli.disambiguate = (
            load_model, load_lex, traced)
        words = (data / manifest["keywords"]).read_text(encoding="utf-8").split()
        argv = ["disambiguate", "--model", str(path), "--lexicon",
                str(data / manifest["lexicon"]), "--output", "json", *words]
        buf = io.StringIO()
        try:
            with tr.span("cli.main", request="cli"), contextlib.redirect_stdout(buf):
                code = kwcli.main(argv)
        finally:
            kwcli.load_binary_model, kwcli.load_lexicon, kwcli.disambiguate = (
                real_bin, real_lex, real_dis)
        main_span = next(s for s in tr.spans if s["name"] == "cli.main")
        other = sum(s["end"] - s["start"] for s in tr.spans
                    if s["name"] in ("embeddings.load", "lexicon.load", "disambig.reference"))
        extra["cli.score_s"] = main_span["end"] - main_span["start"] - other
        cli_results = json.loads(buf.getvalue())["results"] if code == 0 else None
    else:
        got = load_inputs(kw, manifest, data, tr.span)
        if workload == "wsd-corpus":
            real = kw.evaluation.disambiguate
            kw.evaluation.disambiguate = traced
            records = []
            try:
                for doc in documents(kw, got["corpus"]):
                    with tr.span("evaluation.eval_wsd", request=doc.name):
                        records += kw.eval_wsd(got["model"], got["lexicon"], doc, jobs=1).records
            finally:
                kw.evaluation.disambiguate = real
            report = kw.WsdReport.from_records(records)
            evals = {s["id"] for s in tr.spans if s["name"] == "evaluation.eval_wsd"}
            children = [s for s in tr.spans if s["parent"] in evals]
            eval_s = sum(tr.spans[i]["end"] - tr.spans[i]["start"] for i in evals) - sum(
                s["end"] - s["start"] for s in children if s["name"] == "disambig.reference")
            covered = sum(s["end"] - s["start"] for s in children
                          if s["name"] == "disambig.disambiguate")
            extra.update({"evaluation.eval_wsd_s": eval_s,
                          "evaluation.attempted_ratio": report.attempted / max(1, report.total),
                          "evaluation.overhead_frac": (eval_s - covered) / eval_s})
        else:
            for rid, keyword, context, strategy in calls_of(kw, workload, got):
                traced(got["model"], got["lexicon"], keyword, context, cfg,
                       _params(kw, strategy), got["sif"], got["docvec"], request=rid)
        cli_results = None

    # The untraced calls must rank exactly as the traced steps did; their total
    # time is the base of trace.overhead_frac.
    errors: list[str] = []
    ref_s = sum(s["end"] - s["start"] for s in tr.spans if s["name"] == "disambig.reference")
    counts = {"kept": 0, "candidates": 0, "pairs": 0, "fallback": 0, "senses": 0,
              "boosted": 0, "fallback_by": {}}
    results = []
    model, lexicon = got["model"], got["lexicon"]
    for _, keyword, context, strategy, res, ref in record:
        if ref.to_dict() != res.to_dict():
            errors.append(f"{keyword}: traced steps disagree with disambiguate()")
        results.append(res.to_dict())
        senses = lexicon.senses_of(keyword)
        words = list(res.active_context.words)
        counts["kept"] += len(words)
        counts["candidates"] += candidate_words(context, keyword, cfg.stopwords)
        counts["pairs"] += step1_pairs(lexicon, senses, words)
        fb = sum(step2_unavailable(model, s, words, keyword, strategy, got["sif"],
                                   got["docvec"]) for s in senses)
        prev = counts["fallback_by"].get(strategy, (0, 0))
        counts["fallback_by"][strategy] = (prev[0] + fb, prev[1] + len(senses))
        counts["fallback"] += fb
        counts["senses"] += len(senses)
        counts["boosted"] += sum(1 for s in res.scores if s.step3_delta > 0)
    if cli_results is not None:
        known = [r for r in cli_results if r["senses"] is not None]
        if known != results:
            errors.append("cli output differs from the traced disambiguate results")
    elif workload == "cold-start":
        errors.append("kwsense disambiguate failed")
    return {
        "spans": tr.spans,
        "self_s": tr.self_times(),
        "metrics": layer_metrics(tr, counts, ref_s, extra),
        "results": results,
        "calls": [r[:4] for r in record],
        "errors": errors,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description="one measured kwsense benchmark process")
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--data", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    manifest = json.loads((args.data / "manifest.json").read_text())
    fn = {"setup": do_setup, "run": do_run, "trace": do_trace}[args.mode]
    result = fn(args.workload, manifest, args.data, args.out)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
