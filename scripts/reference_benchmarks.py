#!/usr/bin/env python3
"""Full-scale evaluation runs against published reference numbers.

Each run is optional and activates when its inputs are supplied. Measured
metrics are compared to the reference targets below within an absolute
tolerance (in points, i.e. metric * 100); the exit status is nonzero when
any activated run misses its target.

Reference targets (top-k nearest words, k=15, defaults elsewhere):
  - word-pair correlation, GM dataset, Google News word2vec: rho 87.3
  - SemCor 2.0 precision (plant/glass/earth, 10 sentences each),
    NASARI-embed + UMBC word2vec: 63.15
  - SemEval 2013 F-score, same vectors: 64.39
  - SemEval 2015 F-score, same vectors: 61.61

The corpora and models are not bundled: the word-pair file is a TSV
(word1<TAB>word2<TAB>score), WSD corpora are JSONL items with target
positions and gold sense ids, and the lexicon is a JSONL sense inventory.
Expect hours of runtime with multi-gigabyte models.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from kwsense import (
    AlgoParams,
    ContextConfig,
    Strategy,
    eval_wordpairs,
    eval_wsd,
    load_binary_model,
    load_docvec_store,
    load_lexicon,
    load_text_model,
    load_wordpair_dataset,
    load_wsd_corpus,
)
from kwsense.stopwords import default_stopwords

TARGETS = {
    "gm-pairs": 87.3,
    "semcor": 63.15,
    "semeval2013": 64.39,
    "semeval2015": 61.61,
}


def load_model(path: str, fmt: str | None):
    if fmt == "binary" or (fmt is None and Path(path).suffix == ".bin"):
        return load_binary_model(path)
    return load_text_model(path)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--gm-pairs", help="GM word-pair TSV")
    parser.add_argument("--gm-model", help="embedding model for the word-pair run")
    parser.add_argument("--semcor", help="SemCor 2.0 JSONL corpus (plant/glass/earth)")
    parser.add_argument("--semeval2013", help="SemEval 2013 JSONL corpus")
    parser.add_argument("--semeval2015", help="SemEval 2015 JSONL corpus")
    parser.add_argument("--wsd-model", help="embedding model for the WSD runs")
    parser.add_argument("--lexicon", help="sense inventory JSONL for the WSD runs")
    parser.add_argument("--docvec", help="optional per-sense document vectors (JSONL)")
    parser.add_argument("--model-format", choices=["text", "binary"], default=None)
    parser.add_argument("--strategy", default=Strategy.TOP_K.value,
                        choices=[s.value for s in Strategy])
    parser.add_argument("--k", type=int, default=15)
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="allowed absolute deviation in points (default: 1.5)")
    args = parser.parse_args()

    results: list[tuple[str, float]] = []

    if args.gm_pairs:
        if not args.gm_model:
            parser.error("--gm-pairs requires --gm-model")
        model = load_model(args.gm_model, args.model_format)
        dataset = load_wordpair_dataset(args.gm_pairs)
        t0 = time.perf_counter()
        res = eval_wordpairs(model, dataset)
        print(f"gm-pairs: rho={res.rho:.4f} covered={res.covered} "
              f"skipped={res.skipped} [{time.perf_counter() - t0:.1f}s]")
        results.append(("gm-pairs", 100.0 * res.rho))

    wsd_runs = [(name, getattr(args, name.replace("-", ""))) for name in
                ("semcor", "semeval2013", "semeval2015")]
    if any(path for _, path in wsd_runs):
        if not args.wsd_model or not args.lexicon:
            parser.error("WSD runs require --wsd-model and --lexicon")
        model = load_model(args.wsd_model, args.model_format)
        lexicon = load_lexicon(args.lexicon)
        docvec = load_docvec_store(args.docvec) if args.docvec else None
        params = AlgoParams(strategy=Strategy(args.strategy), k=args.k)
        cfg = ContextConfig(stopwords=default_stopwords())
        for name, path in wsd_runs:
            if not path:
                continue
            corpus = load_wsd_corpus(path)
            t0 = time.perf_counter()
            report = eval_wsd(model, lexicon, corpus, cfg, params, docvec_store=docvec)
            print(f"{name}: P={report.precision:.4f} R={report.recall:.4f} "
                  f"F1={report.f1:.4f} attempted={report.attempted}/{report.total} "
                  f"[{time.perf_counter() - t0:.1f}s]")
            # SemCor is scored on precision in the reference; the rest on F1.
            metric = report.precision if name == "semcor" else report.f1
            results.append((name, 100.0 * metric))

    if not results:
        parser.error("no runs configured; supply at least one dataset")

    print()
    failed = 0
    for name, measured in results:
        target = TARGETS[name]
        ok = abs(measured - target) <= args.tolerance
        status = "PASS" if ok else "MISS"
        print(f"{name:<14} measured {measured:6.2f}  target {target:6.2f} "
              f"+/-{args.tolerance:.1f}  {status}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
