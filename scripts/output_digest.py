#!/usr/bin/env python3
"""One sha256 over everything kwsense outputs for a benchmark workload and seed.

Usage (from the root of a kwsense checkout)::

    python3 scripts/output_digest.py --workload wsd-corpus --seed 5

The inputs are written by ``perfbench/gen.py`` into a temporary directory
and loaded as the benchmark loads them. The digest covers:

* ``wsd-corpus``: the ``eval_wsd`` report, with its records, of every
  document and of the whole corpus, then the benchmark's latency sample as
  single ``disambiguate`` calls under ``topk``, ``average`` and ``overlap``;
* ``query-mix``: every query under all five strategies;
* ``cold-start``: every keyword against the others, as ``kwsense
  disambiguate`` scores them, under ``topk``, ``average`` and ``overlap``;
* ``query-mix`` and ``cold-start`` also: every keyword with an empty and
  with an all-stopword context, under the same strategies (the generated
  inputs hold no context whose active context is empty).

Each output is written as sorted-key JSON, whose floats round-trip exactly,
so two checkouts print the same digest only if their outputs are equal bit
for bit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import job  # noqa: E402

import kwsense as kw  # noqa: E402

STORE_FREE = ("topk", "average", "overlap")
ALL = tuple(strategy.value for strategy in kw.Strategy)


def outputs(workload: str, got: dict):
    """The workload's outputs, as JSON-ready values, in a fixed order."""
    model, lexicon = got["model"], got["lexicon"]
    cfg = kw.ContextConfig()

    def ranked(keyword, context, strategy):
        params = kw.AlgoParams(strategy=kw.Strategy(strategy))
        return kw.disambiguate(model, lexicon, keyword, context, cfg, params,
                               got["sif"], got["docvec"]).to_dict()

    def empty_contexts(keywords, strategies):
        contexts = {"empty": [], "stopwords": sorted(cfg.stopwords)[:5]}
        for strategy in strategies:
            for keyword in dict.fromkeys(keywords):
                if lexicon.senses_of(keyword):
                    for name, context in contexts.items():
                        yield keyword, strategy, name, ranked(keyword, context, strategy)

    if workload == "wsd-corpus":
        for doc in [*job.documents(kw, got["corpus"]), got["corpus"]]:
            yield doc.name, kw.eval_wsd(model, lexicon, doc).to_dict(include_records=True)
        for strategy in STORE_FREE:
            for rid, keyword, context, _ in job.latency_sample(kw, lexicon, got["corpus"]):
                yield rid, strategy, ranked(keyword, context, strategy)
    elif workload == "query-mix":
        targets = job.targets_of(got["corpus"])
        for strategy in ALL:
            for rid, keyword, context, _ in targets:
                if lexicon.senses_of(keyword):
                    yield rid, strategy, ranked(keyword, context, strategy)
        yield from empty_contexts([keyword for _, keyword, _, _ in targets], ALL)
    else:
        words = got["keywords"]
        for strategy in STORE_FREE:
            for i, keyword in enumerate(words):
                if lexicon.senses_of(keyword):
                    yield keyword, strategy, ranked(keyword, words[:i] + words[i + 1 :], strategy)
        yield from empty_contexts(words, STORE_FREE)


def digest(workload: str, seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        manifest = gen.generate(workload, seed, data)
        got = job.load_inputs(kw, manifest, data)
        h = hashlib.sha256()
        for out in outputs(workload, got):
            h.update(json.dumps(out, sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(gen.GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(digest(args.workload, args.seed))


if __name__ == "__main__":
    main()
