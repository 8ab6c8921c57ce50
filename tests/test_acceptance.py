"""Acceptance criteria, one test per criterion.

`pytest tests/test_acceptance.py -v` yields one PASSED/FAILED line per
criterion; run with -s to also see the measured quantities.
"""
from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import TOY_CORPUS_ITEMS
from kwsense import (
    AlgoParams,
    ContextConfig,
    DocVecStore,
    RelWeights,
    Strategy,
    angular_relatedness,
    build_sif_store,
    disambiguate,
    eval_wsd,
    load_docvec_store,
    load_wsd_corpus,
    spearman,
)
from kwsense.cli import main as cli_main
from kwsense.embeddings import EmbeddingModel
from kwsense.lexicon import ContextRef, Lexicon, Sense
from kwsense.relatedness import rel_sense_word_maybe, rel_senses_maybe, rel_words

REPO = Path(__file__).resolve().parent.parent
STOP = frozenset({"the", "of", "a", "is", "an", "at", "on"})


def _report(label: str, detail: str = "") -> None:
    print(f"\nPASS: {label}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# 1. Angular relatedness: endpoint values, symmetry, scale invariance.
# ---------------------------------------------------------------------------


def test_c1_angular_relatedness_properties():
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()

    for dim in (2, 3, 8, 50):
        v = rng.normal(size=dim)
        assert abs(angular_relatedness(v, v) - 1.0) <= 1e-9
        assert abs(angular_relatedness(v, -v) - 0.0) <= 1e-9
    e1, e2 = np.zeros(4), np.zeros(4)
    e1[0] = 1.0
    e2[1] = 1.0
    assert abs(angular_relatedness(e1, e2) - 0.5) <= 1e-9

    max_sym = 0.0
    max_scale = 0.0
    for _ in range(1000):
        dim = int(rng.integers(8, 65))
        v1 = rng.normal(size=dim)
        v2 = rng.normal(size=dim)
        r = angular_relatedness(v1, v2)
        assert 0.0 <= r <= 1.0
        max_sym = max(max_sym, abs(r - angular_relatedness(v2, v1)))
        a, b = rng.lognormal(sigma=2.0, size=2)
        max_scale = max(max_scale, abs(r - angular_relatedness(a * v1, b * v2)))
        # Power-of-two scaling commutes with every rounding step.
        assert angular_relatedness(4.0 * v1, 0.25 * v2) == r
    elapsed = time.perf_counter() - t0

    assert max_sym <= 1e-12
    assert max_scale <= 1e-12
    assert elapsed < 1.0
    _report("angular relatedness properties",
            f"1000 pairs, max |sym|={max_sym:.2e}, max |scale|={max_scale:.2e}, "
            f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Relatedness equations match the brute-force expansion.
# ---------------------------------------------------------------------------


def test_c2_equation_oracle_equivalence(toy_model, toy_lexicon):
    t0 = time.perf_counter()
    senses = list(toy_lexicon.senses.values())
    assert len(senses) == 5
    assert toy_model.dim == 5
    context_words = ["island", "coffee", "code"]

    max_diff = 0.0
    checked = 0
    for weights in (RelWeights(0.5, 0.5), RelWeights(0.3, 0.7), RelWeights(1.0, 0.0)):
        for a in senses:
            for b in senses:
                lib = rel_senses_maybe(toy_model, toy_lexicon, a, b, weights)
                ref = oracle.rel_tt(toy_model, toy_lexicon, a, b, weights.w0, weights.w1)
                assert (lib is None) == (ref is None)
                if lib is not None:
                    max_diff = max(max_diff, abs(lib - ref))
                checked += 1
            for w in context_words + ["qzx"]:
                lib = rel_sense_word_maybe(toy_model, toy_lexicon, a, w, weights)
                ref = oracle.rel_tw(toy_model, toy_lexicon, a, w, weights.w0, weights.w1)
                assert (lib is None) == (ref is None)
                if lib is not None:
                    max_diff = max(max_diff, abs(lib - ref))
                checked += 1

    for x in toy_model.vocab:
        for y in toy_model.vocab:
            lib = rel_words(toy_model, x, y)
            ref = oracle.rel_w(toy_model, x, y)
            assert (lib is None) == (ref is None)
            if lib is not None:
                max_diff = max(max_diff, abs(lib - ref))
            checked += 1
    elapsed = time.perf_counter() - t0

    assert max_diff <= 1e-10
    assert elapsed < 1.0
    _report("equation-oracle equivalence",
            f"{checked} comparisons, max diff={max_diff:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. The full algorithm matches a literal step-by-step reimplementation.
# ---------------------------------------------------------------------------


CONTEXTS = {
    "island": ["indonesian", "island", "sea"],
    "coffee": ["drink", "a", "cup", "of", "coffee", "bean"],
    "language": ["programming", "code", "computer"],
    "wide": ["island", "coffee", "code", "sea", "drink", "bali"],
    "dupes": ["island", "Island", "ISLAND", "sea", "sea"],
    "oov": ["qzx", "island", "wvu"],
    "stopwords_only": ["the", "of", "a", "is"],
    "empty": [],
    "unrelated": ["xenon"],
}


def test_c3_algorithm_oracle_equivalence(toy_model, toy_lexicon, toy_docvec_file):
    sif_store = build_sif_store(toy_model, toy_lexicon)
    docvec_store = load_docvec_store(toy_docvec_file)
    variants = [(s, 15) for s in Strategy] + [(Strategy.TOP_K, 2), (Strategy.TOP_K, 1)]
    cfg = ContextConfig(stopwords=STOP)

    t0 = time.perf_counter()
    max_diff = 0.0
    runs = 0
    for keyword in ("java", "island", "land"):
        for ctx_name, ctx in CONTEXTS.items():
            for strategy, k in variants:
                result = disambiguate(
                    toy_model, toy_lexicon, keyword, ctx, cfg,
                    AlgoParams(strategy=strategy, k=k),
                    sif_store=sif_store, docvec_store=docvec_store,
                )
                ref_ca, ref_ranked = oracle.run_pipeline(
                    toy_model, toy_lexicon, keyword, ctx,
                    stopwords=STOP, strategy=strategy.value, k=k,
                    sif_store=sif_store, docvec_store=docvec_store,
                )
                assert [w for w, _ in result.active_context.members] == \
                    [w for w, _ in ref_ca], (keyword, ctx_name, strategy)
                for (_, lib_s), (_, ref_s) in zip(result.active_context.members, ref_ca):
                    max_diff = max(max_diff, abs(lib_s - ref_s))
                assert [s.sense_id for s in result.scores] == \
                    [sid for sid, _ in ref_ranked], (keyword, ctx_name, strategy, k)
                for s, (_, ref_score) in zip(result.scores, ref_ranked):
                    max_diff = max(max_diff, abs(s.score - ref_score))
                runs += 1
    elapsed = time.perf_counter() - t0

    assert max_diff <= 1e-10
    assert elapsed < 5.0
    _report("algorithm-oracle equivalence",
            f"{runs} strategy/context runs, max diff={max_diff:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. Scores stay in [0,1] and never decrease across steps.
# ---------------------------------------------------------------------------


def test_c4_score_bounds_over_randomized_runs(toy_model, toy_lexicon, toy_docvec_file):
    sif_store = build_sif_store(toy_model, toy_lexicon)
    docvec_store = load_docvec_store(toy_docvec_file)
    pool = list(toy_model.vocab) + ["qzx", "wvu", "the", "of", "Island", "JAVA"]
    rng = random.Random(20260814)
    strategies = list(Strategy)

    for _ in range(10_000):
        keyword = rng.choice(["java", "island", "land"])
        ctx = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        cfg = ContextConfig(
            max_context=rng.choice([1, 2, 4, 6]),
            threshold=rng.choice([0.0, 0.3, 0.5, 0.8]),
            stopwords=STOP,
        )
        w0 = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
        freq_a = rng.choice([0.0, 0.3, 0.5, 1.0])
        params = AlgoParams(
            weights=RelWeights(w0, 1.0 - w0),
            proximity_factor=rng.choice([0.0, 0.5, 0.75, 1.0]),
            freq_a=freq_a,
            freq_b=1.0 - freq_a,
            strategy=rng.choice(strategies),
            k=rng.choice([1, 2, 3, 15, 50]),
        )
        result = disambiguate(
            toy_model, toy_lexicon, keyword, ctx, cfg, params,
            sif_store=sif_store, docvec_store=docvec_store,
        )
        ranked = [s.score for s in result.scores]
        assert ranked == sorted(ranked, reverse=True)
        for s in result.scores:
            assert 0.0 <= s.step1 <= 1.0
            assert s.step2_delta >= 0.0
            assert s.step3_delta >= 0.0
            assert s.score <= 1.0 + 1e-12
            assert abs(s.score - (s.step1 + s.step2_delta + s.step3_delta)) <= 1e-12
    _report("score bounds and monotonicity", "10000 randomized runs")


# ---------------------------------------------------------------------------
# 5. Spearman matches the closed form exactly on tie-free data.
# ---------------------------------------------------------------------------


def test_c5_spearman_exactness():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(3, 60)
        xs = list(range(n))
        ys = list(range(n))
        rng.shuffle(xs)
        rng.shuffle(ys)
        rx = {v: i + 1 for i, v in enumerate(sorted(xs))}
        ry = {v: i + 1 for i, v in enumerate(sorted(ys))}
        d2 = sum((rx[x] - ry[y]) ** 2 for x, y in zip(xs, ys))
        closed = 1.0 - 6.0 * d2 / (n * (n * n - 1))
        assert spearman(xs, ys) == closed

    assert spearman([1, 2, 3, 5, 4], [1, 2, 3, 4, 5]) == pytest.approx(0.9, abs=1e-15)
    # Average ranks: xs ranks (1, 2.5, 2.5, 4) against (1, 2, 3, 4).
    assert spearman([1.0, 2.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0]) == pytest.approx(
        3.0 / math.sqrt(10.0), abs=1e-12
    )
    _report("spearman exactness", "100 permutations bitwise equal + tied cases")


# ---------------------------------------------------------------------------
# 6. Toy corpus sanity: the island sense wins on island-flavoured contexts.
# ---------------------------------------------------------------------------


def test_c6_toy_wsd_sanity(toy_model, toy_lexicon, toy_corpus_file):
    corpus = load_wsd_corpus(toy_corpus_file)
    report = eval_wsd(toy_model, toy_lexicon, corpus, ContextConfig(stopwords=STOP))

    by_item = {r.item_id: r for r in report.records}
    islandish = 0
    for item in corpus.items:
        for target in item.targets:
            if target.keyword != "java":
                continue
            context = set(item.tokens) - {"java"}
            if {"island", "indonesian"} & context:
                assert by_item[item.item_id].predicted == "java#island", item.item_id
                islandish += 1

    assert report.total == 6
    assert report.attempted == 5
    assert report.correct == 5
    assert report.precision == pytest.approx(1.0)
    assert report.recall == pytest.approx(5 / 6)
    assert report.f1 == pytest.approx(10 / 11)
    assert report.precision == report.correct / report.attempted
    assert report.recall == report.correct / report.total
    _report("toy corpus sanity",
            f"{islandish} island-flavoured contexts all resolved to java#island; "
            f"P=1.0 R=5/6 F1=10/11")


# ---------------------------------------------------------------------------
# 7. The full-scale reproduction path is documented and runs end to end.
# ---------------------------------------------------------------------------


def test_c7_reproduction_harness(tmp_path):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for needle in ("eval-pairs", "eval-wsd", "87.3", "63.15", "64.39", "61.61",
                   "reference_benchmarks.py", "make_demo_data.py", "1.5"):
        assert needle in readme, f"README must document {needle!r}"

    demo = tmp_path / "demo"
    gen = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_demo_data.py"),
         "--out", str(demo)],
        capture_output=True, text=True, cwd=REPO,
    )
    assert gen.returncode == 0, gen.stderr

    # Same entry points the reference recipe uses, at miniature scale.
    for argv in (
        ["eval-pairs", "--model", str(demo / "demo.vec"), "--output", "json",
         str(demo / "pairs.tsv")],
        ["eval-wsd", "--model", str(demo / "demo.vec"),
         "--lexicon", str(demo / "senses.jsonl"), "--output", "json",
         str(demo / "corpus.jsonl")],
        ["eval-wsd", "--model", str(demo / "demo.vec"),
         "--lexicon", str(demo / "senses.jsonl"), "--strategy", "docvec",
         "--docvec", str(demo / "docvec.jsonl"), "--output", "json",
         str(demo / "corpus.jsonl")],
        ["eval-wsd", "--model", str(demo / "demo.vec"),
         "--lexicon", str(demo / "senses.jsonl"), "--strategy", "sif",
         "--sif-freqs", str(demo / "freqs.tsv"), "--output", "json",
         str(demo / "corpus.jsonl")],
    ):
        assert cli_main(argv) == 0

    bench = [sys.executable, str(REPO / "scripts" / "reference_benchmarks.py"),
             "--gm-pairs", str(demo / "pairs.tsv"),
             "--gm-model", str(demo / "demo.vec"),
             "--semcor", str(demo / "corpus.jsonl"),
             "--wsd-model", str(demo / "demo.vec"),
             "--lexicon", str(demo / "senses.jsonl")]
    wide = subprocess.run([*bench, "--tolerance", "100"],
                          capture_output=True, text=True, cwd=REPO)
    assert wide.returncode == 0, wide.stderr
    assert "87.30" in wide.stdout and "63.15" in wide.stdout
    # At the reference tolerance the demo numbers must NOT pass for 87.3:
    # the comparison is real, not decorative.
    strict = subprocess.run(bench, capture_output=True, text=True, cwd=REPO)
    assert strict.returncode == 1
    assert "MISS" in strict.stdout
    _report("reproduction harness",
            "recipe documented; demo-scale eval-pairs/eval-wsd/benchmark runs "
            "complete end to end")


# ---------------------------------------------------------------------------
# 8. One disambiguation call at realistic scale stays under 100 ms.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_c8_performance_100_senses(strategy):
    rng = np.random.default_rng(20260814)
    dim = 50
    desc_pool = [f"t{i:03d}" for i in range(600)]
    labels = [f"l{i}" for i in range(10)]
    context_words = [f"c{i}" for i in range(8)]

    vocab = {}
    senses = []
    for i in range(100):
        syn_a, syn_b = f"s{i}a", f"s{i}b"
        vocab[syn_a] = rng.normal(size=dim)
        vocab[syn_b] = rng.normal(size=dim)
        terms = rng.choice(desc_pool, size=30, replace=False)
        senses.append(Sense(
            id=f"kw#{i}", lemmas=("kw",), synonyms=("kw", syn_a, syn_b),
            core_context=(ContextRef(labels[i % 10]),),
            description_terms=tuple(terms),
            frequency=float(i % 7),
        ))
    for tok in [*desc_pool, *labels, *context_words, "kw"]:
        vocab[tok] = rng.normal(size=dim)

    model = EmbeddingModel(vocab=vocab, dim=dim)
    lexicon = Lexicon.from_senses(senses)
    cfg = ContextConfig(threshold=0.0, stopwords=frozenset())
    params = AlgoParams(strategy=strategy)
    stores = {
        "sif_store": build_sif_store(model, lexicon),
        "docvec_store": DocVecStore(
            vectors={s.id: rng.normal(size=dim) for s in senses}, dim=dim
        ),
    }

    disambiguate(model, lexicon, "kw", context_words, cfg, params, **stores)  # warm-up
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        result = disambiguate(model, lexicon, "kw", context_words, cfg, params, **stores)
        timings.append(time.perf_counter() - t0)
    best = min(timings)

    assert len(result.scores) == 100
    assert best < 0.1
    _report("performance",
            f"100 senses x 30 terms, dim 50, {strategy.value}: {best * 1000:.1f} ms")


# ---------------------------------------------------------------------------
# Cross-check: the toy corpus items drive the same fixture the oracles use.
# ---------------------------------------------------------------------------


def test_fixture_and_corpus_agree():
    keywords = {t["keyword"] for item in TOY_CORPUS_ITEMS for t in item["targets"]}
    assert keywords == {"java", "python"}
