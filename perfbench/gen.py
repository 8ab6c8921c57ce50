#!/usr/bin/env python3
"""Deterministic input generator for the kwsense benchmark.

Every workload's inputs are files written from a seed:

* ``wsd-corpus``: a 300-d text model, a lexicon and a JSONL corpus.
* ``query-mix``: a 300-d text model, a sense-heavy lexicon, a JSONL query
  file (one target per item), a document-vector JSONL store and a SIF
  token-frequency table.
* ``cold-start``: a ~100k x 300 word2vec binary model, a lexicon and the
  keyword list one ``kwsense disambiguate`` call receives.

Two random streams are used. The *structure* stream has a fixed seed and
decides every count that sets how much work a run does: senses per keyword,
occurrences per keyword, terms per sense, context lengths. The *content*
stream is seeded from ``--seed`` and decides vectors, words, topics and
order. Different seeds therefore give different inputs of the same shape,
so timings from different seeds are comparable.

Planted edge cases: multi-word synonyms and description terms, core contexts
mixing sense references and labels, empty core contexts, out-of-vocabulary
description terms and sentence tokens, senses whose description is entirely
out of vocabulary, keyword groups whose frequencies are all zero, a token
with an all-zero vector, capitalised sentence-initial tokens, unknown target
keywords, senses missing from the document-vector store and zero document
vectors.

Run: ``python3 perfbench/gen.py --workload wsd-corpus --seed 1 --out DIR``.
"""
from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 4
DIM = 300
STRUCTURE_SEED = 20_200_226
WORKLOADS = ("wsd-corpus", "query-mix", "cold-start")

# Common English function words. Sentences carry them; the model knows most.
STOPWORDS = (
    "the a an of to in and is was for on with as by at from that this it be "
    "are or which were has had have not but its their they he she we"
).split()

_SYLLABLES = [c + v for c in "bcdfgklmnprstvz" for v in "aeiou"] + [
    "ka", "ri", "tho", "sha", "lun", "mer", "dor", "vel", "quo", "xan",
]

ZERO_TOKEN = "nullvec"

# English function words that the syllable alphabet can spell; never generated.
RESERVED = frozenset(
    "became become before beside came come gone like made make mine more none "
    "same some take those".split()
)


@dataclass
class Sense:
    id: str
    topic: int
    synonyms: list = field(default_factory=list)
    core: list = field(default_factory=list)
    desc: list = field(default_factory=list)
    frequency: int = 0

    def to_json(self, lemma: str) -> dict:
        return {
            "id": self.id,
            "lemmas": [lemma],
            "synonyms": self.synonyms,
            "core_context": self.core,
            "description_terms": self.desc,
            "frequency": self.frequency,
        }


class Words:
    """Unique pseudo-words drawn from syllables."""

    def __init__(self, rng: np.random.Generator, taken: set[str]):
        self.rng = rng
        self.taken = taken

    def make(self, n: int) -> list[str]:
        out: list[str] = []
        while len(out) < n:
            want = n - len(out)
            lengths = self.rng.integers(2, 5, size=2 * want)
            picks = self.rng.integers(0, len(_SYLLABLES), size=(2 * want, 4))
            for k, row in zip(lengths, picks):
                w = "".join(_SYLLABLES[i] for i in row[:k])
                if w not in self.taken:
                    self.taken.add(w)
                    out.append(w)
                    if len(out) == n:
                        break
        return out


def _unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, DIM))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _sense_counts(structure: np.random.Generator, n: int, heavy: bool) -> list[int]:
    if heavy:
        return [int(x) for x in structure.integers(10, 101, size=n)]
    # Most keywords have few senses, with a long tail up to 40.
    choices = structure.choice(6, size=n, p=[0.32, 0.25, 0.15, 0.14, 0.09, 0.05])
    lo = [1, 2, 3, 4, 7, 13]
    hi = [1, 2, 3, 6, 12, 40]
    return [int(structure.integers(lo[c], hi[c] + 1)) for c in choices]


class Space:
    """Topic-structured vocabulary: topic words, keywords, stopwords, fillers."""

    def __init__(self, content: np.random.Generator, n_topics: int, per_topic: int):
        self.rng = content
        self.words = Words(content, set(STOPWORDS) | RESERVED | {ZERO_TOKEN})
        self.topics = _unit_rows(content, n_topics)
        self.topic_words = [self.words.make(per_topic) for _ in range(n_topics)]
        self.oov = self.words.make(400)  # never written to any model
        self.vectors: dict[str, np.ndarray] = {}
        noise = 1.0 / math.sqrt(DIM)
        for t, words in enumerate(self.topic_words):
            scale = content.uniform(0.5, 2.0, size=len(words))
            rows = self.topics[t] + noise * content.standard_normal((len(words), DIM))
            for w, s, row in zip(words, scale, rows):
                self.vectors[w] = s * row
        for w in STOPWORDS:
            self.vectors[w] = content.standard_normal(DIM) * 0.3
        self.vectors[ZERO_TOKEN] = np.zeros(DIM)

    def topic_term(self, t: int, phrase_p: float, oov_p: float) -> str:
        r = self.rng.random()
        if r < oov_p:
            return str(self.rng.choice(self.oov))
        words = self.topic_words[t]
        if r < oov_p + phrase_p:
            a, b = self.rng.choice(len(words), size=2, replace=False)
            return f"{words[a]} {words[b]}"
        return words[int(self.rng.integers(len(words)))]

    def topic_token(self, t: int) -> str:
        words = self.topic_words[t]
        return words[int(self.rng.integers(len(words)))]

    def add_keyword(self, word: str, senses: list[Sense], lead: float = 1.0) -> None:
        """Keyword vector: its senses' topics, the first one weighted by ``lead``."""
        weights = [lead] + [1.0] * (len(senses) - 1)
        mix = sum(w * self.topics[s.topic] for w, s in zip(weights, senses))
        mix = mix / math.sqrt(len(senses))
        self.vectors[word] = mix + 0.5 / math.sqrt(DIM) * self.rng.standard_normal(DIM)


def build_lexicon(
    space: Space,
    structure: np.random.Generator,
    counts: list[int],
    desc_range: tuple[int, int],
    scene: frozenset[int] = frozenset(),
) -> tuple[list[str], dict[str, list[Sense]]]:
    """Keywords (in structure order) with ``counts[i]`` senses each.

    The first sense of each keyword whose index is in ``scene`` has topic 0,
    weighted double in the keyword's vector, so those keywords relate to
    each other.
    """
    rng = space.rng
    keywords = space.words.make(len(counts))
    n_topics = len(space.topics)
    by_kw: dict[str, list[Sense]] = {}
    by_topic: dict[int, list[str]] = {}
    for j, (kw, n) in enumerate(zip(keywords, counts)):
        topics = rng.choice(n_topics, size=n, replace=n > n_topics)
        if j in scene:
            topics[0] = 0
        zero_group = structure.random() < 0.1
        senses = []
        for i, t in enumerate(topics):
            s = Sense(id=f"{kw}.n.{i + 1:02d}", topic=int(t))
            s.frequency = 0 if zero_group else min(int(rng.zipf(1.6)) - 1, 10_000)
            senses.append(s)
            by_topic.setdefault(int(t), []).append(s.id)
        by_kw[kw] = senses
        space.add_keyword(kw, senses, lead=2.0 if j in scene else 1.0)
    for kw in keywords:
        for s in by_kw[kw]:
            s.synonyms = [kw]
            for _ in range(int(structure.choice(3, p=[0.4, 0.4, 0.2]))):
                s.synonyms.append(space.topic_term(s.topic, phrase_p=0.25, oov_p=0.05))
            for _ in range(int(structure.choice(4, p=[0.1, 0.3, 0.4, 0.2]))):
                peers = [x for x in by_topic[s.topic] if x != s.id]
                if structure.random() < 0.5 and peers:
                    s.core.append({"ref": peers[int(rng.integers(len(peers)))]})
                else:
                    s.core.append({"label": space.topic_term(s.topic, 0.3, 0.05)})
            n_desc = int(structure.integers(desc_range[0], desc_range[1] + 1))
            if structure.random() < 0.03:
                s.desc = [str(rng.choice(space.oov)) for _ in range(n_desc)]
            else:
                s.desc = [space.topic_term(s.topic, 0.2, 0.08) for _ in range(n_desc)]
            if structure.random() < 0.05:
                s.desc.append(ZERO_TOKEN)
    return keywords, by_kw


def _context_tokens(
    space: Space, structure: np.random.Generator, topic: int, length: int
) -> list[str]:
    """Context for one target: gold-topic words, distractors, stopwords, OOV tokens."""
    rng = space.rng
    n_topics = len(space.topics)
    n_gold = max(2, length // 4)
    n_stop = max(2, length // 4)
    n_oov = 1 + int(structure.random() < 0.3)
    n_other = max(1, length - n_gold - n_stop - n_oov)
    toks = [space.topic_token(topic) for _ in range(n_gold)]
    toks += [space.topic_token(int(rng.integers(n_topics))) for _ in range(n_other)]
    toks += [STOPWORDS[int(rng.integers(len(STOPWORDS)))] for _ in range(n_stop)]
    toks += [str(rng.choice(space.oov)) for _ in range(n_oov)]
    if structure.random() < 0.05:
        toks.append(ZERO_TOKEN)
    rng.shuffle(toks)
    return toks


def _gold(rng: np.random.Generator, senses: list[Sense]) -> Sense:
    weights = np.array([s.frequency + 1.0 for s in senses])
    return senses[int(rng.choice(len(senses), p=weights / weights.sum()))]


def _write_lexicon(path: Path, keywords: list[str], by_kw: dict[str, list[Sense]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for kw in keywords:
            for s in by_kw[kw]:
                fh.write(json.dumps(s.to_json(kw)) + "\n")


def _write_text_model(path: Path, vectors: dict[str, np.ndarray], order: list[str]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(order)} {DIM}\n")
        for tok in order:
            fh.write(tok + " " + " ".join(f"{x:.6f}" for x in vectors[tok]) + "\n")


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _model_order(space: Space, rng: np.random.Generator, fillers: list[str]) -> list[str]:
    order = list(space.vectors) + fillers
    rng.shuffle(order)
    return order


def gen_wsd_corpus(out: Path, seed: int) -> dict:
    structure = np.random.default_rng(STRUCTURE_SEED)
    rng = np.random.default_rng([seed, 1])
    space = Space(rng, n_topics=60, per_topic=60)
    counts = _sense_counts(structure, 400, heavy=False)
    keywords, by_kw = build_lexicon(space, structure, counts, desc_range=(6, 20))
    # Zipf occurrences by keyword rank; the unknown keywords are model words
    # that the lexicon does not list.
    n_targets = 1000
    ranks = np.arange(1, len(keywords) + 1)
    weights = 1.0 / ranks
    per_kw = np.maximum(0, np.round(n_targets * weights / weights.sum())).astype(int)
    unknown = space.words.make(6)
    for w in unknown:
        space.vectors[w] = rng.standard_normal(DIM)
    plan = [(kw, int(c)) for kw, c in zip(keywords, per_kw)] + [(w, 2) for w in unknown]
    targets = [kw for kw, c in plan for _ in range(c)]
    # Order by the structure stream: position i holds a keyword of the same
    # rank (and sense count) for every seed.
    targets = [targets[int(i)] for i in structure.permutation(len(targets))]
    items = []
    i = 0
    while i < len(targets):
        n = int(structure.choice([1, 2, 3], p=[0.5, 0.3, 0.2]))
        group = targets[i : i + n]
        i += n
        tokens: list[str] = []
        tgts = []
        for kw in group:
            senses = by_kw.get(kw)
            if senses:
                gold = _gold(rng, senses)
                gold_ids = [gold.id]
                topic = gold.topic
            else:
                gold_ids = [f"{kw}.n.01"]
                topic = int(rng.integers(len(space.topics)))
            ctx = _context_tokens(space, structure, topic, int(structure.integers(8, 15)))
            cut = int(rng.integers(len(ctx) + 1))
            tokens += ctx[:cut]
            tgts.append({"position": len(tokens), "keyword": kw, "gold": gold_ids})
            tokens.append(kw)
            tokens += ctx[cut:]
        if structure.random() < 0.2:
            tokens[0] = tokens[0].capitalize()
            for t in tgts:
                if t["position"] == 0:
                    t["keyword"] = tokens[0]
        items.append({"item_id": f"d{len(items) // 20:03d}.s{len(items):04d}",
                      "tokens": tokens, "targets": tgts})
    fillers = space.words.make(300)
    for w in fillers:
        space.vectors[w] = rng.standard_normal(DIM)
    _write_text_model(out / "model.txt", space.vectors, _model_order(space, rng, []))
    _write_lexicon(out / "lexicon.jsonl", keywords, by_kw)
    _write_jsonl(out / "corpus.jsonl", items)
    return {"model": "model.txt", "model_format": "text", "lexicon": "lexicon.jsonl",
            "corpus": "corpus.jsonl"}


def gen_query_mix(out: Path, seed: int) -> dict:
    structure = np.random.default_rng(STRUCTURE_SEED + 1)
    rng = np.random.default_rng([seed, 2])
    space = Space(rng, n_topics=80, per_topic=80)
    counts = _sense_counts(structure, 40, heavy=True)
    keywords, by_kw = build_lexicon(space, structure, counts, desc_range=(20, 40))
    n_queries = 100
    order = [keywords[int(i)] for i in structure.permutation(n_queries) % len(keywords)]
    items = []
    for q, kw in enumerate(order):
        gold = _gold(rng, by_kw[kw])
        ctx = _context_tokens(space, structure, gold.topic, int(structure.integers(8, 17)))
        pos = int(rng.integers(len(ctx) + 1))
        tokens = ctx[:pos] + [kw] + ctx[pos:]
        items.append({"item_id": f"q{q:04d}", "tokens": tokens,
                      "targets": [{"position": pos, "keyword": kw, "gold": [gold.id]}]})
    docvecs = []
    noise = 1.0 / math.sqrt(DIM)
    for kw in keywords:
        for s in by_kw[kw]:
            r = structure.random()
            if r < 0.05:
                continue  # absent from the store
            if r < 0.07:
                vec = [0.0] * DIM
            else:
                v = space.topics[s.topic] + noise * rng.standard_normal(DIM)
                vec = [round(float(x), 6) for x in v]
            docvecs.append({"id": s.id, "vector": vec})
    fillers = space.words.make(300)
    for w in fillers:
        space.vectors[w] = rng.standard_normal(DIM)
    model_order = _model_order(space, rng, [])
    freq_rank = rng.permutation(len(model_order))
    with (out / "sif_freqs.txt").open("w", encoding="utf-8") as fh:
        for tok, r in zip(model_order, freq_rank):
            if r % 7 == 3:
                continue  # tokens without a count weigh 1
            fh.write(f"{tok} {int(1_000_000 // (r + 1)) + 1}\n")
    _write_text_model(out / "model.txt", space.vectors, model_order)
    _write_lexicon(out / "lexicon.jsonl", keywords, by_kw)
    _write_jsonl(out / "queries.jsonl", items)
    _write_jsonl(out / "docvec.jsonl", docvecs)
    return {"model": "model.txt", "model_format": "text", "lexicon": "lexicon.jsonl",
            "queries": "queries.jsonl", "docvec": "docvec.jsonl", "sif_freqs": "sif_freqs.txt"}


def gen_cold_start(out: Path, seed: int) -> dict:
    structure = np.random.default_rng(STRUCTURE_SEED + 2)
    rng = np.random.default_rng([seed, 3])
    space = Space(rng, n_topics=60, per_topic=50)
    counts = _sense_counts(structure, 300, heavy=False)
    # Eight keywords of 4-12 senses that share a topic, so that each one's
    # active context (the other seven) is full.
    mid = [i for i, n in enumerate(counts) if 4 <= n <= 12]
    scene = [int(i) for i in structure.choice(mid, size=8, replace=False)]
    keywords, by_kw = build_lexicon(space, structure, counts, desc_range=(6, 20),
                                    scene=frozenset(scene))
    picks = [keywords[i] for i in scene]
    unknown = space.words.make(1)[0]
    n_total = 100_000
    fillers = space.words.make(n_total - len(space.vectors))
    order = _model_order(space, rng, fillers)
    filler_set = set(fillers)
    with (out / "model.bin").open("wb") as fh:
        fh.write(f"{len(order)} {DIM}\n".encode())
        chunk = 5000
        for start in range(0, len(order), chunk):
            toks = order[start : start + chunk]
            rows = rng.standard_normal((len(toks), DIM)).astype("<f4")
            parts = []
            for tok, row in zip(toks, rows):
                vec = row if tok in filler_set else space.vectors[tok].astype("<f4")
                parts.append(tok.encode() + b" " + vec.tobytes() + b"\n")
            fh.write(b"".join(parts))
    _write_lexicon(out / "lexicon.jsonl", keywords, by_kw)
    (out / "keywords.txt").write_text(" ".join(picks + [unknown]) + "\n", encoding="utf-8")
    return {"model": "model.bin", "model_format": "binary", "lexicon": "lexicon.jsonl",
            "keywords": "keywords.txt"}


GENERATORS = {"wsd-corpus": gen_wsd_corpus, "query-mix": gen_query_mix,
              "cold-start": gen_cold_start}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs for ``seed`` into ``out``; return the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = GENERATORS[workload](out, seed)
    manifest.update(workload=workload, seed=seed, version=GENERATOR_VERSION, dim=DIM)
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
