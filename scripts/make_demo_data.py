#!/usr/bin/env python3
"""Generate a small self-contained demo dataset.

Writes a text embedding model, a sense inventory, a disambiguation corpus,
a word-pair file, a document-vector store, and a token-frequency table into
an output directory, so every CLI subcommand can be exercised without any
external downloads. Deterministic for a given seed.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from kwsense.embeddings import EmbeddingModel, save_text_model
from kwsense.lexicon import ContextRef, Lexicon, Sense, save_lexicon

# Cluster -> member words. Each cluster occupies its own base direction, so
# within-cluster relatedness is high and across-cluster relatedness is low.
CLUSTERS = {
    "geo": ["river", "water", "shore", "island", "sea", "coast", "land", "indonesian"],
    "finance": ["money", "loan", "deposit", "account", "cash", "credit"],
    "computing": ["computer", "software", "code", "programming", "keyboard", "screen", "click"],
    "animal": ["animal", "rodent", "cat", "tail", "cheese"],
    "beverage": ["coffee", "drink", "cup", "bean", "brew"],
}

# Ambiguous keywords sit between the clusters of their senses.
MIXTURES = {
    "bank": {"geo": 0.5, "finance": 0.5},
    "java": {"geo": 0.4, "beverage": 0.3, "computing": 0.3},
    "mouse": {"animal": 0.5, "computing": 0.5},
}


def build_model(dim: int, seed: int) -> EmbeddingModel:
    rng = np.random.default_rng(seed)
    names = list(CLUSTERS)
    bases = {}
    for i, name in enumerate(names):
        base = np.zeros(dim)
        base[i % dim] = 1.0
        base[(i + len(names)) % dim] = 0.4
        bases[name] = base / np.linalg.norm(base)
    vocab = {}
    for name, words in CLUSTERS.items():
        for w in words:
            noise = rng.normal(scale=0.08, size=dim)
            vocab[w] = bases[name] + noise
    for kw, mix in MIXTURES.items():
        v = sum(weight * bases[c] for c, weight in mix.items())
        vocab[kw] = v + rng.normal(scale=0.05, size=dim)
    return EmbeddingModel(vocab=vocab, dim=dim)


def build_senses() -> list[Sense]:
    return [
        Sense(id="bank#river", lemmas=("bank",), synonyms=("bank", "shore"),
              core_context=(ContextRef("river"),),
              description_terms=("river", "water", "land", "shore", "coast"),
              frequency=3.0),
        Sense(id="bank#finance", lemmas=("bank",), synonyms=("bank",),
              core_context=(ContextRef("money"),),
              description_terms=("money", "loan", "deposit", "account", "cash", "credit"),
              frequency=7.0),
        Sense(id="java#island", lemmas=("java",), synonyms=("java",),
              core_context=(ContextRef("island"),),
              description_terms=("indonesian", "island", "sea", "coast"),
              frequency=3.0),
        Sense(id="java#coffee", lemmas=("java",), synonyms=("java", "coffee"),
              core_context=(ContextRef("drink"),),
              description_terms=("coffee", "drink", "bean", "cup", "brew"),
              frequency=2.0),
        Sense(id="java#language", lemmas=("java",), synonyms=("java",),
              core_context=(ContextRef("programming"),),
              description_terms=("programming", "code", "software", "computer"),
              frequency=1.0),
        Sense(id="mouse#animal", lemmas=("mouse",), synonyms=("mouse", "rodent"),
              core_context=(ContextRef("animal"),),
              description_terms=("animal", "rodent", "tail", "cheese", "cat"),
              frequency=6.0),
        Sense(id="mouse#device", lemmas=("mouse",), synonyms=("mouse",),
              core_context=(ContextRef("computer#machine", is_ref=True),),
              description_terms=("click", "computer", "screen"),
              frequency=4.0),
        Sense(id="computer#machine", lemmas=("computer",), synonyms=("computer",),
              description_terms=("software", "keyboard", "screen"),
              frequency=1.0),
    ]


CORPUS = [
    ("d1", ["the", "bank", "of", "the", "river"], 1, "bank", ["bank#river"]),
    ("d2", ["deposit", "money", "at", "the", "bank"], 4, "bank", ["bank#finance"]),
    ("d3", ["the", "mouse", "ate", "the", "cheese"], 1, "mouse", ["mouse#animal"]),
    ("d4", ["click", "the", "mouse", "on", "the", "screen"], 2, "mouse", ["mouse#device"]),
    ("d5", ["java", "is", "an", "indonesian", "island"], 0, "java", ["java#island"]),
    ("d6", ["drink", "a", "cup", "of", "java"], 4, "java", ["java#coffee"]),
    ("d7", ["java", "programming", "code"], 0, "java", ["java#language"]),
    ("d8", ["the", "island", "coast", "of", "java"], 4, "java", ["java#island"]),
    ("d9", ["loan", "from", "the", "bank"], 3, "bank", ["bank#finance"]),
    ("d10", ["cat", "chased", "the", "mouse"], 3, "mouse", ["mouse#animal"]),
]

PAIRS = [
    ("river", "water", 9.0),
    ("money", "cash", 9.5),
    ("computer", "keyboard", 8.5),
    ("coffee", "cup", 8.0),
    ("island", "sea", 7.5),
    ("cat", "rodent", 7.0),
    ("river", "money", 1.5),
    ("coffee", "keyboard", 1.0),
    ("island", "loan", 0.5),
    ("cheese", "screen", 1.2),
    ("sea", "coast", 8.2),
    ("deposit", "credit", 7.8),
]


def write_corpus(path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for item_id, tokens, pos, kw, gold in CORPUS:
            fh.write(json.dumps({
                "item_id": item_id,
                "tokens": tokens,
                "targets": [{"position": pos, "keyword": kw, "gold": gold}],
            }) + "\n")


def write_pairs(path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for w1, w2, score in PAIRS:
            fh.write(f"{w1}\t{w2}\t{score}\n")


def write_docvecs(path: Path, model: EmbeddingModel, senses: list[Sense]) -> None:
    """One document vector per sense: the centroid of its description terms."""
    with path.open("w", encoding="utf-8") as fh:
        for sense in senses:
            vecs = [model.vocab[t] for t in sense.description_terms if t in model.vocab]
            centroid = np.mean(vecs, axis=0)
            fh.write(json.dumps({"id": sense.id, "vector": [float(x) for x in centroid]}) + "\n")


def write_freqs(path: Path, senses: list[Sense]) -> None:
    counts: dict[str, int] = {}
    for _, tokens, _, _, _ in CORPUS:
        for tok in tokens:
            counts[tok.lower()] = counts.get(tok.lower(), 0) + 1
    for sense in senses:
        for term in sense.description_terms:
            for tok in term.lower().split():
                counts[tok] = counts.get(tok, 0) + 1
    with path.open("w", encoding="utf-8") as fh:
        for tok in sorted(counts):
            fh.write(f"{tok} {counts[tok]}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_data", help="output directory")
    parser.add_argument("--dim", type=int, default=12, help="embedding dimensionality")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    model = build_model(args.dim, args.seed)
    senses = build_senses()
    lexicon = Lexicon.from_senses(senses)  # fails fast on dangling refs

    save_text_model(model, out / "demo.vec")
    save_lexicon(lexicon, out / "senses.jsonl")
    write_corpus(out / "corpus.jsonl")
    write_pairs(out / "pairs.tsv")
    write_docvecs(out / "docvec.jsonl", model, senses)
    write_freqs(out / "freqs.tsv", senses)

    print(f"wrote {len(model.vocab)} vectors, {len(senses)} senses, "
          f"{len(CORPUS)} corpus items to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
