"""Shared fixtures: a small hand-crafted embedding space plus a sense inventory.

The vocabulary is built around the ambiguous keyword "java" with three word
clusters (island-geography, coffee, programming). Within-cluster directions
are close, cross-cluster directions are near-orthogonal, and "java" itself
sits between the three clusters. "xenon" points away from everything so it
fails the active-context threshold.
"""
from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np
import pytest

from kwsense import ContextRef, EmbeddingModel, Lexicon, Sense, VectorTable

TOY_VECTORS: dict[str, tuple[float, ...]] = {
    "java": (0.45, 0.45, 0.45, 0.00, 0.00),
    "island": (1.00, 0.00, 0.00, 0.00, 0.00),
    "isle": (0.97, 0.00, 0.00, 0.03, 0.00),
    "indonesian": (0.90, 0.10, 0.00, 0.10, 0.00),
    "sea": (0.95, 0.00, 0.00, 0.05, 0.00),
    "bali": (0.90, 0.00, 0.10, 0.00, 0.00),
    "land": (0.80, 0.00, 0.00, 0.20, 0.00),
    "ground": (0.85, 0.00, 0.00, 0.15, 0.00),
    "place": (0.60, 0.10, 0.10, 0.20, 0.00),
    "coffee": (0.00, 1.00, 0.00, 0.00, 0.00),
    "drink": (0.10, 0.90, 0.00, 0.00, 0.10),
    "bean": (0.00, 0.92, 0.08, 0.00, 0.00),
    "cup": (0.05, 0.85, 0.00, 0.10, 0.00),
    "beverage": (0.00, 0.95, 0.00, 0.00, 0.05),
    "brew": (0.05, 0.88, 0.00, 0.00, 0.12),
    "language": (0.00, 0.00, 1.00, 0.00, 0.00),
    "programming": (0.00, 0.05, 0.95, 0.00, 0.00),
    "code": (0.00, 0.00, 0.90, 0.10, 0.00),
    "computer": (0.05, 0.00, 0.90, 0.00, 0.05),
    "software": (0.00, 0.05, 0.92, 0.00, 0.08),
    "xenon": (-0.60, -0.50, -0.40, 0.20, 0.00),
}

TOY_DIM = 5


def make_toy_model() -> EmbeddingModel:
    vocab = {tok: np.array(vec, dtype=np.float64) for tok, vec in TOY_VECTORS.items()}
    return EmbeddingModel(vocab=vocab, dim=TOY_DIM)


def vector_table(vectors: Mapping[str, Sequence[float]], dim: int) -> VectorTable:
    """A per-sense store of ``vectors``: their float64 rows in one table, in key order."""
    matrix = np.array(list(vectors.values()), dtype=np.float64).reshape(len(vectors), dim)
    return VectorTable(matrix, dict(zip(vectors, range(len(vectors)))))


def make_toy_senses() -> list[Sense]:
    return [
        Sense(
            id="java#island",
            lemmas=("java",),
            synonyms=("java",),
            core_context=(ContextRef("island"),),
            description_terms=("indonesian", "island", "sea", "bali"),
            frequency=3.0,
        ),
        Sense(
            id="java#coffee",
            lemmas=("java",),
            synonyms=("java", "coffee"),
            core_context=(ContextRef("beverage"),),
            description_terms=("coffee", "drink", "bean", "cup", "brew"),
            frequency=2.0,
        ),
        Sense(
            id="java#language",
            lemmas=("java",),
            synonyms=("java",),
            core_context=(ContextRef("programming language"),),
            description_terms=("programming", "language", "code", "computer", "software"),
            frequency=1.0,
        ),
        Sense(
            id="island#landmass",
            lemmas=("island",),
            synonyms=("island", "isle"),
            core_context=(ContextRef("land#ground", is_ref=True),),
            description_terms=("sea", "land", "water"),
            frequency=5.0,
        ),
        Sense(
            id="land#ground",
            lemmas=("land",),
            synonyms=("land", "ground"),
            core_context=(ContextRef("place"),),
            description_terms=("place", "ground", "earth"),
            frequency=2.0,
        ),
    ]


def make_toy_lexicon() -> Lexicon:
    return Lexicon.from_senses(make_toy_senses())


TOY_DOCVECS: dict[str, tuple[float, ...]] = {
    "java#island": (0.95, 0.00, 0.05, 0.00, 0.00),
    "java#coffee": (0.00, 0.96, 0.00, 0.04, 0.00),
    "java#language": (0.00, 0.04, 0.96, 0.00, 0.00),
    "island#landmass": (0.92, 0.00, 0.00, 0.08, 0.00),
    "land#ground": (0.88, 0.00, 0.00, 0.12, 0.00),
}

TOY_CORPUS_ITEMS = [
    {
        "item_id": "i1",
        "tokens": ["java", "is", "an", "indonesian", "island"],
        "targets": [{"position": 0, "keyword": "java", "gold": ["java#island"]}],
    },
    {
        "item_id": "i2",
        "tokens": ["the", "island", "of", "java"],
        "targets": [{"position": 3, "keyword": "java", "gold": ["java#island"]}],
    },
    {
        "item_id": "i3",
        "tokens": ["indonesian", "java", "sea"],
        "targets": [{"position": 1, "keyword": "java", "gold": ["java#island"]}],
    },
    {
        "item_id": "i4",
        "tokens": ["drink", "a", "cup", "of", "java", "coffee"],
        "targets": [{"position": 4, "keyword": "java", "gold": ["java#coffee"]}],
    },
    {
        "item_id": "i5",
        "tokens": ["java", "programming", "language", "code"],
        "targets": [{"position": 0, "keyword": "java", "gold": ["java#language"]}],
    },
    {
        "item_id": "i6",
        "tokens": ["python", "beats", "java", "coffee"],
        "targets": [{"position": 0, "keyword": "python", "gold": ["java#language"]}],
    },
]


@pytest.fixture(scope="session")
def toy_model() -> EmbeddingModel:
    return make_toy_model()


@pytest.fixture(scope="session")
def toy_lexicon() -> Lexicon:
    return make_toy_lexicon()


@pytest.fixture()
def toy_model_file(tmp_path):
    path = tmp_path / "toy_model.txt"
    lines = [f"{len(TOY_VECTORS)} {TOY_DIM}"]
    for tok, vec in TOY_VECTORS.items():
        lines.append(tok + " " + " ".join(repr(x) for x in vec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def toy_lexicon_file(tmp_path):
    path = tmp_path / "toy_lexicon.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for sense in make_toy_senses():
            fh.write(json.dumps(sense.to_json()) + "\n")
    return path


@pytest.fixture()
def toy_docvec_file(tmp_path):
    path = tmp_path / "toy_docvec.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for sense_id, vec in TOY_DOCVECS.items():
            fh.write(json.dumps({"id": sense_id, "vector": list(vec)}) + "\n")
    return path


@pytest.fixture()
def toy_corpus_file(tmp_path):
    path = tmp_path / "toy_corpus.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for item in TOY_CORPUS_ITEMS:
            fh.write(json.dumps(item) + "\n")
    return path
