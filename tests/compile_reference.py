"""Per-phrase reference builders for the compiled keyword indexes.

These resolve every phrase in Python, one token lookup at a time, the way
keywords were compiled before lexicons interned their phrases. The interned
builders in :mod:`kwsense.compiled` must give exactly the same tables and
indexes; ``test_compiled.py`` checks that. :func:`centroid` is the scalar
mean of a list of vectors that compiled centroids and phrase vectors are
held to, bit for bit.
"""
from __future__ import annotations

from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from kwsense import compiled
from kwsense.compiled import DescriptionIndex, PhraseTable, SenseIndex
from kwsense.embeddings import EmbeddingModel, Vector
from kwsense.lexicon import Lexicon, Sense


def centroid(vectors: Iterable[Vector]) -> Vector:
    """Componentwise float64 mean of a nonempty collection of same-dimension vectors."""
    vs = list(vectors)
    if not vs:
        raise ValueError("no vectors to aggregate")
    dim = vs[0].shape[0]
    for v in vs[1:]:
        if v.shape[0] != dim:
            raise ValueError(f"mixed dimensions: {dim} vs {v.shape[0]}")
    if len(vs) == 1:
        return vs[0].astype(np.float64)
    # np.mean's arithmetic, without its per-call overhead.
    return np.add.reduce(np.array(vs, dtype=np.float64), axis=0) / len(vs)


def phrase_table(
    model: EmbeddingModel, phrases: Iterable[str]
) -> tuple[PhraseTable, dict[str, int]]:
    """The table of the distinct ``phrases`` with a token in ``model``, and each one's row."""
    row_id = model.row_id
    tokens = {}
    for phrase in dict.fromkeys(phrases):
        found = [i for t in phrase.split() if (i := row_id(t)) is not None]
        if found:
            tokens[phrase] = found
    order = sorted(tokens, key=lambda p: len(tokens[p]), reverse=True)  # stable
    found = [tokens[p] for p in order]
    rows = [f[0] for f in found]
    later = []
    for pos in range(1, len(found[0]) if found else 0):
        reach = []
        for f in found:
            if len(f) <= pos:
                break
            reach.append(f[pos])
        later.append(len(reach))
        rows += reach
    table = PhraseTable(matrix=model.matrix, rows=np.array(rows, dtype=np.intp),
                        later=tuple(later), size=len(order))
    return table, {p: i for i, p in enumerate(order)}


def padded(segments: Sequence[Sequence[int]]) -> np.ndarray:
    """``(longest, len(segments))`` matrix whose column j is segments[j], padded with -1."""
    longest = max(map(len, segments), default=0)
    rows = [[*seg, *[-1] * (longest - len(seg))] for seg in segments]
    return np.array(rows, dtype=np.int32).reshape(len(segments), longest).T


def member_synonyms(lexicon: Lexicon, sense: Sense) -> list[tuple[str, ...]]:
    """The synonyms of each core-context member: a referenced sense's, or the bare label."""
    return [lexicon.resolve(ref.value).synonyms if ref.is_ref else (ref.value,)
            for ref in sense.core_context]


def build_sense_index(
    model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense]
) -> SenseIndex:
    context = [member_synonyms(lexicon, sense) for sense in senses]
    table, ids = phrase_table(model, chain(
        *(s.synonyms for s in senses), *(m for ms in context for m in ms)
    ))
    synonyms = [[ids.get(p, -1) for p in s.synonyms] for s in senses]
    members = [[[ids.get(p, -1) for p in m] for m in ms] for ms in context]
    pads = None
    if table.size > compiled.STEP1_LOOP_PHRASES:
        starts = [0, *accumulate(map(len, members))]
        pads = (
            padded(synonyms),
            padded([m for ms in members for m in ms]),
            padded([range(a, b) for a, b in zip(starts, starts[1:])]),
        )
    return SenseIndex(phrases=table, synonyms=synonyms, members=members, padded=pads)


def build_description_index(
    model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense]
) -> DescriptionIndex:
    table, ids = phrase_table(model, chain(*(s.description_terms for s in senses)))
    terms = [[ids.get(t, -1) for t in s.description_terms] for s in senses]
    return DescriptionIndex(phrases=table, terms=padded(terms))
