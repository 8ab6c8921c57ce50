"""Per-phrase reference builders for the compiled keyword indexes.

These resolve every phrase in Python, one token lookup at a time, the way
keywords were compiled before lexicons interned their phrases. The interned
builders in :mod:`kwsense.compiled` must give exactly the same tables and
indexes; ``test_compiled.py`` checks that. :func:`centroid` is the scalar
mean of a list of vectors that compiled centroids and phrase vectors are
held to, bit for bit.

:func:`sense_relatedness`, :func:`base_scores`, :func:`rel_sense_word` and
:func:`rel_senses` are the two-level measure as a Python loop over nested
lists of phrase rows: every missing pair is skipped as it comes, with
:func:`mean_skip_missing` and :func:`combine_levels`. The compiled step 1,
which settles missing phrases when a keyword compiles, must give exactly
their values.
"""
from __future__ import annotations

from itertools import accumulate, chain
from typing import Iterable, Optional, Sequence

import numpy as np

from kwsense.compiled import DescriptionIndex, PhraseTable, SenseIndex
from kwsense.embeddings import EmbeddingModel, Vector
from kwsense.lexicon import Lexicon, Sense
from kwsense.relatedness import DEFAULT_WEIGHTS, RelWeights, relatedness_rows


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


def sense_lists(
    model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense]
) -> tuple[PhraseTable, list[list[int]], list[list[list[int]]]]:
    """The table of the senses' step-1 phrases, and its rows per sense: synonyms, members' synonyms.

    -1 marks a phrase with no token in the model; a phrase whose centroid
    is zero keeps its row.
    """
    context = [member_synonyms(lexicon, sense) for sense in senses]
    table, ids = phrase_table(model, chain(
        *(s.synonyms for s in senses), *(m for ms in context for m in ms)
    ))
    synonyms = [[ids.get(p, -1) for p in s.synonyms] for s in senses]
    members = [[[ids.get(p, -1) for p in m] for m in ms] for ms in context]
    return table, synonyms, members


def build_sense_index(
    model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense]
) -> SenseIndex:
    table, synonyms, members = sense_lists(model, lexicon, senses)
    vectors = table.centroids()
    measurable = {i for i in range(table.size) if float(np.dot(vectors[i], vectors[i])) != 0.0}
    groups = [[i if i in measurable else -1 for i in group]
              for group in (*synonyms, *(m for mem in members for m in mem), [])]
    starts = list(accumulate(map(len, members), initial=len(senses)))
    member_groups = [range(a, b) for a, b in zip(starts, starts[1:])]
    found = [sum(i >= 0 for i in group) for group in groups]
    member_found = [sum(found[i] > 0 for i in m) for m in member_groups]
    # One padded matrix, as in the compiled index: groups, then member groups.
    both = padded([*groups, *member_groups])
    return SenseIndex(
        phrases=table,
        groups=both[:, : len(groups)],
        members=both[:, len(groups) :],
        counts=tuple(np.array([max(1, c) for c in counts], dtype=np.float64)[:, None]
                     for counts in (found, member_found)),
        levels=np.array([(found[j] > 0) + 2 * (member_found[j] > 0) for j in range(len(senses))],
                        dtype=np.intp),
    )


def build_description_index(
    model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense]
) -> DescriptionIndex:
    table, ids = phrase_table(model, chain(*(s.description_terms for s in senses)))
    terms = [[ids.get(t, -1) for t in s.description_terms] for s in senses]
    return DescriptionIndex(phrases=table, terms=padded(terms))


def mean_skip_missing(values: Iterable[Optional[float]]) -> Optional[float]:
    """Mean of the measured values in input order; None and NaN mark missing ones.

    Returns None when nothing was measured.
    """
    total = 0.0
    n = 0
    for v in values:
        if v is not None and v == v:
            total += v
            n += 1
    return total / n if n else None


def combine_levels(r0: Optional[float], r1: Optional[float], weights: RelWeights) -> Optional[float]:
    """``w0 * r0 + w1 * r1``; a missing level drops out and the other carries full weight.

    None when both levels are missing.
    """
    if r0 is None and r1 is None:
        return None
    if r1 is None:
        return r0
    if r0 is None:
        return r1
    return weights.w0 * r0 + weights.w1 * r1


def sense_relatedness(
    model: EmbeddingModel,
    lexicon: Lexicon,
    senses: Sequence[Sense],
    words: np.ndarray,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> list[list[Optional[float]]]:
    """Two-level relatedness of every sense to every row of ``words``; None where unmeasurable."""
    table, synonyms, members = sense_lists(model, lexicon, senses)
    by_word = relatedness_rows(table.centroids(), words).T.tolist()  # row -1 is NaN
    return [
        [
            combine_levels(
                mean_skip_missing(r[i] for i in syn),
                mean_skip_missing(mean_skip_missing(r[i] for i in m) for m in mem),
                weights,
            )
            for r in by_word
        ]
        for syn, mem in zip(synonyms, members)
    ]


def base_scores(
    model: EmbeddingModel,
    lexicon: Lexicon,
    senses: Sequence[Sense],
    words: np.ndarray,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> list[float]:
    """Step-1 score per sense: its mean relatedness over ``words``, 0 if none was measured."""
    return [0.0 if (m := mean_skip_missing(v)) is None else m
            for v in sense_relatedness(model, lexicon, senses, words, weights)]


def rel_sense_word(
    model: EmbeddingModel, lexicon: Lexicon, t: Sense, w: str,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> Optional[float]:
    """Two-level relatedness between a sense and a word; None when unmeasurable."""
    return sense_relatedness(model, lexicon, [t], model.phrase_matrix([w]), weights)[0][0]


def rel_senses(
    model: EmbeddingModel, lexicon: Lexicon, a: Sense, b: Sense,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> Optional[float]:
    """Two-level relatedness between two senses, pairs ``a`` outer; None when unmeasurable."""
    ta, syn_a, mem_a = sense_lists(model, lexicon, [a])
    tb, syn_b, mem_b = sense_lists(model, lexicon, [b])
    # The zero row after b's centroids makes column -1 (no token) NaN.
    rel = relatedness_rows(ta.centroids(), tb.centroids()).tolist()

    def level0(rows: list[int], cols: list[int]) -> Optional[float]:
        return mean_skip_missing(rel[i][j] for i in rows for j in cols)

    return combine_levels(
        level0(syn_a[0], syn_b[0]),
        mean_skip_missing(level0(x, y) for x in mem_a[0] for y in mem_b[0]),
        weights,
    )
