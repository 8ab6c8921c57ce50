"""Two-level sense relatedness, and keywords compiled once per (model, lexicon) pair.

This module is the one definition of sense relatedness. Level 0 is the mean
word relatedness over synonym pairs, level 1 the mean of level 0 over pairs
of core-context members (a sense reference stands for the referenced
sense's synonyms, a bare label for itself alone). Means skip missing pairs
with the denominator reduced, and a level without a measured pair drops out
while the other carries full weight (:func:`combine_levels`). Step 1 reads
it through :meth:`SenseIndex.relatedness` and :meth:`SenseIndex.base_scores`;
:func:`rel_sense_word` is that method's 1 x 1 case and :func:`rel_senses`
measures one index's phrases against another's.

Step 1 and the ``average`` and ``topk`` strategies relate every synonym,
core-context member synonym and description term of every candidate sense
to a few context vectors. Tokenizing those phrases, looking their tokens up
and averaging them costs far more than measuring them, so the first call for
a keyword compiles its senses into

* a :class:`PhraseTable`: per distinct phrase with a token in the model,
  the row ids of its found tokens in token order, and the model's own
  matrix. A compiled keyword holds int row ids, never row objects or float64
  copies;
* index lists or matrices: per sense (and per core-context member) the
  table rows of its phrases, duplicates included, with -1 marking phrases
  that have no token in the model and the padding of a matrix column.

Per call the rows are gathered from the matrix with ``np.take``
``_BLOCK_ROWS`` phrases at a time and widened exactly to float64, the phrase
centroids are formed by adding tokens position after position
(``centroid``'s order), and each block is measured against the context by
one :func:`relatedness_rows` call. Means skip missing values and add the
others one after another, in input order, so every path gives the same
scores bit for bit.

Step 1 and step 2 compile separately, so a keyword scored only by ``overlap``,
``sif`` or ``docvec`` never compiles its descriptions. Compiled parts are
cached per (model, lexicon) pair: on the lexicon, per model, until the model
is garbage-collected. Both are treated as immutable after loading. The key
is the tuple of sense ids, and an entry is used only for the very sense
objects it was compiled from. :func:`rel_senses` and :func:`rel_sense_word`
build their indexes without the cache.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from . import relatedness as _relatedness
from .embeddings import EmbeddingModel, Vector
from .errors import UnmeasurableError
from .lexicon import Lexicon, Sense
from .relatedness import _TIE_WINDOW, DEFAULT_WEIGHTS, RelWeights, rank_top, relatedness_rows

# Step 1 aggregates with a Python loop up to this many compiled phrases, and
# with arrays above it. On the benchmark's keywords (2-vCPU guest) the arrays
# cost 0.12 ms at 8 phrases and the loop 0.02 ms; they break even at 24-31
# phrases in a process that scored many keywords, and at about 60 in a fresh
# process, where the array path's first calls are slow; at 100 phrases the
# arrays take 0.23 ms and the loop 0.8 ms.
STEP1_LOOP_PHRASES = 48


@dataclass(frozen=True, slots=True)
class PhraseTable:
    """Distinct phrases as the row ids of their found tokens in a model's matrix.

    Phrases are ordered by descending token count, so the phrases that reach
    a token position are a prefix of the table. ``rows`` holds the row id of
    the first token of each of the ``size`` phrases, then those of the tokens
    at each later position; ``later`` gives the number of phrases that reach
    each later position. ``matrix`` is the model's own matrix, not a copy.
    """

    matrix: np.ndarray
    rows: np.ndarray
    later: tuple[int, ...]
    size: int

    def centroids(self, ids: Sequence[int]) -> np.ndarray:
        """Float64 centroids of the phrases ``ids`` (ascending), then a zero row (index -1).

        Tokens are gathered with ``np.take``, widened exactly, and added
        position after position, the order of :func:`centroid`.
        """
        matrix = self.matrix
        out = np.zeros((len(ids) + 1, matrix.shape[1]))
        if not len(ids):
            return out
        ids = np.arange(ids.start, ids.stop) if isinstance(ids, range) else np.asarray(ids)
        if matrix.dtype == out.dtype:
            # Straight into out: the default mode="raise" would buffer a copy.
            matrix.take(self.rows[ids], axis=0, out=out[:-1], mode="clip")
        else:
            out[:-1] = matrix.take(self.rows[ids], axis=0)  # float32 widens exactly
        if self.later:
            # The ids that reach a token position are a prefix of ``ids``.
            counts = np.ones((int(np.searchsorted(ids, self.later[0])), 1))
            offset = self.size
            for reach in self.later:
                n = int(np.searchsorted(ids, reach))
                if not n:
                    break
                out[:n] += matrix.take(self.rows[offset + ids[:n]], axis=0)
                counts[:n] += 1.0
                offset += reach
            out[: len(counts)] /= counts
        return out

    def relatedness(self, words: np.ndarray) -> np.ndarray:
        """Relatedness of every phrase to every row of ``words``, then a NaN row (index -1).

        Centroids are formed and measured ``_BLOCK_ROWS`` phrases at a time.
        """
        out = np.full((self.size + 1, len(words)), np.nan)
        for start in range(0, self.size, _relatedness._BLOCK_ROWS):
            ids = range(start, min(start + _relatedness._BLOCK_ROWS, self.size))
            out[ids.start : ids.stop] = relatedness_rows(self.centroids(ids)[:-1], words)
        return out


def _phrase_table(
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


def _padded(segments: Sequence[Sequence[int]]) -> np.ndarray:
    """``(longest, len(segments))`` matrix whose column j is segments[j], padded with -1."""
    longest = max(map(len, segments), default=0)
    rows = [[*seg, *[-1] * (longest - len(seg))] for seg in segments]
    return np.array(rows, dtype=np.int32).reshape(len(segments), longest).T


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
    # A level whose inputs are entirely missing drops out and the other level
    # carries full weight; None means both levels are missing.
    if r0 is None and r1 is None:
        return None
    if r1 is None:
        return r0
    if r0 is None:
        return r1
    return weights.w0 * r0 + weights.w1 * r1


def _member_synonyms(lexicon: Optional[Lexicon], sense: Sense) -> list[tuple[str, ...]]:
    """The synonyms of each core-context member: a referenced sense's, or the bare label.

    Without a lexicon only bare labels can be resolved; a reference raises.
    """
    out = []
    for ref in sense.core_context:
        if not ref.is_ref:
            out.append((ref.value,))
        elif lexicon is None:
            raise ValueError(
                f"sense {sense.id!r}: core-context reference {ref.value!r} needs a lexicon"
            )
        else:
            out.append(lexicon.resolve(ref.value).synonyms)
    return out


def _means(values: np.ndarray) -> np.ndarray:
    """Mean over axis 0 of the non-NaN values, added in index order; NaN where there are none.

    Values and counts are reduced together along a trailing axis of length 2,
    so numpy adds along axis 0 one row after another (a reduction over a
    contiguous axis would sum pairwise) and the means equal
    :func:`mean_skip_missing`'s.
    """
    measured = values == values
    pairs = np.stack((np.where(measured, values, 0.0), measured), axis=-1)
    sums = np.add.reduce(pairs, axis=0)
    with np.errstate(invalid="ignore"):
        return sums[..., 0] / sums[..., 1]


@dataclass(frozen=True, slots=True)
class SenseIndex:
    """Step-1 phrases of a keyword's senses: synonyms and core-context members' synonyms.

    ``synonyms`` lists per sense the table rows of its synonyms, ``members``
    per sense those of each core-context member's synonyms (-1: no token in
    the model). Above ``STEP1_LOOP_PHRASES`` phrases ``padded`` holds the same
    as matrices for the array path: per-sense synonyms, per-member synonyms
    and per-sense member numbers, one column each.
    """

    phrases: PhraseTable
    synonyms: list[list[int]]
    members: list[list[list[int]]]
    padded: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]

    def relatedness(
        self, words: np.ndarray, weights: RelWeights
    ) -> np.ndarray | list[list[Optional[float]]]:
        """Two-level relatedness of every sense (row) to every row of ``words`` (column).

        NaN (the array path) or None (the loop path) where neither level is
        measurable: an array above ``STEP1_LOOP_PHRASES`` phrases, else lists.
        """
        rel = self.phrases.relatedness(words)
        if self.padded is None:
            by_word = rel.T.tolist()  # the last entry, row -1, is NaN
            return [
                [
                    combine_levels(
                        mean_skip_missing(r[i] for i in syn),
                        mean_skip_missing(mean_skip_missing(r[i] for i in m) for m in mem),
                        weights,
                    )
                    for r in by_word
                ]
                for syn, mem in zip(self.synonyms, self.members)
            ]
        synonyms, member_synonyms, members = self.padded
        r0 = _means(rel[synonyms])
        r1 = _means(np.vstack((_means(rel[member_synonyms]), rel[-1:]))[members])
        # A level with nothing measured drops out and the other carries full weight.
        return np.where(
            r1 != r1, r0, np.where(r0 != r0, r1, weights.w0 * r0 + weights.w1 * r1)
        )

    def base_scores(self, words: np.ndarray, weights: RelWeights) -> list[float]:
        """Step-1 score per sense: its mean :meth:`relatedness` over ``words``, 0 if none."""
        values = self.relatedness(words, weights)
        if self.padded is not None:
            return np.nan_to_num(_means(values.T), nan=0.0).tolist()
        return [0.0 if (m := mean_skip_missing(v)) is None else m for v in values]


@dataclass(frozen=True, slots=True)
class DescriptionIndex:
    """Description terms of a keyword's senses: ``terms`` has one column per sense."""

    phrases: PhraseTable
    terms: np.ndarray

    def average(self, words: np.ndarray) -> list[Optional[float]]:
        """Per sense, the mean relatedness over (word, term) pairs, words outer; None if none."""
        rel = self.phrases.relatedness(words)
        by_pair = rel[self.terms].transpose(2, 0, 1).reshape(-1, self.terms.shape[1])
        return [None if m != m else m for m in _means(by_pair).tolist()]

    def topk_centroids(self, reference: Vector, k: int) -> np.ndarray:
        """Per sense, the centroid of its ``k`` terms nearest to ``reference``; 0 if it has none.

        Terms rank by descending relatedness, ties in input order, and are
        added in rank order. A sense whose ranking holds a near-tie as
        :func:`rank_top` defines it (distinct neighbours within ``_TIE_WINDOW``,
        in a run of close neighbours that starts among its first ``k`` terms)
        is ranked by :func:`rank_top` instead. A table of one block forms its
        centroids once; a larger one is measured block by block and forms only
        the chosen terms' centroids again.
        """
        table = self.phrases
        whole = table.size <= _relatedness._BLOCK_ROWS
        if whole:
            vectors = table.centroids(range(table.size))
            rel = relatedness_rows(vectors, reference[None, :])[:, 0]
        else:
            rel = table.relatedness(reference[None, :])[:, 0]
        terms = self.terms.T
        by_term = rel[terms]
        order = (-by_term).argsort(axis=1, kind="stable")  # NaN (unrepresentable) last
        found = np.count_nonzero(by_term == by_term, axis=1)
        ranked_ids = terms[np.arange(len(terms))[:, None], order]
        chosen = ranked_ids[:, :k].copy()
        chosen[np.arange(chosen.shape[1]) >= np.minimum(found, k)[:, None]] = -1
        # Only two distinct phrases within _TIE_WINDOW of each other make a near-tie.
        if (np.diff(np.sort(rel)) <= _TIE_WINDOW).any():  # NaN sorts last
            ranked = rel[ranked_ids]
            close = ranked[:, :-1] - ranked[:, 1:] <= _TIE_WINDOW  # False next to NaN
            differ = ranked_ids[:, :-1] != ranked_ids[:, 1:]
            # Distinct close neighbours inside the kept prefix, or in the run of
            # close neighbours that goes on from the k-th term.
            from_cut = np.logical_and.accumulate(close[:, k - 1 :], axis=1)
            near = (close[:, : k - 1] & differ[:, : k - 1]).any(axis=1) | (
                from_cut & differ[:, k - 1 :]
            ).any(axis=1)
            rel_list = rel.tolist()
            for s in np.flatnonzero(near).tolist():
                ids = [i for i in terms[s].tolist() if i != -1 and rel_list[i] == rel_list[i]]
                distinct = sorted(set(ids))
                top = rank_top(ids, rel_list, k,
                               dict(zip(distinct, table.centroids(distinct))), reference)
                chosen[s] = top + [-1] * (chosen.shape[1] - len(top))
        if not whole:
            distinct = sorted(set(chosen[chosen >= 0].tolist()))
            vectors = table.centroids(distinct)
            chosen = np.where(chosen >= 0, np.searchsorted(distinct, chosen), -1)
        # Rank order, at most _BLOCK_ROWS gathered vectors at a time.
        total = np.empty((len(terms), table.matrix.shape[1]))
        step = max(1, _relatedness._BLOCK_ROWS // max(1, chosen.shape[1]))
        for start in range(0, len(terms), step):
            total[start : start + step] = np.add.reduce(
                vectors[chosen[start : start + step].T], axis=0
            )
        return total / np.maximum(np.minimum(found, k), 1)[:, None]


_Index = TypeVar("_Index", SenseIndex, DescriptionIndex)


def _model_cache(model: EmbeddingModel, lexicon: Lexicon) -> dict:
    """The compiled parts of a (model, lexicon) pair: on the lexicon, while the model lives."""
    caches, key = lexicon.compiled, id(model)
    entry = caches.get(key)
    if entry is None or entry[0]() is not model:

        def drop(_ref: weakref.ref) -> None:
            if caches.get(key) is entry:
                del caches[key]

        entry = caches[key] = (weakref.ref(model, drop), {})
    return entry[1]


def _compiled(
    build: Callable[[EmbeddingModel, Optional[Lexicon], Sequence[Sense]], _Index],
    model: EmbeddingModel,
    lexicon: Optional[Lexicon],
    senses: Sequence[Sense],
) -> _Index:
    if lexicon is None:
        return build(model, lexicon, senses)
    cache = _model_cache(model, lexicon)
    key = (build, tuple(s.id for s in senses))
    hit = cache.get(key)
    if hit is None or any(a is not b for a, b in zip(hit[0], senses)):
        hit = cache[key] = (tuple(senses), build(model, lexicon, senses))
    return hit[1]


def _build_sense_index(
    model: EmbeddingModel, lexicon: Optional[Lexicon], senses: Sequence[Sense]
) -> SenseIndex:
    context = [_member_synonyms(lexicon, sense) for sense in senses]
    table, ids = _phrase_table(model, chain(
        *(s.synonyms for s in senses), *(m for ms in context for m in ms)
    ))
    synonyms = [[ids.get(p, -1) for p in s.synonyms] for s in senses]
    members = [[[ids.get(p, -1) for p in m] for m in ms] for ms in context]
    padded = None
    if table.size > STEP1_LOOP_PHRASES:
        starts = [0, *accumulate(map(len, members))]
        padded = (
            _padded(synonyms),
            _padded([m for ms in members for m in ms]),
            _padded([range(a, b) for a, b in zip(starts, starts[1:])]),
        )
    return SenseIndex(phrases=table, synonyms=synonyms, members=members, padded=padded)


def _build_description_index(
    model: EmbeddingModel, lexicon: Optional[Lexicon], senses: Sequence[Sense]
) -> DescriptionIndex:
    table, ids = _phrase_table(model, chain(*(s.description_terms for s in senses)))
    terms = [[ids.get(t, -1) for t in s.description_terms] for s in senses]
    return DescriptionIndex(phrases=table, terms=_padded(terms))


def sense_index(
    model: EmbeddingModel, lexicon: Optional[Lexicon], senses: Sequence[Sense]
) -> SenseIndex:
    """The compiled step-1 phrases of ``senses``, cached per (model, lexicon) pair."""
    return _compiled(_build_sense_index, model, lexicon, senses)


def description_index(
    model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense]
) -> DescriptionIndex:
    """The compiled description terms of ``senses``, cached per (model, lexicon) pair."""
    return _compiled(_build_description_index, model, lexicon, senses)


def rel_sense_word(
    model: EmbeddingModel,
    lexicon: Optional[Lexicon],
    t: Sense,
    w: str,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> float:
    """Two-level relatedness between a sense and a word; raises when unmeasurable.

    The 1 x 1 case of :meth:`SenseIndex.relatedness`, on an index built for
    this call alone (not cached).
    """
    index = _build_sense_index(model, lexicon, [t])
    r = index.relatedness(model.phrase_matrix([w]), weights)[0][0]
    if r is None or r != r:
        raise UnmeasurableError(f"not representable in model: sense {t.id!r} vs word {w!r}")
    return float(r)


def rel_senses(
    model: EmbeddingModel,
    lexicon: Optional[Lexicon],
    a: Sense,
    b: Sense,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> float:
    """Two-level relatedness between senses; raises when neither level is measurable.

    ``a``'s phrases (rows) are measured against ``b``'s phrase centroids
    (columns) in one call, on indexes built for this call alone (not cached).
    Level 0 is the mean over the synonym pairs, level 1 the mean over pairs of
    core-context members of their level 0; pairs run over ``a`` outer and ``b``
    inner, and a level without a measured pair drops out.
    """
    ia, ib = (_build_sense_index(model, lexicon, [s]) for s in (a, b))
    # The zero row after b's centroids makes column -1 (no token) NaN.
    rel = ia.phrases.relatedness(ib.phrases.centroids(range(ib.phrases.size))).tolist()

    def level0(rows: list[int], cols: list[int]) -> Optional[float]:
        return mean_skip_missing(rel[i][j] for i in rows for j in cols)

    r = combine_levels(
        level0(ia.synonyms[0], ib.synonyms[0]),
        mean_skip_missing(level0(x, y) for x in ia.members[0] for y in ib.members[0]),
        weights,
    )
    if r is None:
        raise UnmeasurableError(f"senses not representable in model: {a.id!r}, {b.id!r}")
    return r
