"""Two-level sense relatedness, and keywords compiled once per (model, lexicon) pair.

This module is the one definition of sense relatedness. Level 0 is the mean
word relatedness over synonym pairs, level 1 the mean of level 0 over pairs
of core-context members (a sense reference stands for the referenced
sense's synonyms, a bare label for itself alone). Means skip missing pairs
with the denominator reduced, and a level without a measured pair drops out
while the other carries full weight. Step 1 reads it through
:meth:`SenseIndex.relatedness` and :meth:`SenseIndex.base_scores`;
:func:`rel_sense_word` is that method's 1 x 1 case and :func:`rel_senses`
measures one index's phrases against another's.

Step 1 and the ``average`` and ``topk`` strategies relate every synonym,
core-context member synonym and description term of every candidate sense
to a few context vectors. Tokenizing those phrases, looking their tokens up
and averaging them costs far more than measuring them. The lexicon tokenizes
every phrase once when it is built (:class:`~kwsense.lexicon.InternedSenses`),
each (model, lexicon) pair keeps one token -> row array that is filled as
keywords and the SIF store need its tokens (:meth:`EmbeddingModel.row_id`),
and the first call for a keyword compiles its senses with array gathers, one
stable sort and scatters over phrase ids, with no Python work per phrase, into

* a :class:`PhraseTable`: per distinct phrase with a token in the model,
  the row ids of its found tokens in token order, and the model's own
  matrix. A compiled keyword holds int row ids, never row objects or float64
  copies;
* padded index matrices: per sense (and per core-context member) the
  table rows of its phrases in input order, duplicates included, one column
  each, with -1 marking phrases that have no token in the model and the
  padding of a column.

Per call the rows are gathered from the matrix with ``np.take``
``_BLOCK_ROWS`` phrases at a time and widened exactly to float64, the phrase
centroids are formed by adding tokens position after position
(:meth:`EmbeddingModel.phrase_vector`'s order), and each block is measured
against the context by one :func:`relatedness_rows` call. Step 1 has one
aggregation for keywords of every size. A (phrase, word) pair is missing
when either side has no direction, so missing phrases are settled when a
keyword compiles (:class:`SenseIndex`). Every row of an active context has a
direction (its constructor checks them), so per call step 1 adds the values
in input order with no missing-word work, bit for bit the skip-missing means.

Step 1 and step 2 compile separately, so a keyword scored only by ``overlap``,
``sif`` or ``docvec`` never compiles its descriptions; ``overlap`` keeps each
sense's description word set instead, as word ids, per stopword set
(:func:`description_words`). Compiled parts are cached per (model, lexicon)
pair: on the lexicon, per model, until the model is garbage-collected. A
lexicon cannot change after it is built, so its interning is the only one
its senses get: every compiled part, the indexes of :func:`rel_senses` and
:func:`rel_sense_word` included, is built from it and cached under the
senses' ordinals in it. Only the lexicon's own sense objects compile; any
other sense, under one of its ids or not, raises ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, is_
from typing import Callable, Hashable, Optional, Sequence, TypeVar

import numpy as np

from . import relatedness as _relatedness
from .embeddings import EmbeddingModel, Vector
from .errors import UnmeasurableError
from .lexicon import InternedSenses, Lexicon, Sense, _offsets, gather, segment_positions
from .relatedness import _TIE_WINDOW, DEFAULT_WEIGHTS, RelWeights, rank_top, relatedness_rows

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
        position after position, the order of :meth:`EmbeddingModel.phrase_vector`.
        """
        matrix, rows = self.matrix, self.rows
        out = np.zeros((len(ids) + 1, matrix.shape[1]))
        if not len(ids):
            return out
        # Rows of the first n ids at a position; the ids reaching each later one (a prefix).
        if isinstance(ids, range):
            at = lambda offset, n: rows[offset + ids.start : offset + ids.start + n]
            reaches = [min(max(reach - ids.start, 0), len(ids)) for reach in self.later]
        else:
            ids = np.asarray(ids)
            at = lambda offset, n: rows[offset + ids[:n]]
            reaches = np.searchsorted(ids, self.later).tolist()
        if matrix.dtype == out.dtype:
            # Straight into out: the default mode="raise" would buffer a copy.
            matrix.take(at(0, len(ids)), axis=0, out=out[:-1], mode="clip")
        else:
            out[:-1] = matrix.take(at(0, len(ids)), axis=0)  # float32 widens exactly
        if reaches and reaches[0]:
            counts = np.ones((reaches[0], 1))
            offset = self.size
            for reach, n in zip(self.later, reaches):
                if not n:
                    break
                out[:n] += matrix.take(at(offset, n), axis=0)
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


# Token values not computed yet, in a token -> value array.
_UNSEEN = -2


def _token_values(
    model: EmbeddingModel,
    lexicon: Lexicon,
    tokens: np.ndarray,
    key: Hashable,
    compute: Callable[[list[int]], Sequence[int]],
) -> np.ndarray:
    """A value (an int >= -1) for each of ``tokens``, ids into the lexicon's interned tokens.

    ``compute`` gives the values of a list of distinct token ids; each
    token's value is computed once. The tokens share one token -> value array
    per (model, lexicon) pair and ``key``, filled as compiled keywords and the
    SIF store need its tokens; threads that fill it together write the same
    values.
    """
    values = _shared(model, lexicon, key, lambda: np.full(len(lexicon.interned.tokens), _UNSEEN))
    out = values[tokens]
    if out.min(initial=0) == _UNSEEN:
        unseen = np.zeros(len(values), dtype=bool)
        unseen[tokens[out == _UNSEEN]] = True
        unseen = np.flatnonzero(unseen).tolist()
        values[unseen] = compute(unseen)
        out = values[tokens]
    return out


def _token_rows(model: EmbeddingModel, lexicon: Lexicon, tokens: np.ndarray) -> np.ndarray:
    """The row in ``model`` of each of ``tokens`` (by :meth:`EmbeddingModel.row_id`), or -1."""
    row_id, names = model.row_id, lexicon.interned.tokens
    return _token_values(model, lexicon, tokens, _token_rows,
                         lambda ids: [-1 if (i := row_id(names[t])) is None else i for t in ids])


def _phrase_table(
    model: EmbeddingModel, lexicon: Lexicon, phrases: np.ndarray
) -> tuple[PhraseTable, np.ndarray]:
    """The table of the distinct ``phrases`` (ids) with a token in ``model``, and each one's row.

    Distinct phrases keep the order of their first occurrence, then sort
    stably by descending found-token count. The second array gives each
    entry of ``phrases`` its row in the table, -1 for a phrase without one.
    """
    n = len(phrases)
    order = phrases.argsort(kind="stable")
    ordered = phrases[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    tokens, lengths = gather(lexicon.interned.phrase_tokens, distinct)
    rows = _token_rows(model, lexicon, tokens)
    found = rows >= 0
    # Found tokens before each token: per phrase, its first found token and count.
    before = np.zeros(len(found) + 1, dtype=np.intp)
    found.cumsum(out=before[1:])
    ends = lengths.cumsum()
    firsts = before[ends - lengths]
    counts = before[ends] - firsts
    # Descending count, then first occurrence; phrases without a found token last.
    ranked = (order[new] - counts * n).argsort()
    size = int(np.count_nonzero(counts))
    ranked = ranked[:size]
    table_ids = np.full(len(distinct), -1, dtype=np.intp)
    table_ids[ranked] = np.arange(size)
    # The phrases that reach a later token position are a prefix of the table.
    found_rows, firsts, counts = rows[found], firsts[ranked], counts[ranked]
    parts, later = [found_rows[firsts]], []
    for position in range(1, int(counts[0]) if size else 0):
        reach = int(np.count_nonzero(counts > position))
        parts.append(found_rows[firsts[:reach] + position])
        later.append(reach)
    occurrences = np.empty(n, dtype=np.intp)
    occurrences[order] = table_ids[new.cumsum() - 1]
    table = PhraseTable(matrix=model.matrix, rows=np.concatenate(parts),
                        later=tuple(later), size=size)
    return table, occurrences


def _padded(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``(longest, len(lengths))`` matrix whose column j is segment j of ``values``, padded with -1."""
    used = np.arange(np.maximum.reduce(lengths, initial=0))[:, None] < lengths
    out = np.full(used.shape, -1, dtype=np.int32)
    out.T[used.T] = values  # column after column
    return out


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Sum over axis 0, one row after another (a reduction adds pairwise beside size-1 axes)."""
    return np.add.accumulate(values, axis=0)[-1] if len(values) else values.sum(axis=0)


def _means(values: np.ndarray) -> np.ndarray:
    """Mean over axis 0 of the non-NaN values, added in index order; NaN where there are none."""
    measured = values == values
    with np.errstate(invalid="ignore"):
        return _row_sums(np.where(measured, values, 0.0)) / np.count_nonzero(measured, axis=0)


def _pair_means(values: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                row_counts: np.ndarray, col_counts: np.ndarray) -> np.ndarray:
    """Per (column of ``rows``, column of ``cols``), the mean of ``values`` over their index pairs.

    Pairs run ``rows`` outer and ``cols`` inner, -1 reads the last row or column
    of ``values`` (which must be 0), and a mean divides by its two counts' product.
    """
    picked = values[rows[:, None, :, None], cols[None, :, None, :]]
    sums = _row_sums(picked.reshape(len(rows) * len(cols), rows.shape[1], cols.shape[1]))
    return sums / (row_counts * col_counts.T)


def _coefficients(levels: np.ndarray, weights: RelWeights) -> tuple[np.ndarray, np.ndarray]:
    """Per sense, the weights of levels 0 and 1 (columns) by ``levels``' bits 0 and 1.

    A level that cannot be measured drops out and the other weighs 1, exactly
    (``1.0 * r + 0.0 * 0.0 == r``); NaN where neither can.
    """
    both = np.array([[np.nan, np.nan], [1.0, 0.0], [0.0, 1.0], [weights.w0, weights.w1]])[levels]
    return both[:, :1], both[:, 1:]


@dataclass(frozen=True, slots=True)
class SenseIndex:
    """Step-1 phrases of a keyword's senses: synonyms and core-context members' synonyms.

    Columns of ``groups`` hold table rows in input order, padded with -1: per
    sense its synonyms, per core-context member its synonyms, then an empty
    group. Columns of ``members`` hold each sense's member groups. Missing
    phrases are settled at compile time: one with no token in the model or a
    zero centroid is -1 too, which reads a zero row. ``counts`` holds float
    columns, at least 1: measurable phrases per group, members with one per
    sense. ``levels`` bit 0 (1) is set for a sense with such a synonym (member).
    """

    phrases: PhraseTable
    groups: np.ndarray
    members: np.ndarray
    counts: tuple[np.ndarray, np.ndarray]
    levels: np.ndarray

    def relatedness(self, words: np.ndarray, weights: RelWeights) -> np.ndarray:
        """Two-level relatedness of every sense (row) to every row of ``words`` (column).

        NaN where neither level of the sense is measurable, and in the column
        of a word with no direction.
        """
        rel = self.phrases.relatedness(words)
        rel[-1] = 0.0  # a padding index reads a zero row
        # Per group its mean; the empty last group's is 0, read by member padding.
        means = _row_sums(rel[self.groups]) / self.counts[0]
        r1 = _row_sums(means[self.members]) / self.counts[1]
        c0, c1 = _coefficients(self.levels, weights)
        return c0 * means[: len(self.levels)] + c1 * r1

    def base_scores(self, words: np.ndarray, weights: RelWeights) -> list[float]:
        """Step-1 score per sense: its mean :meth:`relatedness` over ``words``.

        ``words``: an active context's rows (at least one); 0 where neither level is measurable.
        """
        values = self.relatedness(words, weights)
        means = (np.add.accumulate(values, axis=1)[:, -1] / len(words)).tolist()
        return [0.0 if m != m else m for m in means]


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


@dataclass(frozen=True, slots=True)
class DescriptionWords:
    """Description word sets of a keyword's senses, as word ids.

    A sense's set holds the lowercased whitespace tokens of its description
    terms that are not stopwords. ``words`` lists each sense's distinct word
    ids, one sense after another, cut by ``offsets``; ``vocabulary`` maps
    lowercased words to their ids (it may hold other keywords' words too).
    """

    vocabulary: dict[str, int]
    offsets: np.ndarray
    words: np.ndarray

    def overlap(self, context: set[str]) -> list[float]:
        """Per sense, |set & context| / min(|set|, |context|), or 0 when either is empty."""
        hit = np.zeros(len(self.words), dtype=bool)
        for word in context:
            i = self.vocabulary.get(word)
            if i is not None:
                hit |= self.words == i
        before = np.zeros(len(hit) + 1, dtype=np.intp)
        hit.cumsum(out=before[1:])
        shared = before[self.offsets[1:]] - before[self.offsets[:-1]]
        smaller = np.minimum(self.offsets[1:] - self.offsets[:-1], len(context))
        # Counts divide as Python ints do: both are exact in float64.
        return np.where(smaller > 0, shared / np.maximum(smaller, 1), 0.0).tolist()


_Compiled = TypeVar("_Compiled", SenseIndex, DescriptionIndex, DescriptionWords)
_T = TypeVar("_T")


def _model_cache(model: EmbeddingModel, lexicon: Lexicon) -> dict:
    """The compiled parts of a (model, lexicon) pair: on the lexicon, while the model lives."""
    cache = lexicon.compiled.get(model)
    return lexicon.compiled.setdefault(model, {}) if cache is None else cache


def _shared(model: EmbeddingModel, lexicon: Lexicon, key: Hashable, make: Callable[[], _T]) -> _T:
    """The (model, lexicon) pair's value for ``key``, made on first use; threads share it."""
    cache = _model_cache(model, lexicon)
    value = cache.get(key)
    return cache.setdefault(key, make()) if value is None else value


def _compiled(
    build: Callable[..., _Compiled],
    model: EmbeddingModel,
    lexicon: Lexicon,
    senses: Sequence[Sense],
    *args: Hashable,
) -> _Compiled:
    """``build(model, lexicon, ordinals, *args)`` for the lexicon's ``senses``, made once."""
    ordinals = _lexicon_ordinals(lexicon, senses)
    cache = _model_cache(model, lexicon)
    key = (build, ordinals if isinstance(ordinals, range) else tuple(ordinals.tolist()), *args)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = build(model, lexicon, ordinals, *args)
    return hit


def _lexicon_ordinals(lexicon: Lexicon, senses: Sequence[Sense]) -> range | np.ndarray:
    """The ordinals of ``senses`` in the lexicon's interning, a range if consecutive.

    Every sense must be the very object the lexicon holds: any other sense,
    under one of its ids or not, raises ValueError.
    """
    interned = lexicon.interned
    # A keyword's senses are usually consecutive: one slice compares them all.
    first = interned.ordinals.get(senses[0].id, 0) if senses else 0
    held = interned.senses[first : first + len(senses)]
    if len(held) == len(senses) and all(map(is_, held, senses)):
        return range(first, first + len(senses))
    ordinals = list(map(interned.ordinals.get, map(attrgetter("id"), senses)))
    if None in ordinals or not all(map(is_, map(interned.senses.__getitem__, ordinals), senses)):
        other = next(s for s in senses if lexicon.senses.get(s.id) is not s)
        raise ValueError(f"sense {other.id!r} is not one the lexicon holds")
    return np.array(ordinals, dtype=np.intp)


def _member_positions(
    interned: InternedSenses, ordinals: range | np.ndarray
) -> tuple[range | np.ndarray, np.ndarray]:
    """The core-context members of senses ``ordinals``, and each sense's member count."""
    if isinstance(ordinals, range):
        bounds = interned.members[ordinals.start : ordinals.stop + 1]
        return range(int(bounds[0]), int(bounds[-1])), bounds[1:] - bounds[:-1]
    starts = interned.members[ordinals]
    counts = interned.members[ordinals + 1] - starts
    return segment_positions(starts, counts), counts


def _build_sense_index(
    model: EmbeddingModel, lexicon: Lexicon, ordinals: range | np.ndarray
) -> SenseIndex:
    interned = lexicon.interned
    members, member_counts = _member_positions(interned, ordinals)
    synonyms, synonym_counts = gather(interned.synonyms, ordinals)
    member_phrases, member_lengths = gather(interned.member_phrases, members)
    table, rows = _phrase_table(model, lexicon, np.concatenate((synonyms, member_phrases)))
    # A centroid with no direction: missing like a phrase with no token.
    centroids = table.centroids(range(table.size))
    rows = np.where(_relatedness.has_direction(centroids)[rows], rows, -1)
    # One padded matrix: the groups, then each sense's member groups.
    n, g = len(synonym_counts), len(synonym_counts) + len(member_lengths) + 1
    padded = _padded(np.concatenate((rows, np.arange(n, g - 1))),
                     np.concatenate((synonym_counts, member_lengths, [0], member_counts)))
    groups, members = padded[:, :g], padded[:, g:]
    # Measurable phrases per group, and members with one per sense.
    found = np.add.reduce(groups >= 0, axis=0)
    member_found = np.add.reduce(found[members] > 0, axis=0)
    return SenseIndex(
        phrases=table,
        groups=groups,
        members=members,
        counts=(np.maximum(found, 1.0)[:, None], np.maximum(member_found, 1.0)[:, None]),
        levels=(found[:n] > 0) + 2 * (member_found > 0),
    )


def _build_description_index(
    model: EmbeddingModel, lexicon: Lexicon, ordinals: range | np.ndarray
) -> DescriptionIndex:
    terms, counts = gather(lexicon.interned.descriptions, ordinals)
    table, rows = _phrase_table(model, lexicon, terms)
    return DescriptionIndex(phrases=table, terms=_padded(rows, counts))


def _description_tokens(
    lexicon: Lexicon, ordinals: range | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The description tokens of senses ``ordinals`` (ids into the lexicon's tokens), and bounds.

    Token ids run one sense after another; sense j's lie between bounds j and j + 1.
    """
    phrases, counts = gather(lexicon.interned.descriptions, ordinals)
    tokens, lengths = gather(lexicon.interned.phrase_tokens, phrases)
    return tokens, _offsets(lengths)[_offsets(counts)]


def _build_description_words(
    model: EmbeddingModel,
    lexicon: Lexicon,
    ordinals: range | np.ndarray,
    stopwords: frozenset[str],
) -> DescriptionWords:
    tokens, bounds = _description_tokens(lexicon, ordinals)
    names = lexicon.interned.tokens
    # One vocabulary per (model, lexicon) pair, grown as keywords compile.
    vocabulary = _shared(model, lexicon, DescriptionWords, dict)

    def word_ids(ids: list[int]) -> np.ndarray:
        # A word's id is the first token id that spelled it; -1 for a stopword.
        lowered = list(map(str.lower, map(names.__getitem__, ids)))
        stop = np.fromiter(map(stopwords.__contains__, lowered), bool, len(ids))
        return np.where(stop, -1, np.fromiter(map(vocabulary.setdefault, lowered, ids), np.intp,
                                              len(ids)))

    words = _token_values(model, lexicon, tokens, (description_words, stopwords), word_ids)
    owners = np.repeat(np.arange(len(ordinals)), bounds[1:] - bounds[:-1])
    kept = words >= 0
    # Each sense's distinct words: sort (sense, word) pairs and drop repeats.
    base = max(1, len(names))
    pairs = np.sort(owners[kept] * base + words[kept])
    new = np.empty(len(pairs), dtype=bool)
    new[:1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
    pairs = pairs[new]
    offsets = np.searchsorted(pairs // base, np.arange(len(ordinals) + 1))
    return DescriptionWords(vocabulary=vocabulary, offsets=offsets, words=pairs % base)


def sense_index(model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense]) -> SenseIndex:
    """The compiled step-1 phrases of ``senses``, cached per (model, lexicon) pair."""
    return _compiled(_build_sense_index, model, lexicon, senses)


def description_index(
    model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense]
) -> DescriptionIndex:
    """The compiled description terms of ``senses``, cached per (model, lexicon) pair."""
    return _compiled(_build_description_index, model, lexicon, senses)


def description_words(
    model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense], stopwords: frozenset[str]
) -> DescriptionWords:
    """The description word sets of ``senses``, cached per (model, lexicon) pair and stopwords.

    The sets depend on no model; they are kept beside the compiled
    descriptions, so they live as long as those do.
    """
    return _compiled(_build_description_words, model, lexicon, senses, stopwords)


def rel_sense_word(
    model: EmbeddingModel,
    lexicon: Lexicon,
    t: Sense,
    w: str,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> float:
    """Two-level relatedness between the lexicon's sense ``t`` and a word; raises when unmeasurable.

    The 1 x 1 case of :meth:`SenseIndex.relatedness`, on ``t``'s compiled
    (and cached) index.
    """
    index = sense_index(model, lexicon, [t])
    r = index.relatedness(model.phrase_matrix([w]), weights)[0, 0]
    if r != r:
        raise UnmeasurableError(f"not representable in model: sense {t.id!r} vs word {w!r}")
    return float(r)


def rel_senses(
    model: EmbeddingModel,
    lexicon: Lexicon,
    a: Sense,
    b: Sense,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> float:
    """Two-level relatedness between the lexicon's senses; raises when neither level is measurable.

    ``a``'s phrases (rows) are measured against ``b``'s phrase centroids
    (columns) in one call, on each sense's compiled (and cached) index.
    Level 0 is the mean over the synonym pairs, level 1 the mean over pairs of
    core-context members of their level 0; pairs run over ``a`` outer and ``b``
    inner, and a level without a measured pair drops out.
    """
    ia, ib = (sense_index(model, lexicon, [s]) for s in (a, b))
    # Row -1 (a's padding) and column -1 (b's zero centroid) read 0.
    rel = ia.phrases.relatedness(ib.phrases.centroids(range(ib.phrases.size)))
    rel[-1] = 0.0
    rel[:, -1] = 0.0
    # Per pair of groups its mean; the empty last groups' row and column are 0.
    by_pair = _pair_means(rel, ia.groups, ib.groups, ia.counts[0], ib.counts[0])
    r1 = _pair_means(by_pair, ia.members, ib.members, ia.counts[1], ib.counts[1])
    c0, c1 = _coefficients(ia.levels & ib.levels, weights)
    r = float((c0 * by_pair[:1, :1] + c1 * r1)[0, 0])
    if r != r:
        raise UnmeasurableError(f"senses not representable in model: {a.id!r}, {b.id!r}")
    return r
