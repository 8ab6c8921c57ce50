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
and the first batch of targets that measures a keyword compiles its senses.
The batch's new keywords compile together (:func:`sense_indexes`,
:func:`description_indexes`): one pass of array gathers, one stable sort and
scatters over phrase ids, with no Python work per phrase, cut into each
keyword's entry, equal to the one it gets compiled alone. Each entry holds

* a :class:`PhraseTable`: per distinct phrase with a token in the model,
  the row ids of its found tokens in token order, and the model's own
  matrix. A compiled keyword holds int row ids, never row objects or float64
  copies;
* padded index matrices: per sense (and per core-context member) the
  table rows of its phrases in input order, duplicates included, one column
  each, with -1 marking phrases that have no token in the model and the
  padding of a column.

Per keyword of a batch the rows of its whole table are gathered from the
matrix with ``np.take`` and widened exactly to float64, every phrase
centroid is formed once by adding tokens position after position
(:meth:`EmbeddingModel.phrase_vector`'s order), and that one matrix is
measured against the rows of all the keyword's contexts by one
:func:`relatedness_rows` call. Each context's values are then added in its
own order, so a batch gives each context the bits it gets alone. Step 1
has one aggregation for keywords of every size. A (phrase, word) pair is
missing when either side has no direction, so missing phrases are settled
when a keyword compiles (:class:`SenseIndex`). Every row of an active
context has a direction (its constructor checks them), so per call step 1
adds the values in input order with no missing-word work, bit for bit the
skip-missing means.

Step 1 and step 2 compile separately, so a keyword scored only by ``overlap``,
``sif`` or ``docvec`` never compiles its descriptions. ``overlap`` keeps
instead, per stopword set, one frozenset of description words per sense
(:func:`description_words`), split from the terms themselves, and
:func:`overlap` scores a context against them. Compiled parts are cached
per (model, lexicon) pair: on the lexicon, per model, until the model is
garbage-collected. A lexicon cannot change after it is built, so its
interning is the only one its senses get: every compiled part, the indexes
of :func:`rel_senses` and :func:`rel_sense_word` included, is built from it
and cached under the senses' ordinals in it. Only the lexicon's own sense
objects compile; any other sense, under one of its ids or not, raises
ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter, is_
from typing import Callable, Hashable, Optional, Sequence, TypeVar

import numpy as np

from . import relatedness as _relatedness
from .embeddings import EmbeddingModel
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

    def centroids(self) -> np.ndarray:
        """Float64 centroids of every phrase, then a zero row (index -1).

        Tokens are gathered with ``np.take``, widened exactly, and added
        position after position, the order of :meth:`EmbeddingModel.phrase_vector`.
        """
        matrix, rows, size = self.matrix, self.rows, self.size
        out = np.zeros((size + 1, matrix.shape[1]))
        if matrix.dtype == out.dtype:
            # Straight into out: the default mode="raise" would buffer a copy.
            matrix.take(rows[:size], axis=0, out=out[:-1], mode="clip")
        else:
            out[:-1] = matrix.take(rows[:size], axis=0)  # float32 widens exactly
        if self.later:
            counts = np.ones((self.later[0], 1))
            offset = size
            for reach in self.later:
                out[:reach] += matrix.take(rows[offset : offset + reach], axis=0)
                counts[:reach] += 1.0
                offset += reach
            out[: len(counts)] /= counts
        return out


# Token rows not looked up yet, in a token -> row array.
_UNSEEN = -2


def _token_rows(model: EmbeddingModel, lexicon: Lexicon, tokens: np.ndarray) -> np.ndarray:
    """The row in ``model`` of each of ``tokens`` (by :meth:`EmbeddingModel.row_id`), or -1.

    ``tokens`` are ids into the lexicon's interned tokens; each token's row is
    looked up once, into one token -> row array per (model, lexicon) pair,
    filled as compiled keywords and the SIF store need its tokens.
    """
    names = lexicon.interned.tokens
    rows = _cached(model, lexicon, _token_rows, lambda: np.full(len(names), _UNSEEN))
    out = rows[tokens]
    if out.min(initial=0) == _UNSEEN:
        unseen = np.zeros(len(rows), dtype=bool)
        unseen[tokens[out == _UNSEEN]] = True
        unseen = np.flatnonzero(unseen).tolist()
        rows[unseen] = [-1 if (i := model.row_id(names[t])) is None else i for t in unseen]
        out = rows[tokens]
    return out


def _phrase_table(
    model: EmbeddingModel, lexicon: Lexicon, phrases: np.ndarray, bounds: Sequence[int]
) -> tuple[list[PhraseTable], np.ndarray]:
    """The tables of a batch of keywords' ``phrases`` (ids), and each entry's row in its table.

    Keyword j's phrases lie between ``bounds[j]`` and ``bounds[j + 1]``. Its
    table holds its distinct phrases with a token in ``model``: they keep the
    order of their first occurrence, then sort stably by descending
    found-token count. The second array gives each entry of ``phrases`` its
    row in its keyword's table, -1 for a phrase without one. One pass finds
    every keyword's distinct phrases, their tokens and the tokens' rows.
    """
    n = len(phrases)
    offsets = lexicon.interned.phrase_tokens[0]
    # Ids made distinct per keyword, so one stable sort finds each keyword's distinct phrases.
    keys = phrases if len(bounds) == 2 else (
        np.repeat(np.arange(len(bounds) - 1) * len(offsets), np.diff(bounds)) + phrases)
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    new = np.zeros(n + 1, dtype=bool)
    new[1:2] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[2:])
    # Sorted, keyword j's entries lie between its bounds: ``distinct`` there cuts its phrases.
    distinct = new.cumsum()
    at = order[new[1:]]  # each distinct phrase's first occurrence
    tokens, lengths = gather(lexicon.interned.phrase_tokens, phrases[at])
    rows = _token_rows(model, lexicon, tokens)
    found = rows >= 0
    # Found tokens before each token: per phrase, its first found token and count.
    before = np.zeros(len(found) + 1, dtype=np.intp)
    found.cumsum(out=before[1:])
    ends = lengths.cumsum()
    firsts = before[ends - lengths]
    counts = before[ends] - firsts
    found_rows = rows[found]
    table_ids = np.full(len(at), -1, dtype=np.intp)
    tables = []
    cuts = distinct[bounds].tolist()
    for a, b in zip(cuts, cuts[1:]):
        # Descending count, then first occurrence; phrases without a found token last.
        ranked = (at[a:b] - counts[a:b] * n).argsort()
        size = int(np.count_nonzero(counts[a:b]))
        ranked = ranked[:size]
        table_ids[a + ranked] = np.arange(size)
        # The phrases that reach a later token position are a prefix of the table.
        kept_firsts, kept_counts = firsts[a:b][ranked], counts[a:b][ranked]
        parts, later = [found_rows[kept_firsts]], []
        for position in range(1, int(kept_counts[0]) if size else 0):
            reach = int(np.count_nonzero(kept_counts > position))
            parts.append(found_rows[kept_firsts[:reach] + position])
            later.append(reach)
        tables.append(PhraseTable(matrix=model.matrix, rows=np.concatenate(parts),
                                  later=tuple(later), size=size))
    occurrences = np.empty(n, dtype=np.intp)
    occurrences[order] = table_ids[distinct[1:] - 1]
    return tables, occurrences


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


def _concatenated(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``parts`` one after another; a single part is returned as it is, not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
        rel = relatedness_rows(self.phrases.centroids(), words)
        rel[-1] = 0.0  # a padding index reads a zero row
        # Per group its mean; the empty last group's is 0, read by member padding.
        means = _row_sums(rel[self.groups]) / self.counts[0]
        r1 = _row_sums(means[self.members]) / self.counts[1]
        c0, c1 = _coefficients(self.levels, weights)
        return c0 * means[: len(self.levels)] + c1 * r1

    def base_scores(self, contexts: Sequence[np.ndarray], weights: RelWeights) -> list[list[float]]:
        """Step-1 score per context per sense: the sense's mean :meth:`relatedness` over its rows.

        ``contexts``: active contexts' rows, at least one each; 0 where neither
        level is measurable. One call measures every context; each one's
        columns are then added in order.
        """
        values = self.relatedness(_concatenated(contexts), weights)
        out, start = [], 0
        for rows in contexts:
            stop = start + len(rows)
            means = np.add.accumulate(values[:, start:stop], axis=1)[:, -1] / len(rows)
            out.append([0.0 if m != m else m for m in means.tolist()])
            start = stop
        return out


@dataclass(frozen=True, slots=True)
class DescriptionIndex:
    """Description terms of a keyword's senses: ``terms`` has one column per sense."""

    phrases: PhraseTable
    terms: np.ndarray

    def average(self, contexts: Sequence[np.ndarray]) -> list[list[Optional[float]]]:
        """Per context (rows, at least one) per sense, the mean relatedness over (row, term) pairs.

        Pairs run rows outer; None where none is measured. One call measures every context.
        """
        rel = relatedness_rows(self.phrases.centroids(), _concatenated(contexts))  # row -1: NaN
        out, start = [], 0
        for rows in contexts:
            stop = start + len(rows)
            by_term = rel[self.terms, start:stop]  # (term, sense, row)
            by_pair = by_term.transpose(2, 0, 1).reshape(-1, self.terms.shape[1])
            out.append([None if m != m else m for m in _means(by_pair).tolist()])
            start = stop
        return out

    def topk_centroids(self, references: np.ndarray, k: int) -> list[np.ndarray]:
        """Per reference (row), per sense the centroid of its ``k`` terms nearest to the reference.

        0 for a sense without terms. Terms rank by descending relatedness,
        ties in input order, and are added in rank order. A sense whose
        ranking holds a near-tie as :func:`rank_top` defines it (distinct
        neighbours within ``_TIE_WINDOW``, in a run of close neighbours that
        starts among its first ``k`` terms) is ranked by :func:`rank_top`
        instead. The table's centroids are formed once, measured against
        every reference by one kernel call, and summed from that one matrix.
        """
        # A k at or past the longest description picks the same terms.
        k = min(k, max(1, self.terms.shape[0]))
        vectors = self.phrases.centroids()
        terms = self.terms.T
        out = []
        for reference, rel in zip(references, relatedness_rows(vectors, references).T):
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
                    top = rank_top(ids, rel_list, k, vectors, reference)
                    chosen[s] = top + [-1] * (chosen.shape[1] - len(top))
            # Rank order, one rank's rows at a time; -1 reads the zero row.
            total = np.zeros((len(terms), vectors.shape[1]))
            for column in chosen.T:
                total += vectors[column]
            out.append(total / np.maximum(np.minimum(found, k), 1)[:, None])
        return out


# One frozenset of description words per sense of a keyword (``overlap``).
WordSets = tuple[frozenset[str], ...]
_Compiled = TypeVar("_Compiled", SenseIndex, DescriptionIndex, WordSets)
_T = TypeVar("_T")
# The ordinals of one keyword's senses in the lexicon's interning.
_Ordinals = range | np.ndarray


def _cache(model: EmbeddingModel, lexicon: Lexicon) -> dict:
    """The (model, lexicon) pair's cache, kept on the lexicon while the model lives."""
    cache = lexicon.compiled.get(model)
    if cache is None:
        cache = lexicon.compiled[model] = {}
    return cache


def _cached(model: EmbeddingModel, lexicon: Lexicon, key: Hashable, make: Callable[[], _T]) -> _T:
    """The (model, lexicon) pair's value for ``key``, made on first use."""
    cache = _cache(model, lexicon)
    value = cache.get(key)
    if value is None:
        value = cache[key] = make()
    return value


def _compiled(
    build: Callable[..., list[_Compiled]],
    model: EmbeddingModel,
    lexicon: Lexicon,
    keywords: Sequence[Sequence[Sense]],
    *args: Hashable,
) -> list[_Compiled]:
    """Per keyword (the lexicon's senses), its part of ``build(model, lexicon, batch, *args)``.

    Each part is made once; the keywords without one are built together, in
    one batch of their ordinals. Every sense is checked before anything is built.
    """
    cache = _cache(model, lexicon)
    keys, batch = [], {}
    for senses in keywords:
        ordinals = _lexicon_ordinals(lexicon, senses)
        key = (build, ordinals if isinstance(ordinals, range) else tuple(ordinals.tolist()), *args)
        keys.append(key)
        if key not in cache:
            batch[key] = ordinals
    if batch:
        cache.update(zip(batch, build(model, lexicon, list(batch.values()), *args)))
    return [cache[key] for key in keys]


def _lexicon_ordinals(lexicon: Lexicon, senses: Sequence[Sense]) -> _Ordinals:
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
    interned: InternedSenses, ordinals: _Ordinals
) -> tuple[range | np.ndarray, np.ndarray]:
    """The core-context members of senses ``ordinals``, and each sense's member count."""
    if isinstance(ordinals, range):
        bounds = interned.members[ordinals.start : ordinals.stop + 1]
        return range(int(bounds[0]), int(bounds[-1])), bounds[1:] - bounds[:-1]
    starts = interned.members[ordinals]
    counts = interned.members[ordinals + 1] - starts
    return segment_positions(starts, counts), counts


def _build_sense_index(
    model: EmbeddingModel, lexicon: Lexicon, batch: Sequence[_Ordinals]
) -> list[SenseIndex]:
    interned = lexicon.interned
    phrases, lengths, counts = [], [], []  # per keyword: its synonyms, then its members' phrases
    for ordinals in batch:
        members, member_counts = _member_positions(interned, ordinals)
        synonyms, synonym_counts = gather(interned.synonyms, ordinals)
        member_phrases, member_lengths = gather(interned.member_phrases, members)
        phrases += (synonyms, member_phrases)
        lengths.append(len(synonyms) + len(member_phrases))
        counts.append((synonym_counts, member_lengths, member_counts))
    bounds = list(accumulate(lengths, initial=0))
    tables, rows = _phrase_table(model, lexicon, np.concatenate(phrases), bounds)
    out = []
    for table, (synonym_counts, member_lengths, member_counts), a, b in zip(
        tables, counts, bounds, bounds[1:]
    ):
        # A centroid with no direction: missing like a phrase with no token.
        own = np.where(_relatedness.has_direction(table.centroids())[rows[a:b]], rows[a:b], -1)
        # One padded matrix: the groups, then each sense's member groups.
        n = len(synonym_counts)
        g = n + len(member_lengths) + 1
        padded = _padded(np.concatenate((own, np.arange(n, g - 1))),
                         np.concatenate((synonym_counts, member_lengths, [0], member_counts)))
        groups, members = padded[:, :g], padded[:, g:]
        # Measurable phrases per group, and members with one per sense.
        found = np.add.reduce(groups >= 0, axis=0)
        member_found = np.add.reduce(found[members] > 0, axis=0)
        out.append(SenseIndex(
            phrases=table,
            groups=groups,
            members=members,
            counts=(np.maximum(found, 1.0)[:, None], np.maximum(member_found, 1.0)[:, None]),
            levels=(found[:n] > 0) + 2 * (member_found > 0),
        ))
    return out


def _build_description_index(
    model: EmbeddingModel, lexicon: Lexicon, batch: Sequence[_Ordinals]
) -> list[DescriptionIndex]:
    gathered = [gather(lexicon.interned.descriptions, ordinals) for ordinals in batch]
    bounds = list(accumulate((len(terms) for terms, _ in gathered), initial=0))
    tables, rows = _phrase_table(model, lexicon, _concatenated([t for t, _ in gathered]), bounds)
    return [
        DescriptionIndex(phrases=table, terms=_padded(rows[a:b], counts))
        for table, (_, counts), a, b in zip(tables, gathered, bounds, bounds[1:])
    ]


def _description_tokens(
    lexicon: Lexicon, ordinals: _Ordinals
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
    batch: Sequence[_Ordinals],
    stopwords: frozenset[str],
) -> list[WordSets]:
    senses = lexicon.interned.senses
    return [tuple(frozenset(" ".join(senses[i].description_terms).lower().split()) - stopwords
                  for i in ordinals) for ordinals in batch]


def sense_indexes(
    model: EmbeddingModel, lexicon: Lexicon, keywords: Sequence[Sequence[Sense]]
) -> list[SenseIndex]:
    """The compiled step-1 phrases of each keyword's senses, cached per (model, lexicon) pair."""
    return _compiled(_build_sense_index, model, lexicon, keywords)


def sense_index(model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense]) -> SenseIndex:
    """:func:`sense_indexes` of one keyword."""
    return sense_indexes(model, lexicon, [senses])[0]


def description_indexes(
    model: EmbeddingModel, lexicon: Lexicon, keywords: Sequence[Sequence[Sense]]
) -> list[DescriptionIndex]:
    """The compiled description terms of each keyword's senses, cached per (model, lexicon) pair."""
    return _compiled(_build_description_index, model, lexicon, keywords)


def description_index(
    model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense]
) -> DescriptionIndex:
    """:func:`description_indexes` of one keyword."""
    return description_indexes(model, lexicon, [senses])[0]


def description_words(
    model: EmbeddingModel, lexicon: Lexicon, senses: Sequence[Sense], stopwords: frozenset[str]
) -> WordSets:
    """Per sense, the lowercased whitespace tokens of its description terms, minus ``stopwords``.

    Cached per (model, lexicon) pair, keyword and stopword set, beside the
    compiled descriptions, though the sets depend on no model.
    """
    return _compiled(_build_description_words, model, lexicon, [senses], stopwords)[0]


def overlap(word_sets: WordSets, context: set[str]) -> list[float]:
    """Per sense, |set & context| / min(|set|, |context|), or 0 when either is empty."""
    return [len(words & context) / min(len(words), len(context)) if words and context else 0.0
            for words in word_sets]


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
    rel = relatedness_rows(ia.phrases.centroids(), ib.phrases.centroids())
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
