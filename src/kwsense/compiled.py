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
* index lists or matrices: per sense (and per core-context member) the
  table rows of its phrases, duplicates included, with -1 marking phrases
  that have no token in the model and the padding of a matrix column.

Per call the rows are gathered from the matrix with ``np.take``
``_BLOCK_ROWS`` phrases at a time and widened exactly to float64, the phrase
centroids are formed by adding tokens position after position
(:meth:`EmbeddingModel.phrase_vector`'s order), and each block is measured
against the context by one :func:`relatedness_rows` call. Means skip missing
values and add the others one after another, in input order, so every path
gives the same scores bit for bit.

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
from itertools import accumulate
from operator import attrgetter, is_
from typing import Callable, Hashable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from . import relatedness as _relatedness
from .embeddings import EmbeddingModel, Vector
from .errors import UnmeasurableError
from .lexicon import InternedSenses, Lexicon, Sense, _offsets, gather, segment_positions
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
        position after position, the order of :meth:`EmbeddingModel.phrase_vector`.
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


def _split(items: list, counts: Iterable[int]) -> list[list]:
    """``items`` cut into consecutive lists of ``counts`` items."""
    bounds = [0, *accumulate(counts)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _padded(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``(longest, len(lengths))`` matrix whose column j is segment j of ``values``, padded with -1."""
    out = np.full((len(lengths), int(lengths.max(initial=0))), -1, dtype=np.int32)
    starts = lengths.cumsum() - lengths
    out[np.arange(len(lengths)).repeat(lengths),
        np.arange(len(values)) - starts.repeat(lengths)] = values
    return out.T


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
    padded = None
    if table.size > STEP1_LOOP_PHRASES:
        padded = (
            _padded(rows[: len(synonyms)], synonym_counts),
            _padded(rows[len(synonyms) :], member_lengths),
            _padded(np.arange(len(member_lengths)), member_counts),
        )
    ids = rows.tolist()
    return SenseIndex(
        phrases=table,
        synonyms=_split(ids, synonym_counts.tolist()),
        members=_split(_split(ids[len(synonyms) :], member_lengths.tolist()),
                       member_counts.tolist()),
        padded=padded,
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
    r = index.relatedness(model.phrase_matrix([w]), weights)[0][0]
    if r is None or r != r:
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
