"""Keyword disambiguation: active-context selection and three-step scoring.

Given a keyword, its candidate senses, and surrounding context words, the
pipeline is:

1. Base scores: mean sense-word relatedness between each sense and the
   active-context members.
2. Strategy rescoring: every sense gains (1 - maxScore) * strength, where
   strength compares the active context with the sense's description terms
   (set overlap, pairwise average, or a centroid comparison against a
   description embedding).
3. Frequency re-ranking: senses close enough to the leader additionally gain
   (1 - maxScore) * normFreq, a square-root-damped relative sense frequency.

Updates always add (1 - maxScore) times a value in [0, 1] to a score that is
at most maxScore, so scores stay in [0, 1] and never decrease.
"""
from __future__ import annotations

import json
import logging
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .compiled import (
    DescriptionIndex,
    WordSets,
    _description_tokens,
    _token_rows,
    description_indexes,
    description_words,
    overlap,
    sense_index,
    sense_indexes,
)
from .embeddings import EmbeddingModel, VectorTable, _lines_left
from .errors import ConfigError, ParseError, UnmeasurableError, json_lines
from .lexicon import Lexicon, Sense
from .relatedness import (
    DEFAULT_WEIGHTS,
    SIF_SMOOTHING,
    RelWeights,
    SifConfig,
    _principal_direction,
    _weighted_means,
    has_direction,
    load_word_frequencies,
    rank_top,
    relatedness_rows,
    relatedness_to,
)
from .stopwords import DEFAULT_STOPWORDS, default_stopwords

logger = logging.getLogger(__name__)


class Strategy(str, Enum):
    """How step 2 compares the active context with sense descriptions."""

    OVERLAP = "overlap"
    AVERAGE = "average"
    SIF = "sif"
    TOP_K = "topk"
    DOC_VEC = "docvec"


def _integer(value: object, name: str) -> int:
    """``value`` as an int (numpy's integers too); ValueError naming ``name`` for a non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ContextConfig:
    """Active-context selection settings; ``stopwords`` is stored as a frozenset."""

    max_context: int = 4
    threshold: float = 0.5
    stopwords: frozenset[str] = field(default_factory=default_stopwords)

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_context", _integer(self.max_context, "max_context"))
        if isinstance(self.stopwords, str):  # read by substring, "h" would be a stopword
            raise ValueError("stopwords must be a collection of words, not a str")
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))
        if self.max_context < 1:
            raise ValueError("max_context must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


@dataclass(frozen=True)
class AlgoParams:
    """Scoring parameters for the three-step algorithm; ``freq_b = 1 - freq_a``."""

    weights: RelWeights = DEFAULT_WEIGHTS
    proximity_factor: float = 0.75
    freq_a: float = 0.5
    strategy: Strategy = Strategy.TOP_K
    k: int = 15

    def __post_init__(self) -> None:
        if not 0.0 <= self.proximity_factor <= 1.0:
            raise ValueError("proximity_factor must lie in [0, 1]")
        # Written so that NaN fails the check.
        if not 0.0 <= self.freq_a <= 1.0:
            raise ValueError(f"freq_a must lie in [0, 1], got {self.freq_a}")
        object.__setattr__(self, "k", _integer(self.k, "k"))
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def freq_b(self) -> float:
        return 1.0 - self.freq_a


@dataclass(frozen=True)
class ActiveContext:
    """Context words kept for scoring: deduplicated, stopword-free, related to the target.

    Members are (word, relatedness-to-target) pairs sorted by descending
    relatedness; ties keep their original input order. The target itself is
    never a member. ``rows`` holds the members' vectors, read by steps 1 and
    2: one float64 row per member, in member order, each with a direction
    (:func:`has_direction`). The constructor raises ValueError otherwise, and
    makes the rows read-only so that the check keeps holding; a context
    without members needs no rows. The rows are not part of the value or of
    the JSON form.
    """

    target: str
    members: tuple[tuple[str, float], ...] = ()
    rows: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)), compare=False, repr=False)

    def __post_init__(self) -> None:
        rows = self.rows
        if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2
                and len(rows) == len(self.members) and has_direction(rows).all()):
            raise ValueError("rows must be one float64 row per member, each with a direction")
        rows.flags.writeable = False

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(w for w, _ in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def to_json(self) -> list[dict]:
        return [{"word": w, "relatedness": s} for w, s in self.members]


@dataclass(frozen=True)
class SenseScore:
    """Score of one candidate sense with its per-step contributions."""

    sense_id: str
    score: float
    step1: float
    step2_delta: float = 0.0
    step3_delta: float = 0.0

    def to_json(self) -> dict:
        return {
            "id": self.sense_id,
            "score": self.score,
            "trace": {
                "step1": self.step1,
                "step2_delta": self.step2_delta,
                "step3_delta": self.step3_delta,
            },
        }


@dataclass
class DocVecStore:
    """Precomputed per-sense document vectors for the DOC_VEC strategy; ``dim`` is their table's."""

    vectors: VectorTable

    @property
    def dim(self) -> int:
        return self.vectors.dim


def load_docvec_store(path: str | Path) -> DocVecStore:
    """Load a JSONL document-vector store: one {"id", "vector"} object per line.

    Rows go, in file order, into one float64 matrix allocated at the first
    vector: a row per line, and at most one per ``2 * dim + 1`` bytes of file.
    """
    path = Path(path)
    index: dict[str, int] = {}
    matrix: np.ndarray | None = None
    for where, obj in json_lines(path):
        if not isinstance(obj, dict) or "id" not in obj or "vector" not in obj:
            raise ParseError(f"{where}: expected an object with 'id' and 'vector'")
        sense_id, raw = obj["id"], obj["vector"]
        if not isinstance(sense_id, str) or not sense_id:
            raise ParseError(f"{where}: id must be a nonempty string")
        # Only JSON numbers: np.array would also take bools and numeric strings.
        if not isinstance(raw, list) or not raw or not set(map(type, raw)) <= {int, float}:
            raise ParseError(f"{where}: vector must be a nonempty list of numbers")
        try:
            vec = np.array(raw, dtype=np.float64)
        except OverflowError:
            raise ParseError(f"{where}: vector components must be finite numbers") from None
        if not np.all(np.isfinite(vec)):
            raise ParseError(f"{where}: vector components must be finite numbers")
        if matrix is None:
            dim = len(vec)
            with path.open("rb") as fh:
                size = min(_lines_left(fh), path.stat().st_size // (2 * dim + 1) + 1)
            matrix = np.empty((size, dim))
        elif len(vec) != dim:
            raise ParseError(f"{where}: expected {dim} components, got {len(vec)}")
        if sense_id in index:
            raise ParseError(f"{where}: duplicate id {sense_id!r}")
        matrix[len(index)] = vec
        index[sense_id] = len(index)
    if matrix is None:
        raise ParseError(f"{path}: no document vectors found")
    return DocVecStore(VectorTable(matrix[: len(index)], index))


def build_sif_store(
    model: EmbeddingModel, lexicon: Lexicon, cfg: SifConfig = SifConfig()
) -> VectorTable:
    """Description embeddings for every sense, as a table keyed by sense id.

    Description terms are whitespace-tokenized into one bag per sense, as
    the lexicon interned them. Token rows come from the (model, lexicon)
    pair's token -> row array, so compiled keywords reuse them. Each distinct
    found token is weighed once; a sense without a found token is omitted
    (one warning per call). The table holds one float64 matrix, a row per
    kept sense, in lexicon order.
    """
    ids, names = list(lexicon.senses), lexicon.interned.tokens
    tokens, offsets = _description_tokens(lexicon, range(len(ids)))
    rows = _token_rows(model, lexicon, tokens)
    freqs = load_word_frequencies(cfg.word_freq_source) if cfg.word_freq_source else {}
    found = rows >= 0
    tokens = tokens[found]
    needed = np.zeros(len(names), dtype=bool)
    needed[tokens] = True
    needed = np.flatnonzero(needed)
    words = list(map(names.__getitem__, needed.tolist()))
    p = np.fromiter(map(freqs.get, map(str.lower, words), map(freqs.get, words, repeat(0.0))),
                    np.float64, len(words))
    weight = np.empty(len(names))
    weight[needed] = SIF_SMOOTHING / (SIF_SMOOTHING + p)
    # Found occurrences before each occurrence, so per bag the bounds of its found ones.
    before = np.zeros(len(found) + 1, dtype=np.intp)
    found.cumsum(out=before[1:])
    bounds = before[offsets]
    kept, vectors = _weighted_means(model.matrix, rows[found], weight[tokens], bounds)
    omitted = np.flatnonzero(bounds[1:] == bounds[:-1])
    if len(omitted):
        logger.warning(
            "%d descriptions have no in-vocabulary tokens and were omitted (first: %s)",
            len(omitted), ", ".join(repr(ids[i]) for i in omitted[:3].tolist()),
        )
    if len(kept) >= 2:
        direction = _principal_direction(vectors)
        if direction is not None:
            for v in vectors:
                v -= float(np.dot(direction, v)) * direction
    return VectorTable(vectors, dict(zip(map(ids.__getitem__, kept.tolist()), range(len(kept)))))


def _active_contexts(
    model: EmbeddingModel, keyword: str, contexts: Sequence[Sequence[str]], cfg: ContextConfig
) -> list[ActiveContext]:
    """:func:`select_active_context` of each of one keyword's contexts.

    Every context's candidates are measured against the keyword by one kernel call.
    """
    kd_norm = keyword.lower()
    candidates: list[str] = []
    bounds = [0]
    for context_words in contexts:
        seen: set[str] = set()
        for word in context_words:
            norm = word.lower()
            if not norm or norm in seen:
                continue
            seen.add(norm)
            if norm in cfg.stopwords or norm == kd_norm:
                continue
            candidates.append(word)
        bounds.append(len(candidates))
    vectors = model.phrase_matrix([*candidates, keyword])
    kd_vec = vectors[-1]
    rel_all = relatedness_to(vectors[:-1], kd_vec)
    out = []
    for a, b in zip(bounds, bounds[1:]):
        rel, rows = rel_all[a:b], vectors[a:b]
        # NaN (an unrepresentable pair) fails the threshold comparison.
        kept = [i for i, r in enumerate(rel) if r >= cfg.threshold]
        top = rank_top(kept, rel, cfg.max_context, rows, kd_vec)
        out.append(ActiveContext(target=keyword, rows=rows[top],
                                 members=tuple((candidates[a + i], rel[i]) for i in top)))
    return out


def select_active_context(
    model: EmbeddingModel,
    context_words: Sequence[str],
    keyword: str,
    cfg: ContextConfig = ContextConfig(),
) -> ActiveContext:
    """Pick the context words most related to the keyword.

    Case-insensitive deduplication keeps first occurrences; stopwords and the
    keyword itself are dropped. Survivors are scored with word relatedness
    against the keyword, filtered at ``cfg.threshold``, sorted by descending
    score (ties keep input order), and truncated to ``cfg.max_context``.
    """
    if not keyword:
        raise ValueError("keyword must be nonempty")
    return _active_contexts(model, keyword, [context_words], cfg)[0]


def step1_base_scores(
    model: EmbeddingModel,
    lexicon: Lexicon,
    senses: Sequence[Sense],
    ca: ActiveContext,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> list[SenseScore]:
    """Mean sense-word relatedness against the active context, per sense.

    Every member has a direction, so a sense's score is its mean over all
    members; 0 for a sense with neither level measurable, or an empty context.
    """
    if not ca.members:
        return [SenseScore(sense.id, 0.0, 0.0) for sense in senses]
    (bases,) = sense_index(model, lexicon, senses).base_scores([ca.rows], weights)
    return [SenseScore(sense.id, base, base) for sense, base in zip(senses, bases)]


def _step2_parts(
    model: EmbeddingModel,
    lexicon: Lexicon,
    keywords: Sequence[Sequence[Sense]],
    strategy: Strategy,
    stopwords: frozenset[str],
) -> list[WordSets | DescriptionIndex | None]:
    """Per keyword (its senses), what its step 2 reads compiled; None for ``sif`` and ``docvec``."""
    if strategy is Strategy.OVERLAP:
        return [description_words(model, lexicon, senses, stopwords) for senses in keywords]
    if strategy is Strategy.AVERAGE or strategy is Strategy.TOP_K:
        return description_indexes(model, lexicon, keywords)
    return [None] * len(keywords)


def _strategy_strengths(
    model: EmbeddingModel,
    senses: Sequence[Sense],
    part: WordSets | DescriptionIndex | None,
    cas: Sequence[ActiveContext],
    params: AlgoParams,
    store: Optional[VectorTable],
) -> list[list[Optional[float]]]:
    """Per active context of one keyword (with members), the strategy strength in [0, 1] per sense.

    None where the inputs are unavailable. ``part`` is the keyword's
    :func:`_step2_parts` entry. The description table, or the store rows,
    are measured against all contexts by one kernel call.
    """
    if params.strategy is Strategy.OVERLAP:
        return [overlap(part, {w.lower() for w in ca.words}) for ca in cas]
    if params.strategy is Strategy.AVERAGE:
        return part.average([ca.rows for ca in cas])
    out = [[None] * len(senses)] * len(cas)  # rows are replaced, never changed
    if params.strategy is Strategy.TOP_K:
        kd_vec = model.phrase_matrix([cas[0].target])[0]
        with_kd = has_direction(kd_vec)
    kept, centroids, references = [], [], []
    for j, ca in enumerate(cas):
        # The members' centroid: a float64 sum in row order, then one division.
        rows = ca.rows
        centroid = np.add.reduce(rows, axis=0) / len(rows)
        if not has_direction(centroid):
            continue
        if params.strategy is Strategy.TOP_K:
            # topk's reference: the centroid of context + keyword.
            if with_kd:
                rows = np.vstack((rows, kd_vec))
            reference = np.add.reduce(rows, axis=0) / len(rows)
            if not has_direction(reference):
                continue
            references.append(reference)
        kept.append(j)
        centroids.append(centroid)
    if not kept:
        return out
    if params.strategy is Strategy.TOP_K:
        # Each sense's k description terms nearest to the reference, against the centroid.
        topk = part.topk_centroids(np.array(references), params.k)
        by_context = map(relatedness_to, topk, centroids)
    else:
        # Each sense's row of the store, gathered at once; a zero row for an id it lacks.
        at = np.array([store.index.get(sense.id, -1) for sense in senses], dtype=np.intp)
        store_rows = np.zeros((len(senses), store.dim))
        store_rows[at >= 0] = store.matrix[at[at >= 0]]
        by_context = relatedness_rows(store_rows, np.array(centroids)).T.tolist()
    # NaN: no term representable, id absent from the store, or a zero vector.
    for j, rel in zip(kept, by_context):
        out[j] = [r if r == r else None for r in rel]
    return out


def strategy_store(
    model: EmbeddingModel,
    strategy: Strategy,
    sif_store: Optional[VectorTable],
    docvec_store: Optional[DocVecStore],
) -> Optional[VectorTable]:
    """The per-sense vector table ``strategy`` reads; None if it reads none.

    Raises ConfigError when the strategy needs a store that is absent, or one
    whose dimension differs from the model's.
    """
    if strategy is Strategy.SIF:
        store, kind = sif_store, "description-embedding"
    elif strategy is Strategy.DOC_VEC:
        store, kind = docvec_store, "document-vector"
    else:
        return None
    if store is None:
        raise ConfigError(f"strategy '{strategy.value}' requires a {kind} store")
    if store.dim != model.dim:
        raise ConfigError(f"{kind} dimension {store.dim} != model dimension {model.dim}")
    return sif_store if strategy is Strategy.SIF else docvec_store.vectors


def _rescore(
    scores: Sequence[SenseScore], strengths: Sequence[Optional[float]]
) -> list[SenseScore]:
    """Step 2 of one context: every score gains (1 - maxScore) * its strength, if it has one."""
    factor = 1.0 - max(s.score for s in scores)
    out = []
    for s, strength in zip(scores, strengths):
        if strength is None:
            out.append(s)
            continue
        delta = factor * strength
        # Built directly: dataclasses.replace takes twice as long per score.
        out.append(SenseScore(s.sense_id, s.score + delta, s.step1, delta, s.step3_delta))
    return out


def step2_rescore(
    model: EmbeddingModel,
    lexicon: Lexicon,
    scores: Sequence[SenseScore],
    ca: ActiveContext,
    params: AlgoParams = AlgoParams(),
    sif_store: Optional[VectorTable] = None,
    docvec_store: Optional[DocVecStore] = None,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
) -> list[SenseScore]:
    """Add (1 - maxScore) * strategy strength to every sense's score.

    Senses whose strategy inputs are unavailable (all description terms out
    of vocabulary, sense id absent from a store) keep their score unchanged.
    An empty context leaves every score unchanged, under every strategy.
    """
    store = strategy_store(model, params.strategy, sif_store, docvec_store)
    senses = [lexicon.resolve(s.sense_id) for s in scores]
    if not (scores and ca.members):
        return list(scores)
    (part,) = _step2_parts(model, lexicon, [senses], params.strategy, stopwords)
    (strengths,) = _strategy_strengths(model, senses, part, [ca], params, store)
    return _rescore(scores, strengths)


def norm_freq(sense: Sense, total_freq: float, a: float = 0.5) -> float:
    """Square-root-damped relative frequency: sqrt(a * freq / total + b), b = 1 - a."""
    if total_freq <= 0:
        raise ValueError("total frequency must be positive")
    return math.sqrt(a * sense.frequency / total_freq + (1.0 - a))


def step3_frequency(
    scores: Sequence[SenseScore],
    senses: Sequence[Sense],
    params: AlgoParams = AlgoParams(),
) -> list[SenseScore]:
    """Boost senses within the proximity gate by (1 - maxScore) * normFreq.

    Only senses with score strictly above proximity_factor * maxScore are
    boosted. When every candidate frequency is zero the step is skipped.
    """
    by_id = {s.id: s for s in senses}
    total = sum(s.frequency for s in senses)
    if not scores or total <= 0:
        return list(scores)
    max_score = max(s.score for s in scores)
    factor = 1.0 - max_score
    gate = params.proximity_factor * max_score
    out = []
    for s in scores:
        if s.score > gate:
            boost = factor * norm_freq(by_id[s.sense_id], total, params.freq_a)
            out.append(SenseScore(s.sense_id, s.score + boost, s.step1, s.step2_delta, boost))
        else:
            out.append(s)
    return out


@dataclass(frozen=True)
class DisambiguationResult:
    """Ranked senses for one keyword, with the context that produced them."""

    keyword: str
    active_context: ActiveContext
    scores: tuple[SenseScore, ...]

    @property
    def top(self) -> SenseScore:
        return self.scores[0]

    def to_dict(self) -> dict:
        return {
            "keyword": self.keyword,
            "active_context": self.active_context.to_json(),
            "senses": [s.to_json() for s in self.scores],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _disambiguate_batch(
    model: EmbeddingModel,
    lexicon: Lexicon,
    targets: Sequence[tuple[str, Sequence[str]]],
    cfg: ContextConfig,
    params: AlgoParams,
    store: Optional[VectorTable],
) -> list[Optional[DisambiguationResult]]:
    """Rank the senses of each (keyword, context words) target: the one scoring path.

    None for a keyword without senses; ``store`` is :func:`strategy_store`'s.
    Targets are grouped by keyword. An empty active context is settled at
    once: steps 1-3 give it every sense at 0.0, with zero deltas, under every
    strategy. The keywords that a context with members measures compile
    together where they have not yet, one batch per compiled part; then
    each keyword's step 1 and step 2 measure all those contexts at once.
    Every result equals the one its target gets alone.
    """
    groups: dict[str, list[int]] = {}
    for j, (keyword, _) in enumerate(targets):
        groups.setdefault(keyword, []).append(j)
    out: list[Optional[DisambiguationResult]] = [None] * len(targets)
    measured = []  # (keyword, senses, target positions and active contexts with members)
    for keyword, positions in groups.items():
        senses = lexicon.senses_of(keyword)
        if not senses:
            continue
        cas = _active_contexts(model, keyword, [targets[j][1] for j in positions], cfg)
        kept = []
        for j, ca in zip(positions, cas):
            if ca.members:
                kept.append((j, ca))
            else:
                # Steps 1-3 give an empty context every sense at 0.0, in lexicon order.
                scores = tuple(SenseScore(sense.id, 0.0, 0.0) for sense in senses)
                out[j] = DisambiguationResult(keyword=keyword, active_context=ca, scores=scores)
        if kept:
            measured.append((keyword, senses, kept))
    keywords = [senses for _, senses, _ in measured]
    indexes = sense_indexes(model, lexicon, keywords)
    parts = _step2_parts(model, lexicon, keywords, params.strategy, cfg.stopwords)
    for (keyword, senses, kept), index, part in zip(measured, indexes, parts):
        positions, cas = zip(*kept)
        bases = index.base_scores([ca.rows for ca in cas], params.weights)
        strengths = _strategy_strengths(model, senses, part, cas, params, store)
        for j, ca, base, strength in zip(positions, cas, bases, strengths):
            scores = [SenseScore(sense.id, b, b) for sense, b in zip(senses, base)]
            scores = step3_frequency(_rescore(scores, strength), senses, params)
            ranked = sorted(scores, key=lambda s: -s.score)
            out[j] = DisambiguationResult(keyword=keyword, active_context=ca, scores=tuple(ranked))
    return out


def disambiguate(
    model: EmbeddingModel,
    lexicon: Lexicon,
    keyword: str,
    context_words: Sequence[str],
    cfg: ContextConfig = ContextConfig(),
    params: AlgoParams = AlgoParams(),
    sif_store: Optional[VectorTable] = None,
    docvec_store: Optional[DocVecStore] = None,
) -> DisambiguationResult:
    """Rank the senses of ``keyword`` against its context: a batch of one.

    Raises UnmeasurableError for keywords without senses. The returned ranking is
    sorted by descending score; ties keep lexicon file order.
    """
    if not lexicon.senses_of(keyword):
        raise UnmeasurableError(f"unknown keyword: {keyword!r}")
    store = strategy_store(model, params.strategy, sif_store, docvec_store)
    (result,) = _disambiguate_batch(model, lexicon, [(keyword, context_words)], cfg, params, store)
    return result
