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
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .compiled import (
    _description_tokens,
    _token_rows,
    description_index,
    description_words,
    sense_index,
)
from .embeddings import EmbeddingModel, VectorTable, _lines_left
from .errors import ConfigError, ParseError, UnmeasurableError, json_lines
from .lexicon import Lexicon, Sense
from .relatedness import (
    DEFAULT_WEIGHTS,
    RelWeights,
    SifConfig,
    has_direction,
    rank_top,
    relatedness_to,
    sif_vectors,
)
from .stopwords import default_stopwords

class Strategy(str, Enum):
    """How step 2 compares the active context with sense descriptions."""

    OVERLAP = "overlap"
    AVERAGE = "average"
    SIF = "sif"
    TOP_K = "topk"
    DOC_VEC = "docvec"


@dataclass(frozen=True)
class ContextConfig:
    """Active-context selection settings."""

    max_context: int = 4
    threshold: float = 0.5
    stopwords: frozenset[str] = field(default_factory=default_stopwords)

    def __post_init__(self) -> None:
        if self.max_context < 1:
            raise ValueError("max_context must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


@dataclass(frozen=True)
class AlgoParams:
    """Scoring parameters for the three-step algorithm."""

    weights: RelWeights = DEFAULT_WEIGHTS
    proximity_factor: float = 0.75
    freq_a: float = 0.5
    freq_b: float = 0.5
    strategy: Strategy = Strategy.TOP_K
    k: int = 15

    def __post_init__(self) -> None:
        if not 0.0 <= self.proximity_factor <= 1.0:
            raise ValueError("proximity_factor must lie in [0, 1]")
        # Written so that NaN fails the check.
        if not (self.freq_a >= 0 and self.freq_b >= 0
                and abs(self.freq_a + self.freq_b - 1.0) <= 1e-9):
            raise ValueError("freq_a and freq_b must be >= 0 and sum to 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")


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
    pair's token -> row array, so compiled keywords reuse them.
    """
    interned = lexicon.interned
    tokens, offsets = _description_tokens(lexicon, range(len(interned.senses)))
    rows = _token_rows(model, lexicon, tokens)
    return sif_vectors(model, list(lexicon.senses), offsets, tokens, rows, interned.tokens, cfg)


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
    kd_norm = keyword.lower()
    seen: set[str] = set()
    candidates: list[str] = []
    for word in context_words:
        norm = word.lower()
        if not norm or norm in seen:
            continue
        seen.add(norm)
        if norm in cfg.stopwords or norm == kd_norm:
            continue
        candidates.append(word)
    vectors = model.phrase_matrix(candidates)
    kd_vec = model.phrase_matrix([keyword])[0]
    rel = relatedness_to(vectors, kd_vec)
    # NaN (an unrepresentable pair) fails the threshold comparison.
    kept = [i for i, r in enumerate(rel) if r >= cfg.threshold]
    top = rank_top(kept, rel, cfg.max_context, vectors, kd_vec)
    return ActiveContext(
        target=keyword, members=tuple((candidates[i], rel[i]) for i in top), rows=vectors[top]
    )


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
        return [SenseScore(sense_id=sense.id, score=0.0, step1=0.0) for sense in senses]
    index = sense_index(model, lexicon, senses)
    bases = index.base_scores(ca.rows, weights)
    return [
        SenseScore(sense_id=sense.id, score=base, step1=base)
        for sense, base in zip(senses, bases)
    ]


def _strategy_strengths(
    model: EmbeddingModel,
    lexicon: Lexicon,
    senses: Sequence[Sense],
    ca: ActiveContext,
    params: AlgoParams,
    store: Optional[VectorTable],
    stopwords: frozenset[str],
) -> list[Optional[float]]:
    """Strategy strength in [0, 1] per sense, or None where the inputs are unavailable."""
    if params.strategy is Strategy.OVERLAP:
        words = description_words(model, lexicon, senses, stopwords)
        return words.overlap({w.lower() for w in ca.words})
    if not ca.members:
        return [None] * len(senses)
    if params.strategy is Strategy.AVERAGE:
        return description_index(model, lexicon, senses).average(ca.rows)
    # The members' centroid: a float64 sum in row order, then one division.
    rows = ca.rows
    ca_centroid = np.add.reduce(rows, axis=0) / len(rows)
    if not has_direction(ca_centroid):
        return [None] * len(senses)
    if params.strategy is Strategy.TOP_K:
        # Each sense's k description terms nearest to the centroid of context + keyword.
        kd_vec = model.phrase_matrix([ca.target])[0]
        if has_direction(kd_vec):
            rows = np.vstack((rows, kd_vec))
        reference = np.add.reduce(rows, axis=0) / len(rows)
        if not has_direction(reference):
            return [None] * len(senses)
        index = description_index(model, lexicon, senses)
        rel = relatedness_to(index.topk_centroids(reference, params.k), ca_centroid)
    else:
        # Each sense's row of the store, gathered at once; a zero row for an id it lacks.
        at = np.array([store.index.get(sense.id, -1) for sense in senses], dtype=np.intp)
        store_rows = np.zeros((len(senses), store.dim))
        store_rows[at >= 0] = store.matrix[at[at >= 0]]
        rel = relatedness_to(store_rows, ca_centroid)
    # NaN: no term representable, id absent from the store, or a zero vector.
    return [r if r == r else None for r in rel]


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


def step2_rescore(
    model: EmbeddingModel,
    lexicon: Lexicon,
    scores: Sequence[SenseScore],
    ca: ActiveContext,
    params: AlgoParams = AlgoParams(),
    sif_store: Optional[VectorTable] = None,
    docvec_store: Optional[DocVecStore] = None,
    stopwords: frozenset[str] | None = None,
) -> list[SenseScore]:
    """Add (1 - maxScore) * strategy strength to every sense's score.

    Senses whose strategy inputs are unavailable (all description terms out
    of vocabulary, sense id absent from a store, empty context for the
    centroid strategies) keep their step-1 score unchanged.
    """
    store = strategy_store(model, params.strategy, sif_store, docvec_store)
    stop = default_stopwords() if stopwords is None else stopwords
    if not scores:
        return []
    max_score = max(s.score for s in scores)
    factor = 1.0 - max_score
    senses = [lexicon.resolve(s.sense_id) for s in scores]
    strengths = _strategy_strengths(model, lexicon, senses, ca, params, store, stop)
    out = []
    for s, strength in zip(scores, strengths):
        if strength is None:
            out.append(s)
            continue
        delta = factor * strength
        # Built directly: dataclasses.replace takes twice as long per score.
        out.append(SenseScore(s.sense_id, s.score + delta, s.step1, delta, s.step3_delta))
    return out


def norm_freq(sense: Sense, total_freq: float, a: float = 0.5, b: float = 0.5) -> float:
    """Square-root-damped relative frequency: sqrt(a * freq / total + b)."""
    if total_freq <= 0:
        raise ValueError("total frequency must be positive")
    return math.sqrt(a * sense.frequency / total_freq + b)


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
            boost = factor * norm_freq(by_id[s.sense_id], total, params.freq_a, params.freq_b)
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
    """Rank the senses of ``keyword`` against its context.

    Raises UnmeasurableError for keywords without senses. The returned ranking is
    sorted by descending score; ties keep lexicon file order.
    """
    senses = lexicon.senses_of(keyword)
    if not senses:
        raise UnmeasurableError(f"unknown keyword: {keyword!r}")
    ca = select_active_context(model, context_words, keyword, cfg)
    scores = step1_base_scores(model, lexicon, senses, ca, params.weights)
    scores = step2_rescore(
        model, lexicon, scores, ca, params, sif_store, docvec_store, cfg.stopwords
    )
    scores = step3_frequency(scores, senses, params)
    ranked = sorted(scores, key=lambda s: -s.score)
    return DisambiguationResult(keyword=keyword, active_context=ca, scores=tuple(ranked))
