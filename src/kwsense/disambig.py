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
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .embeddings import EmbeddingModel, Vector, centroid
from .errors import ConfigError, ParseError, UnmeasurableError
from .lexicon import Lexicon, Sense
from .relatedness import (
    DEFAULT_WEIGHTS,
    RelWeights,
    SifConfig,
    combine_levels,
    core_context_senses,
    mean_skip_missing,
    relatedness_matrix,
    sif_embeddings,
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
        if self.freq_a < 0 or self.freq_b < 0 or abs(self.freq_a + self.freq_b - 1.0) > 1e-9:
            raise ValueError("freq_a and freq_b must be >= 0 and sum to 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class ActiveContext:
    """Context words kept for scoring: deduplicated, stopword-free, related to the target.

    Members are (word, relatedness-to-target) pairs sorted by descending
    relatedness; ties keep their original input order. The target itself is
    never a member.
    """

    target: str
    members: tuple[tuple[str, float], ...] = ()

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
    """Precomputed per-sense document vectors for the DOC_VEC strategy."""

    vectors: dict[str, Vector]
    dim: int


def load_docvec_store(path: str | Path) -> DocVecStore:
    """Load a JSONL document-vector store: one {"id", "vector"} object per line."""
    path = Path(path)
    vectors: dict[str, Vector] = {}
    dim: int | None = None
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: invalid JSON: {exc.msg}") from None
            if not isinstance(obj, dict) or "id" not in obj or "vector" not in obj:
                raise ParseError(f"{where}: expected an object with 'id' and 'vector'")
            sense_id, raw = obj["id"], obj["vector"]
            if not isinstance(sense_id, str) or not sense_id:
                raise ParseError(f"{where}: id must be a nonempty string")
            if not isinstance(raw, list) or not raw:
                raise ParseError(f"{where}: vector must be a nonempty list of numbers")
            try:
                vec = np.array(raw, dtype=np.float64)
            except (TypeError, ValueError):
                raise ParseError(f"{where}: vector must be a list of numbers") from None
            if vec.ndim != 1 or not np.all(np.isfinite(vec)):
                raise ParseError(f"{where}: vector components must be finite numbers")
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise ParseError(f"{where}: expected {dim} components, got {vec.shape[0]}")
            if sense_id in vectors:
                raise ParseError(f"{where}: duplicate id {sense_id!r}")
            vectors[sense_id] = vec
    if dim is None:
        raise ParseError(f"{path}: no document vectors found")
    return DocVecStore(vectors=vectors, dim=dim)


def build_sif_store(
    model: EmbeddingModel, lexicon: Lexicon, cfg: SifConfig = SifConfig()
) -> dict[str, Vector]:
    """Description embeddings for every sense, keyed by sense id.

    Description terms are whitespace-tokenized into one bag per sense.
    """
    descriptions = {
        sense.id: [tok for term in sense.description_terms for tok in term.split()]
        for sense in lexicon.senses.values()
    }
    return sif_embeddings(model, descriptions, cfg)


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
    rel = relatedness_matrix(
        [model.phrase_vector(word) for word in candidates], [model.phrase_vector(keyword)]
    )[:, 0].tolist()
    # NaN (an unrepresentable pair) fails the threshold comparison.
    scored = [(word, r) for word, r in zip(candidates, rel) if r >= cfg.threshold]
    scored.sort(key=lambda member: -member[1])
    return ActiveContext(target=keyword, members=tuple(scored[: cfg.max_context]))


def step1_base_scores(
    model: EmbeddingModel,
    lexicon: Optional[Lexicon],
    senses: Sequence[Sense],
    ca: ActiveContext,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> list[SenseScore]:
    """Mean sense-word relatedness against the active context, per sense.

    Context members the sense cannot be related to are skipped with the
    denominator reduced; an empty (or fully missing) context yields 0.
    """
    if not ca.members:
        return [SenseScore(sense_id=sense.id, score=0.0, step1=0.0) for sense in senses]
    phrases: dict[str, int] = {}
    plans = [
        (
            _phrase_ids(phrases, sense.synonyms),
            [_phrase_ids(phrases, m.synonyms) for m in core_context_senses(lexicon, sense)],
        )
        for sense in senses
    ]
    by_word = _relatedness_by_word(model, phrases, ca.words)
    out = []
    for sense, (synonyms, members) in zip(senses, plans):
        per_word = []
        for rel in by_word:
            r0 = mean_skip_missing(rel[i] for i in synonyms)
            r1 = None
            if members:
                r1 = mean_skip_missing(mean_skip_missing(rel[i] for i in m) for m in members)
            per_word.append(combine_levels(r0, r1, weights))
        base = mean_skip_missing(per_word)
        if base is None:
            base = 0.0
        out.append(SenseScore(sense_id=sense.id, score=base, step1=base))
    return out


def _phrase_ids(phrases: dict[str, int], items: Iterable[str]) -> list[int]:
    """Rows of ``items`` in the call's distinct-phrase table, adding new phrases."""
    return [phrases.setdefault(p, len(phrases)) for p in items]


def _relatedness_by_word(
    model: EmbeddingModel, phrases: dict[str, int], words: Sequence[str]
) -> list[list[float]]:
    """One list per word: the relatedness of every gathered phrase to it (NaN if missing)."""
    return relatedness_matrix(
        [model.phrase_vector(p) for p in phrases], [model.phrase_vector(w) for w in words]
    ).T.tolist()


def _normalized_word_set(terms: Iterable[str], stopwords: frozenset[str]) -> set[str]:
    return {
        tok
        for term in terms
        for tok in term.lower().split()
        if tok and tok not in stopwords
    }


def overlap(
    ca: ActiveContext,
    description: Iterable[str],
    stopwords: frozenset[str] | None = None,
) -> float:
    """Set overlap between active-context words and description words.

    Description terms are lowercased, whitespace-split, and stripped of
    stopwords; context members are compared as whole lowercased entries.
    Returns |description & context| / min(|description|, |context|),
    or 0 when either side is empty.
    """
    stop = default_stopwords() if stopwords is None else stopwords
    ca_words = {w.lower() for w in ca.words}
    desc_words = _normalized_word_set(description, stop)
    if not ca_words or not desc_words:
        return 0.0
    return len(desc_words & ca_words) / min(len(desc_words), len(ca_words))


def _context_vectors(model: EmbeddingModel, ca: ActiveContext) -> list[Vector]:
    out = []
    for word, _ in ca.members:
        v = model.phrase_vector(word)
        if v is not None and v.any():
            out.append(v)
    return out


def _nonzero_centroid(vectors: Sequence[Vector]) -> Optional[Vector]:
    if not vectors:
        return None
    c = centroid(vectors)
    return c if c.any() else None


def _average_strengths(
    model: EmbeddingModel, senses: Sequence[Sense], ca: ActiveContext
) -> list[Optional[float]]:
    """Mean word relatedness over (context word, description term) pairs, per sense."""
    if not ca.words:
        return [None] * len(senses)
    terms: dict[str, int] = {}
    plans = [_phrase_ids(terms, sense.description_terms) for sense in senses]
    by_word = _relatedness_by_word(model, terms, ca.words)
    return [
        mean_skip_missing(rel[i] for rel in by_word for i in ids) if ids else None
        for ids in plans
    ]


def _topk_centroids(
    model: EmbeddingModel,
    senses: Sequence[Sense],
    ca: ActiveContext,
    ca_vectors: Sequence[Vector],
    k: int,
) -> list[Optional[Vector]]:
    """Per sense, the centroid of the k description-term vectors nearest to the
    centroid of context + keyword; None when no term is representable."""
    reference_parts = list(ca_vectors)
    kd_vec = model.phrase_vector(ca.target)
    if kd_vec is not None and kd_vec.any():
        reference_parts.append(kd_vec)
    reference = _nonzero_centroid(reference_parts)
    if reference is None:
        return [None] * len(senses)
    terms: dict[str, int] = {}
    plans = [_phrase_ids(terms, sense.description_terms) for sense in senses]
    vectors = [model.phrase_vector(t) for t in terms]
    rel = relatedness_matrix(vectors, [reference])[:, 0].tolist()
    out: list[Optional[Vector]] = []
    for ids in plans:
        # NaN marks an unrepresentable term; the stable sort keeps term order on ties.
        present = [i for i in ids if rel[i] == rel[i]]
        ranked = sorted(present, key=lambda i: -rel[i])
        out.append(centroid([vectors[i] for i in ranked[:k]]) if ranked else None)
    return out


def _strategy_strengths(
    model: EmbeddingModel,
    senses: Sequence[Sense],
    ca: ActiveContext,
    params: AlgoParams,
    store: Mapping[str, Vector],
    stopwords: frozenset[str],
) -> list[Optional[float]]:
    """Strategy strength in [0, 1] per sense, or None where the inputs are unavailable."""
    if params.strategy is Strategy.OVERLAP:
        return [overlap(ca, sense.description_terms, stopwords) for sense in senses]
    if params.strategy is Strategy.AVERAGE:
        return _average_strengths(model, senses, ca)
    ca_vectors = _context_vectors(model, ca)
    ca_centroid = _nonzero_centroid(ca_vectors)
    if ca_centroid is None:
        return [None] * len(senses)
    if params.strategy is Strategy.TOP_K:
        sense_vectors = _topk_centroids(model, senses, ca, ca_vectors, params.k)
    else:
        sense_vectors = [store.get(sense.id) for sense in senses]
    rel = relatedness_matrix(sense_vectors, [ca_centroid])[:, 0].tolist()
    return [r if r == r else None for r in rel]


def strategy_store(
    model: EmbeddingModel,
    strategy: Strategy,
    sif_store: Optional[Mapping[str, Vector]],
    docvec_store: Optional[DocVecStore],
) -> Mapping[str, Vector]:
    """The per-sense vector store ``strategy`` reads; empty if it reads none.

    Raises ConfigError when the strategy needs a store that is absent, or a
    document-vector store whose dimension differs from the model's.
    """
    if strategy is Strategy.SIF:
        if sif_store is None:
            raise ConfigError("strategy 'sif' requires a description-embedding store")
        return sif_store
    if strategy is Strategy.DOC_VEC:
        if docvec_store is None:
            raise ConfigError("strategy 'docvec' requires a document-vector store")
        if docvec_store.dim != model.dim:
            raise ConfigError(
                f"document-vector dimension {docvec_store.dim} != model dimension {model.dim}"
            )
        return docvec_store.vectors
    return {}


def step2_rescore(
    model: EmbeddingModel,
    lexicon: Optional[Lexicon],
    scores: Sequence[SenseScore],
    ca: ActiveContext,
    params: AlgoParams = AlgoParams(),
    sif_store: Optional[dict[str, Vector]] = None,
    docvec_store: Optional[DocVecStore] = None,
    stopwords: frozenset[str] | None = None,
) -> list[SenseScore]:
    """Add (1 - maxScore) * strategy strength to every sense's score.

    Senses whose strategy inputs are unavailable (all description terms out
    of vocabulary, sense id absent from a store, empty context for the
    centroid strategies) keep their step-1 score unchanged.
    """
    store = strategy_store(model, params.strategy, sif_store, docvec_store)
    if lexicon is None:
        raise ConfigError("step 2 requires the lexicon that defined the senses")
    stop = default_stopwords() if stopwords is None else stopwords
    if not scores:
        return []
    max_score = max(s.score for s in scores)
    factor = 1.0 - max_score
    senses = [lexicon.resolve(s.sense_id) for s in scores]
    strengths = _strategy_strengths(model, senses, ca, params, store, stop)
    out = []
    for s, strength in zip(scores, strengths):
        if strength is None:
            out.append(replace(s))
            continue
        delta = factor * strength
        out.append(replace(s, score=s.score + delta, step2_delta=delta))
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
        return [replace(s) for s in scores]
    max_score = max(s.score for s in scores)
    factor = 1.0 - max_score
    gate = params.proximity_factor * max_score
    out = []
    for s in scores:
        if s.score > gate:
            boost = factor * norm_freq(by_id[s.sense_id], total, params.freq_a, params.freq_b)
            out.append(replace(s, score=s.score + boost, step3_delta=boost))
        else:
            out.append(replace(s))
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
    sif_store: Optional[dict[str, Vector]] = None,
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
