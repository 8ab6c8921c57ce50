"""Semantic relatedness between words and senses.

The word-level measure maps cosine similarity to [0, 1] through the angular
distance: rel(x, y) = 1 - arccos(cos(x, y)) / pi. Sense-level relatedness
averages the word-level measure over synonym sets (level 0) and over the
senses' core contexts (level 1), then combines the two levels with weights
that sum to one.

Out-of-vocabulary inputs are a first-class "missing" outcome (returned as
None by the ``*_maybe`` aggregations): missing pairs are skipped with the
denominator reduced accordingly, and an error is raised only when nothing
measurable remains.

Pairs are measured by one kernel, :func:`relatedness_matrix`: it takes two
lists of phrase vectors (``None`` or a zero vector marks a missing one) and
returns the relatedness of every pair, NaN where either side is missing.
The disambiguation steps gather their phrases once per call and measure
them in one or two kernel calls per step; :func:`rel_words` is the 1 x 1
case, and the scalar :func:`cosine` shares the kernel's cosine routine, so
the exact-endpoint rule lives in one place. arccos is ill-conditioned at
+/-1, so entries with |cos| > 0.999999 are checked for exactly equal (or
exactly negated) vectors and set to the exact endpoint; the other flagged
entries are recomputed with sums in index order, so they round the same way
whatever the bulk product does. The kernel stacks at most ``_BLOCK_ROWS``
rows at a time and forms products with ``einsum`` instead of a BLAS matrix
product (``@``): stacking every row of a call at once, or one BLAS matrix
product, each raised a process's peak resident memory by far more than the
0.6 MB of a block at dim 300. The einsum loop also computes every entry the
same way, so identical vectors score identically and ties keep their input
order.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .embeddings import EmbeddingModel, Vector
from .errors import ParseError, UnmeasurableError
from .lexicon import Lexicon, Sense

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RelWeights:
    """Mixing weights for the two relatedness levels; must be >= 0 and sum to 1."""

    w0: float = 0.5
    w1: float = 0.5

    def __post_init__(self) -> None:
        if self.w0 < 0 or self.w1 < 0:
            raise ValueError("level weights must be >= 0")
        if abs(self.w0 + self.w1 - 1.0) > 1e-9:
            raise ValueError(f"level weights must sum to 1, got {self.w0} + {self.w1}")

    @classmethod
    def split(cls, w0: float) -> "RelWeights":
        return cls(w0=w0, w1=1.0 - w0)


DEFAULT_WEIGHTS = RelWeights(0.5, 0.5)


# Rows stacked per kernel block: ~0.6 MB of float64 at dim 300.
_BLOCK_ROWS = 256
# Beyond this |cos| arccos is ill-conditioned: one rounding unit of the
# cosine moves relatedness by 1e-13 here and by up to 1e-8 at +/-1.
_NEAR_ENDPOINT = 0.999999


def _ordered_dot(u: Vector, v: Vector) -> float:
    """Dot product summed in index order, the order of the defining formula."""
    return float(np.add.accumulate(u * v)[-1])


def _cosines(
    rows: np.ndarray, cols: np.ndarray, row_norms: np.ndarray, col_norms: np.ndarray
) -> np.ndarray:
    """Cosine of every (row, col) pair of two matrices with nonzero row norms, in [-1, 1].

    Exactly parallel (antiparallel) vectors get exactly 1 (-1), so they do not
    lose their endpoint to rounding in the norm product. Other entries near
    the endpoints are recomputed with sums in index order, so their rounding
    does not depend on how the bulk product groups its terms.
    """
    c = np.einsum("ik,jk->ij", rows, cols) / (row_norms[:, None] * col_norms[None, :])
    for i, j in np.argwhere(np.abs(c) > _NEAR_ENDPOINT):
        u, v = rows[i], cols[j]
        if np.array_equal(u, v):
            c[i, j] = 1.0
        elif np.array_equal(u, np.negative(v)):
            c[i, j] = -1.0
        else:
            norms = math.sqrt(_ordered_dot(u, u)) * math.sqrt(_ordered_dot(v, v))
            c[i, j] = _ordered_dot(u, v) / norms
    return np.clip(c, -1.0, 1.0, out=c)


def cosine(v1: Vector, v2: Vector) -> float:
    """Cosine similarity, clamped to [-1, 1]; zero vectors are rejected."""
    if v1.shape != v2.shape:
        raise ValueError(f"dimension mismatch: {v1.shape[0]} vs {v2.shape[0]}")
    n1 = float(np.dot(v1, v1))
    n2 = float(np.dot(v2, v2))
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("undefined cosine for zero vector")
    norms = np.sqrt([n1, n2])
    return float(_cosines(v1[None, :], v2[None, :], norms[:1], norms[1:])[0, 0])


def angular_relatedness(v1: Vector, v2: Vector) -> float:
    """1 - arccos(cosine(v1, v2)) / pi; 1 for parallel, 0.5 orthogonal, 0 antiparallel."""
    return 1.0 - math.acos(cosine(v1, v2)) / math.pi


def _stack_directed(
    vectors: Sequence[Optional[Vector]], ids: list[int]
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Rows and norms of the given vectors, dropping those whose squared norm is 0."""
    mat = np.array([vectors[i] for i in ids])
    norms = np.sqrt(np.einsum("ik,ik->i", mat, mat))
    directed = norms > 0.0
    if directed.all():
        return ids, mat, norms
    kept = [i for i, keep in zip(ids, directed.tolist()) if keep]
    return kept, mat[directed], norms[directed]


def relatedness_matrix(
    rows: Sequence[Optional[Vector]], cols: Sequence[Optional[Vector]]
) -> np.ndarray:
    """Angular relatedness of every (row, col) vector pair; NaN where either is missing.

    ``None`` and zero vectors (squared norm 0, which includes vectors so small
    that it underflows) are missing. Rows are processed in blocks of at most
    ``_BLOCK_ROWS``, so put the longer list first.
    """
    out = np.full((len(rows), len(cols)), np.nan)
    row_ids = [i for i, v in enumerate(rows) if v is not None]
    col_ids = [j for j, v in enumerate(cols) if v is not None]
    if not row_ids or not col_ids:
        return out
    col_ids, col_mat, col_norms = _stack_directed(cols, col_ids)
    if not col_ids:
        return out
    for start in range(0, len(row_ids), _BLOCK_ROWS):
        block, row_mat, row_norms = _stack_directed(rows, row_ids[start : start + _BLOCK_ROWS])
        if block:
            c = _cosines(row_mat, col_mat, row_norms, col_norms)
            out[np.ix_(block, col_ids)] = 1.0 - np.arccos(c) / math.pi
    return out


def rel_words(model: EmbeddingModel, x: str, y: str) -> Optional[float]:
    """Angular relatedness between two words or phrases; None if either is unrepresentable.

    Phrases are averaged tokenwise via the model; a phrase whose found tokens
    average to the zero vector carries no direction and also counts as missing.
    """
    r = relatedness_matrix([model.phrase_vector(x)], [model.phrase_vector(y)])[0, 0]
    return None if math.isnan(r) else float(r)


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


# Resolves core-context labels into pseudo-senses when no lexicon is given.
_LABELS_ONLY = Lexicon(senses={})


def core_context_senses(lexicon: Optional[Lexicon], sense: Sense) -> list[Sense]:
    """Core-context members as senses, resolved through ``Lexicon.resolve_context``.

    Without a lexicon only bare labels can be resolved; a reference raises.
    """
    if lexicon is None:
        for ref in sense.core_context:
            if ref.is_ref:
                raise ValueError(
                    f"sense {sense.id!r}: core-context reference {ref.value!r} needs a lexicon"
                )
        lexicon = _LABELS_ONLY
    return [lexicon.resolve_context(ref) for ref in sense.core_context]


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


def rel0_senses(model: EmbeddingModel, a: Sense, b: Sense) -> Optional[float]:
    """Mean word relatedness over the two synonym sets; None when no pair is measurable."""
    return mean_skip_missing(
        rel_words(model, sa, sb) for sa in a.synonyms for sb in b.synonyms
    )


def rel1_senses(
    model: EmbeddingModel, lexicon: Optional[Lexicon], a: Sense, b: Sense
) -> Optional[float]:
    """Mean level-0 relatedness over the two core contexts; None when either is empty."""
    oc_a = core_context_senses(lexicon, a)
    oc_b = core_context_senses(lexicon, b)
    if not oc_a or not oc_b:
        return None
    return mean_skip_missing(rel0_senses(model, x, y) for x in oc_a for y in oc_b)


def rel_senses_maybe(
    model: EmbeddingModel,
    lexicon: Optional[Lexicon],
    a: Sense,
    b: Sense,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> Optional[float]:
    return combine_levels(
        rel0_senses(model, a, b), rel1_senses(model, lexicon, a, b), weights
    )


def rel_senses(
    model: EmbeddingModel,
    lexicon: Optional[Lexicon],
    a: Sense,
    b: Sense,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> float:
    """Two-level relatedness between senses; raises when neither level is measurable."""
    r = rel_senses_maybe(model, lexicon, a, b, weights)
    if r is None:
        raise UnmeasurableError(f"senses not representable in model: {a.id!r}, {b.id!r}")
    return r


def rel0_sense_word(model: EmbeddingModel, t: Sense, w: str) -> Optional[float]:
    """Mean word relatedness between a sense's synonyms and a word."""
    return mean_skip_missing(rel_words(model, syn, w) for syn in t.synonyms)


def rel1_sense_word(
    model: EmbeddingModel, lexicon: Optional[Lexicon], t: Sense, w: str
) -> Optional[float]:
    """Mean level-0 sense-word relatedness over the sense's core context."""
    oc = core_context_senses(lexicon, t)
    if not oc:
        return None
    return mean_skip_missing(rel0_sense_word(model, member, w) for member in oc)


def rel_sense_word_maybe(
    model: EmbeddingModel,
    lexicon: Optional[Lexicon],
    t: Sense,
    w: str,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> Optional[float]:
    return combine_levels(
        rel0_sense_word(model, t, w), rel1_sense_word(model, lexicon, t, w), weights
    )


def rel_sense_word(
    model: EmbeddingModel,
    lexicon: Optional[Lexicon],
    t: Sense,
    w: str,
    weights: RelWeights = DEFAULT_WEIGHTS,
) -> float:
    """Two-level relatedness between a sense and a word; raises when unmeasurable."""
    r = rel_sense_word_maybe(model, lexicon, t, w, weights)
    if r is None:
        raise UnmeasurableError(f"not representable in model: sense {t.id!r} vs word {w!r}")
    return r


# ---------------------------------------------------------------------------
# Smoothed-inverse-frequency sentence embeddings for sense descriptions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SifConfig:
    """Settings for description embeddings.

    ``smoothing`` is the additive constant in the token weight
    smoothing / (smoothing + p(token)); ``word_freq_source`` optionally names
    a token-frequency table ("token count" per line) from which p is taken as
    relative frequency (p = 0 when absent, i.e. weight 1). Without a table all
    tokens weigh the same and each embedding is the plain centroid.
    ``remove_component`` subtracts the first principal direction of the
    embedding set, which cancels the shared component that dominates
    smoothed averages.
    """

    smoothing: float = 1e-3
    word_freq_source: str | Path | None = None
    remove_component: bool = True

    def __post_init__(self) -> None:
        if self.smoothing <= 0:
            raise ValueError("smoothing must be > 0")


def load_word_frequencies(path: str | Path) -> dict[str, float]:
    """Load a token frequency table ("token count" per line) as relative frequencies."""
    path = Path(path)
    counts: dict[str, int] = {}
    total = 0
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) <= 0:
                raise ParseError(f"{path}: line {lineno}: expected 'token count'")
            token, count = parts[0], int(parts[1])
            counts[token] = counts.get(token, 0) + count
            total += count
    if not counts:
        raise ParseError(f"{path}: no frequency entries found")
    return {token: count / total for token, count in counts.items()}


def _principal_direction(vectors: Sequence[Vector]) -> Optional[Vector]:
    """First principal direction of the centered vector set, by power iteration.

    Deterministic: starts from the normalized all-ones vector and runs at most
    100 iterations or until the iterate moves by less than 1e-9. Returns None
    when the centered set is degenerate (all rows ~ zero).
    """
    m = np.stack(vectors)
    m = m - m.mean(axis=0)
    dim = m.shape[1]
    u = np.ones(dim) / math.sqrt(dim)
    for _ in range(100):
        w = m.T @ (m @ u)
        norm = float(np.linalg.norm(w))
        if norm < 1e-15:
            return None
        w /= norm
        delta = float(np.linalg.norm(w - u))
        u = w
        if delta < 1e-9:
            break
    return u


def sif_embeddings(
    model: EmbeddingModel,
    descriptions: Mapping[str, Sequence[str]],
    cfg: SifConfig = SifConfig(),
) -> dict[str, Vector]:
    """Frequency-weighted description embeddings, keyed like ``descriptions``.

    Each description is a bag of tokens; tokens missing from the model are
    skipped, and a description with no in-vocabulary token is omitted from the
    result with a warning. With fewer than two embeddings the principal
    component removal is skipped.
    """
    freqs = load_word_frequencies(cfg.word_freq_source) if cfg.word_freq_source else {}
    out: dict[str, Vector] = {}
    for sense_id, tokens in descriptions.items():
        acc = np.zeros(model.dim)
        weight_sum = 0.0
        for token in tokens:
            v = model.lookup(token)
            if v is None:
                continue
            p = freqs.get(token.lower(), freqs.get(token, 0.0))
            weight = cfg.smoothing / (cfg.smoothing + p)
            acc = acc + weight * v
            weight_sum += weight
        if weight_sum == 0.0:
            logger.warning("description %r has no in-vocabulary tokens; omitted", sense_id)
            continue
        out[sense_id] = acc / weight_sum
    if cfg.remove_component and len(out) >= 2:
        direction = _principal_direction(list(out.values()))
        if direction is not None:
            for sense_id, v in out.items():
                out[sense_id] = v - float(np.dot(direction, v)) * direction
    return out
