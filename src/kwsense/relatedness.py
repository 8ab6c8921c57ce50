"""Word-level semantic relatedness, the batched kernel, and description embeddings.

The word-level measure maps cosine similarity to [0, 1] through the angular
distance: rel(x, y) = 1 - arccos(cos(x, y)) / pi. Out-of-vocabulary words and
phrases whose found tokens average to the zero vector are a "missing"
outcome (None from :func:`rel_words`, NaN in the kernel). Sense-level
relatedness, which averages this measure over synonym sets (level 0) and
core contexts (level 1) and combines the two levels with :class:`RelWeights`,
is defined once, in :mod:`kwsense.compiled`.

Pairs are measured by one kernel, :func:`relatedness_rows`: it takes two
float64 matrices and returns the relatedness of every pair of rows, NaN
where either side has no direction (:func:`has_direction`).
:func:`relatedness_to` measures the rows of one matrix against one vector
(context words against the keyword, sense vectors against the context
centroid), and :func:`rel_words` is its 1 x 1 case; the compiled keywords of
:mod:`kwsense.compiled` pass it a whole table of phrase centroids. The
scalar :func:`angular_relatedness` is its 1 x 1 case too, so norms and the
exact-endpoint rule are computed one way. arccos is ill-conditioned at +/-1,
so entries with |cos| > 0.999999 are checked for exactly equal (or exactly
negated) vectors and set to the exact endpoint; the other flagged entries
are recomputed with sums in index order, so they round the same way whatever
the bulk product does. The kernel forms products with ``einsum`` instead of
a BLAS matrix product (``@``), so no entry depends on the number of BLAS
threads or of rows in a call: identical vectors score identically and ties
keep their input order. Callers pass whole tables: one ``topk`` or
``average`` call on a 1,600-phrase description table at dim 300 peaks at
1.25 times the table's float64 centroid matrix (3.8 MB) under tracemalloc.
Rows are float64, which widens float32 model rows exactly;
:func:`ordered_relatedness` measures one pair with sums in index order, for
callers that must break near-ties as the defining formula does.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .embeddings import EmbeddingModel, Vector
from .errors import ParseError, text_lines


@dataclass(frozen=True)
class RelWeights:
    """Mixing weights for the two relatedness levels: ``w0`` in [0, 1], ``w1 = 1 - w0``."""

    w0: float = 0.5

    def __post_init__(self) -> None:
        # Written so that NaN fails the check.
        if not 0.0 <= self.w0 <= 1.0:
            raise ValueError(f"level weight w0 must lie in [0, 1], got {self.w0}")

    @property
    def w1(self) -> float:
        return 1.0 - self.w0


DEFAULT_WEIGHTS = RelWeights()


# Beyond this |cos| arccos is ill-conditioned: one rounding unit of the
# cosine moves relatedness by 1e-13 here and by up to 1e-8 at +/-1.
_NEAR_ENDPOINT = 0.999999
# Off the endpoints the kernel is within ~1e-13 of the defining formula, so
# it may order values closer than this differently from that formula.
_TIE_WINDOW = 1e-12


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
    near = np.abs(c) > _NEAR_ENDPOINT
    if near.any():
        for i, j in zip(*np.nonzero(near)):
            c[i, j] = _ordered_cosine(rows[i], cols[j])
    return np.minimum(np.maximum(c, -1.0, out=c), 1.0, out=c)


def _ordered_cosine(u: Vector, v: Vector) -> float:
    """Cosine of two float64 vectors by the defining formula, in [-1, 1].

    Exactly equal (negated) vectors give exactly 1 (-1); otherwise the sums
    run in index order.
    """
    if np.array_equal(u, v):
        return 1.0
    if np.array_equal(u, np.negative(v)):
        return -1.0
    norms = math.sqrt(_ordered_dot(u, u)) * math.sqrt(_ordered_dot(v, v))
    return min(1.0, max(-1.0, _ordered_dot(u, v) / norms))


def ordered_relatedness(u: Vector, v: Vector) -> float:
    """Angular relatedness of two nonzero vectors with the defining formula's rounding.

    Used to decide near-ties, whose order the bulk product may round either way.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return 1.0 - math.acos(_ordered_cosine(u, v)) / math.pi


def angular_relatedness(v1: Vector, v2: Vector) -> float:
    """1 - arccos(cos(v1, v2)) / pi; 1 for parallel, 0.5 orthogonal, 0 antiparallel.

    The 1 x 1 case of :func:`relatedness_rows`, on the vectors widened to
    float64; a vector without a direction (:func:`has_direction`) is rejected.
    """
    if v1.shape != v2.shape:
        raise ValueError(f"dimension mismatch: {v1.shape[0]} vs {v2.shape[0]}")
    rows = np.array([v1, v2], dtype=np.float64)
    if not has_direction(rows).all():
        raise ValueError("undefined relatedness for zero vector")
    return float(relatedness_rows(rows[:1], rows[1:])[0, 0])


def has_direction(vectors: np.ndarray) -> np.ndarray:
    """Whether each float64 vector (the last axis) has a direction: a squared norm other than 0.

    The kernel's own test; a vector whose squared norm underflows has none.
    """
    return np.einsum("...k,...k->...", vectors, vectors) != 0.0


def relatedness_rows(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Angular relatedness of every (row, col) pair of two float64 matrices.

    NaN where either vector is missing: it has no direction (:func:`has_direction`).
    """
    row_norms = np.sqrt(np.einsum("ik,ik->i", rows, rows))
    col_norms = np.sqrt(np.einsum("ik,ik->i", cols, cols))
    row_missing, col_missing = row_norms == 0.0, col_norms == 0.0
    any_row, any_col = row_missing.any(), col_missing.any()
    # A unit stand-in norm keeps a missing vector's cosines near 0, away from
    # the endpoint re-check; its entries are set to NaN below.
    if any_row:
        row_norms[row_missing] = 1.0
    if any_col:
        col_norms[col_missing] = 1.0
    out = 1.0 - np.arccos(_cosines(rows, cols, row_norms, col_norms)) / math.pi
    if any_row:
        out[row_missing] = np.nan
    if any_col:
        out[:, col_missing] = np.nan
    return out


def relatedness_to(rows: np.ndarray, vector: Vector) -> list[float]:
    """Angular relatedness of every row of a float64 matrix to one vector; NaN where missing.

    One :func:`relatedness_rows` call; a zero row or vector (squared norm 0) is missing.
    """
    return relatedness_rows(rows, np.asarray(vector, dtype=np.float64)[None, :])[:, 0].tolist()


def rank_top(
    ids: list[int], rel: list[float], n: int, vectors: np.ndarray, reference: Vector
) -> list[int]:
    """The first ``n`` of ``ids`` by descending ``rel[i]``; ties keep input order.

    ``vectors`` is a float64 matrix indexed by id, and ``rel[i]`` is the
    relatedness of its row ``i`` to ``reference``. A run of
    ranked entries each within ``_TIE_WINDOW`` of the next is a near-tie when
    it starts among the first ``n`` and holds two distinct entries: its
    entries are first re-measured in ``rel`` with the defining formula's
    rounding, so the kernel's summation order decides no tie, neither at the
    cut nor inside the kept prefix. Repeats of one entry (a phrase listed more
    than once) tie exactly and need no re-measure.
    """
    ranked = sorted(ids, key=lambda i: -rel[i])
    head = [rel[i] for i in ranked[: n + 1]]
    if len(head) < 2 or min(map(operator.sub, head, head[1:])) > _TIE_WINDOW:
        return ranked[:n]
    near: set[int] = set()
    start = 0
    while start < min(n, len(ranked)):
        end = start + 1
        while end < len(ranked) and rel[ranked[end - 1]] - rel[ranked[end]] <= _TIE_WINDOW:
            end += 1
        run = set(ranked[start:end])
        if len(run) > 1:
            near |= run
        start = end
    if near:
        for i in near:
            rel[i] = ordered_relatedness(vectors[i], reference)
        ranked = sorted(ids, key=lambda i: -rel[i])
    return ranked[:n]


def rel_words(model: EmbeddingModel, x: str, y: str) -> Optional[float]:
    """Angular relatedness between two words or phrases; None if either is unrepresentable.

    Phrases are averaged tokenwise via the model; a phrase whose found tokens
    average to the zero vector carries no direction and also counts as missing.
    """
    (r,) = relatedness_to(model.phrase_matrix([x]), model.phrase_matrix([y])[0])
    return None if math.isnan(r) else r


# ---------------------------------------------------------------------------
# Smoothed-inverse-frequency sentence embeddings for sense descriptions.
# ---------------------------------------------------------------------------


# SIF's additive constant a in the token weight a / (a + p(token)).
SIF_SMOOTHING = 1e-3


@dataclass(frozen=True)
class SifConfig:
    """Settings for description embeddings.

    ``word_freq_source`` optionally names a token-frequency table ("token
    count" per line) from which p is taken as relative frequency (p = 0 when
    absent, i.e. weight 1) in the token weight a / (a + p), a =
    ``SIF_SMOOTHING``. Without a table all tokens weigh the same and each
    embedding is the plain centroid. The first principal direction of a set
    of two or more embeddings is subtracted from each, which cancels the
    shared component that dominates smoothed averages.
    """

    word_freq_source: str | Path | None = None


def load_word_frequencies(path: str | Path) -> dict[str, float]:
    """Load a token frequency table ("token count" per line) as relative frequencies."""
    path = Path(path)
    counts: dict[str, int] = {}
    total = 0
    for lineno, line in text_lines(path):
        parts = line.split()
        if not parts:
            continue
        try:
            count = int(parts[1]) if len(parts) == 2 and parts[1].isdecimal() else 0
        except ValueError:  # more digits than int() converts
            count = 0
        if count <= 0:
            raise ParseError(f"{path}: line {lineno}: expected 'token count'")
        token = parts[0]
        counts[token] = counts.get(token, 0) + count
        total += count
    if not counts:
        raise ParseError(f"{path}: no frequency entries found")
    return {token: count / total for token, count in counts.items()}


def _principal_direction(vectors: np.ndarray | Sequence[Vector]) -> Optional[Vector]:
    """First principal direction of the centered vector set (rows), by power iteration.

    Deterministic: starts from the normalized all-ones vector and runs at most
    100 iterations or until the iterate moves by less than 1e-9. Returns None
    when the centered set is degenerate (all rows ~ zero). The stop rarely
    fires on real description sets: on the benchmark's ``query-mix`` seed 5
    store the iterate still moves by 1.5e-3 at the 100th step, so that store
    is removed along the 100-step iterate, not along a converged direction.
    The products are formed with ``einsum``, not with BLAS (``@``), whose
    order of addition, and so the store's bytes, depend on its thread count.
    """
    m = np.asarray(vectors)
    m = m - m.mean(axis=0)
    dim = m.shape[1]
    u = np.ones(dim) / math.sqrt(dim)
    for _ in range(100):
        w = np.einsum("ij,i->j", m, np.einsum("ij,j->i", m, u))
        norm = float(np.linalg.norm(w))
        if norm < 1e-15:
            return None
        w /= norm
        delta = float(np.linalg.norm(w - u))
        u = w
        if delta < 1e-9:
            break
    return u


def _weighted_means(
    matrix: np.ndarray, rows: np.ndarray, weights: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean of the rows of every nonempty segment, added in row order.

    ``offsets`` cut ``rows`` (row ids into ``matrix``) and their ``weights``
    into segments. Returns the ordinals of the nonempty segments and one
    float64 matrix of their means. Each segment's rows are gathered, widened
    exactly and weighted, then added to 0 one after another, and so are its
    weights: a reduction along a row's own (contiguous) axis, or
    ``reduceat``, would sum pairwise and round differently.
    """
    kept = np.flatnonzero(offsets[1:] > offsets[:-1])
    starts, ends = offsets[kept], offsets[kept + 1]
    out = np.empty((len(kept), matrix.shape[1]))
    totals = np.empty(len(kept))
    # One block, reused: the longest segment's rows, widened to float64.
    block = np.empty((int((ends - starts).max(initial=0)), matrix.shape[1]))
    for j, a, b in zip(range(len(kept)), starts.tolist(), ends.tolist()):
        w, rows_j = weights[a:b], block[: b - a]
        if matrix.dtype == block.dtype:
            # Straight into the block: the default mode="raise" would buffer a copy.
            matrix.take(rows[a:b], axis=0, out=rows_j, mode="clip")
        else:
            rows_j[...] = matrix.take(rows[a:b], axis=0)  # float32 widens exactly
        np.multiply(rows_j, w[:, None], out=rows_j)
        np.add.reduce(rows_j, axis=0, initial=0.0, out=out[j])
        totals[j] = np.add.accumulate(w)[-1]
    out /= totals[:, None]
    return kept, out
