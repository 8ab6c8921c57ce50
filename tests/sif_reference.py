"""Per-token reference builder for the SIF description store.

This builds description embeddings the way they were built before lexicons
interned their phrases: one Python pass over every token occurrence, with a
row lookup and two frequency lookups each. :func:`kwsense.build_sif_store`
must give the same keys, in the same order, and the same bytes;
``test_sif_store.py`` checks that. The warning
goes to this module's own logger, so tests can compare the two texts.
"""
from __future__ import annotations

import logging
import math
from typing import Mapping, Optional, Sequence

import numpy as np

from kwsense.embeddings import EmbeddingModel, Vector
from kwsense.lexicon import Lexicon
from kwsense.relatedness import SIF_SMOOTHING, SifConfig, load_word_frequencies

logger = logging.getLogger(__name__)


def principal_direction(vectors: Sequence[Vector]) -> Optional[Vector]:
    """First principal direction of the centered vectors, by at most 100 power steps."""
    m = np.stack(vectors)
    m = m - m.mean(axis=0)
    dim = m.shape[1]
    u = np.ones(dim) / math.sqrt(dim)
    for _ in range(100):
        w = np.einsum("ij,i->j", m, np.einsum("ij,j->i", m, u))  # no BLAS: see kwsense
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
    """Frequency-weighted description embeddings, one token occurrence at a time."""
    freqs = load_word_frequencies(cfg.word_freq_source) if cfg.word_freq_source else {}
    out: dict[str, Vector] = {}
    omitted: list[str] = []
    for sense_id, tokens in descriptions.items():
        rows: list[int] = []
        weights: list[float] = []
        weight_sum = 0.0
        for token in tokens:
            i = model.row_id(token)
            if i is None:
                continue
            p = freqs.get(token.lower(), freqs.get(token, 0.0))
            rows.append(i)
            weights.append(SIF_SMOOTHING / (SIF_SMOOTHING + p))
            weight_sum += weights[-1]
        if weight_sum == 0.0:
            omitted.append(sense_id)
            continue
        weighted = model.matrix[rows].astype(np.float64, copy=False) * np.array(weights)[:, None]
        out[sense_id] = np.add.reduce(weighted, axis=0, initial=0.0) / weight_sum
    if omitted:
        logger.warning(
            "%d descriptions have no in-vocabulary tokens and were omitted (first: %s)",
            len(omitted), ", ".join(map(repr, omitted[:3])),
        )
    if len(out) >= 2:
        direction = principal_direction(list(out.values()))
        if direction is not None:
            for sense_id, v in out.items():
                out[sense_id] = v - float(np.dot(direction, v)) * direction
    return out


def build_sif_store(
    model: EmbeddingModel, lexicon: Lexicon, cfg: SifConfig = SifConfig()
) -> dict[str, Vector]:
    """Description embeddings for every current sense, its terms split on whitespace."""
    descriptions = {
        sense.id: [tok for term in sense.description_terms for tok in term.split()]
        for sense in lexicon.senses.values()
    }
    return sif_embeddings(model, descriptions, cfg)
