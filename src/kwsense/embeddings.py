"""Word embedding models: loading, lookup, and vector aggregation.

Vectors are 1-D float64 numpy arrays with finite components. Models map
raw tokens to vectors; all entries of one model share a single dimension.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import ParseError

logger = logging.getLogger(__name__)

Vector = np.ndarray


def centroid(vectors: Iterable[Vector]) -> Vector:
    """Componentwise mean of a nonempty collection of same-dimension vectors."""
    vs = list(vectors)
    if not vs:
        raise ValueError("no vectors to aggregate")
    dim = vs[0].shape[0]
    for v in vs[1:]:
        if v.shape[0] != dim:
            raise ValueError(f"mixed dimensions: {dim} vs {v.shape[0]}")
    if len(vs) == 1:
        return vs[0].copy()
    # np.mean's arithmetic, without its per-call overhead.
    return np.add.reduce(np.array(vs), axis=0) / len(vs)


@dataclass
class EmbeddingModel:
    """An in-memory token -> vector table.

    Treated as immutable after loading. ``duplicates`` counts input entries
    that were dropped because an earlier entry already claimed the token.
    """

    vocab: dict[str, Vector]
    dim: int
    name: str = ""
    duplicates: int = 0

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token: str) -> bool:
        return self.lookup(token) is not None

    def lookup(self, token: str) -> Optional[Vector]:
        """Vector for ``token``, trying the lowercased form first, then the raw form.

        Returns None when the token is absent; the empty string is never present.
        """
        if not token:
            return None
        hit = self.vocab.get(token.lower())
        if hit is None:
            hit = self.vocab.get(token)
        return hit

    def phrase_vector(self, phrase: str) -> Optional[Vector]:
        """Centroid of the vectors of the whitespace-split tokens found in the model.

        Tokens without a vector are ignored; returns None when no token is found.
        """
        tokens = phrase.split()
        if not tokens:
            return None
        if len(tokens) == 1:
            return self.lookup(tokens[0])
        found = [v for t in tokens if (v := self.lookup(t)) is not None]
        if not found:
            return None
        return centroid(found)


def _looks_like_header(parts: list[str]) -> bool:
    return len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit()


def load_text_model(path: str | Path, name: str | None = None) -> EmbeddingModel:
    """Load a whitespace-separated text embedding file.

    The file may begin with a ``<count> <dim>`` header line; otherwise the
    dimension is inferred from the first vector line. Each remaining line is
    ``token v1 ... vdim``. Duplicate tokens keep the first occurrence and are
    counted on the returned model. Blank lines are skipped. Malformed lines
    (wrong column count, non-numeric or non-finite components) raise
    :class:`ParseError` naming the line.
    """
    path = Path(path)
    vocab: dict[str, Vector] = {}
    dim: int | None = None
    duplicates = 0
    saw_first = False
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if not saw_first:
                saw_first = True
                if _looks_like_header(parts):
                    dim = int(parts[1])
                    continue
            token, values = parts[0], parts[1:]
            if dim is None:
                if not values:
                    raise ParseError(f"{path}: line {lineno}: no vector components")
                dim = len(values)
            if len(values) != dim:
                raise ParseError(
                    f"{path}: line {lineno}: expected {dim} components, got {len(values)}"
                )
            try:
                vec = np.array(values, dtype=np.float64)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric vector component") from None
            if not np.all(np.isfinite(vec)):
                raise ParseError(f"{path}: line {lineno}: non-finite vector component")
            if token in vocab:
                duplicates += 1
                continue
            vocab[token] = vec
    if dim is None or not vocab:
        raise ParseError(f"{path}: no vector lines found")
    if duplicates:
        logger.warning("%s: %d duplicate tokens dropped (first occurrence kept)", path, duplicates)
    return EmbeddingModel(vocab=vocab, dim=dim, name=name or path.name, duplicates=duplicates)


def load_binary_model(path: str | Path, name: str | None = None) -> EmbeddingModel:
    """Load a word2vec-style binary embedding file.

    Layout: an ASCII header ``<count> <dim>\\n``, then per entry the token
    bytes up to a space, followed by ``dim`` little-endian float32 values and
    an optional newline. Values are widened to float64. Truncation raises
    :class:`ParseError` reporting how many entries were read. Token bytes are
    decoded as UTF-8 (undecodable bytes are replaced, never fatal).
    """
    path = Path(path)
    vocab: dict[str, Vector] = {}
    duplicates = 0
    with path.open("rb") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ParseError(f"{path}: binary header must be '<count> <dim>'")
        count, dim = int(parts[0]), int(parts[1])
        if count == 0 or dim == 0:
            raise ParseError(f"{path}: header declares an empty model")
        vec_bytes = 4 * dim
        for i in range(count):
            token_buf = bytearray()
            while True:
                ch = fh.read(1)
                if not ch:
                    raise ParseError(f"{path}: truncated after {i} of {count} entries")
                if ch == b" ":
                    break
                if ch in (b"\n", b"\r") and not token_buf:
                    continue
                token_buf += ch
            raw = fh.read(vec_bytes)
            if len(raw) < vec_bytes:
                raise ParseError(f"{path}: truncated after {i} of {count} entries")
            vec = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            if not np.all(np.isfinite(vec)):
                raise ParseError(f"{path}: entry {i}: non-finite vector component")
            token = token_buf.decode("utf-8", errors="replace")
            if token in vocab:
                duplicates += 1
            else:
                vocab[token] = vec
    if duplicates:
        logger.warning("%s: %d duplicate tokens dropped (first occurrence kept)", path, duplicates)
    return EmbeddingModel(vocab=vocab, dim=dim, name=name or path.name, duplicates=duplicates)


def save_text_model(model: EmbeddingModel, path: str | Path, header: bool = True) -> None:
    """Dump a model back to the text format (debug aid; round-trips values)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(model.vocab)} {model.dim}\n")
        for token, vec in model.vocab.items():
            comps = " ".join(repr(float(x)) for x in vec)
            fh.write(f"{token} {comps}\n")
