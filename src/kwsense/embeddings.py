"""Word embedding models: loading, lookup, and vector aggregation.

Vectors are 1-D numpy arrays with finite components. Models map raw tokens
to vectors; all entries of one model share a single dimension. Text models
hold float64 rows, views of one matrix per block of lines; binary models
hold float32 rows, views of one matrix, as the file stores them. Everything
that does arithmetic on model vectors widens them to float64 first, which is
exact, so a binary model gives the same results as a float64 model of the
same values.
"""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Optional

import numpy as np

from .errors import ParseError

logger = logging.getLogger(__name__)

_BLOCK_BYTES = 1 << 20  # bytes per read of load_binary_model
_TEXT_BLOCK_BYTES = 1 << 17  # bytes of whole lines per block of load_text_model

Vector = np.ndarray


def centroid(vectors: Iterable[Vector]) -> Vector:
    """Componentwise float64 mean of a nonempty collection of same-dimension vectors."""
    vs = list(vectors)
    if not vs:
        raise ValueError("no vectors to aggregate")
    dim = vs[0].shape[0]
    for v in vs[1:]:
        if v.shape[0] != dim:
            raise ValueError(f"mixed dimensions: {dim} vs {v.shape[0]}")
    if len(vs) == 1:
        return vs[0].astype(np.float64)
    # np.mean's arithmetic, without its per-call overhead.
    return np.add.reduce(np.array(vs, dtype=np.float64), axis=0) / len(vs)


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
    # isdecimal, not isdigit: exactly the digits int() accepts (not "²").
    return len(parts) == 2 and parts[0].isdecimal() and parts[1].isdecimal()


def _parse_line(
    raw: bytes, path: Path, lineno: int, dim: int | None
) -> int | tuple[str, Vector] | None:
    """One line of a text model: None if blank, the dimension if it is the header, else its entry.

    ``dim`` is None until the first non-blank line, the only one that can be
    the header; otherwise that line sets it. This is the definition of a valid
    line and of every per-line :class:`ParseError`.
    """
    try:
        parts = raw.decode("utf-8").split()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: line {lineno}: invalid UTF-8") from None
    if not parts:
        return None
    if dim is None and _looks_like_header(parts):
        try:
            return int(parts[1])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"{path}: line {lineno}: header dimension too large") from None
    token, values = parts[0], parts[1:]
    if dim is None and not values:
        raise ParseError(f"{path}: line {lineno}: no vector components")
    if dim is not None and len(values) != dim:
        raise ParseError(f"{path}: line {lineno}: expected {dim} components, got {len(values)}")
    try:
        vec = np.array(values, dtype=np.float64)
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: non-numeric vector component") from None
    if not np.all(np.isfinite(vec)):
        raise ParseError(f"{path}: line {lineno}: non-finite vector component")
    return token, vec


def _parse_block(block: list[bytes], dim: int) -> tuple[list[str], np.ndarray] | None:
    """The tokens and ``(lines, dim)`` float64 rows of a block of vector lines.

    None unless every line is a valid vector line by a stricter rule than
    :func:`_parse_line`'s: ``np.loadtxt`` rejects some components ``float``
    accepts (``1_0``, non-ASCII digits) and ends a line at a bare ``\\r``.
    Where both accept a line they give the same values, so a block that
    passes here parses exactly as line by line.
    """
    try:
        lines = b"".join(block).decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    if len(lines) > len(block):  # the last line ended at "\n"
        lines.pop()
    pairs = [line.split(None, 1) for line in lines]
    if any(len(pair) != 2 for pair in pairs):
        return None
    tokens, rests = zip(*pairs)
    try:
        matrix = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if matrix.shape != (len(lines), dim) or not np.isfinite(matrix).all():
        return None
    return list(tokens), matrix


def load_text_model(path: str | Path, name: str | None = None) -> EmbeddingModel:
    """Load a whitespace-separated text embedding file.

    The file may begin with a ``<count> <dim>`` header line; otherwise the
    dimension is inferred from the first vector line. Each remaining line is
    ``token v1 ... vdim``. Duplicate tokens keep the first occurrence and are
    counted on the returned model. Lines end at ``\\n``; blank lines are
    skipped. Malformed lines (invalid UTF-8, wrong column count, non-numeric
    or non-finite components) raise :class:`ParseError` naming the line.

    Once the dimension is known the file is read in blocks of whole lines of
    about ``_TEXT_BLOCK_BYTES``, each decoded once and its components parsed
    by one ``np.loadtxt`` call; every vector is a float64 row view of its
    block's matrix (dropped duplicates keep their rows). A block that fails
    any check of that fast parse is parsed line by line, which decides
    whether it is valid and which error to raise.
    """
    path = Path(path)
    vocab: dict[str, Vector] = {}
    dim: int | None = None
    duplicates = 0
    lineno = 0
    with path.open("rb") as fh:
        # One line at a time until the header or first vector line sets dim.
        while block := fh.readlines(1 if dim is None else _TEXT_BLOCK_BYTES):
            parsed = None if dim is None else _parse_block(block, dim)
            if parsed is not None:
                entries = zip(*parsed)
            else:
                entries = []
                for i, raw in enumerate(block, start=lineno + 1):
                    entry = _parse_line(raw, path, i, dim)
                    if isinstance(entry, int):
                        dim = entry
                    elif entry is not None:
                        if dim is None:
                            dim = len(entry[1])
                        entries.append(entry)
            lineno += len(block)
            for token, vec in entries:
                if token in vocab:
                    duplicates += 1
                else:
                    vocab[token] = vec
    if dim is None or not vocab:
        raise ParseError(f"{path}: no vector lines found")
    if duplicates:
        logger.warning("%s: %d duplicate tokens dropped (first occurrence kept)", path, duplicates)
    return EmbeddingModel(vocab=vocab, dim=dim, name=name or path.name, duplicates=duplicates)


def _read_binary_entries(
    fh: BinaryIO, path: Path, count: int, dim: int
) -> tuple[list[str], np.ndarray]:
    """The ``count`` tokens after the header of ``fh`` and their float32 rows."""
    vec_bytes = 4 * dim
    left = os.fstat(fh.fileno()).st_size - fh.tell()  # file bytes not yet read
    # The file's own layout: vector bytes are copied straight into their rows.
    matrix = np.empty((min(count, left // (vec_bytes + 1)), dim), dtype="<f4")
    rows = memoryview(matrix.view(np.uint8).reshape(-1))
    tokens: list[str] = []
    buf = bytearray(min(_BLOCK_BYTES, left))
    view = memoryview(buf)
    pos = end = 0  # buf[pos:end] holds the bytes read but not yet parsed
    while True:
        first = i = len(tokens)
        while i < count:
            space = buf.find(b" ", pos, end)
            vec_end = space + 1 + vec_bytes
            if space < 0 or vec_end > end:
                break
            tokens.append(buf[pos:space].lstrip(b"\r\n").decode("utf-8", errors="replace"))
            rows[i * vec_bytes:(i + 1) * vec_bytes] = view[space + 1:vec_end]
            pos = vec_end
            i += 1
        if i > first:
            finite = np.isfinite(matrix[first:i]).all(axis=1)
            if not finite.all():
                bad = first + int(np.argmin(finite))
                raise ParseError(f"{path}: entry {bad}: non-finite vector component")
        if i == count:
            break
        tail = end - pos
        if tail == len(buf) and left:
            # One entry is longer than the buffer: grow it, within the file.
            grown = bytearray(min(2 * len(buf), tail + left))
            grown[:tail] = buf
            buf, view = grown, memoryview(grown)
        else:
            view[:tail] = view[pos:end]
        got = fh.readinto(view[tail:])
        if not got:
            raise ParseError(f"{path}: truncated after {i} of {count} entries")
        pos, end, left = 0, tail + got, left - got
    return tokens, matrix


def load_binary_model(path: str | Path, name: str | None = None) -> EmbeddingModel:
    """Load a word2vec-style binary embedding file.

    Layout: an ASCII header ``<count> <dim>\\n``, then per entry the token
    bytes up to a space, followed by ``dim`` little-endian float32 values and
    an optional newline (``\\n``/``\\r`` bytes before a token are skipped).
    Values stay float32, as stored. Truncation raises :class:`ParseError`
    reporting how many entries were read. Token bytes are decoded as UTF-8
    (undecodable bytes are replaced, never fatal). Duplicate tokens keep the
    first occurrence and are counted on the returned model.

    The file is read in 1 MiB blocks (``_BLOCK_BYTES``) into one reused
    buffer (grown only for an entry longer than a block); each vector's bytes
    are copied into its row and each block's rows are checked by numpy at
    once. Every vector is a row view of one ``(rows, dim)`` float32 matrix,
    including the rows of dropped duplicates: half the memory of float64
    rows, and nothing lost, since kwsense widens rows exactly before any
    arithmetic. Allocation is bounded by the file size, not by the header:
    ``rows`` is at most the number of ``4 * dim + 1``-byte entries the file
    can hold, and the buffer at most the bytes it holds.
    """
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.readline()
        parts = header.split()
        # bytes.isdigit accepts ASCII digits only.
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ParseError(f"{path}: binary header must be '<count> <dim>'")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"{path}: binary header count or dimension too large") from None
        if count == 0 or dim == 0:
            raise ParseError(f"{path}: header declares an empty model")
        tokens, matrix = _read_binary_entries(fh, path, count, dim)
    vocab: dict[str, Vector] = {}
    for token, row in zip(tokens, matrix):
        vocab.setdefault(token, row)
    duplicates = count - len(vocab)
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
