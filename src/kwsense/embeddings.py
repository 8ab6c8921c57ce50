"""Word embedding models: loading, lookup, and vector aggregation.

Vectors are 1-D numpy arrays with finite components. A model's vocabulary
and the per-sense stores of step 2 are each a :class:`VectorTable`: one
read-only ``(rows, dim)`` matrix and a ``dict`` from key to row id; a lookup
returns a read-only view of its row, made on demand, so a table holds no
per-row objects. Text models store float64 rows; binary models store
float32 rows, as the file does. Everything that does arithmetic on model
vectors widens them to float64 first, which is exact, so a binary model
gives the same results as a float64 model of the same values. Callers that
handle many rows keep row ids and gather the rows they need from a matrix.
"""
from __future__ import annotations

import logging
import os
import re
import sys
from itertools import repeat
from pathlib import Path
from typing import BinaryIO, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ParseError

logger = logging.getLogger(__name__)

_BLOCK_BYTES = 1 << 20  # bytes per read of load_binary_model
_PASS_BYTES = 1 << 17  # bytes of a block scanned per pass of load_binary_model
_TEXT_BLOCK_BYTES = 1 << 17  # bytes of whole lines per block of load_text_model

Vector = np.ndarray


class VectorTable(Mapping[str, Vector]):
    """Key -> vector over a row ``matrix`` (made read-only, not copied) and a key -> row ``index``."""

    __slots__ = ("matrix", "index")

    def __init__(self, matrix: np.ndarray, index: dict[str, int]):
        matrix.flags.writeable = False
        self.matrix, self.index = matrix, index

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __getitem__(self, key: str) -> Vector:
        return self.matrix[self.index[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def __eq__(self, other: object) -> bool:
        # Mapping's own == compares rows with ==, which gives no single bool.
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.keys() == other.keys() and all(
            np.array_equal(row, other[key]) for key, row in self.items())


def _first_rows(tokens: Sequence[str]) -> dict[str, int]:
    """Token -> row id of its first occurrence, in order of first occurrence."""
    index = dict(zip(tokens, range(len(tokens))))
    if len(index) < len(tokens):
        # A repeated token kept its first position but took its last row.
        for i in range(len(tokens) - 1, -1, -1):
            index[tokens[i]] = i
    return index


class EmbeddingModel:
    """An in-memory token -> vector table: one row matrix and a token -> row index.

    ``matrix`` is read-only and holds a row per input entry, in input order,
    including the rows of entries dropped as duplicates; ``index`` maps each
    token to the row of its first occurrence, in order of first occurrence,
    and ``duplicates`` counts the dropped entries. ``vocab`` is the same
    table as a :class:`VectorTable`. ``EmbeddingModel(vocab, dim)`` stacks the
    vectors of a ``dict`` (float32 if they all are, else float64); loaders
    build models with :meth:`from_rows`. Treated as immutable.
    """

    __slots__ = ("vocab", "matrix", "index", "dim", "duplicates", "__weakref__")

    def __init__(self, vocab: Mapping[str, Vector], dim: int, duplicates: int = 0):
        matrix = np.array(list(vocab.values()))
        if matrix.dtype != np.float32:
            matrix = matrix.astype(np.float64, copy=False)
        self._set(matrix.reshape(len(vocab), dim), dict(zip(vocab, range(len(vocab)))), duplicates)

    @classmethod
    def from_rows(
        cls, matrix: np.ndarray, index: dict[str, int], duplicates: int = 0
    ) -> "EmbeddingModel":
        """A model over ``matrix`` (made read-only, not copied) and its token -> row ``index``."""
        model = cls.__new__(cls)
        model._set(matrix, index, duplicates)
        return model

    def _set(self, matrix: np.ndarray, index: dict[str, int], duplicates: int) -> None:
        self.vocab = VectorTable(matrix, index)
        self.matrix, self.index, self.dim = matrix, index, matrix.shape[1]
        self.duplicates = duplicates

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return self.row_id(token) is not None

    def row_id(self, token: str) -> Optional[int]:
        """Row of ``token``, trying the lowercased form first, then the raw form.

        Returns None when the token is absent; the empty string is never present.
        """
        if not token:
            return None
        i = self.index.get(token.lower())
        if i is None:
            i = self.index.get(token)
        return i

    def lookup(self, token: str) -> Optional[Vector]:
        """Vector for ``token`` (a read-only row of ``matrix``), found as :meth:`row_id` finds it."""
        i = self.row_id(token)
        return None if i is None else self.matrix[i]

    def phrase_vector(self, phrase: str) -> Optional[Vector]:
        """Centroid of the vectors of the whitespace-split tokens found in the model.

        Tokens without a vector are ignored; returns None when no token is
        found. A one-token phrase gives its row as :meth:`lookup` does, a longer
        one the float64 mean of the found rows, added in token order.
        """
        tokens = phrase.split()
        if len(tokens) == 1:
            return self.lookup(tokens[0])
        ids = [i for t in tokens if (i := self.row_id(t)) is not None]
        if not ids:
            return None
        return np.add.reduce(self.matrix[ids].astype(np.float64, copy=False), axis=0) / len(ids)

    def phrase_matrix(self, phrases: Sequence[str]) -> np.ndarray:
        """Phrase vectors of ``phrases`` as float64 rows; a zero row where there is none."""
        out = np.zeros((len(phrases), self.dim))
        for j, phrase in enumerate(phrases):
            v = self.phrase_vector(phrase)
            if v is not None:
                out[j] = v
        return out


def _looks_like_header(parts: list[str]) -> bool:
    # isdecimal, not isdigit: exactly the digits int() accepts (not "²").
    return len(parts) == 2 and parts[0].isdecimal() and parts[1].isdecimal()


class _Header(NamedTuple):
    count: int
    dim: int


def _parse_line(
    raw: bytes, path: Path, lineno: int, dim: int | None
) -> _Header | tuple[str, Vector] | None:
    """One line of a text model: None if blank, a :class:`_Header` if it is the header, else its entry.

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
        # The count only sizes the row matrix, which the file size bounds: a
        # count too long for int() is as good as the largest one.
        count = int(parts[0]) if len(parts[0]) < 19 else sys.maxsize
        try:
            dim = int(parts[1])
        except ValueError:  # more digits than int() converts
            raise ParseError(f"{path}: line {lineno}: header dimension too large") from None
        if dim == 0:
            raise ParseError(f"{path}: line {lineno}: header declares 0 dimensions")
        return _Header(count, dim)
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


def _lines_left(fh: BinaryIO) -> int:
    """Line ends (``\\n``, ``\\r``, ``\\r\\n``) after the position of ``fh``, plus one; keeps it."""
    pos = fh.tell()
    lines = 1
    while block := fh.read(_BLOCK_BYTES):
        lines += block.count(b"\n")
        if b"\r" in block:  # a line end for errors.text_lines, an overcount for readlines
            lines += block.count(b"\r") - block.count(b"\r\n")
    fh.seek(pos)
    return lines


def load_text_model(path: str | Path) -> EmbeddingModel:
    """Load a whitespace-separated text embedding file.

    The file may begin with a ``<count> <dim>`` header line; otherwise the
    dimension is inferred from the first vector line. Each remaining line is
    ``token v1 ... vdim``. Duplicate tokens keep the first occurrence and are
    counted on the returned model. Lines end at ``\\n``; blank lines are
    skipped. Malformed lines (invalid UTF-8, wrong column count, non-numeric
    or non-finite components) raise :class:`ParseError` naming the line.

    Once the dimension is known the file is read in blocks of whole lines of
    about ``_TEXT_BLOCK_BYTES``, each decoded once and its components parsed
    by one ``np.loadtxt`` call into the model's float64 row matrix (dropped
    duplicates keep their rows). A block that fails any check of that fast
    parse is parsed line by line, which decides whether it is valid and which
    error to raise. The matrix is allocated once: for the header's count of
    rows, bounded by the number of ``2 * dim + 1``-byte lines the file can
    hold, or, without a header, for one more row than the file has line ends
    left. Only a header that undercounts costs a second allocation and copy,
    sized by counting the line ends left.
    """
    path = Path(path)
    tokens: list[str] = []
    matrix = np.empty((0, 0))
    count: int | None = None  # the header's, until the matrix is first sized
    dim: int | None = None
    lineno = 0
    with path.open("rb") as fh:
        # One line at a time until the header or first vector line sets dim.
        while block := fh.readlines(1 if dim is None else _TEXT_BLOCK_BYTES):
            parsed = None if dim is None else _parse_block(block, dim)
            if parsed is None:
                parsed = ([], [])
                for i, raw in enumerate(block, start=lineno + 1):
                    entry = _parse_line(raw, path, i, dim)
                    if isinstance(entry, _Header):
                        count, dim = entry
                    elif entry is not None:
                        if dim is None:
                            dim = len(entry[1])
                        parsed[0].append(entry[0])
                        parsed[1].append(entry[1])
            lineno += len(block)
            block_tokens, rows = parsed
            n, end = len(tokens), len(tokens) + len(block_tokens)
            if end > len(matrix):
                size = len(matrix)
                if count is not None:
                    size = min(count, os.fstat(fh.fileno()).st_size // (2 * dim + 1) + 1)
                    count = None
                if end > size:
                    size = end + _lines_left(fh)
                grown = np.empty((size, dim))
                if n:
                    grown[:n] = matrix[:n]
                matrix = grown
            if block_tokens:
                matrix[n:end] = rows
                tokens += block_tokens
    if dim is None or not tokens:
        raise ParseError(f"{path}: no vector lines found")
    index = _first_rows(tokens)
    duplicates = len(tokens) - len(index)
    if duplicates:
        logger.warning("%s: %d duplicate tokens dropped (first occurrence kept)", path, duplicates)
    return EmbeddingModel.from_rows(matrix[: len(tokens)], index, duplicates)


def _whole_entries(
    entry: re.Pattern, buf: bytearray, pos: int, stop: int, vec_bytes: int
) -> tuple[list[bytes], np.ndarray]:
    """The raw tokens of the whole entries in ``buf[pos:stop]`` and where their vectors start.

    ``entry`` matches an entry, its token the group, or else the rest of the
    range: one ``findall`` ends at the first entry that does not fit and never
    tries a position twice.
    """
    found = entry.findall(buf, pos, stop)
    starts = np.fromiter(map(len, found), np.intp, len(found))
    starts += vec_bytes + 1
    starts.cumsum(out=starts)
    starts += pos - vec_bytes
    # An empty last group is the rest of the range unless an entry fits there.
    if found and not found[-1] and (starts[-1] + vec_bytes > stop or buf[starts[-1] - 1] != 0x20):
        found.pop()
    return found, starts


def _read_binary_entries(
    fh: BinaryIO, path: Path, count: int, dim: int
) -> tuple[list[str], np.ndarray]:
    """The ``count`` tokens after the header of ``fh`` and their float32 rows."""
    vec_bytes = 4 * dim
    left = os.fstat(fh.fileno()).st_size - fh.tell()  # file bytes not yet read
    # The file's own layout: vector bytes are copied straight into their rows.
    matrix = np.empty((min(count, left // (vec_bytes + 1)), dim), dtype="<f4")
    if not len(matrix):  # the file cannot hold one entry
        raise ParseError(f"{path}: truncated after 0 of {count} entries")
    entry = re.compile(rb"(?s)(?:([^ ]*) .{%d}|.+)" % vec_bytes)
    vector = np.dtype((np.void, vec_bytes))
    rows = matrix.view(vector).reshape(-1)
    tokens: list[str] = []
    buf = bytearray(min(_BLOCK_BYTES, left))
    view = memoryview(buf)
    pos = end = 0  # buf[pos:end] holds the bytes read but not yet parsed
    while True:
        i = len(tokens)
        while i < count:
            stop = min(end, pos + _PASS_BYTES)
            found, starts = _whole_entries(entry, buf, pos, stop, vec_bytes)
            if not found and stop < end:
                # The next entry is longer than a pass: scan up to its end.
                space = buf.find(b" ", pos, end)
                if 0 <= space < end - vec_bytes:
                    found, starts = _whole_entries(entry, buf, pos, space + 1 + vec_bytes, vec_bytes)
            if not found:
                break
            del found[count - i :]
            n = len(found)
            # A view of every vec_bytes window of the buffer; the vectors are gathered from it.
            rows[i : i + n] = np.ndarray((end - vec_bytes + 1,), vector, buf, strides=(1,))[starts[:n]]
            if not np.isfinite(matrix[i : i + n]).all():
                bad = i + int(np.argmin(np.isfinite(matrix[i : i + n]).all(axis=1)))
                raise ParseError(f"{path}: entry {bad}: non-finite vector component")
            raw = b" ".join(map(bytes.lstrip, found, repeat(b"\r\n")))
            tokens += raw.decode("utf-8", errors="replace").split(" ")
            pos = int(starts[n - 1]) + vec_bytes
            i += n
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


def load_binary_model(path: str | Path) -> EmbeddingModel:
    """Load a word2vec-style binary embedding file.

    Layout: an ASCII header ``<count> <dim>\\n``, then per entry the token
    bytes up to a space, followed by ``dim`` little-endian float32 values and
    an optional newline (``\\n``/``\\r`` bytes before a token are skipped).
    Values stay float32, as stored. Truncation raises :class:`ParseError`
    reporting how many entries were read. Token bytes are decoded as UTF-8
    (undecodable bytes are replaced, never fatal). Duplicate tokens keep the
    first occurrence and are counted on the returned model.

    The file is read in 1 MiB blocks (``_BLOCK_BYTES``) into one reused
    buffer (grown only for an entry longer than a block), scanned in passes
    of ``_PASS_BYTES`` (or of one longer entry) with no Python code per
    entry: one ``re.findall`` matches each token and its ``4 * dim`` vector
    bytes, or else the rest of the pass, so it stops at the first entry that
    does not fit and tries no position twice. The token lengths give the
    vectors' offsets, one gather from a strided view of the buffer copies
    them into their rows, numpy checks them at once, and the tokens are
    decoded with one join, decode and split. That ``(rows, dim)`` float32
    matrix, including the rows of dropped duplicates, is the model's matrix:
    half the memory of float64 rows, and nothing lost, since kwsense widens
    rows exactly before any arithmetic. Allocation is bounded by the file
    size, not by the header: ``rows`` is at most the number of
    ``4 * dim + 1``-byte entries the file can hold, the buffer at most the
    bytes it holds, and a pass's temporaries by the pass.
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
    index = _first_rows(tokens)
    duplicates = count - len(index)
    if duplicates:
        logger.warning("%s: %d duplicate tokens dropped (first occurrence kept)", path, duplicates)
    return EmbeddingModel.from_rows(matrix, index, duplicates)


def save_text_model(model: EmbeddingModel, path: str | Path) -> None:
    """Dump a model back to the text format, with its header (debug aid; round-trips values)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(model)} {model.dim}\n")
        for token, i in model.index.items():
            comps = " ".join(repr(float(x)) for x in model.matrix[i])
            fh.write(f"{token} {comps}\n")
