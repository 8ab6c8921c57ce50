"""The block-parsed text model loader against a line-by-line reference.

``reference_load_text`` is the loader kwsense used before block parsing: it
splits and converts every line on its own. The block loader must give the
same tokens in the same order, the same ``dim`` and duplicate count and
bit-identical float64 vectors, or raise a ``ParseError`` with the same text.
Shrinking ``embeddings._TEXT_BLOCK_BYTES`` makes blocks of one to a few lines,
so errors and fallbacks land at every position within a block.
"""
from __future__ import annotations

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kwsense import EmbeddingModel, ParseError, embeddings, load_text_model


def reference_load_text(path: Path) -> EmbeddingModel:
    vocab = {}
    dim = None
    duplicates = 0
    saw_first = False
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                parts = raw.decode("utf-8").split()
            except UnicodeDecodeError:
                raise ParseError(f"{path}: line {lineno}: invalid UTF-8") from None
            if not parts:
                continue
            if not saw_first:
                saw_first = True
                if len(parts) == 2 and parts[0].isdecimal() and parts[1].isdecimal():
                    dim = int(parts[1])
                    if dim == 0:
                        raise ParseError(f"{path}: line {lineno}: header declares 0 dimensions")
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
    return EmbeddingModel(vocab=vocab, dim=dim, duplicates=duplicates)


def _outcome(load, path: Path):
    """(tokens, vector bytes, dim, duplicates), or the ParseError text."""
    try:
        model = load(path)
    except ParseError as exc:
        return str(exc)
    assert all(v.dtype == np.float64 for v in model.vocab.values())
    return (
        list(model.vocab),
        [v.tobytes() for v in model.vocab.values()],
        model.dim,
        model.duplicates,
    )


def assert_same_as_reference(path: Path, block_bytes: int) -> None:
    expected = _outcome(reference_load_text, path)
    with mock.patch.object(embeddings, "_TEXT_BLOCK_BYTES", block_bytes):
        assert _outcome(load_text_model, path) == expected


# 1 byte: one line per block; 12-40 bytes: one to three of the short lines
# generated below; then the real block size.
BLOCK_SIZES = st.sampled_from([1, 12, 24, 40, 1 << 17])
# str.split's whitespace (also np.loadtxt's, but for the line end "\r"), and
# two characters that are not whitespace.
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
                              "\u2003", "\u3000", "\u200b", "\x00"])
GOOD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0", "1.", ".5", "+2e-3", "1E5", "-7"]),
)
AWKWARD = st.sampled_from(["1_0", "\u0661", "\u00b2", "nan", "-inf", "1e400", "#", "x",
                           "0x1", '"1"', "1,5", "\u0661.5", "\uff11", "Infinity"])
HEADERS = st.sampled_from(["5 {dim}", "2 {dim}", "\u0663 {dim}", "3 \u00b2", "\u0665 \u0662",
                           "x {dim}", "0 {dim}", "9" * 25 + " {dim}", "1 0", "2 00"])
TOKENS = st.sampled_from(["a", "b", "B", "caf\u00e9", "#", "1", "3", "\u00b2", "\u0661", "nan"])
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r\r\n", " \n", "\x85\n"])


@st.composite
def text_models(draw):
    dim = draw(st.integers(1, 3))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(HEADERS).format(dim=dim))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\r", "\t\x0b"])))
            continue
        # Mostly valid lines, so that whole blocks pass the block parse.
        line = draw(TOKENS)
        for _ in range(dim + draw(st.sampled_from([0] * 8 + [-1, 1]))):
            sep = draw(SEPARATORS) if draw(st.integers(0, 7)) == 0 else " "
            line += sep + draw(AWKWARD if draw(st.integers(0, 11)) == 0 else GOOD)
        lines.append(line)
    text = "".join(line + draw(LINE_ENDS) for line in lines)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    data = text.encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=text_models(), block_bytes=BLOCK_SIZES)
@example(data=b"3 \xc2\xb2\na 1\n", block_bytes=1 << 17)
@example(data=b"2 2\na 1 2\nb 1_0 2\nc 1\r2\n", block_bytes=1 << 17)
@example(data=b"a 1\nb 2 #\n", block_bytes=1 << 17)  # not a comment
@example(data=b"a 1\nb 2\x0bc 3\n", block_bytes=1 << 17)  # not a line end
@example(data=b"\n1 0\ntok\n", block_bytes=1 << 17)  # a 0-dimension header
def test_block_loader_matches_reference(tmp_path, data, block_bytes):
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    assert_same_as_reference(path, block_bytes)


def _dense_lines(rng: np.random.Generator, rows: int, dim: int) -> tuple[list[str], np.ndarray]:
    vectors = rng.standard_normal((rows, dim))
    tokens = [f"t{i % (rows - 50)}" for i in range(rows)]  # the last 50 are duplicates
    return [t + "".join(f" {x!r}" for x in v.tolist()) for t, v in zip(tokens, vectors)], vectors


def test_rows_are_one_float64_matrix(tmp_path):
    rng = np.random.default_rng(5)
    # 600 x 300 is ~3.5 MB of text: many blocks at the real block size.
    lines, vectors = _dense_lines(rng, 600, 300)
    path = tmp_path / "m.txt"
    path.write_text("600 300\n" + "\n".join(lines) + "\n")
    assert_same_as_reference(path, embeddings._TEXT_BLOCK_BYTES)
    with mock.patch.object(embeddings, "_lines_left", wraps=embeddings._lines_left) as counted:
        model = load_text_model(path)
    assert model.duplicates == 50 and len(model) == 550 and model.dim == 300
    # One read-only matrix of every row, duplicates' rows included, allocated
    # once for the header's count: no newline count, no growth copy.
    assert counted.call_count == 0
    assert model.matrix.base is None or model.matrix.base.shape == (600, 300)
    assert model.matrix.dtype == np.float64 and not model.matrix.flags.writeable
    np.testing.assert_array_equal(model.matrix, vectors)
    assert model.index["t7"] == 7 and model.index["t549"] == 549
    assert all(np.shares_memory(v, model.matrix) for v in model.vocab.values())
    np.testing.assert_array_equal(model.vocab["t7"], vectors[7])


@pytest.mark.parametrize("header, counts", [
    ("", 1),  # no header: one newline count sizes the matrix
    ("40 3\n", 0),  # exact
    ("90 3\n", 0),  # overcount: allocated within the file's bound, never filled
    ("10 3\n", 1),  # undercount: one newline count, one growth copy
    ("0 3\n", 1),
    ("9" * 30 + " 3\n", 0),  # past int64: bounded by the file size
])
def test_matrix_sized_from_header_or_newlines(tmp_path, header, counts):
    lines, vectors = _dense_lines(np.random.default_rng(8), 90, 3)
    path = tmp_path / "m.txt"
    path.write_text(header + "\n".join(lines[:40]) + "\n\n")
    for block_bytes in (1, 64, 1 << 17):
        assert_same_as_reference(path, block_bytes)
        with mock.patch.object(embeddings, "_TEXT_BLOCK_BYTES", block_bytes), \
                mock.patch.object(embeddings, "_lines_left",
                                  wraps=embeddings._lines_left) as counted:
            model = load_text_model(path)
        assert counted.call_count == counts
        allocated = model.matrix if model.matrix.base is None else model.matrix.base
        assert len(allocated) <= path.stat().st_size // (2 * 3 + 1) + 1
        np.testing.assert_array_equal(model.matrix, vectors[:40])


@pytest.mark.parametrize("line, message", [
    (b"odd 1_0 2", None),  # float() accepts these, np.loadtxt does not
    ("odd \u0661 2".encode(), None),
    (b"odd 1\r2", None),
    (b"odd nan 2", "non-finite vector component"),
    (b"odd 1e400 2", "non-finite vector component"),
    ("odd \u00b2 2".encode(), "non-numeric vector component"),
    (b"odd # 2", "non-numeric vector component"),
    (b"odd 1 2 3", "expected 2 components, got 3"),
    (b"odd \xff 2", "invalid UTF-8"),
])
def test_fallback_deep_in_a_file(tmp_path, line, message):
    """A line the block parse rejects, after many blocks that it accepted."""
    lines, _ = _dense_lines(np.random.default_rng(6), 400, 2)
    encoded = [text.encode() for text in lines]
    encoded[333] = line
    path = tmp_path / "m.txt"
    path.write_bytes(b"\n".join(encoded) + b"\n")
    assert_same_as_reference(path, 256)
    with mock.patch.object(embeddings, "_TEXT_BLOCK_BYTES", 256):
        if message is None:
            assert load_text_model(path).vocab["odd"].shape == (2,)
        else:
            with pytest.raises(ParseError, match=f"line 334: {message}"):
                load_text_model(path)


@pytest.mark.parametrize("data", [b"1 0\ntok\n", b"\n\n2 00\n", b"0 0\n"])
def test_header_with_zero_dimensions_is_rejected(tmp_path, data):
    path = tmp_path / "m0.vec"
    path.write_bytes(data)
    line = data.split(b"\n").index(data.strip().split(b"\n")[0]) + 1
    with pytest.raises(ParseError, match=f"line {line}: header declares 0 dimensions"):
        load_text_model(path)
