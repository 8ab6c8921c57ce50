"""The block-parsed word2vec binary loader against a byte-at-a-time reference.

``reference_load_binary`` is the loader kwsense used before block reads: it
reads token bytes one at a time and widens each vector on its own. The block
loader keeps rows as float32; it must give the same tokens in the same order,
the same duplicate count and float32 rows that widen to bit-identical float64
vectors, or raise a ``ParseError`` with the same text. Shrinking
``embeddings._BLOCK_BYTES`` makes entries straddle block boundaries and forces
the buffer to grow; shrinking ``embeddings._PASS_BYTES`` makes entries
straddle the ranges one ``findall`` scans, or outgrow them.
"""
from __future__ import annotations

import signal
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kwsense import EmbeddingModel, ParseError, embeddings, load_binary_model


def reference_load_binary(path: Path) -> EmbeddingModel:
    vocab = {}
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
    return EmbeddingModel(vocab=vocab, dim=dim, duplicates=duplicates)


def _outcome(load, path: Path):
    """(tokens, float64 vector bytes, dim, duplicates), or the ParseError text."""
    try:
        model = load(path)
    except ParseError as exc:
        return str(exc)
    return (
        list(model.vocab),
        [v.astype(np.float64).tobytes() for v in model.vocab.values()],
        model.dim,
        model.duplicates,
    )


def assert_same_as_reference(
    path: Path, block_bytes: int, pass_bytes: int = embeddings._PASS_BYTES
) -> None:
    with np.errstate(invalid="ignore"):  # widening a signaling NaN warns
        expected = _outcome(reference_load_binary, path)
    with mock.patch.object(embeddings, "_BLOCK_BYTES", block_bytes), \
            mock.patch.object(embeddings, "_PASS_BYTES", pass_bytes):
        assert _outcome(load_binary_model, path) == expected


def _entry(token: bytes, values: list[float], sep: bytes = b"\n") -> bytes:
    return token + b" " + struct.pack(f"<{len(values)}f", *values) + sep


# Most are smaller than one entry.
BLOCK_SIZES = st.sampled_from([1, 2, 3, 5, 8, 13, 64, 1 << 20])
PASS_SIZES = st.sampled_from([1, 2, 7, 16, 64, 1 << 17])
# Bytes that matter to the parser, mixed with arbitrary ones.
SPECIAL = st.sampled_from([0x20, 0x0A, 0x0D, 0x00, 0x7F, 0x80, 0xC3, 0xE2, 0xF0, 0xFF])
NEWLINES = st.lists(st.sampled_from([b"\r", b"\n"]), max_size=4).map(b"".join)
BODIES = st.one_of(
    st.sampled_from([
        b"a", b"B", b"caf\xc3\xa9", b"", b"a\nb", b"a\rb", b"a\r\n\nb",
        # Invalid UTF-8, and UTF-8 cut off at the token's end.
        b"\xff\xfe", b"\x80a", b"caf\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\xed\xa0\x80",
    ]),
    st.lists(st.one_of(SPECIAL, st.integers(0, 255)), max_size=6).map(
        lambda bs: bytes(bs).replace(b" ", b"")
    ),
)
# Leading \r/\n runs are skipped; empty tokens are kept.
TOKENS = st.builds(bytes.__add__, NEWLINES, BODIES)
SEPARATORS = st.sampled_from([b"", b"\n", b"\r\n", b"\n\n\r"])


@st.composite
def binary_blobs(draw):
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 6))
    entries = []
    for _ in range(count):
        vec = bytes(draw(st.lists(st.one_of(SPECIAL, st.integers(0, 255)),
                                  min_size=4 * dim, max_size=4 * dim)))
        if draw(st.booleans()):
            # Make this vector finite: clear the top exponent bit of each float.
            vec = bytes(b & 0xBF if k % 4 == 3 else b for k, b in enumerate(vec))
        entries.append(draw(TOKENS) + b" " + vec + draw(SEPARATORS))
    # Bytes after entry ``count``: the header may undercount.
    count -= draw(st.integers(0, count - 1))
    blob = f"{count} {dim}\n".encode() + b"".join(entries) + draw(st.binary(max_size=4))
    if draw(st.booleans()):
        blob = blob[: draw(st.integers(0, len(blob)))]
    return blob


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=binary_blobs(), block_bytes=BLOCK_SIZES, pass_bytes=PASS_SIZES)
def test_block_loader_matches_reference(tmp_path, blob, block_bytes, pass_bytes):
    path = tmp_path / "m.bin"
    path.write_bytes(blob)
    assert_same_as_reference(path, block_bytes, pass_bytes)


@settings(max_examples=500)
@given(st.lists(st.one_of(BODIES, st.binary(max_size=8).map(lambda b: b.replace(b" ", b""))),
                min_size=1, max_size=8))
def test_joined_tokens_decode_as_each_token(tokens):
    # The loader decodes a pass's tokens joined by spaces, then splits them.
    joined = b" ".join(tokens).decode("utf-8", errors="replace").split(" ")
    assert joined == [t.decode("utf-8", errors="replace") for t in tokens]


@pytest.mark.parametrize("block_bytes", [1, 4, 7, 1 << 20])
def test_truncated_at_every_offset(tmp_path, block_bytes):
    blob = (b"3 2\n" + _entry(b"\nhi", [1.0, -2.5]) + _entry(b"caf\xc3\xa9", [0.5, 3.0], b"\r\n")
            + _entry(b"hi", [7.0, 8.0], b""))
    path = tmp_path / "m.bin"
    for cut in range(len(blob) + 1):
        path.write_bytes(blob[:cut])
        assert_same_as_reference(path, block_bytes)
    model = load_binary_model(path)
    assert list(model.vocab) == ["hi", "café"] and model.duplicates == 1


def test_leading_newlines_and_separator_bytes_in_vectors(tmp_path):
    awkward = np.frombuffer(b"\x20\x0a\x0d\x20" * 2, dtype="<f4").tolist()
    blob = b"3 2\n" + _entry(b"\n\r\nab", awkward, b"") + _entry(b"c\nd", [1.0, 2.0]) \
        + _entry(b"\xff", awkward)
    path = tmp_path / "m.bin"
    path.write_bytes(blob)
    for block_bytes in (1, 3, 9, 1 << 20):
        assert_same_as_reference(path, block_bytes)
    model = load_binary_model(path)
    assert list(model.vocab) == ["ab", "c\nd", "\ufffd"]
    np.testing.assert_array_equal(model.vocab["ab"], np.array(awkward, dtype=np.float32))


@pytest.mark.parametrize("bad", [0, 2, 4])
def test_non_finite_names_the_entry(tmp_path, bad):
    entries = [_entry(f"w{i}".encode(), [float(i), 1.0]) for i in range(5)]
    entries[bad] = _entry(b"bad", [1.0, float("inf") if bad else float("nan")])
    path = tmp_path / "m.bin"
    path.write_bytes(b"5 2\n" + b"".join(entries))
    for block_bytes in (1, 16, 1 << 20):
        with mock.patch.object(embeddings, "_BLOCK_BYTES", block_bytes):
            with pytest.raises(ParseError, match=f"entry {bad}: non-finite"):
                load_binary_model(path)
        assert_same_as_reference(path, block_bytes)


def test_non_finite_entry_reported_before_later_truncation(tmp_path):
    blob = b"3 1\n" + _entry(b"a", [1.0]) + _entry(b"b", [float("nan")]) + b"c \x00"
    path = tmp_path / "m.bin"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match="entry 1: non-finite"):
        load_binary_model(path)
    assert_same_as_reference(path, 1 << 20)


@pytest.mark.parametrize("header", [b"1000000000000 2\n", b"3 1000000000\n"])
def test_lying_header_allocates_by_file_size(tmp_path, header):
    path = tmp_path / "m.bin"
    path.write_bytes(header + _entry(b"a", [1.0, 2.0]) + b"b ")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="truncated after") as info:
            load_binary_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert str(info.value) == _outcome(reference_load_binary, path)


@pytest.mark.parametrize("header", [b"3 600000000\n", b"3 1073741824\n"])
def test_dim_too_large_to_scan_reports_truncation(tmp_path, header):
    # 4 * dim bytes is too many for a np.void item (both) and a regex repeat (the second).
    path = tmp_path / "m.bin"
    path.write_bytes(header + _entry(b"a", [1.0, 2.0]))
    with pytest.raises(ParseError, match="truncated after 0 of 3 entries") as info:
        load_binary_model(path)
    assert str(info.value) == _outcome(reference_load_binary, path)


@pytest.mark.parametrize("body", [
    b"x" * (2 << 20) + b" " + struct.pack("<2f", 1.0, 2.0) + _entry(b"y", [3.0, 4.0]),
    b"\x00" * (2 << 20),
], ids=["2MiB-token", "2MiB-of-zeros"])
def test_scan_is_linear_in_a_long_entry(tmp_path, body):
    # A scan that retried every position after a failed match would take
    # hours; the alarm interrupts it (the regex engine checks for signals).
    path = tmp_path / "m.bin"
    path.write_bytes(b"2 2\n" + body)

    def too_slow(signum, frame):
        raise AssertionError("load_binary_model took more than 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        got = _outcome(load_binary_model, path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got == _outcome(reference_load_binary, path)


def test_rows_are_views_of_one_float32_matrix(tmp_path):
    rng = np.random.default_rng(3)
    # 1200 x 300 float32 is ~1.4 MB: more than one block at the real block size.
    vectors = rng.standard_normal((1200, 300)).astype(np.float32)
    tokens = [f"t{i % 1100}".encode() for i in range(1200)]
    path = tmp_path / "m.bin"
    path.write_bytes(b"1200 300\n" + b"".join(
        t + b" " + v.tobytes() + b"\n" for t, v in zip(tokens, vectors)))
    assert_same_as_reference(path, embeddings._BLOCK_BYTES)
    model = load_binary_model(path)
    assert model.duplicates == 100 and len(model) == 1100
    # The file's rows, duplicates' rows included, in one read-only matrix;
    # lookups are views of it and the model keeps no row objects.
    assert model.matrix.shape == (1200, 300) and model.matrix.dtype == np.float32
    assert not model.matrix.flags.writeable
    np.testing.assert_array_equal(model.matrix, vectors)
    assert model.index["t5"] == 5 and model.index["t1099"] == 1099
    assert all(np.shares_memory(v, model.matrix) for v in model.vocab.values())
    assert all(v.dtype == np.float32 and v.shape == (300,) for v in model.vocab.values())
    np.testing.assert_array_equal(model.vocab["t5"], vectors[5])


def test_load_memory_per_row(tmp_path):
    """A 20k-row load stays under 160 traced bytes per row at dim 4.

    The float32 values take 16 bytes a row and the read buffer (the file
    size) 23; token strings and the token -> row dict take most of the rest.
    A per-row array view alone costs 112 bytes, which breaks the bound.
    """
    rows, dim = 20_000, 4
    vectors = np.random.default_rng(9).standard_normal((rows, dim)).astype(np.float32)
    path = tmp_path / "m.bin"
    path.write_bytes(f"{rows} {dim}\n".encode() + b"".join(
        f"w{i}".encode() + b" " + v.tobytes() + b"\n" for i, v in enumerate(vectors)))
    tracemalloc.start()
    try:
        model = load_binary_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model) == rows
    assert peak < rows * 160
