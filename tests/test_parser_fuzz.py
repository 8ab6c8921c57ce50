"""Fuzz tests of the data-file parsers and of the CLI that reads their files.

Whatever the bytes of a lexicon, corpus, word-pair, document-vector,
token-frequency or stopword file, its parser returns a value that keeps the
format's rules (finite numbers, positions in range) or raises ``ParseError``.
The message names the file and, unless it is about the file as a whole
(nothing found, or a rule across lines), a line that exists. The CLI turns
that error into exit code 1 and a ``data error:`` line (exit code 2 and a
``configuration error:`` line for the ``KWSENSE_STOPWORDS`` file), never a
traceback. Binary models have no lines: their header and entries are fuzzed
separately.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import struct
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kwsense import ParseError
from kwsense.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from kwsense.disambig import load_docvec_store
from kwsense.embeddings import load_binary_model
from kwsense.evaluation import load_wordpair_dataset, load_wsd_corpus
from kwsense.lexicon import load_lexicon
from kwsense.relatedness import load_word_frequencies
from kwsense.stopwords import load_stopwords

# Messages about the whole file, which name no line.
WHOLE_FILE = re.compile(
    r"no frequency entries found|need at least two pairs|no document vectors found"
    r"|duplicate sense id: .*|dangling sense references: .*"
)

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -1, 0, 2]),
    st.floats(), st.text(max_size=4),
)
JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
WORDS = st.sampled_from(["java", "island", "sea", "coffee", "a", "", "Java"])


def _mostly(good, other):
    return st.one_of(good, good, good, other)


def _field(good):
    """Mostly a plausible value for a field, sometimes any JSON value."""
    return _mostly(good, JSON)


def _objects(fields: dict) -> st.SearchStrategy:
    return st.fixed_dictionaries({}, optional={k: _field(v) for k, v in fields.items()})


LEXICON = _objects({
    "id": st.sampled_from(["java#island", "java#coffee", "s", ""]),
    "lemmas": st.lists(WORDS, max_size=2),
    "synonyms": st.lists(WORDS, max_size=2),
    "core_context": st.lists(st.one_of(
        st.fixed_dictionaries({"ref": st.sampled_from(["java#island", "ghost"])}),
        st.fixed_dictionaries({"label": WORDS}),
        st.fixed_dictionaries({"ref": WORDS, "is_ref": st.just(True)}),
    ), max_size=2),
    "description_terms": st.lists(WORDS, max_size=3),
    "frequency": st.one_of(st.floats(), st.integers(), st.sampled_from([10**400])),
})
CORPUS = _objects({
    "item_id": st.one_of(st.text(max_size=3), st.integers()),
    "tokens": st.lists(WORDS, max_size=4),
    "targets": st.lists(_objects({
        "position": st.one_of(st.integers(-1, 4), st.booleans(), st.floats()),
        "keyword": WORDS,
        "gold": st.lists(st.sampled_from(["java#island", "x"]), max_size=2),
    }), max_size=2),
})
DOCVEC = _objects({
    "id": st.sampled_from(["java#island", "java#coffee", ""]),
    "vector": st.lists(_mostly(st.floats(-1, 1), st.one_of(
        st.floats(), st.integers(), st.booleans(), st.sampled_from(["1.5", 10**400]))),
        min_size=2, max_size=2) | st.lists(st.floats(-1, 1), max_size=3),
})
NUMBERS = st.one_of(st.floats().map(repr), st.integers().map(str), st.integers(1, 99).map(str),
                    st.sampled_from(["\u00b2", "\u0663", "1_0", "nan", "inf", "x", ""]))
GARBAGE = st.one_of(st.text(max_size=20), st.sampled_from(["[" * 5000, "1" * 5000, ""]))
PAIR_LINES = _mostly(
    st.tuples(WORDS, WORDS, NUMBERS).map("\t".join),
    st.lists(st.one_of(WORDS, NUMBERS, GARBAGE), max_size=4).map("\t".join),
)
FREQ_LINES = _mostly(
    st.tuples(WORDS, NUMBERS).map(" ".join),
    st.lists(st.one_of(WORDS, NUMBERS, GARBAGE), max_size=3).map(" ".join),
)


def _json_lines(objects):
    return _mostly(objects.map(json.dumps), GARBAGE)


@st.composite
def _files(draw, lines):
    """Lines joined by mixed line ends, sometimes with an undecodable byte; or any bytes."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.binary(max_size=200))
    parts = draw(st.lists(lines, max_size=5))
    data = "".join(p + draw(st.sampled_from(["\n", "\r\n", "\r"])) for p in parts).encode()
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _lines_in(data: bytes) -> int:
    """An upper bound on the line count under universal line ends."""
    return data.count(b"\n") + data.count(b"\r") + 1


def _check_error(exc: ParseError, path: Path, data: bytes) -> None:
    message = str(exc)
    assert message.startswith(f"{path}: "), message
    rest = message[len(f"{path}: "):]
    line = re.match(r"line (\d+): ", rest)
    if line:
        assert 1 <= int(line.group(1)) <= _lines_in(data), message
    else:
        assert WHOLE_FILE.fullmatch(rest), message


def _valid_lexicon(lexicon) -> bool:
    return all(math.isfinite(s.frequency) and s.frequency >= 0 for s in lexicon.senses.values())


def _valid_corpus(corpus) -> bool:
    return all(type(t.position) is int and 0 <= t.position < len(item.tokens)
               for item in corpus.items for t in item.targets)


def _valid_pairs(dataset) -> bool:
    return len(dataset.pairs) >= 2 and all(math.isfinite(p.score) for p in dataset.pairs)


def _valid_docvecs(store) -> bool:
    return all(v.dtype == np.float64 and v.shape == (store.dim,) and np.isfinite(v).all()
               for v in store.vectors.values())


def _valid_frequencies(freqs: dict) -> bool:
    return all(0 < f <= 1 for f in freqs.values()) and math.isclose(sum(freqs.values()), 1)


def _parse(load, valid, path: Path, data: bytes) -> str | None:
    """The ParseError message for ``data``, or None when it parses to a valid value."""
    path.write_bytes(data)
    try:
        value = load(path)
    except ParseError as exc:
        _check_error(exc, path, data)
        return str(exc)
    assert valid(value), value
    return None


def _run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


def _check_cli(load, valid, path: Path, data: bytes, argv: list[str]) -> None:
    error = _parse(load, valid, path, data)
    code, err = _run_cli(argv)
    if error is not None:
        assert code == EXIT_DATA and err.startswith("data error:") and error in err, err


@FUZZ
@given(data=_files(_json_lines(LEXICON)))
def test_lexicon(tmp_path, toy_model_file, data):
    path = tmp_path / "lex.jsonl"
    _check_cli(load_lexicon, _valid_lexicon, path, data, [
        "disambiguate", "--model", str(toy_model_file), "--lexicon", str(path),
        "--output", "json", "java", "island"])


@FUZZ
@given(data=_files(_json_lines(CORPUS)))
def test_corpus(tmp_path, toy_model_file, toy_lexicon_file, data):
    path = tmp_path / "corpus.jsonl"
    _check_cli(load_wsd_corpus, _valid_corpus, path, data, [
        "eval-wsd", "--model", str(toy_model_file), "--lexicon", str(toy_lexicon_file),
        str(path)])


@FUZZ
@given(data=_files(PAIR_LINES))
def test_word_pairs(tmp_path, toy_model_file, data):
    path = tmp_path / "pairs.tsv"
    _check_cli(load_wordpair_dataset, _valid_pairs, path, data,
               ["eval-pairs", "--model", str(toy_model_file), str(path)])


@FUZZ
@given(data=_files(_json_lines(DOCVEC)))
def test_docvec(tmp_path, toy_model_file, toy_lexicon_file, data):
    path = tmp_path / "dv.jsonl"
    _check_cli(load_docvec_store, _valid_docvecs, path, data, [
        "disambiguate", "--model", str(toy_model_file), "--lexicon", str(toy_lexicon_file),
        "--strategy", "docvec", "--docvec", str(path), "java", "island"])


@FUZZ
@given(data=_files(FREQ_LINES))
def test_word_frequencies(tmp_path, toy_model_file, toy_lexicon_file, data):
    path = tmp_path / "freqs.txt"
    _check_cli(load_word_frequencies, _valid_frequencies, path, data, [
        "disambiguate", "--model", str(toy_model_file), "--lexicon", str(toy_lexicon_file),
        "--strategy", "sif", "--sif-freqs", str(path), "java", "island"])


def _valid_stopwords(words: frozenset) -> bool:
    return all(w and w == w.lower() and w == w.strip() for w in words)


@FUZZ
@given(data=_files(_mostly(WORDS.map(str.upper), GARBAGE)))
def test_stopwords(tmp_path, toy_model_file, toy_lexicon_file, data):
    path = tmp_path / "stop.txt"
    error = _parse(load_stopwords, _valid_stopwords, path, data)
    with mock.patch.dict(os.environ, {"KWSENSE_STOPWORDS": str(path)}):
        code, err = _run_cli([
            "disambiguate", "--model", str(toy_model_file), "--lexicon", str(toy_lexicon_file),
            "java", "island"])
    if error is None:
        assert code == EXIT_OK, err
    else:
        assert code == EXIT_CONFIG and err.startswith("configuration error:"), err
        assert error in err, err


HEADER_NUMBERS = st.one_of(
    st.integers(0, 4).map(str), st.sampled_from(["1" * 5000, "\u00b2", "-1", "2.0", "0x2", ""]))


@st.composite
def _binary_models(draw):
    """A header of (mostly) two numbers, then 0-3 entries of two float32 values."""
    header = " ".join(draw(st.lists(HEADER_NUMBERS, min_size=1, max_size=3)))
    entries = b"".join(
        draw(st.sampled_from([b"sea ", b"island ", b"\nsea "]))
        + struct.pack("<2f", *draw(st.lists(st.floats(width=32), min_size=2, max_size=2)))
        for _ in range(draw(st.integers(0, 3)))
    )
    return header.encode() + b"\n" + entries[: draw(st.integers(0, len(entries)))]


@FUZZ
@given(data=_binary_models())
def test_binary_model(tmp_path, data):
    path = tmp_path / "model.bin"
    path.write_bytes(data)
    try:
        model = load_binary_model(path)
    except ParseError as exc:
        error = str(exc)
        assert error.startswith(f"{path}: "), error
    else:
        error = None
        assert all(np.isfinite(v).all() and v.shape == (model.dim,) for v in model.vocab.values())
    code, err = _run_cli(["rel", "--model", str(path), "sea", "island"])
    if error is not None:
        assert code == EXIT_DATA and err.startswith("data error:") and error in err, err
