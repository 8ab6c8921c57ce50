"""Model loading, lookup normalization, and vector aggregation."""
from __future__ import annotations

import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwsense import (
    EmbeddingModel,
    ParseError,
    VectorTable,
    load_binary_model,
    load_docvec_store,
    load_text_model,
    save_text_model,
)

from compile_reference import centroid
from conftest import TOY_DIM, TOY_VECTORS


sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import make_demo_data  # noqa: E402


class TestTextLoader:
    def test_header_file(self, toy_model_file):
        model = load_text_model(toy_model_file)
        assert model.dim == TOY_DIM
        assert len(model) == len(TOY_VECTORS)
        np.testing.assert_allclose(model.vocab["java"], TOY_VECTORS["java"])

    def test_headerless_dim_inference(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
        model = load_text_model(path)
        assert model.dim == 2
        assert set(model.vocab) == {"cat", "dog"}

    def test_column_count_mismatch_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("a 1 2\nb 1 2 3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_text_model(path)

    def test_non_numeric_component_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("a 1 2\nb x 3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_text_model(path)

    def test_non_finite_component_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("a 1 2\nb nan 3\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_text_model(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            load_text_model(path)

    def test_duplicates_keep_first_and_count(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("cat 1 0\ncat 9 9\ndog 0 1\n")
        model = load_text_model(path)
        assert model.duplicates == 1
        np.testing.assert_array_equal(model.vocab["cat"], [1.0, 0.0])

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"2 2\ncaf\xc3\xa9 1 2\nb\xff 3 4\n")
        with pytest.raises(ParseError, match="line 3: invalid UTF-8"):
            load_text_model(path)

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"2 2\r\ncaf\xc3\xa9 1 2\r\nb 3 4\r\n")
        model = load_text_model(path)
        assert list(model.vocab) == ["café", "b"]
        np.testing.assert_array_equal(model.vocab["b"], [3.0, 4.0])

    def test_superscript_digit_is_not_a_header(self, tmp_path):
        # "²".isdigit() but int("²") fails: a data line, not a header.
        path = tmp_path / "m.txt"
        path.write_text("3 \u00b2\na 1\n")
        with pytest.raises(ParseError, match="line 1: non-numeric vector component"):
            load_text_model(path)

    def test_decimal_digits_of_any_script_make_a_header(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("\u0663 \u0662\na 1 2\n")
        assert load_text_model(path).dim == 2

    def test_header_past_int_digit_limit_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3 " + "1" * 5000 + "\na 1\n")
        with pytest.raises(ParseError, match="line 1: header dimension too large"):
            load_text_model(path)

    def test_round_trip_preserves_tokens_and_values(self, tmp_path, toy_model):
        path = tmp_path / "dump.txt"
        save_text_model(toy_model, path)
        reloaded = load_text_model(path)
        assert set(reloaded.vocab) == set(toy_model.vocab)
        for token, vec in toy_model.vocab.items():
            np.testing.assert_allclose(reloaded.vocab[token], vec, atol=1e-6)


def _binary_bytes(entries: list[tuple[str, list[float]]], dim: int) -> bytes:
    blob = f"{len(entries)} {dim}\n".encode("ascii")
    for token, values in entries:
        blob += token.encode("utf-8") + b" "
        blob += struct.pack(f"<{dim}f", *values)
        blob += b"\n"
    return blob


class TestBinaryLoader:
    def test_basic_entries(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(_binary_bytes([("hi", [1.0, 2.0]), ("yo", [3.0, 4.0])], dim=2))
        model = load_binary_model(path)
        assert model.dim == 2
        np.testing.assert_allclose(model.vocab["hi"], [1.0, 2.0], rtol=1e-7)
        np.testing.assert_allclose(model.vocab["yo"], [3.0, 4.0], rtol=1e-7)
        assert model.vocab["hi"].dtype == np.float32

    def test_multibyte_utf8_token(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(_binary_bytes([("café", [1.0, 0.0])], dim=2))
        model = load_binary_model(path)
        assert "café" in model.vocab

    def test_no_trailing_newline_accepted(self, tmp_path):
        blob = b"1 2\n" + b"hi " + struct.pack("<2f", 1.0, 2.0)
        path = tmp_path / "m.bin"
        path.write_bytes(blob)
        model = load_binary_model(path)
        assert "hi" in model.vocab

    def test_truncation_reports_entries_read(self, tmp_path):
        blob = _binary_bytes([("hi", [1.0, 2.0]), ("yo", [3.0, 4.0])], dim=2)
        path = tmp_path / "m.bin"
        path.write_bytes(blob[:-6])
        with pytest.raises(ParseError, match="1 of 2"):
            load_binary_model(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"not a header\n")
        with pytest.raises(ParseError, match="header"):
            load_binary_model(path)


class TestLookup:
    def test_lowercase_first_then_raw(self):
        model = EmbeddingModel(vocab={"cat": np.array([1.0]), "Dog": np.array([2.0])}, dim=1)
        np.testing.assert_array_equal(model.lookup("CAT"), [1.0])
        np.testing.assert_array_equal(model.lookup("Dog"), [2.0])
        # "DOG" lowercases to "dog", which is absent, and raw "DOG" is absent too.
        assert model.lookup("DOG") is None

    def test_lowercase_entry_shadows_cased_one(self):
        model = EmbeddingModel(
            vocab={"cat": np.array([1.0]), "Cat": np.array([2.0])}, dim=1
        )
        np.testing.assert_array_equal(model.lookup("Cat"), [1.0])

    def test_missing_and_empty(self, toy_model):
        assert toy_model.lookup("qzx") is None
        assert toy_model.lookup("") is None


# Case variants and repeated tokens ("Cat", "x"); values exact in float32 and in repr.
ENTRIES = [("Cat", [1.0, 0.5, -2.0]), ("cat", [0.25, 3.0, 1.0]), ("DOG", [-1.0, 0.0, 4.0]),
           ("caf\u00e9", [2.0, 2.0, 0.125]), ("Cat", [9.0, 9.0, 9.0]), ("x", [0.0, 0.0, 0.0]),
           ("dog", [5.0, -0.5, 1.5]), ("x", [7.0, 7.0, 7.0])]
QUERIES = ["Cat", "cat", "CAT", "dog", "Dog", "DOG", "caf\u00e9", "CAF\u00c9", "x", "X", "qzx", ""]
PHRASES = ["Cat dog", "CAT qzx", "x x", "DOG caf\u00e9 Cat", "qzx", "", "  ", "cat"]


def _three_models(tmp_path) -> dict[str, tuple[EmbeddingModel, EmbeddingModel]]:
    """Per dtype, (a dict-built model, the model loaded from a file of ENTRIES)."""
    first: dict[str, list[float]] = {}
    for token, vec in ENTRIES:
        first.setdefault(token, vec)
    dups = len(ENTRIES) - len(first)
    text = tmp_path / "m.txt"
    text.write_text(f"{len(ENTRIES)} 3\n" + "".join(
        f"{t} {' '.join(map(repr, v))}\n" for t, v in ENTRIES), encoding="utf-8")
    binary = tmp_path / "m.bin"
    binary.write_bytes(f"{len(ENTRIES)} 3\n".encode() + b"".join(
        t.encode() + b" " + np.array(v, dtype="<f4").tobytes() + b"\n" for t, v in ENTRIES))
    wide = {t: np.array(v) for t, v in first.items()}
    narrow = {t: np.array(v, dtype=np.float32) for t, v in first.items()}
    return {
        "float64": (EmbeddingModel(vocab=wide, dim=3, duplicates=dups), load_text_model(text)),
        "float32": (EmbeddingModel(vocab=narrow, dim=3, duplicates=dups),
                    load_binary_model(binary)),
    }


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestOneMatrix:
    def test_dict_text_and_binary_models_agree(self, tmp_path):
        models = _three_models(tmp_path)
        for dtype, (built, loaded) in models.items():
            assert built.matrix.dtype == loaded.matrix.dtype == np.dtype(dtype)
            assert list(built.vocab) == list(loaded.vocab) == ["Cat", "cat", "DOG", "caf\u00e9",
                                                               "x", "dog"]
            assert len(built) == len(loaded) == 6
            assert built.duplicates == loaded.duplicates == 2
            for q in QUERIES:
                assert (q in built) == (q in loaded)
                assert (q in built.vocab) == (q in loaded.vocab)
                assert _same(built.lookup(q), loaded.lookup(q)), (dtype, q)
            for p in PHRASES:
                assert _same(built.phrase_vector(p), loaded.phrase_vector(p)), (dtype, p)
                assert _same(built.phrase_matrix([p]), loaded.phrase_matrix([p])), (dtype, p)
            # The first occurrence of a repeated token keeps it.
            np.testing.assert_array_equal(loaded.lookup("Cat"), [0.25, 3.0, 1.0])
            np.testing.assert_array_equal(loaded.vocab["Cat"], [1.0, 0.5, -2.0])
            np.testing.assert_array_equal(loaded.vocab["x"], [0.0, 0.0, 0.0])
        wide, narrow = models["float64"][1], models["float32"][1]
        for p in PHRASES:
            assert _same(wide.phrase_matrix([p]), narrow.phrase_matrix([p]))

    def test_rows_are_read_only(self, tmp_path):
        for built, loaded in _three_models(tmp_path).values():
            for model in (built, loaded):
                row = model.lookup("cat")
                with pytest.raises(ValueError, match="read-only"):
                    row += 1.0
                with pytest.raises(ValueError, match="read-only"):
                    model.vocab["x"][0] = 1.0
                with pytest.raises(TypeError):
                    model.vocab["new"] = row
                np.testing.assert_array_equal(model.lookup("cat"), [0.25, 3.0, 1.0])

    def test_dict_vectors_are_copied(self):
        vec = np.array([1.0, 2.0])
        model = EmbeddingModel(vocab={"a": vec}, dim=2)
        vec[0] = 5.0
        np.testing.assert_array_equal(model.lookup("a"), [1.0, 2.0])
        assert len(EmbeddingModel(vocab={}, dim=2).matrix) == 0


class TestCentroid:
    """The scalar reference mean (``compile_reference.centroid``)."""

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no vectors"):
            centroid([])

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            centroid([np.array([1.0]), np.array([1.0, 2.0])])

    def test_mean_of_two(self):
        c = centroid([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        np.testing.assert_allclose(c, [0.5, 0.5])

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False, width=64), min_size=2, max_size=6),
        st.integers(min_value=1, max_value=7),
    )
    def test_k_copies_collapse_to_the_vector(self, components, copies):
        v = np.array(components)
        c = centroid([v] * copies)
        np.testing.assert_allclose(c, v, rtol=1e-12, atol=1e-12)

    @given(
        st.lists(
            st.lists(st.floats(-50, 50, allow_nan=False, width=64), min_size=3, max_size=3),
            min_size=2,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, rows, rng):
        vectors = [np.array(r) for r in rows]
        shuffled = list(vectors)
        rng.shuffle(shuffled)
        np.testing.assert_allclose(centroid(vectors), centroid(shuffled), rtol=1e-12, atol=1e-12)


class TestPhraseVector:
    def test_single_token(self, toy_model):
        np.testing.assert_array_equal(
            toy_model.phrase_vector("java"), toy_model.vocab["java"]
        )

    def test_multi_token_mean(self, toy_model):
        v = toy_model.phrase_vector("programming language")
        expected = (toy_model.vocab["programming"] + toy_model.vocab["language"]) / 2
        np.testing.assert_allclose(v, expected)

    def test_partial_oov_uses_found_tokens(self, toy_model):
        v = toy_model.phrase_vector("qzx island")
        np.testing.assert_array_equal(v, toy_model.vocab["island"])

    def test_all_oov_is_missing(self, toy_model):
        assert toy_model.phrase_vector("qzx wvu") is None
        assert toy_model.phrase_vector("") is None


class TestTableEquality:
    """Tables compare by their keys and each key's row, whatever the row layout."""

    @staticmethod
    def _demo_docvecs(tmp_path) -> Path:
        path = tmp_path / "docvec.jsonl"
        make_demo_data.write_docvecs(path, make_demo_data.build_model(12, 7),
                                     make_demo_data.build_senses())
        return path

    def test_two_loads_of_the_demo_docvec_store_are_equal(self, tmp_path):
        path = self._demo_docvecs(tmp_path)
        a, b = load_docvec_store(path), load_docvec_store(path)
        assert a.vectors is not b.vectors and a.vectors == b.vectors
        assert a == b and not a != b

    def test_a_changed_row_is_unequal(self, tmp_path):
        table = load_docvec_store(self._demo_docvecs(tmp_path)).vectors
        matrix = table.matrix.copy()
        matrix[len(matrix) // 2, 3] += 1e-12
        assert table != VectorTable(matrix, dict(table.index))
        # The same rows under another row order are equal.
        order = dict(zip(reversed(list(table.index)), range(len(table))))
        assert table == VectorTable(table.matrix[list(table.index.values())[::-1]], order)

    def test_a_changed_key_is_unequal(self, tmp_path):
        table = load_docvec_store(self._demo_docvecs(tmp_path)).vectors
        first, *rest = table.index
        renamed = {first + "x": table.index[first], **{k: table.index[k] for k in rest}}
        assert table != VectorTable(table.matrix.copy(), renamed)
        assert table != VectorTable(table.matrix[1:].copy(), {k: i - 1 for k, i in
                                                              table.index.items() if i})

    def test_a_model_vocabulary_equals_itself(self, toy_model_file):
        model = load_text_model(toy_model_file)
        assert model.vocab == model.vocab
        assert model.vocab == load_text_model(toy_model_file).vocab
