"""Angular relatedness, two-level sense relatedness, and description embeddings."""
from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import compile_reference
import kwsense
import oracle
from kwsense import (
    EmbeddingModel,
    Lexicon,
    ParseError,
    RelWeights,
    Sense,
    SifConfig,
    UnmeasurableError,
    angular_relatedness,
    build_sif_store,
    load_word_frequencies,
    rel_sense_word,
    rel_senses,
    rel_words,
)
from kwsense.lexicon import ContextRef
from kwsense.relatedness import relatedness_rows


@pytest.fixture()
def plane_model() -> EmbeddingModel:
    """2-dim model with a 45-degree pair: rel(sea, island) = 1 - (pi/4)/pi = 0.75."""
    half = math.sqrt(2.0) / 2.0
    return EmbeddingModel(
        vocab={
            "sea": np.array([1.0, 0.0]),
            "island": np.array([half, half]),
            "anti": np.array([-1.0, 0.0]),
            "north": np.array([0.0, 1.0]),
        },
        dim=2,
    )


class TestAngular:
    def test_identical_orthogonal_antipodal(self, plane_model):
        v = plane_model.vocab["sea"]
        assert angular_relatedness(v, v) == 1.0
        assert angular_relatedness(v, plane_model.vocab["north"]) == pytest.approx(0.5, abs=1e-12)
        assert angular_relatedness(v, plane_model.vocab["anti"]) == 0.0

    def test_forty_five_degrees(self, plane_model):
        r = angular_relatedness(plane_model.vocab["sea"], plane_model.vocab["island"])
        assert r == pytest.approx(0.75, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            angular_relatedness(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            angular_relatedness(np.array([1.0]), np.array([1.0, 0.0]))

    def test_clamping_handles_rounding(self):
        # A vector against a same-direction copy computed differently must
        # still be a valid input to acos.
        v = np.array([0.1, 0.2, 0.3])
        w = v * 3.0
        r = angular_relatedness(v, w)
        assert 0.0 <= r <= 1.0
        assert r == pytest.approx(1.0, abs=1e-7)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
        st.sampled_from(["float64", "float32", "scaled", "copy", "parallel", "antiparallel"]),
    )
    # A 300-d pair whose squared norms round differently under np.dot.
    @example(11, 300, "float64")
    def test_is_the_kernels_one_by_one_case(self, seed, dim, kind):
        rng = np.random.default_rng(seed)
        u, v = rng.normal(size=(2, dim))
        if kind == "float32":
            u, v = u.astype(np.float32), v.astype(np.float32)
        elif kind == "scaled":
            u, v = u * 2.0 ** rng.integers(-60, 61), v * 2.0 ** rng.integers(-60, 61)
        elif kind == "copy":
            v = u * 2.0 ** rng.integers(-60, 61)
        elif kind == "parallel":
            v = u * rng.uniform(0.1, 10.0)
        elif kind == "antiparallel":
            v = u * -rng.uniform(0.1, 10.0)
        want = relatedness_rows(u.astype(np.float64)[None], v.astype(np.float64)[None])[0, 0]
        assert angular_relatedness(u, v) == want

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False, width=64), min_size=3, max_size=8),
        st.lists(st.floats(-10, 10, allow_nan=False, width=64), min_size=3, max_size=8),
    )
    def test_symmetry_and_range(self, xs, ys):
        n = min(len(xs), len(ys))
        v1 = np.array(xs[:n])
        v2 = np.array(ys[:n])
        assume(float(np.dot(v1, v1)) > 1e-12 and float(np.dot(v2, v2)) > 1e-12)
        r12 = angular_relatedness(v1, v2)
        r21 = angular_relatedness(v2, v1)
        assert 0.0 <= r12 <= 1.0
        assert abs(r12 - r21) <= 1e-12

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False, width=64), min_size=4, max_size=8),
        st.lists(st.floats(-10, 10, allow_nan=False, width=64), min_size=4, max_size=8),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariance(self, xs, ys, lam1, lam2):
        n = min(len(xs), len(ys))
        v1 = np.array(xs[:n])
        v2 = np.array(ys[:n])
        assume(float(np.dot(v1, v1)) > 1e-12 and float(np.dot(v2, v2)) > 1e-12)
        base = angular_relatedness(v1, v2)
        # Keep away from the ill-conditioned acos endpoints: |cos| < 0.99.
        edge = math.acos(0.99) / math.pi
        assume(edge < base < 1.0 - edge)
        scaled = angular_relatedness(lam1 * v1, lam2 * v2)
        assert abs(base - scaled) <= 1e-12


class TestRelWords:
    def test_forty_five_degree_pair(self, plane_model):
        assert rel_words(plane_model, "sea", "island") == pytest.approx(0.75, abs=1e-12)

    def test_same_word_is_exactly_one(self, plane_model):
        assert rel_words(plane_model, "sea", "sea") == 1.0

    def test_oov_is_missing(self, plane_model):
        assert rel_words(plane_model, "sea", "qzx") is None
        assert rel_words(plane_model, "qzx", "wvu") is None

    def test_phrases_use_token_centroids(self, toy_model):
        r = rel_words(toy_model, "programming language", "code")
        c = (toy_model.vocab["programming"] + toy_model.vocab["language"]) / 2
        assert r == pytest.approx(angular_relatedness(c, toy_model.vocab["code"]), abs=1e-15)

    def test_zero_direction_phrase_is_missing(self):
        model = EmbeddingModel(
            vocab={"plus": np.array([1.0, 0.0]), "minus": np.array([-1.0, 0.0])}, dim=2
        )
        assert rel_words(model, "plus minus", "plus") is None


class TestRelWeights:
    def test_defaults(self):
        w = RelWeights()
        assert (w.w0, w.w1) == (0.5, 0.5)

    def test_must_be_nonnegative(self):
        for w0 in (-0.1, -math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^level weight w0 must lie in \[0, 1\], got "):
                RelWeights(w0)

    def test_must_be_at_most_one(self):
        for w0 in (1.5, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^level weight w0 must lie in \[0, 1\], got "):
                RelWeights(w0)


def _sense(sid: str, synonyms: tuple[str, ...], context: tuple[ContextRef, ...] = ()) -> Sense:
    return Sense(id=sid, lemmas=(sid,), synonyms=synonyms, core_context=context)


def _held(*senses: Sense) -> Lexicon:
    """A lexicon holding ``senses`` themselves: only a lexicon's own senses are related."""
    return Lexicon.from_senses(senses)


# Level 0 alone: RelWeights(1) (or no core context); level 1 alone: RelWeights(0).
LEVEL0 = RelWeights(1.0)
LEVEL1 = RelWeights(0.0)


class TestSenseLevels:
    def test_rel0_two_synonym_mean(self, plane_model):
        a = _sense("a", ("sea",))
        b = _sense("b", ("island", "sea"))
        # (rel(sea, island) + rel(sea, sea)) / 2 = (0.75 + 1.0) / 2
        assert rel_senses(plane_model, _held(a, b), a, b) == pytest.approx(0.875, abs=1e-12)

    def test_rel0_skips_missing_pairs(self, plane_model):
        a = _sense("a", ("sea",))
        b = _sense("b", ("island", "qzx"))
        assert rel_senses(plane_model, _held(a, b), a, b) == pytest.approx(0.75, abs=1e-12)

    def test_rel0_all_missing_is_none(self, plane_model):
        # Level 0 missing: with level 1 measurable it carries full weight, whatever w0.
        a = _sense("a", ("sea",), (ContextRef("island"),))
        b = _sense("b", ("qzx",), (ContextRef("sea"),))
        lexicon = _held(a, b)
        assert rel_senses(plane_model, lexicon, a, b, LEVEL0) == rel_senses(
            plane_model, lexicon, a, b, LEVEL1
        ) == pytest.approx(0.75, abs=1e-12)

    def test_rel1_over_context_members(self, plane_model):
        a = _sense("a", ("sea",), (ContextRef("island"),))
        b = _sense("b", ("north",), (ContextRef("sea"), ContextRef("island")))
        expected = (rel_words(plane_model, "island", "sea") + 1.0) / 2
        got = rel_senses(plane_model, _held(a, b), a, b, LEVEL1)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_rel1_empty_context_is_none(self, plane_model):
        # Level 1 missing (one side has no core context): level 0 carries full weight.
        a = _sense("a", ("sea",), (ContextRef("island"),))
        b = _sense("b", ("north",))
        assert rel_senses(plane_model, _held(a, b), a, b, LEVEL1) == pytest.approx(0.5, abs=1e-12)

    def test_rel1_resolves_sense_refs_through_lexicon(self, toy_model, toy_lexicon):
        landmass = toy_lexicon.senses["island#landmass"]
        ground = toy_lexicon.senses["land#ground"]
        # OC(landmass) = [land#ground], whose synonyms are (land, ground);
        # OC(ground) = ["place"] as a bare label.
        x, y = _sense("x", ("land", "ground")), _sense("y", ("place",))
        expected = rel_senses(toy_model, _held(x, y), x, y)
        assert rel_senses(toy_model, toy_lexicon, landmass, ground, LEVEL1) == pytest.approx(
            expected, abs=1e-15
        )

    def test_combined_is_weighted_sum(self, plane_model):
        a = _sense("a", ("sea",), (ContextRef("island"),))
        b = _sense("b", ("island",), (ContextRef("sea"),))
        lexicon = _held(a, b)
        r0 = rel_senses(plane_model, lexicon, a, b, LEVEL0)
        r1 = rel_senses(plane_model, lexicon, a, b, LEVEL1)
        expected = 0.25 * r0 + 0.75 * r1
        got = rel_senses(plane_model, lexicon, a, b, RelWeights(0.25))
        assert got == pytest.approx(expected, abs=1e-15)

    def test_empty_context_renormalizes_to_level0(self, plane_model):
        a = _sense("a", ("sea",))
        b = _sense("b", ("island",))
        # No core context on either side: level 1 is missing and level 0
        # carries full weight instead of being scaled by w0.
        assert rel_senses(plane_model, _held(a, b), a, b) == pytest.approx(0.75, abs=1e-12)

    def test_level0_missing_renormalizes_to_level1(self, plane_model):
        a = _sense("a", ("qzx",), (ContextRef("sea"),))
        b = _sense("b", ("island",), (ContextRef("sea"),))
        assert rel_senses(plane_model, _held(a, b), a, b) == pytest.approx(1.0, abs=1e-12)

    def test_nothing_measurable_raises(self, plane_model):
        a = _sense("a", ("qzx",))
        b = _sense("b", ("wvu",))
        with pytest.raises(UnmeasurableError, match="senses not representable in model: 'a', 'b'"):
            rel_senses(plane_model, _held(a, b), a, b)

    def test_self_relatedness_single_member_sense(self, toy_model, toy_lexicon):
        sense = toy_lexicon.senses["java#island"]
        assert rel_senses(toy_model, toy_lexicon, sense, sense) == 1.0

    def test_self_relatedness_with_identical_synonym_vectors(self):
        model = EmbeddingModel(
            vocab={"boat": np.array([0.3, 0.4]), "ship": np.array([0.3, 0.4])}, dim=2
        )
        sense = _sense("s", ("boat", "ship"))
        assert rel_senses(model, _held(sense), sense, sense) == 1.0


class TestSenseWord:
    def test_rel0_mean_over_synonyms(self, plane_model):
        t = _sense("t", ("sea", "island"))
        expected = (1.0 + rel_words(plane_model, "island", "sea")) / 2
        got = rel_sense_word(plane_model, _held(t), t, "sea")
        assert got == pytest.approx(expected, abs=1e-15)

    def test_rel1_mean_over_context(self, plane_model):
        t = _sense("t", ("north",), (ContextRef("sea"), ContextRef("island")))
        expected = (1.0 + rel_words(plane_model, "island", "sea")) / 2
        got = rel_sense_word(plane_model, _held(t), t, "sea", LEVEL1)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_combined_weighting(self, plane_model):
        t = _sense("t", ("island",), (ContextRef("sea"),))
        lexicon = _held(t)
        r0 = rel_sense_word(plane_model, lexicon, t, "north", LEVEL0)
        r1 = rel_sense_word(plane_model, lexicon, t, "north", LEVEL1)
        got = rel_sense_word(plane_model, lexicon, t, "north")
        assert got == pytest.approx(0.5 * r0 + 0.5 * r1, abs=1e-15)

    def test_oov_word_raises(self, plane_model):
        t = _sense("t", ("sea",))
        with pytest.raises(UnmeasurableError, match="not representable"):
            rel_sense_word(plane_model, _held(t), t, "qzx")


@st.composite
def _sense_pairs(draw):
    """Two senses, a word and weights over a small float32 or float64 model.

    Phrases may repeat, miss the model ("qzx") or have no direction ("w0 n0",
    as n0 = -w0); core contexts mix labels and references to two more senses.
    """
    dim = draw(st.integers(2, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    component = st.floats(-2.0, 2.0, width=32)
    vocab = {
        f"w{i}": np.array(draw(st.lists(component, min_size=dim, max_size=dim)), dtype=dtype)
        for i in range(draw(st.integers(2, 5)))
    }
    vocab["n0"] = -vocab["w0"]
    phrase = st.lists(st.sampled_from([*vocab, "qzx"]), min_size=1, max_size=2).map(" ".join)
    synonyms = st.lists(phrase, min_size=1, max_size=4).map(tuple)
    member = st.one_of(
        phrase.map(ContextRef),
        st.sampled_from(["r0", "r1"]).map(lambda ref: ContextRef(ref, is_ref=True)),
    )
    refs = [_sense(f"r{i}", draw(synonyms)) for i in range(2)]
    a, b = (
        _sense(sid, draw(synonyms), tuple(draw(st.lists(member, max_size=3))))
        for sid in ("a", "b")
    )
    weights = draw(st.sampled_from([RelWeights(0.5), RelWeights(0.3), LEVEL0, LEVEL1]))
    lexicon = Lexicon.from_senses([a, b, *refs])
    return EmbeddingModel(vocab=vocab, dim=dim), lexicon, a, b, draw(phrase), weights


def _or_none(fn, *args):
    try:
        return fn(*args)
    except UnmeasurableError:
        return None


@settings(max_examples=200, deadline=None)
@given(_sense_pairs())
def test_sense_relatedness_matches_oracle(case):
    model, lexicon, a, b, word, w = case
    want = [
        oracle.rel_tt(model, lexicon, a, b, w.w0, w.w1),
        oracle.rel_tt(model, lexicon, b, a, w.w0, w.w1),
        oracle.rel_tw(model, lexicon, a, word, w.w0, w.w1),
    ]
    got = [
        _or_none(rel_senses, model, lexicon, a, b, w),
        _or_none(rel_senses, model, lexicon, b, a, w),
        _or_none(rel_sense_word, model, lexicon, a, word, w),
    ]
    assert got == [
        compile_reference.rel_senses(model, lexicon, a, b, w),
        compile_reference.rel_senses(model, lexicon, b, a, w),
        compile_reference.rel_sense_word(model, lexicon, a, word, w),
    ]
    for g, r in zip(got, want):
        assert (g is None) == (r is None)
        if g is not None:
            assert abs(g - r) <= 1e-10


def test_every_public_name_resolves():
    assert [name for name in kwsense.__all__ if not hasattr(kwsense, name)] == []


class TestWordFrequencies:
    def test_relative_frequencies(self, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_text("the 30\ncat 10\n")
        freqs = load_word_frequencies(path)
        assert freqs["the"] == pytest.approx(0.75)
        assert freqs["cat"] == pytest.approx(0.25)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_text("the 30\ncat minus\n")
        with pytest.raises(ParseError, match="line 2"):
            load_word_frequencies(path)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_bytes(b"the 30\ncat\xff 10\n")
        with pytest.raises(ParseError, match=f"^{path}: line 2: invalid UTF-8$"):
            load_word_frequencies(path)

    def test_superscript_count_names_line(self, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_text("the 30\ncat \u00b2\n")
        with pytest.raises(ParseError, match="line 2: expected 'token count'"):
            load_word_frequencies(path)

    def test_count_past_int_digit_limit_names_line(self, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_text("the 30\ncat " + "1" * 5000 + "\n")
        with pytest.raises(ParseError, match="line 2: expected 'token count'"):
            load_word_frequencies(path)

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_text("\n")
        with pytest.raises(ParseError):
            load_word_frequencies(path)


def _store_of_bags(model: EmbeddingModel, bags: dict[str, list[str]], cfg: SifConfig):
    """The SIF store of a lexicon with one sense per bag, each token a description term."""
    lexicon = Lexicon.from_senses(Sense(id=sid, lemmas=(sid,), synonyms=(sid,),
                                        description_terms=tuple(bag)) for sid, bag in bags.items())
    return build_sif_store(model, lexicon, cfg)


def _raw_means(model: EmbeddingModel, bags: dict[str, list[str]]) -> dict:
    """Each bag's embedding in a store of its own: one row, from which nothing is removed."""
    return {sid: _store_of_bags(model, {sid: bag}, SifConfig())[sid] for sid, bag in bags.items()}


class TestSifEmbeddings:
    def test_uniform_weights_give_plain_centroid(self, toy_model):
        descriptions = {
            "s1": ["island", "sea", "qzx"],
            "s2": ["coffee", "drink"],
        }
        vectors = _raw_means(toy_model, descriptions)
        expected1 = (toy_model.vocab["island"] + toy_model.vocab["sea"]) / 2
        expected2 = (toy_model.vocab["coffee"] + toy_model.vocab["drink"]) / 2
        np.testing.assert_allclose(vectors["s1"], expected1, atol=1e-12)
        np.testing.assert_allclose(vectors["s2"], expected2, atol=1e-12)

    def test_frequent_tokens_weigh_less(self, toy_model, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_text("island 99\nsea 1\n")
        cfg = SifConfig(word_freq_source=path)
        vectors = _store_of_bags(toy_model, {"s": ["island", "sea"]}, cfg)
        plain = (toy_model.vocab["island"] + toy_model.vocab["sea"]) / 2
        # The smoothed-inverse weight of "island" is lower, so the embedding
        # leans toward "sea" relative to the plain centroid.
        sea_dir = toy_model.vocab["sea"]
        assert angular_relatedness(vectors["s"], sea_dir) > angular_relatedness(plain, sea_dir)

    def test_no_invocab_tokens_omitted_with_warning(self, toy_model, caplog):
        with caplog.at_level(logging.WARNING, logger="kwsense.disambig"):
            vectors = _store_of_bags(
                toy_model, {"bad": ["qzx", "wvu"], "good": ["island"]}, SifConfig()
            )
        assert "bad" not in vectors
        assert "good" in vectors
        assert any("bad" in rec.message for rec in caplog.records)

    def test_one_warning_per_call_counts_omitted(self, toy_model, caplog):
        descriptions = {f"oov{i}": ["qzx"] for i in range(5)}
        descriptions["good"] = ["island"]
        with caplog.at_level(logging.WARNING, logger="kwsense.disambig"):
            vectors = _store_of_bags(toy_model, descriptions, SifConfig())
        assert list(vectors) == ["good"]
        (record,) = caplog.records
        assert record.getMessage().startswith("5 descriptions have no in-vocabulary tokens")
        assert "'oov0', 'oov1', 'oov2'" in record.getMessage()
        assert "oov3" not in record.getMessage()

    def test_two_descriptions_orthogonal_to_svd_direction(self, toy_model):
        # With two descriptions the centered matrix has rank 1, so the power
        # iteration lands exactly on the first right singular vector and the
        # SVD gives a fully independent check.
        descriptions = {
            "s1": ["island", "sea", "bali"],
            "s2": ["coffee", "drink", "cup"],
        }
        vectors = _store_of_bags(toy_model, descriptions, SifConfig())
        raw = _raw_means(toy_model, descriptions)
        m = np.stack(list(raw.values()))
        m = m - m.mean(axis=0)
        _, _, vt = np.linalg.svd(m, full_matrices=False)
        u = vt[0]
        for v in vectors.values():
            assert abs(float(np.dot(u, v))) <= 1e-9

    def test_outputs_orthogonal_to_computed_direction(self, toy_model):
        from kwsense.relatedness import _principal_direction

        descriptions = {
            "s1": ["island", "sea", "bali"],
            "s2": ["coffee", "drink", "cup"],
            "s3": ["programming", "code"],
        }
        raw = _raw_means(toy_model, descriptions)
        u = _principal_direction(list(raw.values()))
        vectors = _store_of_bags(toy_model, descriptions, SifConfig())
        for v in vectors.values():
            assert abs(float(np.dot(u, v))) <= 1e-9

    def test_single_description_skips_removal(self, toy_model):
        vectors = _store_of_bags(toy_model, {"s": ["island", "sea"]}, SifConfig())
        expected = (toy_model.vocab["island"] + toy_model.vocab["sea"]) / 2
        np.testing.assert_allclose(vectors["s"], expected, atol=1e-12)
