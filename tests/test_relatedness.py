"""Angular relatedness, two-level sense relatedness, and description embeddings."""
from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kwsense import (
    EmbeddingModel,
    Lexicon,
    ParseError,
    RelWeights,
    Sense,
    SifConfig,
    UnmeasurableError,
    angular_relatedness,
    cosine,
    load_word_frequencies,
    rel0_sense_word,
    rel0_senses,
    rel1_sense_word,
    rel1_senses,
    rel_sense_word,
    rel_senses,
    rel_words,
    sif_embeddings,
)
from kwsense.lexicon import ContextRef


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
            cosine(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            cosine(np.array([1.0]), np.array([1.0, 0.0]))

    def test_clamping_handles_rounding(self):
        # A vector against a same-direction copy computed differently must
        # still be a valid input to acos.
        v = np.array([0.1, 0.2, 0.3])
        w = v * 3.0
        r = angular_relatedness(v, w)
        assert 0.0 <= r <= 1.0
        assert r == pytest.approx(1.0, abs=1e-7)

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
        # Keep away from the ill-conditioned acos endpoints.
        assume(abs(cosine(v1, v2)) < 0.99)
        base = angular_relatedness(v1, v2)
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

    def test_split(self):
        w = RelWeights.split(0.3)
        assert w.w1 == pytest.approx(0.7)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            RelWeights(0.5, 0.6)

    def test_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=">= 0"):
            RelWeights(-0.5, 1.5)


def _sense(sid: str, synonyms: tuple[str, ...], context: tuple[ContextRef, ...] = ()) -> Sense:
    return Sense(id=sid, lemmas=(sid,), synonyms=synonyms, core_context=context)


class TestSenseLevels:
    def test_rel0_two_synonym_mean(self, plane_model):
        a = _sense("a", ("sea",))
        b = _sense("b", ("island", "sea"))
        # (rel(sea, island) + rel(sea, sea)) / 2 = (0.75 + 1.0) / 2
        assert rel0_senses(plane_model, a, b) == pytest.approx(0.875, abs=1e-12)

    def test_rel0_skips_missing_pairs(self, plane_model):
        a = _sense("a", ("sea",))
        b = _sense("b", ("island", "qzx"))
        assert rel0_senses(plane_model, a, b) == pytest.approx(0.75, abs=1e-12)

    def test_rel0_all_missing_is_none(self, plane_model):
        a = _sense("a", ("sea",))
        b = _sense("b", ("qzx",))
        assert rel0_senses(plane_model, a, b) is None

    def test_rel1_over_context_members(self, plane_model):
        a = _sense("a", ("sea",), (ContextRef("island"),))
        b = _sense("b", ("north",), (ContextRef("sea"), ContextRef("island")))
        expected = (rel_words(plane_model, "island", "sea") + 1.0) / 2
        assert rel1_senses(plane_model, None, a, b) == pytest.approx(expected, abs=1e-12)

    def test_rel1_empty_context_is_none(self, plane_model):
        a = _sense("a", ("sea",), (ContextRef("island"),))
        b = _sense("b", ("north",))
        assert rel1_senses(plane_model, None, a, b) is None

    def test_rel1_resolves_sense_refs_through_lexicon(self, toy_model, toy_lexicon):
        landmass = toy_lexicon.senses["island#landmass"]
        ground = toy_lexicon.senses["land#ground"]
        # OC(landmass) = [land#ground], whose synonyms are (land, ground);
        # OC(ground) = ["place"] as a bare label.
        expected = rel0_senses(
            toy_model,
            _sense("x", ("land", "ground")),
            _sense("y", ("place",)),
        )
        assert rel1_senses(toy_model, toy_lexicon, landmass, ground) == pytest.approx(
            expected, abs=1e-15
        )

    def test_combined_is_weighted_sum(self, plane_model):
        a = _sense("a", ("sea",), (ContextRef("island"),))
        b = _sense("b", ("island",), (ContextRef("sea"),))
        r0 = rel0_senses(plane_model, a, b)
        r1 = rel1_senses(plane_model, None, a, b)
        expected = 0.25 * r0 + 0.75 * r1
        got = rel_senses(plane_model, None, a, b, RelWeights(0.25, 0.75))
        assert got == pytest.approx(expected, abs=1e-15)

    def test_empty_context_renormalizes_to_level0(self, plane_model):
        a = _sense("a", ("sea",))
        b = _sense("b", ("island",))
        # No core context on either side: level 1 is missing and level 0
        # carries full weight instead of being scaled by w0.
        assert rel_senses(plane_model, None, a, b) == pytest.approx(0.75, abs=1e-12)

    def test_level0_missing_renormalizes_to_level1(self, plane_model):
        a = _sense("a", ("qzx",), (ContextRef("sea"),))
        b = _sense("b", ("island",), (ContextRef("sea"),))
        assert rel_senses(plane_model, None, a, b) == pytest.approx(1.0, abs=1e-12)

    def test_nothing_measurable_raises(self, plane_model):
        a = _sense("a", ("qzx",))
        b = _sense("b", ("wvu",))
        with pytest.raises(ValueError, match="not representable"):
            rel_senses(plane_model, None, a, b)

    def test_self_relatedness_single_member_sense(self, toy_model, toy_lexicon):
        sense = toy_lexicon.senses["java#island"]
        assert rel_senses(toy_model, toy_lexicon, sense, sense) == 1.0

    def test_self_relatedness_with_identical_synonym_vectors(self):
        model = EmbeddingModel(
            vocab={"boat": np.array([0.3, 0.4]), "ship": np.array([0.3, 0.4])}, dim=2
        )
        sense = _sense("s", ("boat", "ship"))
        assert rel_senses(model, None, sense, sense) == 1.0


class TestSenseWord:
    def test_rel0_mean_over_synonyms(self, plane_model):
        t = _sense("t", ("sea", "island"))
        expected = (1.0 + rel_words(plane_model, "island", "sea")) / 2
        assert rel0_sense_word(plane_model, t, "sea") == pytest.approx(expected, abs=1e-15)

    def test_rel1_mean_over_context(self, plane_model):
        t = _sense("t", ("north",), (ContextRef("sea"), ContextRef("island")))
        expected = (1.0 + rel_words(plane_model, "island", "sea")) / 2
        assert rel1_sense_word(plane_model, None, t, "sea") == pytest.approx(expected, abs=1e-15)

    def test_combined_weighting(self, plane_model):
        t = _sense("t", ("island",), (ContextRef("sea"),))
        r0 = rel0_sense_word(plane_model, t, "north")
        r1 = rel1_sense_word(plane_model, None, t, "north")
        got = rel_sense_word(plane_model, None, t, "north")
        assert got == pytest.approx(0.5 * r0 + 0.5 * r1, abs=1e-15)

    def test_oov_word_raises(self, plane_model):
        t = _sense("t", ("sea",))
        with pytest.raises(UnmeasurableError, match="not representable"):
            rel_sense_word(plane_model, None, t, "qzx")

    def test_context_ref_without_lexicon_raises(self, plane_model):
        t = _sense("t", ("sea",), (ContextRef("north"), ContextRef("s2", is_ref=True)))
        with pytest.raises(ValueError, match="'s2' needs a lexicon"):
            rel1_sense_word(plane_model, None, t, "sea")
        with pytest.raises(ValueError, match="'s2' needs a lexicon"):
            rel1_senses(plane_model, None, t, t)


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

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_text("\n")
        with pytest.raises(ParseError):
            load_word_frequencies(path)


class TestSifEmbeddings:
    def test_uniform_weights_give_plain_centroid(self, toy_model):
        descriptions = {
            "s1": ["island", "sea", "qzx"],
            "s2": ["coffee", "drink"],
        }
        cfg = SifConfig(remove_component=False)
        vectors = sif_embeddings(toy_model, descriptions, cfg)
        expected1 = (toy_model.vocab["island"] + toy_model.vocab["sea"]) / 2
        expected2 = (toy_model.vocab["coffee"] + toy_model.vocab["drink"]) / 2
        np.testing.assert_allclose(vectors["s1"], expected1, atol=1e-12)
        np.testing.assert_allclose(vectors["s2"], expected2, atol=1e-12)

    def test_frequent_tokens_weigh_less(self, toy_model, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_text("island 99\nsea 1\n")
        cfg = SifConfig(word_freq_source=path, remove_component=False)
        vectors = sif_embeddings(toy_model, {"s": ["island", "sea"]}, cfg)
        plain = (toy_model.vocab["island"] + toy_model.vocab["sea"]) / 2
        # The smoothed-inverse weight of "island" is lower, so the embedding
        # leans toward "sea" relative to the plain centroid.
        sea_dir = toy_model.vocab["sea"]
        assert cosine(vectors["s"], sea_dir) > cosine(plain, sea_dir)

    def test_no_invocab_tokens_omitted_with_warning(self, toy_model, caplog):
        with caplog.at_level(logging.WARNING, logger="kwsense.relatedness"):
            vectors = sif_embeddings(
                toy_model, {"bad": ["qzx", "wvu"], "good": ["island"]},
                SifConfig(remove_component=False),
            )
        assert "bad" not in vectors
        assert "good" in vectors
        assert any("bad" in rec.message for rec in caplog.records)

    def test_two_descriptions_orthogonal_to_svd_direction(self, toy_model):
        # With two descriptions the centered matrix has rank 1, so the power
        # iteration lands exactly on the first right singular vector and the
        # SVD gives a fully independent check.
        descriptions = {
            "s1": ["island", "sea", "bali"],
            "s2": ["coffee", "drink", "cup"],
        }
        vectors = sif_embeddings(toy_model, descriptions, SifConfig())
        raw = sif_embeddings(toy_model, descriptions, SifConfig(remove_component=False))
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
        raw = sif_embeddings(toy_model, descriptions, SifConfig(remove_component=False))
        u = _principal_direction(list(raw.values()))
        vectors = sif_embeddings(toy_model, descriptions, SifConfig())
        for v in vectors.values():
            assert abs(float(np.dot(u, v))) <= 1e-9

    def test_single_description_skips_removal(self, toy_model):
        vectors = sif_embeddings(toy_model, {"s": ["island", "sea"]}, SifConfig())
        expected = (toy_model.vocab["island"] + toy_model.vocab["sea"]) / 2
        np.testing.assert_allclose(vectors["s"], expected, atol=1e-12)

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing"):
            SifConfig(smoothing=0.0)
