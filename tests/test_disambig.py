"""Active-context selection, the three scoring steps, and the full pipeline."""
from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from kwsense import (
    ActiveContext,
    AlgoParams,
    ConfigError,
    ContextConfig,
    DocVecStore,
    EmbeddingModel,
    Lexicon,
    ParseError,
    RelWeights,
    Sense,
    SenseScore,
    Strategy,
    UnmeasurableError,
    build_sif_store,
    compiled,
    disambiguate,
    load_docvec_store,
    norm_freq,
    select_active_context,
    step1_base_scores,
    step2_rescore,
    step3_frequency,
)
from kwsense.lexicon import ContextRef
from kwsense.relatedness import angular_relatedness, has_direction, rel_words

from conftest import TOY_DIM, make_toy_senses, vector_table

STOP = frozenset({"the", "is", "an", "of", "a"})

# Words in several cases, with characters whose lowercase form depends on
# context (final sigma) or has two code points (dotted capital I).
_WORDS = ("sea", "Sea", "SEA", "the", "The", "ΟΔΟΣ", "οδος", "σ", "Σ", "İstanbul",
          "big sea")
_TERMS = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).flatmap(
    lambda words: st.sampled_from([" ", "\t", "  "]).map(lambda sep: sep.join(words)))


def _cfg(**kwargs) -> ContextConfig:
    kwargs.setdefault("stopwords", STOP)
    return ContextConfig(**kwargs)


class TestActiveContext:
    def test_stopwords_dedup_and_target_removed(self, toy_model):
        ca = select_active_context(
            toy_model,
            ["the", "island", "Island", "java", "of", "island"],
            "java",
            _cfg(),
        )
        assert ca.words == ("island",)
        assert ca.target == "java"

    def test_scores_sorted_descending(self, toy_model):
        ca = select_active_context(
            toy_model, ["code", "coffee", "island"], "java", _cfg()
        )
        scores = [s for _, s in ca.members]
        assert scores == sorted(scores, reverse=True)
        assert set(ca.words) == {"code", "coffee", "island"}

    def test_threshold_filters_unrelated_words(self, toy_model):
        ca = select_active_context(toy_model, ["island", "xenon"], "java", _cfg())
        assert ca.words == ("island",)

    def test_oov_words_dropped(self, toy_model):
        ca = select_active_context(toy_model, ["qzx", "island"], "java", _cfg())
        assert ca.words == ("island",)

    def test_truncated_to_max_context(self, toy_model):
        words = ["island", "bali", "sea", "indonesian", "land", "ground"]
        ca = select_active_context(toy_model, words, "java", _cfg())
        assert len(ca) == 4

    def test_ties_keep_input_order(self):
        model = EmbeddingModel(
            vocab={
                "kw": np.array([1.0, 0.0]),
                "x": np.array([0.6, 0.2]),
                "y": np.array([0.6, 0.2]),
            },
            dim=2,
        )
        ca = select_active_context(model, ["y", "x"], "kw", _cfg(max_context=1))
        assert ca.words == ("y",)

    @pytest.mark.parametrize("seed, dim", [(9, 3), (7, 8), (2, 8)])
    def test_near_ties_inside_the_kept_list_follow_the_defining_formula(self, seed, dim):
        # w0 = 3 * w5 is parallel to w5, so both relate to kw alike; the kernel
        # rounds the two values in another order than the defining formula,
        # and no max_context cut falls between them.
        rng = np.random.default_rng(seed)
        vocab = {f"w{i}": rng.normal(size=dim) for i in range(6)}
        vocab["kw"] = rng.normal(size=dim)
        vocab["w0"] = 3 * vocab["w5"]
        model = EmbeddingModel(vocab=vocab, dim=dim)
        ca = select_active_context(model, ["w5", "w0"], "kw", _cfg(threshold=0.0))
        want = oracle.active_context(model, ["w5", "w0"], "kw", STOP, 0.0, 4)
        assert ca.words == tuple(w for w, _ in want)
        for (_, got), (_, ref) in zip(ca.members, want):
            assert abs(got - ref) <= 1e-10

    def test_all_stopwords_give_empty_context(self, toy_model):
        ca = select_active_context(toy_model, ["the", "of", "a"], "java", _cfg())
        assert ca.members == ()

    def test_empty_keyword_rejected(self, toy_model):
        with pytest.raises(ValueError, match="keyword"):
            select_active_context(toy_model, ["island"], "", _cfg())

    def test_members_carry_their_rows(self, toy_model, toy_lexicon):
        words = ["Island", "sea", "qzx", "drink", "programming language", "the"]
        ca = select_active_context(toy_model, words, "java", _cfg(threshold=0.0, max_context=3))
        assert ca.rows.dtype == np.float64
        assert ca.rows.tobytes() == toy_model.phrase_matrix(ca.words).tobytes()
        # The rows are not part of the value or of the JSON form.
        built = ActiveContext(target=ca.target, members=ca.members,
                              rows=toy_model.phrase_matrix(ca.words))
        moved = ActiveContext(target=ca.target, members=ca.members, rows=ca.rows[::-1].copy())
        assert built == ca == moved and hash(built) == hash(ca) == hash(moved)
        assert json.dumps(moved.to_json()) == json.dumps(ca.to_json())
        senses = toy_lexicon.senses_of("java")
        sif = build_sif_store(toy_model, toy_lexicon)
        for strategy in Strategy:
            params = AlgoParams(strategy=strategy)
            got = [step2_rescore(toy_model, toy_lexicon,
                                 step1_base_scores(toy_model, toy_lexicon, senses, c),
                                 c, params, sif_store=sif, docvec_store=DocVecStore(sif))
                   for c in (ca, built)]
            assert got[0] == got[1], strategy
        # Steps 1 and 2 read the carried rows, not the words.
        assert (step1_base_scores(toy_model, toy_lexicon, senses, moved)
                != step1_base_scores(toy_model, toy_lexicon, senses, ca))

    def test_rows_are_checked_when_a_context_is_built(self):
        members = (("a", 0.9), ("b", 0.8))
        rows = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]])
        assert ActiveContext(target="kw", members=members, rows=rows).rows is rows
        with pytest.raises(ValueError, match="read-only"):  # the check keeps holding
            rows[1] = 0.0
        assert ActiveContext(target="kw").rows.shape == (0, 0)  # no members, no rows
        for other in (rows[:1], np.vstack((rows, rows)), rows[0], rows.astype(np.float32),
                      rows.tolist(), np.zeros((0, 3))):
            with pytest.raises(ValueError, match="one float64 row per member"):
                ActiveContext(target="kw", members=members, rows=other)
        tiny = np.array([3e-170, -1e-170, 2e-170])
        assert tiny.any() and np.einsum("k,k->", tiny, tiny) == 0.0  # its squared norm underflows
        for no_direction in (np.zeros(3), tiny):
            with pytest.raises(ValueError, match="each with a direction"):
                ActiveContext(target="kw", members=members, rows=np.vstack((rows[0], no_direction)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["normal", "zero", "tiny"]), min_size=1, max_size=6),
           st.lists(st.integers(0, 20), max_size=10), st.floats(0.0, 1.0),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_selected_rows_are_the_members_vectors(self, kinds, picks, threshold, top, seed):
        # Words with no direction (out of vocabulary, zero, or a squared norm
        # that underflows) are among the candidates; none is ever selected.
        rng = np.random.default_rng(seed)
        scale = {"normal": 1.0, "zero": 0.0, "tiny": 1e-170}
        vocab = {f"w{i}": rng.normal(size=3) * scale[kind] for i, kind in enumerate(kinds)}
        model = EmbeddingModel(vocab=dict(vocab, kw=rng.normal(size=3)), dim=3)
        names = [*vocab, "qzx", "w0 qzx", f"w0 w{len(kinds) - 1}"]
        context = [names[i % len(names)] for i in picks]
        ca = select_active_context(model, context, "kw",
                                   ContextConfig(max_context=top, threshold=threshold,
                                                 stopwords=frozenset()))
        assert ca.rows.shape == (len(ca), 3)
        assert ca.rows.tobytes() == model.phrase_matrix(ca.words).tobytes()
        assert has_direction(ca.rows).all()
        kept = {w for w in context if has_direction(model.phrase_matrix([w])[0])
                and rel_words(model, w, "kw") >= threshold}
        assert set(ca.words) <= kept and len(ca) == min(top, len(kept))


def _overlap(context: list[str], description: list[str], stopwords: frozenset[str]) -> float:
    """Step 2's overlap strength of the one sense of a lexicon, ``description`` its terms."""
    sense = Sense(id="s", lemmas=("kw",), synonyms=("kw",), description_terms=tuple(description))
    model = EmbeddingModel(vocab={"kw": np.ones(2)}, dim=2)
    words = compiled.description_words(model, Lexicon.from_senses([sense]), [sense], stopwords)
    (strength,) = compiled.overlap(words, {w.lower() for w in context})
    return strength


class TestOverlap:
    def test_ratio_against_smaller_set(self):
        assert _overlap(["a", "b"], ["b", "c", "d"], frozenset()) == 0.5

    def test_empty_sides_are_zero(self):
        assert _overlap([], ["a"], frozenset()) == 0.0
        assert _overlap(["a"], [], frozenset()) == 0.0

    def test_description_stopwords_removed_and_terms_split(self):
        score = _overlap(["sea", "island"], ["big sea", "the island"], frozenset({"the"}))
        # Description tokens {big, sea, island}; both context words hit.
        assert score == pytest.approx(2 / 2)

    def test_case_insensitive(self):
        assert _overlap(["Sea"], ["SEA"], frozenset()) == 1.0

    def test_word_sets_compiled_once_per_senses_and_stopwords(self, toy_model, toy_lexicon):
        lexicon, senses = toy_lexicon, toy_lexicon.senses_of("java")
        first = compiled.description_words(toy_model, lexicon, senses, STOP)
        assert compiled.description_words(toy_model, lexicon, senses, STOP) is first
        assert compiled.description_words(toy_model, lexicon, senses, frozenset()) is not first
        # Other descriptions are another lexicon, with word sets of its own.
        other = Lexicon.from_senses([dataclasses.replace(s, description_terms=("Sea",))
                                     for s in lexicon.senses.values()])
        words = compiled.description_words(toy_model, other, other.senses_of("java"), STOP)
        assert compiled.overlap(words, {"sea"}) == [1.0] * 3
        assert compiled.description_words(toy_model, lexicon, senses, STOP) is first
        # Step 2 scores with the compiled sets.
        ca = ActiveContext(target="java", members=(("sea", 0.9),),
                           rows=toy_model.phrase_matrix(["sea"]))
        base = step1_base_scores(toy_model, lexicon, senses, ca)
        rescored = step2_rescore(toy_model, lexicon, base, ca,
                                 AlgoParams(strategy=Strategy.OVERLAP), stopwords=STOP)
        factor = 1 - max(b.score for b in base)
        assert [s.step2_delta for s in rescored] == [
            factor * oracle.overlap_score(ca.words, s.description_terms, STOP) for s in senses
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_TERMS, max_size=6), min_size=1, max_size=5),
           st.lists(st.sampled_from(_WORDS), max_size=4), st.booleans())
    def test_compiled_word_sets_match_overlap(self, descriptions, context, replace):
        senses = [Sense(id=f"k#{j}", lemmas=("k",), synonyms=("k",), description_terms=tuple(d))
                  for j, d in enumerate(descriptions)]
        lexicons = [Lexicon.from_senses(senses)]
        if replace:  # a second lexicon, its terms reversed, compiled on the same model
            lexicons.append(Lexicon.from_senses(
                [dataclasses.replace(s, description_terms=s.description_terms[::-1])
                 for s in senses]))
        model = EmbeddingModel(vocab={"k": np.ones(2)}, dim=2)
        for lexicon in lexicons:
            senses = list(lexicon.senses.values())
            for stop in (frozenset({"the", "σ"}), frozenset()):  # two stopword sets
                got = compiled.overlap(compiled.description_words(model, lexicon, senses, stop),
                                       {w.lower() for w in context})
                want = [oracle.overlap_score(context, s.description_terms, stop) for s in senses]
                assert [g.hex() for g in got] == [w.hex() for w in want]


class TestStep1:
    def test_mean_over_context_members(self, toy_model, toy_lexicon):
        senses = toy_lexicon.senses_of("java")
        ca = select_active_context(toy_model, ["island", "coffee"], "java", _cfg())
        scores = step1_base_scores(toy_model, toy_lexicon, senses, ca)
        for s, sense in zip(scores, senses):
            expected = np.mean(
                [oracle.rel_tw(toy_model, toy_lexicon, sense, w) for w in ca.words]
            )
            assert s.score == pytest.approx(float(expected), abs=1e-12)
            assert s.step1 == s.score
            assert s.step2_delta == 0.0 and s.step3_delta == 0.0

    def test_empty_context_scores_zero(self, toy_model, toy_lexicon):
        senses = toy_lexicon.senses_of("java")
        ca = ActiveContext(target="java")
        scores = step1_base_scores(toy_model, toy_lexicon, senses, ca)
        assert [s.score for s in scores] == [0.0, 0.0, 0.0]

    def test_order_matches_input_senses(self, toy_model, toy_lexicon):
        senses = toy_lexicon.senses_of("java")
        ca = select_active_context(toy_model, ["island"], "java", _cfg())
        scores = step1_base_scores(toy_model, toy_lexicon, senses, ca)
        assert [s.sense_id for s in scores] == [s.id for s in senses]


def _angle_vec(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


class TestStep2:
    def test_update_rule_frozen_values(self):
        # Step-1 scores (0.5, 0.3) with strategy strengths (0.3, 1.0) must
        # become (0.65, 0.8): each sense gains (1 - 0.5) * strength.
        model = EmbeddingModel(
            vocab={
                "kw": np.array([2.0, 0.0]),
                "w1": np.array([1.0, 0.0]),
                "syn1": _angle_vec(math.pi / 2),
                "syn2": _angle_vec(0.7 * math.pi),
                "d1": _angle_vec(0.7 * math.pi),
                "d2": np.array([5.0, 0.0]),
            },
            dim=2,
        )
        s1 = Sense(id="s1", lemmas=("kw",), synonyms=("syn1",), description_terms=("d1",))
        s2 = Sense(id="s2", lemmas=("kw",), synonyms=("syn2",), description_terms=("d2",))
        lexicon = Lexicon.from_senses([s1, s2])
        ca = select_active_context(model, ["w1"], "kw", _cfg())
        assert ca.words == ("w1",)
        base = step1_base_scores(model, lexicon, [s1, s2], ca)
        assert base[0].score == pytest.approx(0.5, abs=1e-12)
        assert base[1].score == pytest.approx(0.3, abs=1e-12)
        rescored = step2_rescore(
            model, lexicon, base, ca, AlgoParams(strategy=Strategy.AVERAGE), stopwords=STOP
        )
        assert rescored[0].score == pytest.approx(0.65, abs=1e-12)
        assert rescored[1].score == pytest.approx(0.80, abs=1e-12)
        assert rescored[0].step2_delta == pytest.approx(0.15, abs=1e-12)

    def test_overlap_strategy_matches_overlap_function(self, toy_model, toy_lexicon):
        senses = toy_lexicon.senses_of("java")
        ca = select_active_context(toy_model, ["island", "coffee"], "java", _cfg())
        base = step1_base_scores(toy_model, toy_lexicon, senses, ca)
        rescored = step2_rescore(
            toy_model, toy_lexicon, base, ca,
            AlgoParams(strategy=Strategy.OVERLAP), stopwords=STOP,
        )
        max_score = max(s.score for s in base)
        for before, after, sense in zip(base, rescored, senses):
            strength = oracle.overlap_score(ca.words, sense.description_terms, STOP)
            assert after.score == pytest.approx(
                before.score + (1 - max_score) * strength, abs=1e-12
            )

    def test_unavailable_inputs_keep_step1_score(self, toy_model):
        # All description terms out of vocabulary: average strategy has no pairs.
        sense = Sense(id="s", lemmas=("java",), synonyms=("java",),
                      description_terms=("qzx", "wvu"))
        lexicon = Lexicon.from_senses([sense])
        ca = select_active_context(toy_model, ["island"], "java", _cfg())
        base = step1_base_scores(toy_model, lexicon, [sense], ca)
        rescored = step2_rescore(
            toy_model, lexicon, base, ca,
            AlgoParams(strategy=Strategy.AVERAGE), stopwords=STOP,
        )
        assert rescored[0].score == base[0].score
        assert rescored[0].step2_delta == 0.0

    def test_sif_requires_store(self, toy_model, toy_lexicon):
        senses = toy_lexicon.senses_of("java")
        ca = ActiveContext(target="java")
        base = step1_base_scores(toy_model, toy_lexicon, senses, ca)
        with pytest.raises(ConfigError, match="sif"):
            step2_rescore(toy_model, toy_lexicon, base, ca,
                          AlgoParams(strategy=Strategy.SIF))

    def test_sif_store_of_another_dimension_is_config_error(self, toy_model, toy_lexicon):
        store = vector_table({"java#island": (1.0, 0.0)}, 2)
        with pytest.raises(ConfigError,
                           match="^description-embedding dimension 2 != model dimension 5$"):
            disambiguate(toy_model, toy_lexicon, "java", ["island"], _cfg(),
                         AlgoParams(strategy=Strategy.SIF), sif_store=store)

    def test_docvec_requires_store_and_matching_dim(self, toy_model, toy_lexicon):
        senses = toy_lexicon.senses_of("java")
        ca = ActiveContext(target="java")
        base = step1_base_scores(toy_model, toy_lexicon, senses, ca)
        with pytest.raises(ConfigError, match="docvec"):
            step2_rescore(toy_model, toy_lexicon, base, ca,
                          AlgoParams(strategy=Strategy.DOC_VEC))
        bad = DocVecStore(vector_table({"java#island": (1.0, 0.0)}, 2))
        with pytest.raises(ConfigError, match="dimension"):
            step2_rescore(toy_model, toy_lexicon, base, ca,
                          AlgoParams(strategy=Strategy.DOC_VEC), docvec_store=bad)

    def test_sense_absent_from_store_keeps_score(self, toy_model, toy_lexicon):
        senses = toy_lexicon.senses_of("java")
        ca = select_active_context(toy_model, ["island"], "java", _cfg())
        base = step1_base_scores(toy_model, toy_lexicon, senses, ca)
        store = vector_table({"java#island": toy_model.vocab["island"]}, TOY_DIM)
        rescored = step2_rescore(
            toy_model, toy_lexicon, base, ca,
            AlgoParams(strategy=Strategy.SIF), sif_store=store, stopwords=STOP,
        )
        assert rescored[0].step2_delta > 0.0
        assert rescored[1].score == base[1].score
        assert rescored[2].score == base[2].score

    def test_topk_with_large_k_compares_full_description_centroid(
        self, toy_model, toy_lexicon
    ):
        senses = toy_lexicon.senses_of("java")
        ca = select_active_context(toy_model, ["island", "sea"], "java", _cfg())
        base = step1_base_scores(toy_model, toy_lexicon, senses, ca)
        rescored = step2_rescore(
            toy_model, toy_lexicon, base, ca,
            AlgoParams(strategy=Strategy.TOP_K, k=50), stopwords=STOP,
        )
        max_score = max(s.score for s in base)
        ca_centroid = np.mean([toy_model.vocab[w] for w in ca.words], axis=0)
        for before, after, sense in zip(base, rescored, senses):
            term_vecs = [toy_model.phrase_vector(t) for t in sense.description_terms]
            term_vecs = [v for v in term_vecs if v is not None]
            strength = angular_relatedness(ca_centroid, np.mean(term_vecs, axis=0))
            assert after.score == pytest.approx(
                before.score + (1 - max_score) * strength, abs=1e-12
            )

    def test_topk_selects_nearest_to_context_plus_keyword(self, toy_model):
        # k=1 must pick the single description term nearest to the centroid of
        # context + keyword, not simply the first term.
        sense = Sense(
            id="s", lemmas=("java",), synonyms=("java",),
            description_terms=("coffee", "island"),
        )
        lexicon = Lexicon.from_senses([sense])
        ca = select_active_context(toy_model, ["island"], "java", _cfg())
        base = step1_base_scores(toy_model, lexicon, [sense], ca)
        rescored = step2_rescore(
            toy_model, lexicon, base, ca,
            AlgoParams(strategy=Strategy.TOP_K, k=1), stopwords=STOP,
        )
        ca_centroid = toy_model.vocab["island"]
        expected_strength = angular_relatedness(ca_centroid, toy_model.vocab["island"])
        max_score = max(s.score for s in base)
        assert rescored[0].score == pytest.approx(
            base[0].score + (1 - max_score) * expected_strength, abs=1e-12
        )


# Contexts whose active context is empty: no words, only stopwords, and only
# the keyword itself or a word below the threshold.
_EMPTY_CONTEXTS = {"no_words": [], "stopwords": ["the", "of", "a"], "unrelated": ["xenon", "Java"]}


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
class TestEmptyContext:
    """Steps 1-3 give an empty active context every sense at 0.0, under every strategy."""

    @staticmethod
    def _stores(model, lexicon):
        return dict(sif_store=build_sif_store(model, lexicon),
                    docvec_store=DocVecStore(vector_table({"java#coffee": model.vocab["cup"]}, 5)))

    @pytest.mark.parametrize("context", list(_EMPTY_CONTEXTS.values()), ids=list(_EMPTY_CONTEXTS))
    def test_disambiguate_gives_every_sense_zero_in_lexicon_order(
            self, toy_model, toy_lexicon, strategy, context):
        result = disambiguate(toy_model, toy_lexicon, "java", context, _cfg(),
                              AlgoParams(strategy=strategy), **self._stores(toy_model, toy_lexicon))
        assert result.active_context.members == ()
        # Zero deltas too: they are SenseScore's defaults.
        assert result.scores == tuple(SenseScore(sense.id, 0.0, 0.0)
                                      for sense in toy_lexicon.senses_of("java"))

    def test_step2_rescore_returns_its_input(self, toy_model, toy_lexicon, strategy):
        senses = toy_lexicon.senses_of("java")
        params, stores = AlgoParams(strategy=strategy), self._stores(toy_model, toy_lexicon)
        empty = ActiveContext(target="java")
        base = step1_base_scores(toy_model, toy_lexicon, senses, empty)
        # Scores with every step's part set, as a full ranking of a context has them.
        ranked = list(disambiguate(toy_model, toy_lexicon, "java", ["island", "coffee"], _cfg(),
                                   params, **stores).scores)
        assert ranked[0].step2_delta > 0.0 and ranked[0].step3_delta > 0.0
        for scores in (base, ranked):
            got = step2_rescore(toy_model, toy_lexicon, scores, empty, params,
                                stopwords=STOP, **stores)
            assert got == scores

    def test_a_keyword_with_only_empty_contexts_compiles_nothing(self, toy_model, strategy):
        lexicon = Lexicon.from_senses(make_toy_senses())
        stores = self._stores(toy_model, Lexicon.from_senses(make_toy_senses()))
        for context in _EMPTY_CONTEXTS.values():
            disambiguate(toy_model, lexicon, "java", context, _cfg(),
                         AlgoParams(strategy=strategy), **stores)
        assert not lexicon.compiled.get(toy_model)
        step1_base_scores(toy_model, lexicon, lexicon.senses_of("java"), ActiveContext("java"))
        assert not lexicon.compiled.get(toy_model)


class TestStep3:
    def test_norm_freq_frozen_value(self):
        sense = Sense(id="s", lemmas=("s",), synonyms=("s",), frequency=3.0)
        assert norm_freq(sense, 4.0) == pytest.approx(0.9354143466934853, abs=1e-12)

    def test_norm_freq_requires_positive_total(self):
        sense = Sense(id="s", lemmas=("s",), synonyms=("s",))
        with pytest.raises(ValueError, match="positive"):
            norm_freq(sense, 0.0)

    def _scored(self, *vals: float):
        from kwsense import SenseScore

        return [SenseScore(sense_id=f"s{i}", score=v, step1=v) for i, v in enumerate(vals)]

    def _senses(self, *freqs: float):
        return [
            Sense(id=f"s{i}", lemmas=(f"s{i}",), synonyms=(f"s{i}",), frequency=f)
            for i, f in enumerate(freqs)
        ]

    def test_only_senses_above_gate_boosted(self):
        scores = self._scored(0.8, 0.7, 0.1)
        senses = self._senses(1.0, 1.0, 2.0)
        out = step3_frequency(scores, senses, AlgoParams())
        # Gate is 0.75 * 0.8 = 0.6: the first two pass, the third does not.
        assert out[0].score > scores[0].score
        assert out[1].score > scores[1].score
        assert out[2].score == scores[2].score
        boost0 = 0.2 * math.sqrt(0.5 * 1.0 / 4.0 + 0.5)
        assert out[0].score == pytest.approx(0.8 + boost0, abs=1e-12)
        assert out[0].step3_delta == pytest.approx(boost0, abs=1e-12)

    def test_gate_is_strict(self):
        scores = self._scored(0.8, 0.6)
        senses = self._senses(1.0, 1.0)
        out = step3_frequency(scores, senses, AlgoParams())
        assert out[1].score == scores[1].score

    def test_all_zero_frequencies_skip_step(self):
        scores = self._scored(0.8, 0.7)
        senses = self._senses(0.0, 0.0)
        out = step3_frequency(scores, senses, AlgoParams())
        assert [s.score for s in out] == [0.8, 0.7]

    def test_frequency_dominant_top_sense_extends_lead(self):
        scores = self._scored(0.8, 0.79)
        senses = self._senses(9.0, 1.0)
        out = step3_frequency(scores, senses, AlgoParams())
        assert out[0].score - out[1].score > scores[0].score - scores[1].score


class TestDocVecStore:
    def test_load(self, toy_docvec_file):
        store = load_docvec_store(toy_docvec_file)
        assert store.dim == 5
        assert set(store.vectors) == {
            "java#island", "java#coffee", "java#language",
            "island#landmass", "land#ground",
        }

    def test_rows_are_read_only_rows_of_one_matrix(self, toy_docvec_file):
        vectors = load_docvec_store(toy_docvec_file).vectors
        assert vectors.matrix.dtype == np.float64 and not vectors.matrix.flags.writeable
        assert all(np.shares_memory(v, vectors.matrix) for v in vectors.values())
        with pytest.raises(ValueError, match="read-only"):
            vectors["java#island"][0] = 1.0

    def test_dim_is_read_from_the_table(self, toy_docvec_file):
        store = load_docvec_store(toy_docvec_file)
        assert store.dim == store.vectors.dim == store.vectors.matrix.shape[1] == 5
        other = DocVecStore(vector_table({"a": (1.0, 2.0, 3.0)}, 3))
        assert other.dim == 3
        with pytest.raises(AttributeError):
            other.dim = 5
        with pytest.raises(TypeError):
            DocVecStore(vectors=other.vectors, dim=5)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_every_line_end_loads_every_row(self, tmp_path, end):
        rows = {f"s{i}": [float(i), -0.5] for i in range(40)}
        path = tmp_path / "dv.jsonl"
        path.write_text(end.join(json.dumps({"id": k, "vector": v}) for k, v in rows.items())
                        + end * 3, newline="")
        vectors = load_docvec_store(path).vectors
        assert list(vectors) == list(rows)
        assert vectors.matrix.tolist() == list(rows.values())

    def test_load_peaks_near_its_matrix(self, tmp_path):
        # One matrix, filled row by row: stacking the rows at the end doubles the peak.
        rows, dim = 1000, 300
        vectors = np.round(np.random.default_rng(3).normal(size=(rows, dim)), 3)
        path = tmp_path / "dv.jsonl"
        with path.open("w") as fh:
            for i, v in enumerate(vectors.tolist()):
                fh.write(json.dumps({"id": f"s{i}", "vector": v}) + "\n")
        tracemalloc.start()
        try:
            store = load_docvec_store(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store.vectors.matrix.tobytes() == vectors.tobytes()
        assert peak < 1.5 * vectors.nbytes

    def test_dim_mismatch_names_line(self, tmp_path):
        path = tmp_path / "dv.jsonl"
        path.write_text(
            json.dumps({"id": "a", "vector": [1.0, 2.0]}) + "\n"
            + json.dumps({"id": "b", "vector": [1.0]}) + "\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            load_docvec_store(path)

    def test_duplicate_id_rejected(self, tmp_path):
        line = json.dumps({"id": "a", "vector": [1.0]})
        path = tmp_path / "dv.jsonl"
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_docvec_store(path)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "dv.jsonl"
        path.write_bytes(json.dumps({"id": "a", "vector": [1.0]}).encode()
                         + b'\n{"id": "\xc3", "vector": [2.0]}\n')
        with pytest.raises(ParseError, match=f"^{path}: line 2: invalid UTF-8$"):
            load_docvec_store(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "dv.jsonl"
        path.write_text(json.dumps({"id": "a"}) + "\n")
        with pytest.raises(ParseError, match="vector"):
            load_docvec_store(path)

    @pytest.mark.parametrize("vector, message", [
        ("[1.0, true]", "list of numbers"),
        ("[false, 2.0]", "list of numbers"),
        ('[1.0, "1.5"]', "list of numbers"),
        ("[[1.0], [2.0]]", "list of numbers"),
        ("[1.0, null]", "list of numbers"),
        ("[1.0, NaN]", "finite numbers"),
        ("[1.0, Infinity]", "finite numbers"),
        ("[1.0, 1%s]" % ("0" * 400), "finite numbers"),
    ])
    def test_non_number_components_name_line(self, tmp_path, vector, message):
        path = tmp_path / "dv.jsonl"
        path.write_text(json.dumps({"id": "a", "vector": [1.0, 2]}) + "\n"
                        + '{"id": "b", "vector": %s}\n' % vector)
        with pytest.raises(ParseError, match=f"line 2: .*{message}"):
            load_docvec_store(path)


class TestBuildSifStore:
    def test_multiword_terms_are_tokenized(self, toy_model):
        sense = Sense(
            id="s", lemmas=("x",), synonyms=("x",),
            description_terms=("programming language", "code"),
        )
        # One description: nothing is removed, so its embedding is the plain mean.
        store = build_sif_store(toy_model, Lexicon.from_senses([sense]))
        expected = np.mean(
            [toy_model.vocab["programming"], toy_model.vocab["language"],
             toy_model.vocab["code"]],
            axis=0,
        )
        np.testing.assert_allclose(store["s"], expected, atol=1e-12)


class TestDisambiguate:
    def test_island_context_ranks_island_first(self, toy_model, toy_lexicon):
        result = disambiguate(
            toy_model, toy_lexicon, "java", ["indonesian", "island"], _cfg()
        )
        assert result.top.sense_id == "java#island"
        assert result.keyword == "java"

    def test_coffee_context_ranks_coffee_first(self, toy_model, toy_lexicon):
        result = disambiguate(
            toy_model, toy_lexicon, "java", ["drink", "a", "cup", "of", "coffee"], _cfg()
        )
        assert result.top.sense_id == "java#coffee"

    def test_language_context_ranks_language_first(self, toy_model, toy_lexicon):
        result = disambiguate(
            toy_model, toy_lexicon, "java", ["programming", "code"], _cfg()
        )
        assert result.top.sense_id == "java#language"

    def test_unknown_keyword_raises(self, toy_model, toy_lexicon):
        with pytest.raises(UnmeasurableError, match="unknown keyword"):
            disambiguate(toy_model, toy_lexicon, "python", ["island"], _cfg())

    def test_single_sense_keyword_returns_it(self, toy_model, toy_lexicon):
        result = disambiguate(toy_model, toy_lexicon, "land", ["island"], _cfg())
        assert [s.sense_id for s in result.scores] == ["land#ground"]

    def test_scores_sorted_descending_with_lexicon_order_ties(
        self, toy_model, toy_lexicon
    ):
        # All-stopword context plus overlap strategy and the step-3 gate at
        # zero leaves every score 0; the ranking falls back to file order.
        result = disambiguate(
            toy_model, toy_lexicon, "java", ["the", "of"], _cfg(),
            AlgoParams(strategy=Strategy.OVERLAP),
        )
        assert [s.sense_id for s in result.scores] == [
            "java#island", "java#coffee", "java#language",
        ]
        assert [s.score for s in result.scores] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_identical_definitions_tie_exactly_in_lexicon_order(self, toy_model, strategy):
        twin = dict(
            lemmas=("java",), synonyms=("java", "coffee"),
            core_context=(ContextRef("beverage"), ContextRef("bean cup")),
            description_terms=("coffee", "drink", "cup", "qzx", "coffee"), frequency=2.0,
        )
        senses = [
            Sense(id="java#a", **twin),
            Sense(id="java#island", lemmas=("java",), synonyms=("java",),
                  core_context=(ContextRef("island"),),
                  description_terms=("island", "sea"), frequency=1.0),
            Sense(id="java#b", **twin),
        ]
        lexicon = Lexicon.from_senses(senses)
        docvecs = DocVecStore(vector_table({
            "java#a": toy_model.vocab["cup"],
            "java#island": toy_model.vocab["sea"],
            "java#b": toy_model.vocab["cup"],
        }, 5))
        result = disambiguate(
            toy_model, lexicon, "java", ["drink", "island", "brew"], _cfg(),
            AlgoParams(strategy=strategy),
            sif_store=build_sif_store(toy_model, lexicon), docvec_store=docvecs,
        )
        ids = [s.sense_id for s in result.scores]
        a, b = result.scores[ids.index("java#a")], result.scores[ids.index("java#b")]
        assert (a.score, a.step1, a.step2_delta, a.step3_delta) == \
            (b.score, b.step1, b.step2_delta, b.step3_delta)
        assert ids.index("java#b") == ids.index("java#a") + 1
        assert a.step1 > 0.0

    def test_scores_monotone_and_bounded(self, toy_model, toy_lexicon):
        result = disambiguate(
            toy_model, toy_lexicon, "java", ["island", "coffee", "code"], _cfg()
        )
        for s in result.scores:
            assert 0.0 <= s.step1 <= s.step1 + s.step2_delta <= s.score <= 1.0

    def test_serialization_is_deterministic(self, toy_model, toy_lexicon):
        runs = [
            disambiguate(toy_model, toy_lexicon, "java", ["island", "sea"], _cfg()).to_json()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        payload = json.loads(runs[0])
        assert payload["keyword"] == "java"
        assert [m["word"] for m in payload["active_context"]]
        assert {"step1", "step2_delta", "step3_delta"} <= set(
            payload["senses"][0]["trace"]
        )

    def test_docvec_strategy_end_to_end(self, toy_model, toy_lexicon, toy_docvec_file):
        store = load_docvec_store(toy_docvec_file)
        result = disambiguate(
            toy_model, toy_lexicon, "java", ["island", "sea"], _cfg(),
            AlgoParams(strategy=Strategy.DOC_VEC), docvec_store=store,
        )
        assert result.top.sense_id == "java#island"

    def test_sif_strategy_end_to_end(self, toy_model, toy_lexicon):
        store = build_sif_store(toy_model, toy_lexicon)
        result = disambiguate(
            toy_model, toy_lexicon, "java", ["coffee", "drink"], _cfg(),
            AlgoParams(strategy=Strategy.SIF), sif_store=store,
        )
        assert result.top.sense_id == "java#coffee"


class TestParamValidation:
    def test_invalid_proximity(self):
        with pytest.raises(ValueError, match="proximity"):
            AlgoParams(proximity_factor=1.5)

    def test_freq_a_must_lie_in_the_unit_interval(self):
        for freq_a in (-0.1, 1.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"^freq_a must lie in \[0, 1\], got "):
                AlgoParams(freq_a=freq_a)

    @settings(max_examples=300, deadline=None)
    @given(w0=st.floats(0.0, 1.0), a=st.floats(0.0, 1.0),
           frequency=st.floats(0.0, 1e6), total=st.floats(1e-300, 1e300))
    def test_derived_weights_are_one_minus_the_set_one(self, w0, a, frequency, total):
        assert RelWeights(w0).w1 == 1.0 - w0
        assert AlgoParams(freq_a=a).freq_b == 1.0 - a
        sense = Sense(id="s", lemmas=("s",), synonyms=("s",), frequency=frequency)
        b = 1.0 - a
        assert norm_freq(sense, total, a) == math.sqrt(a * sense.frequency / total + b)

    def test_k_positive(self):
        with pytest.raises(ValueError, match="k"):
            AlgoParams(k=0)

    def test_context_config_bounds(self):
        with pytest.raises(ValueError, match="max_context"):
            ContextConfig(max_context=0)
        with pytest.raises(ValueError, match="threshold"):
            ContextConfig(threshold=1.5)

    @pytest.mark.parametrize("words", [{"the", "of"}, ["the", "of"], ("the", "of")],
                             ids=["set", "list", "tuple"])
    def test_stopwords_of_any_collection_are_a_frozenset(self, toy_model, toy_lexicon, words):
        cfg = ContextConfig(stopwords=words)
        assert cfg.stopwords == frozenset({"the", "of"}) and type(cfg.stopwords) is frozenset
        context = ["the", "island", "of", "sea"]
        for strategy in (Strategy.OVERLAP, Strategy.TOP_K):
            params = AlgoParams(strategy=strategy)
            got = disambiguate(toy_model, toy_lexicon, "java", context, cfg, params)
            want = disambiguate(toy_model, toy_lexicon, "java", context,
                                ContextConfig(stopwords=frozenset({"the", "of"})), params)
            assert got == want and got.active_context.words == ("island", "sea")

    def test_stopwords_as_a_str_rejected(self):
        # Tested by substring, "the" would make "h" and "he" stopwords.
        with pytest.raises(ValueError, match="stopwords"):
            ContextConfig(stopwords="the")

    @pytest.mark.parametrize("name, make", [
        ("max_context", lambda v: ContextConfig(max_context=v)),
        ("k", lambda v: AlgoParams(k=v)),
    ], ids=["max_context", "k"])
    def test_counts_are_integers(self, toy_model, toy_lexicon, name, make):
        for value in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                make(value)
        for value in (np.int64(2), np.uint8(2), 2):
            got = getattr(make(value), name)
            assert got == 2 and type(got) is int
        cfg, params = ContextConfig(max_context=np.int32(1)), AlgoParams(k=np.int64(1))
        result = disambiguate(toy_model, toy_lexicon, "java", ["island", "sea"], cfg, params)
        assert len(result.active_context) == 1
