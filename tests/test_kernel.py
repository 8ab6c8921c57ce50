"""The batched relatedness kernel and the disambiguation steps built on it.

The steps gather their phrase vectors once per call and measure them with
``relatedness_rows`` (through ``relatedness_to`` for one column); these
tests hold them to the scalar measure and to the brute-force oracle at
1e-10, including exact endpoints, missing vectors, and tables of more
than 256 phrases.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from kwsense import (
    AlgoParams,
    ContextConfig,
    EmbeddingModel,
    Lexicon,
    Sense,
    Strategy,
    angular_relatedness,
    select_active_context,
    step1_base_scores,
    step2_rescore,
)
from kwsense.lexicon import ContextRef
from kwsense.relatedness import relatedness_rows, relatedness_to

TOL = 1e-10
STOP = frozenset({"the", "of"})
OOV = ("qzx", "wvu")


def _stack(vectors, dim):
    """Float64 rows of ``vectors``; a zero row (missing) for None."""
    return np.array([np.zeros(dim) if v is None else v for v in vectors],
                    dtype=np.float64).reshape(len(vectors), dim)


class TestRelatednessMatrix:
    def test_matches_scalar_measure(self):
        rng = np.random.default_rng(5)
        rows = [rng.normal(size=6) for _ in range(7)]
        cols = [rng.normal(size=6) for _ in range(3)]
        got = relatedness_rows(_stack(rows, 6), _stack(cols, 6))
        assert got.shape == (7, 3)
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                assert got[i, j] == pytest.approx(angular_relatedness(r, c), abs=1e-15)
        for j, c in enumerate(cols):
            assert relatedness_to(_stack(rows, 6), c) == got[:, j].tolist()

    def test_exact_endpoints(self):
        v = np.array([0.1, 0.2, 0.3])
        got = relatedness_to(_stack([v, -v, 3.0 * v, 4.0 * v], 3), v.copy())
        assert got[0] == 1.0
        assert got[1] == 0.0
        # A scaled copy is parallel but not equal: no endpoint snap, yet in range.
        assert 0.0 <= got[2] <= 1.0
        assert got[2] == pytest.approx(1.0, abs=1e-7)
        assert got[3] == pytest.approx(1.0, abs=1e-7)

    def test_missing_vectors_are_nan(self):
        v = np.array([1.0, 0.0])
        tiny = np.full(2, 1e-200)  # nonzero, but its squared norm underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relatedness_rows(_stack([None, np.zeros(2), tiny, v], 2), _stack([v, None], 2))
            assert np.isnan(relatedness_to(_stack([v, tiny], 2), np.zeros(2))).all()
        assert np.isnan(got[:3]).all()
        assert np.isnan(got[:, 1]).all()
        assert got[3, 0] == 1.0

    def test_empty_inputs(self):
        assert relatedness_rows(np.zeros((0, 2)), np.ones((1, 2))).shape == (0, 1)
        assert relatedness_rows(np.ones((1, 2)), np.zeros((0, 2))).shape == (1, 0)
        assert relatedness_to(np.zeros((0, 2)), np.ones(2)) == []

    def test_identical_rows_score_identically(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=300)
        rows = _stack([v, rng.normal(size=300), v.copy()] * 100, 300)
        got = np.array(relatedness_to(rows, rng.normal(size=300)))
        assert len(set(got[0::3].tolist() + got[2::3].tolist())) == 1

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            relatedness_rows(np.ones((2, 2)), np.ones((1, 3)))
        with pytest.raises(ValueError):
            relatedness_to(np.ones((2, 2)), np.ones(3))


# ---------------------------------------------------------------------------
# Steps against the oracle on generated inputs.
# ---------------------------------------------------------------------------

# Small dyadic components keep dot products exact, so exactly tied pairs tie
# in both implementations and orderings are comparable.
_coord = st.integers(-4, 4).map(lambda x: x / 2)
_vector_kinds = ("same", "same", "doubled", "tripled", "negated", "zero")


def _vector(draw, bases):
    base = np.array(draw(st.sampled_from(bases)), dtype=np.float64)
    kind = draw(st.sampled_from(_vector_kinds))
    return {
        "same": base,
        "doubled": 2.0 * base,
        "tripled": 3.0 * base,
        "negated": -base,
        "zero": np.zeros(3),
    }[kind]


@st.composite
def scenarios(draw):
    bases = draw(st.lists(st.tuples(_coord, _coord, _coord), min_size=2, max_size=5))
    vocab = {f"w{i}": _vector(draw, bases) for i in range(draw(st.integers(3, 9)))}
    vocab["kw"] = _vector(draw, bases)
    tokens = [*vocab, *OOV]
    phrase = st.lists(st.sampled_from(tokens), min_size=1, max_size=2).map(" ".join)
    oov_description = st.lists(st.sampled_from(OOV), min_size=1, max_size=3)
    others = [
        Sense(id=f"o{i}", lemmas=("other",),
              synonyms=tuple(draw(st.lists(phrase, min_size=1, max_size=2))))
        for i in range(2)
    ]
    context_member = st.one_of(
        phrase.map(ContextRef),
        st.sampled_from(["o0", "o1"]).map(lambda ref: ContextRef(ref, is_ref=True)),
    )
    senses = [
        Sense(
            id=f"kw#{i}",
            lemmas=("kw",),
            synonyms=tuple(draw(st.lists(phrase, min_size=1, max_size=3))),
            core_context=tuple(draw(st.lists(context_member, max_size=2))),
            description_terms=tuple(draw(st.one_of(
                st.lists(phrase, max_size=8), oov_description
            ))),
        )
        for i in range(draw(st.integers(1, 4)))
    ]
    context = draw(st.lists(st.sampled_from([*tokens, "the", "KW", "W0"]), max_size=8))
    return {
        "model": EmbeddingModel(vocab=vocab, dim=3),
        "lexicon": Lexicon.from_senses([*senses, *others]),
        "senses": senses,
        "context": context,
        "threshold": draw(st.sampled_from([0.0, 0.4, 0.5])),
        "max_context": draw(st.integers(1, 5)),
        "k": draw(st.integers(1, 4)),
    }


def _check_against_oracle(model, lexicon, senses, context, threshold, max_context, k):
    cfg = ContextConfig(max_context=max_context, threshold=threshold, stopwords=STOP)
    ca = select_active_context(model, context, "kw", cfg)
    ref_ca = oracle.active_context(model, context, "kw", STOP, threshold, max_context)
    assert list(ca.words) == [w for w, _ in ref_ca]
    for (_, got), (_, want) in zip(ca.members, ref_ca):
        assert abs(got - want) <= TOL

    base = step1_base_scores(model, lexicon, senses, ca)
    for strategy in (Strategy.AVERAGE, Strategy.TOP_K):
        ref_step1, ref_step2, _ = oracle.run_algorithm(
            model, lexicon, "kw", senses, ref_ca,
            strategy=strategy.value, k=k, stopwords=STOP,
        )
        assert [s.sense_id for s in base] == [s.id for s in senses]
        for got, want in zip(base, ref_step1):
            assert abs(got.score - want) <= TOL
        rescored = step2_rescore(
            model, lexicon, base, ca, AlgoParams(strategy=strategy, k=k), stopwords=STOP
        )
        for got, want in zip(rescored, ref_step2):
            assert abs(got.score - want) <= TOL, strategy


def _parallel_terms_tied_at_the_cut():
    # w0 = 0.5 * w1 and the phrase "w0 w1" = 0.75 * w1 tie in relatedness to the
    # top-k reference; summed in another order they round apart, and which one
    # is cut at k = 3 moves the step-2 score by 1.5e-3.
    w1 = np.array([1.0, 1.0, -1.0])
    vocab = {"w0": 0.5 * w1, "w1": w1, "w2": np.array([0.0, -0.5, -0.5]), "kw": w1.copy()}
    sense = Sense(id="kw#0", lemmas=("kw",), synonyms=("w0",),
                  description_terms=("w0", "w0 w1", "w0", "w1 w2"))
    return {
        "model": EmbeddingModel(vocab=vocab, dim=3),
        "lexicon": Lexicon.from_senses([sense]),
        "senses": [sense],
        "context": ["w0", "w2"],
        "threshold": 0.0,
        "max_context": 2,
        "k": 3,
    }


@settings(max_examples=300, deadline=None)
@given(scenarios())
@example(_parallel_terms_tied_at_the_cut())
def test_steps_match_oracle_on_random_keywords(scenario):
    _check_against_oracle(
        scenario["model"], scenario["lexicon"], scenario["senses"],
        scenario["context"], scenario["threshold"], scenario["max_context"],
        scenario["k"],
    )


def test_steps_match_oracle_with_more_rows_than_one_block():
    rng = np.random.default_rng(8)
    dim = 8
    words = [f"v{i}" for i in range(400)]
    vocab = {w: rng.normal(size=dim) for w in words}
    vocab["kw"] = rng.normal(size=dim)
    vocab["v1"] = vocab["v0"].copy()
    vocab["v2"] = -vocab["v0"]
    vocab["v3"] = np.zeros(dim)
    model = EmbeddingModel(vocab=vocab, dim=dim)
    terms = [*words[:300], "v0 v2", "qzx", "v5 qzx", *words[:20]]
    senses = [
        Sense(id="kw#big", lemmas=("kw",), synonyms=tuple(words[100:400]),
              core_context=(ContextRef("v7 v8"),), description_terms=tuple(terms)),
        Sense(id="kw#oov", lemmas=("kw",), synonyms=("kw",),
              description_terms=("qzx", "wvu")),
        Sense(id="kw#small", lemmas=("kw",), synonyms=("v9", "v10"),
              description_terms=tuple(reversed(terms))),
    ]
    lexicon = Lexicon.from_senses(senses)
    assert len(terms) > 256
    _check_against_oracle(model, lexicon, senses, words[:300], 0.0, 4, 15)
    _check_against_oracle(model, lexicon, senses, words[:300], 0.5, 3, 2)


def test_fully_oov_description_keeps_step1_score():
    model = EmbeddingModel(vocab={"kw": np.array([1.0, 0.0]), "c": np.array([1.0, 1.0])}, dim=2)
    sense = Sense(id="kw#1", lemmas=("kw",), synonyms=("kw",), description_terms=OOV)
    lexicon = Lexicon.from_senses([sense])
    ca = select_active_context(model, ["c"], "kw", ContextConfig(stopwords=STOP))
    assert ca.words == ("c",)
    base = step1_base_scores(model, lexicon, [sense], ca)
    assert base[0].score == pytest.approx(0.75, abs=1e-12)
    for strategy in (Strategy.AVERAGE, Strategy.TOP_K):
        rescored = step2_rescore(model, lexicon, base, ca, AlgoParams(strategy=strategy))
        assert rescored[0].step2_delta == 0.0
        assert rescored[0].score == base[0].score
