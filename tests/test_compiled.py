"""Compiled keywords: phrase tables, step 1 against the loop reference, the per-pair cache.

Compiled keywords hold the model's own matrix and row ids into it, never
row objects or float64 copies; their centroids and means must equal the
scalar definitions bit for bit, and the cache must give every (model,
lexicon) pair its own results.
"""
from __future__ import annotations

import copy
import gc
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compile_reference
import oracle
from compile_reference import centroid, mean_skip_missing
from conftest import make_toy_lexicon, make_toy_model, make_toy_senses
from kwsense import (
    ActiveContext,
    AlgoParams,
    ContextConfig,
    ContextRef,
    EmbeddingModel,
    Lexicon,
    RelWeights,
    Sense,
    Strategy,
    UnmeasurableError,
    compiled,
    disambiguate,
    eval_wsd,
    load_wsd_corpus,
    rel_sense_word,
    rel_senses,
    relatedness,
    select_active_context,
    step1_base_scores,
)
from kwsense.evaluation import WsdCorpus, WsdItem, WsdTarget
from test_kernel import scenarios
from test_relatedness import _or_none

TOL = 1e-10
STOP = frozenset({"the", "of"})


def _random_model(seed: int, dim: int = 6, size: int = 60, dtype=np.float64) -> EmbeddingModel:
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(size, dim)).astype(dtype)
    return EmbeddingModel(vocab={f"w{i}": matrix[i] for i in range(size)}, dim=dim)


def _table(model: EmbeddingModel, phrases: list[str]) -> tuple[compiled.PhraseTable, dict]:
    """The compiled table of ``phrases`` (one sense's description), and its phrases' rows in order."""
    sense = Sense(id="kw#0", lemmas=("kw",), synonyms=("kw",), description_terms=tuple(phrases))
    index = compiled.description_index(model, Lexicon.from_senses([sense]), [sense])
    rows = {p: i for p, i in zip(phrases, index.terms[:, 0].tolist()) if i >= 0}
    return index.phrases, dict(sorted(rows.items(), key=lambda item: item[1]))


class TestPhraseTable:
    PHRASES = ["w1", "w2 w3", "w4 qzx w5 w6", "qzx", "w7 w8 w9", "W10", "w1", "w2 w3 w2 w3"]

    def test_rows_are_the_models_own_rows(self):
        model = _random_model(1, dtype=np.float32)
        table, ids = _table(model, self.PHRASES)
        assert table.matrix is model.matrix and table.matrix.dtype == np.float32
        # Row ids, not row objects: the table holds no per-row array.
        assert table.rows.dtype == np.intp and table.rows.ndim == 1
        assert set(table.rows.tolist()) <= set(model.index.values())
        assert len(table.rows) == 1 + 2 + 3 + 3 + 1 + 4
        assert "qzx" not in ids and table.size == len(ids) == 6

    def test_centroids_equal_phrase_vectors_exactly(self):
        model = _random_model(2, dtype=np.float32)
        table, ids = _table(model, self.PHRASES)
        got = table.centroids()
        assert got.shape == (table.size + 1, model.dim) and not got[-1].any()
        for phrase, i in ids.items():
            want = model.phrase_vector(phrase).astype(np.float64)
            np.testing.assert_array_equal(got[i], want)

    def test_relatedness_of_every_phrase(self):
        model = _random_model(3)
        table, ids = _table(model, self.PHRASES)
        words = model.phrase_matrix(["w11", "qzx", "w12"])
        got = relatedness.relatedness_rows(table.centroids(), words)
        want = relatedness.relatedness_rows(model.phrase_matrix(list(ids)), words)
        np.testing.assert_array_equal(got[:-1], want)
        assert np.isnan(got[-1]).all() and np.isnan(got[:, 1]).all()


# "W3" and "w3" are both in the model, so "W3" is found through "w3"; only
# the raw form of "Q7" is there; "q7", "zz" and "yy" are out of vocabulary.
# "n1" is -"w1" and "z0" is zero, so phrases can have no direction.
_MODEL_TOKENS = ("w0", "w1", "w2", "w3", "w4", "w5", "W3", "Q7", "n1", "z0")
_TOKENS = (*_MODEL_TOKENS, "W1", "q7", "zz", "yy")
_SEPARATORS = (" ", " ", "  ", "\t", " \n ", "\u00a0")


@st.composite
def _phrases(draw) -> str:
    tokens = draw(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=4))
    separators = [draw(st.sampled_from(_SEPARATORS)) for _ in tokens[1:]]
    inner = "".join(t + sep for t, sep in zip(tokens, [*separators, ""]))
    return draw(st.sampled_from(["", "", " ", "\t"])) + inner + draw(st.sampled_from(["", "", " "]))


@st.composite
def _lexicons(draw) -> tuple[Lexicon, list[str]]:
    """Keywords whose senses share phrases, with references across keywords."""
    pool = draw(st.lists(st.one_of(_phrases(), st.just(" ")), min_size=1, max_size=10))
    phrase = st.sampled_from(pool)
    counts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    ids = [f"k{k}#{j}" for k, n in enumerate(counts) for j in range(n)]
    member = st.one_of(phrase.filter(str.strip).map(ContextRef),
                       st.sampled_from(ids).map(lambda ref: ContextRef(ref, is_ref=True)))
    senses = [
        Sense(id=sid, lemmas=(sid.split("#")[0],),
              synonyms=tuple(draw(st.lists(phrase, min_size=1, max_size=4))),
              core_context=tuple(draw(st.lists(member, max_size=4))),
              description_terms=tuple(draw(st.lists(phrase, max_size=10))))
        for sid in ids
    ]
    return Lexicon.from_senses(senses), [f"k{k}" for k in range(len(counts))]


def _assert_same_index(got, want) -> None:
    a, b = got.phrases, want.phrases
    assert a.matrix is b.matrix and type(a.size) is int and a.size == b.size
    assert a.later == b.later and all(type(n) is int for n in a.later)
    assert a.rows.dtype == b.rows.dtype and a.rows.tolist() == b.rows.tolist()
    pairs = [(got.terms, want.terms)] if isinstance(want, compiled.DescriptionIndex) else []
    if isinstance(want, compiled.SenseIndex):
        pairs = [(got.groups, want.groups), (got.members, want.members),
                 *zip(got.counts, want.counts), (got.levels, want.levels)]
    for x, y in pairs:
        assert x.dtype == y.dtype and x.shape == y.shape and x.tolist() == y.tolist()


@settings(max_examples=150, deadline=None)
@given(_lexicons())
def test_interned_builders_match_the_per_phrase_reference(built):
    lexicon, keywords = built
    vocab = {t: np.arange(4.0) + i for i, t in enumerate(_MODEL_TOKENS)}
    model = EmbeddingModel(vocab=dict(vocab, n1=-vocab["w1"], z0=np.zeros(4)), dim=4)

    def check(senses):
        ordinals = compiled._lexicon_ordinals(lexicon, senses)
        _assert_same_index(compiled._build_sense_index(model, lexicon, ordinals),
                           compile_reference.build_sense_index(model, lexicon, senses))
        _assert_same_index(compiled._build_description_index(model, lexicon, ordinals),
                           compile_reference.build_description_index(model, lexicon, senses))

    for keyword in keywords:
        check(lexicon.senses_of(keyword))
    # Several keywords' senses at once: ordinals that are not consecutive.
    check([s for k in keywords[::-1] for s in lexicon.senses_of(k)])


@pytest.mark.parametrize("count", [0, 1, 9, 40])
@pytest.mark.parametrize("columns", [(1, 1), (3, 1), (1, 4), (3, 4)])
def test_means_add_in_index_order(count, columns):
    rng = np.random.default_rng(count)
    values = rng.random((count, *columns)) * 10.0 ** rng.integers(-3, 3, size=(count, 1, 1))
    values[rng.random(values.shape) < 0.3] = np.nan
    got = compiled._means(values)
    for index in np.ndindex(*columns):
        want = mean_skip_missing(values[(slice(None), *index)].tolist())
        if want is None:
            assert np.isnan(got[index])
        else:
            assert got[index] == want


def _keyword_with(n_senses: int) -> tuple[EmbeddingModel, Lexicon, list[Sense]]:
    vectors = dict(_random_model(4, dim=5, size=80).vocab)
    vectors["kw"] = vectors.pop("w79")
    model = EmbeddingModel(vocab=vectors, dim=5)
    senses = [
        Sense(
            id=f"kw#{i}", lemmas=("kw",),
            synonyms=(f"w{3 * i}", f"w{3 * i + 1} w{3 * i + 2}", "qzx"),
            core_context=(ContextRef(f"w{40 + i}"), ContextRef("o", is_ref=True)),
        )
        for i in range(n_senses)
    ]
    # Only one level measurable: synonyms out of vocabulary, or no core context.
    senses += [
        Sense(id="kw#oov", lemmas=("kw",), synonyms=("qzx",), core_context=(ContextRef("w64"),)),
        Sense(id="kw#bare", lemmas=("kw",), synonyms=("w65",)),
    ]
    other = Sense(id="o", lemmas=("o",), synonyms=("w60", "w61 w62"))
    return model, Lexicon.from_senses([*senses, other]), senses


@pytest.mark.parametrize("n_senses", [2, 20], ids=["small", "large"])
def test_step1_small_and_large_keywords(n_senses):
    # A keyword of 10 phrases and one of 58: one aggregation for both.
    model, lexicon, senses = _keyword_with(n_senses)
    index = compiled.sense_index(model, lexicon, senses)
    assert index.phrases.size == (10 if n_senses == 2 else 58)
    ca = select_active_context(model, ["w70", "w71", "qzx", "w72"], "kw",
                               ContextConfig(threshold=0.0, stopwords=STOP))
    assert len(ca) == 3
    weights = RelWeights(0.3)
    got = [s.score for s in step1_base_scores(model, lexicon, senses, ca, weights)]
    assert got == compile_reference.base_scores(model, lexicon, senses, ca.rows, weights)
    want, _, _ = oracle.run_algorithm(model, lexicon, "kw", senses, ca.members,
                                      w0=0.3, w1=0.7, stopwords=STOP)
    assert max(abs(a - b) for a, b in zip(got, want)) <= TOL


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_step1_paths_match_oracle(scenario):
    # The oracle's own active context, so that only step 1 is compared.
    model, lexicon, senses = scenario["model"], scenario["lexicon"], scenario["senses"]
    members = oracle.active_context(model, scenario["context"], "kw", STOP,
                                    scenario["threshold"], scenario["max_context"])
    ca = ActiveContext(target="kw", members=tuple(members),
                       rows=model.phrase_matrix([w for w, _ in members]))
    want, _, _ = oracle.run_algorithm(model, lexicon, "kw", senses, members, stopwords=STOP)
    got = [s.score for s in step1_base_scores(model, lexicon, senses, ca)]
    reference = compile_reference.base_scores(model, lexicon, senses, ca.rows)
    assert got == reference
    assert all(abs(a - b) <= TOL for a, b in zip(got, want))


# Missing values, settled when a keyword compiles: "z" is a zero vector, "v"
# is -"w1" so the phrase "w1 v" has a zero centroid, "qzx" is out of vocabulary.
WEIGHTS = RelWeights(0.3)


def _missing_model() -> EmbeddingModel:
    rng = np.random.default_rng(7)
    vocab = {f"w{i}": rng.normal(size=5) for i in range(40)}
    return EmbeddingModel(vocab=dict(vocab, z=np.zeros(5), v=-vocab["w1"]), dim=5)


def _kw(i, synonyms, *members, sid=None) -> Sense:
    core = tuple(ContextRef(m, is_ref=True) if "#" in m else ContextRef(m) for m in members)
    return Sense(id=sid or f"kw#{i}", lemmas=((sid or "kw").split("#")[0],),
                 synonyms=tuple(synonyms), core_context=core)


def _step1_matches_the_reference(senses, words, *others) -> list[float]:
    """Step 1, rel_sense_word and rel_senses of ``senses`` equal the loop reference exactly."""
    model, lexicon = _missing_model(), Lexicon.from_senses([*senses, *others])
    ca = ActiveContext(target="kw", members=tuple((w, 1.0) for w in words),
                       rows=model.phrase_matrix(words))
    got = [s.score for s in step1_base_scores(model, lexicon, senses, ca, WEIGHTS)]
    assert got == compile_reference.base_scores(model, lexicon, senses, ca.rows, WEIGHTS)
    for score, sense in zip(got, senses):
        want = oracle.mean_skip([oracle.rel_tw(model, lexicon, sense, w, 0.3, 0.7) for w in words])
        assert abs(score - (0.0 if want is None else want)) <= TOL
    for sense in senses:
        for word in words:
            want = compile_reference.rel_sense_word(model, lexicon, sense, word, WEIGHTS)
            assert _or_none(rel_sense_word, model, lexicon, sense, word, WEIGHTS) == want
        for other in senses:
            want = compile_reference.rel_senses(model, lexicon, sense, other, WEIGHTS)
            assert _or_none(rel_senses, model, lexicon, sense, other, WEIGHTS) == want
    return got


def test_step1_skips_a_token_with_a_zero_vector():
    senses = [_kw(0, ["w0", "z", "w2"], "w3", "z"), _kw(1, ["w4"], "w5")]
    got = _step1_matches_the_reference(senses, ["w6", "w7"])
    # Without "z" the scores are the same: it is missing, not a vector.
    assert got == _step1_matches_the_reference(
        [_kw(0, ["w0", "w2"], "w3"), _kw(1, ["w4"], "w5")], ["w6", "w7"])


@pytest.mark.parametrize("place", ["synonym", "label", "reference"])
def test_step1_skips_a_phrase_whose_centroid_cancels(place):
    if place == "synonym":
        first = _kw(0, ["w0", "w1 v"], "w3")
    elif place == "label":
        first = _kw(0, ["w0"], "w1 v", "w3")
    else:
        first = _kw(0, ["w0"], "r#0", "w3")
    referenced = _kw(0, ["w2", "w1 v"], sid="r#0")
    senses = [first, _kw(1, ["w4", "w1 v"], "r#0", "w5")]
    _step1_matches_the_reference(senses, ["w6", "w7", "w1"], referenced)
    model = _missing_model()
    lexicon = Lexicon.from_senses([*senses, referenced])
    index = compiled.sense_index(model, lexicon, senses)
    centroids = index.phrases.centroids()
    cancelled = next(i for i in range(index.phrases.size) if not centroids[i].any())
    assert cancelled not in index.groups


def test_step1_drops_a_member_with_no_measurable_phrase():
    # kw#0 has three members; only "w3" has a measurable phrase, so level 1
    # is the level 0 of "w3" alone.
    senses = [_kw(0, ["w0"], "qzx", "w3", "r#1"), _kw(1, ["w4"], "w5", "z")]
    others = [_kw(1, ["qzx", "z"], sid="r#1")]
    _step1_matches_the_reference(senses, ["w6", "w7"], *others)
    model, lexicon = _missing_model(), Lexicon.from_senses([*senses, *others])
    plain, level1 = _kw(0, ["w0"], "w3"), RelWeights(0.0)
    assert (rel_sense_word(model, lexicon, senses[0], "w6", level1)
            == rel_sense_word(model, Lexicon.from_senses([plain]), plain, "w6", level1))


def test_step1_sense_with_neither_level_measurable():
    senses = [_kw(0, ["qzx", "w1 v"], "z", "qzx"), _kw(1, ["w4"], "w5")]
    got = _step1_matches_the_reference(senses, ["w6", "w7"])
    assert got[0] == 0.0 and got[1] > 0.0
    model, lexicon = _missing_model(), Lexicon.from_senses(senses)
    index = compiled.sense_index(model, lexicon, senses)
    values = index.relatedness(model.phrase_matrix(["w6", "w7"]), WEIGHTS)
    assert np.isnan(values[0]).all() and not np.isnan(values[1]).any()
    with pytest.raises(UnmeasurableError):
        rel_sense_word(model, lexicon, senses[0], "w6")
    with pytest.raises(UnmeasurableError):
        rel_senses(model, lexicon, senses[1], senses[0])


def test_a_context_word_with_no_direction_is_never_a_member():
    # "z" is a zero vector and "qzx" has none: no relatedness to the keyword,
    # so selection drops them at any threshold, and a context cannot hold them.
    model = _missing_model()
    words = ["w6", "z", "qzx", "w7"]
    ca = select_active_context(model, words, "w8", ContextConfig(threshold=0.0, stopwords=STOP))
    assert sorted(ca.words) == ["w6", "w7"]
    with pytest.raises(ValueError, match="direction"):
        ActiveContext(target="kw", members=tuple((w, 1.0) for w in words[:3]),
                      rows=model.phrase_matrix(words[:3]))


def test_step1_adds_in_index_order_for_one_sense_and_one_word():
    # With one sense and one word, the sums over members (and over words,
    # and over member pairs) run along an axis with nothing beside it, where
    # a plain reduction would add pairwise.
    sense = _kw(0, [f"w{i}" for i in range(20)], *(f"w{i}" for i in range(20, 40)))
    other = _kw(1, ["w1", "w2"], *(f"w{i}" for i in range(30, 36)))
    for word in ("w0", "w25", "w39"):
        _step1_matches_the_reference([sense], [word], other)
    _step1_matches_the_reference([sense], [f"w{i}" for i in range(5, 30)], other)


@pytest.mark.parametrize("k", [1, 3, 7, 15])
def test_topk_centroids_follow_rank_order(k):
    # Copies and multiples of a few vectors make many exact ties among
    # distinct phrases, in descriptions longer than a sort's small-array cutoff.
    rng = np.random.default_rng(k)
    bases = rng.normal(size=(4, 5))
    vocab = {f"w{i}": bases[i % 4] * (1 + i // 4) for i in range(16)}
    model = EmbeddingModel(vocab=vocab, dim=5)
    words = [*vocab, "qzx", "w1 w5", "w2 qzx", "w3 w7 w11"]
    senses = [Sense(id=f"kw#{i}", lemmas=("kw",), synonyms=("kw",),
                    description_terms=tuple(rng.choice(words, size=rng.integers(0, 40))))
              for i in range(6)]
    lexicon = Lexicon.from_senses(senses)
    index = compiled.description_index(model, lexicon, senses)
    reference = rng.normal(size=5)
    got = index.topk_centroids(reference, k)
    table, ids = compile_reference.phrase_table(
        model, [t for s in senses for t in s.description_terms])
    vectors = table.centroids()
    rel = relatedness.relatedness_rows(vectors, reference[None, :])[:, 0].tolist()
    for sense, row in zip(senses, got):
        found = [ids[t] for t in sense.description_terms
                 if t in ids and rel[ids[t]] == rel[ids[t]]]
        top = relatedness.rank_top(found, list(rel), k, vectors, reference)
        want = centroid([vectors[i] for i in top]) if top else np.zeros(5)
        np.testing.assert_array_equal(row, want)


def test_step2_calls_hold_one_centroid_matrix():
    # 100 senses of 16 description terms, a quarter of them two-word phrases:
    # 1,600 distinct phrases at dim 300. Each call forms the table's centroids
    # once; a second full-size copy (such as all senses' k chosen centroids
    # gathered at once, 1,500 rows) would take the peak past 1.5x.
    dim = 300
    model = _random_model(11, dim=dim, size=1200)
    senses = [Sense(id=f"kw#{i}", lemmas=("kw",), synonyms=("kw",),
                    description_terms=(*(f"w{12 * i + j}" for j in range(12)),
                                       *(f"w{(12 * i + j) % 1200} w{(7 * i + j) % 1200}"
                                         for j in range(12, 16))))
              for i in range(100)]
    index = compiled.description_index(model, Lexicon.from_senses(senses), senses)
    size = index.phrases.size
    assert size >= 1500
    matrix_bytes = (size + 1) * dim * 8
    rng = np.random.default_rng(12)
    reference, words = rng.normal(size=dim), rng.normal(size=(10, dim))
    for call in (lambda: index.topk_centroids(reference, 15), lambda: index.average(words)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * matrix_bytes


def _variant_lexicon() -> Lexicon:
    """The toy lexicon with other senses and descriptions for the keyword 'java'."""
    senses = make_toy_senses()
    senses[0] = Sense(id="java#island", lemmas=("java",), synonyms=("java", "bali"),
                      core_context=(ContextRef("sea"),),
                      description_terms=("sea land", "place", "bali"), frequency=1.0)
    senses[1] = Sense(id="java#coffee", lemmas=("java",), synonyms=("java", "brew"),
                      core_context=(ContextRef("cup"), ContextRef("drink")),
                      description_terms=("bean", "beverage"), frequency=4.0)
    return Lexicon.from_senses(senses)


def _variant_model() -> EmbeddingModel:
    model = make_toy_model()
    vocab = {tok: v[::-1].copy() if tok in ("drink", "sea", "code") else v
             for tok, v in model.vocab.items()}
    return EmbeddingModel(vocab=vocab, dim=model.dim)


def test_each_model_lexicon_pair_gets_its_own_results():
    models = [make_toy_model(), _variant_model()]
    lexicons = [Lexicon.from_senses(make_toy_senses()), _variant_lexicon()]
    context = ["drink", "sea", "island", "code", "cup", "land"]
    cfg = ContextConfig(threshold=0.3, max_context=5, stopwords=STOP)
    results = {}
    for rounds in range(2):  # the second round reads the cache the first one filled
        for mi, model in enumerate(models):
            for li, lexicon in enumerate(lexicons):
                for strategy in (Strategy.AVERAGE, Strategy.TOP_K):
                    params = AlgoParams(strategy=strategy, k=2)
                    got = disambiguate(model, lexicon, "java", context, cfg, params)
                    _, want = oracle.run_pipeline(
                        model, lexicon, "java", context, stopwords=STOP, threshold=0.3,
                        max_context=5, strategy=strategy.value, k=2)
                    assert [s.sense_id for s in got.scores] == [sid for sid, _ in want]
                    for s, (_, score) in zip(got.scores, want):
                        assert abs(s.score - score) <= TOL
                    key = (mi, li, strategy)
                    if rounds:
                        assert got.to_json() == results[key]
                    results[key] = got.to_json()
    assert len(set(results.values())) == len(results)


def test_pair_cache_is_dropped_with_the_model():
    model, lexicon = make_toy_model(), make_toy_lexicon()
    compiled.sense_index(model, lexicon, lexicon.senses_of("java"))
    assert list(lexicon.compiled) == [model]
    del model
    gc.collect()
    assert len(lexicon.compiled) == 0


def _shared_token_lexicon(n_keywords: int = 24) -> tuple[EmbeddingModel, Lexicon, object]:
    """Keywords of three senses whose phrases share a few tokens, and a corpus over them."""
    rng = np.random.default_rng(5)
    tokens = [*(f"w{i}" for i in range(40)), *(f"k{k}" for k in range(n_keywords))]
    model = EmbeddingModel(vocab=dict(zip(tokens, rng.normal(size=(len(tokens), 6)))), dim=6)

    def phrases(n):
        return tuple(" ".join(f"w{i}" for i in rng.integers(0, 48, rng.integers(1, 3)))
                     for _ in range(n))

    senses = [
        Sense(id=f"k{k}#{j}", lemmas=(f"k{k}",), synonyms=(f"k{k}", *phrases(2)),
              core_context=(ContextRef(phrases(1)[0]),
                            ContextRef(f"k{(k + 1) % n_keywords}#0", is_ref=True)),
              description_terms=phrases(12))
        for k in range(n_keywords) for j in range(3)
    ]
    items = tuple(
        WsdItem(item_id=f"i{i}", tokens=(f"k{i % n_keywords}", *phrases(6)),
                targets=(WsdTarget(0, f"k{i % n_keywords}", (f"k{i % n_keywords}#{i % 3}",)),))
        for i in range(4 * n_keywords)
    )
    return model, Lexicon.from_senses(senses), WsdCorpus(name="shared", items=items)


def test_used_lexicon_pickles_and_copies_without_its_cache(toy_model):
    lexicon = Lexicon.from_senses(make_toy_senses())
    before = disambiguate(toy_model, lexicon, "java", ["island", "sea"])
    assert lexicon.compiled
    for other in (pickle.loads(pickle.dumps(lexicon)), copy.deepcopy(lexicon)):
        assert other == lexicon and other.compiled == {}
        assert disambiguate(toy_model, other, "java", ["island", "sea"]) == before


def test_used_lexicon_pickles_and_copies_with_its_interning():
    # The copy keeps its interned phrases, still tied to its own senses, and
    # fills its own token rows; every record stays the same.
    model, lexicon, corpus = _shared_token_lexicon(8)
    cfg, params = ContextConfig(threshold=0.0), AlgoParams(strategy=Strategy.TOP_K, k=3)
    before = eval_wsd(model, lexicon, corpus, cfg, params)
    builds = []
    real = compiled.InternedSenses.build
    for other in (pickle.loads(pickle.dumps(lexicon)), copy.deepcopy(lexicon)):
        assert other.compiled == {} and other.interned is not lexicon.interned
        assert all(s is other.senses[s.id] for s in other.interned.senses)
        with mock.patch.object(compiled.InternedSenses, "build",
                               lambda *a: builds.append(a) or real(*a)):
            assert eval_wsd(model, other, corpus, cfg, params) == before
        assert builds == []


def _context(model, target, words) -> ActiveContext:
    return ActiveContext(target=target, members=tuple((w, 1.0) for w in words),
                         rows=model.phrase_matrix(words))


def _step1_matches_the_oracle(model, lexicon, senses, ca) -> list[float]:
    got = [s.score for s in step1_base_scores(model, lexicon, senses, ca)]
    for score, sense in zip(got, senses):
        want = oracle.mean_skip([oracle.rel_tw(model, lexicon, sense, w) for w in ca.words])
        assert abs(score - (0.0 if want is None else want)) <= TOL
    return got


def test_an_edited_inventory_is_a_new_lexicon(toy_model):
    # k#1 references ref#1, and a step-1 call caches k's compiled senses.
    # The lexicon cannot then be edited; the edited inventory is a new
    # lexicon, which reads the new ref#1 instead of the cached one.
    ref = Sense(id="ref#1", lemmas=("ref",), synonyms=("island",))
    senses = [Sense(id="k#1", lemmas=("k",), synonyms=("java",),
                    core_context=(ContextRef("ref#1", is_ref=True),)),
              Sense(id="k#2", lemmas=("k",), synonyms=("coffee",)), ref]
    lexicon = Lexicon.from_senses(senses)
    ca = _context(toy_model, "k", ["sea", "cup"])
    before = _step1_matches_the_oracle(toy_model, lexicon, lexicon.senses_of("k"), ca)
    edited = Sense(id="ref#1", lemmas=("ref",), synonyms=("coffee", "drink"))
    with pytest.raises(TypeError):
        lexicon.senses["ref#1"] = edited
    assert _step1_matches_the_oracle(toy_model, lexicon, lexicon.senses_of("k"), ca) == before
    other = Lexicon.from_senses([*senses[:2], edited])
    after = _step1_matches_the_oracle(toy_model, other, other.senses_of("k"), ca)
    assert after[0] != before[0] and after[1] == before[1]


def test_senses_apart_in_the_lexicon_compile_in_each_order(toy_model):
    # Ordinals 0 and 2, then 2 and 0: each order is its own cache entry.
    lexicon = Lexicon.from_senses(make_toy_senses())
    island, _, language = lexicon.senses_of("java")
    ca = _context(toy_model, "java", ["island", "code"])
    forward = _step1_matches_the_oracle(toy_model, lexicon, [island, language], ca)
    backward = _step1_matches_the_oracle(toy_model, lexicon, [language, island], ca)
    assert backward == forward[::-1] and forward[0] != forward[1]


def test_senses_the_lexicon_never_held(toy_model, toy_lexicon):
    # Neither step 1, rel_senses nor the descriptions take them, even when
    # their references name the lexicon's senses.
    foreign = Sense(id="java#foreign", lemmas=("java",), synonyms=("java", "sea"),
                    core_context=(ContextRef("island#landmass", is_ref=True), ContextRef("cup")),
                    description_terms=("sea",))
    senses = [*toy_lexicon.senses_of("java"), foreign]
    ca = _context(toy_model, "java", ["island", "drink"])
    _step1_matches_the_oracle(toy_model, toy_lexicon, senses[:-1], ca)
    with pytest.raises(ValueError, match="'java#foreign' is not one the lexicon holds"):
        step1_base_scores(toy_model, toy_lexicon, senses, ca)
    held = toy_lexicon.senses["island#landmass"]
    for a, b in ((foreign, held), (held, foreign)):
        with pytest.raises(ValueError, match="'java#foreign' is not one the lexicon holds"):
            rel_senses(toy_model, toy_lexicon, a, b)
    with pytest.raises(ValueError, match="'java#foreign' is not one the lexicon holds"):
        rel_sense_word(toy_model, toy_lexicon, foreign, "sea")
    with pytest.raises(ValueError, match="'java#foreign' is not one the lexicon holds"):
        compiled.description_index(toy_model, toy_lexicon, senses)
    with pytest.raises(ValueError, match="'java#foreign' is not one the lexicon holds"):
        compiled.description_words(toy_model, toy_lexicon, [foreign], STOP)


# Every function that compiles or reads a lexicon's senses: called on a
# keyword's senses, one of them ``sense``, or on ``sense`` and a held sense.
_READERS = {
    "step1_base_scores": lambda model, lexicon, senses, sense: step1_base_scores(
        model, lexicon, senses, _context(model, "java", ["sea"])),
    "sense_index": lambda model, lexicon, senses, sense: compiled.sense_index(
        model, lexicon, senses),
    "description_index": lambda model, lexicon, senses, sense: compiled.description_index(
        model, lexicon, senses),
    "description_words": lambda model, lexicon, senses, sense: compiled.description_words(
        model, lexicon, senses, STOP),
    "rel_senses": lambda model, lexicon, senses, sense: rel_senses(
        model, lexicon, lexicon.senses["java#coffee"], sense),
    "rel_sense_word": lambda model, lexicon, senses, sense: rel_sense_word(
        model, lexicon, sense, "sea"),
}

_NOT_HELD = {
    # The lexicon holds a sense of this id, but not this sense object: in
    # place of it, the keyword's senses have the ids of its cached entry.
    "same_id": Sense(id="java#island", lemmas=("java",), synonyms=("java", "sea"),
                     description_terms=("sea",)),
    # No sense of this id, referencing another id the lexicon does not know.
    "unknown_id": Sense(id="java#s1", lemmas=("java",), synonyms=("sea",),
                        core_context=(ContextRef("north"), ContextRef("s2", is_ref=True))),
}


@pytest.mark.parametrize("other", list(_NOT_HELD))
@pytest.mark.parametrize("reader", list(_READERS))
def test_a_sense_the_lexicon_does_not_hold_raises_one_error(toy_model, reader, other):
    lexicon = Lexicon.from_senses(make_toy_senses())
    java = lexicon.senses_of("java")
    first = compiled.sense_index(toy_model, lexicon, java)
    sense = _NOT_HELD[other]
    senses = [sense if s.id == sense.id else s for s in java]
    if sense.id not in lexicon.senses:
        senses.append(sense)
    with pytest.raises(ValueError, match=f"^sense {sense.id!r} is not one the lexicon holds$"):
        _READERS[reader](toy_model, lexicon, senses, sense)
    assert compiled.sense_index(toy_model, lexicon, java) is first


def test_second_eval_wsd_reuses_compiled_keywords(toy_corpus_file):
    model, lexicon = make_toy_model(), Lexicon.from_senses(make_toy_senses())
    corpus = load_wsd_corpus(toy_corpus_file)
    builds = []

    def counting(build):
        def wrapper(*args):
            builds.append(build.__name__)
            return build(*args)
        return wrapper

    with mock.patch.object(compiled, "_build_sense_index", counting(compiled._build_sense_index)), \
            mock.patch.object(compiled, "_build_description_index",
                              counting(compiled._build_description_index)):
        first = eval_wsd(model, lexicon, corpus)
        compiled_once = len(builds)
        second = eval_wsd(model, lexicon, corpus)
    # "java" is the only keyword with senses: one step-1 and one description build.
    assert compiled_once == 2
    assert len(builds) == compiled_once
    assert first == second


def test_eval_wsd_fills_the_token_rows_of_every_token():
    # Many keywords share tokens; each compile fills the one token -> row array.
    model, lexicon, corpus = _shared_token_lexicon()
    eval_wsd(model, lexicon, corpus, ContextConfig(threshold=0.0),
             AlgoParams(strategy=Strategy.AVERAGE))
    rows = lexicon.compiled[model][compiled._token_rows]
    assert rows.tolist() == [-1 if (i := model.row_id(t)) is None else i
                             for t in lexicon.interned.tokens]


def test_topk_decides_a_tie_behind_a_repeated_term_at_the_cut():
    # w0 = 3 * w5: the kernel gives both the same relatedness to the
    # reference, the defining formula ranks w0 higher. With w5 listed twice,
    # k = 1 cuts between its two copies, and w0 must still win the slot.
    rng = np.random.default_rng(2)
    vocab = {f"w{i}": rng.normal(size=8) for i in range(6)}
    vocab["w0"] = 3 * vocab["w5"]
    model = EmbeddingModel(vocab=vocab, dim=8)
    reference = rng.normal(size=8)
    sense = Sense(id="kw#0", lemmas=("kw",), synonyms=("kw",),
                  description_terms=("w5", "w5", "w0"))
    index = compiled.description_index(model, Lexicon.from_senses([sense]), [sense])
    rel = relatedness.relatedness_to(np.array([vocab["w5"], vocab["w0"]]), reference)
    assert rel[0] == rel[1]
    assert (relatedness.ordered_relatedness(vocab["w0"], reference)
            > relatedness.ordered_relatedness(vocab["w5"], reference))
    np.testing.assert_array_equal(index.topk_centroids(reference, 1)[0], vocab["w0"])


class TestRankTopSkipsOneRepeatedPhrase:
    def _count_remeasures(self, monkeypatch) -> list:
        calls = []
        real = relatedness.ordered_relatedness

        def counting(u, v):
            calls.append(1)
            return real(u, v)

        monkeypatch.setattr(relatedness, "ordered_relatedness", counting)
        return calls

    def test_same_phrase_each_side_of_the_cut(self, monkeypatch):
        calls = self._count_remeasures(monkeypatch)
        vectors = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        rel = [0.7, 0.9]
        assert relatedness.rank_top([0, 1, 0], rel, 2, vectors, np.array([1.0, 1.0])) == [1, 0]
        assert calls == [] and rel == [0.7, 0.9]

    def test_distinct_phrases_at_the_cut_are_remeasured(self, monkeypatch):
        calls = self._count_remeasures(monkeypatch)
        vectors = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        rel = [0.75, 0.75]
        assert relatedness.rank_top([0, 1], rel, 1, vectors, np.array([1.0, 1.0])) == [0]
        assert len(calls) == 2

    def test_description_term_listed_twice_across_the_cut(self, monkeypatch, toy_model):
        sense = Sense(id="java#x", lemmas=("java",), synonyms=("java",),
                      description_terms=("island", "sea", "island", "code", "island"))
        other = Sense(id="java#y", lemmas=("java",), synonyms=("coffee",),
                      description_terms=("cup", "cup", "drink"))
        lexicon = Lexicon.from_senses([sense, other])
        context = ["bali", "drink"]
        cfg = ContextConfig(threshold=0.0, stopwords=STOP)
        calls = self._count_remeasures(monkeypatch)
        got = disambiguate(toy_model, lexicon, "java", context, cfg,
                           AlgoParams(strategy=Strategy.TOP_K, k=1))
        assert calls == []
        _, want = oracle.run_pipeline(toy_model, lexicon, "java", context, stopwords=STOP,
                                      threshold=0.0, strategy="topk", k=1)
        assert [s.sense_id for s in got.scores] == [sid for sid, _ in want]
        for s, (_, score) in zip(got.scores, want):
            assert abs(s.score - score) <= TOL
