"""Scoring many targets at once: a batch equals its targets scored one at a time."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_DOCVECS, TOY_VECTORS, make_toy_model, make_toy_senses, vector_table
from kwsense import (
    AlgoParams,
    ContextConfig,
    DocVecStore,
    Lexicon,
    Sense,
    Strategy,
    UnmeasurableError,
    build_sif_store,
    disambiguate,
    eval_wsd,
)
from kwsense.disambig import _disambiguate_batch, strategy_store
from kwsense.evaluation import WsdCorpus, WsdItem, WsdTarget
from kwsense.lexicon import ContextRef

STOP = frozenset({"the", "is", "an", "of", "a"})

# "java" and "cup" have several senses, "island", "land" and "zz" one each
# ("zz" has no phrase in the model), "python" none.
_SENSES = [
    *make_toy_senses(),
    Sense(id="cup#vessel", lemmas=("cup",), synonyms=("cup",),
          core_context=(ContextRef("drink"),), description_terms=("drink", "coffee", "brew"),
          frequency=1.0),
    Sense(id="cup#trophy", lemmas=("cup",), synonyms=("cup", "ground"),
          core_context=(ContextRef("place"), ContextRef("java#island", is_ref=True)),
          description_terms=("place", "qqq")),
    Sense(id="zz#oov", lemmas=("zz",), synonyms=("qqq", "rrr sss"),
          core_context=(ContextRef("ttt"),), description_terms=("uuu", "vvv www")),
]
_KEYWORDS = ("java", "Java", "cup", "island", "land", "zz", "python")
_WORDS = (*TOY_VECTORS, *sorted(STOP), "qqq", "CUP", "Sea")
_MODEL = make_toy_model()
# Stores that lack some senses, so that step 2 finds some inputs unavailable.
_SIF = vector_table({k: v for k, v in build_sif_store(_MODEL, Lexicon.from_senses(_SENSES)).items()
                     if k not in ("land#ground", "cup#trophy")}, 5)
_DOCVEC = DocVecStore(vector_table({k: v for k, v in TOY_DOCVECS.items()
                                    if k != "java#coffee"}, 5))


@st.composite
def _items(draw) -> list[list[str]]:
    """Token lists holding keywords, repeated within and across items; some contexts are
    empty or all stopwords."""
    items = []
    for _ in range(draw(st.integers(1, 4))):
        words = draw(st.one_of(st.just([]), st.lists(st.sampled_from(sorted(STOP)), max_size=3),
                               st.lists(st.sampled_from(_WORDS), max_size=6)))
        keywords = draw(st.lists(st.sampled_from(_KEYWORDS), min_size=1, max_size=3))
        items.append(draw(st.permutations([*keywords, *words])))
    return items


@settings(max_examples=60, deadline=None)
@given(items=_items(), threshold=st.sampled_from([0.0, 0.5]), max_context=st.integers(1, 4))
def test_a_batch_equals_its_targets_scored_alone(items, threshold, max_context):
    # Every token that is a keyword is a target, its item without it the context.
    targets = [(tokens[p], tokens[:p] + tokens[p + 1 :])
               for tokens in items for p, token in enumerate(tokens) if token in _KEYWORDS]
    corpus = WsdCorpus(name="batch", items=tuple(
        WsdItem(item_id=f"i{i}", tokens=tuple(tokens),
                targets=tuple(WsdTarget(position=p, keyword=token, gold=("java#island",))
                              for p, token in enumerate(tokens) if token in _KEYWORDS))
        for i, tokens in enumerate(items)))
    cfg = ContextConfig(max_context=max_context, threshold=threshold, stopwords=STOP)
    for strategy in Strategy:
        params = AlgoParams(strategy=strategy)
        store = strategy_store(_MODEL, strategy, _SIF, _DOCVEC)
        # Fresh lexicons: the batch compiles its keywords together, the single
        # calls one keyword at a time.
        lexicon, alone = Lexicon.from_senses(_SENSES), Lexicon.from_senses(_SENSES)
        got = _disambiguate_batch(_MODEL, lexicon, targets, cfg, params, store)
        predicted = []
        for (keyword, context), result in zip(targets, got):
            senses = alone.senses_of(keyword)
            try:
                want = disambiguate(_MODEL, alone, keyword, context, cfg, params, _SIF, _DOCVEC)
            except UnmeasurableError:
                assert result is None and not senses
                predicted.append(None)
                continue
            assert result == want
            assert result.to_json() == want.to_json()  # floats bit for bit
            for a, b in zip(result.active_context.rows, want.active_context.rows):
                np.testing.assert_array_equal(a, b)
            predicted.append(senses[0].id if len(senses) == 1 else want.top.sense_id)
        report = eval_wsd(_MODEL, Lexicon.from_senses(_SENSES), corpus, cfg, params, _SIF, _DOCVEC)
        assert [r.predicted for r in report.records] == predicted
