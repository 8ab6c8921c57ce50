"""The SIF description store: the interned builder against the per-token reference.

:func:`build_sif_store` reads the lexicon's interned description tokens; it
must give the keys, key order, bytes and warning of the per-token builder
it replaced (``sif_reference``). The store is one read-only float64 matrix, and
building it allocates no matrix over the distinct tokens.
"""
from __future__ import annotations

import dataclasses
import logging
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kwsense
import sif_reference
from kwsense import (
    EmbeddingModel,
    Lexicon,
    Sense,
    SifConfig,
    build_sif_store,
    compiled,
)

# "W3" and "w3" are both rows, so "W3" is found through "w3"; only the raw
# form of "Q7" is a row; "W1" is found through "w1"; "q7", "zz" and "yy" are
# out of vocabulary.
_MODEL_TOKENS = ("w0", "w1", "w2", "w3", "w4", "W3", "Q7")
_TOKENS = (*_MODEL_TOKENS, "W1", "q7", "zz", "yy")
_SEPARATORS = (" ", "  ", "\t", " \n ", "\u00a0")
# Frequency-table entries in both cases, so lookups fall back from the
# lowercased form to the raw one.
_FREQ_TOKENS = ("w0", "W0", "w1", "W3", "w3", "Q7", "q7", "zz", "W2")


@st.composite
def _phrases(draw) -> str:
    tokens = draw(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=4))
    separators = [draw(st.sampled_from(_SEPARATORS)) for _ in tokens[1:]]
    inner = "".join(t + sep for t, sep in zip(tokens, [*separators, ""]))
    return draw(st.sampled_from(["", " ", "\t"])) + inner + draw(st.sampled_from(["", " "]))


@st.composite
def _scenarios(draw) -> tuple[EmbeddingModel, Lexicon, dict[str, int]]:
    dim = draw(st.sampled_from([1, 2, 3, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    matrix = rng.normal(size=(len(_MODEL_TOKENS), dim))
    if draw(st.booleans()):  # every description the same direction: a degenerate centered set
        matrix[:] = matrix[0]
    matrix = matrix.astype(draw(st.sampled_from([np.float64, np.float32])))
    model = EmbeddingModel.from_rows(matrix, dict(zip(_MODEL_TOKENS, range(len(_MODEL_TOKENS)))))
    pool = draw(st.lists(st.one_of(_phrases(), st.just(" ")), min_size=1, max_size=8))
    phrase = st.sampled_from(pool)
    senses = [
        Sense(id=f"k#{j}", lemmas=("k",), synonyms=("k",),
              description_terms=tuple(draw(st.lists(phrase, max_size=8))))
        for j in range(draw(st.integers(1, 6)))
    ]
    freqs = draw(st.dictionaries(st.sampled_from(_FREQ_TOKENS), st.integers(1, 1000)))
    return model, Lexicon.from_senses(senses), freqs


def _logged(build, logger_name: str) -> tuple[dict, list[str]]:
    """``build()`` and the messages it logged to ``logger_name``."""
    messages: list[str] = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger(logger_name)
    logger.addHandler(handler)
    try:
        return build(), messages
    finally:
        logger.removeHandler(handler)


def _assert_same(build, reference) -> None:
    got, got_log = _logged(build, "kwsense.disambig")
    want, want_log = _logged(reference, sif_reference.__name__)
    assert got_log == want_log
    assert list(got) == list(want)
    for sense_id, v in want.items():
        g = got[sense_id]
        assert g.dtype == v.dtype and g.shape == v.shape and not g.flags.writeable
        assert g.tobytes() == v.tobytes(), sense_id


@settings(max_examples=200, deadline=None)
@given(_scenarios(), st.data())
def test_store_matches_the_per_token_reference(scenario, data):
    model, lexicon, freqs = scenario
    cfg = SifConfig()
    with tempfile.TemporaryDirectory() as tmp:
        if freqs:
            path = Path(tmp) / "freqs.txt"
            path.write_text("".join(f"{t} {c}\n" for t, c in freqs.items()))
            cfg = SifConfig(path)

        def check() -> None:
            _assert_same(lambda: build_sif_store(model, lexicon, cfg),
                         lambda: sif_reference.build_sif_store(model, lexicon, cfg))

        check()
        # A sense deleted, one added, then one replaced: each a new lexicon.
        senses = list(lexicon.senses.values())
        del senses[data.draw(st.integers(0, len(senses) - 1))]
        lexicon = Lexicon.from_senses(senses)
        check()
        senses.append(Sense(id="k#new", lemmas=("k",), synonyms=("k",),
                            description_terms=("Q7 w2",)))
        lexicon = Lexicon.from_senses(senses)
        check()
        j = data.draw(st.integers(0, len(senses) - 1))
        senses[j] = dataclasses.replace(
            senses[j], description_terms=(*senses[j].description_terms[1:], "w4 zz", "W3"))
        lexicon = Lexicon.from_senses(senses)
        check()


def test_omitted_descriptions_warn_once_with_the_first_three_ids(toy_model):
    senses = [Sense(id=f"oov{i}", lemmas=("k",), synonyms=("k",), description_terms=("qzx wvu",))
              for i in range(5)]
    senses.insert(2, Sense(id="good", lemmas=("k",), synonyms=("k",),
                           description_terms=("island",)))
    lexicon = Lexicon.from_senses(senses)
    store, messages = _logged(lambda: build_sif_store(toy_model, lexicon), "kwsense.disambig")
    assert list(store) == ["good"]
    assert messages == ["5 descriptions have no in-vocabulary tokens and were omitted "
                        "(first: 'oov0', 'oov1', 'oov2')"]
    _assert_same(lambda: build_sif_store(toy_model, lexicon),
                 lambda: sif_reference.build_sif_store(toy_model, lexicon))


def test_degenerate_centered_set_keeps_the_means(toy_model):
    senses = [Sense(id=f"s{i}", lemmas=("k",), synonyms=("k",), description_terms=terms)
              for i, terms in enumerate([("island sea",), ("sea", "island")])]
    lexicon = Lexicon.from_senses(senses)
    store = build_sif_store(toy_model, lexicon)
    # Each description's own store: one row, from which nothing is removed.
    raw = [build_sif_store(toy_model, Lexicon.from_senses([s]))[s.id] for s in senses]
    assert [v.tobytes() for v in store.values()] == [v.tobytes() for v in raw]
    _assert_same(lambda: build_sif_store(toy_model, lexicon),
                 lambda: sif_reference.build_sif_store(toy_model, lexicon))


def test_keywords_compile_from_the_rows_the_store_looked_up(toy_model, toy_lexicon, monkeypatch):
    build_sif_store(toy_model, toy_lexicon)
    looked_up: list[str] = []
    row_id = EmbeddingModel.row_id
    monkeypatch.setattr(EmbeddingModel, "row_id",
                        lambda self, token: looked_up.append(token) or row_id(self, token))
    compiled.description_index(toy_model, toy_lexicon, toy_lexicon.senses_of("java"))
    assert looked_up == []


def test_build_allocates_no_matrix_over_the_distinct_tokens():
    # 4,000 distinct description tokens over 200 senses: a weighted row per
    # distinct token would take 20 times the store's bytes.
    dim, n_senses, per_sense = 300, 200, 20
    rng = np.random.default_rng(0)
    names = [f"t{i}" for i in range(n_senses * per_sense)]
    model = EmbeddingModel.from_rows(rng.normal(size=(len(names), dim)),
                                     dict(zip(names, range(len(names)))))
    lexicon = Lexicon.from_senses(
        Sense(id=f"s{j}", lemmas=("k",), synonyms=("k",),
              description_terms=tuple(names[j * per_sense : (j + 1) * per_sense]))
        for j in range(n_senses)
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = build_sif_store(model, lexicon)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(store) == n_senses
    assert peak < 4 * n_senses * dim * 8


# Builds a 1,800 x 300 store, the scale of the benchmark's query-mix store,
# and writes its bytes to stdout.
_STORE_BYTES = """
import sys
import numpy as np
from kwsense import EmbeddingModel, Lexicon, Sense, build_sif_store
rng = np.random.default_rng(7)
model = EmbeddingModel.from_rows(rng.normal(size=(300, 300)), {f"w{i}": i for i in range(300)})
lexicon = Lexicon.from_senses(
    Sense(id=f"s{j}", lemmas=("s",), synonyms=("s",),
          description_terms=tuple(f"w{i}" for i in rng.integers(0, 300, 8)))
    for j in range(1800))
sys.stdout.buffer.write(b"".join(v.tobytes() for v in build_sif_store(model, lexicon).values()))
"""


def test_store_bytes_do_not_depend_on_the_blas_thread_count():
    # At this size OpenBLAS splits a matrix-vector product over two threads,
    # which adds in another order than one thread does.
    path = [str(Path(kwsense.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    stores = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        stores.append(subprocess.run([sys.executable, "-c", _STORE_BYTES], env=env,
                                     capture_output=True, check=True).stdout)
    assert len(stores[0]) == 1800 * 300 * 8
    assert stores[0] == stores[1]
