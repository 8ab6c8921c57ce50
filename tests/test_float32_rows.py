"""Binary models keep float32 rows; every result equals that of a float64 model.

Widening float32 to float64 is exact, so a binary model and an in-memory
model holding the same values as float64 must agree bit for bit wherever
kwsense does arithmetic: the disambiguation steps under every strategy, the
relatedness measures, the SIF description embeddings and the text dump. The
vectors include exactly parallel and antiparallel pairs, a zero vector and a
vector whose squared norm underflows in float32 (but not in float64).
"""
from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from kwsense import (
    AlgoParams,
    ContextConfig,
    ContextRef,
    DocVecStore,
    EmbeddingModel,
    Lexicon,
    Sense,
    SifConfig,
    Strategy,
    angular_relatedness,
    build_sif_store,
    disambiguate,
    load_binary_model,
    rel_senses,
    rel_words,
    save_text_model,
)

from compile_reference import centroid
from conftest import vector_table

DIM = 16
STOP = frozenset({"the"})


def _rows() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(12)
    base = rng.standard_normal(DIM).astype(np.float32)
    rows = {f"w{i}": rng.standard_normal(DIM).astype(np.float32) for i in range(12)}
    rows.update({
        "kw": rng.standard_normal(DIM).astype(np.float32),
        "alpha": base,
        "alpha2": 2 * base,  # exactly parallel to alpha
        "anti": -base,  # exactly antiparallel to alpha
        "zero": np.zeros(DIM, dtype=np.float32),
        # Squares of ~1e-30 underflow in float32: summed there, it has no direction.
        "tiny": (base * np.float32(1e-30)).astype(np.float32),
    })
    return rows


def _lexicon() -> Lexicon:
    return Lexicon.from_senses([
        Sense(id="kw#a", lemmas=("kw",), synonyms=("kw", "alpha"),
              core_context=(ContextRef("w1 w2"), ContextRef("o#1", is_ref=True)),
              description_terms=("alpha", "alpha2", "anti", "tiny", "w3 w4", "zero", "oov",
                                 "w5", "alpha", "tiny w9"),
              frequency=3.0),
        Sense(id="kw#b", lemmas=("kw",), synonyms=("w6",),
              core_context=(ContextRef("kw#a", is_ref=True),),
              description_terms=("w7", "w8", "anti w7", "tiny", "w3 w4"), frequency=1.0),
        Sense(id="kw#c", lemmas=("kw",), synonyms=("tiny",),
              description_terms=("zero", "oov")),
        Sense(id="o#1", lemmas=("other",), synonyms=("w10", "alpha2 w11"),
              description_terms=("w11",), frequency=2.0),
    ])


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    rows = _rows()
    path = tmp_path_factory.mktemp("bin") / "m.bin"
    path.write_bytes(f"{len(rows)} {DIM}\n".encode() + b"".join(
        t.encode() + b" " + v.astype("<f4").tobytes() + b"\n" for t, v in rows.items()))
    binary = load_binary_model(path)
    wide = EmbeddingModel(vocab={t: v.astype(np.float64) for t, v in rows.items()}, dim=DIM)
    assert binary.vocab["alpha"].dtype == np.float32
    return binary, wide


def _stores(model, lexicon, freqs):
    sif = build_sif_store(model, lexicon, SifConfig(word_freq_source=freqs))
    docvec = {}
    for sense in lexicon.senses.values():
        found = [v for t in sense.description_terms if (v := model.phrase_vector(t)) is not None]
        if found:
            docvec[sense.id] = centroid(found)
    return sif, DocVecStore(vector_table(docvec, DIM))


@pytest.fixture(scope="module")
def freqs(tmp_path_factory):
    # Weights other than 1, so the SIF products round differently in float32.
    path = tmp_path_factory.mktemp("freqs") / "freqs.txt"
    path.write_text("alpha 7\nw3 3\nw4 11\nw7 2\nw9 5\nkw 1\ntiny 13\n")
    return path


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__


def test_disambiguation_is_identical_under_every_strategy(models, freqs):
    lexicon = _lexicon()
    stores = [_stores(model, lexicon, freqs) for model in models]
    context = ["alpha", "alpha2", "anti", "tiny", "zero", "w1", "w2", "w3 w9", "the", "oov",
               "w7"]
    for strategy, threshold, max_context, k in itertools.product(
        Strategy, (0.0, 0.5), (2, 10), (1, 3, 15)
    ):
        cfg = ContextConfig(max_context=max_context, threshold=threshold, stopwords=STOP)
        params = AlgoParams(strategy=strategy, k=k)
        got, want = (
            disambiguate(model, lexicon, "kw", context, cfg, params, sif, docvec).to_json()
            for model, (sif, docvec) in zip(models, stores)
        )
        assert got == want, (strategy, threshold, max_context, k)


def test_relatedness_measures_are_identical(models):
    binary, wide = models
    lexicon = _lexicon()
    words = [*wide.vocab, "alpha w3", "tiny zero", "oov", "anti alpha"]
    for x, y in itertools.product(words, repeat=2):
        assert rel_words(binary, x, y) == rel_words(wide, x, y), (x, y)
    senses = list(lexicon.senses.values())
    for a, b in itertools.product(senses, repeat=2):
        assert (_outcome(rel_senses, binary, lexicon, a, b)
                == _outcome(rel_senses, wide, lexicon, a, b)), (a.id, b.id)
    for x, y in itertools.product(wide.vocab, repeat=2):
        got = _outcome(angular_relatedness, binary.vocab[x], binary.vocab[y])
        assert got == _outcome(angular_relatedness, wide.vocab[x], wide.vocab[y]), (x, y)
    # Measured in float64, the float32-tiny vector keeps its direction.
    assert rel_words(binary, "tiny", "alpha") == pytest.approx(1.0, abs=1e-7)


def test_sif_store_bytes_are_identical(models, freqs):
    lexicon = _lexicon()
    (binary_sif, _), (wide_sif, _) = (_stores(model, lexicon, freqs) for model in models)
    assert list(binary_sif) == list(wide_sif)
    for sense_id, v in binary_sif.items():
        assert v.dtype == np.float64
        assert v.tobytes() == wide_sif[sense_id].tobytes(), sense_id


def test_text_dump_is_identical(models, tmp_path):
    for model, name in zip(models, ("binary.txt", "wide.txt")):
        save_text_model(model, tmp_path / name)
    assert (tmp_path / "binary.txt").read_bytes() == (tmp_path / "wide.txt").read_bytes()


def test_centroid_is_float64(models):
    binary, wide = models
    one = centroid([binary.vocab["w1"]])
    two = centroid([binary.vocab["w1"], binary.vocab["w2"]])
    assert one.dtype == two.dtype == np.float64
    assert one.tobytes() == wide.vocab["w1"].tobytes()
    assert two.tobytes() == centroid([wide.vocab["w1"], wide.vocab["w2"]]).tobytes()


def test_load_peaks_below_a_float64_matrix(tmp_path):
    rows, dim = 1200, 300
    vectors = np.random.default_rng(4).standard_normal((rows, dim)).astype("<f4")
    path = tmp_path / "m.bin"
    path.write_bytes(f"{rows} {dim}\n".encode() + b"".join(
        f"t{i}".encode() + b" " + v.tobytes() + b"\n" for i, v in enumerate(vectors)))
    tracemalloc.start()
    try:
        model = load_binary_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model) == rows
    assert peak < rows * dim * np.dtype(np.float64).itemsize
