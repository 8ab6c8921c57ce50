"""Output checks for the kwsense benchmark, run outside timing.

* Invariants on every ranking: scores in [0, 1], sorted by descending score,
  exactly one score per candidate sense of the keyword.
* A deterministic sample of calls is recomputed with the brute-force oracle in
  ``tests/oracle.py`` and must agree at 1e-10 (active context and every
  sense score). The oracle reads vectors through :class:`RefModel`, a reader
  written here, so a loader defect in kwsense shows as a mismatch.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

TOL = 1e-10


class RefModel:
    """Token -> float64 vector for the tokens a check needs, first occurrence kept."""

    def __init__(self, vocab: dict[str, np.ndarray]):
        self.vocab = vocab


def read_model(path: Path, fmt: str, wanted: set[str]) -> RefModel:
    vocab: dict[str, np.ndarray] = {}
    if fmt == "text":
        with path.open(encoding="utf-8") as fh:
            fh.readline()  # "<count> <dim>" header
            for line in fh:
                tok, _, rest = line.partition(" ")
                if tok in wanted and tok not in vocab:
                    vocab[tok] = np.array([float(x) for x in rest.split()])
        return RefModel(vocab)
    buf = path.read_bytes()
    pos = buf.index(b"\n") + 1
    count, dim = (int(x) for x in buf[:pos].split())
    for _ in range(count):
        while buf[pos : pos + 1] in (b"\n", b"\r"):
            pos += 1
        sp = buf.index(b" ", pos)
        tok = buf[pos:sp].decode("utf-8", errors="replace")
        pos = sp + 1 + 4 * dim
        if tok in wanted and tok not in vocab:
            vocab[tok] = np.frombuffer(buf[sp + 1 : pos], dtype="<f4").astype(np.float64)
    return RefModel(vocab)


def lexicon_tokens(lexicon) -> set[str]:
    out: set[str] = set()
    for s in lexicon.senses.values():
        for phrase in (*s.lemmas, *s.synonyms, *s.description_terms,
                       *(r.value for r in s.core_context if not r.is_ref)):
            out.update(phrase.split())
    return out


def wanted_tokens(lexicon, contexts) -> set[str]:
    """Raw and lowercased forms of every token the oracle may look up."""
    toks = lexicon_tokens(lexicon)
    for ctx in contexts:
        for w in ctx:
            toks.update(w.split())
    return toks | {t.lower() for t in toks}


def invariants(result: dict | None, lexicon, keyword: str) -> list[str]:
    """Problems with one disambiguate() result, as messages (empty when fine)."""
    if result is None:
        return [f"{keyword}: call failed"]
    senses = result.get("senses") or []
    scores = [s["score"] for s in senses]
    errs = []
    if any(not (0.0 <= x <= 1.0) for x in scores):
        errs.append(f"{keyword}: score outside [0, 1]")
    if any(a < b for a, b in zip(scores, scores[1:])):
        errs.append(f"{keyword}: ranking not sorted by descending score")
    ids = [s["id"] for s in senses]
    expected = [s.id for s in lexicon.senses_of(keyword)]
    if sorted(ids) != sorted(expected):
        errs.append(f"{keyword}: scores do not cover each candidate sense exactly once")
    return errs


def _oracle():
    root = Path.cwd() / "tests"
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    import oracle

    return oracle


def oracle_diff(result: dict, ref: RefModel, lexicon, keyword: str, context, strategy: str,
                stopwords, sif_store=None, docvec_store=None) -> list[str]:
    """Differences between a result and the oracle's ranking beyond TOL."""
    oracle = _oracle()
    ca, ranked = oracle.run_pipeline(
        ref, lexicon, keyword, list(context), stopwords=stopwords, strategy=strategy,
        sif_store=sif_store, docvec_store=docvec_store,
    )
    errs = []
    got_ca = [(m["word"], m["relatedness"]) for m in result["active_context"]]
    if [w for w, _ in got_ca] != [w for w, _ in ca] or any(
        abs(a - b) > TOL for (_, a), (_, b) in zip(got_ca, ca)
    ):
        errs.append(f"{keyword}: active context differs from the oracle")
    want = dict(ranked)
    got = {s["id"]: s["score"] for s in result["senses"]}
    if set(got) != set(want):
        errs.append(f"{keyword}: sense set differs from the oracle")
        return errs
    worst = max(abs(got[i] - want[i]) for i in want)
    if worst > TOL:
        errs.append(f"{keyword}: score differs from the oracle by {worst:.3g}")
    top = result["senses"][0]["id"]
    if top != ranked[0][0] and abs(want[top] - ranked[0][1]) > TOL:
        errs.append(f"{keyword}: top sense differs from the oracle")
    return errs
