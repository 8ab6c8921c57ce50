"""Evaluation: word-pair correlation and corpus-level disambiguation scoring."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .disambig import AlgoParams, ContextConfig, DocVecStore, disambiguate, strategy_store
from .embeddings import EmbeddingModel, VectorTable
from .errors import ParseError, UnmeasurableError, json_lines, text_lines
from .lexicon import Lexicon
from .relatedness import rel_words

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Rank correlation
# ---------------------------------------------------------------------------


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=np.float64)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for pos in range(i, j + 1):
            ranks[order[pos]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Tie-free inputs use the closed form 1 - 6 * sum(d^2) / (n * (n^2 - 1));
    otherwise the Pearson correlation of the rank vectors is returned. Raises
    for fewer than two observations or zero rank variance on either side.
    """
    if len(xs) != len(ys):
        raise ValueError("input sequences must have equal length")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two observations")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    if len(set(xs)) == n and len(set(ys)) == n:
        d = rx - ry
        return 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        raise ValueError("undefined correlation: zero rank variance")
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    return float(np.sum(cx * cy) / np.sqrt(np.sum(cx * cx) * np.sum(cy * cy)))


# ---------------------------------------------------------------------------
# Word-pair relatedness benchmarks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WordPair:
    word1: str
    word2: str
    score: float


@dataclass(frozen=True)
class WordPairDataset:
    name: str
    pairs: tuple[WordPair, ...]

    def __post_init__(self) -> None:
        if len(self.pairs) < 2:
            raise ValueError("a word-pair dataset needs at least two pairs")


def load_wordpair_dataset(path: str | Path) -> WordPairDataset:
    """Load a TSV word-pair file: word1<TAB>word2<TAB>human-score per line.

    The dataset is named after the file's stem.
    """
    path = Path(path)
    pairs = []
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise ParseError(f"{path}: line {lineno}: expected 3 tab-separated fields")
        w1, w2, raw = (p.strip() for p in parts)
        if not w1 or not w2:
            raise ParseError(f"{path}: line {lineno}: empty word")
        try:
            score = float(raw)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric score {raw!r}") from None
        if not math.isfinite(score):
            raise ParseError(f"{path}: line {lineno}: non-finite score {raw!r}")
        pairs.append(WordPair(w1, w2, score))
    if len(pairs) < 2:
        raise ParseError(f"{path}: need at least two pairs")
    return WordPairDataset(name=path.stem, pairs=tuple(pairs))


@dataclass(frozen=True)
class WordPairEvalResult:
    rho: float
    covered: int
    skipped: int

    def to_dict(self) -> dict:
        return {"rho": self.rho, "covered": self.covered, "skipped": self.skipped}


def eval_wordpairs(model: EmbeddingModel, dataset: WordPairDataset) -> WordPairEvalResult:
    """Spearman correlation between model relatedness and human scores.

    Pairs with an out-of-vocabulary side are skipped and counted; fewer than
    two covered pairs is an error.
    """
    predicted = []
    human = []
    skipped = 0
    for pair in dataset.pairs:
        r = rel_words(model, pair.word1, pair.word2)
        if r is None:
            skipped += 1
            continue
        predicted.append(r)
        human.append(pair.score)
    if len(predicted) < 2:
        raise ValueError(f"dataset {dataset.name!r}: fewer than two pairs covered by the model")
    rho = spearman(predicted, human)
    return WordPairEvalResult(rho=rho, covered=len(predicted), skipped=skipped)


# ---------------------------------------------------------------------------
# Corpus-level disambiguation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WsdTarget:
    position: int
    keyword: str
    gold: tuple[str, ...]


@dataclass(frozen=True)
class WsdItem:
    item_id: str
    tokens: tuple[str, ...]
    targets: tuple[WsdTarget, ...]


@dataclass(frozen=True)
class WsdCorpus:
    name: str
    items: tuple[WsdItem, ...]


def load_wsd_corpus(path: str | Path) -> WsdCorpus:
    """Load a JSONL disambiguation corpus.

    One item per line: {"item_id", "tokens", "targets": [{"position",
    "keyword", "gold"}]}. Target positions must index into the token list.
    The corpus is named after the file's stem.
    """
    path = Path(path)
    items = []
    for where, obj in json_lines(path):
        if not isinstance(obj, dict):
            raise ParseError(f"{where}: each line must be a JSON object")
        for key in ("item_id", "tokens", "targets"):
            if key not in obj:
                raise ParseError(f"{where}: missing required field {key!r}")
        tokens = obj["tokens"]
        if not isinstance(tokens, list) or any(not isinstance(t, str) for t in tokens):
            raise ParseError(f"{where}: tokens must be a list of strings")
        targets = []
        if not isinstance(obj["targets"], list):
            raise ParseError(f"{where}: targets must be a list")
        for t in obj["targets"]:
            if not isinstance(t, dict) or any(k not in t for k in ("position", "keyword", "gold")):
                raise ParseError(
                    f"{where}: targets need 'position', 'keyword', and 'gold'"
                )
            pos = t["position"]
            if isinstance(pos, bool) or not isinstance(pos, int):
                raise ParseError(f"{where}: target position {pos!r} is not an integer")
            if not 0 <= pos < len(tokens):
                raise ParseError(f"{where}: target position {pos!r} out of range")
            if not isinstance(t["keyword"], str):
                raise ParseError(f"{where}: target keyword must be a string")
            gold = t["gold"]
            if not isinstance(gold, list) or any(not isinstance(g, str) for g in gold):
                raise ParseError(f"{where}: gold must be a list of sense ids")
            targets.append(WsdTarget(position=pos, keyword=t["keyword"], gold=tuple(gold)))
        items.append(
            WsdItem(item_id=str(obj["item_id"]), tokens=tuple(tokens), targets=tuple(targets))
        )
    return WsdCorpus(name=path.stem, items=tuple(items))


@dataclass(frozen=True)
class WsdRecord:
    """Outcome for one target occurrence."""

    item_id: str
    keyword: str
    predicted: Optional[str]
    gold: tuple[str, ...]
    attempted: bool
    correct: bool
    unresolved_gold: tuple[str, ...] = ()
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "item_id": self.item_id,
            "keyword": self.keyword,
            "predicted": self.predicted,
            "gold": list(self.gold),
            "attempted": self.attempted,
            "correct": self.correct,
            "unresolved_gold": list(self.unresolved_gold),
            "error": self.error,
        }


@dataclass(frozen=True)
class WsdReport:
    attempted: int
    correct: int
    total: int
    precision: float
    recall: float
    f1: float
    records: tuple[WsdRecord, ...] = field(default=(), repr=False)

    @classmethod
    def from_records(cls, records: Sequence[WsdRecord]) -> "WsdReport":
        attempted = sum(1 for r in records if r.attempted)
        correct = sum(1 for r in records if r.correct)
        total = len(records)
        precision = correct / attempted if attempted else 0.0
        recall = correct / total if total else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(
            attempted=attempted,
            correct=correct,
            total=total,
            precision=precision,
            recall=recall,
            f1=f1,
            records=tuple(records),
        )

    def to_dict(self, include_records: bool = True) -> dict:
        out = {
            "attempted": self.attempted,
            "correct": self.correct,
            "total": self.total,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }
        if include_records:
            out["records"] = [r.to_dict() for r in self.records]
        return out


def _score_target(
    model: EmbeddingModel,
    lexicon: Lexicon,
    item: WsdItem,
    target: WsdTarget,
    cfg: ContextConfig,
    params: AlgoParams,
    sif_store: Optional[VectorTable],
    docvec_store: Optional[DocVecStore],
) -> WsdRecord:
    unresolved = tuple(g for g in target.gold if g not in lexicon.senses)
    senses = lexicon.senses_of(target.keyword)
    predicted = error = None
    if len(senses) == 1:
        # disambiguate() ranks a keyword's only sense first and raises
        # nothing for a known keyword, so it is not called.
        predicted = senses[0].id
    elif senses:
        context = list(item.tokens[: target.position]) + list(item.tokens[target.position + 1 :])
        try:
            result = disambiguate(
                model, lexicon, target.keyword, context, cfg, params, sif_store, docvec_store
            )
        except UnmeasurableError as exc:
            error = str(exc)
        else:
            predicted = result.top.sense_id
    return WsdRecord(
        item_id=item.item_id,
        keyword=target.keyword,
        predicted=predicted,
        gold=target.gold,
        attempted=predicted is not None,
        correct=predicted in target.gold,
        unresolved_gold=unresolved,
        error=error,
    )


def eval_wsd(
    model: EmbeddingModel,
    lexicon: Lexicon,
    corpus: WsdCorpus,
    cfg: ContextConfig = ContextConfig(),
    params: AlgoParams = AlgoParams(),
    sif_store: Optional[VectorTable] = None,
    docvec_store: Optional[DocVecStore] = None,
    jobs: int = 1,
) -> WsdReport:
    """Run the disambiguator over a corpus and score it, one target after another.

    Every target counts toward the total; targets whose keyword has no sense
    are not attempted, and a keyword's only sense is predicted without
    scoring it. precision = correct/attempted, recall = correct/total,
    F1 their harmonic mean. ``jobs`` must be 1: it stays only because the
    benchmark passes ``jobs=1``, until ROADMAP item 1 deletes it. Any other
    ``jobs``, or a missing or mismatched strategy store, raises before any
    target is scored; any error other than UnmeasurableError from a target
    propagates.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")
    strategy_store(model, params.strategy, sif_store, docvec_store)
    records = [
        _score_target(model, lexicon, item, target, cfg, params, sif_store, docvec_store)
        for item in corpus.items for target in item.targets
    ]
    if not records:
        logger.warning("corpus %r has no targets; all metrics are 0", corpus.name)
    return WsdReport.from_records(records)
