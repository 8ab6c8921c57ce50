"""Rank correlation, word-pair evaluation, and WSD accounting."""
from __future__ import annotations

import json
import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kwsense.evaluation
from conftest import vector_table
from kwsense import (
    AlgoParams,
    ConfigError,
    ContextConfig,
    ContextRef,
    DocVecStore,
    ParseError,
    Strategy,
    UnmeasurableError,
    WordPair,
    WordPairDataset,
    eval_wordpairs,
    eval_wsd,
    load_wordpair_dataset,
    load_wsd_corpus,
    spearman,
)
from kwsense.evaluation import WsdReport

STOP = frozenset({"the", "is", "an", "of", "a", "beats"})


def _closed_form(xs, ys):
    # Valid only for tie-free data: ranks are a permutation of 1..n.
    n = len(xs)
    rx = {v: i + 1 for i, v in enumerate(sorted(xs))}
    ry = {v: i + 1 for i, v in enumerate(sorted(ys))}
    d2 = sum((rx[x] - ry[y]) ** 2 for x, y in zip(xs, ys))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


class TestSpearman:
    def test_frozen_value_single_swap(self):
        assert spearman([1, 2, 3, 5, 4], [1, 2, 3, 4, 5]) == pytest.approx(0.9)

    def test_perfect_and_reversed(self):
        xs = [0.1, 0.4, 0.2, 0.9]
        assert spearman(xs, xs) == 1.0
        assert spearman(xs, [-v for v in xs]) == -1.0

    def test_tied_ranks_frozen_value(self):
        # Average ranks for the tie in xs give rho = 3/sqrt(10).
        rho = spearman([1.0, 2.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert rho == pytest.approx(0.9486832980505138, abs=1e-12)

    def test_tied_ranks_match_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        xs = [1.0, 2.0, 2.0, 4.0, 5.0, 5.0, 5.0]
        ys = [3.0, 1.0, 4.0, 4.0, 2.0, 6.0, 5.0]
        expected = scipy_stats.spearmanr(xs, ys).statistic
        assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_closed_form_on_random_permutations(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(3, 40)
            xs = list(range(n))
            ys = list(range(n))
            rng.shuffle(xs)
            rng.shuffle(ys)
            assert spearman(xs, ys) == _closed_form(xs, ys)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_and_too_short(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            spearman([1], [1])

    @settings(max_examples=100, deadline=None)
    @given(
        perm=st.permutations(list(range(8))),
    )
    def test_bounded_on_permutations(self, perm):
        rho = spearman(list(range(8)), list(perm))
        assert -1.0 <= rho <= 1.0


class TestWordPairs:
    def test_load(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("sea\tisland\t7.5\ncoffee\tcup\t6.0\n")
        ds = load_wordpair_dataset(path)
        assert len(ds.pairs) == 2
        assert ds.pairs[0] == WordPair("sea", "island", 7.5)

    def test_bad_lines_are_named(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("sea\tisland\t7.5\ncoffee\tcup\n")
        with pytest.raises(ParseError, match="line 2"):
            load_wordpair_dataset(path)

        path.write_text("sea\tisland\tabc\n" + "a\tb\t1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_wordpair_dataset(path)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"sea\tisland\t7.5\ncaf\xe9\tcup\t1\n")
        with pytest.raises(ParseError, match=f"^{path}: line 2: invalid UTF-8$"):
            load_wordpair_dataset(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_score_names_line(self, tmp_path, score):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"sea\tisland\t7.5\ncoffee\tcup\t{score}\na\tb\t1\n")
        with pytest.raises(ParseError, match="line 2: non-finite score"):
            load_wordpair_dataset(path)

    def test_requires_two_pairs(self):
        with pytest.raises(ValueError):
            WordPairDataset(name="tiny", pairs=(WordPair("a", "b", 1.0),))

    def test_eval_skips_missing_and_reports_coverage(self, toy_model):
        ds = WordPairDataset(name="toy", pairs=(
            WordPair("sea", "island", 9.0),
            WordPair("coffee", "island", 2.0),
            WordPair("sea", "qzx", 5.0),
            WordPair("code", "language", 8.0),
        ))
        res = eval_wordpairs(toy_model, ds)
        assert res.covered == 3
        assert res.skipped == 1
        assert -1.0 <= res.rho <= 1.0

    def test_concordant_pairs_give_perfect_rho(self, toy_model):
        # Human scores ordered the same way as model relatedness.
        ds = WordPairDataset(name="sorted", pairs=(
            WordPair("island", "isle", 10.0),
            WordPair("sea", "island", 8.0),
            WordPair("coffee", "island", 2.0),
        ))
        res = eval_wordpairs(toy_model, ds)
        assert res.rho == pytest.approx(1.0)

    def test_fewer_than_two_covered_raises(self, toy_model):
        ds = WordPairDataset(name="oov", pairs=(
            WordPair("qzx", "island", 9.0),
            WordPair("sea", "wvu", 2.0),
        ))
        with pytest.raises(ValueError, match="covered"):
            eval_wordpairs(toy_model, ds)


class TestWsdCorpus:
    def test_load(self, toy_corpus_file):
        corpus = load_wsd_corpus(toy_corpus_file)
        assert len(corpus.items) == 6
        first = corpus.items[0]
        assert first.item_id == "i1"
        assert first.targets[0].position == 0
        assert first.targets[0].gold == ("java#island",)

    def test_position_out_of_range(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({
            "item_id": "x", "tokens": ["a", "b"],
            "targets": [{"position": 5, "keyword": "a", "gold": ["g"]}],
        }) + "\n")
        with pytest.raises(ParseError, match="position"):
            load_wsd_corpus(path)

    @pytest.mark.parametrize("position", [True, False, 1.0, "1"])
    def test_non_integer_position_names_line(self, tmp_path, position):
        path = tmp_path / "corpus.jsonl"
        good = {"item_id": "x", "tokens": ["a", "b"],
                "targets": [{"position": 1, "keyword": "b", "gold": ["g"]}]}
        bad = {**good, "targets": [{"position": position, "keyword": "b", "gold": ["g"]}]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError, match="line 2: target position .* is not an integer"):
            load_wsd_corpus(path)

    @pytest.mark.parametrize("keyword", [7, None, ["a"]])
    def test_non_string_keyword_names_line(self, tmp_path, keyword):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({
            "item_id": "x", "tokens": ["a", "b"],
            "targets": [{"position": 0, "keyword": keyword, "gold": ["g"]}],
        }) + "\n")
        with pytest.raises(ParseError, match="line 1: target keyword must be a string"):
            load_wsd_corpus(path)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        item = {"item_id": "x", "tokens": ["a"], "targets": []}
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n" + json.dumps(item).encode().replace(b'"a"', b'"\xff"') + b"\n")
        with pytest.raises(ParseError, match=f"^{path}: line 2: invalid UTF-8$"):
            load_wsd_corpus(path)

    def test_missing_fields_named_with_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"item_id": "x", "tokens": ["a"]}) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            load_wsd_corpus(path)


class TestEvalWsd:
    def _run(self, toy_model, toy_lexicon, corpus, **kwargs):
        return eval_wsd(
            toy_model, toy_lexicon, corpus,
            ContextConfig(stopwords=STOP), **kwargs,
        )

    def test_accounting_with_unknown_keyword(self, toy_model, toy_lexicon, toy_corpus_file):
        corpus = load_wsd_corpus(toy_corpus_file)
        report = self._run(toy_model, toy_lexicon, corpus)
        # i6 targets "python", which has no senses: counted, never attempted.
        assert report.total == 6
        assert report.attempted == 5
        assert report.correct >= 4
        assert report.precision == report.correct / report.attempted
        assert report.recall == report.correct / report.total
        p, r = report.precision, report.recall
        assert report.f1 == pytest.approx(2 * p * r / (p + r))

    def test_island_contexts_resolved(self, toy_model, toy_lexicon, toy_corpus_file):
        corpus = load_wsd_corpus(toy_corpus_file)
        report = self._run(toy_model, toy_lexicon, corpus)
        by_item = {rec.item_id: rec for rec in report.records}
        assert by_item["i1"].predicted == "java#island"
        assert by_item["i2"].predicted == "java#island"
        assert by_item["i4"].predicted == "java#coffee"
        assert by_item["i6"].attempted is False

    def test_jobs_one_is_the_default(self, toy_model, toy_lexicon, toy_corpus_file):
        corpus = load_wsd_corpus(toy_corpus_file)
        default = self._run(toy_model, toy_lexicon, corpus)
        assert self._run(toy_model, toy_lexicon, corpus, jobs=1).to_dict() == default.to_dict()

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_other_jobs_raise_before_scoring(
        self, toy_model, toy_lexicon, toy_corpus_file, monkeypatch, jobs
    ):
        corpus = load_wsd_corpus(toy_corpus_file)
        calls = []
        real = kwsense.evaluation._disambiguate_batch
        monkeypatch.setattr(kwsense.evaluation, "_disambiguate_batch",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        with pytest.raises(ValueError, match=f"^jobs must be 1, got {jobs}$"):
            self._run(toy_model, toy_lexicon, corpus, jobs=jobs)
        assert calls == []
        self._run(toy_model, toy_lexicon, corpus)
        assert calls

    def test_empty_corpus_warns_and_zeroes(self, toy_model, toy_lexicon, caplog):
        from kwsense.evaluation import WsdCorpus

        with caplog.at_level(logging.WARNING, logger="kwsense.evaluation"):
            report = self._run(toy_model, toy_lexicon, WsdCorpus(name="empty", items=()))
        assert report.total == 0
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert any("empty" in r.message for r in caplog.records)

    def test_unresolved_gold_tracked(self, toy_model, toy_lexicon, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({
            "item_id": "x", "tokens": ["java", "island"],
            "targets": [{"position": 0, "keyword": "java", "gold": ["java#ghost"]}],
        }) + "\n")
        corpus = load_wsd_corpus(path)
        report = self._run(toy_model, toy_lexicon, corpus)
        assert report.records[0].unresolved_gold == ("java#ghost",)
        assert report.records[0].correct is False

    def test_sif_store_built_on_demand(self, toy_model, toy_lexicon, toy_corpus_file):
        from kwsense import AlgoParams, Strategy, build_sif_store

        corpus = load_wsd_corpus(toy_corpus_file)
        store = build_sif_store(toy_model, toy_lexicon)
        report = self._run(
            toy_model, toy_lexicon, corpus,
            params=AlgoParams(strategy=Strategy.SIF), sif_store=store,
        )
        assert report.attempted == 5

    def test_sif_strategy_without_store_is_config_error(
        self, toy_model, toy_lexicon, toy_corpus_file
    ):
        from kwsense import AlgoParams, Strategy

        corpus = load_wsd_corpus(toy_corpus_file)
        with pytest.raises(ConfigError, match="sif"):
            self._run(toy_model, toy_lexicon, corpus,
                      params=AlgoParams(strategy=Strategy.SIF))

    def test_docvec_dimension_mismatch_raises_before_any_target(
        self, toy_model, toy_lexicon, toy_corpus_file, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(kwsense.evaluation, "_disambiguate_batch",
                            lambda *args: calls.append(args))
        corpus = load_wsd_corpus(toy_corpus_file)
        store = DocVecStore(vector_table({"java#island": np.ones(3)}, 3))
        with pytest.raises(ConfigError, match="dimension 3 != model dimension 5"):
            self._run(toy_model, toy_lexicon, corpus,
                      params=AlgoParams(strategy=Strategy.DOC_VEC), docvec_store=store)
        assert calls == []

    def test_sif_dimension_mismatch_raises_before_any_target(
        self, toy_model, toy_lexicon, toy_corpus_file, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(kwsense.evaluation, "_disambiguate_batch",
                            lambda *args: calls.append(args))
        corpus = load_wsd_corpus(toy_corpus_file)
        store = vector_table({"java#island": np.ones(3)}, 3)
        with pytest.raises(ConfigError,
                           match="^description-embedding dimension 3 != model dimension 5$"):
            self._run(toy_model, toy_lexicon, corpus,
                      params=AlgoParams(strategy=Strategy.SIF), sif_store=store)
        assert calls == []

    def test_internal_error_propagates(
        self, toy_model, toy_lexicon, toy_corpus_file, monkeypatch
    ):
        def broken(*args):
            raise ValueError("all input arrays must have the same shape")

        monkeypatch.setattr(kwsense.evaluation, "_disambiguate_batch", broken)
        corpus = load_wsd_corpus(toy_corpus_file)
        with pytest.raises(ValueError, match="same shape"):
            self._run(toy_model, toy_lexicon, corpus)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_monosemous_targets_report_as_full_scoring(self, toy_model, strategy, monkeypatch):
        # "island", "land" and "zz" have one sense each, "java" three. A
        # one-sense keyword is predicted without scoring; every record must
        # equal the one disambiguate() gives, with an all-OOV sense, an empty
        # context and store entries missing for one-sense keywords.
        from conftest import TOY_DOCVECS, make_toy_senses
        from kwsense import Lexicon, Sense, build_sif_store, disambiguate
        from kwsense.evaluation import WsdCorpus, WsdItem, WsdRecord, WsdTarget

        lexicon = Lexicon.from_senses([*make_toy_senses(), Sense(
            id="zz#oov", lemmas=("zz",), synonyms=("qqq", "rrr sss"),
            core_context=(ContextRef("ttt"),), description_terms=("uuu", "vvv www"))])
        sif = vector_table({k: v for k, v in build_sif_store(toy_model, lexicon).items()
                            if k not in ("land#ground", "zz#oov")}, 5)
        docvec = DocVecStore(vector_table({k: v for k, v in TOY_DOCVECS.items()
                                           if k != "island#landmass"}, 5))
        sentences = [["island", "the", "sea", "land"], ["island"], ["zz", "sea", "code"],
                     ["land", "ground", "qqq"], ["zz"], ["java", "island", "bali"]]
        items = tuple(
            WsdItem(item_id=f"m{i}", tokens=tuple(tokens),
                    targets=(WsdTarget(position=0, keyword=tokens[0],
                                       gold=(lexicon.senses_of(tokens[0])[0].id,)),))
            for i, tokens in enumerate(sentences)
        )
        cfg, params = ContextConfig(stopwords=STOP, threshold=0.0), AlgoParams(strategy=strategy)
        want = []
        for item in items:
            target = item.targets[0]
            try:
                result = disambiguate(toy_model, lexicon, target.keyword, item.tokens[1:],
                                      cfg, params, sif, docvec)
            except UnmeasurableError as exc:  # pragma: no cover - no such target here
                want.append(str(exc))
                continue
            predicted = result.top.sense_id
            want.append(WsdRecord(item_id=item.item_id, keyword=target.keyword,
                                  predicted=predicted, gold=target.gold, attempted=True,
                                  correct=predicted in target.gold))
        scored = []
        real = kwsense.evaluation._disambiguate_batch
        monkeypatch.setattr(kwsense.evaluation, "_disambiguate_batch",
                            lambda *args: scored.extend(k for k, _ in args[2]) or real(*args))
        got = eval_wsd(toy_model, lexicon, WsdCorpus(name="mono", items=items), cfg, params,
                       sif, docvec)
        assert list(got.records) == want
        assert got == WsdReport.from_records(want)
        assert scored == ["java"]

    def test_report_dict_round_trips_to_json(self, toy_model, toy_lexicon, toy_corpus_file):
        corpus = load_wsd_corpus(toy_corpus_file)
        report = self._run(toy_model, toy_lexicon, corpus)
        payload = json.dumps(report.to_dict(), sort_keys=True)
        parsed = json.loads(payload)
        assert parsed["total"] == 6
        assert len(parsed["records"]) == 6


class TestWsdReportMath:
    def test_from_records_zero_attempted(self):
        from kwsense.evaluation import WsdRecord

        records = [WsdRecord(item_id="x", keyword="k", predicted=None,
                             gold=("g",), attempted=False, correct=False)]
        report = WsdReport.from_records(records)
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0
