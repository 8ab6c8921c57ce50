"""Sense inventory loading, indexing, validation, and round-tripping."""
from __future__ import annotations

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwsense import ContextRef, Lexicon, ParseError, Sense, load_lexicon, save_lexicon, validate

from conftest import make_toy_senses


class TestSense:
    def test_requires_nonempty_synonyms(self):
        with pytest.raises(ValueError, match="synonyms"):
            Sense(id="x", lemmas=("x",), synonyms=())

    def test_requires_nonempty_lemmas(self):
        with pytest.raises(ValueError, match="lemmas"):
            Sense(id="x", lemmas=(), synonyms=("x",))

    def test_requires_nonnegative_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            Sense(id="x", lemmas=("x",), synonyms=("x",), frequency=-1.0)

    @pytest.mark.parametrize("frequency", [math.nan, math.inf, -math.inf, 10**400])
    def test_requires_finite_frequency(self, frequency):
        with pytest.raises(ValueError,
                           match=r"^frequency must be a finite number >= 0 \(sense 'x'\)$"):
            Sense(id="x", lemmas=("x",), synonyms=("x",), frequency=frequency)

    def test_frequency_is_a_float(self):
        assert type(Sense(id="x", lemmas=("x",), synonyms=("x",), frequency=3).frequency) is float

    @pytest.mark.parametrize("field", ["lemmas", "synonyms", "description_terms"])
    @pytest.mark.parametrize("bad", [5, "", None, b"x", 1.5])
    def test_entries_must_be_nonempty_strings(self, field, bad):
        entries = {"lemmas": ("x",), "synonyms": ("x",), "description_terms": ("y",)}
        entries[field] = ("x", bad)
        with pytest.raises(ValueError,
                           match=rf"^sense 's\.1': {field} must be nonempty strings$"):
            Sense("s.1", **entries)

    def test_numpy_str_entries_accepted(self):
        terms = tuple(np.array(["a", "b c"]))
        assert Sense("s.1", terms, terms, description_terms=terms).synonyms == ("a", "b c")

    def test_loader_texts_are_unchanged(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        for terms in ('[5]', '[""]'):
            path.write_text('{"id": "s.1", "lemmas": ["x"], "synonyms": ["x"], '
                            f'"description_terms": {terms}}}\n')
            with pytest.raises(ParseError, match=r"line 1: description_terms must be a list "
                                                 r"of nonempty strings$"):
                load_lexicon(path)
        path.write_text('{"id": "s.1", "lemmas": [], "synonyms": ["x"]}\n')
        with pytest.raises(ParseError, match=r"line 1: sense 's.1': lemmas must be nonempty "
                                             r"strings$"):
            load_lexicon(path)

    def test_context_ref_requires_value(self):
        with pytest.raises(ValueError, match="nonempty"):
            ContextRef("")


class TestLexiconBuild:
    def test_duplicate_ids_rejected(self):
        s = Sense(id="x", lemmas=("x",), synonyms=("x",))
        with pytest.raises(ValueError, match="duplicate"):
            Lexicon.from_senses([s, s])

    def test_dangling_refs_listed(self):
        a = Sense(id="a", lemmas=("a",), synonyms=("a",),
                  core_context=(ContextRef("ghost", is_ref=True),))
        b = Sense(id="b", lemmas=("b",), synonyms=("b",),
                  core_context=(ContextRef("phantom", is_ref=True),))
        with pytest.raises(ValueError) as err:
            Lexicon.from_senses([a, b])
        assert "ghost" in str(err.value) and "phantom" in str(err.value)

    def test_labels_are_not_references(self):
        a = Sense(id="a", lemmas=("a",), synonyms=("a",),
                  core_context=(ContextRef("anything at all"),))
        lex = Lexicon.from_senses([a])
        assert len(lex) == 1

    def test_index_is_case_insensitive_and_file_ordered(self):
        s1 = Sense(id="s1", lemmas=("Java",), synonyms=("java",))
        s2 = Sense(id="s2", lemmas=("java", "coffee"), synonyms=("java",))
        lex = Lexicon.from_senses([s1, s2])
        assert [s.id for s in lex.senses_of("JAVA")] == ["s1", "s2"]
        assert [s.id for s in lex.senses_of("coffee")] == ["s2"]
        assert lex.senses_of("tea") == []

    def test_direct_construction_builds_the_index_and_interning(self):
        senses = make_toy_senses()
        direct = Lexicon(senses={s.id: s for s in senses})
        built = Lexicon.from_senses(senses)
        assert direct == built and direct.index == built.index
        for keyword in ("java", "island", "land", "tea"):
            assert direct.senses_of(keyword) == built.senses_of(keyword)
        assert direct.interned.tokens == built.interned.tokens
        for name in ("phrase_tokens", "synonyms", "descriptions", "member_phrases"):
            for a, b in zip(getattr(direct.interned, name), getattr(built.interned, name)):
                assert a.tolist() == b.tolist(), name
        ghost = Sense(id="a", lemmas=("a",), synonyms=("a",),
                      core_context=(ContextRef("ghost", is_ref=True),))
        with pytest.raises(ValueError, match="dangling sense references: a -> ghost"):
            Lexicon(senses={"a": ghost})
        with pytest.raises(ValueError, match=r"keyed by their ids: \['x'\]"):
            Lexicon(senses={"x": senses[0]})

    def test_from_senses_keeps_one_sense_table(self):
        # Lexicon(senses=d) copies d.
        senses = [Sense(id=f"s{i}", lemmas=(f"w{i % 50}",), synonyms=(f"w{i}",))
                  for i in range(5000)]
        table = {s.id: s for s in senses}
        lexicon = Lexicon(senses=table)
        table.pop("s0")
        assert "s0" in lexicon.senses and len(lexicon) == 5000

    def test_senses_cannot_be_changed(self):
        lexicon = Lexicon.from_senses(make_toy_senses())
        new = Sense(id="new", lemmas=("new",), synonyms=("new",))
        for lex in (lexicon, pickle.loads(pickle.dumps(lexicon)), copy.deepcopy(lexicon)):
            with pytest.raises(TypeError):
                lex.senses["new"] = new
            with pytest.raises(TypeError):
                lex.senses["java#island"] = new
            with pytest.raises(TypeError):
                del lex.senses["java#island"]
            with pytest.raises(AttributeError):
                lex.senses.update({"new": new})
            with pytest.raises(AttributeError):
                lex.senses = {}
            assert lex == lexicon and list(lex.senses) == [s.id for s in make_toy_senses()]

    def test_resolve_unknown_id(self, toy_lexicon):
        with pytest.raises(ValueError, match="unknown sense id"):
            toy_lexicon.resolve("nope#nope")

    def test_resolve_context_label_becomes_pseudo_sense(self, toy_lexicon):
        pseudo = toy_lexicon.resolve_context(ContextRef("beverage"))
        assert pseudo.synonyms == ("beverage",)
        assert pseudo.core_context == ()

    def test_resolve_context_ref_returns_stored_sense(self, toy_lexicon):
        sense = toy_lexicon.resolve_context(ContextRef("land#ground", is_ref=True))
        assert sense is toy_lexicon.senses["land#ground"]


class TestLoader:
    def test_toy_file_loads(self, toy_lexicon_file):
        lex = load_lexicon(toy_lexicon_file)
        assert len(lex) == 5
        assert [s.id for s in lex.senses_of("java")] == [
            "java#island", "java#coffee", "java#language",
        ]
        assert lex.senses["java#coffee"].frequency == 2.0

    def test_frequency_defaults_to_zero(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text(json.dumps({"id": "a", "lemmas": ["a"], "synonyms": ["a"]}) + "\n")
        lex = load_lexicon(path)
        assert lex.senses["a"].frequency == 0.0

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text(
            json.dumps({"id": "a", "lemmas": ["a"], "synonyms": ["a"]}) + "\n{broken\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            load_lexicon(path)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        line = json.dumps({"id": "a", "lemmas": ["a"], "synonyms": ["a"]}).encode()
        path = tmp_path / "lex.jsonl"
        path.write_bytes(line + b"\n" + line.replace(b'"a"', b'"\xff"') + b"\n")
        with pytest.raises(ParseError, match=f"^{path}: line 2: invalid UTF-8$"):
            load_lexicon(path)

    def test_empty_synonyms_rejected(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text(json.dumps({"id": "a", "lemmas": ["a"], "synonyms": []}) + "\n")
        with pytest.raises(ParseError, match="synonyms"):
            load_lexicon(path)

    def test_duplicate_id_rejected(self, tmp_path):
        obj = {"id": "a", "lemmas": ["a"], "synonyms": ["a"]}
        path = tmp_path / "lex.jsonl"
        path.write_text(json.dumps(obj) + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_lexicon(path)

    def test_dangling_ref_rejected_with_offenders(self, tmp_path):
        obj = {
            "id": "a", "lemmas": ["a"], "synonyms": ["a"],
            "core_context": [{"ref": "ghost"}],
        }
        path = tmp_path / "lex.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match="ghost"):
            load_lexicon(path)

    def test_negative_frequency_rejected(self, tmp_path):
        obj = {"id": "a", "lemmas": ["a"], "synonyms": ["a"], "frequency": -2}
        path = tmp_path / "lex.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match="frequency"):
            load_lexicon(path)

    @pytest.mark.parametrize("frequency", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    def test_non_finite_frequency_names_line(self, tmp_path, frequency):
        good = json.dumps({"id": "a", "lemmas": ["a"], "synonyms": ["a"]})
        bad = '{"id": "b", "lemmas": ["b"], "synonyms": ["b"], "frequency": %s}' % frequency
        path = tmp_path / "lex.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError, match="line 2: frequency must be a finite number"):
            load_lexicon(path)

    @pytest.mark.parametrize("line", ["[" * 100000, "1" * 5000])
    def test_undecodable_json_names_line(self, tmp_path, line):
        # json.loads raises RecursionError / ValueError, not JSONDecodeError.
        path = tmp_path / "lex.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ParseError, match="line 1: invalid JSON"):
            load_lexicon(path)

    @pytest.mark.parametrize("escape", ["\\ud800", "\\uDC00", "\\ud83d x", "\\ude00\\ud83d"])
    def test_lone_surrogate_escape_names_line(self, tmp_path, escape):
        good = json.dumps({"id": "a", "lemmas": ["a"], "synonyms": ["a"]})
        bad = '{"id": "java#%s", "lemmas": ["java"], "synonyms": ["java"]}' % escape
        path = tmp_path / "lex.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError, match="line 2: invalid JSON: lone surrogate"):
            load_lexicon(path)

    def test_surrogate_pair_escape_loads(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"id": "java#\\ud83d\\ude00", "lemmas": ["java"], "synonyms": ["java"]}\n')
        assert list(load_lexicon(path).senses) == ["java#\U0001f600"]

    def test_bad_context_entry_rejected(self, tmp_path):
        obj = {
            "id": "a", "lemmas": ["a"], "synonyms": ["a"],
            "core_context": [{"nonsense": "x"}],
        }
        path = tmp_path / "lex.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match="core_context"):
            load_lexicon(path)

    def test_unknown_fields_warn_but_load(self, tmp_path, caplog):
        obj = {"id": "a", "lemmas": ["a"], "synonyms": ["a"], "pos": "noun"}
        path = tmp_path / "lex.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        import logging

        with caplog.at_level(logging.WARNING, logger="kwsense.lexicon"):
            lex = load_lexicon(path)
        assert "a" in lex.senses
        assert any("pos" in rec.message for rec in caplog.records)


class TestRoundTrip:
    def test_toy_lexicon_round_trips(self, toy_lexicon, tmp_path):
        path = tmp_path / "out.jsonl"
        save_lexicon(toy_lexicon, path)
        reloaded = load_lexicon(path)
        assert reloaded.senses == toy_lexicon.senses
        assert reloaded.index == toy_lexicon.index

    @given(
        rows=st.lists(
            st.tuples(
                st.text(alphabet="abcdefgh", min_size=1, max_size=6),
                st.lists(st.text(alphabet="xyzw", min_size=1, max_size=5),
                         min_size=1, max_size=3),
                st.floats(0, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_generated_lexicons_round_trip(self, tmp_path_factory, rows):
        senses = []
        used = set()
        for i, (lemma, synonyms, freq) in enumerate(rows):
            sid = f"{lemma}#{i}"
            if sid in used:
                continue
            used.add(sid)
            senses.append(
                Sense(
                    id=sid,
                    lemmas=(lemma,),
                    synonyms=tuple(synonyms),
                    core_context=(ContextRef(lemma),),
                    description_terms=tuple(synonyms),
                    frequency=freq,
                )
            )
        lexicon = Lexicon.from_senses(senses)
        path = tmp_path_factory.mktemp("lex") / "gen.jsonl"
        save_lexicon(lexicon, path)
        reloaded = load_lexicon(path)
        assert reloaded.senses == lexicon.senses


class TestValidate:
    def test_consistent_lexicon_is_clean(self, toy_lexicon):
        report = validate(toy_lexicon)
        assert report.empty_descriptions == ()
        assert report.notes == ()
        assert report.is_empty
        assert report.zero_frequency_ratio == 0.0

    def test_empty_descriptions_reported(self):
        a = Sense(id="a", lemmas=("a",), synonyms=("a",), frequency=1.0)
        b = Sense(id="b", lemmas=("b",), synonyms=("b",), description_terms=("x",))
        report = validate(Lexicon.from_senses([a, b]))
        assert report.empty_descriptions == ("a",)
        assert report.notes == ()
        assert not report.is_empty

    def test_all_zero_frequencies_noted(self):
        a = Sense(id="a", lemmas=("a",), synonyms=("a",), description_terms=("x",))
        b = Sense(id="b", lemmas=("b",), synonyms=("b",), description_terms=("y",))
        lex = Lexicon.from_senses([a, b])
        report = validate(lex)
        assert report.zero_frequency_ratio == 1.0
        assert any("skipped" in note for note in report.notes)
