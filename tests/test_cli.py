"""Command-line behaviour: exit codes, output formats, configuration echo."""
from __future__ import annotations

import json

import pytest

from kwsense.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_OOV, main


@pytest.fixture
def base_args(toy_model_file, toy_lexicon_file):
    return ["--model", str(toy_model_file), "--lexicon", str(toy_lexicon_file)]


class TestRel:
    def test_word_word_table(self, base_args, capsys):
        code = main(["rel", *base_args, "sea", "island"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip()
        value = float(out)
        assert 0.0 <= value <= 1.0

    def test_same_word_is_one(self, base_args, capsys):
        assert main(["rel", *base_args, "sea", "sea"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_word_word_json(self, base_args, capsys):
        code = main(["rel", *base_args, "--output", "json", "sea", "island"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "word-word"
        assert payload["a"] == "sea"
        assert 0.0 <= payload["relatedness"] <= 1.0
        assert payload["config"]["strategy"] == "topk"
        assert payload["config"]["k"] == 15

    def test_sense_word(self, base_args, capsys):
        code = main(["rel", *base_args, "--output", "json",
                     "sense:java#island", "sea"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sense-word"

    def test_sense_sense_identical_is_one(self, base_args, capsys):
        code = main(["rel", *base_args, "sense:java#island", "sense:java#island"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_oov_word_exits_3(self, base_args, capsys):
        code = main(["rel", *base_args, "sea", "qzx"])
        assert code == EXIT_OOV
        assert "out of vocabulary" in capsys.readouterr().err

    def test_unknown_sense_id_exits_2(self, base_args, capsys):
        code = main(["rel", *base_args, "sense:nope", "sea"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: unknown sense id: 'nope'\n"

    def test_sense_arg_without_lexicon_exits_2(self, toy_model_file, capsys):
        code = main(["rel", "--model", str(toy_model_file), "sense:java#island", "sea"])
        assert code == EXIT_CONFIG
        assert "--lexicon" in capsys.readouterr().err


class TestDisambiguate:
    def test_two_keywords_table(self, base_args, capsys):
        code = main(["disambiguate", *base_args, "java", "island"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("#")
        assert "java: active context" in out
        assert "java#island" in out

    def test_json_ranks_island_first(self, base_args, capsys):
        code = main(["disambiguate", *base_args, "--output", "json",
                     "java", "indonesian", "island"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        java = payload["results"][0]
        assert java["keyword"] == "java"
        assert java["senses"][0]["id"] == "java#island"
        assert {"step1", "step2_delta", "step3_delta"} <= set(java["senses"][0]["trace"])

    def test_keyword_without_senses_reported(self, base_args, capsys):
        code = main(["disambiguate", *base_args, "python", "island"])
        assert code == EXIT_OK
        assert "python: no senses" in capsys.readouterr().out

    def test_json_output_is_sorted_and_echoes_config(self, base_args, capsys):
        code = main(["disambiguate", *base_args, "--output", "json",
                     "--strategy", "overlap", "java", "island"])
        assert code == EXIT_OK
        raw = capsys.readouterr().out
        payload = json.loads(raw)
        assert raw == json.dumps(payload, sort_keys=True) + "\n"
        assert payload["config"]["strategy"] == "overlap"

    def test_docvec_strategy_via_flags(self, base_args, toy_docvec_file, capsys):
        code = main(["disambiguate", *base_args, "--strategy", "docvec",
                     "--docvec", str(toy_docvec_file), "java", "island"])
        assert code == EXIT_OK
        assert "java#island" in capsys.readouterr().out

    def test_docvec_strategy_without_store_exits_2(self, base_args, capsys):
        code = main(["disambiguate", *base_args, "--strategy", "docvec",
                     "java", "island"])
        assert code == EXIT_CONFIG
        assert "--docvec" in capsys.readouterr().err

    def test_sif_strategy_via_flags(self, base_args, capsys):
        code = main(["disambiguate", *base_args, "--strategy", "sif",
                     "java", "coffee", "drink"])
        assert code == EXIT_OK
        assert "java#coffee" in capsys.readouterr().out


class TestEvalPairs:
    @pytest.fixture
    def pairs_file(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "island\tisle\t10\n"
            "sea\tisland\t8\n"
            "coffee\tisland\t2\n"
            "sea\tqzx\t5\n"
        )
        return path

    def test_table(self, toy_model_file, pairs_file, capsys):
        code = main(["eval-pairs", "--model", str(toy_model_file), str(pairs_file)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "covered   3" in out
        assert "skipped   1" in out
        assert "rho       1.000000" in out

    def test_json(self, toy_model_file, pairs_file, capsys):
        code = main(["eval-pairs", "--model", str(toy_model_file),
                     "--output", "json", str(pairs_file)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["covered"] == 3
        assert payload["rho"] == pytest.approx(1.0)

    def test_malformed_dataset_exits_1(self, toy_model_file, tmp_path, capsys):
        path = tmp_path / "pairs.tsv"
        path.write_text("only\ttwo\n")
        code = main(["eval-pairs", "--model", str(toy_model_file), str(path)])
        assert code == EXIT_DATA
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, message", [
        ("sea\tqzx\t5\nqzx\tisland\t3\n",
         "data error: dataset 'p': fewer than two pairs covered by the model\n"),
        ("island\tisle\t5\nsea\tisland\t5\n",
         "data error: undefined correlation: zero rank variance\n"),
    ], ids=["too-few-covered", "zero-rank-variance"])
    def test_unusable_dataset_is_a_data_error(self, toy_model_file, tmp_path, capsys,
                                              lines, message):
        path = tmp_path / "p.tsv"
        path.write_text(lines)
        assert main(["eval-pairs", "--model", str(toy_model_file), str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == message


class TestEvalWsd:
    def test_table_reports_counts(self, base_args, toy_corpus_file, capsys):
        code = main(["eval-wsd", *base_args, str(toy_corpus_file)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("# model=")
        assert "strategy=topk" in out
        assert "k=15" in out
        assert "total       6" in out
        assert "attempted   5" in out

    def test_json_report(self, base_args, toy_corpus_file, capsys):
        code = main(["eval-wsd", *base_args, "--output", "json", str(toy_corpus_file)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 6
        assert payload["attempted"] == 5
        assert len(payload["records"]) == 6

    def test_missing_lexicon_exits_2(self, toy_model_file, toy_corpus_file, capsys):
        code = main(["eval-wsd", "--model", str(toy_model_file), str(toy_corpus_file)])
        assert code == EXIT_CONFIG
        assert "--lexicon" in capsys.readouterr().err

    def test_docvec_dimension_mismatch_exits_2(self, base_args, toy_corpus_file, tmp_path,
                                               capsys):
        docvec = tmp_path / "dv3.jsonl"
        docvec.write_text(json.dumps({"id": "java#island", "vector": [1.0, 0.0, 0.0]}) + "\n")
        code = main(["eval-wsd", *base_args, "--strategy", "docvec", "--docvec", str(docvec),
                     str(toy_corpus_file)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: ")
        assert "document-vector dimension 3 != model dimension 5" in captured.err

    def test_missing_corpus_file_exits_1(self, base_args, capsys):
        code = main(["eval-wsd", *base_args, "/does/not/exist.jsonl"])
        assert code == EXIT_DATA


class TestConfigValidation:
    def test_bad_threshold_exits_2_before_loading(self, capsys):
        # Model path does not exist: validation must fire first.
        code = main(["rel", "--model", "/does/not/exist.vec",
                     "--threshold", "1.5", "a", "b"])
        assert code == EXIT_CONFIG
        assert "threshold" in capsys.readouterr().err

    def test_bad_strategy_exits_2(self, toy_model_file, capsys):
        # argparse rejects the choice itself and exits with status 2.
        with pytest.raises(SystemExit) as exc:
            main(["rel", "--model", str(toy_model_file),
                  "--strategy", "magic", "a", "b"])
        assert exc.value.code == EXIT_CONFIG
        assert "magic" in capsys.readouterr().err

    def test_missing_model_exits_2(self, capsys):
        code = main(["rel", "a", "b"])
        assert code == EXIT_CONFIG
        assert "--model" in capsys.readouterr().err

    def test_nonexistent_model_file_exits_1(self, capsys):
        code = main(["rel", "--model", "/does/not/exist.vec", "a", "b"])
        assert code == EXIT_DATA

    def test_non_utf8_text_model_exits_1(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_bytes(b"sea 1 0\nisl\xe9and 0 1\n")
        code = main(["rel", "--model", str(path), "sea", "island"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "line 2: invalid UTF-8" in err

    def test_non_utf8_lexicon_exits_1(self, toy_model_file, toy_lexicon_file, capsys):
        with toy_lexicon_file.open("ab") as fh:
            fh.write(b'{"id": "x", "lemmas": ["\xff"], "synonyms": ["x"]}\n')
        code = main(["disambiguate", "--model", str(toy_model_file),
                     "--lexicon", str(toy_lexicon_file), "java", "island"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "line 6: invalid UTF-8" in err

    def test_superscript_model_header_exits_1(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("3 \u00b2\nsea 1\nisland 2\n")
        code = main(["rel", "--model", str(path), "sea", "island"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "line 1: non-numeric" in err

    def test_superscript_sif_frequency_exits_1(self, base_args, tmp_path, capsys):
        path = tmp_path / "freqs.txt"
        path.write_text("sea 3\ncat \u00b2\n")
        code = main(["disambiguate", *base_args, "--strategy", "sif",
                     "--sif-freqs", str(path), "java", "island"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "line 2: expected 'token count'" in err

    def test_nan_lexicon_frequency_exits_1(self, toy_model_file, toy_lexicon_file, capsys):
        with toy_lexicon_file.open("a") as fh:
            fh.write('{"id": "x", "lemmas": ["x"], "synonyms": ["x"], "frequency": NaN}\n')
        code = main(["disambiguate", "--output", "json", "--model", str(toy_model_file),
                     "--lexicon", str(toy_lexicon_file), "java", "island"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "line 6: frequency must be a finite" in err

    def test_lone_surrogate_lexicon_id_exits_1(self, toy_model_file, toy_lexicon_file, capsys):
        # Table output would print the id, which no UTF-8 stream can encode.
        with toy_lexicon_file.open("a") as fh:
            fh.write('{"id": "java#\\ud800", "lemmas": ["java"], "synonyms": ["java"]}\n')
        code = main(["disambiguate", "--model", str(toy_model_file),
                     "--lexicon", str(toy_lexicon_file), "java", "island"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "line 6: invalid JSON: lone surrogate" in err

    def test_huge_binary_header_exits_1(self, tmp_path, capsys):
        path = tmp_path / "m.bin"
        path.write_bytes(b"1" * 5000 + b" 2\n")
        code = main(["rel", "--model", str(path), "sea", "island"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "header count or dimension too large" in err

    def test_bad_w0_exits_2(self, toy_model_file, capsys):
        for flag, value in (("--w0", "-0.1"), ("--w0", "nan"), ("--freq-a", "nan")):
            code = main(["rel", "--model", str(toy_model_file), flag, value, "a", "b"])
            assert code == EXIT_CONFIG, (flag, value)
            assert capsys.readouterr().err.startswith("configuration error: ")


class TestStopwordsEnv:
    def test_env_file_overrides_builtin(
        self, base_args, tmp_path, monkeypatch, capsys
    ):
        # Make "island" a stopword: the active context for i-words collapses.
        sw = tmp_path / "stop.txt"
        sw.write_text("island\nthe\n")
        monkeypatch.setenv("KWSENSE_STOPWORDS", str(sw))
        code = main(["disambiguate", *base_args, "--output", "json",
                     "java", "island"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["stopwords"] == str(sw)
        assert payload["results"][0]["active_context"] == []

    def test_unreadable_env_file_exits_2(self, base_args, monkeypatch, capsys):
        monkeypatch.setenv("KWSENSE_STOPWORDS", "/does/not/exist.txt")
        code = main(["rel", *base_args, "sea", "island"])
        assert code == EXIT_CONFIG
        assert "KWSENSE_STOPWORDS" in capsys.readouterr().err

    def test_non_utf8_env_file_exits_2(self, base_args, tmp_path, monkeypatch, capsys):
        sw = tmp_path / "stop.txt"
        sw.write_bytes(b"the\n\xffisland\n")
        monkeypatch.setenv("KWSENSE_STOPWORDS", str(sw))
        code = main(["disambiguate", *base_args, "java", "island"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "line 2: invalid UTF-8" in err

    def test_builtin_source_echoed(self, base_args, monkeypatch, capsys):
        monkeypatch.delenv("KWSENSE_STOPWORDS", raising=False)
        code = main(["rel", *base_args, "--output", "json", "sea", "island"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["stopwords"].startswith("builtin:")


class TestBinaryModelFlag:
    def test_binary_roundtrip_through_cli(self, tmp_path, capsys):
        import struct

        vocab = {"sea": [1.0, 0.0], "island": [0.8, 0.6]}
        path = tmp_path / "model.bin"
        with path.open("wb") as fh:
            fh.write(f"{len(vocab)} 2\n".encode())
            for word, vec in vocab.items():
                fh.write(word.encode() + b" ")
                fh.write(struct.pack("<2f", *vec))
                fh.write(b"\n")
        code = main(["rel", "--model", str(path), "sea", "island"])
        assert code == EXIT_OK
        value = float(capsys.readouterr().out)
        assert 0.0 < value < 1.0
