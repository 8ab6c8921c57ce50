"""Self-tests of the benchmark: generator determinism, the output check, metric names.

Run from the root of the checkout: ``python -m pytest perfbench -q``.
Scratch files go to ``perfbench/.cache/selftest``.
"""
from __future__ import annotations

import copy
import filecmp
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / ".cache" / "selftest"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import job  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


def _same_tree(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all(filecmp.cmp(a / n, b / n, shallow=False) for n in names if n != "manifest.json")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(scratch, workload):
    gen.generate(workload, 7, scratch / f"{workload}-a")
    gen.generate(workload, 7, scratch / f"{workload}-b")
    gen.generate(workload, 8, scratch / f"{workload}-c")
    assert _same_tree(scratch / f"{workload}-a", scratch / f"{workload}-b")
    a, c = scratch / f"{workload}-a", scratch / f"{workload}-c"
    manifest = json.loads((a / "manifest.json").read_text())
    for key in ("model", "lexicon"):
        assert not filecmp.cmp(a / manifest[key], c / manifest[key], shallow=False)
    for d in (a, scratch / f"{workload}-b", c):
        shutil.rmtree(d)


@pytest.fixture(scope="module")
def wsd_call(scratch):
    """One wsd-corpus call: its result, the oracle's inputs and the checker's state."""
    import kwsense as kw

    data = scratch / "wsd"
    manifest = gen.generate("wsd-corpus", 3, data)
    got = job.load_inputs(kw, manifest, data)
    rid, keyword, context, strategy = job.calls_of(kw, "wsd-corpus", got)[0]
    result = kw.disambiguate(got["model"], got["lexicon"], keyword, context).to_dict()
    wanted = check.wanted_tokens(got["lexicon"], [context])
    ref = check.read_model(data / manifest["model"], "text", wanted)
    return result, ref, got["lexicon"], keyword, context, strategy


def _diff(result, ref, lexicon, keyword, context, strategy):
    import kwsense as kw

    return check.oracle_diff(result, ref, lexicon, keyword, context, strategy,
                             kw.default_stopwords())


def test_check_accepts_the_program_output(wsd_call):
    result, ref, lexicon, keyword, context, strategy = wsd_call
    assert check.invariants(result, lexicon, keyword) == []
    assert _diff(result, ref, lexicon, keyword, context, strategy) == []


def test_score_perturbed_by_1e9_fails_the_check(wsd_call):
    result, ref, lexicon, keyword, context, strategy = wsd_call
    bad = copy.deepcopy(result)
    bad["senses"][-1]["score"] += 1e-9
    assert _diff(bad, ref, lexicon, keyword, context, strategy)


def test_invariants_catch_broken_rankings(wsd_call):
    result, _, lexicon, keyword, _, _ = wsd_call
    assert len(result["senses"]) >= 1
    out_of_range = copy.deepcopy(result)
    out_of_range["senses"][0]["score"] = 1.5
    assert check.invariants(out_of_range, lexicon, keyword)
    missing = copy.deepcopy(result)
    missing["senses"] = missing["senses"][:-1]
    assert check.invariants(missing, lexicon, keyword)
    assert check.invariants(None, lexicon, keyword)


def test_metric_names_and_units_are_valid():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert declared == {**run.END_TO_END, **run.PER_LAYER}
    for name, unit in declared.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)


def test_run_refuses_a_directory_without_the_sources(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wsd-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
