"""The kwsense API that the benchmark and the oracle call, read from their source.

``perfbench/`` changes only together with the benchmark, so a name, a
parameter or a method it uses must not leave kwsense in between. The sources
are parsed with ``ast``, not run: every attribute read on the kwsense module
(``kw`` or ``self.kw``; ``kwcli`` is ``kwsense.cli``) must resolve, every call
of one of those callables must bind to its signature, keyword arguments
included, and the members read on kwsense objects must exist.
"""
from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import kwsense
import kwsense.cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("perfbench/job.py", "perfbench/run.py", "perfbench/check.py", "tests/oracle.py")
MODULES = {"kw": kwsense, "kwcli": kwsense.cli}

# Members the sources read on kwsense objects.
MEMBERS = {
    kwsense.Lexicon: ("senses", "senses_of", "resolve_context", "index"),
    kwsense.EmbeddingModel: ("phrase_vector", "vocab"),
    kwsense.DocVecStore: ("vectors", "dim"),
    kwsense.VectorTable: ("get",),
    kwsense.Sense: ("id", "lemmas", "synonyms", "core_context", "description_terms", "frequency"),
    kwsense.ContextRef: ("value", "is_ref"),
    kwsense.AlgoParams: ("weights", "strategy"),
    kwsense.ContextConfig: ("stopwords",),
    kwsense.ActiveContext: ("words",),
    kwsense.DisambiguationResult: ("active_context", "scores", "to_dict"),
    kwsense.SenseScore: ("sense_id", "score"),
    kwsense.WsdCorpus: ("name", "items"),
    kwsense.WsdReport: ("from_records", "total", "attempted", "to_dict"),
}

_MISSING = object()


def _root(node: ast.AST):
    """The kwsense module ``node`` names (``kw``, ``kwcli``, ``self.kw``), else None."""
    if isinstance(node, ast.Name):
        return MODULES.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return MODULES.get(node.attr)
    return None


def _resolve(node: ast.AST) -> object:
    """What ``node`` reads from a kwsense module: the object, _MISSING, or None if not one."""
    if not isinstance(node, ast.Attribute):
        return None
    base = _root(node.value) or _resolve(node.value)
    if base is None or base is _MISSING:
        return None
    return getattr(base, node.attr, _MISSING)


def _problems(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)} does not resolve"
        for node in ast.walk(tree) if _resolve(node) is _MISSING
    ]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        func = node.func
        # (kw.load_binary_model if binary else kw.load_text_model)(path): both branches.
        for branch in (func.body, func.orelse) if isinstance(func, ast.IfExp) else (func,):
            obj = _resolve(branch)
            if obj is None or obj is _MISSING:
                continue
            try:
                inspect.signature(obj).bind(*node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                problems.append(f"{path.name}:{node.lineno}: {ast.unparse(branch)}: {exc}")
    return problems


@pytest.mark.parametrize("source", SOURCES)
def test_every_kwsense_name_and_argument_resolves(source):
    assert _problems(ROOT / source) == []


@pytest.mark.parametrize("cls", list(MEMBERS), ids=lambda cls: cls.__name__)
def test_members_read_on_kwsense_objects_exist(cls):
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    assert [name for name in MEMBERS[cls] if name not in fields and not hasattr(cls, name)] == []


def test_report_to_dict_takes_include_records():
    assert "include_records" in inspect.signature(kwsense.WsdReport.to_dict).parameters


def test_a_removed_parameter_is_reported(tmp_path, monkeypatch):
    def eval_wsd(model, lexicon, corpus):  # eval_wsd without its ``jobs`` parameter
        return None

    monkeypatch.setattr(kwsense, "eval_wsd", eval_wsd)
    path = tmp_path / "job.py"
    path.write_text("def run(kw, got, doc):\n"
                    "    return kw.eval_wsd(got['model'], got['lexicon'], doc, jobs=1)\n")
    (problem,) = _problems(path)
    assert problem.startswith("job.py:2: kw.eval_wsd: ")
    assert "jobs" in problem
