"""Sense inventories: senses, their contexts, and JSONL (de)serialization.

A sense carries two tiers of context. ``core_context`` is the minimal
ontological neighbourhood (synonym sets and direct hypernym-like terms) used
by the two-level relatedness measure; ``description_terms`` is the broader
bag (glosses, labels, related terms) used by the rescoring strategies.
Core-context members either reference another sense by id or carry a plain
label that stands in for an unlisted term.
"""
from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import ParseError, json_lines

logger = logging.getLogger(__name__)

_KNOWN_FIELDS = {"id", "lemmas", "synonyms", "core_context", "description_terms", "frequency"}


@dataclass(frozen=True)
class ContextRef:
    """One core-context member: a sense id (``is_ref``) or a plain label."""

    value: str
    is_ref: bool = False

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("context member must be a nonempty string")

    def to_json(self) -> dict:
        return {"ref": self.value} if self.is_ref else {"label": self.value}


@dataclass(frozen=True)
class Sense:
    id: str
    lemmas: tuple[str, ...]
    synonyms: tuple[str, ...]
    core_context: tuple[ContextRef, ...] = ()
    description_terms: tuple[str, ...] = ()
    frequency: float = 0.0

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("sense id must be nonempty")
        if not self.lemmas or any(not l for l in self.lemmas):
            raise ValueError(f"sense {self.id!r}: lemmas must be nonempty strings")
        if not self.synonyms or any(not s for s in self.synonyms):
            raise ValueError(f"sense {self.id!r}: synonyms must be nonempty strings")
        if self.frequency < 0:
            raise ValueError(f"sense {self.id!r}: frequency must be >= 0")

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "lemmas": list(self.lemmas),
            "synonyms": list(self.synonyms),
            "core_context": [c.to_json() for c in self.core_context],
            "description_terms": list(self.description_terms),
            "frequency": self.frequency,
        }


def _pseudo_sense(label: str) -> Sense:
    """Wrap a bare label as a single-synonym sense for relatedness purposes."""
    return Sense(id=label, lemmas=(label,), synonyms=(label,))


@dataclass
class Lexicon:
    """A sense inventory with a lemma index.

    ``senses`` preserves file order; the index maps lowercased lemmas to the
    ids of the senses listing them, again in file order.
    """

    senses: dict[str, Sense]
    index: dict[str, list[str]] = field(default_factory=dict)
    # Compiled keywords per model, kept by kwsense.compiled; not part of the value.
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # Pickles and copies start with no compiled keywords: those hold weak references.
        return {**self.__dict__, "compiled": {}}

    @classmethod
    def from_senses(cls, senses: Iterable[Sense], strict: bool = True) -> "Lexicon":
        """Build a lexicon, checking id uniqueness and (when strict) reference integrity."""
        table: dict[str, Sense] = {}
        for sense in senses:
            if sense.id in table:
                raise ValueError(f"duplicate sense id: {sense.id!r}")
            table[sense.id] = sense
        if strict:
            dangling = [
                (sense.id, ref.value)
                for sense in table.values()
                for ref in sense.core_context
                if ref.is_ref and ref.value not in table
            ]
            if dangling:
                listing = ", ".join(f"{sid} -> {ref}" for sid, ref in dangling)
                raise ValueError(f"dangling sense references: {listing}")
        lex = cls(senses=table)
        lex._rebuild_index()
        return lex

    def _rebuild_index(self) -> None:
        index: dict[str, list[str]] = {}
        for sense in self.senses.values():
            for lemma in sense.lemmas:
                key = lemma.lower()
                ids = index.setdefault(key, [])
                if sense.id not in ids:
                    ids.append(sense.id)
        self.index = index

    def __len__(self) -> int:
        return len(self.senses)

    def senses_of(self, keyword: str) -> list[Sense]:
        """Candidate senses for a keyword, matched case-insensitively, in file order."""
        return [self.senses[sid] for sid in self.index.get(keyword.lower(), [])]

    def resolve(self, sense_id: str) -> Sense:
        try:
            return self.senses[sense_id]
        except KeyError:
            raise ValueError(f"unknown sense id: {sense_id!r}") from None

    def resolve_context(self, ref: ContextRef) -> Sense:
        """The sense behind a core-context member; labels become pseudo-senses."""
        if ref.is_ref:
            return self.resolve(ref.value)
        return _pseudo_sense(ref.value)


def _parse_context_entry(entry: object, where: str) -> ContextRef:
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ParseError(f"{where}: core_context entries must be {{'ref': id}} or {{'label': str}}")
    if "ref" in entry:
        value = entry["ref"]
        is_ref = True
    elif "label" in entry:
        value = entry["label"]
        is_ref = False
    else:
        raise ParseError(f"{where}: core_context entries must be {{'ref': id}} or {{'label': str}}")
    if not isinstance(value, str) or not value:
        raise ParseError(f"{where}: core_context member must be a nonempty string")
    return ContextRef(value=value, is_ref=is_ref)


def _string_tuple(obj: object, fieldname: str, where: str) -> tuple[str, ...]:
    if not isinstance(obj, list) or any(not isinstance(x, str) or not x for x in obj):
        raise ParseError(f"{where}: {fieldname} must be a list of nonempty strings")
    return tuple(obj)


def _sense_from_obj(obj: dict, where: str) -> Sense:
    for key in ("id", "lemmas", "synonyms"):
        if key not in obj:
            raise ParseError(f"{where}: missing required field {key!r}")
    unknown = set(obj) - _KNOWN_FIELDS
    if unknown:
        logger.warning("%s: ignoring unknown fields %s", where, sorted(unknown))
    if not isinstance(obj["id"], str) or not obj["id"]:
        raise ParseError(f"{where}: id must be a nonempty string")
    lemmas = _string_tuple(obj["lemmas"], "lemmas", where)
    synonyms = _string_tuple(obj["synonyms"], "synonyms", where)
    raw_context = obj.get("core_context", [])
    if not isinstance(raw_context, list):
        raise ParseError(f"{where}: core_context must be a list")
    core_context = tuple(_parse_context_entry(e, where) for e in raw_context)
    description = _string_tuple(obj.get("description_terms", []), "description_terms", where)
    frequency = obj.get("frequency", 0.0)
    # json.loads gives NaN, Infinity and ints too large for a float.
    if type(frequency) not in (int, float) or not 0 <= frequency <= sys.float_info.max:
        raise ParseError(f"{where}: frequency must be a finite number >= 0")
    try:
        return Sense(
            id=obj["id"],
            lemmas=lemmas,
            synonyms=synonyms,
            core_context=core_context,
            description_terms=description,
            frequency=float(frequency),
        )
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a JSONL sense inventory.

    One sense object per line. Duplicate ids, empty synonym sets, and
    references to missing sense ids are rejected; unknown fields are ignored
    with a warning.
    """
    path = Path(path)
    senses: list[Sense] = []
    for where, obj in json_lines(path):
        if not isinstance(obj, dict):
            raise ParseError(f"{where}: each line must be a JSON object")
        senses.append(_sense_from_obj(obj, where))
    try:
        return Lexicon.from_senses(senses, strict=True)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    """Write a lexicon back to JSONL; reloading yields an equal structure."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for sense in lexicon.senses.values():
            fh.write(json.dumps(sense.to_json(), sort_keys=True) + "\n")


@dataclass(frozen=True)
class ValidationReport:
    """Structural findings over a lexicon; empty when nothing needs attention."""

    dangling_refs: tuple[tuple[str, str], ...]
    empty_descriptions: tuple[str, ...]
    zero_frequency_ratio: float
    notes: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not (self.dangling_refs or self.empty_descriptions or self.notes)


def validate(lexicon: Lexicon) -> ValidationReport:
    """Report dangling references, empty description sets, and frequency coverage."""
    dangling = tuple(
        (sense.id, ref.value)
        for sense in lexicon.senses.values()
        for ref in sense.core_context
        if ref.is_ref and ref.value not in lexicon.senses
    )
    empty_desc = tuple(s.id for s in lexicon.senses.values() if not s.description_terms)
    total = len(lexicon.senses)
    zero = sum(1 for s in lexicon.senses.values() if s.frequency == 0)
    ratio = zero / total if total else 0.0
    notes = ()
    if total and zero == total:
        notes = ("all frequencies are zero: frequency re-ranking will be skipped",)
    return ValidationReport(
        dangling_refs=dangling,
        empty_descriptions=empty_desc,
        zero_frequency_ratio=ratio,
        notes=notes,
    )
