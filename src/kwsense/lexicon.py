"""Sense inventories: senses, their contexts, and JSONL (de)serialization.

A sense carries two tiers of context. ``core_context`` is the minimal
ontological neighbourhood (synonym sets and direct hypernym-like terms) used
by the two-level relatedness measure; ``description_terms`` is the broader
bag (glosses, labels, related terms) used by the rescoring strategies.
Core-context members either reference another sense by id or carry a plain
label that stands in for an unlisted term.

A lexicon is read-only: a changed inventory is a new lexicon. It interns
its phrases when it is built, however it is built (:class:`InternedSenses`):
every distinct synonym, core-context label and description term gets one
id and its whitespace tokens as ids into one token list, and every sense
its phrase ids, so that :mod:`kwsense.compiled` compiles step 1 and the
``average`` and ``topk`` descriptions with array gathers instead of
splitting and looking up phrases one at a time (``overlap``'s word sets
are split from the senses' own terms). The loader also stores each
distinct string once (``sys.intern``).
"""
from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence
from weakref import WeakKeyDictionary

import numpy as np

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


def _nonempty_strings(terms: Sequence[str]) -> bool:
    """Whether every entry is a nonempty str (numpy's str_ too), in two C-level passes.

    ``str.join`` takes only str entries, and "" is the only empty one.
    """
    try:
        "".join(terms)
    except TypeError:
        return False
    return "" not in terms


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
        for name in ("lemmas", "synonyms", "description_terms"):
            if isinstance(getattr(self, name), str):  # read char by char, it would pass
                raise ValueError(f"sense {self.id!r}: {name} must be a tuple of strings, not a str")
        if not (self.lemmas and _nonempty_strings(self.lemmas)):
            raise ValueError(f"sense {self.id!r}: lemmas must be nonempty strings")
        if not (self.synonyms and _nonempty_strings(self.synonyms)):
            raise ValueError(f"sense {self.id!r}: synonyms must be nonempty strings")
        if not _nonempty_strings(self.description_terms):
            raise ValueError(f"sense {self.id!r}: description_terms must be nonempty strings")
        # Written so that NaN, infinities and ints beyond float range fail.
        if not 0 <= self.frequency <= sys.float_info.max:
            raise ValueError(f"frequency must be a finite number >= 0 (sense {self.id!r})")
        object.__setattr__(self, "frequency", float(self.frequency))

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


def segment_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``start, ..., start + length - 1`` of every segment, one after another."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


# Segments of a flat array: offsets (one more than segments) and the values.
Segments = tuple[np.ndarray, np.ndarray]


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Segment offsets for segments of ``lengths``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _lengths(lists: Sequence[Sequence]) -> np.ndarray:
    return np.fromiter(map(len, lists), np.intp, len(lists))


def _intern(items: Iterable[str], n: int) -> tuple[list[str], np.ndarray]:
    """The distinct ``items`` (``n`` of them in all) in order of first occurrence, and each item's id.

    One pass: an item's first occurrence is its place in the dict, then the
    places are renumbered densely.
    """
    first: dict[str, int] = {}
    ids = np.fromiter(map(first.setdefault, items, count()), np.intp, n)
    dense = np.empty(n, dtype=np.intp)
    dense[np.fromiter(first.values(), np.intp, len(first))] = np.arange(len(first))
    return list(first), dense[ids]


def gather(segments: Segments, ids: range | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of segments ``ids``, one segment after another, and each one's length.

    Consecutive segments (a ``range``) are one slice of the values.
    """
    offsets, flat = segments
    if isinstance(ids, range):
        bounds = offsets[ids.start : ids.stop + 1]
        return flat[bounds[0] : bounds[-1]], bounds[1:] - bounds[:-1]
    starts = offsets[ids]
    lengths = offsets[ids + 1] - starts
    return flat[segment_positions(starts, lengths)], lengths


@dataclass(frozen=True, eq=False)
class InternedSenses:
    """The phrases of a sequence of senses, interned once.

    Senses are known by their ordinal in ``senses``. Phrases (synonyms,
    core-context labels and description terms) are known by id: phrase p's
    whitespace tokens are ``tokens[i]`` for the ids i of segment p of
    ``phrase_tokens``. Per sense, ``synonyms`` and ``descriptions`` hold its
    phrase ids in order, duplicates included, and ``members`` is the range of
    its core-context members: member m's phrases (``member_phrases``) are a
    label's own phrase or the referenced sense's synonyms. Nothing here
    depends on a model: it is shared by every model's compiled keywords and
    pickled with its lexicon.
    """

    senses: tuple[Sense, ...]
    ordinals: dict[str, int]
    tokens: list[str]
    phrase_tokens: Segments
    synonyms: Segments
    descriptions: Segments
    members: np.ndarray
    member_phrases: Segments

    @classmethod
    def build(cls, senses: Sequence[Sense]) -> "InternedSenses":
        """Intern ``senses``, whose references name senses among them.

        No Python loop runs per phrase: only ``map``, ``str.join``,
        ``str.split`` and numpy passes.
        """
        senses = tuple(senses)
        ordinals = dict(zip(map(attrgetter("id"), senses), count()))
        contexts = list(map(attrgetter("core_context"), senses))
        entries = list(chain.from_iterable(contexts))
        is_ref = np.fromiter(map(attrgetter("is_ref"), entries), bool, len(entries))
        values = list(map(attrgetter("value"), entries))
        synonyms = list(map(attrgetter("synonyms"), senses))
        descriptions = list(map(attrgetter("description_terms"), senses))
        synonym_offsets = _offsets(_lengths(synonyms))
        description_offsets = _offsets(_lengths(descriptions))
        n_synonyms, n_labels = int(synonym_offsets[-1]), len(entries) - int(is_ref.sum())
        phrases, ids = _intern(chain(
            chain.from_iterable(synonyms),
            compress(values, ~is_ref),
            chain.from_iterable(descriptions),
        ), n_synonyms + n_labels + int(description_offsets[-1]))
        text = " ".join(phrases)
        words = text.split()
        # Single spaces only: a phrase has one token more than spaces.
        lengths = np.fromiter(map(str.count, phrases, repeat(" ")), np.intp, len(phrases)) + 1
        if " ".join(words) != text or len(words) != lengths.sum():
            lengths = np.fromiter(map(len, map(str.split, phrases)), np.intp, len(phrases))
        tokens, token_ids = _intern(words, len(words))

        # Member m: a label's phrase, or the synonyms of the sense it references.
        target = np.zeros(len(entries), dtype=np.intp)
        target[is_ref] = np.fromiter(map(ordinals.__getitem__, compress(values, is_ref)), np.intp,
                                     len(entries) - n_labels)
        label = np.zeros(len(entries), dtype=np.intp)
        label[~is_ref] = ids[n_synonyms : n_synonyms + n_labels]
        member_lengths = np.where(is_ref, synonym_offsets[target + 1] - synonym_offsets[target], 1)
        positions = segment_positions(np.where(is_ref, synonym_offsets[target], 0), member_lengths)
        member_phrases = np.where(np.repeat(is_ref, member_lengths), ids[positions],
                                  np.repeat(label, member_lengths))
        return cls(
            senses=senses,
            ordinals=ordinals,
            tokens=tokens,
            phrase_tokens=(_offsets(lengths), token_ids),
            synonyms=(synonym_offsets, ids[:n_synonyms]),
            descriptions=(description_offsets, ids[n_synonyms + n_labels :]),
            members=_offsets(_lengths(contexts)),
            member_phrases=(_offsets(member_lengths), member_phrases),
        )


@dataclass(frozen=True)
class Lexicon:
    """A read-only sense inventory with a lemma index and its interned phrases.

    ``senses`` maps each sense's id to it in file order and cannot be
    changed: a changed inventory is a new lexicon. The index maps lowercased
    lemmas to the ids of the senses listing them, again in file order. Every
    core-context reference must name a sense of the lexicon.
    """

    senses: Mapping[str, Sense]
    index: dict[str, list[str]] = field(init=False)
    # The senses' phrases, interned once; not part of the value.
    interned: InternedSenses = field(init=False, repr=False, compare=False)
    # Compiled keywords per live model, kept by kwsense.compiled; not part of the value.
    compiled: WeakKeyDictionary = field(
        default_factory=WeakKeyDictionary, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Copied, so that changing the mapping cannot change the lexicon.
        senses = dict(self.senses)
        misfiled = [key for key, sense in senses.items() if key != sense.id]
        if misfiled:
            raise ValueError(f"senses must be keyed by their ids: {misfiled!r}")
        dangling = [
            (sense.id, ref.value)
            for sense in senses.values()
            for ref in sense.core_context
            if ref.is_ref and ref.value not in senses
        ]
        if dangling:
            listing = ", ".join(f"{sid} -> {ref}" for sid, ref in dangling)
            raise ValueError(f"dangling sense references: {listing}")
        index: dict[str, list[str]] = {}
        for sense in senses.values():
            for lemma in sense.lemmas:
                ids = index.setdefault(lemma.lower(), [])
                if sense.id not in ids:
                    ids.append(sense.id)
        object.__setattr__(self, "senses", MappingProxyType(senses))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "interned", InternedSenses.build(list(senses.values())))

    def __getstate__(self) -> dict:
        # Pickles and copies start with no compiled keywords.
        return {**self.__dict__, "senses": dict(self.senses), "compiled": None}

    def __setstate__(self, state: dict) -> None:
        senses, compiled = MappingProxyType(state["senses"]), WeakKeyDictionary()
        self.__dict__.update(state, senses=senses, compiled=compiled)

    @classmethod
    def from_senses(cls, senses: Iterable[Sense]) -> "Lexicon":
        """Build a lexicon, checking id uniqueness and reference integrity."""
        table: dict[str, Sense] = {}
        for sense in senses:
            if sense.id in table:
                raise ValueError(f"duplicate sense id: {sense.id!r}")
            table[sense.id] = sense
        return cls(senses=table)

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
    return ContextRef(value=sys.intern(value), is_ref=is_ref)


def _string_tuple(obj: object, fieldname: str, where: str) -> tuple[str, ...]:
    if not isinstance(obj, list) or not _nonempty_strings(obj):
        raise ParseError(f"{where}: {fieldname} must be a list of nonempty strings")
    return tuple(map(sys.intern, obj))


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
    if type(frequency) not in (int, float):
        raise ParseError(f"{where}: frequency must be a finite number >= 0")
    try:
        return Sense(
            id=obj["id"],
            lemmas=lemmas,
            synonyms=synonyms,
            core_context=core_context,
            description_terms=description,
            frequency=frequency,
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
        return Lexicon.from_senses(senses)
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

    empty_descriptions: tuple[str, ...]
    zero_frequency_ratio: float
    notes: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not (self.empty_descriptions or self.notes)


def validate(lexicon: Lexicon) -> ValidationReport:
    """Report empty description sets and frequency coverage."""
    empty_desc = tuple(s.id for s in lexicon.senses.values() if not s.description_terms)
    total = len(lexicon.senses)
    zero = sum(1 for s in lexicon.senses.values() if s.frequency == 0)
    ratio = zero / total if total else 0.0
    notes = ()
    if total and zero == total:
        notes = ("all frequencies are zero: frequency re-ranking will be skipped",)
    return ValidationReport(
        empty_descriptions=empty_desc,
        zero_frequency_ratio=ratio,
        notes=notes,
    )
