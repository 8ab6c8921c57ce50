"""Shared exception types, and the text-file line readers that raise them."""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator


class KwsenseError(Exception):
    """Base class for toolkit-specific failures."""


class ParseError(KwsenseError, ValueError):
    """A data file could not be parsed.

    Messages name the offending file and, where possible, the line number.
    """


class ConfigError(KwsenseError, ValueError):
    """An invalid or incomplete run configuration."""


class UnmeasurableError(KwsenseError, ValueError):
    """Nothing can be measured for the input.

    Raised for a keyword without candidate senses and for relatedness whose
    inputs are all out of vocabulary. Callers that score many inputs (such as
    corpus evaluation) record these as not attempted; any other error is a
    fault and propagates.
    """


def text_lines(path: Path) -> Iterator[tuple[int, str]]:
    """The numbered lines of a UTF-8 text file, with Python's universal line ends.

    An undecodable byte raises :class:`ParseError` naming the file and line.
    """
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # escaped undecodable bytes do not encode
            except UnicodeEncodeError:
                raise ParseError(f"{path}: line {lineno}: invalid UTF-8") from None
            yield lineno, line


def json_lines(path: Path) -> Iterator[tuple[str, object]]:
    """Each non-blank line of a JSONL file as ``("<file>: line N", decoded value)``.

    Invalid JSON, including nesting too deep, an integer too long to decode,
    or a string escape that is a lone surrogate (``"\\ud800"``, which no
    UTF-8 output can carry), raises :class:`ParseError` naming the file and
    line.
    """
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{where}: invalid JSON: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{where}: invalid JSON: {exc}") from None
        # Only a \u escape can put a surrogate into a line that decoded as UTF-8.
        if "\\u" in line:
            try:
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"{where}: invalid JSON: lone surrogate in a string") from None
        yield where, obj
