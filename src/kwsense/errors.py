"""Shared exception types."""


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
