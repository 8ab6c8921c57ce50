"""Fixed English stopword list used for context selection and overlap scoring.

The list is versioned so that results can be tied to the exact word set that
produced them. A replacement list (one token per line) can be supplied at the
command line via the ``KWSENSE_STOPWORDS`` environment variable.
"""
from __future__ import annotations

from pathlib import Path

from .errors import text_lines

STOPWORDS_VERSION = "1.0"

_WORDS = """
a about above after again against all also am among an and another any anyone
anything are around as at be became because become becomes been before being
below beside besides between beyond both but by came can cannot come could did
do does doing down during each either else ever every everyone everything few
for from further get gets goes going gone got had has have having he her here
hers herself him himself his how however i if in indeed instead into is it its
itself just least less like made make many may maybe me might mine more most
much must my myself neither never next no none nor not nothing now of off
often on once only onto or other ought our ours ourselves out over own per
perhaps quite rather said same say says seem seemed seems shall she should
since so some such take than that the their theirs them themselves then there
these they this those though through thus to together too toward towards under
until unto up upon us used using very via want was we well went were what
whatever when whenever where wherever whether which while who whom whose why
will with within without would yet you your yours yourself yourselves
""".split()

DEFAULT_STOPWORDS: frozenset[str] = frozenset(_WORDS)


def default_stopwords() -> frozenset[str]:
    """The bundled stopword list (version :data:`STOPWORDS_VERSION`)."""
    return DEFAULT_STOPWORDS


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a replacement stopword list: one token per line, blank lines skipped.

    Invalid UTF-8 raises :class:`ParseError` naming the line.
    """
    words = []
    for _, line in text_lines(Path(path)):
        token = line.strip()
        if token:
            words.append(token.lower())
    return frozenset(words)
