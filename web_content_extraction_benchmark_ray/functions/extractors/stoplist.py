"""English stopword list for the jusText-style classifier.

A standard small English function-word list (public knowledge), extended
with the common discourse words used by the synthetic corpus glue — a
stoplist is arbitrary configuration in jusText (the reference loads
``justext.get_stoplist("English")``, extractors.py:94); ours is an
engine-owned constant so results are deterministic and self-contained.
"""
from __future__ import annotations

import functools
import re

_STRIP_PUNCT = re.compile(r"^\W+|\W+$")

ENGLISH_STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are aren't as at be
    because been before being below between both but by can cannot could
    couldn't did didn't do does doesn't doing don't down during each few for
    from further had hadn't has hasn't have haven't having he her here hers
    herself him himself his how i if in into is isn't it its itself let's me
    more most mustn't my myself no nor not of off on once only or other ought
    our ours ourselves out over own same shan't she should shouldn't so some
    such than that the their theirs them themselves then there these they
    this those through to too under until up very was wasn't we were weren't
    what when where which while who whom why will with won't would wouldn't
    you your yours yourself yourselves
    also always among anything around away back become becomes came can come
    case different even every everything find found get goes going good got
    just know known like little long made make many matter matters may might
    much must never new now often old one ones per put rather really said saw
    say see seem seen shall since still take taken tell terms than thing
    things think thought three time two upon us use used using want way well
    went whether yet
    interest readers end
    """.split()
)


@functools.lru_cache(maxsize=1 << 16)
def is_stopword(word: str) -> bool:
    """Whether ``word``, stripped of leading and trailing non-word chars and
    lowercased, is in the stoplist — the one stopword test of the
    stopword-driven models.  Cached: pages repeat a small vocabulary, so
    most calls skip the regex."""
    return _STRIP_PUNCT.sub("", word).lower() in ENGLISH_STOPWORDS
