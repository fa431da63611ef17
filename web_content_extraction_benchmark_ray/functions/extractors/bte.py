"""BTE (Body Text Extraction) — from-scratch implementation of the
max-subsequence token classifier published in:

  A. Finn, N. Kushmerick, B. Smyth. "Fact or Fiction: Content
  classification for digital libraries." DELOS Workshop 2001.

Semantics match the reference's in-repo BTE extractor
(``extractors/bte.py:17-184``, reference E10) — token values word=+1 /
tag=-1, maximal same-sign runs, best contiguous run-interval, opening
block-tag paragraph re-marking — but the interval search here is an O(B)
prefix-sum scan (the reference uses an O(B²) double loop) with the same
tie-breaking: the lexicographically-first (start, end) interval attaining
the maximum, strict improvement only, and (0, 0) when no interval is
positive.  ``tests/test_bte.py`` cross-checks against a brute-force
re-statement of the published selection rule.
"""
from __future__ import annotations

import re
from itertools import accumulate
from operator import itemgetter, sub

from ..text import sub_common_entities
from . import register_extractor

_BODY_OPEN = re.compile(r"^.*<body(\s+[^>]*)?>", re.S | re.I)
_BODY_CLOSE = re.compile(r"</body>.*$", re.S | re.I)
_SCRIPT = re.compile(r"<script(\s+[^>]*)?>.*?</script>", re.S | re.I)
_STYLE = re.compile(r"<style(\s+[^>]*)?>.*?</style>", re.S | re.I)
_TOKEN = re.compile(r"<[^>]+>|[^\s<]+")
_KIND_RUN = re.compile(r"<+|[^<]+")

_PAR_BREAK_TAGS = (
    "p", "div", "hr", "blockquote", "table", "h1", "h2", "h3", "li"
)
# A tag token whose name (the published ``^<([^\s>]+)``) lowercases to a
# break tag.  Spelled with ASCII case classes, not re.I: re.I lets 'i' match
# U+0130/U+0131, which ``str.lower`` does not map to 'i'.
_BREAK_TAG = re.compile(
    "<(?:%s)[\\s>]"
    % "|".join(
        "".join(f"[{c}{c.upper()}]" if c.isalpha() else c for c in t)
        for t in _PAR_BREAK_TAGS
    )
)


def _preclean(html: str) -> str:
    html = _BODY_OPEN.sub("", html)
    html = _BODY_CLOSE.sub("", html)
    html = _SCRIPT.sub("<script></script>", html)
    html = _STYLE.sub("<style></style>", html)
    return sub_common_entities(html)


def _tokenize(html: str) -> list[str]:
    return _TOKEN.findall(html)


def _kind_runs(tokens: list[str]) -> list[str]:
    """Maximal same-kind token runs, as one string per run whose length is
    the run's token count and whose first char is '<' for a tag run: one
    regex pass over the tokens' first chars (a word token never starts
    with '<'), so no Python branch runs per token."""
    return _KIND_RUN.findall("".join(map(itemgetter(0), tokens)))


def _runs(tokens: list[str]) -> list[tuple[int, int]]:
    """Maximal runs of same-value tokens -> list of (end_index, run_sum)."""
    runs: list[tuple[int, int]] = []
    end = -1
    for run in _kind_runs(tokens):
        end += len(run)
        runs.append((end, -len(run) if run[0] == "<" else len(run)))
    return runs


def best_window(tokens: list[str]) -> tuple[int, int]:
    """Token index range [start, end] of the best body window.

    Selection rule (identical outcome to the published algorithm's scan):
    among all run-intervals (i, j) whose sum equals the global maximum M,
    pick the smallest i, then the smallest j; return (0, 0) when M <= 0.
    """
    if not tokens:
        return (0, 0)
    runs = _runs(tokens)
    # prefix[i] = sum of runs[0..i-1]; best_end[i] = max(prefix[i+1:])
    prefix = list(accumulate((s for _, s in runs), initial=0))
    best_end = list(accumulate(reversed(prefix[1:]), max))[::-1]
    gains = list(map(sub, best_end, prefix))
    best = max(gains)
    if best <= 0:
        return (0, 0)
    i = gains.index(best)
    j = prefix.index(prefix[i] + best, i + 1) - 1
    start = runs[i - 1][0] + 1 if i > 0 else 0
    return (start, runs[j][0])


def _paragraphs(tokens: list[str]) -> list[str]:
    """Split window tokens into paragraphs at *opening* block tags seen
    while inside a paragraph (closing tags like </p> deliberately do not
    break — the name regex of the published implementation captures '/p',
    which is not a block-tag name).  Works run by run: a word run extends
    the paragraph; a tag run after a word ends it if any of its tags is a
    break tag."""
    pars: list[str] = []
    cur: list[str] = []
    i = 0
    for run in _kind_runs(tokens):
        j = i + len(run)
        if run[0] != "<":
            cur.extend(tokens[i:j])
        elif cur and any(map(_BREAK_TAG.match, tokens[i:j])):
            pars.append(" ".join(cur))
            cur = []
        i = j
    if cur:
        pars.append(" ".join(cur))
    return pars


@register_extractor("bte", "html")
def bte(html: str) -> str:
    tokens = _tokenize(_preclean(html))
    start, end = best_window(tokens)
    return "\n".join(_paragraphs(tokens[start : end + 1]))
