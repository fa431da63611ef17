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

from ..text import sub_common_entities
from . import register_extractor

_BODY_OPEN = re.compile(r"^.*<body(\s+[^>]*)?>", re.S | re.I)
_BODY_CLOSE = re.compile(r"</body>.*$", re.S | re.I)
_SCRIPT = re.compile(r"<script(\s+[^>]*)?>.*?</script>", re.S | re.I)
_STYLE = re.compile(r"<style(\s+[^>]*)?>.*?</style>", re.S | re.I)
_TOKEN = re.compile(r"<[^>]+>|[^\s<]+")
_TAG_NAME = re.compile(r"^<([^\s>]+)")

_PAR_BREAK_TAGS = frozenset(
    ("p", "div", "hr", "blockquote", "table", "h1", "h2", "h3", "li")
)


def _preclean(html: str) -> str:
    html = _BODY_OPEN.sub("", html)
    html = _BODY_CLOSE.sub("", html)
    html = _SCRIPT.sub("<script></script>", html)
    html = _STYLE.sub("<style></style>", html)
    return sub_common_entities(html)


def _tokenize(html: str) -> list[str]:
    return _TOKEN.findall(html)


def _runs(tokens: list[str]) -> list[tuple[int, int]]:
    """Maximal runs of same-value tokens -> list of (end_index, run_sum)."""
    runs: list[tuple[int, int]] = []
    prev = 0
    acc = 0
    for i, tok in enumerate(tokens):
        val = -1 if tok.startswith("<") else 1
        if prev and val != prev:
            runs.append((i - 1, acc))
            acc = 0
        acc += val
        prev = val
    runs.append((len(tokens) - 1, acc))
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
    sums = [s for _, s in runs]
    # prefix[i] = sum of runs[0..i-1]
    prefix = [0]
    for s in sums:
        prefix.append(prefix[-1] + s)
    # suffix max of prefix[j+1] for j >= i
    n = len(sums)
    suf_max = [0] * (n + 1)
    suf_max[n] = float("-inf")
    for j in range(n - 1, -1, -1):
        suf_max[j] = max(prefix[j + 1], suf_max[j + 1])
    best = max(suf_max[i] - prefix[i] for i in range(n))
    if best <= 0:
        return (0, 0)
    for i in range(n):
        if suf_max[i] - prefix[i] == best:
            target = prefix[i] + best
            for j in range(i, n):
                if prefix[j + 1] == target:
                    start = runs[i - 1][0] + 1 if i > 0 else 0
                    return (start, runs[j][0])
    return (0, 0)  # pragma: no cover


def _paragraphs(tokens: list[str]) -> list[str]:
    """Split window tokens into paragraphs at *opening* block tags seen
    while inside a paragraph (closing tags like </p> deliberately do not
    break — the name regex of the published implementation captures '/p',
    which is not a block-tag name)."""
    pars: list[str] = []
    cur: list[str] = []
    in_par = False
    for tok in tokens:
        if not tok.startswith("<"):
            cur.append(tok)
            in_par = True
            continue
        if not in_par:
            continue
        m = _TAG_NAME.match(tok)
        if m and m.group(1).lower() in _PAR_BREAK_TAGS:
            if cur:
                pars.append(" ".join(cur))
                cur = []
            in_par = False
    if cur:
        pars.append(" ".join(cur))
    return pars


@register_extractor("bte", "html")
def bte(html: str) -> str:
    tokens = _tokenize(_preclean(html))
    start, end = best_window(tokens)
    return "\n".join(_paragraphs(tokens[start : end + 1]))
