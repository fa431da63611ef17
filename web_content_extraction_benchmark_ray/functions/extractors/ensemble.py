"""N-gram majority-vote ensemble extractor, from scratch.

Semantics of the reference's ensemble voter (``extractors/ensemble.py:40-73``
+ member binding ``extractors.py:174-209``), re-derived:

- the full-page token stream (whole text, no boilerplate removal) is padded
  with ``\\0`` sentinel tokens,
- for each token, the left and right ``ngram_size``-grams are rendered as
  space-padded strings; each member model votes (with its weight) if either
  n-gram occurs as a substring of the member's whitespace-normalized answer,
- tokens with votes >= ``int(0.66 * n_members)`` are kept, space-joined.

Difference by design (Ray-Data-first): the reference joins member answers
from JSONL side files via a per-process cache (ensemble.py:24-37, a join in
our table model — SURVEY.md §2.3 N1); here an ensemble takes the whole
``Page`` and asks it for each member's answer.  The page parses and
segments the document once for every member and memoizes each answer, so
a member the extraction stage already ran for the same document is reused
outright, and the ensemble stage needs no shuffle at all.
"""
from __future__ import annotations

from ..text import tokenize_ws
from . import register_extractor

NGRAM_SIZE = 5

# (name, weight) — the engine's from-scratch member set; threshold rule
# matches the reference (int(len(models) * .66), extractors.py:197).
MEMBERS = [
    ("bte", 1),
    ("justext", 1),
    ("density", 1),
    ("readability", 1),
    ("tagclean", 1),
]


def _pad_zero(s: str, n: int) -> str:
    return ("\0 " * n) + s + (" \0" * n)


def majority_vote(
    page_text: str,
    answers: list[str],
    weights: list[int],
    vote_threshold: int,
    ngram_size: int = NGRAM_SIZE,
) -> str:
    """Vote tokens of ``page_text`` against member ``answers``."""
    padded_answers = [
        _pad_zero(" ".join(tokenize_ws(a or "")), ngram_size) for a in answers
    ]
    tokens = tokenize_ws(_pad_zero(page_text, ngram_size - 1))
    votes = [0] * len(tokens)
    for ti in range(ngram_size - 1, len(tokens) - ngram_size + 1):
        gram_l = " " + " ".join(tokens[ti - ngram_size + 1 : ti + 1]) + " "
        gram_r = " " + " ".join(tokens[ti : ti + ngram_size]) + " "
        for answer, w in zip(padded_answers, weights):
            if gram_l in answer or gram_r in answer:
                votes[ti] += w
            if votes[ti] >= vote_threshold:
                break
    body = tokens[ngram_size - 1 : len(tokens) - ngram_size + 1]
    body_votes = votes[ngram_size - 1 : len(votes) - ngram_size + 1]
    return " ".join(t for t, v in zip(body, body_votes) if v >= vote_threshold)


def vote(page, members) -> str:
    """Vote ``page``'s body text against its member answers: threshold =
    int(0.66 * total weight), where a weight-w member counts as w
    duplicated entries (reference ``_get_ensemble_model_list``,
    extractors.py:174-209)."""
    weights = [w for _, w in members]
    return majority_vote(
        page.answer("body_text"),
        [page.answer(name) for name, _ in members],
        weights,
        int(sum(weights) * 0.66),
    )


@register_extractor("ensemble", "page")
def ensemble(page) -> str:
    return vote(page, MEMBERS)


# N4 parameterizations (reference extractors.py:194-209): best-subset and
# weighted (selected members counted twice).
BEST_MEMBERS = [m for m in MEMBERS if m[0] in ("bte", "density", "readability")]
WEIGHTED_MEMBERS = [
    (name, 2 if name in ("readability", "justext") else w)
    for name, w in MEMBERS
]


@register_extractor("ensemble_best", "page")
def ensemble_best(page) -> str:
    return vote(page, BEST_MEMBERS)


@register_extractor("ensemble_weighted", "page")
def ensemble_weighted(page) -> str:
    return vote(page, WEIGHTED_MEMBERS)
