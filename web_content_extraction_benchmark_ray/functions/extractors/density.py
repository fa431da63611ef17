"""Boilerpipe-style shallow-text-feature block classifier, from scratch.

Capability of reference ``extract_boilerpipe`` (extractors.py:26-30; the
reference shells out to the JVM ArticleExtractor).  Re-derived from the
published algorithm family (Kohlschütter, Fankhauser, Nejdl: "Boilerplate
Detection using Shallow Text Features", WSDM 2010): per-block word count
and link density with neighbour-aware sequence rules.

Decision rule (NumWordsRules-style):
- a block with link density > 1/3 is boilerplate;
- otherwise it is content if it has > 16 words, or if a low-link-density
  block is adjacent to a long neighbour (prev > 8 words or next > 15 words);
- content blocks are emitted in document order joined by newlines.
"""
from __future__ import annotations

from ..text import sub_common_entities, tokenize_ws
from . import register_extractor

MAX_LINK_DENSITY = 1.0 / 3.0
MIN_WORDS_CONTENT = 16
MIN_PREV_WORDS = 8
MIN_NEXT_WORDS = 15


@register_extractor("density", "blocks")
def density(blocks) -> str:
    feats = []
    for b in blocks:
        text = sub_common_entities(b.text())
        if not text:
            continue
        words = len(tokenize_ws(text))
        link_density = b.link_chars / len(text)
        feats.append((text, words, link_density))
    kept = []
    for i, (text, words, ld) in enumerate(feats):
        if ld > MAX_LINK_DENSITY:
            continue
        prev_w = feats[i - 1][1] if i > 0 and feats[i - 1][2] <= MAX_LINK_DENSITY else 0
        next_w = (
            feats[i + 1][1]
            if i + 1 < len(feats) and feats[i + 1][2] <= MAX_LINK_DENSITY
            else 0
        )
        if (
            words > MIN_WORDS_CONTENT
            or prev_w > MIN_PREV_WORDS
            or next_w > MIN_NEXT_WORDS
        ):
            kept.append(text)
    return "\n".join(kept)
