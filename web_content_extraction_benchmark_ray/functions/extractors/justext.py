"""jusText-style stopword/link-density paragraph classifier, from scratch.

Re-derivation of the published jusText algorithm (Pomikálek 2011,
"Removing boilerplate and duplicate content from web corpora") with the
exact parameterization the reference uses (``extractors.py:91-96``):
length_low=50, length_high=200, stopwords_low=0.1, stopwords_high=0.2,
max_link_density=0.2, max_heading_distance=200, no_headings=True; kept
paragraphs are joined with a single space (``' '.join(p.text ...)``).

Stages: block segmentation (htmlparse.segment_blocks) → context-free
classification (good/neargood/short/bad) → context-sensitive revision
(short and neargood reclassified from nearest good/bad neighbours).
"""
from __future__ import annotations

from ..text import sub_common_entities, tokenize_ws
from . import register_extractor
from .stoplist import is_stopword

LENGTH_LOW = 50
LENGTH_HIGH = 200
STOPWORDS_LOW = 0.1
STOPWORDS_HIGH = 0.2
MAX_LINK_DENSITY = 0.2
MAX_HEADING_DISTANCE = 200
NO_HEADINGS = True

GOOD, NEARGOOD, SHORT, BAD = "good", "neargood", "short", "bad"


def _stopword_density(text: str) -> float:
    words = tokenize_ws(text)
    if not words:
        return 0.0
    return sum(map(is_stopword, words)) / len(words)


def classify_contextfree(
    text: str,
    link_chars: int,
    is_heading: bool = False,
) -> str:
    """Context-free paragraph classification (published jusText rules)."""
    length = len(text)
    if length == 0:
        return BAD
    link_density = link_chars / length
    if link_density > MAX_LINK_DENSITY:
        return BAD
    if "\xa9" in text or "&copy" in text:
        return BAD
    if length < LENGTH_LOW:
        return BAD if link_chars > 0 else SHORT
    density = _stopword_density(text)
    if density >= STOPWORDS_HIGH:
        return GOOD if length > LENGTH_HIGH else NEARGOOD
    if density >= STOPWORDS_LOW:
        return NEARGOOD
    return BAD


def _neighbour(classes: list[str], i: int, step: int, ignore_neargood: bool) -> str:
    j = i + step
    while 0 <= j < len(classes):
        c = classes[j]
        if c == GOOD or c == BAD:
            return c
        if c == NEARGOOD and not ignore_neargood:
            return c
        j += step
    return BAD


def revise_classification(cf: list[str]) -> list[str]:
    """Context-sensitive revision (published algorithm; heading promotion
    disabled because the reference runs with no_headings=True)."""
    classes = list(cf)
    for i, c in enumerate(classes):
        if c != SHORT:
            continue
        prev = _neighbour(cf, i, -1, ignore_neargood=True)
        nxt = _neighbour(cf, i, +1, ignore_neargood=True)
        if prev == GOOD and nxt == GOOD:
            classes[i] = GOOD
        elif prev == BAD and nxt == BAD:
            classes[i] = BAD
        elif (prev == BAD and _neighbour(cf, i, -1, False) == NEARGOOD) or (
            nxt == BAD and _neighbour(cf, i, +1, False) == NEARGOOD
        ):
            classes[i] = GOOD
        else:
            classes[i] = BAD
    for i, c in enumerate(classes):
        if c != NEARGOOD:
            continue
        prev = _neighbour(cf, i, -1, ignore_neargood=True)
        nxt = _neighbour(cf, i, +1, ignore_neargood=True)
        classes[i] = BAD if (prev == BAD and nxt == BAD) else GOOD
    return classes


@register_extractor("justext", "blocks")
def justext(blocks) -> str:
    texts = [sub_common_entities(b.text()) for b in blocks]
    cf = [
        classify_contextfree(t, b.link_chars, b.is_heading)
        for t, b in zip(texts, blocks)
    ]
    final = revise_classification(cf)
    return " ".join(t for c, t in zip(final, texts) if c == GOOD)
