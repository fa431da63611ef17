"""Trafilatura-class cascading main-content extractor, from scratch.

Capability of reference ``extract_trafilatura`` (extractors.py:86-88, which
wraps ``trafilatura.extract(include_comments=False)``).  Re-derivation of
the published cascade design (Barbaresi 2021, "Trafilatura: A Web Scraping
Library and Command-Line Tool for Text Discovery and Extraction", ACL
system demonstrations):

1. **Zone selection** — prioritized selectors locate the main-content
   container: semantic tags (``<article>``, ``<main>``) first, then
   id-anchored containers (``id`` in main/article/content/post/entry/
   story), then class-name hints (post/entry/content/article/main/text/
   story/body); candidates whose class/id match boilerplate patterns
   (comment, sidebar, footer, nav, widget, ...) are skipped, and among
   qualifying candidates of one tier the text-longest wins (document
   order breaks ties).
2. **Harvest** — the zone's text blocks, dropping link-dense blocks.
3. **Cascade fallbacks** — if the harvest fails a minimum-length sanity
   check, fall back to readability-style ancestor scoring (trafilatura's
   own second tier wraps exactly that algorithm family), then to a
   pruned whole-body baseline; the longest qualifying output wins.

Non-mutating (selection + traversal only), so it reads the page's one
shared parse.
"""
from __future__ import annotations

import re

from ..htmlparse import RAW_TEXT_TAGS, Node, body_or_root, segment_blocks
from ..text import sub_common_entities
from . import register_extractor
from .readability import readability

# boilerplate name patterns a zone candidate must not match (published
# trafilatura OVERALL_DISCARD_XPATH name classes, re-expressed)
_NEGATIVE_ZONE = re.compile(
    r"comment|sidebar|side-bar|footer|footnote|nav|menu|widget|banner|"
    r"breadcrumb|related|share|social|promo|advert|masthead|meta|shoutbox",
    re.I,
)
_CLASS_HINT = re.compile(
    r"post|entry|content|article|main|text|story|body|page", re.I
)
_ZONE_IDS = frozenset(
    ("main", "article", "content", "post", "entry", "story", "page")
)
_CONTAINER_TAGS = frozenset(("article", "main", "div", "section", "td"))
_PRUNE_TAGS = frozenset(("nav", "aside", "footer", "header", "form"))

# sanity threshold of the cascade (trafilatura ``min_extracted_size``
# analogue; engine-owned constant)
MIN_EXTRACTED_CHARS = 150
MAX_LINK_DENSITY = 0.5


def _name_str(node: Node) -> str:
    return (node.attrs.get("class", "") or "") + " " + (
        node.attrs.get("id", "") or ""
    )


def _zone_text_len(node: Node) -> int:
    return sum(len(t) for t in node.text_chunks())


def select_zone(body: Node) -> Node | None:
    """Prioritized main-zone selection (cascade tier 1)."""
    semantic: list[Node] = []
    by_id: list[Node] = []
    by_class: list[Node] = []
    for n in body.iter_nodes():
        if n.tag not in _CONTAINER_TAGS or _NEGATIVE_ZONE.search(_name_str(n)):
            continue
        if n.tag in ("article", "main"):
            semantic.append(n)
        elif (n.attrs.get("id", "") or "").lower() in _ZONE_IDS:
            by_id.append(n)
        elif _CLASS_HINT.search(n.attrs.get("class", "") or ""):
            by_class.append(n)
    for tier in (semantic, by_id, by_class):
        best: tuple[int, Node] | None = None
        for n in tier:  # document order -> strict '>' keeps the first tie
            length = _zone_text_len(n)
            if length and (best is None or length > best[0]):
                best = (length, n)
        if best is not None:
            return best[1]
    return None


def _harvest(node: Node, skip_tags=RAW_TEXT_TAGS) -> str:
    parts = []
    for b in segment_blocks(node, skip_tags=skip_tags):
        text = sub_common_entities(b.text())
        if text and b.link_chars / len(text) <= MAX_LINK_DENSITY:
            parts.append(text)
    return "\n".join(parts)


@register_extractor("cascade", "root")
def cascade(root: Node) -> str:
    body = body_or_root(root)
    zone = select_zone(body)
    candidates: list[str] = []
    if zone is not None:
        out = _harvest(zone)
        if len(out) >= MIN_EXTRACTED_CHARS:
            return out
        candidates.append(out)
    fallback = readability(root)
    if len(fallback) >= MIN_EXTRACTED_CHARS:
        return fallback
    candidates.append(fallback)
    candidates.append(
        _harvest(body, skip_tags=frozenset(RAW_TEXT_TAGS) | _PRUNE_TAGS)
    )
    return max(candidates, key=len)
