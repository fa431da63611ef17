"""Readability-style DOM node scoring with ancestor propagation, from
scratch.

Capability of reference ``extract_readability`` (extractors.py:46-50, which
wraps the third-party readability-lxml port of Arc90 Readability).
Re-derivation of the published Arc90 heuristic:

- paragraph-ish nodes (p, td, pre) contribute ``1 + #commas +
  min(len/100, 3)`` points to their parent and half to their grandparent;
- containers start with a tag prior (div +5, blockquote/pre/td +3, list
  containers -3, headings/forms -5) plus a ±25 class/id prior from
  positive/negative name patterns;
- the final candidate score is scaled by ``(1 - link_density)``; the best
  candidate's block texts, in document order, are the article.
"""
from __future__ import annotations

import re

from ..htmlparse import Node, body_or_root, segment_blocks
from ..text import squeeze_ws, sub_common_entities
from . import register_extractor

_POSITIVE = re.compile(
    r"article|body|content|entry|hentry|main|page|pagination|post|text|blog|story",
    re.I,
)
_NEGATIVE = re.compile(
    r"combx|comment|com-|contact|foot|footer|footnote|masthead|media|meta|outbrain|"
    r"promo|related|scroll|shoutbox|sidebar|sponsor|shopping|tags|tool|widget|nav|menu",
    re.I,
)
_TAG_PRIOR = {
    "div": 5,
    "blockquote": 3,
    "pre": 3,
    "td": 3,
    "address": -3,
    "ol": -3,
    "ul": -3,
    "dl": -3,
    "dd": -3,
    "dt": -3,
    "li": -3,
    "form": -3,
    "th": -5,
    "h1": -5,
    "h2": -5,
    "h3": -5,
    "h4": -5,
    "h5": -5,
    "h6": -5,
}
_PARAGRAPH_TAGS = frozenset(("p", "td", "pre"))
_DROP = frozenset(("script", "style", "noscript"))


def _class_weight(node: Node) -> int:
    weight = 0
    name = (node.attrs.get("class", "") or "") + " " + (node.attrs.get("id", "") or "")
    if _NEGATIVE.search(name):
        weight -= 25
    if _POSITIVE.search(name):
        weight += 25
    return weight


def _node_text(node: Node) -> str:
    return squeeze_ws(" ".join(node.text_chunks(skip_tags=_DROP)))


def _link_text_len(node: Node) -> int:
    total = 0
    for a in node.find_all("a"):
        total += len(squeeze_ws(" ".join(a.text_chunks(skip_tags=_DROP))))
    return total


def score_candidates(body: Node) -> dict[int, tuple[Node, float]]:
    candidates: dict[int, tuple[Node, float]] = {}

    def init(node: Node) -> float:
        return _TAG_PRIOR.get(node.tag, 0) + _class_weight(node)

    for para in body.iter_nodes():
        if para.tag not in _PARAGRAPH_TAGS:
            continue
        text = _node_text(para)
        if len(text) < 25:
            continue
        points = 1 + text.count(",") + min(len(text) // 100, 3)
        for ancestor, share in ((para.parent, 1.0), (
            para.parent.parent if para.parent is not None else None,
            0.5,
        )):
            if ancestor is None or ancestor.tag in ("#root", "html", "body"):
                continue
            key = id(ancestor)
            if key not in candidates:
                candidates[key] = (ancestor, float(init(ancestor)))
            node, score = candidates[key]
            candidates[key] = (node, score + points * share)
    return candidates


def best_candidate(body: Node) -> Node | None:
    candidates = score_candidates(body)
    best: tuple[float, int, Node] | None = None
    order = {id(n): i for i, n in enumerate(body.iter_nodes())}
    for key, (node, score) in candidates.items():
        text = _node_text(node)
        if not text:
            continue
        link_density = _link_text_len(node) / len(text)
        final = score * (1.0 - link_density)
        rank = (final, -order.get(key, 1 << 30))
        if best is None or rank > (best[0], best[1]):
            best = (rank[0], rank[1], node)
    return best[2] if best else None


@register_extractor("readability", "root")
def readability(root) -> str:
    body = body_or_root(root)
    cand = best_candidate(body)
    if cand is None:
        return ""
    blocks = segment_blocks(cand)
    return "\n".join(
        t for t in (sub_common_entities(b.text()) for b in blocks) if t
    )
