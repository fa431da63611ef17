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
from ..text import sub_common_entities
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


def text_stats(node: Node, stats: dict[int, tuple[int, int, int, int]]) -> tuple:
    """(chars, words, commas, link chars) of ``node``, memoized in ``stats``
    by ``id`` together with every descendant it had to measure, in one
    bottom-up pass over the unmeasured part of the subtree.

    A node's text is its text runs outside ``_DROP`` subtrees, whitespace
    squeezed (``topnode.node_text``): its words joined by single spaces, so
    its length is ``chars + words - 1`` (0 for no words) and it holds
    ``commas`` commas.  The link chars are that length summed over every
    descendant ``a``, including those under a dropped subtree
    (``topnode.link_text_len``)."""
    todo = [node]
    stack = [node]
    while stack:
        for c in stack.pop().children:
            if not isinstance(c, str) and id(c) not in stats:
                todo.append(c)
                stack.append(c)
    for n in reversed(todo):  # children before their parent
        chars = words = commas = links = 0
        for c in n.children:
            if isinstance(c, str):
                ws = c.split()
                if ws:
                    words += len(ws)
                    chars += sum(map(len, ws))
                    commas += c.count(",")
                continue
            cc, cw, ccm, cl = stats[id(c)]
            links += cl
            if c.tag == "a" and cw:
                links += cc + cw - 1
            if c.tag not in _DROP:
                chars += cc
                words += cw
                commas += ccm
        stats[id(n)] = (chars, words, commas, links)
    return stats[id(node)]


def _text_len(stat: tuple[int, int, int, int]) -> int:
    return stat[0] + stat[1] - 1 if stat[1] else 0


def best_candidate(body: Node) -> Node | None:
    """One pre-order walk of ``body`` gives the document order and the
    paragraphs; ``text_stats`` measures each paragraph and candidate once,
    reusing what the nodes below it already measured."""
    nodes = list(body.iter_nodes())
    stats: dict[int, tuple[int, int, int, int]] = {}
    candidates: dict[int, tuple[Node, float]] = {}
    for para in nodes:
        if para.tag not in _PARAGRAPH_TAGS:
            continue
        stat = text_stats(para, stats)
        length = _text_len(stat)
        if length < 25:
            continue
        points = 1 + stat[2] + min(length // 100, 3)
        for ancestor, share in ((para.parent, 1.0), (
            para.parent.parent if para.parent is not None else None,
            0.5,
        )):
            if ancestor is None or ancestor.tag in ("#root", "html", "body"):
                continue
            key = id(ancestor)
            if key not in candidates:
                prior = _TAG_PRIOR.get(ancestor.tag, 0) + _class_weight(ancestor)
                candidates[key] = (ancestor, float(prior))
            node, score = candidates[key]
            candidates[key] = (node, score + points * share)
    order = {id(n): i for i, n in enumerate(nodes)}
    best: tuple[float, int, Node] | None = None
    for key, (node, score) in candidates.items():
        stat = text_stats(node, stats)
        length = _text_len(stat)
        if not length:
            continue
        link_density = stat[3] / length
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
