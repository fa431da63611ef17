"""Goose3-class stopword-gravity top-node extractor, from scratch.

Capability of reference ``extract_goose3`` (extractors.py:99-106, which
wraps goose3's ``Goose().extract`` article pipeline).  Re-derivation of
the published Goose/Gravity "calculate best node" algorithm (the
python-goose / goose3 content-extraction family):

- every paragraph-ish node (``p``/``pre``/``td``) with at least
  ``BOOST_MIN_STOPWORDS`` stopwords and acceptable link density is a
  "boostable" gravity paragraph; it votes its stopword count onto its
  parent and half onto its grandparent;
- the node with the highest accumulated gravity score is the article's
  top node (document order breaks ties);
- *previous* siblings of the top node whose own gravity score reaches
  ``SIBLING_SCORE_FRACTION`` of the top score are prepended (Goose's
  ``add_siblings`` step walks ``previous_siblings`` only);
- the output is the text of the qualifying paragraphs of the merged
  node set, in document order.

Non-mutating (scoring + traversal only), so it reads the page's one
shared parse.
"""
from __future__ import annotations

from ..htmlparse import Node, body_or_root
from ..text import squeeze_ws, tokenize_ws
from . import register_extractor
from .readability import _DROP
from .stoplist import is_stopword

_PARA_TAGS = frozenset(("p", "pre", "td"))
BOOST_MIN_STOPWORDS = 2
MAX_LINK_DENSITY = 1.0 / 3.0
SIBLING_SCORE_FRACTION = 0.3

def node_text(node: Node) -> str:
    return squeeze_ws(" ".join(node.text_chunks(skip_tags=_DROP)))


def link_text_len(node: Node) -> int:
    return sum(len(node_text(a)) for a in node.find_all("a"))


def _stopword_count(text: str) -> int:
    return sum(map(is_stopword, tokenize_ws(text)))


def _is_gravity_para(node: Node) -> tuple[bool, str]:
    """(boostable, squeezed text) for one paragraph-ish node."""
    text = node_text(node)
    if not text:
        return False, text
    if _stopword_count(text) < BOOST_MIN_STOPWORDS:
        return False, text
    if link_text_len(node) / len(text) > MAX_LINK_DENSITY:
        return False, text
    return True, text


def gravity_scores(body: Node) -> dict[int, tuple[Node, float, int]]:
    """id(node) -> (node, score, first document position)."""
    # body/html are not in the descendant order map; they must LOSE score
    # ties to any specific inner container, so absent keys sort last
    order = {id(n): i for i, n in enumerate(body.iter_nodes())}
    _LAST = 1 << 30
    scores: dict[int, tuple[Node, float, int]] = {}
    for p in body.iter_nodes():
        if p.tag not in _PARA_TAGS:
            continue
        boost, text = _is_gravity_para(p)
        if not boost:
            continue
        sw = _stopword_count(text)
        for ancestor, share in (
            (p.parent, 1.0),
            (p.parent.parent if p.parent is not None else None, 0.5),
        ):
            if ancestor is None or ancestor.tag == "#root":
                continue
            key = id(ancestor)
            node, score, pos = scores.get(
                key, (ancestor, 0.0, order.get(key, _LAST))
            )
            scores[key] = (node, score + sw * share, pos)
    return scores


def best_top_node(body: Node) -> tuple[Node | None, float, dict]:
    scores = gravity_scores(body)
    best: tuple[float, int, Node] | None = None
    for node, score, pos in scores.values():
        rank = (score, -pos)
        if best is None or rank > (best[0], best[1]):
            best = (score, -pos, node)
    if best is None:
        return None, 0.0, scores
    return best[2], best[0], scores


def _emit_paras(node: Node) -> list[str]:
    nodes = [node] if node.tag in _PARA_TAGS else []
    nodes.extend(n for n in node.iter_nodes() if n.tag in _PARA_TAGS)
    out = []
    emitted: set[int] = set()
    for p in nodes:
        # a para-ish node nested inside an emitted one (<td><p>..) would
        # duplicate its text — the outer node already carries it
        anc = p.parent
        nested = False
        while anc is not None and anc is not node.parent:
            if id(anc) in emitted:
                nested = True
                break
            anc = anc.parent
        if nested:
            continue
        boost, text = _is_gravity_para(p)
        if boost:
            emitted.add(id(p))
            out.append(text)
    return out


@register_extractor("topnode", "root")
def topnode(root: Node) -> str:
    body = body_or_root(root)
    top, top_score, scores = best_top_node(body)
    if top is None:
        return ""
    members: list[Node] = []
    if top.parent is not None:
        for sib in top.parent.children:  # document order, stop at top
            if isinstance(sib, Node) and sib is top:
                break
            if not isinstance(sib, Node):
                continue
            entry = scores.get(id(sib))
            if entry is not None and entry[1] >= SIBLING_SCORE_FRACTION * top_score:
                members.append(sib)
    members.append(top)
    paras: list[str] = []
    for m in members:
        paras.extend(_emit_paras(m))
    return "\n".join(paras)
