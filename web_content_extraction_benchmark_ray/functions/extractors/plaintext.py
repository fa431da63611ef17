"""Resiliparse-class main-content plain-text extractor — the E9
capability class (reference ``extractors/extractors.py:69-78``, which
wraps resiliparse ``extract_plain_text(main_content=True,
preserve_formatting=True, list_bullets=False, comments=False,
links=False, alt_texts=False)``).

From-scratch re-derivation of the published main-content plain-text
semantics (the Resiliparse/ChatNoir fast HTML-scan family):

- non-displayed subtrees never render (script/style/noscript/head/
  title/template);
- ``main_content=True``: semantic boilerplate SECTIONS are pruned
  whole — ``nav``/``aside``/``footer``/``header``/``form`` — plus any
  element whose class/id matches the negative boilerplate name
  patterns shared with the trafilatura-class cascade extractor
  (comment/sidebar/footer/nav/widget/...; one pattern, one semantics);
- ``preserve_formatting=True``: block-level elements start a new line
  and table rows are one line each (cells flow space-separated);
- ``list_bullets=False``: list items get NO '* ' marker — the one
  rendering difference from the inscriptis-class ``layout`` extractor,
  whose bullets are on;
- ``links=False`` / ``alt_texts=False``: href targets and alt texts
  are never emitted (anchor TEXT still renders when its container
  survives the prune).

This differs from the other whole-page extractors by CONSTRUCTION, not
by parameter: ``layout`` renders everything displayed (format class),
``tagclean`` strips a tag blacklist but keeps headers/comments (cleaner
class), ``cascade`` SELECTS one zone (zone-picker class) — this one
renders the whole DOM minus pruned boilerplate sections (main-content
scan class).  On the provable page template the header (h1+nav), aside,
comments div and footer are all pruned, so the expected output is
exactly the main paragraphs newline-joined — the same SQL twin as the
zone extractors (pipelines/oracles.py).

Non-mutating (prune decisions are made during the walk), so it reads
the page's one shared parse.
"""
from __future__ import annotations

from ..htmlparse import Node
from . import register_extractor
from .cascade import _NEGATIVE_ZONE, _name_str
from .layout import _SKIP as _LAYOUT_SKIP
from .layout import render_blocks

_SKIP = _LAYOUT_SKIP | {"template"}
_PRUNE_TAGS = frozenset(("nav", "aside", "footer", "header", "form"))


def _pruned(node: Node) -> bool:
    if node.tag in _PRUNE_TAGS:
        return True
    name = _name_str(node)
    return bool(name.strip()) and bool(_NEGATIVE_ZONE.search(name))


@register_extractor("plaintext", "root")
def plaintext(root) -> str:
    """The layout renderer's walker with the main-content prune predicate
    and list bullets off."""
    return render_blocks(root, skip=_SKIP, prune=_pruned, li_prefix="")
