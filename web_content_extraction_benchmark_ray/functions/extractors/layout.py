"""Layout-aware HTML→text rendering — the E7 (inscriptis) capability
class (reference ``extractors/extractors.py:58-61``): a whole-page
baseline whose value is FORMAT, not boilerplate removal — text is laid
out the way a terminal browser would show it.

From-scratch rendering conventions (documented, unit-tested):

- block-level elements start a new line; consecutive blank lines collapse;
- ``<li>`` lines get a ``"* "`` bullet (inscriptis's default list marker);
- ``<br>`` breaks the line;
- table rows are one line each, cells flowing space-separated;
- ``script``/``style``/``noscript`` and the ``<head>`` subtree are not
  rendered (not displayed content);
- inline whitespace is squeezed; common entities decoded.
"""
from __future__ import annotations

from ..htmlparse import BLOCK_TAGS
from ..text import squeeze_ws, sub_common_entities
from . import register_extractor

_SKIP = frozenset(("script", "style", "noscript", "head", "title"))
# cells flow inside their row's line; the row itself is the line break
_INLINE_BLOCKS = frozenset(("td", "th"))
_LINE_TAGS = BLOCK_TAGS - _INLINE_BLOCKS


def render_blocks(root, skip=_SKIP, prune=None, li_prefix: str = "* ") -> str:
    """Shared block-per-line DOM renderer: the layout extractor renders
    everything displayed with bullets; the resiliparse-class plaintext
    extractor reuses this walker with a prune predicate and bullets off
    (one line-assembly implementation, two rendering policies)."""
    lines: list[str] = []
    cur: list[str] = []

    def flush(prefix: str = "") -> None:
        line = squeeze_ws(" ".join(cur))
        cur.clear()
        if line:
            lines.append(prefix + line)

    def walk(node) -> None:
        for c in node.children:
            if isinstance(c, str):
                if c.strip():
                    cur.append(c)
                continue
            tag = c.tag
            if tag in skip or (prune is not None and prune(c)):
                continue
            if tag == "br":
                flush()
            elif tag in _LINE_TAGS:
                flush()
                walk(c)
                flush(li_prefix if tag == "li" else "")
            else:
                walk(c)

    walk(root)
    flush()
    return sub_common_entities("\n".join(lines))


@register_extractor("layout", "root")
def layout(root) -> str:
    return render_blocks(root)
