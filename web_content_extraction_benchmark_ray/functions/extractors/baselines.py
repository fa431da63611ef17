"""Baseline extractors (no boilerplate logic).

- ``whole_text``: capability of reference ``extract_bs4``
  (extractors.py:18-23): drop script/style/noscript, space-join all
  remaining text (including <title>).
- ``body_text``: capability of reference ``extract_xpath_text``
  (extractors.py:33-38): body-only text nodes, script/style excluded,
  space-joined with whitespace squeezed.  (Intentional simplification vs
  lxml: formatting-whitespace text nodes are dropped rather than converted
  to newlines; documented deviation.)
"""
from __future__ import annotations

from ..htmlparse import body_or_root
from ..text import squeeze_ws, sub_common_entities
from . import register_extractor

_DROP = frozenset(("script", "style", "noscript"))


def _squeezed_text(node) -> str:
    """Entity-decoded, whitespace-squeezed text runs outside ``_DROP``.  No
    entity spans a joining space, so one squeeze over the joined runs is
    the run-wise squeeze joined by single spaces."""
    return squeeze_ws(sub_common_entities(" ".join(node.text_chunks(_DROP))))


@register_extractor("whole_text", "root")
def whole_text(root) -> str:
    return _squeezed_text(root)


@register_extractor("body_text", "root")
def body_text(root) -> str:
    return _squeezed_text(body_or_root(root))
