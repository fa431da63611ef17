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


@register_extractor("whole_text", "root")
def whole_text(root) -> str:
    parts = [
        squeeze_ws(sub_common_entities(t))
        for t in root.text_chunks(skip_tags=_DROP)
    ]
    return " ".join(p for p in parts if p)


@register_extractor("body_text", "root")
def body_text(root) -> str:
    body = body_or_root(root)
    parts = [
        squeeze_ws(sub_common_entities(t))
        for t in body.text_chunks(skip_tags=_DROP)
    ]
    return " ".join(p for p in parts if p)
