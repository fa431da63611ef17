"""Newspaper3k/news-please-class article-metadata extractor, from scratch.

Capability of reference ``extract_news_please`` / ``extract_newspaper3k``
(extractors.py:61-78, which wrap ``NewsPlease.from_html`` and
``newspaper.Article`` — both return structured article objects: title,
authors, publish date and the main text, not just a plaintext string).
Re-derivation of the published extraction design (newspaper3k's
``ContentExtractor`` and news-please's article pipeline, which delegates
body extraction to the same goose/readability cascade family):

- **title**: ``og:title`` meta first (the explicit publisher statement),
  else the ``<title>`` tag with site-name separators stripped (split on
  ``|``/``-``/``–``/``—``/``»``/``::`` surrounded by whitespace, keep the
  longest segment — newspaper3k's ``split_title``), else the longest
  ``<h1>``.
- **byline**: ``author`` / ``article:author`` meta, else the first
  ``rel="author"`` element, else the first element whose class/id names
  it a byline (``byline|author`` pattern) AND whose text is byline-sized
  (≤ ``_BYLINE_MAX_CHARS``) — the size gate keeps an author-named
  CONTAINER (``<div class="author-page">`` wrapping a whole article)
  from returning its entire subtree as the byline; pre-order traversal
  still reaches the short inner element afterwards.
- **pub_date**: ``article:published_time`` meta, else date-named metas
  (``date``, ``pubdate``, ``publish-date``, ``dc.date``), else the first
  ``<time datetime=...>`` attribute.  Returned verbatim (ISO strings in
  the wild); absent -> ''.
- **article_text**: the zone-cascade main-content body
  (``cascade`` over the parsed root — news-please wraps exactly this
  published extractor family for the body).

All fields are '' when absent, never NULL, so the Arrow schema stays
stable and the DuckDB twin hash-compares literal values.
"""
from __future__ import annotations

import re

from ..htmlparse import Node, parse
from ..text import sub_common_entities
from .cascade import cascade

# newspaper3k ``TITLE_SPLITTERS``-style site-name separators: a delimiter
# token surrounded by whitespace (plain '-' only qualifies when spaced,
# so hyphenated words never split).
_TITLE_SEP = re.compile(r"\s+(?:\||-|–|—|\xbb|::)\s+")
_BYLINE_NAME = re.compile(r"byline|author", re.I)
_BYLINE_MAX_CHARS = 100  # a byline is a name line, never a subtree
_DATE_META_NAMES = frozenset(
    ("date", "pubdate", "publish-date", "publish_date", "dc.date",
     "article:published_time", "og:published_time")
)


def _meta_map(root: Node) -> dict[str, str]:
    """property/name -> content for every <meta> in document order
    (first occurrence wins, like newspaper3k's get_metadata)."""
    out: dict[str, str] = {}
    for n in root.iter_nodes():
        if n.tag != "meta":
            continue
        key = (n.attrs.get("property") or n.attrs.get("name") or "").lower()
        content = (n.attrs.get("content") or "").strip()
        if key and content and key not in out:
            out[key] = content
    return out


def _clean(s: str) -> str:
    return sub_common_entities(" ".join(s.split()))


def _title(root: Node, metas: dict[str, str]) -> str:
    og = metas.get("og:title", "")
    if og:
        return _clean(og)
    for t in root.find_all("title"):
        raw = t.text()
        if raw.strip():
            parts = [p for p in _TITLE_SEP.split(raw) if p.strip()]
            best = max(parts, key=len) if parts else raw
            return _clean(best)
    h1s = [h.text() for h in root.find_all("h1")]
    h1s = [h for h in h1s if h.strip()]
    if h1s:
        return _clean(max(h1s, key=len))
    return ""


def _byline(root: Node, metas: dict[str, str]) -> str:
    for key in ("author", "article:author", "og:article:author"):
        if metas.get(key):
            return _clean(metas[key])
    for n in root.iter_nodes():
        if (n.attrs.get("rel") or "").lower() == "author":
            text = n.text()
            if text.strip():
                return _clean(text)
    for n in root.iter_nodes():
        name = (n.attrs.get("class", "") or "") + " " + (
            n.attrs.get("id", "") or ""
        )
        if _BYLINE_NAME.search(name):
            text = n.text()
            if text.strip() and len(text) <= _BYLINE_MAX_CHARS:
                return _clean(text)
    return ""


def _pub_date(root: Node, metas: dict[str, str]) -> str:
    for key in ("article:published_time", "og:published_time"):
        if metas.get(key):
            return metas[key]
    for key, val in metas.items():
        if key in _DATE_META_NAMES and val:
            return val
    for n in root.iter_nodes():
        if n.tag == "time" and (n.attrs.get("datetime") or "").strip():
            return n.attrs["datetime"].strip()
    return ""


def article_from_root(root: Node) -> dict[str, str]:
    """Structured article record: title/byline/pub_date/article_text."""
    metas = _meta_map(root)
    return {
        "title": _title(root, metas),
        "byline": _byline(root, metas),
        "pub_date": _pub_date(root, metas),
        "article_text": cascade(root),
    }


def article(html: str) -> dict[str, str]:
    return article_from_root(parse(html))


__all__ = ["article", "article_from_root"]
