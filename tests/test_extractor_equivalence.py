"""Property tests: each cheaper extraction primitive equals the form it
replaced, which is restated here as the reference.

- ``squeeze_ws`` (``str.split`` + join) vs ``re.sub(r"\\s+", " ", x).strip()``;
- ``is_stopword`` (cached) vs the per-word regex strip, also after the
  cache has evicted entries;
- ``parse`` (one match per tag plus its text) and ``segment_blocks``
  (child-iterator frames) vs the event-tuple tokenizer and tuple-stack
  walk;
- readability's ``text_stats`` vs the string forms ``node_text`` /
  ``link_text_len``;
- bte's run-based ``_runs`` / ``_paragraphs`` and its break-tag regex vs
  the per-token loops and the ``^<([^\\s>]+)`` name rule.
"""
from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from web_content_extraction_benchmark_ray.functions import htmlparse
from web_content_extraction_benchmark_ray.functions.extractors import bte
from web_content_extraction_benchmark_ray.functions.extractors.readability import (
    _text_len,
    text_stats,
)
from web_content_extraction_benchmark_ray.functions.extractors.stoplist import (
    ENGLISH_STOPWORDS,
    is_stopword,
)
from web_content_extraction_benchmark_ray.functions.extractors.topnode import (
    link_text_len,
    node_text,
)
from web_content_extraction_benchmark_ray.functions.text import squeeze_ws

WHITESPACE = "".join(chr(c) for c in range(0x110000) if chr(c).isspace())
STOPWORDS = sorted(ENGLISH_STOPWORDS)

# ------------------------------------------------------------ references
_OLD_WS = re.compile(r"\s+", flags=re.UNICODE | re.MULTILINE)
_OLD_STRIP_PUNCT = re.compile(r"^\W+|\W+$", re.UNICODE)


def old_squeeze_ws(text: str) -> str:
    return _OLD_WS.sub(" ", text).strip()


def old_is_stopword(word: str) -> bool:
    return _OLD_STRIP_PUNCT.sub("", word).lower() in ENGLISH_STOPWORDS


_OLD_TOKEN_RE = re.compile(
    r"""
    <!--.*?(?:-->|$)
  | <!\[CDATA\[.*?(?:\]\]>|$)
  | <![^>]*>
  | <\?[^>]*>
  | </\s*([a-zA-Z][a-zA-Z0-9:-]*)[^>]*>
  | <\s*([a-zA-Z][a-zA-Z0-9:-]*)((?:[^>"']|"[^"]*"|'[^']*')*)(/?)>
  | <[a-zA-Z/!?][^>]*$
  | [^<]+
  | <
    """,
    re.DOTALL | re.VERBOSE,
)


def old_tokenize(html: str):
    pos, n = 0, len(html)
    while pos < n:
        m = _OLD_TOKEN_RE.match(html, pos)
        tok = m.group(0)
        pos = m.end()
        if m.group(2):
            name = m.group(2).lower()
            selfclose = bool(m.group(4)) or name in htmlparse.VOID_TAGS
            yield ("open", name, m.group(3) or "", selfclose)
            if not selfclose and name in htmlparse.RAW_TEXT_TAGS:
                em = re.compile(rf"</\s*{name}\s*>", re.IGNORECASE).search(html, pos)
                if em is None:
                    yield ("text", html[pos:])
                    yield ("close", name)
                    pos = n
                else:
                    yield ("text", html[pos : em.start()])
                    yield ("close", name)
                    pos = em.end()
        elif m.group(1):
            yield ("close", m.group(1).lower())
        elif tok.startswith("<") and len(tok) > 1:
            continue
        else:
            yield ("text", tok)


def old_parse(html: str):
    """Nested-tuple tree ``(tag, attr_str, children)`` of the old parser."""
    root = ("#root", "", [])
    cur, stack = root, [root]
    for ev in old_tokenize(html):
        if ev[0] == "text":
            if ev[1]:
                cur[2].append(ev[1])
        elif ev[0] == "open":
            node = (ev[1], ev[2], [])
            cur[2].append(node)
            if not ev[3]:
                stack.append(node)
                cur = node
        else:
            for i in range(len(stack) - 1, 0, -1):
                if stack[i][0] == ev[1]:
                    del stack[i:]
                    cur = stack[-1]
                    break
    return root


def shape(node):
    kids = [c if isinstance(c, str) else shape(c) for c in node.children]
    return (node.tag, node.attr_str, kids)


def old_segment_blocks(root, skip_tags=htmlparse.RAW_TEXT_TAGS):
    """(text, link chars, heading, dom path) per block, old tuple walk."""
    blocks = []
    cur = {"texts": [], "link": 0, "head": False, "path": ""}

    def flush(path):
        nonlocal cur
        text = old_squeeze_ws(" ".join(cur["texts"]))
        if text:
            blocks.append((text, cur["link"], cur["head"], cur["path"]))
        cur = {"texts": [], "link": 0, "head": False, "path": path}

    stack = [(isinstance(c, str), c, 0, 0, "", False) for c in reversed(root.children)]
    while stack:
        is_text, c, link, head, path, is_flush = stack.pop()
        if is_flush:
            flush(path)
            continue
        if is_text:
            s = c.strip()
            if s:
                cur["head"] = cur["head"] or bool(head)
                cur["texts"].append(s)
                if link:
                    cur["link"] += len(re.sub(r"\s+", " ", s))
            continue
        if c.tag in skip_tags:
            continue
        npath = path + "/" + c.tag
        if c.tag in htmlparse.BLOCK_TAGS:
            flush(npath)
            stack.append((False, None, 0, 0, path, True))
        for ch in reversed(c.children):
            stack.append((isinstance(ch, str), ch, link + (c.tag == "a"),
                          head + (c.tag in ("h1", "h2", "h3", "h4", "h5", "h6")),
                          npath, False))
    flush("")
    return blocks


_OLD_TAG_NAME = re.compile(r"^<([^\s>]+)")
_BREAK_NAMES = frozenset(
    ("p", "div", "hr", "blockquote", "table", "h1", "h2", "h3", "li")
)


def old_is_break(tok: str) -> bool:
    m = _OLD_TAG_NAME.match(tok)
    return bool(m) and m.group(1).lower() in _BREAK_NAMES


def old_runs(tokens):
    runs, prev, acc = [], 0, 0
    for i, tok in enumerate(tokens):
        val = -1 if tok.startswith("<") else 1
        if prev and val != prev:
            runs.append((i - 1, acc))
            acc = 0
        acc += val
        prev = val
    runs.append((len(tokens) - 1, acc))
    return runs


def old_paragraphs(tokens):
    pars, cur, in_par = [], [], False
    for tok in tokens:
        if not tok.startswith("<"):
            cur.append(tok)
            in_par = True
            continue
        if in_par and old_is_break(tok):
            if cur:
                pars.append(" ".join(cur))
                cur = []
            in_par = False
    if cur:
        pars.append(" ".join(cur))
    return pars


# ------------------------------------------------------------ strategies
ws_text = st.text(
    alphabet=st.sampled_from(WHITESPACE + "ab,.é東"), max_size=60
)
punct = st.sampled_from(list("_-.,;:!?'\"()[]{}«»¿…—") + ["", "__", "..."])
stopword_ish = st.builds(
    lambda pre, w, case, post: pre + case(w) + post,
    punct,
    st.sampled_from(STOPWORDS + ["naïve", "ΘΕΟΣ", "straße", "東京", "x1", "_"]),
    st.sampled_from([str, str.upper, str.title, lambda w: w[:1].upper() + w[1:]]),
    punct,
)
FRAGMENTS = (
    "<p>", "</p>", "<P>", "<p/>", "< p>", "<div class='content'>", "</div>",
    "<Div id=\"main\">", "<a href='/x'>", "</a>", "<A>", "<h2>", "</h2>",
    "<td>", "<tr>", "<table>", "</table>", "<li>", "<ul>", "</ul>", "<pre>",
    "<noscript>", "</noscript>", "<script>", "</script>", "</ script >",
    "<SCRIPT>", "<style>", "</style>", "<textarea>", "</textarea>", "<br>",
    "<br/>", "<img src=x/>", "<body>", "</body>", "<html>", "<span>",
    "</span>", "<!--", "-->", "<![CDATA[", "]]>", "<!DOCTYPE html>", "<?x?>",
    "<", ">", "<>", "</", "<a", "&nbsp;", "&quot;", "&#39;", ",", "the",
    "The, ", "of", " and ", "data", "x", "\n", " ", "\xa0", "\x1c", "　",
    " ", "\x85",
)
html_soup = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), stopword_ish), max_size=50
).map("".join)


# ------------------------------------------------------------ properties
@given(st.one_of(ws_text, st.text(max_size=60)))
@settings(max_examples=400, deadline=None)
def test_squeeze_ws_is_the_regex_squeeze(x):
    assert squeeze_ws(x) == old_squeeze_ws(x)


def test_squeeze_ws_on_every_whitespace_codepoint():
    for c in WHITESPACE:
        assert squeeze_ws(f"{c}a{c}{c}b{c}") == old_squeeze_ws(f"{c}a{c}{c}b{c}") == "a b"


@given(st.one_of(stopword_ish, st.text(max_size=12)))
@settings(max_examples=500, deadline=None)
def test_is_stopword_is_the_regex_strip(w):
    assert is_stopword(w) == old_is_stopword(w)


def test_is_stopword_stays_right_after_eviction():
    words = [f"{p}{w}{s}" for w in STOPWORDS[:20] for p in ("", "(", "_")
             for s in ("", ",", "...")] + ["data", "Tables!", "naïve"]
    first = [is_stopword(w) for w in words]
    size = is_stopword.cache_info().maxsize
    for i in range(size + 10):  # evicts every entry above
        is_stopword(f"w{i}")
    assert is_stopword.cache_info().currsize == size
    assert [is_stopword(w) for w in words] == first
    assert first == [old_is_stopword(w) for w in words]


@given(html_soup)
@settings(max_examples=400, deadline=None)
def test_parse_builds_the_old_tree(html):
    assert shape(htmlparse.parse(html)) == old_parse(html)


@given(html_soup)
@settings(max_examples=300, deadline=None)
def test_segment_blocks_is_the_old_walk(html):
    root = htmlparse.parse(html)
    for node in (root, htmlparse.body_or_root(root)):
        got = [(b.text(), b.link_chars, b.is_heading, b.dom_path)
               for b in htmlparse.segment_blocks(node)]
        assert got == old_segment_blocks(node)


@given(html_soup)
@settings(max_examples=300, deadline=None)
def test_text_stats_match_the_string_forms(html):
    root = htmlparse.parse(html)
    stats: dict = {}
    for node in [root, *root.iter_nodes()]:
        stat = text_stats(node, stats)
        text = node_text(node)
        assert _text_len(stat) == len(text)
        assert stat[2] == text.count(",")
        assert stat[3] == link_text_len(node)


@given(html_soup)
@settings(max_examples=300, deadline=None)
def test_bte_runs_and_paragraphs_are_the_token_loops(html):
    tokens = bte._tokenize(bte._preclean(html))
    if tokens:
        assert bte._runs(tokens) == old_runs(tokens)
    assert bte._paragraphs(tokens) == old_paragraphs(tokens)


@given(st.text(max_size=8), st.sampled_from(["", ">", " >", "\x1c>", "/>"]))
@settings(max_examples=500, deadline=None)
def test_bte_break_tag_regex_is_the_name_rule(name, tail):
    for tok in (f"<{name}{tail}", f"<{name.upper()}{tail}",
                *(f"<{b}{tail}" for b in _BREAK_NAMES),
                *(f"<{b.upper()}{name}{tail}" for b in _BREAK_NAMES)):
        if re.fullmatch(r"<[^>]+>", tok):  # a bte tag token
            assert bool(bte._BREAK_TAG.match(tok)) == old_is_break(tok), tok


def test_bte_break_tag_regex_skips_non_ascii_case_folds():
    # re.I would let 'i' match U+0130/U+0131 and 'k' match U+212A;
    # str.lower() maps none of them to an ASCII break-tag name
    for tok in ("<lİ>", "<lı>", "<dİv>", "<dıv>", "<Lİ >", "<tablе>", "<LI>",
                "<Li\x1c>", "<h1/>", "<p/>", "</p>", "<pre>"):
        assert bool(bte._BREAK_TAG.match(tok)) == old_is_break(tok), tok
