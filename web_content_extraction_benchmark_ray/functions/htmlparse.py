"""From-scratch, dependency-free HTML tokenizer and lightweight DOM.

The reference relies on third-party parsers (resiliparse HTMLTree, bs4,
lxml — e.g. ``extractors/extractors.py:18-23,33-38,109-143``).  This engine
re-implements the minimal parsing capability those extractors actually use:

- single-pass regex tokenization into tags / text / comments, with raw-text
  handling for ``script``/``style``/``textarea`` (CDATA-like semantics),
- a forgiving tree builder (auto-closing of mis-nested tags, void elements,
  stray close tags ignored) so pathological documents never raise,
- the traversals the extractors need: text collection with tag exclusion,
  per-tag counting, subtree dropping, block segmentation.

Everything is pure Python but regex-driven (the scan itself runs in C); the
hot path applies it per document inside ``map_batches`` batches.
"""
from __future__ import annotations

import re

from .text import squeeze_ws

VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)
RAW_TEXT_TAGS = frozenset(("script", "style", "textarea"))

# Block-level tags: used for block segmentation (jusText/density-style
# paragraph making) and for newline insertion on text rendering.  Mirrors the
# block-tag notion in the reference's CSS-selector truth extraction
# (dataset_readers.py:282-298) and bte.py's paragraph tags (bte.py:148-153).
BLOCK_TAGS = frozenset(
    (
        "address article aside blockquote body center dd details dir div dl dt "
        "fieldset figcaption figure footer form h1 h2 h3 h4 h5 h6 header hgroup "
        "hr html isindex li main menu nav noframes noscript ol p pre section "
        "table tbody td tfoot th thead tr ul"
    ).split()
)

# One alternative per token kind; a tag carries the text run after it, so
# one match is one tag plus its text.  ``Match.lastindex`` names the kind:
# 2 close tag (name 1, text 2), 6 open tag (name 3, attributes 4,
# self-close 5, text 6), 7 text run, 8 stray '<' (text); None for a
# comment, declaration, processing instruction or a tag truncated at EOF,
# which are dropped.
_TOKEN_RE = re.compile(
    r"""
    </\s*([a-zA-Z][a-zA-Z0-9:-]*)[^>]*>([^<]*)   # close tag, text after
  | <\s*([a-zA-Z][a-zA-Z0-9:-]*)((?:[^>"']|"[^"]*"|'[^']*')*)(/?)>([^<]*)  # open tag, text after
  | ([^<]+)                       # text run
  | <!--.*?(?:-->|$)              # comment
  | <!\[CDATA\[.*?(?:\]\]>|$)     # cdata
  | <![^>]*>                      # doctype / declaration
  | <\?[^>]*>                     # processing instruction
  | <[a-zA-Z/!?][^>]*$            # truncated tag at EOF (dropped, HTML5-style)
  | (<)                           # stray '<'
    """,
    re.DOTALL | re.VERBOSE,
)
_CLOSE, _OPEN = 2, 6
_RAW_TEXT_END = {
    t: re.compile(rf"</\s*{t}\s*>", re.IGNORECASE) for t in RAW_TEXT_TAGS
}

_ATTR_RE = re.compile(
    r"""([a-zA-Z_:][-a-zA-Z0-9_:.]*)\s*(?:=\s*("[^"]*"|'[^']*'|[^\s>]*))?""",
)


def parse_attrs(attr_str: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for m in _ATTR_RE.finditer(attr_str):
        name = m.group(1).lower()
        val = m.group(2) or ""
        if val[:1] in ("'", '"'):
            val = val[1:-1]
        out.setdefault(name, val)
    return out


class Node:
    """One element (or the synthetic root).  ``children`` holds ``Node`` or
    ``str`` (text) entries, in document order."""

    __slots__ = ("tag", "attr_str", "children", "parent", "_attrs")

    def __init__(self, tag: str, attr_str: str = "", parent: "Node | None" = None):
        self.tag = tag
        self.attr_str = attr_str
        self.children: list = []
        self.parent = parent
        self._attrs: dict | None = None

    @property
    def attrs(self) -> dict[str, str]:
        if self._attrs is None:
            self._attrs = parse_attrs(self.attr_str) if self.attr_str else {}
        return self._attrs

    def iter_nodes(self):
        """Depth-first pre-order over element nodes (excluding self).  The
        stack holds one children iterator per open level, so no child list
        is copied."""
        stack = [iter(self.children)]
        while stack:
            for c in stack[-1]:
                if c.__class__ is Node:
                    yield c
                    stack.append(iter(c.children))
                    break
            else:
                stack.pop()

    def find_all(self, tag: str) -> list["Node"]:
        return [n for n in self.iter_nodes() if n.tag == tag]

    def count_tags(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for n in self.iter_nodes():
            counts[n.tag] = counts.get(n.tag, 0) + 1
        return counts

    def drop_tags(self, tags) -> None:
        """Remove all subtrees whose root tag is in ``tags`` (in place)."""
        tags = frozenset(tags)
        stack = [self]
        while stack:
            node = stack.pop()
            kept = []
            for c in node.children:
                if isinstance(c, Node):
                    if c.tag in tags:
                        continue
                    stack.append(c)
                kept.append(c)
            node.children = kept

    def text_chunks(self, skip_tags=RAW_TEXT_TAGS):
        """Yield raw text runs in document order, skipping ``skip_tags``
        subtrees."""
        skip = frozenset(skip_tags)
        stack = [iter(self.children)]
        while stack:
            for c in stack[-1]:
                if isinstance(c, str):
                    yield c
                elif c.tag not in skip:
                    stack.append(iter(c.children))
                    break
            else:
                stack.pop()

    def text(self, separator: str = " ", skip_tags=RAW_TEXT_TAGS) -> str:
        """Stripped text runs joined by ``separator`` — semantics of the
        reference's whole-text baselines (bs4 ``get_text(separator=' ',
        strip=True)``, extractors.py:18-23)."""
        parts = [s for s in (t.strip() for t in self.text_chunks(skip_tags)) if s]
        return separator.join(parts)


def parse(html: str) -> Node:
    """Build a forgiving DOM in one regex scan.  Mis-nested close tags pop
    to the nearest matching open element; unmatched close tags are
    ignored; everything left open at EOF is implicitly closed.  A raw-text
    element's (script/style/textarea) body is one text child, up to its
    close tag or EOF."""
    root = Node("#root")
    cur = root
    open_stack = [root]
    pos = 0
    n = len(html)
    while pos < n:
        # one scan per raw-text element: it restarts after the close tag
        restart = n
        for m in _TOKEN_RE.finditer(html, pos):
            kind = m.lastindex
            if kind == _OPEN:
                name = m[3].lower()
                node = Node(name, m[4], cur)
                cur.children.append(node)
                if not (m[5] or name in VOID_TAGS):
                    if name in RAW_TEXT_TAGS:  # the text after is its body
                        end = _RAW_TEXT_END[name].search(html, m.start(6))
                        body = html[m.start(6) : end.start() if end else n]
                        if body:
                            node.children.append(body)
                        restart = end.end() if end else n
                        break
                    open_stack.append(node)
                    cur = node
            elif kind == _CLOSE:
                name = m[1].lower()
                if cur.tag == name:  # the common, well-nested case
                    open_stack.pop()
                    cur = open_stack[-1]
                else:
                    for i in range(len(open_stack) - 2, 0, -1):
                        if open_stack[i].tag == name:
                            del open_stack[i:]
                            cur = open_stack[-1]
                            break
            elif kind is None:
                continue
            if m[kind]:  # the text run, or the text after a tag
                cur.children.append(m[kind])
        pos = restart
    return root


def body_or_root(root: Node) -> Node:
    for n in root.iter_nodes():
        if n.tag == "body":
            return n
    return root


class Block:
    """A text block for block-classifier extractors: accumulated text plus
    character counts attributed to links and headings."""

    __slots__ = ("texts", "link_chars", "is_heading", "dom_path", "_text_cache")

    def __init__(self, dom_path: str = ""):
        self.texts: list[str] = []
        self.link_chars = 0
        self.is_heading = False
        self.dom_path = dom_path
        self._text_cache: str | None = None

    def text(self) -> str:
        # Cached: a Block is finalized at flush() and text() is re-read by
        # every block classifier afterwards.
        if self._text_cache is None:
            self._text_cache = squeeze_ws(" ".join(self.texts))
        return self._text_cache


_HEADING_TAGS = frozenset(("h1", "h2", "h3", "h4", "h5", "h6"))


def segment_blocks(root: Node, skip_tags=RAW_TEXT_TAGS) -> list[Block]:
    """Split the document into text blocks at block-level tag boundaries,
    tracking link-character counts — the segmentation jusText-style and
    density-style classifiers consume (capability of reference E12/E2,
    extractors.py:91-96 / 26-30, re-derived from the published algorithms).
    """
    skip = frozenset(skip_tags)
    blocks: list[Block] = []
    cur: Block | None = None  # made on the block's first text run
    cur_path = ""

    def flush(path: str):
        nonlocal cur, cur_path
        if cur is not None:
            blocks.append(cur)
            cur = None
        cur_path = path

    # DFS over frames (children iterator, link depth, heading depth, path,
    # exit path): a block-level element flushes both when it is entered and,
    # at its frame's exit path, when it is left.
    stack = [(iter(root.children), 0, 0, "", None)]
    while stack:
        children, link_depth, heading_depth, path, exit_path = stack[-1]
        for c in children:
            if isinstance(c, str):
                s = c.strip()
                if s:
                    if cur is None:
                        cur = Block(cur_path)
                    if heading_depth:
                        cur.is_heading = True
                    cur.texts.append(s)
                    if link_depth:
                        cur.link_chars += len(squeeze_ws(s))
                continue
            tag = c.tag
            if tag in skip:
                continue
            npath = path + "/" + tag
            if tag in BLOCK_TAGS:
                flush(npath)
            stack.append(
                (
                    iter(c.children),
                    link_depth + (tag == "a"),
                    heading_depth + (tag in _HEADING_TAGS),
                    npath,
                    path if tag in BLOCK_TAGS else None,
                )
            )
            break
        else:
            stack.pop()
            if exit_path is not None:
                flush(exit_path)
    if cur is not None:
        blocks.append(cur)
    return blocks
