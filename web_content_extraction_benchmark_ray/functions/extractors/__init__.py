"""From-scratch extraction algorithms (reference capability family
``extractors/extractors.py``, re-derived from the published algorithms —
no code copied).

Registry: each extractor registers ONE function under ``name`` together
with the one input it ``takes``:

- ``"html"``: the raw document (``bte`` tokenizes the markup itself);
- ``"root"``: the parsed DOM, read only — no extractor may mutate it;
- ``"blocks"``: ``segment_blocks(body_or_root(root))``;
- ``"page"``: the ``Page`` itself (ensembles read other models' answers).

A ``Page`` resolves those inputs lazily and at most once per document,
so a job whose models all take ``"html"`` never parses, and a job of
many DOM models parses once.  The extraction stage (stages/extract.py)
wraps ``Page.answer`` with the reference's never-fail-the-job semantics
(error -> empty output + error note, reference ``extract.py:106-119``).
"""
from __future__ import annotations

from collections.abc import Callable
from functools import cached_property
from types import MappingProxyType

from .. import htmlparse

_TAKES = ("html", "root", "blocks", "page")
_REGISTRY: dict[str, tuple[str, Callable]] = {}


def register_extractor(name: str, takes: str):
    if takes not in _TAKES:
        raise ValueError(f"takes={takes!r}; expected one of {_TAKES}")

    def deco(fn):
        _REGISTRY[name] = (takes, fn)
        return fn

    return deco


class Page:
    """One document's extractor inputs, each built on first use.

    ``answers`` memoizes successful answers by model name; a raising
    extractor stores nothing, so every later ask re-raises."""

    def __init__(self, html: str):
        self.html = html
        self.answers: dict[str, str] = {}

    @cached_property
    def root(self):
        return htmlparse.parse(self.html)

    @cached_property
    def blocks(self):
        return htmlparse.segment_blocks(htmlparse.body_or_root(self.root))

    def answer(self, name: str) -> str:
        if name not in self.answers:
            takes, fn = _REGISTRY[name]
            arg = self if takes == "page" else getattr(self, takes)
            self.answers[name] = fn(arg) or ""
        return self.answers[name]


def get_extractor(name: str) -> Callable[[str], str]:
    """``html -> plaintext`` form of a registered extractor."""
    _REGISTRY[name]  # unknown names fail here, not per document
    return lambda html: Page(html).answer(name)


def list_extractors() -> list[str]:
    """Reference analogue: ``extractors.py:212-221`` (globals() scan)."""
    return sorted(_REGISTRY)


# import for registration side effects
from . import (  # noqa: E402, F401
    baselines,
    bte,
    cascade,
    density,
    ensemble,
    justext,
    layout,
    leafmodel,
    plaintext,
    readability,
    tagclean,
    topnode,
)

# Read-only view of the entries that take the parsed root or blocks, as
# (takes, fn): the in-process microbench times these over inputs it
# parsed itself.
SHARED_FORMS = MappingProxyType(
    {n: e for n, e in _REGISTRY.items() if e[0] in ("root", "blocks")}
)
