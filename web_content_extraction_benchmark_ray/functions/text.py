"""Scalar text functions shared across the engine.

Behavioral parity targets (cited, not copied):
- whitespace tokenizer / word tokenizer: reference ``util.py:44-70``
- common HTML entity substitution:       reference ``extractors/bte.py:76-81``
- whitespace squeezes:                   reference ``extractors.py:37-38``
- SHA-256 content identity:              reference ``dataset_readers.py:74-95``
"""
from __future__ import annotations

import hashlib
import re

_WORD_RE = re.compile(r"\w+", flags=re.UNICODE)


def tokenize_ws(text: str) -> list[str]:
    """Whitespace tokenization; empty/blank input -> [] (util.py:44-57).

    ``str.split()`` is exactly ``re.split(r"\\s+", text.strip())`` for
    every whitespace codepoint (see ``squeeze_ws``) and ~4x faster — this
    runs per token-consuming operator over every document."""
    return text.split()


def tokenize_words(text: str) -> list[str]:
    """Unicode word tokens, non-word chars skipped (util.py:60-70)."""
    return _WORD_RE.findall(text)


def squeeze_ws(text: str) -> str:
    """Collapse all whitespace runs to single spaces and strip.

    ``" ".join(x.split())`` is exactly ``re.sub(r"\\s+", " ", x).strip()``
    for every whitespace codepoint: ``str.split`` and ``\\s`` both split on
    ``str.isspace`` (incl. \\x1c-\\x1f, \\x85, \\xa0, U+2028, U+3000;
    pinned by tests/test_text.py), and the split form runs ~4x faster.
    It is the hottest string call in extraction."""
    return " ".join(text.split())


def sub_common_entities(text: str) -> str:
    """The three entities the reference substitutes, in its order
    (bte.py:76-81).  Each pattern is a literal, so ``str.replace`` gives
    exactly the regex ``sub`` result."""
    return text.replace("&quot;", '"').replace("&nbsp;", " ").replace("&#39;", "'")


def round6(x: float) -> float:
    """floor(x*1e6 + 0.5)/1e6 — the SQL-twin rounding used by every oracle
    (Python round() is half-even, DuckDB round() is half-away; this
    multiply-floor form is bit-identical in both engines)."""
    import math

    return math.floor(x * 1000000 + 0.5) / 1000000


def sha256_hex(data: bytes | str) -> str:
    """Content-hash identity for documents (dataset_readers.py:74-95)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def md5_hex(data: bytes | str) -> str:
    """md5 hex digest — used where the DuckDB oracle needs ``md5()`` parity."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.md5(data).hexdigest()
