"""Corpus readers: normalize heterogeneous annotated-corpus layouts into
the engine's documents/ground-truth shape.

Capability family of the reference's eight ``DatasetReader`` subclasses
(``/root/reference/src/extraction_benchmark/dataset_readers.py:135-342``):
each corpus ships as a directory tree pairing raw HTML with ground truth
in a format-specific way; a reader yields ``(page_id, record)`` with
``page_id`` = SHA-256 of the raw page bytes (stable across machines) and
``record`` containing ``html`` or (for ground truth) ``plaintext``.

Representative formats re-implemented from scratch:

- ``wrapped``   (CleanEval-style, S2/S3): ``orig/*.html`` wrapped in a
  ``<text>`` envelope; truth ``clean/*.txt`` with a leading ``URL:`` line.
- ``paired``    (Dragnet-style, S4): ``HTML/x.html`` + truth
  ``Corrected/x.html.corrected.txt`` matched on the double-splitext stem.
- ``selector``  (L3S-GN1-style, S8/S9): truth is embedded IN the page —
  elements whose class contains a marker; leaf-text extraction with
  newline insertion at block-tag boundaries.
- ``jsontruth`` (ScrapingHub-style, S7): one ``ground-truth.json`` with
  ``articleBody`` per case + (possibly gzipped) HTML files; ids hash the
  DECOMPRESSED bytes so gzip recompression never changes identity.

``read_corpus`` is the S11 dispatch registry; ``corpus_to_dataset`` lifts
any reader's stream into a ray.data Dataset with the engine's schema.
"""
from __future__ import annotations

import json
import os
from collections.abc import Iterator

from ..functions.htmlparse import parse
from ..functions.text import sha256_hex, squeeze_ws
from .ingest import decode_page_bytes, maybe_gunzip

BLOCK_TAGS_NL = frozenset(
    "address article aside blockquote details dialog dd div dl dt fieldset "
    "figcaption figure footer form h1 h2 h3 h4 h5 h6 header hgroup hr li "
    "main nav ol p pre section table ul".split()
)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class WrappedReader:
    """CleanEval-style: ``orig/*.html`` in a <text> wrapper; truth in
    ``clean/*.txt`` whose first line may be ``URL: ...``."""

    def __init__(self, root: str, ground_truth: bool = False,
                 orig_dir: str = "orig", clean_dir: str = "clean"):
        self.root, self.ground_truth = root, ground_truth
        self.orig_dir, self.clean_dir = orig_dir, clean_dir

    def read(self) -> Iterator[tuple[str, dict]]:
        odir = os.path.join(self.root, self.orig_dir)
        for name in sorted(os.listdir(odir)):
            raw = _read_bytes(os.path.join(odir, name))
            page_id = sha256_hex(raw)
            case = os.path.splitext(name)[0]
            if self.ground_truth:
                tpath = os.path.join(
                    self.root, self.clean_dir, case + ".txt"
                )
                if not os.path.exists(tpath):
                    continue
                text = decode_page_bytes(_read_bytes(tpath))
                lines = text.splitlines()
                if lines and lines[0].startswith("URL:"):
                    lines = lines[1:]
                yield page_id, {
                    "plaintext": "\n".join(lines).strip(),
                    "dataset": "wrapped", "case": case,
                }
            else:
                html = decode_page_bytes(raw)
                # strip the <text ...> envelope if present
                stripped = html.strip()
                if stripped.lower().startswith("<text"):
                    start = stripped.find(">") + 1
                    end = stripped.lower().rfind("</text>")
                    stripped = stripped[start : end if end >= 0 else None]
                yield page_id, {
                    "html": stripped, "dataset": "wrapped", "case": case,
                }


class PairedReader:
    """Dragnet-style: HTML/x.html + Corrected/x.html.corrected.txt."""

    def __init__(self, root: str, ground_truth: bool = False,
                 html_dir: str = "HTML", truth_dir: str = "Corrected",
                 truth_suffix: str = ".corrected.txt"):
        self.root, self.ground_truth = root, ground_truth
        self.html_dir, self.truth_dir = html_dir, truth_dir
        self.truth_suffix = truth_suffix

    def read(self) -> Iterator[tuple[str, dict]]:
        hdir = os.path.join(self.root, self.html_dir)
        for name in sorted(os.listdir(hdir)):
            raw = _read_bytes(os.path.join(hdir, name))
            page_id = sha256_hex(raw)
            case = os.path.splitext(name)[0]
            if self.ground_truth:
                tpath = os.path.join(
                    self.root, self.truth_dir, name + self.truth_suffix
                )
                if not os.path.exists(tpath):
                    continue
                yield page_id, {
                    "plaintext": decode_page_bytes(_read_bytes(tpath)).strip(),
                    "dataset": "paired", "case": case,
                }
            else:
                yield page_id, {
                    "html": decode_page_bytes(raw),
                    "dataset": "paired", "case": case,
                }


def extract_with_class_marker(html: str, marker: str,
                              attr: str = "class") -> str:
    """Leaf-text extraction over marked elements, inserting newlines at
    block-tag boundaries (capability of reference
    ``_extract_with_css_selector``, dataset_readers.py:282-298).  With
    ``attr="class"`` an element matches when its class CONTAINS
    ``marker`` (the `.x-nc-sel1, .x-nc-sel2, ...` selector family);
    for any other attribute it matches on EQUALITY (the
    `[__boilernet_label="1"]` selector, dataset_readers.py:301-313)."""
    root = parse(html)
    out: list[str] = []

    def match(node) -> bool:
        if attr == "class":
            return marker in node.attrs.get("class", "")
        return node.attrs.get(attr) == marker

    def walk(node, selected: bool):
        sel = selected or match(node)
        for child in node.children:
            if isinstance(child, str):
                if sel and child.strip():
                    out.append(squeeze_ws(child))
            else:
                if child.tag in BLOCK_TAGS_NL:
                    out.append("\n")
                walk(child, sel)
                if child.tag in BLOCK_TAGS_NL:
                    out.append("\n")

    walk(root, False)
    text = " ".join(p for p in out if p != "\n" and p)
    # collapse: block boundaries become single newlines
    parts, buf = [], []
    for p in out:
        if p == "\n":
            if buf:
                parts.append(" ".join(buf))
                buf = []
        elif p:
            buf.append(p)
    if buf:
        parts.append(" ".join(buf))
    return "\n".join(parts).strip() if parts else text


class SelectorReader:
    """L3S-style: truth embedded in the page via a class marker (or, with
    ``attr``, any attribute-equality marker, e.g. BoilerNet labels)."""

    def __init__(self, root: str, ground_truth: bool = False,
                 marker: str = "x-nc-sel", attr: str = "class"):
        self.root, self.ground_truth, self.marker = root, ground_truth, marker
        self.attr = attr

    def read(self) -> Iterator[tuple[str, dict]]:
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".html"):
                continue
            raw = _read_bytes(os.path.join(self.root, name))
            page_id = sha256_hex(raw)
            case = os.path.splitext(name)[0]
            html = decode_page_bytes(raw)
            if self.ground_truth:
                yield page_id, {
                    "plaintext": extract_with_class_marker(
                        html, self.marker, self.attr
                    ),
                    "dataset": "selector", "case": case,
                }
            else:
                yield page_id, {
                    "html": html, "dataset": "selector", "case": case,
                }


class JsonTruthReader:
    """ScrapingHub-style: ground-truth.json (articleBody, url) + possibly
    gzipped HTML; page_id hashes the DECOMPRESSED bytes."""

    def __init__(self, root: str, ground_truth: bool = False,
                 truth_file: str = "ground-truth.json"):
        self.root, self.ground_truth = root, ground_truth
        self.truth_file = truth_file

    def read(self) -> Iterator[tuple[str, dict]]:
        with open(os.path.join(self.root, self.truth_file)) as f:
            truth = json.load(f)
        for case in sorted(truth):
            meta = truth[case]
            path_gz = os.path.join(self.root, case + ".html.gz")
            path = os.path.join(self.root, case + ".html")
            raw = _read_bytes(path_gz if os.path.exists(path_gz) else path)
            data = maybe_gunzip(raw)
            page_id = sha256_hex(data)  # id stable under recompression
            if self.ground_truth:
                yield page_id, {
                    "plaintext": (meta.get("articleBody") or "").strip(),
                    "url": meta.get("url", ""),
                    "dataset": "jsontruth", "case": case,
                }
            else:
                yield page_id, {
                    "html": decode_page_bytes(data),
                    "url": meta.get("url", ""),
                    "dataset": "jsontruth", "case": case,
                }


class VerticalsReader:
    """CETD-style (S5, reference dataset_readers.py:201-220): the corpus
    root holds one subdirectory per VERTICAL (news site), each with
    ``original/`` html and ``gold/`` truth files sharing the same file
    name; the case id is ``<vertical>_<stem>`` so cases from different
    verticals never collide."""

    def __init__(self, root: str, ground_truth: bool = False,
                 orig_dir: str = "original", gold_dir: str = "gold"):
        self.root, self.ground_truth = root, ground_truth
        self.orig_dir, self.gold_dir = orig_dir, gold_dir

    def read(self) -> Iterator[tuple[str, dict]]:
        for vertical in sorted(os.listdir(self.root)):
            odir = os.path.join(self.root, vertical, self.orig_dir)
            if not os.path.isdir(odir):
                continue
            for name in sorted(os.listdir(odir)):
                raw = _read_bytes(os.path.join(odir, name))
                page_id = sha256_hex(raw)
                case = f"{vertical}_{os.path.splitext(name)[0]}"
                if self.ground_truth:
                    tpath = os.path.join(
                        self.root, vertical, self.gold_dir, name
                    )
                    if not os.path.exists(tpath):
                        continue
                    yield page_id, {
                        "plaintext": decode_page_bytes(
                            _read_bytes(tpath)
                        ).strip(),
                        "dataset": "verticals", "case": case,
                    }
                else:
                    yield page_id, {
                        "html": decode_page_bytes(raw),
                        "dataset": "verticals", "case": case,
                    }


def _body_plaintext(html: str) -> str:
    """Parsed-HTML body text (the truth convention of the Readability
    corpus: expected.html is itself HTML, truth = its rendered text)."""
    from ..functions.htmlparse import body_or_root

    root = body_or_root(parse(html))
    root.drop_tags(frozenset(("script", "style", "noscript")))
    return squeeze_ws(" ".join(root.text_chunks(frozenset())))


class CaseDirReader:
    """Readability-style (S6, reference dataset_readers.py:223-236): one
    directory per case containing ``source.html`` + ``expected.html``;
    the truth is the PARSED body text of expected.html."""

    def __init__(self, root: str, ground_truth: bool = False,
                 source_name: str = "source.html",
                 expected_name: str = "expected.html"):
        self.root, self.ground_truth = root, ground_truth
        self.source_name, self.expected_name = source_name, expected_name

    def read(self) -> Iterator[tuple[str, dict]]:
        for case in sorted(os.listdir(self.root)):
            cdir = os.path.join(self.root, case)
            spath = os.path.join(cdir, self.source_name)
            if not os.path.isfile(spath):
                continue
            raw = _read_bytes(spath)
            page_id = sha256_hex(raw)
            if self.ground_truth:
                epath = os.path.join(cdir, self.expected_name)
                if not os.path.exists(epath):
                    continue
                yield page_id, {
                    "plaintext": _body_plaintext(
                        decode_page_bytes(_read_bytes(epath))
                    ),
                    "dataset": "casedir", "case": case,
                }
            else:
                yield page_id, {
                    "html": decode_page_bytes(raw),
                    "dataset": "casedir", "case": case,
                }


READERS = {
    "wrapped": WrappedReader,
    "paired": PairedReader,
    "selector": SelectorReader,
    "jsontruth": JsonTruthReader,
    "verticals": VerticalsReader,
    "casedir": CaseDirReader,
}


def read_corpus(kind: str, root: str, ground_truth: bool = False, **kw):
    """S11-style dispatch; unknown kinds raise with the known set."""
    try:
        cls = READERS[kind]
    except KeyError:
        raise ValueError(f"unknown corpus kind {kind!r}; known: {sorted(READERS)}")
    return cls(root, ground_truth=ground_truth, **kw)


# The reference dispatches eight dataset NAMES (read_raw_dataset,
# dataset_readers.py:345-370); each maps onto one of the format kinds
# above plus the kwargs that specialize it.  A user porting a reference
# config keeps their dataset names verbatim.
DATASET_KINDS: dict[str, tuple[str, dict]] = {
    "cetd": ("verticals", {}),
    "cleaneval": ("wrapped", {}),
    # CleanPortalEval is CleanEval's format under different directory
    # names (dataset_readers.py:171-179)
    "cleanportaleval": (
        "wrapped", {"orig_dir": "input", "clean_dir": "GoldStandard"}
    ),
    "dragnet": ("paired", {}),
    # BoilerNet labels: attribute-equality marker
    # ([__boilernet_label="1"], dataset_readers.py:301-313)
    "google-trends-2017": (
        "selector", {"marker": "1", "attr": "__boilernet_label"}
    ),
    # .x-nc-sel1/2/3 -> class-contains marker (dataset_readers.py:264-276)
    "l3s-gn1": ("selector", {"marker": "x-nc-sel", "attr": "class"}),
    "readability": ("casedir", {}),
    "scrapinghub": ("jsontruth", {}),
}


class _NamedReader:
    """Wrap a format reader so records carry the DATASET NAME (the
    reference's per-dataset labels), not the generic format kind."""

    def __init__(self, inner, name: str):
        self.inner, self.name = inner, name

    def read(self) -> Iterator[tuple[str, dict]]:
        for page_id, rec in self.inner.read():
            yield page_id, {**rec, "dataset": self.name}


def read_dataset(name: str, root: str, ground_truth: bool = False, **kw):
    """Reference-name dispatch (read_raw_dataset parity): resolve one of
    the eight dataset names to its format reader + kwargs."""
    try:
        kind, defaults = DATASET_KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; known: {sorted(DATASET_KINDS)}"
        )
    return _NamedReader(
        read_corpus(kind, root, ground_truth=ground_truth,
                    **{**defaults, **kw}),
        name,
    )


def corpus_to_dataset(reader):
    """Lift a reader stream into a ray.data Dataset.  Duplicate content
    (same page_id) collapses to one row — the reference's dict-keyed exact
    dedup (extract.py:52-53)."""
    import ray.data

    seen: dict[str, dict] = {}
    for page_id, rec in reader.read():
        seen.setdefault(page_id, {"page_id": page_id, **rec})
    return ray.data.from_items(list(seen.values()))
