"""Correctness gate: every output document against its known answer.

A document passes when, for every model of the job, exactly one output
row exists, its ``error`` is empty, and its span sequence equals the
expected ``(kind, text, media_ref, order)`` sequence: one ``text`` span
per non-empty line of ``pagegen.EXPECTED_BY_MODEL[model]``, then one
``media`` span for a page that carries media.  The gate runs outside the
timed region.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa

from web_content_extraction_benchmark_ray.sources import pagegen


def media_text(ref: str) -> str:
    """The deterministic layout parse of a media ref, as the DuckDB
    oracles spell it (pipelines/oracles.py)."""
    return f"[media {ref} layout]"


def expected_spans(doc_id: int, text: str, model: str) -> list[tuple]:
    plain = pagegen.EXPECTED_BY_MODEL[model](doc_id, text)
    spans = [("text", block, "") for block in plain.split("\n") if block]
    if pagegen.has_media(doc_id):
        ref = pagegen.media_ref(doc_id)
        spans.append(("media", media_text(ref), ref))
    return [(k, t, r, i) for i, (k, t, r) in enumerate(spans)]


@dataclass
class Verdict:
    attempted: int  # documents the job was given
    failed: int  # documents with an error, a wrong or missing answer
    error_docs: int  # documents with a non-empty ``error`` on any model
    unexpected_rows: int  # rows for a document or model nobody asked for
    examples: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.unexpected_rows == 0


def check(table: pa.Table, texts: dict[int, str], models) -> Verdict:
    """Gate the extraction output ``table`` (doc_id, model, spans, error)
    against the documents ``texts`` (doc_id -> text) for ``models``."""
    models = set(models)
    bad: set[int] = set()
    errored: set[int] = set()
    seen: set[tuple[int, str]] = set()
    unexpected = 0
    examples: list[str] = []

    def fail(doc: int, why: str) -> None:
        bad.add(doc)
        if len(examples) < 5:
            examples.append(f"doc {doc}: {why}")

    cols = [table.column(c).to_pylist() for c in ("doc_id", "model", "spans", "error")]
    for did, model, spans, err in zip(*cols):
        doc = int(did) if str(did).isdecimal() else None
        if doc not in texts or model not in models:
            unexpected += 1
            continue
        if (doc, model) in seen:
            fail(doc, f"{model}: duplicate row")
            continue
        seen.add((doc, model))
        if err:
            errored.add(doc)
            fail(doc, f"{model}: error {err[:80]}")
            continue
        got = [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in spans or ()]
        if got != expected_spans(doc, texts[doc], model):
            fail(doc, f"{model}: spans differ from the expected spans")
    for doc in texts:
        for model in models:
            if (doc, model) not in seen:
                fail(doc, f"{model}: no output row")
    return Verdict(len(texts), len(bad), len(errored), unexpected, examples)
