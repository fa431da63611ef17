"""Extraction stage: assembled documents -> per-(doc, model) extractions.

``extract_batch`` is a plain-function ``map_batches`` task (the pipelines
run it that way, pipelines/extraction.py); ``ExtractStage`` is the same
work as a callable class, for an actor pool.  Each document becomes one
``Page`` (functions/extractors): every model reads its declared input
from it, so the document is parsed at most once for all models, never
when every model takes raw html, and an ensemble reuses the answers of
members that run in the same job.

Reference semantics preserved (extract.py:106-119): a per-document
extractor error never fails the job — it yields an empty answer plus an
``error`` note.

Output spans follow FIXTURES.md §3: one ``kind='text'`` span per extracted
content block (newline-separated blocks of the plaintext), then one
``kind='media'`` span per media ref (deterministic layout-parse text), with
a dense 0-based ``order``.
"""
from __future__ import annotations

import pyarrow as pa

from ..functions.extractors import Page, get_extractor
from ..functions.media import parse_media
from ..schema import EXTRACTIONS, OUT_SPAN_STRUCT

DEFAULT_MODELS = ("bte", "justext", "density")


def spans_from(plaintext: str, media_refs) -> list[dict]:
    spans: list[dict] = []
    for block in plaintext.split("\n"):
        if block:
            spans.append(
                {"kind": "text", "text": block, "media_ref": "", "order": len(spans)}
            )
    for ref in media_refs or []:
        spans.append(
            {
                "kind": "media",
                "text": parse_media(ref),
                "media_ref": ref,
                "order": len(spans),
            }
        )
    return spans


def extract_batch(batch: pa.Table, models=DEFAULT_MODELS) -> pa.Table:
    """Task-pool form of the extraction stage.

    Plain-function ``map_batches`` tasks are elastic — they never reserve
    CPU slots the way a standing actor pool does, so they cannot starve a
    co-scheduled all-to-all's reduce tasks (measured: a 32-actor pool made
    a 5s sort take 127s wall at 32 CPUs).  The stage holds no warm state
    beyond what the extractor modules build at import, so each task
    builds its own.  Keep the ExtractStage class form for genuinely
    heavyweight model state that must pin resources (e.g. a GPU model).
    """
    from .reassemble import limit_arrow_threads

    limit_arrow_threads()
    return ExtractStage(models)(batch)


class ExtractStage:
    def __init__(self, models=DEFAULT_MODELS):
        # entries are registry names (fn None) or explicit (name, callable)
        # pairs — names resolve in the worker process, callables ship by
        # value
        self.models = [(m, None) if isinstance(m, str) else tuple(m) for m in models]
        for name, fn in self.models:
            if fn is None:
                get_extractor(name)  # an unknown name fails the job here

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        htmls = batch.column("html").to_pylist()
        media = (
            batch.column("media_refs").to_pylist()
            if "media_refs" in batch.column_names
            else [[] for _ in doc_ids]
        )
        out_id, out_model, out_text, out_spans, out_err = [], [], [], [], []
        for doc_id, html, refs in zip(doc_ids, htmls, media):
            page = Page(html)
            for name, fn in self.models:
                try:
                    if fn is None:
                        plaintext = page.answer(name)
                    else:  # recorded, so an ensemble listed later reuses it
                        plaintext = page.answers[name] = fn(page.html) or ""
                    err = ""
                except Exception as exc:  # never fail the job for one doc
                    plaintext = ""
                    err = f"{type(exc).__name__}: {exc}"[:500]
                out_id.append(doc_id)
                out_model.append(name)
                out_text.append(plaintext)
                out_spans.append(spans_from(plaintext, refs))
                out_err.append(err)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.string()),
                "model": pa.array(out_model, pa.string()),
                "plaintext": pa.array(out_text, pa.large_string()),
                "spans": pa.array(out_spans, pa.list_(OUT_SPAN_STRUCT)),
                "error": pa.array(out_err, pa.string()),
            },
            schema=EXTRACTIONS,
        )
