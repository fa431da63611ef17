"""Driver-facing query callables (the ``queries()`` surface of
``__ray_entry__.py``).

Each callable takes ``sf_dir`` and returns a lazy ``ray.data.Dataset``
whose columns exactly match the corresponding oracle SQL
(pipelines/oracles.py) — the driver hash-compares values.

Ray is initialised by the caller; nothing here calls ``ray.init``.
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.media import parse_media
from ..sources.storage import read_spans, read_table
from ..sources.synth import build_spans_table
from ..stages.reassemble import reassemble
from ..state.memo import cached_parquet


def extraction_query(model: str):
    def run(sf_dir: str):
        # shared per-(sf_dir, model) extraction cache: the first consumer
        # computes and writes, every later one (other extract queries,
        # scores_build) streams the rows back (pipelines/extractcache.py)
        from . import extractcache

        ds = extractcache.read(
            sf_dir, (model,), columns=["doc_id", "model", "plaintext"]
        )

        def finalize(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                    "model": batch["model"],
                    "plaintext": pc.cast(batch["plaintext"], pa.string()),
                }
            )

        return ds.map_batches(finalize, batch_format="pyarrow")

    run.__name__ = f"extract_{model}"
    return run


def media_spans(sf_dir: str):
    """The media-span path end-to-end: reassembly collects 'media' spans in
    offset order; the layout-parse stage emits deterministic text."""
    path = build_spans_table(sf_dir)
    assembled = reassemble(read_spans(path))

    def emit(batch: pa.Table) -> pa.Table:
        # Arrow-side explode: parent indices + flatten replace the nested
        # Python loop; only the per-ref codec dispatch stays in Python.
        refs = batch.column("media_refs").combine_chunks()
        parents = pc.list_parent_indices(refs)
        flat = pc.list_flatten(refs)
        doc_ids = pc.cast(
            pc.take(batch.column("doc_id"), parents), pa.int64()
        )
        texts = [parse_media(r) for r in flat.to_pylist()]
        return pa.table(
            {
                "doc_id": doc_ids,
                "media_ref": pc.cast(flat, pa.string()),
                "media_text": pa.array(texts, pa.string()),
            }
        )

    return assembled.map_batches(emit, batch_format="pyarrow")


def extract_article(sf_dir: str):
    """Newspaper3k/news-please-class structured article extraction
    (reference extractors.py:61-78 capability): reassembled pages ->
    (title, byline, pub_date, article_text) per doc.  Same streaming
    span-reassembly front as every extract query; the article stage is a
    stateless per-batch map (functions/extractors/article.py)."""
    from ..functions.extractors.article import article

    path = build_spans_table(sf_dir)
    assembled = reassemble(read_spans(path))

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        cols: dict[str, list] = {
            "title": [], "byline": [], "pub_date": [], "article_text": []
        }
        for h in batch.column("html").to_pylist():
            rec = article(h)
            for k in cols:
                cols[k].append(rec[k])
        return pa.table(
            {
                "doc_id": pa.array([int(i) for i in ids], pa.int64()),
                "title": pa.array(cols["title"], pa.string()),
                "byline": pa.array(cols["byline"], pa.string()),
                "pub_date": pa.array(cols["pub_date"], pa.string()),
                "article_text": pa.array(
                    cols["article_text"], pa.string()
                ),
            }
        )

    return assembled.map_batches(emit, batch_format="pyarrow")


def extract_subproc(sf_dir: str):
    """The warm-subprocess stage end-to-end (E6/E16 capability): reassembly
    -> actor pool each holding one long-lived child process that computes
    whole_text over a line protocol."""
    from ..stages.subproc import subproc_extract

    path = build_spans_table(sf_dir)
    assembled = reassemble(read_spans(path))
    out = subproc_extract(assembled, model="whole_text")

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "model": batch["model"],
                "plaintext": pc.cast(batch["plaintext"], pa.string()),
            }
        )

    return out.map_batches(finalize, batch_format="pyarrow")


def ingest_decode(sf_dir: str):
    """Byte-ingestion conformance (reference F4): documents are
    deterministically encoded into bytes (utf-8 / gzip / cp1252 / utf-16
    BOM by doc_id % 4), then decoded by the sniffing reader; output must
    round-trip to the original text (oracle: SELECT doc_id, text)."""
    import gzip as _gzip

    from ..sources.ingest import decode_page_bytes

    def encode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        payloads = []
        for i, t in zip(ids, texts):
            mode = i % 4
            if mode == 0:
                payloads.append(t.encode("utf-8"))
            elif mode == 1:
                payloads.append(_gzip.compress(t.encode("utf-8")))
            elif mode == 2:
                payloads.append(t.encode("cp1252"))
            else:
                payloads.append(b"\xff\xfe" + t.encode("utf-16-le"))
        return pa.table(
            {
                "doc_id": pa.array([int(i) for i in ids], pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    def decode(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "text": pa.array(
                    [
                        decode_page_bytes(p)
                        for p in batch.column("payload").to_pylist()
                    ],
                    pa.string(),
                ),
            }
        )

    import os

    ds = read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return ds.map_batches(encode, batch_format="pyarrow").map_batches(
        decode, batch_format="pyarrow"
    )


def extract_spans_signature(sf_dir: str):
    """THE north-rule invariant, driver-verified: per (doc, model) the
    extracted span sequence serialized as kind|text|media_ref|order records
    (unit-separator joined) — span-sequence equality becomes a plain string
    hash-compare against the SQL oracle's reconstruction."""
    from . import extractcache

    ds = extractcache.read(
        sf_dir, ("bte",), columns=["doc_id", "model", "spans"]
    )

    def serialize(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        models = batch.column("model").to_pylist()
        spans_col = batch.column("spans").to_pylist()
        sigs = [
            "\x1e".join(
                f"{s['kind']}\x1f{s['text']}\x1f{s['media_ref']}\x1f{s['order']}"
                for s in spans
            )
            for spans in spans_col
        ]
        return pa.table(
            {
                "doc_id": pa.array([int(d) for d in doc_ids], pa.int64()),
                "model": pa.array(models, pa.string()),
                "spans_sig": pa.array(sigs, pa.string()),
            }
        )

    return ds.map_batches(serialize, batch_format="pyarrow")


def extraction_queries() -> dict:
    from ..functions.extractors import list_extractors

    q = {f"extract_{m}": extraction_query(m) for m in list_extractors()}
    q["media_spans"] = media_spans
    q["extract_subproc"] = extract_subproc
    q["extract_article"] = extract_article
    q["extract_spans_signature"] = extract_spans_signature
    q["ingest_decode"] = ingest_decode
    return q


# ---------------------------------------------------------------------------
# Evaluation / complexity / feature queries

def _scores_parquet(sf_dir: str) -> str:
    """Score once per (corpus, code version), cached as parquet
    (``state/memo.cached_parquet``): several queries consume the same
    scores table."""
    from .evalpipe import scores_pipeline

    return cached_parquet("scores", sf_dir, lambda: scores_pipeline(sf_dir))


def _scores_ds(sf_dir: str):
    return ray.data.read_parquet(_scores_parquet(sf_dir))


def rouge_view(ds):
    """Project a SCORES-schema dataset to its rouge rows (int64 keys)."""

    def proj(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["scorer"], "rouge"))
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "model": t["model"],
                "dataset": t["dataset"],
                "prec": t["prec"],
                "rec": t["rec"],
                "f1": t["f1"],
            }
        )

    return ds.map_batches(proj, batch_format="pyarrow")


def eval_rouge(sf_dir: str):
    return rouge_view(_scores_ds(sf_dir))


def eval_levenshtein(sf_dir: str):
    ds = _scores_ds(sf_dir)

    def proj(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["scorer"], "levenshtein"))
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "model": t["model"],
                "dataset": t["dataset"],
                "dist": t["dist"],
            }
        )

    return ds.map_batches(proj, batch_format="pyarrow")


def eval_agg_by_dataset(sf_dir: str):
    from .evalpipe import agg_scores_by_dataset

    return agg_scores_by_dataset(_scores_ds(sf_dir))


def eval_agg_micro(sf_dir: str):
    from .evalpipe import agg_scores_micro

    return agg_scores_micro(_scores_ds(sf_dir))


def eval_agg_macro(sf_dir: str):
    from .evalpipe import agg_scores_macro

    return agg_scores_macro(_scores_ds(sf_dir))


def eval_quantiles(sf_dir: str):
    from .evalpipe import agg_quantiles

    return agg_quantiles(_scores_ds(sf_dir))


def eval_score_histogram(sf_dir: str):
    from .evalpipe import score_histograms

    return score_histograms(_scores_ds(sf_dir))


def complexity(sf_dir: str):
    # cached form: quantiles and the banded aggregation reuse the same
    # per-doc table, so the DOM walk runs once per sf_dir
    from .complexity import complexity_ds

    return complexity_ds(sf_dir)


def complexity_quantiles(sf_dir: str):
    from .complexity import complexity_quantiles as cq

    return cq(sf_dir)


def html_features(sf_dir: str):
    from .complexity import features_pipeline

    return features_pipeline(sf_dir)


def eval_queries() -> dict:
    return {
        "eval_rouge": eval_rouge,
        "eval_levenshtein": eval_levenshtein,
        "eval_agg_by_dataset": eval_agg_by_dataset,
        "eval_agg_micro": eval_agg_micro,
        "eval_agg_macro": eval_agg_macro,
        "eval_quantiles": eval_quantiles,
        "eval_score_histogram": eval_score_histogram,
        "complexity": complexity,
        "complexity_quantiles": complexity_quantiles,
        "html_features": html_features,
    }
