"""Deterministic spans-table synthesis (the engine's test/bench input).

Builds the authoritative input shape from BASELINE.json's input_hint —
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)`` —
out of the driver's flat ``documents.parquet`` (doc_id, text, ...), fully
deterministically (seeded by doc_id; no wall-clock, no external data).

Each source document becomes one boilerplate-laden HTML page
(sources/pagegen.py) chunked into 1..8 out-of-order 'html' spans scattered
across rows, plus 'media' spans for every 10th doc.  ``heavy_tail=True``
additionally inflates ~1% of docs ~50× (deeply repeated content) to
exercise the skew/heavy-lane path (SURVEY.md §7.7).

The result is cached under /tmp (atomic rename), one version directory
per (sf_dir, flags) keyed on the documents file's ``file_key``: a
rewritten corpus gets a fresh table, and that build removes the older
version.  It is written as multiple row groups so Ray's parquet reader
parallelizes the scan.
"""
from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..state.memo import (
    CACHE_ROOT,
    artifact_root,
    drop_other_versions,
    file_key,
)
from . import pagegen

HEAVY_EVERY = 97  # doc_id % 97 == 0 -> pathological tail (~1%)
HEAVY_REPEAT = 50


def effective_text(doc_id: int, text: str, heavy_tail: bool) -> str:
    if heavy_tail and int(doc_id) % HEAVY_EVERY == 0:
        return " ".join([text] * HEAVY_REPEAT)
    return text


def _shuffle_key(doc_id, offset) -> str:
    return hashlib.md5(f"{doc_id}:{offset}".encode()).hexdigest()


def build_spans_table(
    sf_dir: str, heavy_tail: bool = False, force: bool = False,
    repeat: int = 1,
) -> str:
    """Synthesize (or reuse) the spans parquet for ``sf_dir``; returns its
    path.  Deterministic: same sf_dir + flags -> byte-identical table.

    ``repeat=R`` replicates the corpus R times under distinct doc_ids
    (copy k of doc d -> d + k*10^7) — used by the scaling benchmark to
    make compute dominate fixed overhead at high parallelism."""
    docs = os.path.join(sf_dir, "documents.parquet")
    root = artifact_root(
        f"spans-heavy{int(heavy_tail)}-rep{repeat}", sf_dir, CACHE_ROOT
    )
    version = hashlib.md5(f"{file_key(docs)}|v4".encode()).hexdigest()[:12]
    out = os.path.join(root, version)
    if os.path.exists(out) and not force:
        return out
    os.makedirs(root, exist_ok=True)

    src = pq.read_table(docs, columns=["doc_id", "text"])
    base_ids = src.column("doc_id").to_pylist()
    base_texts = src.column("text").to_pylist()
    all_ids = [
        d + k * 10_000_000 for k in range(repeat) for d in base_ids
    ]
    all_texts = [t for _ in range(repeat) for t in base_texts]
    rows = []
    for doc_id, text in zip(all_ids, all_texts):
        html = pagegen.render_page(doc_id, effective_text(doc_id, text, heavy_tail))
        for span in pagegen.split_into_spans(doc_id, html):
            rows.append(
                (
                    _shuffle_key(doc_id, span["offset"]),
                    str(doc_id),
                    span["kind"],
                    span["text"],
                    span["media_ref"],
                    span["offset"],
                )
            )
    # scatter spans of the same doc across the file: sort by md5 shuffle key
    rows.sort(key=lambda r: r[0])
    from ..schema import SPAN_STRUCT

    table = pa.table(
        {
            "doc_id": pa.array([r[1] for r in rows], pa.string()),
            "spans": pa.array(
                [
                    [
                        {
                            "kind": r[2],
                            "text": r[3],
                            "media_ref": r[4],
                            "offset": r[5],
                        }
                    ]
                    for r in rows
                ],
                pa.list_(SPAN_STRUCT),
            ),
        }
    )
    # multi-file directory layout: the scan parallelizes across files (a
    # single-file table forces a one-task read — measured 12s serial on a
    # 104 MB input), mirroring how a Lance/parquet table at scale is a
    # fragment set, not one object
    tmp = out + f".tmp.{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    n_files = max(4, min(64, len(rows) // 10_000))
    per = (len(table) + n_files - 1) // n_files
    for k in range(n_files):
        chunk = table.slice(k * per, per)
        if len(chunk):
            pq.write_table(
                chunk,
                os.path.join(tmp, f"part-{k:04d}.parquet"),
                row_group_size=max(1000, per // 4),
            )
    # os.replace(dir, dir) fails with ENOTEMPTY when out exists.  Only a
    # force=True rebuild may clear an existing dir — a concurrent builder
    # losing the race must NOT delete the winner's live directory (a
    # reader streaming it would hit missing fragments); the build is
    # deterministic, so the loser simply adopts the winner's output.
    if force and os.path.isdir(out):
        import shutil

        shutil.rmtree(out, ignore_errors=True)
    drop_other_versions(out)
    try:
        os.replace(tmp, out)
    except OSError:
        if not os.path.isdir(out):
            raise
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
    return out
