"""Seeded spans-table generator for the benchmark workloads.

Pages come from the public ``sources.pagegen`` template (``render_page``,
``has_media``, ``media_ref``), so every page's correct extraction is known
in advance (``pagegen.EXPECTED_BY_MODEL``).  Document text is word soup of
10-100 words drawn from a fixed vocabulary, the shape of the sf0.1
``documents`` table.  Everything is derived from the seed: the same seed
gives a byte-identical table.

The table has the engine's input shape: one span per row, rows shuffled
across files so that each document arrives chunked and out of order.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from web_content_extraction_benchmark_ray.schema import SPAN_STRUCT
from web_content_extraction_benchmark_ray.sources import pagegen

VOCAB = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream "
    "table the value vector window"
).split()


@dataclass(frozen=True)
class Shape:
    """How a workload cuts its pages into span rows."""

    docs: int
    min_spans: int
    max_spans: int
    heavy_frac: float = 0.0  # share of pages inflated to a heavy tail
    heavy_min_bytes: int = 300 << 10
    heavy_max_spans: int = 2


@dataclass
class Corpus:
    """The generated table plus the known answer for every document."""

    path: str
    texts: dict[int, str]  # doc_id -> document text fed to render_page
    heavy_ids: list[int]
    span_rows: int
    table_bytes: int


def doc_text(rng: random.Random, min_words: int = 10, max_words: int = 100) -> str:
    return " ".join(rng.choice(VOCAB) for _ in range(rng.randint(min_words, max_words)))


def heavy_text(rng: random.Random, min_bytes: int) -> str:
    """Word soup long enough that its rendered page is >= ``min_bytes``.
    Each main paragraph renders 12 words with ~200 bytes of glue."""
    words = []
    while len(words) // 12 * 200 + len(" ".join(words)) < min_bytes:
        words.extend(rng.choice(VOCAB) for _ in range(1200))
    return " ".join(words)


def cut(rng: random.Random, html: str, n: int) -> list[str]:
    n = max(1, min(n, len(html)))
    cuts = sorted(rng.sample(range(1, len(html)), n - 1)) if n > 1 else []
    bounds = [0, *cuts, len(html)]
    return [html[bounds[i] : bounds[i + 1]] for i in range(n)]


def generate(out_dir: str, seed: int, shape: Shape) -> Corpus:
    """Write the seeded spans table for ``shape`` under ``out_dir``."""
    rng = random.Random(seed)
    n_heavy = round(shape.docs * shape.heavy_frac)
    heavy = set(rng.sample(range(shape.docs), n_heavy)) if n_heavy else set()
    texts: dict[int, str] = {}
    rows: list[tuple[str, str, str, str, int]] = []
    for doc_id in range(shape.docs):
        if doc_id in heavy:
            text = heavy_text(rng, shape.heavy_min_bytes)
            n = rng.randint(1, shape.heavy_max_spans)
        else:
            text = doc_text(rng)
            n = rng.randint(shape.min_spans, shape.max_spans)
        texts[doc_id] = text
        did = str(doc_id)
        parts = cut(rng, pagegen.render_page(doc_id, text), n)
        for off, chunk in enumerate(parts):
            rows.append((did, "html", chunk, "", off))
        if pagegen.has_media(doc_id):
            rows.append((did, "media", "", pagegen.media_ref(doc_id), len(parts)))
    rng.shuffle(rows)

    table = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "spans": pa.array(
                [
                    [{"kind": r[1], "text": r[2], "media_ref": r[3], "offset": r[4]}]
                    for r in rows
                ],
                pa.list_(SPAN_STRUCT),
            ),
        }
    )
    # the multi-file layout of sources/synth.py: the scan parallelizes
    # across files and the skew probe sees several row groups per file
    os.makedirs(out_dir, exist_ok=True)
    n_files = max(4, min(64, len(rows) // 10_000))
    per = -(-len(rows) // n_files)
    for k in range(n_files):
        chunk = table.slice(k * per, per)
        if len(chunk):
            pq.write_table(
                chunk,
                os.path.join(out_dir, f"part-{k:04d}.parquet"),
                row_group_size=max(1000, per // 4),
            )
    table_bytes = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
    )
    return Corpus(
        path=out_dir,
        texts=texts,
        heavy_ids=sorted(heavy),
        span_rows=len(rows),
        table_bytes=table_bytes,
    )
