"""Span reassembly — the engine's one mandatory shuffle.

Documents arrive chunked: a doc's spans are scattered across rows and out
of offset order (SURVEY.md §1.4).  Order-sensitive extraction needs the
whole document, so this stage performs the groupby-``doc_id`` →
sort-by-``offset`` reassembly:

1. ``explode_spans``: zero-copy flatten of the ``spans`` list column into
   flat span rows (pyarrow kernels only).
2. ``shuffle.co_partition`` on ``doc_id``: each span row is routed by
   ``wide_bucket(doc_id)``, one of ``shuffle.WIDE_SPACE`` (2^20) values,
   and one sort with explicit uniform boundaries over that space cuts
   the rows into partitions that each hold whole docs (two-level
   grouping: buckets between workers, doc_id within a partition); the
   partition count, not the bucket count, sets the parallelism.
3. ``assemble_group``: within one partition, sort by (doc_id, offset) and
   concatenate 'html' span payloads; 'media' spans contribute their refs in
   offset order.  The in-group sort is the only ordering guarantee the
   pipeline relies on — block arrival order never matters (SURVEY.md §7.7,
   property-tested in tests/test_pipeline.py).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrownp import num_col
from ..schema import ASSEMBLED
from .shuffle import co_partition, partition_count, wide_bucket


def limit_arrow_threads() -> None:
    """Cap PyArrow's per-process thread pool inside Ray workers.

    PyArrow defaults its compute pool to the MACHINE's core count in every
    worker process; at N concurrent map tasks that is N x cores threads
    fighting for N cores — measured ~50% per-task inflation at 32-way
    concurrency.  One compute thread per worker is right when Ray supplies
    the parallelism."""
    if not getattr(limit_arrow_threads, "_done", False):
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        limit_arrow_threads._done = True


def check_span_fields(flat, parents, doc_ids) -> None:
    """Raise a ValueError naming the column and the first doc_id when a
    span's ``kind``, ``text`` or ``offset`` is null (``flat``: the
    flattened spans, ``parents``: each span's row, ``doc_ids``: each
    row's doc_id).  Kind and text decide a span's side and bytes, offset
    its order (dense and 0-based, FIXTURES.md §1); a null would drop or
    blank its doc in ``assemble_group`` and hide it from the skew
    census.  Both lanes, checkpoint partitions and the census pass
    here, so a null fails the same way in each."""
    for name in ("kind", "text", "offset"):
        col = flat.field(name)
        if col.null_count:
            row = pc.filter(parents, pc.is_null(col))[0].as_py()
            raise ValueError(
                f"{col.null_count} span(s) have a null {name} "
                f"(first in doc_id {doc_ids[row].as_py()!r})"
            )


def explode_spans(batch: pa.Table) -> pa.Table:
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans)
    check_span_fields(flat, parents, batch.column("doc_id"))
    return pa.table(
        {
            "doc_id": pc.take(batch.column("doc_id"), parents),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
            "offset": flat.field("offset"),
        }
    )


def assemble_group(group: pa.Table) -> pa.Table:
    """Reassemble every document in one sort partition (whole docs; see
    ``reassemble``).  Runs once per partition as a whole-block
    ``map_batches`` task.

    Fully vectorized: sort -> arrow hash-group 'list' aggregation (input
    order preserved within each group, so the collected lists are in
    offset order) -> ``binary_join`` concat.  The earlier per-row Python
    loop cost as much CPU as the extraction itself (~0.5 ms/span);
    this path is pyarrow C++ end to end except a tiny per-DOC merge of
    the html/media sides."""
    limit_arrow_threads()
    g = group.sort_by([("doc_id", "ascending"), ("offset", "ascending")])
    kinds = g.column("kind")
    html_t = g.filter(pc.equal(kinds, "html"))
    media_t = g.filter(pc.equal(kinds, "media"))

    hagg = pa.TableGroupBy(html_t, "doc_id", use_threads=False).aggregate(
        [("text", "list")]
    )
    html_ids = hagg.column("doc_id").to_pylist()
    htmls = pc.binary_join(
        pc.cast(hagg.column("text_list"), pa.list_(pa.string())), ""
    ).to_pylist()
    html_map = dict(zip(html_ids, htmls))

    media_map: dict = {}
    if media_t.num_rows:
        magg = pa.TableGroupBy(media_t, "doc_id", use_threads=False).aggregate(
            [("media_ref", "list")]
        )
        media_map = dict(
            zip(
                magg.column("doc_id").to_pylist(),
                magg.column("media_ref_list").to_pylist(),
            )
        )

    # union of docs (a doc may have only media spans); per-DOC python work
    out_ids = list(
        dict.fromkeys(html_ids + list(media_map.keys()))
    )
    html_arr = pa.array(
        [html_map.get(d, "") for d in out_ids], pa.large_string()
    )
    return pa.table(
        {
            "doc_id": pa.array(out_ids, pa.string()),
            "html": html_arr,
            "media_refs": pa.array(
                [media_map.get(d, []) for d in out_ids], pa.list_(pa.string())
            ),
            "n_bytes": pc.cast(pc.binary_length(html_arr), pa.int64()),
        },
        schema=ASSEMBLED,
    )


def _default_partitions(input_bytes: int | None = None) -> int:
    """Re-export of ``shuffle.partition_count`` under the name the
    benchmark harness imports; remove with the next benchmark change."""
    return partition_count(input_bytes)


def reassemble(ds, partitions: int | None = None):
    """Dataset -> Dataset of assembled documents (the reassembly shuffle).

    Shape: explode -> ``shuffle.co_partition`` on ``doc_id`` (wide-space
    bucket, one explicit-boundary sort) -> ONE vectorized
    ``assemble_group`` call per sort partition.  This is the
    groupby-``doc_id`` co-location shuffle of the design:
    ``assemble_group`` handles arbitrarily many docs per call, so
    per-group Python dispatch is avoided and partitions stay balanced.
    ``partitions`` defaults to ``shuffle.partition_count()``; callers
    that know the input size pass ``partition_count(input_bytes)``."""
    ds = ds.map_batches(explode_spans, batch_format="pyarrow")
    return co_partition(ds, assemble_group, key="doc_id",
                        partitions=partitions)


# ------------------------------------------------------- salted reassembly
#
# Skew killer for pathological documents (north rule: "oversized or
# parse-pathological documents are ... salted into balanced partitions").
# A 50 MB doc's thousands of spans would all land in one bucket of the
# plain reassembly and pin one task.  Here the shuffle key is salted with
# the span's offset range — salt = offset // salt_range — so a heavy doc's
# spans spread over many (doc_id, salt) shards that partial-concatenate in
# parallel (phase 1), and a second, cheap shuffle merges the per-shard
# partials in salt order (phase 2).  Because salt is monotonic in offset,
# concatenating partials by (salt, offset) order is EXACTLY the global
# offset order: reassemble_salted == reassemble for every input
# (property-tested in tests/test_state.py).  Phase 2 re-uses
# assemble_group verbatim: a partial is just a flat 'html' span whose
# offset is its range's first offset; media spans pass through untouched.
# Salting only splits a doc with more than ``salt_range`` spans (offsets
# are dense from 0), so the pipeline's heavy lane does not salt: it is
# one co-partition on doc_id (pipelines/extraction.py).
# ``extraction_pipeline(salted=True)`` and a uniformly heavy corpus use
# this two-phase form.

DEFAULT_SALT_RANGE = 1 << 16


def add_salt_bucket(
    batch: pa.Table, salt_range: int = DEFAULT_SALT_RANGE
) -> pa.Table:
    """Appends ``salt = offset // salt_range`` and the (doc_id, salt)
    bucket, ``shuffle.wide_bucket(doc_id, salt)``.  Any deterministic
    function of (doc_id, salt) is correct here — assembly restores order
    by (salt, offset), so the bucket only routes (property-tested in
    tests/test_state.py)."""
    salts = num_col(batch, "offset", np.int64) // salt_range
    buckets = wide_bucket(batch.column("doc_id"), salt=salts)
    return batch.append_column(
        "salt", pa.array(salts, pa.int64())
    ).append_column("bucket", pa.array(buckets, pa.int32()))


def partial_assemble_group(group: pa.Table) -> pa.Table:
    """Phase 1: concat each (doc_id, salt) shard's html spans in offset
    order into ONE partial span (offset = shard's first offset); media
    spans pass through with their original offsets.

    Vectorized like assemble_group: sort -> arrow hash-group 'list'
    aggregation (input order preserved per group) -> binary_join."""
    limit_arrow_threads()
    g = group.sort_by(
        [("doc_id", "ascending"), ("salt", "ascending"), ("offset", "ascending")]
    )
    kinds = g.column("kind")
    html_t = g.filter(pc.equal(kinds, "html"))
    media_t = g.filter(pc.equal(kinds, "media"))

    agg = pa.TableGroupBy(
        html_t, ["doc_id", "salt"], use_threads=False
    ).aggregate([("text", "list"), ("offset", "min")])
    merged = pc.binary_join(
        pc.cast(agg.column("text_list"), pa.list_(pa.string())), ""
    )
    n = len(agg)
    partial = pa.table(
        {
            "doc_id": agg.column("doc_id"),
            "kind": pa.array(["html"] * n, pa.string()),
            "text": pc.cast(merged, pa.large_string()),
            "media_ref": pa.array([""] * n, pa.string()),
            "offset": pc.cast(agg.column("offset_min"), pa.int32()),
        }
    )
    media = pa.table(
        {
            "doc_id": media_t.column("doc_id"),
            "kind": media_t.column("kind"),
            "text": pc.cast(media_t.column("text"), pa.large_string()),
            "media_ref": media_t.column("media_ref"),
            "offset": media_t.column("offset"),
        }
    )
    return pa.concat_tables([partial, media])


def reassemble_salted(ds, salt_range: int = DEFAULT_SALT_RANGE):
    """Skew-resistant two-phase reassembly; output-equal to reassemble().

    Both phases are ``shuffle.co_partition`` runs (phase correctness
    only needs "same (doc_id, salt) shard -> same partition", which any
    deterministic bucket gives).  ``partial_assemble_group`` /
    ``assemble_group`` handle arbitrarily many shards per call."""
    ds = ds.map_batches(explode_spans, batch_format="pyarrow")
    ds = ds.map_batches(
        add_salt_bucket, fn_kwargs={"salt_range": salt_range},
        batch_format="pyarrow",
    )
    return assemble_salted(ds)


def assemble_salted(rows):
    """Both phases of the salted reassembly over span rows that already
    carry ``salt`` and ``bucket`` (``add_salt_bucket``)."""
    partials = co_partition(rows, partial_assemble_group)
    # phase 2: plain reassembly over the (much smaller) partial-span set
    return co_partition(partials, assemble_group, key="doc_id")
