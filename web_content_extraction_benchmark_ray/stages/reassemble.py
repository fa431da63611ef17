"""Span reassembly — the engine's one mandatory shuffle.

Documents arrive chunked: a doc's spans are scattered across rows and out
of offset order (SURVEY.md §1.4).  Order-sensitive extraction needs the
whole document, so this stage performs the groupby-``doc_id`` →
sort-by-``offset`` reassembly:

1. ``explode_spans``: zero-copy flatten of the ``spans`` list column into
   flat span rows (pyarrow kernels only).
2. ``add_bucket``: deterministic hash of ``doc_id`` into
   ``WIDE_BUCKET_SPACE`` (2^20) values, the "ONE partitioning key" of the
   design.  ``reassemble`` cuts that space into uniform ranges for one
   explicit-boundary sort, so each sort partition holds whole docs
   (two-level grouping: buckets between workers, doc_id within a
   partition) and the partition count, not the bucket count, sets the
   parallelism.
3. ``assemble_group``: within one partition, sort by (doc_id, offset) and
   concatenate 'html' span payloads; 'media' spans contribute their refs in
   offset order.  The in-group sort is the only ordering guarantee the
   pipeline relies on — block arrival order never matters (SURVEY.md §7.7,
   property-tested in tests/test_pipeline.py).
"""
from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrownp import num_col
from ..schema import ASSEMBLED


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


def explode_spans(batch: pa.Table) -> pa.Table:
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans)
    doc_id = pc.take(batch.column("doc_id"), parents)
    return pa.table(
        {
            "doc_id": doc_id,
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
            "offset": flat.field("offset"),
        }
    )


_KNUTH = np.uint64(2654435761)

# Wide routing space for the plain reassembly sort.  A SMALL discrete
# bucket space (e.g. 128) breaks partition balance: Ray's range
# partitioner samples boundary values, and with partitions ~ distinct
# keys the sampled ranges cover 2-6 buckets each — measured 3.3x
# task-row skew and a straggler-paced extract stage.  With ~1M distinct
# bucket values the sampled boundaries land proportionally to ROWS, so
# partitions balance at any partition count.  Range partitioning never
# splits one key value across partitions, so every doc still lands
# whole in exactly one partition.
WIDE_BUCKET_SPACE = 1 << 20


def add_bucket(batch: pa.Table) -> pa.Table:
    """Adds the partition bucket, one of ``WIDE_BUCKET_SPACE`` values.
    A plain function task (not an actor pool): stateless, and task pools
    never hold CPU reservations that would starve the adjacent
    all-to-all's tasks.

    Decimal doc_ids (the spans table synthesizes those) take a fully
    vectorized multiplicative-hash path — no per-row Python on the
    reassembly shuffle's hot side; other ids (corpus readers use sha256
    hex) take the crc32 row loop.  The path is chosen PER VALUE, never
    per batch: in a mixed-id corpus a per-batch choice would route the
    same document through different hash functions depending on its
    batch's neighbors and split it across buckets."""
    col = pc.cast(batch.column("doc_id"), pa.string())
    # <=18 digits so the int64 cast below cannot overflow; is_decimal +
    # length are plain C kernels (a regex here cost as much as the crc loop)
    numeric = pc.and_(
        pc.utf8_is_decimal(col),
        pc.less_equal(pc.utf8_length(col), 18),
    )
    num_mask = numeric.combine_chunks().to_numpy(zero_copy_only=False)
    buckets = np.empty(batch.num_rows, dtype=np.int32)
    if num_mask.any():
        sub = col.filter(numeric)
        ids = pc.cast(sub, pa.int64()).combine_chunks().to_numpy(
            zero_copy_only=False
        ).astype(np.uint64)
        # Knuth multiplicative hash decorrelates bucket from id ranges
        # (plain modulo maps strided id patterns to one bucket)
        buckets[num_mask] = (
            ((ids * _KNUTH) & np.uint64(0xFFFFFFFF))
            % np.uint64(WIDE_BUCKET_SPACE)
        ).astype(np.int32)
    if not num_mask.all():
        crc = zlib.crc32
        rest = col.filter(pc.invert(numeric)).to_pylist()
        buckets[~num_mask] = np.fromiter(
            (crc(s.encode()) % WIDE_BUCKET_SPACE for s in rest),
            dtype=np.int32,
            count=len(rest),
        )
    return batch.append_column("bucket", pa.array(buckets, pa.int32()))


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


PARTITION_TARGET_BYTES = 64 << 20  # keep a partition well under block limits


def _default_partitions(input_bytes: int | None = None) -> int:
    """Reassembly partition count: ~2 balanced partitions per CPU (waves
    of equal tasks; more partitions only add sort/scheduling overhead
    once partitions are balanced — measured), raised so no partition
    exceeds ~64 MiB when the caller knows the input size (partition
    volume grows with data per core at scale; the size floor keeps
    per-partition memory bounded no matter the cluster shape)."""
    import ray

    cpus = (
        int(ray.cluster_resources().get("CPU", 4))
        if ray.is_initialized()
        else 4
    )
    base = 2 * cpus
    if input_bytes:
        base = max(base, -(-input_bytes // PARTITION_TARGET_BYTES))
    return base


def reassemble(ds, partitions: int | None = None):
    """Dataset -> Dataset of assembled documents (the reassembly shuffle).

    Shape: explode -> wide-space bucket key -> ``sort(bucket)`` -> ONE
    vectorized ``assemble_group`` call per sort partition (``map_batches``
    with whole-block batches).  This is the groupby-``doc_id`` co-location
    shuffle of the design, expressed as sort + per-partition assembly:
    ``assemble_group`` already handles arbitrarily many docs per call, so
    per-group Python dispatch is avoided AND partitions stay balanced
    (see WIDE_BUCKET_SPACE)."""
    ds = ds.map_batches(explode_spans, batch_format="pyarrow")
    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    # EXPLICIT uniform boundaries kill the last skew source: sampled
    # boundaries varied partition rows 3x even over the wide space
    # (few samples per block), while uniform cuts of a uniform hash give
    # ~N/P +- sqrt(N/P) rows per partition, deterministically.
    # CONTRACT: Ray's sort materializes exactly one block per output
    # partition (verified even at partition >> target_max_block_size;
    # pinned by tests/test_sort_block_contract.py), so the per-block
    # assemble below always sees whole buckets.  If a Ray upgrade breaks
    # that, the pinned test goes red — switch back to
    # groupby("bucket").map_groups, which guarantees group integrity.
    p = partitions or _default_partitions()
    bounds = [WIDE_BUCKET_SPACE * i // p for i in range(1, p)]
    return ds.sort("bucket", boundaries=bounds).map_batches(
        assemble_group, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )


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

DEFAULT_SALT_RANGE = 1 << 16


def add_salt_bucket(
    batch: pa.Table, salt_range: int = DEFAULT_SALT_RANGE
) -> pa.Table:
    """Bucket over a deterministic hash of (doc_id, salt), one of
    ``WIDE_BUCKET_SPACE`` values.

    Vectorized like ``add_bucket``: decimal doc_ids take a multiplicative
    mix of (id, salt) entirely in numpy; other ids fall back to a crc32 row
    loop.  Path chosen PER VALUE (a per-batch choice would split one doc
    across hash functions).  Any deterministic function of (doc_id, salt)
    is correct here — assembly restores order by (salt, offset), so the
    bucket only routes (property-tested in tests/test_state.py)."""
    col = pc.cast(batch.column("doc_id"), pa.string())
    offs = num_col(batch.column("offset"), np.int64)
    salts = offs // salt_range
    numeric = pc.and_(
        pc.utf8_is_decimal(col),
        pc.less_equal(pc.utf8_length(col), 18),
    )
    num_mask = numeric.combine_chunks().to_numpy(zero_copy_only=False)
    buckets = np.empty(batch.num_rows, dtype=np.int32)
    if num_mask.any():
        ids = pc.cast(col.filter(numeric), pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        mixed = (
            ids * _KNUTH
            ^ (salts[num_mask].astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
        )
        buckets[num_mask] = (
            (mixed & np.uint64(0xFFFFFFFF)) % np.uint64(WIDE_BUCKET_SPACE)
        ).astype(np.int32)
    if not num_mask.all():
        crc = zlib.crc32
        rest = col.filter(pc.invert(numeric)).to_pylist()
        rest_salts = salts[~num_mask]
        buckets[~num_mask] = np.fromiter(
            (
                crc(f"{d}#{s}".encode()) % WIDE_BUCKET_SPACE
                for d, s in zip(rest, rest_salts)
            ),
            dtype=np.int32,
            count=len(rest),
        )
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


def _wide_sorted(ds, partitions: int | None = None):
    """Balanced shuffle for the salted phases: explicit uniform
    boundaries over the wide bucket space, one consumer call per
    partition (the same discipline as reassemble() — a groupby over a
    SMALL discrete bucket space samples boundaries that skew partition
    rows ~3x, the exact trap stages/dedup.py documents)."""
    p = partitions or _default_partitions()
    bounds = [WIDE_BUCKET_SPACE * i // p for i in range(1, p)]
    return ds.sort("bucket", boundaries=bounds)


def reassemble_salted(ds, salt_range: int = DEFAULT_SALT_RANGE):
    """Skew-resistant two-phase reassembly; output-equal to reassemble().

    Both phases route over the WIDE bucket space with explicit uniform
    sort boundaries (phase correctness only needs "same (doc_id, salt)
    shard → same partition", which any deterministic bucket gives).
    ``partial_assemble_group`` / ``assemble_group`` already handle
    arbitrarily many shards per call, so one vectorized call per sort
    partition replaces per-group Python dispatch."""
    ds = ds.map_batches(explode_spans, batch_format="pyarrow")
    ds = ds.map_batches(
        add_salt_bucket, fn_kwargs={"salt_range": salt_range},
        batch_format="pyarrow",
    )
    partials = _wide_sorted(ds).map_batches(
        partial_assemble_group, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )
    # phase 2: plain reassembly over the (much smaller) partial-span set
    partials = partials.map_batches(add_bucket, batch_format="pyarrow")
    return _wide_sorted(partials).map_batches(
        assemble_group, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True,
    )
