"""Automatic skew probe + routing for the extraction pipeline.

North rule: "oversized or parse-pathological documents are ... salted
into balanced partitions".  Round 2 had the machinery (salted
reassembly, a heavy batch_size=1 lane) but both were OPT-IN flags —
at 100x scale somebody had to know to flip them.  This module makes the
default pipeline self-routing, in three escalating steps:

1. ``probe_row_groups`` — a METADATA-ONLY look at the spans table's
   parquet footers (no data read, bounded file count).  Each row group
   exposes its ``spans.list.element.text`` uncompressed byte total and
   the leaf value count, so avg-doc-bytes and avg-spans-per-doc per row
   group come for free.  A pathological document inflates its row
   group's averages far above the corpus median; a healthy corpus shows
   ratio ~1 and the pipeline stays exactly on the single-lane fast path
   (the probe is the only cost — microseconds of footer reads).
2. ``heavy_doc_ids`` — run ONLY when the probe is suspicious (or the
   caller passes an explicit byte threshold): a shuffle-free Ray scan.
   Each read block is reduced to one (doc_id, html bytes, span count)
   row per doc it holds (``np.bincount`` over the list parent indices,
   then a pyarrow ``group_by`` sum inside the same read task), and the
   driver sums those partials with one more pyarrow ``group_by`` and
   keeps the ids above threshold.  There is no all-to-all: a sort or
   hash groupby would pay a mapper x reducer exchange to move two ints
   per doc.  By the definition of a skew TAIL the heavy set is tiny; a
   cap guards the degenerate "everything is heavy" corpus, which is not
   skew and wants the uniformly-salted pipeline instead.
3. Routing (pipelines/extraction.py): the heavy-id set is broadcast via
   ``ray.put`` and both lanes filter AT THE SOURCE with a vectorized
   ``pc.is_in`` predicate — the light lane takes the plain balanced
   reassembly, the heavy lane takes one exchange on doc_id (at most one
   partition per heavy doc) plus a batch_size=1 extract.  It does not
   salt: offsets are dense from 0, so salting would split only a doc of
   more than ``DEFAULT_SALT_RANGE`` spans; for any other doc the salted
   first phase only adds an exchange.  Nothing materializes: round 2's
   ``assembled.materialize()`` lane split is gone, replaced by two
   independent streaming reads of the (column-pruned) source.  Two
   scans of the input beat one materialization of the post-shuffle
   corpus at scale: the heavy lane's read prunes to a handful of docs
   via the predicate, and the light lane's shuffle is provably
   tail-free, so neither lane ever holds the corpus in memory.

``filter_partition`` is the second source-side predicate, built like
``filter_doc_ids``: it restricts a pipeline run to a set of checkpoint
partitions, ``partition_of(doc_id, P) in pids`` (state/checkpoint.py
runs every pending partition of an invocation as one such job).

Reference parity note: the reference has no skew handling at all — its
unit of work is a whole (model x dataset) process-pool job
(/root/reference/src/extraction_benchmark/extract.py:127-161), so one
pathological page pins one process for the whole dataset.  This module
is part of the engine's beyond-reference scale story.
"""
from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# --- probe thresholds -------------------------------------------------
# The probe only SHORTLISTS: a false positive costs one size scan that
# then finds nothing, so its ratios are deliberately touchy.  The scan's
# thresholds are the real routing decision.
PROBE_RG_RATIO = 2.0  # max/median row-group avg-doc-bytes (or spans)
PROBE_MAX_FILES = 64  # footers read; spread across the listing
# Second signal, for skew the footers cannot see: when heavy docs are
# SCATTERED (table shuffled at rest), every row group's average inflates
# equally and the ratio stays ~1.  But a heavy doc's individual span
# ROWS are themselves outliers, so a bounded sample of real rows shows
# the tail.  Both thresholds must hit: an absolute floor (row chunks
# under 64 KiB never need a heavy lane) and a relative one.
PROBE_SAMPLE_FILES = 4  # row group 0 of this many files, spread
PROBE_ROW_ABS_MIN = 64 << 10
PROBE_ROW_RATIO = 32.0  # max/median sampled per-row html bytes

# --- scan thresholds --------------------------------------------------
HEAVY_ABS_MIN_BYTES = 256 << 10  # never call a doc heavy below 256 KiB
HEAVY_BYTES_FACTOR = 32  # ... or below 32x the probe's median doc bytes
HEAVY_ABS_MIN_SPANS = 4096
HEAVY_SPANS_FACTOR = 32
HEAVY_MAX_DOCS = 4096  # above this it is not a tail -> salt everything


def probe_row_groups(spans_path: str) -> dict | None:
    """Metadata-only skew shortlist over the spans table's footers.

    Returns ``{"doc_bytes_med", "doc_bytes_max", "spans_med",
    "spans_max", "suspect"}`` or None when the table has too few row
    groups to compare (single row group: nothing to be skewed against —
    the table fits one task anyway)."""
    import pyarrow.parquet as pq

    from ..sources.storage import table_files

    files = table_files(spans_path)
    if len(files) > PROBE_MAX_FILES:
        # deterministic spread, not a prefix: skew can live anywhere
        step = len(files) / PROBE_MAX_FILES
        files = [files[int(i * step)] for i in range(PROBE_MAX_FILES)]
    bytes_per_doc: list[float] = []
    spans_per_doc: list[float] = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            rows = rg.num_rows
            if rows == 0:
                continue
            text_bytes = spans = None
            for ci in range(rg.num_columns):
                col = rg.column(ci)
                p = col.path_in_schema
                if p.endswith(".text"):
                    text_bytes = col.total_uncompressed_size
                elif p.endswith(".offset"):
                    spans = col.num_values
            if text_bytes is None or spans is None:
                return None  # not a spans-shaped table
            bytes_per_doc.append(text_bytes / rows)
            spans_per_doc.append(spans / rows)
    if len(bytes_per_doc) < 2:
        return None
    b_med = float(np.median(bytes_per_doc))
    s_med = float(np.median(spans_per_doc))
    b_max = float(max(bytes_per_doc))
    s_max = float(max(spans_per_doc))
    suspect = (b_med > 0 and b_max / b_med >= PROBE_RG_RATIO) or (
        s_med > 0 and s_max / s_med >= PROBE_RG_RATIO
    )
    if not suspect:
        suspect = _sampled_row_tail_suspect(files)
    return {
        "doc_bytes_med": b_med,
        "doc_bytes_max": b_max,
        "spans_med": s_med,
        "spans_max": s_max,
        "suspect": suspect,
    }


def _sampled_row_tail_suspect(files: list[str]) -> bool:
    """Bounded DATA sample (row group 0 of a few spread files): is the
    per-row html byte distribution heavy-tailed?  Catches skew the
    footer ratios miss when heavy docs' rows are scattered uniformly.
    A single heavy doc in a corpus too large for the sample to touch
    stays invisible — the residual risk of any bounded probe; an
    explicit ``heavy_lane_bytes=<int>`` forces the census regardless."""
    import pyarrow.parquet as pq

    if len(files) > PROBE_SAMPLE_FILES:
        step = len(files) / PROBE_SAMPLE_FILES
        files = [files[int(i * step)] for i in range(PROBE_SAMPLE_FILES)]
    row_bytes: list[np.ndarray] = []
    for f in files:
        pf = pq.ParquetFile(f)
        try:
            t = pf.read_row_group(0, columns=["doc_id", "spans"])
        except Exception:
            return False
        part = doc_size_partials(t)
        row_bytes.append(part.column("b").to_numpy(zero_copy_only=False))
    if not row_bytes:
        return False
    all_b = np.concatenate(row_bytes)
    if all_b.size < 8:
        return False
    med = float(np.median(all_b))
    mx = float(all_b.max())
    return mx >= PROBE_ROW_ABS_MIN and (med <= 0 or mx / med >= PROBE_ROW_RATIO)


def doc_size_partials(batch: pa.Table) -> pa.Table:
    """(doc_id, spans) rows -> per-ROW (doc_id, html bytes, span count)
    partials, fully vectorized (docs chunked across rows are summed by
    ``sum_by_doc``)."""
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
    tlen = pc.binary_length(flat.field("text")).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    is_html = pc.equal(flat.field("kind"), "html").to_numpy(
        zero_copy_only=False
    )
    n = batch.num_rows
    b = np.bincount(
        parents, weights=np.where(is_html, tlen, 0), minlength=n
    ).astype(np.int64)
    s = np.bincount(parents, minlength=n).astype(np.int64)
    return pa.table(
        {
            "doc_id": pc.cast(batch.column("doc_id"), pa.string()),
            "b": pa.array(b),
            "s": pa.array(s),
        }
    )


def sum_by_doc(sizes: pa.Table) -> pa.Table:
    """(doc_id, b, s) partials -> one row per doc with the sums, same
    columns, so it applies again to its own concatenated outputs."""
    g = sizes.group_by("doc_id", use_threads=False).aggregate(
        [("b", "sum"), ("s", "sum")]
    )
    return pa.table({"doc_id": g["doc_id"], "b": g["b_sum"], "s": g["s_sum"]})


def block_doc_sizes(block: pa.Table) -> pa.Table:
    """One whole read block -> one (doc_id, b, s) row per doc in it."""
    return sum_by_doc(doc_size_partials(block))


def heavy_doc_ids(
    spans_path: str,
    byte_threshold: int,
    span_threshold: int | None = None,
) -> list[str] | None:
    """Per-doc size census; returns the sorted ids of docs whose total
    html bytes >= ``byte_threshold`` (or span count >=
    ``span_threshold``), or None when more than HEAVY_MAX_DOCS qualify
    (uniformly heavy corpus — route the WHOLE pipeline salted instead).

    No shuffle: the read uses the pipeline's own block geometry
    (``read_spans``, 2 blocks per CPU), one fused task per block reduces
    it to per-doc sums (``block_doc_sizes``), and the driver fetches
    those partials and sums them with ``sum_by_doc``.  The driver holds
    at most docs x blocks rows of (string, int64, int64) — for the
    largest table served here (sf0.1, 5,000 docs, 8 blocks on 4 CPUs)
    that is 40,000 short rows, well under 1 MB.  The dominant cost is
    the one extra column scan, paid only when the metadata probe was
    suspicious."""
    import ray

    from ..sources.storage import read_spans

    refs = (
        read_spans(spans_path, columns=["doc_id", "spans"])
        .map_batches(block_doc_sizes, batch_format="pyarrow", batch_size=None)
        .to_arrow_refs()
    )
    parts = [t for t in ray.get(refs) if t.num_rows]
    if not parts:
        return []
    sizes = sum_by_doc(pa.concat_tables(parts))
    mask = pc.greater_equal(sizes["b"], int(byte_threshold))
    if span_threshold is not None:
        mask = pc.or_(mask, pc.greater_equal(sizes["s"], int(span_threshold)))
    heavy = sizes.filter(mask)["doc_id"].to_pylist()
    if len(heavy) > HEAVY_MAX_DOCS:
        return None
    return sorted(heavy)


def filter_doc_ids(batch: pa.Table, ids_ref, keep: bool) -> pa.Table:
    """Source-side lane predicate: keep (or drop) the broadcast id set.
    ``ids_ref`` is a ``ray.put`` handle of the id list, resolved once per
    worker process (``state/memo.fetch``); the membership test is the
    vectorized ``pc.is_in`` kernel."""
    from ..state.memo import fetch

    vs = pa.array(fetch(ids_ref), pa.string())
    mask = pc.is_in(pc.cast(batch.column("doc_id"), pa.string()), value_set=vs)
    if not keep:
        mask = pc.invert(mask)
    return batch.filter(mask)


def partition_of(doc_id: str, num_partitions: int) -> int:
    """A document's checkpoint partition (``state/checkpoint.py``).  Its
    on-disk layout depends on this exact function, so it never changes."""
    return zlib.crc32(doc_id.encode()) % num_partitions


def partition_ids(doc_ids, num_partitions: int) -> np.ndarray:
    """``partition_of`` of every row's doc_id.  A doc's spans and output
    rows repeat its id, so the crc32 runs once per distinct doc_id (the
    column's dictionary values), not once per row."""
    enc = pc.cast(doc_ids, pa.string()).combine_chunks().dictionary_encode()
    pid = np.fromiter(
        (partition_of(d, num_partitions) for d in enc.dictionary.to_pylist()),
        dtype=np.int64,
        count=len(enc.dictionary),
    )
    return pid[enc.indices.to_numpy(zero_copy_only=False)]


def filter_partition(batch: pa.Table, pids, num_partitions: int) -> pa.Table:
    """Source-side partition predicate: keep the rows whose doc has
    ``partition_of(doc_id, num_partitions)`` in the set ``pids``."""
    pid = partition_ids(batch.column("doc_id"), num_partitions)
    return batch.filter(pa.array(np.isin(pid, list(pids))))
