"""The flagship pipeline: spans table -> reassembly shuffle -> extraction.

Ray shape: ``read_spans`` (2 blocks per CPU) -> ``reassemble`` (explode
-> wide-space bucket key -> one sort exchange -> per-partition
``assemble_group``) -> ``map_batches(extract_batch)`` as plain-function
tasks.  Per-block granularity replaces the reference's coarse (model x
dataset) process-pool jobs, so retries and skew shrink from "one dataset
x model" to "one block".

Skew handling is automatic (stages/skew.py): a footer probe and, only
when it is suspicious, a per-doc size census name the oversized docs;
those take a salted reassembly and a batch_size=1 extract lane, split
from the plain lane at the source by a broadcast id predicate.

``partition=(pids, P)`` restricts a run to a set of checkpoint
partitions with a second source-side predicate (``filter_partition``),
applied in every lane; it is how ``state/checkpoint.py`` runs every
pending partition of an invocation through this same pipeline in one
job.
"""
from __future__ import annotations

import os

import ray.data

from ..sources.storage import read_spans, table_files
from ..stages.extract import DEFAULT_MODELS, extract_batch
from ..stages.reassemble import reassemble, reassemble_salted
from ..stages.shuffle import partition_count
from ..state.memo import memo


def _resolve_heavy_ids(spans_path, heavy_lane_bytes, salted):
    """Skew-routing decision (stages/skew.py).  Returns
    ``(heavy_ids | None, salted_bool)``; ``heavy_ids=None`` means single
    lane.  ``heavy_lane_bytes="auto"`` runs the metadata probe and, only
    when suspicious, the per-doc size census; an explicit int threshold
    runs the census directly (the round-2 post-assembly ``materialize``
    lane split is gone — lanes now filter at the source).  Memoized per
    (spans table files, Ray job, arguments) (``state/memo``), so repeated
    pipeline calls over one table (bench, eval, the per-model queries,
    a checkpoint run and its resume) probe/census once, and any rewrite
    invalidates."""
    if heavy_lane_bytes is None:
        return None, bool(salted)
    return memo(
        "extraction.route", spans_path,
        lambda: _resolve_heavy_ids_uncached(
            spans_path, heavy_lane_bytes, salted
        ),
        heavy_lane_bytes, str(salted),
    )


def _resolve_heavy_ids_uncached(spans_path, heavy_lane_bytes, salted):
    from ..stages import skew

    if heavy_lane_bytes == "auto":
        probe = skew.probe_row_groups(spans_path)
        if not probe or not probe["suspect"]:
            return None, salted is True
        byte_t = max(
            skew.HEAVY_ABS_MIN_BYTES,
            int(skew.HEAVY_BYTES_FACTOR * probe["doc_bytes_med"]),
        )
        span_t = max(
            skew.HEAVY_ABS_MIN_SPANS,
            int(skew.HEAVY_SPANS_FACTOR * probe["spans_med"]),
        )
    else:
        byte_t, span_t = int(heavy_lane_bytes), None
    ids = skew.heavy_doc_ids(spans_path, byte_t, span_t)
    if ids is None:
        # not a tail: everything qualifies -> uniformly salted pipeline
        return None, salted in (True, "auto")
    if not ids:
        return None, salted is True
    return ids, salted is True  # "auto": salt only the heavy lane


def _assemble(ds, spans_path, salted):
    # salted: two-phase skew-resistant reassembly (same output) for inputs
    # with pathological span-count tails — see stages/reassemble.py
    if salted:
        return reassemble_salted(ds)
    # size-aware partitioning: the caller knows the table's on-disk
    # bytes, so partitions never exceed ~64 MiB regardless of cluster
    # shape
    nbytes = sum(os.path.getsize(f) for f in table_files(spans_path))
    return reassemble(ds, partitions=partition_count(nbytes))


def extraction_pipeline(
    spans_path: str,
    models=DEFAULT_MODELS,
    batch_size: int = 64,
    heavy_lane_bytes="auto",
    salted="auto",
    partition: tuple | None = None,
) -> "ray.data.Dataset":
    """Lazy Dataset of extractions for ``models`` over the spans table.

    Skew routing is AUTOMATIC by default: a metadata-only probe of the
    spans table shortlists pathological byte/span tails, a census names
    the heavy docs, and those route through a salted reassembly +
    batch_size=1 extract lane while everything else takes the plain
    balanced path (stages/skew.py).  ``heavy_lane_bytes`` accepts an
    explicit byte threshold (census runs directly), or None to force a
    single lane; ``salted`` accepts True (whole pipeline salted), False
    (never), or "auto" (heavy lane only).  ``partition=(pids, P)`` keeps
    only the docs with ``partition_of(doc_id, P)`` in ``pids``; the
    routing decision is still made over the whole table, so it does not
    depend on which partitions are pending."""
    from ..functions.extractors import list_extractors
    from ..stages.skew import filter_doc_ids, filter_partition

    unknown = [m for m in models if isinstance(m, str) and m not in list_extractors()]
    if unknown:
        raise ValueError(
            f"unknown extractor(s) {unknown}; available: {list_extractors()}"
        )
    heavy_lane_salted = salted is not False  # explicit False wins everywhere
    heavy_ids, salted = _resolve_heavy_ids(spans_path, heavy_lane_bytes, salted)

    def source():
        ds = read_spans(spans_path)
        if partition is not None:
            pids, num_partitions = partition
            ds = ds.map_batches(
                filter_partition,
                fn_kwargs={"pids": sorted(pids), "num_partitions": num_partitions},
                batch_format="pyarrow",
            )
        return ds

    def extract(ds, size):
        return ds.map_batches(
            extract_batch,
            fn_kwargs={"models": models},
            batch_format="pyarrow",
            batch_size=size,
        )

    if not heavy_ids:
        return extract(_assemble(source(), spans_path, salted), batch_size)
    # Two-lane routing, split AT THE SOURCE by a broadcast id predicate:
    # oversized docs go through a salted reassembly and a batch_size=1
    # extract so a 50 MB pathological page never pins a plain-reassembly
    # bucket nor serializes a batch of 4 kB pages.  No materialization —
    # each lane is an independent streaming read; the heavy lane prunes
    # to a handful of docs immediately.
    ids_ref = ray.put(heavy_ids)

    def lane(keep: bool):
        return source().map_batches(
            filter_doc_ids,
            fn_kwargs={"ids_ref": ids_ref, "keep": keep},
            batch_format="pyarrow",
        )

    out_light = extract(_assemble(lane(False), spans_path, salted), batch_size)
    heavy = lane(True)
    out_heavy = extract(
        reassemble_salted(heavy) if heavy_lane_salted
        else _assemble(heavy, spans_path, False),
        1,
    )
    return out_light.union(out_heavy)
