"""The flagship pipeline: spans table -> reassembly shuffle -> extraction.

Ray shape: ``read_spans`` (2 blocks per CPU) -> one ``_lane_rows`` map
per read block (source predicates, explode, wide-space bucket key) ->
one sort exchange (``shuffle.co_partition``) -> per-partition
``assemble_group`` -> ``map_batches(extract_batch)``, all as
plain-function tasks; this is ``stages/reassemble.reassemble`` with the
lane predicates fused into its first step.  Per-block granularity
replaces the reference's coarse (model x dataset) process-pool jobs, so
retries and skew shrink from "one dataset x model" to "one block".

Skew handling is automatic (stages/skew.py): a footer probe and, only
when it is suspicious, a per-doc size census name the oversized docs;
those take a heavy lane, split from the plain lane at the source by a
broadcast id predicate, with a batch_size=1 extract.  The heavy lane's
reassembly is one exchange on doc_id, with one partition per heavy doc
at most.

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
from ..stages.reassemble import (
    add_salt_bucket,
    assemble_group,
    assemble_salted,
    explode_spans,
)
from ..stages.shuffle import add_bucket, co_partition, partition_count
from ..stages.skew import filter_doc_ids, filter_partition
from ..state.memo import memo

PLAIN_BATCH = 64  # docs per extract call in the plain lane
HEAVY_BATCH = 1  # one oversized doc per extract call


def _resolve_heavy_ids(spans_path, heavy_lane_bytes, salted):
    """Skew-routing decision (stages/skew.py).  Returns
    ``(heavy_ids | None, salted_bool)``; ``heavy_ids=None`` means single
    lane, and ``salted_bool`` says whether that lane (or, with heavy
    ids, the light lane) is salted.  ``heavy_lane_bytes="auto"`` runs
    the metadata probe and, only when suspicious, the per-doc size
    census; an explicit int threshold runs the census directly (the
    round-2 post-assembly ``materialize`` lane split is gone — lanes now
    filter at the source).  Memoized per (spans table files, Ray job,
    arguments) (``state/memo``), so repeated pipeline calls over one
    table (bench, eval, the per-model queries, a checkpoint run and its
    resume) probe/census once, and any rewrite invalidates."""
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
    return ids, salted is True  # the heavy lane never salts


def _lane_rows(batch, partition, ids_ref, keep, salted):
    """A lane's whole source step, in ONE map call: the checkpoint
    partition predicate, the heavy-id predicate, ``explode_spans`` and
    the routing column (``add_salt_bucket`` when ``salted``, else
    ``add_bucket`` on doc_id).  Ray never calls a map on a 0-row block:
    it passes on a block with no columns, and every operator that then
    sees it next to real blocks logs a schema mismatch.  A predicate
    that empties a block therefore shares its call with every step up
    to the sort, so the empty block leaves with the sort's schema."""
    if partition is not None:
        batch = filter_partition(batch, *partition)
    if ids_ref is not None:
        batch = filter_doc_ids(batch, ids_ref, keep)
    rows = explode_spans(batch)
    return add_salt_bucket(rows) if salted else add_bucket(rows)


def extraction_pipeline(
    spans_path: str,
    models=DEFAULT_MODELS,
    heavy_lane_bytes="auto",
    salted="auto",
    partition: tuple | None = None,
) -> "ray.data.Dataset":
    """Lazy Dataset of extractions for ``models`` over the spans table.

    Skew routing is AUTOMATIC by default: a metadata-only probe of the
    spans table shortlists pathological byte/span tails, a census names
    the heavy docs, and those route through a one-exchange reassembly +
    batch_size=1 extract lane while everything else takes the plain
    balanced path (stages/skew.py).  ``heavy_lane_bytes`` accepts an
    explicit byte threshold (census runs directly), or None to force a
    single lane; ``salted`` accepts True (the single or light lane
    salted), False (never), or "auto" (only a uniformly heavy corpus);
    the heavy lane never salts.  ``partition=(pids, P)`` keeps
    only the docs with ``partition_of(doc_id, P)`` in ``pids``; the
    routing decision is still made over the whole table, so it does not
    depend on which partitions are pending."""
    from ..functions.extractors import list_extractors

    unknown = [m for m in models if isinstance(m, str) and m not in list_extractors()]
    if unknown:
        raise ValueError(
            f"unknown extractor(s) {unknown}; available: {list_extractors()}"
        )
    heavy_ids, salted = _resolve_heavy_ids(spans_path, heavy_lane_bytes, salted)

    if partition is not None:
        partition = (sorted(partition[0]), partition[1])

    def lane(salted, ids_ref=None, keep=None):
        rows = read_spans(spans_path).map_batches(
            _lane_rows,
            fn_kwargs={
                "partition": partition,
                "ids_ref": ids_ref,
                "keep": keep,
                "salted": salted,
            },
            batch_format="pyarrow",
        )
        if keep:
            # the heavy lane: its keys are the heavy docs, and a partition
            # without one would still cost a (0-column) block
            return co_partition(
                rows, assemble_group,
                partitions=min(partition_count(), len(heavy_ids)),
            )
        # salted: two-phase skew-resistant reassembly (same output) for
        # inputs with pathological span-count tails (stages/reassemble.py)
        if salted:
            return assemble_salted(rows)
        # size-aware partitioning: the caller knows the table's on-disk
        # bytes, so partitions never exceed ~64 MiB regardless of cluster
        # shape
        nbytes = sum(os.path.getsize(f) for f in table_files(spans_path))
        return co_partition(rows, assemble_group,
                            partitions=partition_count(nbytes))

    def extract(ds, size):
        return ds.map_batches(
            extract_batch,
            fn_kwargs={"models": models},
            batch_format="pyarrow",
            batch_size=size,
        )

    if not heavy_ids:
        return extract(lane(salted), PLAIN_BATCH)
    # Two-lane routing, split AT THE SOURCE by a broadcast id predicate:
    # oversized docs go through their own reassembly and a batch_size=1
    # extract so a 50 MB pathological page never pins a plain-reassembly
    # bucket nor serializes a batch of 4 kB pages.  No materialization —
    # each lane is an independent streaming read; the heavy lane prunes
    # to a handful of docs immediately.
    ids_ref = ray.put(heavy_ids)
    out_light = extract(lane(salted, ids_ref, keep=False), PLAIN_BATCH)
    out_heavy = extract(lane(False, ids_ref, keep=True), HEAVY_BATCH)
    return out_light.union(out_heavy)
