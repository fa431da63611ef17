"""The flagship pipeline: spans table -> reassembly shuffle -> extraction.

Ray shape: ``read_spans`` (2 blocks per CPU) -> ``reassemble`` (explode
-> bucket key -> one sort exchange -> per-partition ``assemble_group``)
-> ``map_batches(extract_batch)`` as plain-function tasks.  Per-block
granularity replaces the reference's coarse (model x dataset)
process-pool jobs, so retries and skew shrink from "one dataset x model"
to "one block".

Skew handling is automatic (stages/skew.py): a footer probe and, only
when it is suspicious, a per-doc size census name the oversized docs;
those take a salted reassembly and a batch_size=1 extract lane, split
from the plain lane at the source by a broadcast id predicate.
"""
from __future__ import annotations

import ray.data

from ..sources.storage import read_spans
from ..stages.extract import DEFAULT_MODELS, extract_batch
from ..stages.reassemble import (
    DEFAULT_NUM_BUCKETS,
    reassemble,
    reassemble_salted,
)


_ROUTE_CACHE: dict = {}


def _route_fingerprint(spans_path: str):
    """Driver-side cache key: path + file listing stats, so repeated
    pipeline calls over one table (bench, eval, the per-model queries)
    probe/census once, and any rewrite invalidates."""
    import glob as _glob
    import os as _os

    files = (
        sorted(_glob.glob(_os.path.join(spans_path, "*.parquet")))
        if _os.path.isdir(spans_path)
        else [spans_path]
    )
    from . import file_key

    return (
        _os.path.abspath(spans_path),
        tuple(file_key(f) for f in files),
    )


def _resolve_heavy_ids(spans_path, heavy_lane_bytes, salted):
    """Skew-routing decision (stages/skew.py).  Returns
    ``(heavy_ids | None, salted_bool)``; ``heavy_ids=None`` means single
    lane.  ``heavy_lane_bytes="auto"`` runs the metadata probe and, only
    when suspicious, the per-doc size census; an explicit int threshold
    runs the census directly (the round-2 post-assembly ``materialize``
    lane split is gone — lanes now filter at the source)."""
    if heavy_lane_bytes is None:
        return None, bool(salted)
    key = (_route_fingerprint(spans_path), heavy_lane_bytes, str(salted))
    if key in _ROUTE_CACHE:
        return _ROUTE_CACHE[key]
    out = _resolve_heavy_ids_uncached(spans_path, heavy_lane_bytes, salted)
    _ROUTE_CACHE[key] = out
    return out


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


def _assemble(ds, spans_path, num_buckets, salted):
    # salted: two-phase skew-resistant reassembly (same output) for inputs
    # with pathological span-count tails — see stages/reassemble.py
    if salted:
        return reassemble_salted(ds, num_buckets=num_buckets)
    # size-aware partitioning: the caller knows the table's on-disk
    # bytes, so partitions never exceed ~64 MiB regardless of cluster
    # shape (num_buckets only parameterizes the SALTED layout now)
    import glob as _glob
    import os as _os

    files = (
        _glob.glob(_os.path.join(spans_path, "*.parquet"))
        if _os.path.isdir(spans_path)
        else [spans_path]
    )
    nbytes = sum(_os.path.getsize(f) for f in files)
    from ..stages.reassemble import _default_partitions

    return reassemble(ds, partitions=_default_partitions(nbytes))


def extraction_pipeline(
    spans_path: str,
    models=DEFAULT_MODELS,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    batch_size: int = 64,
    heavy_lane_bytes="auto",
    salted="auto",
    override_num_blocks: int | None = None,
) -> "ray.data.Dataset":
    """Lazy Dataset of extractions for ``models`` over the spans table.

    Skew routing is AUTOMATIC by default: a metadata-only probe of the
    spans table shortlists pathological byte/span tails, a census names
    the heavy docs, and those route through a salted reassembly +
    batch_size=1 extract lane while everything else takes the plain
    balanced path (stages/skew.py).  ``heavy_lane_bytes`` accepts an
    explicit byte threshold (census runs directly), or None to force a
    single lane; ``salted`` accepts True (whole pipeline salted), False
    (never), or "auto" (heavy lane only)."""
    from ..functions.extractors import list_extractors

    unknown = [m for m in models if isinstance(m, str) and m not in list_extractors()]
    if unknown:
        raise ValueError(
            f"unknown extractor(s) {unknown}; available: {list_extractors()}"
        )
    heavy_lane_salted = salted is not False  # explicit False wins everywhere
    heavy_ids, salted = _resolve_heavy_ids(spans_path, heavy_lane_bytes, salted)
    if heavy_ids:
        # Two-lane routing, split AT THE SOURCE by a broadcast id
        # predicate: oversized docs go through a salted reassembly and a
        # batch_size=1 extract so a 50 MB pathological page never pins a
        # plain-reassembly bucket nor serializes a batch of 4 kB pages.
        # No materialization — each lane is an independent streaming
        # read; the heavy lane prunes to a handful of docs immediately.
        from ..stages.skew import filter_doc_ids

        ids_ref = ray.put(heavy_ids)

        def lane(keep: bool):
            src = read_spans(spans_path, num_blocks=override_num_blocks)
            return src.map_batches(
                filter_doc_ids,
                fn_kwargs={"ids_ref": ids_ref, "keep": keep},
                batch_format="pyarrow",
            )

        light, heavy = lane(False), lane(True)
        out_light = _assemble(
            light, spans_path, num_buckets, salted
        ).map_batches(
            extract_batch,
            fn_kwargs={"models": models},
            batch_format="pyarrow",
            batch_size=batch_size,
        )
        out_heavy = (
            reassemble_salted(heavy, num_buckets=num_buckets)
            if heavy_lane_salted
            else _assemble(heavy, spans_path, num_buckets, False)
        ).map_batches(
            extract_batch,
            fn_kwargs={"models": models},
            batch_format="pyarrow",
            batch_size=1,
        )
        return out_light.union(out_heavy)
    ds = read_spans(spans_path, num_blocks=override_num_blocks)
    return _assemble(ds, spans_path, num_buckets, salted).map_batches(
        extract_batch,
        fn_kwargs={"models": models},
        batch_format="pyarrow",
        batch_size=batch_size,
    )
