"""Shared per-(sf_dir, model) extraction output cache.

Extraction output is the engine's most expensive artifact, so every
consumer (the ``extract_*`` queries, ``scores_pipeline``, the bench
headline) reads it from here: each model is extracted ONCE per corpus.

Layout (keyed like every cache of derived state, ``state/memo.py``: the
source files' ``file_key`` plus the package code fingerprint)::

    /tmp/wceb_cache/extract-{md5(sf_dir)[:16]}/
      {md5(documents file_key)[:16]}-{code}/
        b0000/, b0001/, ...   one run_checkpointed directory per batch

A batch has no layout or completion rule of its own: it is complete when
all ``DEFAULT_NUM_PARTITIONS`` partitions are committed, and its models
are its lineage records' ``models``.  Only complete batches serve a
read; a batch whose lineage names other input files than the corpus's
spans table is removed and recomputed.  Missing models are computed in
ONE ``run_checkpointed`` call (one ``Page`` per document shares its
parse across the batch's models) into a new batch; a killed build is
resumed, keeping its committed and sealed partitions, by the next
``ensure`` that asks for one of its models.  Computing a batch first
removes the older versions of the sf_dir (``drop_other_versions``).
"""
from __future__ import annotations

import hashlib
import os
import shutil
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.storage import read_spans, table_files
from ..state.checkpoint import (
    DEFAULT_NUM_PARTITIONS,
    committed_files,
    read_lineage,
    run_checkpointed,
)
from ..state.memo import (
    CACHE_ROOT,
    artifact_root,
    code_fingerprint,
    drop_other_versions,
    source_key,
)


def _cache_dir(sf_dir: str) -> str:
    docs = source_key(os.path.join(sf_dir, "documents.parquet"))
    version = hashlib.md5(repr(docs).encode()).hexdigest()[:16]
    return os.path.join(
        artifact_root("extract", sf_dir, CACHE_ROOT),
        f"{version}-{code_fingerprint()}",
    )


def clear(sf_dir: str) -> None:
    shutil.rmtree(_cache_dir(sf_dir), ignore_errors=True)


@contextmanager
def _writer_lock(root: str):
    """Exclusive advisory lock for the compute section: two concurrent
    drivers would otherwise pick the same batch and write into each
    other's partitions.  flock scopes the lock to the fd, so a crashed
    holder releases it.  The lock file lives NEXT TO the cache dir:
    ``clear`` rmtree's the dir, and a lock file deleted mid-hold would
    hand the next opener an inode the current holder does not lock."""
    import fcntl

    os.makedirs(os.path.dirname(root) or ".", exist_ok=True)
    fd = os.open(root + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _batches(root: str, inputs: list[str]) -> dict[str, tuple]:
    """Each batch under ``root`` -> ``(models, complete)``; ``models`` is
    None while no partition is committed.  A batch whose lineage names
    input files other than ``inputs`` is removed."""
    out = {}
    for name in sorted(os.listdir(root)) if os.path.isdir(root) else ():
        batch = os.path.join(root, name)
        records = read_lineage(batch)
        if any(r["input_files"] != inputs for r in records):
            shutil.rmtree(batch, ignore_errors=True)
            continue
        models = records[0]["models"] if records else None
        out[name] = (models, len(records) == DEFAULT_NUM_PARTITIONS)
    return out


def _missing(batches: dict, models: tuple) -> list[str]:
    have = {m for ms, complete in batches.values() if complete for m in ms}
    return [m for m in models if m not in have]


def _next_batch(batches: dict, missing: list[str]) -> tuple[str, tuple]:
    """The batch to compute and its models: an incomplete batch that
    holds a missing model (or has committed nothing yet) is resumed,
    else a new batch is started for ``missing``."""
    for name, (ms, complete) in batches.items():
        if not complete and (ms is None or set(ms) & set(missing)):
            return name, tuple(ms or missing)
    i = 0
    while f"b{i:04d}" in batches:
        i += 1
    return f"b{i:04d}", tuple(missing)


def ensure(sf_dir: str, models) -> list[str]:
    """Make sure every model in ``models`` has cached extraction output;
    compute the missing ones in one shared-parse run.  Returns the
    complete batch directories that together cover ``models``.

    Fully-cached requests take the lock-free fast path; a cache miss
    enters the writer lock and RE-READS the batches (double-checked
    locking), so concurrent drivers compute each missing model exactly
    once and never write into each other's batch directories."""
    from ..sources.synth import build_spans_table

    models = tuple(models)
    root = _cache_dir(sf_dir)
    spans = build_spans_table(sf_dir)
    inputs = table_files(spans)
    batches = _batches(root, inputs)
    if _missing(batches, models):
        with _writer_lock(root):
            while True:
                batches = _batches(root, inputs)
                missing = _missing(batches, models)
                if not missing:
                    break
                drop_other_versions(root)
                name, batch_models = _next_batch(batches, missing)
                run_checkpointed(
                    spans, os.path.join(root, name), models=batch_models
                )
    wanted = set(models)
    return [
        os.path.join(root, name)
        for name, (ms, complete) in batches.items()
        if complete and wanted & set(ms)
    ]


def read(sf_dir: str, models, columns=None):
    """Dataset of cached EXTRACTIONS rows for exactly ``models`` (a batch
    may hold extra models — they are filtered out)."""
    models = tuple(models)
    files = [f for d in ensure(sf_dir, models) for f in committed_files(d)]
    read_cols = columns
    if columns is not None and "model" not in columns:
        read_cols = list(columns) + ["model"]
    # the read's block geometry: many small slice files read with Ray's
    # default ask get split, and a split read does not fuse with ``keep``
    ds = read_spans(files, columns=read_cols)
    wanted = pa.array(list(models), pa.string())

    def keep(batch: pa.Table) -> pa.Table:
        out = batch.filter(pc.is_in(batch.column("model"), value_set=wanted))
        return out.select(columns) if columns is not None else out

    return ds.map_batches(keep, batch_format="pyarrow")
