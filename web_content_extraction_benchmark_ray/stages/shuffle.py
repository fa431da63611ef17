"""The co-location shuffle: the one place that decides how rows are
routed to partitions, how many partitions there are, and how many CPUs
the session has.

Every operator that needs "all rows of one key in one task" (the
groupby-``doc_id`` reassembly, user co-groups, co-group joins and
anti-joins, posting-list candidate buckets, vectorized key reductions)
goes through ``co_partition``:

1. each row carries ``bucket = wide_bucket(key)``, one of ``WIDE_SPACE``
   (2^20) values;
2. ONE ``sort("bucket")`` with explicit uniform boundaries over
   ``WIDE_SPACE`` cuts the rows into ``partition_count()`` partitions;
3. ONE ``fn`` call per partition (``map_batches(batch_size=None)`` on
   the partition's block).

A partition holds many keys, so ``fn`` must group by its real key
inside the call, never by the bucket.  Why this shape: a ``map_groups``
over a small discrete bucket space fires Python once per group and lets
Ray sample range boundaries, which skewed partition rows ~3x (few
distinct values per sampled range); uniform cuts of a uniform 2^20 hash
give ~N/P +- sqrt(N/P) rows per partition at any partition count, and
the partition count, not a bucket count, sets the parallelism.

CONTRACT: Ray's sort materializes exactly one block per output partition
(pinned by tests/test_sort_block_contract.py), so ``fn`` always sees
whole keys.  If a Ray upgrade breaks that, the pinned test goes red.
A partition with no rows makes no block and no ``fn`` call.
"""
from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WIDE_SPACE = 1 << 20
PARTITION_TARGET_BYTES = 64 << 20  # keep a partition well under block limits
SMALL_PARTITION_BYTES = 16 << 20  # smaller ones cost more than they spread
MIN_SIZED_PARTITIONS = 4

_KNUTH = np.uint64(2654435761)
_SALT_MIX = np.uint64(0x9E3779B97F4A7C15)


def session_cpus() -> int:
    """CPUs of the Ray session (4 when Ray is not initialised)."""
    import ray

    return (
        int(ray.cluster_resources().get("CPU", 4))
        if ray.is_initialized()
        else 4
    )


def partition_count(input_bytes: int | None = None) -> int:
    """~2 balanced partitions per CPU (waves of equal tasks; more
    partitions only add sort/scheduling overhead once partitions are
    balanced — measured).  When the caller knows the bytes its shuffle
    carries, the count is also fitted to them:

    - no more than one partition per ~16 MiB (but at least 4, and never
      above the CPU count's 2 per CPU): a small input gains nothing from
      a wide session's partitions and pays their P x P all-to-all
      (measured: a 2k-vector corpus through the three sorts of
      ``simsearch.cosine_dup_pairs_lsh`` at 32 CPUs took 11 s at 64
      partitions vs ~2 s at 4);
    - no fewer than one per ~64 MiB: bounded per-partition memory at
      any cluster shape.

    A 1-CPU session always gets 2 partitions for inputs under 128 MiB."""
    p = 2 * session_cpus()
    if input_bytes:
        fit = -(-input_bytes // SMALL_PARTITION_BYTES)
        p = min(p, max(MIN_SIZED_PARTITIONS, fit))
        p = max(p, -(-input_bytes // PARTITION_TARGET_BYTES))
    return p


def wide_bucket(col, salt: np.ndarray | None = None) -> np.ndarray:
    """Key column -> int32 buckets in ``[0, WIDE_SPACE)``.

    Integer keys, and string keys that are ASCII decimal numbers of at
    most 18 digits, take a vectorized Knuth multiplicative hash (it
    decorrelates the bucket from id ranges: a plain modulo maps strided
    ids to one bucket and contiguous ids to one partition); any other
    key takes a crc32 row loop over its string form.  The path is chosen
    PER VALUE, never per batch, so the same key lands in the same bucket
    whatever its batch neighbours are.  ``salt`` (int64, one per row)
    mixes a secondary key into the hash: rows route by (key, salt)."""
    if isinstance(col, np.ndarray):
        col = pa.array(col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    buckets = np.empty(n, dtype=np.int32)
    if pa.types.is_integer(col.type):
        numeric = np.ones(n, dtype=bool)
        ints = col.to_numpy(zero_copy_only=False).astype(np.int64)
        strs = None
    else:
        strs = pc.cast(col, pa.string())
        # <=18 digits so the int64 cast below cannot overflow; ASCII
        # because utf8_is_decimal also accepts other scripts' digits
        # ("١٢٣", "２０"), which the int64 cast rejects; all three are
        # plain C kernels (a regex here cost as much as the crc loop)
        mask = pc.and_(
            pc.and_(pc.utf8_is_decimal(strs), pc.string_is_ascii(strs)),
            pc.less_equal(pc.utf8_length(strs), 18),
        )
        numeric = mask.to_numpy(zero_copy_only=False)
        ints = None
        if numeric.any():
            ints = pc.cast(strs.filter(mask), pa.int64()).to_numpy(
                zero_copy_only=False
            )
    if numeric.any():
        mixed = ints.astype(np.uint64) * _KNUTH
        if salt is not None:
            mixed = mixed ^ (salt[numeric].astype(np.uint64) * _SALT_MIX)
        buckets[numeric] = (
            (mixed & np.uint64(0xFFFFFFFF)) % np.uint64(WIDE_SPACE)
        ).astype(np.int32)
    if not numeric.all():
        crc = zlib.crc32
        rest = strs.filter(pa.array(~numeric)).to_pylist()
        if salt is None:
            keys = (s.encode() for s in rest)
        else:
            keys = (
                f"{d}#{s}".encode() for d, s in zip(rest, salt[~numeric])
            )
        buckets[~numeric] = np.fromiter(
            (crc(k) % WIDE_SPACE for k in keys), dtype=np.int32,
            count=len(rest),
        )
    return buckets


def add_bucket(batch: pa.Table, key: str = "doc_id") -> pa.Table:
    """Appends ``bucket = wide_bucket(batch[key])``.  A plain function
    task (not an actor pool): stateless, and task pools never hold CPU
    reservations that would starve the adjacent all-to-all's tasks."""
    return batch.append_column(
        "bucket", pa.array(wide_bucket(batch.column(key)), pa.int32())
    )


def co_partition(ds, fn, key: str | None = None,
                 partitions: int | None = None):
    """Co-locate rows by key and run ``fn`` once per partition.

    With ``key``, each row is routed by ``wide_bucket(row[key])``;
    without, the rows already carry a ``bucket`` column in
    ``[0, WIDE_SPACE)`` (a composite key hashed by ``wide_bucket``, or a
    bucket carried from an earlier co-location).  ``partitions``
    defaults to ``partition_count()``.  ``fn`` gets a pyarrow table of
    whole keys and must group by its real key (see the module
    docstring); ``fn=None`` returns the co-located rows themselves (one
    block per partition) for a caller that reads them more than once."""
    if key is not None:
        ds = ds.map_batches(
            add_bucket, fn_kwargs={"key": key}, batch_format="pyarrow"
        )
    p = partitions or partition_count()
    bounds = [WIDE_SPACE * i // p for i in range(1, p)]
    located = ds.sort("bucket", boundaries=bounds)
    if fn is None:
        return located
    return located.map_batches(
        fn, batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )
