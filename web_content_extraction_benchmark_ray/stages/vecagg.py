"""Bucketed VECTORIZED groupby reductions.

Ray 2.49's native aggregates (Sum/Min/...) Python-combine once per
distinct key inside the sort-based Aggregate operator — measured 2.7 s
of events_sliding's 3.6 s for 14.4k keys, and the dominant cost of the
wordcount/window-hash aggregates (a per-key loop is exactly the
"map_groups fires once per group" trap, one layer down).  This stage
keeps the aggregation semantics but makes the key-space cost vectorized:

1. ``stages/shuffle.co_partition(ds, reduce, key=key)`` routes every
   row by ``wide_bucket(key)`` into ``partition_count()`` balanced sort
   partitions, so all rows of one key meet in one partition;
2. ``reduce`` fires Python once per PARTITION (~2 per CPU), never per
   key: one ``np.unique`` factorize of the key plus ``np.add.at`` /
   ``np.minimum.at`` over the value columns — flat array passes
   regardless of key cardinality.

At 100-TB scale the key space (vocabulary types, window hashes, content
hashes) is billions; per-key Python work is a scale-killer while
per-partition flat reductions track data size.  The routing hash is
uniform, so skew only arises from a single hot KEY, which pre-aggregation
in the upstream combiner already collapses to one row per block.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from .shuffle import co_partition

_OPS = ("sum", "min", "max", "count")


def bucketed_groupby(
    ds,
    key: str,
    vals: list[str],
    ops: list[str],
    out_names: list[str] | None = None,
):
    """groupby(key).aggregate(ops over vals), co-partitioned + vectorized.

    Returns a Dataset with columns ``(key, *out_names)`` where
    ``out_names`` defaults to ``vals``.  ``ops[i]`` in {sum, min, max,
    count} — count ignores the value column's contents (``vals[i]`` may
    name any existing column; it only labels the output) and is exact
    because the reduce sees each key's complete group in one call —
    applies to int64 column ``vals[i]`` (integer-exact, order-
    independent — the float-parity discipline)."""
    assert len(vals) == len(ops) and all(o in _OPS for o in ops)
    names = list(out_names or vals)

    def reduce(group: pa.Table) -> pa.Table:
        kcol = group.column(key)
        is_str = not pa.types.is_integer(kcol.type)
        if is_str:
            keys = np.asarray(kcol.to_pylist(), dtype=object)
        else:
            keys = np.asarray(kcol.to_pylist(), dtype=np.int64)
        uk, kinv = np.unique(keys, return_inverse=True)
        cols: dict = {
            key: pa.array(
                uk.tolist() if is_str else uk,
                pa.string() if is_str else pa.int64(),
            )
        }
        for val, op, name in zip(vals, ops, names):
            if op == "count":
                # row count per key; ``val`` only names the output
                cols[name] = pa.array(
                    np.bincount(kinv, minlength=len(uk)).astype(np.int64),
                    pa.int64(),
                )
                continue
            v = np.asarray(group.column(val).to_pylist(), dtype=np.int64)
            if op == "sum":
                acc = np.zeros(len(uk), dtype=np.int64)
                np.add.at(acc, kinv, v)
            elif op == "min":
                acc = np.full(len(uk), np.iinfo(np.int64).max, dtype=np.int64)
                np.minimum.at(acc, kinv, v)
            else:
                acc = np.full(len(uk), np.iinfo(np.int64).min, dtype=np.int64)
                np.maximum.at(acc, kinv, v)
            cols[name] = pa.array(acc, pa.int64())
        return pa.table(cols)

    return co_partition(ds, reduce, key=key)
