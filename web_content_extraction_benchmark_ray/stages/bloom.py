"""Distributed Bloom-filter build + exact membership prefiltering.

The incremental-ingest dedup problem: filter an incoming batch against an
already-ingested reference corpus WITHOUT shipping the full reference
hash set to every worker.  At 100 TB the reference is billions of hashes
(tens of GB as a set); a Bloom filter at ~1% false-positive rate is
~1.2 GB per 10^9 keys, and the packed BITS are the only broadcast.
Exactness is preserved by the caller re-checking bloom HITS against the
reference hash rows (a light 8-byte-row co-group) — false positives are
confirmed away, and a Bloom filter has no false negatives, so misses
pass through shuffle-free.  Reference behavior: this engine's dedup
family (stages/dedup.py); no counterpart exists in the reference repo.

Probe positions use double hashing (Kirsch & Mitzenmacher 2006):
``pos_j = h1 + j * h2  (mod m)`` — k independent-enough probes derived
from one 60-bit content hash, fully vectorized in numpy uint64.

Build shape: each input block contributes one PACKED partial bitmap row
(``m/8`` bytes); the driver ORs the partials.  The driver never sees
hashes — only ``num_blocks`` fixed-size bitmaps, and the OR result is
exactly the filter every worker reads via ``ray.put``.  (A tree OR in
``map_batches`` would bound even that; at the default 2^20 bits a
partial is 128 KiB, so driver OR is the simpler correct shape.)
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.arrownp import num_col

BLOOM_BITS_DEFAULT = 1 << 20  # m; ~128 KiB packed
BLOOM_K = 4  # probes per key

_MIX = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 increment


def _norm_bits(m: int) -> int:
    """Round the requested filter size up to a whole word (the packed
    array is uint64; a non-multiple-of-64 m would index past the last
    word).  Build and probe both normalize, so any caller-supplied m
    yields one consistent filter."""
    return max(64, (int(m) + 63) // 64 * 64)


def _probes(h: np.ndarray, m: int) -> np.ndarray:
    """(k, n) probe positions for int64 hashes ``h`` (vectorized)."""
    h1 = h.astype(np.uint64)
    # one splitmix64 round for the stride hash; force odd so stride
    # cycles the whole table even when m is a power of two
    h2 = h1 + _MIX
    h2 = (h2 ^ (h2 >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h2 = (h2 ^ (h2 >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    h2 = (h2 ^ (h2 >> np.uint64(31))) | np.uint64(1)
    j = np.arange(BLOOM_K, dtype=np.uint64)[:, None]
    return ((h1[None, :] + j * h2[None, :]) % np.uint64(m)).astype(np.int64)


# above this size, per-block full bitmaps (m/8 bytes EACH) cost more than
# shuffling probe positions once; the build switches to slice-partitioned
# reduction
SLICED_BUILD_MIN_BITS = 1 << 24
SLICE_BITS = 1 << 23  # bits owned by one reducer slice (1 MiB packed)


def bloom_from_hashes(ds, col: str, m: int = BLOOM_BITS_DEFAULT) -> np.ndarray:
    """Build the packed (uint64) filter over ``ds[col]`` (int64 hashes).

    Small ``m`` (≤ ``SLICED_BUILD_MIN_BITS``): one partial bitmap per
    input block, OR-reduced on the driver — a partial is m/8 bytes, so
    this is right only while m is small.

    Large ``m``: per-block FULL bitmaps would ship m/8 bytes per block
    (GBs × thousands of blocks).  Instead the BIT SPACE is partitioned:
    blocks emit (slice, pos) probe rows (light ints, one all-to-all),
    each reducer ORs its own m/SLICE_BITS-bit slice vectorized, and the
    driver assembles the m bytes exactly once.  Both paths produce the
    identical filter (pinned by tests)."""
    m = _norm_bits(m)
    if m <= SLICED_BUILD_MIN_BITS:

        def partial(batch: pa.Table) -> pa.Table:
            bits = np.zeros(m // 64, dtype=np.uint64)
            h = num_col(batch, col, np.int64)
            if len(h):
                pos = _probes(h, m).ravel()
                np.bitwise_or.at(
                    bits, pos >> 6,
                    np.uint64(1) << (pos & 63).astype(np.uint64),
                )
            return pa.table(
                {"bits": pa.array([bits.tobytes()], pa.binary())}
            )

        acc = np.zeros(m // 64, dtype=np.uint64)
        for row in ds.map_batches(
            partial, batch_format="pyarrow"
        ).iter_rows():
            acc |= np.frombuffer(row["bits"], dtype=np.uint64)
        return acc

    def probe_rows(batch: pa.Table) -> pa.Table:
        h = num_col(batch, col, np.int64)
        if not len(h):
            return pa.table(
                {"slice": pa.array([], pa.int64()),
                 "pos": pa.array([], pa.int64())}
            )
        pos = np.unique(_probes(h, m).ravel())
        return pa.table(
            {
                "slice": pa.array(pos // SLICE_BITS, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
            }
        )

    def reduce_slice(group: pa.Table) -> pa.Table:
        sl = int(group.column("slice")[0].as_py())
        base = sl * SLICE_BITS
        n_bits = min(SLICE_BITS, m - base)
        bits = np.zeros(-(-n_bits // 64), dtype=np.uint64)
        pos = num_col(group, "pos", np.int64) - base
        np.bitwise_or.at(
            bits, pos >> 6, np.uint64(1) << (pos & 63).astype(np.uint64)
        )
        return pa.table(
            {
                "slice": pa.array([sl], pa.int64()),
                "bits": pa.array([bits.tobytes()], pa.binary()),
            }
        )

    acc = np.zeros(m // 64, dtype=np.uint64)
    reduced = (
        ds.map_batches(probe_rows, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(reduce_slice, batch_format="pyarrow")
    )
    for row in reduced.iter_rows():
        base_w = row["slice"] * (SLICE_BITS // 64)
        part = np.frombuffer(row["bits"], dtype=np.uint64)
        acc[base_w:base_w + len(part)] |= part
    return acc


def bloom_contains(packed: np.ndarray, h: np.ndarray, m: int) -> np.ndarray:
    """Vectorized membership probe: True where ALL k probe bits are set
    (i.e. possibly-present; False is a certain miss)."""
    m = _norm_bits(m)
    if len(h) == 0:
        return np.zeros(0, dtype=bool)
    pos = _probes(np.asarray(h, dtype=np.int64), m)
    bit = (
        packed[pos >> 6] >> (pos & 63).astype(np.uint64)
    ) & np.uint64(1)
    return (bit == 1).all(axis=0)


def distinct_int_values(ds, col: str) -> np.ndarray:
    """Distinct values of an int column: per-batch ``np.unique`` partials,
    one driver ``np.unique`` over the collected partials.  The shared
    hit-bucket collection of both incremental screens
    (pipelines/dataops.py dedup_incremental / dedup_incremental_minhash)
    — bounded by the bucket space, never by the row count."""

    def uniq(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                col: pa.array(
                    np.unique(num_col(b, col, np.int64)), pa.int64()
                )
            }
        )

    vals = [
        r[col]
        for r in ds.map_batches(uniq, batch_format="pyarrow").take_all()
    ]
    return np.unique(np.asarray(vals, dtype=np.int64))
