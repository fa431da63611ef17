"""Similarity search over embedding columns (list<float>).

- Brute-force cosine top-k: the query matrix (small side) is broadcast
  once via ``ray.put`` and resolved in each actor's ``__init__`` — never
  re-shipped per batch.  Each batch does one float64 matmul against the
  broadcast matrix (numpy), keeps a per-batch partial top-k, and a final
  tiny ``groupby(query_id)`` merge produces the global top-k: the classic
  combiner pattern, so the shuffle moves O(queries x k x batches) rows,
  never the corpus.
- IVF variant: the corpus is partitioned into coarse lists (here the
  table's cluster ``label``; a k-means quantizer slots in the same way),
  the partial top-k runs per list via ``groupby(label).map_groups``, and
  probed lists' partials merge identically.  With nprobe = all lists the
  result is exactly the brute-force answer (hash-verified against the same
  oracle); at scale nprobe < lists trades recall for a lists/nprobe
  scan-cost reduction.
- Near-dup cosine pairs: every batch multiplies against the broadcast
  normalized corpus matrix (fine while the corpus side fits a worker; the
  scale path is LSH-bucketing first — see dedup.simhash's band pattern).

Cosines are computed in float64 and rounded to 6 decimals BEFORE ranking,
with vec_id as tie-break, so ordering is identical in numpy and DuckDB.
"""
from __future__ import annotations

import numpy as np

from ..functions.arrownp import list_matrix, num_col
from ..state.memo import fetch
from .shuffle import co_partition, wide_bucket
import pyarrow as pa

KNN_K = 10
N_QUERIES = 8  # queries = vectors with vec_id < N_QUERIES
COS_DUP_THRESHOLD = 0.99


def load_query_matrix(embeddings_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Driver-side tiny read of the query vectors (vec_id < N_QUERIES):
    the parquet row filter prunes row groups, so only matching rows'
    embeddings ever reach the driver — never the corpus column."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        embeddings_path, columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", N_QUERIES)],
    )
    qids = num_col(t, "vec_id", np.int64)
    vecs = list_matrix(t.column("embedding"), np.float64)
    order = np.argsort(qids)
    return qids[order], vecs[order]


def _norm(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _partial_topk(
    qids: np.ndarray, qmat: np.ndarray, vec_ids: np.ndarray, vecs: np.ndarray
) -> pa.Table:
    """Top-k rows of one corpus slice against all queries."""
    cos = _norm(vecs) @ _norm(qmat).T  # (n, q) float64
    cos_r = np.floor(cos * 1e6 + 0.5) / 1e6  # SQL-twin rounding
    out_q, out_v, out_c = [], [], []
    for qi, qid in enumerate(qids):
        col = cos_r[:, qi]
        keep = vec_ids != qid  # exclude self-match
        order = np.lexsort((vec_ids[keep], -col[keep]))[:KNN_K]
        kept_ids = vec_ids[keep][order]
        kept_cos = col[keep][order]
        out_q.extend([int(qid)] * len(kept_ids))
        out_v.extend(int(v) for v in kept_ids)
        out_c.extend(float(c) for c in kept_cos)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "cos_r": pa.array(out_c, pa.float64()),
        }
    )


def partial_topk_batch(batch: pa.Table, queries_ref) -> pa.Table:
    """Task-pool batch stage: broadcast query matrix fetched once per
    worker process."""
    qids, qmat = fetch(queries_ref)
    vec_ids = num_col(batch, "vec_id", np.int64)
    vecs = list_matrix(batch.column("embedding"), np.float64)
    if vecs.size == 0:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "cos_r": pa.array([], pa.float64()),
            }
        )
    return _partial_topk(qids, qmat, vec_ids, vecs)


def merge_topk(group: pa.Table) -> pa.Table:
    """Final per-query merge: global top-k + dense rank."""
    qid = group.column("query_id")[0].as_py()
    vec_ids = num_col(group, "vec_id", np.int64)
    cos = num_col(group, "cos_r", np.float64)
    order = np.lexsort((vec_ids, -cos))[:KNN_K]
    return pa.table(
        {
            "query_id": pa.array([qid] * len(order), pa.int64()),
            "vec_id": pa.array([int(v) for v in vec_ids[order]], pa.int64()),
            "rank": pa.array(range(1, len(order) + 1), pa.int64()),
            "cos_r": pa.array([float(c) for c in cos[order]], pa.float64()),
        }
    )


def knn_bruteforce(ds, queries_ref, batch_size: int = 512):
    """Dataset(vec_id, embedding) -> (query_id, vec_id, rank, cos_r)."""
    partial = ds.map_batches(
        partial_topk_batch,
        fn_kwargs={"queries_ref": queries_ref},
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    return partial.groupby("query_id").map_groups(
        merge_topk, batch_format="pyarrow"
    )


def knn_ivf(ds, queries_ref):
    """IVF path: per-list partial top-k via groupby(label), then the same
    global merge.  nprobe = all lists -> exact (same oracle as brute force).
    """
    def list_topk(group: pa.Table) -> pa.Table:
        # broadcast query matrix resolved once per worker process (the same
        # ``fetch`` as knn_bruteforce) — a driver-side ray.get here would
        # serialize the matrix into every map_groups task closure
        qids, qmat = fetch(queries_ref)
        vec_ids = num_col(group, "vec_id", np.int64)
        vecs = list_matrix(group.column("embedding"), np.float64)
        return _partial_topk(qids, qmat, vec_ids, vecs)

    # list count is far below the read's block count at test scale: coalesce
    # so the groupby sort has no empty partitions (schema-less block warnings)
    from .coalesce import coalesce_small

    partial = coalesce_small(ds, 8).groupby("label").map_groups(
        list_topk, batch_format="pyarrow"
    )
    # final merge input is ~n_lists x n_queries x k rows — single block, so
    # the query_id groupby sort has exactly one (never-empty) partition
    return coalesce_small(partial, 1).groupby("query_id").map_groups(
        merge_topk, batch_format="pyarrow"
    )


# ------------------------------------------------- LSH-bucketed near-dup
#
# Random-hyperplane (sign-projection) LSH with md5-DERIVED INTEGER
# hyperplanes: hp(d, b) = hash60(f"rhp:{d}:{b}") % 2^20 - 2^19.  The
# embedding is quantized to integers (floor(x * 2^20 + 0.5)) before the
# dot product, so every sign bit is computed in EXACT int64 arithmetic —
# order-independent, overflow-free (|q| ~ 2^20, |w| < 2^19, dim 64 ->
# sums < 2^46), and bit-identically reproducible by the DuckDB oracle
# (the round-2 gaussian hyperplanes had no SQL twin, which made the
# oracle an exact all-pairs check that only matched because synthetic
# near-dups were exact copies — a fragile contract, now closed).
#
# Candidate band rows are LIGHT (band value + vec_id only).  The round-2
# form carried the normalized vector on every band row, so the shuffle
# moved ~8x the embedding corpus; verification now happens in a keyed
# co-group against a single-copy vector side (see verify note below).
RHP_BITS = 64
RHP_BAND_BITS = 8
RHP_BANDS = RHP_BITS // RHP_BAND_BITS  # 8 bands x 8 bits
RHP_Q = 1 << 20  # embedding quantization scale for the sign bits
RHP_W_MOD = 1 << 20  # hyperplane weight range: [-2^19, 2^19)

_HP_CACHE: dict = {}


def _int_hyperplanes(dim: int) -> np.ndarray:
    """(dim, 64) int64 hyperplane weights, md5-derived (hash60 twin) —
    regenerated per worker (4096 md5 calls), cheaper than a broadcast."""
    hp = _HP_CACHE.get(dim)
    if hp is None:
        from ..functions.hashing import hash60

        hp = np.empty((dim, RHP_BITS), dtype=np.int64)
        for d in range(dim):
            for b in range(RHP_BITS):
                hp[d, b] = hash60(f"rhp:{d}:{b}") % RHP_W_MOD - RHP_W_MOD // 2
        _HP_CACHE[dim] = hp
    return hp


def rhp_band_rows(batch: pa.Table) -> pa.Table:
    """(vec_id, embedding) -> one LIGHT row per (vector, band): integer
    sign-bit band value + wide-space sort bucket.  Fully vectorized."""
    vec_ids = num_col(batch, "vec_id", np.int64)
    n = len(vec_ids)
    if n == 0:
        return pa.table(
            {
                "bucket": pa.array([], pa.int32()),
                "band_id": pa.array([], pa.int32()),
                "band_val": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
            }
        )
    embs = list_matrix(batch.column("embedding"), np.float64)
    q = np.floor(embs * RHP_Q + 0.5).astype(np.int64)
    bits = (q @ _int_hyperplanes(embs.shape[1]) >= 0).astype(np.int64)
    weights = (1 << np.arange(RHP_BAND_BITS, dtype=np.int64))
    band_vals = (bits.reshape(n, RHP_BANDS, RHP_BAND_BITS) @ weights).ravel()
    band_ids = np.tile(np.arange(RHP_BANDS, dtype=np.int64), n)
    # the (band, val) key spans only [0, 2047]; wide_bucket spreads it
    # over the whole sort space (same degenerate-partition fix as simhash)
    buckets = wide_bucket(band_ids * (1 << RHP_BAND_BITS) + band_vals)
    return pa.table(
        {
            "bucket": pa.array(buckets),
            "band_id": pa.array(band_ids.astype(np.int32)),
            "band_val": pa.array(band_vals),
            "vec_id": pa.array(np.repeat(vec_ids, RHP_BANDS)),
        }
    )


def rhp_candidate_pairs(group: pa.Table) -> pa.Table:
    """One sort partition of band rows: i<j candidate pairs per
    (band_id, band_val) posting list (UNVERIFIED — cosine happens in the
    co-group verify stage, where the vectors live).  A crowded band value
    (e.g. zero/near-constant embeddings all sharing the all-ones sign
    pattern) would emit O(m^2) rows into two more all-to-alls, so lists
    over ``dedup.LSH_POSTING_CAP`` are dropped with a logged count.

    Fully vectorized (the fp_bucket_pairs triu-run discipline,
    stages/dedup.py): one lexsort groups the posting lists, runs are
    enumerated per DISTINCT list length with precomputed triu pair
    offsets, and cross-list duplicate pairs collapse in one np.unique —
    no per-pair Python."""
    from . import dedup as _dedup

    band = num_col(group, "band_id", np.int64)
    val = num_col(group, "band_val", np.int64)
    vid = num_col(group, "vec_id", np.int64)
    empty = pa.table(
        {
            "doc_id_a": pa.array([], pa.int64()),
            "doc_id_b": pa.array([], pa.int64()),
        }
    )
    if len(vid) == 0:
        return empty
    key = band * np.int64(1 << RHP_BAND_BITS) + val  # unique per list
    order = np.lexsort((vid, key))
    key, vid = key[order], vid[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    lens = np.diff(np.r_[starts, len(key)])
    cap = _dedup.LSH_POSTING_CAP  # read at call time (env/test override)
    over = lens > cap
    if over.any():
        _dedup.CAP_DROP_COUNT += int(over.sum())
        _dedup._log.warning(
            "rhp_candidate_pairs: dropped %d posting list(s) over cap %d "
            "(%d rows)", int(over.sum()), cap, int(lens[over].sum()),
        )
    keep = (lens >= 2) & ~over
    a_parts, b_parts = [], []
    kstarts, klens = starts[keep], lens[keep]
    for ln in np.unique(klens):
        base = kstarts[klens == ln][:, None]
        iu, ju = np.triu_indices(int(ln), k=1)
        a_parts.append((base + iu[None, :]).ravel())
        b_parts.append((base + ju[None, :]).ravel())
    if not a_parts:
        return empty
    ab = np.stack(
        [vid[np.concatenate(a_parts)], vid[np.concatenate(b_parts)]], axis=1
    )
    ab = np.unique(ab, axis=0)  # the old per-pair `seen` set
    return pa.table(
        {
            "doc_id_a": pa.array(ab[:, 0], pa.int64()),
            "doc_id_b": pa.array(ab[:, 1], pa.int64()),
        }
    )


_KNUTH64 = np.uint64(2654435761)


def _vkey_bucket(keys: np.ndarray, space: int) -> np.ndarray:
    return (
        (keys.astype(np.uint64) * _KNUTH64) % np.uint64(space)
    ).astype(np.int64)


def cosine_dup_pairs_lsh(ds, threshold: float = COS_DUP_THRESHOLD,
                         partitions: int | None = None):
    """Near-dup pairs via integer-RHP LSH banding + exact-cosine verify —
    the scale path: no corpus broadcast, no O(N²) matmul, and the shuffle
    carries each embedding ~once (not once per band).

    Stages (all ``stages/shuffle.co_partition`` runs — exactly THREE
    all-to-alls, the minimum for this shape):

    1. light band rows -> sort(bucket) -> candidate pairs per posting
       list.  Candidates stay DUPLICATED across bands/partitions here:
       pairs are rare, so shuffling a few duplicates is far cheaper than
       a dedicated distinct groupby stage (the verify co-group's keyed
       dict collapses them for free — same bucket, same partition).
    2. VERIFY CO-GROUP: pair rows split into two sides keyed by the
       member vec_id, unioned with a single-copy (vec_id -> normalized
       vector) side, co-partitioned on that key; each partition attaches
       the vector to every pair-side row it hosts.
    3. attached sides co-partitioned by a pair-hash bucket; each partition
       computes round6(cos) per pair from its two sides (duplicates
       collapse in the per-pair map) and keeps >= threshold.

    Exact-duplicate pairs share every sign bit -> deterministic recall
    1.0.  For 0.99 <= cos < 1 the miss probability is
    (1 - (1-p)^8)^8, p = arccos(cos)/pi — ~3e-6 at 0.99.  The DuckDB
    oracle mirrors the banding bit-for-bit (integer hyperplanes), so the
    hash check is robust for ANY embedding content, not just exact
    copies.

    ``partitions`` sets every sort's partition count (default
    ``shuffle.partition_count()``).  The pipeline runs THREE
    all-to-alls, so at small inputs the bare 2/CPU count is pure
    scheduling overhead (measured 11 s for a 2k-vec corpus at 32 CPUs vs
    ~2 s with size-fitted partitions); callers that know the corpus
    bytes pass ``partition_count(their byte estimate)``, which fits the
    count to the input.
    """
    from .dedup import _pair_bucket

    rows = ds.map_batches(rhp_band_rows, batch_format="pyarrow")
    pairs = co_partition(rows, rhp_candidate_pairs, partitions=partitions)

    def pair_sides(batch: pa.Table) -> pa.Table:
        a = num_col(batch, "doc_id_a", np.int64)
        b = num_col(batch, "doc_id_b", np.int64)
        vkey = np.concatenate([a, b])
        pair_a = np.concatenate([a, a])
        pair_b = np.concatenate([b, b])
        return pa.table(
            {
                "vkey": pa.array(vkey),
                "pair_a": pa.array(pair_a),
                "pair_b": pa.array(pair_b),
                "kind": pa.array(np.ones(len(vkey), dtype=np.int32)),
                "nvec": pa.array(
                    [[]] * len(vkey), pa.list_(pa.float64())
                ),
            }
        )

    def vec_rows(batch: pa.Table) -> pa.Table:
        vec_ids = num_col(batch, "vec_id", np.int64)
        if len(vec_ids) == 0:
            return pa.table(
                {
                    "vkey": pa.array([], pa.int64()),
                    "pair_a": pa.array([], pa.int64()),
                    "pair_b": pa.array([], pa.int64()),
                    "kind": pa.array([], pa.int32()),
                    "nvec": pa.array([], pa.list_(pa.float64())),
                }
            )
        nvecs = _norm(list_matrix(batch.column("embedding"), np.float64))
        zeros = np.zeros(len(vec_ids), dtype=np.int64)
        offsets = np.arange(len(vec_ids) + 1, dtype=np.int64) * nvecs.shape[1]
        nvec_col = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()),
            pa.array(nvecs.ravel(), pa.float64()),
        ).cast(pa.list_(pa.float64()))
        return pa.table(
            {
                "vkey": pa.array(vec_ids),
                "pair_a": pa.array(zeros),
                "pair_b": pa.array(zeros),
                "kind": pa.array(np.zeros(len(vec_ids), dtype=np.int32)),
                "nvec": nvec_col,
            }
        )

    sides = pairs.map_batches(pair_sides, batch_format="pyarrow")
    vside = ds.map_batches(vec_rows, batch_format="pyarrow")

    def attach(part: pa.Table) -> pa.Table:
        kinds = num_col(part, "kind", np.int32)
        vkeys = num_col(part, "vkey", np.int64)
        nvec_l = part.column("nvec").to_pylist()
        vecs = {
            int(k): nvec_l[i]
            for i, k in enumerate(vkeys)
            if kinds[i] == 0
        }
        pa_l = num_col(part, "pair_a", np.int64)
        pb_l = num_col(part, "pair_b", np.int64)
        out_a, out_b, out_k, out_v = [], [], [], []
        for i in range(len(kinds)):
            if kinds[i] == 1:
                out_a.append(int(pa_l[i]))
                out_b.append(int(pb_l[i]))
                out_k.append(int(vkeys[i]))
                out_v.append(vecs.get(int(vkeys[i]), []))
        a_arr = np.asarray(out_a, dtype=np.int64)
        b_arr = np.asarray(out_b, dtype=np.int64)
        return pa.table(
            {
                "bucket": _pair_bucket(a_arr, b_arr),
                "pair_a": pa.array(a_arr),
                "pair_b": pa.array(b_arr),
                "vkey": pa.array(out_k, pa.int64()),
                "nvec": pa.array(out_v, pa.list_(pa.float64())),
            }
        )

    attached = co_partition(
        sides.union(vside), attach, key="vkey", partitions=partitions
    )

    def verify(part: pa.Table) -> pa.Table:
        pa_l = num_col(part, "pair_a", np.int64)
        pb_l = num_col(part, "pair_b", np.int64)
        vk_l = num_col(part, "vkey", np.int64)
        nv_l = part.column("nvec").to_pylist()
        by_pair: dict = {}
        for i in range(len(pa_l)):
            by_pair.setdefault((int(pa_l[i]), int(pb_l[i])), {})[
                int(vk_l[i])
            ] = nv_l[i]
        a_out, b_out = [], []
        for (a, b), sides_map in sorted(by_pair.items()):
            va, vb = sides_map.get(a), sides_map.get(b)
            if not va or not vb:
                continue
            cos = float(
                np.asarray(va, dtype=np.float64)
                @ np.asarray(vb, dtype=np.float64)
            )
            if np.floor(cos * 1e6 + 0.5) / 1e6 >= threshold:
                a_out.append(a)
                b_out.append(b)
        return pa.table(
            {
                "vec_id_a": pa.array(a_out, pa.int64()),
                "vec_id_b": pa.array(b_out, pa.int64()),
            }
        )

    return co_partition(attached, verify, partitions=partitions)
