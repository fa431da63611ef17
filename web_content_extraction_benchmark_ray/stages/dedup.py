"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard.

All stages are shuffle-conscious Ray Data compositions:

- exact:    hash-partition by content hash -> bucketed vectorized Min
            (the reference's dict-keyed dedup, extract.py:52-53, made
            distributed: the co-partition IS the hash partition).
- minhash:  signature map -> band flat-map (each band row CARRIES the full
            signature so bucket-local verification needs no broadcast and
            no second join) -> bucketed candidate generation -> native
            Max aggregate for cross-band pair distinct.
- simhash:  5 prefix bands x 12 bits; hamming <= 4 implies at least one
            identical band (pigeonhole), so the candidate groupby is EXACT
            for the threshold — no all-pairs, no broadcast.
- jaccard:  inverted-index join: explode distinct shingles (carrying the
            doc's shingle count), bucketed posting-list co-occurrence,
            native Count aggregate for the intersection.  Hot shingles are
            a skew hazard at scale: posting lists above MAX_DF docs are
            dropped (df cut, never triggered at test scale).

Tiny-group discipline: a ``map_groups`` fires one Python call PER GROUP,
so grouping by a high-cardinality key (every shingle / band key / pair)
is a per-row-Python trap — measured 9.5 s where ~2 s of work exists.  All
high-cardinality co-locations here either (a) go through
``stages/shuffle.co_partition``: rows carry ``wide_bucket`` of their
real key (band key hash, shingle, pair, node id), one balanced sort cuts
them into ~2 partitions per CPU, and ONE call per partition keys its
posting maps / reductions by the real key; or (b) use NATIVE aggregates
(Min/Max/Count) that reduce C-side.
"""
from __future__ import annotations

import hashlib
import logging
import os
import re

import numpy as np

from ..functions.arrownp import num_col
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import round6
from ..functions.hashing import (
    MINHASH_BANDS,
    MINHASH_K,
    band_keys,
    minhash_signature,
    shingle_base_hashes,
    simhash60,
)
from ..state.memo import fetch
from .shuffle import WIDE_SPACE, co_partition, wide_bucket

MINHASH_THRESHOLD = 0.5  # est. Jaccard at/above which a pair is a near-dup
SIMHASH_BAND_BITS = 12
SIMHASH_NUM_BANDS = 5
SIMHASH_MAX_HAMMING = SIMHASH_NUM_BANDS - 1  # pigeonhole-exact
JACCARD_THRESHOLD = 0.5
MAX_DF = 10_000  # df cut for pathological shingles (skew guard at scale)


# ---------------------------------------------------------------------- exact
def add_content_hash(batch: pa.Table) -> pa.Table:
    hs = [
        hashlib.md5(t.encode("utf-8")).hexdigest()
        for t in batch.column("text").to_pylist()
    ]
    return batch.append_column("h", pa.array(hs, pa.string()))


def dedup_exact(ds):
    """Dataset(doc_id, text) -> Dataset(doc_id) of surviving documents.

    Survivor = min doc_id per content hash, via the bucketed vectorized
    reduce (stages/vecagg.py): Python fires once per coarse bucket, never
    per distinct document (a map_groups per hash — or Ray 2.49's native
    Min, which Python-combines per key — would both loop per document)."""
    from .vecagg import bucketed_groupby

    ds = ds.map_batches(add_content_hash, batch_format="pyarrow")
    return bucketed_groupby(
        ds, "h", ["doc_id"], ["min"]
    ).select_columns(["doc_id"])


_NORM_PUNCT_RE = re.compile(r"[^\w\s]")


def normalize_text(t: str) -> str:
    """CCNet/RefinedWeb-style dedup normalization: lowercase, strip
    punctuation, squeeze whitespace — so trivially-edited republications
    (case changes, punctuation noise, spacing) hash identically.  The
    SQL twin applies lower -> regexp_replace -> trim in the same order."""
    return " ".join(_NORM_PUNCT_RE.sub("", t.lower()).split())


def add_normalized_hash(batch: pa.Table) -> pa.Table:
    hs = [
        hashlib.md5(normalize_text(t).encode("utf-8")).hexdigest()
        for t in batch.column("text").to_pylist()
    ]
    return batch.append_column("h", pa.array(hs, pa.string()))


def dedup_exact_norm(ds):
    """``dedup_exact`` over the normalized content hash — same bucketed
    Min-per-hash shape, zero extra shuffles."""
    from .vecagg import bucketed_groupby

    ds = ds.map_batches(add_normalized_hash, batch_format="pyarrow")
    return bucketed_groupby(
        ds, "h", ["doc_id"], ["min"]
    ).select_columns(["doc_id"])


# -------------------------------------------------------------------- minhash
def minhash_band_rows(batch: pa.Table) -> pa.Table:
    """(doc_id, text) -> one row per (doc, band): band key + full signature
    + the candidate bucket, ``wide_bucket`` of the band key's md5 prefix.

    Bucket entropy: 8 hex chars (32 bits) feed the hash — a 4-char
    prefix only spans [0, 65535], which under co_partition's uniform
    boundaries over 2^20 once packed every row into partition 0 (one
    giant block, zero sort parallelism).

    The per-doc signature/band-key md5s are inherently Python; the band
    EXPLODE is numpy repeat/tile + one ListArray build (the former nested
    Python append loop was the dedup family's hot spot)."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    n = len(ids)
    if n == 0:
        return pa.table(
            {
                "band_id": pa.array([], pa.int32()),
                "band_key": pa.array([], pa.string()),
                "bucket": pa.array([], pa.int32()),
                "doc_id": pa.array([], pa.int64()),
                "sig": pa.array([], pa.list_(pa.int64())),
            }
        )
    sig_mat = np.empty((n, MINHASH_K), dtype=np.int64)
    keys: list[str] = []
    for r, text in enumerate(texts):
        sig_mat[r] = minhash_signature(text)
        keys.extend(band_keys(sig_mat[r]))
    buckets = wide_bucket(np.fromiter(
        (int(k[:8], 16) for k in keys), dtype=np.int64, count=len(keys)
    ))
    # each doc's 16-value signature repeated once per band, flattened into
    # a single values buffer + uniform offsets
    sig_vals = np.repeat(sig_mat, MINHASH_BANDS, axis=0).ravel()
    offsets = np.arange(n * MINHASH_BANDS + 1, dtype=np.int32) * MINHASH_K
    sig_col = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), pa.array(sig_vals, pa.int64())
    )
    return pa.table(
        {
            "band_id": pa.array(
                np.tile(np.arange(MINHASH_BANDS, dtype=np.int32), n)
            ),
            "band_key": pa.array(keys, pa.string()),
            "bucket": pa.array(buckets),
            "doc_id": pa.array(
                np.repeat(np.asarray(ids, dtype=np.int64), MINHASH_BANDS)
            ),
            "sig": sig_col,
        }
    )


# Per-(band, key) posting-list member cap — the MAX_DF discipline applied
# to LSH banding.  A degenerate band value (near-identical boilerplate
# text, zero/constant embeddings whose sign pattern is all-ones) otherwise
# enumerates O(m^2) candidate pairs from one posting list and the verify
# shuffle re-ships each hot member once per pair.  Lists OVER the cap are
# dropped whole (deterministic; mirrors the MAX_DF df-cut) and the drop is
# logged loudly — never silent.  The cap never binds on the benchmark
# corpora (max observed list ~ tens of members), so the DuckDB oracles
# stay exact below it; a corpus that trips it is trading bounded recall
# loss on pathological near-constant content for bounded runtime.
LSH_POSTING_CAP = int(os.environ.get("WCEB_LSH_POSTING_CAP", "8192"))

_log = logging.getLogger(__name__)

# Cap-drop telemetry: incremented whenever a posting list is dropped over
# LSH_POSTING_CAP IN THIS PROCESS.  A capped drop is a bounded-recall
# trade the no-cap DuckDB oracles cannot mirror, so oracle harnesses
# (scripts/check_oracles.py) treat a driver-side drop during a checked
# query as a hard failure instead of a silent engine/oracle divergence.
# Worker-side drops (bucket-pair stages) bump only the worker's copy —
# the driver-built broadcast postings (decontaminate_fuzzy) are the ones
# whose divergence this guards.
CAP_DROP_COUNT = 0


def _split_cap(posting: dict) -> tuple[dict, dict]:
    """(the posting lists at or under LSH_POSTING_CAP, {key: size} of the
    lists over it)."""
    over = {k: len(v) for k, v in posting.items() if len(v) > LSH_POSTING_CAP}
    if over:
        posting = {k: v for k, v in posting.items() if k not in over}
    return posting, over


def _note_cap_drops(over: dict, what: str) -> None:
    """Count (CAP_DROP_COUNT) and log the posting lists ``over`` dropped."""
    global CAP_DROP_COUNT
    if over:
        CAP_DROP_COUNT += len(over)
        _log.warning(
            "%s: dropped %d posting list(s) over cap %d (%d rows): %s",
            what, len(over), LSH_POSTING_CAP, sum(over.values()),
            list(over.items())[:4],
        )


def _cap_posting(posting: dict, what: str) -> dict:
    posting, over = _split_cap(posting)
    _note_cap_drops(over, what)
    return posting


def minhash_bucket_pairs(group: pa.Table) -> pa.Table:
    """One co-partition: group its rows by (band_id, band_key) in one
    call, emit verified pairs (est_j >= threshold).  Posting lists over
    ``LSH_POSTING_CAP`` are dropped with a logged count."""
    bands = group.column("band_id").to_pylist()
    keys = group.column("band_key").to_pylist()
    ids = group.column("doc_id").to_pylist()
    sigs = group.column("sig").to_pylist()
    posting: dict = {}
    for b, k, d, s in zip(bands, keys, ids, sigs):
        posting.setdefault((b, k), []).append((d, tuple(s)))
    posting = _cap_posting(posting, "minhash_bucket_pairs")
    a_out, b_out, j_out = [], [], []
    for members in posting.values():
        if len(members) < 2:
            continue
        members = sorted(set(members))
        for i in range(len(members)):
            di, si = members[i]
            for j in range(i + 1, len(members)):
                dj, sj = members[j]
                if di == dj:
                    continue
                est = sum(x == y for x, y in zip(si, sj)) / MINHASH_K
                if est >= MINHASH_THRESHOLD:
                    a_out.append(di)
                    b_out.append(dj)
                    j_out.append(round6(est))
    return pa.table(
        {
            "doc_id_a": pa.array(a_out, pa.int64()),
            "doc_id_b": pa.array(b_out, pa.int64()),
            "est_jaccard": pa.array(j_out, pa.float64()),
        }
    )


def _distinct_pairs(pairs, value_col: str, out_type=pa.float64()):
    """Cross-band/bucket distinct via the native Max aggregate (the value
    is identical for every duplicate of a pair)."""
    from ray.data.aggregate import Max

    from .coalesce import coalesce_small

    # pair streams are sparse: many upstream blocks carry few/no pairs, and
    # a native Aggregate makes one sort partition per input block — coalesce
    # so no empty (schema-less) partitions are synthesized
    agg = coalesce_small(pairs, 8).groupby(
        ["doc_id_a", "doc_id_b"]
    ).aggregate(Max(value_col))

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id_a": pc.cast(batch["doc_id_a"], pa.int64()),
                "doc_id_b": pc.cast(batch["doc_id_b"], pa.int64()),
                value_col: pc.cast(batch[f"max({value_col})"], out_type),
            }
        )

    return agg.map_batches(project, batch_format="pyarrow")


def dedup_minhash_pairs(ds, band_rows=None):
    """Dataset(doc_id, text) -> Dataset(doc_id_a, doc_id_b, est_jaccard).

    ``band_rows`` short-circuits the signature pass with a precomputed
    (typically memoized) band-row dataset — the signature Python loop
    dominates the family's cost, and pairs / survivors / cluster-size
    consumers all start from the same rows."""
    rows = band_rows if band_rows is not None else ds.map_batches(
        minhash_band_rows, batch_format="pyarrow"
    )
    pairs = co_partition(rows, minhash_bucket_pairs)
    return _distinct_pairs(pairs, "est_jaccard")


# -------------------------------------------------------------------- simhash
def simhash_rows(batch: pa.Table) -> pa.Table:
    ids = batch.column("doc_id").to_pylist()
    vals = [simhash60(t) for t in batch.column("text").to_pylist()]
    return pa.table(
        {
            "doc_id": pa.array([int(i) for i in ids], pa.int64()),
            "simhash": pa.array([format(v, "015x") for v in vals], pa.string()),
            "sim_v": pa.array(vals, pa.int64()),
        }
    )


def simhash_band_rows(batch: pa.Table) -> pa.Table:
    """Pure bit arithmetic -> fully vectorized explode (numpy repeat/tile;
    the former per-(doc, band) Python loop was pure interpreter overhead)."""
    ids = num_col(batch, "doc_id", np.int64)
    v = num_col(batch, "sim_v", np.int64)
    n = len(ids)
    j = np.tile(np.arange(SIMHASH_NUM_BANDS, dtype=np.int64), n)
    vv = np.repeat(v, SIMHASH_NUM_BANDS)
    bv = (vv >> (SIMHASH_BAND_BITS * j)) & ((1 << SIMHASH_BAND_BITS) - 1)
    # (band, val) spans only [0, 20479]; wide_bucket's multiplicative
    # hash spreads it over the whole sort space (a plain value would put
    # every row in partition 0)
    bucket = wide_bucket(j * (1 << SIMHASH_BAND_BITS) + bv)
    return pa.table(
        {
            "bucket": pa.array(bucket),
            "band_id": pa.array(j.astype(np.int32)),
            "band_val": pa.array(bv),
            "doc_id": pa.array(np.repeat(ids, SIMHASH_NUM_BANDS)),
            "sim_v": pa.array(vv),
        }
    )


def simhash_bucket_pairs(group: pa.Table) -> pa.Table:
    posting: dict = {}
    for b, bv, d, v in zip(
        group.column("band_id").to_pylist(),
        group.column("band_val").to_pylist(),
        group.column("doc_id").to_pylist(),
        group.column("sim_v").to_pylist(),
    ):
        posting.setdefault((b, bv), set()).add((d, v))
    a_out, b_out, d_out = [], [], []
    for members in posting.values():
        if len(members) < 2:
            continue
        ms = sorted(members)
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                if ms[i][0] == ms[j][0]:
                    continue
                ham = bin(ms[i][1] ^ ms[j][1]).count("1")
                if ham <= SIMHASH_MAX_HAMMING:
                    a_out.append(ms[i][0])
                    b_out.append(ms[j][0])
                    d_out.append(ham)
    return pa.table(
        {
            "doc_id_a": pa.array(a_out, pa.int64()),
            "doc_id_b": pa.array(b_out, pa.int64()),
            "hamming": pa.array(d_out, pa.int64()),
        }
    )


def dedup_simhash(ds, sig_rows=None):
    """Dataset(doc_id, text) -> per-doc signatures (doc_id, simhash hex).

    ``sig_rows`` short-circuits the signature pass with precomputed
    (typically memoized) simhash rows, like dedup_minhash_pairs'
    band_rows."""
    sigs = sig_rows if sig_rows is not None else ds.map_batches(
        simhash_rows, batch_format="pyarrow"
    )
    return sigs.drop_columns(["sim_v"])


def dedup_simhash_pairs(ds, sig_rows=None):
    """Dataset(doc_id, text) -> (doc_id_a, doc_id_b, hamming) pairs with
    hamming <= 4 — exact under the 5-band pigeonhole decomposition."""
    sigs = sig_rows if sig_rows is not None else ds.map_batches(
        simhash_rows, batch_format="pyarrow"
    )
    rows = sigs.map_batches(simhash_band_rows, batch_format="pyarrow")
    pairs = co_partition(rows, simhash_bucket_pairs)
    return _distinct_pairs(pairs, "hamming", pa.int64())


# -------------------------------------------------------- exact n-gram jaccard
def shingle_rows(batch: pa.Table) -> pa.Table:
    """Explode distinct shingle hashes, carrying the doc's shingle count so
    downstream needs no join back to per-doc totals."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    # distinct hashes per doc: the SQL twin joins on DISTINCT (doc, hp).
    # Per-doc md5 hashing is inherently Python; the explode is numpy
    # concatenate + repeat (no per-shingle Python appends).
    per_doc = [np.unique(shingle_base_hashes(t)) for t in texts]
    counts = np.array([a.size for a in per_doc], dtype=np.int64)
    sh = (
        np.concatenate(per_doc)
        if per_doc
        else np.empty(0, dtype=np.int64)
    )
    did = np.repeat(np.asarray([int(i) for i in ids], dtype=np.int64), counts)
    return pa.table(
        {
            "sh": pa.array(sh),
            "bucket": pa.array(wide_bucket(sh)),
            "doc_id": pa.array(did),
            "n_sh": pa.array(np.repeat(counts, counts)),
        }
    )


def prefix_rows(batch: pa.Table) -> pa.Table:
    """Prefix-filter explode (PPJoin-style): only the first
    ``n - ceil(t*n) + 1`` shingles (ascending-hash canonical order) index a
    document; any pair with Jaccard >= t MUST share a prefix shingle, so
    candidate recall is exact while the inverted index shrinks ~2x at
    t=0.5.  Each row carries the doc's FULL sorted shingle array for exact
    in-bucket verification (no second join)."""
    import math

    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    per_doc = [np.unique(shingle_base_hashes(t)) for t in texts]  # sorted asc
    sizes = np.array([a.size for a in per_doc], dtype=np.int64)
    # prefix length n - ceil(t*n) + 1 per doc (0 for empty docs)
    plens = np.where(
        sizes > 0,
        sizes - np.ceil(JACCARD_THRESHOLD * sizes).astype(np.int64) + 1,
        0,
    )
    if int(plens.sum()) == 0:
        return pa.table(
            {
                "sh": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int32()),
                "doc_id": pa.array([], pa.int64()),
                "shingles": pa.array([], pa.list_(pa.int64())),
            }
        )
    sh = np.concatenate([a[:p] for a, p in zip(per_doc, plens)])
    did = np.repeat(np.asarray([int(i) for i in ids], dtype=np.int64), plens)
    # each prefix row carries the doc's FULL sorted shingle array: values =
    # per-doc arrays tiled plens[i] times, offsets = repeat of sizes
    vals = np.concatenate(
        [np.tile(a, int(p)) for a, p in zip(per_doc, plens) if p > 0]
    )
    lens = np.repeat(sizes, plens)
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    shingle_col = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), pa.array(vals, pa.int64())
    ).cast(pa.list_(pa.int64()))
    return pa.table(
        {
            "sh": pa.array(sh),
            "bucket": pa.array(wide_bucket(sh)),
            "doc_id": pa.array(did),
            "shingles": shingle_col,
        }
    )


def _pair_bucket(a, b) -> pa.Array:
    """Routing bucket of the (doc_id_a, doc_id_b) pair, for the
    downstream per-pair co-partition."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return pa.array(wide_bucket(a ^ (b * np.int64(1315423911))))


def prefix_bucket_pairs(group: pa.Table) -> pa.Table:
    """One partition of the prefix index: verify candidates exactly
    via sorted-array intersection; emit (pair, jaccard) rows (duplicates
    across posting lists removed by the downstream per-pair reduce)."""
    posting: dict = {}
    for sh, d, arr in zip(
        group.column("sh").to_pylist(),
        group.column("doc_id").to_pylist(),
        group.column("shingles").to_pylist(),
    ):
        posting.setdefault(sh, []).append((d, arr))
    seen = set()
    a_out, b_out, j_out = [], [], []
    for docs in posting.values():
        if len(docs) < 2 or len(docs) > MAX_DF:
            continue
        docs.sort(key=lambda x: x[0])
        for i in range(len(docs)):
            di, si = docs[i]
            for j in range(i + 1, len(docs)):
                dj, sj = docs[j]
                if di == dj or (di, dj) in seen:
                    continue
                seen.add((di, dj))
                inter = np.intersect1d(
                    np.asarray(si, dtype=np.int64),
                    np.asarray(sj, dtype=np.int64),
                    assume_unique=True,
                ).size
                jac = inter / (len(si) + len(sj) - inter)
                if jac >= JACCARD_THRESHOLD:
                    a_out.append(di)
                    b_out.append(dj)
                    j_out.append(round6(jac))
    return pa.table(
        {
            "doc_id_a": pa.array(a_out, pa.int64()),
            "doc_id_b": pa.array(b_out, pa.int64()),
            "jaccard": pa.array(j_out, pa.float64()),
            "bucket": _pair_bucket(a_out, b_out),
        }
    )


def _distinct_first(group: pa.Table) -> pa.Table:
    """Per pair partition: one row per (a, b) (the jaccard value is
    identical on every duplicate)."""
    seen = set()
    keep = []
    for idx, (a, b) in enumerate(
        zip(group.column("doc_id_a").to_pylist(),
            group.column("doc_id_b").to_pylist())
    ):
        if (a, b) not in seen:
            seen.add((a, b))
            keep.append(idx)
    out = group.take(keep)
    return pa.table(
        {
            "doc_id_a": out.column("doc_id_a"),
            "doc_id_b": out.column("doc_id_b"),
            "jaccard": out.column("jaccard"),
        }
    )


def dedup_ngram_jaccard_prefix(ds):
    """Prefix-filtered exact Jaccard join — same output as
    dedup_ngram_jaccard (lossless filter at the threshold), ~2x smaller
    inverted index and no O(co-occurrence) pair-row shuffle: verification
    happens per partition against the carried shingle arrays."""
    rows = ds.map_batches(prefix_rows, batch_format="pyarrow")
    pairs = co_partition(rows, prefix_bucket_pairs)
    return co_partition(pairs, _distinct_first)


def jaccard_bucket_pairs(group: pa.Table) -> pa.Table:
    """One partition of the inverted index: co-occurring doc pairs for
    every posting list inside it (lists above MAX_DF dropped — df cut)."""
    posting: dict = {}
    for sh, d, n in zip(
        group.column("sh").to_pylist(),
        group.column("doc_id").to_pylist(),
        group.column("n_sh").to_pylist(),
    ):
        posting.setdefault(sh, []).append((d, n))
    a_out, b_out, na_out, nb_out = [], [], [], []
    for docs in posting.values():
        if len(docs) < 2 or len(docs) > MAX_DF:
            continue
        docs.sort()
        for i in range(len(docs)):
            for j in range(i + 1, len(docs)):
                a, b = docs[i][0], docs[j][0]
                a_out.append(a)
                b_out.append(b)
                na_out.append(docs[i][1])
                nb_out.append(docs[j][1])
    return pa.table(
        {
            "doc_id_a": pa.array(a_out, pa.int64()),
            "doc_id_b": pa.array(b_out, pa.int64()),
            "n_a": pa.array(na_out, pa.int64()),
            "n_b": pa.array(nb_out, pa.int64()),
            "bucket": _pair_bucket(a_out, b_out),
        }
    )


def jaccard_pair_reduce(group: pa.Table) -> pa.Table:
    """One pair partition: count co-occurrences per (a, b) (vectorized
    sort + run-length), then jaccard + threshold.  A native multi-key
    aggregate here hit millions of groups (22.9 s for ~2 s of work);
    the per-partition reduce is the same tiny-group discipline as the
    candidate stage."""
    a_arr = num_col(group, "doc_id_a", np.int64)
    b_arr = num_col(group, "doc_id_b", np.int64)
    na_arr = num_col(group, "n_a", np.float64)
    nb_arr = num_col(group, "n_b", np.float64)
    # vectorized group-count: sort by (a, b), run-length encode
    order = np.lexsort((b_arr, a_arr))
    a_s, b_s = a_arr[order], b_arr[order]
    na_s, nb_s = na_arr[order], nb_arr[order]
    if len(a_s) == 0:
        return pa.table(
            {
                "doc_id_a": pa.array([], pa.int64()),
                "doc_id_b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
    new_run = np.empty(len(a_s), dtype=bool)
    new_run[0] = True
    new_run[1:] = (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
    starts = np.nonzero(new_run)[0]
    counts = np.diff(np.append(starts, len(a_s))).astype(np.float64)
    na_g, nb_g = na_s[starts], nb_s[starts]
    jac = counts / (na_g + nb_g - counts)
    keep = jac >= JACCARD_THRESHOLD
    jac_r = np.floor(jac * 1e6 + 0.5) / 1e6  # SQL-twin rounding
    return pa.table(
        {
            "doc_id_a": pa.array(a_s[starts][keep], pa.int64()),
            "doc_id_b": pa.array(b_s[starts][keep], pa.int64()),
            "jaccard": pa.array(jac_r[keep], pa.float64()),
        }
    )


def dedup_ngram_jaccard(ds):
    """Dataset(doc_id, text) -> (doc_id_a, doc_id_b, jaccard >= 0.5) exact
    word-3-gram Jaccard via the inverted-index join.  Both shuffles are
    co-partitions (by shingle, then by pair) whose reducers key by
    shingle / pair internally; all per-row work is numpy-vectorized."""
    rows = ds.map_batches(shingle_rows, batch_format="pyarrow")
    co = co_partition(rows, jaccard_bucket_pairs)
    return co_partition(co, jaccard_pair_reduce)


# --------------------------------------------- near-dup survivor selection
def cc_bucket_labels(pairs_ds, max_iters: int = 25):
    """Connected components of the near-dup graph, distributed.

    (doc_id_a, doc_id_b) pairs -> the LABEL table: one row (key=node,
    kind=0, val=component min-label) per node that appears in any pair,
    or ``None`` when the pair set is empty.

    Min-label propagation expressed as CO-GROUP message passing (no join
    operator): each round unions the label table with the edge table
    keyed by source node, a co-partition on the node delivers every
    node's label to its neighbours, and a second co-partition takes the
    per-node min.  (Dataset.join was avoided deliberately: Ray 2.49's hash join
    errors when one materialized dataset feeds two joins across loop
    iterations.)  Rounds needed = component diameter; convergence is the
    fixpoint of the strictly-decreasing global label sum.

    Consumers: neardup_survivors (canonical-per-component anti-join) and
    dataops.dup_cluster_sizes (component-size histogram)."""

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_id_a").to_pylist()
        b = batch.column("doc_id_b").to_pylist()
        src = a + b
        dst = b + a
        return _label_rows(src, 1, dst)

    edges = pairs_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return None

    def init_labels(group: pa.Table) -> pa.Table:
        # label(node) = min(node, min direct neighbour)
        lab: dict = {}
        for k, v in zip(
            group.column("key").to_pylist(), group.column("val").to_pylist()
        ):
            lab[k] = min(lab.get(k, k), v, k)
        return _label_rows(list(lab.keys()), 0, list(lab.values()))

    labels = co_partition(edges, init_labels, key="key").materialize()

    def propagate(group: pa.Table) -> pa.Table:
        """One partition: deliver label(src) to every neighbour + keep
        own."""
        lab: dict = {}
        nbrs: dict = {}
        for k, kind, v in zip(
            group.column("key").to_pylist(),
            group.column("kind").to_pylist(),
            group.column("val").to_pylist(),
        ):
            if kind == 0:
                lab[k] = v
            else:
                nbrs.setdefault(k, []).append(v)
        out_k, out_v = [], []
        for k, l in lab.items():
            out_k.append(k)
            out_v.append(l)
            for d in nbrs.get(k, ()):
                out_k.append(d)
                out_v.append(l)
        return _label_rows(out_k, 0, out_v)

    def reduce_min(group: pa.Table) -> pa.Table:
        lab: dict = {}
        for k, v in zip(
            group.column("key").to_pylist(), group.column("val").to_pylist()
        ):
            lab[k] = min(lab.get(k, v), v)
        return _label_rows(list(lab.keys()), 0, list(lab.values()))

    prev_sum = None
    for _ in range(max_iters):
        messages = co_partition(labels.union(edges), propagate, key="key")
        labels = co_partition(messages, reduce_min, key="key").materialize()
        cur_sum = labels.sum("val")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    else:
        # A silent cap here would hand hash-verified consumers
        # (dup_cluster_sizes, the survivor anti-join) labels that split
        # one true component in two.  Rounds needed = component diameter,
        # so this fires only on a chain of > max_iters pairwise-linked
        # docs — raise loudly and let the caller re-run with a higher cap.
        raise RuntimeError(
            f"label propagation did not converge in {max_iters} rounds "
            "(component diameter exceeds max_iters); pass a higher "
            "max_iters"
        )
    return labels


def _label_rows(keys, kind: int, vals) -> pa.Table:
    """(key, kind, val) co-group rows: kind 0 = label / tombstone, 1 =
    edge, 2 = document (the cc_bucket_labels and anti-join shapes)."""
    return pa.table(
        {
            "key": pa.array(keys, pa.int64()),
            "kind": pa.array([kind] * len(keys), pa.int32()),
            "val": pa.array(vals, pa.int64()),
        }
    )


def neardup_survivors(docs_ds, pairs_ds, max_iters: int = 25):
    """(documents, near-dup pairs) -> surviving doc_ids: one canonical
    (min doc_id) per connected component of the near-dup graph
    (cc_bucket_labels), plus every unpaired doc — the final step of a
    real dedup pipeline.

    The survivor filter is an ANTI-JOIN expressed as a keyed co-group
    (docs ∪ non-canonical labels, co-partitioned on the id): no id set
    ever materializes on the driver, so the stage holds even when almost
    every document is a duplicate.
    """
    labels = cc_bucket_labels(pairs_ds, max_iters)
    if labels is None:
        return docs_ds.select_columns(["doc_id"])

    # anti-join: doc rows (kind=2) co-partitioned with non-canonical
    # label rows (kind=0, key != val) on the id; a doc survives iff its
    # partition holds no tombstone for its id
    def tombstones(batch: pa.Table) -> pa.Table:
        keep_mask = pc.not_equal(batch["key"], batch["val"])
        return batch.filter(keep_mask)

    docs_keyed = docs_ds.map_batches(
        _keyed_id_rows, fn_kwargs={"kind": 2}, batch_format="pyarrow"
    )
    noncanon = labels.map_batches(tombstones, batch_format="pyarrow")

    return co_partition(
        docs_keyed.union(noncanon), _antijoin_keep, key="key"
    )


def _keyed_id_rows(batch: pa.Table, kind: int,
                   id_col: str = "doc_id") -> pa.Table:
    """(ids) -> co-group key rows (key, kind, val) for the anti-join
    shape shared by neardup_survivors and anti_join_doc_ids."""
    ids = [int(i) for i in batch.column(id_col).to_pylist()]
    return _label_rows(ids, kind, ids)


def _antijoin_keep(group: pa.Table) -> pa.Table:
    """One co-partition: keep kind=2 doc ids with no kind=0 tombstone."""
    dead = set()
    doc_ids = []
    for k, kind in zip(
        group.column("key").to_pylist(), group.column("kind").to_pylist()
    ):
        if kind == 0:
            dead.add(k)
        else:
            doc_ids.append(k)
    return pa.table(
        {
            "doc_id": pa.array(
                [d for d in doc_ids if d not in dead], pa.int64()
            )
        }
    )


def anti_join_doc_ids(docs_ds, dead_ds, dead_col: str = "doc_id"):
    """docs MINUS a tombstone id stream, as the same keyed co-group
    anti-join neardup_survivors uses (no id set ever materializes on
    the driver) — the survivor filter factored for any removal list:
    fuzzy decontamination, blocklists, manual takedowns.  Duplicate
    tombstones are harmless (set semantics per partition)."""
    docs_keyed = docs_ds.map_batches(
        _keyed_id_rows, fn_kwargs={"kind": 2}, batch_format="pyarrow"
    )
    dead_keyed = dead_ds.map_batches(
        _keyed_id_rows, fn_kwargs={"kind": 0, "id_col": dead_col},
        batch_format="pyarrow",
    )
    return co_partition(
        docs_keyed.union(dead_keyed), _antijoin_keep, key="key"
    )


# --------------------------------------------- winnowing-overlap pairs
# MOSS-style overlap detection (Schleimer et al. 2003 §4: two documents
# are flagged when they share enough selected fingerprints).  Distinct
# from the n-gram Jaccard family: fingerprints are WINNOWED k-gram
# hashes (position-robust sampling of the char stream), and the score is
# the overlap coefficient shared / min(|A|, |B|) over the KEPT
# fingerprint universe — fingerprints whose document frequency falls
# outside [2, FP_MAX_DF] are dropped from the universe entirely, like
# MOSS's own common-fingerprint suppression.  Two reasons, both
# measured at sf0.1: (a) pair-row volume is Σ_fp C(df, 2) — 52.6M rows
# uncut vs 1.7M at df<=128 (the quadratic posting-list trap); (b) a raw
# shared-count threshold cannot separate twins from background on a
# small-vocabulary corpus (twins share as few as 12 fps, unrelated
# pairs reach 17+) while the kept-set coefficient separates at 1.0 vs
# ~0.15.  Exact twins keep identical kept sets, so the cut never costs
# them the 0.8 gate (only the >= FP_MIN_SHARED floor, 98% twin recall
# measured at this cut); recall loss is visible in the df table, never
# silent.
FP_MIN_SHARED = 3
FP_MAX_DF = 128  # df cut: fingerprint universe = df in [2, FP_MAX_DF]
FP_OVERLAP_NUM = 4  # keep iff 5 * shared >= 4 * min(kept_a, kept_b)
FP_OVERLAP_DEN = 5


def fp_rows(batch):
    """Distinct (fingerprint, doc) rows of the inverted index."""
    import pyarrow as pa

    from ..functions.hashing import winnow_fingerprints

    fp_out, d_out = [], []
    for d, t in zip(
        batch.column("doc_id").to_pylist(),
        batch.column("text").to_pylist(),
    ):
        for h in winnow_fingerprints(t):  # already sorted distinct
            fp_out.append(h)
            d_out.append(int(d))
    fp = np.asarray(fp_out, dtype=np.int64)
    return pa.table(
        {
            "fp": pa.array(fp, pa.int64()),
            "bucket": pa.array(wide_bucket(fp)),
            "doc_id": pa.array(d_out, pa.int64()),
        }
    )


def fp_bucket_pairs(group, max_df: int = FP_MAX_DF):
    """One partition of the fingerprint index: co-occurring doc
    pairs, one row per (pair, shared KEPT fingerprint); posting lists
    with df outside [2, max_df] are dropped whole (the universe cut,
    mirrored by the SQL twin).  Fully vectorized: one lexsort groups
    the posting lists, runs are enumerated per DISTINCT list length
    (<= max_df of them) with precomputed triu pair offsets — no
    per-pair Python (a 1.7M-pair partition set cost seconds as
    appends)."""
    import pyarrow as pa

    fp = num_col(group, "fp", np.int64)
    doc = num_col(group, "doc_id", np.int64)
    order = np.lexsort((doc, fp))
    fp, doc = fp[order], doc[order]
    starts = np.flatnonzero(np.r_[True, fp[1:] != fp[:-1]])
    lens = np.diff(np.r_[starts, len(fp)])
    keep = (lens >= 2) & (lens <= max_df)
    a_parts, b_parts = [], []
    kstarts, klens = starts[keep], lens[keep]
    for ln in np.unique(klens):
        base = kstarts[klens == ln][:, None]
        iu, ju = np.triu_indices(int(ln), k=1)
        a_parts.append((base + iu[None, :]).ravel())
        b_parts.append((base + ju[None, :]).ravel())
    if a_parts:
        a = doc[np.concatenate(a_parts)]
        b = doc[np.concatenate(b_parts)]
    else:
        a = b = np.zeros(0, dtype=np.int64)
    return pa.table(
        {
            "doc_id_a": pa.array(a, pa.int64()),
            "doc_id_b": pa.array(b, pa.int64()),
            "bucket": _pair_bucket(a, b),
        }
    )


def fp_kept_counts(group, max_df: int = FP_MAX_DF):
    """Same co-located partition, second consumer: per-doc count of KEPT
    fingerprints inside this partition (vectorized); a downstream
    co-partitioned Sum rebuilds each doc's kept-set size."""
    import pyarrow as pa

    fp = num_col(group, "fp", np.int64)
    d = num_col(group, "doc_id", np.int64)
    uf, inv, cnt = np.unique(fp, return_inverse=True, return_counts=True)
    keep = (cnt[inv] >= 2) & (cnt[inv] <= max_df)
    ud, c = np.unique(d[keep], return_counts=True)
    return pa.table(
        {
            "doc_id": pa.array(ud, pa.int64()),
            "k": pa.array(c.astype(np.int64), pa.int64()),
        }
    )


def _fp_pair_scores(group, nk_map, min_shared: int):
    """Per pair partition: vectorized shared-count per (a, b) + the
    integer-exact overlap-coefficient gate over KEPT-set sizes
    ``FP_OVERLAP_DEN * shared >= FP_OVERLAP_NUM * min(kept_a, kept_b)``
    and the round6 coefficient for the output."""
    import pyarrow as pa

    a = num_col(group, "doc_id_a", np.int64)
    b = num_col(group, "doc_id_b", np.int64)
    key = (a << np.int64(31)) | b  # aug doc ids < 2^31
    uk, counts = np.unique(key, return_counts=True)
    ua = (uk >> np.int64(31)).astype(np.int64)
    ub = (uk & np.int64((1 << 31) - 1)).astype(np.int64)
    na = np.asarray([nk_map[int(x)] for x in ua], dtype=np.int64)
    nb = np.asarray([nk_map[int(x)] for x in ub], dtype=np.int64)
    mn = np.minimum(na, nb)
    keep = (counts >= min_shared) & (
        FP_OVERLAP_DEN * counts >= FP_OVERLAP_NUM * mn
    )
    uk, counts, mn = uk[keep], counts[keep], mn[keep]
    return pa.table(
        {
            "doc_id_a": pa.array(ua[keep], pa.int64()),
            "doc_id_b": pa.array(ub[keep], pa.int64()),
            "n_shared": pa.array(counts.astype(np.int64), pa.int64()),
            "overlap": pa.array(
                (counts * 2_000_000 + mn) // (2 * mn) / 1e6, pa.float64()
            ),
        }
    )


FP_BROADCAST_MAX_DOCS = 2_000_000  # kept-count map broadcast gate


def fingerprint_dup_pairs(ds, min_shared: int = FP_MIN_SHARED,
                          max_df: int = FP_MAX_DF,
                          broadcast_max_docs: int = FP_BROADCAST_MAX_DOCS):
    """MOSS-style near-dup pairs: documents whose shared kept
    fingerprints cover >= 80% of the smaller kept set and number
    >= ``min_shared``.  Shape: distinct (fp, doc) rows -> ONE
    fingerprint co-partition, materialized and read by two cheap
    consumers (pair explode under the df cut; per-doc kept counts) ->
    pair co-partition -> vectorized per-pair count + the
    integer-exact overlap gate over kept-count sizes.

    Pair-row volume is bounded by the FP_MAX_DF universe cut (measured
    52.6M -> 1.7M rows at sf0.1).  The kept-count side is DUAL-PATH (the
    unigram_logprob discipline): one int per document broadcasts while
    the corpus is below ``broadcast_max_docs``; above it the counts
    ATTACH through two co-partitions (requests by doc, delivery by
    pair bucket — the embedding_dup attach shape) and no per-doc map
    ever reaches the driver or a worker heap.  Same gate either way;
    pinned equal by tests/test_dataops.py."""
    import ray

    from .vecagg import bucketed_groupby

    rows = ds.map_batches(fp_rows, batch_format="pyarrow")
    located = co_partition(rows, None).materialize()
    # pinned: the count() gate below and the consumer (take_all or the
    # attach co-group) would otherwise each execute the kept-counts
    # pipeline from scratch
    nk = bucketed_groupby(
        located.map_batches(
            lambda g: fp_kept_counts(g, max_df),
            batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
        ),
        "doc_id", ["k"], ["sum"],
    ).materialize()
    pairs = located.map_batches(
        lambda g: fp_bucket_pairs(g, max_df),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    )

    if nk.count() <= broadcast_max_docs:
        nk_map = {
            int(r["doc_id"]): int(r["k"]) for r in nk.take_all()
        }
        nk_ref = ray.put(nk_map)

        def score(g):
            return _fp_pair_scores(g, fetch(nk_ref), min_shared)

        return co_partition(pairs, score)

    # ---- attach path: co-partition requests with counts by doc, deliver
    # (doc, k) rows under each request's pair bucket
    pairs = pairs.materialize()  # read twice: requests + the score union

    def requests(b: pa.Table) -> pa.Table:
        a = num_col(b, "doc_id_a", np.int64)
        bb = num_col(b, "doc_id_b", np.int64)
        pb = num_col(b, "bucket", np.int64)
        doc = np.concatenate([a, bb])
        pbs = np.concatenate([pb, pb])
        u = np.unique(doc * np.int64(WIDE_SPACE) + pbs)
        doc, pbs = u // WIDE_SPACE, u % WIDE_SPACE
        return pa.table(
            {
                "doc_id": pa.array(doc, pa.int64()),
                "pbucket": pa.array(pbs.astype(np.int32), pa.int32()),
                "k": pa.array(np.full(len(doc), -1, dtype=np.int64)),
            }
        )

    def count_rows(b: pa.Table) -> pa.Table:
        doc = num_col(b, "doc_id", np.int64)
        return pa.table(
            {
                "doc_id": pa.array(doc, pa.int64()),
                "pbucket": pa.array(
                    np.full(len(doc), -1, dtype=np.int32), pa.int32()
                ),
                "k": pa.array(num_col(b, "k", np.int64)),
            }
        )

    def deliver(part: pa.Table) -> pa.Table:
        doc = num_col(part, "doc_id", np.int64)
        pb = num_col(part, "pbucket", np.int32)
        k = num_col(part, "k", np.int64)
        kmap = {int(d): int(v) for d, v in zip(doc[k >= 0], k[k >= 0])}
        req = k < 0
        return pa.table(
            {
                "doc_id_a": pa.array(doc[req], pa.int64()),
                "doc_id_b": pa.array(
                    np.full(int(req.sum()), -1, dtype=np.int64)
                ),
                "bucket": pa.array(pb[req], pa.int32()),
                # strict indexing: every requested doc has kept counts by
                # construction (same KeyError contract as the broadcast
                # path's nk_map lookup)
                "k": pa.array(
                    np.asarray(
                        [kmap[int(d)] for d in doc[req]], dtype=np.int64
                    )
                ),
            }
        )

    krows = co_partition(
        pairs.map_batches(requests, batch_format="pyarrow")
        .union(nk.map_batches(count_rows, batch_format="pyarrow")),
        deliver, key="doc_id",
    )

    def pair_rows(b: pa.Table) -> pa.Table:
        return b.append_column(
            "k", pa.array(np.full(b.num_rows, -1, dtype=np.int64))
        )

    def score_join(part: pa.Table) -> pa.Table:
        k = num_col(part, "k", np.int64)
        doc_a = num_col(part, "doc_id_a", np.int64)
        kmap = {int(d): int(v) for d, v in zip(doc_a[k >= 0], k[k >= 0])}
        return _fp_pair_scores(
            part.filter(pa.array(k < 0)), kmap, min_shared
        )

    return co_partition(
        pairs.map_batches(pair_rows, batch_format="pyarrow").union(krows),
        score_join,
    )
