"""Training-data operator queries over the ``documents`` / ``embeddings``
tables: dedup family, similarity search, text analysis, multimodal decode.

Each callable takes ``sf_dir`` and returns a lazy Dataset whose columns
exactly match its DuckDB oracle (pipelines/dataops_oracles.py).

The corpus has no duplicates, so the dedup queries operate on a
deterministically AUGMENTED view (exact copies of every 10th doc at
doc_id+2e6, last-word-dropped near-dups of every 20th at doc_id+1e6;
every 25th embedding copied at vec_id+1e6) — the oracle SQL builds the
identical view in a CTE, so the checks exercise real dup/near-dup
recall, not empty result sets.
"""
from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.arrownp import list_matrix
from ..functions.text import round6, tokenize_ws
from ..sources.storage import read_table
from ..functions.textstats import lang_id, quality_features, token_counts
from ..stages import dedup as dd
from ..stages import simsearch as ss
from ..stages.media import decode_media
from ..stages.shuffle import co_partition, partition_count, wide_bucket
from ..state.memo import fetch, memo

EXACT_COPY_EVERY = 10
EXACT_COPY_OFFSET = 2_000_000
NEAR_DUP_EVERY = 20
NEAR_DUP_OFFSET = 1_000_000
EMB_COPY_EVERY = 25
EMB_COPY_OFFSET = 1_000_000
CASE_VAR_EVERY = 15
CASE_VAR_OFFSET = 3_000_000
MEDIA_EVERY = 10


def _docs(sf_dir: str):
    return read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )


def _augment_docs(batch: pa.Table) -> pa.Table:
    """Originals + deterministic exact/near-dup copies (single pass)."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    out_id, out_text = list(ids), list(texts)
    for i, t in zip(ids, texts):
        if i % EXACT_COPY_EVERY == 0:
            out_id.append(i + EXACT_COPY_OFFSET)
            out_text.append(t)
        if i % NEAR_DUP_EVERY == 0:
            out_id.append(i + NEAR_DUP_OFFSET)
            out_text.append(" ".join(tokenize_ws(t)[:-1]))
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "text": pa.array(out_text, pa.string()),
        }
    )


def _aug_docs(sf_dir: str):
    return _docs(sf_dir).map_batches(_augment_docs, batch_format="pyarrow")


def _aug_ids(sf_dir: str):
    """The augmented view's doc_id universe WITHOUT any text work (the
    copy ids are arithmetic on the base ids — the _incoming_id_rows_fn
    discipline): for consumers that only need ids, reading the text
    column and synthesizing near-dup strings is pure waste."""
    def rows(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id").to_pylist(), dtype=np.int64)
        out = np.concatenate(
            [
                ids,
                ids[ids % EXACT_COPY_EVERY == 0] + EXACT_COPY_OFFSET,
                ids[ids % NEAR_DUP_EVERY == 0] + NEAR_DUP_OFFSET,
            ]
        )
        return pa.table({"doc_id": pa.array(out, pa.int64())})

    return read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(rows, batch_format="pyarrow")


# dedup_incremental_minhash's incoming batch: the augmented additions
# (expected near-dups of the standing corpus) plus a token-REVERSED
# variant of every INC_NOVEL_EVERY-th doc (expected novel: reversal
# rewrites every word shingle)
INC_NOVEL_EVERY = 7
INC_NOVEL_OFFSET = 4_000_000


def _reversed_incoming(batch: pa.Table) -> pa.Table:
    """The novel incoming family alone: token-reversed variants."""
    out_id, out_text = [], []
    for i, t in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        if i % INC_NOVEL_EVERY == 0:
            out_id.append(i + INC_NOVEL_OFFSET)
            out_text.append(" ".join(reversed(tokenize_ws(t))))
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "text": pa.array(out_text, pa.string()),
        }
    )


def _incoming_id_rows(batch: pa.Table) -> pa.Table:
    """Incoming doc_ids WITHOUT text work (ids are arithmetic on the
    base ids): the anti-join side of dedup_incremental_minhash."""
    out = []
    for i in batch.column("doc_id").to_pylist():
        i = int(i)
        if i % EXACT_COPY_EVERY == 0:
            out.append(i + EXACT_COPY_OFFSET)
        if i % NEAR_DUP_EVERY == 0:
            out.append(i + NEAR_DUP_OFFSET)
        if i % INC_NOVEL_EVERY == 0:
            out.append(i + INC_NOVEL_OFFSET)
    ids = np.asarray(out, dtype=np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "kind": pa.array(np.full(len(ids), 2, dtype=np.int32)),
        }
    )


# ------------------------------------------------------------------- dedup
def dedup_exact(sf_dir: str):
    return dd.dedup_exact(_aug_docs(sf_dir))


def dedup_exact_norm(sf_dir: str):
    """Normalized exact dedup (CCNet/RefinedWeb-style): lowercase +
    punctuation-strip + whitespace-squeeze before hashing, so trivially
    edited republications collapse.  The view adds a case/punctuation
    VARIANT of every ``CASE_VAR_EVERY``-th doc (uppercased, ' !!'
    appended) on top of the exact copies — byte-unequal, normalized-
    equal — so the check exercises normalization, not just hashing."""

    def add_variants(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_text = list(ids), list(texts)
        for i, t in zip(ids, texts):
            if i % EXACT_COPY_EVERY == 0:
                out_id.append(i + EXACT_COPY_OFFSET)
                out_text.append(t)
            if i % CASE_VAR_EVERY == 0:
                out_id.append(i + CASE_VAR_OFFSET)
                out_text.append(t.upper() + " !!")
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "text": pa.array(out_text, pa.string()),
            }
        )

    return dd.dedup_exact_norm(
        _docs(sf_dir).map_batches(add_variants, batch_format="pyarrow")
    )


def dedup_incremental(sf_dir: str, bloom_bits: int | None = None):
    """Incremental-ingest exact dedup with a Bloom prefilter: the
    incoming batch (the augmented view's synthetic additions,
    ``doc_id >= NEAR_DUP_OFFSET``) is deduped against the already-
    ingested reference corpus (the base ``documents`` table) by content
    hash.  Output is EXACT — the survivors of an anti-join on
    ``hash60(text)`` — but the reference hash set is never broadcast:

    1. the packed Bloom bits (``stages/bloom.py``; default 2^20 bits =
       128 KiB regardless of corpus size at bench scale, ~1.2 GB per
       10^9 keys at 1% FP when sized for production) are built
       distributed (one partial bitmap per block, OR-reduce) and
       ``ray.put`` once;
    2. incoming docs probe the filter in one stateless pass — bloom
       MISSES are certain non-members and pass through shuffle-free;
    3. only bloom HITS (true dups + rare false positives) co-group with
       the reference HASH rows for the exact confirm; false positives
       survive it.  Both sides route by ``wide_bucket(h)``
       (``stages/shuffle``); the reference side is PRE-FILTERED to the
       hit buckets (at most one per hit, broadcast once), so the
       confirm all-to-all ships ~|hit_buckets|/2^20 of the reference
       rows instead of all of them — and zero rows when there are no
       hits at all (early return).

    Within-batch duplicates are NOT collapsed here (that is
    ``dedup_exact``'s job); the operator answers "which incoming docs
    are new vs the reference".  A tiny ``bloom_bits`` forces false
    positives through the confirm path — output must not change
    (pinned by tests/test_dataops.py).
    """
    from ..functions.hashing import hash60
    from ..stages.bloom import (
        BLOOM_BITS_DEFAULT,
        bloom_contains,
        bloom_from_hashes,
        distinct_int_values,
    )

    m = int(bloom_bits or BLOOM_BITS_DEFAULT)

    def ref_hash_rows(batch: pa.Table) -> pa.Table:
        hs = [hash60(t) for t in batch.column("text").to_pylist()]
        return pa.table({"h": pa.array(hs, pa.int64())})

    # pinned ONCE (8-byte rows — the reduced-table discipline): the bloom
    # build and the confirm co-group both read it, so the corpus text is
    # hashed a single time
    ref_hashes = _docs(sf_dir).map_batches(
        ref_hash_rows, batch_format="pyarrow"
    ).materialize()
    bloom = bloom_from_hashes(ref_hashes, "h", m)
    ref = ray.put(bloom)

    def classify(batch: pa.Table) -> pa.Table:
        bits = fetch(ref)
        ids = np.asarray(
            [int(i) for i in batch.column("doc_id").to_pylist()],
            dtype=np.int64,
        )
        keep = ids >= NEAR_DUP_OFFSET
        hs = np.asarray(
            [
                hash60(t)
                for t, k in zip(batch.column("text").to_pylist(), keep)
                if k
            ],
            dtype=np.int64,
        )
        hit = bloom_contains(bits, hs, m)
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "h": pa.array(hs, pa.int64()),
                "hit": pa.array(hit, pa.bool_()),
            }
        )

    # light (doc_id, h, hit) rows — the ONLY thing pinned
    classified = _aug_docs(sf_dir).map_batches(
        classify, batch_format="pyarrow"
    ).materialize()

    misses = classified.map_batches(
        lambda b: b.filter(pc.invert(b.column("hit").combine_chunks()))
        .select(["doc_id", "h"]),
        batch_format="pyarrow",
    )

    def hit_rows(b: pa.Table) -> pa.Table:
        t = b.filter(b.column("hit").combine_chunks()).select(
            ["doc_id", "h"]
        )
        h = np.asarray(t.column("h").to_pylist(), dtype=np.int64)
        return pa.table(
            {
                "bucket": pa.array(wide_bucket(h)),
                "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
                "h": pc.cast(t.column("h"), pa.int64()),
                "side": pa.array([0] * t.num_rows, pa.int32()),
            }
        )

    # distinct hit buckets: at most one per hit, tiny when hits are few — the
    # broadcast that lets the confirm skip untouched reference buckets
    # (hits are pinned: the bucket collection and the confirm union both
    # read them)
    hits = classified.map_batches(
        hit_rows, batch_format="pyarrow"
    ).materialize()
    hit_buckets = distinct_int_values(hits, "bucket")
    if len(hit_buckets) == 0:
        return misses
    hb_ref = ray.put(hit_buckets)

    def ref_rows(b: pa.Table) -> pa.Table:
        hb = fetch(hb_ref)
        h = np.asarray(b.column("h").to_pylist(), dtype=np.int64)
        bucket = wide_bucket(h)
        keep = np.isin(bucket, hb)
        h, bucket = h[keep], bucket[keep]
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int32()),
                "doc_id": pa.array([-1] * len(h), pa.int64()),
                "h": pa.array(h, pa.int64()),
                "side": pa.array([1] * len(h), pa.int32()),
            }
        )

    def anti(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("side").to_pylist(), dtype=np.int32)
        h = np.asarray(group.column("h").to_pylist(), dtype=np.int64)
        ids = np.asarray(group.column("doc_id").to_pylist(), dtype=np.int64)
        inc = side == 0
        new = inc & ~np.isin(h, h[side == 1])
        return pa.table(
            {
                "doc_id": pa.array(ids[new], pa.int64()),
                "h": pa.array(h[new], pa.int64()),
            }
        )

    confirmed_new = co_partition(
        hits.union(ref_hashes.map_batches(ref_rows, batch_format="pyarrow")),
        anti,
    )
    return misses.union(confirmed_new)


def dedup_incremental_minhash(sf_dir: str, bloom_bits: int | None = None):
    """Incremental-ingest NEAR-dup dedup: the incoming batch (every
    augmented addition, ``doc_id >= NEAR_DUP_OFFSET``) is screened
    against the already-ingested reference corpus (the base
    ``documents`` table) by MinHash+LSH band keys — the near-dup
    analogue of ``dedup_incremental``'s exact-hash screen, the op a
    daily crawl increment runs against a standing 100-TB corpus.

    1. A Bloom filter over the REFERENCE BAND KEYS is built distributed
       from the reference band rows and ``ray.put`` once.  In
       production this filter (or the band index it summarizes) is the
       artifact persisted between ingests, so the recurring cost is the
       incoming side only; here it is built in-run.
    2. Incoming band rows probe the filter.  Bloom has no false
       negatives, so a MISSING band key certainly matches no reference
       band — miss rows never enter the confirm shuffle.
    3. Hit rows co-group with reference band rows PRE-FILTERED to the
       hit buckets (distinct hit-bucket set broadcast, the
       dedup_incremental discipline).  The co-group is
       ``stages/shuffle.co_partition`` on the band rows' bucket, with
       one confirm call per PARTITION: posting lists by (band_id,
       band_key) pair incoming x reference members, and the full
       signatures carried on the band rows (no join) confirm
       ``est_jaccard >= MINHASH_THRESHOLD`` —
       dedup_minhash_pairs' exact verify.  Posting lists over
       ``LSH_POSTING_CAP`` drop loudly (stages/dedup.py:_cap_posting).
    4. Output = incoming ids with NO confirmed reference partner, via
       a doc_id co-partition as an anti-join (no driver id set).

    The incoming view is the augmented additions PLUS a token-REVERSED
    variant of every ``INC_NOVEL_EVERY``-th doc: reversal rewrites every
    word 3-gram, so those docs share no shingles with their source and
    are genuinely novel — exact copies and the perturbed NEAR_DUP family
    are flagged dup, the reversed family survives (and, having no
    matching band keys, exercises the Bloom miss fast path end to end)."""
    from ..functions.hashing import MINHASH_K
    from ..stages.bloom import (
        BLOOM_BITS_DEFAULT,
        bloom_contains,
        bloom_from_hashes,
        distinct_int_values,
    )
    from ..stages.dedup import (
        MINHASH_THRESHOLD,
        _cap_posting,
        minhash_band_rows,
    )

    m = int(bloom_bits or BLOOM_BITS_DEFAULT)
    # the MEMOIZED band rows (shared with the whole minhash family,
    # _aug_band_rows) already carry everything this op needs — no second
    # signature pass over the corpus (the signature Python loop is the
    # family's dominant cost), and their bucket feeds co_partition
    # directly
    wide = _aug_band_rows(sf_dir)
    # band+id rows are a small multiple of the text size
    nbytes = os.path.getsize(os.path.join(sf_dir, "documents.parquet"))
    parts = partition_count(2 * nbytes)

    def ref_from_wide(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.less(pc.cast(b.column("doc_id"), pa.int64()), NEAR_DUP_OFFSET)
        )

    def add_from_wide(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.greater_equal(
                pc.cast(b.column("doc_id"), pa.int64()), NEAR_DUP_OFFSET
            )
        )

    # reference band rows: read by the bloom build AND the confirm —
    # pinned once (the persisted-index artifact at production scale)
    ref_bands = wide.map_batches(
        ref_from_wide, batch_format="pyarrow"
    ).materialize()

    def key_hash_rows(b: pa.Table) -> pa.Table:
        hs = [int(k[:15], 16) for k in b.column("band_key").to_pylist()]
        return pa.table({"h": pa.array(hs, pa.int64())})

    bloom = bloom_from_hashes(
        ref_bands.map_batches(key_hash_rows, batch_format="pyarrow"),
        "h", m,
    )
    bloom_ref = ray.put(bloom)

    def probe(b: pa.Table) -> pa.Table:
        # keep HIT rows only: miss rows (the dominant fraction when the
        # increment is mostly novel) are consumed by nothing downstream
        # — novelty comes from the arithmetic inc_ids anti-join — so
        # pinning their signatures would waste the object store
        bits = fetch(bloom_ref)
        hs = np.asarray(
            [int(k[:15], 16) for k in b.column("band_key").to_pylist()],
            dtype=np.int64,
        )
        return b.filter(pa.array(bloom_contains(bits, hs, m)))

    # incoming band rows: the planted additions come straight from the
    # wide memo; only the reversed novel family needs fresh signatures
    rev_bands = _docs(sf_dir).map_batches(
        _reversed_incoming, batch_format="pyarrow"
    ).map_batches(minhash_band_rows, batch_format="pyarrow")
    classified = (
        wide.map_batches(add_from_wide, batch_format="pyarrow")
        .union(rev_bands)
        .map_batches(probe, batch_format="pyarrow")
        .materialize()
    )

    inc_ids = (
        read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )
        .map_batches(_incoming_id_rows, batch_format="pyarrow")
    )

    hit_buckets = distinct_int_values(classified, "bucket")
    if len(hit_buckets) == 0:
        return inc_ids.select_columns(["doc_id"])
    hb_ref = ray.put(hit_buckets)

    def hit_side(b: pa.Table) -> pa.Table:
        return b.append_column(
            "side", pa.array(np.zeros(b.num_rows, dtype=np.int32))
        )

    def ref_side(b: pa.Table) -> pa.Table:
        hb = fetch(hb_ref)
        bucket = np.asarray(b.column("bucket").to_pylist(), dtype=np.int64)
        t = b.filter(pa.array(np.isin(bucket, hb)))
        return t.append_column(
            "side", pa.array(np.ones(t.num_rows, dtype=np.int32))
        )

    def confirm(group: pa.Table) -> pa.Table:
        posting: dict = {}
        for bd, k, d, s, sd in zip(
            group.column("band_id").to_pylist(),
            group.column("band_key").to_pylist(),
            group.column("doc_id").to_pylist(),
            group.column("sig").to_pylist(),
            group.column("side").to_pylist(),
        ):
            posting.setdefault((bd, k), []).append((sd, int(d), tuple(s)))
        posting = _cap_posting(posting, "dedup_incremental_minhash")
        dups: set = set()
        for members in posting.values():
            refs = [(d, s) for sd, d, s in members if sd == 1]
            if not refs:
                continue
            for sd, d, s in members:
                if sd != 0 or d in dups:
                    continue
                for _, sj in refs:
                    est = sum(x == y for x, y in zip(s, sj)) / MINHASH_K
                    if est >= MINHASH_THRESHOLD:
                        dups.add(d)
                        break
        ids = np.array(sorted(dups), dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "kind": pa.array(np.zeros(len(ids), dtype=np.int32)),
            }
        )

    # one Python call per PARTITION: confirm keys postings by
    # (band_id, band_key) and the anti-join by doc_id
    dup_rows = co_partition(
        classified.map_batches(hit_side, batch_format="pyarrow")
        .union(ref_bands.map_batches(ref_side, batch_format="pyarrow")),
        confirm, partitions=parts,
    )

    def keep_novel(part: pa.Table) -> pa.Table:
        kinds = np.asarray(part.column("kind").to_pylist(), dtype=np.int32)
        ids = np.asarray(part.column("doc_id").to_pylist(), dtype=np.int64)
        dead = set(ids[kinds == 0].tolist())
        keep = [int(i) for i in ids[kinds == 2] if int(i) not in dead]
        return pa.table({"doc_id": pa.array(keep, pa.int64())})

    return co_partition(
        inc_ids.union(dup_rows), keep_novel, key="doc_id", partitions=parts
    )


def dedup_fingerprint_pairs(sf_dir: str):
    """MOSS-style winnowing-overlap near-dup pairs over the augmented
    view (stages/dedup.py:fingerprint_dup_pairs) — position-robust
    k-gram sampling, shared-count threshold; the fifth dedup method
    next to exact/minhash/simhash/jaccard."""
    return dd.fingerprint_dup_pairs(_aug_docs(sf_dir))


def dedup_fingerprint_survivors(sf_dir: str):
    """Winnowing-overlap dedup end-to-end: MOSS-style pairs -> connected
    components (distributed min-label propagation) -> one canonical doc
    per component + all unpaired docs (the minhash_survivors shape over
    the fingerprint pair graph)."""
    docs = _aug_docs(sf_dir)
    pairs = dd.fingerprint_dup_pairs(docs)
    return dd.neardup_survivors(docs, pairs)


def _aug_band_rows(sf_dir: str):
    """Materialized MinHash band rows of the augmented view,
    memoized per (documents file, Ray job) (``state/memo``): pairs,
    survivors, the cluster-size histogram and the incremental screen all
    start from the same signature pass, which dominates the family's
    cost — one process computes it once.  ~200 B/band-row,
    object-store resident."""
    return memo(
        "dataops.mh_band_rows", os.path.join(sf_dir, "documents.parquet"),
        lambda: _aug_docs(sf_dir).map_batches(
            dd.minhash_band_rows, batch_format="pyarrow"
        ).materialize(),
    )


def dedup_minhash_pairs(sf_dir: str):
    return dd.dedup_minhash_pairs(
        _aug_docs(sf_dir), band_rows=_aug_band_rows(sf_dir)
    )


def dedup_minhash_survivors(sf_dir: str):
    """Near-dup clustering end-to-end: MinHash+LSH pairs -> connected
    components (distributed min-label propagation) -> one canonical doc
    per component + all unpaired docs."""
    docs = _aug_docs(sf_dir)
    pairs = dd.dedup_minhash_pairs(docs, band_rows=_aug_band_rows(sf_dir))
    return dd.neardup_survivors(docs, pairs)


def dup_cluster_sizes(sf_dir: str):
    """Near-dup CLUSTER SIZE histogram (a data-card staple): MinHash+LSH
    pairs -> connected components (stages/dedup.py:cc_bucket_labels) ->
    (size, n_clusters) for every component size >= 2.

    Both reductions ride stages/vecagg.bucketed_groupby: component-label
    cardinality is O(#components) (web-scale: billions) and per-key
    native aggregates are the measured scale-killer; bucketed flat
    np.add.at reductions track data size instead.  Singleton docs never
    enter the label table, so the histogram starts at size 2 by
    construction."""
    from ..stages.vecagg import bucketed_groupby

    pairs = dd.dedup_minhash_pairs(
        _aug_docs(sf_dir), band_rows=_aug_band_rows(sf_dir)
    )
    labels = dd.cc_bucket_labels(pairs)
    if labels is None:
        return ray.data.from_arrow(
            pa.table(
                {
                    "size": pa.array([], pa.int64()),
                    "n_clusters": pa.array([], pa.int64()),
                }
            )
        )

    def label_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"label": batch.column("val").cast(pa.int64())})

    sizes = bucketed_groupby(
        labels.map_batches(label_rows, batch_format="pyarrow"),
        "label", ["label"], ["count"], out_names=["size"],
    )
    hist = bucketed_groupby(
        sizes, "size", ["size"], ["count"], out_names=["n_clusters"],
    )
    return hist.sort("size")


def _decon_posting_ref(sf_dir: str):
    """Capped benchmark band-posting dict as a broadcast ObjectRef,
    memoized like ``_aug_band_rows`` — decontaminate_fuzzy and its
    survivors view share one driver-side posting collection + one
    ``ray.put`` instead of rebuilding per invocation.  The lists dropped
    over the cap are memoized with the ref and counted on every call,
    hit or miss, so CAP_DROP_COUNT moves for every query that runs on a
    capped posting."""
    from .curation import DECON_EVERY

    def bench_rows(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id").to_pylist(), dtype=np.int64)
        keep = (ids % DECON_EVERY == 0) & (ids < NEAR_DUP_OFFSET)
        return batch.filter(pa.array(keep))

    def build():
        posting: dict = {}
        for b in _aug_band_rows(sf_dir).map_batches(
            bench_rows, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow"):
            sig_mat = list_matrix(b.column("sig"), np.int64)
            for i, (band, k, bid) in enumerate(
                zip(
                    b.column("band_id").to_pylist(),
                    b.column("band_key").to_pylist(),
                    b.column("doc_id").to_pylist(),
                )
            ):
                posting.setdefault((band, k), []).append(
                    (int(bid), sig_mat[i])
                )
        posting, over = dd._split_cap(posting)
        return ray.put(posting), over

    # the cap is part of the key: a changed WCEB_LSH_POSTING_CAP (or a
    # test monkeypatch) must not be served a posting built under the old cap
    ref, over = memo(
        "dataops.decon_posting", os.path.join(sf_dir, "documents.parquet"),
        build, dd.LSH_POSTING_CAP,
    )
    dd._note_cap_drops(over, "decontaminate_fuzzy")
    return ref


def decontaminate_fuzzy(sf_dir: str):
    """NEAR-DUP benchmark decontamination (the fuzzy complement of
    curation.decontaminate's exact shingle-overlap scan; GPT-3 appendix C
    / Brown et al. 2020 deduplicate eval sets from training data by
    n-gram overlap, Lee et al. 2022 §4 do it by MinHash): corpus docs
    that share an LSH band with a benchmark doc AND signature-verify at
    est_jaccard >= MINHASH_THRESHOLD are flagged as contamination, even
    when edits defeat the exact check.

    Corpus = the augmented view (its planted exact copies / last-word
    near-dups of every DECON_EVERY-th doc are the contamination to
    catch); benchmark = every DECON_EVERY-th BASE doc, as in the exact
    op.  Scale shape: the benchmark side is small by construction
    (curation.py:46), so its band postings collect once and BROADCAST
    (``ray.put`` + ``state/memo.fetch``) — the corpus streams through ONE
    stateless probe over the memoized ``_aug_band_rows`` signature pass
    with ZERO shuffles, unlike the in-corpus dedup family's bucket sort;
    nothing here is per-corpus-size state.  Benchmark posting lists over
    ``LSH_POSTING_CAP`` drop with a logged count (stages/dedup.py:186
    discipline).  Output: (doc_id, bench_id, est_jaccard) per flagged
    pair; survivors are one anti-join away.
    """
    rows = _aug_band_rows(sf_dir)
    post_ref = _decon_posting_ref(sf_dir)

    def probe(batch: pa.Table, post_ref=post_ref) -> pa.Table:
        post = fetch(post_ref)
        sig_mat = list_matrix(batch.column("sig"), np.int64)
        a_out, b_out, j_out = [], [], []
        for i, (band, key, did) in enumerate(
            zip(
                batch.column("band_id").to_pylist(),
                batch.column("band_key").to_pylist(),
                batch.column("doc_id").to_pylist(),
            )
        ):
            for bid, bsig in post.get((band, key), ()):
                if bid == did:
                    continue
                m = int((sig_mat[i] == bsig).sum())
                # m/K >= 0.5 as an integer compare (no float threshold)
                if 2 * m >= dd.MINHASH_K:
                    a_out.append(int(did))
                    b_out.append(bid)
                    j_out.append(round6(m / dd.MINHASH_K))
        return pa.table(
            {
                "doc_id_a": pa.array(a_out, pa.int64()),
                "doc_id_b": pa.array(b_out, pa.int64()),
                "est_jaccard": pa.array(j_out, pa.float64()),
            }
        )

    pairs = dd._distinct_pairs(
        rows.map_batches(probe, batch_format="pyarrow"), "est_jaccard"
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id_a"),
                "bench_id": batch.column("doc_id_b"),
                "est_jaccard": batch.column("est_jaccard"),
            }
        )

    return pairs.map_batches(rename, batch_format="pyarrow")


def decontaminate_fuzzy_survivors(sf_dir: str):
    """The clean-corpus view: augmented docs minus every
    fuzzy-contaminated doc (decontaminate_fuzzy's flagged side), via the
    dedup family's keyed co-group anti-join
    (stages/dedup.anti_join_doc_ids) — no flagged-id set on the driver,
    so the stage holds even when contamination is pervasive.  Benchmark
    docs themselves band-match their own planted copies, not themselves
    (self-pairs are excluded), so they survive unless independently
    near-dup of another benchmark doc."""
    flagged = decontaminate_fuzzy(sf_dir).select_columns(["doc_id"])
    return dd.anti_join_doc_ids(_aug_ids(sf_dir), flagged)


def _aug_simhash_rows(sf_dir: str):
    """Materialized simhash rows of the augmented view, memoized like
    _aug_band_rows (signature and pair queries share one hash pass)."""
    return memo(
        "dataops.simhash_rows", os.path.join(sf_dir, "documents.parquet"),
        lambda: _aug_docs(sf_dir).map_batches(
            dd.simhash_rows, batch_format="pyarrow"
        ).materialize(),
    )


def dedup_simhash(sf_dir: str):
    return dd.dedup_simhash(
        _aug_docs(sf_dir), sig_rows=_aug_simhash_rows(sf_dir)
    )


def dedup_simhash_pairs(sf_dir: str):
    return dd.dedup_simhash_pairs(
        _aug_docs(sf_dir), sig_rows=_aug_simhash_rows(sf_dir)
    )


def dedup_ngram_jaccard(sf_dir: str):
    return dd.dedup_ngram_jaccard(_aug_docs(sf_dir))


def dedup_jaccard_prefix(sf_dir: str):
    """Prefix-filtered variant — identical output (lossless at the
    threshold), scale path with the ~2x smaller index."""
    return dd.dedup_ngram_jaccard_prefix(_aug_docs(sf_dir))


# -------------------------------------------------------- similarity search
def _emb(sf_dir: str):
    return read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"],
    )


def _augment_emb(batch: pa.Table) -> pa.Table:
    ids = batch.column("vec_id").to_pylist()
    embs = batch.column("embedding").to_pylist()
    out_id, out_emb = list(ids), list(embs)
    for i, e in zip(ids, embs):
        if i % EMB_COPY_EVERY == 0:
            out_id.append(i + EMB_COPY_OFFSET)
            out_emb.append(e)
    return pa.table(
        {
            "vec_id": pa.array(out_id, pa.int64()),
            "embedding": pa.array(out_emb, pa.list_(pa.float32())),
        }
    )


def knn_cosine(sf_dir: str):
    path = os.path.join(sf_dir, "embeddings.parquet")
    queries_ref = ray.put(ss.load_query_matrix(path))
    return ss.knn_bruteforce(_emb(sf_dir), queries_ref).drop_columns(["cos_r"])


def knn_ivf(sf_dir: str):
    path = os.path.join(sf_dir, "embeddings.parquet")
    queries_ref = ray.put(ss.load_query_matrix(path))
    return ss.knn_ivf(_emb(sf_dir), queries_ref).drop_columns(["cos_r"])


# Quantizer training set cap: the iterative Lloyd passes re-read their
# input, so it must be materialized — materialize a bounded hash-sample,
# never the corpus.  100k vectors is orders beyond what a coarse
# quantizer needs (FAISS guidance is ~39-256 points per list).
KMEANS_TRAIN_MAX = 100_000


def _hash_sample(ds, n_rows: int, max_rows: int, key: str = "vec_id"):
    """Deterministic id-hash sample of ~max_rows rows (knuth-multiply mod
    2^20 — same integer hash family as the LSH bucketing, so it is
    reproducible across runs and nodes, unlike random_sample)."""
    from ..functions.arrownp import num_col
    from ..stages.simsearch import _vkey_bucket

    space = 1 << 20
    keep_below = max(1, (max_rows * space) // max(n_rows, 1))

    def keep(batch: pa.Table) -> pa.Table:
        ids = num_col(batch.column(key), np.int64)
        return batch.filter(
            pa.array(_vkey_bucket(ids, space) < keep_below)
        )

    return ds.map_batches(keep, batch_format="pyarrow")


def knn_ivf_trained(sf_dir: str):
    """IVF top-k with a TRAINED coarse quantizer: distributed Lloyd
    k-means (pipelines/analytics.py:train_centroids, the hash-verified
    kmeans_iterate loop) learns the list centroids, vectors are assigned
    to their max-cosine list by a broadcast matmul, and the per-list
    partial-top-k/merge machinery of knn_ivf runs over the learned lists.
    With nprobe = all lists the result is exactly the brute-force answer
    (same oracle as knn_cosine) FOR ANY centroids — at scale
    nprobe < lists buys a lists/nprobe scan reduction at bounded recall
    loss, with list balance coming from the quantizer.

    Scale shape: only the Lloyd passes need a re-readable input, so the
    quantizer trains on a materialized deterministic hash-sample capped
    at KMEANS_TRAIN_MAX rows; the corpus itself streams through the
    assignment and search stages exactly once — no full-table
    materialize on any path.  Corpora at or under the cap train on every
    row (the sample IS the corpus), so small-scale runs are unchanged.
    ``kmeans_iterate`` (pipelines/analytics.py) keeps the exact
    full-corpus loop: it is the hash-verified oracle form of Lloyd
    itself, not a quantizer consumer."""
    from .analytics import (
        KMEANS_ITERS,
        _assign_batch,
        _load_centroids,
        train_centroids,
    )

    import pyarrow.compute as pc

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = read_table(path, columns=["vec_id", "embedding"])
    n_rows = ds.count()  # parquet metadata — no scan
    train = (
        _hash_sample(ds, n_rows, KMEANS_TRAIN_MAX)
        if n_rows > KMEANS_TRAIN_MAX
        else ds
    ).materialize()
    cents = train_centroids(train, _load_centroids(sf_dir), KMEANS_ITERS)
    cent_ref = ray.put(cents)

    def label_rows(batch: pa.Table) -> pa.Table:
        assigned = _assign_batch(batch, cent_ref)
        return batch.append_column(
            "label", pc.cast(assigned.column("cluster"), pa.int32())
        )

    labeled = ds.map_batches(label_rows, batch_format="pyarrow")
    queries_ref = ray.put(ss.load_query_matrix(path))
    return ss.knn_ivf(labeled, queries_ref).drop_columns(["cos_r"])


# ---------------------------------------------------------------- pq_encode
PQ_M = 4  # subspaces
PQ_K = 16  # codewords per subspace (=> 4x8-bit codes for a 64-dim vector)
PQ_ITERS = 2  # fixed Lloyd rounds per subspace
PQ_OFF = 2_000_000  # micro-unit shift making every value positive


def pq_encode(sf_dir: str):
    """Product-quantization encode (Jégou et al. 2011, "Product
    Quantization for Nearest Neighbor Search") — the vector-compression
    scale path of ANN: each 64-dim embedding becomes PQ_M=4 one-byte
    codes (16 codewords per 16-dim subspace), a 64x memory cut that lets
    a 100 TB embedding corpus fit an in-RAM IVF-PQ index.

    Training is fixed-iteration Lloyd per subspace in **pure int64
    arithmetic** so the distributed run and the SQL twin are
    bit-identical: vectors quantize to micro-units SHIFTED positive
    (xq = floor(x*1e6+0.5) + PQ_OFF — distances are shift-invariant and
    positivity makes floor-division == truncation in every engine),
    assignment is argmin integer squared L2 (ties -> lowest codeword id),
    and the codeword update is the integer floor-mean ``sum // n``
    (empty codewords keep their previous value).  Init codewords are the
    PQ_K lowest-vec_id subvectors.

    Shape: the trainer gets a materialized deterministic hash-sample
    capped at KMEANS_TRAIN_MAX rows (``_pq_inputs`` — the
    knn_ivf_trained scale contract; at or under the cap the sample IS
    the corpus, so the oracle is unchanged at any tested scale) and the
    corpus streams through the encode pass exactly once; codebooks are
    ~16x16 ints, shuffles move only (m, code, 16 sums, n) partial rows.
    """
    from ..functions.arrownp import list_matrix

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds, train = _pq_inputs(path)
    books, sub = _pq_train(train, sf_dir)
    final_ref = ray.put(books)

    def encode(batch: pa.Table, final_ref=final_ref) -> pa.Table:
        bks = fetch(final_ref)
        ids = [int(i) for i in batch.column("vec_id").to_pylist()]
        Xq = np.floor(
            list_matrix(batch.column("embedding"), np.float64) * 1e6 + 0.5
        ).astype(np.int64) + PQ_OFF
        cols = {"vec_id": pa.array(ids, pa.int64())}
        for m in range(PQ_M):
            codes = _sub_codes(Xq[:, m * sub:(m + 1) * sub], bks[m])
            cols[f"code_{m}"] = pa.array(
                codes.astype(np.int64), pa.int64()
            )
        return pa.table(cols)

    return ds.map_batches(encode, batch_format="pyarrow", batch_size=1024)


def _sub_codes(Xq: np.ndarray, book: np.ndarray) -> np.ndarray:
    # (n, sub) x (K, sub) -> argmin_j sum_d (x-c)^2, first-min = lowest j
    d = ((Xq[:, None, :] - book[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1)


def _pq_inputs(path: str):
    """(corpus_ds, train_ds) for the PQ pipelines — the knn_ivf_trained
    scale contract: only the Lloyd passes need a re-readable input, so
    the trainer gets a materialized deterministic hash-sample capped at
    KMEANS_TRAIN_MAX rows while the corpus itself STREAMS through the
    encode/scan stage exactly once.  Corpora at or under the cap train
    on every row (the sample IS the corpus, so the integer-exact oracle
    is unchanged at any tested scale); above it, codes come from
    sample-trained books — still a valid PQ, disclosed here."""
    ds = read_table(path, columns=["vec_id", "embedding"])
    n_rows = ds.count()  # parquet metadata - no scan
    if n_rows <= KMEANS_TRAIN_MAX:
        ds = ds.materialize()  # shared by the train passes + encode
        return ds, ds
    return ds, _hash_sample(ds, n_rows, KMEANS_TRAIN_MAX).materialize()


def _pq_train(ds, sf_dir: str) -> tuple[list, int]:
    """The distributed integer-Lloyd PQ codebook trainer of ``pq_encode``
    (see its docstring for the exactness contract); returns
    ([PQ_M x (PQ_K, sub) int64 codebooks], sub).

    Training is deterministic per corpus, so the (tiny) books memoize
    per (embeddings file, Ray job) (``state/memo``) — pq_encode,
    pq_search and ann_recall share one training run instead of three."""
    return memo(
        "dataops.pq_books", os.path.join(sf_dir, "embeddings.parquet"),
        lambda: _pq_fit(ds, sf_dir),
    )


def _pq_fit(ds, sf_dir: str) -> tuple[list, int]:
    from ..functions.arrownp import list_matrix
    from .analytics import _load_centroids

    dim = len(_load_centroids(sf_dir, k=1)[0])
    sub = dim // PQ_M
    init = _load_centroids(sf_dir, k=PQ_K)  # (K, dim) float64
    init_q = np.floor(init * 1e6 + 0.5).astype(np.int64) + PQ_OFF
    books = [
        init_q[:, m * sub:(m + 1) * sub].copy() for m in range(PQ_M)
    ]

    for _ in range(PQ_ITERS):
        book_ref = ray.put(books)

        def partial(batch: pa.Table, book_ref=book_ref) -> pa.Table:
            bks = fetch(book_ref)
            Xq = np.floor(
                list_matrix(batch.column("embedding"), np.float64) * 1e6
                + 0.5
            ).astype(np.int64) + PQ_OFF
            key_out, sum_out, n_out = [], [], []
            for m in range(PQ_M):
                Xs = Xq[:, m * sub:(m + 1) * sub]
                codes = _sub_codes(Xs, bks[m])
                for j in range(PQ_K):
                    mask = codes == j
                    if mask.any():
                        key_out.append(m * PQ_K + j)
                        sum_out.append(Xs[mask].sum(axis=0).tolist())
                        n_out.append(int(mask.sum()))
            return pa.table(
                {
                    "mk": pa.array(key_out, pa.int64()),
                    "vsum": pa.array(sum_out, pa.list_(pa.int64())),
                    "n": pa.array(n_out, pa.int64()),
                }
            )

        def reduce_code(group: pa.Table) -> pa.Table:
            sums = list_matrix(group.column("vsum"), np.int64)
            n = sum(group.column("n").to_pylist())
            return pa.table(
                {
                    "mk": group.column("mk").slice(0, 1),
                    "cq": pa.array(
                        [(sums.sum(axis=0) // n).tolist()],
                        pa.list_(pa.int64()),
                    ),
                }
            )

        upd = (
            ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=1024)
            .groupby("mk")
            .map_groups(reduce_code, batch_format="pyarrow")
            .to_pandas()
        )
        books = [b.copy() for b in books]
        for _, row in upd.iterrows():
            mk = int(row["mk"])
            books[mk // PQ_K][mk % PQ_K] = np.array(row["cq"], np.int64)
    return books, sub


def pq_search(sf_dir: str):
    """Asymmetric-distance top-k over PQ codes — the scan kernel of an
    IVF-PQ index (Jégou et al. 2011 §IV: the query stays uncompressed,
    each corpus vector is its PQ code, and distance is a table lookup).
    Per query: a (PQ_M x PQ_K) int64 lookup table of exact squared-L2
    distances between the query's subvectors and every codeword; a
    corpus vector's ADC distance is the sum of PQ_M lookups — no
    vector arithmetic in the scan, which is why PQ scans billions of
    codes in RAM.  Top-k per query by (adc asc, vec_id asc), self-match
    excluded; integer-exact end to end, so the SQL twin ranks
    identically.

    Shape: codebooks train as in ``pq_encode`` (capped hash-sample
    materialize, partial-sum shuffles only — ``_pq_inputs``), the LUTs
    broadcast once (PQ_M x PQ_K ints per query), and the scan is a
    streaming per-batch encode-gather-sum with a per-batch partial
    top-k before the tiny per-query merge (the knn_cosine combiner
    discipline).
    """
    from ..functions.arrownp import list_matrix

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds, train = _pq_inputs(path)
    books, sub = _pq_train(train, sf_dir)
    qids, qmat = ss.load_query_matrix(path)
    Qq = np.floor(qmat * 1e6 + 0.5).astype(np.int64) + PQ_OFF
    luts = [
        ((Qq[:, m * sub:(m + 1) * sub][:, None, :]
          - books[m][None, :, :]) ** 2).sum(axis=2)
        for m in range(PQ_M)
    ]  # PQ_M x (nq, PQ_K)
    ref = ray.put((qids, books, luts))

    def partial(batch: pa.Table, ref=ref) -> pa.Table:
        q_ids, bks, lts = fetch(ref)
        vec_ids = np.asarray(
            [int(i) for i in batch.column("vec_id").to_pylist()], np.int64
        )
        Xq = np.floor(
            list_matrix(batch.column("embedding"), np.float64) * 1e6 + 0.5
        ).astype(np.int64) + PQ_OFF
        adc = np.zeros((len(q_ids), len(vec_ids)), np.int64)
        for m in range(PQ_M):
            codes = _sub_codes(Xq[:, m * sub:(m + 1) * sub], bks[m])
            adc += lts[m][:, codes]
        out_q, out_v, out_d = [], [], []
        for qi, qid in enumerate(q_ids):
            keep = vec_ids != qid
            row = adc[qi][keep]
            order = np.lexsort((vec_ids[keep], row))[:ss.KNN_K]
            out_q.extend([int(qid)] * len(order))
            out_v.extend(int(v) for v in vec_ids[keep][order])
            out_d.extend(int(x) for x in row[order])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "adc": pa.array(out_d, pa.int64()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        qid = group.column("query_id")[0].as_py()
        vec_ids = np.asarray(group.column("vec_id").to_pylist(), np.int64)
        adc = np.asarray(group.column("adc").to_pylist(), np.int64)
        order = np.lexsort((vec_ids, adc))[:ss.KNN_K]
        return pa.table(
            {
                "query_id": pa.array([qid] * len(order), pa.int64()),
                "vec_id": pa.array(
                    [int(v) for v in vec_ids[order]], pa.int64()
                ),
                "rank": pa.array(range(1, len(order) + 1), pa.int64()),
                "adc": pa.array(
                    [int(x) for x in adc[order]], pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=1024)
        .groupby("query_id")
        .map_groups(merge, batch_format="pyarrow")
    )


def ann_recall(sf_dir: str):
    """Recall@k of the PQ scan against the exact brute force — the
    acceptance metric every ANN deployment reports before trading exact
    search for compressed codes.  Per query: |pq top-k ∩ exact top-k|
    and the integer recall percentage (``100 * overlap // k``).

    Both inputs are the engine's own distributed pipelines
    (``knn_cosine`` exact, ``pq_search`` ADC); their outputs are
    nq x k rows BY CONSTRUCTION (independent of corpus size), so the
    intersection is a driver-side fold over two tiny result sets — the
    ``score_correlation`` discipline, not a corpus materialize.
    """
    exact = knn_cosine(sf_dir).to_pandas()
    approx = pq_search(sf_dir).to_pandas()
    ex = exact.groupby("query_id")["vec_id"].apply(set)
    ap = approx.groupby("query_id")["vec_id"].apply(set)
    qids = sorted(ex.index)
    out_q, out_o, out_r = [], [], []
    for qid in qids:
        overlap = len(ex[qid] & ap.get(qid, set()))
        out_q.append(int(qid))
        out_o.append(overlap)
        out_r.append(100 * overlap // ss.KNN_K)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "n_overlap": pa.array(out_o, pa.int64()),
            "recall_pct": pa.array(out_r, pa.int64()),
        }
    )


def embedding_dup_survivors(sf_dir: str):
    """Embedding near-dup SURVIVORS: the LSH pair pipeline composed with
    the connected-components min-label machinery (stages/dedup.py:
    neardup_survivors) — one canonical vec per near-dup component plus
    every unpaired vec.  Demonstrates that the dedup survivor stage is
    modality-agnostic: anything producing (id_a, id_b) pairs plugs in."""
    from ..stages.dedup import neardup_survivors

    ds = _emb(sf_dir).map_batches(_augment_emb, batch_format="pyarrow")
    nbytes = os.path.getsize(os.path.join(sf_dir, "embeddings.parquet"))
    pairs = ss.cosine_dup_pairs_lsh(
        ds, partitions=partition_count(8 * nbytes)
    )

    def pair_ids(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id_a": batch.column("vec_id_a"),
                "doc_id_b": batch.column("vec_id_b"),
            }
        )

    def vec_ids_only(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("vec_id")})

    out = neardup_survivors(
        ds.map_batches(vec_ids_only, batch_format="pyarrow"),
        pairs.map_batches(pair_ids, batch_format="pyarrow"),
    )

    def back(batch: pa.Table) -> pa.Table:
        return pa.table({"vec_id": batch.column("doc_id")})

    return out.map_batches(back, batch_format="pyarrow")


def embedding_dup_pairs(sf_dir: str):
    """Embedding near-dup pairs via random-hyperplane LSH banding +
    in-bucket exact cosine (stages/simsearch.py:cosine_dup_pairs_lsh) —
    no corpus broadcast, no all-pairs matmul (the round-1 broadcast form
    did not scale past a worker's heap)."""
    ds = _emb(sf_dir).map_batches(_augment_emb, batch_format="pyarrow")
    # the augmented vectors cross the sorts as float64 lists, a few
    # times the parquet bytes
    nbytes = os.path.getsize(os.path.join(sf_dir, "embeddings.parquet"))
    return ss.cosine_dup_pairs_lsh(
        ds, partitions=partition_count(8 * nbytes)
    )


# ----------------------------------------------------------------- semdedup
SEMDEDUP_EPS = ss.COS_DUP_THRESHOLD
SEMDEDUP_REF_CAP = 128  # per-cluster reference-set size (lowest vec_ids)


def _sem_cluster(nvecs: np.ndarray, ncents: np.ndarray) -> np.ndarray:
    """Max-rounded-cosine centroid, ties to the lowest centroid index —
    the exact kmeans_assign rule (pipelines/analytics.py:_assign_batch)."""
    cos = np.floor((nvecs @ ncents.T) * 1e6 + 0.5) / 1e6
    return cos.argmax(axis=1).astype(np.int64)


def _nvec_list_col(nvecs: np.ndarray) -> pa.Array:
    offs = np.arange(len(nvecs) + 1, dtype=np.int64) * nvecs.shape[1]
    return pa.LargeListArray.from_arrays(
        pa.array(offs, pa.int64()), pa.array(nvecs.ravel(), pa.float64())
    ).cast(pa.list_(pa.float64()))


def semdedup(sf_dir: str):
    """SemDeDup-style semantic dedup (Abbas et al. 2023, arXiv:2303.09540):
    k-means-cluster the embedding space, then prune within each cluster any
    vector whose rounded cosine to a LOWER-vec_id cluster member reaches
    SEMDEDUP_EPS.  Returns (vec_id, cluster, keep) over the augmented
    embedding table (the embedding_dup corpus, exact copies planted).

    Zero corpus shuffle: centroids (the kmeans_assign seed rule — the k
    lowest-vec_id base embeddings) are broadcast once; a per-batch partial
    keeps only the SEMDEDUP_REF_CAP lowest vec_ids per cluster, a k-group
    merge reduces those partials to the tiny per-cluster REFERENCE sets
    (<= k x CAP rows total — the only rows that ever move), and a second
    broadcast map flags every vector against its own cluster's reference
    matrix.  Corpus vectors are read twice and shuffled never.

    The CAP is the posting-list/MAX_DF discipline applied to SemDeDup's
    quadratic within-cluster compare: members beyond the CAP lowest ids
    are never compared against each other (bounded recall loss, visible
    in the rule itself), and per-row work is dim x CAP flops regardless
    of cluster size.  Real SemDeDup sizes k so clusters stay small; the
    cap is the guard for when skew defeats that.  The SQL twin mirrors
    the cap via a rank <= CAP self-join, so engine and oracle agree at
    any cluster size."""
    from .analytics import _load_centroids

    ds = _emb(sf_dir).map_batches(_augment_emb, batch_format="pyarrow")
    return semdedup_flags(ds, _load_centroids(sf_dir))


def semdedup_flags(ds, cents: np.ndarray):
    """The distributed core of :func:`semdedup` over an arbitrary
    (vec_id, embedding) dataset and centroid matrix."""
    ncent_ref = ray.put(ss._norm(np.asarray(cents, dtype=np.float64)))

    def ref_partial(batch: pa.Table) -> pa.Table:
        ncents = fetch(ncent_ref)
        ids = ss.num_col(batch.column("vec_id"), np.int64)
        if len(ids) == 0:
            return pa.table(
                {
                    "cluster": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "nvec": pa.array([], pa.list_(pa.float64())),
                }
            )
        nvecs = ss._norm(ss.emb_matrix(batch.column("embedding")))
        cl = _sem_cluster(nvecs, ncents)
        keep_idx = []
        for c in np.unique(cl):
            members = np.flatnonzero(cl == c)
            order = members[np.argsort(ids[members], kind="stable")]
            keep_idx.extend(order[:SEMDEDUP_REF_CAP].tolist())
        keep_idx = np.array(sorted(keep_idx), dtype=np.int64)
        return pa.table(
            {
                "cluster": pa.array(cl[keep_idx], pa.int64()),
                "vec_id": pa.array(ids[keep_idx], pa.int64()),
                "nvec": _nvec_list_col(nvecs[keep_idx]),
            }
        )

    def ref_merge(group: pa.Table) -> pa.Table:
        ids = ss.num_col(group.column("vec_id"), np.int64)
        order = np.argsort(ids, kind="stable")[:SEMDEDUP_REF_CAP]
        return group.take(pa.array(np.sort(order), pa.int64()))

    refs = (
        ds.map_batches(ref_partial, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(ref_merge, batch_format="pyarrow")
        .take_all()  # bounded: <= k x SEMDEDUP_REF_CAP rows by construction
    )
    by_cluster: dict = {}
    for row in refs:
        by_cluster.setdefault(int(row["cluster"]), []).append(
            (int(row["vec_id"]), row["nvec"])
        )
    ref_map = {
        c: (
            np.array([i for i, _ in sorted(rows)], dtype=np.int64),
            np.array([v for _, v in sorted(rows)], dtype=np.float64),
        )
        for c, rows in by_cluster.items()
    }
    ref_ref = ray.put(ref_map)

    def flag(batch: pa.Table) -> pa.Table:
        ncents = fetch(ncent_ref)
        rmap = fetch(ref_ref)
        ids = ss.num_col(batch.column("vec_id"), np.int64)
        if len(ids) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "keep": pa.array([], pa.int64()),
                }
            )
        nvecs = ss._norm(ss.emb_matrix(batch.column("embedding")))
        cl = _sem_cluster(nvecs, ncents)
        keep = np.ones(len(ids), dtype=np.int64)
        for c in np.unique(cl):
            rid, rmat = rmap[int(c)]
            members = np.flatnonzero(cl == c)
            cos = np.floor((nvecs[members] @ rmat.T) * 1e6 + 0.5) / 1e6
            dup = (
                (cos >= SEMDEDUP_EPS) & (rid[None, :] < ids[members, None])
            ).any(axis=1)
            keep[members[dup]] = 0
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(cl, pa.int64()),
                "keep": pa.array(keep, pa.int64()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


# ------------------------------------------------------------ text analysis
def token_count(sf_dir: str):
    def stats(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        rows = [token_counts(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_ws": pa.array([r[0] for r in rows], pa.int64()),
                "n_words": pa.array([r[1] for r in rows], pa.int64()),
                "n_bpe": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


def text_quality(sf_dir: str):
    def stats(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        rows = [quality_features(t) for t in batch.column("text").to_pylist()]
        cols: dict = {"doc_id": pa.array(ids, pa.int64())}
        for k, typ in (
            ("n_chars", pa.int64()),
            ("n_ws", pa.int64()),
            ("stop_ratio", pa.float64()),
            ("punct_ratio", pa.float64()),
            ("mean_word_len", pa.float64()),
            ("quality", pa.float64()),
        ):
            cols[k] = pa.array([r[k] for r in rows], typ)
        return pa.table(cols)

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


def lang_id_q(sf_dir: str):
    def stats(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        rows = [lang_id(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang_pred": pa.array([r[0] for r in rows], pa.string()),
                "vote_ratio": pa.array([r[1] for r in rows], pa.float64()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


def repetition_stats(sf_dir: str):
    """Gopher-style repetition filter statistics (Rae et al. 2021 §A1.1:
    'fraction of characters in the most common n-gram' / duplicate-n-gram
    filters) — the quality gate every LLM-data pipeline applies before
    training.  Per doc over whitespace tokens:

    - n_2grams / n_distinct: word-bigram volume and distinctness
    - dup_2gram_ratio: 1 - distinct/total (repeatedness)
    - top_2gram_frac: occurrences of the most frequent bigram / total
      (a tie shares the same count, so the fraction needs no tie-break)
    """
    from collections import Counter

    from ..functions.text import round6, tokenize_ws

    def stats(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        out = {"n_2grams": [], "n_distinct": [], "dup_2gram_ratio": [],
               "top_2gram_frac": []}
        for t in batch.column("text").to_pylist():
            toks = tokenize_ws(t)
            grams = [
                toks[i] + " " + toks[i + 1] for i in range(len(toks) - 1)
            ]
            n = len(grams)
            if n == 0:
                out["n_2grams"].append(0)
                out["n_distinct"].append(0)
                out["dup_2gram_ratio"].append(0.0)
                out["top_2gram_frac"].append(0.0)
                continue
            counts = Counter(grams)
            mx = max(counts.values())
            out["n_2grams"].append(n)
            out["n_distinct"].append(len(counts))
            out["dup_2gram_ratio"].append(round6(1.0 - len(counts) / n))
            out["top_2gram_frac"].append(round6(mx / n))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_2grams": pa.array(out["n_2grams"], pa.int64()),
                "n_distinct": pa.array(out["n_distinct"], pa.int64()),
                "dup_2gram_ratio": pa.array(
                    out["dup_2gram_ratio"], pa.float64()
                ),
                "top_2gram_frac": pa.array(
                    out["top_2gram_frac"], pa.float64()
                ),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


# Vocab sizes up to this many types broadcast as a dict (a few hundred MB
# of worker heap at the limit); above it, the shuffle-join path runs.  A
# whitespace-token vocab over 100 TB of web text is billions of types —
# neither the driver (take_all) nor the workers (one dict copy each) can
# hold it, so the big-vocab path never materializes the vocabulary in any
# single process.
UNIGRAM_BROADCAST_MAX_TYPES = 2_000_000


def _with_schema(schema: pa.Schema):
    """Normalize every block of a dataset to ``schema``.  On small inputs
    a hash aggregate emits zero-column EMPTY blocks; an Acero join fed
    that side then fails with 'No match for key field <key>'.  Casting
    each block (empty -> ``schema.empty_table()``) pins the key column
    so the join paths work at every corpus size."""

    def fix(t: pa.Table) -> pa.Table:
        if t.schema.equals(schema):
            return t
        if t.num_rows == 0 or not all(
            n in t.column_names for n in schema.names
        ):
            return schema.empty_table()
        return pa.table(
            {f.name: pc.cast(t.column(f.name), f.type) for f in schema}
        )

    return fix


def _join_parts(n_small_rows: int) -> int:
    """Partition count for a hash join whose SMALL side has
    ``n_small_rows`` rows.  Ray 2.49's per-partition Acero join fails on
    any partition that comes up empty on one side (a zero-column table
    -> 'No match for key field'), so tiny joins run single-partition;
    real ones use the reasoned default (>=256 expected rows per
    partition makes an empty partition practically impossible)."""
    from .evalpipe import join_partitions

    return join_partitions() if n_small_rows >= 4096 else 1


def unigram_logprob(sf_dir: str, broadcast_max_types: int | None = None):
    """CCNet-style language-model quality score (Wenzek et al. 2020 use
    LM perplexity to rank CommonCrawl docs; the from-scratch analogue is
    a corpus unigram model).  Per doc: the mean integer-log2 frequency
    of its tokens, normalized by the corpus total's log2 —

        lm_score = floor(1e6 * Σ_t ilog2(count(t)) / (n_tok * ilog2(N)))
                   / 1e6,  ilog2(c) = bit_length(c) - 1

    The log is INTEGER-quantized (bit length), so Ray and the SQL twin
    (``length(bin(c)) - 1``) agree bit for bit — no transcendental-libm
    parity risk.

    Shape (shared with ``bigram_logprob`` via ``_ngram_logprob``):
    distributed gram-count (per-batch Counter combiner → bucketed
    vectorized Sum, stages/vecagg.py), materialized ONCE in the object
    store (types, not tokens), then one of two integer-identical scoring
    paths chosen by vocab size:

    - ``n_types <= broadcast_max_types``: the vocab is genuinely the
      small side — ``ray.put`` one dict, shuffle-free scoring pass.
    - larger: gram-explode join.  Docs explode to one row per DISTINCT
      gram per doc ``(doc_id, gram, k)`` (the per-doc Counter is the
      map-side combiner), hash-join against the vocab on ``gram``, then a
      bucketed vectorized Sum on ``doc_id`` rebuilds the per-doc sums.
      No process ever holds the vocabulary; both sides stream.  A
      sentinel ``("", k=0)`` row per doc keeps gram-less docs in the
      inner join with exact sums.
    """
    from ..functions.text import tokenize_ws

    return _ngram_logprob(
        sf_dir, tokenize_ws, "tok", "n_tokens", "lm_score",
        broadcast_max_types,
    )


def _bigrams_ws(text: str) -> list:
    from ..functions.text import tokenize_ws

    toks = tokenize_ws(text)
    return [toks[i] + " " + toks[i + 1] for i in range(len(toks) - 1)]


def bigram_logprob(sf_dir: str, broadcast_max_types: int | None = None):
    """Bigram LM quality score — the order-2 step from ``unigram_logprob``
    toward the KenLM scoring CCNet actually ships (Wenzek et al. 2020):
    a doc full of individually-common words in improbable ORDER scores
    high on the unigram model but low here.  Per doc:

        lm2_score = floor(1e6 * Σ_b ilog2(count(b)) / (n_bigrams * ilog2(N)))
                    / 1e6,  ilog2(c) = bit_length(c) - 1

    over whitespace-token bigrams (docs with < 2 tokens emit 0/0/0.0).
    Same dual-path shape as ``unigram_logprob`` (one shared
    implementation, ``_ngram_logprob``); bigram vocabularies are ~10×
    unigram ones, so at corpus scale the explode-join is the default —
    which is exactly why it exists.
    """
    return _ngram_logprob(
        sf_dir, _bigrams_ws, "gram", "n_bigrams", "lm2_score",
        broadcast_max_types,
    )


def _ngram_logprob(sf_dir: str, grams_of, key_col: str, n_col: str,
                   score_col: str, broadcast_max_types: int | None):
    """Shared dual-path integer-log2 LM scorer of unigram_logprob /
    bigram_logprob (see their docstrings for semantics and the scale
    contract).  ``grams_of(text) -> list[str]`` defines the model order;
    grams never equal "" (tokenize_ws yields no empty token, bigrams
    always contain a space), so "" is the safe sentinel key."""
    from collections import Counter

    if broadcast_max_types is None:
        broadcast_max_types = UNIGRAM_BROADCAST_MAX_TYPES

    def wc(batch: pa.Table) -> pa.Table:
        c = Counter()
        for t in batch.column("text").to_pylist():
            c.update(grams_of(t))
        return pa.table(
            {
                key_col: pa.array(list(c.keys()), pa.string()),
                "c": pa.array(list(c.values()), pa.int64()),
            }
        )

    from ..stages.vecagg import bucketed_groupby

    vocab = bucketed_groupby(
        _docs(sf_dir).map_batches(wc, batch_format="pyarrow"),
        key_col, ["c"], ["sum"],
    ).materialize()
    total = int(vocab.sum("c") or 0)
    d_log = total.bit_length() - 1 if total > 0 else 0

    n_types = vocab.count()
    if n_types <= broadcast_max_types:
        counts = {r[key_col]: int(r["c"]) for r in vocab.take_all()}
        ref = ray.put(counts)

        def score(batch: pa.Table) -> pa.Table:
            cmap = fetch(ref)
            ids = batch.column("doc_id").to_pylist()
            n_out, s_out, q_out = [], [], []
            for t in batch.column("text").to_pylist():
                grams = grams_of(t)
                slp = sum(cmap[g].bit_length() - 1 for g in grams)
                n_out.append(len(grams))
                s_out.append(slp)
                q_out.append(
                    (slp * 1_000_000 // (len(grams) * d_log)) / 1e6
                    if grams and d_log else 0.0
                )
            return pa.table(
                {
                    "doc_id": pa.array(
                        [int(i) for i in ids], pa.int64()
                    ),
                    n_col: pa.array(n_out, pa.int64()),
                    "sum_log2": pa.array(s_out, pa.int64()),
                    score_col: pa.array(q_out, pa.float64()),
                }
            )

        return _docs(sf_dir).map_batches(score, batch_format="pyarrow")

    # ---- big-vocab path: gram-explode hash join, vocabulary never held
    # in one process.
    def explode(batch: pa.Table) -> pa.Table:
        ids_out, g_out, k_out = [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            i = int(i)
            c = Counter(grams_of(t))
            ids_out.extend([i] * (len(c) + 1))
            g_out.extend(c.keys())
            k_out.extend(c.values())
            g_out.append("")  # sentinel: keeps gram-less docs joined
            k_out.append(0)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                key_col: pa.array(g_out, pa.string()),
                "k": pa.array(k_out, pa.int64()),
            }
        )

    sentinel = ray.data.from_arrow(
        pa.table({key_col: pa.array([""], pa.string()),
                  "c": pa.array([1], pa.int64())})
    )
    joined = (
        _docs(sf_dir)
        .map_batches(explode, batch_format="pyarrow")
        .join(
            vocab.union(sentinel).map_batches(
                _with_schema(
                    pa.schema([(key_col, pa.string()), ("c", pa.int64())])
                ),
                batch_format="pyarrow",
            ),
            join_type="inner",
            num_partitions=_join_parts(n_types),
            on=(key_col,),
        )
    )

    def contrib(batch: pa.Table) -> pa.Table:
        k = batch.column("k").to_pylist()
        c = batch.column("c").to_pylist()
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                n_col: pa.array(k, pa.int64()),
                "sum_log2": pa.array(
                    [ki * (int(ci).bit_length() - 1)
                     for ki, ci in zip(k, c)],
                    pa.int64(),
                ),
            }
        )

    per_doc = bucketed_groupby(
        joined.map_batches(contrib, batch_format="pyarrow"),
        "doc_id", [n_col, "sum_log2"], ["sum", "sum"],
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column(n_col).to_pylist()
        s = batch.column("sum_log2").to_pylist()
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                n_col: pa.array([int(x) for x in n], pa.int64()),
                "sum_log2": pa.array([int(x) for x in s], pa.int64()),
                score_col: pa.array(
                    [
                        (si * 1_000_000 // (ni * d_log)) / 1e6
                        if ni and d_log else 0.0
                        for ni, si in zip(n, s)
                    ],
                    pa.float64(),
                ),
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------------- importance_weights
# Every DSIR_TARGET_EVERY-th doc stands in for the trusted seed corpus (the
# "target distribution" of importance resampling); a production pipeline
# passes a reference corpus like Wikipedia here.
DSIR_TARGET_EVERY = 10


def _dsir_vocab(sf_dir: str):
    """Materialized (tok, c_raw, c_tgt) vocab table for the DSIR family,
    memoized like _aug_band_rows: the wordcount pass dominates the
    family's cost and importance_weights / importance_resample both
    start from it — one process computes it once per corpus."""
    from collections import Counter

    from ..stages.vecagg import bucketed_groupby

    def wc(batch: pa.Table) -> pa.Table:
        raw: Counter = Counter()
        tgt: Counter = Counter()
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            toks = tokenize_ws(t)
            raw.update(toks)
            if int(i) % DSIR_TARGET_EVERY == 0:
                tgt.update(toks)
        keys = list(raw.keys())
        return pa.table(
            {
                "tok": pa.array(keys, pa.string()),
                "c_raw": pa.array([raw[k] for k in keys], pa.int64()),
                "c_tgt": pa.array(
                    [tgt.get(k, 0) for k in keys], pa.int64()
                ),
            }
        )

    return memo(
        "dataops.dsir_vocab", os.path.join(sf_dir, "documents.parquet"),
        lambda: bucketed_groupby(
            _docs(sf_dir).map_batches(wc, batch_format="pyarrow"),
            "tok", ["c_raw", "c_tgt"], ["sum", "sum"],
        ).materialize(),
    )


def importance_weights(sf_dir: str, broadcast_max_types: int | None = None):
    """DSIR-style importance weight per document (Xie et al. 2023, "Data
    Selection for Language Models via Importance Resampling"): rank raw
    docs by how target-like their token distribution is,

        sum_ratio(d) = Σ_t k_d(t) · (ilog2(R·c_tgt(t) + 1) − ilog2(c_raw(t) + 1))

    with ilog2(c) = bit_length(c) − 1 and R = DSIR_TARGET_EVERY — the
    integer-quantized unigram log-likelihood ratio between the target
    slice and the raw corpus.  R·c_tgt/c_raw estimates
    p_tgt(t)/p_raw(t) exactly when the target slice is 1/R of the
    corpus, so corpus-typical tokens weigh ≈0, target-enriched tokens
    positive, target-depleted negative.  (The published estimator uses
    hashed n-gram counts and real logs; the quantized log keeps Ray and
    the SQL twin bit-for-bit identical, the ``unigram_logprob``
    discipline; +1 smooths both sides.)

    Shape: ONE wordcount pass emits ``(tok, c_raw, c_tgt)`` partial
    counts (per-batch Counter combiner) -> native Sum groupby -> the
    reduced vocab table; then broadcast-dict scoring at or below
    ``broadcast_max_types`` types, token-explode hash join above it —
    no process ever holds the vocabulary on the scale path.  All output
    columns are integers: zero float-parity risk.
    """
    from collections import Counter

    from ..functions.text import tokenize_ws

    if broadcast_max_types is None:
        broadcast_max_types = UNIGRAM_BROADCAST_MAX_TYPES

    vocab = _dsir_vocab(sf_dir)

    def _w(c_tgt: int, c_raw: int) -> int:
        return (DSIR_TARGET_EVERY * int(c_tgt) + 1).bit_length() - (
            int(c_raw) + 1
        ).bit_length()

    n_types = vocab.count()
    if n_types <= broadcast_max_types:
        wmap = {
            r["tok"]: _w(r["c_tgt"], r["c_raw"]) for r in vocab.take_all()
        }
        ref = ray.put(wmap)

        def score(batch: pa.Table) -> pa.Table:
            w = fetch(ref)
            ids = batch.column("doc_id").to_pylist()
            n_out, s_out = [], []
            for t in batch.column("text").to_pylist():
                toks = tokenize_ws(t)
                n_out.append(len(toks))
                s_out.append(sum(w[tok] for tok in toks))
            return pa.table(
                {
                    "doc_id": pa.array([int(i) for i in ids], pa.int64()),
                    "n_tokens": pa.array(n_out, pa.int64()),
                    "sum_ratio": pa.array(s_out, pa.int64()),
                }
            )

        return _docs(sf_dir).map_batches(score, batch_format="pyarrow")

    # ---- big-vocab path: token-explode hash join (unigram_logprob shape;
    # sentinel keeps zero-token docs joined with weight 0).
    from .evalpipe import join_partitions

    def explode(batch: pa.Table) -> pa.Table:
        ids_out, tok_out, k_out = [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            i = int(i)
            c = Counter(tokenize_ws(t))
            ids_out.extend([i] * (len(c) + 1))
            tok_out.extend(c.keys())
            k_out.extend(c.values())
            tok_out.append("")
            k_out.append(0)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "tok": pa.array(tok_out, pa.string()),
                "k": pa.array(k_out, pa.int64()),
            }
        )

    sentinel = ray.data.from_arrow(
        pa.table(
            {
                "tok": pa.array([""], pa.string()),
                "c_raw": pa.array([1], pa.int64()),
                "c_tgt": pa.array([0], pa.int64()),
            }
        )
    )
    joined = (
        _docs(sf_dir)
        .map_batches(explode, batch_format="pyarrow")
        .join(
            vocab.union(sentinel).map_batches(
                _with_schema(
                    pa.schema(
                        [
                            ("tok", pa.string()),
                            ("c_raw", pa.int64()),
                            ("c_tgt", pa.int64()),
                        ]
                    )
                ),
                batch_format="pyarrow",
            ),
            join_type="inner",
            num_partitions=_join_parts(n_types),
            on=("tok",),
        )
    )

    def contrib(batch: pa.Table) -> pa.Table:
        k = batch.column("k").to_pylist()
        cr = batch.column("c_raw").to_pylist()
        ct = batch.column("c_tgt").to_pylist()
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tokens": pa.array(k, pa.int64()),
                "sum_ratio": pa.array(
                    [ki * _w(ti, ri) for ki, ri, ti in zip(k, cr, ct)],
                    pa.int64(),
                ),
            }
        )

    from ..stages.vecagg import bucketed_groupby

    per_doc = bucketed_groupby(
        joined.map_batches(contrib, batch_format="pyarrow"),
        "doc_id", ["n_tokens", "sum_ratio"], ["sum", "sum"],
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_tokens": pc.cast(batch.column("n_tokens"), pa.int64()),
                "sum_ratio": pc.cast(batch.column("sum_ratio"), pa.int64()),
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


def importance_resample(sf_dir: str, range_size: int | None = None):
    """DSIR step 2 — SYSTEMATIC importance resampling over the
    importance_weights scores (Xie et al. 2023 §2 resample the raw
    corpus proportionally to the importance weights; Kitagawa 1996's
    systematic resampler): draw N = |corpus| lattice points
    p_k = (k + 1/2)·W/N over the doc_id-ordered cumulative weight axis
    (W = Σ weights) and give each doc one copy per lattice point inside
    its weight interval.  Deterministic, variance-optimal among
    unbiased resamplers, and integer-exact — the count compares
    2·cum·N against (2k+1)·W, no float lattice, so each doc gets
    exactly floor or ceil of its expectation N·w_d/W and
    Σ n_copies = N by construction.  Weight w_d = max(sum_ratio, 0)+1:
    target-enriched docs oversample, depleted docs keep baseline mass 1
    so the support never vanishes.

    Shape: importance_weights' streaming pass -> the pack_shards
    two-level prefix scan over index rows (doc_id, weight); the only
    driver state is the bucket-sum offsets dict plus the two scalars
    (W, N).  Output: (doc_id, weight, n_copies) — materializing the
    copies is one flat_map away and deliberately not done here (the
    counts are the verifiable artifact; copies would inflate the
    corpus x1 for nothing).  Overflow: the per-group counts use Python
    ints (exact at any scale); the SQL twin casts to HUGEINT.
    """
    from .curation import PACK_RANGE, _bucket_offsets

    if range_size is None:
        range_size = PACK_RANGE

    def widx(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id").to_pylist(), dtype=np.int64)
        sr = np.asarray(
            batch.column("sum_ratio").to_pylist(), dtype=np.int64
        )
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "bucket": pa.array(ids // range_size),
                "w": pa.array(np.maximum(sr, 0) + 1),
            }
        )

    idx = importance_weights(sf_dir).map_batches(
        widx, batch_format="pyarrow"
    ).materialize()  # index rows only (doc_id, bucket, w), read twice
    off_ref, total_w = _bucket_offsets(idx, "w")
    n_docs = idx.count()

    def n_below(x: int, n: int, w: int) -> int:
        # |{k >= 0 : (2k+1)·W < 2·x·N}| — lattice points strictly below x
        t = 2 * x * n - w
        return 0 if t <= 0 else (t - 1) // (2 * w) + 1

    def assign(group: pa.Table, off_ref=off_ref, n=n_docs,
               tw=total_w) -> pa.Table:
        offs = fetch(off_ref)
        ids = np.asarray(group.column("doc_id").to_pylist(), dtype=np.int64)
        w = np.asarray(group.column("w").to_pylist(), dtype=np.int64)
        order = np.argsort(ids)
        ids, w = ids[order], w[order]
        base = int(offs[int(group.column("bucket")[0].as_py())])
        hi = base + np.cumsum(w)
        copies = [
            n_below(int(h), n, tw) - n_below(int(h) - int(wd), n, tw)
            for h, wd in zip(hi, w)
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "weight": pa.array(w),
                "n_copies": pa.array(copies, pa.int64()),
            }
        )

    return idx.groupby("bucket").map_groups(assign, batch_format="pyarrow")


def doc_fingerprint(sf_dir: str):
    from ..functions.hashing import fingerprint_digest, winnow_fingerprints

    def stats(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        out_n, out_d = [], []
        for t in batch.column("text").to_pylist():
            fps = winnow_fingerprints(t)
            out_n.append(len(fps))
            out_d.append(fingerprint_digest(fps))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_fp": pa.array(out_n, pa.int64()),
                "fp_digest": pa.array(out_d, pa.string()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


HASH_EMBED_DIM = 256


def _he_vec(toks: list[str]) -> np.ndarray:
    """Dense signed-count feature-hash vector of one token list."""
    from ..functions.hashing import hash60

    acc = np.zeros(HASH_EMBED_DIM, dtype=np.int64)
    if toks:
        hs = np.fromiter(
            (hash60(tok) for tok in toks), dtype=np.int64, count=len(toks)
        )
        np.add.at(acc, hs % HASH_EMBED_DIM, 1 - 2 * ((hs >> 30) & 1))
    return acc


def hash_embed(sf_dir: str):
    """Feature-hashing text vectorizer (Weinberger et al. 2009, "Feature
    Hashing for Large Scale Multitask Learning"): each whitespace token
    lands in dimension ``hash60(tok) % DIM`` with sign ``(hash60 >> 30)
    & 1`` (an independent bit region, the signed variant that makes the
    estimator unbiased), and a document's vector is the signed token
    count per dimension.  Output is LONG format — one exact int64 row
    ``(doc_id, dim, weight)`` per NONZERO dimension — the sparse form a
    downstream dense-vector or index builder consumes, and the form
    whose values an SQL twin can match bit for bit (a list<float> column
    would stringify differently across engines).

    Zero shuffle: a document's tokens never leave its batch, so the
    whole featurizer is one stateless map — the text->vector stage that
    feeds the knn/semdedup/pq family when no model embedding exists."""
    def embed(batch: pa.Table) -> pa.Table:
        out_id, out_dim, out_w = [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            acc = _he_vec(tokenize_ws(t))
            nz = np.flatnonzero(acc)
            out_id.extend([int(i)] * len(nz))
            out_dim.extend(nz.tolist())
            out_w.extend(acc[nz].tolist())
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "dim": pa.array(out_dim, pa.int64()),
                "weight": pa.array(out_w, pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(embed, batch_format="pyarrow")


HE_NQ = 8   # query docs: the HE_NQ lowest doc_ids
HE_K = 10   # neighbours per query


def hash_embed_knn(sf_dir: str):
    """Integer-exact top-K similarity search over the hash_embed space —
    text-to-neighbours end to end with NO model and NO float: per query
    doc (the HE_NQ lowest ids, a driver-side filtered read), every
    corpus doc's score is the int64 dot product of signed-count vectors,
    and the top HE_K POSITIVELY-similar docs rank by (score desc,
    doc_id asc), self-match excluded.

    Positive-only is semantic, not cosmetic: a doc sharing no nonzero
    dimension scores exactly 0, and the SQL twin's sparse dim-join never
    sees such pairs — restricting both engines to score > 0 makes the
    result set identical by construction while keeping the join sparse.

    Shape: the dense (HE_NQ x DIM) int64 query matrix broadcasts once;
    each batch embeds its own docs (the corpus vector never
    materializes), one matmul scores the batch, a per-batch partial
    top-K emits <= HE_NQ x HE_K rows, and a tiny HE_NQ-group merge
    ranks — the knn_bruteforce combiner discipline on integer
    arithmetic."""
    import pyarrow.parquet as pq_mod

    t = pq_mod.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "<", HE_NQ)],
    )
    qids = np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64)
    order = np.argsort(qids)
    qmat = np.stack(
        [
            _he_vec(tokenize_ws(t.column("text").to_pylist()[int(i)]))
            for i in order
        ]
    )
    qids = qids[order]
    q_ref = ray.put((qids, qmat))

    def partial(batch: pa.Table) -> pa.Table:
        qi, qm = fetch(q_ref)
        ids = np.asarray(
            [int(x) for x in batch.column("doc_id").to_pylist()],
            dtype=np.int64,
        )
        out_q, out_d, out_s = [], [], []
        if len(ids):
            vecs = np.stack(
                [
                    _he_vec(tokenize_ws(t))
                    for t in batch.column("text").to_pylist()
                ]
            )
            scores = vecs @ qm.T  # (n, HE_NQ) int64 exact
            for j, qid in enumerate(qi):
                s = scores[:, j]
                ok = np.flatnonzero((s > 0) & (ids != qid))
                if len(ok) > HE_K:
                    top = ok[np.lexsort((ids[ok], -s[ok]))[:HE_K]]
                else:
                    top = ok
                out_q.extend([int(qid)] * len(top))
                out_d.extend(ids[top].tolist())
                out_s.extend(s[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "doc_id": pa.array(out_d, pa.int64()),
                "score": pa.array(out_s, pa.int64()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        ids = np.asarray(group.column("doc_id").to_pylist(), dtype=np.int64)
        s = np.asarray(group.column("score").to_pylist(), dtype=np.int64)
        qid = group.column("query_id")[0].as_py()
        top = np.lexsort((ids, -s))[:HE_K]
        return pa.table(
            {
                "query_id": pa.array([qid] * len(top), pa.int64()),
                "rank": pa.array(
                    np.arange(1, len(top) + 1, dtype=np.int64)
                ),
                "doc_id": pa.array(ids[top], pa.int64()),
                "score": pa.array(s[top], pa.int64()),
            }
        )

    return (
        _docs(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(merge, batch_format="pyarrow")
    )


# --------------------------------------------------------------- multimodal
def _media_payload_rows(batch: pa.Table) -> pa.Table:
    """Synthesize the media side-table (every 10th doc carries one payload;
    payload bytes are md5(ref) repeated — deterministic, oracle-computable)."""
    import hashlib

    refs, payloads = [], []
    for i in batch.column("doc_id").to_pylist():
        if i % MEDIA_EVERY == 0:
            ref = f"pdf://{i}/0"
            refs.append(ref)
            payloads.append(
                hashlib.md5(ref.encode()).digest() * (4 + i % 13)
            )
    return pa.table(
        {
            "media_ref": pa.array(refs, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def media_features(sf_dir: str):
    ds = _docs(sf_dir).map_batches(_media_payload_rows, batch_format="pyarrow")
    decoded = decode_media(ds)
    return decoded.drop_columns(["error"])


def _binary_media_rows(batch: pa.Table, only: str | None = None) -> pa.Table:
    """Every MEDIA_EVERY-th doc carries one BMP and one WAV payload, BOTH
    actually encoded (functions/binmedia.py) so the decode stage parses
    real bytes; generator seeds are hash60-derived, which is what lets
    the oracle reproduce the decoded aggregates in closed form.
    ``only`` restricts synthesis to one format — single-format consumers
    (resize, frames) never encode bytes they would immediately drop."""
    from ..functions.binmedia import WAV_MOD, encode_bmp, encode_wav
    from ..functions.hashing import hash60

    mids, fmts, payloads = [], [], []
    for i in batch.column("doc_id").to_pylist():
        if i % MEDIA_EVERY == 0:
            if only in (None, "bmp"):
                mids.append(2 * i)
                fmts.append("bmp")
                payloads.append(encode_bmp(hash60(f"bmp:{i}") % 256))
            if only in (None, "wav"):
                mids.append(2 * i + 1)
                fmts.append("wav")
                payloads.append(encode_wav(hash60(f"wav:{i}") % WAV_MOD))
    return pa.table(
        {
            "media_id": pa.array(mids, pa.int64()),
            "fmt": pa.array(fmts, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def media_decode(sf_dir: str):
    from ..stages.media import decode_binary_media

    ds = _docs(sf_dir).map_batches(
        _binary_media_rows, batch_format="pyarrow"
    )
    return decode_binary_media(ds).drop_columns(["error"])


def media_resize(sf_dir: str):
    """REAL image transform over the binary media view: nearest-neighbor
    2x downscale of every BMP payload (numpy row/column subsample +
    re-encode), stats re-decoded from the transform's OUTPUT bytes.
    The oracle twin is closed-form because the pixel generator is a
    (seed + 17k) % 256 sequence: the subsampled byte indices are an
    arithmetic lattice, so the resized byte_sum is a generate_series
    sum (dataops_oracles.py) — proving the resize kept exactly the
    right pixels."""
    from ..stages.media import resize_media

    ds = _docs(sf_dir).map_batches(
        _binary_media_rows, fn_kwargs={"only": "bmp"},
        batch_format="pyarrow",
    )
    return resize_media(ds).drop_columns(["error"])


def _png_media_rows(batch: pa.Table) -> pa.Table:
    """Every MEDIA_EVERY-th doc carries one REAL zlib-compressed PNG
    (functions/binmedia.encode_png): raw byte k follows the
    (seed + 29k) % 256 lattice and row r is filtered with type r % 5,
    so one payload exercises every unfilter path and the decoded
    aggregates stay closed-form for the oracle."""
    from ..functions.binmedia import encode_png
    from ..functions.hashing import hash60

    mids, payloads = [], []
    for i in batch.column("doc_id").to_pylist():
        if i % MEDIA_EVERY == 0:
            mids.append(i)
            payloads.append(encode_png(hash60(f"png:{i}") % 256))
    return pa.table(
        {
            "media_id": pa.array(mids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def media_decode_png(sf_dir: str):
    """REAL PNG decode end to end: encode (zlib deflate + per-row
    filters + chunk CRCs) -> actor-pool decode (CRC walk, inflate, all
    five unfilters) -> closed-form aggregates.  wsum is the position-
    weighted byte sum, so a wrong unfilter or row order cannot cancel."""
    from ..stages.media import decode_png_media

    ds = _docs(sf_dir).map_batches(_png_media_rows, batch_format="pyarrow")
    return decode_png_media(ds).drop_columns(["error"])


def _jpeg_media_rows(batch: pa.Table) -> pa.Table:
    """Every MEDIA_EVERY-th doc carries one REAL baseline JPEG
    (functions/binmedia.encode_jpeg): 8x8 blocks, block b a constant
    (seed + 31b) % 256, Annex-K Huffman tables, DC-only spectra — the
    construction that makes a lossy codec round-trip exactly, keeping
    the decoded aggregates closed-form for the oracle."""
    from ..functions.binmedia import encode_jpeg
    from ..functions.hashing import hash60

    mids, payloads = [], []
    for i in batch.column("doc_id").to_pylist():
        if i % MEDIA_EVERY == 0:
            mids.append(i)
            payloads.append(encode_jpeg(hash60(f"jpeg:{i}") % 256))
    return pa.table(
        {
            "media_id": pa.array(mids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def media_decode_jpeg(sf_dir: str):
    """REAL JPEG decode end to end: Huffman entropy encode -> actor-pool
    decode (marker walk, byte-stuffed bit reader, DC+AC Huffman,
    dequant, dezigzag, exact IDCT) -> closed-form aggregates; wsum is
    position-weighted, so a misplaced block cannot cancel."""
    from ..stages.media import decode_jpeg_media

    ds = _docs(sf_dir).map_batches(_jpeg_media_rows, batch_format="pyarrow")
    return decode_jpeg_media(ds).drop_columns(["error"])


def media_frames(sf_dir: str):
    """Frame-sampling over the binary media view: every WAV payload
    explodes into per-frame (frame_id, n_samples, abs_sum) rows for
    frames 0, FRAME_STEP, 2*FRAME_STEP, ... of FRAME_LEN samples — the
    "sample every k-th frame" multimodal shape.  The oracle twin is
    closed-form because sample i is ((seed + 37*i) % 2001) - 1000: each
    frame's |sum| is one generate_series sum."""
    from ..stages.media import frame_media

    ds = _docs(sf_dir).map_batches(
        _binary_media_rows, fn_kwargs={"only": "wav"},
        batch_format="pyarrow",
    )
    return frame_media(ds)


PDF_LINE_WORDS = 10


def _pdf_payload_rows(batch: pa.Table) -> pa.Table:
    """Every MEDIA_EVERY-th doc carries a REAL (Flate-compressed) PDF
    whose page text is derived from the doc: line 1 = the first
    PDF_LINE_WORDS whitespace tokens, line 2 = a parens/backslash tail
    that exercises the string-escape path end to end."""
    from ..functions.pdf import encode_pdf
    from ..functions.text import tokenize_ws

    ids, payloads = [], []
    for i, t in zip(
        batch.column("doc_id").to_pylist(),
        batch.column("text").to_pylist(),
    ):
        if i % MEDIA_EVERY == 0:
            line1 = " ".join(tokenize_ws(t)[:PDF_LINE_WORDS])
            line2 = f"({i}) \\ tail"
            ids.append(int(i))
            payloads.append(encode_pdf([line1, line2]))
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def _pdf_decode_rows(batch: pa.Table) -> pa.Table:
    from ..functions.pdf import decode_pdf_text

    ids = batch.column("doc_id").to_pylist()
    texts = [
        decode_pdf_text(p) for p in batch.column("payload").to_pylist()
    ]
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )


def pdf_extract(sf_dir: str):
    """Real PDF text extraction over actual binary payloads — encode on
    one side of the pipeline, parse (header walk, zlib inflate, text
    operators, escapes) on the other (functions/pdf.py); the oracle
    rebuilds the embedded text from the source table, so the hash check
    proves the decoder extracts exactly what was encoded."""
    ds = _docs(sf_dir).map_batches(_pdf_payload_rows, batch_format="pyarrow")
    # payload-sized batches: the operative memory bound is
    # batch x payload x concurrency (stages/media.py discipline)
    return ds.map_batches(
        _pdf_decode_rows, batch_format="pyarrow", batch_size=32
    )


# ExactSubstr-style duplicated-window analysis (Lee et al. 2022,
# "Deduplicating Training Data Makes Language Models Better"): stride-1
# token windows; an occurrence is duplicated iff its window string
# occurs >= 2 times corpus-wide (cross- OR within-doc).
SPAN_W = 5  # window width in tokens (docs shorter -> one whole-doc window)


def dup_span_stats(sf_dir: str, broadcast_max_types: int | None = None):
    """Per-doc duplicated-window statistics over the augmented corpus
    view: ``n_windows`` stride-1 ``SPAN_W``-token windows, ``n_dup`` of
    whose occurrences are corpus-duplicated, and their round6 ratio.

    Shape (the unigram_logprob dual-path discipline): distributed
    window-hash count (per-batch Counter combiner -> native Sum
    groupby; the REDUCED window-type table is what's pinned, never
    occurrence rows), then one of two integer-identical scoring paths
    chosen by the number of window types:

    - ``<= broadcast_max_types``: dup-hash SET (only counts >= 2 — far
      smaller than the full window table) broadcast via ``ray.put``;
      per-doc stats computed inline in one stateless doc pass — no
      join, no per-doc shuffle.
    - larger: occurrence-explode hash join on the window hash ->
      per-doc native Sum.  The stateless explode runs twice (count
      pass + join pass) — recompute is deliberately preferred over
      materializing the far larger occurrence side.  No process ever
      holds the window table.

    Ratio is integer-exact (floor(x*1e6+0.5) via (2an+b)//2b) so the
    SQL twin matches bit for bit on either path.
    """
    from collections import Counter

    from ..functions.hashing import hash60
    from ..functions.text import tokenize_ws
    from .evalpipe import join_partitions

    if broadcast_max_types is None:
        broadcast_max_types = UNIGRAM_BROADCAST_MAX_TYPES

    def explode(batch: pa.Table) -> pa.Table:
        ids_out, h_out, k_out = [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            toks = tokenize_ws(t)
            if len(toks) < SPAN_W:
                wins = [" ".join(toks)]
            else:
                wins = [
                    " ".join(toks[j : j + SPAN_W])
                    for j in range(len(toks) - SPAN_W + 1)
                ]
            c = Counter(hash60(w) for w in wins)
            ids_out.extend([int(i)] * len(c))
            h_out.extend(c.keys())
            k_out.extend(c.values())
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "h": pa.array(h_out, pa.int64()),
                "k": pa.array(k_out, pa.int64()),
            }
        )

    def occurrences():
        return _aug_docs(sf_dir).map_batches(explode, batch_format="pyarrow")

    from ..stages.vecagg import bucketed_groupby

    counts = bucketed_groupby(
        occurrences(), "h", ["k"], ["sum"], out_names=["c"]
    ).materialize()

    def finish_rows(ids, n, d):
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_windows": pa.array(n, pa.int64()),
                "n_dup": pa.array(d, pa.int64()),
                "dup_ratio": pa.array(
                    [
                        ((di * 2_000_000 + ni) // (2 * ni)) / 1e6
                        for ni, di in zip(n, d)
                    ],
                    pa.float64(),
                ),
            }
        )

    if counts.count() <= broadcast_max_types:
        # small-corpus fast path: ship ONLY the duplicated hashes (the
        # counts>=2 subset), score in one stateless doc pass
        dup_hashes = counts.map_batches(
            lambda b: b.filter(
                pc.greater_equal(pc.cast(b.column("c"), pa.int64()), 2)
            ).select(["h"]),
            batch_format="pyarrow",
        )
        dup_set = frozenset(r["h"] for r in dup_hashes.take_all())
        ref = ray.put(dup_set)

        def score(batch: pa.Table) -> pa.Table:
            dset = fetch(ref)
            ids_out, n_out, d_out = [], [], []
            for i, t in zip(
                batch.column("doc_id").to_pylist(),
                batch.column("text").to_pylist(),
            ):
                toks = tokenize_ws(t)
                if len(toks) < SPAN_W:
                    wins = [" ".join(toks)]
                else:
                    wins = [
                        " ".join(toks[j : j + SPAN_W])
                        for j in range(len(toks) - SPAN_W + 1)
                    ]
                ids_out.append(int(i))
                n_out.append(len(wins))
                d_out.append(
                    sum(1 for w in wins if hash60(w) in dset)
                )
            return finish_rows(ids_out, n_out, d_out)

        return _aug_docs(sf_dir).map_batches(score, batch_format="pyarrow")

    joined = occurrences().join(
        counts.map_batches(
            _with_schema(pa.schema([("h", pa.int64()), ("c", pa.int64())])),
            batch_format="pyarrow",
        ),
        join_type="inner",
        num_partitions=_join_parts(counts.count()),
        on=("h",),
    )

    def contrib(batch: pa.Table) -> pa.Table:
        k = pc.cast(batch.column("k"), pa.int64())
        dup = pc.if_else(
            pc.greater_equal(pc.cast(batch.column("c"), pa.int64()), 2),
            k,
            pa.scalar(0, pa.int64()),
        )
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "n_windows": k,
                "n_dup": dup,
            }
        )

    from ..stages.vecagg import bucketed_groupby

    per_doc = bucketed_groupby(
        joined.map_batches(contrib, batch_format="pyarrow"),
        "doc_id", ["n_windows", "n_dup"], ["sum", "sum"],
    )

    def finish(batch: pa.Table) -> pa.Table:
        return finish_rows(
            [int(x) for x in batch.column("doc_id").to_pylist()],
            [int(x) for x in batch.column("n_windows").to_pylist()],
            [int(x) for x in batch.column("n_dup").to_pylist()],
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


def dup_span_scrub(sf_dir: str, broadcast_max_types: int | None = None):
    """ExactSubstr-style duplicated-span REMOVAL (the rewrite form of
    ``dup_span_stats``, after Lee et al. 2022, "Deduplicating Training
    Data Makes Language Models Better"): every stride-1 ``SPAN_W``-token
    window occurring >= 2 times corpus-wide marks its token positions;
    the output keeps only unmarked tokens, in original order, per doc
    of the augmented corpus view.

    Shape: the same distributed window-hash count (per-batch Counter
    combiner -> bucketed vectorized Sum, stages/vecagg.py), then one of
    two identical-output scrub paths chosen by the DUP-SET size (the
    counts >= 2 subset — what actually ships; gating on total type
    count would force a huge-corpus/few-dups input through a join whose
    small side is tiny, i.e. a near-single-partition funnel):

    - ``<= broadcast_max_types`` dup hashes: the dup-hash SET is
      broadcast via ``ray.put``; one stateless doc pass marks and
      rewrites — no extra shuffle.
    - larger: an occurrence-position explode ``(doc_id, s, h)`` is
      hash-joined against the dup-hash table on ``h`` (both sides
      stream), then the dup-START rows and the doc-text rows are
      UNIONED and co-located by ONE wide-bucket sort on ``doc_id``
      (the reassemble() discipline: Knuth hash over ``WIDE_BUCKET_
      SPACE``, explicit uniform boundaries, one rewrite call per
      partition — a key value never splits, so every doc arrives
      whole).  The corpus text crosses the wire exactly once and no
      process ever holds the window table or a per-doc start list.

    A window starting at token ``j`` covers positions ``j ..
    min(j + SPAN_W, n) - 1`` (a short doc's single whole-doc window
    covers everything); ``n_removed`` counts covered positions.
    """
    from collections import Counter

    from ..functions.hashing import hash60
    from ..functions.text import tokenize_ws
    from ..stages.vecagg import bucketed_groupby

    if broadcast_max_types is None:
        broadcast_max_types = UNIGRAM_BROADCAST_MAX_TYPES

    def _wins(toks: list) -> list:
        if len(toks) < SPAN_W:
            return [" ".join(toks)]
        return [
            " ".join(toks[j : j + SPAN_W])
            for j in range(len(toks) - SPAN_W + 1)
        ]

    def count_rows(batch: pa.Table) -> pa.Table:
        c = Counter()
        for t in batch.column("text").to_pylist():
            c.update(hash60(w) for w in _wins(tokenize_ws(t)))
        return pa.table(
            {
                "h": pa.array(list(c.keys()), pa.int64()),
                "k": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts = bucketed_groupby(
        _aug_docs(sf_dir).map_batches(count_rows, batch_format="pyarrow"),
        "h", ["k"], ["sum"], out_names=["c"],
    ).materialize()

    dup_only = counts.map_batches(
        lambda b: b.filter(
            pc.greater_equal(pc.cast(b.column("c"), pa.int64()), 2)
        ).select(["h"]),
        batch_format="pyarrow",
    )

    def _scrub_one(toks: list, starts) -> tuple[str, int]:
        n = len(toks)
        covered = np.zeros(n, dtype=bool)
        for s in starts:
            covered[s : min(s + SPAN_W, n)] = True
        kept = " ".join(t for t, c in zip(toks, covered) if not c)
        return kept, int(covered.sum())

    def finish_rows(ids, texts, n_toks, n_rem) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "kept_text": pa.array(texts, pa.string()),
                "n_tokens": pa.array(n_toks, pa.int64()),
                "n_removed": pa.array(n_rem, pa.int64()),
            }
        )

    n_dup = dup_only.count()
    if n_dup <= broadcast_max_types:
        dup_set = frozenset(r["h"] for r in dup_only.take_all())
        ref = ray.put(dup_set)

        def scrub(batch: pa.Table) -> pa.Table:
            dset = fetch(ref)
            ids, texts, n_toks, n_rem = [], [], [], []
            for i, t in zip(
                batch.column("doc_id").to_pylist(),
                batch.column("text").to_pylist(),
            ):
                toks = tokenize_ws(t)
                starts = [
                    j
                    for j, w in enumerate(_wins(toks))
                    if hash60(w) in dset
                ]
                kept, rem = _scrub_one(toks, starts)
                ids.append(int(i))
                texts.append(kept)
                n_toks.append(len(toks))
                n_rem.append(rem)
            return finish_rows(ids, texts, n_toks, n_rem)

        return _aug_docs(sf_dir).map_batches(scrub, batch_format="pyarrow")

    # ---- scale path: explode occurrences with positions, join, co-locate

    def explode_pos(batch: pa.Table) -> pa.Table:
        ids_out, s_out, h_out = [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            for j, w in enumerate(_wins(tokenize_ws(t))):
                ids_out.append(int(i))
                s_out.append(j)
                h_out.append(hash60(w))
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "s": pa.array(s_out, pa.int64()),
                "h": pa.array(h_out, pa.int64()),
            }
        )

    # n_dup > broadcast_max_types here, so _join_parts always returns the
    # real partition count — the tiny-small-side single-partition funnel
    # cannot occur on this path
    dup_starts = (
        _aug_docs(sf_dir)
        .map_batches(explode_pos, batch_format="pyarrow")
        .join(
            dup_only.map_batches(
                _with_schema(pa.schema([("h", pa.int64())])),
                batch_format="pyarrow",
            ),
            join_type="inner",
            num_partitions=_join_parts(n_dup),
            on=("h",),
        )
        .map_batches(
            lambda b: b.select(["doc_id", "s"]).append_column(
                "text", pa.array([""] * b.num_rows, pa.string())
            ),
            batch_format="pyarrow",
        )
    )
    doc_rows = _aug_docs(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "s": pa.array([-1] * b.num_rows, pa.int64()),
                "text": pc.cast(b.column("text"), pa.string()),
            }
        ),
        batch_format="pyarrow",
    )

    # partition count honors the 64 MiB size floor: doc text crosses this
    # sort once, so feed partition_count the corpus byte size (x2 for
    # the augmented view + occurrence rows riding along)
    try:
        input_bytes = 2 * os.path.getsize(
            os.path.join(sf_dir, "documents.parquet")
        )
    except OSError:
        input_bytes = None

    def rewrite(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return finish_rows([], [], [], [])
        # s=-1 sorts the text row first within each doc group
        g = part.sort_by([("doc_id", "ascending"), ("s", "ascending")])
        ids = np.asarray(g.column("doc_id").to_pylist(), dtype=np.int64)
        ss = np.asarray(g.column("s").to_pylist(), dtype=np.int64)
        texts = g.column("text").to_pylist()
        out_i, out_t, out_n, out_r = [], [], [], []
        lo = 0
        for hi in np.flatnonzero(np.diff(ids)).tolist() + [len(ids) - 1]:
            hi += 1
            assert ss[lo] == -1, "doc text row missing from its partition"
            toks = tokenize_ws(texts[lo])
            kept, rem = _scrub_one(toks, ss[lo + 1 : hi].tolist())
            out_i.append(int(ids[lo]))
            out_t.append(kept)
            out_n.append(len(toks))
            out_r.append(rem)
            lo = hi
        if not out_i:
            return finish_rows([], [], [], [])
        return finish_rows(out_i, out_t, out_n, out_r)

    return co_partition(
        dup_starts.union(doc_rows), rewrite, key="doc_id",
        partitions=partition_count(input_bytes),
    )


# RAG / context-window chunking: every doc is exploded into overlapping
# fixed-width token windows (the training-data "chunking" classic).
CHUNK_W = 8  # window width in tokens
CHUNK_S = 4  # stride in tokens


def chunk_windows(sf_dir: str, w: int = CHUNK_W, s: int = CHUNK_S):
    """Explode each document into overlapping token windows of ``w``
    tokens at stride ``s`` (starts 0, s, 2s, ... while start < n_tokens;
    trailing windows may be shorter).  Fully Arrow/numpy-vectorized: the
    per-chunk token gather is one ``take`` over the flat token buffer and
    the join-with-spaces is a C++ ``binary_join`` — no Python per row.

    Tokenization mirrors the oracle's ``regexp_split_to_array(trim(text),
    '\\s+')`` (trim + whitespace-run split; a blank doc is one '' token,
    per the no-empty-documents corpus note in dataops_oracles.py).

    At 100 TB this is a stateless map: no shuffle, output ~w/s x input
    tokens; batch memory is bounded by batch_size x (w/s) x doc bytes.
    """

    def chunk(batch: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(batch.column("text"))
        ).combine_chunks()
        n = pc.list_value_length(toks).to_numpy().astype(np.int64)
        k = -(-n // s)  # ceil(n / s) chunks per doc; n >= 1 (trim conv.)
        parent = np.repeat(np.arange(len(n), dtype=np.int64), k)
        first = np.cumsum(k) - k
        chunk_id = np.arange(int(k.sum()), dtype=np.int64) - np.repeat(
            first, k
        )
        start = chunk_id * s
        stop = np.minimum(start + w, n[parent])
        ln = stop - start
        # flat token-gather indices: doc offset + start + 0..ln-1
        offs = toks.offsets.to_numpy().astype(np.int64)[:-1]
        gidx = np.repeat(offs[parent] + start, ln) + (
            np.arange(int(ln.sum()), dtype=np.int64)
            - np.repeat(np.cumsum(ln) - ln, ln)
        )
        flat = pc.take(toks.values, pa.array(gidx, pa.int64()))
        loffs = np.concatenate(([0], np.cumsum(ln)))
        chunks = pa.ListArray.from_arrays(
            pa.array(loffs, pa.int32()), flat
        )
        return pa.table(
            {
                "doc_id": pc.cast(
                    pc.take(batch.column("doc_id"), pa.array(parent)),
                    pa.int64(),
                ),
                "chunk_id": pa.array(chunk_id, pa.int64()),
                "chunk_text": pc.binary_join(chunks, " "),
                "n_tokens": pa.array(ln, pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(chunk, batch_format="pyarrow")


# Content-defined chunking (CDC): rolling-hash cut points make chunk
# boundaries a function of CONTENT, not position, so an insertion early
# in a document shifts only the chunk it lands in — the segmentation
# that storage dedup (LBFS/Venti lineage) and chunk-level LLM-data dedup
# rely on.  The hash is a W-char polynomial with fixed per-lag weights
# (A^i mod M), so the DuckDB twin is a 16-term lag() expression — no
# modpow in SQL, and int64 never overflows (codepoint < 2^21, weight
# < 2^20, 16 terms < 2^45).  No min/max chunk clamp: a clamp makes the
# cut decision depend on the previous cut (stateful, not
# window-expressible); the raw-cut form is the verifiable core.
CDC_W = 16  # rolling window width (chars)
CDC_A = 31  # weight base
CDC_M = 1_048_573  # weight modulus (prime < 2^20)
CDC_D = 64  # cut divisor -> expected chunk ~64 chars
CDC_WEIGHTS = tuple((CDC_A ** i) % CDC_M for i in range(CDC_W))


def cdc_chunks(sf_dir: str):
    """Explode each document into content-defined chunks: cut after
    char ``pos`` when ``sum_i code[pos-i]*A^i mod M`` is divisible by
    ``CDC_D`` (pos >= W-1); the document tail always closes the last
    chunk.  Output one row per chunk: (doc_id, chunk_id, start_off,
    end_off, chunk_len, chunk_h60) — offsets in characters, ``chunk_h60``
    the shared md5-prefix hash of the chunk text (functions/hashing).

    At 100 TB this is a stateless map (no shuffle); each doc's hash
    sweep is one vectorized sliding-window matmul over its codepoints.
    """
    from ..functions.hashing import hash60

    wrev = np.array(CDC_WEIGHTS[::-1], dtype=np.int64)

    def chunk(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out = {k: [] for k in (
            "doc_id", "chunk_id", "start_off", "end_off", "chunk_h60"
        )}
        for i, t in zip(ids, texts):
            n = len(t)
            if n == 0:
                continue
            if n >= CDC_W:
                codes = np.frombuffer(
                    t.encode("utf-32-le"), dtype=np.uint32
                ).astype(np.int64)
                win = np.lib.stride_tricks.sliding_window_view(codes, CDC_W)
                h = (win @ wrev) % CDC_M
                cuts = (np.flatnonzero(h % CDC_D == 0) + CDC_W).tolist()
            else:
                cuts = []
            if not cuts or cuts[-1] != n:
                cuts.append(n)
            prev = 0
            for k, c in enumerate(cuts):
                out["doc_id"].append(i)
                out["chunk_id"].append(k)
                out["start_off"].append(prev)
                out["end_off"].append(c)
                out["chunk_h60"].append(hash60(t[prev:c]))
                prev = c
        end = np.asarray(out["end_off"], dtype=np.int64)
        start = np.asarray(out["start_off"], dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "chunk_id": pa.array(out["chunk_id"], pa.int64()),
                "start_off": pa.array(start, pa.int64()),
                "end_off": pa.array(end, pa.int64()),
                "chunk_len": pa.array(end - start, pa.int64()),
                "chunk_h60": pa.array(out["chunk_h60"], pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(chunk, batch_format="pyarrow")


def dataops_queries() -> dict:
    return {
        "dedup_exact": dedup_exact,
        "dedup_exact_norm": dedup_exact_norm,
        "dedup_incremental": dedup_incremental,
        "dedup_incremental_minhash": dedup_incremental_minhash,
        "dedup_fingerprint_pairs": dedup_fingerprint_pairs,
        "dedup_fingerprint_survivors": dedup_fingerprint_survivors,
        "dedup_minhash_pairs": dedup_minhash_pairs,
        "dedup_minhash_survivors": dedup_minhash_survivors,
        "decontaminate_fuzzy": decontaminate_fuzzy,
        "decontaminate_fuzzy_survivors": decontaminate_fuzzy_survivors,
        "dedup_simhash": dedup_simhash,
        "dedup_simhash_pairs": dedup_simhash_pairs,
        "dedup_ngram_jaccard": dedup_ngram_jaccard,
        "dedup_jaccard_prefix": dedup_jaccard_prefix,
        "knn_cosine": knn_cosine,
        "knn_ivf": knn_ivf,
        "knn_ivf_trained": knn_ivf_trained,
        "embedding_dup_pairs": embedding_dup_pairs,
        "embedding_dup_survivors": embedding_dup_survivors,
        "semdedup": semdedup,
        "dup_cluster_sizes": dup_cluster_sizes,
        "token_count": token_count,
        "text_quality": text_quality,
        "lang_id": lang_id_q,
        "doc_fingerprint": doc_fingerprint,
        "hash_embed": hash_embed,
        "hash_embed_knn": hash_embed_knn,
        "media_features": media_features,
        "media_decode": media_decode,
        "media_decode_png": media_decode_png,
        "media_decode_jpeg": media_decode_jpeg,
        "media_resize": media_resize,
        "media_frames": media_frames,
        "pdf_extract": pdf_extract,
        "repetition_stats": repetition_stats,
        "unigram_logprob": unigram_logprob,
        "bigram_logprob": bigram_logprob,
        "pq_encode": pq_encode,
        "pq_search": pq_search,
        "ann_recall": ann_recall,
        "importance_weights": importance_weights,
        "importance_resample": importance_resample,
        "chunk_windows": chunk_windows,
        "cdc_chunks": cdc_chunks,
        "dup_span_stats": dup_span_stats,
        "dup_span_scrub": dup_span_scrub,
    }
