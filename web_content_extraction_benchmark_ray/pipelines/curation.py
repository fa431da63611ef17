"""Corpus-curation operators a large-scale training-data pipeline needs
beyond dedup: benchmark decontamination, token-budget shard packing
(a distributed prefix-sum scan), and PII scrubbing.

The reference harness has no curation stage (its corpora are
pre-cleaned); these extend the same documents-table operator family as
``pipelines/dataops.py`` and follow the identical oracle conventions
(hash60 twins, integer-exact thresholds, deterministic augmentation —
see dataops_oracles.py module docstring).

Scale notes per operator:

- ``decontaminate``: the benchmark side is inherently small (an eval
  suite is fixed-size regardless of corpus scale), so its distinct
  shingle-hash set is the canonical broadcast small side: built
  distributed, collected once, ``ray.put`` once, fetched once per worker
  process.  The corpus scan is a pure per-batch map with a vectorized
  ``np.isin`` membership test — no shuffle at all.
- ``pack_shards``: a distributed exclusive prefix sum over token counts
  in ``doc_id`` order.  Two-level scan: per-range-bucket token sums
  (native Sum groupby over ``doc_id // range_size``) are prefix-summed
  once, then each bucket independently computes its in-bucket cumulative
  sums against its bucket offset.  The offset table has
  ``n_docs / range_size`` rows — sized on the driver here; at 10^12 docs
  pick ``range_size`` so that table stays small (1e6-doc ranges -> 1e6
  rows) or recurse the same scan over the bucket sums (tree scan).
- ``pii_scrub``: stateless per-batch regex redaction (compiled once per
  worker process).  The corpus is deterministically augmented with
  synthetic e-mail addresses (the test tables contain none), mirrored in
  a SQL CTE so the oracle exercises real redactions.
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import ray

from ..functions.arrownp import num_col
from ..functions.hashing import hash60, shingles
from ..functions.text import tokenize_ws
from ..sources.storage import read_table
from ..stages.coalesce import coalesce_small
from ..stages.shuffle import co_partition
from ..state.memo import fetch, memo

# --------------------------------------------------------------- constants
# Benchmark membership: every DECON_EVERY-th doc is an "eval benchmark"
# document; a corpus doc is contaminated when at least half its distinct
# shingles appear in the benchmark shingle set (integer-exact test).
DECON_EVERY = 97

# Shard packing: greedy token-budget packing in doc_id order;
# shard = exclusive_prefix_tokens // budget.
PACK_RANGE = 64  # docs per scan bucket (test scale; ~1e6 at 10^12 docs)
PACK_BUDGET = 4096  # tokens per shard

# PII augmentation + redaction.
PII_EVERY = 5
PII_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_TOKEN = "<EMAIL>"

_H60 = "('0x' || substr(md5({}), 1, 15))::BIGINT"


def _docs(sf_dir: str):
    import os

    return read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )


# ---------------------------------------------------------- decontaminate
def _bench_shingle_set(sf_dir: str):
    """Distinct shingle hashes of the benchmark docs, built distributed
    and collected once (the benchmark side is small by construction), as
    a sorted int64 array.  Memoized per (documents file, Ray job)
    (``state/memo``): decontaminate and the composed curate_corpus share
    one build."""
    import os

    def bench_hashes(batch: pa.Table) -> pa.Table:
        out: set[int] = set()
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            if doc_id % DECON_EVERY == 0:
                out.update(hash60(s) for s in shingles(text))
        return pa.table({"h": pa.array(sorted(out), pa.int64())})

    def build():
        parts = _docs(sf_dir).map_batches(bench_hashes, batch_format="pyarrow")
        hs: set[int] = set()
        for b in parts.iter_batches(batch_format="pyarrow"):
            hs.update(b.column("h").to_pylist())
        return np.array(sorted(hs), dtype=np.int64)

    return memo(
        "curation.bench_set", os.path.join(sf_dir, "documents.parquet"), build
    )


def _shingle_overlap(text: str, bench: np.ndarray) -> tuple[int, int]:
    """(n_shingles, n_overlap) of one doc against the pre-SORTED bench
    hash array — searchsorted membership is O(n_sh log B) per doc
    (np.isin re-sorts bench per call).  The contamination rule itself is
    ``_contaminated``; both are shared by decontaminate and the composed
    curate_corpus so the rule arithmetic cannot drift."""
    h = np.array([hash60(s) for s in shingles(text)], dtype=np.int64)
    if h.size and bench.size:
        idx = np.searchsorted(bench, h)
        idx[idx == len(bench)] = len(bench) - 1
        ov = int((bench[idx] == h).sum())
    else:
        ov = 0
    return len(h), ov


def _contaminated(n_sh: int, n_ov: int) -> bool:
    return n_sh > 0 and 2 * n_ov >= n_sh


def decontaminate(sf_dir: str):
    """Flag corpus docs sharing >= 50% of their distinct shingles with the
    benchmark set.  Output: (doc_id, n_shingles, n_overlap, contaminated).
    """
    bench_ref = ray.put(_bench_shingle_set(sf_dir))

    def scan(batch: pa.Table, bench_ref=bench_ref) -> pa.Table:
        bench = fetch(bench_ref)
        ids, n_sh, n_ov, flag = [], [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            n, ov = _shingle_overlap(text, bench)
            ids.append(doc_id)
            n_sh.append(n)
            n_ov.append(ov)
            flag.append(1 if _contaminated(n, ov) else 0)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_shingles": pa.array(n_sh, pa.int64()),
                "n_overlap": pa.array(n_ov, pa.int64()),
                "contaminated": pa.array(flag, pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(scan, batch_format="pyarrow")


# ------------------------------------------------------------- pack_shards
def _bucket_offsets(idx, value_col: str | None, *, descending: bool = False,
                    bucket_col: str = "bucket"):
    """Level 1 of the two-level distributed scan shared by every
    prefix/rank operator in this module (pack_shards, select_budget,
    quality_tiers, shuffle_order, pack_sequences): per-bucket totals
    (``Sum(value_col)``, or ``Count()`` when None) prefix-summed ONCE on
    the driver into exclusive bucket offsets.  Returns
    ``(off_ref, grand_total)``; workers fetch the dict once per process
    with ``fetch``."""
    from ray.data.aggregate import Count, Sum

    agg = Count() if value_col is None else Sum(value_col)
    out_col = "count()" if value_col is None else f"sum({value_col})"
    sums = (
        coalesce_small(idx, 4)
        .groupby(bucket_col)
        .aggregate(agg)
        .to_pandas()
        .sort_values(bucket_col, ascending=not descending)
    )
    vals = sums[out_col].to_numpy()
    offsets = dict(
        zip(
            sums[bucket_col].tolist(),
            np.concatenate([[0], np.cumsum(vals)[:-1]]).tolist(),
        )
    )
    return ray.put(offsets), int(vals.sum())


def pack_shards(sf_dir: str, range_size: int = PACK_RANGE,
                budget: int = PACK_BUDGET):
    """Token-budget shard packing: shard_id = (exclusive prefix sum of
    whitespace-token counts in doc_id order) // budget.

    Distributed scan, not a driver loop: per-bucket Sum -> one small
    prefix pass over the bucket-sum table -> per-bucket independent
    in-bucket cumulative sums offset by their bucket's prefix."""
    def counts(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        toks = [
            len(tokenize_ws(t)) for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "bucket": pa.array(
                    [i // range_size for i in ids], pa.int64()
                ),
                "n_tokens": pa.array(toks, pa.int64()),
            }
        )

    cnt = _docs(sf_dir).map_batches(counts, batch_format="pyarrow")
    # the scan reads the count table twice (bucket sums + in-bucket scan);
    # materialize the tiny (doc_id, bucket, n_tokens) index once
    cnt = cnt.materialize()

    off_ref, _ = _bucket_offsets(cnt, "n_tokens")

    def assign(group: pa.Table, off_ref=off_ref) -> pa.Table:
        offs = fetch(off_ref)
        ids = num_col(group, "doc_id", np.int64)
        tok = num_col(group, "n_tokens", np.int64)
        order = np.argsort(ids)
        ids, tok = ids[order], tok[order]
        base = int(offs[int(group.column("bucket")[0].as_py())])
        excl = base + np.concatenate([[0], np.cumsum(tok)[:-1]])
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(tok, pa.int64()),
                "shard_id": pa.array(excl // budget, pa.int64()),
            }
        )

    return cnt.groupby("bucket").map_groups(assign, batch_format="pyarrow")


# ------------------------------------------------------------ select_budget
SELECT_BUDGET = 10_000  # tokens to fill (test scale)
_SELECT_QSTEP = 4096  # micro-quality units per scan bucket (<=245 buckets)


def select_budget(sf_dir: str, budget: int = SELECT_BUDGET):
    """Token-budget-capped quality selection — the data-mixing step of an
    LLM training pipeline: take the best documents until the token budget
    is filled.  Docs are ordered by (quality desc, doc_id asc) on the
    integer micro-quality from ``text_quality``'s verified formula; a doc
    is selected iff the inclusive prefix sum of whitespace-token counts
    in that order stays within ``budget``.  Output per doc:
    (doc_id, n_tokens, quality_mu, cum_tokens, selected).

    Distributed scan, not a driver sort (the ``pack_shards`` two-level
    machinery over a quality key): per-doc (q_mu, n_tokens) index rows
    bucket by coarse quality range (``q_mu // _SELECT_QSTEP``); native
    per-bucket Sum -> one tiny driver prefix over the <=245 bucket sums
    in descending quality -> each bucket independently scans its rows
    (q desc, doc_id asc) against its bucket offset.  Only 24-byte index
    rows shuffle — never text.  A corpus whose quality mass collapses
    into one bucket degrades to one large group; the group still holds
    index rows only, and a finer QSTEP (or a second-level split on
    doc_id) is the knob.
    """

    from ..functions.textstats import quality_features

    def counts(batch: pa.Table) -> pa.Table:
        ids, q_mu, ntok = [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            ids.append(int(i))
            qf = quality_features(t)  # n_ws IS len(tokenize_ws(t))
            q_mu.append(int(round(qf["quality"] * 1e6)))
            ntok.append(qf["n_ws"])
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "q_mu": pa.array(q_mu, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "bucket": pa.array(
                    [q // _SELECT_QSTEP for q in q_mu], pa.int64()
                ),
            }
        )

    idx = _docs(sf_dir).map_batches(counts, batch_format="pyarrow")
    idx = idx.materialize()  # tiny (doc_id, q_mu, n_tokens) index, read 2x

    # high quality first
    off_ref, _ = _bucket_offsets(idx, "n_tokens", descending=True)

    def assign(group: pa.Table, off_ref=off_ref) -> pa.Table:
        offs = fetch(off_ref)
        ids = num_col(group, "doc_id", np.int64)
        q = num_col(group, "q_mu", np.int64)
        tok = num_col(group, "n_tokens", np.int64)
        order = np.lexsort((ids, -q))  # q desc, doc_id asc
        ids, q, tok = ids[order], q[order], tok[order]
        base = int(offs[int(group.column("bucket")[0].as_py())])
        cum = base + np.cumsum(tok)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(tok, pa.int64()),
                "quality_mu": pa.array(q, pa.int64()),
                "cum_tokens": pa.array(cum, pa.int64()),
                "selected": pa.array(
                    (cum <= budget).astype(np.int64), pa.int64()
                ),
            }
        )

    return idx.groupby("bucket").map_groups(assign, batch_format="pyarrow")


def source_mix(sf_dir: str, budget: int = SELECT_BUDGET):
    """Per-source proportional data mixing — the mixture-construction
    step of an LLM pipeline: the total token budget splits into equal
    per-source quotas (``budget // n_sources``, the uniform target
    mixture), and within each source the ``select_budget`` scan keeps
    the best docs by (quality desc, doc_id asc) until that source's
    quota fills.  Output per doc: (doc_id, source, n_tokens,
    quality_mu, cum_tokens, selected) with ``cum_tokens`` the
    within-source running total in selection order.

    Same two-level distributed scan as ``select_budget`` with
    ``(source, q-bucket)`` fused keys: only 32-byte index rows shuffle;
    the driver prefix holds per-source bucket sums (n_sources × ≤245
    rows), never documents.  Mixtures with non-uniform target weights
    are the same scan with a weight map in place of the uniform quota.
    """
    import os

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..functions.textstats import quality_features

    def counts(batch: pa.Table) -> pa.Table:
        ids, srcs, q_mu, ntok, gkey = [], [], [], [], []
        for i, s, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("source").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            qf = quality_features(t)  # n_ws IS len(tokenize_ws(t))
            q = int(round(qf["quality"] * 1e6))
            ids.append(int(i))
            srcs.append(s)
            q_mu.append(q)
            ntok.append(qf["n_ws"])
            gkey.append(f"{s}#{q // _SELECT_QSTEP}")
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "source": pa.array(srcs, pa.string()),
                "q_mu": pa.array(q_mu, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "gkey": pa.array(gkey, pa.string()),
            }
        )

    docs = read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"],
    )
    idx = docs.map_batches(counts, batch_format="pyarrow")
    idx = idx.materialize()  # tiny index rows, read 2x

    sums = (
        coalesce_small(idx, 4)
        .groupby("gkey")
        .aggregate(Sum("n_tokens"))
        .to_pandas()
    )
    sums["source"] = sums["gkey"].str.rsplit("#", n=1).str[0]
    sums["qb"] = sums["gkey"].str.rsplit("#", n=1).str[1].astype(int)
    sums = sums.sort_values(["source", "qb"],
                            ascending=[True, False])
    sums["off"] = (
        sums.groupby("source")["sum(n_tokens)"].cumsum()
        - sums["sum(n_tokens)"]
    )
    offsets = dict(zip(sums["gkey"], sums["off"].astype(int)))
    n_sources = int(sums["source"].nunique())
    quota = budget // max(n_sources, 1)
    off_ref = ray.put(offsets)

    def assign(group: pa.Table, off_ref=off_ref) -> pa.Table:
        offs = fetch(off_ref)
        ids = num_col(group, "doc_id", np.int64)
        q = num_col(group, "q_mu", np.int64)
        tok = num_col(group, "n_tokens", np.int64)
        order = np.lexsort((ids, -q))  # q desc, doc_id asc
        ids, q, tok = ids[order], q[order], tok[order]
        srcs = group.column("source").take(
            pa.array(order, pa.int64())
        )
        base = int(offs[group.column("gkey")[0].as_py()])
        cum = base + np.cumsum(tok)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "source": pc.cast(srcs, pa.string()),
                "n_tokens": pa.array(tok, pa.int64()),
                "quality_mu": pa.array(q, pa.int64()),
                "cum_tokens": pa.array(cum, pa.int64()),
                "selected": pa.array(
                    (cum <= quota).astype(np.int64), pa.int64()
                ),
            }
        )

    return idx.groupby("gkey").map_groups(assign, batch_format="pyarrow")


# ------------------------------------------------------------ quality_tiers
TIER_K = 4  # curriculum tiers (NTILE buckets)


def quality_tiers(sf_dir: str, k: int = TIER_K):
    """Curriculum-tier assignment — exact global NTILE(k) over quality.

    LLM curricula (and DataComp-style threshold filtering) need every doc
    placed in a quality quantile of the WHOLE corpus, not a per-partition
    approximation.  Output per doc: (doc_id, n_tokens, quality_mu, rnk,
    tier) where ``rnk`` is the 1-based global row number and ``tier`` the
    SQL-NTILE bucket, both over ORDER BY (quality_mu DESC, doc_id ASC) on
    ``text_quality``'s integer micro-quality.

    Exact global ranking without a global sort: the ``select_budget``
    two-level scan counting DOCS instead of tokens — per-doc index rows
    bucket by coarse quality range (``q_mu // _SELECT_QSTEP``), a native
    per-bucket Count prefix-summed once on the driver (<=245 rows) gives
    each bucket's starting rank, then every bucket independently ranks
    its own rows (q desc, doc_id asc) against that offset.  Only 24-byte
    index rows shuffle — never text.  NTILE is then pure arithmetic on
    the exact rank (first n%k tiles hold ceil(n/k) rows), so the tier
    matches DuckDB's window function bit for bit.
    """

    from ..functions.textstats import quality_features

    def counts(batch: pa.Table) -> pa.Table:
        ids, q_mu, ntok = [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            ids.append(int(i))
            qf = quality_features(t)  # n_ws IS len(tokenize_ws(t))
            q_mu.append(int(round(qf["quality"] * 1e6)))
            ntok.append(qf["n_ws"])
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "q_mu": pa.array(q_mu, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "bucket": pa.array(
                    [q // _SELECT_QSTEP for q in q_mu], pa.int64()
                ),
            }
        )

    idx = _docs(sf_dir).map_batches(counts, batch_format="pyarrow")
    idx = idx.materialize()  # tiny index, read twice (counts + rank pass)

    # high quality first
    off_ref, n_total = _bucket_offsets(idx, None, descending=True)

    # SQL NTILE(k) over n rows: the first n % k tiles hold ceil(n/k)
    # rows, the rest floor(n/k).
    small, rem = divmod(n_total, k)
    cutoff = rem * (small + 1)

    def assign(group: pa.Table, off_ref=off_ref) -> pa.Table:
        offs = fetch(off_ref)
        ids = num_col(group, "doc_id", np.int64)
        q = num_col(group, "q_mu", np.int64)
        tok = num_col(group, "n_tokens", np.int64)
        order = np.lexsort((ids, -q))  # q desc, doc_id asc
        ids, q, tok = ids[order], q[order], tok[order]
        base = int(offs[int(group.column("bucket")[0].as_py())])
        r0 = base + np.arange(len(ids), dtype=np.int64)  # 0-based rank
        if small == 0:  # n_total < k: every row its own (big) tile
            tier = r0 + 1
        else:
            tier = np.where(
                r0 < cutoff,
                r0 // (small + 1) + 1,
                rem + (r0 - cutoff) // small + 1,
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(tok, pa.int64()),
                "quality_mu": pa.array(q, pa.int64()),
                "rnk": pa.array(r0 + 1, pa.int64()),
                "tier": pa.array(tier.astype(np.int64), pa.int64()),
            }
        )

    return idx.groupby("bucket").map_groups(assign, batch_format="pyarrow")


# ------------------------------------------------------------ topk_per_source
TOPK_SRC_K = 10  # docs kept per source (20 sources x ~25 docs at test scale: binds)


def topk_per_source(sf_dir: str, k: int = TOPK_SRC_K):
    """Per-GROUP top-k (SQL ``row_number() OVER (PARTITION BY source
    ORDER BY quality DESC, doc_id) <= k``) — the partitioned-rank
    operator shape next to the global ranks (``quality_tiers``) and the
    global top-k (``vocab_topk``): for each source, the ``k``
    highest-quality docs with their 1-based in-source rank.  Output:
    (source, rnk, doc_id, quality_mu, n_tokens).

    Shape: a map-side PARTIAL top-k per source inside each batch (one
    lexsort over (source, q desc, id) + a vectorized per-run rank mask
    — at most ``k`` 40-byte index rows per source leave any block, text
    never shuffles), then one per-source merge re-ranks
    O(k × n_blocks) surviving rows.  Final group sizes are bounded by
    construction, so the small-discrete-key groupby skew gotcha cannot
    produce a heavy partition."""
    import os

    from ..functions.textstats import quality_features

    def _partial_topk(
        srcs: np.ndarray, ids: np.ndarray, q: np.ndarray,
        tok: np.ndarray, k: int
    ) -> tuple:
        """Top-k rows per source run + each row's 1-based in-run rank,
        fully vectorized: lexsort, run starts via != shift, rank =
        position - run start."""
        order = np.lexsort((ids, -q, srcs))
        srcs, ids, q, tok = srcs[order], ids[order], q[order], tok[order]
        starts = np.flatnonzero(
            np.concatenate(([True], srcs[1:] != srcs[:-1]))
        )
        run_id = np.cumsum(
            np.concatenate(([True], srcs[1:] != srcs[:-1]))
        ) - 1
        rnk = np.arange(len(srcs), dtype=np.int64) - starts[run_id] + 1
        m = rnk <= k
        return srcs[m], ids[m], q[m], tok[m], rnk[m]

    def partial(batch: pa.Table) -> pa.Table:
        ids, q_mu, ntok = [], [], []
        for t in batch.column("text").to_pylist():
            qf = quality_features(t)
            q_mu.append(int(round(qf["quality"] * 1e6)))
            ntok.append(qf["n_ws"])
        srcs = np.asarray(batch.column("source").to_pylist(), dtype=object)
        ids = num_col(batch, "doc_id", np.int64)
        s, i, q, tk, _ = _partial_topk(
            srcs, ids, np.asarray(q_mu, np.int64),
            np.asarray(ntok, np.int64), k
        )
        return pa.table(
            {
                "source": pa.array(s.tolist(), pa.string()),
                "doc_id": pa.array(i, pa.int64()),
                "quality_mu": pa.array(q, pa.int64()),
                "n_tokens": pa.array(tk, pa.int64()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        srcs = np.asarray(group.column("source").to_pylist(), dtype=object)
        ids = num_col(group, "doc_id", np.int64)
        q = num_col(group, "quality_mu", np.int64)
        tok = num_col(group, "n_tokens", np.int64)
        s, i, qq, tk, rnk = _partial_topk(srcs, ids, q, tok, k)
        return pa.table(
            {
                "source": pa.array(s.tolist(), pa.string()),
                "rnk": pa.array(rnk, pa.int64()),
                "doc_id": pa.array(i, pa.int64()),
                "quality_mu": pa.array(qq, pa.int64()),
                "n_tokens": pa.array(tk, pa.int64()),
            }
        )

    idx = read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    ).map_batches(partial, batch_format="pyarrow")
    return idx.groupby("source").map_groups(merge, batch_format="pyarrow")


# -------------------------------------------------------------- shuffle_order
SHUFFLE_SEED = "shuf1"  # seed string baked into the hash (epoch selector)
SHUFFLE_SEQ_DOCS = 64  # docs per shuffled output shard (test scale)


def shuffle_order(sf_dir: str, seed: str = SHUFFLE_SEED,
                  shard_docs: int = SHUFFLE_SEQ_DOCS):
    """Deterministic seeded GLOBAL shuffle — the training-order pass an
    LLM pipeline runs before sharding (a different ``seed`` is a new
    epoch permutation).  Every doc gets its exact position in the
    permutation ordered by (h, doc_id), h = hash60(seed || ':' || doc_id),
    plus the shuffled shard it lands in (``(pos-1) // shard_docs``).

    ``Dataset.random_shuffle`` would move every row's payload through an
    all-to-all; this op moves only 24-byte (doc_id, h) index rows and
    never the text: the hash's own top bits are a uniformly-balanced
    coarse bucket key by construction, so the ``quality_tiers`` two-level
    rank scan (per-bucket Count → tiny driver prefix → independent
    in-bucket argsort) yields the exact global position.  Consumers then
    range-read their shard's doc_ids — the shuffle is metadata, the bulk
    data stays put (the Lance-table take-by-rowid pattern).
    """

    def index(batch: pa.Table) -> pa.Table:
        ids = [int(i) for i in batch.column("doc_id").to_pylist()]
        hs = [hash60(f"{seed}:{i}") for i in ids]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "h": pa.array(hs, pa.int64()),
                "bucket": pa.array([h >> 52 for h in hs], pa.int64()),
            }
        )

    idx = _docs(sf_dir).map_batches(index, batch_format="pyarrow")
    idx = idx.materialize()  # tiny (doc_id, h) index, read twice

    off_ref, _ = _bucket_offsets(idx, None)

    def assign(group: pa.Table, off_ref=off_ref) -> pa.Table:
        offs = fetch(off_ref)
        ids = num_col(group, "doc_id", np.int64)
        h = num_col(group, "h", np.int64)
        order = np.lexsort((ids, h))  # h asc, doc_id asc
        ids, h = ids[order], h[order]
        base = int(offs[int(group.column("bucket")[0].as_py())])
        pos = base + np.arange(1, len(ids) + 1, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "shuffle_pos": pa.array(pos, pa.int64()),
                "shard_id": pa.array((pos - 1) // shard_docs, pa.int64()),
            }
        )

    return idx.groupby("bucket").map_groups(assign, batch_format="pyarrow")


# ------------------------------------------------------------ pack_sequences
SEQ_LEN = 512  # tokens per training sequence (test scale)


def pack_sequences(sf_dir: str, seq_len: int = SEQ_LEN,
                   seed: str = SHUFFLE_SEED):
    """Fixed-length training-sequence packing in SHUFFLED order — the
    batch-prep composition an LLM pipeline actually runs (shuffle the
    corpus, then concatenate tokens into seq_len-sized sequences): per
    doc, the sequence its first token lands in and the offset within it,

        seq_id  = prefix // seq_len,   seq_off = prefix % seq_len

    with ``prefix`` the exclusive token prefix sum in (h, doc_id) order,
    h = hash60(seed || ':' || doc_id) (``shuffle_order``'s permutation).

    Same two-level scan as ``pack_shards`` but ordered by the seeded
    hash instead of doc_id: the hash's top bits bucket uniformly, the
    driver prefix holds 256 bucket token-sums, each bucket scans its own
    rows sorted by (h, doc_id).  Only 32-byte index rows move; a new
    seed re-packs a new epoch without touching the text.
    """

    def index(batch: pa.Table) -> pa.Table:
        ids, hs, toks = [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            i = int(i)
            ids.append(i)
            hs.append(hash60(f"{seed}:{i}"))
            toks.append(len(tokenize_ws(t)))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "h": pa.array(hs, pa.int64()),
                "n_tokens": pa.array(toks, pa.int64()),
                "bucket": pa.array([h >> 52 for h in hs], pa.int64()),
            }
        )

    idx = _docs(sf_dir).map_batches(index, batch_format="pyarrow")
    idx = idx.materialize()  # tiny index, read twice

    off_ref, _ = _bucket_offsets(idx, "n_tokens")

    def assign(group: pa.Table, off_ref=off_ref) -> pa.Table:
        offs = fetch(off_ref)
        ids = num_col(group, "doc_id", np.int64)
        h = num_col(group, "h", np.int64)
        tok = num_col(group, "n_tokens", np.int64)
        order = np.lexsort((ids, h))  # h asc, doc_id asc
        ids, h, tok = ids[order], h[order], tok[order]
        base = int(offs[int(group.column("bucket")[0].as_py())])
        excl = base + np.concatenate([[0], np.cumsum(tok)[:-1]])
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(tok, pa.int64()),
                "seq_id": pa.array(excl // seq_len, pa.int64()),
                "seq_off": pa.array(excl % seq_len, pa.int64()),
            }
        )

    return idx.groupby("bucket").map_groups(assign, batch_format="pyarrow")


# --------------------------------------------------------------- pii_scrub
_PII_RE = re.compile(PII_PATTERN)


def _pii_suffix(doc_id: int) -> str:
    return f" Contact user{doc_id}@example.com for details."


def pii_scrub(sf_dir: str):
    """Redact e-mail addresses over the PII-augmented view.  Output:
    (doc_id, n_pii, clean_hash) with clean_hash = hash60(redacted text)."""

    def scrub(batch: pa.Table) -> pa.Table:
        ids, n_pii, clean = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            if doc_id % PII_EVERY == 0:
                text = text + _pii_suffix(doc_id)
            red, n = _PII_RE.subn(PII_TOKEN, text)
            ids.append(doc_id)
            n_pii.append(n)
            clean.append(hash60(red))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_pii": pa.array(n_pii, pa.int64()),
                "clean_hash": pa.array(clean, pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(scrub, batch_format="pyarrow")


# ------------------------------------------------------------ curate_corpus
def curate_corpus(sf_dir: str, range_size: int = PACK_RANGE,
                  budget: int = PACK_BUDGET):
    """END-TO-END corpus curation as ONE query — the composed production
    pipeline a training-data team actually runs: Gopher quality gate +
    exact-dup tombstoning + benchmark decontamination over the augmented
    corpus view, survivors packed into token-budget shards in doc_id
    order.  reason_mask bits: 1 = Gopher rule failure (qualityops rules),
    2 = exact duplicate (a lower doc_id carries identical text), 4 =
    benchmark contamination (>= 50% shingle overlap with the eval set).
    keep = 1 iff mask = 0; kept docs get shard_id from the exclusive
    kept-token prefix scan, dropped docs get -1.

    Scale shape — three composed disciplines, no new machinery:

    1. ONE stateless map computes every per-doc signal in a single
       tokenize pass (Gopher mask, token count, content hash60,
       contamination vs the broadcast benchmark shingle set).
    2. ONE content all-to-all: a ``stages/shuffle.co_partition`` on the
       content hash marks non-minimal docs per content hash — the text
       itself never shuffles, only the signal rows.
    3. The pack_shards two-level prefix scan over INDEX rows only
       (doc_id, n_tokens), kept docs first filtered so dropped rows
       never enter the scan.

    Output: (doc_id, n_tokens, reason_mask, keep, shard_id).
    """
    import pyarrow.compute as pc

    from ..functions.textstats import STOPWORDS
    from .dataops import _aug_docs
    from .qualityops import gopher_mask

    stop = frozenset(STOPWORDS)
    bench_ref = ray.put(_bench_shingle_set(sf_dir))

    def signals(batch: pa.Table, bench_ref=bench_ref) -> pa.Table:
        bench = fetch(bench_ref)
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        hs, ntoks, masks = [], [], []
        for t in texts:
            n_ws, gm = gopher_mask(t, stop)
            n_sh, ov = _shingle_overlap(t, bench)
            hs.append(hash60(t))
            ntoks.append(n_ws)
            masks.append(
                (1 if gm != 0 else 0)
                | (4 if _contaminated(n_sh, ov) else 0)
            )
        h_arr = np.asarray(hs, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(
                    np.asarray(ids, dtype=np.int64)
                ),
                "h": pa.array(h_arr),
                "n_tokens": pa.array(ntoks, pa.int64()),
                "pmask": pa.array(masks, pa.int64()),
            }
        )

    def mark_dups(part: pa.Table) -> pa.Table:
        ids = num_col(part, "doc_id", np.int64)
        hs = num_col(part, "h", np.int64)
        pm = num_col(part, "pmask", np.int64)
        nt = num_col(part, "n_tokens", np.int64)
        order = np.lexsort((ids, hs))  # h asc, doc_id asc within h
        ids, hs, pm, nt = ids[order], hs[order], pm[order], nt[order]
        first = np.ones(len(hs), dtype=bool)
        first[1:] = hs[1:] != hs[:-1]  # group head == min doc_id
        mask = pm | np.where(first, 0, 2)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_tokens": pa.array(nt),
                "reason_mask": pa.array(mask),
                "keep": pa.array((mask == 0).astype(np.int64)),
                "bucket": pa.array(ids // range_size),
            }
        )

    marked = co_partition(
        _aug_docs(sf_dir).map_batches(signals, batch_format="pyarrow"),
        mark_dups, key="h",
    ).materialize()  # index rows only; read twice (kept scan + dropped)

    kept_idx = marked.map_batches(
        lambda b: b.filter(pc.equal(b.column("keep"), 1)),
        batch_format="pyarrow",
    )
    off_ref, _ = _bucket_offsets(kept_idx, "n_tokens")

    def assign(group: pa.Table, off_ref=off_ref) -> pa.Table:
        offs = fetch(off_ref)
        ids = num_col(group, "doc_id", np.int64)
        tok = num_col(group, "n_tokens", np.int64)
        order = np.argsort(ids)
        ids, tok = ids[order], tok[order]
        base = int(offs[int(group.column("bucket")[0].as_py())])
        excl = base + np.concatenate([[0], np.cumsum(tok)[:-1]])
        n = len(ids)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_tokens": pa.array(tok),
                "reason_mask": pa.array(np.zeros(n, dtype=np.int64)),
                "keep": pa.array(np.ones(n, dtype=np.int64)),
                "shard_id": pa.array(excl // budget),
            }
        )

    packed = kept_idx.groupby("bucket").map_groups(
        assign, batch_format="pyarrow"
    )

    def dropped(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b.column("keep"), 0))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_tokens": t.column("n_tokens"),
                "reason_mask": t.column("reason_mask"),
                "keep": t.column("keep"),
                "shard_id": pa.array(
                    np.full(t.num_rows, -1, dtype=np.int64)
                ),
            }
        )

    return packed.union(
        marked.map_batches(dropped, batch_format="pyarrow")
    )


# ------------------------------------------------------------------ oracles
def curation_queries() -> dict:
    return {
        "decontaminate": decontaminate,
        "pack_shards": pack_shards,
        "select_budget": select_budget,
        "source_mix": source_mix,
        "quality_tiers": quality_tiers,
        "topk_per_source": topk_per_source,
        "shuffle_order": shuffle_order,
        "pack_sequences": pack_sequences,
        "pii_scrub": pii_scrub,
        "curate_corpus": curate_corpus,
    }


def curation_oracle_sql() -> dict[str, str]:
    sqls: dict[str, str] = {}

    # decontaminate: same shingle definition as the dedup oracles (distinct
    # word 3-grams; short docs -> one whole-text shingle), raw hash60 —
    # the shared shingle_hash_ctes builder (dataops_oracles).
    from .dataops_oracles import shingle_hash_ctes

    sqls["decontaminate"] = f"""WITH {shingle_hash_ctes(
        "documents", names=("toks", "sh", "shh"))},
bench AS (
  SELECT DISTINCT h FROM shh WHERE doc_id % {DECON_EVERY} = 0
)
SELECT shh.doc_id,
       CAST(count(*) AS BIGINT) AS n_shingles,
       CAST(sum(CASE WHEN bench.h IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_overlap,
       CAST(CASE WHEN 2 * sum(CASE WHEN bench.h IS NOT NULL THEN 1 ELSE 0
                              END) >= count(*)
                 THEN 1 ELSE 0 END AS BIGINT) AS contaminated
FROM shh LEFT JOIN bench ON shh.h = bench.h
GROUP BY shh.doc_id"""

    sqls["pack_shards"] = f"""WITH t AS (
  SELECT doc_id,
         len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens
  FROM documents
)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST((sum(n_tokens) OVER (ORDER BY doc_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
             - n_tokens) // {PACK_BUDGET} AS BIGINT) AS shard_id
FROM t"""

    # select_budget: text_quality's exact micro-quality expression orders
    # the window; inclusive running token sum <= budget selects.
    from ..functions.textstats import STOPWORDS

    stop_list = ", ".join(f"'{w}'" for w in STOPWORDS)
    q_mu = (
        "CAST(floor((0.5 * least(1.0, len(l) / 50.0) "
        "+ 0.3 * least(1.0, (CAST(len(list_filter(l, x -> "
        f"list_contains([{stop_list}], lower(x)))) AS DOUBLE) / len(l)) * 5.0) "
        "+ 0.2 * (1.0 - least(1.0, (CAST(len(regexp_extract_all(text, "
        "'[^\\w\\s]')) AS DOUBLE) / length(text)) * 10.0))) * 1000000 + 0.5) "
        "AS BIGINT)"
    )
    sqls["select_budget"] = f"""WITH t AS (
  SELECT doc_id, text, regexp_split_to_array(trim(text), '\\s+') AS l
  FROM documents
),
c AS (
  SELECT doc_id, CAST(len(l) AS BIGINT) AS n_tokens, {q_mu} AS q_mu
  FROM t
),
s AS (
  SELECT doc_id, n_tokens, q_mu,
         CAST(sum(n_tokens) OVER (ORDER BY q_mu DESC, doc_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
              AS BIGINT) AS cum
  FROM c
)
SELECT doc_id, n_tokens, q_mu AS quality_mu, cum AS cum_tokens,
       CAST(CASE WHEN cum <= {SELECT_BUDGET} THEN 1 ELSE 0 END AS BIGINT)
         AS selected
FROM s"""

    # source_mix: the select_budget window PARTITIONED BY source, each
    # source capped at the uniform quota budget // n_sources.
    sqls["source_mix"] = f"""WITH t AS (
  SELECT doc_id, text, source,
         regexp_split_to_array(trim(text), '\\s+') AS l
  FROM documents
),
c AS (
  SELECT doc_id, source, CAST(len(l) AS BIGINT) AS n_tokens, {q_mu} AS q_mu
  FROM t
),
k AS (SELECT count(DISTINCT source) AS ns FROM documents),
s AS (
  SELECT doc_id, source, n_tokens, q_mu,
         CAST(sum(n_tokens) OVER (PARTITION BY source
                ORDER BY q_mu DESC, doc_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
              AS BIGINT) AS cum
  FROM c
)
SELECT doc_id, source, n_tokens, q_mu AS quality_mu, cum AS cum_tokens,
       CAST(CASE WHEN cum <= {SELECT_BUDGET} // (SELECT ns FROM k)
                 THEN 1 ELSE 0 END AS BIGINT) AS selected
FROM s"""

    # quality_tiers: ROW_NUMBER + NTILE over the exact same quality window
    # as select_budget; the Ray side computes both from the distributed
    # two-level rank scan, so a bit-exact match proves the global ranking.
    sqls["quality_tiers"] = f"""WITH t AS (
  SELECT doc_id, text, regexp_split_to_array(trim(text), '\\s+') AS l
  FROM documents
),
c AS (
  SELECT doc_id, CAST(len(l) AS BIGINT) AS n_tokens, {q_mu} AS q_mu
  FROM t
)
SELECT doc_id, n_tokens, q_mu AS quality_mu,
       CAST(row_number() OVER (ORDER BY q_mu DESC, doc_id) AS BIGINT)
         AS rnk,
       CAST(ntile({TIER_K}) OVER (ORDER BY q_mu DESC, doc_id) AS BIGINT)
         AS tier
FROM c"""

    # topk_per_source: the same quality window PARTITIONED BY source,
    # row_number <= k — the partitioned-rank twin of quality_tiers.
    sqls["topk_per_source"] = f"""WITH t AS (
  SELECT doc_id, text, source,
         regexp_split_to_array(trim(text), '\\s+') AS l
  FROM documents
),
c AS (
  SELECT doc_id, source, CAST(len(l) AS BIGINT) AS n_tokens, {q_mu} AS q_mu
  FROM t
),
r AS (
  SELECT source, doc_id, q_mu, n_tokens,
         row_number() OVER (PARTITION BY source
                            ORDER BY q_mu DESC, doc_id) AS rnk
  FROM c
)
SELECT source, CAST(rnk AS BIGINT) AS rnk, doc_id, q_mu AS quality_mu,
       n_tokens
FROM r WHERE rnk <= {TOPK_SRC_K}"""

    # shuffle_order: the permutation is ROW_NUMBER over the md5-derived
    # hash — the same _H60 expression every dedup oracle embeds.
    sqls["shuffle_order"] = f"""WITH t AS (
  SELECT doc_id,
         {_H60.format(f"'{SHUFFLE_SEED}:' || CAST(doc_id AS VARCHAR)")} AS h
  FROM documents
)
SELECT doc_id,
       CAST(row_number() OVER (ORDER BY h, doc_id) AS BIGINT)
         AS shuffle_pos,
       CAST((row_number() OVER (ORDER BY h, doc_id) - 1)
            // {SHUFFLE_SEQ_DOCS} AS BIGINT) AS shard_id
FROM t"""

    # pack_sequences: pack_shards' window sum re-ordered by the shared
    # _H60 shuffle hash; exclusive prefix via "- n_tokens".
    sqls["pack_sequences"] = f"""WITH t AS (
  SELECT doc_id,
         {_H60.format(f"'{SHUFFLE_SEED}:' || CAST(doc_id AS VARCHAR)")} AS h,
         len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens
  FROM documents
),
s AS (
  SELECT doc_id, n_tokens,
         CAST(sum(n_tokens) OVER (ORDER BY h, doc_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
              - n_tokens AS BIGINT) AS prefix
  FROM t
)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(prefix // {SEQ_LEN} AS BIGINT) AS seq_id,
       CAST(prefix % {SEQ_LEN} AS BIGINT) AS seq_off
FROM s"""

    sqls["pii_scrub"] = f"""WITH aug AS (
  SELECT doc_id,
         CASE WHEN doc_id % {PII_EVERY} = 0
              THEN text || ' Contact user' || CAST(doc_id AS VARCHAR)
                   || '@example.com for details.'
              ELSE text END AS text
  FROM documents
)
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{PII_PATTERN}')) AS BIGINT)
         AS n_pii,
       {_H60.format(
           f"regexp_replace(text, '{PII_PATTERN}', '{PII_TOKEN}', 'g')"
       )} AS clean_hash
FROM aug"""

    # curate_corpus: the composed pipeline's twin reuses the member ops'
    # oracle fragments verbatim — the Gopher CTE chain (qualityops.
    # gopher_sql_body over the aug view), dedup_exact's hash-min as a
    # window, decontaminate's shingle-overlap CTEs, and pack_shards'
    # kept-token running sum.
    from .dataops import NEAR_DUP_OFFSET
    from .dataops_oracles import _AUG
    from .qualityops import gopher_sql_body

    sqls["curate_corpus"] = f"""WITH {_AUG.strip()},
{gopher_sql_body('aug')},
dmin AS (
  SELECT doc_id,
         min(doc_id) OVER (PARTITION BY {_H60.format('text')}) AS mn
  FROM aug
),
{shingle_hash_ctes("aug")},
bench AS (
  SELECT DISTINCT h FROM shh2
  WHERE doc_id % {DECON_EVERY} = 0 AND doc_id < {NEAR_DUP_OFFSET}
),
ov AS (
  SELECT shh2.doc_id, CAST(count(*) AS BIGINT) AS n_sh,
         CAST(sum(CASE WHEN bench.h IS NOT NULL THEN 1 ELSE 0 END)
              AS BIGINT) AS n_ov
  FROM shh2 LEFT JOIN bench ON shh2.h = bench.h
  GROUP BY shh2.doc_id
),
r AS (
  SELECT m.doc_id, m.n_ws AS n_tokens,
         (CASE WHEN m.mask <> 0 THEN 1 ELSE 0 END)
       + (CASE WHEN d.doc_id <> d.mn THEN 2 ELSE 0 END)
       + (CASE WHEN 2 * ov.n_ov >= ov.n_sh THEN 4 ELSE 0 END)
           AS reason_mask
  FROM m JOIN dmin d ON d.doc_id = m.doc_id
         JOIN ov ON ov.doc_id = m.doc_id
),
k AS (
  SELECT doc_id, n_tokens, reason_mask,
         CASE WHEN reason_mask = 0 THEN 1 ELSE 0 END AS keep
  FROM r
),
s AS (
  SELECT *, sum(CASE WHEN keep = 1 THEN n_tokens ELSE 0 END)
              OVER (ORDER BY doc_id
                    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
              AS cum
  FROM k
)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(reason_mask AS BIGINT) AS reason_mask,
       CAST(keep AS BIGINT) AS keep,
       CAST(CASE WHEN keep = 1 THEN (cum - n_tokens) // {PACK_BUDGET}
                 ELSE -1 END AS BIGINT) AS shard_id
FROM s"""

    return sqls
