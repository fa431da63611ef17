"""Corpus-quality operators over the ``documents`` table: the Gopher
rule-composite filter, TF-IDF distinctive terms, CCNet-style cross-doc
chunk dedup, and a mergeable HyperLogLog distinct sketch.

The reference harness scores extraction quality, not corpus quality
(its corpora are pre-cleaned); these extend the training-data operator
family of ``pipelines/dataops.py`` / ``pipelines/curation.py`` and
follow the identical oracle conventions (hash60 twins, integer-exact
thresholds — see dataops_oracles.py module docstring).

Scale notes per operator:

- ``gopher_filter``: stateless per-batch map, zero shuffle.  Every rule
  threshold is an INTEGER comparison (``10 * n_punct <= n_chars`` form),
  so the SQL twin matches bit for bit with no float-ratio parity risk.
- ``tfidf_topterms``: per-doc term frequencies are the map-side combiner
  (a per-doc Counter — no occurrence rows ever shuffle); document
  frequency is a bucketed vectorized Sum over the distinct (doc, term)
  rows; the df table joins back by term (both sides stream; no process
  holds the vocabulary), and the per-doc top-k runs inside a doc_id
  co-partition.  Three all-to-alls, each over reduced rows.
- ``line_dedup``: the CCNet/RefinedWeb paragraph-hash shape (Wenzek et
  al. 2020 dedup paragraphs by hash across shards) at non-overlapping
  ``LINE_W``-token chunks, on the augmented corpus view.  Dual path on
  the DUP-SET size (the ``dup_span_scrub`` discipline): broadcast the
  duplicated-hash set when small; else explode chunk occurrences, join
  on the hash, and co-locate marks with their doc by ONE doc_id
  co-partition so the corpus text crosses the wire exactly once.
- ``distinct_sketch``: HyperLogLog registers over corpus shingle
  hashes (Flajolet et al. 2007).  Each batch emits at most ``2**HLL_P``
  partial-register rows (the mergeable-sketch property: max commutes),
  so the reduce input is tiny regardless of corpus size.  The output is
  the REGISTER TABLE (integer-exact, order-free); the float estimate
  ``alpha_m * m^2 / sum(2^-rho)`` is one driver-side fold away and is
  deliberately not a column (transcendental parity risk for zero
  analytical value).
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.arrownp import num_col
from ..functions.hashing import hash60, shingles
from ..functions.text import round6, tokenize_ws
from ..functions.textstats import STOPWORDS, _PUNCT_RE
from ..stages.shuffle import co_partition, partition_count
from ..stages.vecagg import bucketed_groupby
from ..state.memo import fetch
from .dataops import (
    UNIGRAM_BROADCAST_MAX_TYPES,
    _aug_docs,
    _docs,
    _join_parts,
    _with_schema,
)

# ------------------------------------------------------------- constants
# Gopher rule thresholds (Rae et al. 2021 §A1.1, adapted to the corpus's
# whitespace tokens).  All comparisons run in integers.
GOPHER_MIN_WORDS = 10
GOPHER_MAX_WORDS = 100_000
GOPHER_MIN_MWL = 3  # mean word length lower bound
GOPHER_MAX_MWL = 10  # mean word length upper bound
GOPHER_MIN_STOP = 2  # distinct-occurrence stopword floor
# symbol ratio <= 0.10  <=>  10 * n_punct <= n_chars
# dup-2gram ratio <= 0.30  <=>  10 * (n - nd) <= 3 * n
# top-2gram frac <= 0.20  <=>  5 * mx <= n

TFIDF_TOPK = 5  # distinctive terms kept per document

LINE_W = 10  # tokens per non-overlapping chunk ("paragraph")
LINE_MIN_DF = 2  # distinct docs sharing a chunk for it to count as dup

HLL_P = 8  # 2**HLL_P registers; rho over the remaining 60-P hash bits
HLL_M = 1 << HLL_P
_HLL_REM_BITS = 60 - HLL_P  # hash60 yields 60-bit values


# ------------------------------------------------------------ gopher_filter
def gopher_mask(t: str, stop: frozenset) -> tuple[int, int]:
    """(n_words, fail_mask) of one document under the six Gopher rules."""
    toks = tokenize_ws(t)
    n_ws = len(toks)
    sum_len = sum(len(w) for w in toks)
    n_chars = len(t)
    n_punct = len(_PUNCT_RE.findall(t))
    n_stop = sum(1 for w in toks if w.lower() in stop)
    grams = Counter(
        toks[j] + " " + toks[j + 1] for j in range(n_ws - 1)
    )
    n_g = sum(grams.values())
    nd, mx = len(grams), (max(grams.values()) if grams else 0)
    mask = 0
    if not (GOPHER_MIN_WORDS <= n_ws <= GOPHER_MAX_WORDS):
        mask |= 1
    if n_ws > 0 and not (
        GOPHER_MIN_MWL * n_ws <= sum_len <= GOPHER_MAX_MWL * n_ws
    ):
        mask |= 2
    if n_chars > 0 and 10 * n_punct > n_chars:
        mask |= 4
    if n_stop < GOPHER_MIN_STOP:
        mask |= 8
    if n_g > 0 and 10 * (n_g - nd) > 3 * n_g:
        mask |= 16
    if n_g > 0 and 5 * mx > n_g:
        mask |= 32
    return n_ws, mask


def gopher_filter(sf_dir: str):
    """Gopher-style composite quality gate.  Output per doc:
    ``(doc_id, n_words, fail_mask, keep)`` with one mask bit per rule —

      bit 1  word count outside [GOPHER_MIN_WORDS, GOPHER_MAX_WORDS]
      bit 2  mean word length outside [GOPHER_MIN_MWL, GOPHER_MAX_MWL]
      bit 4  punctuation chars > 10% of chars
      bit 8  fewer than GOPHER_MIN_STOP stopword occurrences
      bit 16 duplicate word-2gram ratio > 30%
      bit 32 most frequent word-2gram > 20% of 2-grams

    ``keep = 1`` iff no rule fails.  Stateless, shuffle-free."""
    stop = frozenset(STOPWORDS)

    def rules(batch: pa.Table) -> pa.Table:
        ids_out, n_out, m_out, k_out = [], [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            n_ws, mask = gopher_mask(t, stop)
            ids_out.append(int(i))
            n_out.append(n_ws)
            m_out.append(mask)
            k_out.append(1 if mask == 0 else 0)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "n_words": pa.array(n_out, pa.int64()),
                "fail_mask": pa.array(m_out, pa.int64()),
                "keep": pa.array(k_out, pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(rules, batch_format="pyarrow")


# ---------------------------------------------------------- tfidf_topterms
def tfidf_topterms(sf_dir: str, k: int = TFIDF_TOPK,
                   broadcast_max_types: int | None = None):
    """Top-``k`` distinctive terms per document, ranked by
    ``(tf DESC, df ASC, term ASC)`` — the integer-exact TF-IDF ordering
    (for fixed corpus size N, ``tf * log(N/df)`` sorts by tf then -df;
    ranking on the raw integers sidesteps transcendental parity).
    Output: ``(doc_id, term, tf, df, rnk)``.

    Shape (the unigram_logprob dual-path discipline): per-doc Counter
    explode (map-side combiner; occurrence rows never shuffle) ->
    bucketed vectorized df Sum, then one of two identical-output paths
    by vocabulary size:

    - ``<= broadcast_max_types``: the df dict is broadcast via
      ``ray.put`` and each doc's top-k is ranked INLINE in one
      stateless pass (a doc's terms are already co-located in its own
      text) — no join, no per-doc shuffle (measured 6.0 -> ~1 s at
      sf0.1/32cpu vs the join form).
    - larger: hash join tf rows against the df table on term, then
      per-doc top-k inside a doc_id co-partition; no process ever holds
      the vocabulary."""
    if broadcast_max_types is None:
        broadcast_max_types = UNIGRAM_BROADCAST_MAX_TYPES

    def explode(batch: pa.Table) -> pa.Table:
        ids_out, tok_out, tf_out = [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            c = Counter(tokenize_ws(t))
            ids_out.extend([int(i)] * len(c))
            tok_out.extend(c.keys())
            tf_out.extend(c.values())
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "term": pa.array(tok_out, pa.string()),
                "tf": pa.array(tf_out, pa.int64()),
            }
        )

    def tf_rows():
        return _docs(sf_dir).map_batches(explode, batch_format="pyarrow")

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "term": batch.column("term"),
                "one": pa.array([1] * batch.num_rows, pa.int64()),
            }
        )

    # df = number of docs containing the term = count of distinct
    # (doc, term) rows, which the tf explode already is
    df = bucketed_groupby(
        tf_rows().map_batches(ones, batch_format="pyarrow"),
        "term", ["one"], ["sum"], out_names=["df"],
    ).materialize()
    n_types = df.count()

    def topk_rows(ids, terms_l, tfs, dfs, rnks) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "term": pa.array(terms_l, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
                "df": pa.array(dfs, pa.int64()),
                "rnk": pa.array(rnks, pa.int64()),
            }
        )

    if n_types <= broadcast_max_types:
        dmap = {r["term"]: int(r["df"]) for r in df.take_all()}
        ref = ray.put(dmap)

        def score(batch: pa.Table) -> pa.Table:
            dm = fetch(ref)
            ids, terms_l, tfs, dfs, rnks = [], [], [], [], []
            for i, t in zip(
                batch.column("doc_id").to_pylist(),
                batch.column("text").to_pylist(),
            ):
                c = Counter(tokenize_ws(t))
                ranked = sorted(
                    c.items(), key=lambda kv: (-kv[1], dm[kv[0]], kv[0])
                )[:k]
                for r, (term, tf) in enumerate(ranked, 1):
                    ids.append(int(i))
                    terms_l.append(term)
                    tfs.append(tf)
                    dfs.append(dm[term])
                    rnks.append(r)
            return topk_rows(ids, terms_l, tfs, dfs, rnks)

        return _docs(sf_dir).map_batches(score, batch_format="pyarrow")

    joined = tf_rows().join(
        df.map_batches(
            _with_schema(
                pa.schema([("term", pa.string()), ("df", pa.int64())])
            ),
            batch_format="pyarrow",
        ),
        join_type="inner",
        num_partitions=_join_parts(n_types),
        on=("term",),
    )

    def topk(group: pa.Table) -> pa.Table:
        import pandas as pd

        g = pd.DataFrame(
            {
                "doc_id": num_col(group, "doc_id", np.int64),
                "term": group.column("term").to_pylist(),
                "tf": num_col(group, "tf", np.int64),
                "df": num_col(group, "df", np.int64),
            }
        )
        g = g.sort_values(
            ["doc_id", "tf", "df", "term"],
            ascending=[True, False, True, True],
            kind="mergesort",
        )
        g["rnk"] = g.groupby("doc_id").cumcount() + 1
        g = g[g["rnk"] <= k]
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].tolist(), pa.int64()),
                "term": pa.array(g["term"].tolist(), pa.string()),
                "tf": pa.array(g["tf"].tolist(), pa.int64()),
                "df": pa.array(g["df"].tolist(), pa.int64()),
                "rnk": pa.array(g["rnk"].tolist(), pa.int64()),
            }
        )

    return co_partition(joined, topk, key="doc_id")


# -------------------------------------------------------------- line_dedup
def _chunks_of(toks: list) -> list:
    return [
        " ".join(toks[s : s + LINE_W])
        for s in range(0, len(toks), LINE_W)
    ]


def line_dedup(sf_dir: str, broadcast_max_types: int | None = None):
    """CCNet-style cross-doc duplicated-chunk removal over the augmented
    corpus view: each doc splits into non-overlapping ``LINE_W``-token
    chunks (the newline-free corpus's "paragraphs"); a chunk occurring
    in >= ``LINE_MIN_DF`` DISTINCT docs is dropped.  Output per doc:
    ``(doc_id, n_chunks, n_dup, clean_hash)`` with ``clean_hash =
    hash60(' '.join(kept chunks in order))``.

    Distinct from ``dup_span_scrub`` (stride-1 windows, token-position
    coverage): this is the paragraph-granular CCNet shape — cheaper by
    ``LINE_W``x in window volume, coarser in what it removes.

    Dual path on the DUP-SET size (the dup_span_scrub discipline):
    broadcast the duplicated-hash set when small, else explode chunk
    occurrences, join on hash, and co-locate marks with their doc text
    via one doc_id co-partition (text crosses the wire exactly once)."""
    if broadcast_max_types is None:
        broadcast_max_types = UNIGRAM_BROADCAST_MAX_TYPES

    def count_rows(batch: pa.Table) -> pa.Table:
        c = Counter()
        for t in batch.column("text").to_pylist():
            # distinct per doc: df counts DOCS, not occurrences
            c.update(set(hash60(ch) for ch in _chunks_of(tokenize_ws(t))))
        return pa.table(
            {
                "h": pa.array(list(c.keys()), pa.int64()),
                "d": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts = bucketed_groupby(
        _aug_docs(sf_dir).map_batches(count_rows, batch_format="pyarrow"),
        "h", ["d"], ["sum"], out_names=["df"],
    ).materialize()

    dup_only = counts.map_batches(
        lambda b: b.filter(
            pc.greater_equal(
                pc.cast(b.column("df"), pa.int64()), LINE_MIN_DF
            )
        ).select(["h"]),
        batch_format="pyarrow",
    )

    def finish_rows(ids, n_c, n_d, ch) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chunks": pa.array(n_c, pa.int64()),
                "n_dup": pa.array(n_d, pa.int64()),
                "clean_hash": pa.array(ch, pa.int64()),
            }
        )

    def _rewrite_one(chunks: list, dup_idx) -> tuple[int, int]:
        kept = [c for j, c in enumerate(chunks) if j not in dup_idx]
        return len(chunks) - len(kept), hash60(" ".join(kept))

    n_dup = dup_only.count()
    if n_dup <= broadcast_max_types:
        dup_set = frozenset(r["h"] for r in dup_only.take_all())
        ref = ray.put(dup_set)

        def scrub(batch: pa.Table) -> pa.Table:
            dset = fetch(ref)
            ids, n_c, n_d, ch = [], [], [], []
            for i, t in zip(
                batch.column("doc_id").to_pylist(),
                batch.column("text").to_pylist(),
            ):
                chunks = _chunks_of(tokenize_ws(t))
                dup_idx = {
                    j for j, c in enumerate(chunks) if hash60(c) in dset
                }
                nd, h = _rewrite_one(chunks, dup_idx)
                ids.append(int(i))
                n_c.append(len(chunks))
                n_d.append(nd)
                ch.append(h)
            return finish_rows(ids, n_c, n_d, ch)

        return _aug_docs(sf_dir).map_batches(scrub, batch_format="pyarrow")

    # ---- scale path: explode chunk occurrences, join, co-locate marks
    # with the doc text by one co-partition on doc_id (dup_span_scrub
    # shape)
    import os

    def explode_idx(batch: pa.Table) -> pa.Table:
        ids_out, j_out, h_out = [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            for j, c in enumerate(_chunks_of(tokenize_ws(t))):
                ids_out.append(int(i))
                j_out.append(j)
                h_out.append(hash60(c))
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "j": pa.array(j_out, pa.int64()),
                "h": pa.array(h_out, pa.int64()),
            }
        )

    dup_marks = (
        _aug_docs(sf_dir)
        .map_batches(explode_idx, batch_format="pyarrow")
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
            lambda b: b.select(["doc_id", "j"]).append_column(
                "text", pa.array([""] * b.num_rows, pa.string())
            ),
            batch_format="pyarrow",
        )
    )
    doc_rows = _aug_docs(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "j": pa.array([-1] * b.num_rows, pa.int64()),
                "text": pc.cast(b.column("text"), pa.string()),
            }
        ),
        batch_format="pyarrow",
    )

    try:
        input_bytes = 2 * os.path.getsize(
            os.path.join(sf_dir, "documents.parquet")
        )
    except OSError:
        input_bytes = None

    def rewrite(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return finish_rows([], [], [], [])
        g = part.sort_by([("doc_id", "ascending"), ("j", "ascending")])
        ids = num_col(g, "doc_id", np.int64)
        js = num_col(g, "j", np.int64)
        texts = g.column("text").to_pylist()
        out_i, out_c, out_d, out_h = [], [], [], []
        lo = 0
        for hi in np.flatnonzero(np.diff(ids)).tolist() + [len(ids) - 1]:
            hi += 1
            assert js[lo] == -1, "doc text row missing from its partition"
            chunks = _chunks_of(tokenize_ws(texts[lo]))
            nd, h = _rewrite_one(chunks, set(js[lo + 1 : hi].tolist()))
            out_i.append(int(ids[lo]))
            out_c.append(len(chunks))
            out_d.append(nd)
            out_h.append(h)
            lo = hi
        return finish_rows(out_i, out_c, out_d, out_h)

    return co_partition(
        dup_marks.union(doc_rows), rewrite, key="doc_id",
        partitions=partition_count(input_bytes),
    )


# ---------------------------------------------------------- distinct_sketch
def distinct_sketch(sf_dir: str):
    """HyperLogLog register table over corpus shingle hashes.  Output:
    ``(register, max_rho)`` — one row per non-empty register, where
    ``register`` is the top ``HLL_P`` bits of ``hash60(shingle)`` and
    ``rho`` is 1 + leading-zero count of the remaining ``60 - HLL_P``
    bits (all-zero remainder caps at ``60 - HLL_P + 1``).

    Each batch pre-folds its shingles into at most ``HLL_M`` partial
    rows (max is commutative/idempotent — the mergeable-sketch
    property), so the global reduce sees only tiny partials regardless
    of corpus size: the canonical sketch shape for streaming distinct
    counts.  The estimate ``alpha_m * m^2 / sum(2^-max_rho)`` (plus the
    small-range linear count) folds from this table driver-side."""
    rem_mask = (1 << _HLL_REM_BITS) - 1

    def partial(batch: pa.Table) -> pa.Table:
        regs = np.zeros(HLL_M, dtype=np.int64)
        for t in batch.column("text").to_pylist():
            for s in shingles(t):
                h = hash60(s)
                rem = h & rem_mask
                rho = (
                    _HLL_REM_BITS + 1
                    if rem == 0
                    else _HLL_REM_BITS - rem.bit_length() + 1
                )
                r = h >> _HLL_REM_BITS
                if rho > regs[r]:
                    regs[r] = rho
        nz = np.flatnonzero(regs)
        return pa.table(
            {
                "register": pa.array(nz, pa.int64()),
                "max_rho": pa.array(regs[nz], pa.int64()),
            }
        )

    partials = _docs(sf_dir).map_batches(partial, batch_format="pyarrow")
    return bucketed_groupby(
        partials, "register", ["max_rho"], ["max"]
    )


# --------------------------------------------------------------- bm25_score
# Fixed retrieval query (tiny constant side; a production pipeline
# parameterizes this).  BM25-lite: k1 = 1, b = 0.5 make every term
# contribution an exact integer rational —
#   idf * 2*tf / (tf + 0.5 + 0.5*dl/avgdl)
#   = idf * 4*tf*total / (2*tf*total + total + dl*n_docs)
# with idf = bit_length(n_docs // df), avgdl = total / n_docs.
BM25_TERMS = ("table", "join", "query", "window")


def bm25_score(sf_dir: str):
    """Integer-exact BM25-lite relevance of every doc to ``BM25_TERMS``
    (Robertson & Walker 1994 weighting at k1=1, b=0.5).  Output:
    ``(doc_id, dl, score_mu)`` with ``score_mu`` the micro-unit sum of
    floored per-term contributions (pure int64 — no transcendental and
    no float division anywhere).

    Shape: ZERO shuffles.  Pass 1 folds each batch to one partial-stats
    row (n_docs, total tokens, df per query term — the constant side is
    k+2 integers regardless of corpus size), summed on the driver; pass
    2 scores statelessly with those constants.  int64 headroom: the
    widest product is idf(<=60) * 4 * tf * total * 1e6 — renormalize
    the 1e6 scale if total tokens ever exceeds ~1e9 (documented bound,
    enforced by assertion)."""
    terms = BM25_TERMS

    def partial(batch: pa.Table) -> pa.Table:
        n_docs, total = 0, 0
        dfs = [0] * len(terms)
        for t in batch.column("text").to_pylist():
            toks = tokenize_ws(t)
            n_docs += 1
            total += len(toks)
            seen = set(toks)
            for k, term in enumerate(terms):
                if term in seen:
                    dfs[k] += 1
        cols = {
            "n_docs": pa.array([n_docs], pa.int64()),
            "total": pa.array([total], pa.int64()),
        }
        for k in range(len(terms)):
            cols[f"df{k}"] = pa.array([dfs[k]], pa.int64())
        return pa.table(cols)

    stats = {"n_docs": 0, "total": 0}
    dfs = [0] * len(terms)
    for b in (
        _docs(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        stats["n_docs"] += sum(b.column("n_docs").to_pylist())
        stats["total"] += sum(b.column("total").to_pylist())
        for k in range(len(terms)):
            dfs[k] += sum(b.column(f"df{k}").to_pylist())
    n_docs, total = stats["n_docs"], stats["total"]
    assert total < 10**9, "renormalize the micro-unit scale first"
    idf = [
        (n_docs // df).bit_length() if df > 0 else 0 for df in dfs
    ]

    def score(batch: pa.Table) -> pa.Table:
        ids_out, dl_out, s_out = [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            toks = tokenize_ws(t)
            dl = len(toks)
            c = Counter(toks)
            s = 0
            for k, term in enumerate(terms):
                tf = c.get(term, 0)
                if tf and idf[k]:
                    s += (idf[k] * 4 * tf * total * 1_000_000) // (
                        2 * tf * total + total + dl * n_docs
                    )
            ids_out.append(int(i))
            dl_out.append(dl)
            s_out.append(s)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "dl": pa.array(dl_out, pa.int64()),
                "score_mu": pa.array(s_out, pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(score, batch_format="pyarrow")


# -------------------------------------------------------------- cooccur_topk
COOCCUR_C = 3  # max token distance for a co-occurrence
COOCCUR_K = 20  # global top-k pairs kept


def cooccur_topk(sf_dir: str):
    """Global top-``COOCCUR_K`` co-occurring word pairs: unordered
    (a < b, a != b) pairs of tokens at distance <= ``COOCCUR_C``,
    counted per position pair corpus-wide, ranked by
    ``(n DESC, a ASC, b ASC)`` — the co-occurrence-matrix head every
    embedding-era pipeline builds (word2vec/GloVe preprocessing).
    Output: ``(a, b, n)``.

    Shape (the vocab_topk discipline): per-batch Counter combiner (one
    row per distinct pair per block, never per occurrence) -> bucketed
    vectorized Sum -> per-block partial top-k (each totals block emits
    <= K rows) -> one tiny global sort.  The fused "a b" pair key is
    order-isomorphic to the (a, b) tuple (tokens are whitespace-free,
    and ' ' sorts below every token character), so the string sort IS
    the tuple sort."""

    def partial_pairs(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = tokenize_ws(t)
            for d in range(1, COOCCUR_C + 1):
                for x, y in zip(toks, toks[d:]):
                    if x == y:
                        continue
                    c[x + " " + y if x < y else y + " " + x] += 1
        return pa.table(
            {
                "pair": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    def block_topk(batch: pa.Table) -> pa.Table:
        pairs = batch.column("pair").to_pylist()
        n = num_col(batch, "n", np.int64)
        if len(pairs) > COOCCUR_K:
            keep = np.lexsort((np.asarray(pairs, dtype=object), -n))[
                :COOCCUR_K
            ]
            pairs = [pairs[i] for i in keep]
            n = n[keep]
        return pa.table(
            {
                "pair": pa.array(pairs, pa.string()),
                "n": pa.array(n, pa.int64()),
            }
        )

    totals = bucketed_groupby(
        _docs(sf_dir).map_batches(partial_pairs, batch_format="pyarrow"),
        "pair", ["n"], ["sum"],
    ).map_batches(block_topk, batch_format="pyarrow")
    top = (
        totals.sort(["n", "pair"], descending=[True, False])
        .limit(COOCCUR_K)
    )

    def split(batch: pa.Table) -> pa.Table:
        a_out, b_out = [], []
        for p in batch.column("pair").to_pylist():
            a, b = p.split(" ", 1)
            a_out.append(a)
            b_out.append(b)
        return pa.table(
            {
                "a": pa.array(a_out, pa.string()),
                "b": pa.array(b_out, pa.string()),
                "n": pc.cast(batch.column("n"), pa.int64()),
            }
        )

    return top.map_batches(split, batch_format="pyarrow")


# -------------------------------------------------------- distinct_by_source
def distinct_by_source(sf_dir: str):
    """Per-source HyperLogLog register table (the GROUPED form of
    ``distinct_sketch`` — one mergeable sketch per group, the shape a
    per-domain/per-shard distinct-count report needs).  Output:
    ``(source, register, max_rho)``.

    Each batch pre-folds to at most ``n_sources * HLL_M`` partial rows;
    the reduce is a bucketed vectorized Max over the fused
    ``source:register`` key (':' cannot appear in a register int, so
    the fused key is collision-free)."""
    import os

    from ..sources.storage import read_table

    rem_mask = (1 << _HLL_REM_BITS) - 1
    docs = read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "text"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        regs: dict[str, np.ndarray] = {}
        for src, t in zip(
            batch.column("source").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            r = regs.get(src)
            if r is None:
                r = regs[src] = np.zeros(HLL_M, dtype=np.int64)
            for s in shingles(t):
                h = hash60(s)
                rem = h & rem_mask
                rho = (
                    _HLL_REM_BITS + 1
                    if rem == 0
                    else _HLL_REM_BITS - rem.bit_length() + 1
                )
                i = h >> _HLL_REM_BITS
                if rho > r[i]:
                    r[i] = rho
        keys, rhos = [], []
        for src, r in regs.items():
            nz = np.flatnonzero(r)
            keys.extend(f"{src}:{i}" for i in nz)
            rhos.extend(r[nz].tolist())
        return pa.table(
            {
                "key": pa.array(keys, pa.string()),
                "max_rho": pa.array(rhos, pa.int64()),
            }
        )

    agg = bucketed_groupby(
        docs.map_batches(partial, batch_format="pyarrow"),
        "key", ["max_rho"], ["max"],
    )

    def split(batch: pa.Table) -> pa.Table:
        srcs, regs_out = [], []
        for k in batch.column("key").to_pylist():
            src, reg = k.rsplit(":", 1)
            srcs.append(src)
            regs_out.append(int(reg))
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "register": pa.array(regs_out, pa.int64()),
                "max_rho": pc.cast(batch.column("max_rho"), pa.int64()),
            }
        )

    return agg.map_batches(split, batch_format="pyarrow")


# --------------------------------------------------------- length_quantiles
LENGTH_PCTS = (50, 90, 99)  # data-card percentiles


def length_quantiles(sf_dir: str, pcts=LENGTH_PCTS):
    """Per-source exact token-length percentiles — the per-domain length
    distribution row of a dataset card.  Selection semantics are pure
    integers (0-based index ``(pct * (n-1)) // 100`` into the ascending
    length multiset), so there is no interpolation float to disagree on.

    Shape: only 16-byte (source, n_tokens) index rows leave the scan;
    the per-source selection runs on index rows (a group is
    ``n_docs(source)`` ints — for a group too big for one worker, the
    ``stages/quantiles.py`` two-pass range-count selection is the
    drop-in, as ``complexity_quantiles`` already demonstrates globally).
    Output: (source, pct, n_tokens_q).
    """
    import os

    from ..sources.storage import read_table as _rt

    ds = _rt(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "text"],
    )

    def index(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "source": pc.cast(batch.column("source"), pa.string()),
                "n_tokens": pa.array(
                    [
                        len(tokenize_ws(t))
                        for t in batch.column("text").to_pylist()
                    ],
                    pa.int64(),
                ),
            }
        )

    def select(group: pa.Table, pcts=tuple(pcts)) -> pa.Table:
        src = group.column("source")[0].as_py()
        tok = np.sort(num_col(group, "n_tokens", np.int64))
        n = len(tok)
        out_p, out_v = [], []
        for p in pcts:
            out_p.append(int(p))
            out_v.append(int(tok[(p * (n - 1)) // 100]))
        return pa.table(
            {
                "source": pa.array([src] * len(out_p), pa.string()),
                "pct": pa.array(out_p, pa.int64()),
                "n_tokens_q": pa.array(out_v, pa.int64()),
            }
        )

    return (
        ds.map_batches(index, batch_format="pyarrow")
        .groupby("source")
        .map_groups(select, batch_format="pyarrow")
    )


# -------------------------------------------------------- score_correlation
def score_correlation(sf_dir: str):
    """Per-source Pearson correlation between the quality score and doc
    length — the 'is our quality score just measuring length?' sanity row
    of a dataset card.  Sufficient statistics (n, Σq, Σl, Σq², Σl², Σql
    over q = integer micro-quality, l = token count) are EXACT integer
    sums (map-side partials per source, Python-int fold on the ≤
    n_sources×blocks tiny reduce — int64 per batch, arbitrary precision
    across batches, so no overflow at any corpus size); the final

        corr6 = floor(1e6·(nΣql−ΣqΣl) /
                      (sqrt(nΣq²−Σq²)·sqrt(nΣl²−Σl²)) + 0.5)

    is deterministic cross-engine because every float op consumes the
    same exact integers and IEEE sqrt/division are correctly rounded —
    the SQL twin spells the identical expression tree.  Zero variance on
    either side -> corr6 = 0.  Output: (source, n, corr6).
    """
    import math
    import os

    from ..functions.textstats import quality_features
    from ..sources.storage import read_table as _rt

    ds = _rt(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "text"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        acc: dict[str, list] = {}
        for s, t in zip(
            batch.column("source").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            qf = quality_features(t)
            q = int(round(qf["quality"] * 1e6))
            l = qf["n_ws"]
            a = acc.setdefault(s, [0, 0, 0, 0, 0, 0])
            a[0] += 1
            a[1] += q
            a[2] += l
            a[3] += q * q
            a[4] += l * l
            a[5] += q * l
        srcs = sorted(acc)
        cols = list(zip(*(acc[s] for s in srcs))) if srcs else [[]] * 6
        names = ["n", "sq", "sl", "sqq", "sll", "sql"]
        table = {"source": pa.array(srcs, pa.string())}
        for name, col in zip(names, cols):
            table[name] = pa.array(list(col), pa.int64())
        return pa.table(table)

    parts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # <= n_sources x blocks rows (tiny by construction)
        .groupby("source")
        .sum()
    )
    out_s, out_n, out_c = [], [], []
    for src, row in parts.sort_index().iterrows():
        n, sq, sl, sqq, sll, sql = (int(row[c]) for c in
                                    ("n", "sq", "sl", "sqq", "sll", "sql"))
        num = n * sql - sq * sl
        va = n * sqq - sq * sq
        vb = n * sll - sl * sl
        if va > 0 and vb > 0:
            corr6 = int(math.floor(
                1e6 * (float(num) / (math.sqrt(float(va))
                                     * math.sqrt(float(vb)))) + 0.5
            ))
        else:
            corr6 = 0
        out_s.append(src)
        out_n.append(n)
        out_c.append(corr6)
    return pa.table(
        {
            "source": pa.array(out_s, pa.string()),
            "n": pa.array(out_n, pa.int64()),
            "corr6": pa.array(out_c, pa.int64()),
        }
    )


# ---------------------------------------------------------- source_overlap
SRC_SKETCH_K = 128  # bottom-k sketch size per source


def source_overlap(sf_dir: str, k: int = SRC_SKETCH_K):
    """Pairwise CONTENT OVERLAP between sources via bottom-k sketches
    (Broder 1997 min-wise estimation; Cohen & Kaplan 2007 bottom-k) —
    the data-card 'how much do my crawl snapshots/mirrors share?' row,
    estimating shingle-set Jaccard for every source pair without ever
    comparing documents.

    Scale shape: bottom-k is a MERGEABLE sketch
    (bottomk(A∪B) = bottomk(bottomk(A) ∪ bottomk(B))), so the per-batch
    combiner losslessly collapses each block to <= k rows per source; the
    merge groups on the SOURCE key — cardinality = number of corpora
    mixed, inherently tiny, the one place per-key map_groups dispatch is
    fine (stages/dedup.py:21 discipline is about HIGH-cardinality keys);
    the pairwise fold touches n_sources x k ints on the driver
    (kmeans-centroid-scale state, disclosed).  Shingles/hash60 match the
    dedup family exactly, so the estimate is comparable across operators
    and the SQL twin is bit-identical: est = |bottomk(A∪B) ∩ botk(A) ∩
    botk(B)| / |bottomk(A∪B)|, all-integer until one rounded division.
    A source whose documents yield no shingles at all (every doc empty)
    participates in neither engine — the pair universe is sources with
    >= 1 shingle, and the SQL twin mirrors that by keying off the
    shingle-hash CTE.  Output: (source_a, source_b, k_union, n_inter,
    jaccard_est).
    """
    import os

    from ..sources.storage import read_table as _rt

    ds = _rt(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "text"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        per: dict[str, set] = {}
        for src, text in zip(
            batch.column("source").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            per.setdefault(src, set()).update(
                hash60(s) for s in shingles(text)
            )
        srcs: list[str] = []
        hs: list[np.ndarray] = []
        for src in sorted(per):
            arr = np.fromiter(per[src], dtype=np.int64, count=len(per[src]))
            if arr.size > k:
                arr = np.partition(arr, k - 1)[:k]
            srcs.extend([src] * arr.size)
            hs.append(arr)
        flat = (
            np.concatenate(hs) if hs else np.empty(0, dtype=np.int64)
        )
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "h": pa.array(flat, pa.int64()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        src = group.column("source")[0].as_py()
        arr = np.unique(num_col(group, "h", np.int64))[:k]  # np.unique sorts ascending -> first k ARE the bottom-k
        return pa.table(
            {
                "source": pa.array([src] * arr.size, pa.string()),
                "h": pa.array(arr, pa.int64()),
            }
        )

    sk_rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .map_groups(merge, batch_format="pyarrow")
    )
    lists: dict[str, list] = {}
    for b in sk_rows.iter_batches(batch_format="pyarrow"):
        for src, h in zip(
            b.column("source").to_pylist(), b.column("h").to_pylist()
        ):
            lists.setdefault(src, []).append(h)
    sketches = {
        s: np.sort(np.asarray(v, dtype=np.int64))
        for s, v in lists.items()
    }
    srcs = sorted(sketches)
    sa, sb, ku, ni, je = [], [], [], [], []
    for i in range(len(srcs)):
        for j in range(i + 1, len(srcs)):
            a, b = sketches[srcs[i]], sketches[srcs[j]]
            union = np.union1d(a, b)[:k]
            k_u = int(union.size)
            inter = int(
                (np.isin(union, a) & np.isin(union, b)).sum()
            )
            sa.append(srcs[i])
            sb.append(srcs[j])
            ku.append(k_u)
            ni.append(inter)
            je.append(round6(inter / k_u))  # k_u >= 1: sketches non-empty
    return pa.table(
        {
            "source_a": pa.array(sa, pa.string()),
            "source_b": pa.array(sb, pa.string()),
            "k_union": pa.array(ku, pa.int64()),
            "n_inter": pa.array(ni, pa.int64()),
            "jaccard_est": pa.array(je, pa.float64()),
        }
    )


# ------------------------------------------------------------------ oracles
def qualityops_queries() -> dict:
    return {
        "gopher_filter": gopher_filter,
        "tfidf_topterms": tfidf_topterms,
        "line_dedup": line_dedup,
        "distinct_sketch": distinct_sketch,
        "bm25_score": bm25_score,
        "cooccur_topk": cooccur_topk,
        "distinct_by_source": distinct_by_source,
        "length_quantiles": length_quantiles,
        "score_correlation": score_correlation,
        "source_overlap": source_overlap,
    }


def gopher_sql_body(table: str = "documents") -> str:
    """The Gopher rule CTE chain (t/tok/ws/ch/g2/gc/ga -> m with the
    composite fail mask) over ``table`` — shared by the gopher_filter
    oracle and the composed curate_corpus oracle (curation.py), one
    definition so the rule arithmetic cannot drift.  Empty/whitespace
    docs count 0 tokens exactly like Python tokenize_ws (the '' token
    from regexp_split_to_array('') is filtered and the ws stats rejoin
    via LEFT JOIN), so the mask agrees bit for bit even on augmented
    views that can synthesize empty near-dup copies."""
    stop_list = ", ".join(f"'{w}'" for w in STOPWORDS)
    return f"""t AS (
  SELECT doc_id, text, regexp_split_to_array(trim(text), '\\s+') AS l
  FROM {table}
),
tok AS (SELECT doc_id, u.tok FROM t, UNNEST(l) AS u(tok)
        WHERE u.tok <> ''),
ws AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_ws,
         CAST(sum(length(tok)) AS BIGINT) AS sum_len,
         CAST(sum(CASE WHEN lower(tok) IN ({stop_list}) THEN 1 ELSE 0 END)
              AS BIGINT) AS n_stop
  FROM tok GROUP BY doc_id
),
ch AS (
  SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars,
         CAST(len(regexp_extract_all(text, '[^\\w\\s]')) AS BIGINT)
           AS n_punct
  FROM t
),
g2 AS (
  SELECT doc_id, l[u.i] || ' ' || l[u.i + 1] AS gram
  FROM t, UNNEST(generate_series(1, len(l) - 1)) AS u(i)
  WHERE len(l) >= 2
),
gc AS (SELECT doc_id, gram, count(*) AS c FROM g2 GROUP BY doc_id, gram),
ga AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n,
         CAST(count(*) AS BIGINT) AS nd, CAST(max(c) AS BIGINT) AS mx
  FROM gc GROUP BY doc_id
),
ws0 AS (
  SELECT ch.doc_id, coalesce(ws.n_ws, 0) AS n_ws,
         coalesce(ws.sum_len, 0) AS sum_len,
         coalesce(ws.n_stop, 0) AS n_stop, ch.n_chars, ch.n_punct
  FROM ch LEFT JOIN ws ON ws.doc_id = ch.doc_id
),
m AS (
  SELECT ws0.doc_id, ws0.n_ws,
         (CASE WHEN ws0.n_ws BETWEEN {GOPHER_MIN_WORDS}
                               AND {GOPHER_MAX_WORDS}
               THEN 0 ELSE 1 END)
       + (CASE WHEN ws0.n_ws > 0 AND NOT
                    ({GOPHER_MIN_MWL} * ws0.n_ws <= ws0.sum_len
                     AND ws0.sum_len <= {GOPHER_MAX_MWL} * ws0.n_ws)
               THEN 2 ELSE 0 END)
       + (CASE WHEN ws0.n_chars > 0 AND 10 * ws0.n_punct > ws0.n_chars
               THEN 4 ELSE 0 END)
       + (CASE WHEN ws0.n_stop < {GOPHER_MIN_STOP} THEN 8 ELSE 0 END)
       + (CASE WHEN coalesce(ga.n, 0) > 0
                    AND 10 * (ga.n - ga.nd) > 3 * ga.n
               THEN 16 ELSE 0 END)
       + (CASE WHEN coalesce(ga.n, 0) > 0 AND 5 * ga.mx > ga.n
               THEN 32 ELSE 0 END) AS mask
  FROM ws0 LEFT JOIN ga ON ws0.doc_id = ga.doc_id
)"""


def qualityops_oracle_sql() -> dict[str, str]:
    from ..functions.hashing import SHINGLE_W
    from .dataops_oracles import _AUG, _H60

    stop_list = ", ".join(f"'{w}'" for w in STOPWORDS)
    sqls: dict[str, str] = {}

    _g_body = gopher_sql_body()
    sqls["gopher_filter"] = f"""WITH {_g_body}
SELECT doc_id, n_ws AS n_words, CAST(mask AS BIGINT) AS fail_mask,
       CAST(CASE WHEN mask = 0 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM m"""

    sqls["tfidf_topterms"] = f"""WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS l
  FROM documents
),
w AS (SELECT doc_id, u.tok FROM t, UNNEST(l) AS u(tok)),
tf AS (
  SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf
  FROM w GROUP BY doc_id, tok
),
df AS (SELECT tok, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY tok),
r AS (
  SELECT tf.doc_id, tf.tok, tf.tf, df.df,
         row_number() OVER (PARTITION BY tf.doc_id
                            ORDER BY tf.tf DESC, df.df ASC, tf.tok ASC)
           AS rnk
  FROM tf JOIN df USING (tok)
)
SELECT doc_id, tok AS term, tf, df, CAST(rnk AS BIGINT) AS rnk
FROM r WHERE rnk <= {TFIDF_TOPK}"""

    sqls["line_dedup"] = f"""WITH {_AUG},
t AS (
  SELECT doc_id, l, len(l) AS n
  FROM (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS l
        FROM aug)
),
c AS (
  SELECT doc_id, u.i - 1 AS idx,
         array_to_string(
           l[(u.i - 1) * {LINE_W} + 1 : least(u.i * {LINE_W}, n)], ' ')
           AS chunk_text
  FROM t, UNNEST(generate_series(1, (n + {LINE_W - 1}) // {LINE_W}))
          AS u(i)
),
h AS (SELECT doc_id, idx, chunk_text,
             {_H60.format('chunk_text')} AS h FROM c),
dfc AS (
  SELECT h, count(DISTINCT doc_id) AS df FROM h GROUP BY h
),
m AS (
  SELECT h.doc_id, h.idx, h.chunk_text,
         CASE WHEN dfc.df >= {LINE_MIN_DF} THEN 1 ELSE 0 END AS dup
  FROM h JOIN dfc USING (h)
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_chunks,
       CAST(sum(dup) AS BIGINT) AS n_dup,
       {_H60.format(
           "coalesce(string_agg(chunk_text, ' ' ORDER BY idx) "
           "FILTER (WHERE dup = 0), '')"
       )} AS clean_hash
FROM m GROUP BY doc_id"""

    # distinct_sketch: length(bin(x)) is the exact integer bit length
    # (the DSIR-oracle idiom), so rho needs no float log anywhere.
    sqls["distinct_sketch"] = f"""WITH toks AS (
  SELECT doc_id, l, len(l) AS nt
  FROM (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS l
        FROM documents)
),
sh AS (
  SELECT CASE WHEN nt < {SHINGLE_W} THEN array_to_string(l, ' ')
              ELSE l[i] || ' ' || l[i + 1] || ' ' || l[i + 2] END AS s
  FROM toks,
       UNNEST(generate_series(1, greatest(nt - {SHINGLE_W - 1}, 1))) AS u(i)
),
hh AS (SELECT {_H60.format('s')} AS h FROM sh),
r AS (
  SELECT h >> {_HLL_REM_BITS} AS register,
         CASE WHEN (h & ((1::BIGINT << {_HLL_REM_BITS}) - 1)) = 0
              THEN {_HLL_REM_BITS + 1}
              ELSE {_HLL_REM_BITS + 1}
                   - length(bin(h & ((1::BIGINT << {_HLL_REM_BITS}) - 1)))
              END AS rho
  FROM hh
)
SELECT CAST(register AS BIGINT) AS register,
       CAST(max(rho) AS BIGINT) AS max_rho
FROM r GROUP BY register"""

    term_list = ", ".join(f"'{t}'" for t in BM25_TERMS)
    sqls["bm25_score"] = f"""WITH t AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS l
  FROM documents
),
meta AS (
  SELECT CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(len(l)) AS BIGINT) AS total
  FROM t
),
w AS (SELECT doc_id, u.tok FROM t, UNNEST(l) AS u(tok)),
tf AS (
  SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf
  FROM w WHERE tok IN ({term_list}) GROUP BY doc_id, tok
),
df AS (SELECT tok, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY tok),
dl AS (SELECT doc_id, CAST(len(l) AS BIGINT) AS dl FROM t),
c AS (
  SELECT tf.doc_id,
         (length(bin(m.n_docs // df.df)) * 4 * tf.tf * m.total * 1000000)
         // (2 * tf.tf * m.total + m.total + dl.dl * m.n_docs) AS contrib
  FROM tf JOIN df USING (tok)
          JOIN dl ON tf.doc_id = dl.doc_id, meta m
)
SELECT dl.doc_id, dl.dl,
       CAST(coalesce(sum(c.contrib), 0) AS BIGINT) AS score_mu
FROM dl LEFT JOIN c ON dl.doc_id = c.doc_id
GROUP BY dl.doc_id, dl.dl"""

    sqls["cooccur_topk"] = f"""WITH t AS (
  SELECT regexp_split_to_array(trim(text), '\\s+') AS l FROM documents
),
p AS (
  SELECT least(l[u.i], l[u.i + d.d]) AS a,
         greatest(l[u.i], l[u.i + d.d]) AS b
  FROM t,
       UNNEST(generate_series(1, {COOCCUR_C})) AS d(d),
       UNNEST(generate_series(1, len(l))) AS u(i)
  WHERE u.i + d.d <= len(l) AND l[u.i] <> l[u.i + d.d]
)
SELECT a, b, CAST(count(*) AS BIGINT) AS n
FROM p GROUP BY a, b
ORDER BY n DESC, a, b
LIMIT {COOCCUR_K}"""

    sqls["distinct_by_source"] = f"""WITH toks AS (
  SELECT source, l, len(l) AS nt
  FROM (SELECT source, regexp_split_to_array(trim(text), '\\s+') AS l
        FROM documents)
),
sh AS (
  SELECT source,
         CASE WHEN nt < {SHINGLE_W} THEN array_to_string(l, ' ')
              ELSE l[i] || ' ' || l[i + 1] || ' ' || l[i + 2] END AS s
  FROM toks,
       UNNEST(generate_series(1, greatest(nt - {SHINGLE_W - 1}, 1))) AS u(i)
),
hh AS (SELECT source, {_H60.format('s')} AS h FROM sh),
r AS (
  SELECT source, h >> {_HLL_REM_BITS} AS register,
         CASE WHEN (h & ((1::BIGINT << {_HLL_REM_BITS}) - 1)) = 0
              THEN {_HLL_REM_BITS + 1}
              ELSE {_HLL_REM_BITS + 1}
                   - length(bin(h & ((1::BIGINT << {_HLL_REM_BITS}) - 1)))
              END AS rho
  FROM hh
)
SELECT source, CAST(register AS BIGINT) AS register,
       CAST(max(rho) AS BIGINT) AS max_rho
FROM r GROUP BY source, register"""

    # length_quantiles: integer selection — no interpolation float.
    pcts_values = ", ".join(f"({p})" for p in LENGTH_PCTS)
    sqls["length_quantiles"] = f"""WITH t AS (
  SELECT source,
         len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens
  FROM documents
),
r AS (
  SELECT source, n_tokens,
         row_number() OVER (PARTITION BY source ORDER BY n_tokens) - 1
           AS rk,
         count(*) OVER (PARTITION BY source) AS n
  FROM t
),
p AS (SELECT * FROM (VALUES {pcts_values}) AS v(pct))
SELECT r.source, CAST(p.pct AS BIGINT) AS pct,
       CAST(r.n_tokens AS BIGINT) AS n_tokens_q
FROM r, p WHERE r.rk = (p.pct * (r.n - 1)) // 100"""

    # score_correlation: exact HUGEINT sufficient statistics; the float
    # tail spells the identical expression tree as the Python side
    # (CAST each exact integer to DOUBLE, two sqrts multiplied, one
    # division, floor(x*1e6+0.5)) — IEEE-correct rounding makes the two
    # engines agree bit for bit.
    q_mu = (
        "CAST(floor((0.5 * least(1.0, len(l) / 50.0) "
        "+ 0.3 * least(1.0, (CAST(len(list_filter(l, x -> "
        f"list_contains([{stop_list}], lower(x)))) AS DOUBLE) / len(l)) * 5.0) "
        "+ 0.2 * (1.0 - least(1.0, (CAST(len(regexp_extract_all(text, "
        "'[^\\w\\s]')) AS DOUBLE) / length(text)) * 10.0))) * 1000000 + 0.5) "
        "AS BIGINT)"
    )
    sqls["score_correlation"] = f"""WITH t AS (
  SELECT source, text, regexp_split_to_array(trim(text), '\\s+') AS l
  FROM documents
),
c AS (SELECT source, {q_mu} AS q, CAST(len(l) AS BIGINT) AS ln FROM t),
s AS (
  SELECT source, count(*) AS n, sum(q) AS sq, sum(ln) AS sl,
         sum(q * q) AS sqq, sum(ln * ln) AS sll, sum(q * ln) AS sql_
  FROM c GROUP BY source
)
SELECT source, CAST(n AS BIGINT) AS n,
       CAST(CASE WHEN n * sqq - sq * sq > 0 AND n * sll - sl * sl > 0
            THEN floor(1000000 * (CAST(n * sql_ - sq * sl AS DOUBLE)
                 / (sqrt(CAST(n * sqq - sq * sq AS DOUBLE))
                    * sqrt(CAST(n * sll - sl * sl AS DOUBLE)))) + 0.5)
            ELSE 0 END AS BIGINT) AS corr6
FROM s"""

    # source_overlap: the shared shingle CTE builder keyed by SOURCE
    # (empty/whitespace docs filtered — Python shingles('') == []);
    # bottom-k via row_number, the union sketch re-bottom-k'd (the
    # mergeability identity the engine's combiner relies on), one
    # rounded division at the end.  The pair universe is sources WITH
    # >= 1 shingle (hh), matching the engine's sketches dict exactly —
    # an all-empty source participates in neither engine.
    from .dataops_oracles import shingle_hash_ctes

    sqls["source_overlap"] = f"""WITH {shingle_hash_ctes(
        "documents", key="source", names=("toks", "sh", "hh"),
        nonempty=True)},
sk AS (
  SELECT source, h FROM (
    SELECT source, h,
           row_number() OVER (PARTITION BY source ORDER BY h) AS rn
    FROM hh)
  WHERE rn <= {SRC_SKETCH_K}
),
srcs AS (SELECT DISTINCT source FROM hh),
p AS (SELECT a.source AS sa, b.source AS sb
      FROM srcs a JOIN srcs b ON a.source < b.source),
u AS (
  SELECT p.sa, p.sb, s.h FROM p JOIN sk s ON s.source = p.sa
  UNION
  SELECT p.sa, p.sb, s.h FROM p JOIN sk s ON s.source = p.sb
),
ub AS (
  SELECT sa, sb, h FROM (
    SELECT sa, sb, h,
           row_number() OVER (PARTITION BY sa, sb ORDER BY h) AS rn
    FROM u)
  WHERE rn <= {SRC_SKETCH_K}
),
ku AS (SELECT sa, sb, CAST(count(*) AS BIGINT) AS k_union
       FROM ub GROUP BY 1, 2),
i AS (
  SELECT ub.sa, ub.sb, CAST(count(*) AS BIGINT) AS n_inter
  FROM ub
  JOIN sk x ON x.source = ub.sa AND x.h = ub.h
  JOIN sk y ON y.source = ub.sb AND y.h = ub.h
  GROUP BY 1, 2
)
SELECT ku.sa AS source_a, ku.sb AS source_b, ku.k_union,
       coalesce(i.n_inter, 0) AS n_inter,
       floor(coalesce(i.n_inter, 0) / CAST(ku.k_union AS DOUBLE)
             * 1000000 + 0.5) / 1000000 AS jaccard_est
FROM ku LEFT JOIN i ON i.sa = ku.sa AND i.sb = ku.sb"""

    return sqls
