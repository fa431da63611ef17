"""Training-data operator tests: hashing primitive parity with DuckDB,
algorithm properties (hypothesis), and Ray e2e behavior of the dedup /
similarity-search / text-analysis pipelines on controlled inputs."""
import duckdb
import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from web_content_extraction_benchmark_ray.functions.hashing import (
    MERSENNE_P,
    MINHASH_K,
    band_keys,
    est_jaccard,
    fingerprint_digest,
    hash60,
    minhash_signature,
    shingles,
    simhash60,
    simhash_hex,
    winnow_fingerprints,
)
from web_content_extraction_benchmark_ray.functions.textstats import (
    LANGS,
    lang_id,
    quality_features,
    token_counts,
)

texts = st.text(
    alphabet=st.sampled_from(list("abcdef ")), min_size=0, max_size=120
)


# ------------------------------------------------------------ SQL hash parity
@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=40))
@settings(max_examples=60, deadline=None)
def test_hash60_matches_duckdb(s):
    con = duckdb.connect()
    got = con.execute(
        "select ('0x' || substr(md5(?), 1, 15))::BIGINT", [s]
    ).fetchone()[0]
    assert got == hash60(s)


# ----------------------------------------------------------- minhash/jaccard
def test_minhash_identical_texts_identical_signature():
    a = minhash_signature("the quick brown fox jumps over the lazy dog")
    b = minhash_signature("the quick  brown fox jumps over the lazy dog")
    assert np.array_equal(a, b)  # ws-tokenized: extra space is irrelevant
    assert band_keys(a) == band_keys(b)
    assert est_jaccard(a, b) == 1.0


def test_minhash_near_dup_high_overlap():
    base = " ".join(f"w{i}" for i in range(60))
    near = " ".join(f"w{i}" for i in range(59))  # drop last word
    est = est_jaccard(minhash_signature(base), minhash_signature(near))
    assert est >= 0.5  # true jaccard ~0.966


def test_minhash_disjoint_low_overlap():
    a = minhash_signature(" ".join(f"a{i}" for i in range(50)))
    b = minhash_signature(" ".join(f"b{i}" for i in range(50)))
    assert est_jaccard(a, b) <= 0.25


@given(texts)
@settings(max_examples=50, deadline=None)
def test_minhash_signature_in_range(t):
    sig = minhash_signature(t)
    assert sig.shape == (MINHASH_K,)
    assert ((sig >= 0) & (sig <= MERSENNE_P)).all()


# ----------------------------------------------------------------- simhash
def test_simhash_exact_dup_zero_hamming():
    a, b = simhash60("alpha beta gamma delta"), simhash60("alpha beta gamma delta")
    assert a == b
    assert len(simhash_hex("alpha beta gamma delta")) == 15


def test_simhash_near_dup_small_hamming():
    base = " ".join(f"w{i}" for i in range(60))
    near = base + " extra"
    ham = bin(simhash60(base) ^ simhash60(near)).count("1")
    assert ham <= 8


def test_simhash_different_texts_large_hamming():
    a = simhash60(" ".join(f"a{i}" for i in range(50)))
    b = simhash60(" ".join(f"b{i}" for i in range(50)))
    assert bin(a ^ b).count("1") > 10


# --------------------------------------------------------------- winnowing
def test_winnow_contains_global_min_and_dedups():
    t = "abcdefghijabcdefghij" * 3
    fps = winnow_fingerprints(t)
    assert fps == sorted(set(fps))
    all_h = [hash60(t[i : i + 8]) for i in range(len(t) - 7)]
    assert min(all_h) in fps  # the global min survives any windowing
    assert fingerprint_digest(fps) == fingerprint_digest(list(fps))


@given(texts)
@settings(max_examples=50, deadline=None)
def test_winnow_subset_of_kgram_hashes(t):
    fps = winnow_fingerprints(t)
    if len(t) < 8:
        assert fps == ([hash60(t)] if t else [])
    else:
        all_h = {hash60(t[i : i + 8]) for i in range(len(t) - 7)}
        assert set(fps) <= all_h


# ------------------------------------------------------------ text analysis
def test_token_counts():
    assert token_counts("a b  c") == (3, 3, 3)
    assert token_counts("") == (0, 0, 0)
    assert token_counts("a, b!") == (2, 2, 4)


def test_quality_features_bounds():
    q = quality_features("the cat sat on the mat " * 20)
    assert 0.0 <= q["quality"] <= 1.0
    assert q["n_ws"] == 120
    assert quality_features("")["quality"] == pytest.approx(0.2)


def test_lang_id_deterministic_and_tie_break():
    lang, ratio = lang_id("alpha beta gamma delta epsilon zeta")
    assert lang in LANGS and 0 < ratio <= 1.0
    assert lang_id("") == ("und", 0.0)
    assert lang_id("xyz") == lang_id("xyz")  # deterministic


# ------------------------------------------------------------------ Ray e2e
def _docs_ds(ray, rows):
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )


def test_dedup_exact_survivors(ray_session):
    from web_content_extraction_benchmark_ray.stages.dedup import dedup_exact

    rows = [(1, "aa"), (2, "bb"), (7, "aa"), (3, "aa"), (9, "cc"), (8, "bb")]
    out = dedup_exact(_docs_ds(ray_session, rows)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2, 9]


def test_dedup_minhash_finds_planted_pair(ray_session):
    from web_content_extraction_benchmark_ray.stages.dedup import (
        dedup_minhash_pairs,
    )

    base = " ".join(f"w{i}" for i in range(80))
    rows = [(1, base), (2, base + " tail"), (3, " ".join(f"z{i}" for i in range(80)))]
    out = dedup_minhash_pairs(_docs_ds(ray_session, rows)).to_pandas()
    pairs = set(zip(out["doc_id_a"], out["doc_id_b"]))
    assert (1, 2) in pairs
    assert not any(3 in p for p in pairs)


def test_dedup_simhash_pairs_catches_exact_dup(ray_session):
    from web_content_extraction_benchmark_ray.stages.dedup import (
        dedup_simhash_pairs,
    )

    base = " ".join(f"w{i}" for i in range(60))
    rows = [(1, base), (5, base), (9, " ".join(f"q{i}" for i in range(60)))]
    out = dedup_simhash_pairs(_docs_ds(ray_session, rows)).to_pandas()
    assert (1, 5) in set(zip(out["doc_id_a"], out["doc_id_b"]))


def test_ngram_jaccard_exact_values(ray_session):
    from web_content_extraction_benchmark_ray.stages.dedup import (
        dedup_ngram_jaccard,
    )

    base = " ".join(f"w{i}" for i in range(10))  # 8 distinct shingles
    rows = [(1, base), (2, base)]
    out = dedup_ngram_jaccard(_docs_ds(ray_session, rows)).to_pandas()
    assert len(out) == 1
    assert out["jaccard"][0] == 1.0


def test_knn_bruteforce_equals_ivf_and_numpy(ray_session):
    import ray

    from web_content_extraction_benchmark_ray.stages.simsearch import (
        KNN_K,
        knn_bruteforce,
        knn_ivf,
    )

    rng = np.random.default_rng(7)
    n, d = 120, 16
    mat = rng.normal(size=(n, d)).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
                "label": pa.array((ids % 4).astype(np.int32), pa.int32()),
            }
        )
    )
    qids = np.array([0, 1], dtype=np.int64)
    qref = ray.put((qids, mat[:2].astype(np.float64)))
    bf = (
        knn_bruteforce(ds, qref, batch_size=32)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    ivf = (
        knn_ivf(ds, qref)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert bf[["query_id", "vec_id", "rank"]].equals(
        ivf[["query_id", "vec_id", "rank"]]
    )
    # numpy oracle for query 0
    m64 = mat.astype(np.float64)
    norm = m64 / np.linalg.norm(m64, axis=1, keepdims=True)
    cos = np.floor((norm @ norm[0]) * 1e6 + 0.5) / 1e6
    cos[0] = -2  # exclude self
    order = np.lexsort((ids, -cos))[:KNN_K]
    got = bf[bf["query_id"] == 0]["vec_id"].tolist()
    assert got == [int(v) for v in order]


def test_cosine_dup_pairs_lsh_near_dups(ray_session):
    """The LSH near-dup path against a pure-numpy mirror of the SAME
    integer-RHP banding + round6-cosine verify, over duplicates that are
    genuinely NEAR (perturbed), not exact copies — so the test exercises
    band recall on non-identical sign patterns, the contract the DuckDB
    oracle now also checks (pipelines/dataops_oracles.py)."""
    import ray

    from web_content_extraction_benchmark_ray.stages.simsearch import (
        COS_DUP_THRESHOLD,
        RHP_BAND_BITS,
        RHP_BANDS,
        RHP_Q,
        _int_hyperplanes,
        cosine_dup_pairs_lsh,
    )

    rng = np.random.default_rng(11)
    n, d = 60, 16
    mat = rng.normal(size=(n, d))
    # near (not exact) duplicates: tiny perturbation keeps cosine > 0.999
    for i in range(0, n, 10):
        mat[i + 1] = mat[i] + 1e-3 * rng.normal(size=d)
    mat32 = mat.astype(np.float32)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(mat32.tolist(), pa.list_(pa.float32())),
            }
        )
    )
    out = cosine_dup_pairs_lsh(ds).to_pandas()
    got = set(zip(out["vec_id_a"], out["vec_id_b"]))

    # numpy mirror of the banding
    m64 = mat32.astype(np.float64)
    q = np.floor(m64 * RHP_Q + 0.5).astype(np.int64)
    bits = (q @ _int_hyperplanes(d) >= 0).astype(np.int64)
    w = 1 << np.arange(RHP_BAND_BITS, dtype=np.int64)
    bands = bits.reshape(n, RHP_BANDS, RHP_BAND_BITS) @ w  # (n, bands)
    norm = m64 / np.linalg.norm(m64, axis=1, keepdims=True)
    cos = np.floor((norm @ norm.T) * 1e6 + 0.5) / 1e6
    want = set()
    for i in range(n):
        for j in range(i + 1, n):
            if (bands[i] == bands[j]).any() and cos[i, j] >= COS_DUP_THRESHOLD:
                want.add((i, j))
    assert got == want
    # the planted perturbed pairs are near-but-not-exact and recalled
    assert (0, 1) in got
    assert not np.array_equal(mat32[0], mat32[1])


def test_media_decode_stage_plumbing(ray_session):
    import ray

    from web_content_extraction_benchmark_ray.stages.media import decode_media
    from web_content_extraction_benchmark_ray.functions.hashing import hash60

    ds = ray.data.from_arrow(
        pa.table(
            {
                "media_ref": pa.array(["pdf://1/0", "img://2/1"], pa.string()),
                "payload": pa.array([b"\x00" * 32, b"\xff" * 7], pa.binary()),
            }
        )
    )
    out = decode_media(ds).to_pandas().sort_values("media_ref").reset_index(drop=True)
    assert out["n_bytes"].tolist() == [7, 32]
    h = hash60("pdf://1/0")
    row = out[out["media_ref"] == "pdf://1/0"].iloc[0]
    assert row["width"] == 1 + h % 1024
    assert row["height"] == 1 + (h >> 10) % 1024
    assert (out["error"] == "").all()


def test_neardup_survivors_transitive(ray_session):
    import ray

    from web_content_extraction_benchmark_ray.stages.dedup import (
        neardup_survivors,
    )

    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(list(range(1, 26)), pa.int64())})
    )
    # component {2,5,9} via chain 2-5, 5-9 (NOT 2-9 directly) + pair {20,21}
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id_a": pa.array([2, 5, 20], pa.int64()),
                "doc_id_b": pa.array([5, 9, 21], pa.int64()),
            }
        )
    )
    out = sorted(r["doc_id"] for r in neardup_survivors(docs, pairs).take_all())
    assert out == sorted(set(range(1, 26)) - {5, 9, 21})


def test_neardup_survivors_no_pairs(ray_session):
    import ray

    from web_content_extraction_benchmark_ray.stages.dedup import (
        neardup_survivors,
    )

    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([3, 1, 2], pa.int64())})
    )
    empty = ray.data.from_arrow(
        pa.table(
            {
                "doc_id_a": pa.array([], pa.int64()),
                "doc_id_b": pa.array([], pa.int64()),
            }
        )
    )
    out = sorted(r["doc_id"] for r in neardup_survivors(docs, empty).take_all())
    assert out == [1, 2, 3]


def test_jaccard_prefix_equals_full(ray_session):
    """Prefix filtering is lossless at the threshold: identical output."""
    from web_content_extraction_benchmark_ray.stages.dedup import (
        dedup_ngram_jaccard,
        dedup_ngram_jaccard_prefix,
    )

    base = " ".join(f"w{i}" for i in range(40))
    rows = [
        (1, base),
        (2, base + " tail"),
        (3, " ".join(f"z{i}" for i in range(40))),
        (4, base),
        (5, " ".join(f"w{i}" for i in range(20))),  # J vs base = 18/56 < 0.5
    ]
    ds = _docs_ds(ray_session, rows)
    full = (
        dedup_ngram_jaccard(ds).to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"]).reset_index(drop=True)
    )
    ds2 = _docs_ds(ray_session, rows)
    pref = (
        dedup_ngram_jaccard_prefix(ds2).to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"]).reset_index(drop=True)
    )
    assert full.equals(pref)
    assert {(1, 2), (1, 4), (2, 4)} <= set(
        zip(full["doc_id_a"], full["doc_id_b"])
    )


def test_unigram_logprob_join_path_matches_broadcast(ray_session):
    """The big-vocab token-explode join must be integer-identical to the
    broadcast path (threshold 0 forces the join), including zero-token
    docs kept alive by the sentinel row."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        unigram_logprob,
    )

    sf = "/root/testdata/sf0.001"
    a = (
        unigram_logprob(sf).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        unigram_logprob(sf, broadcast_max_types=0).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert len(a) == len(b) == 500
    assert a.equals(b)


def test_lsh_posting_cap_rhp(monkeypatch, caplog):
    """Posting lists over LSH_POSTING_CAP are dropped whole (with a
    logged count), smaller lists are untouched."""
    import logging

    from web_content_extraction_benchmark_ray.stages import dedup as dd
    from web_content_extraction_benchmark_ray.stages.simsearch import (
        rhp_candidate_pairs,
    )

    monkeypatch.setattr(dd, "LSH_POSTING_CAP", 8)
    t = pa.table(
        {
            "band_id": pa.array([0] * 9 + [1] * 3, pa.int32()),
            "band_val": pa.array([0] * 9 + [7] * 3, pa.int64()),
            "vec_id": pa.array(
                list(range(9)) + [100, 101, 102], pa.int64()
            ),
        }
    )
    with caplog.at_level(logging.WARNING):
        out = rhp_candidate_pairs(t)
    got = set(zip(out["doc_id_a"].to_pylist(), out["doc_id_b"].to_pylist()))
    assert got == {(100, 101), (100, 102), (101, 102)}
    assert any("dropped 1 posting list" in r.message for r in caplog.records)


def test_lsh_posting_cap_minhash(monkeypatch, caplog):
    import logging

    from web_content_extraction_benchmark_ray.functions.hashing import (
        MINHASH_K,
    )
    from web_content_extraction_benchmark_ray.stages import dedup as dd

    monkeypatch.setattr(dd, "LSH_POSTING_CAP", 8)
    sig = list(range(MINHASH_K))
    t = pa.table(
        {
            "band_id": pa.array([0] * 9 + [1] * 2, pa.int32()),
            "band_key": pa.array(["aa"] * 9 + ["bb"] * 2, pa.string()),
            "doc_id": pa.array(list(range(9)) + [100, 101], pa.int64()),
            "sig": pa.array([sig] * 11, pa.list_(pa.int64())),
        }
    )
    with caplog.at_level(logging.WARNING):
        out = dd.minhash_bucket_pairs(t)
    got = set(zip(out["doc_id_a"].to_pylist(), out["doc_id_b"].to_pylist()))
    assert got == {(100, 101)}
    assert any("dropped 1 posting list" in r.message for r in caplog.records)


def test_cosine_dup_pairs_lsh_constant_vectors_bounded(ray_session):
    """Degenerate corpus: every embedding identical, so all vectors share
    every band value (one giant posting list per band).  Uncapped this is
    C(n,2) ~ 33M candidate pairs through two more all-to-alls; the cap
    drops the lists and the pipeline completes in bounded time with zero
    pairs."""
    import ray

    from web_content_extraction_benchmark_ray.stages.dedup import (
        LSH_POSTING_CAP,
    )
    from web_content_extraction_benchmark_ray.stages.simsearch import (
        cosine_dup_pairs_lsh,
    )

    n = LSH_POSTING_CAP + 8
    mat = np.ones((n, 8), dtype=np.float32)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
            }
        )
    )
    out = cosine_dup_pairs_lsh(ds, partitions=4).to_pandas()
    assert len(out) == 0


def test_knn_ivf_trained_sample_path_is_exact(ray_session, monkeypatch):
    """Force the capped hash-sample quantizer path (cap far below the
    corpus): with nprobe = all lists the IVF answer is exactly the
    brute-force top-k for ANY centroids, so sample-training must not
    change a single row."""
    from web_content_extraction_benchmark_ray.pipelines import dataops as dop

    sf = "/root/testdata/sf0.001"
    base = (
        dop.knn_cosine(sf).to_pandas()
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    monkeypatch.setattr(dop, "KMEANS_TRAIN_MAX", 20)
    got = (
        dop.knn_ivf_trained(sf).to_pandas()
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert base.equals(got)


def test_chunk_windows_shape_and_content(ray_session):
    """Window math: starts 0, s, 2s, ... while start < n; trailing
    windows clamp to n; chunk_text is the space-joined token slice."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        CHUNK_S,
        CHUNK_W,
        chunk_windows,
    )

    sf = "/root/testdata/sf0.001"
    df = (
        chunk_windows(sf).to_pandas()
        .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    )
    import pyarrow.parquet as pq

    docs = pq.read_table(
        sf + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    expect = []
    for did, text in zip(docs["doc_id"], docs["text"]):
        toks = text.strip().split()
        n = max(len(toks), 1)
        start = 0
        cid = 0
        while start < n:
            sl = toks[start : start + CHUNK_W]
            expect.append(
                (int(did), cid, " ".join(sl), min(start + CHUNK_W, n) - start)
            )
            cid += 1
            start += CHUNK_S
    got = list(
        df[["doc_id", "chunk_id", "chunk_text", "n_tokens"]].itertuples(
            index=False, name=None
        )
    )
    assert sorted(got) == sorted(expect)
    # every doc's chunk 0 exists and overlap is w - s tokens
    assert (df.groupby("doc_id")["chunk_id"].min() == 0).all()


def test_dup_span_stats_matches_bruteforce(ray_session):
    """Exact copies (every 10th doc) must make BOTH twins fully
    duplicated; the whole table must equal a brute-force recompute."""
    from collections import Counter

    from web_content_extraction_benchmark_ray.functions.text import tokenize_ws
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        EXACT_COPY_EVERY,
        EXACT_COPY_OFFSET,
        NEAR_DUP_EVERY,
        NEAR_DUP_OFFSET,
        SPAN_W,
        dup_span_stats,
    )

    sf = "/root/testdata/sf0.001"
    df = (
        dup_span_stats(sf).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    import pyarrow.parquet as pq

    docs = pq.read_table(
        sf + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    corpus = {int(i): t for i, t in zip(docs["doc_id"], docs["text"])}
    for i in list(corpus):
        if i % EXACT_COPY_EVERY == 0:
            corpus[i + EXACT_COPY_OFFSET] = corpus[i]
        if i % NEAR_DUP_EVERY == 0:
            corpus[i + NEAR_DUP_OFFSET] = " ".join(
                tokenize_ws(corpus[i])[:-1]
            )

    def wins(t):
        toks = tokenize_ws(t)
        if len(toks) < SPAN_W:
            return [" ".join(toks)]
        return [
            " ".join(toks[j : j + SPAN_W])
            for j in range(len(toks) - SPAN_W + 1)
        ]

    total = Counter()
    for t in corpus.values():
        total.update(wins(t))
    expect = {}
    for i, t in corpus.items():
        ws = wins(t)
        nd = sum(1 for w in ws if total[w] >= 2)
        expect[i] = (
            len(ws), nd, ((nd * 2_000_000 + len(ws)) // (2 * len(ws))) / 1e6
        )
    got = {
        int(r.doc_id): (int(r.n_windows), int(r.n_dup), float(r.dup_ratio))
        for r in df.itertuples()
    }
    assert got == expect
    # the exact-copy twins are fully duplicated
    full = [i for i in corpus if i % EXACT_COPY_EVERY == 0
            and i < NEAR_DUP_OFFSET]
    assert all(got[i + EXACT_COPY_OFFSET][2] == 1.0 for i in full)


def test_dup_span_stats_join_path_matches_broadcast(ray_session):
    """Forcing the shuffle-join scale path (threshold 0) must reproduce
    the broadcast path bit for bit."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        dup_span_stats,
    )

    sf = "/root/testdata/sf0.001"
    a = (
        dup_span_stats(sf).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        dup_span_stats(sf, broadcast_max_types=0).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert a.equals(b)


def test_importance_weights_join_path_matches_broadcast(ray_session):
    """The big-vocab token-explode join must be integer-identical to the
    broadcast path (threshold 0 forces the join)."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        importance_weights,
    )

    sf = "/root/testdata/sf0.001"
    a = (
        importance_weights(sf).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        importance_weights(sf, broadcast_max_types=0).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert len(a) == len(b) == 500
    assert a.equals(b)


def test_importance_weights_favor_target_like_docs(ray_session, tmp_path):
    """A non-target probe doc written in the target slice's vocabulary
    must outscore an equal-length probe written in target-absent filler
    (the DSIR ranking direction)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        DSIR_TARGET_EVERY,
        importance_weights,
    )

    rows = []
    # target slice (doc_id % 10 == 0) writes in 'zzz'
    for i in range(0, 4 * DSIR_TARGET_EVERY, DSIR_TARGET_EVERY):
        rows.append((i, "zzz zzz zzz zzz"))
    # bulk non-target docs write in 'www'
    for i in range(1, 13):
        rows.append((i * DSIR_TARGET_EVERY + 1, "www www www www"))
    probe_target_like = 5
    probe_filler = 7
    rows.append((probe_target_like, "zzz zzz zzz zzz"))
    rows.append((probe_filler, "www www www www"))
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    for kw in ({}, {"broadcast_max_types": 0}):
        df = (
            importance_weights(str(tmp_path), **kw)
            .to_pandas()
            .set_index("doc_id")
        )
        assert (
            df.loc[probe_target_like, "sum_ratio"]
            > df.loc[probe_filler, "sum_ratio"]
        )
        # target-enriched tokens weigh positive, target-absent negative
        assert df.loc[probe_target_like, "sum_ratio"] > 0
        assert df.loc[probe_filler, "sum_ratio"] < 0


def test_dedup_exact_norm_collapses_case_punct_variants(ray_session):
    """Every uppercased '+ !!' variant and exact copy must collapse onto
    its original; all original doc_ids survive (corpus has no natural
    normalized collisions at this scale is NOT assumed — originals are
    only checked to dominate their own variants)."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        CASE_VAR_OFFSET,
        EXACT_COPY_OFFSET,
        dedup_exact_norm,
    )

    sf = "/root/testdata/sf0.001"
    survivors = set(
        dedup_exact_norm(sf).to_pandas()["doc_id"].tolist()
    )
    assert not any(s >= CASE_VAR_OFFSET for s in survivors)
    assert not any(EXACT_COPY_OFFSET <= s < CASE_VAR_OFFSET for s in survivors)


def test_normalize_text_semantics():
    from web_content_extraction_benchmark_ray.stages.dedup import (
        normalize_text,
    )

    assert normalize_text("Hello,  World!!") == "hello world"
    assert normalize_text("  a\tb\nc  ") == "a b c"
    assert normalize_text("UPPER lower") == normalize_text("upper LOWER")


def test_importance_weights_matches_serial_reference(ray_session):
    """Both distributed paths must equal a single-process reference
    computation of the quantized DSIR estimator over the real table."""
    from collections import Counter

    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.functions.text import (
        tokenize_ws,
    )
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        DSIR_TARGET_EVERY,
        importance_weights,
    )

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    raw: Counter = Counter()
    tgt: Counter = Counter()
    for i, txt in zip(t["doc_id"], t["text"]):
        toks = tokenize_ws(txt)
        raw.update(toks)
        if int(i) % DSIR_TARGET_EVERY == 0:
            tgt.update(toks)

    def w(tok):
        return (DSIR_TARGET_EVERY * tgt.get(tok, 0) + 1).bit_length() - (
            raw[tok] + 1
        ).bit_length()

    expect = {
        int(i): sum(w(tok) for tok in tokenize_ws(txt))
        for i, txt in zip(t["doc_id"], t["text"])
    }
    for kw in ({}, {"broadcast_max_types": 0}):
        df = importance_weights(sf, **kw).to_pandas().set_index("doc_id")
        assert len(df) == len(expect)
        for i, s in expect.items():
            assert int(df.loc[i, "sum_ratio"]) == s


def test_join_paths_work_on_tiny_corpora(ray_session, tmp_path):
    """Regression: Ray 2.49's per-partition Acero join fails when a hash
    partition is empty on one side; forced join paths over a 4-doc corpus
    must still work (schema-pinned right side + single-partition tiny
    joins) and agree with the broadcast paths."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        dup_span_stats,
        unigram_logprob,
    )

    rows = [
        (0, "the cat sat on the mat"),
        (1, "the cat sat on the hat"),
        (3, "completely different words entirely here now"),
        (7, "the cat sat on the mat"),
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    sf = str(tmp_path)
    for fn in (unigram_logprob, dup_span_stats):
        a = fn(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = (
            fn(sf, broadcast_max_types=0)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert len(a) > 0
        assert a.equals(b), fn.__name__


def test_dup_span_scrub_matches_bruteforce(ray_session):
    """The scrub must remove exactly the positions covered by corpus-
    duplicated windows — verified against a serial recompute over the
    augmented view; exact-copy twins must scrub to empty."""
    from collections import Counter

    from web_content_extraction_benchmark_ray.functions.text import tokenize_ws
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        EXACT_COPY_EVERY,
        EXACT_COPY_OFFSET,
        NEAR_DUP_EVERY,
        NEAR_DUP_OFFSET,
        SPAN_W,
        dup_span_scrub,
    )

    sf = "/root/testdata/sf0.001"
    df = (
        dup_span_scrub(sf).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    import pyarrow.parquet as pq

    docs = pq.read_table(
        sf + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    corpus = {int(i): t for i, t in zip(docs["doc_id"], docs["text"])}
    for i in list(corpus):
        if i % EXACT_COPY_EVERY == 0:
            corpus[i + EXACT_COPY_OFFSET] = corpus[i]
        if i % NEAR_DUP_EVERY == 0:
            corpus[i + NEAR_DUP_OFFSET] = " ".join(
                tokenize_ws(corpus[i])[:-1]
            )

    def wins(toks):
        if len(toks) < SPAN_W:
            return [" ".join(toks)]
        return [
            " ".join(toks[j : j + SPAN_W])
            for j in range(len(toks) - SPAN_W + 1)
        ]

    total = Counter()
    for t in corpus.values():
        total.update(wins(tokenize_ws(t)))
    expect = {}
    for i, t in corpus.items():
        toks = tokenize_ws(t)
        covered = [False] * len(toks)
        for j, w in enumerate(wins(toks)):
            if total[w] >= 2:
                for p in range(j, min(j + SPAN_W, len(toks))):
                    covered[p] = True
        kept = " ".join(t for t, c in zip(toks, covered) if not c)
        expect[i] = (kept, len(toks), sum(covered))
    got = {
        int(r.doc_id): (r.kept_text, int(r.n_tokens), int(r.n_removed))
        for r in df.itertuples()
    }
    assert got == expect
    # exact-copy twins are fully duplicated -> scrubbed to nothing
    full = [i for i in corpus if i % EXACT_COPY_EVERY == 0
            and i < NEAR_DUP_OFFSET]
    assert full and all(got[i + EXACT_COPY_OFFSET][0] == "" for i in full)
    # and some docs survive untouched
    assert any(v[2] == 0 and v[0] for v in got.values())


def test_dup_span_scrub_join_path_matches_broadcast(ray_session):
    """Forcing the union-co-location scale path (threshold 0) must
    reproduce the broadcast path bit for bit."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        dup_span_scrub,
    )

    sf = "/root/testdata/sf0.001"
    a = (
        dup_span_scrub(sf).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        dup_span_scrub(sf, broadcast_max_types=0).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert len(a) == 575
    assert a.equals(b)


def test_dedup_incremental_matches_antijoin(ray_session):
    """Survivors must equal the exact anti-join of the incoming batch
    against the base corpus: every exact copy is dropped, every
    near-dup (text differs by its last token) survives."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.functions.hashing import hash60
    from web_content_extraction_benchmark_ray.functions.text import tokenize_ws
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        EXACT_COPY_EVERY,
        EXACT_COPY_OFFSET,
        NEAR_DUP_EVERY,
        NEAR_DUP_OFFSET,
        dedup_incremental,
    )

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(
        sf + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    ref_hashes = {hash60(t) for t in docs["text"]}
    expect = {}
    for i, t in zip(docs["doc_id"], docs["text"]):
        if i % EXACT_COPY_EVERY == 0:
            h = hash60(t)
            if h not in ref_hashes:
                expect[int(i) + EXACT_COPY_OFFSET] = h
        if i % NEAR_DUP_EVERY == 0:
            h = hash60(" ".join(tokenize_ws(t)[:-1]))
            if h not in ref_hashes:
                expect[int(i) + NEAR_DUP_OFFSET] = h
    df = dedup_incremental(sf).to_pandas()
    got = {int(r.doc_id): int(r.h) for r in df.itertuples()}
    assert got == expect
    # the fixture really exercises both directions
    assert all(i >= NEAR_DUP_OFFSET for i in got)
    assert not any(i >= EXACT_COPY_OFFSET for i in got)
    assert len(got) > 0


def test_dedup_incremental_tiny_bloom_is_still_exact(ray_session):
    """A 64-bit filter makes nearly every probe a false positive,
    forcing the whole incoming batch through the confirm co-group —
    the output must be bit-identical to the default filter's."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        dedup_incremental,
    )

    sf = "/root/testdata/sf0.001"
    a = (
        dedup_incremental(sf).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        dedup_incremental(sf, bloom_bits=64).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert a.equals(b)


def test_bloom_has_no_false_negatives(ray_session):
    """Every inserted hash must probe as present at any filter size."""
    import numpy as np

    from web_content_extraction_benchmark_ray.stages.bloom import (
        bloom_contains,
        bloom_from_hashes,
    )
    import ray.data as rd

    rng = np.random.RandomState(7)
    hs = rng.randint(0, 2**60, size=5000, dtype=np.int64)
    ds = rd.from_arrow(
        __import__("pyarrow").table({"h": hs})
    ).repartition(7)
    for m in (256, 1 << 14, 1 << 20):
        bloom = bloom_from_hashes(ds, "h", m)
        assert bloom_contains(bloom, hs, m).all(), m


def test_dup_span_scrub_consistent_with_dup_span_stats(ray_session):
    """Cross-operator invariants over the same counts table: a doc has
    removed tokens iff it has duplicated windows; token counts and
    window counts agree (n_windows = max(n_tokens - SPAN_W + 1, 1));
    fully-duplicated docs scrub to empty."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        SPAN_W,
        dup_span_scrub,
        dup_span_stats,
    )

    sf = "/root/testdata/sf0.001"
    scrub = {
        int(r.doc_id): r
        for r in dup_span_scrub(sf).to_pandas().itertuples()
    }
    stats = {
        int(r.doc_id): r
        for r in dup_span_stats(sf).to_pandas().itertuples()
    }
    assert scrub.keys() == stats.keys()
    for i, sc in scrub.items():
        st = stats[i]
        assert (sc.n_removed > 0) == (st.n_dup > 0), i
        assert st.n_windows == max(sc.n_tokens - SPAN_W + 1, 1), i
        if st.dup_ratio == 1.0:
            assert sc.kept_text == "" and sc.n_removed == sc.n_tokens, i
        if sc.n_removed == 0:
            assert len(sc.kept_text.split()) == sc.n_tokens, i


def test_bloom_sliced_build_equals_blockwise(ray_session):
    """Above SLICED_BUILD_MIN_BITS the build shuffles probe positions
    instead of per-block bitmaps; both paths must produce the identical
    filter (same m, same hashes)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from web_content_extraction_benchmark_ray.stages import bloom as bl

    rng = np.random.RandomState(11)
    hs = rng.randint(0, 2**60, size=3000, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"h": hs})).repartition(5)
    m = bl.SLICED_BUILD_MIN_BITS * 2  # forces the sliced path
    sliced = bl.bloom_from_hashes(ds, "h", m)
    # rebuild the same filter through the block-wise path by lifting the
    # threshold temporarily
    orig = bl.SLICED_BUILD_MIN_BITS
    bl.SLICED_BUILD_MIN_BITS = m
    try:
        blockwise = bl.bloom_from_hashes(ds, "h", m)
    finally:
        bl.SLICED_BUILD_MIN_BITS = orig
    assert np.array_equal(sliced, blockwise)
    assert bl.bloom_contains(sliced, hs, m).all()


def test_dedup_incremental_bucket_filtered_confirm_and_early_return(
    ray_session, tmp_path
):
    """(a) A one-hit corpus routes the exact confirm through the
    hit-bucket-filtered reference side and still yields the anti-join
    result (the near-dup survives, the exact copy is confirmed away);
    (b) a corpus with NO incoming docs takes the zero-hits early return
    and yields zero rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        NEAR_DUP_EVERY,
        NEAR_DUP_OFFSET,
        dedup_incremental,
    )

    def write(rows, d):
        d.mkdir(exist_ok=True)
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "text": pa.array([r[1] for r in rows], pa.string()),
                }
            ),
            d / "documents.parquet",
        )
        return str(d)

    # (a) one doc spawns an exact copy (bloom hit, true dup) and a
    # near-dup (miss); fillers have no copies
    rows = [
        (i * NEAR_DUP_EVERY + 1, f"alpha{i} beta{i} gamma{i} delta{i}")
        for i in range(6)
    ] + [(NEAR_DUP_EVERY, "unique zebra quill jolt vex marrow")]
    df = dedup_incremental(write(rows, tmp_path / "a")).to_pandas()
    assert len(df) == 1
    assert int(df.doc_id.iloc[0]) == NEAR_DUP_EVERY + NEAR_DUP_OFFSET

    # (b) all-odd ids -> the augmented view adds nothing -> no incoming
    # docs, no hits, early return
    rows_b = [(i * NEAR_DUP_EVERY + 1, f"solo{i} text{i}") for i in range(4)]
    df_b = dedup_incremental(write(rows_b, tmp_path / "b")).to_pandas()
    assert len(df_b) == 0


def test_dedup_fingerprint_pairs_finds_twins(ray_session):
    """Exact-copy twins must pair at overlap 1.0 over the KEPT
    fingerprint universe (df in [2, FP_MAX_DF]); output matches a
    serial recompute of the winnowing-overlap semantics."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.functions.hashing import (
        winnow_fingerprints,
    )
    from web_content_extraction_benchmark_ray.functions.text import tokenize_ws
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        EXACT_COPY_EVERY,
        EXACT_COPY_OFFSET,
        NEAR_DUP_EVERY,
        NEAR_DUP_OFFSET,
        dedup_fingerprint_pairs,
    )
    from web_content_extraction_benchmark_ray.stages.dedup import (
        FP_MAX_DF,
        FP_MIN_SHARED,
        FP_OVERLAP_DEN,
        FP_OVERLAP_NUM,
    )

    sf = "/root/testdata/sf0.001"
    df = dedup_fingerprint_pairs(sf).to_pandas()
    got = {
        (int(r.doc_id_a), int(r.doc_id_b)): (int(r.n_shared), r.overlap)
        for r in df.itertuples()
    }
    docs = pq.read_table(
        sf + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    corpus = {int(i): t for i, t in zip(docs["doc_id"], docs["text"])}
    for i in list(corpus):
        if i % EXACT_COPY_EVERY == 0:
            corpus[i + EXACT_COPY_OFFSET] = corpus[i]
        if i % NEAR_DUP_EVERY == 0:
            corpus[i + NEAR_DUP_OFFSET] = " ".join(
                tokenize_ws(corpus[i])[:-1]
            )
    all_fps = {i: set(winnow_fingerprints(t)) for i, t in corpus.items()}
    from collections import Counter

    dfreq = Counter(h for s_ in all_fps.values() for h in s_)
    fps = {
        i: {h for h in s_ if 2 <= dfreq[h] <= FP_MAX_DF}
        for i, s_ in all_fps.items()
    }
    expect = {}
    ids = sorted(fps)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            a, b = ids[x], ids[y]
            sh = len(fps[a] & fps[b])
            mn = min(len(fps[a]), len(fps[b]))
            if (mn > 0 and sh >= FP_MIN_SHARED
                    and FP_OVERLAP_DEN * sh >= FP_OVERLAP_NUM * mn):
                expect[(a, b)] = (
                    sh, ((sh * 2_000_000 + mn) // (2 * mn)) / 1e6
                )
    assert got == expect
    # exact twins with enough kept fingerprints pair at overlap 1.0
    twins = [
        (i, i + EXACT_COPY_OFFSET)
        for i in corpus
        if i < NEAR_DUP_OFFSET and i % EXACT_COPY_EVERY == 0
        and len(fps[i]) >= FP_MIN_SHARED
    ]
    assert twins  # the fixture keeps discriminative fps at this scale
    for pair in twins:
        assert got[pair][1] == 1.0



def test_bigram_logprob_matches_serial(ray_session):
    """Distributed bigram LM score == single-process counting, and
    short docs (< 2 tokens) emit 0/0/0.0 rather than dropping."""
    from collections import Counter

    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.functions.text import (
        tokenize_ws,
    )
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        bigram_logprob,
    )

    sf = "/root/testdata/sf0.001"
    df = (
        bigram_logprob(sf).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    t = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)

    def grams(s):
        toks = tokenize_ws(s)
        return [toks[i] + " " + toks[i + 1] for i in range(len(toks) - 1)]

    model = Counter()
    for s in t["text"]:
        model.update(grams(s))
    total = sum(model.values())
    d_log = total.bit_length() - 1
    exp_n, exp_s, exp_q = [], [], []
    for s in t["text"]:
        g = grams(s)
        slp = sum(model[x].bit_length() - 1 for x in g)
        exp_n.append(len(g))
        exp_s.append(slp)
        exp_q.append(
            (slp * 1_000_000 // (len(g) * d_log)) / 1e6
            if g and d_log else 0.0
        )
    assert len(df) == len(t)
    assert (df["doc_id"].to_numpy() == t["doc_id"].to_numpy()).all()
    assert df["n_bigrams"].tolist() == exp_n
    assert df["sum_log2"].tolist() == exp_s
    assert df["lm2_score"].tolist() == exp_q
    # an LM over the corpus itself scores most docs mid-range
    assert df["lm2_score"].max() <= 1.0


def test_bigram_logprob_join_path_matches_broadcast(ray_session):
    """Threshold 0 forces the bigram-explode join; results must be
    integer-identical to the broadcast path."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        bigram_logprob,
    )

    sf = "/root/testdata/sf0.001"
    a = (
        bigram_logprob(sf).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        bigram_logprob(sf, broadcast_max_types=0).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert len(a) == len(b) == 500
    assert a.equals(b)


def _serial_pq_train(Xq, sub):
    """Single-process reproduction of the production integer-Lloyd PQ
    trainer (pq_encode contract): init from the PQ_K lowest-vec_id
    subvectors, PQ_ITERS assign/update rounds, empty codewords kept."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        PQ_ITERS,
        PQ_K,
        PQ_M,
    )

    books, codes = [], {}
    for m in range(PQ_M):
        Xs = Xq[:, m * sub:(m + 1) * sub]
        book = Xs[:PQ_K].copy()
        for _ in range(PQ_ITERS):
            d = ((Xs[:, None, :] - book[None, :, :]) ** 2).sum(axis=2)
            cl = d.argmin(axis=1)
            for j in range(PQ_K):
                mask = cl == j
                if mask.any():
                    book[j] = Xs[mask].sum(axis=0) // mask.sum()
        books.append(book)
        d = ((Xs[:, None, :] - book[None, :, :]) ** 2).sum(axis=2)
        codes[m] = d.argmin(axis=1)
    return books, codes


def test_pq_encode_matches_serial_lloyd(ray_session):
    """Distributed integer-PQ training must equal a single-process
    reproduction of the same fixed-iteration integer Lloyd, and the
    codes must actually compress (multiple vectors share codewords)."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        PQ_K,
        PQ_M,
        PQ_OFF,
        pq_encode,
    )

    sf = "/root/testdata/sf0.001"
    df = pq_encode(sf).to_pandas().sort_values("vec_id").reset_index(
        drop=True
    )
    t = pq.read_table(f"{sf}/embeddings.parquet").to_pandas().sort_values(
        "vec_id"
    )
    X = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    Xq = np.floor(X * 1e6 + 0.5).astype(np.int64) + PQ_OFF
    dim = X.shape[1]
    sub = dim // PQ_M
    _, codes = _serial_pq_train(Xq, sub)
    assert (df["vec_id"].to_numpy() == t["vec_id"].to_numpy()).all()
    for m in range(PQ_M):
        assert (df[f"code_{m}"].to_numpy() == codes[m]).all(), m
    # compression: every code is in range and codewords are shared
    for m in range(PQ_M):
        assert df[f"code_{m}"].between(0, PQ_K - 1).all()
        assert df[f"code_{m}"].nunique() <= PQ_K < len(df)


def test_pq_search_adc_matches_serial(ray_session):
    """The distributed ADC scan must equal a serial lookup-table
    reproduction over the same trained codebooks, and ADC ranking must
    broadly agree with exact cosine on the near-duplicate planted pairs
    (PQ is approximate, but codes of identical vectors are identical)."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        PQ_M,
        PQ_OFF,
        pq_search,
    )
    from web_content_extraction_benchmark_ray.stages.simsearch import (
        KNN_K,
        N_QUERIES,
    )

    sf = "/root/testdata/sf0.001"
    df = pq_search(sf).to_pandas().sort_values(
        ["query_id", "rank"]
    ).reset_index(drop=True)
    t = pq.read_table(f"{sf}/embeddings.parquet").to_pandas().sort_values(
        "vec_id"
    )
    X = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    ids = t["vec_id"].to_numpy()
    Xq = np.floor(X * 1e6 + 0.5).astype(np.int64) + PQ_OFF
    dim = X.shape[1]
    sub = dim // PQ_M
    books, codes = _serial_pq_train(Xq, sub)
    qmask = ids < N_QUERIES
    expect = []
    for qi in np.where(qmask)[0]:
        adc = np.zeros(len(ids), np.int64)
        for m in range(PQ_M):
            lut = ((Xq[qi, m * sub:(m + 1) * sub][None, :]
                    - books[m]) ** 2).sum(axis=1)
            adc += lut[codes[m]]
        keep = ids != ids[qi]
        order = np.lexsort((ids[keep], adc[keep]))[:KNN_K]
        for r, oi in enumerate(order):
            expect.append(
                (int(ids[qi]), int(ids[keep][oi]), r + 1,
                 int(adc[keep][oi]))
            )
    got = list(
        df[["query_id", "vec_id", "rank", "adc"]].itertuples(
            index=False, name=None
        )
    )
    assert sorted(got) == sorted(expect)
    assert df.groupby("query_id")["rank"].max().eq(KNN_K).all()


def test_ann_recall_counts_real_overlap(ray_session):
    """Recall rows cover every query; overlap == |exact ∩ pq| recomputed
    from the two in-engine pipelines; planted near-dup corpora keep PQ
    recall well above zero."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        ann_recall,
        knn_cosine,
        pq_search,
    )
    from web_content_extraction_benchmark_ray.stages.simsearch import (
        KNN_K,
        N_QUERIES,
    )

    sf = "/root/testdata/sf0.001"
    df = ann_recall(sf).to_pandas().set_index("query_id")
    assert len(df) == N_QUERIES
    ex = knn_cosine(sf).to_pandas().groupby("query_id")["vec_id"].apply(set)
    ap = pq_search(sf).to_pandas().groupby("query_id")["vec_id"].apply(set)
    for qid in ex.index:
        ov = len(ex[qid] & ap[qid])
        assert df.loc[qid, "n_overlap"] == ov
        assert df.loc[qid, "recall_pct"] == 100 * ov // KNN_K
    assert df["n_overlap"].between(0, KNN_K).all()
    assert df["n_overlap"].sum() > 0  # 4x16 codes retain real signal

def test_semdedup_prunes_planted_copies(ray_session):
    """semdedup over the driver corpus: every planted exact copy
    (vec_id = base + EMB_COPY_OFFSET) is pruned (keep=0) in favour of
    its lower-id original (keep=1), and both land in the same cluster."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        EMB_COPY_EVERY,
        EMB_COPY_OFFSET,
        semdedup,
    )

    sf = "/root/testdata/sf0.001"
    df = semdedup(sf).to_pandas().set_index("vec_id")
    copies = [i for i in df.index if i >= EMB_COPY_OFFSET]
    assert copies, "corpus should plant exact copies"
    for c in copies:
        base = c - EMB_COPY_OFFSET
        assert base % EMB_COPY_EVERY == 0
        assert df.loc[c, "keep"] == 0
        assert df.loc[base, "keep"] == 1
        assert df.loc[c, "cluster"] == df.loc[base, "cluster"]
    # pruning is strict: at least one vec kept per cluster
    kept_per_cluster = df.groupby("cluster")["keep"].sum()
    assert (kept_per_cluster >= 1).all()


def test_semdedup_ref_cap_bounds_degenerate_cluster(ray_session):
    """A cluster of identical vectors larger than SEMDEDUP_REF_CAP: the
    capped reference set still prunes every member but the global-min id
    (cos=1.0 against ref id 0), and the job completes with dim x CAP
    per-row work — the posting-list-cap discipline for the quadratic
    within-cluster compare."""
    import ray

    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        SEMDEDUP_REF_CAP,
        semdedup_flags,
    )

    n, d = SEMDEDUP_REF_CAP + 50, 8
    vec = np.ones(d, dtype=np.float32)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.arange(n, dtype=np.int64)),
                "embedding": pa.array(
                    np.tile(vec, (n, 1)).tolist(), pa.list_(pa.float32())
                ),
            }
        )
    )
    cents = np.tile(vec.astype(np.float64), (2, 1))
    cents[1] = -cents[1]
    df = semdedup_flags(ds, cents).to_pandas().sort_values("vec_id")
    assert len(df) == n
    assert (df["cluster"] == 0).all()
    assert df["keep"].sum() == 1
    assert df.loc[df["keep"] == 1, "vec_id"].item() == 0

def test_cc_bucket_labels_components(ray_session):
    """cc_bucket_labels over a hand-built pair graph: every node gets its
    component's min id as label (chains propagate transitively)."""
    import ray

    from web_content_extraction_benchmark_ray.stages.dedup import (
        cc_bucket_labels,
    )

    pairs = pa.table(
        {
            "doc_id_a": pa.array([1, 2, 10, 20, 21, 22], pa.int64()),
            "doc_id_b": pa.array([2, 3, 11, 21, 22, 23], pa.int64()),
        }
    )
    labels = cc_bucket_labels(ray.data.from_arrow(pairs))
    df = labels.to_pandas()
    got = dict(zip(df["key"], df["val"]))
    assert got == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10,
                   20: 20, 21: 20, 22: 20, 23: 20}
    # empty pair set -> None sentinel (survivors path returns all docs)
    empty = cc_bucket_labels(
        ray.data.from_arrow(pairs.slice(0, 0))
    )
    assert empty is None


def test_dup_cluster_sizes_histogram(ray_session):
    """dup_cluster_sizes over the driver corpus: sizes start at 2, and
    sum(size * n_clusters) equals the number of distinct docs appearing
    in any verified minhash pair (nodes of the CC graph)."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        _aug_docs,
        dup_cluster_sizes,
    )
    from web_content_extraction_benchmark_ray.stages import dedup as dd

    sf = "/root/testdata/sf0.001"
    hist = dup_cluster_sizes(sf).to_pandas()
    assert (hist["size"] >= 2).all()
    pairs = dd.dedup_minhash_pairs(_aug_docs(sf)).to_pandas()
    nodes = set(pairs["doc_id_a"]) | set(pairs["doc_id_b"])
    assert (hist["size"] * hist["n_clusters"]).sum() == len(nodes)

def test_bucketed_groupby_count_op(ray_session):
    """vecagg's count op: exact per-key row counts regardless of the
    value column's contents, alongside a sum over the same key."""
    import ray

    from web_content_extraction_benchmark_ray.stages.vecagg import (
        bucketed_groupby,
    )

    t = pa.table(
        {
            "k": pa.array([1, 2, 1, 3, 2, 1], pa.int64()),
            "v": pa.array([10, 20, 30, 40, 50, 60], pa.int64()),
        }
    )
    out = bucketed_groupby(
        ray.data.from_arrow(t), "k", ["v", "k"], ["sum", "count"],
        out_names=["v_sum", "n"],
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == [1, 2, 3]
    assert out["v_sum"].tolist() == [100, 70, 40]
    assert out["n"].tolist() == [3, 2, 1]

def test_dedup_incremental_minhash_families(ray_session):
    """The near-dup incremental screen: exact copies and dropped-last-word
    near-dups are dups of the standing corpus; token-reversed docs (every
    shingle rewritten) are novel — and a tiny Bloom (forcing false
    positives through the confirm) must not change the output."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        EXACT_COPY_OFFSET,
        INC_NOVEL_OFFSET,
        NEAR_DUP_OFFSET,
        dedup_incremental_minhash,
    )

    sf = "/root/testdata/sf0.001"
    novel = set(
        dedup_incremental_minhash(sf).to_pandas()["doc_id"].astype(int)
    )
    assert novel, "reversed family should be novel"
    assert all(i >= INC_NOVEL_OFFSET for i in novel)
    assert not any(
        EXACT_COPY_OFFSET <= i < EXACT_COPY_OFFSET + 1_000_000
        for i in novel
    )
    assert not any(
        NEAR_DUP_OFFSET <= i < NEAR_DUP_OFFSET + 1_000_000 for i in novel
    )
    # 64 bloom bits ~ guaranteed false positives; exact confirm holds
    tiny = set(
        dedup_incremental_minhash(sf, bloom_bits=64)
        .to_pandas()["doc_id"].astype(int)
    )
    assert tiny == novel

def test_hash_embed_matches_serial(ray_session):
    """hash_embed against a serial mirror: signed token counts per hashed
    dimension, nonzero rows only, zero-shuffle long format."""
    from web_content_extraction_benchmark_ray.functions.hashing import hash60
    from web_content_extraction_benchmark_ray.functions.text import tokenize_ws
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        HASH_EMBED_DIM,
        hash_embed,
    )

    import pyarrow.parquet as pq

    sf = "/root/testdata/sf0.001"
    df = hash_embed(sf).to_pandas()
    texts = pq.read_table(f"{sf}/documents.parquet",
                          columns=["doc_id", "text"])
    want: dict = {}
    for i, t in zip(texts.column("doc_id").to_pylist(),
                    texts.column("text").to_pylist()):
        for tok in tokenize_ws(t):
            h = hash60(tok)
            k = (int(i), h % HASH_EMBED_DIM)
            want[k] = want.get(k, 0) + (1 - 2 * ((h >> 30) & 1))
    want = {k: v for k, v in want.items() if v != 0}
    got = {
        (int(r.doc_id), int(r.dim)): int(r.weight)
        for r in df.itertuples()
    }
    assert got == want
    assert (df["dim"] >= 0).all() and (df["dim"] < HASH_EMBED_DIM).all()

def test_hash_embed_knn_serial_mirror(ray_session):
    """hash_embed_knn against a dense numpy mirror: integer dot-product
    ranking, positive scores only, self excluded, ties to lowest id."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.functions.text import tokenize_ws
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        HE_K,
        HE_NQ,
        _he_vec,
        hash_embed_knn,
    )

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    ids = np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64)
    vecs = np.stack(
        [_he_vec(tokenize_ws(x)) for x in t.column("text").to_pylist()]
    )
    got = hash_embed_knn(sf).to_pandas()
    for qid in range(HE_NQ):
        qv = vecs[ids == qid][0]
        s = vecs @ qv
        ok = np.flatnonzero((s > 0) & (ids != qid))
        want = ok[np.lexsort((ids[ok], -s[ok]))][:HE_K]
        sub = got[got["query_id"] == qid].sort_values("rank")
        assert sub["doc_id"].tolist() == ids[want].tolist()
        assert sub["score"].tolist() == s[want].tolist()
        assert sub["rank"].tolist() == list(range(1, len(want) + 1))

def test_fingerprint_join_path_equals_broadcast(ray_session):
    """fingerprint_dup_pairs' attach (join) path — forced by a zero
    broadcast gate — produces the identical pair set and scores as the
    broadcast kept-count map (the dual-path contract)."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        _aug_docs,
    )
    from web_content_extraction_benchmark_ray.stages.dedup import (
        fingerprint_dup_pairs,
    )

    sf = "/root/testdata/sf0.001"
    key = ["doc_id_a", "doc_id_b"]
    a = (
        fingerprint_dup_pairs(_aug_docs(sf))
        .to_pandas().sort_values(key).reset_index(drop=True)
    )
    b = (
        fingerprint_dup_pairs(_aug_docs(sf), broadcast_max_docs=0)
        .to_pandas().sort_values(key).reset_index(drop=True)
    )
    assert len(a) and a.equals(b)

@settings(max_examples=8, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 40)),
        min_size=1, max_size=60,
    )
)
def test_cc_bucket_labels_equals_union_find(ray_session, edges):
    """Property: on random pair graphs, the distributed min-label
    propagation assigns every node its component's MINIMUM id — checked
    against a serial union-find ground truth."""
    import ray

    from web_content_extraction_benchmark_ray.stages.dedup import (
        cc_bucket_labels,
    )

    edges = [(a, b) for a, b in edges if a != b]
    if not edges:
        return
    pairs = pa.table(
        {
            "doc_id_a": pa.array([a for a, _ in edges], pa.int64()),
            "doc_id_b": pa.array([b for _, b in edges], pa.int64()),
        }
    )
    labels = cc_bucket_labels(ray.data.from_arrow(pairs), max_iters=100)
    df = labels.to_pandas()
    got = dict(zip(df["key"].astype(int), df["val"].astype(int)))

    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comp: dict = {}
    for n in parent:
        comp.setdefault(find(n), []).append(n)
    want = {n: min(m) for m in comp.values() for n in m}
    assert got == want


def test_band_row_memo_invalidates_on_rewrite(ray_session, tmp_path):
    """The minhash band-row memo keys on file mtime: rewriting
    documents.parquet at the same path must recompute, not serve the old
    corpus's rows."""
    import os
    import time

    import pyarrow.parquet as pqm

    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        _aug_band_rows,
    )

    d = str(tmp_path)

    def write(texts):
        pqm.write_table(
            pa.table(
                {
                    "doc_id": pa.array(
                        list(range(len(texts))), pa.int64()
                    ),
                    "text": pa.array(texts, pa.string()),
                }
            ),
            os.path.join(d, "documents.parquet"),
        )

    write(["alpha beta gamma delta epsilon zeta"] * 3)
    n1 = _aug_band_rows(d).count()
    assert _aug_band_rows(d).count() == n1  # memo hit, same answer
    time.sleep(0.02)
    write(["alpha beta gamma delta epsilon zeta"] * 7)
    n2 = _aug_band_rows(d).count()
    assert n2 > n1  # rewritten corpus -> fresh band rows


def test_decontaminate_fuzzy_catches_planted_bench_dups(ray_session):
    """Every planted exact copy of a benchmark doc must be flagged at
    est_jaccard 1.0 against that doc; every flagged pair points at a
    benchmark doc and clears the 0.5 threshold; the pair set is
    band-distinct (no per-band duplicates)."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.curation import (
        DECON_EVERY,
    )
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        EXACT_COPY_EVERY,
        EXACT_COPY_OFFSET,
        decontaminate_fuzzy,
    )

    sf = "/root/testdata/sf0.001"
    df = decontaminate_fuzzy(sf).to_pandas()
    ids = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id"]
    ).column("doc_id").to_pylist()

    assert not df.duplicated(["doc_id", "bench_id"]).any()
    assert (df["est_jaccard"] >= 0.5).all()
    assert (df["bench_id"] % DECON_EVERY == 0).all()

    pairs = set(zip(df["doc_id"], df["bench_id"]))
    for i in ids:
        if i % DECON_EVERY == 0 and i % EXACT_COPY_EVERY == 0:
            assert (i + EXACT_COPY_OFFSET, i) in pairs
            row = df[
                (df["doc_id"] == i + EXACT_COPY_OFFSET)
                & (df["bench_id"] == i)
            ]
            assert float(row["est_jaccard"].iloc[0]) == 1.0


def test_decontaminate_fuzzy_survivors_is_exact_complement(ray_session):
    """Survivors must equal the augmented id universe minus the flagged
    side of decontaminate_fuzzy, with no duplicates — pins the factored
    anti_join_doc_ids co-group against a driver-side set difference."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        _aug_docs,
        decontaminate_fuzzy,
        decontaminate_fuzzy_survivors,
    )

    sf = "/root/testdata/sf0.001"
    all_ids = set(_aug_docs(sf).to_pandas()["doc_id"])
    flagged = set(decontaminate_fuzzy(sf).to_pandas()["doc_id"])
    got = decontaminate_fuzzy_survivors(sf).to_pandas()["doc_id"]
    assert not got.duplicated().any()
    assert set(got) == all_ids - flagged
    assert len(flagged) > 0


def test_importance_resample_is_exact_systematic(ray_session):
    """Systematic-resampler invariants: total copies == N exactly, each
    doc gets floor or ceil of its expectation N*w/W, and the counts
    equal a serial lattice sweep over the same cumulative axis."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        importance_resample,
        importance_weights,
    )

    sf = "/root/testdata/sf0.001"
    df = importance_resample(sf).to_pandas().set_index("doc_id").sort_index()
    iw = importance_weights(sf).to_pandas().set_index("doc_id").sort_index()
    assert (df["weight"] == iw["sum_ratio"].clip(lower=0) + 1).all()

    n = len(df)
    w_total = int(df["weight"].sum())
    assert int(df["n_copies"].sum()) == n

    exp = df["weight"].to_numpy() * n / w_total
    got = df["n_copies"].to_numpy()
    assert (got >= np.floor(exp) - 1e-9).all()
    assert (got <= np.ceil(exp) + 1e-9).all()

    # serial lattice sweep: points (k + 1/2) * W / N in doc_id order
    cum = 0
    for doc_id, row in df.iterrows():
        lo, cum = cum, cum + int(row["weight"])
        n_in = sum(
            1 for k in range(n) if lo * 2 * n <= (2 * k + 1) * w_total
            and (2 * k + 1) * w_total < cum * 2 * n
        )
        assert n_in == row["n_copies"], doc_id


def test_decontaminate_fuzzy_respects_posting_cap(
    ray_session, monkeypatch, caplog
):
    """The benchmark posting dict honors LSH_POSTING_CAP: with the cap
    forced to 0 every benchmark list drops (with the loud log), the op
    still completes, and its output is empty — bounded-time behavior on
    a degenerate bench side, mirroring the other LSH cap tests."""
    import logging

    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        decontaminate_fuzzy,
    )
    from web_content_extraction_benchmark_ray.stages import dedup as dd

    sf = "/root/testdata/sf0.001"
    full = decontaminate_fuzzy(sf).to_pandas()
    assert len(full) > 0
    monkeypatch.setattr(dd, "LSH_POSTING_CAP", 0)
    drops_before = dd.CAP_DROP_COUNT
    with caplog.at_level(logging.WARNING):
        capped = decontaminate_fuzzy(sf).to_pandas()
    assert len(capped) == 0
    assert any(
        "decontaminate_fuzzy" in r.message and "dropped" in r.message
        for r in caplog.records
    )
    # driver-visible cap-drop telemetry: oracle harnesses hard-fail on
    # this counter moving during a checked query (ADVICE r4)
    assert dd.CAP_DROP_COUNT > drops_before


def test_decontaminate_fuzzy_counts_cap_drops_on_memo_hits(
    ray_session, monkeypatch
):
    """The capped posting is memoized with its drop count, and the count
    lands in CAP_DROP_COUNT on every call: a second decontaminate_fuzzy
    over the same corpus (a memo hit) moves the counter as the first
    did."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        decontaminate_fuzzy,
    )
    from web_content_extraction_benchmark_ray.stages import dedup as dd

    sf = "/root/testdata/sf0.001"
    monkeypatch.setattr(dd, "LSH_POSTING_CAP", 0)
    moved = []
    for _ in range(2):
        before = dd.CAP_DROP_COUNT
        assert decontaminate_fuzzy(sf).count() == 0
        moved.append(dd.CAP_DROP_COUNT - before)
    assert moved[0] > 0
    assert moved[1] == moved[0]


def _cdc_brute(text):
    """Pure-Python restatement of the CDC cut rule."""
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        CDC_D,
        CDC_M,
        CDC_W,
        CDC_WEIGHTS,
    )

    n = len(text)
    cuts = []
    for pos in range(CDC_W - 1, n):
        h = sum(
            ord(text[pos - i]) * CDC_WEIGHTS[i] for i in range(CDC_W)
        ) % CDC_M
        if h % CDC_D == 0:
            cuts.append(pos + 1)
    if not cuts or cuts[-1] != n:
        cuts.append(n)
    prev, out = 0, []
    for k, c in enumerate(cuts):
        out.append((k, prev, c))
        prev = c
    return out


def test_cdc_chunks_tile_docs_and_match_brute_force(ray_session):
    from web_content_extraction_benchmark_ray.functions.hashing import hash60
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        cdc_chunks,
    )

    sf = "/root/testdata/sf0.001"
    df = (
        cdc_chunks(sf).to_pandas()
        .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    )
    import pyarrow.parquet as pq

    docs = dict(
        zip(
            *pq.read_table(
                sf + "/documents.parquet", columns=["doc_id", "text"]
            ).to_pydict().values()
        )
    )
    # chunks tile every doc exactly: starts chain, ends at len(text)
    for did, g in df.groupby("doc_id"):
        text = docs[did]
        assert g["chunk_id"].tolist() == list(range(len(g)))
        assert g["start_off"].iloc[0] == 0
        assert g["end_off"].iloc[-1] == len(text)
        assert (g["start_off"].iloc[1:].values
                == g["end_off"].iloc[:-1].values).all()
        assert (g["chunk_len"] == g["end_off"] - g["start_off"]).all()
    # brute-force cut rule + content hash on a sample of docs
    for did in list(docs)[:20]:
        text = docs[did]
        g = df[df["doc_id"] == did]
        got = list(
            g[["chunk_id", "start_off", "end_off"]].itertuples(
                index=False, name=None
            )
        )
        assert got == _cdc_brute(text)
        assert g["chunk_h60"].tolist() == [
            hash60(text[s:e]) for _, s, e in got
        ]


def test_cdc_chunks_edit_only_perturbs_locally():
    """The defining CDC property: an edit near the front of a document
    changes only the chunks around it — boundaries re-synchronize and
    every later chunk hash survives (position-based fixed windows would
    shift every downstream chunk)."""
    import numpy as np

    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        CDC_M,
        CDC_W,
        CDC_WEIGHTS,
        cdc_chunks,  # noqa: F401  (import path exercised)
    )

    rng = np.random.default_rng(7)
    text = "".join(
        chr(97 + int(c)) for c in rng.integers(0, 26, size=4000)
    )
    edited = text[:100] + "XYZ" + text[100:]
    before = {(s, e): text[s:e] for _, s, e in _cdc_brute(text)}
    after = {(s, e): edited[s:e] for _, s, e in _cdc_brute(edited)}
    shared = set(before.values()) & set(after.values())
    # all but a handful of chunks survive the edit verbatim
    assert len(shared) >= len(before) - 3
    assert len(before) > 20  # the sweep actually cut


def test_cdc_weights_match_polynomial():
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        CDC_A,
        CDC_M,
        CDC_WEIGHTS,
    )

    assert CDC_WEIGHTS[0] == 1
    for i in range(1, len(CDC_WEIGHTS)):
        assert CDC_WEIGHTS[i] == (CDC_WEIGHTS[i - 1] * CDC_A) % CDC_M
