"""Complexity classifier — the M2 capability (reference
``complexity.py:197-214, 301-311``): binarize page complexity at the
global median, train a linear classifier on the 15 HTML tag features over
a deterministic 75/25 split, and report accuracy / F1 / MCC per split.

The reference trains sklearn LogisticRegression in one process.  The
distributed re-design trains by **integer-exact batch gradient descent**
(least-squares linear probe): features are quantized to int64 at 1e-6
resolution, weights live on an integer grid, and every per-iteration
reduction is an integer sum — associative and order-independent — so the
distributed partial sums and the oracle's SQL SUMs produce *bit-identical*
weights, making a trained model hash-verifiable end to end (the same
trick as kmeans_iterate).  Division is TRUNCATING (DuckDB ``//``
semantics), mirrored exactly by ``_tdiv``.

Shuffle shape: one hash join (features ⋈ labels on doc_id), then the
quantized 17-int rows materialize once; each GD iteration is a map-side
partial gradient (one 16-int row per block) + a driver-side sum of
#blocks rows — the shuffle never moves feature vectors, and the driver
pull is bounded by block count, not data size.
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrownp import list_matrix, num_col
from ..functions.hashing import hash60
from ..functions.text import round6
from ..state.memo import memo

CLF_ITERS = 20
CLF_LRD = 2  # learning rate = 1 / CLF_LRD
CLF_TRAIN_PCT = 75
SCALE = 1_000_000  # feature/weight quantization grid
THRESH = SCALE * SCALE // 2  # logical 0.5 at the margin's 1e12 scale
N_DIMS = 16  # 15 features + bias


def _tdiv(a: np.ndarray, b: int) -> np.ndarray:
    """Truncating integer division (DuckDB ``//``), vectorized."""
    return np.sign(a) * (np.abs(a) // b)


def grad_partial_rows(x: np.ndarray, y: np.ndarray, w_list: list[int],
                      dims: int) -> pa.Table:
    """Per-block integer gradient partials with the same overflow
    discipline as project._scatter_matrix: ``r @ x`` accumulates in int64,
    which wraps SILENTLY at rows · max|r| · max|x| ≥ 2^63 (html_to_non_html
    is unbounded on tag-dense/word-free pages, so |r| can reach ~5e7·|w|).
    Emit one partial row per sub-chunk sized so every int64 sub-sum
    provably fits; escalate to exact object-int math when a single product
    could overflow — Arrow then raises loudly instead of numpy wrapping."""
    if len(y) == 0:
        return pa.table({"g": pa.array([[0] * dims], pa.list_(pa.int64()))})
    mxx = int(np.abs(x).max()) if x.size else 0
    mxw = max((abs(int(v)) for v in w_list), default=0)
    if mxx and mxw and mxx * mxw * dims >= (1 << 62):
        # the margin x @ w itself can exceed int64: exact object ints
        wv = np.asarray([int(v) for v in w_list], dtype=object)
        r = np.asarray(
            [_tdiv_i(int(m), SCALE) for m in x.astype(object) @ wv],
            dtype=object,
        ) - y.astype(object) * SCALE
    else:
        wv = np.asarray(w_list, dtype=np.int64)
        r = _tdiv(x @ wv, SCALE) - y * SCALE
    mxr = int(max(abs(int(r.max())), abs(int(r.min()))))
    step = len(y)
    if mxr and mxx:
        step = max(1, min(step, (1 << 61) // (mxr * mxx)))
    rows = []
    for lo in range(0, len(y), step):
        rs, xs = r[lo:lo + step], x[lo:lo + step]
        if mxr and mxx and mxr * mxx >= (1 << 61):
            rs, xs = rs.astype(object), xs.astype(object)
        rows.append([int(v) for v in rs @ xs])
    return pa.table({"g": pa.array(rows, pa.list_(pa.int64()))})


def _tdiv_i(a: int, b: int) -> int:
    """Truncating division on Python ints (object-math escalation path)."""
    return (abs(a) // b) * (1 if a >= 0 else -1)


def reduce_grad(parts: pd.DataFrame, dims: int) -> np.ndarray:
    """Driver reduce of the partial-gradient rows in exact Python ints
    (any number of rows; the final per-dim sum must fit int64 — Arrow/
    numpy would have raised upstream otherwise)."""
    total = [0] * dims
    for row in parts["g"]:
        for i in range(dims):
            total[i] += int(row[i])
    return np.asarray(total, dtype=np.int64)


def _median_complexity(sf_dir: str) -> float:
    from .complexity import complexity_quantiles

    qdf = complexity_quantiles(sf_dir, qs=(0.5,))
    return float(qdf["value"][0])


def clf_examples(sf_dir: str):
    """Materialized Dataset (doc_id, xq list<int64>[16], y, split): the
    15 features + bias quantized, label = complexity >= global median,
    deterministic content-hash split.  Memoized per (documents file, Ray
    job) (``state/memo``) — five consumers (classify, alignment,
    projection, both scatter frames) start from this same join, which
    dominates their cost; one process computes it once."""
    return memo(
        "classify.examples", os.path.join(sf_dir, "documents.parquet"),
        lambda: _clf_examples_build(sf_dir).materialize(),
    )


def _clf_examples_build(sf_dir: str):
    from .complexity import FEATURE_TAGS, complexity_ds, features_pipeline

    med = _median_complexity(sf_dir)
    feats = features_pipeline(sf_dir)
    labels = complexity_ds(sf_dir).drop_columns(["dataset"])
    joined = feats.join(
        labels, join_type="inner", num_partitions=8, on=("doc_id",)
    )
    order = list(FEATURE_TAGS) + ["html_to_non_html"]

    def quantize(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = [num_col(batch, c, np.float64) for c in order]
        x = np.column_stack(cols + [np.ones(n)])
        xq = np.floor(x * SCALE + 0.5).astype(np.int64)
        compl = num_col(batch, "complexity", np.float64)
        ids = [int(i) for i in batch.column("doc_id").to_pylist()]
        split = [
            "train" if hash60(f"clf:{i}") % 100 < CLF_TRAIN_PCT else "test"
            for i in ids
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "xq": pa.array([r.tolist() for r in xq],
                               pa.list_(pa.int64())),
                "y": pa.array((compl >= med).astype(np.int64), pa.int64()),
                "split": pa.array(split, pa.string()),
            }
        )

    return joined.map_batches(quantize, batch_format="pyarrow")


def train_weights(train_ds, n_train: int, iters: int = CLF_ITERS) -> np.ndarray:
    """Integer-grid GD: per-block partial gradients (16-int rows), summed
    on the driver (#blocks rows), truncating-division weight update."""
    w = np.zeros(N_DIMS, dtype=np.int64)
    for _ in range(iters):
        w_list = [int(v) for v in w]

        def grad_partial(batch: pa.Table, w_list=w_list) -> pa.Table:
            xq = list_matrix(batch.column("xq"), np.int64)
            y = num_col(batch, "y", np.int64)
            return grad_partial_rows(xq, y, w_list, N_DIMS)

        parts = train_ds.map_batches(
            grad_partial, batch_format="pyarrow"
        ).to_pandas()
        g = reduce_grad(parts, N_DIMS)
        w = w - _tdiv(g, CLF_LRD * n_train * SCALE)
    return w


def trained_weights(sf_dir: str) -> list[int]:
    """Final integer GD weights, memoized like ``clf_examples``:
    complexity_classify and the classes scatter frame share the
    20-iteration training instead of repeating it."""

    def build():
        # materialize the filtered split once: the count pass plus the
        # 20 GD iterations would otherwise re-run the filter scan 21x
        train_ds = clf_examples(sf_dir).filter(
            expr="split == 'train'"
        ).materialize()
        return [int(v) for v in train_weights(train_ds, train_ds.count())]

    return memo(
        "classify.weights", os.path.join(sf_dir, "documents.parquet"), build
    )


def complexity_classify(sf_dir: str):
    """Train on the 75% split, evaluate on both splits; output one row per
    split: (split, n, tp, fp, tn, fn, accuracy, f1, mcc)."""
    from ray.data.aggregate import Sum

    fx = clf_examples(sf_dir)
    w_list = trained_weights(sf_dir)

    def confusion_partial(batch: pa.Table, w_list=w_list) -> pa.Table:
        xq = list_matrix(batch.column("xq"), np.int64)
        y = num_col(batch, "y", np.int64)
        split = batch.column("split").to_pylist()
        if len(y) == 0:
            return pa.table(
                {
                    "split": pa.array([], pa.string()),
                    "tp": pa.array([], pa.int64()),
                    "fp": pa.array([], pa.int64()),
                    "tn": pa.array([], pa.int64()),
                    "fn": pa.array([], pa.int64()),
                }
            )
        pred = (xq @ np.asarray(w_list, dtype=np.int64) >= THRESH).astype(
            np.int64
        )
        out: dict[str, list] = {k: [] for k in ("split", "tp", "fp", "tn", "fn")}
        sarr = np.asarray(split)
        for s in sorted(set(split)):
            mask = sarr == s
            p, t = pred[mask], y[mask]
            out["split"].append(s)
            out["tp"].append(int(((p == 1) & (t == 1)).sum()))
            out["fp"].append(int(((p == 1) & (t == 0)).sum()))
            out["tn"].append(int(((p == 0) & (t == 0)).sum()))
            out["fn"].append(int(((p == 0) & (t == 1)).sum()))
        return pa.table(
            {
                "split": pa.array(out["split"], pa.string()),
                **{
                    k: pa.array(out[k], pa.int64())
                    for k in ("tp", "fp", "tn", "fn")
                },
            }
        )

    agg = (
        fx.map_batches(confusion_partial, batch_format="pyarrow")
        .groupby("split")
        .aggregate(Sum("tp"), Sum("fp"), Sum("tn"), Sum("fn"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        tp = num_col(batch, "sum(tp)", np.int64)
        fp = num_col(batch, "sum(fp)", np.int64)
        tn = num_col(batch, "sum(tn)", np.int64)
        fn = num_col(batch, "sum(fn)", np.int64)
        n = tp + fp + tn + fn
        acc = [round6(float((a + b) / c)) for a, b, c in zip(tp, tn, n)]
        f1 = [
            round6(float(2 * a / (2 * a + b + c))) if (2 * a + b + c) else 0.0
            for a, b, c in zip(tp, fp, fn)
        ]
        mcc = []
        for a, b, c, d in zip(tp, fp, tn, fn):
            den = float((a + b) * (a + d) * (c + b) * (c + d))
            mcc.append(
                round6(float((a * c - b * d) / np.sqrt(den))) if den else 0.0
            )
        return pa.table(
            {
                "split": pc.cast(batch["split"], pa.string()),
                "n": pa.array(n, pa.int64()),
                "tp": pa.array(tp, pa.int64()),
                "fp": pa.array(fp, pa.int64()),
                "tn": pa.array(tn, pa.int64()),
                "fn": pa.array(fn, pa.int64()),
                "accuracy": pa.array(acc, pa.float64()),
                "f1": pa.array(f1, pa.float64()),
                "mcc": pa.array(mcc, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# -------------------------------------------------- M1 cluster alignment
def cluster_centroids(fx) -> np.ndarray:
    """k=2 deterministic seeds: the two lowest-doc_id feature vectors
    (driver reads exactly 2 rows)."""
    from .complexity import FEATURE_TAGS

    n_feats = len(FEATURE_TAGS) + 1
    head = fx.sort("doc_id").limit(2).to_pandas()
    return np.array(
        [r[:n_feats] for r in head["xq"]], dtype=np.float64
    ) / SCALE


def cos_assign(xq: np.ndarray, cents: np.ndarray,
               n_feats: int) -> np.ndarray:
    """Max-rounded-cosine centroid assignment (ties to the lowest
    centroid index) — shared by cluster_alignment and the cluster
    scatter figure (pipelines/scatter.py) so the two can never drift."""
    x = xq[:, :n_feats].astype(np.float64) / SCALE

    def norm(m):
        d = np.linalg.norm(m, axis=1, keepdims=True)
        d[d == 0] = 1.0
        return m / d

    cos = np.floor((norm(x) @ norm(cents).T) * SCALE + 0.5) / SCALE
    return cos.argmax(axis=1).astype(np.int64)


def cluster_alignment(sf_dir: str):
    """The reference's k-means label-alignment step (complexity.py:301-311):
    cluster pages into k=2 over the HTML features (deterministic seeds =
    the two lowest-doc_id feature vectors, max-cosine assignment), then
    align cluster ids to the binarized complexity classes by majority —
    flip if agreement < 0.5 — and report the aligned agreement rate.

    Distribution shape: broadcast 2 centroids, per-batch partial
    (cluster == y) match counts, native Sum reduce to ONE row."""
    from ray.data.aggregate import Sum

    from .complexity import FEATURE_TAGS

    fx = clf_examples(sf_dir)  # xq carries the quantized features + bias
    n_feats = len(FEATURE_TAGS) + 1
    cents = cluster_centroids(fx)

    def match_partial(batch: pa.Table) -> pa.Table:
        xq = list_matrix(batch.column("xq"), np.int64)
        y = num_col(batch, "y", np.int64)
        if len(y) == 0:
            return pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "match": pa.array([], pa.int64()),
                }
            )
        cl = cos_assign(xq, cents, n_feats)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "n": pa.array([len(y)], pa.int64()),
                "match": pa.array([int((cl == y).sum())], pa.int64()),
            }
        )

    agg = (
        fx.map_batches(match_partial, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum("n"), Sum("match"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = int(batch["sum(n)"][0].as_py())
        match = int(batch["sum(match)"][0].as_py())
        flipped = 1 if (n - match) > match else 0
        aligned = max(match, n - match)
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "match": pa.array([match], pa.int64()),
                "flipped": pa.array([flipped], pa.int64()),
                "agreement": pa.array([round6(aligned / n)], pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def cluster_ctes() -> list[str]:
    """CTE chain of the k=2 cluster assignment + binarized-complexity
    labels + match totals, reusable by the cluster scatter oracle
    (pipelines/scatter.py).  Ends with ``asg`` (doc_id, cid), ``lab``
    (doc_id, y) and ``mt`` (n, match, flipped)."""
    from .oracles import _R6, html_feature_exprs

    # quantized features (xq/1e6), matching the Ray side exactly
    exprs = [
        f"floor(({e}) * {SCALE} + 0.5) / {SCALE}"
        for _, e in html_feature_exprs()
    ]
    xs = "[" + ", ".join(exprs) + "]"
    from .oracles import BP_WORDS_BODY, GLUE_WORDS

    t = f"(nw + {GLUE_WORDS} * npars)"
    compl = (
        f"1.0 - least(1.0, greatest(0.0, CAST({t} AS DOUBLE) / "
        f"({t} + {BP_WORDS_BODY})))"
    )
    cos_r = (
        "floor(list_cosine_similarity(f.xs, c.xs) * 1000000 + 0.5) / 1000000"
    )
    return [
        f"f AS MATERIALIZED (SELECT doc_id, {xs}::DOUBLE[] AS xs FROM counts)",
        f"""cent AS MATERIALIZED (
  SELECT row_number() OVER (ORDER BY doc_id) - 1 AS cid, xs
  FROM (SELECT doc_id, xs FROM f ORDER BY doc_id LIMIT 2)
)""",
        f"""asg AS MATERIALIZED (
  SELECT doc_id, cid FROM (
    SELECT f.doc_id, c.cid,
           row_number() OVER (PARTITION BY f.doc_id
                              ORDER BY {cos_r} DESC, c.cid) AS rn
    FROM f, cent c
  ) WHERE rn = 1
)""",
        f"cx AS (SELECT doc_id, {compl} AS complexity FROM counts)",
        f"med AS (SELECT {_R6.format('quantile_cont(complexity, 0.5)')} AS v FROM cx)",
        """lab AS (SELECT cx.doc_id,
        CASE WHEN cx.complexity >= med.v THEN 1 ELSE 0 END AS y
        FROM cx, med)""",
        """mt AS (SELECT n, match,
      CAST(CASE WHEN (n - match) > match THEN 1 ELSE 0 END AS BIGINT) AS flipped
      FROM (SELECT count(*) AS n,
            CAST(sum(CASE WHEN a.cid = l.y THEN 1 ELSE 0 END) AS BIGINT) AS match
            FROM asg a JOIN lab l ON l.doc_id = a.doc_id))""",
    ]


def cluster_alignment_oracle_sql() -> str:
    from .oracles import _BASE_CTE, _R6

    return _BASE_CTE + ",\n" + ",\n".join(cluster_ctes()) + f"""
SELECT n, match, flipped,
       {_R6.format('CAST(greatest(match, n - match) AS DOUBLE) / n')} AS agreement
FROM mt"""


# ------------------------------------------------------------------ oracle
def clf_weight_ctes() -> list[str]:
    """CTE chain of the unrolled integer-GD training, reusable by the
    classes scatter oracle (pipelines/scatter.py).  Same quantization
    grid, same truncating division (DuckDB ``//``), same fixed iteration
    count as train_weights — weights are bit-identical.  Ends with
    ``lab`` (doc_id, y, split), ``fx`` (doc_id, d, xq) and ``mf``
    (doc_id, m): the per-doc decision margin under the final weights."""
    from .dataops_oracles import _H60
    from .oracles import _R6, html_feature_exprs

    exprs = [e for _, e in html_feature_exprs()]
    xs = "[" + ", ".join(exprs + ["1.0"]) + "]"
    from .oracles import BP_WORDS_BODY, GLUE_WORDS

    t = f"(nw + {GLUE_WORDS} * npars)"
    compl = (
        f"1.0 - least(1.0, greatest(0.0, CAST({t} AS DOUBLE) / "
        f"({t} + {BP_WORDS_BODY})))"
    )
    split = (
        f"CASE WHEN {_H60.format(chr(39) + 'clf:' + chr(39) + ' || CAST(doc_id AS VARCHAR)')} "
        f"% 100 < {CLF_TRAIN_PCT} THEN 'train' ELSE 'test' END"
    )
    parts = [
        f"f AS MATERIALIZED (SELECT doc_id, {xs} AS xs FROM counts)",
        f"fx AS MATERIALIZED (SELECT doc_id, u.d AS d, "
        f"CAST(floor(xs[u.d] * {SCALE} + 0.5) AS BIGINT) AS xq "
        f"FROM f, UNNEST(generate_series(1, {N_DIMS})) AS u(d))",
        f"cx AS MATERIALIZED (SELECT doc_id, {compl} AS complexity FROM counts)",
        f"med AS MATERIALIZED (SELECT {_R6.format('quantile_cont(complexity, 0.5)')} AS v FROM cx)",
        f"lab AS MATERIALIZED (SELECT cx.doc_id, "
        f"CASE WHEN cx.complexity >= med.v THEN 1 ELSE 0 END AS y, "
        f"{split} AS split FROM cx, med)",
        "ntr AS MATERIALIZED (SELECT count(*) AS n FROM lab WHERE split = 'train')",
        f"w0 AS MATERIALIZED (SELECT u.d AS d, CAST(0 AS BIGINT) AS wq "
        f"FROM UNNEST(generate_series(1, {N_DIMS})) AS u(d))",
    ]
    for r in range(CLF_ITERS):
        parts += [
            f"m{r} AS MATERIALIZED (SELECT f.doc_id, l.y, SUM(f.xq * w.wq) AS m "
            f"FROM fx f JOIN w{r} w USING(d) "
            f"JOIN lab l ON l.doc_id = f.doc_id AND l.split = 'train' "
            f"GROUP BY f.doc_id, l.y)",
            f"g{r} AS MATERIALIZED (SELECT f.d, "
            f"CAST(SUM(((m.m // {SCALE}) - m.y * {SCALE}) * f.xq) AS BIGINT) AS g "
            f"FROM m{r} m JOIN fx f ON f.doc_id = m.doc_id GROUP BY f.d)",
            f"w{r + 1} AS MATERIALIZED (SELECT w.d, w.wq - (g.g // ({CLF_LRD} * ntr.n * {SCALE})) AS wq "
            f"FROM w{r} w JOIN g{r} g USING(d), ntr)",
        ]
    parts.append(
        f"mf AS MATERIALIZED (SELECT f.doc_id, SUM(f.xq * w.wq) AS m "
        f"FROM fx f JOIN w{CLF_ITERS} w USING(d) GROUP BY f.doc_id)"
    )
    return parts


def classify_oracle_sql() -> str:
    from .oracles import _BASE_CTE, _R6

    mcc_den = (
        "CAST((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn) AS DOUBLE)"
    )
    return _BASE_CTE + ",\n" + ",\n".join(clf_weight_ctes()) + f""",
cm AS MATERIALIZED (SELECT l.split,
       CAST(SUM(CASE WHEN m.m >= {THRESH} AND l.y = 1 THEN 1 ELSE 0 END) AS BIGINT) AS tp,
       CAST(SUM(CASE WHEN m.m >= {THRESH} AND l.y = 0 THEN 1 ELSE 0 END) AS BIGINT) AS fp,
       CAST(SUM(CASE WHEN m.m < {THRESH} AND l.y = 0 THEN 1 ELSE 0 END) AS BIGINT) AS tn,
       CAST(SUM(CASE WHEN m.m < {THRESH} AND l.y = 1 THEN 1 ELSE 0 END) AS BIGINT) AS fn
       FROM mf m JOIN lab l ON l.doc_id = m.doc_id GROUP BY l.split)
SELECT split, tp + fp + tn + fn AS n, tp, fp, tn, fn,
       {_R6.format('CAST(tp + tn AS DOUBLE) / (tp + fp + tn + fn)')} AS accuracy,
       CASE WHEN 2 * tp + fp + fn = 0 THEN 0.0
            ELSE {_R6.format('CAST(2 * tp AS DOUBLE) / (2 * tp + fp + fn)')}
       END AS f1,
       CASE WHEN {mcc_den} = 0 THEN 0.0
            ELSE {_R6.format(f'CAST(tp * tn - fp * fn AS DOUBLE) / sqrt({mcc_den})')}
       END AS mcc
FROM cm"""
