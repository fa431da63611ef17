"""Feature projection — the reference's dimensionality-reduction step
(``complexity.py:217-233`` applies PCA before k-means; ``137-144`` uses
t-SNE for the 2-D visualization).  The engine's distributed analogue is
an exact 2-component PCA over the 15 HTML tag features, hash-verifiable
end to end.

Why it is hash-verifiable (the kmeans_iterate / complexity_classify
trick): features quantize to an int64 grid, the centered scatter matrix
is built from INTEGER sums (n·Σxy − Σx·Σy — associative, so distributed
partial sums and SQL SUMs agree bit-for-bit), and the power iteration
runs on an integer grid with truncating division (DuckDB ``//``),
re-normalizing each iterate to max-component 1e6.  Both eigenvector
extractions are therefore deterministic integer programs mirrored
literally in the unrolled SQL oracle.

Distribution shape: the scan is one map-side partial (each block emits a
single (n, Σx[15], Σxy[225]) row) + a driver reduce of #blocks tiny rows;
the power iteration touches only the 15×15 integer matrix (driver-side,
data-free); the projection is a stateless per-batch map with the two
eigenvectors broadcast by closure.  The corpus is never shuffled at all.

Magnitudes: q ≤ ~5e7 (ratios ≤ ~50 at 1e-6 grid), so Σxy ≤ n·2.5e15 and
n·Σxy ≤ n²·2.5e15 — beyond int64 at n ≥ ~2000.  The driver reduce
therefore accumulates in PYTHON ints (arbitrary precision) and the SQL
twin casts to HUGEINT before summing.
"""
from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..functions.arrownp import list_matrix
from ..state.memo import memo
from .classify import SCALE, clf_examples

PROJ_ITERS = 12
N_FEATS = 15


def _tdiv_int(a: int, b: int) -> int:
    """Truncating integer division on Python ints (DuckDB ``//``)."""
    if a >= 0:
        return a // b
    return -((-a) // b)


def _rescale(w: list[int]) -> list[int]:
    m = max(max(abs(x) for x in w), 1)
    return [_tdiv_int(x * SCALE, m) for x in w]


def _power_components(mat: list[list[int]], iters: int = PROJ_ITERS):
    """Top-2 eigenvectors of the integer scatter matrix on the 1e6 grid:
    plain power iteration for v1; v2 orthogonalized against v1 each
    round via the EXACT integer Gram-Schmidt u·(v1·v1) − (u·v1)·v1."""
    v1 = [SCALE] + [0] * (N_FEATS - 1)
    for _ in range(iters):
        w = [sum(mat[i][j] * v1[j] for j in range(N_FEATS))
             for i in range(N_FEATS)]
        v1 = _rescale(w)
    # init must not sit in a zero-variance coordinate (a constant feature
    # column makes M @ e_k exactly zero and the iteration never leaves 0);
    # SCALE // (i+1) loads every coordinate with distinct weights
    v2 = [SCALE // (i + 1) for i in range(N_FEATS)]
    vv = sum(x * x for x in v1)
    for _ in range(iters):
        w = _rescale(
            [sum(mat[i][j] * v2[j] for j in range(N_FEATS))
             for i in range(N_FEATS)]
        )
        wv = sum(w[i] * v1[i] for i in range(N_FEATS))
        v2 = _rescale([w[i] * vv - wv * v1[i] for i in range(N_FEATS)])
    return v1, v2


def _scatter_matrix(fx) -> list[list[int]]:
    """Driver reduce of the per-block (n, Σx, Σxy) partials into the
    centered integer scatter matrix n·Σxy − Σx·Σxᵀ (Python ints)."""

    def partial(batch: pa.Table) -> pa.Table:
        xq = list_matrix(batch.column("xq"), np.int64)
        x = xq[:, :N_FEATS]
        # int64 accumulation overflows silently at rows * max(q)^2 >=
        # 2^63, and html_to_non_html is unbounded on tag-dense/word-free
        # pages: emit one partial row per sub-chunk sized so every
        # sub-sum provably fits (never splits on the synthetic corpora);
        # the driver reduce sums any number of rows in Python ints.
        mx = int(np.abs(x).max()) if x.size else 0
        step = len(x)
        if mx:
            step = max(1, min(step, (1 << 61) // (mx * mx)))
        n_rows, s_rows, ss_rows = [], [], []
        for lo in range(0, len(x), step) or [0]:
            sub = x[lo:lo + step]
            if mx and mx * mx >= (1 << 61):
                # a single product can exceed int64: exact object-int
                # math — Arrow then raises loudly on a partial value
                # beyond int64 instead of numpy wrapping silently
                sub = sub.astype(object)
            n_rows.append(len(sub))
            s_rows.append([int(v) for v in sub.sum(axis=0)])
            ss_rows.append([int(v) for v in (sub.T @ sub).reshape(-1)])
        return pa.table(
            {
                "n": pa.array(n_rows, pa.int64()),
                "s": pa.array(s_rows, pa.list_(pa.int64())),
                "ss": pa.array(ss_rows, pa.list_(pa.int64())),
            }
        )

    # batch cap bounds the per-block int64 accumulation (rows · q² must
    # stay below 2^63; 1024 · (5e6)² ≈ 2.6e16 leaves 300× headroom)
    parts = fx.map_batches(
        partial, batch_format="pyarrow", batch_size=1024
    ).to_pandas()
    n = int(parts["n"].sum())
    s = [0] * N_FEATS
    ss = [0] * (N_FEATS * N_FEATS)
    for srow, ssrow in zip(parts["s"], parts["ss"]):
        for i in range(N_FEATS):
            s[i] += int(srow[i])
        for k in range(N_FEATS * N_FEATS):
            ss[k] += int(ssrow[k])
    return [
        [n * ss[i * N_FEATS + j] - s[i] * s[j] for j in range(N_FEATS)]
        for i in range(N_FEATS)
    ]


def proj_vectors(sf_dir: str) -> tuple[list[int], list[int]]:
    """The two integer eigenvectors, memoized per (documents file, Ray
    job) (``state/memo``): feature_project and both scatter frames share
    the scan + power iteration instead of repeating it."""

    def build():
        v1, v2 = _power_components(_scatter_matrix(clf_examples(sf_dir)))
        return [int(x) for x in v1], [int(x) for x in v2]

    return memo(
        "project.vectors", os.path.join(sf_dir, "documents.parquet"), build
    )


def feature_project(sf_dir: str):
    """2-D PCA projection of every page's quantized HTML feature vector.
    Output: (doc_id, p1, p2) with p_k = Σ_i xq_i · v_k[i] (int64)."""
    fx = clf_examples(sf_dir)
    v1l, v2l = proj_vectors(sf_dir)

    def proj(batch: pa.Table, v1l=v1l, v2l=v2l) -> pa.Table:
        xq = list_matrix(batch.column("xq"), np.int64)
        x = xq[:, :N_FEATS]
        a1 = np.asarray(v1l, dtype=np.int64)
        a2 = np.asarray(v2l, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(
                    [int(i) for i in batch.column("doc_id").to_pylist()],
                    pa.int64(),
                ),
                "p1": pa.array((x @ a1).tolist(), pa.int64()),
                "p2": pa.array((x @ a2).tolist(), pa.int64()),
            }
        )

    return fx.map_batches(proj, batch_format="pyarrow")


# ------------------------------------------------------------------ oracle
def project_ctes() -> list[str]:
    """CTE chain of the integer power-iteration twin, reusable by the
    scatter-figure oracles (pipelines/scatter.py).  Every CTE name is
    ``p``-prefixed so the chain composes with the classify/cluster CTE
    chains (classify.py) without collisions.  Ends with ``pproj`` =
    per-doc (doc_id, p1, p2).  All accumulations go through HUGEINT;
    division is DuckDB's truncating ``//`` (mirrored by ``_tdiv_int``)."""
    from .oracles import html_feature_exprs

    exprs = [e for _, e in html_feature_exprs()]
    xs = "[" + ", ".join(exprs) + "]"

    parts = [
        f"pf AS MATERIALIZED (SELECT doc_id, {xs} AS xs FROM counts)",
        f"pfx AS MATERIALIZED (SELECT doc_id, u.d AS d, "
        f"CAST(floor(xs[u.d] * {SCALE} + 0.5) AS HUGEINT) AS xq "
        f"FROM pf, UNNEST(generate_series(1, {N_FEATS})) AS u(d))",
        "pnn AS MATERIALIZED (SELECT CAST(count(DISTINCT doc_id) AS HUGEINT)"
        " AS n FROM pfx)",
        "ps1 AS MATERIALIZED (SELECT d, SUM(xq) AS s FROM pfx GROUP BY d)",
        "psxy AS MATERIALIZED (SELECT a.d AS i, b.d AS j, SUM(a.xq * b.xq)"
        " AS v FROM pfx a JOIN pfx b USING (doc_id) GROUP BY a.d, b.d)",
        "pm AS MATERIALIZED (SELECT psxy.i, psxy.j,"
        " pnn.n * psxy.v - sa.s * sb.s AS val"
        " FROM psxy, pnn JOIN ps1 sa ON sa.d = psxy.i"
        " JOIN ps1 sb ON sb.d = psxy.j)",
        f"v1_0(d, val) AS (SELECT u.d, CAST(CASE WHEN u.d = 1 THEN {SCALE}"
        f" ELSE 0 END AS HUGEINT)"
        f" FROM UNNEST(generate_series(1, {N_FEATS})) AS u(d))",
    ]
    # v1: plain power iteration with max-abs renormalization
    for r in range(PROJ_ITERS):
        parts += [
            f"w1_{r} AS MATERIALIZED (SELECT pm.i AS d, SUM(pm.val * v.val)"
            f" AS val FROM pm JOIN v1_{r} v ON v.d = pm.j GROUP BY pm.i)",
            f"x1_{r} AS (SELECT greatest(max(abs(val)), 1) AS mx"
            f" FROM w1_{r})",
            f"v1_{r + 1} AS MATERIALIZED (SELECT d,"
            f" (val * {SCALE}) // x1_{r}.mx AS val FROM w1_{r}, x1_{r})",
        ]
    parts += [
        f"pvv AS (SELECT SUM(val * val) AS v FROM v1_{PROJ_ITERS})",
        f"v2_0(d, val) AS (SELECT u.d, CAST({SCALE} // u.d AS HUGEINT)"
        f" FROM UNNEST(generate_series(1, {N_FEATS})) AS u(d))",
    ]
    # v2: rescale -> exact integer Gram-Schmidt against v1 -> rescale
    for r in range(PROJ_ITERS):
        parts += [
            f"w2_{r} AS MATERIALIZED (SELECT pm.i AS d, SUM(pm.val * v.val)"
            f" AS val FROM pm JOIN v2_{r} v ON v.d = pm.j GROUP BY pm.i)",
            f"x2_{r} AS (SELECT greatest(max(abs(val)), 1) AS mx"
            f" FROM w2_{r})",
            f"r2_{r} AS MATERIALIZED (SELECT d,"
            f" (val * {SCALE}) // x2_{r}.mx AS val FROM w2_{r}, x2_{r})",
            f"d2_{r} AS (SELECT SUM(r.val * v1.val) AS wv"
            f" FROM r2_{r} r JOIN v1_{PROJ_ITERS} v1 USING (d))",
            f"o2_{r} AS MATERIALIZED (SELECT r.d,"
            f" r.val * pvv.v - d2_{r}.wv * v1.val AS val"
            f" FROM r2_{r} r JOIN v1_{PROJ_ITERS} v1 USING (d),"
            f" pvv, d2_{r})",
            f"y2_{r} AS (SELECT greatest(max(abs(val)), 1) AS mx"
            f" FROM o2_{r})",
            f"v2_{r + 1} AS MATERIALIZED (SELECT d,"
            f" (val * {SCALE}) // y2_{r}.mx AS val FROM o2_{r}, y2_{r})",
        ]
    parts.append(
        f"pproj AS MATERIALIZED (SELECT pfx.doc_id, "
        f"CAST(SUM(pfx.xq * a.val) AS BIGINT) AS p1, "
        f"CAST(SUM(pfx.xq * b.val) AS BIGINT) AS p2 "
        f"FROM pfx "
        f"JOIN v1_{PROJ_ITERS} a ON a.d = pfx.d "
        f"JOIN v2_{PROJ_ITERS} b ON b.d = pfx.d "
        f"GROUP BY pfx.doc_id)"
    )
    return parts


def project_oracle_sql() -> str:
    from .oracles import _BASE_CTE

    return (
        _BASE_CTE + ",\n" + ",\n".join(project_ctes())
        + "\nSELECT doc_id, p1, p2 FROM pproj"
    )
