"""Graph-analytics operators over a deterministic document link graph:
PageRank (the host/page centrality weight web-scale curation pipelines
use as a quality prior — CCNet / RefinedWeb weight documents by source
centrality) and triangle counting (the standard local-clustering
census).  The reference is strictly per-document with no graph layer
(SURVEY.md §2.9); this family extends the engine the same way the
events/ dataops families do.

The benchmark tables carry no hyperlink column, so the link graph is
synthesized DETERMINISTICALLY from doc ids (the synthetic-universe
discipline of ``dataops._augment_docs``): doc ``s`` links to the
``OUT_DEG`` targets ``t_j = (s*EDGE_A + j*EDGE_B + EDGE_C) % N`` with
self-loops bumped to ``(t+1) % N``.  Engine (numpy) and oracle (DuckDB
SQL) compute the identical edge set, so both operators are
hash-verified end-to-end.  ``EDGE_A`` is MINSTD's 48271: ``s*EDGE_A``
stays inside int64 for any realistic doc count (~1.9e14 docs), so the
formula never wraps differently between numpy (silent wrap) and DuckDB
(loud overflow).

Determinism: ranks are scaled int64 (``RANK_SCALE``) with floor
division everywhere — integer partial sums are associative and
commutative, so the distributed reduce is bit-equal to the SQL twin
regardless of block order (the integer-exact discipline of
``classify.py`` / ``events._quantize_micro``).

Partitioning / 100-TB shape: per PageRank iteration only ``(dst,
contrib)`` int64 index rows shuffle (16 bytes x OUT_DEG per doc); no
text, no per-key Python (the reduce is ``stages/vecagg
.bucketed_groupby`` — Python once per partition, flat ``np.add.at``
interior).  K iterations = K light shuffles, the Pregel scatter-gather
shape.  Triangle counting shuffles one undirected edge row per edge
plus the bounded wedge set (out-degree is the constant ``OUT_DEG``, so
a node's wedge fan-out is <= C(2*OUT_DEG, 2) — no hub explosion); the
wedge/edge match is a co-partition ``np.isin`` on fused keys.  Every
co-location is ``stages/shuffle.co_partition`` on the real key.

Precondition: doc_ids are exactly 0..n-1 (n = documents row count),
because link targets are derived as ``f(id) % n``.  PageRank and
components check every target against the doc ids and raise a
``ValueError`` naming this precondition.
The driver touches only parquet metadata (row count) — no
materialization at any scale.
"""
from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..functions.arrownp import num_col
from ..sources.storage import read_table
from ..stages.shuffle import co_partition
from ..stages.vecagg import bucketed_groupby

OUT_DEG = 8  # uniform out-degree of the synthetic link graph
PR_ITERS = 5  # fixed power-iteration count (unrolled in the oracle)
RANK_SCALE = 10**12  # int64 rank fixed-point scale
PR_DAMP_NUM, PR_DAMP_DEN = 85, 100  # damping factor 0.85 as a ratio
EDGE_A, EDGE_B, EDGE_C = 48271, 11939, 7  # MINSTD-style edge mixing


def _n_docs(sf_dir: str) -> int:
    """Node count from parquet metadata — the only driver-side read."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")
    ).metadata.num_rows


def _doc_ids(sf_dir: str):
    return read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )


def _edge_dsts(src: np.ndarray, n: int) -> np.ndarray:
    """(len(src), OUT_DEG) destination matrix; self-loops bumped."""
    j = np.arange(OUT_DEG, dtype=np.int64)
    t = (src[:, None] * EDGE_A + j[None, :] * EDGE_B + EDGE_C) % n
    return np.where(t == src[:, None], (t + 1) % n, t)


def _not_a_doc(op: str, target: int) -> ValueError:
    return ValueError(
        f"{op}: link target {target} is not a doc_id; the link graph "
        "needs contiguous doc_ids 0..n-1 (n = documents row count)"
    )


# ----------------------------------------------------------------- pagerank
def link_pagerank(sf_dir: str, iters: int = PR_ITERS):
    """PageRank over the synthetic link graph, fixed ``iters`` rounds of
    r'(v) = BASE + (85 * sum_{u->v} (r(u) // OUT_DEG)) // 100 in scaled
    int64.  Output one row per doc: (node, rank_q).

    Every node emits a zero self-contribution row so in-degree-0 nodes
    stay in the rank table (the SQL twin's LEFT JOIN + coalesce).  In
    the first round that row also marks the key as a document, so a link
    target with no self row is not a doc_id and raises; the edges are
    the same every round, so later rounds skip the mark."""
    n = _n_docs(sf_dir)
    r0 = RANK_SCALE // n
    base = ((PR_DAMP_DEN - PR_DAMP_NUM) * r0) // PR_DAMP_DEN

    def init(batch: pa.Table) -> pa.Table:
        nodes = num_col(batch, "doc_id", np.int64)
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "r": pa.array(np.full(len(nodes), r0, np.int64), pa.int64()),
            }
        )

    def scatter(batch: pa.Table, check: bool) -> pa.Table:
        nodes = num_col(batch, "node", np.int64)
        r = num_col(batch, "r", np.int64)
        dst = _edge_dsts(nodes, n)
        out_dst = np.concatenate([dst.reshape(-1), nodes])
        out_c = np.concatenate(
            [np.repeat(r // OUT_DEG, OUT_DEG), np.zeros(len(nodes), np.int64)]
        )
        out = {
            "dst": pa.array(out_dst, pa.int64()),
            "c": pa.array(out_c, pa.int64()),
        }
        if check:
            is_doc = np.zeros(len(out_dst), np.int64)
            is_doc[dst.size:] = 1
            out["is_doc"] = pa.array(is_doc, pa.int64())
        return pa.table(out)

    def apply_rank(batch: pa.Table) -> pa.Table:
        if "is_doc" in batch.column_names:
            is_doc = num_col(batch, "is_doc", np.int64)
            if not is_doc.all():
                dst = batch.column("dst").to_pylist()
                raise _not_a_doc("link_pagerank", dst[int(np.argmin(is_doc))])
        inflow = num_col(batch, "inflow", np.int64)
        return pa.table(
            {
                "node": batch.column("dst"),
                "r": pa.array(
                    base + (PR_DAMP_NUM * inflow) // PR_DAMP_DEN, pa.int64()
                ),
            }
        )

    ranks = _doc_ids(sf_dir).map_batches(init, batch_format="pyarrow")
    for i in range(iters):
        check = i == 0
        scattered = ranks.map_batches(
            scatter, fn_kwargs={"check": check}, batch_format="pyarrow"
        )
        if check:
            vals, ops = ["c", "is_doc"], ["sum", "max"]
            names = ["inflow", "is_doc"]
        else:
            vals, ops, names = ["c"], ["sum"], ["inflow"]
        ranks = bucketed_groupby(
            scattered, "dst", vals, ops, out_names=names
        ).map_batches(apply_rank, batch_format="pyarrow")

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["node", "rank_q"])

    return ranks.map_batches(rename, batch_format="pyarrow")


# ---------------------------------------------------------------- triangles
def link_triangles(sf_dir: str):
    """Global triangle count of the UNDIRECTED synthetic link graph.
    Output a single row (n_triangles).

    Shape: directed edges -> (u, v) with u < v -> distinct (bucketed
    vectorized dedup) -> per-u wedge explode over the <= 2*OUT_DEG
    higher neighbors -> wedge rows and edge rows co-partitioned on a
    fused (v, w) key, matched with one ``np.isin`` per partition,
    partial counts summed.  Wedge fan-out is degree-bounded so no hot
    key exists."""
    n = _n_docs(sf_dir)

    def edges(batch: pa.Table) -> pa.Table:
        src = num_col(batch, "doc_id", np.int64)
        dst = _edge_dsts(src, n)
        s = np.repeat(src, OUT_DEG)
        d = dst.reshape(-1)
        u, v = np.minimum(s, d), np.maximum(s, d)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "one": pa.array(np.ones(len(u), np.int64), pa.int64()),
            }
        )

    def fuse_uv(batch: pa.Table) -> pa.Table:
        u = num_col(batch, "u", np.int64)
        v = num_col(batch, "v", np.int64)
        return batch.append_column("uv", pa.array(u * n + v, pa.int64()))

    # distinct undirected edges, co-located by fused key (one row per
    # edge leaves the dedup regardless of multiplicity)
    edge_ds = bucketed_groupby(
        _doc_ids(sf_dir)
        .map_batches(edges, batch_format="pyarrow")
        .map_batches(fuse_uv, batch_format="pyarrow"),
        "uv",
        ["one"],
        ["min"],
        out_names=["one"],
    )

    def wedge_rows(group: pa.Table) -> pa.Table:
        """Per low-endpoint u: all (v, w) pairs of higher neighbors
        (v < w), emitted as fused keys tagged kind=1; the edge itself
        re-emitted as kind=0 for the match co-group."""
        uv = num_col(group, "uv", np.int64)
        u, v = uv // n, uv % n
        out_key = [uv]
        out_kind = [np.zeros(len(uv), np.int64)]
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        ends = np.r_[starts[1:], len(u)]
        for s, e in zip(starts, ends):
            nb = v[s:e]
            if len(nb) > 1:
                a, b = np.triu_indices(len(nb), k=1)
                out_key.append(nb[a] * n + nb[b])
                out_kind.append(np.ones(len(a), np.int64))
        key = np.concatenate(out_key)
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "kind": pa.array(np.concatenate(out_kind), pa.int64()),
            }
        )

    def low_end(batch: pa.Table) -> pa.Table:
        uv = num_col(batch, "uv", np.int64)
        return batch.append_column("u", pa.array(uv // n, pa.int64()))

    tagged = co_partition(
        edge_ds.map_batches(low_end, batch_format="pyarrow"), wedge_rows,
        key="u",
    )

    def match(group: pa.Table) -> pa.Table:
        key = num_col(group, "key", np.int64)
        kind = num_col(group, "kind", np.int64)
        hits = np.isin(key[kind == 1], np.unique(key[kind == 0]))
        return pa.table(
            {"part": pa.array([int(hits.sum())], pa.int64())}
        )

    parts = co_partition(tagged, match, key="key")

    def total(batch: pa.Table) -> pa.Table:
        s = int(num_col(batch, "part", np.int64).sum())
        return pa.table({"n_triangles": pa.array([s], pa.int64())})

    # final reduce: one partial row per partition -> one row
    return parts.repartition(1).map_batches(total, batch_format="pyarrow")


# ------------------------------------------------------------- components
CC_ITERS = 5  # fixed min-label propagation rounds (unrolled in the oracle)


def link_components(sf_dir: str, iters: int = CC_ITERS):
    """Weakly-connected-component label propagation — ``iters`` rounds
    of ``label'(v) = min(label(v), min over UNDIRECTED neighbors u of
    label(u))``, labels initialised to the node id.  After round k,
    ``label(v)`` is the minimum doc_id within k undirected hops; a
    fixed round count keeps the operator oracle-exact (full CC =
    iterate to fixpoint, same rounds).  Output per doc: (node, label).

    The symmetric exchange needs NO stored edge table and NO per-round
    join build: out-targets are derivable from the node id, so each
    label row emits its own label row (kind 0) plus one REQUEST row per
    out-edge carrying its label (kind 1, keyed by the target).  One
    co-group on the key then delivers both directions at once — the
    target keeps the incoming label, the requester gets the target's
    label back — and a bucketed min-reduce folds the messages.  Two
    light shuffles per round over 32-byte index rows, the Pregel
    scatter-gather shape of ``link_pagerank`` with min instead of
    sum."""
    n = _n_docs(sf_dir)

    def init(batch: pa.Table) -> pa.Table:
        nodes = num_col(batch, "doc_id", np.int64)
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "label": pa.array(nodes, pa.int64()),
            }
        )

    def requests(batch: pa.Table) -> pa.Table:
        nodes = num_col(batch, "node", np.int64)
        lab = num_col(batch, "label", np.int64)
        dst = _edge_dsts(nodes, n)
        k = np.concatenate([nodes, dst.reshape(-1)])
        kind = np.concatenate(
            [np.zeros(len(nodes), np.int64),
             np.ones(dst.size, np.int64)]
        )
        a = np.concatenate([lab, np.repeat(lab, OUT_DEG)])
        b = np.concatenate([nodes, np.repeat(nodes, OUT_DEG)])
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "kind": pa.array(kind, pa.int64()),
                "a": pa.array(a, pa.int64()),  # sender's label
                "b": pa.array(b, pa.int64()),  # sender's node id
            }
        )

    def exchange(group: pa.Table) -> pa.Table:
        k = num_col(group, "k", np.int64)
        kind = num_col(group, "kind", np.int64)
        a = num_col(group, "a", np.int64)
        b = num_col(group, "b", np.int64)
        m0 = kind == 0
        k0, lab0 = k[m0], a[m0]
        o = np.argsort(k0)  # one label row per node, so k0 is unique
        k0, lab0 = k0[o], lab0[o]
        k1, a1, b1 = k[~m0], a[~m0], b[~m0]
        at = np.searchsorted(k0, k1)
        hit = at < len(k0)
        hit[hit] = k0[at[hit]] == k1[hit]
        if not hit.all():
            raise _not_a_doc("link_components", int(k1[~hit][0]))
        lt = lab0[at]  # target's current label
        # (target keeps sender's label) + (sender gets target's label
        # back) + (every node keeps its own label)
        node = np.concatenate([k1, b1, k0])
        lab = np.concatenate([a1, lt, lab0])
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "lab": pa.array(lab, pa.int64()),
            }
        )

    labels = _doc_ids(sf_dir).map_batches(init, batch_format="pyarrow")
    for _ in range(iters):
        msgs = co_partition(
            labels.map_batches(requests, batch_format="pyarrow"), exchange,
            key="k",
        )
        labels = bucketed_groupby(
            msgs, "node", ["lab"], ["min"], out_names=["label"]
        )
    return labels


# ------------------------------------------------------------------ queries
def graph_queries() -> dict:
    return {
        "link_pagerank": link_pagerank,
        "link_triangles": link_triangles,
        "link_components": link_components,
    }


def _edges_sql() -> str:
    return f"""
e AS (
  SELECT src, CASE WHEN t = src THEN (t + 1) % n ELSE t END AS dst
  FROM (
    SELECT d.doc_id AS src, nn.n AS n,
           (d.doc_id * {EDGE_A} + g.j * {EDGE_B} + {EDGE_C}) % nn.n AS t
    FROM documents d
    CROSS JOIN nn
    CROSS JOIN UNNEST(generate_series(0, {OUT_DEG - 1})) AS g(j)
  )
)"""


def graph_oracle_sql() -> dict[str, str]:
    sqls = {}
    base = (
        f"(({PR_DAMP_DEN} - {PR_DAMP_NUM}) * ({RANK_SCALE} // nn.n))"
        f" // {PR_DAMP_DEN}"
    )
    parts = [
        f"WITH nn AS (SELECT count(*) AS n FROM documents),{_edges_sql()},",
        f"pr0 AS (SELECT d.doc_id AS node, {RANK_SCALE} // nn.n AS r"
        f" FROM documents d CROSS JOIN nn)",
    ]
    for k in range(1, PR_ITERS + 1):
        parts.append(
            f""",
x{k} AS (
  SELECT e.dst AS node, sum(p.r // {OUT_DEG}) AS inflow
  FROM e JOIN pr{k - 1} p ON p.node = e.src GROUP BY e.dst
),
pr{k} AS (
  SELECT d.doc_id AS node,
         CAST({base} + ({PR_DAMP_NUM} * coalesce(x{k}.inflow, 0))
              // {PR_DAMP_DEN} AS BIGINT) AS r
  FROM documents d CROSS JOIN nn
  LEFT JOIN x{k} ON x{k}.node = d.doc_id
)"""
        )
    parts.append(f"\nSELECT node, r AS rank_q FROM pr{PR_ITERS}")
    sqls["link_pagerank"] = "".join(parts)

    sqls["link_triangles"] = f"""
WITH nn AS (SELECT count(*) AS n FROM documents),{_edges_sql()},
ue AS (
  SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v FROM e
)
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM ue a
JOIN ue b ON b.u = a.u AND b.v > a.v
JOIN ue c ON c.u = a.v AND c.v = b.v"""

    # link_components: CC_ITERS unrolled rounds of undirected min-label
    # propagation (the pagerank CTE chain with min over both edge
    # orientations instead of damped sums).
    parts = [
        f"WITH nn AS (SELECT count(*) AS n FROM documents),{_edges_sql()},",
        "ue AS (SELECT src AS a, dst AS b FROM e"
        " UNION ALL SELECT dst, src FROM e),",
        "l0 AS (SELECT doc_id AS node, doc_id AS label FROM documents)",
    ]
    for k in range(1, CC_ITERS + 1):
        parts.append(
            f""",
m{k} AS (
  SELECT ue.b AS node, min(l{k - 1}.label) AS ml
  FROM ue JOIN l{k - 1} ON l{k - 1}.node = ue.a GROUP BY ue.b
),
l{k} AS (
  SELECT l.node,
         CAST(least(l.label, coalesce(m{k}.ml, l.label)) AS BIGINT)
           AS label
  FROM l{k - 1} l LEFT JOIN m{k} ON m{k}.node = l.node
)"""
        )
    parts.append(f"\nSELECT node, label FROM l{CC_ITERS}")
    sqls["link_components"] = "".join(parts)
    return sqls
