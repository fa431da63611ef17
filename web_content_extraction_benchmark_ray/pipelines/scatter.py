"""Complexity visualization data + figures — the reference's scatter /
dataset-boxplot surfaces (``/root/reference/src/extraction_benchmark/
complexity.py:236-340``: ``_plot_scatter_axis`` / ``visualize_clusters``
/ ``visualize_classes`` / ``visualize_datasets``).

The reference reduces the feature matrix to 2-D (t-SNE) and scatters it
colored by k-means cluster / predicted class / binarized complexity,
plus a per-dataset complexity boxplot.  The engine's analogue uses the
hash-verifiable distributed PCA (pipelines/project.py) as the 2-D
reduction — every figure input is therefore a driver-checkable Dataset:

- ``scatter_clusters``: (doc_id, p1, p2, cluster, label) — aligned k=2
  cluster id (classify.cluster_alignment's assignment + flip) and the
  binarized complexity class per doc.
- ``scatter_classes``:  (doc_id, p1, p2, pred, label) — the trained
  integer-GD classifier's per-doc prediction.
- ``complexity_by_dataset``: per-dataset complexity quantiles (the
  boxplot stats of ``visualize_datasets``).

Distribution shape: both scatter queries are stateless per-batch maps
over the materialized feature examples with the eigenvectors / weights /
2 centroids broadcast by closure — the corpus never shuffles.  The flip
decision and the quantile aggregation reduce to O(groups) rows.

Figures are deterministic SVG (svgplot.py); the per-doc point pull for
RENDERING is capped at ``max_points`` lowest doc_ids (a figure is
viz-scale by nature — the reference also plots a driver-side frame),
while the queries themselves stay unbounded Datasets.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.arrownp import list_matrix, num_col
from .classify import (
    THRESH,
    clf_examples,
    cluster_centroids,
    cluster_ctes,
    clf_weight_ctes,
    cos_assign,
    trained_weights,
)
from .project import proj_vectors, project_ctes

BOX_QS = (0.05, 0.25, 0.5, 0.75, 0.95)


def scatter_clusters(sf_dir: str):
    """Per-doc cluster scatter frame (reference visualize_clusters,
    complexity.py:256-277): 2-D PCA coords + ALIGNED k=2 cluster id +
    binarized complexity class.  The flip comes from the verified
    cluster_alignment query itself (one extra tiny-agg pass over the
    memoized examples), so the figure's coloring can never drift from
    the alignment rule."""
    from .classify import cluster_alignment
    from .complexity import FEATURE_TAGS

    fx = clf_examples(sf_dir)
    n_feats = len(FEATURE_TAGS) + 1
    v1l, v2l = proj_vectors(sf_dir)
    cents = cluster_centroids(fx)
    flip = int(cluster_alignment(sf_dir).to_pandas()["flipped"][0])

    def emit(batch: pa.Table, v1l=v1l, v2l=v2l, flip=flip) -> pa.Table:
        xq = list_matrix(batch.column("xq"), np.int64)
        x = xq[:, : len(v1l)]
        cl = cos_assign(xq, cents, n_feats)
        if flip:
            cl = 1 - cl
        return pa.table(
            {
                "doc_id": pa.array(
                    [int(i) for i in batch.column("doc_id").to_pylist()],
                    pa.int64(),
                ),
                "p1": pa.array(
                    (x @ np.asarray(v1l, np.int64)).tolist(), pa.int64()
                ),
                "p2": pa.array(
                    (x @ np.asarray(v2l, np.int64)).tolist(), pa.int64()
                ),
                "cluster": pa.array(cl.tolist(), pa.int64()),
                "label": pa.array(
                    num_col(batch, "y", np.int64).tolist(), pa.int64()
                ),
            }
        )

    return fx.map_batches(emit, batch_format="pyarrow")


def scatter_classes(sf_dir: str):
    """Per-doc predicted-class scatter frame (reference visualize_classes,
    complexity.py:281-310): 2-D PCA coords + trained-classifier
    prediction + true binarized class."""
    fx = clf_examples(sf_dir)
    v1l, v2l = proj_vectors(sf_dir)
    w_list = trained_weights(sf_dir)

    def emit(batch: pa.Table, v1l=v1l, v2l=v2l, w_list=w_list) -> pa.Table:
        xq = list_matrix(batch.column("xq"), np.int64)
        x = xq[:, : len(v1l)]
        pred = (xq @ np.asarray(w_list, np.int64) >= THRESH).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(
                    [int(i) for i in batch.column("doc_id").to_pylist()],
                    pa.int64(),
                ),
                "p1": pa.array(
                    (x @ np.asarray(v1l, np.int64)).tolist(), pa.int64()
                ),
                "p2": pa.array(
                    (x @ np.asarray(v2l, np.int64)).tolist(), pa.int64()
                ),
                "pred": pa.array(pred.tolist(), pa.int64()),
                "label": pa.array(
                    num_col(batch, "y", np.int64).tolist(), pa.int64()
                ),
            }
        )

    return fx.map_batches(emit, batch_format="pyarrow")


def complexity_by_dataset(sf_dir: str, qs=BOX_QS):
    """Per-dataset complexity quantiles — the boxplot stats of the
    reference's visualize_datasets (complexity.py:318-340)."""
    from .complexity import complexity_ds
    from .evalpipe import _quantile_interp, _round6

    def agg(group: pd.DataFrame) -> pd.DataFrame:
        v = group["complexity"].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "dataset": [group["dataset"].iloc[0]] * len(qs),
                "q": list(qs),
                "value": [_round6(_quantile_interp(v, q)) for q in qs],
            }
        )

    return (
        complexity_ds(sf_dir)
        .groupby("dataset")
        .map_groups(agg, batch_format="pandas")
    )


# ------------------------------------------------------------------ oracles
def scatter_clusters_oracle_sql() -> str:
    from .oracles import _BASE_CTE

    return (
        _BASE_CTE + ",\n"
        + ",\n".join(cluster_ctes() + project_ctes())
        + """
SELECT l.doc_id, p.p1, p.p2,
       CAST(CASE WHEN mt.flipped = 1 THEN 1 - a.cid ELSE a.cid END
            AS BIGINT) AS cluster,
       CAST(l.y AS BIGINT) AS label
FROM lab l
JOIN pproj p ON p.doc_id = l.doc_id
JOIN asg a ON a.doc_id = l.doc_id, mt"""
    )


def scatter_classes_oracle_sql() -> str:
    from .oracles import _BASE_CTE

    return (
        _BASE_CTE + ",\n"
        + ",\n".join(clf_weight_ctes() + project_ctes())
        + f"""
SELECT l.doc_id, p.p1, p.p2,
       CAST(CASE WHEN mf.m >= {THRESH} THEN 1 ELSE 0 END AS BIGINT) AS pred,
       CAST(l.y AS BIGINT) AS label
FROM lab l
JOIN pproj p ON p.doc_id = l.doc_id
JOIN mf ON mf.doc_id = l.doc_id"""
    )


def complexity_by_dataset_oracle_sql(qs=BOX_QS) -> str:
    from .oracles import _BASE_CTE, _R6, BP_WORDS_BODY, GLUE_WORDS

    t = f"(nw + {GLUE_WORDS} * npars)"
    compl = (
        f"1.0 - least(1.0, greatest(0.0, CAST({t} AS DOUBLE) / "
        f"({t} + {BP_WORDS_BODY})))"
    )
    arms = "\n  UNION ALL\n".join(
        f"  SELECT dataset, {q} AS q, "
        f"{_R6.format(f'quantile_cont(complexity, {q})')} AS value "
        f"FROM cx GROUP BY dataset"
        for q in qs
    )
    return _BASE_CTE + f""",
cx AS (SELECT lang AS dataset, {compl} AS complexity FROM counts)
SELECT dataset, q, value FROM (
{arms}
)"""


def scatter_queries() -> dict:
    return {
        "scatter_clusters": scatter_clusters,
        "scatter_classes": scatter_classes,
        "complexity_by_dataset": complexity_by_dataset,
    }


def scatter_oracle_sql() -> dict[str, str]:
    return {
        "scatter_clusters": scatter_clusters_oracle_sql(),
        "scatter_classes": scatter_classes_oracle_sql(),
        "complexity_by_dataset": complexity_by_dataset_oracle_sql(),
    }


# ------------------------------------------------------------------ figures
def write_complexity_figures(sf_dir: str, out_dir: str,
                             max_points: int = 2000) -> dict[str, str]:
    """Render the three reference figures as deterministic SVG:
    complexity_clusters_2d, complexity_classes_2d, complexity_datasets
    (reference complexity.py:256-340), plus the clusters 2-D CSV the
    reference writes alongside.  Point pull capped at ``max_points``
    lowest doc_ids (viz scale; the queries stay unbounded)."""
    import os

    from .svgplot import performance_box_svg, scatter_pair_svg

    os.makedirs(out_dir, exist_ok=True)
    written: dict[str, str] = {}

    def points(df: pd.DataFrame, lab_col: str):
        return [
            (float(r["p1"]), float(r["p2"]), int(r[lab_col]))
            for _, r in df.iterrows()
        ]

    cl = (
        scatter_clusters(sf_dir)
        .sort("doc_id")
        .limit(max_points)
        .to_pandas()
    )
    svg = scatter_pair_svg(
        [
            {
                "title": "k-Means Clustering",
                "labels": ["Cluster 0", "Cluster 1"],
                "points": points(cl, "cluster"),
            },
            {
                "title": "Complexity Quantiles",
                "labels": ["Low", "High"],
                "points": points(cl, "label"),
            },
        ]
    )
    p = os.path.join(out_dir, "complexity_clusters_2d.svg")
    with open(p, "w") as fh:
        fh.write(svg)
    written["complexity_clusters_2d.svg"] = p
    csv_p = os.path.join(out_dir, "complexity_clusters_2d.csv")
    cl.to_csv(csv_p, index=False)
    written["complexity_clusters_2d.csv"] = csv_p

    cs = (
        scatter_classes(sf_dir)
        .sort("doc_id")
        .limit(max_points)
        .to_pandas()
    )
    svg = scatter_pair_svg(
        [
            {
                "title": "Predicted Classes",
                "labels": ["Low", "High"],
                "points": points(cs, "pred"),
            },
            {
                "title": "Complexity Quantiles",
                "labels": ["Low", "High"],
                "points": points(cs, "label"),
            },
        ]
    )
    p = os.path.join(out_dir, "complexity_classes_2d.svg")
    with open(p, "w") as fh:
        fh.write(svg)
    written["complexity_classes_2d.svg"] = p

    # datasets boxplot: per-dataset complexity quantiles ranked by median
    # desc (reference sorts its vectors the same way, complexity.py:328)
    q = complexity_by_dataset(sf_dir).to_pandas()
    piv = q.pivot(index="dataset", columns="q", values="value")
    stats = sorted(
        (
            {
                "model": ds,
                "p05": float(r[0.05]),
                "q25": float(r[0.25]),
                "median": float(r[0.5]),
                "q75": float(r[0.75]),
                "p95": float(r[0.95]),
            }
            for ds, r in piv.iterrows()
        ),
        key=lambda s: (-s["median"], s["model"]),
    )
    svg = performance_box_svg(
        stats, "Median complexity by dataset", "Page Complexity"
    )
    p = os.path.join(out_dir, "complexity_datasets.svg")
    with open(p, "w") as fh:
        fh.write(svg)
    written["complexity_datasets.svg"] = p
    return written
