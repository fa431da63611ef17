"""Evaluation pipeline: extractions × ground truth -> score records ->
aggregations.

Ray shape (SURVEY.md §3.3): the truth side is a **Dataset hash-joined on
``doc_id``** — the distributed analogue of the reference's per-dataset
truth-dict load + semi-join (eval.py:84-91).  Round 1 broadcast the whole
truth table from the driver via ``ray.put``; at corpus scale the truth
side neither fits the driver nor should it ship to every worker, so the
join replaced it (the inner join IS the reference's semi-join: answers
without truth drop out).  Scoring is then a pure per-batch map over the
joined rows; aggregation pre-reduces per batch before the tiny groupby.

Ground truth is exact by construction: the page template's main content
(pagegen.truth_plaintext), the analogue of the reference's ground-truth
JSONL (extract.py:41-55).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrownp import num_col
from ..functions.evalx import levenshtein_token_ratio, rouge_lsum
from ..functions.text import tokenize_ws
from ..sources import pagegen as pg
from ..sources.storage import read_table
from ..stages.coalesce import coalesce_small
from ..stages.shuffle import session_cpus
from ..schema import SCORES

EVAL_MODELS = ("bte", "whole_text")


def truth_plaintext(text: str) -> str:
    return " ".join(pg.main_paragraphs(text))


def join_partitions(cpus: int | None = None) -> int:
    """Hash-join partition count.  Ray 2.49's hash join runs one
    AGGREGATOR ACTOR per partition (each reserving up to 1 CPU): asking
    for 2x cores spawned 64 standing actors on a 32-CPU box — half the
    cluster pinned while the co-scheduled extraction sort starved, and
    the worker-process blowup OOM-killed the run (measured; the same
    actor-pool-starves-all-to-all trap as stages/extract.py).  Partition
    count therefore grows with cores but caps the actor pool at ~25% of
    the cluster; callers joining genuinely large sides should pass an
    explicit ``num_partitions`` and budget the reservation."""
    c = cpus if cpus is not None else session_cpus()
    return max(8, min(16, c // 4))


def truth_dataset(sf_dir: str):
    """Truth side as a Dataset ``(doc_id int64, truth, dataset)`` — the
    'dataset' label is the document's lang (the synthetic sub-corpus axis).
    Streams from parquet; nothing materializes on the driver."""
    import ray.data

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    def mk(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "truth": pa.array(
                    [
                        truth_plaintext(t)
                        for t in batch.column("text").to_pylist()
                    ],
                    pa.large_string(),
                ),
                "dataset": pc.cast(batch["lang"], pa.string()),
            }
        )

    return ds.map_batches(mk, batch_format="pyarrow")


def score_joined_batch(batch: pa.Table) -> pa.Table:
    """Per-row scorers over the (extraction ⋈ truth) rows: ROUGE-LSum and
    Levenshtein token ratio, two score records per (doc, model)."""
    rows = {k: [] for k in SCORES.names}
    for doc_id, model, pred, target, dataset in zip(
        batch.column("doc_id").to_pylist(),
        batch.column("model").to_pylist(),
        batch.column("plaintext").to_pylist(),
        batch.column("truth").to_pylist(),
        batch.column("dataset").to_pylist(),
    ):
        prec, rec, f1 = rouge_lsum(target, pred)
        rows["doc_id"].append(doc_id)
        rows["model"].append(model)
        rows["dataset"].append(dataset)
        rows["scorer"].append("rouge")
        rows["prec"].append(prec)
        rows["rec"].append(rec)
        rows["f1"].append(f1)
        rows["dist"].append(None)
        dist = levenshtein_token_ratio(tokenize_ws(target), tokenize_ws(pred))
        rows["doc_id"].append(doc_id)
        rows["model"].append(model)
        rows["dataset"].append(dataset)
        rows["scorer"].append("levenshtein")
        rows["prec"].append(None)
        rows["rec"].append(None)
        rows["f1"].append(None)
        rows["dist"].append(dist)
    return pa.table(rows, schema=SCORES)


def _ext_project(batch: pa.Table) -> pa.Table:
    """Normalize extraction output for the join: int64 key, answer text
    only (spans/error columns are not needed by the scorers — prune before
    the shuffle, not after)."""
    return pa.table(
        {
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "model": batch["model"],
            "plaintext": batch["plaintext"],
        }
    )


def scores_pipeline(sf_dir: str, models=EVAL_MODELS):
    cpus = session_cpus()
    # shared extraction cache (pipelines/extractcache.py): models already
    # computed by the extract queries / bench headline stream back from
    # parquet; only genuinely missing models run the pipeline (judge r2:
    # scores_build used to re-extract rows extract_multi had just made)
    from . import extractcache

    ds = extractcache.read(
        sf_dir, models,
        columns=["doc_id", "model", "plaintext"],
    )
    ext = ds.map_batches(_ext_project, batch_format="pyarrow")
    joined = ext.join(
        truth_dataset(sf_dir),
        join_type="inner",
        num_partitions=join_partitions(cpus),
        on=("doc_id",),
    )
    # the join emits ONE block per partition; without a streaming re-split
    # the scoring map would run at most num_partitions tasks wide
    # (measured 4x slower at 32 CPUs).  shuffle=False: block splitting,
    # no data exchange.
    resplit = joined.repartition(
        target_num_rows_per_block=64, shuffle=False
    )
    return resplit.map_batches(
        score_joined_batch, batch_format="pyarrow", batch_size=64
    )


# ---------------------------------------------------------------------------
# Aggregations (reference eval.py:242-288 — A1-A4)


def _round6(x: float) -> float:
    """floor(x*1e6+0.5)/1e6 — one fixed rounding rule mirrored literally in
    the oracle SQL so Ray and DuckDB round identically."""
    return float(np.floor(x * 1e6 + 0.5) / 1e6)


def exact_mean6(v: np.ndarray) -> float:
    """Order-independent round6 mean: quantize each value to int64
    micro-units (deterministic per element), sum EXACTLY, one divide.
    A plain float sum is order-dependent in the last ulp between the
    distributed partials and DuckDB's accumulation, and can flip the
    round6 boundary (observed on events_sliding at sf0.1) — the SQL
    twins mirror this exact expression."""
    mu = np.floor(v * 1e6 + 0.5).astype(np.int64)
    return _round6(float((mu.sum() / 1e6) / len(mu)))


def _median_interp(v: np.ndarray) -> float:
    """quantile_cont(0.5) formula: lo + (hi - lo) * frac."""
    return _quantile_interp(v, 0.5)


def _quantile_interp(v: np.ndarray, q: float) -> float:
    v = np.sort(v)
    if len(v) == 0:
        return float("nan")
    pos = (len(v) - 1) * q
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    return float(v[lo] + (v[hi] - v[lo]) * (pos - lo))


def agg_scores_by_dataset(scores_ds, scorer: str = "rouge"):
    """Per-(model, dataset) mean/median (A1).  Pre-aggregation pattern:
    the rouge rows are filtered and reduced per group with an exact
    in-group median (group cardinality is bounded — SURVEY.md §7.7)."""
    col = "f1" if scorer == "rouge" else "dist"

    def agg(group: pd.DataFrame) -> pd.DataFrame:
        v = group[col].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "model": [group["model"].iloc[0]],
                "dataset": [group["dataset"].iloc[0]],
                "mean_score": [exact_mean6(v)],
                "median_score": [_round6(_median_interp(v))],
                "n": [len(v)],
            }
        )

    filtered = coalesce_small(scores_ds.map_batches(
        lambda t: t.filter(pa.compute.equal(t["scorer"], scorer)),
        batch_format="pyarrow",
    ))
    return filtered.groupby(["model", "dataset"]).map_groups(
        agg, batch_format="pandas"
    )


def agg_scores_micro(scores_ds, scorer: str = "rouge"):
    """Global per-model mean/median (A2)."""
    col = "f1" if scorer == "rouge" else "dist"

    def agg(group: pd.DataFrame) -> pd.DataFrame:
        v = group[col].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "model": [group["model"].iloc[0]],
                "mean_score": [exact_mean6(v)],
                "median_score": [_round6(_median_interp(v))],
                "n": [len(v)],
            }
        )

    filtered = coalesce_small(scores_ds.map_batches(
        lambda t: t.filter(pa.compute.equal(t["scorer"], scorer)),
        batch_format="pyarrow",
    ))
    return filtered.groupby("model").map_groups(agg, batch_format="pandas")


def agg_scores_macro(scores_ds, scorer: str = "rouge"):
    """Macro average: mean of per-dataset means (A3). The second-level
    reduce runs on the tiny A1 output."""
    per_ds = agg_scores_by_dataset(scores_ds, scorer).to_pandas()
    out = (
        per_ds.groupby("model", as_index=False)
        .agg(macro_mean=("mean_score",
                         lambda s: exact_mean6(s.to_numpy(dtype=np.float64))))
        .sort_values("model")
        .reset_index(drop=True)
    )
    return out


def agg_quantiles(scores_ds, scorer: str = "rouge", qs=(0.25, 0.75)):
    """Per-model exact quantiles (A4)."""
    col = "f1" if scorer == "rouge" else "dist"

    def agg(group: pd.DataFrame) -> pd.DataFrame:
        v = group[col].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "model": [group["model"].iloc[0]] * len(qs),
                "q": list(qs),
                "value": [_round6(_quantile_interp(v, q)) for q in qs],
            }
        )

    filtered = coalesce_small(scores_ds.map_batches(
        lambda t: t.filter(pa.compute.equal(t["scorer"], scorer)),
        batch_format="pyarrow",
    ))
    return filtered.groupby("model").map_groups(agg, batch_format="pandas")


def score_histograms(scores_ds, scorer: str = "rouge", bins: int = 25):
    """Per-model fixed-bin score histogram — the panel data of the
    reference's ``_plot_score_histograms`` (eval.py:303-327, 25-bin hist
    per model + median line).  Bins are ``bins`` equal slices of [0, 1]
    with the right edge inclusive in the last bin (matplotlib's rule for
    an exact 1.0).  Shape: map-side partial bincounts (<= models x bins
    rows per block) -> native Sum groupby over the tiny (model, bin) key
    space; the score rows themselves never shuffle."""
    col = "f1" if scorer == "rouge" else "dist"

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["scorer"], scorer))
        models = np.asarray(t["model"].to_pylist(), dtype=object)
        v = num_col(t, col, np.float64)
        b = np.minimum(
            np.floor(np.clip(v, 0.0, 1.0) * bins).astype(np.int64), bins - 1
        )
        m_out, b_out, n_out = [], [], []
        for m in np.unique(models):
            cnt = np.bincount(b[models == m], minlength=bins)
            nz = np.flatnonzero(cnt)
            m_out.extend([str(m)] * len(nz))
            b_out.extend(nz.tolist())
            n_out.extend(cnt[nz].tolist())
        return pa.table(
            {
                "model": pa.array(m_out, pa.string()),
                "bin": pa.array(b_out, pa.int64()),
                "n": pa.array(n_out, pa.int64()),
            }
        )

    parts = coalesce_small(
        scores_ds.map_batches(partial, batch_format="pyarrow")
    )
    return parts.groupby(["model", "bin"]).sum("n").map_batches(
        lambda t: t.rename_columns(["model", "bin", "n"]),
        batch_format="pyarrow",
    )
