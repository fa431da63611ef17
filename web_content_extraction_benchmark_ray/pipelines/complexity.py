"""Page-complexity and HTML-feature pipelines (reference complexity.py).

- complexity (A6): ``1 - clip(truth_tokens / src_tokens, 0, 1)`` per doc,
  where src tokens are \\w+ tokens of the script/style-stripped body text
  (complexity.py:54-74).
- global quantiles (A7): [0.25, 0.33, 0.5, 0.66, 0.75]
  (complexity.py:46,76-84) — distributed two-pass exact selection
  (stages/quantiles.py), no per-row driver pull.
- HTML tag-ratio features (A8): counts of h1..h6, p, li('ul'), table, a,
  div, br, strong, em over total body tags, plus ``html_to_non_html`` =
  tags per word (complexity.py:93-122 — including the reference's quirk of
  naming the li-count feature 'ul').

Distribution shape: the expensive DOM walk reduces each page to ONE int
(src token count) **before** any shuffle; the truth side reduces to its
token count the same way; the join then moves two tiny int columns, never
html or truth text (reduce-early / join-small — the round-1 broadcast
truth dict is gone).
"""
from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.htmlparse import body_or_root, parse
from ..functions.text import squeeze_ws, sub_common_entities, tokenize_words
from ..sources.storage import read_table
from ..sources.synth import build_spans_table
from ..stages.reassemble import reassemble
from ..state.memo import cached_parquet
from .evalpipe import _round6, join_partitions, truth_plaintext

FEATURE_TAGS = (
    "h1", "h2", "h3", "h4", "h5", "h6", "p", "ul", "table", "a", "div",
    "br", "strong", "em",
)
_COUNT_TAG = {t: t for t in FEATURE_TAGS}
_COUNT_TAG["ul"] = "li"  # reference quirk: feature 'ul' counts <li> nodes

_DROP = frozenset(("script", "style", "noscript"))


def _src_word_count(html: str) -> int:
    body = body_or_root(parse(html))
    body.drop_tags(_DROP)
    return _src_word_count_from_body(body)


def src_tokens_batch(batch: pa.Table) -> pa.Table:
    """Assembled page -> (doc_id int64, src_tokens) — the per-page DOM
    reduce that runs BEFORE the join shuffle."""
    out_id, out_n = [], []
    for doc_id, html in zip(
        batch.column("doc_id").to_pylist(), batch.column("html").to_pylist()
    ):
        out_id.append(int(doc_id))
        out_n.append(_src_word_count(html))
    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "src_tokens": pa.array(out_n, pa.int64()),
        }
    )


def truth_tokens_dataset(sf_dir: str):
    """Truth side reduced to token counts: (doc_id int64, truth_tokens,
    dataset).  Streams from parquet — nothing on the driver."""
    import ray.data

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    def mk(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "truth_tokens": pa.array(
                    [
                        len(tokenize_words(truth_plaintext(t)))
                        for t in batch.column("text").to_pylist()
                    ],
                    pa.int64(),
                ),
                "dataset": pc.cast(batch["lang"], pa.string()),
            }
        )

    return ds.map_batches(mk, batch_format="pyarrow")


def _finish_complexity(batch: pa.Table) -> pa.Table:
    tt = batch.column("truth_tokens").to_pylist()
    st = batch.column("src_tokens").to_pylist()
    compl = [
        1.0 - min(1.0, max(0.0, (t / s) if s else 0.0))
        for t, s in zip(tt, st)
    ]
    return pa.table(
        {
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "dataset": pc.cast(batch["dataset"], pa.string()),
            "complexity": pa.array(compl, pa.float64()),
        }
    )


def html_features(html: str) -> dict[str, float]:
    body = body_or_root(parse(html))
    body.drop_tags(_DROP)
    counts = body.count_tags()
    n_tags = sum(counts.values())
    words = _src_word_count_from_body(body)
    feats = {}
    for f in FEATURE_TAGS:
        feats[f] = counts.get(_COUNT_TAG[f], 0) / n_tags if n_tags else 0.0
    feats["html_to_non_html"] = n_tags / words if words else 0.0
    return feats


def _src_word_count_from_body(body) -> int:
    # entity substitution mirrors the parsers the reference relies on
    # (resiliparse decodes entities before .text)
    text = sub_common_entities(squeeze_ws(" ".join(body.text_chunks(frozenset()))))
    return len(tokenize_words(text))


def features_batch(batch: pa.Table) -> pa.Table:
    rows = {"doc_id": []}
    for f in FEATURE_TAGS:
        rows[f] = []
    rows["html_to_non_html"] = []
    for doc_id, html in zip(
        batch.column("doc_id").to_pylist(), batch.column("html").to_pylist()
    ):
        feats = html_features(html)
        rows["doc_id"].append(int(doc_id))
        for k, v in feats.items():
            rows[k].append(v)
    return pa.table(
        {
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            **{
                k: pa.array(rows[k], pa.float64())
                for k in list(FEATURE_TAGS) + ["html_to_non_html"]
            },
        }
    )


def _assembled(sf_dir: str):
    from ..sources.storage import read_spans

    path = build_spans_table(sf_dir)
    return reassemble(read_spans(path))


def complexity_pipeline(sf_dir: str):
    """(doc_id, dataset, complexity) — src-token reduce ⋈ truth-token
    reduce on doc_id, both sides pre-reduced to one int per page."""
    src = _assembled(sf_dir).map_batches(
        src_tokens_batch, batch_format="pyarrow"
    )
    joined = src.join(
        truth_tokens_dataset(sf_dir),
        join_type="inner",
        num_partitions=join_partitions(),
        on=("doc_id",),
    )
    return joined.map_batches(_finish_complexity, batch_format="pyarrow")


def complexity_parquet(sf_dir: str) -> str:
    """Compute the per-doc complexity table once per (corpus, code
    version) and cache it as parquet (``state/memo.cached_parquet``):
    quantiles need a second pass; the banded eval aggregation reuses it
    too."""
    return cached_parquet(
        "complexity", sf_dir, lambda: complexity_pipeline(sf_dir)
    )


def complexity_ds(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(complexity_parquet(sf_dir))


def complexity_quantiles(sf_dir: str, qs=(0.25, 0.33, 0.5, 0.66, 0.75)):
    """Global exact quantiles of the complexity distribution via the
    distributed two-pass selection (stages/quantiles.py) — the driver sees
    histogram rows and the two needed buckets, never the full column."""
    from ..stages.quantiles import exact_quantiles

    vals = exact_quantiles(complexity_ds(sf_dir), "complexity", qs)
    return pd.DataFrame({"q": list(qs), "value": [_round6(v) for v in vals]})


def features_pipeline(sf_dir: str):
    return _assembled(sf_dir).map_batches(
        features_batch, batch_format="pyarrow"
    )
