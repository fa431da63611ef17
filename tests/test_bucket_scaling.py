"""Partition-count invariance: every co-location goes through
``stages/shuffle.co_partition``, whose partition count is a pure
physical-plan choice (``partition_count()``, 2 per session CPU).  Each
group function must key on its real key, never on the bucket or the
partition, so results must be identical at 2 partitions and at 32.
The count is varied by patching ``shuffle.session_cpus`` on the driver,
where the plan is built; the size fit is switched off (one partition
may hold a single byte) so callers that pass their input's bytes go
just as wide on these tiny inputs.
"""
from __future__ import annotations

import pytest

SF = "/root/testdata/sf0.001"


def _events(fn_name):
    def run():
        from web_content_extraction_benchmark_ray.pipelines import events

        return getattr(events, fn_name)(SF)

    return run


def _minhash_pairs():
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        _aug_docs,
    )
    from web_content_extraction_benchmark_ray.stages import dedup as dd

    return dd.dedup_minhash_pairs(_aug_docs(SF))


def _jaccard_prefix():
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        _aug_docs,
    )
    from web_content_extraction_benchmark_ray.stages import dedup as dd

    return dd.dedup_ngram_jaccard_prefix(_aug_docs(SF))


def _join_revenue():
    from web_content_extraction_benchmark_ray.pipelines.relational import (
        join_revenue,
    )

    return join_revenue(SF)


def _neardup_survivors():
    from web_content_extraction_benchmark_ray.pipelines.dataops import (
        _aug_docs,
    )
    from web_content_extraction_benchmark_ray.stages import dedup as dd

    docs = _aug_docs(SF)
    return dd.neardup_survivors(docs, dd.dedup_minhash_pairs(docs))


def _bucketed_groupby():
    import ray.data

    from web_content_extraction_benchmark_ray.stages.vecagg import (
        bucketed_groupby,
    )

    docs = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["source", "n_chars"]
    )
    return bucketed_groupby(
        docs, "source", ["n_chars", "n_chars"], ["sum", "count"],
        out_names=["chars", "n"],
    )


def _reassemble():
    import pyarrow as pa

    from web_content_extraction_benchmark_ray.sources.storage import read_spans
    from web_content_extraction_benchmark_ray.sources.synth import (
        build_spans_table,
    )
    from web_content_extraction_benchmark_ray.stages.reassemble import (
        reassemble,
    )

    def refs_as_text(batch: pa.Table) -> pa.Table:
        refs = [" ".join(r) for r in batch.column("media_refs").to_pylist()]
        return batch.set_column(
            batch.column_names.index("media_refs"), "media_refs",
            pa.array(refs, pa.string()),
        )

    return reassemble(read_spans(build_spans_table(SF))).map_batches(
        refs_as_text, batch_format="pyarrow"
    )


CASES = {
    "events_sessionize": _events("events_sessionize"),
    "events_asof": _events("events_asof"),
    "events_rolling": _events("events_rolling"),
    "events_range_join": _events("events_range_join"),
    "dedup_minhash_pairs": _minhash_pairs,
    "dedup_ngram_jaccard_prefix": _jaccard_prefix,
    "join_revenue": _join_revenue,
    "neardup_survivors": _neardup_survivors,
    "bucketed_groupby": _bucketed_groupby,
    "reassemble": _reassemble,
}


def _sorted_df(ds):
    df = ds.to_pandas()
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


@pytest.mark.parametrize("case", sorted(CASES))
def test_partition_count_invariance(ray_session, monkeypatch, case):
    from web_content_extraction_benchmark_ray.stages import shuffle

    out = {}
    monkeypatch.setattr(shuffle, "SMALL_PARTITION_BYTES", 1)
    for cpus in (1, 16):
        monkeypatch.setattr(shuffle, "session_cpus", lambda c=cpus: c)
        assert shuffle.partition_count() == 2 * cpus
        assert shuffle.partition_count(1 << 20) == 2 * cpus
        out[cpus] = _sorted_df(CASES[case]())
    assert len(out[1]) > 0
    assert out[1].equals(out[16])


def test_band_bucket_entropy_fills_sort_space():
    """A past degeneracy: minhash buckets derived from
    a 4-hex md5 prefix span only [0, 65535], so co_partition's uniform
    boundaries over WIDE_SPACE=2^20 put EVERY row in partition 0 (one
    giant block, zero sort parallelism).  Pin that band-row buckets
    spread across many uniform partitions of the wide space — for
    minhash, simhash AND the RHP embedding bands."""
    import numpy as np
    import pyarrow as pa

    from web_content_extraction_benchmark_ray.stages.dedup import (
        minhash_band_rows,
        simhash_band_rows,
        simhash_rows,
    )
    from web_content_extraction_benchmark_ray.stages.shuffle import WIDE_SPACE
    from web_content_extraction_benchmark_ray.stages.simsearch import (
        rhp_band_rows,
    )

    docs = pa.table(
        {
            "doc_id": pa.array(list(range(64)), pa.int64()),
            "text": pa.array(
                [f"alpha beta gamma delta {i} epsilon zeta" for i in range(64)]
            ),
        }
    )
    partitions = 16

    def occupied(buckets):
        b = np.asarray(buckets, dtype=np.int64)
        return len(set(b * partitions // WIDE_SPACE))

    mh = minhash_band_rows(docs)
    assert occupied(mh.column("bucket").to_pylist()) > partitions // 2

    sh = simhash_band_rows(simhash_rows(docs))
    assert occupied(sh.column("bucket").to_pylist()) > partitions // 2

    vecs = np.random.default_rng(0).normal(size=(64, 16))
    rh = rhp_band_rows(
        pa.table(
            {
                "vec_id": pa.array(list(range(64)), pa.int64()),
                "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
            }
        )
    )
    assert occupied(rh.column("bucket").to_pylist()) > partitions // 2
