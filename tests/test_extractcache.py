"""Shared extraction cache (pipelines/extractcache.py): every batch is a
run_checkpointed directory; compute-once semantics, incremental model
batches, stale-cache invalidation and resume after a killed build."""
from __future__ import annotations

import functools
import json
import os

import pytest

SF = "/root/testdata/sf0.001"


def _norm(df):
    return (
        df[["doc_id", "model", "plaintext"]]
        .sort_values(["doc_id", "model"])
        .reset_index(drop=True)
    )


def _direct(models):
    from web_content_extraction_benchmark_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from web_content_extraction_benchmark_ray.sources.synth import (
        build_spans_table,
    )

    spans = build_spans_table(SF)
    return _norm(extraction_pipeline(spans, models=models).to_pandas())


def test_ensure_is_incremental_and_reused(ray_session, monkeypatch, tmp_path):
    from web_content_extraction_benchmark_ray.pipelines import extractcache as ec
    from web_content_extraction_benchmark_ray.state import checkpoint

    monkeypatch.setattr(ec, "CACHE_ROOT", str(tmp_path))

    d1 = ec.ensure(SF, ("bte",))
    assert len(d1) == 1 and os.path.basename(d1[0]) == "b0000"
    # second ensure for the same model: no new batch directory
    assert ec.ensure(SF, ("bte",)) == d1
    # a superset request computes ONLY the missing model into a new batch
    d2 = ec.ensure(SF, ("bte", "whole_text"))
    assert [os.path.basename(d) for d in d2] == ["b0000", "b0001"]
    for d, models in zip(d2, (["bte"], ["whole_text"])):
        recs = checkpoint.read_lineage(d)
        assert len(recs) == checkpoint.DEFAULT_NUM_PARTITIONS
        assert all(r["models"] == models for r in recs)
        assert sum(r["doc_count"] for r in recs) == 500

    out = ec.read(SF, ("bte",), columns=["doc_id", "model"]).to_pandas()
    assert len(out) == 500
    assert set(out["model"]) == {"bte"}
    both = ec.read(SF, ("bte", "whole_text")).to_pandas()
    assert len(both) == 1000
    assert set(both["model"]) == {"bte", "whole_text"}


def test_cached_rows_equal_direct_pipeline(ray_session, monkeypatch, tmp_path):
    from web_content_extraction_benchmark_ray.pipelines import extractcache as ec

    monkeypatch.setattr(ec, "CACHE_ROOT", str(tmp_path))
    cached = _norm(ec.read(SF, ("bte",)).to_pandas())
    assert cached.equals(_direct(("bte",)))


def test_foreign_source_dir_is_wiped(ray_session, monkeypatch, tmp_path):
    """A complete batch whose lineage names another corpus's spans table
    is removed and recomputed from this corpus, not silently reused."""
    from web_content_extraction_benchmark_ray.pipelines import extractcache as ec
    from web_content_extraction_benchmark_ray.sources.storage import table_files
    from web_content_extraction_benchmark_ray.sources.synth import (
        build_spans_table,
    )
    from web_content_extraction_benchmark_ray.state import checkpoint

    monkeypatch.setattr(ec, "CACHE_ROOT", str(tmp_path))
    batch = os.path.join(ec._cache_dir(SF), "b0000")
    mdir = os.path.join(batch, "_manifest")
    os.makedirs(mdir)
    for pid in range(checkpoint.DEFAULT_NUM_PARTITIONS):
        os.makedirs(os.path.join(batch, f"part-{pid:05d}"))
        with open(os.path.join(mdir, f"part-{pid:05d}.json"), "w") as f:
            json.dump({
                "partition_id": pid,
                "input_files": ["/some/other/corpus/spans.parquet"],
                "models": ["bte"],
                "doc_count": 0,
            }, f)

    assert ec.ensure(SF, ("bte",)) == [batch]
    recs = checkpoint.read_lineage(batch)
    inputs = table_files(build_spans_table(SF))
    assert all(r["input_files"] == inputs for r in recs)
    assert sum(r["doc_count"] for r in recs) == 500


def test_code_fingerprint_changes_cache_dir(monkeypatch):
    from web_content_extraction_benchmark_ray.pipelines import extractcache as ec
    from web_content_extraction_benchmark_ray.state import memo

    d1 = ec._cache_dir(SF)
    monkeypatch.setattr(memo, "_CODE_FP", "deadbeef")
    assert ec._cache_dir(SF) != d1
    assert ec._cache_dir(SF).endswith("-deadbeef")


def test_concurrent_ensure_computes_once(monkeypatch, tmp_path):
    """Two drivers racing on the same cold cache: the writer lock +
    double-checked re-read of the batches mean exactly one computes, and
    both get the same complete batch."""
    import threading
    import time

    from web_content_extraction_benchmark_ray.pipelines import extractcache as ec
    from web_content_extraction_benchmark_ray.sources import synth
    from web_content_extraction_benchmark_ray.state import checkpoint

    monkeypatch.setattr(ec, "CACHE_ROOT", str(tmp_path))
    calls = []

    class NoRows:
        def map_batches(self, *args, **kwargs):
            return self

        def iter_rows(self):
            return iter(())

    def fake_pipeline(spans, models=(), **kw):
        calls.append(tuple(models))
        time.sleep(0.3)  # force the threads to overlap
        return NoRows()

    monkeypatch.setattr(checkpoint, "extraction_pipeline", fake_pipeline)
    monkeypatch.setattr(synth, "build_spans_table", lambda sf: "/dev/null")

    results = {}

    def run(tag):
        results[tag] = ec.ensure(SF, ("bte",))

    t1 = threading.Thread(target=run, args=("a",))
    t2 = threading.Thread(target=run, args=("b",))
    t1.start(); t2.start(); t1.join(); t2.join()

    assert calls == [("bte",)]  # computed exactly once
    batch = os.path.join(ec._cache_dir(SF), "b0000")
    assert results["a"] == results["b"] == [batch]
    assert sorted(os.listdir(ec._cache_dir(SF))) == ["b0000"]
    assert checkpoint.completed_partitions(batch) == set(
        range(checkpoint.DEFAULT_NUM_PARTITIONS)
    )


def test_killed_build_resumes(ray_session, monkeypatch, tmp_path):
    """A build killed after 3 commits leaves an incomplete batch that
    serves no read; the next ensure resumes it: the committed partitions
    stay as they are, only the partition without a seal is computed, and
    the rows equal the direct pipeline's."""
    from web_content_extraction_benchmark_ray.pipelines import extractcache as ec
    from web_content_extraction_benchmark_ray.sources.storage import table_files
    from web_content_extraction_benchmark_ray.sources.synth import (
        build_spans_table,
    )
    from web_content_extraction_benchmark_ray.state import checkpoint

    monkeypatch.setattr(ec, "CACHE_ROOT", str(tmp_path))
    real = checkpoint.run_checkpointed
    monkeypatch.setattr(ec, "run_checkpointed", functools.partial(real, fail_after=3))
    with pytest.raises(RuntimeError, match="injected crash"):
        ec.ensure(SF, ("bte",))
    monkeypatch.setattr(ec, "run_checkpointed", real)

    root = ec._cache_dir(SF)
    batch = os.path.join(root, "b0000")
    inputs = table_files(build_spans_table(SF))
    assert ec._batches(root, inputs) == {"b0000": (["bte"], False)}
    committed = checkpoint.read_lineage(batch)
    assert [r["partition_id"] for r in committed] == [0, 1, 2]
    # the kill came before partition 7 was sealed: it must be recomputed
    os.remove(os.path.join(batch, "part-00007.tmp", checkpoint.SEAL))

    runs = []
    pipeline = checkpoint.extraction_pipeline

    def counting(*args, partition=None, **kw):
        runs.append(partition)
        return pipeline(*args, partition=partition, **kw)

    monkeypatch.setattr(checkpoint, "extraction_pipeline", counting)
    assert ec.ensure(SF, ("bte",)) == [batch]
    assert runs == [([7], checkpoint.DEFAULT_NUM_PARTITIONS)]
    recs = checkpoint.read_lineage(batch)
    assert len(recs) == checkpoint.DEFAULT_NUM_PARTITIONS
    assert recs[:3] == committed
    assert sum(r["doc_count"] for r in recs) == 500
    cached = _norm(ec.read(SF, ("bte",)).to_pandas())
    assert cached.equals(_direct(("bte",)))
