"""Shared extraction cache (pipelines/extractcache.py): compute-once
semantics, incremental model batches, stale-cache invalidation."""
from __future__ import annotations

import os

SF = "/root/testdata/sf0.001"


def test_ensure_is_incremental_and_reused(ray_session, monkeypatch, tmp_path):
    from web_content_extraction_benchmark_ray.pipelines import extractcache as ec

    monkeypatch.setattr(ec, "CACHE_ROOT", str(tmp_path))

    d1 = ec.ensure(SF, ("bte",))
    assert len(d1) == 1 and os.path.basename(d1[0]) == "b0000"
    # second ensure for the same model: no new batch directory
    assert ec.ensure(SF, ("bte",)) == d1
    # a superset request computes ONLY the missing model into a new batch
    d2 = ec.ensure(SF, ("bte", "whole_text"))
    assert [os.path.basename(d) for d in d2] == ["b0000", "b0001"]

    out = ec.read(SF, ("bte",), columns=["doc_id", "model"]).to_pandas()
    assert len(out) == 500
    assert set(out["model"]) == {"bte"}
    both = ec.read(SF, ("bte", "whole_text")).to_pandas()
    assert len(both) == 1000
    assert set(both["model"]) == {"bte", "whole_text"}


def test_cached_rows_equal_direct_pipeline(ray_session, monkeypatch, tmp_path):
    from web_content_extraction_benchmark_ray.pipelines import extractcache as ec
    from web_content_extraction_benchmark_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from web_content_extraction_benchmark_ray.sources.synth import (
        build_spans_table,
    )

    monkeypatch.setattr(ec, "CACHE_ROOT", str(tmp_path))

    def norm(df):
        return (
            df[["doc_id", "model", "plaintext"]]
            .sort_values(["doc_id", "model"])
            .reset_index(drop=True)
        )

    cached = norm(ec.read(SF, ("bte",)).to_pandas())
    spans = build_spans_table(SF)
    direct = norm(
        extraction_pipeline(spans, models=("bte",)).to_pandas()
    )
    assert cached.equals(direct)


def test_foreign_source_dir_is_wiped(ray_session, monkeypatch, tmp_path):
    from web_content_extraction_benchmark_ray.pipelines import extractcache as ec

    monkeypatch.setattr(ec, "CACHE_ROOT", str(tmp_path))
    root = ec._cache_dir(SF)
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "_SOURCE"), "w") as f:
        f.write("/some/other/corpus")
    with open(os.path.join(root, "_MANIFEST.json"), "w") as f:
        f.write('{"batches": {"b0000": ["bte"]}}')
    # stale/foreign marker -> wiped and recomputed, not silently reused
    dirs = ec.ensure(SF, ("bte",))
    assert [os.path.basename(d) for d in dirs] == ["b0000"]
    with open(os.path.join(root, "_SOURCE")) as f:
        assert f.read().strip() == os.path.abspath(SF)


def test_code_fingerprint_changes_cache_dir(monkeypatch):
    from web_content_extraction_benchmark_ray.pipelines import extractcache as ec
    from web_content_extraction_benchmark_ray.state import memo

    d1 = ec._cache_dir(SF)
    monkeypatch.setattr(memo, "_CODE_FP", "deadbeef")
    assert ec._cache_dir(SF) != d1
    assert ec._cache_dir(SF).endswith("-deadbeef")


def test_concurrent_ensure_computes_once(monkeypatch, tmp_path):
    """Two drivers racing on the same cold cache: the writer lock +
    double-checked manifest re-read mean exactly one computes; neither
    clobbers the other's batch dir or drops its manifest entry."""
    import json
    import threading
    import time

    from web_content_extraction_benchmark_ray.pipelines import (
        extraction as ex,
        extractcache as ec,
    )
    from web_content_extraction_benchmark_ray.sources import synth

    monkeypatch.setattr(ec, "CACHE_ROOT", str(tmp_path))
    calls = []

    class FakeDs:
        def write_parquet(self, out):
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "part.parquet"), "w") as f:
                f.write("x")

    def fake_pipeline(spans, models=(), **kw):
        calls.append(tuple(models))
        time.sleep(0.3)  # force the threads to overlap
        return FakeDs()

    monkeypatch.setattr(ex, "extraction_pipeline", fake_pipeline)
    monkeypatch.setattr(synth, "build_spans_table", lambda sf: "/dev/null")

    results = {}

    def run(tag):
        results[tag] = ec.ensure(SF, ("bte",))

    t1 = threading.Thread(target=run, args=("a",))
    t2 = threading.Thread(target=run, args=("b",))
    t1.start(); t2.start(); t1.join(); t2.join()

    assert calls == [("bte",)]  # computed exactly once
    assert results["a"] == results["b"]
    root = ec._cache_dir(SF)
    with open(os.path.join(root, "_MANIFEST.json")) as f:
        assert json.load(f)["batches"] == {"b0000": ["bte"]}
