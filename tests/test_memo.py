"""Cached derived state (state/memo.py): the on-disk table cache, the
driver memo and the worker broadcast fetch all key on their inputs'
identity, and each holds a bounded number of entries."""
import os
from collections import OrderedDict

import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _write_docs(d, rows):
    docs = pq.read_table(f"{SF}/documents.parquet").slice(*rows)
    pq.write_table(docs, os.path.join(d, "documents.parquet"))
    return sorted(docs.column("doc_id").to_pylist())


def _ids(path):
    return sorted(pq.read_table(path).column("doc_id").to_pylist())


def test_complexity_parquet_never_serves_a_stale_table(
    ray_session, tmp_path, monkeypatch
):
    """Rewriting documents.parquet at the same path makes the next
    ``complexity_parquet`` call return the new corpus's table, both in
    the same process and after the in-process memo is dropped."""
    from web_content_extraction_benchmark_ray.pipelines.complexity import (
        complexity_parquet,
        complexity_pipeline,
    )
    from web_content_extraction_benchmark_ray.sources import synth
    from web_content_extraction_benchmark_ray.state import memo

    monkeypatch.setattr(memo, "CACHE_ROOT", str(tmp_path / "cache"))
    monkeypatch.setattr(synth, "CACHE_ROOT", str(tmp_path / "cache"))
    d = str(tmp_path / "sf")
    os.makedirs(d)
    old_ids = _write_docs(d, (0, 20))
    first = complexity_parquet(d)
    assert _ids(first) == old_ids

    new_ids = _write_docs(d, (20, 25))
    assert _ids(complexity_parquet(d)) == new_ids
    monkeypatch.setattr(memo, "_MEMO", {})
    path = complexity_parquet(d)
    assert _ids(path) == new_ids
    want = complexity_pipeline(d).to_pandas().sort_values("doc_id")
    got = pq.read_table(path).to_pandas().sort_values("doc_id")
    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))
    # one table per (name, sf_dir): the rebuild removed the old one
    assert not os.path.exists(first)


def test_cache_keeps_one_version_per_sf_dir(ray_session, tmp_path, monkeypatch):
    """Rewriting documents.parquet and building again leaves exactly one
    spans table and one extraction cache version for the sf_dir: the
    fresh build removes the older one."""
    from web_content_extraction_benchmark_ray.pipelines import extractcache as ec
    from web_content_extraction_benchmark_ray.sources import synth
    from web_content_extraction_benchmark_ray.state import checkpoint

    cache = tmp_path / "cache"
    monkeypatch.setattr(ec, "CACHE_ROOT", str(cache))
    monkeypatch.setattr(synth, "CACHE_ROOT", str(cache))
    d = str(tmp_path / "sf")
    os.makedirs(d)

    def versions():
        return {
            root: sorted(
                v for v in os.listdir(cache / root) if not v.endswith(".lock")
            )
            for root in sorted(os.listdir(cache))
        }

    _write_docs(d, (0, 20))
    first_spans = synth.build_spans_table(d)
    (first_extract,) = ec.ensure(d, ("bte",))
    assert len(versions()) == 2
    assert all(len(v) == 1 for v in versions().values())

    new_ids = _write_docs(d, (20, 25))
    spans = synth.build_spans_table(d)
    (extract,) = ec.ensure(d, ("bte",))
    kinds = versions()
    assert sorted(k.split("-")[0] for k in kinds) == ["extract", "spans"]
    assert all(len(v) == 1 for v in kinds.values())
    assert not os.path.exists(first_spans)
    assert not os.path.exists(first_extract)
    want = sorted(str(i) for i in new_ids)
    assert sorted(set(_ids(spans))) == want
    # the batch is a checkpoint directory: one lineage record per partition
    assert _ids(checkpoint.committed_files(extract)) == want
    recs = checkpoint.read_lineage(extract)
    assert len(recs) == checkpoint.DEFAULT_NUM_PARTITIONS
    assert sum(r["doc_count"] for r in recs) == len(new_ids)


def test_memo_rebuilds_on_source_change_and_holds_one_entry_per_name(
    tmp_path, monkeypatch
):
    from web_content_extraction_benchmark_ray.state import memo

    monkeypatch.setattr(memo, "_MEMO", {})
    src = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": [1, 2, 3]}), src)
    builds = []

    def build():
        builds.append(1)
        return len(builds)

    assert memo.memo("a", src, build) == 1
    assert memo.memo("a", src, build) == 1  # hit
    st = os.stat(src)
    os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
    assert memo.memo("a", src, build) == 2  # same size, new mtime
    pq.write_table(pa.table({"x": [1, 2, 3, 4, 5]}), src)
    assert memo.memo("a", src, build) == 3  # new size
    assert memo.memo("a", src, build, "k") == 4  # extra is in the key
    assert memo.memo("b", src, build) == 5
    assert memo.memo("a", src, build, "k") == 4  # names do not evict
    other = str(tmp_path / "u.parquet")
    pq.write_table(pa.table({"y": [1]}), other)
    assert memo.memo("a", other, build) == 6
    assert sorted(memo._MEMO) == ["a", "b"]
    assert memo.memo("a", src, build, "k") == 7  # one entry per name


def test_fetch_gets_once_and_stays_bounded(ray_session, monkeypatch):
    from web_content_extraction_benchmark_ray.state import memo

    monkeypatch.setattr(memo, "_FETCHED", OrderedDict())
    real_get = memo.ray.get
    gets = []

    def counting(ref):
        gets.append(ref)
        return real_get(ref)

    monkeypatch.setattr(memo.ray, "get", counting)
    refs = [ray_session.put(i) for i in range(memo.FETCH_SLOTS + 3)]
    assert memo.fetch(refs[0]) == 0
    assert memo.fetch(refs[0]) == 0
    assert len(gets) == 1
    for i, r in enumerate(refs):
        assert memo.fetch(r) == i
        assert len(memo._FETCHED) <= memo.FETCH_SLOTS
    assert len(gets) == len(refs)
    assert memo.fetch(refs[-1]) == len(refs) - 1  # recent: still held
    assert len(gets) == len(refs)
    assert memo.fetch(refs[0]) == 0  # evicted: fetched again
    assert len(gets) == len(refs) + 1
