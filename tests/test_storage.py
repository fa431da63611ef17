"""``sources/storage.read_spans``: a parquet read planned from the
footers (``FooterSource``) that yields the same rows as
``pq.read_table``, one block per read task, no zero-row block and a
metadata-free schema."""
from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    """Three files written from pandas (so their schema carries pandas
    metadata), each holding row groups of 40 rows with an EMPTY row
    group between the first two: 3 files x 3 non-empty row groups."""
    root = str(tmp_path_factory.mktemp("footer"))
    n = 0
    for i in range(3):
        chunks = []
        for _ in range(3):
            df = pd.DataFrame({
                "doc_id": [f"d{n + k}" for k in range(40)],
                "n": range(n, n + 40),
                "text": [f"<p>{'w' * ((n + k) % 97)}</p>" for k in range(40)],
            })
            chunks.append(pa.Table.from_pandas(df, preserve_index=False))
            n += 40
        path = os.path.join(root, f"part-{i:04d}.parquet")
        with pq.ParquetWriter(path, chunks[0].schema) as w:
            w.write_table(chunks[0])
            w.write_table(chunks[0].slice(0, 0))
            w.write_table(chunks[1])
            w.write_table(chunks[2])
    return root


def _files(root):
    from web_content_extraction_benchmark_ray.sources.storage import table_files

    return table_files(root)


def _rows(ds) -> pa.Table:
    import ray

    blocks = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(blocks).sort_by("n")


def test_fixture_has_pandas_metadata_and_empty_row_groups(table_dir):
    md = pq.read_metadata(_files(table_dir)[0])
    assert b"pandas" in md.metadata
    assert [md.row_group(g).num_rows for g in range(md.num_row_groups)] == [
        40, 0, 40, 40,
    ]


@pytest.mark.parametrize("columns", [None, ["n", "doc_id"]])
@pytest.mark.parametrize("as_files", [False, True])
def test_rows_equal_read_table(ray_session, table_dir, columns, as_files):
    """A path or a list of its files, all columns or a subset (in the
    asked order): the rows equal ``pq.read_table`` of the same files,
    and the schema is that of ``pq.read_table`` without metadata."""
    from web_content_extraction_benchmark_ray.sources.storage import read_spans

    files = _files(table_dir)
    uri = files[1:] if as_files else table_dir
    want = pq.read_table(files[1:] if as_files else files, columns=columns)
    want = want.replace_schema_metadata(None).sort_by("n")
    ds = read_spans(uri, columns=columns)
    assert ds.schema().base_schema == want.schema
    got = _rows(ds.materialize())
    assert got.schema.metadata is None
    assert got.equals(want)


def test_schema_is_hashable(ray_session, table_dir):
    """No pandas metadata blob: the schema (and every block's) hashes,
    which Ray's schema unification needs for its fast path."""
    import ray

    from web_content_extraction_benchmark_ray.sources.storage import read_spans

    ds = read_spans(table_dir).materialize()
    hash(ds.schema().base_schema)
    for block in ray.get(ds.to_arrow_refs()):
        hash(block.schema)


@pytest.mark.parametrize("num_blocks", [1, 2, 4, 9, 50])
def test_one_block_per_task_and_no_empty_block(ray_session, table_dir,
                                               num_blocks):
    """At most ``num_blocks`` tasks and at most one per non-empty row
    group (9 here); each task yields one block of whole row groups, so
    no block has zero rows; the operator keeps the name ReadParquet and
    each task reports its block's exact row count."""
    import ray

    from web_content_extraction_benchmark_ray.sources.storage import (
        FooterSource,
        read_spans,
    )

    source = FooterSource(_files(table_dir), None, num_blocks)
    assert source.num_tasks == min(num_blocks, 9)
    tasks = source.get_read_tasks(1)
    ds = read_spans(table_dir, num_blocks=num_blocks).materialize()
    blocks = ray.get(ds.to_arrow_refs())
    assert len(blocks) == ds.num_blocks() == source.num_tasks
    assert sorted(b.num_rows for b in blocks) == sorted(
        t.metadata.num_rows for t in tasks
    )
    assert all(b.num_rows % 40 == 0 and b.num_rows for b in blocks)
    assert sum(b.num_rows for b in blocks) == 360
    assert "ReadParquet" in ds.stats()


def test_tasks_balanced_by_bytes(tmp_path):
    """Contiguous row groups are grouped by bytes, not by count: one
    row group as large as the eight others together gets a task of its
    own when two are asked."""
    from web_content_extraction_benchmark_ray.sources.storage import FooterSource

    small = pa.table({"t": ["x" * 100] * 50})
    big = pa.table({"t": ["y" * 800] * 50})
    path = str(tmp_path / "t.parquet")
    with pq.ParquetWriter(path, small.schema, compression="none",
                          use_dictionary=False) as w:
        w.write_table(big)
        for _ in range(8):
            w.write_table(small)
    tasks = FooterSource([path], None, 2).get_read_tasks(1)
    assert [t.metadata.num_rows for t in tasks] == [50, 400]
    md = pq.read_metadata(path)
    assert sum(t.metadata.size_bytes for t in tasks) == sum(
        md.row_group(g).total_byte_size for g in range(md.num_row_groups)
    )


def test_block_limit_adds_tasks(table_dir):
    """A task never plans more bytes than ``target_max_block_size``:
    when the asked count would, the plan gets more tasks instead."""
    from ray.data import DataContext

    from web_content_extraction_benchmark_ray.sources.storage import FooterSource

    files = _files(table_dir)
    unit = max(
        pq.read_metadata(f).row_group(g).total_byte_size
        for f in files for g in (0, 2, 3)
    )
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 2 * unit
    try:
        tasks = FooterSource(files, None, 2).get_read_tasks(1)
    finally:
        ctx.target_max_block_size = old
    assert len(tasks) > 2
    assert all(t.metadata.size_bytes <= 2 * unit for t in tasks)
    assert sum(t.metadata.num_rows for t in tasks) == 360


def test_empty_table_reads_one_empty_block(ray_session, tmp_path):
    from web_content_extraction_benchmark_ray.sources.storage import read_spans

    path = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"a": pa.array([], pa.int64())}), path)
    ds = read_spans(path)
    assert ds.schema().names == ["a"]
    assert ds.count() == 0
