"""Checkpoint/resume contract + salted-reassembly equivalence.

North-rule requirements under test:
- a killed run resumes at partition granularity without recomputing
  completed partitions (lineage manifest is the resume source of truth);
- salting pathological docs into balanced partitions preserves the exact
  reassembly semantics (property: salted == unsalted for ANY chunking);
- a checkpoint invocation is ONE run of the extraction pipeline over
  every pending partition (one spans scan per lane), so it takes the
  pipeline's skew route; its write sink is idempotent, its lineage
  counts equal a recount of the committed files, and a run killed
  between its commit steps resumes without duplicates.
"""
import hashlib
import json
import os
import shutil
import zlib

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_skew import pathological_spans  # noqa: F401  (fixture)

from web_content_extraction_benchmark_ray.schema import SPAN_STRUCT
from web_content_extraction_benchmark_ray.sources.synth import build_spans_table

SF = "/root/testdata/sf0.001"


def _spans_table(rows):
    """rows: list of (doc_id, kind, text, media_ref, offset) scattered."""
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "spans": pa.array(
                [
                    [
                        {
                            "kind": r[1],
                            "text": r[2],
                            "media_ref": r[3],
                            "offset": r[4],
                        }
                    ]
                    for r in rows
                ],
                pa.list_(SPAN_STRUCT),
            ),
        }
    )


def _spans_ds(ray, rows):
    return ray.data.from_arrow(_spans_table(rows))


docs_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),  # doc index
        st.text(alphabet="abcxyz<> /", max_size=12),
    ),
    min_size=1,
    max_size=40,
)


@given(docs_strategy, st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_salted_equals_unsalted(ray_session, chunks, salt_range):
    from web_content_extraction_benchmark_ray.stages.reassemble import (
        reassemble,
        reassemble_salted,
    )

    rows = []
    per_doc: dict = {}
    for doc_idx, text in chunks:
        off = per_doc.get(doc_idx, 0)
        doc = f"d{doc_idx}"
        rows.append((doc, "html", text, "", off))
        if off % 3 == 2:
            rows.append((doc, "media", "", f"m://{doc}/{off}", off + 1))
            off += 1
        per_doc[doc_idx] = off + 1
    # scatter rows deterministically
    rows.sort(key=lambda r: (hash((r[0], r[4])) % 97, r[0], r[4]))

    plain = (
        reassemble(_spans_ds(ray_session, rows))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    salted = (
        reassemble_salted(_spans_ds(ray_session, rows), salt_range=salt_range)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert plain["doc_id"].tolist() == salted["doc_id"].tolist()
    assert plain["html"].tolist() == salted["html"].tolist()
    assert [list(m) for m in plain["media_refs"]] == [
        list(m) for m in salted["media_refs"]
    ]


def test_checkpoint_resume(ray_session, tmp_path, job_pids):
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        SEAL,
        completed_partitions,
        read_lineage,
        read_output,
        run_checkpointed,
    )

    spans = build_spans_table(SF)
    out_dir = str(tmp_path / "ckpt")
    models = ("bte",)

    # crash after 2 partitions
    with pytest.raises(RuntimeError, match="injected crash"):
        run_checkpointed(
            spans, out_dir, models=models, num_partitions=4, fail_after=2
        )
    assert len(completed_partitions(out_dir)) == 2
    first_lineage = {r["partition_id"]: r for r in read_lineage(out_dir)}
    mtimes = {
        pid: os.path.getmtime(os.path.join(out_dir, f"part-{pid:05d}"))
        for pid in completed_partitions(out_dir)
    }
    seals = {}
    for pid in set(range(4)) - set(first_lineage):
        with open(os.path.join(_part(out_dir, pid) + ".tmp", SEAL)) as f:
            seals[pid] = json.load(f)["record"]

    # resume: only the remaining partitions commit, from their seals,
    # with no second pipeline job
    new = run_checkpointed(spans, out_dir, models=models, num_partitions=4)
    assert job_pids == [[0, 1, 2, 3]]
    assert sorted(r["partition_id"] for r in new) == sorted(seals)
    for rec in new:
        sealed = seals[rec["partition_id"]]
        assert rec == {**sealed, "wall_ms": rec["wall_ms"]}
        assert rec["wall_ms"] >= sealed["wall_ms"]
    assert not [
        (d, f) for d, _, fs in os.walk(out_dir) for f in fs if f == SEAL
    ]
    assert completed_partitions(out_dir) == {0, 1, 2, 3}
    for pid, old_mtime in mtimes.items():  # no recompute of completed parts
        assert os.path.getmtime(
            os.path.join(out_dir, f"part-{pid:05d}")
        ) == old_mtime

    # lineage metrics present and consistent
    for rec in read_lineage(out_dir):
        assert rec["row_count"] == rec["doc_count"] * len(models)
        assert rec["error_count"] == 0
        assert rec["wall_ms"] > 0
        assert rec["input_files"]

    # resumed output == single-shot reference run
    resumed = (
        read_output(out_dir)
        .to_pandas()[["doc_id", "model", "plaintext"]]
        .sort_values(["doc_id", "model"])
        .reset_index(drop=True)
    )
    ref_dir = str(tmp_path / "ref")
    run_checkpointed(spans, ref_dir, models=models, num_partitions=4)
    ref = (
        read_output(ref_dir)
        .to_pandas()[["doc_id", "model", "plaintext"]]
        .sort_values(["doc_id", "model"])
        .reset_index(drop=True)
    )
    assert resumed.equals(ref)
    # every doc appears exactly once across partitions (partition disjointness)
    assert resumed["doc_id"].is_unique
    assert len(resumed) == 500


def test_heavy_lane_and_salted_equal_plain(ray_session):
    """Two-lane routing + salted reassembly must be output-equal to the
    plain pipeline on a heavy-tailed input."""
    from web_content_extraction_benchmark_ray.pipelines.extraction import (
        extraction_pipeline,
    )

    spans = build_spans_table(SF, heavy_tail=True)

    def norm(ds):
        return (
            ds.to_pandas()[["doc_id", "model", "plaintext"]]
            .sort_values(["doc_id", "model"])
            .reset_index(drop=True)
        )

    plain = norm(extraction_pipeline(spans, models=("bte",)))
    routed = norm(
        extraction_pipeline(
            spans, models=("bte",), heavy_lane_bytes=50_000, salted=True,
        )
    )
    assert plain.equals(routed)
    assert len(plain) == 500


def _norm(df):
    return (
        df[["doc_id", "model", "plaintext"]]
        .sort_values(["doc_id", "model"])
        .reset_index(drop=True)
    )


def test_checkpoint_takes_the_pipeline_skew_route(
    ray_session, pathological_spans, tmp_path, monkeypatch  # noqa: F811
):
    """A checkpoint run is one ``extraction_pipeline`` job: the heavy doc
    is routed by the pipeline's census, which runs ONCE for all four
    partitions, and the committed output equals a plain pipeline run row
    for row."""
    from web_content_extraction_benchmark_ray.pipelines import extraction
    from web_content_extraction_benchmark_ray.stages import skew
    from web_content_extraction_benchmark_ray.state import memo
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        read_output,
        run_checkpointed,
    )

    monkeypatch.setattr(memo, "_MEMO", {})
    census = skew.heavy_doc_ids
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return census(*args, **kwargs)

    monkeypatch.setattr(skew, "heavy_doc_ids", counting)
    out_dir = str(tmp_path / "ckpt")
    run_checkpointed(pathological_spans, out_dir, models=("bte",), num_partitions=4)
    assert len(calls) == 1

    got = _norm(read_output(out_dir).to_pandas())
    want = _norm(
        extraction.extraction_pipeline(pathological_spans, models=("bte",))
        .to_pandas()
    )
    assert got.equals(want)
    assert len(got) == 201
    assert (got["doc_id"] == "9999").sum() == 1


def test_partition_predicate_matches_partition_of():
    """The vectorized source predicate keeps exactly the rows whose doc
    has ``crc32(doc_id) % P == pid`` — the layout earlier checkpoint
    directories were written with — on a chunked batch that mixes
    decimal and sha256-hex ids and repeats doc_ids."""
    from web_content_extraction_benchmark_ray.stages.skew import (
        filter_partition,
        partition_of,
    )

    hexes = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(6)]
    decimals = [str(i) for i in (0, 7, 12, 99, 123456789012345678, 31)]
    ids = (decimals + hexes) * 2 + ["7", hexes[0], "12"]
    chunks = [ids[:9], ids[9:20], ids[20:]]
    batch = pa.concat_tables(
        [
            pa.table({"doc_id": pa.array(c, pa.string()),
                      "row": pa.array(range(len(c)), pa.int64())})
            for c in chunks
        ]
    )
    assert batch.column("doc_id").num_chunks == 3
    for num_partitions in (1, 3, 4, 7):
        kept = []
        for pid in range(num_partitions):
            got = filter_partition(batch, {pid}, num_partitions)
            want = [d for d in ids if partition_of(d, num_partitions) == pid]
            assert got.column("doc_id").to_pylist() == want
            kept += got.column("doc_id").to_pylist()
        assert sorted(kept) == sorted(ids)
        pids = set(range(0, num_partitions, 2))
        got = filter_partition(batch, pids, num_partitions)
        want = [d for d in ids if partition_of(d, num_partitions) in pids]
        assert got.column("doc_id").to_pylist() == want
    for d in ids:
        assert partition_of(d, 4) == zlib.crc32(d.encode()) % 4
    empty = batch.slice(0, 0)
    assert filter_partition(empty, {0}, 4).num_rows == 0


def _part(out_dir, pid):
    return os.path.join(out_dir, f"part-{pid:05d}")


def test_resume_recomputes_committed_partition_without_manifest(
    ray_session, tmp_path
):
    """Crash between the data rename and the manifest write: the
    partition directory exists but has no manifest.  A resume recomputes
    that partition, writes its lineage, and the output has no duplicate
    doc_id."""
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        completed_partitions,
        read_lineage,
        read_output,
        run_checkpointed,
    )

    spans = build_spans_table(SF)
    out_dir = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="injected crash"):
        run_checkpointed(
            spans, out_dir, models=("bte",), num_partitions=4, fail_after=2
        )
    orphan = min(completed_partitions(out_dir))
    os.remove(os.path.join(out_dir, "_manifest", f"part-{orphan:05d}.json"))
    assert os.path.isdir(_part(out_dir, orphan))

    new = run_checkpointed(spans, out_dir, models=("bte",), num_partitions=4)
    assert orphan in {r["partition_id"] for r in new}
    assert completed_partitions(out_dir) == {0, 1, 2, 3}
    assert orphan in {r["partition_id"] for r in read_lineage(out_dir)}
    out = read_output(out_dir).to_pandas()
    assert out["doc_id"].is_unique
    assert len(out) == 500


def test_resume_clears_stale_tmp_partition(ray_session, tmp_path):
    """A killed write leaves ``part-NNNNN.tmp`` behind.  ``read_output``
    never reads it, and a resume clears it before committing."""
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        completed_partitions,
        read_output,
        run_checkpointed,
    )

    spans = build_spans_table(SF)
    out_dir = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="injected crash"):
        run_checkpointed(
            spans, out_dir, models=("bte",), num_partitions=4, fail_after=1
        )
    (done,) = completed_partitions(out_dir)
    pending = next(p for p in range(4) if p != done)
    # the stale tmp holds real rows of a committed partition: reading it
    # would show up as duplicate doc_ids
    stale = _part(out_dir, pending) + ".tmp"
    # the crash itself leaves the uncommitted partitions' tmp dirs behind
    assert os.path.isdir(stale)
    os.makedirs(stale, exist_ok=True)
    for f in os.listdir(_part(out_dir, done)):
        shutil.copy(os.path.join(_part(out_dir, done), f), stale)
    before = read_output(out_dir).to_pandas()
    assert before["doc_id"].is_unique

    run_checkpointed(spans, out_dir, models=("bte",), num_partitions=4)
    assert not [n for n in os.listdir(out_dir) if n.endswith(".tmp")]
    out = read_output(out_dir).to_pandas()
    assert out["doc_id"].is_unique
    assert len(out) == 500


def test_empty_partition_commits(ray_session, tmp_path):
    """More partitions than docs: a partition with no docs writes no
    parquet file, but it still commits (an empty directory plus its
    manifest) instead of failing the rename."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.state.checkpoint import (
        completed_partitions,
        read_lineage,
        read_output,
        run_checkpointed,
    )

    src = tmp_path / "spans"
    src.mkdir()
    span = [{"kind": "html", "text": "<p>hello world</p>", "media_ref": "",
             "offset": 0}]
    pq.write_table(
        pa.table({"doc_id": pa.array(["1", "2"]),
                  "spans": pa.array([span, span], pa.list_(SPAN_STRUCT))}),
        str(src / "part-0.parquet"),
    )
    out_dir = str(tmp_path / "ckpt")
    run_checkpointed(str(src), out_dir, models=("bte",), num_partitions=8)
    assert completed_partitions(out_dir) == set(range(8))
    assert sum(r["doc_count"] for r in read_lineage(out_dir)) == 2
    assert sorted(read_output(out_dir).to_pandas()["doc_id"]) == ["1", "2"]


@pytest.fixture
def count_scans(monkeypatch):
    """Counts spans-table scans: every ``storage.read_spans`` call, also
    through the name ``pipelines/extraction.py`` imported."""
    from web_content_extraction_benchmark_ray.pipelines import extraction
    from web_content_extraction_benchmark_ray.sources import storage

    calls = []
    read = storage.read_spans

    def counting(*args, **kwargs):
        calls.append(args[0])
        return read(*args, **kwargs)

    monkeypatch.setattr(storage, "read_spans", counting)
    monkeypatch.setattr(extraction, "read_spans", counting)
    return calls


@pytest.fixture
def job_pids(monkeypatch):
    """The partition set of every ``extraction_pipeline`` job a
    checkpoint run starts."""
    from web_content_extraction_benchmark_ray.state import checkpoint

    calls = []
    run = checkpoint.extraction_pipeline

    def recording(*args, partition, **kwargs):
        calls.append(sorted(partition[0]))
        return run(*args, partition=partition, **kwargs)

    monkeypatch.setattr(checkpoint, "extraction_pipeline", recording)
    return calls


@pytest.mark.parametrize("num_partitions", [4, 8])
def test_checkpoint_scans_spans_once(
    ray_session, tmp_path, count_scans, num_partitions
):
    """One invocation scans the spans table at most once, however many
    partitions are pending: the crash run reads it exactly once, and its
    resume commits the partitions that run sealed without reading it."""
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        completed_partitions,
        run_checkpointed,
    )

    spans = build_spans_table(SF)
    out_dir = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="injected crash"):
        run_checkpointed(spans, out_dir, models=("bte",),
                         num_partitions=num_partitions, fail_after=1)
    assert count_scans == [spans]
    run_checkpointed(spans, out_dir, models=("bte",),
                     num_partitions=num_partitions)
    assert count_scans == [spans]
    assert completed_partitions(out_dir) == set(range(num_partitions))
    # nothing pending: no job at all
    assert run_checkpointed(spans, out_dir, models=("bte",),
                            num_partitions=num_partitions) == []
    assert count_scans == [spans]


def test_resume_without_seals_scans_once(ray_session, tmp_path, count_scans):
    """With the seals removed, the resume recomputes every pending
    partition in one job: one more scan, not one per partition."""
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        SEAL,
        completed_partitions,
        read_output,
        run_checkpointed,
    )

    spans = build_spans_table(SF)
    out_dir = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="injected crash"):
        run_checkpointed(spans, out_dir, models=("bte",),
                         num_partitions=8, fail_after=1)
    for pid in set(range(8)) - completed_partitions(out_dir):
        os.remove(os.path.join(_part(out_dir, pid) + ".tmp", SEAL))
    count_scans.clear()
    run_checkpointed(spans, out_dir, models=("bte",), num_partitions=8)
    assert count_scans == [spans]
    out = read_output(out_dir).to_pandas()
    assert out["doc_id"].is_unique
    assert len(out) == 500


def test_checkpoint_scans_once_per_lane(
    ray_session, pathological_spans, tmp_path, count_scans  # noqa: F811
):
    """On a table with a heavy doc the pipeline has two lanes, so one
    invocation makes two scans (the census scan belongs to the route
    decision, memoized per table and made before counting)."""
    from web_content_extraction_benchmark_ray.pipelines.extraction import (
        _resolve_heavy_ids,
    )
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        run_checkpointed,
    )

    heavy_ids, _ = _resolve_heavy_ids(pathological_spans, "auto", "auto")
    assert heavy_ids == ["9999"]
    count_scans.clear()
    run_checkpointed(pathological_spans, str(tmp_path / "ckpt"),
                     models=("bte",), num_partitions=4)
    assert count_scans == [pathological_spans] * 2


def _extracted_batch(doc_ids, models=("bte", "justext")):
    from web_content_extraction_benchmark_ray.schema import EXTRACTIONS

    rows = [
        {"doc_id": d, "model": m, "plaintext": f"{d} {m}", "spans": [],
         "error": "" if (int(d) + k) % 3 else "ValueError: x"}
        for d in doc_ids
        for k, m in enumerate(models)
    ]
    return pa.Table.from_pylist(rows, schema=EXTRACTIONS)


def test_write_sink_is_idempotent(tmp_path):
    """A retried sink task writes the same files with the same rows: the
    file names come from the slice's content, not from the attempt."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.state.checkpoint import (
        write_partition_slices,
    )
    from web_content_extraction_benchmark_ray.stages.skew import partition_of

    batch = _extracted_batch([str(d) for d in range(40)])
    out_dir = str(tmp_path / "ckpt")

    def listing():
        return sorted(
            os.path.relpath(os.path.join(d, f), out_dir)
            for d, _, fs in os.walk(out_dir) for f in fs
        )

    first = write_partition_slices(batch, out_dir, 4, "bte")
    files = listing()
    second = write_partition_slices(batch, out_dir, 4, "bte")
    assert listing() == files
    assert first.equals(second)
    assert all(f.endswith(".parquet") for f in files)
    assert sorted(os.listdir(out_dir)) == [f"part-{p:05d}.tmp" for p in range(4)]
    for row in first.to_pylist():
        got = pq.read_table(os.path.join(out_dir, f"part-{row['pid']:05d}.tmp"))
        want = [d for d in range(40) if partition_of(str(d), 4) == row["pid"]]
        assert sorted(got["doc_id"].to_pylist()) == sorted(
            str(d) for d in want for _ in range(2)
        )
        assert row["rows"] == got.num_rows == 2 * len(want)
        assert row["docs"] == len(want)
        assert row["errors"] == sum(e != "" for e in got["error"].to_pylist())
    # an empty block writes nothing and reports nothing
    assert write_partition_slices(batch.slice(0, 0), out_dir, 4, "bte").num_rows == 0
    assert listing() == files


def test_lineage_counts_match_a_recount(ray_session, tmp_path):
    """The lineage's doc/row/error counts, summed from the write sink's
    stats, equal a recount of each committed partition directory; one
    model fails on some docs, so errors are counted too."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.state.checkpoint import (
        read_lineage,
        run_checkpointed,
    )

    def flaky(html):
        if len(html) % 3 == 0:
            raise ValueError("synthetic failure")
        return html[:10]

    spans = build_spans_table(SF)
    out_dir = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="injected crash"):
        run_checkpointed(spans, out_dir, models=("bte", ("flaky", flaky)),
                         num_partitions=4, fail_after=2)
    run_checkpointed(spans, out_dir, models=("bte", ("flaky", flaky)),
                     num_partitions=4)
    lineage = read_lineage(out_dir)
    assert sorted(r["partition_id"] for r in lineage) == [0, 1, 2, 3]
    for rec in lineage:
        t = pq.read_table(_part(out_dir, rec["partition_id"]))
        assert rec["row_count"] == t.num_rows
        assert rec["doc_count"] == len(pc.unique(t["doc_id"]))
        assert rec["error_count"] == pc.sum(pc.not_equal(t["error"], "")).as_py()
        assert rec["models"] == ["bte", "flaky"]
    assert sum(r["doc_count"] for r in lineage) == 500
    assert sum(r["error_count"] for r in lineage) > 0


def test_read_output_reads_in_session_blocks(ray_session, tmp_path):
    """``read_output`` reads the committed slice files (one per read
    block and partition) in the session's 2 blocks per CPU, and its rows
    are the committed files' rows."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.stages.shuffle import session_cpus
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        committed_files,
        read_output,
        run_checkpointed,
    )

    out_dir = str(tmp_path / "ckpt")
    run_checkpointed(build_spans_table(SF), out_dir, models=("bte",),
                     num_partitions=8)
    files = committed_files(out_dir)
    assert len(files) > 2 * session_cpus()
    ds = read_output(out_dir).materialize()
    assert ds.num_blocks() <= 2 * session_cpus()
    key = [("doc_id", "ascending"), ("model", "ascending")]
    want = pq.read_table(files).replace_schema_metadata(None).sort_by(key)
    got = pa.concat_tables(ray_session.get(ds.to_arrow_refs()))
    assert got.sort_by(key).equals(want)


def _break_seal(case, spans, out_dir, victim, models, monkeypatch):
    """Invalidate the victim partition's seal, or the whole job key, the
    way ``case`` names; returns the resume's keyword arguments."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.state import memo
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        SEAL,
        completed_partitions,
    )

    tmp_dir = _part(out_dir, victim) + ".tmp"
    slices = sorted(f for f in os.listdir(tmp_dir) if f.endswith(".parquet"))
    src = os.path.join(spans, sorted(os.listdir(spans))[0])
    kw = {"models": models, "num_partitions": 4}
    if case == "no_seal":
        os.remove(os.path.join(tmp_dir, SEAL))
    elif case == "extra_file":  # a stray copy: its rows would repeat
        shutil.copy(os.path.join(tmp_dir, slices[0]),
                    os.path.join(tmp_dir, "stray.parquet"))
    elif case == "missing_file":
        os.remove(os.path.join(tmp_dir, slices[0]))
    elif case == "resized_file":
        path = os.path.join(tmp_dir, slices[0])
        t = pq.read_table(path)
        pq.write_table(t.slice(0, t.num_rows // 2), path)
    elif case == "input_mtime":
        st = os.stat(src)
        os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    elif case == "input_size":  # same rows, new size, same mtime
        st = os.stat(src)
        pq.write_table(pq.read_table(src), src, compression="none")
        os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert os.stat(src).st_size != st.st_size
    elif case == "models":
        kw["models"] = ("bte", "justext")
    elif case == "partitions":
        # committed output of another P raises (see
        # test_resume_with_other_partition_count_raises); a driver that
        # died before its first commit leaves only sealed .tmp dirs
        for pid in completed_partitions(out_dir):
            shutil.rmtree(_part(out_dir, pid))
            os.remove(os.path.join(out_dir, "_manifest",
                                   f"part-{pid:05d}.json"))
        kw["num_partitions"] = 8
    elif case == "code":
        monkeypatch.setattr(memo, "_CODE_FP", "0" * 8)
    return kw


@pytest.mark.parametrize("case", [
    "no_seal", "extra_file", "missing_file", "resized_file", "input_mtime",
    "input_size", "models", "partitions", "code", "callable",
])
def test_invalid_seal_recomputes(ray_session, tmp_path, monkeypatch,
                                 job_pids, case):
    """A seal is reused only when its job key (input files, models, P,
    code) matches and its file list matches the directory.  A broken
    partition seal recomputes that partition only; a changed job key, or
    a ``(name, callable)`` model (never sealed), recomputes every pending
    partition; and the output has each doc once."""
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        SEAL,
        completed_partitions,
        read_output,
        run_checkpointed,
    )

    spans = str(tmp_path / "spans")
    shutil.copytree(build_spans_table(SF), spans)
    out_dir = str(tmp_path / "ckpt")

    def upper(html):  # a closure: Ray workers get it by value
        return html.upper()

    models = ("bte", ("upper", upper)) if case == "callable" else ("bte",)
    with pytest.raises(RuntimeError, match="injected crash"):
        run_checkpointed(spans, out_dir, models=models, num_partitions=4,
                         fail_after=1)
    done = completed_partitions(out_dir)
    pending = sorted(set(range(4)) - done)
    victim = pending[0]
    sealed = {
        pid for pid in pending
        if os.path.exists(os.path.join(_part(out_dir, pid) + ".tmp", SEAL))
    }
    assert sealed == (set() if case == "callable" else set(pending))
    kw = _break_seal(case, spans, out_dir, victim, models, monkeypatch)
    done = completed_partitions(out_dir)

    job_pids.clear()
    run_checkpointed(spans, out_dir, **kw)
    p = kw["num_partitions"]
    if case in ("no_seal", "extra_file", "missing_file", "resized_file"):
        assert job_pids == [[victim]]
    else:
        assert job_pids == [sorted(set(range(p)) - done)]
    assert completed_partitions(out_dir) == set(range(p))
    if case != "models":
        out = read_output(out_dir).to_pandas()
        assert len(out) == 500 * len(models)
        assert not out.duplicated(["doc_id", "model"]).any()


def test_driver_death_before_sealing_recomputes_all(
    ray_session, tmp_path, monkeypatch, job_pids
):
    """The driver dies after the job's sink stats arrive but before any
    seal is written: the ``.tmp`` directories hold slices and no seal, so
    the resume recomputes every pending partition, and the output equals
    an uninterrupted run row for row."""
    from web_content_extraction_benchmark_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from web_content_extraction_benchmark_ray.state import checkpoint

    def killed(*args, **kwargs):
        raise KeyboardInterrupt("driver killed")

    spans = build_spans_table(SF)
    out_dir = str(tmp_path / "ckpt")
    write_seal = checkpoint._write_seal
    monkeypatch.setattr(checkpoint, "_write_seal", killed)
    with pytest.raises(KeyboardInterrupt):
        checkpoint.run_checkpointed(spans, out_dir, models=("bte",),
                                    num_partitions=4)
    monkeypatch.setattr(checkpoint, "_write_seal", write_seal)
    assert checkpoint.completed_partitions(out_dir) == set()
    leftovers = [
        f for pid in range(4)
        for f in os.listdir(_part(out_dir, pid) + ".tmp")
    ]
    assert leftovers and checkpoint.SEAL not in leftovers

    checkpoint.run_checkpointed(spans, out_dir, models=("bte",),
                                num_partitions=4)
    assert job_pids == [[0, 1, 2, 3]] * 2
    got = _norm(checkpoint.read_output(out_dir).to_pandas())
    want = _norm(extraction_pipeline(spans, models=("bte",)).to_pandas())
    assert got.equals(want)
    assert got["doc_id"].is_unique


def test_read_output_with_no_committed_rows(ray_session, tmp_path):
    """``read_output`` of a fresh directory, and of a run over a spans
    table with no docs, is an empty Dataset of the EXTRACTIONS schema."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.schema import EXTRACTIONS
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        completed_partitions,
        read_output,
        run_checkpointed,
    )

    def check(ds):
        assert ds.count() == 0
        assert ds.schema().base_schema == EXTRACTIONS

    check(read_output(str(tmp_path / "fresh")))
    src = tmp_path / "spans"
    src.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([], pa.string()),
                  "spans": pa.array([], pa.list_(SPAN_STRUCT))}),
        str(src / "part-0.parquet"),
    )
    out_dir = str(tmp_path / "ckpt")
    run_checkpointed(str(src), out_dir, models=("bte",), num_partitions=2)
    assert completed_partitions(out_dir) == {0, 1}
    check(read_output(out_dir))


def test_lane_predicates_keep_the_block_schema(
    ray_session, pathological_spans  # noqa: F811
):
    """The heavy lane's source step empties most read blocks of the
    pathological table; every block of either lane leaves the step with
    the sort's schema, never as a block with no columns."""
    from web_content_extraction_benchmark_ray.pipelines.extraction import (
        _lane_rows,
    )
    from web_content_extraction_benchmark_ray.sources.storage import read_spans

    ids_ref = ray_session.put(["9999"])
    span_cols = ["doc_id", "kind", "text", "media_ref", "offset"]
    for keep, salted, cols in (
        (False, False, span_cols + ["bucket"]),
        (True, True, span_cols + ["salt", "bucket"]),
    ):
        rows = read_spans(pathological_spans).map_batches(
            _lane_rows,
            fn_kwargs={"partition": None, "ids_ref": ids_ref, "keep": keep,
                       "salted": salted},
            batch_format="pyarrow",
        )
        blocks = ray_session.get(rows.to_arrow_refs())
        assert keep is False or any(b.num_rows == 0 for b in blocks)
        assert [b.schema.names for b in blocks] == [cols] * len(blocks)


def test_one_pending_partition_logs_no_schema_mismatch(
    ray_session, pathological_spans, tmp_path, capfd  # noqa: F811
):
    """A checkpoint run whose one pending partition (of 64) misses some
    read blocks: its source predicate empties them.  The source
    operator logs no schema mismatch (only its rows carry ``bucket``;
    the heavy lane is empty throughout, and the operator after the sort
    writes slice stats), and the partition's rows equal the plain
    pipeline's rows of that partition."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.extraction import (
        _lane_rows,
        extraction_pipeline,
    )
    from web_content_extraction_benchmark_ray.sources.storage import read_spans
    from web_content_extraction_benchmark_ray.stages.skew import partition_of
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        run_checkpointed,
    )

    def source_blocks(pid):
        return ray_session.get(read_spans(pathological_spans).map_batches(
            _lane_rows,
            fn_kwargs={"partition": ([pid], 64), "ids_ref": None,
                       "keep": None, "salted": False},
            batch_format="pyarrow",
        ).to_arrow_refs())

    pid = next(
        p for p in range(64) if p != partition_of("9999", 64)
        and len({b.num_rows == 0 for b in source_blocks(p)}) == 2
    )
    out_dir = str(tmp_path / "ckpt")
    os.makedirs(os.path.join(out_dir, "_manifest"))
    for done in set(range(64)) - {pid}:  # every other partition committed
        with open(os.path.join(out_dir, "_manifest",
                               f"part-{done:05d}.json"), "w") as f:
            json.dump({"partition_id": done}, f)
    capfd.readouterr()
    (rec,) = run_checkpointed(pathological_spans, out_dir, models=("bte",),
                              num_partitions=64)
    err = capfd.readouterr().err
    assert rec["partition_id"] == pid and rec["doc_count"] > 0
    mismatches = err.split("Operator produced a RefBundle")[1:]
    assert not [m for m in mismatches if "bucket: int32" in m]

    got = _norm(pq.read_table(_part(out_dir, pid)).to_pandas())
    want = _norm(
        extraction_pipeline(pathological_spans, models=("bte",)).to_pandas()
    )
    want = want[[partition_of(d, 64) == pid for d in want["doc_id"]]]
    assert got.equals(want.reset_index(drop=True))


def test_null_offset_raises_on_both_lanes(ray_session):
    """``offset`` is dense and 0-based (FIXTURES.md §1): a null offset
    fails the same way in the plain and the salted lane instead of
    sorting the span last (and salting it into a negative shard)."""
    from web_content_extraction_benchmark_ray.stages.reassemble import (
        reassemble,
        reassemble_salted,
    )

    rows = [("d0", "html", "<p>x</p>", "", None)]
    # Ray Data re-raises a task's error wrapped, with the cause's text
    error = r"ValueError: 1 span\(s\) have a null offset \(first in doc_id 'd0'\)"
    for lane in (reassemble, reassemble_salted):
        with pytest.raises(Exception, match=error):
            lane(_spans_ds(ray_session, rows)).materialize()


@pytest.mark.parametrize("field", ["kind", "text"])
def test_null_span_field_raises_on_both_lanes_and_census(
    ray_session, tmp_path, field
):
    """A null ``kind`` or ``text`` fails like a null offset, naming the
    column and the first doc_id, in both lanes and in the census.  Left
    through, a null text blanks its doc's html, a null kind drops the
    doc, and the census sums a null text to a negative size, which
    hides a heavy doc."""
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.stages.reassemble import (
        reassemble,
        reassemble_salted,
    )
    from web_content_extraction_benchmark_ray.stages.skew import (
        doc_size_partials,
        heavy_doc_ids,
    )

    span = {"kind": "html", "text": "<p>x</p>", field: None}
    rows = [("d0", "html", "<p>y</p>", "", 0),
            ("d1", span["kind"], span["text"], "", 0)]
    error = rf"1 span\(s\) have a null {field} \(first in doc_id 'd1'\)"
    for lane in (reassemble, reassemble_salted):
        with pytest.raises(Exception, match=error):
            lane(_spans_ds(ray_session, rows)).materialize()
    with pytest.raises(ValueError, match=error):
        doc_size_partials(_spans_table(rows))
    # the census runs plain Ray tasks: RayTaskError(ValueError) is a ValueError
    path = str(tmp_path / "spans.parquet")
    pq.write_table(_spans_table(rows), path)
    with pytest.raises(ValueError, match=error):
        heavy_doc_ids(path, 1)


def test_resume_with_other_partition_count_raises(ray_session, tmp_path):
    """A partition id names a different doc set under another P, so a
    resume over another P's commits would repeat documents: it raises,
    naming both counts, and leaves the committed output as it was."""
    from web_content_extraction_benchmark_ray.state.checkpoint import (
        completed_partitions,
        read_output,
        run_checkpointed,
    )

    spans = build_spans_table(SF)
    out_dir = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="injected crash"):
        run_checkpointed(
            spans, out_dir, models=("bte",), num_partitions=4, fail_after=1
        )
    done = completed_partitions(out_dir)
    before = read_output(out_dir).to_pandas().sort_values("doc_id")
    with pytest.raises(ValueError, match=r"\[4\].*num_partitions=8"):
        run_checkpointed(spans, out_dir, models=("bte",), num_partitions=8)
    assert completed_partitions(out_dir) == done
    after = read_output(out_dir).to_pandas().sort_values("doc_id")
    assert after.reset_index(drop=True).equals(before.reset_index(drop=True))
