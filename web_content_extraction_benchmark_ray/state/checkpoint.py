"""Partition-granular checkpoint / lineage / resume for extraction runs.

North-rule requirement: "every partition emits lineage records and
extraction metrics to a checkpoint store so a killed run resumes at
partition granularity."  The reference's weaker analogue is
``--skip-existing`` (reload finished JSONL, skip done page ids —
``/root/reference/src/extraction_benchmark/extract.py:93-104``); here the
unit of resume is a doc_id hash partition, not a whole (model x dataset)
file.

Layout under ``out_dir``::

    part-00000/*.parquet      completed partition output (atomic rename)
    part-00001.tmp/*.parquet  a pending partition's slices, being written
    part-00001.tmp/_SEAL.json the slices are complete (see Seal)
    _manifest/part-00000.json lineage record, written AFTER the rename

A partition is complete iff its manifest exists; ``run_checkpointed`` is
idempotent — rerunning after a crash commits only manifest-less
partitions (the anti-join against the manifest is the resume path) and
never rewrites completed ones.  A pid names a different doc set under
another partition count, so a resume with a P other than the committed
manifests' raises a ``ValueError`` instead of mixing the two.

Lineage record fields (FIXTURES.md §6): partition id, input files,
models, doc/row/error counts, wall ms, partition count — enough to
re-derive any output partition from its inputs.  ``wall_ms`` is the
invocation's wall time from its start up to that partition's commit;
for a partition sealed by an earlier invocation, it is that sealed
``wall_ms`` plus this invocation's time up to the commit.

One invocation runs the flagship ``extraction_pipeline`` at most once,
over every pending partition that has no valid seal,
``partition=(unsealed, P)``: a source-side predicate
(``stages/skew.filter_partition``) keeps the docs with
``partition_of(doc_id, P)`` (crc32) in that set, so the spans table is
scanned once per pipeline lane however many partitions are pending, and
the job gets the pipeline's skew routing, sort exchange and size-aware
partition count.  There is no reassembly or extraction code here.

Write sink: after the extract step, ``write_partition_slices`` runs as
one ``map_batches(batch_size=None)`` task per extracted block.  It
splits the block by ``partition_of(doc_id, P)``, writes each slice into
``part-NNNNN.tmp/`` under a name derived from the slice's content (so a
retried task overwrites its own files instead of adding rows; each file
goes to a temp name first and is renamed into place), and returns one
stats row per partition it touched: rows, docs, error rows.  The driver
sums those rows per partition; the lineage counts come from the writes,
never from a recount.

Seal: once the job has drained, every partition it computed is
complete in its ``.tmp`` directory, and the driver writes
``part-NNNNN.tmp/_SEAL.json`` (temp name, then ``os.replace``).  The
seal holds the partition's lineage record (``wall_ms`` up to the seal),
the job key — ``memo.source_key`` of the input (realpath, size,
``mtime_ns`` per file), the model names, P and
``memo.code_fingerprint()`` — and the sorted ``[name, size]`` of the
slice files.  On entry, a pending partition keeps its ``.tmp`` only when
its seal's key equals this invocation's and its file list equals the
directory's; every other pending ``.tmp`` is removed, and only those
partitions are computed.  A run with an explicit ``(name, callable)``
model writes no seal (a callable has no fingerprint), so it always
recomputes.

Commit: the driver commits the pending partitions in pid order — the
seal is removed, ``part-NNNNN.tmp`` (created empty when the partition
has no docs) is renamed over ``part-NNNNN`` atomically, and only then is
the manifest written, from the seal or from the fresh totals.
``fail_after=k`` raises right after the k-th commit of the invocation.

What a crash loses: the partitions committed so far are kept, and so
are the sealed ones: the next invocation commits them without running a
job.  Only the partitions whose output was never sealed — every pending
partition when the driver dies before the job drains (their ``.tmp``
directories may hold some slices, but no seal) — are recomputed.
``read_output`` reads committed partitions only.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..pipelines.extraction import extraction_pipeline
from ..schema import EXTRACTIONS
from ..sources.storage import read_spans, table_files
from ..stages.extract import DEFAULT_MODELS
from ..stages.skew import partition_ids
from .memo import code_fingerprint, source_key

DEFAULT_NUM_PARTITIONS = 8
SEAL = "_SEAL.json"

SLICE_STATS = pa.schema(
    [
        ("pid", pa.int64()),
        ("rows", pa.int64()),
        ("docs", pa.int64()),
        ("errors", pa.int64()),
    ]
)


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def _part_dir(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, f"part-{pid:05d}")


def completed_partitions(out_dir: str) -> set[int]:
    mdir = _manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return set()
    out = set()
    for name in os.listdir(mdir):
        if name.startswith("part-") and name.endswith(".json"):
            out.add(int(name[5:-5]))
    return out


def read_lineage(out_dir: str) -> list[dict]:
    mdir = _manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return []
    records = []
    for name in sorted(os.listdir(mdir)):
        if name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                records.append(json.load(f))
    return records


def _slice_name(part: pa.Table) -> str:
    """File name of one slice, a function of its rows' (doc_id, model)
    keys only: a retried task writes the same names, and two different
    slices never share one (a (doc, model) row is written once)."""
    keys = pc.binary_join_element_wise(part["doc_id"], part["model"], "\t")
    digest = hashlib.md5("\n".join(sorted(keys.to_pylist())).encode())
    return digest.hexdigest()[:20] + ".parquet"


def write_partition_slices(
    batch: pa.Table, out_dir: str, num_partitions: int, count_model: str
) -> pa.Table:
    """Write sink of a checkpoint run: write each partition's slice of
    an extracted block into ``part-NNNNN.tmp/`` and return one
    ``SLICE_STATS`` row per partition written.  ``docs`` counts the rows
    of ``count_model`` (the job's first model): a doc has exactly one
    of those, so it is counted once even if its rows span two blocks."""
    pid_of = partition_ids(batch.column("doc_id"), num_partitions)
    stats = []
    for pid in np.unique(pid_of).tolist():
        part = batch.filter(pa.array(pid_of == pid))
        tmp_dir = _part_dir(out_dir, pid) + ".tmp"
        os.makedirs(tmp_dir, exist_ok=True)
        path = os.path.join(tmp_dir, _slice_name(part))
        staging = f"{path}.{uuid.uuid4().hex}.inprogress"
        pq.write_table(part, staging)
        os.replace(staging, path)
        stats.append({
            "pid": pid,
            "rows": part.num_rows,
            "docs": pc.sum(pc.equal(part["model"], count_model)).as_py() or 0,
            "errors": pc.sum(pc.not_equal(part["error"], "")).as_py() or 0,
        })
    return pa.Table.from_pylist(stats, schema=SLICE_STATS)


def _model_name(model) -> str:
    return model if isinstance(model, str) else model[0]


def _job_key(spans_path: str, models, num_partitions: int):
    """What a partition's output is a function of: the input files'
    ``file_key``s, the model names, P and the package code, in the form a
    seal reads back from JSON.  None when a model is an explicit
    ``(name, callable)`` pair: a callable has no fingerprint, so its
    partitions are never sealed."""
    if not all(isinstance(m, str) for m in models):
        return None
    key = {
        "source": source_key(spans_path),
        "models": list(models),
        "num_partitions": num_partitions,
        "code": code_fingerprint(),
    }
    return json.loads(json.dumps(key))


def _slice_files(tmp_dir: str) -> list[list]:
    """Sorted ``[name, size]`` of a partition directory's slice files."""
    return [
        [os.path.basename(f), os.path.getsize(f)] for f in table_files(tmp_dir)
    ]


def _write_seal(tmp_dir: str, key: dict, record: dict) -> None:
    seal = {"key": key, "files": _slice_files(tmp_dir), "record": record}
    path = os.path.join(tmp_dir, SEAL)
    with open(path + ".tmp", "w") as f:
        json.dump(seal, f)
    os.replace(path + ".tmp", path)


def _sealed_record(tmp_dir: str, key) -> dict | None:
    """The lineage record sealed in ``tmp_dir``, or None unless the seal
    was written under ``key`` and lists exactly the directory's slice
    files (names and sizes)."""
    if key is None:
        return None
    try:
        with open(os.path.join(tmp_dir, SEAL)) as f:
            seal = json.load(f)
    except (OSError, ValueError):  # no seal, or not one this code wrote
        return None
    if seal.get("key") != key or seal.get("files") != _slice_files(tmp_dir):
        return None
    return seal.get("record")


def _run_and_seal(
    spans_path: str, out_dir: str, models, num_partitions: int, pids, key, t0
) -> dict[int, dict]:
    """Run ONE ``extraction_pipeline`` job over the partitions ``pids``
    with the write sink, drain it, then seal each partition (unless
    ``key`` is None).  Returns each partition's lineage record."""
    stats = extraction_pipeline(
        spans_path, models=models, partition=(pids, num_partitions)
    ).map_batches(
        write_partition_slices,
        fn_kwargs={
            "out_dir": out_dir,
            "num_partitions": num_partitions,
            "count_model": _model_name(models[0]),
        },
        batch_format="pyarrow",
        batch_size=None,
    )
    totals = {pid: {"rows": 0, "docs": 0, "errors": 0} for pid in pids}
    for row in stats.iter_rows():  # one small row per (block, partition)
        total = totals[row["pid"]]
        for k in total:
            total[k] += int(row[k])

    input_files = table_files(spans_path)
    records = {}
    for pid in pids:
        tmp_dir = _part_dir(out_dir, pid) + ".tmp"
        os.makedirs(tmp_dir, exist_ok=True)  # an empty partition writes nothing
        records[pid] = {
            "partition_id": pid,
            "num_partitions": num_partitions,
            "input_files": input_files,
            "models": [_model_name(m) for m in models],
            "doc_count": totals[pid]["docs"],
            "row_count": totals[pid]["rows"],
            "error_count": totals[pid]["errors"],
            "wall_ms": int((time.perf_counter() - t0) * 1000),
        }
        if key is not None:
            _write_seal(tmp_dir, key, records[pid])
    return records


def run_checkpointed(
    spans_path: str,
    out_dir: str,
    models=DEFAULT_MODELS,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    fail_after: int | None = None,
) -> list[dict]:
    """Commit every pending partition with its lineage record: reuse the
    sealed ones, and compute the rest in one extraction_pipeline run.

    ``fail_after=k`` injects a crash right after the k-th partition this
    invocation commits (test hook for the resume contract).  Returns the
    lineage records of partitions completed by THIS invocation; each
    record's ``wall_ms`` is the time from the invocation's start to that
    partition's commit, plus the sealed ``wall_ms`` of the invocation
    that computed it when that was an earlier one."""
    t0 = time.perf_counter()
    other = {
        r.get("num_partitions", num_partitions) for r in read_lineage(out_dir)
    }
    other.discard(num_partitions)
    if other:
        raise ValueError(
            f"{out_dir} holds partitions committed with num_partitions="
            f"{sorted(other)}; this run asks for num_partitions="
            f"{num_partitions}"
        )
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    done = completed_partitions(out_dir)
    pending = [pid for pid in range(num_partitions) if pid not in done]
    if not pending:
        return []
    key = _job_key(spans_path, models, num_partitions)
    carried = {}  # pid -> lineage record sealed by an earlier invocation
    for pid in pending:
        tmp_dir = _part_dir(out_dir, pid) + ".tmp"
        record = _sealed_record(tmp_dir, key)
        if record is None:
            shutil.rmtree(tmp_dir, ignore_errors=True)
        else:
            carried[pid] = record
    unsealed = [pid for pid in pending if pid not in carried]
    fresh = (
        _run_and_seal(spans_path, out_dir, models, num_partitions, unsealed, key, t0)
        if unsealed
        else {}
    )

    new_records: list[dict] = []
    for pid in pending:
        part_dir = _part_dir(out_dir, pid)
        tmp_dir = part_dir + ".tmp"
        with contextlib.suppress(FileNotFoundError):  # unsealed: a callable
            os.remove(os.path.join(tmp_dir, SEAL))
        shutil.rmtree(part_dir, ignore_errors=True)
        os.replace(tmp_dir, part_dir)  # atomic partition commit

        record = dict(carried[pid]) if pid in carried else fresh[pid]
        sealed_ms = record["wall_ms"] if pid in carried else 0
        record["wall_ms"] = sealed_ms + int((time.perf_counter() - t0) * 1000)
        mpath = os.path.join(_manifest_dir(out_dir), f"part-{pid:05d}.json")
        tmp = mpath + ".tmp"
        with open(tmp, "w") as f:
            json.dump(record, f)
        os.replace(tmp, mpath)  # manifest commit AFTER data commit
        new_records.append(record)

        if fail_after is not None and len(new_records) >= fail_after:
            raise RuntimeError(
                f"injected crash after {fail_after} partitions (test hook)"
            )
    return new_records


def committed_files(out_dir: str) -> list[str]:
    """The data files of the committed partitions, in pid order."""
    return [
        f
        for pid in sorted(completed_partitions(out_dir))
        for f in table_files(_part_dir(out_dir, pid))
    ]


def read_output(out_dir: str):
    """Dataset over all completed partitions (``EXTRACTIONS`` rows; an
    empty Dataset of that schema when no committed partition holds a
    file).  The slice files are read through ``read_spans`` (2 blocks
    per CPU): Ray's default ask splits many small files into more
    blocks than the session runs at once."""
    files = committed_files(out_dir)
    if not files:
        return ray.data.from_arrow(EXTRACTIONS.empty_table())
    return read_spans(files)
