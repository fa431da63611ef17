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
    _manifest/part-00000.json lineage record, written AFTER the rename

A partition is complete iff its manifest exists; ``run_checkpointed`` is
idempotent — rerunning after a crash recomputes only manifest-less
partitions (the anti-join against the manifest is the resume path) and
never rewrites completed ones.

Lineage record fields: partition id, input files, doc/row/error counts,
wall ms, engine partition-count config — enough to re-derive any output
partition from its inputs.

Each pending partition is one run of the flagship
``extraction_pipeline`` with ``partition=(pid, P)``: a source-side
predicate (``stages/skew.filter_partition``) keeps the docs with
``partition_of(doc_id, P) == pid`` (crc32), and the partition gets the
pipeline's skew routing, sort exchange and size-aware partition count.
There is no reassembly or extraction code here.

Scale note: every partition job re-scans the spans table and prunes at
the source (correct, but P scans).  At production scale the input table
is hash-bucketed at rest (one Lance fragment set per bucket), so the
prune becomes a fragment-list read — the layout this module's partition
key (crc32(doc_id) % P) is chosen to line up with.
"""
from __future__ import annotations

import json
import os
import shutil
import time

import ray.data

from ..pipelines.extraction import extraction_pipeline
from ..sources.storage import table_files
from ..stages.extract import DEFAULT_MODELS
from ..stages.skew import partition_of  # noqa: F401  (the layout's key)

DEFAULT_NUM_PARTITIONS = 8


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


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


def run_checkpointed(
    spans_path: str,
    out_dir: str,
    models=DEFAULT_MODELS,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    fail_after: int | None = None,
) -> list[dict]:
    """Run the extraction pipeline with per-partition commit + lineage.

    ``fail_after=k`` injects a crash after k newly-completed partitions
    (test hook for the resume contract).  Returns the lineage records of
    partitions completed by THIS invocation.
    """
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    done = completed_partitions(out_dir)
    input_files = table_files(spans_path)

    new_records: list[dict] = []
    for pid in range(num_partitions):
        if pid in done:
            continue
        t0 = time.perf_counter()
        extracted = extraction_pipeline(
            spans_path, models=models, partition=(pid, num_partitions)
        )

        part_dir = os.path.join(out_dir, f"part-{pid:05d}")
        tmp_dir = part_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        extracted = extracted.materialize()
        n_rows = extracted.count()
        n_docs = n_rows // len(models)  # one row per (doc, model)
        n_err = extracted.filter(expr="error != ''").count()
        extracted.write_parquet(tmp_dir)
        os.makedirs(tmp_dir, exist_ok=True)  # an empty partition writes no file
        shutil.rmtree(part_dir, ignore_errors=True)
        os.replace(tmp_dir, part_dir)  # atomic partition commit

        record = {
            "partition_id": pid,
            "num_partitions": num_partitions,
            "input_files": input_files,
            "models": list(models),
            "doc_count": n_docs,
            "row_count": n_rows,
            "error_count": n_err,
            "wall_ms": int((time.perf_counter() - t0) * 1000),
        }
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


def read_output(out_dir: str):
    """Dataset over all completed partitions."""
    files = [
        f
        for pid in sorted(completed_partitions(out_dir))
        for f in table_files(os.path.join(out_dir, f"part-{pid:05d}"))
    ]
    return ray.data.read_parquet(files)
