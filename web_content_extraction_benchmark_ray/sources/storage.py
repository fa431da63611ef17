"""Storage shim: Lance-first table access with a parquet fallback.

The north rule's input is "Lance tables of interleaved text + media
documents".  `pylance` is not installed in this sandbox, so every dataset
here is written/read as an identical-schema multi-file parquet layout;
this shim keeps the swap to Lance a one-liner — call sites use
``read_table(uri)`` / ``write_table(ds, uri)`` and never name a format.

Format resolution:
- a ``.lance`` uri (or ``format='lance'``) uses ``ray.data.read_lance`` /
  ``Dataset.write_lance`` when pylance is importable, else raises with a
  clear message;
- anything else is the parquet path (directory of part files — the
  fragment-set layout both formats share).
"""
from __future__ import annotations


def _have_lance() -> bool:
    try:  # pragma: no cover - pylance absent in this sandbox
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def table_files(uri: str) -> list[str]:
    """The table's data files: the sorted ``*.parquet`` part files of a
    directory, or the single file ``uri`` names."""
    import glob
    import os

    if os.path.isdir(uri):
        return sorted(glob.glob(os.path.join(uri, "*.parquet")))
    return [uri]


def clean_schema(uri: str, columns=None):
    """Metadata-free Arrow schema of a parquet file/dir, subset to
    ``columns``.

    Parquet files written by pandas carry a ``pandas`` metadata blob whose
    presence makes ``pyarrow.Schema`` UNHASHABLE ("unhashable type:
    'dict'"): Ray's block concat/unify hashes schemas to deduplicate, so
    every multi-block bundle read from such a file logs "Failed to hash
    the schemas" and skips the fast path.  Passing an explicit
    metadata-free schema to ``read_parquet`` keeps every downstream block
    schema hashable and stable.  One footer read; the schema must be the
    COLUMN SUBSET when ``columns`` is given (full-schema + columns errors
    in Ray 2.49)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    full = pq.ParquetFile(table_files(uri)[0]).schema_arrow.remove_metadata()
    if columns is None:
        return full
    return pa.schema([full.field(c) for c in columns])


def read_table(uri: str, *, columns=None, override_num_blocks=None,
               format: str | None = None):
    import ray.data

    fmt = format or ("lance" if uri.endswith(".lance") else "parquet")
    if fmt == "lance":
        if not _have_lance():
            raise RuntimeError(
                "pylance is not installed; store the table as parquet "
                "(same schema, same fragment layout) or install pylance"
            )
        return ray.data.read_lance(uri, columns=columns)  # pragma: no cover
    return ray.data.read_parquet(
        uri, columns=columns, override_num_blocks=override_num_blocks,
        schema=clean_schema(uri, columns),
    )


def capped_num_blocks(uri: str, requested: int) -> int:
    """Cap a block-count ask at the table's row-group count.

    Ray fulfils an over-ask by synthesizing zero-row read blocks that
    carry NO schema; those empty bundles flip the operator's output
    schema back and forth ("RefBundle with a different schema" warnings)
    and break schema-stable fusion.  The footer scan stops as soon as the
    ask is known to be satisfiable, so large tables (file count >= ask)
    pay nothing."""
    import pyarrow.parquet as pq

    files = table_files(uri)
    if len(files) >= requested:
        return requested
    rg = 0
    for f in files:
        try:
            rg += pq.ParquetFile(f).num_row_groups
        except OSError:
            rg += 1
        if rg >= requested:
            return requested
    return max(1, rg)


def read_spans(uri: str, columns=None, num_blocks: int | None = None):
    """Read a spans/parquet table with the session's block geometry.

    ``num_blocks`` defaults to 2 per CPU: few enough that a shuffle's
    mapper x reducer fragment count stays small at small scale, enough to
    keep every CPU busy.  The ask is capped at the table's row-group
    count so no zero-row block is ever created.  The pipeline's reads and
    the skew census both come through here, so they share one rule."""
    import ray.data

    from ..stages.shuffle import session_cpus

    if not num_blocks:
        num_blocks = 2 * session_cpus()
    return ray.data.read_parquet(
        uri,
        columns=columns,
        override_num_blocks=capped_num_blocks(uri, num_blocks),
    )


def write_table(ds, uri: str, *, format: str | None = None) -> None:
    fmt = format or ("lance" if uri.endswith(".lance") else "parquet")
    if fmt == "lance":
        if not _have_lance():
            raise RuntimeError(
                "pylance is not installed; write parquet instead"
            )
        ds.write_lance(uri)  # pragma: no cover
        return
    ds.write_parquet(uri)
