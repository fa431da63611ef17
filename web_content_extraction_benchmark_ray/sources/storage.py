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

Spans tables and extraction output (the pipeline's hot reads) go
through ``read_spans``, a ``FooterSource`` read planned from the
parquet footers; ``read_table`` and ``capped_num_blocks`` serve the
other families through ``ray.data.read_parquet``.
"""
from __future__ import annotations

import functools

import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import ReadTask


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


def capped_num_blocks(uri, requested: int) -> int:
    """Cap a block-count ask at the row-group count of a table (a path,
    or a list of its parquet files), for the callers that read through
    ``ray.data.read_parquet`` (``read_table``'s callers in
    ``pipelines/relational.py`` and ``pipelines/events.py``).

    Ray fulfils an over-ask by synthesizing zero-row read blocks that
    carry NO schema; those empty bundles flip the operator's output
    schema back and forth ("RefBundle with a different schema" warnings)
    and break schema-stable fusion.  The footer scan stops as soon as the
    ask is known to be satisfiable, so large tables (file count >= ask)
    pay nothing."""
    import pyarrow.parquet as pq

    files = table_files(uri) if isinstance(uri, str) else uri
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


def _read_pieces(pieces, columns):
    """One read task's rows: the listed row groups of each file,
    concatenated into ONE metadata-free block."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tables = [
        pq.ParquetFile(f).read_row_groups(rgs, columns=columns, use_threads=False)
        for f, rgs in pieces
    ]
    return [pa.concat_tables(tables).replace_schema_metadata(None)]


def _cut(weights: list[int], k: int) -> list[list[int]]:
    """Split unit indices into at most ``k`` contiguous groups balanced
    by weight: a unit joins the group its weight midpoint falls in."""
    total = sum(weights)
    groups: list[list[int]] = []
    last, acc = -1, 0
    for i, w in enumerate(weights):
        g = min(k - 1, (2 * acc + w) * k // (2 * total))
        acc += w
        if g != last:
            groups.append([])
            last = g
        groups[-1].append(i)
    return groups


def _unit_bytes(rg, columns) -> int:
    """Uncompressed bytes of one row group's ``columns`` (all columns
    when None); a nested column counts every leaf under its name."""
    if columns is None:
        return rg.total_byte_size
    wanted = set(columns)
    return sum(
        rg.column(i).total_uncompressed_size
        for i in range(rg.num_columns)
        if rg.column(i).path_in_schema.split(".")[0] in wanted
    )


class FooterSource(ray.data.Datasource):
    """A parquet read planned from the footers alone.

    Each non-empty row group is one unit; contiguous units are grouped
    into at most ``num_blocks`` read tasks balanced by bytes (more only
    when a task would exceed ``DataContext.target_max_block_size``), and
    each task yields exactly one block.  A task reports the exact rows
    and uncompressed bytes of its row groups' ``columns``; the schema is
    ``clean_schema`` of the first file.  A table without rows reads as
    one empty block of that schema.  ``ray.data.read_parquet`` would
    instead build a ``ParquetDataset``, prefetch its metadata and sample
    fragments in remote tasks before it plans, a fixed cost per read
    that small jobs feel."""

    def __init__(self, files: list[str], columns, num_blocks: int):
        import pyarrow.parquet as pq
        from ray.data import DataContext

        units = []  # (file, row group, rows, bytes)
        for f in files:
            md = pq.read_metadata(f)
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                if rg.num_rows:
                    units.append((f, g, rg.num_rows, _unit_bytes(rg, columns)))
        schema = clean_schema(files[0], columns)
        limit = DataContext.get_current().target_max_block_size
        weights = [max(1, u[3]) for u in units]
        k = min(num_blocks, len(units))
        groups = _cut(weights, k)
        while limit and k < len(units) and max(
            sum(weights[i] for i in g) for g in groups
        ) > limit:
            k += 1
            groups = _cut(weights, k)
        self._tasks = []
        for g in groups or [[]]:
            part = [units[i] for i in g]
            pieces: dict[str, list[int]] = {} if part else {files[0]: []}
            for f, rg, _, _ in part:
                pieces.setdefault(f, []).append(rg)
            meta = BlockMetadata(
                num_rows=sum(u[2] for u in part),
                size_bytes=sum(u[3] for u in part),
                input_files=list(pieces),
                exec_stats=None,
            )
            read = functools.partial(_read_pieces, list(pieces.items()), columns)
            self._tasks.append(ReadTask(read, meta, schema))

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    def estimate_inmemory_data_size(self) -> int:
        return sum(t.metadata.size_bytes for t in self._tasks)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return list(self._tasks)

    def get_name(self) -> str:
        return "Parquet"  # the operator stays ``ReadParquet``


def read_spans(uri, columns=None, num_blocks: int | None = None):
    """Read a spans/parquet table (a path, or a list of its parquet files)
    with the session's block geometry, planned from the footers
    (``FooterSource``).

    ``num_blocks`` defaults to 2 per CPU: few enough that a shuffle's
    mapper x reducer fragment count stays small at small scale, enough to
    keep every CPU busy.  A block is one or more whole row groups, so no
    zero-row block is ever created.  The pipeline's reads, the skew
    census, the extraction cache's reads and ``read_output`` all come
    through here, so they share one rule."""
    from ..stages.shuffle import session_cpus

    files = table_files(uri) if isinstance(uri, str) else list(uri)
    source = FooterSource(files, columns, num_blocks or 2 * session_cpus())
    return ray.data.read_datasource(source, override_num_blocks=source.num_tasks)


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
