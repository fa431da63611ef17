"""Arrow column -> numpy: the one way a numeric column becomes an array.

Every numeric column the library hands to numpy goes through ``num_col``;
fixed-width list columns go through ``list_matrix``.  Neither builds a
Python object per value: ``np.asarray(col.to_pylist(), dtype)`` did, and
measured 2-3x the cold time of a relational join at sf0.1 (61x for a
(2000, 64) float list column).  ``tests/test_arrownp.py`` pins the rules
below, and ``tests/test_arrownp.py::test_no_pylist_numeric_idiom`` keeps
the old idiom out of the library.

Rules:

* **Nulls raise.**  ``num_col`` raises a ``ValueError`` naming the column
  when it holds a null: numpy has no null, and the old idiom turned a null
  into NaN (float) or a bare ``TypeError`` (int), while ``to_numpy`` plus
  an int cast gives ``INT64_MIN``.  A column that is nullable by design is
  filtered or filled at the call site, where its meaning is known.
* **The result may be read-only.**  When the column has no nulls, is one
  chunk and already has ``dtype``, the array is a zero-copy, read-only
  view of the Arrow buffer.  A caller that writes into it (an in-place
  sort, ``a[m] = ...``, ``+=``) takes an explicit ``.copy()``.
* Timestamps convert to int64 in their own unit (``timestamp[us]`` ->
  epoch microseconds), as ``pc.cast(ts, pa.int64())`` does.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def num_col(src, name: str, dtype) -> np.ndarray:
    """Numeric column -> 1-D numpy array of ``dtype``.

    ``src`` is a Table/RecordBatch (``name`` selects the column) or an
    Array/ChunkedArray (``name`` labels it in the null error).  Chunked
    input of any chunk count, empty input and sliced arrays are accepted.
    """
    col = src.column(name) if isinstance(src, (pa.Table, pa.RecordBatch)) else src
    if col.null_count:
        raise ValueError(
            f"column {name!r} has {col.null_count} null value(s); numpy has "
            "no null: filter or fill them before converting"
        )
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col.to_numpy(zero_copy_only=False).astype(dtype, copy=False)


def list_matrix(col, dtype) -> np.ndarray:
    """Fixed-width list<numeric> column -> (n, dim) matrix via the value
    buffer (flatten() honors list offsets).  Ragged input raises."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # explicit fixed-width check: a ragged column whose TOTAL element
    # count happens to divide by the row count would reshape
    # "successfully" into wrong rows — a matrix has no meaning for
    # ragged lists, so fail loudly instead of misparsing silently
    offs = np.diff(col.offsets.to_numpy(zero_copy_only=False))
    if len(offs) and not (offs == offs[0]).all():
        raise ValueError(
            "list_matrix requires fixed-width lists; got ragged lengths "
            f"in [{offs.min()}, {offs.max()}]"
        )
    flat = col.flatten().to_numpy(zero_copy_only=False)
    dim = int(offs[0]) if len(offs) else 0
    return flat.astype(dtype, copy=False).reshape(len(col), dim)
