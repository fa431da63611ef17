"""``functions/arrownp``: the one Arrow -> numpy conversion.

Pins the helper's rules (nulls raise naming the column; chunked, empty
and sliced input; zero-copy and read-only when the dtype matches;
timestamps as int64 in their unit; ragged lists raise) and keeps the
``np.asarray(col.to_pylist(), <numeric dtype>)`` idiom out of the
library.
"""
import ast
import pathlib

import numpy as np
import pyarrow as pa
import pytest

import web_content_extraction_benchmark_ray as pkg
from web_content_extraction_benchmark_ray.functions.arrownp import (
    list_matrix,
    num_col,
)


def test_null_raises_naming_the_column():
    t = pa.table({"doc_id": pa.array([1, None, 3], pa.int64())})
    with pytest.raises(ValueError, match="'doc_id'"):
        num_col(t, "doc_id", np.int64)
    with pytest.raises(ValueError, match="'score'"):
        num_col(pa.array([0.5, None]), "score", np.float64)
    chunked = pa.chunked_array([[1, 2], [None]], pa.int64())
    with pytest.raises(ValueError, match="'k'"):
        num_col(chunked, "k", np.int64)


@pytest.mark.parametrize("chunks", [0, 1, 3])
def test_chunked_input(chunks):
    parts = [list(range(i * 4, i * 4 + 4)) for i in range(chunks)]
    col = pa.chunked_array(parts, pa.int64())
    got = num_col(col, "x", np.int64)
    assert got.dtype == np.int64
    assert got.tolist() == [v for p in parts for v in p]
    t = pa.Table.from_batches(
        [pa.record_batch({"x": pa.array(p, pa.int64())}) for p in parts],
        schema=pa.schema([("x", pa.int64())]),
    )
    assert num_col(t, "x", np.int64).tolist() == got.tolist()


def test_empty_input():
    for col in (pa.array([], pa.int64()), pa.chunked_array([], pa.float64())):
        got = num_col(col, "x", np.float64)
        assert got.shape == (0,) and got.dtype == np.float64
    assert num_col(pa.table({"x": pa.array([], pa.int32())}), "x",
                   np.int64).shape == (0,)


def test_sliced_array_honours_offset():
    arr = pa.array(list(range(10)), pa.int64()).slice(3, 4)
    assert num_col(arr, "x", np.int64).tolist() == [3, 4, 5, 6]
    batch = pa.record_batch({"x": pa.array(range(10), pa.int64())}).slice(7)
    assert num_col(batch, "x", np.int64).tolist() == [7, 8, 9]


def test_matching_dtype_is_zero_copy_and_read_only():
    arr = pa.array([5, 6, 7], pa.int64())
    got = num_col(arr, "x", np.int64)
    assert not got.flags.writeable
    assert got.ctypes.data == arr.buffers()[1].address
    with pytest.raises(ValueError):
        got[0] = 1
    widened = num_col(pa.array([1, 2], pa.int32()), "x", np.int64)
    assert widened.dtype == np.int64 and widened.tolist() == [1, 2]


def test_timestamp_us_to_int64_micros():
    ts = pa.array([0, 1_500_000, 86_400_000_001], pa.timestamp("us"))
    got = num_col(pa.table({"ts": ts}), "ts", np.int64)
    assert got.dtype == np.int64
    assert got.tolist() == [0, 1_500_000, 86_400_000_001]


def test_list_matrix():
    col = pa.chunked_array(
        [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]], pa.list_(pa.float32())
    )
    assert list_matrix(col, np.float64).tolist() == [
        [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]
    ]
    empty = list_matrix(pa.array([], pa.list_(pa.float32())), np.float64)
    assert empty.shape[0] == 0
    # 4 values over 2 rows would reshape to (2, 2) if the widths went
    # unchecked
    with pytest.raises(ValueError, match="ragged"):
        list_matrix(pa.array([[1.0], [2.0, 3.0, 4.0]]), np.float64)


def _casts_loop_var(comp: ast.ListComp) -> bool:
    """``[int(v) for v in ...]`` / ``[float(v) for v in ...]``."""
    elt, target = comp.elt, comp.generators[0].target
    return (
        isinstance(elt, ast.Call)
        and getattr(elt.func, "id", None) in ("int", "float")
        and len(elt.args) == 1
        and isinstance(elt.args[0], ast.Name)
        and isinstance(target, ast.Name)
        and elt.args[0].id == target.id
    )


def _pylist_numeric_sites(src: str) -> list[int]:
    """Lines of ``np.asarray/np.array(<...>.to_pylist(), <dtype>)`` (also
    ``[int(v) for v in <...>.to_pylist()]``) with a dtype other than
    ``object``."""
    hits = []
    for n in ast.walk(ast.parse(src)):
        if not (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("asarray", "array")
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id in ("np", "numpy")
            and n.args
        ):
            continue
        arg = n.args[0]
        if isinstance(arg, ast.ListComp) and _casts_loop_var(arg):
            arg = arg.generators[0].iter
        if not (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "to_pylist"
        ):
            continue
        dtype = n.args[1] if len(n.args) > 1 else next(
            (k.value for k in n.keywords if k.arg == "dtype"), None
        )
        if dtype is None or ast.unparse(dtype) not in ("object", "np.object_"):
            hits.append(n.lineno)
    return hits


def test_guard_catches_the_idiom():
    src = (
        "a = np.asarray(t.column('x').to_pylist(), np.int64)\n"
        "b = np.array(\n    t['y'].to_pylist(),\n    dtype=np.float64,\n)\n"
        "c = np.asarray([int(i) for i in t.column('z').to_pylist()], np.int64)\n"
        "d = np.asarray(t.column('s').to_pylist(), dtype=object)\n"
    )
    assert _pylist_numeric_sites(src) == [1, 2, 6]


def test_no_pylist_numeric_idiom():
    root = pathlib.Path(pkg.__file__).parent
    found = {
        f"{p.relative_to(root)}:{line}"
        for p in sorted(root.rglob("*.py"))
        for line in _pylist_numeric_sites(p.read_text())
    }
    assert not found, (
        "convert numeric columns with functions/arrownp.num_col: "
        f"{sorted(found)}"
    )
