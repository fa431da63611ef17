"""Derived state, one rule: a cached value is a function of its inputs'
identity.

Three helpers hold every cache of derived state in the library:

- ``fetch(ref)`` is the worker-side ``ray.get`` of a broadcast object:
  each worker process fetches a ref once and keeps the most recent
  ``FETCH_SLOTS`` of them (an LRU), so a loop that broadcasts a fresh
  object per round (Lloyd, PQ training) does not pile up copies.
- ``memo(name, source, build, *extra)`` is the driver-side memo.  Its
  key is the ``file_key`` of every data file of ``source``, the Ray job
  id and ``extra``; it holds one entry per ``name``.  The job id is in
  every key, because a memoized Dataset or ObjectRef dies with the Ray
  session; a plain value is then only rebuilt after a Ray restart in the
  same driver process.
- ``cached_parquet(name, sf_dir, build_ds)`` is the on-disk table cache
  under ``CACHE_ROOT``.  The table directory's name carries the source
  fingerprint and the package code fingerprint (``code_fingerprint``),
  so a rewritten input or an edited extractor never serves an old table.

Extraction output persists only as ``run_checkpointed`` directories
(``state/checkpoint.py``); ``pipelines/extractcache.py`` keeps them in an
``artifact_root`` version directory.

Every on-disk artifact lives in one version directory under its
``artifact_root(name, sf_dir)``, and a fresh build removes the older
versions there (``drop_other_versions``), so the cache holds one copy
per (name, sf_dir).
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import threading
from collections import OrderedDict

import ray

from ..sources.storage import table_files

CACHE_ROOT = "/tmp/wceb_cache"
FETCH_SLOTS = 8

_FETCHED: OrderedDict = OrderedDict()  # ref hex -> value, per process
_FETCH_LOCK = threading.Lock()
_MEMO: dict = {}  # name -> (key, value), driver process
_CODE_FP: str | None = None


def file_key(path: str) -> tuple[str, int, int]:
    """Staleness key of one file: (realpath, size, st_mtime_ns).

    Second-granularity ``getmtime`` lets a file rewritten within one
    mtime tick serve stale derived state; nanosecond mtime plus size
    closes that window."""
    rp = os.path.realpath(path)
    st = os.stat(rp)
    return (rp, st.st_size, st.st_mtime_ns)


def source_key(source: str) -> tuple:
    """``file_key`` of every data file of a table path or directory."""
    return tuple(file_key(f) for f in table_files(source))


def code_fingerprint() -> str:
    """Package-source fingerprint (relpath + mtime + size of every .py).
    Part of every on-disk cache and checkpoint key, so an edited
    extractor never serves stale derived rows."""
    global _CODE_FP
    if _CODE_FP is None:
        import web_content_extraction_benchmark_ray as pkg

        root = os.path.dirname(pkg.__file__)
        h = hashlib.md5()
        for dirpath, _, files in sorted(os.walk(root)):
            for fn in sorted(files):
                if fn.endswith(".py"):
                    p = os.path.join(dirpath, fn)
                    st = os.stat(p)
                    h.update(
                        f"{os.path.relpath(p, root)}:{st.st_mtime_ns}:"
                        f"{st.st_size};".encode()
                    )
        _CODE_FP = h.hexdigest()[:8]
    return _CODE_FP


def fetch(ref):
    """``ray.get`` a broadcast object once per worker process.  Keyed by
    the ref's hex id, so the cache never pins the object itself."""
    key = ref.hex()
    with _FETCH_LOCK:
        if key in _FETCHED:
            _FETCHED.move_to_end(key)
            return _FETCHED[key]
    val = ray.get(ref)
    with _FETCH_LOCK:
        _FETCHED[key] = val
        while len(_FETCHED) > FETCH_SLOTS:
            _FETCHED.popitem(last=False)
    return val


def memo(name: str, source: str, build, *extra):
    """``build()``, memoized under ``name`` until a file of ``source``
    changes, the Ray job changes, or ``extra`` differs.  A miss drops
    the old entry before building, so at most one value per name is
    held."""
    job = ray.get_runtime_context().get_job_id() if ray.is_initialized() else None
    key = (source_key(source), job, extra)
    hit = _MEMO.get(name)
    if hit is not None and hit[0] == key:
        return hit[1]
    _MEMO.pop(name, None)  # release the old value before building
    val = build()
    _MEMO[name] = (key, val)
    return val


def artifact_root(name: str, sf_dir: str, cache_root: str | None = None) -> str:
    """The directory that holds every version of the cached (name,
    sf_dir) artifact under ``cache_root`` (default ``CACHE_ROOT``)."""
    tag = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:16]
    return os.path.join(cache_root or CACHE_ROOT, f"{name}-{tag}")


def drop_other_versions(path: str) -> None:
    """Remove the siblings of the version directory ``path`` whose names
    do not start with its own: the older versions of the same (name,
    sf_dir).  Entries of this version (its lock file, a concurrent
    builder's tmp dir) stay."""
    root, keep = os.path.split(path)
    for entry in os.listdir(root):
        if not entry.startswith(keep):
            p = os.path.join(root, entry)
            if os.path.isdir(p):
                shutil.rmtree(p, ignore_errors=True)
            else:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(p)  # another builder may remove it first


def cached_parquet(name: str, sf_dir: str, build_ds) -> str:
    """Path of the parquet table ``build_ds()`` writes for ``sf_dir``,
    built once per (source fingerprint, code fingerprint).  A marker
    written after the table marks it complete; a rebuild first removes
    every older table of the same (name, sf_dir)."""
    fp = hashlib.md5(repr(source_key(sf_dir)).encode()).hexdigest()[:16]
    root = artifact_root(name, sf_dir)
    out = os.path.join(root, f"{fp}-{code_fingerprint()}")
    marker = os.path.join(out, "_SOURCE")
    if not os.path.exists(marker):
        shutil.rmtree(root, ignore_errors=True)
        build_ds().write_parquet(out)
        os.makedirs(out, exist_ok=True)  # Ray writes no file for 0 rows
        with open(marker, "w") as f:
            f.write(os.path.abspath(sf_dir))
    return out


def clear_parquet(name: str, sf_dir: str) -> None:
    """Drop every cached table of (name, sf_dir), so the next
    ``cached_parquet`` call builds it."""
    shutil.rmtree(artifact_root(name, sf_dir), ignore_errors=True)
