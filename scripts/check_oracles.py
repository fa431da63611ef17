#!/usr/bin/env python
"""Dev harness: run every queries() entry and its oracle_sql() side by side
(what the driver does at sf0.01) and report row-count + value equality.

Usage: python scripts/check_oracles.py [sf_dir] [query ...]
"""
from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd

sys.path.insert(0, ".")

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_index(axis=1)
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort")
    return df.reset_index(drop=True)


def main() -> None:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    # query names: space- and/or comma-separated ("--only" tolerated)
    only = {
        n
        for arg in sys.argv[2:]
        if arg != "--only"
        for n in arg.split(",")
        if n
    }

    import ray

    # the host's usable CPUs (RAY_GRAFT_CPUS overrides): partition counts
    # derive from the session's CPUs, so a wider session inflates them
    cpus = int(
        os.environ.get("RAY_GRAFT_CPUS") or len(os.sched_getaffinity(0))
    )
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    qs, sqls = e.queries(), e.oracle_sql()
    unknown = only - set(qs)
    if unknown:
        print(f"UNKNOWN query name(s): {sorted(unknown)}")
        sys.exit(2)
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"create view {t} as select * from '{sf}/{t}.parquet'")

    # A posting-list cap drop is a bounded-recall trade the no-cap SQL
    # oracles cannot mirror — during an oracle run it is a hard failure,
    # not a warning (ADVICE r4: silent engine/oracle divergence).
    from web_content_extraction_benchmark_ray.stages import dedup as _dedup

    failures = []
    for name in sorted(qs):
        if only and name not in only:
            continue
        if name not in sqls:
            print(f"{name:28s} NO-ORACLE (rows-only check)")
            continue
        drops_before = _dedup.CAP_DROP_COUNT
        try:
            res = qs[name](sf)
            df = res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)
            odf = con.sql(sqls[name]).df()
            if _dedup.CAP_DROP_COUNT != drops_before:
                print(f"{name:28s} CAP-DROP (posting list over "
                      f"LSH_POSTING_CAP dropped — engine diverges from "
                      f"the no-cap oracle)")
                failures.append(name)
                continue
            a, b = normalize(df), normalize(odf)
            if list(a.columns) != list(b.columns):
                print(f"{name:28s} COLS-MISMATCH ray={list(a.columns)} sql={list(b.columns)}")
                failures.append(name)
            elif len(a) != len(b):
                print(f"{name:28s} ROWS-MISMATCH ray={len(a)} sql={len(b)}")
                failures.append(name)
            elif not a.equals(b):
                neq = (a != b) & ~(a.isna() & b.isna())
                bad_cols = [c for c in a.columns if neq[c].any()]
                print(f"{name:28s} VALUES-MISMATCH cols={bad_cols} "
                      f"n_bad={int(neq.any(axis=1).sum())}/{len(a)}")
                failures.append(name)
            else:
                print(f"{name:28s} MATCH ({len(a)} rows)")
        except Exception as exc:
            print(f"{name:28s} ERROR {type(exc).__name__}: {exc}")
            failures.append(name)
    ray.shutdown()
    print("\nFAILURES:", failures if failures else "none")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
