#!/usr/bin/env python
"""Benchmark harness for the Ray-Data extraction engine.

Runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
``/root/testdata/sf0.1``) in a fresh local Ray session and prints ONE JSON
line: ``{"metric": ..., "value": total_sec, "unit": "sec", "queries":
{name: sec, ...}, "sf": ..., "num_cpus": N, ...}``.

``--scaling`` evidences the north rule's two-cluster-size criterion inside
this single-node sandbox: the SAME headline job runs in two fresh
processes at ``num_cpus=N`` and ``num_cpus=4N`` (``--scaling-cpus``,
default ``1,4``) on identical input, and the report includes docs/sec
at both plus scaling efficiency ``(thr_4N / thr_N) / 4`` (target
>= 0.8).  Results are recorded in BASELINE.md.

Only this script (and the pytest fixture / CLI) own a Ray session;
the library and ``__ray_entry__.py`` never call ``ray.init``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

DEFAULT_SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
# the host's usable CPUs: every partition count derives from the session's
# CPUs (stages/shuffle.session_cpus), so a session wider than the host
# inflates all of them
DEFAULT_CPUS = int(
    os.environ.get("RAY_GRAFT_CPUS") or len(os.sched_getaffinity(0))
)

HEADLINE_MODELS = ("bte", "justext", "density", "readability", "tagclean")


def _consume(res) -> int:
    """Row count of a query result.  A lazy Dataset executes fully with a
    distributed count (rows are counted on the workers, never pulled
    through the driver: a driver-side iter_batches pull was measured to
    serialize the tail of the pipeline and cap scaling); a DataFrame or
    table is already materialized and counts with ``len``."""
    import ray.data

    return res.count() if isinstance(res, ray.data.Dataset) else len(res)


def run_bench(sf_dir: str, num_cpus: int, headline_only: bool = False,
              repeat: int = 1, trials: int = 1) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=num_cpus, include_dashboard=False,
            logging_level="ERROR",
        )
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.extraction import (
        extraction_pipeline,
    )
    from web_content_extraction_benchmark_ray.sources.synth import (
        build_spans_table,
    )

    n_docs = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")
    ).metadata.num_rows
    # synthesize (cached) OUTSIDE the timed region — it is test input, not
    # pipeline work
    spans_path = build_spans_table(sf_dir, repeat=repeat)
    n_docs *= repeat

    # Warm-up: run the same pipeline once at sf0.001 so Ray worker
    # processes/imports are paid before the timed region (we measure
    # steady-state throughput, not interpreter startup).
    warm_spans = build_spans_table("/root/testdata/sf0.001")
    _consume(
        extraction_pipeline(warm_spans, models=HEADLINE_MODELS)
    )

    timings: dict[str, float] = {}
    counts: dict[str, int] = {}

    def timed(name, thunk):
        best = None
        for _ in range(max(1, trials)):  # min-of-trials damps shared-VM noise
            t0 = time.perf_counter()
            counts[name] = thunk()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        timings[name] = round(best, 3)

    # headline: reassembly shuffle + 5-model extraction over every doc
    # Geometry: the reassembly sort now uses EXPLICIT uniform boundaries
    # over a 2^20 bucket space (stages/reassemble.py), so partitions are
    # balanced to ~0.2% at any count — 2 blocks/cpu measured best (more
    # partitions only add sort/scheduling overhead once balanced;
    # sampled boundaries previously skewed task rows 3x).
    #
    # Full-bench mode writes the output to the shared extraction cache
    # (pipelines/extractcache.py) — the production sink shape: extraction
    # lands in checkpointed partitions ONCE (run_checkpointed: slices,
    # seals, commits, one lineage record per partition) and scores_build
    # streams its models back instead of re-extracting.  The timing
    # therefore includes the write and the read back; --headline-only
    # (the scaling path) keeps the pure-compute count for clean docs/sec.
    if headline_only or repeat != 1:
        timed(
            "extract_multi",
            lambda: _consume(
                extraction_pipeline(spans_path, models=HEADLINE_MODELS)
            ),
        )
    else:
        from web_content_extraction_benchmark_ray.pipelines import (
            extractcache,
        )

        def _extract_to_cache():
            extractcache.clear(sf_dir)  # every trial pays the full build
            extractcache.ensure(sf_dir, HEADLINE_MODELS)
            return _consume(
                extractcache.read(sf_dir, HEADLINE_MODELS)
            )

        timed("extract_multi", _extract_to_cache)

    if not headline_only:
        # The scores/complexity tables are computed once per (corpus, code
        # version) and cached under /tmp (state/memo.cached_parquet); with
        # a warm cache the eval/complexity query timings only measure
        # parquet re-reads.  Clear the caches and time the builds as their OWN entries (single timing — a second
        # trial would be a cache hit), so the real DOM-walk/scoring
        # compute appears in the reported totals and the per-query
        # numbers honestly measure their marginal cost.
        from web_content_extraction_benchmark_ray.state.memo import clear_parquet

        for _name in ("scores", "complexity"):
            clear_parquet(_name, sf_dir)
        from web_content_extraction_benchmark_ray.pipelines.complexity import (
            complexity_parquet,
        )
        from web_content_extraction_benchmark_ray.pipelines.queries import (
            _scores_parquet,
        )

        _t0 = time.perf_counter()
        _scores_parquet(sf_dir)
        timings["scores_build"] = round(time.perf_counter() - _t0, 3)
        _t0 = time.perf_counter()
        complexity_parquet(sf_dir)
        timings["complexity_build"] = round(time.perf_counter() - _t0, 3)

        # every registered driver query, under its registry name
        import __ray_entry__

        for name, query in __ray_entry__.queries().items():
            timed(name, lambda query=query: _consume(query(sf_dir)))

    extract_sec = timings["extract_multi"]
    docs_per_sec = round(n_docs / extract_sec, 2) if extract_sec else 0.0
    total = round(sum(timings.values()), 3)
    return {
        "metric": "wceb_ray_pipelines_total",
        "value": total,
        "unit": "sec",
        "queries": timings,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "n_docs": n_docs,
        "docs_per_sec_extract": docs_per_sec,
        "rows": counts,
    }


def run_scaling(sf_dir: str, lo: int, hi: int, repeat: int | None = None,
                rounds: int = 5) -> dict:
    """Same headline job at two parallelism levels in FRESH processes.

    ``lo``/``hi`` are the session CPU counts (``--scaling-cpus``, default
    ``1,4``: the N / 4N pair on a 4-vCPU host; a pair wider than the
    host's usable CPUs oversubscribes it and measures contention, not
    scaling).

    The corpus is replicated (default 32x -> 160k docs at sf0.1) so that
    useful compute, not fixed startup/shuffle latency, dominates at the
    higher parallelism — mirroring the per-node data volume a real
    multi-node run would carry.

    The sandbox is a VM on a SHARED host: co-tenant load inflates task
    time unpredictably and only ever DEGRADES the measured ratio.  The
    run executes ``rounds`` independent (lo, hi) pairs and reports the
    **median** round's efficiency (round-1's best-of-N was judged a
    generous estimator), with every round's numbers disclosed."""
    import statistics

    repeat = 32 if repeat is None else repeat
    round_results = []
    for _ in range(max(1, rounds)):
        round_results.append(_run_scaling_pair(sf_dir, lo, hi, repeat))
    med_eff = round(
        statistics.median(r["efficiency"] for r in round_results), 3
    )
    # representative round = the one whose efficiency is closest to the
    # median (for the queries/docs_per_sec detail fields)
    rep = min(round_results, key=lambda r: abs(r["efficiency"] - med_eff))
    return {
        "metric": "scaling_efficiency",
        "value": med_eff,
        "unit": "ratio",
        "estimator": f"median of {len(round_results)} rounds",
        "queries": rep["queries"],
        "sf": sf_dir,
        "num_cpus": hi,
        "docs_per_sec": rep["docs_per_sec"],
        "n_docs": rep["n_docs"],
        "rounds": [
            {"efficiency": r["efficiency"], "docs_per_sec": r["docs_per_sec"]}
            for r in round_results
        ],
        "best": max(r["efficiency"] for r in round_results),
        "target": 0.8,
        "pass": med_eff >= 0.8,
    }


def _run_scaling_pair(sf_dir: str, lo: int, hi: int, repeat: int) -> dict:
    results = {}
    for cpus in (lo, hi):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--single",
             "--headline-only", "--num-cpus", str(cpus), "--sf-dir", sf_dir,
             "--repeat", str(repeat), "--trials", "2"],
            capture_output=True, text=True, timeout=3600,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        last = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")]
        if not last:
            raise RuntimeError(
                f"scaling run at num_cpus={cpus} produced no JSON; "
                f"stderr tail: {proc.stderr[-2000:]}"
            )
        results[cpus] = json.loads(last[-1])
    thr_lo = results[lo]["docs_per_sec_extract"]
    thr_hi = results[hi]["docs_per_sec_extract"]
    eff = round((thr_hi / thr_lo) / (hi / lo), 3) if thr_lo else 0.0
    return {
        "efficiency": eff,
        "queries": {
            f"extract_multi@{lo}cpus": results[lo]["queries"]["extract_multi"],
            f"extract_multi@{hi}cpus": results[hi]["queries"]["extract_multi"],
        },
        "docs_per_sec": {str(lo): thr_lo, str(hi): thr_hi},
        "n_docs": results[hi]["n_docs"],
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    ap.add_argument("--num-cpus", type=int, default=DEFAULT_CPUS)
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--scaling-cpus", default="1,4")
    ap.add_argument("--headline-only", action="store_true")
    ap.add_argument("--repeat", type=int, default=None,
                    help="replicate the corpus N times (scaling default: 32)")
    ap.add_argument("--rounds", type=int, default=5,
                    help="independent scaling pairs; median round reported")
    ap.add_argument("--trials", type=int, default=2,
                    help="run each timed query N times, report the min "
                         "(min damps shared-host noise)")
    ap.add_argument("--single", action="store_true",
                    help="internal: one fresh-session bench run")
    args = ap.parse_args()

    if args.scaling:
        lo, hi = (int(x) for x in args.scaling_cpus.split(","))
        out = run_scaling(args.sf_dir, lo, hi, repeat=args.repeat,
                          rounds=args.rounds)
    else:
        out = run_bench(args.sf_dir, args.num_cpus,
                        headline_only=args.headline_only,
                        repeat=args.repeat or 1, trials=args.trials)
        import ray

        ray.shutdown()
    print(_final_line(out))


# The driver records only the last 2000 characters of stdout and parses a
# JSON line out of that tail; the full per-query detail line is several KB, so
# printing it last left round 4's official record with "parsed": null.
# Keep stdout's FINAL line under the tail window: when the full record
# fits, print it verbatim (one JSON line, as documented); when it does
# not, persist the full record to BENCH/BENCH_last_full.json and print a
# compact summary (totals + the slowest queries) as the final line.
_TAIL_BUDGET = 1800


def _final_line(out: dict) -> str:
    full = json.dumps(out)
    if len(full) <= _TAIL_BUDGET:
        return full
    detail_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH",
        "BENCH_last_full.json",
    )
    try:
        os.makedirs(os.path.dirname(detail_path), exist_ok=True)
        with open(detail_path, "w") as f:
            f.write(full + "\n")
    except OSError:
        detail_path = None
    compact = {
        k: out[k]
        for k in ("metric", "value", "unit", "sf", "num_cpus", "n_docs",
                  "docs_per_sec_extract")
        if k in out
    }
    queries = out.get("queries", {})
    compact["n_queries"] = len(queries)
    if detail_path:
        compact["detail"] = os.path.relpath(
            detail_path, os.path.dirname(os.path.abspath(__file__))
        )
    # slowest queries first, as many as fit in the tail budget
    ranked = sorted(queries.items(), key=lambda kv: -kv[1])
    compact["queries"] = {}
    for name, sec in ranked:
        compact["queries"][name] = sec
        if len(json.dumps(compact)) > _TAIL_BUDGET - 100:
            del compact["queries"][name]
            break
    return json.dumps(compact)


if __name__ == "__main__":
    main()
