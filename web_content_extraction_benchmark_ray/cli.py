"""CLI entry point — the surface a user hands to ``ray job submit``.

Analogue of the reference's ``wceb`` click group (``/root/reference/src/
extraction_benchmark/wceb.py:19-34`` with subcommands convert-datasets /
extract / eval / complexity).  Subcommands:

    extract     spans table -> per-(doc, model) extractions -> a
                checkpoint directory (state/checkpoint.py: one lineage
                record per partition, partition-granular resume)
    eval        extractions x truth -> score records -> parquet
    complexity  per-doc complexity + HTML features -> parquet
    query       run any ``queries()`` entry by name -> parquet

This module starts the Ray session when none is running and shuts down
only a session it started (the library never calls ``ray.init``).  On a
cluster the same command line runs unchanged:
``ray job submit --working-dir . -- python -m web_content_extraction_benchmark_ray.cli extract ...``
with ``address="auto"`` picked up from the job environment.

Example::

    python -m web_content_extraction_benchmark_ray.cli extract \
        --sf-dir /root/testdata/sf0.001 --models bte,justext \
        --out /tmp/out
"""
from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_init(num_cpus: int | None) -> bool:
    """Start a Ray session unless one is running; True when this call
    started it (and so owns its shutdown)."""
    import ray

    if ray.is_initialized():
        return False
    kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
    if num_cpus is not None:
        kwargs["num_cpus"] = num_cpus
    ray.init(address=os.environ.get("RAY_ADDRESS", "local"), **kwargs)
    return True


def cmd_extract(args) -> dict:
    from .sources.synth import build_spans_table
    from .state.checkpoint import read_lineage, run_checkpointed

    spans = args.spans or build_spans_table(args.sf_dir)
    new = run_checkpointed(
        spans, args.out, models=tuple(args.models.split(",")),
        num_partitions=args.num_partitions,
    )
    recs = read_lineage(args.out)
    return {
        "committed": len(new),
        "partitions": len(recs),
        "docs": sum(r["doc_count"] for r in recs),
        "errors": sum(r["error_count"] for r in recs),
    }


def cmd_eval(args) -> dict:
    from .pipelines.evalpipe import scores_pipeline

    ds = scores_pipeline(args.sf_dir, models=tuple(args.models.split(",")))
    ds.write_parquet(args.out)
    out = {"rows": ds.count()}
    if args.report:
        from .pipelines.report import write_report

        # report over the scores just written, so the tables describe the
        # user's --models selection (the banded table joins the same
        # scores against the corpus complexity band).  Sibling path, NOT
        # inside args.out: non-parquet files nested in the dataset dir
        # would break any later read_parquet(args.out) and stale report
        # files would survive overwrites.
        written = write_report(
            args.sf_dir, args.out.rstrip("/") + ".report",
            scores_path=args.out,
        )
        out["report_files"] = sorted(written.values())
    return out


def cmd_complexity(args) -> dict:
    from .pipelines.complexity import complexity_pipeline, features_pipeline

    c = complexity_pipeline(args.sf_dir)
    c.write_parquet(os.path.join(args.out, "complexity"))
    f = features_pipeline(args.sf_dir)
    f.write_parquet(os.path.join(args.out, "features"))
    out = {"complexity_rows": c.count(), "feature_rows": f.count()}
    if getattr(args, "report", False):
        # the reference's visualize_clusters / visualize_classes /
        # visualize_datasets figures (complexity.py:256-340)
        from .pipelines.scatter import write_complexity_figures

        written = write_complexity_figures(
            args.sf_dir, os.path.join(args.out, "figures")
        )
        out["figure_files"] = sorted(written.values())
    return out


def cmd_convert(args) -> dict:
    """Normalize a raw annotated corpus into documents/ground-truth
    parquet (reference ``wceb convert-datasets``, extract.py:41-78)."""
    from .sources.readers import corpus_to_dataset, read_corpus

    pages = corpus_to_dataset(read_corpus(args.kind, args.root))
    truth = corpus_to_dataset(
        read_corpus(args.kind, args.root, ground_truth=True)
    )
    pages.write_parquet(os.path.join(args.out, "documents"))
    truth.write_parquet(os.path.join(args.out, "ground_truth"))
    return {"documents": pages.count(), "ground_truth": truth.count()}


def cmd_query(args) -> dict:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry

    qs = entry.queries()
    if args.name not in qs:
        raise SystemExit(
            f"unknown query {args.name!r}; available: {sorted(qs)}"
        )
    res = qs[args.name](args.sf_dir)
    if hasattr(res, "write_parquet"):
        res.write_parquet(args.out)
        return {"rows": res.count()}
    import pandas as pd

    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    os.makedirs(args.out, exist_ok=True)
    df.to_parquet(os.path.join(args.out, "result.parquet"))
    return {"rows": len(df)}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(prog="wceb-ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("extract")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--spans", default=None,
                   help="existing spans table (default: synthesize from sf-dir)")
    p.add_argument("--models", default="bte,justext,density")
    p.add_argument("--out", required=True)
    p.add_argument("--num-partitions", type=int, default=8)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("eval")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--models", default="bte,whole_text")
    p.add_argument("--out", required=True)
    p.add_argument("--report", action="store_true",
                   help="also render the aggregate score report (CSV + md)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("complexity")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--out", required=True)
    p.add_argument("--report", action="store_true",
                   help="also render the cluster/class/dataset figures")
    p.set_defaults(fn=cmd_complexity)

    p = sub.add_parser("convert")
    p.add_argument("--kind", required=True,
                   help="corpus layout: wrapped|paired|selector|jsontruth")
    p.add_argument("--root", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("query")
    p.add_argument("name")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_query)

    args = ap.parse_args(argv)
    started = _ray_init(args.num_cpus)
    try:
        out = args.fn(args)
        print(json.dumps({"cmd": args.cmd, **out}))
    finally:
        if started:
            import ray

            ray.shutdown()


if __name__ == "__main__":
    main()
