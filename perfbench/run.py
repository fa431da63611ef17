#!/usr/bin/env python3
"""rayxtract benchmark: seeded workloads, a correctness gate and a traced
per-layer run.

    python3 perfbench/run.py --workload extract_mix --seed 1 --seconds 12 --trace 0

Works from any directory.  Each run starts a fresh local Ray session with
``num_cpus`` equal to what ``nproc`` reports, generates the workload's
spans table from ``--seed`` with the ``sources.pagegen`` template, runs
the workload for ``--seconds`` of timed work, checks every output
document against the template's known answer (outside the timed
region), shuts Ray down and waits for its processes to end.  All files
live under the repository root, in ``.perfbench_work/`` and Ray's
``.ray<pid>/``, and are removed at exit; the traced run's per-layer JSON
is kept in ``.perfbench_results/``.

Workloads (why each exists):

- ``extract_mix``: 250 pages cut into 1-8 shuffled spans, every 10th
  page with a media span, run with the 5 headline models.  Extractor CPU
  is almost all of the wall time and the shuffle is tiny, so extract-layer
  work shows here and reassembly work does not.
- ``skew_tail``: 250 pages cut into 32-128 spans each (about 20k span
  rows) plus 0.4% heavy pages (one page) of at least 300 KiB in 1-2
  spans, run with the cheapest model ``bte``.  The skew probe and census, the sort
  exchange and the salted heavy-lane reassembly do the work; extraction
  does little.  A heavy page stays in few spans so that the metadata
  probe sees it: the same tail cut into thousands of small spans leaves
  the probe unsuspicious and no heavy lane runs.
- ``checkpoint_resume``: 240 pages through ``run_checkpointed`` with 3
  models and 8 partitions into a fresh directory, crashing after 4
  partitions (``fail_after``), then resuming and reading the output back
  with ``read_output``.  Per-partition input rescans and commits dominate,
  and neither other workload touches them.

Each job is small, so that a run times many of them back to back and
reports their median: on a shared host, bursts of contention slow single
jobs, and the median of many short jobs is steadier than a few long ones.
Every timed call gets a table path no earlier call in the process has
seen (a fresh hard-linked copy), so the pipeline's skew-route memo never
hits.

End-to-end metrics (``--trace 0``): ``wall_s``, the median time from the
job's call to a complete, materialized result (for ``checkpoint_resume``
the crash run, the resume and ``read_output``); ``docs_per_s``, documents
over that time; ``setup_s``, the median of three set-ups of Ray start,
worker warm-up and input generation.  Two more lines are printed but are
not bounded metrics: ``failed_doc_frac`` (0 on a correct run, reported as
``failed`` in the result) and, for ``checkpoint_resume``, ``resume_s``
(the resume call alone; ``checkpoint.resume_s`` in the traced run).

Per-layer metrics (``--trace 1``) come from one extra, traced run that
calls each layer's public functions in turn and materializes after each
call, from ``Dataset.stats()`` of the untraced runs, and from an
in-process microbench (``micro.py``).  ``trace_overhead_s`` is the traced
wall time minus the untraced median.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(documents), ``failed`` (documents with an extractor error or spans that
differ from the known answer) and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADLINE = ("bte", "justext", "density", "readability", "tagclean")

# name -> (kind, docs, min spans, max spans, heavy share, models)
WORKLOADS = {
    "extract_mix": ("pipeline", 250, 1, 8, 0.0, HEADLINE),
    "skew_tail": ("pipeline", 250, 32, 128, 0.004, ("bte",)),
    "checkpoint_resume": ("checkpoint", 240, 1, 8, 0.0, ("bte", "justext", "density")),
}
CHECKPOINT_PARTITIONS = 8
CRASH_AFTER = 4
SETUP_CYCLES = 3
WARMUP_DOCS = 64
RUN_LIMIT_S = 170  # a run that has not finished by then fails


class RunTimeout(Exception):
    pass


# ---------------------------------------------------------------- session


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children(), [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_gone(pids: list[int], timeout: float) -> None:
    """Wait for ``pids`` to exit; SIGKILL whatever is left after
    ``timeout`` and wait for that too."""
    end = time.monotonic() + timeout
    while any(_alive(p) for p in pids) and time.monotonic() < end:
        time.sleep(0.05)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    end = time.monotonic() + 10
    while any(_alive(p) for p in pids) and time.monotonic() < end:
        time.sleep(0.05)


class RaySession:
    """A fresh local Ray session per start(); stop() ends every process
    the session started."""

    def __init__(self, cpus: int):
        self.cpus = cpus
        # Ray puts unix sockets under its temp dir, and a socket path has
        # at most 107 bytes, so the dir gets the shortest name that stays
        # inside the checkout
        self.temp_dir = os.path.join(ROOT, f".ray{os.getpid()}")
        if len(self.temp_dir) + 64 > 107:
            print(f"perfbench: {self.temp_dir} is too long for Ray's sockets; "
                  "using Ray's default temp dir", file=sys.stderr)
            self.temp_dir = None
        self.running = False

    def start(self) -> None:
        import logging

        import ray
        from ray.data import DataContext

        kwargs = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(
            address="local",
            num_cpus=self.cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=512 << 20,
            **kwargs,
        )
        self.running = True
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def stop(self) -> None:
        if not self.running:
            return
        import ray

        pids = descendants(os.getpid())
        ray.shutdown()
        self.running = False
        wait_gone(pids, timeout=20)
        if self.temp_dir:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


# ---------------------------------------------------------------- inputs


def fresh_copy(src: str, dst: str) -> str:
    """Hard-link the table's files under a new path (copy where links
    are not allowed): same bytes, a path no memo has seen."""
    os.makedirs(dst)
    for name in sorted(os.listdir(src)):
        try:
            os.link(os.path.join(src, name), os.path.join(dst, name))
        except OSError:
            shutil.copyfile(os.path.join(src, name), os.path.join(dst, name))
    return dst


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )


def collect(datasets):
    """One Arrow table of the materialized ``datasets``' rows (None when
    there are none).  Empty blocks are skipped: Ray Data may emit them
    without a schema."""
    import pyarrow as pa
    import ray

    tables = [
        t for ds in datasets for t in ray.get(ds.to_arrow_refs()) if t.num_rows
    ]
    return pa.concat_tables(tables) if tables else None


# ---------------------------------------------------------------- runs


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, work: str, cpus: int):
        (self.kind, self.docs, self.min_spans, self.max_spans,
         self.heavy_frac, self.models) = WORKLOADS[name]
        self.name, self.seed, self.seconds = name, seed, seconds
        self.work, self.cpus = work, cpus
        self.session = RaySession(cpus)
        self.corpus = None
        self.n = 0  # fresh path counter
        self.attempted = 0
        self.failed = 0
        self.error_docs = 0
        self.resume_times: list[float] = []
        self.problems: list[str] = []
        self.last_ds = None

    def path(self, tag: str) -> str:
        self.n += 1
        return os.path.join(self.work, f"{tag}-{self.n}")

    def shape(self, docs=None):
        import gen

        return gen.Shape(docs or self.docs, self.min_spans, self.max_spans,
                         heavy_frac=0.0 if docs else self.heavy_frac)

    # -- set-up --------------------------------------------------------

    def setup(self, cycles: int) -> float:
        """Ray start, warm-up and input generation, ``cycles`` times;
        returns the median time.  The last session stays up."""
        import gen
        from web_content_extraction_benchmark_ray.pipelines.extraction import (
            extraction_pipeline,
        )

        times = []
        for cycle in range(cycles):
            if cycle:
                self.session.stop()
                shutil.rmtree(self.corpus.path)
            t0 = time.perf_counter()
            self.session.start()
            warm = gen.generate(self.path("warm"), self.seed, self.shape(WARMUP_DOCS))
            extraction_pipeline(warm.path, models=self.models).materialize()
            self.corpus = gen.generate(self.path("input"), self.seed, self.shape())
            times.append(time.perf_counter() - t0)
            shutil.rmtree(warm.path)
        print("perfbench: set-up times " + " ".join(f"{t:.3f}" for t in times),
              file=sys.stderr)
        self.check_input()
        return statistics.median(times)

    def check_input(self) -> None:
        from web_content_extraction_benchmark_ray.stages import skew

        if self.heavy_frac:
            probe = skew.probe_row_groups(self.corpus.path)
            if not (probe and probe["suspect"]) or not self.corpus.heavy_ids:
                self.problems.append("skew probe does not see the heavy tail")

    # -- gate ----------------------------------------------------------

    def gate(self, table) -> None:
        import gate

        if table is None:
            self.problems.append("job returned no rows")
            self.attempted += len(self.corpus.texts)
            self.failed += len(self.corpus.texts)
            return
        v = gate.check(table, self.corpus.texts, self.models)
        self.attempted += v.attempted
        self.failed += v.failed
        self.error_docs += v.error_docs
        if v.unexpected_rows:
            self.problems.append(f"{v.unexpected_rows} unexpected output rows")
        for e in v.examples:
            print(f"perfbench: gate: {e}", file=sys.stderr)

    # -- one timed job -------------------------------------------------

    def once(self) -> float:
        """One timed job on a fresh table path; gated after the clock
        stops.  Returns the job's wall time."""
        path = fresh_copy(self.corpus.path, self.path("table"))
        if self.kind == "pipeline":
            from web_content_extraction_benchmark_ray.pipelines.extraction import (
                extraction_pipeline,
            )

            t0 = time.perf_counter()
            ds = extraction_pipeline(path, models=self.models).materialize()
            wall = time.perf_counter() - t0
        else:
            out = self.path("ckpt")
            t0 = time.perf_counter()
            ds, m = self.checkpoint_job(path, out)
            wall = time.perf_counter() - t0
            self.resume_times.append(m["checkpoint.resume_s"])
            shutil.rmtree(out)
        self.gate(collect([ds]))
        self.last_ds = ds
        shutil.rmtree(path)
        return wall

    def checkpoint_job(self, path: str, out: str, tracer=None):
        """Crash after CRASH_AFTER partitions, resume, read back.  Returns
        the output dataset and the checkpoint layer's numbers."""
        from web_content_extraction_benchmark_ray.state import checkpoint

        def span(name):
            return tracer.span(name, "state.checkpoint") if tracer else contextlib.nullcontext()

        kw = {"models": self.models, "num_partitions": CHECKPOINT_PARTITIONS}
        crashed = False
        with span("run_checkpointed (crash)"):
            try:
                checkpoint.run_checkpointed(path, out, fail_after=CRASH_AFTER, **kw)
            except RuntimeError as exc:
                if "injected crash" not in str(exc):
                    raise
                crashed = True
        committed = len(checkpoint.completed_partitions(out))
        t0 = time.perf_counter()
        with span("run_checkpointed (resume)"):
            resumed = checkpoint.run_checkpointed(path, out, **kw)
        resume_s = time.perf_counter() - t0
        with span("read_output"):
            ds = checkpoint.read_output(out).materialize()
        skipped = CHECKPOINT_PARTITIONS - len(resumed)
        if not crashed or committed != CRASH_AFTER or skipped != committed:
            self.problems.append(
                f"checkpoint: crashed={crashed} committed={committed} "
                f"skipped_on_resume={skipped}"
            )
        lineage = checkpoint.read_lineage(out)
        walls = [r["wall_ms"] for r in lineage] or [0]
        return ds, {
            "checkpoint.partitions_committed": committed,
            "checkpoint.partitions_skipped_on_resume": skipped,
            "checkpoint.partition_wall_ms_p50": statistics.median(walls),
            "checkpoint.partition_wall_ms_max": max(walls),
            "checkpoint.bytes_written": dir_bytes(out),
            "checkpoint.resume_s": resume_s,
        }

    def measure(self) -> list[float]:
        """Timed jobs back to back until ``seconds`` of job time."""
        walls: list[float] = []
        while not walls or sum(walls) < self.seconds:
            walls.append(self.once())
        print("perfbench: job times " + " ".join(f"{w:.3f}" for w in walls),
              file=sys.stderr)
        return walls

    # -- traced run ----------------------------------------------------

    def traced(self, tracer) -> dict:
        """Calls each layer's public functions in turn, materializing
        after each call, and returns the per-layer numbers."""
        path = fresh_copy(self.corpus.path, self.path("table"))
        if self.kind == "pipeline":
            m = self.traced_pipeline(path, tracer)
            job = "extraction_pipeline"
        else:
            job = "checkpoint job"
            with tracer.span(job, "bench"):
                ds, m = self.checkpoint_job(path, self.path("ckpt"), tracer)
            self.gate(collect([ds]))
            # the checkpoint runner's scans happen inside it: time one
            # scan of the same input from outside
            self.traced_read(path, tracer)
        scan = next(s for s in tracer.spans if s["name"] == "read_parquet")
        m["read.wall_s"] = scan["end"] - scan["start"]
        m["trace.wall_s"] = tracer.duration(job)
        shutil.rmtree(path)
        return m

    def traced_read(self, path: str, tracer) -> None:
        import ray.data
        from web_content_extraction_benchmark_ray.sources.storage import (
            capped_num_blocks,
        )

        with tracer.span("read_parquet", "sources"):
            ray.data.read_parquet(
                path, override_num_blocks=capped_num_blocks(path, 2 * self.cpus)
            ).materialize()

    def traced_pipeline(self, path: str, tracer) -> dict:
        """``extraction_pipeline``'s steps in its own lane structure (one
        input scan per lane, the size-aware partition count for the plain
        reassembly), each materialized under its own span.  The heavy-id
        list is checked against the routing decision the pipeline makes."""
        import ray
        import ray.data
        from tracing import step_ops
        from web_content_extraction_benchmark_ray.pipelines import extraction
        from web_content_extraction_benchmark_ray.sources.storage import (
            capped_num_blocks,
        )
        from web_content_extraction_benchmark_ray.stages import skew
        from web_content_extraction_benchmark_ray.stages.extract import extract_batch
        from web_content_extraction_benchmark_ray.stages.reassemble import (
            _default_partitions,
            reassemble,
            reassemble_salted,
        )

        def read():
            with tracer.span("read_parquet", "sources"):
                return ray.data.read_parquet(
                    path, override_num_blocks=capped_num_blocks(path, 2 * self.cpus)
                ).materialize()

        m: dict[str, float] = {}
        with tracer.span("extraction_pipeline", "pipelines.extraction"):
            with tracer.span("probe_row_groups", "stages.skew") as s:
                probe = skew.probe_row_groups(path)
            m["skew.probe_s"] = s["end"] - s["start"]
            m["skew.suspect"] = int(bool(probe and probe["suspect"]))
            heavy: list[str] = []
            m["skew.census_s"] = 0.0
            if m["skew.suspect"]:
                # the thresholds extraction_pipeline derives from the probe
                byte_t = max(skew.HEAVY_ABS_MIN_BYTES,
                             int(skew.HEAVY_BYTES_FACTOR * probe["doc_bytes_med"]))
                span_t = max(skew.HEAVY_ABS_MIN_SPANS,
                             int(skew.HEAVY_SPANS_FACTOR * probe["spans_med"]))
                with tracer.span("heavy_doc_ids", "stages.skew") as s:
                    heavy = skew.heavy_doc_ids(path, byte_t, span_t) or []
                m["skew.census_s"] = s["end"] - s["start"]
            m["skew.heavy_docs"] = len(heavy)
            if heavy:
                ids_ref = ray.put(heavy)
                lanes = []
                for keep in (False, True):
                    src = read()
                    with tracer.span("filter_doc_ids", "stages.skew"):
                        lanes.append((src.map_batches(
                            skew.filter_doc_ids,
                            fn_kwargs={"ids_ref": ids_ref, "keep": keep},
                            batch_format="pyarrow",
                        ).materialize(), keep))
            else:
                lanes = [(read(), False)]
            asm_ops, ext_ops, outs, partitions = [], [], [], 0
            for lane, salted in lanes:
                with tracer.span("reassemble_salted" if salted else "reassemble",
                                 "stages.reassemble"):
                    asm = (
                        reassemble_salted(lane) if salted
                        else reassemble(lane, partitions=_default_partitions(dir_bytes(path)))
                    ).materialize()
                asm_ops += step_ops(asm, lane)
                partitions += asm.num_blocks()
                with tracer.span("extract_batch", "stages.extract"):
                    out = asm.map_batches(
                        extract_batch, fn_kwargs={"models": self.models},
                        batch_format="pyarrow", batch_size=1 if salted else 64,
                    ).materialize()
                ext_ops += step_ops(out, asm)
                outs.append(out)
        self.gate(collect(outs))
        route = extraction._resolve_heavy_ids_uncached(path, "auto", "auto")
        if route != (heavy or None, False):
            self.problems.append(
                f"traced run routed heavy ids {heavy}, the pipeline routes {route}")

        def total(ops, key, match):
            return sum(o[key] for o in ops if match(o["operator"]))

        sort_ops = [o for o in asm_ops if o["operator"].startswith("Sort")]
        first_reduce = next((o for o in sort_ops if o["operator"] == "SortReduce"), None)
        m["reassemble.span_rows"] = total(
            asm_ops, "rows_out", lambda n: "explode_spans" in n)
        m["reassemble.partitions"] = partitions
        m["reassemble.partition_rows_max_over_mean"] = (
            first_reduce["block_rows_max"] / first_reduce["block_rows_mean"]
            if first_reduce and first_reduce["block_rows_mean"] else 0.0
        )
        m["reassemble.sort_wall_s"] = sum(o["time_total_s"] for o in sort_ops)
        m["reassemble.sort_task_s"] = sum(o["wall_s"] for o in sort_ops)
        m["reassemble.assemble_s"] = total(
            asm_ops, "wall_s", lambda n: "assemble_group" in n)
        m["extract.wall_s"] = tracer.duration("extract_batch")
        m["extract.cpu_s"] = total(ext_ops, "cpu_s", lambda n: True)
        return m


class ScanCounter:
    """Counts ``ray.data.read_parquet`` calls on the timed jobs' input
    tables while active (the checkpoint runner rescans its input once per
    partition; the skew census and each lane scan it once)."""

    def __init__(self, work: str):
        self.prefix = os.path.join(work, "table-")
        self.count = 0

    def __enter__(self):
        import ray.data

        self._orig = orig = ray.data.read_parquet

        def counting(paths, *a, **kw):
            if isinstance(paths, str) and os.path.abspath(paths).startswith(self.prefix):
                self.count += 1
            return orig(paths, *a, **kw)

        ray.data.read_parquet = counting
        return self

    def __exit__(self, *exc):
        import ray.data

        ray.data.read_parquet = self._orig


# ---------------------------------------------------------------- main


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``kind`` metrics (``end_to_end``
    or ``per_layer``), in the file's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def host_cpus() -> int:
    """What ``nproc`` reports: the usable CPUs, capped by OMP_NUM_THREADS
    where that is set."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def run(args, out) -> dict:
    cpus = host_cpus()
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(args.workload, args.seed, args.seconds, work, cpus)
    try:
        setup_s = bench.setup(1 if args.trace else SETUP_CYCLES)
        c = bench.corpus
        print(f"perfbench: workload={args.workload} seed={args.seed} cpus={cpus} "
              f"docs={len(c.texts)} span_rows={c.span_rows} "
              f"heavy_docs={len(c.heavy_ids)} table_bytes={c.table_bytes}", file=out)
        scans = ScanCounter(work)
        with scans if args.trace else contextlib.nullcontext():
            walls = bench.measure()
        e2e = {
            "wall_s": statistics.median(walls),
            "docs_per_s": statistics.median(len(c.texts) / w for w in walls),
            "setup_s": setup_s,
        }
        extra = {"failed_doc_frac": (bench.failed / max(1, bench.attempted), "ratio")}
        if bench.resume_times:
            extra["resume_s"] = (statistics.median(bench.resume_times), "s")
        e2e_units = metric_units("end_to_end")
        if args.trace:
            table = metric_units("per_layer")
            metrics = traced_metrics(bench, e2e["wall_s"], args, table)
            per_job = scans.count / len(walls)
            metrics["read.rows"] = per_job * c.span_rows
            metrics["read.bytes"] = per_job * c.table_bytes
            if bench.kind == "checkpoint":
                metrics["checkpoint.input_scans"] = per_job
            extra.update({k: (v, e2e_units[k]) for k, v in e2e.items()})
        else:
            metrics, table = e2e, e2e_units
        for k, (v, unit) in extra.items():
            if k not in table:
                print(f"{k} {v} {unit}", file=out)
        for p in bench.problems:
            print(f"perfbench: problem: {p}", file=sys.stderr)
        return {
            "correct": bench.failed == 0 and not bench.problems,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in table.items()},
        }
    finally:
        bench.session.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may share it
            os.rmdir(os.path.dirname(work))


def traced_metrics(bench: Bench, untraced_wall: float, args, table) -> dict:
    """Every metric in ``table``; one that the workload's run does not
    exercise reads 0."""
    import micro
    from tracing import Tracer, family_totals, operator_stats

    ops = operator_stats(bench.last_ds)
    tracer = Tracer()
    m = dict.fromkeys(table, 0.0)
    m.update(bench.traced(tracer))
    mb, wrong = micro.run(bench.corpus.texts, HEADLINE, args.seed, tracer)
    m.update(mb)
    if wrong:
        bench.problems.append(f"microbench: {wrong} answers differ from the template")
    for f, t in family_totals(ops).items():
        for k, v in t.items():
            m[f"op.{f}.{k}"] = v
    for layer, s in tracer.self_by_layer().items():
        if f"trace.{layer}.self_s" in table:
            m[f"trace.{layer}.self_s"] = s
    c = bench.corpus
    m.update({
        "trace_overhead_s": m["trace.wall_s"] - untraced_wall,
        "extract.error_docs": bench.error_docs,
        "failed_doc_frac": bench.failed / max(1, bench.attempted),
    })
    unlisted = sorted(set(m) - set(table))
    if unlisted:
        bench.problems.append(f"metrics missing from BENCHMARK.json: {unlisted}")
    results = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"layers-{args.workload}-seed{args.seed}.json")
    tracer.dump(path, {
        "workload": args.workload, "seed": args.seed, "cpus": bench.cpus,
        "docs": len(c.texts), "span_rows": c.span_rows,
        "heavy_docs": len(c.heavy_ids), "table_bytes": c.table_bytes,
        "untraced_wall_s": untraced_wall, "operators": ops, "metrics": m,
    })
    print(f"perfbench: per-layer trace written to {path}", file=sys.stderr)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, ROOT)
    # Ray workers import the package through PYTHONPATH, whatever the
    # launch directory
    os.environ["PYTHONPATH"] = os.pathsep.join(
        x for x in (ROOT, os.environ.get("PYTHONPATH")) if x
    )
    try:
        import web_content_extraction_benchmark_ray  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {ROOT}: {exc}", file=sys.stderr)
        return 2

    # everything Ray or its children print goes to stderr; stdout carries
    # the metric lines and, last, the result object
    out = os.fdopen(os.dup(1), "w")
    sys.stdout.flush()
    os.dup2(2, 1)

    def on_alarm(*_):
        raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = run(args, out)
    except RunTimeout as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    for k, v in result["metrics"].items():
        print(f"{k} {v['value']} {v['unit']}", file=out)
    print(json.dumps(result), file=out)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
