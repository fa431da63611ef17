"""In-memory span tracer and ``Dataset.stats()`` summaries.

A span is one call into a layer, timed from the benchmark's side of the
call: name, layer, start, end and the span that was open when it began.
Spans stay in memory and are written to JSON once, at the end of a run.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def duration(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus the part its children cover."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def self_by_layer(self) -> dict[str, float]:
        st = self.self_times()
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["layer"]] = out.get(s["layer"], 0.0) + st[s["id"]]
        return out

    def dump(self, path: str, extra: dict) -> None:
        st = self.self_times()
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [
            {
                **s,
                "start": s["start"] - t0,
                "end": s["end"] - t0,
                "self_s": st[s["id"]],
            }
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(
                {**extra, "spans": spans, "self_s_by_layer": self.self_by_layer()},
                f,
                indent=1,
            )


def operator_stats(ds) -> list[dict]:
    """Per-operator numbers of a materialized dataset, read from
    ``Dataset.stats()``, with those of the datasets it was derived from
    (a union's lanes, a materialized input) after its own."""
    out: list[dict] = []

    def walk(summary):
        for op in summary.operators_stats:
            out.append(
                {
                    "operator": op.operator_name,
                    "time_total_s": op.time_total_s or 0.0,
                    "wall_s": (op.wall_time or {}).get("sum", 0.0),
                    "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                    "rows_out": (op.output_num_rows or {}).get("sum", 0),
                    "block_rows_max": (op.output_num_rows or {}).get("max", 0),
                    "block_rows_mean": (op.output_num_rows or {}).get("mean", 0),
                    "bytes_out": (op.output_size_bytes or {}).get("sum", 0),
                    "peak_heap_mb": (op.memory or {}).get("max", 0.0),
                }
            )
        for parent in summary.parents:
            walk(parent)

    walk(ds._get_stats_summary())
    return out


def step_ops(out, inp) -> list[dict]:
    """The operators that turned materialized ``inp`` into ``out``."""
    ops = operator_stats(out)
    return ops[: len(ops) - len(operator_stats(inp))]


# Operator families reported on stdout; the per-layer JSON keeps every
# operator under its own name.
OP_FAMILIES = ("read", "sort", "extract", "other")


def op_family(name: str) -> str:
    if "ReadParquet" in name:
        return "read"
    if name.startswith("Sort"):
        return "sort"
    if "extract_batch" in name:
        return "extract"
    return "other"


def family_totals(ops: list[dict]) -> dict[str, dict[str, float]]:
    out = {
        f: {"wall_s": 0.0, "cpu_s": 0.0, "rows_out": 0, "peak_heap_mb": 0.0}
        for f in OP_FAMILIES
    }
    for op in ops:
        t = out[op_family(op["operator"])]
        t["wall_s"] += op["wall_s"]
        t["cpu_s"] += op["cpu_s"]
        t["rows_out"] += op["rows_out"]
        t["peak_heap_mb"] = max(t["peak_heap_mb"], op["peak_heap_mb"])
    return out
