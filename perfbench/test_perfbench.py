"""Tests of the benchmark's own parts: the correctness gate, the seeded
generator and the tracer's self time.  No Ray session is needed.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), HERE]

import pyarrow as pa  # noqa: E402
import pytest  # noqa: E402

import gate  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer  # noqa: E402
from web_content_extraction_benchmark_ray.schema import ASSEMBLED  # noqa: E402
from web_content_extraction_benchmark_ray.sources import pagegen  # noqa: E402
from web_content_extraction_benchmark_ray.stages.extract import extract_batch  # noqa: E402

MODELS = ("bte", "justext", "tagclean")


@pytest.fixture(scope="module")
def texts():
    rng = random.Random(7)
    return {d: gen.doc_text(rng) for d in range(30)}


@pytest.fixture(scope="module")
def output(texts):
    """The extraction stage's real output for the assembled pages."""
    ids = sorted(texts)
    html = [pagegen.render_page(d, texts[d]) for d in ids]
    batch = pa.table(
        {
            "doc_id": [str(d) for d in ids],
            "html": html,
            "media_refs": [
                [pagegen.media_ref(d)] if pagegen.has_media(d) else [] for d in ids
            ],
            "n_bytes": [len(h) for h in html],
        },
        schema=ASSEMBLED,
    )
    return extract_batch(batch, models=MODELS)


def test_gate_accepts_engine_output(output, texts):
    v = gate.check(output, texts, MODELS)
    assert v.ok and v.failed == 0 and v.attempted == len(texts)


def _alter(rows, how):
    row = next(r for r in rows if r["doc_id"] == "10" and r["model"] == "bte")
    spans = row["spans"]
    if how == "text":
        spans[0]["text"] += "x"
    elif how == "order":
        spans[0]["order"], spans[1]["order"] = spans[1]["order"], spans[0]["order"]
    elif how == "media_ref":
        spans[-1]["media_ref"] = "pdf://11/0"
    elif how == "kind":
        spans[-1]["kind"] = "text"
    elif how == "error":
        row["error"] = "ValueError: boom"
    elif how == "dropped":
        rows.remove(row)
    elif how == "duplicated":
        rows.append(dict(row))
    return rows


@pytest.mark.parametrize(
    "how", ["text", "order", "media_ref", "kind", "error", "dropped", "duplicated"]
)
def test_gate_fails_one_document_when_one_span_is_altered(output, texts, how):
    rows = _alter(output.to_pylist(), how)
    v = gate.check(pa.Table.from_pylist(rows, schema=output.schema), texts, MODELS)
    assert not v.ok
    assert v.failed == 1
    assert v.examples[0].startswith("doc 10:")


def test_gate_flags_rows_nobody_asked_for(output, texts):
    rows = output.to_pylist()
    rows.append({**rows[0], "doc_id": "999"})
    v = gate.check(pa.Table.from_pylist(rows, schema=output.schema), texts, MODELS)
    assert v.failed == 0 and v.unexpected_rows == 1 and not v.ok


def _table_bytes(path):
    return {f: open(os.path.join(path, f), "rb").read() for f in sorted(os.listdir(path))}


def test_generator_is_seeded(tmp_path):
    shape = gen.Shape(200, 32, 64, heavy_frac=0.01)
    a = gen.generate(str(tmp_path / "a"), 3, shape)
    b = gen.generate(str(tmp_path / "b"), 3, shape)
    c = gen.generate(str(tmp_path / "c"), 4, shape)
    assert _table_bytes(a.path) == _table_bytes(b.path)
    assert _table_bytes(a.path) != _table_bytes(c.path)
    assert a.texts == b.texts and len(a.heavy_ids) == 2
    for d in a.heavy_ids:
        assert len(pagegen.render_page(d, a.texts[d])) >= shape.heavy_min_bytes


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("root", "a"):
        with tr.span("child", "b"):
            pass
        with tr.span("child", "b"):
            pass
    st = tr.self_times()
    root, c1, c2 = tr.spans
    covered = (c1["end"] - c1["start"]) + (c2["end"] - c2["start"])
    assert st[root["id"]] == pytest.approx(root["end"] - root["start"] - covered)
    assert st[c1["id"]] == c1["end"] - c1["start"]
    assert tr.self_by_layer()["b"] == pytest.approx(covered)
