"""In-process extractor microbench: no Ray, a fixed seeded sample.

Each function runs once per sampled document, in its own pass, and each
call is timed.  Every pass is one span on the tracer, so its layer's self
time shows in the trace.  ``shared`` is the form the extraction stage
runs when several models share one parse: the registered
``SHARED_FORMS`` entry over the parsed root or blocks, or the full
``fn(html)`` form for a model that has none.  Full and shared outputs are
checked against the template's known answer.
"""
from __future__ import annotations

import random
import time

import numpy as np

from web_content_extraction_benchmark_ray.functions.extractors import (
    SHARED_FORMS,
    get_extractor,
)
from web_content_extraction_benchmark_ray.functions.htmlparse import (
    body_or_root,
    parse,
    segment_blocks,
)
from web_content_extraction_benchmark_ray.functions.media import parse_media
from web_content_extraction_benchmark_ray.sources import pagegen
from web_content_extraction_benchmark_ray.stages.extract import spans_from

SAMPLE_DOCS = 1000  # p99 then has ten samples beyond it


def _timed(fn, inputs):
    outs, ms = [], []
    for x in inputs:
        t = time.perf_counter_ns()
        outs.append(fn(x))
        ms.append((time.perf_counter_ns() - t) / 1e6)
    return outs, ms


def _pct(ms, q) -> float:
    return float(np.percentile(ms, q))


def run(texts: dict[int, str], models, seed: int, tracer) -> tuple[dict, int]:
    """Returns (metrics, wrong answers) over a seeded sample of ``texts``."""
    ids = sorted(random.Random(seed).sample(sorted(texts), min(SAMPLE_DOCS, len(texts))))
    htmls = [pagegen.render_page(d, texts[d]) for d in ids]
    expected = {
        m: [pagegen.EXPECTED_BY_MODEL[m](d, texts[d]) for d in ids] for m in models
    }
    refs = [[pagegen.media_ref(d)] if pagegen.has_media(d) else [] for d in ids]
    metrics: dict[str, float] = {}
    wrong = 0
    with tracer.span("microbench", "bench"):
        with tracer.span("parse", "functions.htmlparse"):
            roots, ms = _timed(parse, htmls)
        metrics["htmlparse.parse_ms_p50"] = _pct(ms, 50)
        metrics["htmlparse.parse_ms_p99"] = _pct(ms, 99)
        with tracer.span("segment_blocks", "functions.htmlparse"):
            blocks, ms = _timed(lambda r: segment_blocks(body_or_root(r)), roots)
        metrics["htmlparse.segment_ms_p50"] = _pct(ms, 50)
        metrics["htmlparse.segment_ms_p99"] = _pct(ms, 99)
        for m in models:
            with tracer.span(f"{m} full", "functions.extractors"):
                outs, full = _timed(get_extractor(m), htmls)
            wrong += sum(o != e for o, e in zip(outs, expected[m]))
            form = SHARED_FORMS.get(m)
            shared = full
            if form is not None:
                kind, fn = form
                with tracer.span(f"{m} shared", "functions.extractors"):
                    outs, shared = _timed(fn, blocks if kind == "blocks" else roots)
                wrong += sum(o != e for o, e in zip(outs, expected[m]))
            metrics[f"extractor.{m}.full_ms_p50"] = _pct(full, 50)
            metrics[f"extractor.{m}.full_ms_p99"] = _pct(full, 99)
            metrics[f"extractor.{m}.shared_ms_p50"] = _pct(shared, 50)
        first = expected[models[0]]
        with tracer.span("spans_from", "stages.extract"):
            _, ms = _timed(lambda i: spans_from(first[i], refs[i]), range(len(ids)))
        metrics["extract.spans_from_ms_p50"] = _pct(ms, 50)
        with tracer.span("parse_media", "functions.media"):
            _, ms = _timed(parse_media, [pagegen.media_ref(d) for d in ids])
        metrics["media.parse_ms_p50"] = _pct(ms, 50)
    return metrics, wrong
