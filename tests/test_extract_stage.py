"""The extraction stage over one lazy ``Page`` per document: a job parses
only when some model needs the DOM, parses at most once per document, and
keeps the reference's per-document error semantics under the answer memo
(extract.py:106-119)."""
import random

import pyarrow as pa
import pytest

from web_content_extraction_benchmark_ray.functions import extractors, htmlparse
from web_content_extraction_benchmark_ray.functions.extractors import (
    get_extractor,
    list_extractors,
)
from web_content_extraction_benchmark_ray.sources import pagegen as pg
from web_content_extraction_benchmark_ray.stages.extract import ExtractStage

WORDS = "the a key order sort table it is we are to be scan merge 42 x1".split()


def _docs(n=4, seed=5):
    rng = random.Random(seed)
    texts = {
        d: " ".join(rng.choice(WORDS) for _ in range(rng.randint(20, 120)))
        for d in range(1, n + 1)
    }
    batch = pa.table(
        {
            "doc_id": pa.array([str(d) for d in texts], pa.string()),
            "html": pa.array(
                [pg.render_page(d, t) for d, t in texts.items()], pa.string()
            ),
        }
    )
    return texts, batch


def test_bte_only_job_never_parses(monkeypatch):
    """skew_tail's heavy lane runs bte alone on pages of any size; a
    takes="html" model must never pay for a DOM."""

    def _no_parse(html):
        raise AssertionError("parsed")

    monkeypatch.setattr(htmlparse, "parse", _no_parse)
    texts, batch = _docs()
    rows = ExtractStage(("bte",))(batch).to_pylist()
    assert [r["error"] for r in rows] == [""] * len(texts)
    assert [r["plaintext"] for r in rows] == [
        pg.EXPECTED_BY_MODEL["bte"](d, t) for d, t in texts.items()
    ]


def test_all_models_one_job_parse_once(monkeypatch):
    texts, batch = _docs()
    models = tuple(list_extractors())
    calls = []
    real_parse = htmlparse.parse

    def _counting_parse(html):
        calls.append(html)
        return real_parse(html)

    monkeypatch.setattr(htmlparse, "parse", _counting_parse)
    rows = ExtractStage(models)(batch).to_pylist()
    assert len(calls) == len(texts)  # once per document, for every model
    assert sorted(calls) == sorted(batch.column("html").to_pylist())
    monkeypatch.setattr(htmlparse, "parse", real_parse)

    assert len(rows) == len(texts) * len(models)
    for r in rows:
        d = int(r["doc_id"])
        html = pg.render_page(d, texts[d])
        assert r["error"] == "", r
        assert r["plaintext"] == pg.EXPECTED_BY_MODEL[r["model"]](d, texts[d])
        assert r["plaintext"] == get_extractor(r["model"])(html)


def test_member_error_reaches_ensemble_but_not_siblings(monkeypatch):
    """A raising member is never memoized: the ensemble asks for it again,
    gets the same exception, and records its own error note; an unrelated
    co-running model and the job itself are unaffected."""

    def _boom(html):
        raise ValueError("synthetic bte failure")

    monkeypatch.setitem(extractors._REGISTRY, "bte", ("html", _boom))
    texts, batch = _docs()
    rows = ExtractStage(("bte", "ensemble", "justext"))(batch).to_pylist()
    assert len(rows) == 3 * len(texts)
    for r in rows:
        d = int(r["doc_id"])
        if r["model"] == "justext":
            assert r["error"] == ""
            assert r["plaintext"] == pg.EXPECTED_BY_MODEL["justext"](d, texts[d])
        else:
            assert r["plaintext"] == ""
            assert r["error"] == "ValueError: synthetic bte failure"


def test_unknown_model_fails_at_construction():
    with pytest.raises(KeyError):
        ExtractStage(("bte", "no_such_model"))
