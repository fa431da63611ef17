"""End-to-end distributed-plan tests (SURVEY.md §5): the Ray pipeline's
output must equal the in-process single-threaded oracle — span-sequence
equality (kind, text, media_ref, order) per document — regardless of how
spans were chunked, permuted or scattered across blocks."""
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from web_content_extraction_benchmark_ray.functions.extractors import get_extractor
from web_content_extraction_benchmark_ray.functions.media import parse_media
from web_content_extraction_benchmark_ray.sources import pagegen as pg
from web_content_extraction_benchmark_ray.sources.synth import build_spans_table
from web_content_extraction_benchmark_ray.stages.extract import spans_from
from web_content_extraction_benchmark_ray.pipelines.extraction import (
    extraction_pipeline,
)

SF_DIR = "/root/testdata/sf0.001"
MODELS = ("bte", "justext", "density")


def oracle_extractions(sf_dir: str, models=MODELS) -> dict:
    """Single-threaded in-process oracle: doc_id -> model -> spans."""
    import pyarrow.parquet as pq

    src = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = {}
    for doc_id, text in zip(
        src.column("doc_id").to_pylist(), src.column("text").to_pylist()
    ):
        html = pg.render_page(doc_id, text)
        refs = [pg.media_ref(doc_id)] if pg.has_media(doc_id) else []
        out[str(doc_id)] = {
            m: spans_from(get_extractor(m)(html), refs) for m in models
        }
    return out


@pytest.fixture(scope="module")
def extracted(ray_session):
    path = build_spans_table(SF_DIR)
    ds = extraction_pipeline(path, models=MODELS)
    return pa.concat_tables(
        [ray_session.get(ref) for ref in ds.to_arrow_refs()]
    )


def test_row_count_and_no_errors(extracted):
    assert extracted.num_rows == 500 * len(MODELS)
    errs = extracted.filter(pc.not_equal(extracted["error"], ""))
    assert errs.num_rows == 0


def test_span_sequence_equality_vs_oracle(extracted):
    """The per-row invariant: span-sequence equality (kind, text,
    media_ref, order) per document (BASELINE.json north rule)."""
    oracle = oracle_extractions(SF_DIR)
    rows = extracted.to_pylist()
    assert len(rows) == sum(len(v) for v in oracle.values())
    for row in rows:
        expected = oracle[row["doc_id"]][row["model"]]
        got = [
            (s["kind"], s["text"], s["media_ref"], s["order"])
            for s in row["spans"]
        ]
        want = [
            (s["kind"], s["text"], s["media_ref"], s["order"]) for s in expected
        ]
        assert got == want, f"span mismatch doc={row['doc_id']} model={row['model']}"


def test_media_spans_present(extracted):
    row = extracted.filter(
        pc.and_(
            pc.equal(extracted["doc_id"], "10"),
            pc.equal(extracted["model"], "bte"),
        )
    ).to_pylist()[0]
    media = [s for s in row["spans"] if s["kind"] == "media"]
    assert media == [
        {
            "kind": "media",
            "text": parse_media("pdf://10/0"),
            "media_ref": "pdf://10/0",
            "order": row["spans"][-1]["order"],
        }
    ]


def test_span_permutation_invariance(ray_session):
    """Property (FIXTURES.md): any permutation/re-chunking of a doc's input
    spans yields identical output spans."""
    import random

    import ray.data as rd

    text = "alpha the beta gamma delta one two three four five six seven"
    html = pg.render_page(7, text)
    rng = random.Random(99)
    results = []
    for trial in range(3):
        # different chunkings + orders each trial
        k = rng.randint(1, 6)
        cuts = sorted(rng.sample(range(1, len(html)), k - 1)) if k > 1 else []
        bounds = [0] + cuts + [len(html)]
        spans = [
            {
                "kind": "html",
                "text": html[bounds[i] : bounds[i + 1]],
                "media_ref": "",
                "offset": i,
            }
            for i in range(len(bounds) - 1)
        ]
        rng.shuffle(spans)
        rows = [{"doc_id": "7", "spans": [s]} for s in spans]
        ds = rd.from_items(rows)
        from web_content_extraction_benchmark_ray.stages.reassemble import reassemble
        from web_content_extraction_benchmark_ray.stages.extract import ExtractStage

        assembled = reassemble(ds)
        extracted = assembled.map_batches(
            ExtractStage,
            fn_constructor_kwargs={"models": ("bte",)},
            batch_format="pyarrow",
            concurrency=1,
        )
        results.append(extracted.to_pandas().to_dict("records"))
    base = results[0][0]["plaintext"]
    assert base == pg.expected_bte(text)
    for r in results[1:]:
        assert r[0]["plaintext"] == base


def test_error_semantics_never_fail_job(ray_session):
    """Reference extract.py:115-119: per-doc extractor errors -> empty
    answer + error note, job completes."""
    import ray.data as rd

    from web_content_extraction_benchmark_ray.stages.extract import ExtractStage

    def _boom(html: str) -> str:
        raise ValueError("synthetic failure")

    ds = rd.from_items(
        [{"doc_id": "1", "html": "<p>x</p>", "media_refs": [], "n_bytes": 8}]
    )
    out = ds.map_batches(
        ExtractStage,
        fn_constructor_kwargs={"models": (("boom", _boom),)},
        batch_format="pyarrow",
        concurrency=1,
    ).to_pandas()
    assert out.loc[0, "plaintext"] == ""
    assert "ValueError" in out.loc[0, "error"]
    assert list(out.loc[0, "spans"]) == []
