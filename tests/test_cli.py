"""The command-line surface (cli.py): ``extract`` writes a checkpoint
directory and leaves a Ray session it did not start running."""
from __future__ import annotations

import json

SF = "/root/testdata/sf0.001"


def _run(argv, capsys) -> dict:
    from web_content_extraction_benchmark_ray import cli

    cli.main(argv)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_extract_writes_lineage_and_reruns_as_a_no_op(
    ray_session, tmp_path, capsys, monkeypatch
):
    from web_content_extraction_benchmark_ray.state import checkpoint

    out = str(tmp_path / "out")
    argv = ["extract", "--sf-dir", SF, "--models", "bte", "--out", out]
    first = _run(argv, capsys)
    assert ray_session.is_initialized()  # the test's session survives
    recs = checkpoint.read_lineage(out)
    assert len(recs) == first["partitions"] == first["committed"] == 8
    assert sum(r["doc_count"] for r in recs) == first["docs"] == 500
    assert checkpoint.read_output(out).count() == 500

    def no_job(*args, **kwargs):
        raise AssertionError("a second identical invocation ran a job")

    monkeypatch.setattr(checkpoint, "extraction_pipeline", no_job)
    second = _run(argv, capsys)
    assert second["committed"] == 0 and second["docs"] == 500
    assert checkpoint.read_lineage(out) == recs
