"""Leaf-model classifiers: the sequence-context variant must (a) equal the
base model on the provable template (same oracle) and (b) actually USE the
context — a weak block flips with supportive neighbours, the linear
analogue of what BoilerNet's BiLSTM adds over a per-leaf classifier."""
from __future__ import annotations

from web_content_extraction_benchmark_ray.functions.extractors import (
    get_extractor,
)
from web_content_extraction_benchmark_ray.sources import pagegen as pg

leafmodel = get_extractor("leafmodel")
leafmodel_seq = get_extractor("leafmodel_seq")

LONG = " ".join(["content"] * 40)
WEAK = " ".join(["w"] * 7)  # base z = 12*(7/32) - 3 < 0: dropped alone


def _page(paragraphs):
    body = "\n".join(f"<p>{p}</p>" for p in paragraphs)
    return f"<html><body>{body}</body></html>"


def test_seq_equals_base_on_template():
    html = pg.render_page(7, " ".join(f"word{i}" for i in range(30)))
    assert leafmodel_seq(html) == leafmodel(html)
    assert leafmodel(html) == pg.expected_density(
        " ".join(f"word{i}" for i in range(30))
    )


def test_context_rescues_weak_block():
    html = _page([LONG, WEAK, LONG])
    base = leafmodel(html)
    seq = leafmodel_seq(html)
    assert WEAK not in base.split("\n")  # per-leaf model drops it
    assert WEAK in seq.split("\n")  # neighbours rescue it


def test_context_does_not_rescue_isolated_weak_block():
    html = _page([WEAK])
    assert WEAK not in leafmodel_seq(html).split("\n")
