"""Unit tests for the trafilatura-class cascade (E11 capability) and the
goose3-class gravity top-node (E13 capability) extractors — the tier /
fallback / sibling branches the template never exercises."""
from web_content_extraction_benchmark_ray.functions.extractors import (
    get_extractor,
)
from web_content_extraction_benchmark_ray.functions.extractors.cascade import (
    MIN_EXTRACTED_CHARS,
    select_zone,
)
from web_content_extraction_benchmark_ray.functions.extractors.topnode import (
    best_top_node,
)
from web_content_extraction_benchmark_ray.functions.htmlparse import (
    body_or_root,
    parse,
)

cascade = get_extractor("cascade")
topnode = get_extractor("topnode")

# stopword-rich filler so paragraphs clear every stopword/length gate
PAR = (
    "It is often the case that we have found these to be of the most "
    "interest to all of our readers here and now because they matter, "
    "and that is why we think it matters so much to each and every one "
    "of us here in the end."
)
JUNK = "Zork blag krunk flib"  # zero stopwords


def _page(body: str) -> str:
    return f"<html><head><title>t</title></head><body>{body}</body></html>"


# ---------------------------------------------------------------- cascade


def test_cascade_semantic_tag_beats_id_anchor():
    html = _page(
        f'<div id="main"><p>{PAR} decoy one</p></div>'
        f"<article><p>{PAR}</p><p>{PAR} second</p></article>"
    )
    assert cascade(html) == f"{PAR}\n{PAR} second"


def test_cascade_id_anchor_tier():
    html = _page(
        f'<div class="sidebar"><p>{PAR} side</p></div>'
        f'<div id="content"><p>{PAR}</p></div>'
    )
    assert cascade(html) == PAR


def test_cascade_negative_zone_skipped():
    # the id anchor sits inside a comment-named container -> skipped; the
    # class-hint tier finds the real article instead
    html = _page(
        f'<div id="main" class="comment-list"><p>{PAR} spam</p></div>'
        f'<div class="post-body"><p>{PAR}</p></div>'
    )
    assert cascade(html) == PAR


def test_cascade_longest_candidate_wins_within_tier():
    html = _page(
        f'<div class="entry"><p>{PAR}</p></div>'
        f'<div class="story"><p>{PAR}</p><p>{PAR}</p></div>'
    )
    assert cascade(html) == f"{PAR}\n{PAR}"


def test_cascade_link_dense_blocks_dropped_from_zone():
    links = '<p><a href="/x">' + "link " * 40 + "</a></p>"
    html = _page(f'<div id="main">{links}<p>{PAR}</p></div>')
    assert cascade(html) == PAR


def test_cascade_falls_back_to_readability_when_zone_too_short():
    # zone exists but is nearly empty -> tier-2 readability scoring finds
    # the real paragraphs elsewhere
    assert len("hi") < MIN_EXTRACTED_CHARS
    html = _page(
        f'<div id="main"><p>hi</p></div>'
        f"<div><p>{PAR}</p><p>{PAR} more of it</p></div>"
    )
    out = cascade(html)
    assert out == f"{PAR}\n{PAR} more of it"


def test_cascade_baseline_prunes_nav_footer():
    # no zone, no readability-scorable mass -> pruned-body baseline
    html = _page(
        f"<nav><a href='/'>Nav Home About</a></nav>"
        f"<span>{JUNK}</span>"
        f"<footer>Footer terms</footer>"
    )
    out = cascade(html)
    assert out == JUNK


def test_cascade_select_zone_none_on_plain_page():
    body = body_or_root(parse(_page(f"<span>{PAR}</span>")))
    assert select_zone(body) is None


# ---------------------------------------------------------------- topnode


def test_topnode_picks_densest_container_and_prepends_strong_sibling():
    # div#b is the top node; div#a is a previous sibling whose gravity
    # (1/3 of top) reaches the 0.3 threshold -> prepended, goose-style
    html = _page(
        f'<div id="a"><p>{PAR}</p></div>'
        f'<div id="b"><p>{PAR}</p><p>{PAR}</p><p>{PAR}</p></div>'
    )
    assert topnode(html) == f"{PAR}\n{PAR}\n{PAR}\n{PAR}"


def test_topnode_following_sibling_never_merged():
    html = _page(
        f'<div id="b"><p>{PAR}</p><p>{PAR}</p><p>{PAR}</p></div>'
        f'<div id="a"><p>{PAR}</p></div>'
    )
    assert topnode(html) == f"{PAR}\n{PAR}\n{PAR}"


def test_topnode_ignores_stopword_free_paragraphs():
    html = _page(
        f"<div><p>{JUNK}</p><p>{JUNK}</p><p>{JUNK}</p></div>"
        f"<div><p>{PAR}</p></div>"
    )
    assert topnode(html) == PAR


def test_topnode_link_dense_paragraph_not_boostable():
    linky = f'<a href="/x">{PAR} {PAR}</a>'
    html = _page(f"<div><p>{linky}</p></div><div><p>{PAR}</p></div>")
    assert topnode(html) == PAR


def test_topnode_sibling_merge():
    # sibling div carries a gravity score >= 0.3 * top -> merged, in
    # document order
    html = _page(
        f"<div><div><p>{PAR} first</p></div>"
        f"<div><p>{PAR}</p><p>{PAR}</p></div></div>"
    )
    assert topnode(html) == f"{PAR} first\n{PAR}\n{PAR}"


def test_topnode_weak_sibling_not_merged():
    weak = "so it is"  # has stopwords but < 2? 'so','it','is' -> 3; make junk
    html = _page(
        f"<div><div><p>{JUNK}</p></div>"
        f"<div><p>{PAR}</p><p>{PAR}</p></div></div>"
    )
    out = topnode(html)
    assert JUNK not in out and out == f"{PAR}\n{PAR}"
    del weak


def test_topnode_empty_when_no_gravity():
    assert topnode(_page(f"<p>{JUNK}</p>")) == ""


def test_topnode_flat_body_page():
    # paragraphs directly under <body>: body itself is the top node
    html = _page(f"<p>{PAR}</p><p>{PAR} two</p>")
    body = body_or_root(parse(html))
    top, score, _ = best_top_node(body)
    assert top.tag == "body" and score > 0
    assert topnode(html) == f"{PAR}\n{PAR} two"


def test_topnode_tie_breaks_to_first_in_document():
    html = _page(
        f'<div id="x"><p>{PAR}</p></div><div id="y"><p>{PAR}</p></div>'
    )
    assert topnode(html) == PAR


def test_topnode_nested_para_tags_not_double_emitted():
    # a boostable <p> inside a boostable <td>: the td already carries the
    # paragraph's text, so the inner p must not duplicate it
    html = _page(
        f"<div><table><tr><td>{PAR} cell <p>{PAR} inner</p></td></tr>"
        f"</table><p>{PAR}</p></div>"
    )
    out = topnode(html)
    assert out.count(f"{PAR} inner") == 1
