"""Unit tests for the resiliparse-class main-content plain-text
extractor (E9 capability) — the prune/format branches the provable
template never exercises."""
from web_content_extraction_benchmark_ray.functions.extractors import (
    get_extractor,
)

layout = get_extractor("layout")
plaintext = get_extractor("plaintext")

PAR = "Some honest readable paragraph text that should clearly survive."


def _page(body: str) -> str:
    return f"<html><head><title>t</title></head><body>{body}</body></html>"


def test_semantic_sections_pruned_whole():
    html = _page(
        "<header><h1>Brand</h1></header>"
        "<nav><ul><li>Home</li><li>About</li></ul></nav>"
        f"<div><p>{PAR}</p></div>"
        "<aside>widget text</aside>"
        "<form>subscribe now</form>"
        "<footer>copyright</footer>"
    )
    assert plaintext(html) == PAR


def test_negative_class_and_id_pruned():
    html = _page(
        f'<div class="comment-list"><p>spam reply</p></div>'
        f'<div id="sidebar"><p>related links</p></div>'
        f'<div id="main" class="content"><p>{PAR}</p></div>'
    )
    assert plaintext(html) == PAR


def test_prune_applies_to_nested_subtree():
    # a surviving container with a pruned child: only the child vanishes
    html = _page(
        f'<div><p>{PAR}</p><div class="share-widget"><p>share me</p></div>'
        f"<p>{PAR} two</p></div>"
    )
    assert plaintext(html) == f"{PAR}\n{PAR} two"


def test_no_list_bullets_unlike_layout():
    html = _page("<div><ul><li>alpha</li><li>beta</li></ul></div>")
    assert plaintext(html) == "alpha\nbeta"
    assert layout(html) == "* alpha\n* beta"


def test_table_rows_flow_one_line_each():
    html = _page(
        "<table><tr><td>a1</td><td>a2</td></tr>"
        "<tr><td>b1</td><td>b2</td></tr></table>"
    )
    assert plaintext(html) == "a1 a2\nb1 b2"


def test_br_breaks_line_and_anchor_text_renders():
    html = _page(f'<p>first<br>then <a href="/x">a link</a> tail</p>')
    assert plaintext(html) == "first\nthen a link tail"


def test_whole_page_template_equality():
    from web_content_extraction_benchmark_ray.sources import pagegen as pg

    text = "alpha beta gamma delta " * 8
    html = pg.render_page(7, text.strip())
    assert plaintext(html) == pg.expected_plaintext(text.strip())
