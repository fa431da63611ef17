"""Layout renderer conventions (E7 capability): block lines, bullets,
<br>, table rows, head exclusion."""
from web_content_extraction_benchmark_ray.functions.extractors.layout import (
    layout,
)
from web_content_extraction_benchmark_ray.functions.extractors import (
    get_extractor,
)
from web_content_extraction_benchmark_ray.functions.htmlparse import parse


def _render(html: str) -> str:
    return get_extractor("layout")(html)


def test_blocks_and_bullets():
    html = (
        "<html><head><title>T</title></head><body>"
        "<h1>Head</h1><ul><li>one</li><li>two</li></ul>"
        "<p>para <b>bold</b> text</p></body></html>"
    )
    assert _render(html) == "Head\n* one\n* two\npara bold text"


def test_br_and_table_rows():
    html = (
        "<body><p>a<br>b</p>"
        "<table><tr><td>c1</td><td>c2</td></tr><tr><td>d1</td></tr></table>"
        "</body>"
    )
    # br splits the line; each table row is one line, cells flow
    assert _render(html) == "a\nb\nc1 c2\nd1"


def test_head_script_excluded_entities_decoded():
    html = (
        "<head><script>x()</script><title>nope</title></head>"
        "<body><p>&quot;q&quot;&nbsp;z</p></body>"
    )
    assert _render(html) == '"q" z'


def test_shared_root_form_matches():
    html = "<body><div>x</div><ul><li>y</li></ul></body>"
    assert layout(parse(html)) == _render(html)
