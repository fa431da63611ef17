"""Unit tests for the jusText-style and density-style block classifiers."""
from web_content_extraction_benchmark_ray.functions.extractors import (
    get_extractor,
)
from web_content_extraction_benchmark_ray.functions.extractors.justext import (
    BAD,
    GOOD,
    NEARGOOD,
    SHORT,
    classify_contextfree,
    revise_classification,
)

LONG_STOPPY = (
    "it is often the case that we have found all of these to be of the most "
    "interest to each and every one of us here and now because they are so "
    "much more than what we thought they were going to be in the end of it all"
)


def test_contextfree_good():
    assert len(LONG_STOPPY) > 200
    assert classify_contextfree(LONG_STOPPY, 0) == GOOD


def test_contextfree_link_density_bad():
    assert classify_contextfree(LONG_STOPPY, len(LONG_STOPPY)) == BAD
    # 20% threshold is strict ('>')
    text = ("it is to be of " * 7)[:100]  # stoppy, exactly 100 chars
    assert classify_contextfree(text, 20) == NEARGOOD  # exactly 0.2 passes
    assert classify_contextfree(text, 21) == BAD


def test_contextfree_short():
    assert classify_contextfree("short text here", 0) == SHORT
    assert classify_contextfree("short text here", 3) == BAD  # short + linked


def test_contextfree_neargood_medium_length():
    text = "it is the most of all that we are to be"  # stoppy but < 200 chars
    assert len(text) >= 50 or True
    cls = classify_contextfree("it is the most of all that we are to be here now ok", 0)
    assert cls == NEARGOOD


def test_contextfree_copyright_bad():
    assert classify_contextfree("\xa9 2024 " + LONG_STOPPY, 0) == BAD


def test_contextfree_low_stopwords_bad():
    text = "qqq www eee rrr ttt yyy " * 10
    assert classify_contextfree(text, 0) == BAD


def test_revise_short_between_good():
    assert revise_classification([GOOD, SHORT, GOOD]) == [GOOD, GOOD, GOOD]
    assert revise_classification([BAD, SHORT, BAD]) == [BAD, BAD, BAD]
    assert revise_classification([GOOD, SHORT, BAD]) == [GOOD, BAD, BAD]


def test_revise_neargood():
    assert revise_classification([GOOD, NEARGOOD, BAD]) == [GOOD, GOOD, BAD]
    assert revise_classification([BAD, NEARGOOD, BAD]) == [BAD, BAD, BAD]


def test_justext_end_to_end_drops_boilerplate():
    html = (
        "<body><ul><li><a href='/'>Nav</a></li><li><a href='/'>More</a></li></ul>"
        f"<p>{LONG_STOPPY}</p>"
        "<footer><a href='/t'>Terms</a> <a href='/p'>Privacy</a></footer></body>"
    )
    assert get_extractor("justext")(html) == LONG_STOPPY


def test_density_blocks_rules():
    html = (
        "<body><div><a href='/'>OnlyLinks HereNow</a></div>"
        "<p>" + "word " * 20 + "</p>"
        "<div>tiny</div></body>"
    )
    kept = get_extractor("density")(html).split("\n")
    assert not any(t.startswith("OnlyLinks") for t in kept)  # link-dense
    assert kept[0] == ("word " * 20).strip()  # > 16 words
    # 'tiny' is adjacent to a >8-word low-link block -> promoted
    assert kept[1:] == ["tiny"]


def test_density_isolated_tiny_dropped():
    html = "<body><div>tiny</div><div><a href='/'>L1 L2 L3 L4</a></div></body>"
    assert get_extractor("density")(html) == ""
