"""Ensemble voting threshold/n-gram fixtures (reference ensemble.py:40-73,
FIXTURES.md: "left-gram matches but right-gram doesn't, and vice versa")."""
from web_content_extraction_benchmark_ray.functions.extractors.ensemble import (
    majority_vote,
)


def test_all_members_agree_full_text():
    page = "a b c d e f g h i j"
    answers = [page, page, page]
    assert majority_vote(page, answers, [1, 1, 1], 2) == page


def test_threshold_not_met():
    page = "a b c d e f g h i j"
    answers = [page, "", ""]
    assert majority_vote(page, answers, [1, 1, 1], 2) == ""


def test_weighted_votes():
    page = "a b c d e f g h i j"
    # one member with weight 2 meets threshold 2 alone
    assert majority_vote(page, [page, ""], [2, 1], 2) == page


def test_boilerplate_tokens_dropped():
    page = (
        "nav1 nav2 nav3 nav4 nav5 m1 m2 m3 m4 m5 m6 m7 m8 m9 "
        "foot1 foot2 foot3 foot4 foot5"
    )
    main = "m1 m2 m3 m4 m5 m6 m7 m8 m9"
    out = majority_vote(page, [main, main, main], [1, 1, 1], 2)
    assert out == main


def test_interior_token_of_short_answer_unvotable():
    """A token within 4 positions of BOTH answer edges (answer < 9 tokens)
    matches neither the left nor the right 5-gram — matching the published
    voting rule's behavior on short answers."""
    page = "nav1 nav2 nav3 nav4 nav5 m1 m2 m3 m4 m5 m6 m7 foot1 foot2 foot3 foot4 foot5"
    main = "m1 m2 m3 m4 m5 m6 m7"
    out = majority_vote(page, [main, main, main], [1, 1, 1], 2)
    assert out == "m1 m2 m3 m5 m6 m7"  # m4 (p=3, p>L-5) is unvotable


def test_left_gram_only_match():
    # token at the END of the answer: right-gram extends past the answer's
    # content into page-only tokens, left-gram still matches.
    page = "x1 x2 x3 x4 a b c d e tail1 tail2 tail3 tail4"
    answer = "x1 x2 x3 x4 a b c d e"
    out = majority_vote(page, [answer, answer], [1, 1], 2)
    assert out == answer


def test_right_gram_only_match():
    page = "head1 head2 head3 head4 a b c d e y1 y2 y3 y4"
    answer = "a b c d e y1 y2 y3 y4"
    out = majority_vote(page, [answer, answer], [1, 1], 2)
    assert out == answer


def test_short_page_fully_votable_via_sentinel_padding():
    # the \0 sentinel padding makes edge tokens votable even when the page
    # is shorter than the n-gram window (that is what the padding is for)
    assert majority_vote("a b", ["a b"], [1], 1) == "a b"
    assert majority_vote("a b", ["c d"], [1], 1) == ""


def test_answers_ws_normalized_before_matching():
    page = "a b c d e f"
    answer = "a\nb\t c   d e f"
    assert majority_vote(page, [answer], [1], 1) == page


def test_stage_shares_parse_and_cached_members_without_shared_forms(monkeypatch):
    """models=("bte", "ensemble"): bte takes raw html (no SHARED_FORMS
    entry), yet the ensemble still needs the parsed root — the stage must
    answer both and feed the bte answer it already has into the vote
    (reference ensemble.py:24-37 consumes precomputed member answers)."""
    import pyarrow as pa

    from web_content_extraction_benchmark_ray.functions import extractors
    from web_content_extraction_benchmark_ray.sources.pagegen import (
        render_page,
    )
    from web_content_extraction_benchmark_ray.stages.extract import (
        ExtractStage,
    )

    html = render_page(7, "alpha beta gamma delta " * 30)
    batch = pa.table(
        {
            "doc_id": pa.array(["7"], pa.string()),
            "html": pa.array([html], pa.string()),
        }
    )
    out = {
        (r["model"]): r
        for r in ExtractStage(("bte", "ensemble"))(batch).to_pylist()
    }
    assert out["bte"]["error"] == "" and out["ensemble"]["error"] == ""
    # parity with the standalone ensemble form
    assert out["ensemble"]["plaintext"] == extractors.get_extractor("ensemble")(
        html
    )
    # a cached member answer short-circuits before any recompute: with bte
    # made to raise, the page still votes with the answer it holds
    def _boom(html):
        raise AssertionError("recomputed")

    monkeypatch.setitem(extractors._REGISTRY, "bte", ("html", _boom))
    page = extractors.Page(html)
    page.answers["bte"] = out["bte"]["plaintext"]
    assert page.answer("ensemble") == out["ensemble"]["plaintext"]
