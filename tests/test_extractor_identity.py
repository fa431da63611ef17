"""Golden output identity for every registered extractor.

Each model's ``get_extractor`` output is hashed over 300 pagegen pages,
a fixed list of adversarial snippets and 200 seeded random DOM soups
(nested blocks, links in headings and paragraphs, unclosed tags, raw-text
bodies, every whitespace codepoint, punctuated and mixed-case stopwords,
non-ASCII words).  The expected digests were recorded from the
extraction code as it stood before the per-document CPU work (cached
stopword test, split-based whitespace squeeze, one-walk readability,
slotted DOM objects, regex-run bte), and this test passes unchanged
against both versions: any byte of drift in any model fails it.

To re-record after an intended output change, run this file as a script
and paste the printed dict.
"""
from __future__ import annotations

import hashlib
import random

from web_content_extraction_benchmark_ray.functions.extractors import (
    get_extractor,
    list_extractors,
)
from web_content_extraction_benchmark_ray.sources import pagegen

# every codepoint for which str.isspace() holds
WHITESPACE = "".join(chr(c) for c in range(0x110000) if chr(c).isspace())

WORDS = (
    "the of and to in is it that was for on are with as at be this from "
    "The OF And _the_ (of) and, the. it's Isn't \"we\" 'our' --to-- ...is "
    "_and_ THE-- ¿the? «and» the… naïve café Ünïcode 東京 straße ΘΕΟΣ "
    "data join hash query scan sort table vector window stream column "
    "x y z 42 3.14 a-b c_d e/f g,h ; : ! ? © &quot; &nbsp; &#39; &amp;"
).split()

TAGS = (
    "div p a span h1 h2 h3 td tr table pre ul li ol blockquote b i em "
    "section article aside nav footer header form br hr img script style "
    "noscript textarea title head body html"
).split()
ATTRS = (
    "",
    ' class="content"',
    ' id="main"',
    ' class="sidebar nav"',
    " class='post entry'",
    ' id="comment-1" class="footer"',
    ' href="/x"',
    ' class="article-body" id="story"',
)

SNIPPETS = [
    "",
    "   ",
    "<html><body></body></html>",
    "<body>",
    "<p>",
    WHITESPACE,
    f"<p>{WHITESPACE}</p>",
    "<p>" + "the".join(WHITESPACE) + "</p>",
    "<body><p>" + " and ".join(f"w{i}{c}x" for i, c in enumerate(WHITESPACE))
    + "</p></body>",
    "<div><p>a\x1c b\x1d c\x1e d\x1f e\x85 f\xa0 g  h  i　 j</p></div>",
    "<div><p><a href='/'>link\x1ctext　here\xa0x</a> and the rest of it, "
    "with some more of the words to make it long enough for the models</p></div>",
    "<body><h2><a href='/a'>Heading link of the page</a> trailing</h2>"
    "<p>It is the case that this is a paragraph of the text, with commas, "
    "and it is long enough to count for all of the models here.</p></body>",
    "<h1><a href='/'>A</a></h1><h3>b <a href='/b'>c <b>d</b></a></h3><p>e</p>",
    "<div><p>The, (of) _and_ \"to\" 'in' IS It... THE? of! And; "
    "to: the-- --of _is_ the_ _of</p></div>",
    "<div><p>" + " ".join(WORDS) + "</p><p>" + " ".join(reversed(WORDS))
    + "</p></div>",
    "<p>naïve café Ünïcode 東京 straße ΘΕΟΣ the of and über der die das</p>",
    "<div class='content'><p>unclosed <b>bold <i>italic <p>next para of the "
    "text and it is</div>tail</span></p><p>three",
    "<div><p>one<p>two</div></span><p>three<td>cell<tr>row",
    "<body><script>var a = '<p>not a para</p>'; if (a < b) {}</script>"
    "<style>p { color: red } </style><p>keep the text of it</p></body>",
    "<body><script>unterminated <p>script body",
    "<style>unterminated style <p>x</p>",
    "<textarea><b>raw</b> text</textarea><p>after the area</p>",
    "<SCRIPT>upper</SCRIPT ><p>Para &quot;quoted&quot; &nbsp; it&#39;s</p>",
    "<!-- comment <p>hidden</p> --><p>shown</p><!-- unterminated",
    "<![CDATA[ cdata <p>x</p> ]]><?php echo 1 ?><!DOCTYPE html><p>y</p>",
    "<p>a < b and c > d</p><p>stray < lt</p><div",
    "<table><tr><td>The cell of the table, with a comma</td><td>and "
    "<a href='#'>a link in it</a></td></tr></table>",
    "<pre>  pre\n\n  formatted\ttext  </pre><blockquote>quote of the day</blockquote>",
    "<ul><li><a href='/1'>one</a></li><li><a href='/2'>two</a></li></ul>",
    "<p>©  2024 all of the rights are reserved to the owner of it &copy;</p>",
    "<body><div><div><div><p>" + "deep and the of " * 40 + "</p></div></div></div></body>",
    "<body>" + "<a href='/x'>link</a> " * 30 + "</body>",
    "<p>_</p><p>__the__</p><p>'</p><p>-</p><p>…</p>",
]


def _soup(rng: random.Random, depth: int = 0) -> str:
    out = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if r < 0.45 or depth > 3:
            words = [rng.choice(WORDS) for _ in range(rng.randint(0, 25))]
            seps = [rng.choice((" ", " ", " ", "  ", "\n", rng.choice(WHITESPACE)))
                    for _ in words]
            out.append("".join(w + s for w, s in zip(words, seps)))
        else:
            tag = rng.choice(TAGS)
            attrs = rng.choice(ATTRS)
            inner = _soup(rng, depth + 1)
            close = "" if rng.random() < 0.12 else f"</{tag}>"
            out.append(f"<{tag}{attrs}>{inner}{close}")
    return "".join(out)


def corpus() -> list[str]:
    rng = random.Random(20261019)
    docs = []
    for d in range(300):
        words = [rng.choice(WORDS) for _ in range(rng.randint(10, 100))]
        docs.append(pagegen.render_page(d, " ".join(words)))
    docs.extend(SNIPPETS)
    docs.extend(f"<html><body>{_soup(rng)}</body></html>" for _ in range(200))
    return docs


def digests() -> dict[str, str]:
    docs = corpus()
    out = {}
    for name in list_extractors():
        fn = get_extractor(name)
        h = hashlib.sha256()
        for i, html in enumerate(docs):
            try:
                res = fn(html)
            except Exception as e:  # noqa: BLE001 — an error is output too
                res = f"!{type(e).__name__}"
            h.update(f"{i}\x00".encode())
            h.update(res.encode("utf-8", "surrogatepass"))
            h.update(b"\x01")
        out[name] = h.hexdigest()
    return out


# recorded from the extraction code before the per-document CPU work
EXPECTED = {
    "body_text": (
        "a027d2be5ba77092b2acbe232f67b5cc686fbac9f4876141870b87606e128d52"
    ),
    "bte": (
        "170520c8fb8e0a9e98615263f59a65fb03ae5e8918efd9b1402131b46bfc5c61"
    ),
    "cascade": (
        "6d89afa35050eb1e6b3fa19ccab25b4c4c8f873412270b077de4b6802bea8931"
    ),
    "density": (
        "a36bbb84f3a6959479693571193e27d18823a738f4eb447c4509895c81b09f7f"
    ),
    "ensemble": (
        "a1fa4db26a74c3e81c5aafbb412208a1c7d15deeb6fedebcdcdb93784763fad2"
    ),
    "ensemble_best": (
        "3f69968f24da081abf663eed06f6cbcb18c084fdea6d02713184dd02551d41b1"
    ),
    "ensemble_weighted": (
        "c2f4c16b31d43b262348e2cb20b641ec5e014339c93a6d6af1748a4c1b398234"
    ),
    "justext": (
        "13404fcad0731debaeba9e8414431cfc5c20875cc8eecc851b2ecccb4488aba6"
    ),
    "layout": (
        "a57ca19d40e93f046085596e83d73e6e1fdd3a69655ca7f4002ced41e2ff0615"
    ),
    "leafmodel": (
        "f9391b87355152e6ffcbf00c73462d4119ad8a7721fe51bf4e736aae4bd6b21b"
    ),
    "leafmodel_seq": (
        "f54df3ea576c5a730dd856c06ce528687791d98a89d1cfb2734cca483fc0e734"
    ),
    "leafmodel_seq2": (
        "fbef186463b42df25d91016a103a35de925b9165c66544ac53f088628887f505"
    ),
    "plaintext": (
        "c3ae6ccbeeb0a2bd79ff3a02f77536646ce2df2a8ce3e1ce30792bbbf3f62884"
    ),
    "readability": (
        "3c000547e393b9f668ff36ea0328256d716118369206288274943f57b732dab8"
    ),
    "tagclean": (
        "44523a3204e78709fd6e2f9a1b85f2d040639146d2e09791d3d300f71e688aab"
    ),
    "topnode": (
        "b46ca8b1ae103b24c32d0e36973f9f42351b220f0cb8d7348841160b097b194f"
    ),
    "whole_text": (
        "746cec7106f6d5651b34fcbddf1f7d6bbcbda38bd9ae2940f27138736e6a777d"
    ),
}


def test_every_model_output_is_byte_identical():
    got = digests()
    assert sorted(got) == sorted(EXPECTED)
    drift = sorted(n for n in got if got[n] != EXPECTED[n])
    assert not drift, f"extractor output changed for: {drift}"


if __name__ == "__main__":
    import pprint

    pprint.pprint(digests())
