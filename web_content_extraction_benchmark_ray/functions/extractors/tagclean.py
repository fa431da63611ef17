"""Tag-set blacklist stripping extractor.

Capability of reference ``extract_lxml_cleaner`` (extractors.py:109-143):
kill a fixed blacklist of subtrees (plus comments/scripts/head), then emit
the remaining whole text.  The blacklist below reproduces the reference's
configuration list (a config constant, extractors.py:113-124).  The walk
skips blacklisted subtrees instead of deleting them, so it reads the
page's one shared parse without changing it.
"""
from __future__ import annotations

from ..text import squeeze_ws, sub_common_entities
from . import register_extractor

TAG_BLACKLIST = frozenset(
    (
        # important
        "aside embed footer form head iframe menu object script "
        # other content
        "applet audio canvas figure map picture svg video "
        # secondary
        "area blink button datalist dialog frame frameset fieldset link input "
        "ins label legend marquee math menuitem nav noscript optgroup option "
        "output param progress rp rt rtc select source style track template "
        "textarea time use"
    ).split()
)


@register_extractor("tagclean", "root")
def tagclean(root) -> str:
    # one squeeze over the space-joined chunks: no entity spans the joining
    # space, so this is the chunk-wise squeeze joined by single spaces
    return squeeze_ws(sub_common_entities(" ".join(root.text_chunks(TAG_BLACKLIST))))
