"""Model-table block classifier — the E15 (BoilerNet) capability class.

The reference's BoilerNet wraps a Keras BiLSTM leaf classifier behind a
lazy per-process model singleton (``/root/reference/src/
extraction_benchmark/extractors/boilernet/__init__.py:31-50``); the
capability being reproduced is "neural leaf/block classifier whose model
table lives in worker state", not that network's exact output (no TF in
this sandbox, and the north rule wants from-scratch logic).

Here the model is a logistic unit over shallow block features
(word count, link density, heading flag) with a FIXED deterministic
weight table — the same shape a learned model would ship as (a weights
blob loaded once per worker).  The module-level table, built once per
worker process at import, plays the role of the model singleton.  On
the provable synthetic template the decision boundary (score > 0 <=> ~9+
words at zero link density) exactly selects the main-content paragraphs,
so the extractor has a hash-verified SQL oracle like every other model.
"""
from __future__ import annotations

import math

from ..text import sub_common_entities, tokenize_ws
from . import register_extractor

# The "model table": weights a trained classifier would load from disk.
WEIGHTS = {
    "w_words": 12.0,   # applied to min(words, 32) / 32
    "w_link": -8.0,    # applied to link-character ratio
    "w_heading": -8.0, # applied to the heading flag
    "bias": -3.0,
}
WORD_CAP = 32


def block_score(words: int, link_ratio: float, is_heading: bool,
                weights: dict = WEIGHTS) -> float:
    z = (
        weights["w_words"] * (min(words, WORD_CAP) / WORD_CAP)
        + weights["w_link"] * link_ratio
        + weights["w_heading"] * (1.0 if is_heading else 0.0)
        + weights["bias"]
    )
    return 1.0 / (1.0 + math.exp(-z))


@register_extractor("leafmodel", "blocks")
def leafmodel(blocks, weights: dict = WEIGHTS) -> str:
    """Keep blocks the logistic unit scores > 0.5; join with newlines."""
    kept = []
    for b in blocks:
        text = sub_common_entities(b.text())
        if not text:
            continue
        words = len(tokenize_ws(text))
        link_ratio = b.link_chars / len(text)
        if block_score(words, link_ratio, b.is_heading, weights) > 0.5:
            kept.append(text)
    return "\n".join(kept)


# ---------------------------------------------------------------------------
# Sequence-context variant (the E15 gap): BoilerNet's BiLSTM scores a leaf
# IN CONTEXT of its neighbours (leaf + ancestor-tag representation,
# reference ``extractors/boilernet/net/preprocess.py:19-33`` feeding the
# bidirectional LSTM ``net/leaf_classifier.py:58-71``).  Here the context
# is explicit: the logistic unit additionally sees the prev/next blocks'
# capped word counts and link densities — a 1-step bidirectional receptive
# field, the linear analogue of the BiLSTM's h_fwd/h_bwd at window 1.

SEQ_WEIGHTS = {
    **WEIGHTS,
    "w_ctx_words": 1.0,   # applied to (min(prev_w,32)+min(next_w,32))/32
    "w_ctx_link": -1.0,   # applied to prev_lr + next_lr
}


def block_score_seq(words: int, link_ratio: float, is_heading: bool,
                    ctx_words: int, ctx_link: float,
                    weights: dict = SEQ_WEIGHTS) -> float:
    z = (
        weights["w_words"] * (min(words, WORD_CAP) / WORD_CAP)
        + weights["w_link"] * link_ratio
        + weights["w_heading"] * (1.0 if is_heading else 0.0)
        + weights["w_ctx_words"] * (ctx_words / WORD_CAP)
        + weights["w_ctx_link"] * ctx_link
        + weights["bias"]
    )
    return 1.0 / (1.0 + math.exp(-z))


@register_extractor("leafmodel_seq", "blocks")
def leafmodel_seq(blocks, weights: dict = SEQ_WEIGHTS) -> str:
    """Two passes: featurize every block, then score each with its
    neighbours' features in view.  On the provable template the context
    terms are bounded by ±2 while the base margins are ≥ |5.8| on every
    block class, so the decision set equals leafmodel's (main paragraphs
    exactly) — which is what gives this extractor the same hash-verified
    oracle."""
    feats = []
    for b in blocks:
        text = sub_common_entities(b.text())
        words = len(tokenize_ws(text))
        lr = (b.link_chars / len(text)) if text else 0.0
        feats.append((text, words, lr, b.is_heading))
    kept = []
    for i, (text, words, lr, heading) in enumerate(feats):
        if not text:
            continue
        pw, plr = (feats[i - 1][1], feats[i - 1][2]) if i > 0 else (0, 0.0)
        nw, nlr = (
            (feats[i + 1][1], feats[i + 1][2])
            if i + 1 < len(feats)
            else (0, 0.0)
        )
        ctx_words = min(pw, WORD_CAP) + min(nw, WORD_CAP)
        if block_score_seq(
            words, lr, heading, ctx_words, plr + nlr, weights
        ) > 0.5:
            kept.append(text)
    return "\n".join(kept)


# ---------------------------------------------------------------------------
# 2-step receptive field (E15, closing the round-2 "BiLSTM-class" gap):
# the score of block i sees (words, link density) of i-1, i+1 AND i-2,
# i+2 with distance-decayed weights — the linear analogue of stacking a
# second recurrent step.  12-dim feature vector, trainable end to end by
# the integer-GD pipeline (pipelines/training.py:leafmodel_seq2_train
# learns THESE weights' signs from data, hash-verified vs the SQL twin).
#
# Margin proof sketch for the fixed table (template-provable oracle):
# context terms are bounded by ±3.0 total (four neighbour word fractions
# in [0,1] at weights 1.0/0.5, four link ratios likewise), while every
# block class's context-free margin is >= |5.8| (the leafmodel_seq
# bound) — so the decision set still equals the main paragraphs exactly
# (pinned by tests/test_template_provable.py).

SEQ2_WEIGHTS = {
    **WEIGHTS,
    "w_ctx1_words": 1.0,   # (min(prev1_w,32)+min(next1_w,32))/32
    "w_ctx1_link": -1.0,   # prev1_lr + next1_lr
    "w_ctx2_words": 0.5,   # (min(prev2_w,32)+min(next2_w,32))/32
    "w_ctx2_link": -0.5,   # prev2_lr + next2_lr
}


def block_score_seq2(words: int, link_ratio: float, is_heading: bool,
                     ctx1_words: int, ctx1_link: float,
                     ctx2_words: int, ctx2_link: float,
                     weights: dict = SEQ2_WEIGHTS) -> float:
    z = (
        weights["w_words"] * (min(words, WORD_CAP) / WORD_CAP)
        + weights["w_link"] * link_ratio
        + weights["w_heading"] * (1.0 if is_heading else 0.0)
        + weights["w_ctx1_words"] * (ctx1_words / WORD_CAP)
        + weights["w_ctx1_link"] * ctx1_link
        + weights["w_ctx2_words"] * (ctx2_words / WORD_CAP)
        + weights["w_ctx2_link"] * ctx2_link
        + weights["bias"]
    )
    return 1.0 / (1.0 + math.exp(-z))


def _neighbor(feats, i: int):
    """(capped words, link ratio) of feature row i, or zeros off the ends."""
    if 0 <= i < len(feats):
        return min(feats[i][1], WORD_CAP), feats[i][2]
    return 0, 0.0


@register_extractor("leafmodel_seq2", "blocks")
def leafmodel_seq2(blocks, weights: dict = SEQ2_WEIGHTS) -> str:
    """Context windows index the NON-EMPTY block sequence, mirroring the
    trained form (pipelines/training.py:leaf_seq_examples and its
    lag/lead SQL twin) — an earlier form let empty-text blocks occupy
    window positions, so trained seq2 weights and this extractor computed
    different features for the same document whenever empties separated
    content.  On the provable template the margin bound covers both
    window semantics, so the oracle is unaffected."""
    feats = []
    for b in blocks:
        text = sub_common_entities(b.text())
        if not text:
            continue
        words = len(tokenize_ws(text))
        lr = b.link_chars / len(text)
        feats.append((text, words, lr, b.is_heading))
    kept = []
    for i, (text, words, lr, heading) in enumerate(feats):
        (pw1, pl1), (nw1, nl1) = _neighbor(feats, i - 1), _neighbor(feats, i + 1)
        (pw2, pl2), (nw2, nl2) = _neighbor(feats, i - 2), _neighbor(feats, i + 2)
        if block_score_seq2(
            words, lr, heading,
            pw1 + nw1, pl1 + nl1, pw2 + nw2, pl2 + nl2, weights,
        ) > 0.5:
            kept.append(text)
    return "\n".join(kept)
