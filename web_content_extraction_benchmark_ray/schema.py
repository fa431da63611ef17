"""Explicit Arrow schemas for every logical table (SURVEY.md §1.3 — the
reference's schemas are implicit/convention-based; ours are pinned).

``large_string`` is used for document payload columns so multi-MB
pathological pages never overflow 32-bit string offsets within a block.
"""
from __future__ import annotations

import pyarrow as pa

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.large_string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

# Input table (BASELINE.json input_hint): interleaved text + media documents.
DOCUMENTS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_STRUCT)),
    ]
)

OUT_SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.large_string()),
        ("media_ref", pa.string()),
        ("order", pa.int32()),
    ]
)

# Reassembled per-document rows (internal).
ASSEMBLED = pa.schema(
    [
        ("doc_id", pa.string()),
        ("html", pa.large_string()),
        ("media_refs", pa.list_(pa.string())),
        ("n_bytes", pa.int64()),
    ]
)

# Extraction output (FIXTURES.md §3).
EXTRACTIONS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("model", pa.string()),
        ("plaintext", pa.large_string()),
        ("spans", pa.list_(OUT_SPAN_STRUCT)),
        ("error", pa.string()),
    ]
)

# Score records (FIXTURES.md §4; reference eval.py:41-48, 65-71).
# doc_id is int64: the scorer runs on the truth-join output whose key is
# already normalized to the integer id space.
SCORES = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("model", pa.string()),
        ("dataset", pa.string()),
        ("scorer", pa.string()),
        ("prec", pa.float64()),
        ("rec", pa.float64()),
        ("f1", pa.float64()),
        ("dist", pa.float64()),
    ]
)
