"""stages/shuffle.py: the routing hash and the partition-count rule.

The reassembly shuffle is the engine's hot all-to-all; its routing must
stay exactly the bucket function the reassembly always used, so these
tests restate that function (decimal ids <= 18 digits: Knuth
multiplicative hash; any other id: crc32) and the salted (doc_id, salt)
variant as independent references.
"""
from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SPACE = 1 << 20
KNUTH = np.uint64(2654435761)


def _ref_bucket(doc_ids: list[str]) -> list[int]:
    """The reassembly's doc_id -> bucket function, restated per value."""
    out = []
    for d in doc_ids:
        if d.isdecimal() and d.isascii() and len(d) <= 18:
            h = (int(d) * int(KNUTH)) & 0xFFFFFFFF
        else:
            h = zlib.crc32(d.encode())
        out.append(h % SPACE)
    return out


def _ref_salt_bucket(doc_ids: list[str], salts: list[int]) -> list[int]:
    out = []
    for d, s in zip(doc_ids, salts):
        if d.isdecimal() and d.isascii() and len(d) <= 18:
            mixed = (int(d) * int(KNUTH)) ^ (s * 0x9E3779B97F4A7C15)
            h = mixed & 0xFFFFFFFF
        else:
            h = zlib.crc32(f"{d}#{s}".encode())
        out.append(h % SPACE)
    return out


def _mixed_ids() -> list[str]:
    rng = np.random.default_rng(7)
    ids = [str(i) for i in range(0, 3000, 7)]  # pagegen-style decimals
    ids += [str(int(x)) for x in rng.integers(10**17, 10**18, 50)]  # 18 digits
    ids += [str(10**18 + int(x)) for x in rng.integers(0, 10**17, 50)]  # 19
    ids += [hashlib.sha256(str(i).encode()).hexdigest() for i in range(200)]
    ids += ["0", "00042", "12ab", ""]
    # decimal in Unicode but not ASCII: Arabic-Indic, full-width and
    # Devanagari digits must take the crc32 path, not the int64 cast
    ids += ["\u0661\u0662\u0663", "\uff12\uff10\uff12\uff14", "\u0967\u0968"]
    order = rng.permutation(len(ids))
    return [ids[i] for i in order]


def test_wide_bucket_pins_the_reassembly_routing():
    from web_content_extraction_benchmark_ray.stages.shuffle import (
        WIDE_SPACE,
        add_bucket,
        wide_bucket,
    )

    assert WIDE_SPACE == SPACE
    ids = _mixed_ids()
    want = _ref_bucket(ids)
    # one batch, and the same ids split over two chunks: the bucket is a
    # function of the value only, never of its batch neighbours
    assert wide_bucket(pa.array(ids)).tolist() == want
    chunked = pa.chunked_array([ids[:97], ids[97:]])
    assert wide_bucket(chunked).tolist() == want
    got = add_bucket(pa.table({"doc_id": ids}))
    assert got.column("bucket").type == pa.int32()
    assert got.column("bucket").to_pylist() == want
    # an int64 key routes exactly like its decimal string
    nums = [
        int(d) for d in ids if d.isdecimal() and d.isascii() and len(d) <= 18
    ]
    assert wide_bucket(pa.array(nums, pa.int64())).tolist() == _ref_bucket(
        [str(n) for n in nums]
    )
    assert wide_bucket(np.asarray(nums, np.int64)).tolist() == _ref_bucket(
        [str(n) for n in nums]
    )


def test_salted_bucket_pins_the_salted_routing():
    from web_content_extraction_benchmark_ray.stages.reassemble import (
        add_salt_bucket,
    )

    ids = _mixed_ids()
    offsets = [(i * 40_503) % 400_000 for i in range(len(ids))]
    t = pa.table(
        {"doc_id": ids, "offset": pa.array(offsets, pa.int32())}
    )
    got = add_salt_bucket(t, salt_range=1 << 16)
    salts = [o // (1 << 16) for o in offsets]
    assert got.column("salt").to_pylist() == salts
    assert got.column("bucket").to_pylist() == _ref_salt_bucket(ids, salts)


def test_bucketed_groupby_counts_non_ascii_digit_keys(ray_session):
    """Vocabulary keys come from page text: a token made only of
    another script's digits is a string key like any other."""
    from collections import Counter

    import ray.data

    from web_content_extraction_benchmark_ray.stages.vecagg import (
        bucketed_groupby,
    )

    words = [
        "\u0661\u0662\u0663", "\uff12\uff10\uff12\uff14", "\u0967\u0968",
        "2024", "00042", "42", "word", "\u0661\u0662\u0663",
    ] * 3 + ["2024"]
    ds = ray.data.from_arrow(
        pa.table({"word": words, "one": np.ones(len(words), np.int64)})
    ).repartition(3)
    out = bucketed_groupby(ds, "word", ["one"], ["count"], out_names=["n"])
    got = {r["word"]: r["n"] for r in out.take_all()}
    assert got == dict(Counter(words))


def test_partition_count_rule(monkeypatch):
    from web_content_extraction_benchmark_ray.stages import shuffle

    target = shuffle.PARTITION_TARGET_BYTES
    small = shuffle.SMALL_PARTITION_BYTES
    assert (target, small) == (64 << 20, 16 << 20)
    for cpus in (1, 4, 16, 32):
        monkeypatch.setattr(shuffle, "session_cpus", lambda c=cpus: c)
        # CPU floor: two partitions per CPU when the input is unknown
        assert shuffle.partition_count() == 2 * cpus
        # size fit: a small input gets at most one partition per 16 MiB
        # (at least 4), never more than the CPU floor
        assert shuffle.partition_count(1) == min(2 * cpus, 4)
        assert shuffle.partition_count(6 * small) == min(2 * cpus, 6)
        assert shuffle.partition_count(6 * small + 1) == min(2 * cpus, 7)
        # size floor: no partition above ~64 MiB
        assert shuffle.partition_count(100 * target) == max(2 * cpus, 100)
        assert shuffle.partition_count(100 * target + 1) == max(
            2 * cpus, 101
        )
    # a 1-CPU session (the benchmark's) keeps 2 partitions below 128 MiB
    monkeypatch.setattr(shuffle, "session_cpus", lambda: 1)
    assert {shuffle.partition_count(b) for b in (1, small, 2 * target)} == {2}
    assert shuffle.partition_count(2 * target + 1) == 3


def test_co_partition_cuts_uniform_boundaries(ray_session, monkeypatch):
    """One sort over uniform cuts of the wide space: the partition count
    is the rule's, every partition is one block holding whole keys, and
    the keys spread over every partition."""
    import ray.data

    from web_content_extraction_benchmark_ray.stages import shuffle

    keys = np.repeat(np.arange(400, dtype=np.int64), 3)
    ds = ray.data.from_arrow(
        pa.table({"k": keys, "v": np.ones(len(keys), np.int64)})
    ).repartition(5)

    def per_partition(t: pa.Table) -> pa.Table:
        b = t.column("bucket").to_numpy()
        return pa.table(
            {
                "lo": [int(b.min())],
                "hi": [int(b.max())],
                "keys": [len(pc.unique(t.column("k")))],
                "rows": [t.num_rows],
            }
        )

    monkeypatch.setattr(shuffle, "session_cpus", lambda: 3)
    out = shuffle.co_partition(ds, per_partition, key="k").to_pandas()
    assert len(out) == 6
    bounds = [shuffle.WIDE_SPACE * i // 6 for i in range(1, 6)]
    lo = np.searchsorted(bounds, out["lo"], side="right")
    hi = np.searchsorted(bounds, out["hi"], side="right")
    assert (lo == hi).all() and sorted(lo) == list(range(6))
    assert out["rows"].sum() == len(keys)
    assert out["keys"].sum() == 400  # no key is split between partitions
