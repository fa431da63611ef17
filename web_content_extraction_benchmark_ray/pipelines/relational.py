"""Warehouse-style relational operators over the TPC-H-shaped tables —
the two relational shapes the engine did not yet exercise:

- ``join_revenue``: a BIG x BIG equi-join (lineitem x orders on
  orderkey).  Every other join in the engine broadcasts a small side
  (truth sets, dup sets, posting dicts); here BOTH sides are fact-table
  sized, so neither may broadcast.  The distributed shape is the
  classic co-partition join: both sides map to light join rows, union,
  and ONE ``stages/shuffle.co_partition`` on the key co-locates matching
  keys; the probe resolves per partition with a sorted
  ``np.searchsorted`` (vectorized hash-join equivalent).  The lineitem
  side pre-aggregates per orderkey inside each batch (map-side
  combiner), so the shuffle moves one 32-byte row per distinct key per
  block, never raw line items.
- ``docs_rollup``: GROUP BY ROLLUP(source, lang) with GROUPING()
  subtotal markers — the grouping-sets aggregate shape.  The base
  (source, lang) aggregate reduces distributed (map-side combiner ->
  bucketed vectorized Sum); the rollup expansion then runs on that
  ALREADY-AGGREGATED table, whose cardinality is |sources| x |langs|
  regardless of corpus size — the documented gated-small-side driver
  finish (the same contract as the per-model aggregate collects).

Float parity: revenue terms quantize per row to int64 micro-units
(``floor(ep * (1 - disc) * 1e6 + 0.5)``) BEFORE any sum, mirrored
verbatim in the SQL twin — identical IEEE double ops on both sides,
then exact integer sums (the events-combiner discipline).
"""
from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray

from ..sources.storage import capped_num_blocks, read_table
from ..stages.shuffle import co_partition, partition_count, session_cpus
from ..stages.vecagg import bucketed_groupby
from ..state.memo import fetch, memo

# rollup subtotal marker (the tables' source/lang values never collide
# with it; GROUPING()-gated in the SQL twin so real NULLs can't alias)
ROLLUP_ALL = "ALL"


def _read(sf_dir: str, table: str, columns):
    path = os.path.join(sf_dir, f"{table}.parquet")
    return read_table(
        path, columns=columns,
        override_num_blocks=capped_num_blocks(path, 2 * session_cpus()),
    )


def _partitions(sf_dir: str, *tables: str) -> int:
    """Co-group partition count fitted to the joined tables' bytes: a
    join of small tables runs in few partitions (each extra one adds a
    task and a row and column of the all-to-all)."""
    return partition_count(
        sum(
            os.path.getsize(os.path.join(sf_dir, f"{t}.parquet"))
            for t in tables
        )
    )


# -------------------------------------------------------------- join_revenue
def join_revenue(sf_dir: str):
    """Revenue per order priority — ``lineitem JOIN orders ON
    orderkey`` then ``GROUP BY o_orderpriority``.  Output:
    (o_orderpriority, n_lines, revenue6) with revenue in exact int64
    micro-units.

    Partitioning assumption: orderkeys of both sides meet in one
    ``co_partition`` partition; orderkeys are unique on the orders side
    (the build), so the probe is one searchsorted per partition."""
    return _orders_join_agg(
        sf_dir, "o_orderpriority",
        lambda batch: batch.column("o_orderpriority").to_pylist(),
        ["o_orderkey", "o_orderpriority"],
    )


def _orders_join_agg(sf_dir: str, label_name: str,
                     label_of, o_columns):
    """The co-group join core shared by ``join_revenue`` and
    ``revenue_by_region``: lineitem revenue rows join orders rows
    labelled by ``label_of(batch)`` (a per-order string; None drops the
    order, as an inner join drops a row with no dimension match),
    aggregated to (label_name, n_lines, revenue6)."""

    def li_rows(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("l_orderkey").to_pylist(), np.int64)
        ep = np.asarray(
            batch.column("l_extendedprice").to_pylist(), np.float64
        )
        d = np.asarray(batch.column("l_discount").to_pylist(), np.float64)
        rev6 = np.floor(ep * (1 - d) * 1e6 + 0.5).astype(np.int64)
        # map-side combiner: one row per distinct orderkey per batch
        uk, inv = np.unique(k, return_inverse=True)
        s = np.zeros(len(uk), np.int64)
        np.add.at(s, inv, rev6)
        n = np.bincount(inv, minlength=len(uk)).astype(np.int64)
        return pa.table(
            {
                "orderkey": pa.array(uk, pa.int64()),
                "side": pa.array(np.zeros(len(uk), np.int64), pa.int64()),
                "prio": pa.array([""] * len(uk), pa.string()),
                "rev6": pa.array(s, pa.int64()),
                "n": pa.array(n, pa.int64()),
            }
        )

    def o_rows(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("o_orderkey").to_pylist(), np.int64)
        z = np.zeros(len(k), np.int64)
        prio = pa.array(label_of(batch), pa.string())
        return pa.table(
            {
                "orderkey": pa.array(k, pa.int64()),
                "side": pa.array(z + 1, pa.int64()),
                "prio": prio,
                "rev6": pa.array(z, pa.int64()),
                "n": pa.array(z, pa.int64()),
            }
        ).filter(prio.is_valid())

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_rows, batch_format="pyarrow")
    orders = _read(
        sf_dir, "orders", o_columns
    ).map_batches(o_rows, batch_format="pyarrow")

    def joined(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("side").to_pylist(), np.int64)
        keys = np.asarray(group.column("orderkey").to_pylist(), np.int64)
        rev6 = np.asarray(group.column("rev6").to_pylist(), np.int64)
        n = np.asarray(group.column("n").to_pylist(), np.int64)
        prio = np.asarray(group.column("prio").to_pylist(), dtype=object)
        bm = side == 1
        ko, po = keys[bm], prio[bm]
        so = np.argsort(ko)
        ko, po = ko[so], po[so]
        kl, rl, nl = keys[~bm], rev6[~bm], n[~bm]
        if not (len(ko) and len(kl)):
            return pa.table(
                {
                    "o_orderpriority": pa.array([], pa.string()),
                    "n_lines": pa.array([], pa.int64()),
                    "revenue6": pa.array([], pa.int64()),
                }
            )
        idx = np.searchsorted(ko, kl)
        idx[idx == len(ko)] = len(ko) - 1
        m = ko[idx] == kl  # inner join: unmatched probes drop
        pm = po[idx[m]]
        up, pinv = np.unique(pm, return_inverse=True)
        rs = np.zeros(len(up), np.int64)
        ns = np.zeros(len(up), np.int64)
        np.add.at(rs, pinv, rl[m])
        np.add.at(ns, pinv, nl[m])
        return pa.table(
            {
                "o_orderpriority": pa.array(up.tolist(), pa.string()),
                "n_lines": pa.array(ns, pa.int64()),
                "revenue6": pa.array(rs, pa.int64()),
            }
        )

    parts = co_partition(
        li.union(orders), joined, key="orderkey",
        partitions=_partitions(sf_dir, "lineitem", "orders"),
    )
    return bucketed_groupby(
        parts, "o_orderpriority", ["n_lines", "revenue6"], ["sum", "sum"],
        out_names=["n_lines", "revenue6"],
    ).map_batches(
        lambda b: b.rename_columns(
            [label_name, "n_lines", "revenue6"]
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------- revenue_by_region
def _custkey_region(sf_dir: str):
    """Broadcast side of the snowflake: custkey -> region name through
    customer -> nation -> region.  Dimension tables are the canonical
    broadcast small side (region/nation are fixed-size; customer is the
    largest dim — if it ever outgrew broadcast, custkey would co-group
    exactly like orderkey).  Returns (sorted custkeys, region names),
    memoized per (table files of ``sf_dir``, Ray job) (``state/memo``):
    a rewritten customer, nation or region table invalidates it."""
    return memo(
        "relational.custkey_region", sf_dir,
        lambda: _custkey_region_build(sf_dir),
    )


def _custkey_region_build(sf_dir: str):
    import pyarrow.parquet as pq

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
    )
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    )
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    )
    rk = np.asarray(reg.column("r_regionkey").to_pylist(), np.int64)
    rname = np.asarray(reg.column("r_name").to_pylist(), dtype=object)
    nk = np.asarray(nat.column("n_nationkey").to_pylist(), np.int64)
    nreg = np.asarray(nat.column("n_regionkey").to_pylist(), np.int64)
    ck = np.asarray(cust.column("c_custkey").to_pylist(), np.int64)
    cn = np.asarray(cust.column("c_nationkey").to_pylist(), np.int64)
    # customer -> nation -> region, both inner joins: a customer whose
    # nation (or whose nation's region) has no row drops
    ridx, rhit = _probe(rk, nreg)
    nidx, nhit = _probe(nk, cn)
    keep = nhit & rhit[nidx]
    ck, label = ck[keep], rname[ridx[nidx[keep]]]
    order = np.argsort(ck)
    return ck[order], label[order]


def _probe(keys: np.ndarray, probe: np.ndarray):
    """Equi-join probe of ``probe`` against the unique ``keys``: the row
    index in ``keys`` of every probe value and whether it is there."""
    if not len(keys):
        return np.zeros(len(probe), np.int64), np.zeros(len(probe), bool)
    order = np.argsort(keys)
    pos = np.minimum(np.searchsorted(keys[order], probe), len(keys) - 1)
    idx = order[pos]
    return idx, keys[idx] == probe


def revenue_by_region(sf_dir: str):
    """TPC-H Q5-flavoured snowflake: revenue per REGION — lineitem ⋈
    orders resolves with the big×big co-group (``join_revenue``'s
    core); orders → customer → nation → region resolves with ONE
    broadcast lookup applied per orders batch (``ray.put`` once, fetch
    once per worker process).  The two join strategies compose in one
    pipeline: the band that must shuffle shuffles once, the dimensions
    never do.  Output: (region, n_lines, revenue6)."""
    ref = ray.put(_custkey_region(sf_dir))

    def label_of(batch: pa.Table, ref=ref):
        ck_sorted, region = fetch(ref)
        ck = np.asarray(batch.column("o_custkey").to_pylist(), np.int64)
        idx = np.searchsorted(ck_sorted, ck)
        idx[idx == len(ck_sorted)] = len(ck_sorted) - 1
        # inner join: an orphan custkey (no customer row) drops
        return np.where(ck_sorted[idx] == ck, region[idx], None).tolist()

    return _orders_join_agg(
        sf_dir, "region", label_of, ["o_orderkey", "o_custkey"]
    )


# --------------------------------------------------------------- parts_stale
STALE_CUTOFF = "2001-06-01"  # shipments on/after this date count as live
_STALE_US = (
    (np.datetime64(STALE_CUTOFF) - np.datetime64("1970-01-01"))
    .astype("timedelta64[us]")
    .astype(np.int64)
)


def parts_stale(sf_dir: str):
    """Distributed ANTI JOIN — the NOT EXISTS shape: parts with NO
    lineitem shipped on/after ``STALE_CUTOFF`` (most parts DO have one,
    so the filter genuinely prunes).  Output: (p_partkey,).

    Same co-partition discipline as ``join_revenue``: the lineitem side
    reduces to DISTINCT live partkeys per batch (combiner — the anti
    probe needs existence only, so at most one row per key per block
    shuffles), part keys meet them in one ``co_partition`` partition, and
    each partition emits its unmatched part keys via one
    sorted-membership searchsorted."""

    def live_rows(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("l_partkey").to_pylist(), np.int64)
        ship = np.asarray(
            pa.compute.cast(
                batch.column("l_shipdate"), pa.int64()
            ).to_pylist(),
            np.int64,
        )
        uk = np.unique(k[ship >= _STALE_US])
        return pa.table(
            {
                "key": pa.array(uk, pa.int64()),
                "side": pa.array(np.zeros(len(uk), np.int64), pa.int64()),
            }
        )

    def part_rows(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("p_partkey").to_pylist(), np.int64)
        return pa.table(
            {
                "key": pa.array(k, pa.int64()),
                "side": pa.array(np.ones(len(k), np.int64), pa.int64()),
            }
        )

    live = _read(sf_dir, "lineitem", ["l_partkey", "l_shipdate"]).map_batches(
        live_rows, batch_format="pyarrow"
    )
    parts = _read(sf_dir, "part", ["p_partkey"]).map_batches(
        part_rows, batch_format="pyarrow"
    )

    def anti(group: pa.Table) -> pa.Table:
        side = np.asarray(group.column("side").to_pylist(), np.int64)
        keys = np.asarray(group.column("key").to_pylist(), np.int64)
        pk = keys[side == 1]
        lk = np.unique(keys[side == 0])
        if len(lk):
            idx = np.searchsorted(lk, pk)
            idx[idx == len(lk)] = len(lk) - 1
            pk = pk[lk[idx] != pk]
        return pa.table({"p_partkey": pa.array(np.sort(pk), pa.int64())})

    return co_partition(
        live.union(parts), anti, key="key",
        partitions=_partitions(sf_dir, "lineitem", "part"),
    )


# --------------------------------------------------------------- docs_rollup
def docs_rollup(sf_dir: str):
    """GROUP BY ROLLUP(source, lang) over documents: (source, lang,
    n_docs, sum_chars) at three grouping levels — (source, lang),
    per-source subtotal (lang='ALL') and the grand total
    (source='ALL', lang='ALL')."""

    def partial(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist(), dtype=object)
        lang = np.asarray(batch.column("lang").to_pylist(), dtype=object)
        nc = np.asarray(batch.column("n_chars").to_pylist(), np.int64)
        fused = np.array(
            [s + "\x1f" + g for s, g in zip(src, lang)], dtype=object
        )
        uk, inv = np.unique(fused, return_inverse=True)
        chars = np.zeros(len(uk), np.int64)
        np.add.at(chars, inv, nc)
        return pa.table(
            {
                "gkey": pa.array(uk.tolist(), pa.string()),
                "n_docs": pa.array(
                    np.bincount(inv, minlength=len(uk)).astype(np.int64),
                    pa.int64(),
                ),
                "sum_chars": pa.array(chars, pa.int64()),
            }
        )

    parts = _read(
        sf_dir, "documents", ["source", "lang", "n_chars"]
    ).map_batches(partial, batch_format="pyarrow")
    base = bucketed_groupby(
        parts, "gkey", ["n_docs", "sum_chars"], ["sum", "sum"]
    )
    # rollup expansion over the ALREADY-AGGREGATED (source, lang) table:
    # |sources| x |langs| rows at ANY corpus size — gated small side
    df = base.to_pandas()
    src = df["gkey"].str.split("\x1f").str[0]
    lang = df["gkey"].str.split("\x1f").str[1]
    rows = {
        "source": list(src) + list(src.unique()) + [ROLLUP_ALL],
        "lang": list(lang) + [ROLLUP_ALL] * src.nunique() + [ROLLUP_ALL],
        "n_docs": (
            list(df["n_docs"])
            + [int(df["n_docs"][src == s].sum()) for s in src.unique()]
            + [int(df["n_docs"].sum())]
        ),
        "sum_chars": (
            list(df["sum_chars"])
            + [int(df["sum_chars"][src == s].sum()) for s in src.unique()]
            + [int(df["sum_chars"].sum())]
        ),
    }
    return pa.table(
        {
            "source": pa.array(rows["source"], pa.string()),
            "lang": pa.array(rows["lang"], pa.string()),
            "n_docs": pa.array(
                [int(x) for x in rows["n_docs"]], pa.int64()
            ),
            "sum_chars": pa.array(
                [int(x) for x in rows["sum_chars"]], pa.int64()
            ),
        }
    )


# ------------------------------------------------------------------- oracles
def relational_queries() -> dict:
    return {
        "join_revenue": join_revenue,
        "revenue_by_region": revenue_by_region,
        "docs_rollup": docs_rollup,
        "parts_stale": parts_stale,
    }


def relational_oracle_sql() -> dict[str, str]:
    sqls: dict[str, str] = {}
    # identical per-row double ops before the int64 quantize+sum
    sqls["join_revenue"] = """
WITH li AS (
  SELECT l_orderkey,
         CAST(floor(l_extendedprice * (1 - l_discount) * 1e6 + 0.5)
              AS BIGINT) AS rev6
  FROM lineitem
)
SELECT o.o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(sum(li.rev6) AS BIGINT) AS revenue6
FROM li JOIN orders o ON li.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority"""

    sqls["revenue_by_region"] = """
WITH li AS (
  SELECT l_orderkey,
         CAST(floor(l_extendedprice * (1 - l_discount) * 1e6 + 0.5)
              AS BIGINT) AS rev6
  FROM lineitem
)
SELECT r.r_name AS region,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(sum(li.rev6) AS BIGINT) AS revenue6
FROM li
JOIN orders o ON li.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name"""

    sqls["docs_rollup"] = f"""
SELECT CASE WHEN grouping(source) = 1 THEN '{ROLLUP_ALL}' ELSE source END
         AS source,
       CASE WHEN grouping(lang) = 1 THEN '{ROLLUP_ALL}' ELSE lang END
         AS lang,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
GROUP BY ROLLUP(source, lang)"""

    sqls["parts_stale"] = f"""
SELECT p.p_partkey
FROM part p
WHERE NOT EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_partkey = p.p_partkey
    AND l.l_shipdate >= TIMESTAMP '{STALE_CUTOFF}'
)"""
    return sqls
