"""Relational operator tests: the big×big co-group join and the rollup
aggregate against brute-force / synthetic-edge oracles."""
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def test_join_revenue_matches_serial(ray_session):
    """Distributed co-group join must equal the single-process pandas
    join at sf0.001, in exact micro-units."""
    from web_content_extraction_benchmark_ray.pipelines.relational import (
        join_revenue,
    )

    sf = "/root/testdata/sf0.001"
    df = join_revenue(sf).to_pandas()
    li = pq.read_table(
        f"{sf}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    ).to_pandas()
    o = pq.read_table(
        f"{sf}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).to_pandas()
    li["rev6"] = np.floor(
        li["l_extendedprice"] * (1 - li["l_discount"]) * 1e6 + 0.5
    ).astype("int64")
    j = li.merge(o, left_on="l_orderkey", right_on="o_orderkey")
    want = (
        j.groupby("o_orderpriority")
        .agg(n_lines=("rev6", "size"), revenue6=("rev6", "sum"))
        .reset_index()
    )
    got = df.sort_values("o_orderpriority").reset_index(drop=True)
    want = want.sort_values("o_orderpriority").reset_index(drop=True)
    assert got["o_orderpriority"].tolist() == want["o_orderpriority"].tolist()
    assert got["n_lines"].astype("int64").tolist() == want["n_lines"].astype("int64").tolist()
    assert got["revenue6"].astype("int64").tolist() == want["revenue6"].astype("int64").tolist()


def test_join_revenue_drops_unmatched_probes(ray_session, tmp_path):
    """Inner-join semantics: a lineitem row whose orderkey has no orders
    row must not count; an orders row with no lineitem contributes no
    output group."""
    from web_content_extraction_benchmark_ray.pipelines.relational import (
        join_revenue,
    )

    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([1, 1, 2, 99], pa.int64()),
                "l_extendedprice": pa.array([10.0, 20.0, 5.0, 7.0]),
                "l_discount": pa.array([0.0, 0.5, 0.0, 0.0]),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3], pa.int64()),
                "o_orderpriority": pa.array(["1-URGENT", "2-HIGH",
                                             "3-EMPTY"], pa.string()),
            }
        ),
        tmp_path / "orders.parquet",
    )
    df = join_revenue(str(tmp_path)).to_pandas()
    got = {
        r.o_orderpriority: (int(r.n_lines), int(r.revenue6))
        for r in df.itertuples()
    }
    assert got == {
        "1-URGENT": (2, 20_000_000),  # 10.0 + 20.0*0.5
        "2-HIGH": (1, 5_000_000),
    }


def test_docs_rollup_levels_consistent(ray_session):
    """Per-(source,lang) rows must sum to their source subtotal, source
    subtotals to the grand total, and the leaf level must match the
    direct pandas crosstab."""
    from web_content_extraction_benchmark_ray.pipelines.relational import (
        ROLLUP_ALL,
        docs_rollup,
    )

    sf = "/root/testdata/sf0.001"
    t = docs_rollup(sf).to_pandas()
    docs = pq.read_table(
        f"{sf}/documents.parquet", columns=["source", "lang", "n_chars"]
    ).to_pandas()

    leaf = t[(t["source"] != ROLLUP_ALL) & (t["lang"] != ROLLUP_ALL)]
    want = (
        docs.groupby(["source", "lang"])
        .agg(n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum"))
        .reset_index()
    )
    got = {
        (r.source, r.lang): (int(r.n_docs), int(r.sum_chars))
        for r in leaf.itertuples()
    }
    expect = {
        (r.source, r.lang): (int(r.n_docs), int(r.sum_chars))
        for r in want.itertuples()
    }
    assert got == expect

    sub = t[(t["source"] != ROLLUP_ALL) & (t["lang"] == ROLLUP_ALL)]
    for r in sub.itertuples():
        rows = leaf[leaf["source"] == r.source]
        assert int(r.n_docs) == int(rows["n_docs"].sum())
        assert int(r.sum_chars) == int(rows["sum_chars"].sum())

    grand = t[(t["source"] == ROLLUP_ALL) & (t["lang"] == ROLLUP_ALL)]
    assert len(grand) == 1
    assert int(grand["n_docs"].iloc[0]) == len(docs)
    assert int(grand["sum_chars"].iloc[0]) == int(docs["n_chars"].sum())


def test_revenue_by_region_matches_serial(ray_session):
    """The snowflake (co-group band + broadcast dims) must equal the
    single-process pandas 4-way merge."""
    from web_content_extraction_benchmark_ray.pipelines.relational import (
        revenue_by_region,
    )

    sf = "/root/testdata/sf0.001"
    df = revenue_by_region(sf).to_pandas()
    li = pq.read_table(
        f"{sf}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    ).to_pandas()
    li["rev6"] = np.floor(
        li["l_extendedprice"] * (1 - li["l_discount"]) * 1e6 + 0.5
    ).astype("int64")
    o = pq.read_table(
        f"{sf}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).to_pandas()
    c = pq.read_table(
        f"{sf}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    n = pq.read_table(
        f"{sf}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).to_pandas()
    r = pq.read_table(f"{sf}/region.parquet").to_pandas()
    j = (
        li.merge(o, left_on="l_orderkey", right_on="o_orderkey")
        .merge(c, left_on="o_custkey", right_on="c_custkey")
        .merge(n, left_on="c_nationkey", right_on="n_nationkey")
        .merge(r, left_on="n_regionkey", right_on="r_regionkey")
    )
    want = (
        j.groupby("r_name")
        .agg(n_lines=("rev6", "size"), revenue6=("rev6", "sum"))
        .reset_index()
        .sort_values("r_name")
        .reset_index(drop=True)
    )
    got = df.sort_values("region").reset_index(drop=True)
    assert got["region"].tolist() == want["r_name"].tolist()
    assert got["n_lines"].astype("int64").tolist() == want["n_lines"].astype("int64").tolist()
    assert got["revenue6"].astype("int64").tolist() == want["revenue6"].astype("int64").tolist()


def test_revenue_by_region_drops_orphan_custkeys(ray_session, tmp_path):
    """The broadcast custkey probe is an inner join: an order whose
    custkey has no customer row (one inside the key range, one above
    its maximum) drops, exactly as in the DuckDB twin."""
    import duckdb

    from web_content_extraction_benchmark_ray.pipelines.relational import (
        relational_oracle_sql,
        revenue_by_region,
    )

    sf = "/root/testdata/sf0.001"
    for t in ("lineitem", "nation", "region"):
        pq.write_table(pq.read_table(f"{sf}/{t}.parquet"),
                       tmp_path / f"{t}.parquet")
    cust = pq.read_table(f"{sf}/customer.parquet")
    ck = np.asarray(cust.column("c_custkey").to_pylist(), np.int64)
    gone = int(np.sort(ck)[len(ck) // 2])  # an orphan inside the range
    pq.write_table(cust.filter(pa.array(ck != gone)),
                   tmp_path / "customer.parquet")
    orders = pq.read_table(f"{sf}/orders.parquet")
    oc = np.asarray(orders.column("o_custkey").to_pylist(), np.int64)
    oc[0] = int(ck.max()) + 1000  # an orphan above the maximum
    assert (oc == gone).any()
    orders = orders.set_column(
        orders.schema.get_field_index("o_custkey"), "o_custkey",
        pa.array(oc, pa.int64()),
    )
    pq.write_table(orders, tmp_path / "orders.parquet")

    got = (
        revenue_by_region(str(tmp_path)).to_pandas()
        .sort_values("region").reset_index(drop=True)
    )
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "nation", "region"):
        con.sql(f"create view {t} as select * from "
                f"'{tmp_path / (t + '.parquet')}'")
    want = (
        con.sql(relational_oracle_sql()["revenue_by_region"]).df()
        .sort_values("region").reset_index(drop=True)
    )
    assert got["region"].tolist() == want["region"].tolist()
    assert got["n_lines"].astype("int64").tolist() == want["n_lines"].astype("int64").tolist()
    assert got["revenue6"].astype("int64").tolist() == want["revenue6"].astype("int64").tolist()


def test_revenue_by_region_drops_customers_of_a_missing_nation(
    ray_session, tmp_path
):
    """The customer -> nation step of the broadcast side is an inner
    join too: with nation 3 removed, its customers' orders drop (they
    used to take the region of regionkey 0), exactly as in the DuckDB
    twin."""
    import duckdb

    from web_content_extraction_benchmark_ray.pipelines.relational import (
        relational_oracle_sql,
        revenue_by_region,
    )

    sf = "/root/testdata/sf0.001"
    for t in ("lineitem", "orders", "customer", "region"):
        pq.write_table(pq.read_table(f"{sf}/{t}.parquet"),
                       tmp_path / f"{t}.parquet")
    nation = pq.read_table(f"{sf}/nation.parquet")
    keep = pc.not_equal(nation["n_nationkey"], 3)
    pq.write_table(nation.filter(keep), tmp_path / "nation.parquet")
    cust_nations = pq.read_table(f"{sf}/customer.parquet")["c_nationkey"]
    assert pc.sum(pc.equal(cust_nations, 3)).as_py() > 0

    got = (
        revenue_by_region(str(tmp_path)).to_pandas()
        .sort_values("region").reset_index(drop=True)
    )
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "nation", "region"):
        con.sql(f"create view {t} as select * from "
                f"'{tmp_path / (t + '.parquet')}'")
    want = (
        con.sql(relational_oracle_sql()["revenue_by_region"]).df()
        .sort_values("region").reset_index(drop=True)
    )
    full = revenue_by_region(sf).to_pandas()
    assert got["n_lines"].sum() < full["n_lines"].sum()
    assert got["region"].tolist() == want["region"].tolist()
    assert got["n_lines"].astype("int64").tolist() == want["n_lines"].astype("int64").tolist()
    assert got["revenue6"].astype("int64").tolist() == want["revenue6"].astype("int64").tolist()


def test_parts_stale_matches_serial(ray_session):
    """The distributed anti join must equal the serial NOT EXISTS, and
    the filter must genuinely bind in both directions (some parts stale,
    most live)."""
    from web_content_extraction_benchmark_ray.pipelines.relational import (
        _STALE_US,
        parts_stale,
    )

    sf = "/root/testdata/sf0.001"
    got = sorted(
        int(r) for r in parts_stale(sf).to_pandas()["p_partkey"]
    )
    li = pq.read_table(
        f"{sf}/lineitem.parquet", columns=["l_partkey", "l_shipdate"]
    ).to_pandas()
    live = set(
        li.loc[li["l_shipdate"].astype("int64") >= _STALE_US, "l_partkey"]
        .astype("int64")
    )
    parts = pq.read_table(
        f"{sf}/part.parquet", columns=["p_partkey"]
    ).to_pandas()["p_partkey"].astype("int64")
    want = sorted(int(p) for p in parts if p not in live)
    assert got == want
    assert 0 < len(got) < len(parts)


def test_parts_stale_handles_empty_build_side(ray_session, tmp_path):
    """A bucket with NO live lineitem rows must emit every part key in
    it (the anti join's vacuous-truth branch)."""
    from web_content_extraction_benchmark_ray.pipelines.relational import (
        _STALE_US,
        parts_stale,
    )

    old = int(_STALE_US) - 86400 * 1_000_000  # strictly before the cutoff
    pq.write_table(
        pa.table(
            {
                "l_partkey": pa.array([1, 2], pa.int64()),
                "l_shipdate": pa.array([old, old]).cast(pa.timestamp("us")),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    pq.write_table(
        pa.table({"p_partkey": pa.array([1, 2, 3], pa.int64())}),
        tmp_path / "part.parquet",
    )
    got = sorted(
        int(r) for r in parts_stale(str(tmp_path)).to_pandas()["p_partkey"]
    )
    assert got == [1, 2, 3]
