"""Event-stream operator tests: property checks of window/session/as-of
semantics against brute-force in-process oracles on random streams."""
import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from web_content_extraction_benchmark_ray.pipelines.events import (
    ASOF_TYPE,
    SESSION_GAP_S,
    WINDOW_S,
)

events_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),  # user
        st.integers(0, 5 * WINDOW_S),  # epoch second
        st.sampled_from(["view", "click", ASOF_TYPE]),
        st.floats(0, 100, allow_nan=False, width=32),
    ),
    min_size=1,
    max_size=60,
)


def _events_table(rows):
    return pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "ts": pa.array(
                [r[1] * 1_000_000 for r in rows], pa.timestamp("us")
            ),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
            "value": pa.array([float(r[3]) for r in rows], pa.float64()),
        }
    )


def _write_sf(tmp_path, rows):
    import pyarrow.parquet as pq

    d = tmp_path / "sf"
    d.mkdir(exist_ok=True)
    pq.write_table(_events_table(rows), str(d / "events.parquet"))
    return str(d)


def test_window_counts_and_sums(ray_session, tmp_path):
    from web_content_extraction_benchmark_ray.pipelines.events import (
        events_window,
    )

    rows = [(1, 10, "view", 2.0), (1, WINDOW_S + 5, "view", 3.0),
            (2, 20, "click", 4.0), (3, 30, "view", 6.0)]
    sf = _write_sf(tmp_path, rows)
    out = events_window(sf).to_pandas().set_index(["window_start_s", "event_type"])
    assert out.loc[(0, "view")]["n"] == 2
    assert out.loc[(0, "view")]["sum_value"] == pytest.approx(8.0)
    assert out.loc[(WINDOW_S, "view")]["n"] == 1
    assert out.loc[(0, "click")]["mean_value"] == pytest.approx(4.0)


@given(events_strategy)
@settings(max_examples=10, deadline=None)
def test_sessionize_matches_bruteforce(ray_session, tmp_path_factory, rows):
    from web_content_extraction_benchmark_ray.pipelines.events import (
        events_sessionize,
    )

    sf = _write_sf(tmp_path_factory.mktemp("ev"), rows)
    got = (
        events_sessionize(sf)
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    # brute force: per user sort by (ts, event_id), split on gap
    expected = []
    per_user: dict = {}
    for eid, (u, s, _, _) in enumerate(rows):
        per_user.setdefault(u, []).append((s, eid))
    for u, evs in per_user.items():
        evs.sort()
        cur = [evs[0]]
        for prev, nxt in zip(evs, evs[1:]):
            if nxt[0] - prev[0] <= SESSION_GAP_S:
                cur.append(nxt)
            else:
                expected.append((u, min(e for _, e in cur), len(cur),
                                 cur[-1][0] - cur[0][0]))
                cur = [nxt]
        expected.append((u, min(e for _, e in cur), len(cur),
                         cur[-1][0] - cur[0][0]))
    expected.sort()
    got_tuples = [
        (int(r.user_id), int(r.session_id), int(r.n_events), int(r.duration_s))
        for r in got.itertuples()
    ]
    assert got_tuples == expected


@given(events_strategy)
@settings(max_examples=10, deadline=None)
def test_asof_matches_bruteforce(ray_session, tmp_path_factory, rows):
    from web_content_extraction_benchmark_ray.pipelines.events import (
        events_asof,
    )

    sf = _write_sf(tmp_path_factory.mktemp("ev"), rows)
    got = {
        r["event_id"]: r["err_event_id"]
        for r in events_asof(sf).take_all()
    }
    for eid, (u, s, _, _) in enumerate(rows):
        cands = [
            (s2, e2)
            for e2, (u2, s2, t2, _) in enumerate(rows)
            if u2 == u and t2 == ASOF_TYPE
            and (s2, e2) <= (s, eid)
        ]
        expected = max(cands)[1] if cands else None
        assert got[eid] == expected, (eid, rows)


def test_events_retention_matches_bruteforce(ray_session):
    """Triangle must equal the serial recompute: distinct (user, hour
    window) pairs, cohort = per-user min window, count distinct users
    per (cohort, offset)."""
    from collections import Counter

    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.events import (
        WINDOW_S,
        events_retention,
    )

    sf = "/root/testdata/sf0.001"
    df = events_retention(sf).to_pandas()
    ev = pq.read_table(
        sf + "/events.parquet", columns=["ts", "user_id"]
    ).to_pandas()
    w = (ev["ts"].astype("int64") // 1_000_000 // WINDOW_S) * WINDOW_S
    pairs = set(zip(ev["user_id"].astype("int64"), w))
    first = {}
    for u, ws in pairs:
        first[u] = min(first.get(u, ws), ws)
    expect = Counter(
        (first[u], (ws - first[u]) // WINDOW_S) for u, ws in pairs
    )
    got = {
        (int(r.cohort_start_s), int(r.k)): int(r.n_users)
        for r in df.itertuples()
    }
    assert got == dict(expect)
    # k=0 of every cohort counts the whole cohort (first window is active)
    cohorts = {c for c, _ in got}
    assert all((c, 0) in got for c in cohorts)


def test_events_retention_dedups_across_batches(ray_session, tmp_path):
    """The same (user, window) pair arriving in many input blocks must
    count once: 6 events for one user in one hour across 3 blocks."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.events import (
        events_retention,
    )

    base = 1_700_000_000 * 1_000_000
    rows = []
    for i in range(6):
        rows.append((i, base + i * 60 * 1_000_000, 7))  # same hour
    rows.append((6, base + 2 * 3600 * 1_000_000, 7))  # hour +2
    rows.append((7, base + 3600 * 1_000_000, 9))  # other user, own cohort
    t = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array(["x"] * len(rows), pa.string()),
            "value": pa.array([1.0] * len(rows), pa.float64()),
            "props": pa.array(["{}"] * len(rows), pa.string()),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet", row_group_size=3)
    df = events_retention(str(tmp_path)).to_pandas()
    got = {
        (int(r.cohort_start_s), int(r.k)): int(r.n_users)
        for r in df.itertuples()
    }
    h0 = base // 1_000_000 // 3600 * 3600
    assert got == {(h0, 0): 1, (h0, 2): 1, (h0 + 3600, 0): 1}


def test_events_paths_matches_serial(ray_session):
    """Distributed path counting must equal a single-process sessionize +
    Counter + top-k, including the prefix cap and (n DESC, path ASC)
    rank order."""
    from collections import Counter

    import numpy as np
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.events import (
        PATH_K,
        PATH_PREFIX_LEN,
        SESSION_GAP_S,
        events_paths,
    )

    sf = "/root/testdata/sf0.001"
    df = events_paths(sf).to_pandas()
    t = pq.read_table(
        f"{sf}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    ).to_pandas()
    t["s"] = t["ts"].astype("int64") // 10**6
    t = t.sort_values(["user_id", "s", "event_id"])
    c = Counter()
    for _, g in t.groupby("user_id"):
        secs = g["s"].to_numpy()
        types = g["event_type"].tolist()
        i, n = 0, len(g)
        while i < n:
            j = i + 1
            while j < n and secs[j] - secs[j - 1] <= SESSION_GAP_S:
                j += 1
            c[">".join(types[i:min(j, i + PATH_PREFIX_LEN)])] += 1
            i = j
    expect = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:PATH_K]
    got = list(df[["path", "n"]].itertuples(index=False, name=None))
    assert got == expect
    assert len(df) == PATH_K
    assert all(p.count(">") <= PATH_PREFIX_LEN - 1 for p in df["path"])

@given(events_strategy)
@settings(max_examples=10, deadline=None)
def test_watermark_matches_bruteforce(ray_session, tmp_path_factory, rows):
    """Distributed bucket-prefix scan must equal the serial arrival
    replay, including across bucket boundaries (bucket width forced to
    4 events so every example spans many buckets)."""
    from collections import Counter
    from unittest import mock

    from web_content_extraction_benchmark_ray.pipelines import events

    sf = _write_sf(tmp_path_factory.mktemp("ev"), rows)
    with mock.patch.object(events, "EID_RANGE_MIN", 4):
        df = events.events_watermark(sf).to_pandas()
    got = {
        int(r.window_start_s): (int(r.n_ontime), int(r.n_late))
        for r in df.itertuples()
    }
    ontime, late = Counter(), Counter()
    wm = None  # max event time seen strictly before this arrival
    for _, s, _, _ in rows:  # arrival order IS event_id order
        w = (s // WINDOW_S) * WINDOW_S
        if wm is not None and s < wm - events.WM_DELAY_S:
            late[w] += 1
        else:
            ontime[w] += 1
        wm = s if wm is None else max(wm, s)
    expect = {
        w: (ontime.get(w, 0), late.get(w, 0))
        for w in set(ontime) | set(late)
    }
    assert got == expect


def test_watermark_lateness_is_strict(ray_session, tmp_path, monkeypatch):
    """An event AT the watermark is on time; one second below is late;
    the boundary must survive a bucket split between the max-setter and
    the probes."""
    from web_content_extraction_benchmark_ray.pipelines import events

    monkeypatch.setattr(events, "EID_RANGE_MIN", 2)
    d = events.WM_DELAY_S
    hi = 10 * WINDOW_S
    rows = [
        (1, hi, "view", 1.0),        # sets the watermark to hi - d
        (1, hi - d, "view", 1.0),    # exactly at the watermark: on time
        (1, hi - d - 1, "view", 1.0),  # strictly below: late
        (1, hi, "view", 1.0),        # at max again: on time
    ]
    sf = _write_sf(tmp_path, rows)
    df = events.events_watermark(sf).to_pandas()
    got = {
        int(r.window_start_s): (int(r.n_ontime), int(r.n_late))
        for r in df.itertuples()
    }
    w_hi = (hi // WINDOW_S) * WINDOW_S
    w_at = ((hi - d) // WINDOW_S) * WINDOW_S
    w_below = ((hi - d - 1) // WINDOW_S) * WINDOW_S
    expect = {w_hi: (2, 0)}
    for w, on, la in ((w_at, 1, 0), (w_below, 0, 1)):
        o, l = expect.get(w, (0, 0))
        expect[w] = (o + on, l + la)
    assert got == expect

@given(events_strategy)
@settings(max_examples=10, deadline=None)
def test_rolling_matches_bruteforce(ray_session, tmp_path_factory, rows):
    """Every event's trailing RANGE frame (same user, [s-3600, s], tie
    peers included) must equal the quadratic recompute in exact
    micro-units."""
    import math

    from web_content_extraction_benchmark_ray.pipelines.events import (
        ROLL_RANGE_S,
        events_rolling,
    )

    sf = _write_sf(tmp_path_factory.mktemp("ev"), rows)
    df = events_rolling(sf).to_pandas()
    got = {
        int(r.event_id): (int(r.n_window), int(r.roll_sum6),
                          int(r.roll_mean6))
        for r in df.itertuples()
    }
    assert len(got) == len(rows)
    v6 = [math.floor(v * 1e6 + 0.5) for _, _, _, v in rows]
    for i, (u, s, _, _) in enumerate(rows):
        frame = [
            j for j, (u2, s2, _, _) in enumerate(rows)
            if u2 == u and s - ROLL_RANGE_S <= s2 <= s
        ]
        n = len(frame)
        rs = sum(v6[j] for j in frame)
        assert got[i] == (n, rs, rs // n), (i, rows)

@given(events_strategy)
@settings(max_examples=10, deadline=None)
def test_range_join_matches_bruteforce(ray_session, tmp_path_factory, rows):
    """Every probe event must see exactly the same-user incident windows
    (error event opens [s, s+INCIDENT_S]) the quadratic join finds."""
    from web_content_extraction_benchmark_ray.pipelines.events import (
        ASOF_TYPE,
        INCIDENT_S,
        events_range_join,
    )

    sf = _write_sf(tmp_path_factory.mktemp("ev"), rows)
    df = events_range_join(sf).to_pandas()
    got = {
        int(r.event_id): (int(r.n_covering), int(r.first_incident_s))
        for r in df.itertuples()
    }
    assert len(got) == len(rows)
    for i, (u, s, _, _) in enumerate(rows):
        cov = [
            s2 for (u2, s2, t2, _) in rows
            if u2 == u and t2 == ASOF_TYPE and s2 <= s <= s2 + INCIDENT_S
        ]
        assert got[i] == (len(cov), min(cov) if cov else -1), (i, rows)

@given(events_strategy)
@settings(max_examples=10, deadline=None)
def test_lag_matches_bruteforce(ray_session, tmp_path_factory, rows):
    """Inter-arrival gaps must equal the serial per-user (s, event_id)
    ordering, including tie rows at equal seconds."""
    from web_content_extraction_benchmark_ray.pipelines.events import (
        events_lag,
    )

    sf = _write_sf(tmp_path_factory.mktemp("ev"), rows)
    df = events_lag(sf).to_pandas()
    got = {
        int(r.event_id): (int(r.gap_prev_s), int(r.gap_next_s))
        for r in df.itertuples()
    }
    per_user: dict = {}
    for eid, (u, s, _, _) in enumerate(rows):
        per_user.setdefault(u, []).append((s, eid))
    expect = {}
    for evs in per_user.values():
        evs.sort()
        for i, (s, eid) in enumerate(evs):
            gp = s - evs[i - 1][0] if i > 0 else -1
            gn = evs[i + 1][0] - s if i + 1 < len(evs) else -1
            expect[eid] = (gp, gn)
    assert got == expect

@given(events_strategy)
@settings(max_examples=8, deadline=None)
def test_window_incremental_equals_batch(
    ray_session, tmp_path_factory, rows
):
    """The micro-batch state fold must reproduce events_window exactly
    on arbitrary streams, for chunk counts that divide, exceed, and
    straddle the input size."""
    from web_content_extraction_benchmark_ray.pipelines.events import (
        events_window,
        events_window_incremental,
    )

    sf = _write_sf(tmp_path_factory.mktemp("ev"), rows)
    want = (
        events_window(sf)
        .to_pandas()
        .sort_values(["window_start_s", "event_type"])
        .reset_index(drop=True)
    )
    for k in (1, 3, len(rows) + 2):
        got = (
            events_window_incremental(sf, n_chunks=k)
            .to_pandas()
            .sort_values(["window_start_s", "event_type"])
            .reset_index(drop=True)
        )
        assert got.equals(want), (k, rows)


def test_window_incremental_takes_sparse_offset_ids(ray_session, tmp_path):
    """The arrival replay chunks the [min, max] event_id range, not
    [0, row count): on an sf0.001 copy whose ids are sparse and start
    far from 0, the fold still equals the DuckDB twin (it used to drop
    every event whose id is past the row count)."""
    import duckdb
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from web_content_extraction_benchmark_ray.pipelines.events import (
        events_oracle_sql,
        events_window_incremental,
    )

    from test_graphops import SF  # the sf0.001 tables

    ev = pq.read_table(f"{SF}/events.parquet")
    i = ev.schema.get_field_index("event_id")
    ids = pc.add(pc.multiply(ev["event_id"], 3), 10**12)
    pq.write_table(ev.set_column(i, "event_id", ids), tmp_path / "events.parquet")
    key = ["window_start_s", "event_type"]
    got = (
        events_window_incremental(str(tmp_path), n_chunks=4).to_pandas()
        .sort_values(key).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"create view events as select * from '{tmp_path / 'events.parquet'}'")
    want = (
        con.sql(events_oracle_sql()["events_window_incremental"]).df()
        .sort_values(key).reset_index(drop=True)
    )
    assert got["n"].sum() == ev.num_rows
    assert got[key + ["n"]].astype({"n": "int64"}).equals(
        want[key + ["n"]].astype({"n": "int64"})
    )
    assert got["sum_value"].tolist() == want["sum_value"].tolist()
    assert got["mean_value"].tolist() == want["mean_value"].tolist()


def test_window_incremental_rejects_null_event_ids(tmp_path):
    from web_content_extraction_benchmark_ray.pipelines.events import (
        events_window_incremental,
    )

    t = _events_table([(1, 10, "view", 2.0), (1, 20, "view", 3.0)])
    t = t.set_column(0, "event_id", pa.array([0, None], pa.int64()))
    import pyarrow.parquet as pq

    pq.write_table(t, tmp_path / "events.parquet")
    with pytest.raises(ValueError, match="null event_id"):
        events_window_incremental(str(tmp_path))
