"""Event-stream operators: tumbling-window aggregate, sessionization,
as-of join — the "custom operators Ray Data lacks" family (windowed
aggregate / streaming window / as-of join), each expressed as a
composition of map_batches + co-partition + in-group sort, with the
partitioning assumption documented and a DuckDB oracle.

The reference is strictly batch with no windowing (SURVEY.md §2.9); these
operators extend the engine to the event/stream tables a training-data
platform also processes.  All are BATCH implementations of the streaming
semantics over a closed input table; ``events_watermark`` restates the
watermark/late-data split itself (arrival order = ``event_id``), the
others assume processing-time completeness.

Partitioning assumptions:
- window aggregate: none (commutative partial aggregation per batch; the
  final reduce co-locates one row per (window, type) per block with
  ``stages/shuffle.co_partition`` and reduces each partition vectorized).
- sessionization / as-of / rolling frame / range join / lag / paths /
  retention / funnel: all events of one ``user_id`` must meet in one
  task — ``co_partition(ds, fn, key="user_id")`` routes them (the
  reassembly shuffle's wide-space sort; one call per partition, many
  users per call), and per-user work is a sorted linear scan or a
  fused-key searchsorted pass keyed on ``user_id`` itself.
- watermark: arrival buckets (``event_id // range``) plus a tiny driver
  prefix-max over per-bucket maxima — no raw-event shuffle at all.  Its
  groups ARE the range buckets (the scan reads ``bucket[0]``), so it
  stays on ``groupby("bucket").map_groups``.
"""
from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrownp import num_col
from ..stages.shuffle import co_partition, session_cpus, wide_bucket

WINDOW_S = 3600  # tumbling window width (seconds)
SESSION_GAP_S = 1800  # sessionization gap threshold (30 min)
ASOF_TYPE = "error"  # as-of join: latest prior event of this type per user


def _events(sf_dir: str, columns=None):
    from ..sources.storage import capped_num_blocks, read_table

    path = os.path.join(sf_dir, "events.parquet")
    # cap the block ask at the row-group count: an over-ask synthesizes
    # schema-less zero-row blocks (schema-stability warnings downstream)
    return read_table(
        path, columns=columns,
        override_num_blocks=capped_num_blocks(path, 2 * session_cpus()),
    )


def _epoch_s(t: pa.Table) -> np.ndarray:
    """``ts`` (timestamp[us]) -> int64 epoch seconds (floor)."""
    return num_col(t, "ts", np.int64) // 1_000_000


# ------------------------------------------------------- tumbling windows
def _quantize_micro(t: pa.Table) -> np.ndarray:
    """``value`` -> int64 micro-units (floor(v*1e6+0.5)): distributed float
    partial sums are order-dependent in the last ulp and flipped the
    round6 boundary vs the SQL twin on 2/14415 rows at sf0.1 — int64
    micro-sums are exact and order-independent on both sides."""
    return np.floor(
        num_col(t, "value", np.float64) * 1e6 + 0.5
    ).astype(np.int64)


# The global reduce co-locates partial rows by a cross-block-stable key,
# window + hash60(type) (``_reduce_bucket``), then reduces each partition
# VECTORIZED (np.add.at over the fused (window, type) key).  Ray's native
# Sum aggregate Python-combines once per distinct key — measured 2.7 of
# events_sliding's 3.6 s at sf0.1 for 14.4k keys; a flat array reduction
# per partition costs milliseconds at any key cardinality.
def _reduce_bucket(win: np.ndarray, type_hash: np.ndarray) -> pa.Array:
    return pa.array(wide_bucket(win + type_hash), pa.int32())


def _window_partials(
    starts: np.ndarray, etype: np.ndarray, vq: np.ndarray
) -> pa.Table:
    """Vectorized (window, type) combiner: factorize the type strings,
    fuse both keys into one int64, reduce with bincount/add.at.  Sums
    use integer np.add.at, so exactness never depends on value
    magnitude.  Negative fused keys decode correctly (numpy // floors,
    % is non-negative for a positive divisor)."""
    from ..functions.hashing import hash60

    types, inv = np.unique(etype, return_inverse=True)
    nt = max(len(types), 1)
    key = starts * nt + inv
    uk, kinv = np.unique(key, return_inverse=True)
    n = np.bincount(kinv).astype(np.int64)
    s = np.zeros(len(uk), dtype=np.int64)
    np.add.at(s, kinv, vq)
    win = (uk // nt).astype(np.int64)
    tix = (uk % nt).astype(np.int64)
    # cross-block-stable reduce bucket: window + content hash of the type
    thash = np.array([hash60(t) for t in types.tolist()], dtype=np.int64)
    return pa.table(
        {
            "bucket": _reduce_bucket(win, thash[tix]),
            "window_start_s": pa.array(win, pa.int64()),
            "event_type": pa.array(types[tix].tolist(), pa.string()),
            "n_part": pa.array(n, pa.int64()),
            "sum_part": pa.array(s, pa.int64()),
        }
    )


def _window_reduce(group: pa.Table) -> pa.Table:
    """Per-partition global reduce: one vectorized pass over ALL of the
    partition's partial rows (np.add.at over the fused (window, type)
    key), never a per-key Python call."""
    win = num_col(group, "window_start_s", np.int64)
    et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
    n = num_col(group, "n_part", np.int64)
    s = num_col(group, "sum_part", np.int64)
    types, inv = np.unique(et, return_inverse=True)
    nt = max(len(types), 1)
    key = win * nt + inv
    uk, kinv = np.unique(key, return_inverse=True)
    ns = np.zeros(len(uk), np.int64)
    ss = np.zeros(len(uk), np.int64)
    np.add.at(ns, kinv, n)
    np.add.at(ss, kinv, s)
    tix = (uk % nt).astype(np.int64)
    return pa.table(
        {
            "window_start_s": pa.array(
                (uk // nt).astype(np.int64), pa.int64()
            ),
            "event_type": pa.array(types[tix].tolist(), pa.string()),
            "n_part": pa.array(ns, pa.int64()),
            "sum_part": pa.array(ss, pa.int64()),
        }
    )


def _window_finish(batch: pa.Table) -> pa.Table:
    n = num_col(batch, "n_part", np.int64)
    s = num_col(batch, "sum_part", np.int64)
    sv = s.astype(np.float64) / 1e6  # exact int -> single divide
    return pa.table(
        {
            "window_start_s": pc.cast(batch["window_start_s"], pa.int64()),
            "event_type": batch["event_type"],
            "n": pa.array(n, pa.int64()),
            "sum_value": pa.array(sv, pa.float64()),
            "mean_value": pa.array(
                np.floor((sv / n) * 1e6 + 0.5) / 1e6, pa.float64()
            ),
        }
    )


def events_window(sf_dir: str):
    """Per (hour window, event_type): count, sum(value), mean(value).

    Map-side partial aggregation (combiner) inside each batch; the
    global reduce co-locates the partials by (window, type) and reduces
    each partition vectorized (see ``_window_reduce``) — the shuffle
    never moves raw events, and no stage loops per key."""

    def partials(batch: pa.Table) -> pa.Table:
        win = (_epoch_s(batch) // WINDOW_S) * WINDOW_S
        etype = np.asarray(
            batch.column("event_type").to_pylist(), dtype=object
        )
        return _window_partials(
            win, etype, _quantize_micro(batch)
        )

    ds = _events(sf_dir, columns=["ts", "event_type", "value"])
    parts = ds.map_batches(partials, batch_format="pyarrow")
    agg = co_partition(parts, _window_reduce)
    return agg.map_batches(_window_finish, batch_format="pyarrow")


# ----------------------------------------------- incremental window state
N_ARRIVAL_CHUNKS = 8  # micro-batch replay slices (event_id ranges)


def _rebucket(batch: pa.Table) -> pa.Table:
    """Re-attach the cross-block-stable reduce bucket to carried state
    rows (the same ``_reduce_bucket`` _window_partials assigns), so the
    next micro-batch fold co-locates state with the incoming partials."""
    from ..functions.hashing import hash60

    win = num_col(batch, "window_start_s", np.int64)
    et = batch.column("event_type").to_pylist()
    thash = np.array([hash60(t) for t in et], np.int64)
    # column order must match _window_partials' exactly (union schema)
    return pa.table(
        {
            "bucket": _reduce_bucket(win, thash),
            "window_start_s": pa.array(win, pa.int64()),
            "event_type": pa.array(et, pa.string()),
            "n_part": batch.column("n_part"),
            "sum_part": batch.column("sum_part"),
        }
    )


def _event_id_span(sf_dir: str) -> tuple[int, int]:
    """(min, max) ``event_id``, or (0, -1) for no events, from one read of
    that column (8 bytes per event).  The ids need not be dense or start
    at 0; a null id has no arrival range, so it raises."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    ids = pq.read_table(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id"]
    )["event_id"]
    if ids.null_count:
        raise ValueError(
            f"events.parquet has {ids.null_count} null event_id values; "
            "the arrival replay orders events by event_id"
        )
    span = pc.min_max(ids)
    if span["min"].as_py() is None:
        return 0, -1
    return span["min"].as_py(), span["max"].as_py()


def events_window_incremental(sf_dir: str,
                              n_chunks: int = N_ARRIVAL_CHUNKS):
    """STREAMING-STATE twin of ``events_window``: the closed table is
    replayed as ``n_chunks`` arrival micro-batches (equal ``event_id``
    ranges over [min id, max id], so sparse or offset ids are fine);
    each micro-batch folds its combiner partials into a running
    (window, type) -> (n, sum6) STATE that lives in the cluster
    as a keyed Dataset (union + the same bucketed vectorized reduce —
    never a driver-side dict, so state size is bounded by the cluster,
    not the driver).  After the final fold the state IS the batch
    answer: the oracle is ``events_window``'s own SQL, so the driver's
    hash equality PROVES incremental fold == batch aggregate — the
    correctness contract a streaming engine owes its batch twin.

    Cost note: the replay scans the closed table once per chunk (the
    simulation stands in for a real arrival stream); each fold's
    shuffle moves only combiner rows + the current state, both bounded
    by the (window, type) key space."""

    def partials_of(lo: int, hi: int):
        def partials(batch: pa.Table) -> pa.Table:
            eid = num_col(batch, "event_id", np.int64)
            m = (eid >= lo) & (eid < hi)
            win = (
                (_epoch_s(batch)[m] // WINDOW_S) * WINDOW_S
            )
            etype = np.asarray(
                batch.column("event_type").to_pylist(), dtype=object
            )[m]
            vq = _quantize_micro(batch)[m]
            return _window_partials(win, etype, vq)

        return partials

    lo, hi = _event_id_span(sf_dir)
    chunk = max(1, -(-(hi - lo + 1) // n_chunks))

    state = None
    for c in range(n_chunks):
        part = _events(
            sf_dir, columns=["event_id", "ts", "event_type", "value"]
        ).map_batches(
            partials_of(lo + c * chunk, lo + (c + 1) * chunk),
            batch_format="pyarrow",
        )
        fold = part if state is None else state.union(part)
        state = (
            co_partition(fold, _window_reduce)
            .map_batches(_rebucket, batch_format="pyarrow")
            .materialize()  # cut the lineage chain between micro-batches
        )
    return state.map_batches(_window_finish, batch_format="pyarrow")


SLIDE_S = 900  # sliding step; WINDOW_S / SLIDE_S = 4 overlapping windows


def events_sliding(sf_dir: str):
    """SLIDING-window aggregate (1 h window, 15 min slide): every event
    contributes to WINDOW_S/SLIDE_S = 4 overlapping windows.  Same
    combiner discipline as events_window — the per-batch explode is a
    numpy repeat (4 window starts per event), partials aggregate inside
    the batch, and the global reduce moves one row per (window, type)
    per block, never raw events (overlap multiplies the COMBINER's key
    space, not the shuffle volume)."""

    k = WINDOW_S // SLIDE_S

    def partials(batch: pa.Table) -> pa.Table:
        secs = _epoch_s(batch)
        base = secs // SLIDE_S
        # windows containing t: starts ((t//S) - j) * S for j in 0..k-1
        starts = (
            (base[:, None] - np.arange(k, dtype=np.int64)[None, :]) * SLIDE_S
        ).ravel()
        etype = np.repeat(
            np.asarray(batch.column("event_type").to_pylist(), dtype=object),
            k,
        )
        vq = np.repeat(_quantize_micro(batch), k)
        return _window_partials(starts, etype, vq)

    ds = _events(sf_dir, columns=["ts", "event_type", "value"])
    parts = ds.map_batches(partials, batch_format="pyarrow")
    agg = co_partition(parts, _window_reduce)
    return agg.map_batches(_window_finish, batch_format="pyarrow")


# ------------------------------------------------- watermark / late data
WM_DELAY_S = 900  # allowed lateness behind the max-seen event time
EID_RANGE_MIN = 2048  # minimum events per arrival-scan bucket


def _eid_range(sf_dir: str) -> int:
    """Arrival-bucket width scaled to the table (parquet metadata only):
    ~16 buckets per core keeps the driver's prefix table tiny at any
    event count while every bucket still holds >= EID_RANGE_MIN rows."""
    import pyarrow.parquet as pq

    n = pq.ParquetFile(
        os.path.join(sf_dir, "events.parquet")
    ).metadata.num_rows
    return max(EID_RANGE_MIN, -(-n // (16 * session_cpus())))


def events_watermark(sf_dir: str):
    """Streaming watermark/late-data semantics restated over the closed
    table (the batch twin of the gap noted in this module's header):
    events ARRIVE in ``event_id`` order; after each arrival the
    watermark is (max event time seen so far) - ``WM_DELAY_S``; an event
    is LATE iff its event time is strictly below the watermark at its
    arrival.  Output per tumbling hour window: (window_start_s,
    n_ontime, n_late) — the on-time/late split a watermarked windowed
    aggregate emits.

    Two-level scan (the ``pack_shards`` discipline with max instead of
    sum): arrival buckets (event_id // range) reduce to a per-bucket
    max event time over 16-byte index rows; the driver prefix-maxes the
    tiny bucket table (one row per bucket — ~16/core by construction);
    each bucket then scans only its own events (sorted by event_id)
    against its incoming prefix via ``np.maximum.accumulate``.  No
    cross-bucket traffic, no raw-event shuffle; the window counts
    finish with the vecagg bucketed-Sum shape."""
    from ..stages.vecagg import bucketed_groupby

    rng = _eid_range(sf_dir)

    def rows(batch: pa.Table) -> pa.Table:
        eid = num_col(batch, "event_id", np.int64)
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "s": pa.array(_epoch_s(batch), pa.int64()),
                "bucket": pa.array(eid // rng, pa.int64()),
            }
        )

    # 24-byte index rows, read twice (bucket maxima + in-bucket scan)
    idx = _events(sf_dir, columns=["event_id", "ts"]).map_batches(
        rows, batch_format="pyarrow"
    ).materialize()

    bmax = sorted(
        (r["bucket"], r["max(s)"])
        for r in idx.groupby("bucket").max("s").take_all()
    )
    pre: dict[int, int] = {}
    run = -(1 << 62)  # before any arrival nothing is late
    for b, m in bmax:
        pre[b] = run
        run = max(run, int(m))

    def scan(group: pa.Table) -> pa.Table:
        eid = num_col(group, "event_id", np.int64)
        s = num_col(group, "s", np.int64)
        order = np.argsort(eid)
        s = s[order]
        incoming = pre[int(group.column("bucket")[0].as_py())]
        # prefix max SEEDED with the incoming cross-bucket watermark —
        # accumulating s alone would forget it after the first event
        wm_prev = np.maximum.accumulate(
            np.concatenate(([incoming], s[:-1]))
        )
        late = s < wm_prev - WM_DELAY_S
        win = (s // WINDOW_S) * WINDOW_S
        uw, winv = np.unique(win, return_inverse=True)
        n_late = np.zeros(len(uw), np.int64)
        np.add.at(n_late, winv, late.astype(np.int64))
        n_all = np.bincount(winv, minlength=len(uw)).astype(np.int64)
        return pa.table(
            {
                "window_start_s": pa.array(uw, pa.int64()),
                "n_ontime": pa.array(n_all - n_late, pa.int64()),
                "n_late": pa.array(n_late, pa.int64()),
            }
        )

    parts = idx.groupby("bucket").map_groups(scan, batch_format="pyarrow")
    return bucketed_groupby(
        parts, "window_start_s", ["n_ontime", "n_late"], ["sum", "sum"]
    )


# -------------------------------------------------- rolling window frame
ROLL_RANGE_S = 3600  # trailing RANGE frame width (inclusive), seconds


def events_rolling(sf_dir: str):
    """Per-event trailing RANGE-frame aggregate — the window-FRAME
    operator shape (every row gets its own window) that the tumbling /
    sliding aggregates (one row per window) do not cover: for each
    event, the count / sum / mean of ``value`` over the SAME USER's
    events in ``[s - ROLL_RANGE_S, s]`` (SQL ``RANGE BETWEEN 3600
    PRECEDING AND CURRENT ROW`` — tie rows at equal ``s`` are peers and
    share one frame).  Output per event: (event_id, n_window,
    roll_sum6, roll_mean6) in exact int64 micro-units
    (``_quantize_micro`` discipline; mean is floor(sum/n), floor-safe
    on both sides).

    Partitioning: the sessionize user co-partition (all events of a
    user meet in one group; raw rows cross the shuffle ONCE).  Per
    group the scan is fully vectorized: sort by (user, s), fuse
    (user_rank, shifted_s) into one monotone int64 key with a per-user
    span wide enough that a frame can never reach the previous user,
    then two ``np.searchsorted`` calls + one prefix-sum difference give
    every row's frame — no per-user Python loop, so a partition with a
    million users costs the same three array passes."""

    def roll(group: pa.Table) -> pa.Table:
        users = num_col(group, "user_id", np.int64)
        ids = num_col(group, "event_id", np.int64)
        secs = _epoch_s(group)
        v6 = _quantize_micro(group)
        order = np.lexsort((ids, secs, users))
        users, ids, secs, v6 = (
            users[order], ids[order], secs[order], v6[order]
        )
        ds = secs - secs.min()
        span = int(ds.max()) + ROLL_RANGE_S + 2
        # users are the primary sort key, so unique-inverse is
        # nondecreasing and c is monotone under (user asc, s asc)
        _, uidx = np.unique(users, return_inverse=True)
        c = uidx.astype(np.int64) * span + ds
        lo = np.searchsorted(c, c - ROLL_RANGE_S, side="left")
        hi = np.searchsorted(c, c, side="right")
        pref = np.concatenate(([0], np.cumsum(v6)))
        rs = pref[hi] - pref[lo]
        n = hi - lo
        return pa.table(
            {
                "event_id": pa.array(ids, pa.int64()),
                "n_window": pa.array(n.astype(np.int64), pa.int64()),
                "roll_sum6": pa.array(rs, pa.int64()),
                "roll_mean6": pa.array(rs // n, pa.int64()),
            }
        )

    ds = _events(sf_dir, columns=["event_id", "ts", "user_id", "value"])
    return co_partition(ds, roll, key="user_id")


# ---------------------------------------------------------------- lag/lead
def events_lag(sf_dir: str):
    """LAG/LEAD window shape: per event, seconds since the same user's
    PREVIOUS event and until the NEXT one (order: s, then event_id; -1
    at the partition edges) — inter-arrival gaps, the feature stream
    behind session-gap tuning and burst detection.

    Same user co-partition as sessionize; per group one lexsort and
    two shifted diffs (boundary mask where the user changes) — O(n log n)
    in the group, no per-user loop."""

    def gaps(group: pa.Table) -> pa.Table:
        users = num_col(group, "user_id", np.int64)
        ids = num_col(group, "event_id", np.int64)
        secs = _epoch_s(group)
        order = np.lexsort((ids, secs, users))
        users, ids, secs = users[order], ids[order], secs[order]
        same_prev = np.concatenate(([False], users[1:] == users[:-1]))
        gp = np.full(len(ids), -1, dtype=np.int64)
        gp[same_prev] = (secs[1:] - secs[:-1])[same_prev[1:]]
        gn = np.full(len(ids), -1, dtype=np.int64)
        same_next = np.concatenate((users[1:] == users[:-1], [False]))
        gn[same_next] = (secs[1:] - secs[:-1])[same_next[:-1]]
        return pa.table(
            {
                "event_id": pa.array(ids, pa.int64()),
                "gap_prev_s": pa.array(gp, pa.int64()),
                "gap_next_s": pa.array(gn, pa.int64()),
            }
        )

    ds = _events(sf_dir, columns=["event_id", "ts", "user_id"])
    return co_partition(ds, gaps, key="user_id")


# ------------------------------------------------------------- range join
INCIDENT_S = 900  # each 'error' event opens a [s, s+INCIDENT_S] window


def events_range_join(sf_dir: str):
    """RANGE JOIN — the inequality-predicate join shape that completes
    the custom-operator triple next to ``events_asof`` (point lookup
    backward) and ``events_rolling`` (self frame): every event LEFT
    JOINs the same user's incident windows (each ``error`` event opens
    ``[s, s + INCIDENT_S]``) on ``i.s <= e.s <= i.s + INCIDENT_S``,
    aggregated per probe row.  Output per event: (event_id, n_covering,
    first_incident_s) with -1 when no window covers it.

    A distributed range join needs both sides co-located on the equi
    part of the predicate (user) — the same user co-partition as
    asof/sessionize; the band part then resolves IN-GROUP with zero
    extra shuffle.  Per group it is the ``events_rolling`` fused-key
    scan probing a FILTERED build side: two np.searchsorted calls of
    every event's key against the error-subset keys bound each probe's
    covering-window run, so the join never materializes pairs (the
    per-probe aggregate is a run-length + run-head decode), and a
    pathological million-window user costs two binary-search passes,
    not an O(events × windows) explode."""

    def join(group: pa.Table) -> pa.Table:
        users = num_col(group, "user_id", np.int64)
        ids = num_col(group, "event_id", np.int64)
        secs = _epoch_s(group)
        types = np.asarray(
            group.column("event_type").to_pylist(), dtype=object
        )
        order = np.lexsort((ids, secs, users))
        users, ids, secs, types = (
            users[order], ids[order], secs[order], types[order]
        )
        smin = secs.min()
        ds = secs - smin
        span = int(ds.max()) + INCIDENT_S + 2
        _, uidx = np.unique(users, return_inverse=True)
        c = uidx.astype(np.int64) * span + ds
        ce = c[types == ASOF_TYPE]
        lo = np.searchsorted(ce, c - INCIDENT_S, side="left")
        hi = np.searchsorted(ce, c, side="right")
        n = (hi - lo).astype(np.int64)
        first = np.full(len(c), -1, dtype=np.int64)
        cov = n > 0
        # run head decodes to the earliest covering window's start
        first[cov] = ce[lo[cov]] % span + smin
        return pa.table(
            {
                "event_id": pa.array(ids, pa.int64()),
                "n_covering": pa.array(n, pa.int64()),
                "first_incident_s": pa.array(first, pa.int64()),
            }
        )

    ds = _events(
        sf_dir, columns=["event_id", "ts", "user_id", "event_type"]
    )
    return co_partition(ds, join, key="user_id")


# --------------------------------------------------------- sessionization
def events_sessionize(sf_dir: str):
    """Per user: maximal event runs with inter-event gap <= 30 min.
    Output one row per session: (user_id, session_id = min event_id,
    n_events, duration_s)."""

    def sessions(group: pa.Table) -> pa.Table:
        users = num_col(group, "user_id", np.int64)
        ids = num_col(group, "event_id", np.int64)
        secs = _epoch_s(group)
        order = np.lexsort((ids, secs, users))
        users, ids, secs = users[order], ids[order], secs[order]
        out = {"user_id": [], "session_id": [], "n_events": [], "duration_s": []}
        i, n = 0, len(users)
        while i < n:
            j = i + 1
            while (
                j < n
                and users[j] == users[i]
                and secs[j] - secs[j - 1] <= SESSION_GAP_S
            ):
                j += 1
            out["user_id"].append(int(users[i]))
            out["session_id"].append(int(ids[i:j].min()))
            out["n_events"].append(j - i)
            out["duration_s"].append(int(secs[j - 1] - secs[i]))
            i = j
        return pa.table(
            {
                "user_id": pa.array(out["user_id"], pa.int64()),
                "session_id": pa.array(out["session_id"], pa.int64()),
                "n_events": pa.array(out["n_events"], pa.int64()),
                "duration_s": pa.array(out["duration_s"], pa.int64()),
            }
        )

    ds = _events(sf_dir, columns=["event_id", "ts", "user_id"])
    return co_partition(ds, sessions, key="user_id")


# ----------------------------------------------------------- session paths
PATH_PREFIX_LEN = 8  # events per session contributing to its path
PATH_K = 10  # top paths reported


def events_paths(sf_dir: str,
                 k: int = PATH_K):
    """Top-``k`` most common session PATHS — the product-analytics path
    analysis next to funnels/retention: each session's first
    ``PATH_PREFIX_LEN`` event types in time order join into a '>'-path
    string, paths are counted corpus-wide, ranked ``(n DESC, path ASC)``.
    The prefix cap bounds the key size (a pathological million-event
    session contributes a fixed-size key, not a megabyte string).

    Shape: the ``events_sessionize`` user co-partition emits one
    COUNTER row per distinct path per partition (map-side combiner —
    sessions never leave their group), then the ``vocab_topk``
    discipline finishes: bucketed vectorized Sum -> per-block partial
    top-k -> one tiny global sort.  Output: (path, n).
    """
    from collections import Counter

    from ..stages.vecagg import bucketed_groupby

    def paths(group: pa.Table) -> pa.Table:
        users = num_col(group, "user_id", np.int64)
        ids = num_col(group, "event_id", np.int64)
        types = group.column("event_type").to_pylist()
        secs = _epoch_s(group)
        order = np.lexsort((ids, secs, users))
        users, ids, secs = users[order], ids[order], secs[order]
        types = [types[i] for i in order]
        c: Counter = Counter()
        i, n = 0, len(users)
        while i < n:
            j = i + 1
            while (
                j < n
                and users[j] == users[i]
                and secs[j] - secs[j - 1] <= SESSION_GAP_S
            ):
                j += 1
            c[">".join(types[i:min(j, i + PATH_PREFIX_LEN)])] += 1
            i = j
        return pa.table(
            {
                "path": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    def block_topk(batch: pa.Table, k=k) -> pa.Table:
        p = batch.column("path").to_pylist()
        n = num_col(batch, "n", np.int64)
        if len(p) > k:
            keep = np.lexsort((np.asarray(p, dtype=object), -n))[:k]
            p = [p[i] for i in keep]
            n = n[keep]
        return pa.table(
            {
                "path": pa.array(p, pa.string()),
                "n": pa.array(n, pa.int64()),
            }
        )

    ds = _events(sf_dir, columns=["event_id", "ts", "user_id", "event_type"])
    per_group = co_partition(ds, paths, key="user_id")
    totals = bucketed_groupby(
        per_group, "path", ["n"], ["sum"]
    ).map_batches(block_topk, batch_format="pyarrow")
    return totals.sort(["n", "path"], descending=[True, False]).limit(k)


# -------------------------------------------------------------- as-of join
def events_asof(sf_dir: str):
    """For every event: the most recent prior-or-equal '{ASOF_TYPE}' event
    of the same user (backward as-of join on (user_id, ts)).  Output
    (event_id, err_event_id nullable).

    Implementation: co-locate each user's events in one partition,
    sort by (ts, event_id), single forward scan carrying the latest
    matching event — the sort-merge form of ASOF JOIN."""

    def asof(group: pa.Table) -> pa.Table:
        users = num_col(group, "user_id", np.int64)
        ids = num_col(group, "event_id", np.int64)
        secs_us = num_col(group, "ts", np.int64)
        types = group.column("event_type").to_pylist()
        order = np.lexsort((ids, secs_us, users))
        out_id, out_err = [], []
        last_err = {}  # user -> err event_id
        for k in order:
            u = users[k]
            if types[k] == ASOF_TYPE:
                last_err[u] = int(ids[k])
            out_id.append(int(ids[k]))
            out_err.append(last_err.get(u))
        return pa.table(
            {
                "event_id": pa.array(out_id, pa.int64()),
                "err_event_id": pa.array(out_err, pa.int64()),
            }
        )

    ds = _events(sf_dir, columns=["event_id", "ts", "user_id", "event_type"])
    return co_partition(ds, asof, key="user_id")


# ------------------------------------------------- semi-structured props
def events_props(sf_dir: str):
    """Parse the JSON ``props`` column (semi-structured payloads are
    routine in event/training-data tables): extract the integer field
    ``k`` per event.  Vectorizable with Arrow's JSON kernels when
    available; here a per-batch json.loads loop (the payloads are tiny)."""
    import json

    def parse(batch: pa.Table) -> pa.Table:
        ids = batch.column("event_id").to_pylist()
        out = []
        for s in batch.column("props").to_pylist():
            try:
                v = json.loads(s).get("k")
                out.append(int(v) if v is not None else None)
            except (ValueError, TypeError):
                out.append(None)
        return pa.table(
            {
                "event_id": pa.array(ids, pa.int64()),
                "k": pa.array(out, pa.int64()),
            }
        )

    return _events(sf_dir, columns=["event_id", "props"]).map_batches(
        parse, batch_format="pyarrow"
    )


# retention fused-key layout: (window index) << K_BITS | k.  K_BITS=21
# bounds the observable horizon at 2^21 windows (~240 years of hours) and
# keeps the fused key < 2^63 for any epoch this side of year 100k.
_K_BITS = 21


def events_retention(sf_dir: str):
    """Cohort retention triangle: a user's COHORT is the hour window of
    their first event; for each hour offset ``k``, ``n_users`` counts the
    cohort's distinct users active in window ``cohort + k*WINDOW_S``.

    Shape: per-batch distinct-``(user, window)`` combiner (raw events
    never shuffle — only deduped activity pairs), ONE user
    co-partition (all activity of a user meets in one group, the sessionize
    discipline, so first-window and distinct-window logic are exact and
    a user contributes to each ``(cohort, k)`` at most once GLOBALLY),
    then a tiny vectorized ``(cohort, k)`` Sum reduce
    (stages/vecagg.py).  Per-partition work is ``np.unique`` +
    ``np.minimum.at`` flat passes — no per-user Python."""
    from ..stages.vecagg import bucketed_groupby

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        u = num_col(batch, "user_id", np.int64)
        w = (_epoch_s(batch) // WINDOW_S) * WINDOW_S
        uw = np.unique(np.stack([u, w]), axis=1)
        return pa.table(
            {
                "user_id": pa.array(uw[0], pa.int64()),
                "window_s": pa.array(uw[1], pa.int64()),
            }
        )

    def per_user(group: pa.Table) -> pa.Table:
        u = num_col(group, "user_id", np.int64)
        w = num_col(group, "window_s", np.int64)
        # batch-level combiners may emit the same pair from many blocks
        uw = np.unique(np.stack([u, w]), axis=1)
        u, w = uw[0], uw[1]
        uu, inv = np.unique(u, return_inverse=True)
        first = np.full(len(uu), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(first, inv, w)
        cohort = first[inv]
        k = (w - cohort) // WINDOW_S
        ck = (cohort // WINDOW_S << _K_BITS) | k
        uk, counts = np.unique(ck, return_counts=True)
        return pa.table(
            {
                "ck": pa.array(uk, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    pairs = _events(sf_dir, columns=["ts", "user_id"]).map_batches(
        distinct_pairs, batch_format="pyarrow"
    )
    partials = co_partition(pairs, per_user, key="user_id")
    agg = bucketed_groupby(partials, "ck", ["n"], ["sum"],
                           out_names=["n_users"])

    def finish(batch: pa.Table) -> pa.Table:
        ck = num_col(batch, "ck", np.int64)
        return pa.table(
            {
                "cohort_start_s": pa.array(
                    (ck >> _K_BITS) * WINDOW_S, pa.int64()
                ),
                "k": pa.array(ck & ((1 << _K_BITS) - 1), pa.int64()),
                "n_users": pc.cast(batch.column("n_users"), pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------------------------ funnel
FUNNEL_STEPS = ("view", "click", "purchase")


def events_funnel(sf_dir: str):
    """Ordered conversion funnel over ``FUNNEL_STEPS``: per user,
    ``t1_us`` is the earliest 'view', ``t2_us`` the earliest 'click'
    STRICTLY after ``t1_us``, ``t3_us`` the earliest 'purchase' strictly
    after ``t2_us``; ``depth`` counts reached steps.  Every user with
    any event gets a row (missing steps are NULL).

    Shape: the sessionize discipline — one user co-partition so each
    user's events meet in one task, then a per-user sorted-array scan
    (``np.searchsorted`` per step over that user's per-type timestamp
    arrays; timestamps compare in exact int64 microseconds)."""

    def funnel(group: pa.Table) -> pa.Table:
        users = num_col(group, "user_id", np.int64)
        ts_us = num_col(group, "ts", np.int64)
        types = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((ts_us, users))
        users, ts_us, types = users[order], ts_us[order], types[order]
        out_u, out_t, out_d = [], [[], [], []], []
        lo = 0
        for hi in np.flatnonzero(np.diff(users)).tolist() + [len(users) - 1]:
            hi += 1
            seg_ts, seg_ty = ts_us[lo:hi], types[lo:hi]
            prev, depth = None, 0
            for k, step in enumerate(FUNNEL_STEPS):
                st = seg_ts[seg_ty == step]  # sorted (stable segment order)
                if prev is not None:
                    st = st[np.searchsorted(st, prev, side="right"):]
                t = int(st[0]) if st.size else None
                out_t[k].append(t)
                if t is not None and depth == k:
                    depth = k + 1
                prev = t if t is not None else np.iinfo(np.int64).max
            out_u.append(int(users[lo]))
            out_d.append(depth)
            lo = hi
        return pa.table(
            {
                "user_id": pa.array(out_u, pa.int64()),
                "t1_us": pa.array(out_t[0], pa.int64()),
                "t2_us": pa.array(out_t[1], pa.int64()),
                "t3_us": pa.array(out_t[2], pa.int64()),
                "depth": pa.array(out_d, pa.int64()),
            }
        )

    ds = _events(sf_dir, columns=["ts", "user_id", "event_type"])
    return co_partition(ds, funnel, key="user_id")


def events_queries() -> dict:
    return {
        "events_window": events_window,
        "events_sliding": events_sliding,
        "events_sessionize": events_sessionize,
        "events_asof": events_asof,
        "events_props": events_props,
        "events_retention": events_retention,
        "events_funnel": events_funnel,
        "events_paths": events_paths,
        "events_watermark": events_watermark,
        "events_rolling": events_rolling,
        "events_range_join": events_range_join,
        "events_lag": events_lag,
        "events_window_incremental": events_window_incremental,
    }


def events_oracle_sql() -> dict[str, str]:
    sqls = {}
    r6 = "floor(({}) * 1000000 + 0.5) / 1000000"
    # values are quantized to int64 micro-units BEFORE summing on both
    # sides (vq below = the Python combiner's np.floor(v*1e6+0.5)): float
    # partial sums are order-dependent in the last ulp and flipped the
    # round6 boundary on 2/14415 sliding rows at sf0.1
    sv = "CAST(sum(vq) AS DOUBLE) / 1000000"
    sqls["events_window"] = f"""
SELECT ((epoch_us(ts) // 1000000) // {WINDOW_S}) * {WINDOW_S} AS window_start_s,
       event_type,
       count(*) AS n,
       {sv} AS sum_value,
       {r6.format(f'({sv}) / count(*)')} AS mean_value
FROM (SELECT ts, event_type,
             CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS vq
      FROM events) GROUP BY 1, 2"""

    # events_window_incremental: the SAME batch SQL — hash equality
    # proves the micro-batch state fold reproduces the batch aggregate.
    sqls["events_window_incremental"] = sqls["events_window"]
    sqls["events_sliding"] = f"""
WITH e AS (
  SELECT epoch_us(ts) // 1000000 AS t, event_type,
         CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS vq
  FROM events
),
x AS (
  SELECT ((t // {SLIDE_S}) - g.j) * {SLIDE_S} AS window_start_s,
         event_type, vq
  FROM e, UNNEST(generate_series(0, {WINDOW_S // SLIDE_S - 1})) AS g(j)
)
SELECT window_start_s, event_type, count(*) AS n,
       {sv} AS sum_value,
       {r6.format(f'({sv}) / count(*)')} AS mean_value
FROM x GROUP BY 1, 2"""
    sqls["events_sessionize"] = f"""
WITH o AS (
  SELECT event_id, user_id, epoch_us(ts) // 1000000 AS s,
         lag(epoch_us(ts) // 1000000) OVER (PARTITION BY user_id
                                      ORDER BY epoch_us(ts) // 1000000, event_id)
           AS prev_s
  FROM events
),
f AS (
  SELECT *, CASE WHEN prev_s IS NULL OR s - prev_s > {SESSION_GAP_S}
                 THEN 1 ELSE 0 END AS new_session
  FROM o
),
g AS (
  SELECT *, sum(new_session) OVER (PARTITION BY user_id
                                   ORDER BY s, event_id) AS sess_no
  FROM f
)
SELECT user_id, min(event_id) AS session_id, count(*) AS n_events,
       max(s) - min(s) AS duration_s
FROM g GROUP BY user_id, sess_no"""
    sqls["events_asof"] = f"""
WITH errs AS (
  SELECT user_id, epoch_us(ts) AS us, event_id FROM events
  WHERE event_type = '{ASOF_TYPE}'
)
SELECT e.event_id,
       (SELECT x.event_id FROM errs x
        WHERE x.user_id = e.user_id
          AND (x.us < epoch_us(e.ts)
               OR (x.us = epoch_us(e.ts) AND x.event_id <= e.event_id))
        ORDER BY x.us DESC, x.event_id DESC LIMIT 1) AS err_event_id
FROM events e"""
    sqls["events_props"] = """
SELECT event_id,
       CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
FROM events"""
    sqls["events_retention"] = f"""
WITH w AS (
  SELECT DISTINCT user_id,
         ((epoch_us(ts) // 1000000) // {WINDOW_S}) * {WINDOW_S} AS window_s
  FROM events
),
f AS (SELECT user_id, min(window_s) AS cohort_s FROM w GROUP BY user_id)
SELECT f.cohort_s AS cohort_start_s,
       (w.window_s - f.cohort_s) // {WINDOW_S} AS k,
       count(*) AS n_users
FROM w JOIN f ON w.user_id = f.user_id
GROUP BY 1, 2"""

    s1, s2, s3 = FUNNEL_STEPS
    sqls["events_funnel"] = f"""
WITH u AS (SELECT DISTINCT user_id FROM events),
a AS (
  SELECT user_id, min(epoch_us(ts)) AS t1
  FROM events WHERE event_type = '{s1}' GROUP BY user_id
),
b AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS t2
  FROM events e JOIN a ON e.user_id = a.user_id
  WHERE e.event_type = '{s2}' AND epoch_us(e.ts) > a.t1
  GROUP BY e.user_id
),
c AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS t3
  FROM events e JOIN b ON e.user_id = b.user_id
  WHERE e.event_type = '{s3}' AND epoch_us(e.ts) > b.t2
  GROUP BY e.user_id
)
SELECT u.user_id, a.t1 AS t1_us, b.t2 AS t2_us, c.t3 AS t3_us,
       CAST(CASE WHEN c.t3 IS NOT NULL THEN 3
                 WHEN b.t2 IS NOT NULL THEN 2
                 WHEN a.t1 IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) AS depth
FROM u LEFT JOIN a USING (user_id) LEFT JOIN b USING (user_id)
       LEFT JOIN c USING (user_id)"""

    # events_paths: the sessionize window CTEs + row_number prefix cap +
    # ordered string_agg; ranked (n DESC, path ASC) LIMIT k.
    sqls["events_paths"] = f"""
WITH o AS (
  SELECT event_id, user_id, event_type, epoch_us(ts) // 1000000 AS s,
         lag(epoch_us(ts) // 1000000) OVER (PARTITION BY user_id
                                      ORDER BY epoch_us(ts) // 1000000, event_id)
           AS prev_s
  FROM events
),
f AS (
  SELECT *, CASE WHEN prev_s IS NULL OR s - prev_s > {SESSION_GAP_S}
                 THEN 1 ELSE 0 END AS new_session
  FROM o
),
g AS (
  SELECT *, sum(new_session) OVER (PARTITION BY user_id
                                   ORDER BY s, event_id) AS sess_no
  FROM f
),
h AS (
  SELECT *, row_number() OVER (PARTITION BY user_id, sess_no
                               ORDER BY s, event_id) AS rn
  FROM g
),
p AS (
  SELECT string_agg(event_type, '>' ORDER BY s, event_id) AS path
  FROM h WHERE rn <= {PATH_PREFIX_LEN} GROUP BY user_id, sess_no
)
SELECT path, CAST(count(*) AS BIGINT) AS n
FROM p GROUP BY path ORDER BY n DESC, path LIMIT {PATH_K}"""

    # events_watermark: running max over arrival (event_id) order is the
    # watermark; strict < below (watermark - delay) marks an event late.
    sqls["events_watermark"] = f"""
WITH o AS (SELECT event_id, epoch_us(ts) // 1000000 AS s FROM events),
w AS (
  SELECT s, max(s) OVER (ORDER BY event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING) AS prev_max
  FROM o
)
SELECT (s // {WINDOW_S}) * {WINDOW_S} AS window_start_s,
       CAST(count(*) FILTER (WHERE prev_max IS NULL
                             OR s >= prev_max - {WM_DELAY_S}) AS BIGINT)
         AS n_ontime,
       CAST(count(*) FILTER (WHERE prev_max IS NOT NULL
                             AND s < prev_max - {WM_DELAY_S}) AS BIGINT)
         AS n_late
FROM w GROUP BY 1"""

    # events_rolling: the RANGE frame is inclusive at both ends and tie
    # rows share one frame (peers) — exactly searchsorted(left)/(right).
    # floor(rs/n) (not //, which truncates) matches numpy floor division
    # for negative sums; rs < 2^53 keeps the double division exact.
    sqls["events_rolling"] = f"""
WITH o AS (
  SELECT event_id, user_id, epoch_us(ts) // 1000000 AS s,
         CAST(floor(value * 1e6 + 0.5) AS BIGINT) AS v6
  FROM events
),
w AS (
  SELECT event_id,
         sum(v6) OVER (PARTITION BY user_id ORDER BY s
                       RANGE BETWEEN {ROLL_RANGE_S} PRECEDING
                       AND CURRENT ROW) AS rs,
         count(*) OVER (PARTITION BY user_id ORDER BY s
                        RANGE BETWEEN {ROLL_RANGE_S} PRECEDING
                        AND CURRENT ROW) AS n
  FROM o
)
SELECT event_id, CAST(n AS BIGINT) AS n_window,
       CAST(rs AS BIGINT) AS roll_sum6,
       CAST(floor(rs * 1.0 / n) AS BIGINT) AS roll_mean6
FROM w"""

    # events_range_join: a REAL inequality join in the oracle (DuckDB
    # IEJoin) — the engine side never materializes the pairs.
    sqls["events_range_join"] = f"""
WITH o AS (
  SELECT event_id, user_id, epoch_us(ts) // 1000000 AS s, event_type
  FROM events
),
i AS (SELECT user_id, s FROM o WHERE event_type = '{ASOF_TYPE}')
SELECT o.event_id,
       CAST(count(i.s) AS BIGINT) AS n_covering,
       CAST(coalesce(min(i.s), -1) AS BIGINT) AS first_incident_s
FROM o LEFT JOIN i
  ON o.user_id = i.user_id
 AND i.s <= o.s AND o.s <= i.s + {INCIDENT_S}
GROUP BY o.event_id"""

    # events_lag: LAG/LEAD with the deterministic (s, event_id) order.
    sqls["events_lag"] = """
WITH o AS (
  SELECT event_id, user_id, epoch_us(ts) // 1000000 AS s FROM events
),
w AS (
  SELECT event_id,
         s - lag(s) OVER (PARTITION BY user_id
                          ORDER BY s, event_id) AS gp,
         lead(s) OVER (PARTITION BY user_id
                       ORDER BY s, event_id) - s AS gn
  FROM o
)
SELECT event_id, CAST(coalesce(gp, -1) AS BIGINT) AS gap_prev_s,
       CAST(coalesce(gn, -1) AS BIGINT) AS gap_next_s
FROM w"""
    return sqls
