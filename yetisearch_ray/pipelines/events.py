"""Stream-shaped operators over the ``events`` log table.

Ray Data is a batch engine (no watermarks); stream semantics are
expressed over the ordered, partitioned log per the standard pattern:
partition by key, order by ts within the partition, window inside
``map_groups`` (SURVEY §2.13: the reference has NO streaming — these
operators are part of the training-data-pipeline extension).

- ``tumbling_window``: fixed-width event-time windows (groupby on the
  truncated timestamp — a pure shuffle-aggregate, SQL-oracle-checkable).
- ``session_windows``: per-user sessions split on inactivity gaps
  (sorted per-group pandas inside map_groups).
- ``asof_join_orders``: for each event, the latest order of the same
  customer at-or-before the event time (``pd.merge_asof`` per key
  bucket — the guide's as-of join shape).

Per-key operators (per user, per window) exchange through one
``stages.bucketed.bucketed_apply(ds, key, kernel)``: rows co-locate by
a hash bucket of the key and the kernel runs once per bucket,
vectorized across every key in it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.bucketed import bucket_ids, bucketed_apply

# per-worker broadcast-side split cache for the as-of join: the orders
# frame is deserialized from the object store and partitioned by custkey
# ONCE per worker process, then every group call is a dict lookup
# (same pattern as dedup._signer_state)
_ASOF_CACHE: dict = {}


def _asof_buckets(orders_ref) -> dict:
    """Per-worker cache: the broadcast (date-sorted) orders frame split
    by ``bucket_ids`` of the customer ONCE per process; per-group work
    is then a dict lookup, never a scan of the full broadcast frame."""
    import ray

    key = orders_ref.hex()
    v = _ASOF_CACHE.get(key)
    if v is None:
        od = ray.get(orders_ref)
        b = bucket_ids(od["o_custkey"])
        # groupby(array) preserves within-group row order, so each
        # bucket frame stays globally sorted by o_orderdate
        v = {int(k): f.reset_index(drop=True)
             for k, f in od.groupby(b, sort=False)}
        _ASOF_CACHE.clear()  # one broadcast table live at a time
        _ASOF_CACHE[key] = v
    return v


def _us(ts: pd.Series) -> np.ndarray:
    """Timestamps as int64 microseconds since the epoch."""
    return ts.to_numpy().astype("datetime64[us]").astype(np.int64)


def tumbling_window(sf_dir: str, *, width_minutes: int = 60):
    """Events per (event_type, window_start): count + value sum."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])

    def derive(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t["ts"], multiple=width_minutes, unit="minute")
        # metadata-clean blocks keep Ray's schema dedup working in the
        # shuffle (see dedup._strip_meta)
        return t.replace_schema_metadata(None).append_column(
            "window_start", w)

    out = (
        ds.map_batches(derive, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="value_sum"))
    )
    pdf = out.to_pandas()
    pdf["n"] = pdf["n"].astype("int64")
    pdf["value_sum"] = pdf["value_sum"].round(4)
    return pdf.sort_values(["event_type", "window_start"]).reset_index(drop=True)


def sliding_window(sf_dir: str, *, width_minutes: int = 60,
                   step_minutes: int = 15):
    """Hopping (sliding) event-time windows: every event is assigned to
    the width/step overlapping windows containing it — a vectorized
    explode (np.repeat over the window offsets) feeding the same
    shuffle-aggregate as the tumbling case.  SQL-oracle-checkable
    (cross join against the offset series)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    assert width_minutes % step_minutes == 0
    k = width_minutes // step_minutes
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])

    def derive(t: pa.Table) -> pa.Table:
        base = pc.floor_temporal(t["ts"], multiple=step_minutes,
                                 unit="minute")
        base_np = base.to_numpy(zero_copy_only=False)
        n = base_np.size
        starts = (np.repeat(base_np, k)
                  - np.tile(np.arange(k), n)
                  * np.timedelta64(step_minutes, "m"))
        return pa.table({
            "event_type": pa.array(
                np.repeat(t["event_type"].to_numpy(zero_copy_only=False), k)),
            "window_start": pa.array(starts),
            "value": pa.array(
                np.repeat(t["value"].to_numpy(zero_copy_only=False), k)),
        })

    out = (
        ds.map_batches(derive, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="value_sum"))
    )
    pdf = out.to_pandas()
    pdf["n"] = pdf["n"].astype("int64")
    pdf["value_sum"] = pdf["value_sum"].round(4)
    return pdf.sort_values(["event_type", "window_start"]).reset_index(drop=True)


def session_windows(sf_dir: str, *, gap_minutes: int = 30, min_events: int = 1):
    """Per-user sessions: consecutive events with gaps < ``gap_minutes``.

    Users go through one ``bucketed_apply``; each Arrow-emitting call
    makes one (user, ts) sort + a shifted break mask (user change OR
    gap >= threshold) and derives every user's sessions in the bucket
    at once via segment arithmetic (round 5 — was one Python call per
    user)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])
    gap64 = np.timedelta64(gap_minutes * 60, "s").astype("timedelta64[us]")

    def sessions(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        ts = g["ts"].to_numpy().astype("datetime64[us]")
        brk = np.ones(u.size, dtype=bool)
        brk[1:] = (u[1:] != u[:-1]) | ((ts[1:] - ts[:-1]) >= gap64)
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], u.size) - 1
        n = ends - starts + 1
        keep = n >= min_events
        return pa.table({
            "user_id": pa.array(u[starts][keep], pa.int64()),
            "session_start": pa.array(ts[starts][keep]),
            "session_end": pa.array(ts[ends][keep]),
            "n_events": pa.array(n[keep].astype(np.int64), pa.int64()),
        })

    pdf = bucketed_apply(ds, "user_id", sessions).to_pandas()
    pdf["n_events"] = pdf["n_events"].astype("int64")
    pdf["user_id"] = pdf["user_id"].astype("int64")
    return pdf.sort_values(["user_id", "session_start"]).reset_index(drop=True)


def asof_join_orders(sf_dir: str, *, direction: str = "backward",
                     as_dataset: bool = False):
    """For each event: the latest order of customer ``user_id`` placed
    at-or-before the event ts (as-of backward join), or with
    ``direction="forward"`` the EARLIEST order at-or-after it (ties on
    the date resolve to max o_orderkey backward / min forward, matching
    the SQL oracles).

    Scale shape: the small side (orders) is deduped + date-sorted ONCE
    on the driver, BROADCAST via ``ray.put``, and pre-split into
    user-hash BUCKET frames once per worker process (module cache,
    keyed on the object ref); events group by the same hash bucket, so
    ``map_groups`` makes ONE vectorized ``pd.merge_asof(by=user)``
    call per bucket of users (round 5 — was one Python call + merge
    per user), emitting Arrow.  At cluster scale with a LARGE right
    side, co-shuffle both sides by key hash instead under the same
    per-bucket kernel."""
    import ray
    import ray.data as rd

    orders = pd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderkey", "o_orderdate"])
    # collapse date ties ONCE driver-side: backward keeps the max
    # o_orderkey per (custkey, date), forward the min
    orders = orders.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
    grp = orders.groupby(["o_custkey", "o_orderdate"], as_index=False)
    orders = grp.last() if direction == "backward" else grp.first()
    # merge_asof(by=) needs the ON key globally sorted on both sides
    orders = orders.sort_values("o_orderdate", kind="mergesort")
    orders_ref = ray.put(orders)

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts"])

    def join_bucket(g: pd.DataFrame) -> pa.Table:
        ob = _asof_buckets(orders_ref).get(
            int(bucket_ids(g["user_id"].iloc[:1])[0]))
        g = g.sort_values("ts", kind="mergesort")
        if ob is None:
            j = g.assign(
                o_orderdate=pd.Series(pd.NaT, index=g.index,
                                      dtype="datetime64[us]"),
                o_orderkey=pd.array([pd.NA] * len(g), dtype="Int64"))
        else:
            j = pd.merge_asof(
                g, ob[["o_custkey", "o_orderdate", "o_orderkey"]],
                left_on="ts", right_on="o_orderdate",
                left_by="user_id", right_by="o_custkey",
                direction=direction)
        return pa.table({
            "event_id": pa.array(j["event_id"].to_numpy(np.int64),
                                 pa.int64()),
            "user_id": pa.array(j["user_id"].to_numpy(np.int64),
                                pa.int64()),
            "ts": pa.array(j["ts"].to_numpy().astype("datetime64[us]")),
            "o_orderdate": pa.array(
                j["o_orderdate"].to_numpy().astype("datetime64[us]")),
            "o_orderkey": pa.array(
                pd.array(j["o_orderkey"], dtype="Int64"),
                pa.int64()),
        })

    out = bucketed_apply(ds, "user_id", join_bucket)
    if as_dataset:
        # streaming contract for the 100 TB path: arrowified, null
        # orderkeys coalesced to -1, ordered by event id
        import pyarrow.compute as pc

        def tidy(t: pa.Table) -> pa.Table:
            ok = pc.coalesce(t["o_orderkey"].cast(pa.int64()),
                             pa.scalar(-1, pa.int64()))
            return pa.table({
                "event_id": t["event_id"].cast(pa.int64()),
                "user_id": t["user_id"].cast(pa.int64()),
                "o_orderkey": ok,
            })
        return (out.map_batches(tidy, batch_format="pyarrow")
                .sort("event_id"))
    pdf = out.to_pandas()
    pdf["event_id"] = pdf["event_id"].astype("int64")
    pdf["user_id"] = pdf["user_id"].astype("int64")
    pdf["o_orderkey"] = pdf["o_orderkey"].fillna(-1).astype("int64")
    return (pdf[["event_id", "user_id", "o_orderkey"]]
            .sort_values("event_id").reset_index(drop=True))


def funnel_counts(sf_dir: str, *, stages=("view", "click", "purchase")):
    """Strict sequential funnel over the event stream: how many users
    reached stage 1 (any ``stages[0]`` event), stage 2 (a ``stages[1]``
    event strictly after their first stage-1 event), stage 3 (strictly
    after the earliest qualifying stage-2 event), ...

    The standard product-analytics conversion query (and the windowless
    cousin of the reference's session semantics).  Distributed shape:
    users group by a HASH BUCKET; inside each bucket |stages| chained
    C-level passes (filter stage rows → drop rows at-or-before the
    user's previous stage time → per-user min) compute EVERY user's
    reach at once, and only the per-bucket (reached, n) partial counts
    leave the task as Arrow — the funnel is then a <= |stages|-row Sum
    aggregate, so the driver sees O(stages) bytes.  Columns
    (stage, event_type, n_users)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type"])

    def reach(g: pd.DataFrame) -> pa.Table:
        # chained per-stage min-after-previous, vectorized across users
        reached = pd.Series(np.int64(0),
                            index=pd.Index(g["user_id"].unique()))
        prev = None
        for s in stages:
            e = g[g["event_type"] == s]
            if prev is not None:
                p = e["user_id"].map(prev)
                e = e[e["ts"] > p]  # NaT/no-prev compares False → drops
            if not len(e):
                break
            prev = e.groupby("user_id")["ts"].min()
            reached.loc[prev.index] += 1
        cnt = np.bincount(reached.to_numpy(np.int64),
                          minlength=len(stages) + 1)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "reached": pa.array(nz.astype(np.int64), pa.int64()),
            "n": pa.array(cnt[nz].astype(np.int64), pa.int64()),
        })

    counts = (bucketed_apply(ds, "user_id", reach)
              .groupby("reached")
              .aggregate(Sum("n", alias_name="n")).to_pandas())
    by_reach = dict(zip(counts["reached"].astype(int), counts["n"].astype(int)))
    rows = []
    for i, s in enumerate(stages, start=1):
        n_users = sum(v for r, v in by_reach.items() if r >= i)
        rows.append({"stage": i, "event_type": s, "n_users": n_users})
    out = pd.DataFrame(rows)
    out["stage"] = out["stage"].astype("int64")
    out["n_users"] = out["n_users"].astype("int64")
    return out


def distinct_users_per_type(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event_type — the grouped
    cardinality shape (ES ``cardinality`` sub-aggregation, SQL
    count-distinct-over-group).

    Distributed shape: per-batch pair dedup inside ``map_batches``
    (map-side combine: each batch contributes at most its distinct
    (event_type, user_id) pairs to the exchange), a pair-key groupby to
    finish the global dedup, then a tiny per-type count groupby — the
    second shuffle moves one row per distinct pair, never the event
    stream.  Columns (event_type, n_users)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])

    def batch_distinct(t: pa.Table) -> pa.Table:
        return t.replace_schema_metadata(None).group_by(
            ["event_type", "user_id"]).aggregate([])

    pairs = (ds.map_batches(batch_distinct, batch_format="pyarrow")
             .groupby(["event_type", "user_id"])
             .aggregate(Count(alias_name="_n")))
    out = (pairs.select_columns(["event_type"])
           .groupby("event_type").aggregate(Count(alias_name="n_users"))
           .to_pandas())
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def windowed_topk(sf_dir: str, *, width_minutes: int = 60, n: int = 3):
    """Top-``n`` event types per tumbling window by count (the
    streaming "trending items" shape — a windowed heavy-hitter view
    composed from the tumbling aggregate).

    Distributed shape: the same map-side window derivation + one
    (event_type, window) groupby as ``tumbling_window``; the per-window
    top-``n`` then runs ``bucketed_apply`` keyed on the window over the
    aggregate (|windows| x |types| rows, never the event stream) so one
    vectorized call per bucket ranks every window at once (round 5 —
    at a year-of-minute-windows horizon the per-window map_groups was
    ~500k Python calls).  Ties (count desc, event_type asc).  Columns
    (window_start, event_type, n, rk)."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])

    def derive(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t["ts"], multiple=width_minutes, unit="minute")
        # metadata-clean blocks keep Ray's schema dedup working in the
        # two downstream shuffles (see dedup._strip_meta)
        return t.replace_schema_metadata(None).append_column(
            "window_start", w)

    agg = (ds.map_batches(derive, batch_format="pyarrow")
           .groupby(["event_type", "window_start"])
           .aggregate(Count(alias_name="n")))

    def topn(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["window_start", "n", "event_type"],
                          ascending=[True, False, True], kind="mergesort")
        top = g.groupby("window_start", sort=False).head(n)
        rk = top.groupby("window_start", sort=False).cumcount() + 1
        return pa.table({
            "window_start": pa.array(
                top["window_start"].to_numpy().astype("datetime64[us]")),
            "event_type": pa.array(top["event_type"], pa.string()),
            "n": pa.array(top["n"].to_numpy(np.int64), pa.int64()),
            "rk": pa.array(rk.to_numpy(np.int64), pa.int64()),
        })

    out = bucketed_apply(agg, "window_start", topn).to_pandas()
    out["n"] = out["n"].astype("int64")
    return (out[["window_start", "event_type", "n", "rk"]]
            .sort_values(["window_start", "rk"]).reset_index(drop=True))


def retention_cohorts(sf_dir: str):
    """Weekly cohort retention matrix: users are cohorted by the week
    of their first event; each cell counts how many of that cohort were
    active ``offset_weeks`` weeks later (offset 0 = the cohort week
    itself).  The standard growth-analytics triangle.

    Distributed shape: per-batch distinct ``(user_id, week)`` pairs
    (map-side combine), one global pair-dedup groupby, then users go
    through ``bucketed_apply`` with an Arrow-emitting kernel — one sort +
    segment arithmetic derives every user's (cohort_week, offset) rows
    at once (pandas blocks entering a shuffle are ~20x slower than
    Arrow, round-4 finding) — and a final aggregate-sized
    (cohort, offset) groupby.  The driver sees O(weeks²) bytes.
    Columns (cohort_week, offset_weeks, n_users)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])

    def derive(t: pa.Table) -> pa.Table:
        wk = pc.floor_temporal(t["ts"], unit="week")  # Monday start,
        # matching DuckDB date_trunc('week', ts)
        return pa.table({"user_id": t["user_id"], "wk": wk}) \
            .group_by(["user_id", "wk"]).aggregate([])

    pairs = (ds.map_batches(derive, batch_format="pyarrow")
             .groupby(["user_id", "wk"]).aggregate(Count(alias_name="_n"))
             .select_columns(["user_id", "wk"]))

    week_us = np.timedelta64(7, "D").astype("timedelta64[us]")

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "wk"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        wk = g["wk"].to_numpy().astype("datetime64[us]")
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        reps = np.diff(np.append(starts, u.size))
        cw = np.repeat(wk[starts], reps)  # sorted → first wk = min
        offs = ((wk - cw) // week_us).astype(np.int64)
        return pa.table({"cohort_week": pa.array(cw),
                         "offset_weeks": pa.array(offs, pa.int64())})

    out = (bucketed_apply(pairs, "user_id", per_bucket)
           .groupby(["cohort_week", "offset_weeks"])
           .aggregate(Count(alias_name="n_users")).to_pandas())
    out["offset_weeks"] = out["offset_weeks"].astype("int64")
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["cohort_week", "offset_weeks"]) \
        .reset_index(drop=True)


def daily_moving_avg(sf_dir: str, *, window_days: int = 7):
    """Per-type daily event counts with a trailing ``window_days``-day
    moving average (the time-series smoothing shape; SQL
    ``AVG(...) OVER (... ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)``).

    Distributed shape: the daily counts are one (event_type, day)
    shuffle-aggregate; the rolling mean then runs over that aggregate
    (|days| × |types| rows — tiny), which is the right altitude: the
    window never touches the raw stream.  For month-scale windows over
    years of data the same rolling pass runs inside a per-type
    ``map_groups`` instead; columns (event_type, day, n, ma)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])

    def derive(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        return t.replace_schema_metadata(None).append_column("day", day)

    daily = (ds.map_batches(derive, batch_format="pyarrow")
             .groupby(["event_type", "day"])
             .aggregate(Count(alias_name="n")).to_pandas())
    daily["n"] = daily["n"].astype("int64")
    daily = daily.sort_values(["event_type", "day"]).reset_index(drop=True)
    daily["ma"] = (daily.groupby("event_type")["n"]
                   .rolling(window_days, min_periods=1).mean()
                   .round(6).reset_index(level=0, drop=True))
    return daily[["event_type", "day", "n", "ma"]]


def type_cooccurrence(sf_dir: str):
    """Market-basket co-occurrence: for every unordered event-type pair
    (a < b), the number of users who performed both.

    Distributed shape: the same map-side-combined distinct
    ``(user_id, event_type)`` pairs as ``distinct_users_per_type``;
    users then go through ``bucketed_apply`` — a pandas self-merge on
    user_id builds every user's a-before-b pairs at once and the
    per-bucket partial COUNT collapses them before the exchange (Arrow
    blocks out; pandas blocks entering a shuffle are ~20x slower,
    round-4 finding) — and a final pair-keyed Sum groupby.  The
    all-pairs blowup stays bounded per user by the (tiny) type
    vocabulary, never by the event stream.  Columns (type_a, type_b,
    n_users)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])

    def batch_distinct(t: pa.Table) -> pa.Table:
        return t.replace_schema_metadata(None).group_by(
            ["user_id", "event_type"]).aggregate([])

    pairs = (ds.map_batches(batch_distinct, batch_format="pyarrow")
             .groupby(["user_id", "event_type"])
             .aggregate(Count(alias_name="_n"))
             .select_columns(["user_id", "event_type"]))

    def combos(g: pd.DataFrame) -> pa.Table:
        d = g[["user_id", "event_type"]]
        m = d.merge(d, on="user_id")
        m = m[m["event_type_x"] < m["event_type_y"]]
        c = (m.groupby(["event_type_x", "event_type_y"]).size()
             .reset_index(name="n"))
        return pa.table({
            "type_a": pa.array(c["event_type_x"], pa.string()),
            "type_b": pa.array(c["event_type_y"], pa.string()),
            "n": pa.array(c["n"].to_numpy(np.int64), pa.int64()),
        })

    out = (bucketed_apply(pairs, "user_id", combos)
           .groupby(["type_a", "type_b"])
           .aggregate(Sum("n", alias_name="n_users")).to_pandas())
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


def window_self_join(sf_dir: str, *, within_minutes: int = 5):
    """Stream-stream interval self-join: pairs of events by the SAME
    user whose timestamps are within ``within_minutes`` of each other
    (earlier event first, strict event_id ordering — each unordered
    pair once), counted per (type_a, type_b).  The co-visitation /
    next-action shape of a streaming two-sided join.

    Distributed shape: users go through ``bucketed_apply`` (one hash
    shuffle); inside each bucket ONE vectorized sweep handles every
    user at once — user segments are lifted onto a shared int64 axis
    (each segment offset by a stride wider than the global time range,
    overflow-guarded with a per-segment fallback) so a single
    ``searchsorted`` finds every event's in-window run without
    crossing user boundaries.  Per-group work stays O(events ×
    avg window occupancy), and the pair stream collapses to
    (type_a, type_b) partial counts before the final tiny Sum groupby
    (Arrow blocks out; pandas blocks entering a shuffle are ~20x
    slower, round-4 finding).  At cluster scale a hot user
    additionally splits by time bucket (window-overlapped panes)
    under the same kernel.  Columns (type_a, type_b, n_pairs)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type",
                                  "event_id"])
    width_us = np.int64(within_minutes * 60) * 1_000_000

    def pairs(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        ts = _us(g["ts"])
        et = g["event_type"].to_numpy()
        n = ts.size
        empty = pa.table({"type_a": pa.array([], pa.string()),
                          "type_b": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if n == 0:
            return empty
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        seg = np.zeros(n, np.int64)
        seg[starts[1:]] = 1
        seg = np.cumsum(seg)  # user-segment index per row
        tmin = ts.min()
        stride = int(ts.max() - tmin) + int(width_us) + 1
        n_segs = int(seg[-1]) + 1
        # guard computed in Python ints — a numpy int64 product here
        # would itself wrap before the comparison
        if n_segs * stride < 2 ** 62:
            # one searchsorted over the stride-lifted axis
            adj = (ts - tmin) + seg * stride
            hi = np.searchsorted(adj, adj + width_us, side="right")
        else:  # overflow guard: per-segment searchsorted
            ends = np.append(starts[1:], n)
            hi = np.empty(n, np.int64)
            for s, e in zip(starts, ends):
                hi[s:e] = s + np.searchsorted(
                    ts[s:e], ts[s:e] + width_us, side="right")
        c = hi - np.arange(n) - 1
        total = int(c.sum())
        if total == 0:
            return empty
        a_idx = np.repeat(np.arange(n), c)
        # b_idx: for each i the run i+1 .. hi_i-1, built by offset math
        base = np.repeat(np.cumsum(c) - c, c)
        b_idx = np.arange(total) - base + a_idx + 1
        d = pd.DataFrame({"a": et[a_idx], "b": et[b_idx]})
        cnt = d.groupby(["a", "b"]).size().reset_index(name="n")
        return pa.table({
            "type_a": pa.array(cnt["a"], pa.string()),
            "type_b": pa.array(cnt["b"], pa.string()),
            "n": pa.array(cnt["n"].to_numpy(np.int64), pa.int64()),
        })

    out = (bucketed_apply(ds, "user_id", pairs)
           .groupby(["type_a", "type_b"])
           .aggregate(Sum("n", alias_name="n_pairs")).to_pandas())
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


def window_distinct_users(sf_dir: str, *, width_minutes: int = 360):
    """Exact distinct-user cardinality per tumbling window — the
    windowed COUNT(DISTINCT) every traffic dashboard runs.

    Distributed shape: window derivation + per-batch (window, user)
    dedup map-side (each batch contributes at most its distinct pairs),
    one global pair-dedup groupby, then a window-keyed count over the
    deduped aggregate — the second exchange moves one row per distinct
    (window, user), never the stream.  Columns
    (window_start, n_users)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "user_id"])

    def derive(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t["ts"], multiple=width_minutes,
                              unit="minute")
        return pa.table({"window_start": w, "user_id": t["user_id"]}) \
            .group_by(["window_start", "user_id"]).aggregate([])

    pairs = (ds.map_batches(derive, batch_format="pyarrow")
             .groupby(["window_start", "user_id"])
             .aggregate(Count(alias_name="_n")))
    out = (pairs.select_columns(["window_start"])
           .groupby("window_start")
           .aggregate(Count(alias_name="n_users")).to_pandas())
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("window_start").reset_index(drop=True)


def user_gap_stats(sf_dir: str):
    """Per-user inter-arrival statistics: event count, mean and max gap
    in seconds between consecutive events (the SQL ``lag()`` window
    shape; liveness/engagement profiling).

    Distributed shape: users go through ``bucketed_apply``; one
    vectorized (user, ts, event_id) sort + masked shifted-difference pass per
    bucket computes every user's gap stats at once (segment boundaries
    mask the cross-user gap; round 5 — was one Python call per user),
    the driver sees one Arrow row per user.  Single-event users report
    0 gaps (SQL: avg/max over an empty lag set -> NULL, mirrored as
    0.0 via coalesce in the oracle).  Columns
    (user_id, n_events, mean_gap_sec, max_gap_sec)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id"])

    def gaps(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        ts = _us(g["ts"])
        same = np.zeros(u.size, dtype=bool)
        same[1:] = u[1:] == u[:-1]
        d = np.zeros(u.size, np.float64)
        d[1:] = (ts[1:] - ts[:-1]) / 1e6
        uu, inv = np.unique(u, return_inverse=True)
        n_ev = np.bincount(inv)
        n_gap = np.bincount(inv, weights=same.astype(np.float64))
        dsum = np.bincount(inv, weights=np.where(same, d, 0.0))
        dmax = np.zeros(uu.size, np.float64)
        np.maximum.at(dmax, inv[same], d[same])
        mean = np.where(n_gap > 0, dsum / np.maximum(n_gap, 1), 0.0)
        return pa.table({
            "user_id": pa.array(uu, pa.int64()),
            "n_events": pa.array(n_ev.astype(np.int64), pa.int64()),
            "mean_gap_sec": pa.array(np.round(mean, 4), pa.float64()),
            "max_gap_sec": pa.array(np.round(dmax, 4), pa.float64()),
        })

    out = bucketed_apply(ds, "user_id", gaps).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def transition_matrix(sf_dir: str):
    """Event-type transition counts: for each consecutive (by ts, ties
    by event_id) pair of events of the SAME user, count
    (type_from, type_to) — the Markov-chain / next-action shape (SQL
    ``lead()`` window).

    Distributed shape: users go through ``bucketed_apply``; one
    vectorized (user, ts, event_id) sort per bucket emits every user's adjacent
    pairs at once (a same-user mask drops the cross-user shift), and
    the per-bucket partial pair counts leave as Arrow before the final
    tiny Sum groupby (round 5 — was one Python call per user).
    Columns (type_from, type_to, n)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type", "event_id"])

    def shifts(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        et = g["event_type"].to_numpy()
        same = u[1:] == u[:-1]
        d = pd.DataFrame({"type_from": et[:-1][same],
                          "type_to": et[1:][same]})
        c = (d.groupby(["type_from", "type_to"]).size()
             .reset_index(name="n"))
        return pa.table({
            "type_from": pa.array(c["type_from"], pa.string()),
            "type_to": pa.array(c["type_to"], pa.string()),
            "n": pa.array(c["n"].to_numpy(np.int64), pa.int64()),
        })

    out = (bucketed_apply(ds, "user_id", shifts)
           .groupby(["type_from", "type_to"])
           .aggregate(Sum("n", alias_name="n")).to_pandas())
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["type_from", "type_to"]).reset_index(drop=True)


def daily_running_total(sf_dir: str):
    """Per-type daily value sums with a running (cumulative) total —
    the unbounded-preceding window frame (SQL
    ``SUM(...) OVER (... ROWS UNBOUNDED PRECEDING)``).

    Distributed shape: one (event_type, day) shuffle-aggregate; the
    cumulative scan runs over that aggregate-sized frame (|days| ×
    |types| rows).  Columns (event_type, day, day_value, running)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])

    def derive(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        return pa.table({"event_type": t["event_type"], "day": day,
                         "value": t["value"]})

    daily = (ds.map_batches(derive, batch_format="pyarrow")
             .groupby(["event_type", "day"])
             .aggregate(Sum("value", alias_name="day_value")).to_pandas())
    daily = daily.sort_values(["event_type", "day"]).reset_index(drop=True)
    daily["running"] = (daily.groupby("event_type")["day_value"].cumsum()
                        .round(4))
    daily["day_value"] = daily["day_value"].round(4)
    return daily[["event_type", "day", "day_value", "running"]]


def props_stats_per_type(sf_dir: str):
    """Semi-structured ETL: parse the JSON ``props`` column, extract the
    numeric ``k`` field, aggregate per event type (the
    JSON-column-to-metrics shape every log pipeline runs).

    Distributed shape: extraction is a VECTORIZED Arrow regex
    (``extract_regex`` over the fixed-schema payload — no per-row
    json.loads in the hot path; a malformed row falls back to null and
    is dropped, matching SQL json_extract -> NULL), followed by one
    tiny per-type aggregate.  Columns (event_type, n, k_mean, k_max)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Mean

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        arr = t["props"]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = pc.fill_null(arr, "")
        m = pc.extract_regex(arr, pattern=r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        out = pa.table({"event_type": t["event_type"], "k": k})
        return out.filter(pc.is_valid(k))

    out = (ds.map_batches(extract, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Count(alias_name="n"),
                      Mean("k", alias_name="k_mean"),
                      Max("k", alias_name="k_max"))
           .to_pandas())
    out["n"] = out["n"].astype("int64")
    out["k_mean"] = out["k_mean"].round(6)
    out["k_max"] = out["k_max"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def zscore_anomalies(sf_dir: str, *, z_thresh: float = 2.0):
    """Volume-anomaly detection: per-type daily event counts, flagged
    where the count sits more than ``z_thresh`` population standard
    deviations from that type's own daily mean — the alerting shape
    every ops/metrics pipeline runs nightly.

    Distributed shape: one (event_type, day) shuffle-aggregate over the
    raw stream; the per-type mean/std and the z-test then run over that
    aggregate (|types| x |days| rows — tiny), never touching raw
    events again.  Columns (event_type, day, n, z)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])

    def derive(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        return pa.table({"event_type": t["event_type"], "day": day})

    daily = (ds.map_batches(derive, batch_format="pyarrow")
             .groupby(["event_type", "day"])
             .aggregate(Count(alias_name="n")).to_pandas())
    daily["n"] = daily["n"].astype("int64")
    g = daily.groupby("event_type")["n"]
    mu = g.transform("mean")
    sd = g.transform(lambda s: float(np.std(s.to_numpy(), ddof=0)))
    daily["z"] = ((daily["n"] - mu) / sd).round(6)
    out = daily[(sd > 0) & (daily["z"].abs() > z_thresh)]
    return (out[["event_type", "day", "n", "z"]]
            .sort_values(["event_type", "day"]).reset_index(drop=True))


def hourly_profile(sf_dir: str):
    """Hour-of-day seasonality profile: per (event_type, hour-of-day)
    event count and mean value — the diurnal-pattern shape behind every
    traffic dashboard and load forecaster.

    Distributed shape: hour extraction is a vectorized Arrow temporal
    kernel inside ``map_batches``; one (type, hod) shuffle-aggregate
    with map-side combine emits at most |types| x 24 rows.
    Columns (event_type, hod, n, v_mean)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Mean

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])

    def derive(t: pa.Table) -> pa.Table:
        hod = pc.cast(pc.hour(t["ts"]), pa.int64())
        return pa.table({"event_type": t["event_type"], "hod": hod,
                         "value": t["value"]})

    out = (ds.map_batches(derive, batch_format="pyarrow")
           .groupby(["event_type", "hod"])
           .aggregate(Count(alias_name="n"),
                      Mean("value", alias_name="v_mean"))
           .to_pandas())
    out["n"] = out["n"].astype("int64")
    out["hod"] = out["hod"].astype("int64")
    out["v_mean"] = out["v_mean"].round(6)
    return (out.sort_values(["event_type", "hod"])
            .reset_index(drop=True))


def daily_ema(sf_dir: str, *, alpha: float = 0.3, window: int = 14):
    """Truncated exponential moving average over per-type daily counts:
    ema_i = sum_{d=0..w-1} (1-a)^d * n_{i-d} / sum_d (1-a)^d over the
    type's OBSERVED days in order — the exponential-smoothing shape
    (finite window keeps it expressible as a bounded self-join for the
    SQL oracle and as one causal convolution here).

    Distributed shape: one (event_type, day) shuffle-aggregate; the EMA
    is a per-type ``np.convolve`` with the fixed geometric weight
    vector over the aggregate-sized frame (|types| x |days| rows).
    Columns (event_type, day, n, ema)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])

    def derive(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        return pa.table({"event_type": t["event_type"], "day": day})

    daily = (ds.map_batches(derive, batch_format="pyarrow")
             .groupby(["event_type", "day"])
             .aggregate(Count(alias_name="n")).to_pandas())
    daily["n"] = daily["n"].astype("int64")
    daily = daily.sort_values(["event_type", "day"]).reset_index(drop=True)
    w = np.power(1.0 - alpha, np.arange(window, dtype=np.float64))

    def ema(s: pd.Series) -> pd.Series:
        n = s.to_numpy(np.float64)
        num = np.convolve(n, w)[:n.size]
        den = np.convolve(np.ones_like(n), w)[:n.size]
        return pd.Series(np.round(num / den, 6), index=s.index)

    daily["ema"] = daily.groupby("event_type")["n"].transform(ema)
    return daily[["event_type", "day", "n", "ema"]]


def session_stats(sf_dir: str, *, gap_minutes: int = 30,
                  round_to: int = 4):
    """Global sessionization summary: number of sessions, mean session
    duration, mean/max events per session, under the same >=gap break
    rule as ``session_windows`` — the health-dashboard scalar rollup.

    Distributed shape: users go through ``bucketed_apply``; one
    vectorized (user, ts) sort + break mask per bucket emits ONE Arrow ROW PER
    SESSION (duration, size) for every user at once (round 5 — was one
    Python call per user); the raw stream and even the session table
    never reach the driver — a final scalar aggregate returns one row.
    Columns (n_sessions, mean_duration_sec, mean_events, max_events)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Mean

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])
    gap64 = np.timedelta64(gap_minutes * 60, "s").astype("timedelta64[us]")

    def sess(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts"].to_numpy().astype("datetime64[us]")
        brk = np.ones(t.size, dtype=bool)
        brk[1:] = (u[1:] != u[:-1]) | ((t[1:] - t[:-1]) >= gap64)
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], t.size) - 1
        dur = (t[ends] - t[starts]) / np.timedelta64(1, "s")
        n = np.append(starts[1:], t.size) - starts
        return pa.table({
            "duration_sec": pa.array(dur.astype(np.float64),
                                     pa.float64()),
            "n_events": pa.array(n.astype(np.int64), pa.int64())})

    agg = bucketed_apply(ds, "user_id", sess).aggregate(
        Count(alias_name="n_sessions"),
        Mean("duration_sec", alias_name="mean_duration_sec"),
        Mean("n_events", alias_name="mean_events"),
        Max("n_events", alias_name="max_events"))
    return pd.DataFrame({
        "n_sessions": pd.array([agg["n_sessions"]], dtype="int64"),
        "mean_duration_sec": [round(float(agg["mean_duration_sec"]), round_to)],
        "mean_events": [round(float(agg["mean_events"]), 6)],
        "max_events": pd.array([agg["max_events"]], dtype="int64"),
    })


def new_users_daily(sf_dir: str):
    """Growth accounting: per day, the number of FIRST-TIME users and
    the cumulative registered-user curve — the running-COUNT-DISTINCT
    shape solved without any distinct scan: first-seen day per user is
    one groupby-min, the daily counts and cumsum run on that
    |users|-row aggregate.  Columns (day, n_new, cum_users)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Min

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])

    def derive(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        return pa.table({"user_id": t["user_id"], "day": day})

    first = (ds.map_batches(derive, batch_format="pyarrow")
             .groupby("user_id").aggregate(Min("day", alias_name="fd")))
    daily = (first.groupby("fd").aggregate(Count(alias_name="n_new"))
             .to_pandas())
    daily = daily.sort_values("fd").reset_index(drop=True)
    daily["n_new"] = daily["n_new"].astype("int64")
    daily["cum_users"] = daily["n_new"].cumsum().astype("int64")
    return daily.rename(columns={"fd": "day"})[["day", "n_new", "cum_users"]]


def value_histogram(sf_dir: str, *, interval: float = 10.0):
    """ES ``histogram`` aggregation over the value column: fixed-width
    buckets keyed by floor(value/interval)*interval, with count and
    value sum per bucket.

    Distributed shape: bucket assignment is one vectorized Arrow
    floor-divide inside ``map_batches``; one bucket-keyed
    shuffle-aggregate with map-side combine.  Columns
    (bucket, n, value_sum)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

    def derive(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        b = np.floor(v / interval) * interval
        return pa.table({"bucket": pa.array(b, pa.float64()),
                         "value": t["value"]})

    out = (ds.map_batches(derive, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Count(alias_name="n"),
                      Sum("value", alias_name="value_sum"))
           .to_pandas())
    out["n"] = out["n"].astype("int64")
    out["value_sum"] = out["value_sum"].round(4)
    return out.sort_values("bucket").reset_index(drop=True)


def latest_event_per_user(sf_dir: str):
    """SQL argmax / DISTINCT ON shape: each user's LATEST event row
    (ties on ts broken by event_id desc) — the current-state snapshot
    every CDC/profile pipeline derives from an append-only log.

    Distributed shape: users go through ``bucketed_apply``; one
    vectorized (user, ts, event_id) lexsort per bucket takes every user's last
    row at once via segment ends (round 5 — was one Python call per
    user) — the log never globally sorts.
    Columns (user_id, ts, event_type, value)."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type", "value"])

    def latest(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        ends = np.append(np.flatnonzero(u[1:] != u[:-1]), u.size - 1)
        r = g.iloc[ends]
        return pa.table({
            "user_id": pa.array(r["user_id"].to_numpy(np.int64),
                                pa.int64()),
            "ts": pa.array(r["ts"].to_numpy().astype("datetime64[us]")),
            "event_type": pa.array(r["event_type"], pa.string()),
            "value": pa.array(r["value"].to_numpy(np.float64).round(4),
                              pa.float64()),
        })

    out = bucketed_apply(ds, "user_id", latest).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def daily_pct_change(sf_dir: str):
    """Day-over-day percent change of per-type daily counts (the lag
    arithmetic window: (n - lag(n)) / lag(n)) — first day per type has
    no prior and is omitted, matching the SQL lag() NULL drop.

    Distributed shape: one (event_type, day) shuffle-aggregate; the lag
    arithmetic runs on that aggregate-sized frame.
    Columns (event_type, day, n, pct_change)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])

    def derive(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        return pa.table({"event_type": t["event_type"], "day": day})

    daily = (ds.map_batches(derive, batch_format="pyarrow")
             .groupby(["event_type", "day"])
             .aggregate(Count(alias_name="n")).to_pandas())
    daily["n"] = daily["n"].astype("int64")
    daily = daily.sort_values(["event_type", "day"]).reset_index(drop=True)
    prev = daily.groupby("event_type")["n"].shift(1)
    daily["pct_change"] = ((daily["n"] - prev) / prev).round(6)
    out = daily.dropna(subset=["pct_change"])
    return out[["event_type", "day", "n", "pct_change"]] \
        .reset_index(drop=True)


def weekly_conversion(sf_dir: str, *, from_type: str = "view",
                      to_type: str = "purchase", round_to: int = 6):
    """Weekly funnel conversion: per week, distinct users who did
    ``from_type``, distinct users who did BOTH types that week, and the
    conversion rate — the cohorted KPI time series.

    Distributed shape: map-side distinct (week, user, type) triples,
    one triple-keyed groupby, then a per-(week,user) flag rollup and a
    |weeks|-row aggregate — raw events shuffle once as distinct
    triples.  Columns (week, n_from, n_both, conversion)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "user_id", "event_type"])

    def derive(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array([from_type, to_type]))
        f = t.filter(keep)
        wk = pc.floor_temporal(f["ts"], unit="week")
        tb = pa.table({"week": wk, "user_id": f["user_id"],
                       "event_type": f["event_type"]})
        return tb.group_by(["week", "user_id", "event_type"]).aggregate([])

    triples = (ds.map_batches(derive, batch_format="pyarrow")
               .groupby(["week", "user_id", "event_type"])
               .aggregate(Count(alias_name="_n")))

    def flags(t: pa.Table) -> pa.Table:
        is_from = pc.cast(pc.equal(t["event_type"], from_type), pa.int64())
        is_to = pc.cast(pc.equal(t["event_type"], to_type), pa.int64())
        return pa.table({"week": t["week"], "user_id": t["user_id"],
                         "f": is_from, "t": is_to})

    per_user = (triples.map_batches(flags, batch_format="pyarrow")
                .groupby(["week", "user_id"])
                .aggregate(Max("f", alias_name="f"),
                           Max("t", alias_name="t")))

    def both(t: pa.Table) -> pa.Table:
        f = t["f"].to_numpy(zero_copy_only=False)
        tt = t["t"].to_numpy(zero_copy_only=False)
        return pa.table({"week": t["week"],
                         "n_from": pa.array(f.astype(np.int64), pa.int64()),
                         "n_both": pa.array((f & tt).astype(np.int64),
                                            pa.int64())})

    agg = (per_user.map_batches(both, batch_format="pyarrow")
           .groupby("week")
           .aggregate(Sum("n_from", alias_name="n_from"),
                      Sum("n_both", alias_name="n_both")).to_pandas())
    agg = agg[agg["n_from"] > 0]
    agg["n_from"] = agg["n_from"].astype("int64")
    agg["n_both"] = agg["n_both"].astype("int64")
    agg["conversion"] = (agg["n_both"] / agg["n_from"]).round(round_to)
    return agg.sort_values("week").reset_index(drop=True)


def stickiness(sf_dir: str, *, round_to: int = 6):
    """DAU/MAU stickiness per month: average daily-active users divided
    by monthly-active users — the engagement KPI.

    Distributed shape: map-side distinct (day, user) pairs feed one
    pair-keyed groupby; daily actives and monthly actives reduce from
    that aggregate, never from raw events.
    Columns (month, avg_dau, mau, stickiness)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "user_id"])

    def derive(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        tb = pa.table({"day": day, "user_id": t["user_id"]})
        return tb.group_by(["day", "user_id"]).aggregate([])

    pairs = (ds.map_batches(derive, batch_format="pyarrow")
             .groupby(["day", "user_id"]).aggregate(Count(alias_name="_n"))
             .to_pandas())
    pairs["month"] = pairs["day"].dt.to_period("M").dt.to_timestamp()
    dau = (pairs.groupby(["month", "day"]).size()
           .groupby("month").mean())
    mau = pairs.groupby("month")["user_id"].nunique()
    out = pd.DataFrame({
        "month": dau.index,
        "avg_dau": dau.round(round_to).to_numpy(),
        "mau": mau.loc[dau.index].astype("int64").to_numpy(),
    })
    out["stickiness"] = (out["avg_dau"] / out["mau"]).round(round_to)
    return out.sort_values("month").reset_index(drop=True)


def bounce_rate(sf_dir: str, *, gap_minutes: int = 30,
                round_to: int = 6):
    """Per-day bounce rate: of the sessions STARTING each day, the
    fraction containing exactly one event — the engagement-quality KPI
    derived from the same >=gap sessionization as ``session_windows``.

    Distributed shape: users go through ``bucketed_apply``; the
    vectorized per-bucket session kernel (same break-mask segment arithmetic as
    ``session_windows``) emits one Arrow row per session (start day,
    bounce flag) for every user at once; a |days|-row aggregate
    finishes.  Columns (day, n_sessions, n_bounce, bounce_rate)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])
    gap64 = np.timedelta64(gap_minutes * 60, "s").astype("timedelta64[us]")

    def sess(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts"].to_numpy().astype("datetime64[us]")
        brk = np.ones(t.size, dtype=bool)
        brk[1:] = (u[1:] != u[:-1]) | ((t[1:] - t[:-1]) >= gap64)
        starts = np.flatnonzero(brk)
        n = np.append(starts[1:], t.size) - starts
        day = t[starts].astype("datetime64[D]").astype("datetime64[us]")
        return pa.table({
            "day": pa.array(day),
            "one": pa.array(np.ones(starts.size, np.int64), pa.int64()),
            "bounce": pa.array((n == 1).astype(np.int64), pa.int64()),
        })

    agg = (bucketed_apply(ds, "user_id", sess)
           .groupby("day")
           .aggregate(Sum("one", alias_name="n_sessions"),
                      Sum("bounce", alias_name="n_bounce")).to_pandas())
    agg["n_sessions"] = agg["n_sessions"].astype("int64")
    agg["n_bounce"] = agg["n_bounce"].astype("int64")
    agg["bounce_rate"] = (agg["n_bounce"] / agg["n_sessions"]) \
        .round(round_to)
    return agg.sort_values("day").reset_index(drop=True)


def user_activity_histogram(sf_dir: str, *, interval: int = 10):
    """Power-user curve: distribution of per-user event counts in
    fixed-width buckets (floor(n/interval)*interval) — the engagement
    histogram behind "how heavy is our heavy tail".

    Distributed shape: one user-keyed count aggregate, then a
    bucket-keyed rollup of that |users|-row frame — raw events shuffle
    once as (user, count) partials.  Columns (bucket, n_users,
    total_events)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from .dedup import _strip_meta

    ds = _strip_meta(rd.read_parquet(f"{sf_dir}/events.parquet",
                                     columns=["user_id"]))
    per_user = ds.groupby("user_id").aggregate(Count(alias_name="n"))

    def bucketize(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (n // interval) * interval
        return pa.table({"bucket": pa.array(b, pa.int64()),
                         "one": pa.array(np.ones_like(n), pa.int64()),
                         "n": pa.array(n, pa.int64())})

    out = (per_user.map_batches(bucketize, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Sum("one", alias_name="n_users"),
                      Sum("n", alias_name="total_events")).to_pandas())
    for c in ("bucket", "n_users", "total_events"):
        out[c] = out[c].astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


def time_to_convert(sf_dir: str, *, from_type: str = "view",
                    to_type: str = "purchase", round_to: int = 4):
    """Time-to-conversion distribution: per converting user, seconds
    from their FIRST ``from_type`` to the first ``to_type`` at-or-after
    it; reported as one summary row (n_converted, mean, median, max) —
    the latency-funnel KPI.

    Distributed shape: users go through ``bucketed_apply``; two C-level
    passes per bucket (per-user min from-time, then per-user min
    to-time at-or-after it) compute every converting user's delta at
    once (round 5 — was one Python call per user); the |users|-row
    Arrow frame reduces to one row (median exact on the aggregate).
    Columns (n_converted, mean_sec, median_sec, max_sec)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type"])

    def delta(g: pd.DataFrame) -> pa.Table:
        f = (g[g["event_type"] == from_type]
             .groupby("user_id")["ts"].min())
        t = g[g["event_type"] == to_type]
        t0 = t["user_id"].map(f)
        t = t[t["ts"] >= t0]  # NaT (never-from users) compares False
        t1 = t.groupby("user_id")["ts"].min()
        d = ((t1 - f.loc[t1.index])
             / pd.Timedelta(seconds=1)).to_numpy(np.float64)
        return pa.table({"d": pa.array(d, pa.float64())})

    deltas = bucketed_apply(ds, "user_id", delta).to_pandas()
    d = deltas["d"].to_numpy(np.float64)
    if d.size == 0:
        return pd.DataFrame({"n_converted": pd.array([0], dtype="int64"),
                             "mean_sec": [float("nan")],
                             "median_sec": [float("nan")],
                             "max_sec": [float("nan")]})
    return pd.DataFrame({
        "n_converted": pd.array([d.size], dtype="int64"),
        "mean_sec": [round(float(d.mean()), round_to)],
        "median_sec": [round(float(np.median(d)), round_to)],
        "max_sec": [round(float(d.max()), round_to)],
    })


def user_type_entropy(sf_dir: str, *, k: int = 50, round_to: int = 6):
    """Engagement-diversity report: Shannon entropy (natural log) of
    each user's event-type distribution — 0 for single-type users,
    ln(|types|) for uniform ones.  Returns the first ``k`` users by id.

    Distributed shape: map-side distinct-pair counts feed one
    (user, type) groupby; users then go through ``bucketed_apply`` and
    one vectorized segment pass per bucket folds every user's entropy at
    once (round 5 — was one Python call per user).
    Columns (user_id, n_events, entropy)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    from .dedup import _strip_meta

    ds = _strip_meta(rd.read_parquet(f"{sf_dir}/events.parquet",
                                     columns=["user_id", "event_type"]))
    counts = (ds.groupby(["user_id", "event_type"])
              .aggregate(Count(alias_name="n"))
              .select_columns(["user_id", "n"]))

    def ent(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("user_id", kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.float64)
        uu, inv = np.unique(u, return_inverse=True)
        tot = np.bincount(inv, weights=n)
        p = n / tot[inv]
        h = np.bincount(inv, weights=-(p * np.log(p)))
        return pa.table({
            "user_id": pa.array(uu, pa.int64()),
            "n_events": pa.array(tot.astype(np.int64), pa.int64()),
            "entropy": pa.array(np.round(h, round_to), pa.float64()),
        })

    out = bucketed_apply(counts, "user_id", ent).to_pandas()
    return (out.sort_values("user_id").head(k)
            .reset_index(drop=True))


def weekly_churn(sf_dir: str, *, round_to: int = 6):
    """Weekly churn-rate series: of the users active in week W, the
    fraction with NO event in week W+1 (reported against W+1, the week
    they went missing).  The complement of week-over-week retention.

    Distributed shape: per-batch distinct (user_id, week) pairs
    (map-side combine) -> one global pair-dedup groupby -> users go
    through ``bucketed_apply`` (a pandas self-merge on (user, week+7d)
    marks presence for every user at once; the per-bucket partial
    count collapses to |weeks| Arrow rows before the exchange — pandas
    blocks entering a shuffle are ~20x slower, round-4 finding) -> a
    final |weeks|-row Sum aggregate.  Columns (week, active_prev,
    churned, churn_rate)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])

    def derive(t: pa.Table) -> pa.Table:
        wk = pc.floor_temporal(t["ts"], unit="week")
        return pa.table({"user_id": t["user_id"], "wk": wk}) \
            .group_by(["user_id", "wk"]).aggregate([])

    pairs = (ds.map_batches(derive, batch_format="pyarrow")
             .groupby(["user_id", "wk"]).aggregate(Count(alias_name="_n"))
             .materialize())
    max_wk = pairs.aggregate(Max("wk", alias_name="m"))["m"]
    max_wk64 = np.datetime64(max_wk, "us")
    week_us = np.timedelta64(7, "D").astype("timedelta64[us]")

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        d = pd.DataFrame({
            "user_id": g["user_id"].to_numpy(np.int64),
            "wk": g["wk"].to_numpy().astype("datetime64[us]"),
        })
        q = d[d["wk"] < max_wk64].copy()
        empty = pa.table({"week": pa.array([], pa.timestamp("us")),
                          "active_prev": pa.array([], pa.int64()),
                          "churned": pa.array([], pa.int64())})
        if not len(q):
            return empty
        q["week"] = q["wk"] + week_us
        m = q.merge(d, left_on=["user_id", "week"],
                    right_on=["user_id", "wk"], how="left",
                    suffixes=("", "_r"))
        m["churned"] = m["wk_r"].isna().astype("int64")
        c = (m.groupby("week")
             .agg(active_prev=("churned", "size"),
                  churned=("churned", "sum")).reset_index())
        return pa.table({
            "week": pa.array(c["week"].to_numpy().astype("datetime64[us]")),
            "active_prev": pa.array(c["active_prev"].to_numpy(np.int64),
                                    pa.int64()),
            "churned": pa.array(c["churned"].to_numpy(np.int64),
                                pa.int64()),
        })

    out = (bucketed_apply(pairs.select_columns(["user_id", "wk"]),
                          "user_id", per_bucket)
           .groupby("week")
           .aggregate(Sum("active_prev", alias_name="active_prev"),
                      Sum("churned", alias_name="churned")).to_pandas())
    out["active_prev"] = out["active_prev"].astype("int64")
    out["churned"] = out["churned"].astype("int64")
    out["churn_rate"] = (out["churned"] / out["active_prev"]).round(round_to)
    return out.sort_values("week").reset_index(drop=True)


def user_value_quartiles(sf_dir: str, *, tiles: int = 4,
                         round_to: int = 6):
    """Per-user NTILE(4) over event values, rolled up per tile: each
    user's events are split into equal quartiles by (value, event_id)
    order, then tile 1..4 aggregates across all users — the
    within-entity window-function shape (SQL ``NTILE(4) OVER
    (PARTITION BY user_id ORDER BY value, event_id)``).

    Distributed shape: users go through ``bucketed_apply`` (one
    shuffle); one vectorized lexsort per bucket assigns every user's
    tiles at once via segment-rank arithmetic (SQL NTILE sizing: the
    first n%k tiles get one extra row); only (tile, partial sums) leave
    the bucket, as Arrow (pandas blocks entering a shuffle are ~20x
    slower, round-4 finding).  Columns (tile, n, mean_value)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id", "value"])

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        order = np.lexsort((g["event_id"].to_numpy(),
                            g["value"].to_numpy(),
                            g["user_id"].to_numpy()))
        u = g["user_id"].to_numpy(np.int64)[order]
        v = g["value"].to_numpy(np.float64)[order]
        n = u.size
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        sizes = np.diff(np.append(starts, n))
        # rank within user, then SQL NTILE: first n%k tiles one bigger
        rank = np.arange(n) - np.repeat(starts, sizes)
        nn = np.repeat(sizes, sizes).astype(np.int64)
        base, extra = nn // tiles, nn % tiles
        big = extra * (base + 1)  # rows covered by the bigger tiles
        tile = np.where(
            rank < big, rank // np.maximum(base + 1, 1),
            extra + (rank - big) // np.maximum(base, 1)) + 1
        s = np.bincount(tile, weights=v, minlength=tiles + 1)[1:]
        cnt = np.bincount(tile, minlength=tiles + 1)[1:]
        keep = cnt > 0
        return pa.table({
            "tile": pa.array(np.arange(1, tiles + 1)[keep], pa.int64()),
            "n": pa.array(cnt[keep].astype(np.int64), pa.int64()),
            "s": pa.array(s[keep], pa.float64()),
        })

    agg = (bucketed_apply(ds, "user_id", per_bucket)
           .groupby("tile")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("s", alias_name="s")).to_pandas())
    out = pd.DataFrame({
        "tile": agg["tile"].astype("int64"),
        "n": agg["n"].astype("int64"),
        "mean_value": (agg["s"] / agg["n"]).round(round_to),
    })
    return out.sort_values("tile").reset_index(drop=True)


def first_last_drift(sf_dir: str, *, round_to: int = 6):
    """FIRST_VALUE/LAST_VALUE window rollup: each user's first and last
    event value (by ts, event_id order), aggregated into a drift
    report — how many users ended higher vs lower than they started
    and the mean delta.  The per-entity endpoints shape (SQL
    ``first_value/last_value OVER (PARTITION BY user ORDER BY ...)``)
    with an aggregate-sized result.

    Distributed shape: per-batch per-user (argmin, argmax) endpoint
    partials — each batch contributes at most one candidate pair per
    user it sees — then candidates go through ``bucketed_apply`` and one
    vectorized lexsort per bucket merges every user's endpoints at
    once (round 5 — was one Python call per user), emitting per-bucket
    partial sums as Arrow; the final aggregate is one row.
    Columns (n_users, n_up, n_down, n_flat, mean_delta)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id", "value"])

    def endpoints(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        val = t["value"].to_numpy(zero_copy_only=False)
        # order within the batch by (ts, event_id) once; first/last per
        # user are then the first/last hit in that order
        order = np.lexsort((eid, ts))
        uo, to_, eo, vo = uid[order], ts[order], eid[order], val[order]
        u, first_idx = np.unique(uo, return_index=True)
        # last occurrence: unique on the reversed array
        ur, last_rev = np.unique(uo[::-1], return_index=True)
        last_idx = uo.size - 1 - last_rev
        return pa.table({
            "user_id": pa.array(u),
            "f_ts": pa.array(to_[first_idx]),
            "f_eid": pa.array(eo[first_idx]),
            "f_val": pa.array(vo[first_idx], pa.float64()),
            "l_ts": pa.array(to_[last_idx]),
            "l_eid": pa.array(eo[last_idx]),
            "l_val": pa.array(vo[last_idx], pa.float64()),
        })

    def merge(g: pd.DataFrame) -> pa.Table:
        u = g["user_id"].to_numpy(np.int64)
        # per-user global first: lexsort by (user, f_ts, f_eid), take
        # segment starts; global last: (user, l_ts, l_eid), segment ends
        fo = np.lexsort((g["f_eid"].to_numpy(),
                         g["f_ts"].to_numpy(), u))
        uf = u[fo]
        fstart = fo[np.flatnonzero(np.r_[True, uf[1:] != uf[:-1]])]
        lo = np.lexsort((g["l_eid"].to_numpy(),
                         g["l_ts"].to_numpy(), u))
        ul = u[lo]
        lend = lo[np.append(np.flatnonzero(ul[1:] != ul[:-1]),
                            ul.size - 1)]
        d = (g["l_val"].to_numpy(np.float64)[lend]
             - g["f_val"].to_numpy(np.float64)[fstart])
        return pa.table({
            "up": pa.array([int((d > 0).sum())], pa.int64()),
            "down": pa.array([int((d < 0).sum())], pa.int64()),
            "flat": pa.array([int((d == 0).sum())], pa.int64()),
            "delta": pa.array([float(d.sum())], pa.float64()),
            "one": pa.array([int(d.size)], pa.int64()),
        })

    row = (bucketed_apply(ds.map_batches(endpoints, batch_format="pyarrow"),
                          "user_id", merge)
           .aggregate(Sum("one", alias_name="n"),
                      Sum("up", alias_name="up"),
                      Sum("down", alias_name="down"),
                      Sum("flat", alias_name="flat"),
                      Sum("delta", alias_name="d")))
    n = int(row["n"])
    return pd.DataFrame({
        "n_users": pd.array([n], dtype="int64"),
        "n_up": pd.array([int(row["up"])], dtype="int64"),
        "n_down": pd.array([int(row["down"])], dtype="int64"),
        "n_flat": pd.array([int(row["flat"])], dtype="int64"),
        "mean_delta": [round(float(row["d"]) / n, round_to)],
    })


def watermark_late_counts(sf_dir: str, *, lateness_sec: int = 3600,
                          range_bits: int = 6):
    """Streaming watermark / late-data accounting — the Flink/Beam
    allowed-lateness semantics over an out-of-order stream: an event is
    LATE iff its timestamp is older than (watermark - lateness) at its
    arrival, with watermark = max event-time seen so far.  The
    synthetic stream is generated in time order, so arrival order is a
    DETERMINISTIC md5 permutation of event_id (the hash_split idiom —
    SQL-replicable, machine-independent), which models a shuffled
    network arrival.

    Distributed shape — the global running-max is a PREFIX SCAN over
    fixed ranges of the arrival key (the pack_token_bins two-pass
    pattern, so results are independent of Ray block boundaries):
    pass 1 aggregates one (range, max_ts) row per 2^range_bits key
    range (tiny driver table); the cumulative max of the PRIOR ranges
    broadcasts as each range's incoming watermark; pass 2 scans each
    range arrival-sorted with a local ``np.maximum.accumulate``.  The
    final rollup moves |event_type| rows.
    Columns (event_type, n_events, n_late)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    from .dedup import _md5_u64_tokens, _strip_meta

    shift = np.uint64(64 - range_bits)
    int64_min = np.iinfo(np.int64).min

    def tag(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False)
        a = _md5_u64_tokens(np.array([str(int(i)) for i in ids],
                                     dtype=object))
        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "ts_us": t["ts"].cast(pa.int64()),
            "_a": pa.array(a, pa.uint64()),
            "_rng": pa.array((a >> shift).astype(np.int64), pa.int64()),
        })

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "event_type"])
    tagged = _strip_meta(ds.map_batches(tag, batch_format="pyarrow")
                         ).materialize()
    rmax = (tagged.groupby("_rng").aggregate(Max("ts_us", alias_name="mx"))
            .to_pandas().sort_values("_rng"))
    mx = rmax["mx"].to_numpy(np.int64)
    prior = np.concatenate([[int64_min],
                            np.maximum.accumulate(mx)[:-1]])
    offsets = dict(zip(rmax["_rng"].astype(int), prior.astype(int)))
    ref = ray.put(offsets)
    lateness_us = int(lateness_sec) * 1_000_000

    def scan(g: pd.DataFrame) -> pa.Table:
        off = ray.get(ref)[int(g["_rng"].iloc[0])]
        g = g.sort_values(["_a", "event_id"], kind="mergesort")
        ts = g["ts_us"].to_numpy(np.int64)
        run = np.maximum.accumulate(ts)
        pm = np.concatenate([[int64_min], run[:-1]])
        if off > int64_min:
            pm = np.maximum(pm, off)
        late = (pm > int64_min) & (ts < pm - lateness_us)
        et = g["event_type"].to_numpy()
        u, inv = np.unique(et, return_inverse=True)
        # Arrow output: pandas blocks entering the final shuffle are
        # ~20x slower (round-4 finding)
        return pa.table({
            "event_type": pa.array(u, pa.string()),
            "n_events": pa.array(np.bincount(inv), pa.int64()),
            "n_late": pa.array(
                np.bincount(inv, weights=late.astype(np.float64))
                .astype(np.int64), pa.int64()),
        })

    agg = (tagged.groupby("_rng").map_groups(scan, batch_format="pandas")
           .groupby("event_type")
           .aggregate(Sum("n_events", alias_name="n_events"),
                      Sum("n_late", alias_name="n_late")).to_pandas())
    agg["n_events"] = agg["n_events"].astype("int64")
    agg["n_late"] = agg["n_late"].astype("int64")
    return (agg.sort_values("event_type").reset_index(drop=True)
            [["event_type", "n_events", "n_late"]])


def time_weighted_avg(sf_dir: str, *, round_to: int = 6):
    """Per-user TIME-WEIGHTED average of the event value — the
    irregular-sampling streaming aggregate (each sample holds until the
    next event): twa = Σ value_i·Δt_i / Σ Δt_i with Δt_i the gap to the
    user's next event; users with a single event emit nothing, and so
    do users whose EVERY gap is zero-length (duplicate timestamps only
    — twa would be 0/0; the oracle's HAVING clause encodes the same
    exclusion).

    Distributed shape: users go through ``bucketed_apply`` — per
    bucket, one sort + one shifted-difference pass computes
    every user's weights at once (segment boundaries mask the
    cross-user gap).  Ties on ts break by event_id, matching the SQL
    window's ORDER BY.  Columns (user_id, n_gaps, twa)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])

    def twa(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        ts = _us(g["ts"])
        v = g["value"].to_numpy(np.float64)
        same = np.concatenate([u[1:] == u[:-1], [False]])
        dt = np.concatenate([(ts[1:] - ts[:-1]).astype(np.float64), [0.0]])
        w = np.where(same, dt, 0.0)
        uu, inv = np.unique(u, return_inverse=True)
        wsum = np.bincount(inv, weights=w)
        vw = np.bincount(inv, weights=v * w)
        ngaps = np.bincount(inv, weights=same.astype(np.float64))
        keep = wsum > 0.0
        return pa.table({
            "user_id": pa.array(uu[keep], pa.int64()),
            "n_gaps": pa.array(ngaps[keep].astype(np.int64), pa.int64()),
            "twa": pa.array(np.round(vw[keep] / wsum[keep], round_to),
                            pa.float64()),
        })

    out = bucketed_apply(ds, "user_id", twa).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def windowed_quantiles(sf_dir: str, *, width_minutes: int = 1440,
                       qs=(0.5, 0.95), round_to: int = 6):
    """EXACT per-window value quantiles (percentile_disc semantics) over
    tumbling event-time windows — the windowed-selection aggregate a
    monitoring pipeline runs next to the windowed counts.

    Distributed shape: windows go through ``bucketed_apply`` keyed on
    ``window_start``; per bucket of windows, one sort
    by (window, value) + per-window offset arithmetic reads every
    requested quantile with numpy indexing (percentile_disc index
    ceil(q*n)-1).  Each window's rows are bounded by the window width,
    not the stream length, so the reduce is size-safe at any horizon.
    Columns (window_start, q, value)."""
    import ray.data as rd

    # epoch-origin floor vs DuckDB time_bucket's 2000-01-03 origin:
    # boundaries coincide only for day-dividing widths (round-4 ADVICE)
    assert 1440 % int(width_minutes) == 0, \
        "width_minutes must divide 1440 (day-aligned windows)"

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "value"])

    def derive(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t["ts"], multiple=width_minutes,
                              unit="minute")
        return pa.table({"window_start": w, "value": t["value"]})

    qarr = np.asarray(sorted(qs), np.float64)

    def quant(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["window_start", "value"], kind="mergesort")
        w = g["window_start"].to_numpy()
        v = g["value"].to_numpy(np.float64)
        starts = np.flatnonzero(np.concatenate(
            [[True], w[1:] != w[:-1]]))
        sizes = np.diff(np.concatenate([starts, [len(w)]]))
        # percentile_disc: element at index ceil(q*n) - 1 per window
        idx = (starts[:, None]
               + np.ceil(qarr[None, :] * sizes[:, None]).astype(np.int64)
               - 1)
        n_win = starts.size
        return pa.table({
            "window_start": pa.array(np.repeat(w[starts], qarr.size)),
            "q": pa.array(np.tile(qarr, n_win), pa.float64()),
            "value": pa.array(np.round(v[idx.ravel()], round_to),
                              pa.float64()),
        })

    out = bucketed_apply(ds.map_batches(derive, batch_format="pyarrow"),
                         "window_start", quant).to_pandas()
    return (out.sort_values(["window_start", "q"])
            .reset_index(drop=True))
