"""``stages.bucketed``: the keyed exchange behind the per-key pipeline
operators (events, text statistics, paragraph dedup, Q2 argmin)."""
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import HealthCheck, given, settings, strategies as st

from yetisearch_ray.stages.bucketed import bucket_ids, bucketed_apply

HOUR_US = 3_600_000_000

_INTS = st.integers(-2**40, 2**40)
_STRS = st.text(max_size=6)
_TS = st.integers(0, 24 * 365 * 3).map(
    lambda h: np.datetime64(h * HOUR_US, "us"))
KEY_LISTS = st.one_of(
    st.lists(_INTS, min_size=1, max_size=60),
    st.lists(_STRS, min_size=1, max_size=60),
    st.lists(_TS, min_size=1, max_size=60))


def _arrow(keys):
    if isinstance(keys[0], np.datetime64):
        return pa.array(np.array(keys, dtype="datetime64[us]"))
    return pa.array(keys)


@given(keys=KEY_LISTS, cuts=st.lists(st.integers(0, 60), max_size=4),
       buckets=st.sampled_from([1, 7, 64]))
def test_bucket_depends_on_the_key_alone(keys, cuts, buckets):
    """Batches hash their own dictionary uniques, so a key must get the
    same bucket whatever batch it arrives in."""
    arr = _arrow(keys)
    whole = bucket_ids(arr, buckets)
    assert ((whole >= 0) & (whole < buckets)).all()
    edges = sorted({0, len(keys), *(c for c in cuts if c < len(keys))})
    parts = [bucket_ids(arr.slice(a, b - a), buckets)
             for a, b in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate(parts), whole)
    seen = {}
    for k, b in zip(arr.to_pylist(), whole):
        assert seen.setdefault(k, b) == b


def test_integer_keys_keep_the_modulo_rule():
    keys = np.array([-3, 0, 5, 64, 129, 2**40 + 1], np.int64)
    assert bucket_ids(pa.array(keys)).tolist() == (keys % 64).tolist()
    assert bucket_ids(pd.Series(keys), 7).tolist() == (keys % 7).tolist()


def test_hourly_window_starts_spread_over_buckets():
    """µs % 64 puts every hour-aligned window in bucket 0; the hashed
    bucket must not."""
    starts = np.arange(48, dtype=np.int64) * HOUR_US
    assert (starts % 64 == 0).all()
    b = bucket_ids(pa.array(starts.astype("datetime64[us]")))
    assert len(set(b.tolist())) >= 16


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=KEY_LISTS, n_blocks=st.integers(1, 4))
def test_each_key_reaches_exactly_one_call(ray_session, keys, n_blocks):
    import ray.data as rd

    t = pa.table({"key": _arrow(keys),
                  "row": pa.array(np.arange(len(keys)), pa.int64())})
    step = -(-len(keys) // n_blocks)
    ds = rd.from_arrow([t.slice(i, step) for i in range(0, len(keys), step)])

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"row": g["row"].to_numpy(np.int64),
                             "call": uuid.uuid4().hex,
                             "cols": ",".join(g.columns)})

    out = bucketed_apply(ds, "key", kernel, buckets=5).to_pandas()
    assert sorted(out["row"]) == list(range(len(keys)))
    assert set(out["cols"]) == {"key,row"}  # the bucket column is hidden
    calls = out.set_index("row")["call"]
    by_key = {}
    for k, r in zip(t["key"].to_pylist(), range(len(keys))):
        by_key.setdefault(k, set()).add(calls[r])
    assert all(len(c) == 1 for c in by_key.values())


def test_asof_order_frames_are_the_ones_user_events_reach(ray_session):
    """``join_bucket`` looks up the orders frame by its first user's
    bucket; every user of the call must find all its orders there."""
    import ray
    import ray.data as rd

    from yetisearch_ray.pipelines.events import _asof_buckets

    rng = np.random.default_rng(3)
    cust = rng.integers(0, 400, 2000)
    orders = pd.DataFrame({"o_custkey": cust,
                           "o_orderkey": np.arange(cust.size)})
    ref = ray.put(orders)
    events = rd.from_pandas(pd.DataFrame(
        {"user_id": rng.integers(0, 450, 3000)})).repartition(3)

    def kernel(g: pd.DataFrame) -> pa.Table:
        first = int(bucket_ids(g["user_id"].iloc[:1])[0])
        frame = _asof_buckets(ref).get(first)
        have = set() if frame is None else set(frame["o_orderkey"])
        users = g["user_id"].unique()
        ok = [set(orders.loc[orders.o_custkey == u, "o_orderkey"]) <= have
              for u in users]
        return pa.table({"user_id": users, "ok": ok})

    out = bucketed_apply(events, "user_id", kernel).to_pandas()
    assert out["ok"].all()
    assert sorted(out["user_id"]) == sorted(set(events.to_pandas().user_id))
    frames = _asof_buckets(ref)
    for c in np.unique(cust):
        b = int(bucket_ids(np.array([c]))[0])
        assert (frames[b]["o_custkey"] == c).sum() == (cust == c).sum()
