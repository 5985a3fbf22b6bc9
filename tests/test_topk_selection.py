"""Tie-exact top-k selection (``search/topk.py``) and its users.

``topk_order`` is checked against a full lexsort with ties planted after
rounding; the ANN batch prune against a brute-force global top-k; and
``SearchEngine.search`` against itself with ``topk_order`` swapped for
the full sort, on an index of duplicated documents so that long runs of
equal BM25 ranks straddle every page boundary Hypothesis draws (plain
pages, ``need`` at or past the match size, ``post_rescore``,
``unique_by_route``, geo ``sort_by_distance``, ``min_score``, fuzzy).
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from yetisearch_ray.pipelines.ann import _local_topk
from yetisearch_ray.search import engine as engine_mod
from yetisearch_ray.search.topk import topk_order


def _full(key, ids, k):
    return np.lexsort((ids, key))


# ---------------------------------------------------------------- topk_order
@st.composite
def _tied_keys(draw):
    """(key, ids, k): raw scores drawn from a few levels plus noise below
    the rounding step, so rounding plants ties at every level."""
    n = draw(st.integers(0, 60))
    levels = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    noise = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    raw = np.array(levels, np.float64) / 10 + np.array(noise) * 1e-6
    key = -np.round(raw, 3)
    ids = np.array(draw(st.permutations(range(n))), dtype=np.int64) * 3 + 1
    k = draw(st.integers(0, n + 3))
    return key, ids, k


@settings(max_examples=300, deadline=None)
@given(_tied_keys())
def test_topk_order_matches_full_sort_with_ties(case):
    key, ids, k = case
    got = topk_order(key, ids, k)
    full = _full(key, ids, k)
    m = min(k, key.size)
    assert got[:m].tolist() == full[:m].tolist()
    if 0 < k < key.size:
        kth = key[full[k - 1]]
        # every row tied with the k-th key survives, nothing worse does
        assert sorted(got.tolist()) == np.flatnonzero(key <= kth).tolist()
    # survivors are in (key, id) order
    assert got.tolist() == full[:got.size].tolist()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6000), k=st.integers(1, 60), levels=st.integers(1, 50),
       nan_share=st.sampled_from([0.0, 0.0, 0.3, 1.0]),
       order=st.sampled_from(["random", "ascending", "descending"]),
       seed=st.integers(0, 2**32 - 1))
def test_topk_order_sampled_bound_matches_full_sort(n, k, levels, nan_share,
                                                    order, seed):
    """Sets large enough for the strided-sample bound, with the keys in
    random, ascending or descending row order (the sample is strided)."""
    rng = np.random.default_rng(seed)
    key = -np.round(rng.integers(0, levels, n) / 7 + rng.random(n) * 1e-9, 6)
    key[rng.random(n) < nan_share] = np.nan
    if order != "random":
        key = np.sort(key)[::1 if order == "ascending" else -1].copy()
    ids = rng.permutation(n) * 2
    got = topk_order(key, ids, k)
    full = _full(key, ids, k)
    m = min(k, n)
    assert got[:m].tolist() == full[:m].tolist()
    assert got.tolist() == full[:got.size].tolist()
    if k < n and not np.isnan(key[full[k - 1]]):
        assert got.size == np.count_nonzero(key <= key[full[k - 1]])


def test_topk_order_nan_keys_sort_last():
    key = np.array([np.nan, 1.0, np.nan, 0.5, 1.0])
    ids = np.arange(5)
    for k in range(7):
        m = min(k, 5)
        assert topk_order(key, ids, k)[:m].tolist() == _full(key, ids, k)[:m].tolist()


# ---------------------------------------------------------------- ANN prune
def _brute_ann(ids, sims, k, round_to):
    cos = np.round(sims, round_to)
    o = np.lexsort((ids, -cos))[:k]
    return ids[o].tolist(), cos[o].tolist()


def _pruned_ann(batches, k, round_to):
    parts = [_local_topk(i, s, k, round_to) for i, s in batches]
    ids = np.concatenate([p[0] for p in parts])
    cos = np.concatenate([p[1] for p in parts])
    o = np.lexsort((ids, -cos))[:k]
    return ids[o].tolist(), cos[o].tolist()


def test_ann_prune_keeps_rows_that_round_into_the_tie():
    # raw cosine falls with the id, so the raw top-(k+1) are the highest
    # ids; after rounding all 12 tie and the lowest ids must win
    k, round_to = 3, 3
    ids = np.arange(100, 112, dtype=np.int64)
    sims = 0.5 + (ids - 100) * 1e-6
    ids = np.concatenate([ids, np.arange(200, 260)])
    sims = np.concatenate([sims, np.full(60, 0.1)])
    assert _pruned_ann([(ids, sims)], k, round_to) == \
        _brute_ann(ids, sims, k, round_to) == ([100, 101, 102], [0.5] * 3)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_ann_prune_equals_brute_force(k, n_batches, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    ids = rng.permutation(n * 2)[:n].astype(np.int64)
    # few levels + sub-rounding noise: post-rounding ties across batches
    sims = rng.integers(0, 4, n) / 8 + rng.integers(-3, 4, n) * 1e-7
    cuts = np.sort(rng.integers(0, n + 1, n_batches - 1))
    batches = [(i, s) for i, s in zip(np.split(ids, cuts), np.split(sims, cuts))]
    assert _pruned_ann(batches, k, 4) == _brute_ann(ids, sims, k, 4)


# ------------------------------------------------------ search() selection
N_BASE = 60
COPIES = 5  # each base doc indexed COPIES times: every rank ties COPIES-fold


@pytest.fixture(scope="module")
def tied_index(ray_session, tiny_corpus_dir, tmp_path_factory):
    import ray.data as rd

    from yetisearch_ray.index.build import IndexConfig, build_index

    base = pq.read_table(tiny_corpus_dir).slice(0, N_BASE)
    t = pa.concat_tables([base] * COPIES)
    n = t.num_rows
    i = np.arange(n)
    # copies of one doc share their text but not their location, so a
    # distance re-sort reorders within every rank tie
    t = (t.append_column("doc_id", pa.array(i, pa.uint64()))
          .append_column("lat", pa.array(40.0 + (i * 37 % 101) / 50.0))
          .append_column("lng", pa.array(-3.0 + (i * 53 % 97) / 50.0))
          .append_column("stars", pa.array((i * 7 % 11).astype(np.float64))))
    cfg = IndexConfig(fields=[("path", "path"), ("content", "content")],
                      language_column="lang",
                      store_columns=["repo", "path", "lang", "content",
                                     "lat", "lng", "stars"],
                      num_partitions=4)
    d = str(tmp_path_factory.mktemp("tied")) + "/idx"
    build_index(rd.from_arrow(t), d, cfg, input_fingerprint="tied")
    return d


GEO = {"near": {"lat": 40.8, "lng": -2.1, "radius_km": 500.0},
       "sort_by_distance": True}
MODIFIERS = {
    "plain": {},
    "post_rescore": {"post_rescore": True},
    "unique_by_route": {"unique_by_route": True, "route_column": "repo"},
    "geo_sort_by_distance": {"geo_filters": GEO},
    "min_score": {"min_score": 1.0},
    "fuzzy": {"fuzzy": True},
}


def _table(r):
    return {c: r[c].to_pylist() for c in r.column_names}


def _search_both(eng, monkeypatch, q, kw):
    got = _table(eng.search(q, **kw))
    with monkeypatch.context() as m:
        m.setattr(engine_mod, "topk_order", _full)
        want = _table(eng.search(q, **kw))
    return got, want


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(q=st.sampled_from(["parse", "buffer", "parse buffer", "deadline",
                          "retry backoff"]),
       mode=st.sampled_from(["smart", "or"]),
       offset=st.integers(0, 320), limit=st.integers(1, 120),
       mod=st.sampled_from(sorted(MODIFIERS)),
       normalize=st.booleans())
@example(q="parse", mode="or", offset=0, limit=COPIES * N_BASE + 50,
         mod="plain", normalize=False)  # need past the match size
def test_search_page_equals_full_sort(tied_index, monkeypatch, q, mode,
                                      offset, limit, mod, normalize):
    eng = engine_mod.SearchEngine(engine_mod.open_index(tied_index),
                                  cache_ttl=0.0)
    kw = dict(MODIFIERS[mod], mode=mode, offset=offset, limit=limit,
              normalize=normalize)
    got, want = _search_both(eng, monkeypatch, q, kw)
    assert got == want


def test_page_cut_inside_a_rank_tie(tied_index, monkeypatch):
    """Cut a page inside every tie group: the lowest ids of the group
    fill it, exactly as the full sort orders them."""
    eng = engine_mod.SearchEngine(engine_mod.open_index(tied_index),
                                  cache_ttl=0.0)
    full = eng.search("parse", limit=1000, normalize=False)
    ids, score = full["doc_id"].to_numpy(), full["score"].to_numpy()
    assert ids.size > 4 * COPIES
    starts = np.flatnonzero(np.r_[True, score[1:] != score[:-1]])
    assert np.diff(starts).min() >= COPIES  # ties planted
    for s in starts[:8]:
        for cut in (1, COPIES // 2, COPIES - 1):
            for mod in ("plain", "post_rescore", "unique_by_route"):
                kw = dict(MODIFIERS[mod], limit=int(s + cut), normalize=False)
                got, want = _search_both(eng, monkeypatch, "parse", kw)
                assert got == want, (s, cut, mod)
                if mod == "plain":
                    assert got["doc_id"] == ids[:s + cut].tolist()
