"""Block-max WAND: exactness vs the full scorer, unit + engine level."""

import heapq

import numpy as np
import pytest

from yetisearch_ray.search.bm25 import B, K1, idf as idf_fn
from yetisearch_ray.search.wand import BLOCK, TermCursor, wand_topk


def full_scan_topk(terms, dl, avgdl, k):
    """Reference implementation: score every doc, sort, cut."""
    N = dl.size
    scores: dict[int, float] = {}
    for docs, tfw, tidf in terms:
        for d, f in zip(docs, tfw):
            denom = f + K1 * (1.0 - B + B * dl[d] / avgdl)
            scores[int(d)] = scores.get(int(d), 0.0) + tidf * f * (K1 + 1.0) / denom
    items = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return ([d for d, _ in items], [s for _, s in items])


@pytest.mark.parametrize("seed", range(8))
def test_wand_equals_full_scan_random(seed):
    rng = np.random.default_rng(seed)
    N = 5000
    dl = rng.integers(20, 400, N).astype(np.float64)
    avgdl = float(dl.mean())
    nterms = int(rng.integers(1, 5))
    terms = []
    cursors = []
    for _ in range(nterms):
        df = int(rng.integers(5, 2000))
        docs = np.sort(rng.choice(N, df, replace=False)).astype(np.uint64)
        tfw = rng.integers(1, 20, df).astype(np.float64)
        tidf = idf_fn(N, df)
        terms.append((docs, tfw, tidf))
        cursors.append(TermCursor(docs, tfw, tidf))
    k = int(rng.integers(1, 50))
    want_d, want_s = full_scan_topk(terms, dl, avgdl, k)
    got_d, got_s = wand_topk(cursors, lambda ids: dl[ids.astype(np.int64)],
                             avgdl, k)
    assert got_d.tolist() == want_d
    assert np.allclose(got_s, want_s, atol=1e-12)


def test_wand_skips_blocks():
    """With one dominant term, WAND must not evaluate every doc of the
    long tail term."""
    N = 100_000
    dl = np.full(N, 100.0)
    long_docs = np.arange(0, N, 1, dtype=np.uint64)
    long_tfw = np.ones(N)
    hot = TermCursor(long_docs, long_tfw, idf_fn(N, N // 2))
    spike_docs = np.array([10, 20, 30], dtype=np.uint64)
    spike = TermCursor(spike_docs, np.array([50.0, 60.0, 70.0]),
                       idf_fn(N, 3))
    before = hot.n
    d, s = wand_topk([hot, spike], lambda ids: dl[ids.astype(np.int64)],
                     100.0, 3)
    assert set(d.tolist()) == {10, 20, 30}
    # the hot cursor was advanced by seeks, not element-by-element scoring;
    # (we can't count evaluations directly, but the result must be exact
    # and the cursor ended exhausted or far along via galloping)
    assert hot.i >= 0  # structural smoke


@pytest.mark.usefixtures("ray_session")
class TestEngineWand:
    def test_wand_path_matches_full_scorer(self, built_index):
        from yetisearch_ray.search.engine import (
            SearchEngine, compile_query, open_index)

        eng = SearchEngine(open_index(built_index), cache_ttl=0)
        for q in ["parse", "parse buffer", "retry backoff deadline",
                  "return", "montreal cafe"]:
            cq = compile_query(q, eng.analyzer, mode="or")
            assert eng._wand_eligible(cq, fuzzy=False, filters=None,
                                      language=None, geo_filters=None,
                                      unique_by_route=False, min_score=0,
                                      sort=None, post_rescore=False)
            w = eng._field_weight_vector(None)
            full_ids, full_rank = eng._score(cq, w)
            order = np.lexsort((full_ids, full_rank))
            full_ids = full_ids[order][:10]
            full_rank = full_rank[order][:10]
            wd, wr = eng._wand_search(cq, w, 10)
            assert wd.tolist() == full_ids.tolist(), q
            assert np.allclose(np.abs(wr), np.abs(full_rank), atol=1e-9), q

    def test_wand_not_used_with_filters(self, built_index):
        from yetisearch_ray.search.engine import SearchEngine, compile_query, open_index

        eng = SearchEngine(open_index(built_index))
        cq = compile_query("parse", eng.analyzer, mode="or")
        assert not eng._wand_eligible(cq, fuzzy=False,
                                      filters=[{"field": "lang", "value": "go"}],
                                      language=None, geo_filters=None,
                                      unique_by_route=False, min_score=0,
                                      sort=None, post_rescore=False)

    def test_end_to_end_results_unchanged(self, built_index):
        """search() with the WAND fast path gives the same page as the
        exhaustive scan (use_wand=False)."""
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index), cache_ttl=0)
        r = eng.search("parse buffer", mode="or", limit=10, normalize=False,
                       use_wand=True)
        r2 = eng.search("parse buffer", mode="or", limit=10, normalize=False,
                        use_wand=False)
        assert r["doc_id"].to_pylist() == r2["doc_id"].to_pylist()
        a = np.array(r["score"].to_pylist())
        b = np.array(r2["score"].to_pylist())
        assert np.allclose(a, b, atol=1e-9)

    def test_wand_rank_identity_battery(self, built_index):
        """Property: for a battery of OR/smart queries over the fixed
        corpus, the WAND path returns the exact same (doc_id, score)
        page as the exhaustive scan.  (WAND stayed opt-in after the
        round-4 measurement - see engine.py - but its exactness
        contract is pinned here regardless of the default.)"""
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index), cache_ttl=0)
        battery = [("parse", "or"), ("parse buffer", "or"),
                   ("retry backoff deadline", "or"), ("return", "smart"),
                   ("montreal cafe", "or"), ("zzz-nonsense-term", "or")]
        for q, mode in battery:
            auto = eng.search(q, mode=mode, limit=10, normalize=False,
                              use_wand=True)
            scan = eng.search(q, mode=mode, limit=10, normalize=False,
                              use_wand=False)
            assert auto["doc_id"].to_pylist() == scan["doc_id"].to_pylist(), q
            assert np.allclose(np.array(auto["score"].to_pylist()),
                               np.array(scan["score"].to_pylist()),
                               atol=1e-9), q
        # ineligible: a filter forces the scan on both sides
        f = [{"field": "lang", "value": "go"}]
        a = eng.search("parse", mode="or", limit=10, filters=f,
                       normalize=False, use_wand=True)
        b = eng.search("parse", mode="or", limit=10, filters=f,
                       normalize=False, use_wand=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()

    def test_rank_modified_shapes_bypass_wand(self, built_index):
        """Round-4 full-sweep regression: decay, negative-term boosting
        and other post-scoring rank modifiers re-order AFTER BM25, so
        even with use_wand=True the gate must hand them the full
        candidate set — each shape's page must equal the scan page."""
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index), cache_ttl=0)
        shapes = [
            dict(decay_column="doc_id", decay_origin=0.0,
                 decay_scale=100.0),
            dict(negative_terms=["buffer"], negative_boost=0.3),
            dict(term_boosts={"parse": 2.0}),
        ]
        for kw in shapes:
            a = eng.search("parse deadline", mode="or", limit=10,
                           normalize=False, use_wand=True, **kw)
            b = eng.search("parse deadline", mode="or", limit=10,
                           normalize=False, use_wand=False, **kw)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), kw
            assert np.allclose(np.array(a["score"].to_pylist()),
                               np.array(b["score"].to_pylist()),
                               atol=1e-9), kw

    def test_explain_reports_the_path_search_takes(self, built_index,
                                                   monkeypatch):
        """explain() and search() share one WAND gate: over the benchmark
        query set under each rank modifier, with use_wand=True, the
        execution_path explain() reports is the one search() runs."""
        from bench import QUERY_SET
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index), cache_ttl=0)
        taken = []
        wand_search = eng._wand_search

        def spy(*a, **kw):
            taken.append("wand")
            return wand_search(*a, **kw)

        monkeypatch.setattr(eng, "_wand_search", spy)
        modifiers = [
            {},
            dict(rank_column="doc_id", rank_weight=0.5),
            dict(decay_column="doc_id", decay_origin=0.0, decay_scale=100.0),
            dict(negative_terms=["buffer"]),
            dict(restrict_ids=list(range(0, 300, 2))),
            dict(distance_weight=0.5),
            dict(slop=2),
            dict(enable_suggestions=True),
        ]
        seen = set()
        for q, kw in QUERY_SET:
            for mod in modifiers:
                opts = dict(kw, **mod, use_wand=True)
                taken.clear()
                eng.search(q, limit=10, **opts)
                path = "wand" if taken else "scan"
                plan = eng.explain(q, **opts)
                assert plan["execution_path"] == path, (q, opts)
                assert plan["wand_eligible"] == (path == "wand"), (q, opts)
                seen.add(path)
        assert seen == {"wand", "scan"}


@pytest.mark.usefixtures("ray_session")
class TestWandActorPool:
    def test_pool_serves_wand_identical(self, built_index):
        """Block-max WAND served from the stateful actor pool returns the
        same results as the full-scan pool (north-star serving shape)."""
        import ray.data as rd

        from yetisearch_ray.search.engine import SearchActor

        items = [{"qid": i, "query": q, "limit": 10}
                 for i, q in enumerate(["parse", "buffer", "deadline",
                                        "merge", "retry"])]

        def run(defaults):
            out = rd.from_items(items).map_batches(
                SearchActor,
                fn_constructor_kwargs={"index_dir": built_index,
                                       "search_defaults": defaults},
                batch_format="pyarrow", concurrency=1, batch_size=8,
            ).to_pandas().sort_values(["qid", "result_rank"])
            return list(zip(out.qid, out.doc_id, out.result_rank))

        assert run({"use_wand": True}) == run({"use_wand": False})
