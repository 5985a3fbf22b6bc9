"""Regression tests for the round-1 ADVICE findings.

Each test pins one reviewed bug:
  1. result-cache key must include sort / geo / distance_weight / merge_tokens
  2. post_rescore must widen the candidate pool before truncating to the page
  3. synonyms in mode='and' are OR score arms, not required conjuncts
  4. rebuild_index keeps the sha256 docstore column + content_hash_column cfg
"""
import os

import pyarrow.parquet as pq
import pytest

from yetisearch_ray.index.manifest import Manifest
from yetisearch_ray.search.engine import SearchEngine, open_index


@pytest.mark.usefixtures("ray_session")
class TestAdviceRegressions:
    def test_cache_key_includes_sort(self, built_index):
        eng = SearchEngine(open_index(built_index), cache_ttl=300.0)
        up = eng.search("return", limit=10, sort=("path", "asc"),
                        with_docs=True)["path"].to_pylist()
        down = eng.search("return", limit=10, sort=("path", "desc"),
                          with_docs=True)["path"].to_pylist()
        assert up == sorted(up)
        assert down == sorted(down, reverse=True)
        assert up != down

    def test_cache_key_includes_distance_weight_and_merge(self, built_index):
        eng = SearchEngine(open_index(built_index), cache_ttl=300.0)
        a = eng.search("parse buffer", limit=5)
        b = eng.search("parse buffer", limit=5, merge_tokens=True)
        # must not collide in the cache: both calls execute independently
        # (equality of results is fine; identity of the cached table for a
        # different merge_tokens value would be the bug)
        assert len(eng._result_cache) == 2
        del a, b

    def test_post_rescore_widens_pool(self, built_index):
        """post_rescore(limit=k) must be the k-prefix of the rescored wide
        ranking, not a reorder of the base top-k page."""
        eng = SearchEngine(open_index(built_index), cache_ttl=0.0)
        w = {"path": 10.0, "content": 1.0}
        small = eng.search("parse", limit=5, post_rescore=True,
                           field_weights=w, normalize=False)["doc_id"].to_pylist()
        wide = eng.search("parse", limit=50, post_rescore=True,
                          field_weights=w, normalize=False)["doc_id"].to_pylist()
        assert small == wide[:5]

    def test_and_mode_synonyms_do_not_shrink_match(self, built_index):
        plain = SearchEngine(open_index(built_index), cache_ttl=0.0)
        syn = SearchEngine(open_index(built_index), cache_ttl=0.0,
                           synonyms={"parse": ["deadline"]})
        base = set(plain.search("parse buffer", mode="and", limit=200,
                                normalize=False)["doc_id"].to_pylist())
        with_syn = set(syn.search("parse buffer", mode="and", limit=200,
                                  normalize=False)["doc_id"].to_pylist())
        assert base  # corpus sanity
        assert with_syn == base  # synonyms add score arms, never conjuncts

    def test_suggestion_on_empty_results(self, built_index):
        """Reference wires a did-you-mean onto empty result sets
        (SearchEngine.php:238-249); Arrow mapping = schema metadata."""
        eng = SearchEngine(open_index(built_index), cache_ttl=0.0,
                           min_term_frequency=1)
        r = eng.search("parseing", limit=5, enable_suggestions=True)
        assert r.num_rows == 0
        md = r.schema.metadata or {}
        assert b"suggestion" in md and b"pars" in md[b"suggestion"]

    def test_specific_s_contractions(self):
        from yetisearch_ray.analysis.analyzer import StandardAnalyzer

        a = StandardAnalyzer(disable_stopwords=True)
        toks = a.tokenize("it's that's grav's")
        # pronoun 's expands, possessive 's does not
        assert toks[:4] == ["it", "is", "that", "is"]
        assert not any(t.endswith(" is") or t == "gravis" for t in toks[4:])

    def test_rebuild_keeps_sha256(self, built_index, tmp_path):
        import shutil

        from yetisearch_ray.index.docstore import DocStore
        from yetisearch_ray.index.manage import rebuild_index

        idx2 = str(tmp_path / "idx_rebuild")
        shutil.copytree(built_index, idx2)
        before = DocStore.committed(idx2).scan(["doc_id", "sha256"])
        rebuild_index(idx2)
        man = Manifest.load(idx2)
        assert man.config.get("content_hash_column") == "content"
        after = DocStore.committed(idx2).scan(["doc_id", "sha256"])
        assert before.equals(after)


@pytest.mark.usefixtures("ray_session")
class TestReviewRound2Regressions:
    """Pins the round-2 review findings."""

    def test_near_arm_with_exclude_terms(self, built_index):
        """Smart scoring with exclude terms: NEAR-qualified docs removed
        from the match set must not crash or credit other docs."""
        eng = SearchEngine(open_index(built_index), cache_ttl=0.0)
        base = eng.search("parse buffer", limit=1000, normalize=False)
        r = eng.search("parse buffer", limit=1000, normalize=False,
                       exclude_terms=["return"])
        kept = set(r["doc_id"].to_pylist())
        assert kept and kept <= set(base["doc_id"].to_pylist())
        # scores of surviving docs are unchanged by the exclusion
        base_scores = dict(zip(base["doc_id"].to_pylist(),
                               base["score"].to_pylist()))
        for d, s in zip(r["doc_id"].to_pylist(), r["score"].to_pylist()):
            assert abs(s - base_scores[d]) < 1e-9

    def test_url_parser_output_is_pure_search_kwargs(self, built_index):
        from yetisearch_ray.dsl import URLQueryParser

        eng = SearchEngine(open_index(built_index), cache_ttl=0.0)
        kw = URLQueryParser().parse("q=return&sort=path&limit=5")
        q = kw.pop("query")
        r = eng.search(q, **kw)  # must not raise on unknown kwargs
        assert r.num_rows > 0

    def test_url_parser_numeric_list_coercion(self):
        from yetisearch_ray.dsl import URLQueryParser

        f = URLQueryParser().parse(
            "q=x&filter[price][between]=10,20")["filters"][0]
        assert f["value"] == [10, 20]

    def test_builder_sort_by_distance_executes(self, geo_like_engine):
        from yetisearch_ray.dsl import QueryBuilder

        r = (QueryBuilder(geo_like_engine)
             .query("alpha")
             .sort_by_distance(37.7749, -122.4194)
             .execute())
        assert r.num_rows >= 1  # no KeyError on missing radius


@pytest.fixture(scope="module")
def geo_like_engine(ray_session, tmp_path_factory):
    from yetisearch_ray.facade import YetiSearchRay

    ys = YetiSearchRay(str(tmp_path_factory.mktemp("geoqb")))
    ys.create_index("g", fields=["title"],
                    store_columns=["title", "lat", "lng"])
    ys.index_batch("g", [
        {"doc_id": 1, "content": {"title": "alpha near"},
         "lat": 37.7749, "lng": -122.4194},
        {"doc_id": 2, "content": {"title": "alpha far"},
         "lat": 37.9, "lng": -122.2},
    ])
    return ys.engine("g", cache_ttl=0.0)
