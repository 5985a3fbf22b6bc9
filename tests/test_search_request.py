"""SearchRequest: the one record of search()'s options, whose fields are
the result-cache key."""
import dataclasses

import numpy as np
import pytest

from yetisearch_ray.search.engine import SearchEngine, SearchRequest, open_index

# one non-default value per SearchRequest field
CHANGED = {
    "query": "buffer",
    "limit": 21,
    "offset": 1,
    "mode": "or",
    "field_weights": {"path": 2.0},
    "filters": [{"field": "lang", "value": "go"}],
    "language": "go",
    "min_score": 0.5,
    "normalize": False,
    "unique_by_route": True,
    "route_column": "path",
    "prefix_last": True,
    "with_docs": True,
    "highlight": True,
    "round_scores": 2,
    "fuzzy": True,
    "fuzzy_mode": "basic",
    "exclude_terms": ["buffer"],
    "post_rescore": True,
    "geo_filters": {"near": {"lat": 1.0, "lng": 2.0, "radius_km": 3.0}},
    "distance_weight": 0.5,
    "sort": ("path", "asc"),
    "merge_tokens": True,
    "result_fields": ["path"],
    "enable_suggestions": True,
    "near_distance": 5,
    "slop": 2,
    "in_fields": ["content"],
    "min_should_match": 2,
    "term_boosts": {"parse": 2.0},
    "dismax": True,
    "tie_breaker": 0.3,
    "rank_column": "lang",
    "rank_weight": 0.5,
    "rank_mode": "multiply",
    "decay_column": "doc_id",
    "decay_origin": 1.0,
    "decay_scale": 2.0,
    "decay_offset": 3.0,
    "negative_terms": ["buffer"],
    "negative_boost": 0.3,
    "restrict_ids": [1, 2],
}


def test_every_field_changes_the_key():
    names = {f.name for f in dataclasses.fields(SearchRequest)}
    assert names == set(CHANGED), "give each SearchRequest field a value here"
    base = SearchRequest("parse")
    key = base.key("v1")
    assert key != base.key("v2")
    for name, value in CHANGED.items():
        other = dataclasses.replace(base, **{name: value}).key("v1")
        hash(other)
        assert other != key, name


def test_key_compares_values():
    a = SearchRequest("parse", field_weights={"path": 2.0, "content": 1.0},
                      restrict_ids=np.arange(5))
    b = SearchRequest("parse", field_weights={"content": 1.0, "path": 2.0},
                      restrict_ids=[0, 1, 2, 3, 4])
    assert a.key("v") == b.key("v")
    ids = np.arange(2000)
    moved = ids.copy()
    moved[1000] = -1  # past numpy's 1,000-item repr summary
    assert (SearchRequest("parse", filters=[{"value": ids}]).key("v")
            != SearchRequest("parse", filters=[{"value": moved}]).key("v"))


@pytest.mark.usefixtures("ray_session")
class TestSearchRequestEngine:
    def test_large_in_filters_get_their_own_pages(self, built_index):
        """Two 2,000-id ``in`` filters that differ in one id: the second
        search must not be served the first one's cached page."""
        eng = SearchEngine(open_index(built_index), cache_ttl=300.0)
        top = eng.search("parse", mode="or", limit=2)["doc_id"].to_pylist()
        pages = []
        for doc in top:
            ids = np.arange(10**6, 10**6 + 2000, dtype=np.int64)  # no doc
            ids[1000] = doc
            f = [{"field": eng.index.id_column, "operator": "in",
                  "value": ids}]
            pages.append(eng.search("parse", mode="or", limit=5,
                                    filters=f)["doc_id"].to_pylist())
        assert pages == [[top[0]], [top[1]]]

    def test_unknown_option_raises(self, built_index):
        eng = SearchEngine(open_index(built_index))
        for call in (eng.search, eng.explain):
            with pytest.raises(TypeError):
                call("parse", no_such_option=True)
