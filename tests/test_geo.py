"""Geo primitives + engine geo filters (near/within/distance sort/blend)."""

import numpy as np
import pytest

from yetisearch_ray.functions.geo import (
    bounding_box,
    distance_blend,
    haversine_km,
    in_bounds,
    near_mask,
    split_bbox,
)


class TestGeoFunctions:
    def test_haversine_known_distance(self):
        # Paris -> London ≈ 344 km
        d = float(haversine_km(48.8566, 2.3522, 51.5074, -0.1278))
        assert 335 < d < 355

    def test_haversine_zero(self):
        assert float(haversine_km(10, 20, 10, 20)) == 0.0

    def test_vectorized(self):
        d = haversine_km(np.array([0.0, 0.0]), np.array([0.0, 1.0]), 0.0, 0.0)
        assert d.shape == (2,) and d[0] == 0 and 110 < d[1] < 112

    def test_bbox_and_in_bounds(self):
        bbox = bounding_box(48.85, 2.35, 10.0)
        assert in_bounds([48.85], [2.35], bbox)[0]
        assert not in_bounds([49.5], [2.35], bbox)[0]

    def test_antimeridian_split(self):
        bbox = bounding_box(0.0, 179.9, 50.0)  # crosses +180
        boxes = split_bbox(bbox)
        assert len(boxes) == 2
        assert in_bounds([0.0], [-179.95], bbox)[0]  # wraps around

    def test_near_mask(self):
        lats = np.array([48.85, 48.86, 40.0])
        lngs = np.array([2.35, 2.36, -74.0])
        m = near_mask(lats, lngs, 48.8566, 2.3522, 5.0)
        assert m.tolist() == [True, True, False]

    def test_distance_blend(self):
        s = distance_blend([100.0, 100.0], [0.0, 100.0], weight=0.3, decay=0.05)
        assert s[0] == pytest.approx(100.0)
        assert s[1] < s[0]


@pytest.fixture(scope="module")
def geo_index(ray_session, tmp_path_factory):
    import pyarrow as pa
    import ray.data as rd

    from yetisearch_ray.index.build import IndexConfig, build_index

    rows = [
        {"doc_id": 1, "text": "cozy cafe in paris", "lat": 48.8566, "lng": 2.3522},
        {"doc_id": 2, "text": "cafe near paris suburb", "lat": 48.9, "lng": 2.4},
        {"doc_id": 3, "text": "london cafe by the river", "lat": 51.5074, "lng": -0.1278},
        {"doc_id": 4, "text": "new york cafe downtown", "lat": 40.7, "lng": -74.0},
    ]

    def cast_ids(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        i = t.schema.get_field_index("doc_id")
        return t.set_column(i, "doc_id", pc.cast(t["doc_id"], pa.uint64()))

    ds = rd.from_items(rows).map_batches(cast_ids, batch_format="pyarrow")
    idx = str(tmp_path_factory.mktemp("geo")) + "/idx"
    cfg = IndexConfig(fields=[("text", "text")],
                      store_columns=["text", "lat", "lng"],
                      num_partitions=4)
    build_index(ds, idx, cfg, balance_hot_terms=False)
    return idx

@pytest.mark.usefixtures("ray_session")
class TestEngineGeo:
    def test_near_filter(self, geo_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(geo_index))
        r = eng.search("cafe", limit=10, normalize=False,
                       geo_filters={"near": {"lat": 48.8566, "lng": 2.3522,
                                             "radius_km": 20.0}})
        assert sorted(r["doc_id"].to_pylist()) == [1, 2]
        assert r["distance_km"][0].as_py() is not None
        assert eng.count("cafe", geo_filters={"near": {
            "lat": 48.8566, "lng": 2.3522, "radius_km": 20.0}}) == 2

    def test_within_bounds(self, geo_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(geo_index))
        r = eng.search("cafe", limit=10, normalize=False,
                       geo_filters={"within": {"bounds": (45, 55, -5, 5)}})
        assert sorted(r["doc_id"].to_pylist()) == [1, 2, 3]

    def test_distance_sort(self, geo_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(geo_index))
        r = eng.search("cafe", limit=10, normalize=False,
                       geo_filters={"near": {"lat": 48.8566, "lng": 2.3522,
                                             "radius_km": 5000.0},
                                    "sort_by_distance": True})
        dists = r["distance_km"].to_pylist()
        assert dists == sorted(dists)
        assert r["doc_id"][0].as_py() == 1

    def test_distance_blend_changes_ranking(self, geo_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(geo_index))
        blended = eng.search("cafe paris", limit=10,
                             geo_filters={"near": {"lat": 40.7, "lng": -74.0,
                                                   "radius_km": 20000.0}},
                             distance_weight=0.9)
        # heavy distance weight pulls NYC up
        assert blended["doc_id"][0].as_py() == 4


@pytest.mark.usefixtures("ray_session")
class TestKnnAndDistanceFacets:
    def test_knn(self, geo_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(geo_index))
        r = eng.knn({"lat": 48.8566, "lng": 2.3522}, k=2)
        assert r["doc_id"].to_pylist() == [1, 2]
        d = r["distance_km"].to_pylist()
        assert d == sorted(d) and d[0] < 1.0

    def test_knn_max_distance(self, geo_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(geo_index))
        r = eng.knn({"lat": 48.8566, "lng": 2.3522, "max_distance_km": 100}, k=10)
        assert r["doc_id"].to_pylist() == [1, 2]

    def test_distance_facets(self, geo_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(geo_index))
        f = eng.distance_facets("cafe", {"lat": 48.8566, "lng": 2.3522},
                                [10, 500, 10000])
        counts = dict(zip(f["bucket"].to_pylist(), f["count"].to_pylist()))
        assert counts["<10km"] == 2 and counts["<500km"] == 3 and counts["<10000km"] == 4

    def test_aggregations(self, geo_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(geo_index))
        a = eng.aggregate("cafe", {"lat": ["min", "max", "avg"]})
        vals = dict(zip(a["aggregation"].to_pylist(), a["value"].to_pylist()))
        assert vals["min_lat"] == pytest.approx(40.7)
        assert vals["max_lat"] == pytest.approx(51.5074)

    def test_column_sort(self, geo_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(geo_index))
        r = eng.search("cafe", limit=10, sort=("lat", "desc"), with_docs=True)
        lats = r["lat"].to_pylist()
        assert lats == sorted(lats, reverse=True)


@pytest.mark.usefixtures("ray_session")
class TestMergeTokens:
    def test_adjacent_merge(self, geo_index):
        """A split identifier merges when the concatenation is indexed."""
        from yetisearch_ray.search.engine import SearchEngine, open_index

        # NB: "down town" would NOT merge — "down" is a stopword and the
        # analyzer removes it before the merge layer (reference order too)
        eng = SearchEngine(open_index(geo_index), min_term_frequency=1)
        merged = eng._merge_adjacent_tokens("downto wn")
        assert merged == "downtown"
        r = eng.search("downto wn", limit=5, merge_tokens=True, normalize=False)
        assert 4 in r["doc_id"].to_pylist()


class TestGeoUtilsReferenceVectors:
    """Replays tests/Unit/Geo/GeoUtilsTest.php (distances in METERS
    there; our haversine_km returns km)."""

    def test_distance_between_points(self):
        from yetisearch_ray.functions.geo import haversine_km

        d = float(haversine_km(37.7749, -122.4194, 37.7849, -122.4094)) * 1000
        assert 1400 < d < 1450  # ~1414 m

    def test_distance_zero_same_point(self):
        from yetisearch_ray.functions.geo import haversine_km

        assert float(haversine_km(37.7749, -122.4194,
                                  37.7749, -122.4194)) == 0.0

    def test_distance_across_date_line(self):
        from yetisearch_ray.functions.geo import haversine_km

        d = float(haversine_km(0, 179.9, 0, -179.9)) * 1000
        assert d < 25000  # small hop, not half the world

    def test_is_within_radius(self):
        import numpy as np

        from yetisearch_ray.functions.geo import near_mask

        lats = np.array([37.7849, 37.8049])
        lngs = np.array([-122.4094, -122.4194])
        near2 = near_mask(lats, lngs, 37.7749, -122.4194, 2.0)
        near1 = near_mask(lats, lngs, 37.7749, -122.4194, 1.0)
        near5 = near_mask(lats, lngs, 37.7749, -122.4194, 5.0)
        assert near2.tolist() == [True, False]
        assert near1.tolist() == [False, False]
        assert near5.tolist() == [True, True]

    def test_bounding_box(self):
        from yetisearch_ray.functions.geo import bounding_box, in_bounds

        bb = bounding_box(37.7749, -122.4194, 1.0)
        min_lat, max_lat, min_lng, max_lng = bb
        assert min_lat > 37.765 and max_lat < 37.785
        assert min_lng > -122.435 and max_lng < -122.405
        import numpy as np

        assert in_bounds(np.array([37.7749]), np.array([-122.4194]),
                         bb).tolist() == [True]

    def test_bounding_box_near_pole(self):
        import numpy as np

        from yetisearch_ray.functions.geo import bounding_box, in_bounds

        bb = bounding_box(89.9, 0.0, 10.0)
        assert in_bounds(np.array([89.9]), np.array([0.0]),
                         bb).tolist() == [True]
