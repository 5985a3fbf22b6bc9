"""The candidate stage (``SearchEngine._candidates``) is the one place the
match set is formed: scored, deleted docs dropped, ``restrict_ids``,
then filters.  ``search()`` and ``match_ids()``/``count()`` both draw
from it, so they agree on every option that shapes the match set —
synonyms included.  ``IndexReader.meta_for`` reads the same rows and
raises ``KeyError`` for an id without a doc-meta row."""
import shutil

import numpy as np
import pyarrow as pa
import pytest

from yetisearch_ray.search.engine import SearchEngine, open_index


@pytest.fixture(scope="module")
def deleted_index(built_index, tmp_path_factory):
    """A copy of the tiny index with some "buffer"/"parse" docs deleted."""
    from yetisearch_ray.index.manage import delete_docs

    d = str(tmp_path_factory.mktemp("cand")) + "/idx"
    shutil.copytree(built_index, d)
    hits = SearchEngine(open_index(d), cache_ttl=0).search(
        "buffer parse", mode="or", limit=40, normalize=False)
    delete_docs(d, hits["doc_id"].to_pylist()[::3])
    return d


@pytest.mark.usefixtures("ray_session")
class TestMatchSetAgreesWithSearch:
    def test_synonyms_tombstones_and_filters(self, deleted_index):
        eng = SearchEngine(open_index(deleted_index), cache_ttl=0,
                           synonyms={"fetch": ["parse"]})
        assert eng.index.tombstones.size
        even = list(range(0, 300, 2))
        options = [
            ("fetch", {}),
            ("fetch buffer", {"mode": "or"}),
            ("fetch buffer", {"mode": "or", "min_should_match": 2,
                              "in_fields": ["content"], "language": "python",
                              "restrict_ids": even}),
            ("fetch buffer", {"mode": "or", "min_should_match": 2,
                              "filters": [{"field": "lang", "operator": "!=",
                                           "value": "go"}]}),
        ]
        for q, o in options:
            got = eng.match_ids(q, **o)
            want = eng.search(q, limit=1000, normalize=False, **o)["doc_id"]
            assert want.length(), (q, o)
            assert set(got.tolist()) == set(want.to_pylist()), (q, o)
            assert eng.count(q, **o) == want.length(), (q, o)
            dead = set(eng.index.tombstones.tolist())
            assert not dead & set(got.tolist()), (q, o)
            if "restrict_ids" in o:
                assert set(got.tolist()) <= set(even)

    def test_suggest_verifies_with_the_synonym_match_set(self, deleted_index):
        eng = SearchEngine(open_index(deleted_index), cache_ttl=0,
                           synonyms={"fetch": ["parse"]})
        assert eng.count("fetch") == eng.search(
            "fetch", limit=1000)["doc_id"].length() > 0


@pytest.mark.usefixtures("ray_session")
class TestMetaFor:
    def test_dense_reader_raises_for_an_id_without_a_row(self, built_index):
        idx = open_index(built_index)
        langs = idx.meta("lang")
        assert idx._meta_dense
        assert idx.meta_for("lang", np.array([0, 299], np.uint64)).tolist() \
            == [langs[0], langs[299]]
        with pytest.raises(KeyError, match="300"):
            idx.meta_for("lang", np.array([5, 300], np.uint64))

    def test_sparse_reader_raises_for_an_id_without_a_row(
            self, built_index, tmp_path):
        import ray.data as rd

        from yetisearch_ray.index.build import IndexConfig, build_index
        from yetisearch_ray.index.manage import delete_docs, optimize_index

        d = str(tmp_path / "idx")
        shutil.copytree(built_index, d)
        ids = np.arange(1000, 1010, dtype=np.uint64)
        t = pa.table({"doc_id": pa.array(ids),
                      "repo": ["r"] * 10, "path": [f"x{i}.go" for i in ids],
                      "commit": ["c"] * 10, "lang": ["zz"] * 10,
                      "content": ["parse buffer"] * 10})
        cfg = IndexConfig(
            fields=[("path", "path"), ("content", "content")],
            language_column="lang",
            store_columns=["repo", "path", "commit", "lang", "content"],
            num_partitions=8, content_hash_column="content")
        build_index(rd.from_arrow(t), d, cfg, append=True,
                    input_fingerprint="gap")
        delete_docs(d, [7, 1003])
        optimize_index(d)
        idx = open_index(d)
        base = open_index(built_index).meta("lang")
        assert idx.n_rows == 308 and not idx._meta_dense
        assert idx.meta_for("lang", np.array([6, 8, 1002, 1004],
                                             np.uint64)).tolist() == \
            [base[6], base[8], "zz", "zz"]
        for missing in (7, 500, 1003, 1010):
            with pytest.raises(KeyError, match=str(missing)):
                idx.meta_for("lang", np.array([6, missing], np.uint64))
        # facets read result ids, which always have a row
        eng = SearchEngine(idx, cache_ttl=0)
        f = eng.facets("parse", ["lang"], candidates=1000)["lang"]
        assert "zz" in f["value"].to_pylist()
