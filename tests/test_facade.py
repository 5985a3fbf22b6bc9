"""YetiSearchRay facade: reference-shaped API over named indexes."""

import pytest

from yetisearch_ray.facade import YetiSearchRay


@pytest.mark.usefixtures("ray_session")
class TestFacade:
    @pytest.fixture()
    def ys(self, tmp_path):
        return YetiSearchRay(str(tmp_path / "indexes"))

    DOCS = [
        {"content": {"title": "Rocket Propulsion",
                     "content": "An introduction to physics and engineering."},
         "language": "en"},
        {"content": {"title": "Introduction",
                     "content": "rocket rocket rocket"},
         "language": "en"},
        {"content": {"title": "Cooking Basics",
                     "content": "How to boil water and other essentials."},
         "language": "en"},
    ]

    def test_index_and_search(self, ys):
        ys.create_index("books", fields=["title", "content"],
                        language_column="language")
        n = ys.index_batch("books", self.DOCS)
        assert n == 3
        r = ys.search("books", "rocket", limit=10, normalize=False)
        assert r.num_rows == 2

    def test_weighted_bm25_fixture_2c(self, ys):
        """FIXTURES.md §2c: with title weight 50, the title match must
        outrank the tf-heavy body match (canonical column-weight check)."""
        ys.create_index("b2", fields=["title", "content"])
        ys.index_batch("b2", self.DOCS[:2])
        r = ys.search("b2", "rocket", limit=2, normalize=False,
                      field_weights={"title": 50.0, "content": 1.0},
                      with_docs=True)
        assert r["title"][0].as_py() == "Rocket Propulsion"
        plain = ys.search("b2", "rocket", limit=2, normalize=False)
        assert plain.num_rows == 2

    def test_append_and_count(self, ys):
        ys.create_index("inc", fields=["title", "content"])
        ys.index_batch("inc", self.DOCS[:2])
        assert ys.count("inc", "rocket") == 2
        ys.index_batch("inc", [{"content": {"title": "More rockets",
                                            "content": "rocket science"}}])
        assert ys.count("inc", "rocket") == 3

    def test_delete_optimize_stats(self, ys):
        ys.create_index("mut", fields=["title", "content"])
        ys.index_batch("mut", self.DOCS)
        r = ys.search("mut", "rocket", limit=1, normalize=False)
        victim = r["doc_id"][0].as_py()
        assert ys.delete("mut", [victim]) == 1
        assert ys.count("mut", "rocket") == 1
        out = ys.optimize("mut")
        assert out["docs_removed"] == 1
        assert ys.stats("mut")["n_docs"] == 2

    def test_suggest_and_multi(self, ys):
        ys.create_index("a", fields=["title", "content"])
        ys.index_batch("a", self.DOCS)
        ys.create_index("b", fields=["title", "content"])
        ys.index_batch("b", self.DOCS[:1])
        m = ys.search_multiple(["a", "b"], "rocket", limit=10, normalize=False)
        assert set(m["_index"].to_pylist()) == {"a", "b"}

    def test_clear_and_drop(self, ys):
        ys.create_index("tmp", fields=["title", "content"])
        ys.index_batch("tmp", self.DOCS[:1])
        ys.clear("tmp")
        assert ys.stats("tmp")["n_docs"] == 0
        ys.drop("tmp")
        assert not ys.index_exists("tmp")

    def test_prefix_fixture_2d(self, ys):
        """FIXTURES.md §2d: 'sky*' returns exactly the Sky-titles."""
        docs = [{"content": {"title": t, "content": t.lower()}}
                for t in ["Skywalker", "Skyrim Guide", "Skylark", "Dark Knight"]]
        ys.create_index("sky", fields=["title", "content"])
        ys.index_batch("sky", docs)
        eng = ys.engine("sky")
        r = eng.search("sky", prefix_last=True, limit=10, normalize=False,
                       with_docs=True)
        titles = set(r["title"].to_pylist())
        assert titles == {"Skywalker", "Skyrim Guide", "Skylark"}

    def test_update_document_replaces(self, ys):
        """update = tombstone old id + fresh id with new content
        (reference updateDocument; doc_id-native contract)."""
        ys.create_index("upd", fields=["title", "content"])
        ys.index_batch("upd", self.DOCS)
        old_id = ys.last_assigned_ids[0]  # "Rocket Propulsion"
        new_id = ys.update_document("upd", old_id, {
            "content": {"title": "Rocket Science",
                        "content": "orbital mechanics basics"}})
        assert new_id != old_id
        r = ys.search("upd", "orbital", with_docs=True)
        assert "Rocket Science" in set(r["title"].to_pylist())
        # old content no longer findable under the old id
        r2 = ys.search("upd", "propulsion")
        assert old_id not in set(r2["doc_id"].to_pylist())
        assert ys.count_documents("upd") == 3

    def test_delete_by_id_prefix_and_rebuild(self, ys):
        ys.create_index("pfx", fields=["title", "content"],
                        store_columns=["title", "content"])
        ys.index_batch("pfx", self.DOCS)
        n = ys.delete_by_id_prefix("pfx", "title", "Rocket")
        assert n == 1
        assert ys.count_documents("pfx") == 2
        out = ys.rebuild("pfx")
        assert isinstance(out, dict)
        assert ys.search("pfx", "cooking").num_rows > 0

    def test_cache_ops_and_warmup(self, ys):
        ys.create_index("c", fields=["title", "content"])
        ys.index_batch("c", self.DOCS)
        eng = ys.engine("c", cache_ttl=300.0)
        timings = ys.warm_up_cache("c", ["rocket", "water"])
        assert set(timings) == {"rocket", "water"}
        ys.search("c", "rocket")  # hit
        st = ys.cache_stats("c")
        assert st["hits"] >= 1 and st["entries"] >= 1
        ys.clear_cache("c")
        assert ys.cache_stats("c")["entries"] == 0

    def test_list_indices_and_query_builder(self, ys):
        ys.create_index("qa", fields=["title", "content"])
        ys.index_batch("qa", self.DOCS)
        assert "qa" in ys.list_indices()
        r = ys.query("qa").query("rocket").limit(2).execute()
        assert r.num_rows > 0

    def test_index_document_single(self, ys):
        ys.create_index("one", fields=["title", "content"])
        assert ys.index_document("one", self.DOCS[0]) == 1
        assert ys.count_documents("one") == 1


@pytest.mark.usefixtures("ray_session")
def test_appends_after_optimize_take_fresh_ids(tmp_path):
    """An append numbers its docs from one past the largest id the
    docstore holds; ``optimize`` lowering ``n_docs`` must not hand out a
    live id again."""
    ys = YetiSearchRay(str(tmp_path / "indexes"))
    ys.create_index("books", fields=["title", "content"], num_partitions=4)

    def add(texts):
        ys.index_batch("books", [{"content": {"title": t, "content": "doc"}}
                                 for t in texts])
        return ys.last_assigned_ids

    assert add([f"alpha{i}" for i in range(10)]) == list(range(10))
    first_append = add(["w0", "w1", "w2", "w3"])
    ys.delete("books", [0, 1, 2])
    ys.optimize("books")
    late = add(["bravo", "charlie"])
    live = set(range(3, 10)) | set(first_append) | set(late)
    assert len(live) == 13 and not set(late) & set(first_append)
    got = ys.search("books", "doc", limit=100)["doc_id"].to_pylist()
    assert sorted(got) == sorted(live)
    bravo = ys.search("books", "bravo", limit=10)["doc_id"].to_pylist()
    charlie = ys.search("books", "charlie", limit=10)["doc_id"].to_pylist()
    assert bravo == [late[0]] and charlie == [late[1]]
    ys.close()
