"""Persistent (cross-process) caches: on-disk fuzzy-term JSON cache and
SQLite query-result cache (reference ``src/Storage/FuzzyTermCache.php``
and ``src/Cache/QueryCache.php``).  The key property under test: a
SECOND facade/engine instance over the same root (a fresh "process")
must hit the disk tier, and any index mutation must invalidate."""

import os

import pyarrow as pa
import pytest

from yetisearch_ray.facade import YetiSearchRay
from yetisearch_ray.state import FuzzyTermCache, PersistentQueryCache


class TestFuzzyTermCache:
    def test_roundtrip_and_lazy_load(self, tmp_path):
        c = FuzzyTermCache("idx", str(tmp_path))
        assert c.get("Rocket") is None
        c.set("Rocket", ["rockets", "racket"])
        assert c.get("ROCKET") == ["rockets", "racket"]  # lowercased key
        c.save()
        # fresh instance = fresh process
        c2 = FuzzyTermCache("idx", str(tmp_path))
        assert c2.get("rocket") == ["rockets", "racket"]

    def test_save_is_atomic_and_noop_when_clean(self, tmp_path):
        c = FuzzyTermCache("idx", str(tmp_path))
        c.save()  # nothing loaded/dirty -> no file
        assert not os.path.exists(c.cache_file)
        c.set("a", ["b"])
        c.save()
        assert os.path.exists(c.cache_file)
        assert not os.path.exists(c.cache_file + ".tmp")

    def test_fifo_cap(self, tmp_path):
        c = FuzzyTermCache("idx", str(tmp_path), max_cache_size=200)
        for i in range(200):
            c.set(f"t{i}", [str(i)])
        # at cap: inserting a NEW key drops the oldest, keeping max-100
        c.set("fresh", ["x"])
        assert len(c) == 101  # 100 survivors + the new key
        assert c.get("t0") is None and c.get("t199") == ["199"]
        assert c.get("fresh") == ["x"]

    def test_clear_removes_file(self, tmp_path):
        c = FuzzyTermCache("idx", str(tmp_path))
        c.set("a", ["b"])
        c.save()
        c.clear()
        assert not os.path.exists(c.cache_file)
        assert c.get("a") is None

    def test_garbled_file_tolerated(self, tmp_path):
        c = FuzzyTermCache("idx", str(tmp_path))
        with open(c.cache_file, "w") as f:
            f.write("{not json")
        assert c.get("a") is None  # reference loadCache ignores bad JSON


class TestPersistentQueryCache:
    T = pa.table({"doc_id": pa.array([1, 2], pa.uint64()),
                  "score": pa.array([2.5, 1.0], pa.float64())})

    def test_roundtrip_across_instances(self, tmp_path):
        db = str(tmp_path / "qc.db")
        c = PersistentQueryCache(db)
        assert c.get("idx", {"query": "rocket"}) is None
        assert c.set("idx", {"query": "rocket"}, self.T)
        c.close()
        c2 = PersistentQueryCache(db)
        hit = c2.get("idx", {"query": "rocket"})
        assert hit is not None and hit.equals(self.T)  # exact schema+values
        st = c2.get_stats()
        assert st["hits"] == 1 and st["entries"] == 1

    def test_version_invalidates(self, tmp_path):
        c = PersistentQueryCache(str(tmp_path / "qc.db"))
        c.set("idx", {"query": "q"}, self.T, version=1)
        assert c.get("idx", {"query": "q"}, version=1) is not None
        assert c.get("idx", {"query": "q"}, version=2) is None

    def test_ttl_expiry(self, tmp_path):
        c = PersistentQueryCache(str(tmp_path / "qc.db"))
        c.set("idx", {"query": "q"}, self.T, ttl=-1)  # already expired
        assert c.get("idx", {"query": "q"}) is None
        assert c.clean_expired() == 1

    def test_invalidate_by_index(self, tmp_path):
        c = PersistentQueryCache(str(tmp_path / "qc.db"))
        c.set("a", {"query": "q"}, self.T)
        c.set("b", {"query": "q"}, self.T)
        assert c.invalidate("a") == 1
        assert c.get("a", {"query": "q"}) is None
        assert c.get("b", {"query": "q"}) is not None

    def test_invalidate_by_query_hash(self, tmp_path):
        # reference invalidateByQuery LIKE-matches the md5 query_hash
        # (QueryCache.php:176-195) — full-hash patterns work, which is
        # the parity contract
        c = PersistentQueryCache(str(tmp_path / "qc.db"))
        c.set("a", {"query": "q"}, self.T)
        h = c._query_hash({"query": "q"})
        assert c.invalidate_by_query("a", h) == 1

    def test_lru_eviction_at_max_size(self, tmp_path):
        c = PersistentQueryCache(str(tmp_path / "qc.db"), max_size=10)
        for i in range(10):
            c.set("idx", {"query": f"q{i}"}, self.T)
        # table at max: next set evicts least-recently-accessed to 80%
        c.set("idx", {"query": "overflow"}, self.T)
        assert c.size() <= 9
        assert c.get_stats()["evictions"] >= 2

    def test_bad_table_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PersistentQueryCache(str(tmp_path / "qc.db"),
                                 table_name="bad; drop")

    def test_disabled_is_transparent(self, tmp_path):
        c = PersistentQueryCache(str(tmp_path / "qc.db"), enabled=False)
        assert not c.set("idx", {"query": "q"}, self.T)
        assert c.get("idx", {"query": "q"}) is None
        assert c.clear() == 0 and c.size() == 0


@pytest.mark.usefixtures("ray_session")
class TestEngineIntegration:
    DOCS = [
        {"content": {"title": "Rocket Propulsion",
                     "content": "An introduction to physics."}},
        {"content": {"title": "Cooking", "content": "boil water rocket"}},
    ]

    def _mk(self, root):
        ys = YetiSearchRay(root,
                           default_config={"persistent_cache": True})
        return ys

    def test_query_cache_survives_process(self, tmp_path):
        root = str(tmp_path / "ix")
        ys = self._mk(root)
        ys.create_index("b", fields=["title", "content"])
        ys.index_batch("b", self.DOCS)
        r1 = ys.search("b", "rocket", limit=5, normalize=False)
        ys.close()
        # "new process": fresh facade, fresh engine, same root
        ys2 = self._mk(root)
        r2 = ys2.search("b", "rocket", limit=5, normalize=False)
        assert r2.equals(r1)
        eng = ys2.engine("b")
        assert eng._persistent.get_stats()["hits"] >= 1
        ys2.close()

    def test_mutation_invalidates_disk_tier(self, tmp_path):
        root = str(tmp_path / "ix")
        ys = self._mk(root)
        ys.create_index("b", fields=["title", "content"])
        ys.index_batch("b", self.DOCS)
        r1 = ys.search("b", "rocket", limit=5, normalize=False)
        victim = r1["doc_id"][0].as_py()
        ys.delete("b", [victim])
        ys.close()
        ys2 = self._mk(root)
        r2 = ys2.search("b", "rocket", limit=5, normalize=False)
        assert victim not in r2["doc_id"].to_pylist()  # stale entry not served
        ys2.close()

    def test_fuzzy_cache_file_written(self, tmp_path):
        root = str(tmp_path / "ix")
        ys = self._mk(root)
        ys.create_index("b", fields=["title", "content"])
        ys.index_batch("b", self.DOCS)
        ys.search("b", "roket", fuzzy=True, normalize=False)
        ys.close()  # flushes the fuzzy JSON tier
        f = FuzzyTermCache("b", root)
        assert len(f) >= 1  # variations for the misspelled term persisted
        ys2 = self._mk(root)
        r = ys2.search("b", "roket", fuzzy=True, normalize=False)
        assert r.num_rows >= 1
        fm = ys2.engine("b").fuzzy_matcher
        assert fm._persistent is not None
        ys2.close()

    def test_append_invalidates_disk_tier(self, tmp_path):
        """Appends must invalidate too (regression: the cache key was
        tombstone_version, bumped only on delete, so a cross-process
        cache served pre-append results for up to TTL)."""
        root = str(tmp_path / "ix")
        ys = self._mk(root)
        ys.create_index("b", fields=["title", "content"])
        ys.index_batch("b", self.DOCS)
        r1 = ys.search("b", "rocket", limit=10, normalize=False)
        n1 = r1.num_rows
        ys.index_batch("b", [{"content": {"title": "Rocket redux",
                                          "content": "rocket rocket"}}])
        ys.close()
        ys2 = self._mk(root)
        r2 = ys2.search("b", "rocket", limit=10, normalize=False)
        assert r2.num_rows == n1 + 1  # fresh result, not the cached one
        ys2.close()

    def test_mutation_pop_flushes_fuzzy_tier(self, tmp_path):
        """Releasing an engine on index mutation must flush pending
        fuzzy-cache entries (a bare pop lost up to 31 of them)."""
        root = str(tmp_path / "ix")
        ys = self._mk(root)
        ys.create_index("b", fields=["title", "content"])
        ys.index_batch("b", self.DOCS)
        ys.search("b", "roket", fuzzy=True, normalize=False)
        # mutation releases the engine — pending entries must hit disk
        ys.index_batch("b", [{"content": {"title": "x", "content": "y z"}}])
        f = FuzzyTermCache("b", root)
        assert len(f) >= 1
        ys.close()

    def test_disk_tier_hits_respect_lru_cap(self, tmp_path):
        """A disk-tier hit enters the in-process LRU through the same
        eviction as a freshly computed page."""
        root = str(tmp_path / "ix")
        ys = self._mk(root)
        ys.create_index("b", fields=["title", "content"])
        ys.index_batch("b", self.DOCS)
        queries = ["rocket", "water", "physics"]
        for q in queries:
            ys.search("b", q, limit=5)
        ys.close()
        ys2 = self._mk(root)
        eng = ys2.engine("b")
        eng._cache_max = 2
        for q in queries:
            ys2.search("b", q, limit=5)
        assert eng._persistent.get_stats()["hits"] == 3
        assert eng.cache_stats()["entries"] <= 2
        ys2.close()
