"""Doc-sharded serving must reproduce the single-index ranking exactly
(global-stats two-phase BM25)."""
import numpy as np
import pytest

from yetisearch_ray.search.engine import SearchEngine, open_index


@pytest.mark.usefixtures("ray_session")
class TestDocShardedServing:
    @pytest.fixture(scope="class")
    def pair(self, built_index, tiny_corpus_dir, tmp_path_factory):
        from yetisearch_ray.index.build import IndexConfig
        from yetisearch_ray.search.doc_sharded import (DocShardedEngine,
                                                       build_doc_shards)
        from yetisearch_ray.sources.parquet_source import \
            read_parquet_with_doc_ids

        base = str(tmp_path_factory.mktemp("docshards"))
        cfg = IndexConfig(
            fields=[("path", "path"), ("content", "content")],
            language_column="lang",
            store_columns=["repo", "path", "commit", "lang", "content"],
            num_partitions=4,
        )
        dirs = build_doc_shards(read_parquet_with_doc_ids(tiny_corpus_dir),
                                base, cfg, n_shards=3)
        sharded = DocShardedEngine(dirs)
        local = SearchEngine(open_index(built_index), cache_ttl=0.0)
        yield local, sharded
        sharded.shutdown()

    CASES = [
        dict(q="parse buffer", mode="smart"),
        dict(q="retry backoff", mode="and"),
        dict(q='"exponential backoff"'),
        dict(q="parse buffer", mode="or"),
        dict(q="module", field_weights={"path": 5.0, "content": 1.0}),
        dict(q="return", language="python"),
        dict(q="return"),  # hot term, idf clamp with global stats
        dict(q="pars", prefix_last=True),
    ]

    def test_identical_to_single_index(self, pair):
        local, sharded = pair
        for case in self.CASES:
            kw = dict(case)
            q = kw.pop("q")
            a = local.search(q, limit=20, normalize=False, **kw)
            b = sharded.search(q, limit=20, normalize=False, **kw)
            ids_a = a["doc_id"].to_pylist()
            ids_b = b["doc_id"].to_pylist()
            assert ids_a == ids_b, (case, ids_a, ids_b)
            sa = np.array(a["score"].to_pylist())
            sb = np.array(b["score"].to_pylist())
            assert np.allclose(sa, sb, atol=1e-9), case

    def test_global_stats_match(self, pair):
        local, sharded = pair
        assert sharded.n_docs == local.index.n_docs
        assert abs(sharded.avgdl - local.index.avgdl) < 1e-9

    def test_pagination(self, pair):
        local, sharded = pair
        full = local.search("return", limit=10, normalize=False)
        page = sharded.search("return", limit=5, offset=5, normalize=False)
        assert page["doc_id"].to_pylist() == \
            full["doc_id"].to_pylist()[5:10]

    def test_min_score_order_of_operations(self, pair):
        """min_score applies AFTER page truncation, exactly like the
        single-index engine (can return fewer than limit rows)."""
        local, sharded = pair
        probe = local.search("return", limit=20, normalize=False)
        scores = probe["score"].to_pylist()
        assert len(scores) >= 10
        thr = (scores[5] + scores[6]) / 2  # cuts inside the page
        a = local.search("return", limit=10, normalize=False,
                         min_score=thr)
        b = sharded.search("return", limit=10, normalize=False,
                           min_score=thr)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a.num_rows < 10  # filtering shrank the page for both

    def test_identical_with_tombstones(self, built_index, tiny_corpus_dir,
                                       tmp_path):
        """The same ids deleted from the single index and from their
        shards before the actors open: each shard drops its own deleted
        docs in the candidate stage, and the merged ranking still equals
        the single index's."""
        import shutil

        from yetisearch_ray.index.build import IndexConfig
        from yetisearch_ray.index.manage import delete_docs
        from yetisearch_ray.search.doc_sharded import (DocShardedEngine,
                                                       build_doc_shards)
        from yetisearch_ray.sources.parquet_source import \
            read_parquet_with_doc_ids

        single = str(tmp_path / "single")
        shutil.copytree(built_index, single)
        cfg = IndexConfig(
            fields=[("path", "path"), ("content", "content")],
            language_column="lang",
            store_columns=["repo", "path", "commit", "lang", "content"],
            num_partitions=4,
        )
        dirs = build_doc_shards(read_parquet_with_doc_ids(tiny_corpus_dir),
                                str(tmp_path / "shards"), cfg, n_shards=3)
        top = SearchEngine(open_index(single), cache_ttl=0.0).search(
            "return", limit=60, normalize=False)["doc_id"].to_pylist()
        dead = top[::4] + [1, 2, 3]
        delete_docs(single, dead)
        for s, d in enumerate(dirs):
            delete_docs(d, [i for i in dead if i % 3 == s])
        local = SearchEngine(open_index(single), cache_ttl=0.0)
        sharded = DocShardedEngine(dirs)
        try:
            for case in self.CASES:
                kw = dict(case)
                q = kw.pop("q")
                a = local.search(q, limit=20, normalize=False, **kw)
                b = sharded.search(q, limit=20, normalize=False, **kw)
                assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), case
                assert not set(dead) & set(b["doc_id"].to_pylist()), case
                assert np.allclose(a["score"].to_numpy(), b["score"].to_numpy(),
                                   atol=1e-9), case
        finally:
            sharded.shutdown()
