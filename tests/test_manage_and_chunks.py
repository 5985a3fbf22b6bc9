"""Chunking stage, index management (tombstones/optimize/stats), facets,
multi-index union, dedup-by-route over chunks."""

import os
import shutil

import numpy as np
import pytest

from yetisearch_ray.index.build import IndexConfig, build_index
from yetisearch_ray.index.manage import (
    clear_index,
    delete_by_prefix,
    delete_docs,
    drop_index,
    index_stats,
    optimize_index,
    tombstones,
)
from yetisearch_ray.search.engine import SearchEngine, open_index
from yetisearch_ray.stages.chunker import chunk_documents, chunk_text, split_sentences


class TestChunkText:
    def test_sentence_split(self):
        assert split_sentences("One. Two! Three? Four") == ["One.", "Two!", "Three?", "Four"]

    def test_short_doc_single_chunk(self):
        assert chunk_text("short", 50, 10) == ["short"]

    def test_fixture_2b(self):
        # FIXTURES.md §2b: "Sentence. " * 20, chunk_size 50, overlap 10
        text = ("Sentence. " * 20).strip()
        chunks = chunk_text(text, 50, 10)
        assert len(chunks) > 1
        assert all(len(c) <= 60 for c in chunks)  # size + carried overlap
        # overlap: consecutive chunks share trailing/leading words
        assert chunks[1].startswith("Sentence")

    def test_giant_sentence_hard_split(self):
        text = "x" * 250
        chunks = chunk_text(text, 100, 10)
        assert sum(len(c) for c in chunks) >= 250
        assert all(len(c) <= 100 for c in chunks)


@pytest.mark.usefixtures("ray_session")
class TestChunkStage:
    def test_explode_and_ids(self):
        import ray.data as rd

        rows = [
            {"doc_id": 1, "text": ("Sentence. " * 20).strip(), "lang": "en"},
            {"doc_id": 2, "text": "tiny", "lang": "en"},
        ]
        out = chunk_documents(rd.from_items(rows), chunk_size=50,
                              chunk_overlap=10).to_pandas()
        parents = out[~out.is_chunk]
        chunks = out[out.is_chunk]
        assert len(parents) == 2
        assert len(chunks) >= 3
        assert (chunks.parent_id == 1).all()
        assert sorted(chunks.chunk_index) == list(range(len(chunks)))
        # derived ids: unique, parent-prefixed
        assert out.doc_id.is_unique
        assert (chunks.doc_id.to_numpy() >> 12 == 1).all()
        assert "lang" in out.columns

    def test_pre_chunked_ingest(self):
        """User-provided chunks skip automatic splitting (reference
        Indexer.php:269-325)."""
        import ray.data as rd

        rows = [
            {"doc_id": 1, "text": ("Long. " * 50).strip(),
             "chunks": ["user chunk one", "user chunk two"]},
            {"doc_id": 2, "text": ("Long. " * 50).strip(), "chunks": []},
        ]
        out = chunk_documents(rd.from_items(rows), chunk_size=50,
                              chunk_overlap=10,
                              chunks_col="chunks").to_pandas()
        d1 = out[out.parent_id == 1]
        assert sorted(d1[d1.is_chunk].text) == ["user chunk one",
                                                "user chunk two"]
        assert len(d1) == 3  # parent + 2 user chunks
        d2 = out[out.parent_id == 2]  # empty list -> auto chunking
        assert len(d2[d2.is_chunk]) > 2
        assert "chunks" not in out.columns

    def test_facade_pre_chunked(self, ray_session, tmp_path):
        from yetisearch_ray.facade import YetiSearchRay

        ys = YetiSearchRay(str(tmp_path / "ys"))
        ys.create_index("books", fields=["title", "content"])
        ys.index_batch("books", [{
            "content": {"title": "Rocketry", "content": "full body text"},
            "chunks": ["first rocket stage details",
                       {"content": "second stage separation"}],
        }])
        assert ys.search("books", "rocket").num_rows >= 1
        assert ys.search("books", "separation").num_rows == 1

    def test_chunked_index_dedup_by_route(self, tmp_path):
        """Index chunk rows, search, dedup by parent route (reference
        chunk + unique_by_route flow)."""
        import ray.data as rd
        import pyarrow as pa

        body = "Alpha beta gamma. " * 12
        rows = [
            {"doc_id": 1, "text": body + "needle here.", "route": "/a"},
            {"doc_id": 2, "text": body + "needle there.", "route": "/b"},
        ]
        ds = chunk_documents(rd.from_items(rows), chunk_size=80, chunk_overlap=10,
                             keep_parent=False)

        def cast_ids(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            i = t.schema.get_field_index("doc_id")
            return t.set_column(i, "doc_id", pc.cast(t["doc_id"], pa.uint64()))

        ds = ds.map_batches(cast_ids, batch_format="pyarrow")
        idx = str(tmp_path / "chunkidx")
        cfg = IndexConfig(fields=[("text", "text")],
                          store_columns=["text", "route", "parent_id",
                                         "chunk_index", "is_chunk"],
                          num_partitions=4)
        build_index(ds, idx, cfg)
        eng = SearchEngine(open_index(idx))
        plain = eng.search("alpha", limit=50, normalize=False)
        assert plain.num_rows > 2  # multiple chunks match
        dedup = eng.search("alpha", limit=50, normalize=False,
                           unique_by_route=True, route_column="route")
        assert dedup.num_rows == 2  # one representative per route


@pytest.mark.usefixtures("ray_session")
class TestManagement:
    @pytest.fixture()
    def small_index(self, tmp_path, tiny_corpus_dir):
        from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

        idx = str(tmp_path / "mgmt")
        cfg = IndexConfig(
            fields=[("path", "path"), ("content", "content")],
            language_column="lang",
            store_columns=["repo", "path", "commit", "lang", "content"],
            num_partitions=8, content_hash_column="content",
        )
        build_index(read_parquet_with_doc_ids(tiny_corpus_dir), idx, cfg)
        return idx

    def test_delete_and_query_time_filter(self, small_index):
        eng = SearchEngine(open_index(small_index))
        r = eng.search("return", limit=5, normalize=False)
        victim = r["doc_id"][0].as_py()
        n_before = eng.count("return")
        delete_docs(small_index, [victim])
        eng2 = SearchEngine(open_index(small_index))  # reload manifest
        r2 = eng2.search("return", limit=5, normalize=False)
        assert victim not in r2["doc_id"].to_pylist()
        assert eng2.count("return") == n_before - 1

    def test_delete_by_prefix(self, small_index):
        n = delete_by_prefix(small_index, "path", "src/module_1/")
        assert n > 0
        assert len(tombstones(small_index)) >= n

    def test_optimize_compacts(self, small_index):
        eng = SearchEngine(open_index(small_index))
        victim = eng.search("return", limit=1, normalize=False)["doc_id"][0].as_py()
        n_docs_before = index_stats(small_index)["n_docs"]
        delete_docs(small_index, [victim])
        res = optimize_index(small_index)
        assert res["docs_removed"] == 1
        st = index_stats(small_index)
        assert st["n_docs"] == n_docs_before - 1
        assert st["tombstones"] == 0
        eng2 = SearchEngine(open_index(small_index))
        assert victim not in eng2.search("return", limit=1000,
                                         normalize=False)["doc_id"].to_pylist()

    def test_meta_lookup_non_dense_after_optimize(self, small_index):
        """Delete + optimize leaves gaps in the doc_id space, so the
        dense direct-index fast path must disable itself and the sorted
        fallback must return exactly the stored doc lengths."""
        import numpy as np

        from yetisearch_ray.index.docstore import DL_COLUMN, DocStore

        eng = SearchEngine(open_index(small_index))
        victim = eng.search("return", limit=1, normalize=False)["doc_id"][0].as_py()
        delete_docs(small_index, [victim])
        optimize_index(small_index)
        rd = open_index(small_index)
        rd._load_meta()
        assert rd._meta_dense is False  # gap at `victim`
        with DocStore.committed(small_index) as store:
            dl = store.scan(["doc_id", DL_COLUMN]).to_pandas()
        truth = dict(zip(dl.doc_id, dl[DL_COLUMN]))
        probe = np.array(sorted(truth)[:50], dtype=np.uint64)
        got = rd.dl_total_for(probe)
        assert got.tolist() == [truth[d] for d in probe.tolist()]

    def test_stats_by_language(self, small_index):
        st = index_stats(small_index, by="lang")
        assert sum(st["by_lang"].values()) == st["n_docs"]
        assert "python" in st["by_lang"]

    def test_clear_and_drop(self, small_index):
        clear_index(small_index)
        assert index_stats(small_index)["n_docs"] == 0
        drop_index(small_index)
        assert not os.path.exists(small_index)


@pytest.mark.usefixtures("ray_session")
class TestFacetsAndMulti:
    def test_facets_over_match_set(self, built_index):
        eng = SearchEngine(open_index(built_index))
        f = eng.facets("return", ["lang"], top_n=10)
        t = f["lang"].to_pandas()
        assert t["count"].sum() > 0
        assert t["count"].is_monotonic_decreasing

    def test_search_multiple_union(self, built_index):
        eng = SearchEngine(open_index(built_index))
        merged = SearchEngine.search_multiple(
            {"a": eng, "b": eng}, "parse", limit=10, normalize=False)
        assert merged.num_rows == 10
        assert set(merged["_index"].to_pylist()) <= {"a", "b"}
        scores = merged["score"].to_pylist()
        assert scores == sorted(scores, reverse=True)


@pytest.mark.usefixtures("ray_session")
class TestScoringExtras:
    def test_post_rescore_boosts_field_matches(self, built_index):
        eng = SearchEngine(open_index(built_index))
        base = eng.search("module", limit=10, normalize=False)
        res = eng.search("module", limit=10, normalize=False,
                         post_rescore=True,
                         field_weights={"path": 5.0, "content": 1.0})
        assert res.num_rows == 10
        # rescored scores are >= base (multiplicative boost >= 1)
        assert max(res["score"].to_pylist()) >= max(base["score"].to_pylist())

    def test_two_pass_mode(self, built_index):
        eng = SearchEngine(open_index(built_index))
        r = eng.search_two_pass("module parse", limit=10,
                                field_weights={"path": 5.0, "content": 1.0})
        assert r.num_rows == 10
        df = r.to_pandas()
        assert not df.doc_id.duplicated().any()
        assert df.score.is_monotonic_decreasing

    def test_query_cache_hits(self, built_index):
        eng = SearchEngine(open_index(built_index), cache_ttl=300)
        a = eng.search("parse", limit=5)
        assert len(eng._result_cache) == 1
        b = eng.search("parse", limit=5)
        assert a is b  # identity: served from cache
        c = eng.search("parse", limit=6)
        assert c is not a

    def test_cache_disabled(self, built_index):
        eng = SearchEngine(open_index(built_index), cache_ttl=0)
        eng.search("parse", limit=5)
        assert len(eng._result_cache) == 0


@pytest.mark.usefixtures("ray_session")
class TestIncrementalAppend:
    def test_append_generation_and_merge(self, tmp_path):
        """Incremental indexing: base build + append of new docs -> reader
        merges generations; optimize compacts to one file per part with
        identical query results."""
        import glob as _glob

        import ray.data as rd
        import pyarrow as pa

        def mk(rows):
            def cast_ids(t: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                i = t.schema.get_field_index("doc_id")
                return t.set_column(i, "doc_id", pc.cast(t["doc_id"], pa.uint64()))

            return rd.from_items(rows).map_batches(cast_ids, batch_format="pyarrow")

        idx = str(tmp_path / "genidx")
        cfg = IndexConfig(fields=[("text", "text")], store_columns=["text"],
                          num_partitions=4)
        base = [{"doc_id": i, "text": f"alpha shared token doc{i}"} for i in range(10)]
        build_index(mk(base), idx, cfg, balance_hot_terms=False)
        extra = [{"doc_id": 100 + i, "text": f"alpha newer token doc{100+i}"}
                 for i in range(5)]
        build_index(mk(extra), idx, cfg, append=True)

        eng = SearchEngine(open_index(idx))
        r = eng.search("alpha", limit=50, normalize=False)
        assert r.num_rows == 15  # both generations visible
        assert eng.index.n_docs == 15  # stats accumulated
        gens = _glob.glob(os.path.join(idx, "postings", "*-g001.parquet"))
        assert gens, "second generation files expected"

        before = eng.search("newer", limit=50, normalize=False)["doc_id"].to_pylist()
        res = optimize_index(idx)
        assert res["segments"] >= 1
        assert not _glob.glob(os.path.join(idx, "postings", "*-g001.parquet"))
        eng2 = SearchEngine(open_index(idx))
        after = eng2.search("newer", limit=50, normalize=False)["doc_id"].to_pylist()
        assert sorted(before) == sorted(after)
        assert eng2.index.n_docs == 15

    def test_hot_term_map_persisted_and_used(self, tmp_path, tiny_corpus_dir):
        from yetisearch_ray.index.manifest import Manifest
        from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

        idx = str(tmp_path / "hotidx")
        cfg = IndexConfig(fields=[("path", "path"), ("content", "content")],
                          language_column="lang",
                          store_columns=["repo", "path", "commit", "lang", "content"],
                          num_partitions=8, content_hash_column="content")
        build_index(read_parquet_with_doc_ids(tiny_corpus_dir), idx, cfg,
                    balance_hot_terms=True)
        man = Manifest.load(idx)
        hot = man.data.get("hot_terms") or {}
        split = man.data.get("split_terms") or {}
        assert hot  # the Zipf head gets explicit placement
        # ultra-hot keywords are split; others get single placement
        assert "return" in hot or "return" in split
        # the engine must find hot terms via the explicit placement
        eng = SearchEngine(open_index(idx))
        assert eng.search("return", limit=5, normalize=False).num_rows == 5
        assert eng.count("return") > 100


@pytest.mark.usefixtures("ray_session")
class TestPartialResume:
    def test_resume_rebuilds_only_missing_partitions(self, tmp_path, tiny_corpus_dir):
        """Simulate a mid-build crash: un-commit half the partitions and
        delete their segment files; resume must rebuild exactly those and
        leave committed segments untouched (per-partition lineage)."""
        import glob as _glob
        import json

        from yetisearch_ray.index.manifest import Manifest
        from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

        idx = str(tmp_path / "partial")
        cfg = IndexConfig(
            fields=[("path", "path"), ("content", "content")],
            language_column="lang",
            store_columns=["repo", "path", "commit", "lang", "content"],
            num_partitions=8, content_hash_column="content",
        )
        ds = read_parquet_with_doc_ids(tiny_corpus_dir)
        build_index(ds, idx, cfg, input_fingerprint="x")
        eng_before = SearchEngine(open_index(idx))
        before = eng_before.search("parse", limit=20, normalize=False).to_pandas()

        # crash simulation: drop partitions 0..3
        man = Manifest.load(idx)
        dropped = []
        for k in list(man.data["partitions"]):
            part = int(k.split(":")[-1])
            if part < 4:
                del man.data["partitions"][k]
                dropped.append(part)
        man.data["status"] = "building"
        man.save()
        for p in dropped:
            for f in _glob.glob(os.path.join(idx, "postings", f"part={p:05d}*.parquet")):
                os.remove(f)
        kept_files = sorted(_glob.glob(os.path.join(idx, "postings", "*.parquet")))
        mtimes = {f: os.path.getmtime(f) for f in kept_files}

        ds2 = read_parquet_with_doc_ids(tiny_corpus_dir)
        build_index(ds2, idx, cfg, resume=True, input_fingerprint="x")
        # committed partitions untouched
        for f in kept_files:
            assert os.path.getmtime(f) == mtimes[f]
        # dropped partitions rebuilt, results identical
        man2 = Manifest.load(idx)
        assert man2.data["status"] == "committed"
        assert len(man2.committed_partitions()) == 8
        eng_after = SearchEngine(open_index(idx))
        after = eng_after.search("parse", limit=20, normalize=False).to_pandas()
        assert before.doc_id.tolist() == after.doc_id.tolist()
        assert (before.score - after.score).abs().max() < 1e-9
        assert eng_after.index.n_docs == eng_before.index.n_docs


@pytest.mark.usefixtures("ray_session")
class TestHotTermSplitting:
    def test_split_terms_salted_and_merged(self, tmp_path, tiny_corpus_dir):
        """Ultra-hot terms (df >= 50% of sample) are SPLIT across
        partitions by doc-hash salt; the reader merges the sub-lists and
        results equal an unsplit build."""
        import glob as _glob
        import pyarrow.parquet as pq

        from yetisearch_ray.index.manifest import Manifest
        from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

        cfg = IndexConfig(
            fields=[("path", "path"), ("content", "content")],
            language_column="lang",
            store_columns=["repo", "path", "commit", "lang", "content"],
            num_partitions=8, content_hash_column="content",
        )
        idx_a = str(tmp_path / "split_on")
        build_index(read_parquet_with_doc_ids(tiny_corpus_dir), idx_a, cfg,
                    balance_hot_terms=True)
        man = Manifest.load(idx_a)
        split = man.data.get("split_terms") or {}
        assert split, "corpus keywords have df >= 50% and must be split"
        term = sorted(split)[0]
        parts = split[term]
        assert len(set(parts)) > 1
        # the term's rows exist in more than one partition file
        found_in = 0
        for p in set(parts):
            for f in _glob.glob(os.path.join(idx_a, "postings", f"part={p:05d}*.parquet")):
                t = pq.read_table(f, filters=[("term", "==", term)])
                if t.num_rows:
                    found_in += 1
        assert found_in > 1

        idx_b = str(tmp_path / "split_off")
        build_index(read_parquet_with_doc_ids(tiny_corpus_dir), idx_b, cfg,
                    balance_hot_terms=False)
        ea = SearchEngine(open_index(idx_a), cache_ttl=0)
        eb = SearchEngine(open_index(idx_b), cache_ttl=0)
        for q in [term, "parse buffer", f"{term} parse"]:
            ra = ea.search(q, limit=20, normalize=False)
            rb = eb.search(q, limit=20, normalize=False)
            assert ra["doc_id"].to_pylist() == rb["doc_id"].to_pylist(), q
            assert ra["score"].to_pylist() == pytest.approx(
                rb["score"].to_pylist(), abs=1e-9)
        # phrase across a split term must keep positions
        rp = ea.search('"exponential backoff"', limit=10, normalize=False)
        rq = eb.search('"exponential backoff"', limit=10, normalize=False)
        assert rp["doc_id"].to_pylist() == rq["doc_id"].to_pylist()


@pytest.mark.usefixtures("ray_session")
class TestRebuild:
    def test_rebuild_from_docstore(self, tmp_path, tiny_corpus_dir):
        from yetisearch_ray.index.manage import rebuild_index
        from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

        idx = str(tmp_path / "rb")
        cfg = IndexConfig(
            fields=[("path", "path"), ("content", "content")],
            language_column="lang",
            store_columns=["repo", "path", "commit", "lang", "content"],
            num_partitions=8, content_hash_column="content",
        )
        build_index(read_parquet_with_doc_ids(tiny_corpus_dir), idx, cfg)
        eng = SearchEngine(open_index(idx), cache_ttl=0)
        before = eng.search("parse buffer", limit=20, normalize=False).to_pandas()
        victim = int(before.doc_id.iloc[0])
        delete_docs(idx, [victim])
        res = rebuild_index(idx)
        assert res["dropped"] == 1
        eng2 = SearchEngine(open_index(idx), cache_ttl=0)
        after = eng2.search("parse buffer", limit=20, normalize=False).to_pandas()
        assert victim not in after.doc_id.tolist()
        assert eng2.index.tombstones.size == 0
        # everything else still searchable with consistent ordering
        rest = [d for d in before.doc_id.tolist() if d != victim]
        assert after.doc_id.tolist()[: len(rest)] == rest[: len(after)]
