"""End-to-end: build the index over the synthetic code corpus, query it,
and verify rank-identity against an independent DuckDB BM25 oracle."""

import glob
import json
import os

import duckdb
import numpy as np
import pyarrow.parquet as pq
import pytest

from yetisearch_ray.index.manifest import Manifest
from yetisearch_ray.search.engine import SearchEngine, open_index

K1, B = 1.2, 0.75

# DuckDB replica of the FTS5 BM25 math over the raw corpus table —
# completely independent of the engine's posting codec.
_ORACLE = r"""
WITH corpus AS (
  SELECT row_number() OVER (ORDER BY repo, path, "commit") - 1 AS doc_id,
         path, content, lang
  FROM read_parquet('{files}')
),
tok AS (
  SELECT doc_id, t.term FROM corpus,
  unnest(regexp_split_to_array(lower(strip_accents(path || ' ' || content)), '[^a-z0-9]+')) AS t(term)
  WHERE t.term <> ''
),
tokf AS (
  SELECT doc_id, fld, term FROM (
    SELECT doc_id, 0 AS fld, u.term
      FROM corpus, unnest(regexp_split_to_array(lower(strip_accents(path)), '[^a-z0-9]+')) AS u(term)
    UNION ALL
    SELECT doc_id, 1 AS fld, u.term
      FROM corpus, unnest(regexp_split_to_array(lower(strip_accents(content)), '[^a-z0-9]+')) AS u(term)
  ) WHERE term <> ''
),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM corpus) AS n,
         (SELECT count(*) FROM tok)::DOUBLE / (SELECT count(*) FROM corpus) AS avgdl
),
qterms AS (SELECT unnest({terms}) AS term),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tokf
  WHERE term IN (SELECT term FROM qterms) GROUP BY term
),
tf AS (
  SELECT doc_id, term, sum(w) AS tfw FROM (
    SELECT doc_id, term, fld, count(*) * (CASE fld WHEN 0 THEN {w0} ELSE {w1} END) AS w
    FROM tokf WHERE term IN (SELECT term FROM qterms)
    GROUP BY doc_id, term, fld
  ) GROUP BY doc_id, term
),
scored AS (
  SELECT tf.doc_id,
         sum( greatest(ln((stats.n - df.df + 0.5) / (df.df + 0.5)), 0.000001)
              * (tf.tfw * ({k1} + 1)) /
                (tf.tfw + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl)) ) AS s,
         count(*) AS nterms
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id), stats
  GROUP BY tf.doc_id, stats.n, stats.avgdl
)
SELECT doc_id, s FROM scored {where}
ORDER BY -s ASC, doc_id ASC LIMIT {k}
"""


def _oracle(corpus_dir, terms, k=10, w0=1.0, w1=1.0, require_all=False):
    files = os.path.join(corpus_dir, "*.parquet")
    terms_sql = "[" + ", ".join(f"'{t}'" for t in terms) + "]"
    where = f"WHERE nterms = {len(terms)}" if require_all else ""
    sql = _ORACLE.format(files=files, terms=terms_sql, w0=w0, w1=w1,
                         k1=K1, b=B, where=where, k=k)
    return duckdb.sql(sql).fetchall()


@pytest.mark.usefixtures("ray_session")
class TestBuild:
    def test_manifest_committed(self, built_index):
        man = Manifest.load(built_index)
        assert man.data["status"] == "committed"
        assert man.stats["n_docs"] == 300
        assert man.stats["avgdl"] > 0
        assert len(man.committed_partitions()) >= 1
        for p in man.data["partitions"].values():
            assert p["terms"] > 0 and p["bytes"] > 0

    def test_docstore_sha256_invariant(self, built_index, tiny_corpus_dir):
        import hashlib

        from yetisearch_ray.index.docstore import DocStore

        docs = DocStore.committed(built_index).scan()
        src = pq.read_table(tiny_corpus_dir)
        d = docs.to_pandas().sort_values("doc_id")
        # doc_id order == (repo, path, commit) order of the source
        s = src.to_pandas().sort_values(["repo", "path", "commit"]).reset_index(drop=True)
        assert len(d) == len(s)
        expect = s["content"].map(lambda c: hashlib.sha256(c.encode()).hexdigest())
        assert (d["sha256"].to_numpy() == expect.to_numpy()).all()

    def test_df_matches_duckdb(self, built_index, tiny_corpus_dir):
        """df of a few terms vs DuckDB ground truth (any-field df)."""
        idx = open_index(built_index)
        files = os.path.join(tiny_corpus_dir, "*.parquet")
        for term in ["def", "return", "parse", "buffer", "the"]:
            posts = idx.postings(term)
            if not posts:
                continue
            union = np.unique(np.concatenate([p.doc_ids for p in posts.values()]))
            got = int(union.size)
            want = duckdb.sql(
                f"""SELECT count(*) FROM read_parquet('{files}')
                    WHERE len(regexp_extract_all(lower(strip_accents(path || ' ' || content)),
                              '[a-z0-9]+')) > 0
                    AND list_contains(regexp_extract_all(lower(strip_accents(path || ' ' || content)), '[a-z0-9]+'), '{term}')"""
            ).fetchone()[0]
            assert got == want, term

    def test_dictionary_bounded_merge_is_exact(self, built_index):
        """IndexReader.dictionary() must equal the naive scan of every
        segment's term-dictionary file — including doc-salted SPLIT
        terms, whose df shards live in several partitions and must be
        re-summed across them."""
        import pandas as pd
        import pyarrow.dataset as pads

        idx = open_index(built_index)
        assert idx.manifest.data.get("split_terms"), \
            "fixture no longer exercises the split-term path"
        got = idx.dictionary(limit=100, min_df=2)
        t = pads.dataset(sorted(glob.glob(os.path.join(
            built_index, "postings", "*.parquet"))),
            format="parquet").to_table(columns=["term", "df"])
        s = pd.Series(t["df"].to_numpy(zero_copy_only=False),
                      index=t["term"].to_pylist()).groupby(level=0).sum()
        s = s[s >= 2].sort_values(ascending=False, kind="stable")
        want = dict(s.head(100))
        assert set(got) == set(want)
        assert all(got[k] == want[k] for k in got)
        # split terms must be present with their full cross-partition df
        for st_ in idx.manifest.data["split_terms"]:
            if st_ in want:
                assert got[st_] == want[st_]


@pytest.mark.usefixtures("ray_session")
class TestRankIdentity:
    """Top-k doc_ids + BM25 scores rank-identical to the independent oracle
    (the BASELINE.md conformance gate, fuzzy off)."""

    def _check(self, built_index, corpus_dir, terms, mode, w=None, k=10):
        eng = SearchEngine(open_index(built_index),
                           field_weights=w and {"path": w[0], "content": w[1]})
        q = " ".join(terms)
        r = eng.search(q, limit=k, mode=mode, normalize=False)
        got = list(zip(r["doc_id"].to_pylist(), r["score"].to_pylist()))
        w0, w1 = (w or (1.0, 1.0))
        want = _oracle(corpus_dir, terms, k=k, w0=w0, w1=w1,
                       require_all=(mode == "and"))
        assert [g[0] for g in got] == [int(x[0]) for x in want], (terms, mode)
        for (gid, gs), (wid, ws) in zip(got, want):
            assert abs(abs(gs) - abs(ws)) < 1e-6, (terms, gid, gs, ws)

    def test_single_term(self, built_index, tiny_corpus_dir):
        for t in ["parse", "buffer", "merge", "deadline"]:
            self._check(built_index, tiny_corpus_dir, [t], "or")

    def test_multi_term_or(self, built_index, tiny_corpus_dir):
        self._check(built_index, tiny_corpus_dir, ["parse", "buffer"], "or")

    def test_multi_term_and(self, built_index, tiny_corpus_dir):
        self._check(built_index, tiny_corpus_dir, ["retry", "backoff"], "and")

    def test_field_boosted(self, built_index, tiny_corpus_dir):
        self._check(built_index, tiny_corpus_dir, ["module"], "or", w=(5.0, 1.0))

    def test_hot_term(self, built_index, tiny_corpus_dir):
        # language keywords: df > N/2 → negative idf branch must match too
        self._check(built_index, tiny_corpus_dir, ["return"], "or")

    def test_phrase(self, built_index, tiny_corpus_dir):
        """Phrase tf/df via position adjacency vs a DuckDB lambda oracle."""
        eng = SearchEngine(open_index(built_index))
        r = eng.search('"exponential backoff"', limit=10, normalize=False)
        ids = r["doc_id"].to_pylist()
        files = os.path.join(tiny_corpus_dir, "*.parquet")
        want = duckdb.sql(
            f"""
            WITH corpus AS (
              SELECT row_number() OVER (ORDER BY repo, path, "commit") - 1 AS doc_id,
                     lower(strip_accents(path || ' ' || content)) AS txt
              FROM read_parquet('{files}')
            ), toks AS (
              SELECT doc_id, regexp_extract_all(txt, '[a-z0-9]+') AS arr FROM corpus
            )
            SELECT doc_id FROM toks
            WHERE len(list_filter(range(1, len(arr)),
                  i -> arr[i] = 'exponential' AND arr[i+1] = 'backoff')) > 0
            ORDER BY doc_id
            """
        ).fetchall()
        assert sorted(ids) == [int(x[0]) for x in want]


@pytest.mark.usefixtures("ray_session")
class TestEngineFeatures:
    def test_language_filter(self, built_index):
        eng = SearchEngine(open_index(built_index))
        r = eng.search("return", limit=50, language="python", with_docs=True)
        langs = set(r["lang"].to_pylist())
        assert langs <= {"python"}

    def test_normalization_0_100(self, built_index):
        eng = SearchEngine(open_index(built_index))
        r = eng.search("parse buffer", limit=10)
        scores = r["score"].to_pylist()
        assert scores and max(scores) == 100.0

    def test_limit_offset(self, built_index):
        eng = SearchEngine(open_index(built_index))
        full = eng.search("return", limit=10, normalize=False)["doc_id"].to_pylist()
        page2 = eng.search("return", limit=5, offset=5, normalize=False)["doc_id"].to_pylist()
        assert page2 == full[5:]

    def test_count(self, built_index):
        eng = SearchEngine(open_index(built_index))
        assert eng.count("return") > 0
        assert eng.count("zzzznotaterm") == 0

    def test_prefix_query(self, built_index):
        eng = SearchEngine(open_index(built_index))
        idx = open_index(built_index)
        terms = idx.expand_prefix("pars")
        assert "parse" in terms
        r = eng.search("pars", prefix_last=True, limit=20, normalize=False)
        assert r.num_rows > 0

    def test_highlight(self, built_index):
        eng = SearchEngine(open_index(built_index))
        r = eng.search("deadline", limit=3, highlight=True)
        assert r.num_rows > 0
        # substring-inside-identifier (csv_deadline) is snippet-anchored but
        # not <mark>ed (\b boundary) — reference quirk; at least one result
        # must carry a mark
        assert any("<mark>" in r["highlight"][i].as_py() for i in range(r.num_rows))

    def test_hot_term_sketch_sees_the_tail(self, ray_session):
        """A term hot only in the corpus TAIL must still reach the
        placement maps — guards against prefix (ds.limit) sampling."""
        import ray.data as rd

        from yetisearch_ray.index.build import IndexConfig, sketch_hot_terms

        rows = [{"doc_id": i, "content": "filler words body"}
                for i in range(700)]
        rows += [{"doc_id": 700 + i, "content": "tailhotterm appears here"}
                 for i in range(300)]
        ds = rd.from_items(rows)
        cfg = IndexConfig(fields=[("content", "content")], num_partitions=8)
        hot_map, split_map = sketch_hot_terms(ds, cfg, sample_docs=200)
        seen = set(hot_map) | set(split_map)
        assert "tailhotterm" in seen

    def test_load_relative_split_bounds_partition_share(self, ray_session):
        """Round-5 P=1024 rehearsal finding: a term with df far above
        the per-partition mean but below half the corpus must be SPLIT
        ceil(df/budget) ways, not placed whole (the fixed >=50% rule
        alone put 400x the median rows in the hot tenth of partitions).
        """
        import ray.data as rd

        from yetisearch_ray.index.build import IndexConfig, sketch_hot_terms

        # 1000 docs, P=64: one term in 30% of docs (below the 50% split
        # ratio, ~19x the mean per-partition mass), long tail elsewhere
        rows = [{"doc_id": i,
                 "content": f"uniq{i} " + ("midhot common" if i % 10 < 3
                                           else "rare stuff")}
                for i in range(1000)]
        ds = rd.from_items(rows)
        cfg = IndexConfig(fields=[("content", "content")],
                          num_partitions=64)
        hot_map, split_map = sketch_hot_terms(ds, cfg, sample_docs=1000)
        assert "midhot" in split_map, "mid-df term must be split"
        ways = len(split_map["midhot"])
        # budget = 2 * total_mass / P; df(midhot) ~ 300 of ~2300 pairs
        # -> ceil(300 / 72) ~ 4-5 ways; assert the load-relative shape
        assert ways >= 3, f"expected load-relative split, got {ways}"
        # and the ultra-hot >=50% rule still applies on top
        rows2 = [{"doc_id": i, "content": "everywhere filler"}
                 for i in range(1000)]
        _, split2 = sketch_hot_terms(rd.from_items(rows2), cfg,
                                     sample_docs=1000)
        assert "everywhere" in split2 and len(split2["everywhere"]) >= 4

    def test_split_placement_lists_each_partition_once(self, ray_session,
                                                       tmp_path):
        """An ultra-hot term whose sampled df is below ``split_ways``
        must not list one partition several times: the reader would read
        that partition's postings once per listing and count them again
        each time."""
        import ray.data as rd

        from yetisearch_ray.index.build import (IndexConfig, build_index,
                                                sketch_hot_terms)

        rows = [{"doc_id": i, "content": f"everywhere word{i}"}
                for i in range(3)]
        cfg = IndexConfig(fields=[("content", "content")],
                          store_columns=["content"], num_partitions=8)
        _, split = sketch_hot_terms(rd.from_items(rows), cfg, split_ways=4)
        assert "everywhere" in split
        for term, parts in split.items():
            assert len(parts) == len(set(parts)), (term, parts)
            assert len(parts) <= 3, (term, parts)  # capped at df
        idx = str(tmp_path / "idx")
        build_index(rd.from_items(rows), idx, cfg)
        post = open_index(idx).postings("everywhere")[0]
        assert post.doc_ids.tolist() == [0, 1, 2]
        assert post.tfs.tolist() == [1, 1, 1]

    def test_missing_segment_names_its_partition(self, ray_session,
                                                 tmp_path):
        """A committed segment file that is gone is an error naming the
        partition, not an absent term."""
        import ray.data as rd

        from yetisearch_ray.index.build import IndexConfig, build_index

        rows = [{"doc_id": i, "content": f"alpha beta{i % 5} gamma"}
                for i in range(60)]
        idx = str(tmp_path / "idx")
        build_index(rd.from_items(rows), idx,
                    IndexConfig(fields=[("content", "content")],
                                store_columns=["content"], num_partitions=8))
        reader = open_index(idx)
        (part,) = reader._term_parts("beta3")
        other = next(t for t in ("beta0", "beta1", "beta2", "beta4")
                     if part not in reader._term_parts(t))
        os.remove(os.path.join(idx, "postings",
                               f"part={part:05d}-g000.parquet"))
        eng = SearchEngine(open_index(idx), cache_ttl=0.0)
        with pytest.raises(FileNotFoundError, match=f"partition {part:05d}"):
            eng.search("beta3")
        assert eng.search(other).num_rows == 12

    def test_resume_skips_committed(self, built_index, tiny_corpus_dir):
        """Resuming a committed build re-runs nothing destructive and keeps
        results identical."""
        from yetisearch_ray.index.build import IndexConfig, build_index
        from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

        man_before = Manifest.load(built_index)
        seg_files = sorted(glob.glob(os.path.join(built_index, "postings", "*.parquet")))
        mtimes = {f: os.path.getmtime(f) for f in seg_files}
        ds = read_parquet_with_doc_ids(tiny_corpus_dir)
        cfg = IndexConfig(**{
            k: v for k, v in man_before.config.items() if k != "fields"
        }, fields=[tuple(f) for f in man_before.config["fields"]])
        build_index(ds, built_index, cfg, resume=True, input_fingerprint="tiny300")
        for f in seg_files:
            assert os.path.getmtime(f) == mtimes[f], "committed segment rewritten"

    def test_resume_completes_partial_crash(self, ray_session, tmp_path):
        """A build that died after committing only SOME partitions must,
        on resume, produce an index identical to a clean build — the
        skip-filter recomputes exactly the missing partitions."""
        import glob as _glob

        import ray.data as rd

        from yetisearch_ray.index.build import IndexConfig, build_index
        from yetisearch_ray.search.engine import SearchEngine, open_index

        rows = [{"doc_id": i, "path": f"f{i}.py",
                 "content": f"alpha beta{i % 5} gamma delta{i}"}
                for i in range(120)]

        def cfg():
            return IndexConfig(fields=[("path", "path"),
                                       ("content", "content")],
                               store_columns=["path", "content"],
                               num_partitions=8)

        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        build_index(rd.from_items(rows), a, cfg())
        build_index(rd.from_items(rows), b, cfg())
        # simulate the crash: half the partitions lose their manifest
        # entry AND their segment files (as if never committed)
        man = Manifest.load(b)
        victims = sorted(man.data["partitions"])[:4]
        for k in victims:
            part = int(k.split(":")[1])
            man.data["partitions"].pop(k)
            for f in _glob.glob(os.path.join(
                    b, "postings", f"part={part:05d}-*.parquet")):
                os.remove(f)
        man.data["status"] = "building"
        man.save()
        build_index(rd.from_items(rows), b, cfg(), resume=True)
        ea = SearchEngine(open_index(a), cache_ttl=0.0)
        eb = SearchEngine(open_index(b), cache_ttl=0.0)
        for q in ["alpha", "beta2", "gamma delta7", '"gamma delta7"']:
            ra = ea.search(q, limit=20, normalize=False).to_pandas()
            rb = eb.search(q, limit=20, normalize=False).to_pandas()
            assert (ra[["doc_id", "score"]].values.tolist()
                    == rb[["doc_id", "score"]].values.tolist()), q
        assert (Manifest.load(b).stats == Manifest.load(a).stats)


@pytest.mark.usefixtures("ray_session")
class TestMoreLikeThis:
    """SearchEngine.more_like_this (Lucene MLT shape; the SQL-oracle
    identity over the documents corpus is covered by the
    fts_more_like_this entry in test_oracle_parity)."""

    def test_excludes_self_and_ranks(self, built_index):
        eng = SearchEngine(open_index(built_index))
        src = int(eng.index.meta(eng.index.id_column)[0])
        res = eng.more_like_this(src, limit=5, normalize=False)
        ids = res["doc_id"].to_pylist()
        assert src not in ids
        assert 0 < len(ids) <= 5
        scores = res["score"].to_pylist()
        assert scores == sorted(scores, reverse=True)

    def test_deterministic(self, built_index):
        eng = SearchEngine(open_index(built_index))
        src = int(eng.index.meta(eng.index.id_column)[3])
        a = eng.more_like_this(src, limit=8, normalize=False)
        b = eng.more_like_this(src, limit=8, normalize=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()

    def test_unknown_doc_raises(self, built_index):
        eng = SearchEngine(open_index(built_index))
        with pytest.raises(KeyError):
            eng.more_like_this(10**12)

    def test_unstored_source_columns_raise(self, ray_session, tmp_path):
        import ray.data as rd
        from yetisearch_ray.index.build import IndexConfig, build_index

        rows = [{"doc_id": i, "content": f"alpha beta gamma doc{i}"}
                for i in range(20)]
        idx = str(tmp_path / "nostore")
        cfg = IndexConfig(fields=[("content", "content")],
                          num_partitions=2)  # content NOT stored
        build_index(rd.from_items(rows), idx, cfg)
        eng = SearchEngine(open_index(idx))
        with pytest.raises(ValueError):
            eng.more_like_this(1)


@pytest.mark.usefixtures("ray_session")
class TestSearchAfterAndCollapse:
    """Keyset pagination + boolean NOT + field collapsing contracts
    (oracle identity for all three is in test_oracle_parity via the
    fts_not_topk / fts_collapse_topk / fts_search_after entries)."""

    def test_cursor_equals_offset(self, built_index):
        eng = SearchEngine(open_index(built_index))
        full = eng.search("return", mode="or", limit=12, normalize=False)
        assert full.num_rows >= 8
        p1 = full.slice(0, 4)
        nxt = eng.search_after(
            "return", mode="or",
            after_score=p1["score"][3].as_py(),
            after_doc_id=p1["doc_id"][3].as_py(), limit=4)
        assert nxt["doc_id"].to_pylist() == full.slice(4, 4)["doc_id"].to_pylist()
        assert nxt["score"].to_pylist() == full.slice(4, 4)["score"].to_pylist()

    def test_cursor_rejects_normalize(self, built_index):
        eng = SearchEngine(open_index(built_index))
        with pytest.raises(ValueError):
            eng.search_after("return", after_score=1.0, after_doc_id=0,
                             normalize=True)

    def test_exclude_terms_prune_not_rescore(self, built_index):
        eng = SearchEngine(open_index(built_index))
        base = eng.search("return", limit=1000, normalize=False)
        notq = eng.search("return", exclude_terms=["def"], limit=1000,
                          normalize=False)
        assert notq.num_rows < base.num_rows
        # surviving docs keep their exact base scores (match-set prune only)
        bs = dict(zip(base["doc_id"].to_pylist(), base["score"].to_pylist()))
        for d, s in zip(notq["doc_id"].to_pylist(), notq["score"].to_pylist()):
            assert bs[d] == s

    def test_collapse_sums_and_unions_routes(self, built_index):
        eng = SearchEngine(open_index(built_index))
        flat = eng.search("return", mode="or", limit=1000, normalize=False)
        col = eng.search("return", mode="or", unique_by_route=True,
                         route_column="lang", limit=1000, normalize=False)
        routes = eng.index.meta_for("lang", flat["doc_id"].to_numpy())
        n_routes = len({r for r in routes if r})
        assert col.num_rows == n_routes
        # total mass is conserved: sum of composites == sum of members
        assert np.isclose(np.sum(col["score"].to_numpy()),
                          np.sum(flat["score"].to_numpy()))


@pytest.mark.usefixtures("ray_session")
class TestSlopPhrase:
    """Ordered-proximity phrase (Phrase.slop) vs a brute-force greedy
    chain over the raw token stream — docs AND per-doc tf must agree.
    (SQL-oracle identity over the documents corpus is covered by the
    fts_slop_phrase entry in test_oracle_parity.)"""

    @staticmethod
    def _brute_tf(toks, terms, slop):
        n, tf = len(terms), 0
        for i, t in enumerate(toks):
            if t != terms[0]:
                continue
            cur, ok = i, True
            for j in range(1, n):
                nxt = next((p for p in range(cur + 1, len(toks))
                            if toks[p] == terms[j]), None)
                if nxt is None or nxt - i > n - 1 + slop:
                    ok = False
                    break
                cur = nxt
            tf += ok
        return tf

    def test_matches_brute_force(self, ray_session, tmp_path):
        import random

        import ray.data as rd

        from yetisearch_ray.index.build import IndexConfig, build_index
        from yetisearch_ray.search.engine import Phrase

        random.seed(11)
        vocab = ["alpha", "beta", "gamma", "delta", "eps"]
        rows = [{"doc_id": i, "title": "t",
                 "body": " ".join(random.choice(vocab)
                                  for _ in range(random.randint(3, 30)))}
                for i in range(200)]
        idx = str(tmp_path / "slop")
        build_index(rd.from_items(rows), idx,
                    IndexConfig(fields=[("title", "title"), ("body", "body")],
                                store_columns=[], num_partitions=2))
        eng = SearchEngine(open_index(idx))
        for terms, slop in [(["alpha", "beta"], 0), (["alpha", "beta"], 2),
                            (["beta", "gamma", "alpha"], 3)]:
            pp = eng._phrase_postings(Phrase(list(terms), slop=slop))
            tf_eng: dict = {}
            for p in pp.values():
                for d, t in zip(p.doc_ids.tolist(), p.tfs.tolist()):
                    tf_eng[d] = tf_eng.get(d, 0) + t
            tf_want = {r["doc_id"]: self._brute_tf(r["body"].split(), terms, slop)
                       for r in rows}
            assert tf_eng == {d: v for d, v in tf_want.items() if v}, (terms, slop)

    def test_slop_zero_is_exact_phrase(self, built_index):
        eng = SearchEngine(open_index(built_index))
        a = eng.search('"for range"', limit=50, normalize=False)
        b = eng.search('"for range"', slop=0, limit=50, normalize=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()

    def test_slop_widens_monotonically(self, built_index):
        eng = SearchEngine(open_index(built_index))
        prev: set = set()
        for slop in (0, 1, 3, 8):
            r = eng.search('"return result"', slop=slop, limit=1000,
                           normalize=False)
            cur = set(r["doc_id"].to_pylist())
            assert prev <= cur, slop
            prev = cur


@pytest.mark.usefixtures("ray_session")
class TestWildcardRegexNumericFacet:
    """Wildcard expansion, distributed regex scan, numeric histogram
    facet (oracle identity covered by the fts_wildcard_topk /
    code_regex_scan / fts_facet_nchars entries in test_oracle_parity)."""

    def test_wildcard_expansion_orders_and_caps(self, built_index):
        eng = SearchEngine(open_index(built_index))
        terms = eng.index.expand_wildcard("re*", max_terms=5)
        assert 0 < len(terms) <= 5
        assert all(t.startswith("re") for t in terms)
        # df-desc rank: first term's df >= last term's df
        d = eng.index.dictionary(limit=100000, min_df=1)
        assert d[terms[0]] >= d[terms[-1]]

    def test_wildcard_mid_and_leading(self, built_index):
        eng = SearchEngine(open_index(built_index))
        mid = eng.index.expand_wildcard("r?turn")
        assert "return" in mid
        lead = eng.index.expand_wildcard("*eturn")
        assert "return" in lead

    def test_wildcard_search_equals_or_of_expansion(self, built_index):
        eng = SearchEngine(open_index(built_index))
        terms = [t for t in eng.index.expand_wildcard("re*", max_terms=1 << 31)
                 if eng.analyzer.match_terms(t) == [[t]]][:4]
        a = eng.search_wildcard("re*", max_terms=4, limit=20, normalize=False)
        b = eng.search(" ".join(terms), mode="or", limit=20, normalize=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()

    def test_regex_scan_counts(self, ray_session):
        import ray.data as rd

        from yetisearch_ray.pipelines.textstats import regex_scan

        rows = [{"doc_id": 0, "text": "foo_free( bar_free( x"},
                {"doc_id": 1, "text": "nothing here"},
                {"doc_id": 2, "text": "a_free( only"}]
        df = regex_scan(rd.from_items(rows), r"[a-z]+_free\(", k=10)
        assert df.doc_id.tolist() == [0, 2]
        assert df.n_matches.tolist() == [2, 1]

    def test_numeric_facets_shape(self, built_index):
        eng = SearchEngine(open_index(built_index))
        # lang is a string col; build a numeric facet over doc length via
        # a stored numeric column if present, else assert the error path
        with pytest.raises(ValueError):
            eng.numeric_facets("return", "lang", edges=[3, 2, 1])


@pytest.mark.usefixtures("ray_session")
class TestInFields:
    """Field-restricted search (in_fields) — match/tf/df restricted to
    the selected fields, dl/N whole-corpus (oracle identity covered by
    code_infield_topk in test_oracle_parity)."""

    def test_restriction_prunes_docs(self, built_index):
        eng = SearchEngine(open_index(built_index))
        full = eng.search("file", mode="or", limit=1000, normalize=False)
        path_only = eng.search("file", mode="or", in_fields=["path"],
                               limit=1000, normalize=False)
        content_only = eng.search("file", mode="or", in_fields=["content"],
                                  limit=1000, normalize=False)
        sp = set(path_only["doc_id"].to_pylist())
        sc = set(content_only["doc_id"].to_pylist())
        sf = set(full["doc_id"].to_pylist())
        assert sp | sc == sf
        assert sc < sf  # "file" is in every path, only some contents

    def test_both_fields_equals_unrestricted(self, built_index):
        eng = SearchEngine(open_index(built_index))
        a = eng.search("parse buffer", mode="and", limit=50, normalize=False)
        b = eng.search("parse buffer", mode="and",
                       in_fields=["path", "content"], limit=50,
                       normalize=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
        assert a["score"].to_pylist() == b["score"].to_pylist()

    def test_unknown_field_raises(self, built_index):
        eng = SearchEngine(open_index(built_index))
        with pytest.raises(KeyError):
            eng.search("parse", in_fields=["nope"])

    def test_smart_near_rejected(self, built_index):
        eng = SearchEngine(open_index(built_index))
        with pytest.raises(ValueError):
            eng.search("parse buffer limit", mode="smart",
                       in_fields=["content"])


@pytest.mark.usefixtures("ray_session")
class TestMinShouldMatch:
    """ES minimum_should_match on OR queries — match-set prune only,
    scores identical to plain OR (oracle identity covered by
    fts_min_match_topk in test_oracle_parity)."""

    Q = "parse buffer limit"

    def _pairs(self, t):
        return dict(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))

    def test_m1_equals_plain_or(self, built_index):
        eng = SearchEngine(open_index(built_index))
        a = eng.search(self.Q, mode="or", limit=1000, normalize=False)
        b = eng.search(self.Q, mode="or", min_should_match=1,
                       limit=1000, normalize=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()

    def test_m_all_equals_and_match_set(self, built_index):
        eng = SearchEngine(open_index(built_index))
        want = eng.search(self.Q, mode="and", limit=1000, normalize=False)
        got = eng.search(self.Q, mode="or", min_should_match=3,
                         limit=1000, normalize=False)
        # same docs AND same scores: and-mode scores the same arm sum
        assert self._pairs(got) == self._pairs(want)

    def test_m2_is_between_and_scores_match_or(self, built_index):
        eng = SearchEngine(open_index(built_index))
        or1 = self._pairs(eng.search(self.Q, mode="or", limit=1000,
                                     normalize=False))
        and3 = set(self._pairs(eng.search(self.Q, mode="and", limit=1000,
                                          normalize=False)))
        m2 = self._pairs(eng.search(self.Q, mode="or", min_should_match=2,
                                    limit=1000, normalize=False))
        assert and3 <= set(m2) <= set(or1)
        assert set(m2) < set(or1)  # some docs match only one term
        for d, s in m2.items():
            assert s == or1[d]  # prune-only: OR scores untouched

    def test_m_above_arity_empty(self, built_index):
        eng = SearchEngine(open_index(built_index))
        t = eng.search(self.Q, mode="or", min_should_match=4, limit=10,
                       normalize=False)
        assert t.num_rows == 0

    def test_rejected_outside_or(self, built_index):
        eng = SearchEngine(open_index(built_index))
        with pytest.raises(ValueError):
            eng.search(self.Q, mode="and", min_should_match=2)
        with pytest.raises(ValueError):
            eng.search(self.Q, mode="or", min_should_match=2, fuzzy=True)


@pytest.mark.usefixtures("ray_session")
class TestTermBoosts:
    """Query-time term boosts (Lucene `term^N`) — the boosted arm's BM25
    contribution is multiplied, all else unchanged (oracle identity
    covered by fts_boost_topk in test_oracle_parity)."""

    def _pairs(self, t):
        return dict(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))

    def test_boost_is_linear_in_the_arm(self, built_index):
        eng = SearchEngine(open_index(built_index))
        a = self._pairs(eng.search("parse", mode="or", limit=1000,
                                   normalize=False))
        b = self._pairs(eng.search("buffer", mode="or", limit=1000,
                                   normalize=False))
        got = self._pairs(eng.search("parse^3 buffer", mode="or",
                                     limit=1000, normalize=False))
        assert set(got) == set(a) | set(b)
        for d, s in got.items():
            want = 3.0 * a.get(d, 0.0) + b.get(d, 0.0)
            assert abs(s - want) < 1e-9, (d, s, want)

    def test_boost_1_is_identity_and_syntax_matches_param(self, built_index):
        eng = SearchEngine(open_index(built_index))
        plain = eng.search("parse buffer", mode="or", limit=50,
                           normalize=False)
        b1 = eng.search("parse^1 buffer", mode="or", limit=50,
                        normalize=False)
        assert plain["doc_id"].to_pylist() == b1["doc_id"].to_pylist()
        assert plain["score"].to_pylist() == b1["score"].to_pylist()
        syn = eng.search("parse^2.5 buffer", mode="or", limit=50,
                         normalize=False)
        par = eng.search("parse buffer", mode="or", limit=50,
                         normalize=False, term_boosts={"parse": 2.5})
        assert syn["doc_id"].to_pylist() == par["doc_id"].to_pylist()
        assert syn["score"].to_pylist() == par["score"].to_pylist()

    def test_rejected_modes_and_values(self, built_index):
        eng = SearchEngine(open_index(built_index))
        with pytest.raises(ValueError):
            eng.search("parse buffer", mode="smart",
                       term_boosts={"parse": 2.0})
        with pytest.raises(ValueError):
            eng.search("parse", mode="or", term_boosts={"parse": 0.0})


@pytest.mark.usefixtures("ray_session")
class TestDisMax:
    """ES dis_max: score = best arm + tie_breaker * sum of the rest
    (oracle identity covered by fts_dismax_topk in test_oracle_parity)."""

    def _pairs(self, t):
        return dict(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))

    def test_tb1_equals_plain_or_and_tb0_is_best_arm(self, built_index):
        eng = SearchEngine(open_index(built_index))
        a = self._pairs(eng.search("parse", mode="or", limit=1000,
                                   normalize=False))
        b = self._pairs(eng.search("buffer", mode="or", limit=1000,
                                   normalize=False))
        plain = self._pairs(eng.search("parse buffer", mode="or",
                                       limit=1000, normalize=False))
        tb1 = self._pairs(eng.search("parse buffer", mode="or", dismax=True,
                                     tie_breaker=1.0, limit=1000,
                                     normalize=False))
        assert plain == tb1
        tb0 = self._pairs(eng.search("parse buffer", mode="or", dismax=True,
                                     tie_breaker=0.0, limit=1000,
                                     normalize=False))
        for d, s in tb0.items():
            assert abs(s - max(a.get(d, 0.0), b.get(d, 0.0))) < 1e-9

    def test_tb_mid_formula(self, built_index):
        eng = SearchEngine(open_index(built_index))
        a = self._pairs(eng.search("parse", mode="or", limit=1000,
                                   normalize=False))
        b = self._pairs(eng.search("buffer", mode="or", limit=1000,
                                   normalize=False))
        got = self._pairs(eng.search("parse buffer", mode="or", dismax=True,
                                     tie_breaker=0.3, limit=1000,
                                     normalize=False))
        for d, s in got.items():
            ca, cb = a.get(d, 0.0), b.get(d, 0.0)
            want = max(ca, cb) + 0.3 * min(ca, cb)
            assert abs(s - want) < 1e-9, (d, s, want)

    def test_rejected_modes_and_tb_range(self, built_index):
        eng = SearchEngine(open_index(built_index))
        with pytest.raises(ValueError):
            eng.search("parse buffer", mode="and", dismax=True)
        with pytest.raises(ValueError):
            eng.search("parse buffer", mode="or", dismax=True,
                       tie_breaker=1.5)


@pytest.mark.usefixtures("ray_session")
class TestRankBoost:
    """Static-rank doc boost: score blended with ln(1+column) (ES
    function_score field_value_factor(log1p); oracle identity covered
    by fts_rank_boost_topk in test_oracle_parity)."""

    SF = "/root/testdata/sf0.001"

    @pytest.fixture()
    def doc_engine(self):
        from yetisearch_ray.pipelines.fts_documents import get_engine

        return get_engine(self.SF)

    def _pairs(self, t):
        return dict(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))

    def test_add_mode_formula(self, doc_engine):
        import pandas as pd

        nchars = pd.read_parquet(
            f"{self.SF}/documents.parquet",
            columns=["doc_id", "n_chars"]).set_index("doc_id")["n_chars"]
        plain = self._pairs(doc_engine.search("vector stream", mode="or",
                                              limit=1000, normalize=False))
        boosted = self._pairs(doc_engine.search(
            "vector stream", mode="or", rank_column="n_chars",
            rank_weight=0.5, limit=1000, normalize=False))
        assert set(plain) == set(boosted)
        import math
        for d, s in boosted.items():
            want = plain[d] + 0.5 * math.log1p(max(int(nchars[d]), 0))
            assert abs(s - want) < 1e-9, (d, s, want)

    def test_multiply_mode_and_errors(self, doc_engine):
        import math

        import pandas as pd

        nchars = pd.read_parquet(
            f"{self.SF}/documents.parquet",
            columns=["doc_id", "n_chars"]).set_index("doc_id")["n_chars"]
        plain = self._pairs(doc_engine.search("vector", mode="or",
                                              limit=1000, normalize=False))
        mult = self._pairs(doc_engine.search(
            "vector", mode="or", rank_column="n_chars", rank_weight=0.1,
            rank_mode="multiply", limit=1000, normalize=False))
        for d, s in mult.items():
            want = plain[d] * (1 + 0.1 * math.log1p(max(int(nchars[d]), 0)))
            assert abs(s - want) < 1e-9
        with pytest.raises(ValueError):
            doc_engine.search("vector", mode="or", rank_column="n_chars",
                              rank_weight=0.5, rank_mode="bogus")


@pytest.mark.usefixtures("ray_session")
class TestSearchGrouped:
    """Grouped results (top-N per group; ES collapse + inner_hits —
    oracle identity covered by fts_group_topk in test_oracle_parity)."""

    def test_group_structure_and_score_identity(self, built_index):
        eng = SearchEngine(open_index(built_index))
        flat = eng.search("parse buffer", mode="or", limit=1000,
                          normalize=False)
        fs = dict(zip(flat["doc_id"].to_pylist(),
                      flat["score"].to_pylist()))
        g = eng.search_grouped("parse buffer", mode="or",
                               route_column="lang", group_limit=2,
                               limit=3).to_pandas()
        assert list(g.columns) == ["route", "doc_id", "score", "pos"]
        assert g.route.nunique() <= 3
        bests = []
        for route, sub in g.groupby("route", sort=False):
            assert sub.pos.tolist() == list(range(1, len(sub) + 1))
            assert sub.score.is_monotonic_decreasing
            bests.append((route, sub.score.iloc[0]))
        # groups appear in best-score-desc order (ties route asc)
        order = sorted(bests, key=lambda t: (-t[1], t[0]))
        assert [r for r, _ in order] == list(dict.fromkeys(g.route))
        for _, row in g.iterrows():
            assert row.score == fs[row.doc_id]  # scores untouched

    def test_normalize_rejected(self, built_index):
        eng = SearchEngine(open_index(built_index))
        with pytest.raises(ValueError):
            eng.search_grouped("parse", route_column="lang",
                               normalize=True)


@pytest.mark.usefixtures("ray_session")
class TestMatchPhrasePrefix:
    """ES match_phrase_prefix: phrase whose final slot matches ANY
    dictionary expansion of the trailing prefix (oracle identity in
    test_oracle_parity)."""

    def test_superset_of_exact_phrase_and_full_term_identity(self, built_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        pp = eng.search("parse bu", mode="phrase", prefix_last=True,
                        limit=1000, normalize=False).to_pandas()
        exact = eng.search('"parse buffer"', limit=1000,
                           normalize=False).to_pandas()
        assert len(pp) > 0
        # every exact "parse buffer" doc also matches "parse bu*"
        assert set(exact.doc_id) <= set(pp.doc_id)
        # a full-term "prefix" that expands only to itself reproduces
        # the exact phrase result (same match set AND same scores)
        full = eng.search("parse buffer", mode="phrase", prefix_last=True,
                          limit=1000, normalize=False).to_pandas()
        only = eng.index.expand_prefix("buffer", max_terms=1 << 31)
        if only == ["buffer"]:
            assert full.doc_id.tolist() == exact.doc_id.tolist()
            assert full.score.tolist() == exact.score.tolist()
        # prefix with no expansions matches nothing
        none = eng.search("parse zzzz", mode="phrase", prefix_last=True,
                          limit=10, normalize=False)
        assert none.num_rows == 0


@pytest.mark.usefixtures("ray_session")
class TestMatchBoolPrefix:
    """ES match_bool_prefix: OR base terms + ONE union-of-expansions
    prefix arm (oracle identity in test_oracle_parity)."""

    def test_prefix_arm_unions_expansions(self, built_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        bp = eng.search("deadline bu", mode="or", prefix_last=True,
                        limit=1000, normalize=False).to_pandas()
        # match set = docs with "deadline" OR any "bu*" token
        exps = eng.index.expand_prefix("bu", max_terms=1 << 31)
        assert exps, "corpus should have bu* terms"
        or_all = eng.search(" ".join(["deadline"] + exps), mode="or",
                            limit=1000, normalize=False).to_pandas()
        assert set(bp.doc_id) == set(or_all.doc_id)
        # full-term prefix that expands only to itself == plain OR
        if eng.index.expand_prefix("buffer", max_terms=1 << 31) == ["buffer"]:
            a = eng.search("deadline buffer", mode="or", prefix_last=True,
                           limit=1000, normalize=False).to_pandas()
            b = eng.search("deadline buffer", mode="or",
                           limit=1000, normalize=False).to_pandas()
            assert a.doc_id.tolist() == b.doc_id.tolist()
            assert a.score.tolist() == b.score.tolist()


@pytest.mark.usefixtures("ray_session")
class TestLmDirichlet:
    """Query-likelihood ranking with Dirichlet smoothing (oracle
    identity in test_oracle_parity)."""

    def test_matches_bruteforce_recompute(self, built_index):
        import numpy as np

        from yetisearch_ray.analysis.tokenizer import tokenize
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        mu = 500.0
        res = eng.search_lm("parse buffer", limit=10, mu=mu).to_pandas()
        assert len(res) == 10
        # brute force over the stored docs
        docs = eng.index.docs(
            list(range(eng.index.n_docs)), columns=["doc_id", "path",
                                                    "content"]).to_pandas()
        toks = {int(r.doc_id): tokenize(r.path or "") + tokenize(r.content or "")
                for r in docs.itertuples()}
        C = float(sum(len(t) for t in toks.values()))
        cf = {q: sum(t.count(q) for t in toks.values())
              for q in ("parse", "buffer")}
        scores = {}
        for d, t in toks.items():
            if "parse" not in t and "buffer" not in t:
                continue
            s = sum(np.log((t.count(q) + mu * cf[q] / C) / (len(t) + mu))
                    for q in ("parse", "buffer"))
            scores[d] = round(-float(s), 5)
        want = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))[:10]
        assert res.doc_id.astype(int).tolist() == [d for d, _ in want]
        assert res.score.tolist() == [s for _, s in want]

    def test_empty_and_unknown(self, built_index):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(built_index))
        assert eng.search_lm("zzzznotaterm").num_rows == 0
        assert eng.search_lm("").num_rows == 0


class TestUnreservedExecution:
    """stages/exec_ctx.py: the scoped reservation disable must patch the
    dataset's CAPTURED context (Ray snapshots DataContext at dataset
    creation) and restore both contexts on exit."""

    def test_patches_dataset_context_and_restores(self, ray_session):
        import ray.data as rd

        from ray.data import DataContext
        from yetisearch_ray.stages.exec_ctx import unreserved_execution

        ds = rd.range(8)
        amb = DataContext.get_current()
        assert amb.op_resource_reservation_enabled is True
        assert ds.context.op_resource_reservation_enabled is True
        with unreserved_execution(ds):
            assert amb.op_resource_reservation_enabled is False
            assert ds.context.op_resource_reservation_enabled is False
            assert ds.count() == 8  # drains under the patched context
        assert amb.op_resource_reservation_enabled is True
        assert ds.context.op_resource_reservation_enabled is True

    def test_shared_context_not_left_stuck_false(self, ray_session):
        """Two datasets derived from one source share a DataContext; the
        second patch pass must not record prev=False and leave the flag
        stuck False after exit (round-4 ADVICE item)."""
        import ray.data as rd

        from ray.data import DataContext
        from yetisearch_ray.stages.exec_ctx import unreserved_execution

        src = rd.range(8)
        a = src.map_batches(lambda b: b)
        b = src.map_batches(lambda b: b)
        assert a.context is b.context or True  # may or may not share; force shared too
        with unreserved_execution(a, b, a):
            assert a.context.op_resource_reservation_enabled is False
            assert b.context.op_resource_reservation_enabled is False
        assert DataContext.get_current().op_resource_reservation_enabled is True
        assert a.context.op_resource_reservation_enabled is True
        assert b.context.op_resource_reservation_enabled is True

    def test_restores_on_error(self, ray_session):
        import ray.data as rd

        from ray.data import DataContext
        from yetisearch_ray.stages.exec_ctx import unreserved_execution

        ds = rd.range(4)
        with pytest.raises(RuntimeError):
            with unreserved_execution(ds):
                raise RuntimeError("boom")
        assert DataContext.get_current().op_resource_reservation_enabled is True
        assert ds.context.op_resource_reservation_enabled is True
