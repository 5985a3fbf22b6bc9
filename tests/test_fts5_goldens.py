"""Rank-identity goldens against REAL SQLite FTS5 (stdlib sqlite3).

The reference delegates matching + bm25 scoring to SQLite FTS5
(``src/Storage/SqliteStorage.php:255-267`` creates
``fts5(id UNINDEXED, col…, tokenize='unicode61')`` in the legacy
multi-column mode its tests force via ``tests/TestCase.php:46-50``).
These tests build the SAME corpus into an actual FTS5 table and assert
the engine's doc_ids AND bm25 scores are identical, per query class:

  single term / OR / AND / phrase / smart ("p" OR NEAR(p,10) OR t1 OR t2)
  / prefix / hot term (idf <= 0 clamp) / column-weighted bm25.

Empirically pinned FTS5 behaviors these goldens lock in:
  - bm25 weights bind POSITIONALLY to table columns INCLUDING the
    ``id UNINDEXED`` column; the intended per-field weighting is
    ``bm25(fts, 1.0, w_f1, w_f2)``.  (The reference's own legacy-mode SQL
    ``bm25(fts, w_f1, w_f2)`` — SqliteStorage.php:996-1015 — is
    off-by-one: w_f1 lands on the inert UNINDEXED id column.  We bind
    weights by field NAME, i.e. the intended semantics.)
  - the smart expression's NEAR arm CONTRIBUTES SCORE: member terms are
    counted a second time with tf restricted to instances inside a
    qualifying window (span <= N+1, single column).
  - doc length D is the UNWEIGHTED total token count of the row across
    all columns; avgdl is the global average row size.
  - idf = ln((N - df + .5)/(df + .5)) clamped to 1e-6 when <= 0.
"""
import os
import sqlite3

import numpy as np
import pyarrow.parquet as pq
import pytest

from yetisearch_ray.search.engine import SearchEngine, open_index


@pytest.fixture(scope="session")
def fts5_conn(built_index):
    """Real FTS5 table over the exact docstore the engine indexed."""
    t = pq.read_table(os.path.join(built_index, "docs"),
                      columns=["doc_id", "path", "content"]).sort_by("doc_id")
    db = sqlite3.connect(":memory:", check_same_thread=False)
    db.execute("CREATE VIRTUAL TABLE fts USING fts5"
               "(id UNINDEXED, path, content, tokenize='unicode61')")
    db.executemany(
        "INSERT INTO fts(id, path, content) VALUES (?, ?, ?)",
        zip(t["doc_id"].to_pylist(), t["path"].to_pylist(),
            t["content"].to_pylist()))
    yield db
    db.close()


def fts5_topk(db, match: str, k: int = 20, w: tuple | None = None):
    """(doc_id, score) best-first from real FTS5; score = -rank = bm25 sum.

    Weight vector: leading 1.0 covers the UNINDEXED id column so the
    field weights land on (path, content) as intended.
    """
    bm25 = ("bm25(fts, 1.0, %f, %f)" % w) if w else "bm25(fts)"
    rows = db.execute(
        f"SELECT id, {bm25} AS rank FROM fts WHERE fts MATCH ? "
        "ORDER BY rank ASC, id ASC LIMIT ?", (match, k)).fetchall()
    return [(int(i), -r) for i, r in rows]


def engine_topk(eng, query: str, k: int = 20, **kw):
    r = eng.search(query, limit=k, normalize=False, **kw)
    return list(zip(r["doc_id"].to_pylist(), r["score"].to_pylist()))


def assert_rank_identical(got, want, ctx=""):
    __tracebackhide__ = True
    assert len(got) == len(want), (ctx, len(got), len(want))
    # doc sets must agree even before ordering
    assert {g[0] for g in got} == {w[0] for w in want}, ctx
    # compare as (rounded score, id) multisets in order, tolerating
    # float-noise ties ordered differently
    gs = sorted(((round(s, 7), i) for i, s in got))
    ws = sorted(((round(s, 7), i) for i, s in want))
    for (s1, i1), (s2, i2) in zip(gs, ws):
        assert i1 == i2 and abs(s1 - s2) < 1e-6, (ctx, (i1, s1), (i2, s2))


@pytest.mark.usefixtures("ray_session")
class TestFts5RankIdentity:
    @pytest.fixture(autouse=True)
    def _setup(self, built_index, fts5_conn):
        self.eng = SearchEngine(open_index(built_index), cache_ttl=0.0)
        self.db = fts5_conn

    def test_single_terms(self):
        for t in ["parse", "buffer", "merge", "deadline", "retry"]:
            assert_rank_identical(
                engine_topk(self.eng, t, mode="smart"),
                fts5_topk(self.db, t), ctx=t)

    def test_hot_term_idf_clamp(self):
        # 'return' occurs in most docs -> idf <= 0 -> FTS5 clamps to 1e-6
        got = engine_topk(self.eng, "return", k=50)
        want = fts5_topk(self.db, "return", k=50)
        assert_rank_identical(got, want, ctx="return")

    def test_or(self):
        for q, m in [("parse buffer", "parse OR buffer"),
                     ("retry backoff deadline", "retry OR backoff OR deadline")]:
            assert_rank_identical(
                engine_topk(self.eng, q, mode="or"),
                fts5_topk(self.db, m), ctx=m)

    def test_and(self):
        for q, m in [("retry backoff", "retry AND backoff"),
                     ("parse buffer", "parse AND buffer")]:
            assert_rank_identical(
                engine_topk(self.eng, q, mode="and"),
                fts5_topk(self.db, m), ctx=m)

    def test_phrase(self):
        for q in ["exponential backoff", "parse buffer"]:
            assert_rank_identical(
                engine_topk(self.eng, f'"{q}"'),
                fts5_topk(self.db, f'"{q}"'), ctx=q)

    def test_explicit_near(self):
        """Explicit NEAR(t1 … tn, N) query mode: NEAR-restricted match
        set + window-filtered member tf (mode="near", vectorized via
        the same kernel as the smart NEAR arm — _near_mask)."""
        cases = [(["parse", "buffer"], 10), (["retry", "backoff"], 10),
                 (["merge", "stream"], 4), (["parse", "buffer"], 2),
                 (["parse", "stream", "buffer"], 10),
                 (["read", "write"], 0)]
        for terms, dist in cases:
            m = f"NEAR({' '.join(terms)}, {dist})"
            assert_rank_identical(
                engine_topk(self.eng, " ".join(terms), mode="near",
                            k=30, near_distance=dist),
                fts5_topk(self.db, m, k=30), ctx=m)

    def test_near_single_phrase_scores_like_plain_term(self):
        """FTS5 scores a one-phrase NEAR() like a plain term query —
        the degenerate group must still carry BM25 scores (it once
        returned every match at score 0)."""
        for t in ["parse", "stream", "merge"]:
            assert_rank_identical(
                engine_topk(self.eng, t, mode="near", k=30,
                            near_distance=10),
                fts5_topk(self.db, f"NEAR({t}, 10)", k=30),
                ctx=f"NEAR({t})")

    def test_not_exclusion(self):
        """FTS5 ``a NOT b``: b filters the doc set, contributes no tf."""
        for inc, exc in [("parse", "buffer"), ("retry", "deadline"),
                         ("merge", "stream")]:
            assert_rank_identical(
                engine_topk(self.eng, inc, exclude_terms=[exc]),
                fts5_topk(self.db, f"{inc} NOT {exc}"),
                ctx=f"{inc} NOT {exc}")

    def test_smart_two_terms(self):
        """Full smart expression incl. the NEAR scoring arm."""
        for t1, t2 in [("parse", "buffer"), ("retry", "backoff"),
                       ("merge", "stream"), ("read", "write")]:
            m = f'"{t1} {t2}" OR NEAR({t1} {t2}, 10) OR {t1} OR {t2}'
            assert_rank_identical(
                engine_topk(self.eng, f"{t1} {t2}", mode="smart", k=30),
                fts5_topk(self.db, m, k=30), ctx=m)

    def test_smart_three_terms(self):
        t = ["parse", "stream", "buffer"]
        m = (f'"{t[0]} {t[1]} {t[2]}" OR NEAR({t[0]} {t[1]} {t[2]}, 10)'
             f' OR {t[0]} OR {t[1]} OR {t[2]}')
        assert_rank_identical(
            engine_topk(self.eng, " ".join(t), mode="smart", k=30),
            fts5_topk(self.db, m, k=30), ctx=m)

    def test_weighted_bm25(self):
        """Column-weighted bm25 — settles the doc-length question: FTS5
        normalizes by the UNWEIGHTED total row length and global avgdl."""
        for w_path, w_content in [(5.0, 1.0), (50.0, 1.0), (1.0, 3.0)]:
            got = engine_topk(self.eng, "module", mode="smart",
                              field_weights={"path": w_path,
                                             "content": w_content})
            want = fts5_topk(self.db, "module", w=(w_path, w_content))
            assert_rank_identical(got, want, ctx=f"w={w_path},{w_content}")

    def test_weighted_smart_multi(self):
        w = (10.0, 1.0)
        m = '"parse buffer" OR NEAR(parse buffer, 10) OR parse OR buffer'
        got = engine_topk(self.eng, "parse buffer", mode="smart",
                          field_weights={"path": w[0], "content": w[1]})
        want = fts5_topk(self.db, m, w=w)
        assert_rank_identical(got, want, ctx="weighted smart")

    def test_prefix(self):
        got = engine_topk(self.eng, "pars", prefix_last=True, k=30)
        want = fts5_topk(self.db, "pars*", k=30)
        assert_rank_identical(got, want, ctx="pars*")

    def test_reference_legacy_weight_quirk(self):
        """Document the reference's legacy-mode off-by-one: its SQL
        ``bm25(fts, w1, w2)`` (SqliteStorage.php:996-1015) binds w1 to the
        UNINDEXED id column, so w1 is inert and the LAST field silently
        gets weight 1.0.  We bind weights by field name instead (the
        intended semantics, equal to external-content mode)."""
        rows_ref = self.db.execute(
            "SELECT id, bm25(fts, 50.0, 1.0) FROM fts WHERE fts MATCH "
            "'module' ORDER BY 2 ASC, id ASC LIMIT 20").fetchall()
        rows_int = self.db.execute(
            "SELECT id, bm25(fts, 1.0, 50.0, 1.0) FROM fts WHERE fts MATCH "
            "'module' ORDER BY 2 ASC, id ASC LIMIT 20").fetchall()
        # quirk SQL == unweighted (w on a column with no hits, rest 1.0)
        rows_plain = self.db.execute(
            "SELECT id, bm25(fts) FROM fts WHERE fts MATCH 'module' "
            "ORDER BY 2 ASC, id ASC LIMIT 20").fetchall()
        assert [(i, round(r, 9)) for i, r in rows_ref] == \
               [(i, round(r, 9)) for i, r in rows_plain]
        assert rows_int != rows_ref  # intended weighting differs


@pytest.mark.usefixtures("ray_session")
class TestUnicode61TokenizerParity:
    """Repo tokenizer vs FTS5's actual unicode61 via fts5vocab."""

    CASES = [
        "Hello, World! foo_bar baz-qux 3.14 x2",
        "CamelCase UPPER lower 1234 a1b2c3",
        "naïve café déjà-vu Ünïcödé Straße",
        "tabs\tand\nnewlines   spaces",
        "semi;colon(paren)[bracket]{brace}<angle> quote'd \"dquote\"",
        "underscores _lead mid_dle trail_ double__under",
    ]

    def test_vocab_parity(self):
        from yetisearch_ray.analysis.tokenizer import tokenize

        db = sqlite3.connect(":memory:")
        db.execute("CREATE VIRTUAL TABLE f USING fts5(c, tokenize='unicode61')")
        db.execute("CREATE VIRTUAL TABLE v USING fts5vocab(f, 'instance')")
        for i, text in enumerate(self.CASES):
            db.execute("DELETE FROM f")
            db.execute("INSERT INTO f(rowid, c) VALUES (1, ?)", (text,))
            want = [r[0] for r in db.execute(
                "SELECT term FROM v ORDER BY offset").fetchall()]
            got = tokenize(text)
            assert got == want, (text, got, want)


@pytest.mark.usefixtures("ray_session")
class TestDriverCorpusFts5Golden:
    """The documents-table engine behind the driver's fts_* entries,
    pinned directly against real FTS5 (same raw source/text columns)."""

    @pytest.fixture(scope="class")
    def pair(self):
        from yetisearch_ray.pipelines.fts_documents import get_engine

        sf = "/root/testdata/sf0.001"
        eng = get_engine(sf)
        t = pq.read_table(f"{sf}/documents.parquet",
                          columns=["doc_id", "source", "text"]
                          ).sort_by("doc_id")
        db = sqlite3.connect(":memory:")
        db.execute("CREATE VIRTUAL TABLE fts USING fts5"
                   "(id UNINDEXED, source, text, tokenize='unicode61')")
        db.executemany("INSERT INTO fts(id, source, text) VALUES (?,?,?)",
                       zip(t["doc_id"].to_pylist(),
                           t["source"].to_pylist(),
                           t["text"].to_pylist()))
        yield eng, db
        db.close()

    def test_driver_query_classes(self, pair):
        eng, db = pair
        cases = [
            ("merge", "merge", {}),
            ("hash merge", "hash AND merge", {"mode": "and"}),
            ("vector stream", "vector OR stream", {"mode": "or"}),
            ("hash value",
             '"hash value" OR NEAR(hash value, 10) OR hash OR value', {}),
        ]
        for q, match, kw in cases:
            got = engine_topk(eng, q, k=20, **kw)
            want = fts5_topk(db, match, k=20)
            assert_rank_identical(got, want, ctx=(q, kw))
