"""Scoring in doc-meta row space (``IndexReader.rows_of``).

The scorer maps posting doc ids to positions in the reader's sorted
doc-length array: a direct index when ids are dense, a checked
``searchsorted`` otherwise.  Checked here against a brute-force BM25
recompute from the raw text on the non-dense layouts -- user-supplied
sparse ids, appended generations, and an index after ``delete_docs`` +
``optimize_index`` -- and for the failure path: a posting id the reader
has no doc-length row for raises ``KeyError`` instead of crediting a
neighbouring doc.  A reader opened before an append never meets such
an id: it reads only the segments its own manifest commits.
"""

import math

import numpy as np
import pyarrow as pa
import pytest

from yetisearch_ray.search.bm25 import B, K1, idf
from yetisearch_ray.search.engine import SearchEngine, open_index

VOCAB = ["alpha", "beta", "gamma", "delta", "epsilon", "theta", "kappa",
         "sigma", "omega", "lambda"]
QUERIES = [("alpha", {}), ("omega", {}), ("alpha beta", {"mode": "or"}),
           ("gamma sigma lambda", {"mode": "or"}),
           ("delta kappa", {"mode": "or",
                            "field_weights": {"title": 4.0, "body": 1.0}})]


def _docs(ids, seed, extra=None):
    rng = np.random.default_rng(seed)
    p = np.linspace(3, 1, len(VOCAB))
    p /= p.sum()

    def words(n):
        return " ".join(rng.choice(VOCAB, n, p=p).tolist())

    return {int(i): (words(int(rng.integers(1, 4))),
                     words(int(rng.integers(2, 30)))
                     + (f" {extra}" if extra else ""))
            for i in ids}


def _cfg():
    from yetisearch_ray.index.build import IndexConfig

    return IndexConfig(fields=[("title", "title"), ("body", "body")],
                       store_columns=["title", "body"], num_partitions=4)


def _write(d, docs, append=False, tag="base"):
    import ray.data as rd

    from yetisearch_ray.index.build import build_index

    ids = sorted(docs)
    t = pa.table({"doc_id": pa.array(ids, pa.uint64()),
                  "title": pa.array([docs[i][0] for i in ids]),
                  "body": pa.array([docs[i][1] for i in ids])})
    build_index(rd.from_arrow(t), d, _cfg(), append=append,
                input_fingerprint=tag)


def _brute(docs, query, weights=(1.0, 1.0)):
    """OR-mode FTS5 BM25 over ``docs`` (id -> (title, body)), best first."""
    toks = {i: (t.split(), b.split()) for i, (t, b) in docs.items()}
    n = len(toks)
    avgdl = sum(len(t) + len(b) for t, b in toks.values()) / n
    score = {}
    for term in dict.fromkeys(query.split()):
        df = sum(term in t or term in b for t, b in toks.values())
        if df == 0:
            continue
        w_idf = idf(n, df)
        for i, (t, b) in toks.items():
            tf = weights[0] * t.count(term) + weights[1] * b.count(term)
            if tf > 0:
                dl = len(t) + len(b)
                score[i] = score.get(i, 0.0) + w_idf * tf * (K1 + 1.0) / (
                    tf + K1 * (1.0 - B + B * dl / avgdl))
    return sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))


def _assert_matches_brute(index_dir, docs):
    eng = SearchEngine(open_index(index_dir), cache_ttl=0.0)
    assert eng.index.n_docs == len(docs)
    for q, kw in QUERIES:
        fw = kw.get("field_weights", {})
        want = _brute(docs, q, (fw.get("title", 1.0), fw.get("body", 1.0)))
        got = eng.search(q, limit=1000, normalize=False, **kw)
        got_ids = got["doc_id"].to_pylist()
        assert sorted(got_ids) == sorted(i for i, _ in want), q
        want_s = dict(want)
        for i, s in zip(got_ids, got["score"].to_pylist()):
            assert math.isclose(s, want_s[i], rel_tol=1e-12), (q, i)
        # best first, ties by id
        got_s = got["score"].to_pylist()
        assert [(-s, i) for s, i in zip(got_s, got_ids)] == \
            sorted((-s, i) for s, i in zip(got_s, got_ids)), q
    return eng


def _stale_reader_keeps_its_snapshot(index_dir, new_docs, tag):
    """A reader opened before an append answers from its own manifest's
    snapshot: after the append it returns exactly the results it gave
    before, whether its postings were resident or are fetched afresh."""
    queries = QUERIES + [("zulu", {})]
    warm = SearchEngine(open_index(index_dir), cache_ttl=0.0)
    cold = SearchEngine(open_index(index_dir), cache_ttl=0.0)

    def results(eng):
        return [eng.search(q, limit=1000, normalize=False, **kw)
                .select(["doc_id", "score"]).to_pylist() for q, kw in queries]

    before = results(warm)  # postings and doc-length rows now resident
    _write(index_dir, new_docs, append=True, tag=tag)
    assert results(warm) == before
    warm.index._cache.clear()
    assert results(warm) == before
    assert results(cold) == before  # first touch after the append


@pytest.mark.usefixtures("ray_session")
class TestRowSpace:
    def test_sparse_user_ids_match_brute_force(self, tmp_path):
        d = str(tmp_path / "sparse")
        docs = _docs(np.arange(150) * 7 + 3, seed=1)
        _write(d, docs)
        eng = _assert_matches_brute(d, docs)
        assert not eng.index._meta_dense
        # new ids fall between the old ones: a searchsorted lands on a
        # neighbour, which only the exact-hit check tells apart
        more = _docs(np.arange(40) * 7 + 5, seed=2, extra="zulu")
        _stale_reader_keeps_its_snapshot(d, more, "sparse-more")
        _assert_matches_brute(d, {**docs, **more})

    def test_delete_and_optimize_match_brute_force(self, tmp_path):
        from yetisearch_ray.index.manage import delete_docs, optimize_index

        d = str(tmp_path / "opt")
        docs = _docs(range(200), seed=3)
        _write(d, docs)
        gen = _docs(range(200, 260), seed=4)
        _write(d, gen, append=True, tag="gen1")
        docs.update(gen)
        dead = [0, 3, 57, 120, 199, 201, 259]
        delete_docs(d, dead)
        optimize_index(d)
        for i in dead:
            del docs[i]
        eng = _assert_matches_brute(d, docs)
        assert not eng.index._meta_dense
        # deleted ids come back in a later generation: gaps inside the
        # stale reader's rows, and ids past its last row
        more = _docs(dead[:4] + list(range(260, 270)), seed=5, extra="zulu")
        _stale_reader_keeps_its_snapshot(d, more, "opt-more")
        _assert_matches_brute(d, {**docs, **more})

    def test_dense_reader_raises_on_ids_past_its_rows(self, tmp_path):
        d = str(tmp_path / "dense")
        docs = _docs(range(80), seed=6)
        _write(d, docs)
        eng = _assert_matches_brute(d, docs)
        assert eng.index._meta_dense
        rows = eng.index.rows_of(np.array([0, 5, 79], np.uint64))
        assert rows.tolist() == [0, 5, 79]
        with pytest.raises(KeyError):
            eng.index.rows_of(np.array([5, 80], np.uint64))
        more = _docs(range(80, 90), seed=7, extra="zulu")
        _stale_reader_keeps_its_snapshot(d, more, "dense-more")
        _assert_matches_brute(d, {**docs, **more})
