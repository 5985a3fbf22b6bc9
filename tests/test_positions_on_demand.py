"""Positions on demand (``search/engine.py`` ``Posting``,
``index/postings.py``).

- A posting fetch decodes doc ids and tfs; a term's positions are
  expanded and merged across generations only when something reads
  them, once per posting list: on a fresh reader of a 3-generation index
  with deletes, the benchmark's non-positional queries expand none, and
  a phrase expands only its own terms, and nothing more when repeated.
- Results equal those of an eager fetch (every run decoded with
  ``decode_postings``, then merged doc by doc in plain Python): phrase,
  smart-mode NEAR, slop, phrase-prefix, term boosts and
  ``span_first_topk``.
- ``cache_stats()["postings"]`` counts the LRU's terms, hits, misses and
  position decodes.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from yetisearch_ray.index import postings as codec
from yetisearch_ray.search import engine as engine_mod
from yetisearch_ray.search.engine import Posting, SearchEngine, open_index

POSITIONAL = ['"exponential backoff"', "hash table index"]


@pytest.fixture(scope="module")
def gen3_index(ray_session, tmp_path_factory):
    """A code-corpus index of 3 generations, each write followed by
    deletes."""
    import ray.data as rd

    from yetisearch_ray.index.build import IndexConfig, build_index
    from yetisearch_ray.index.manage import delete_docs
    from yetisearch_ray.sources.corpus import generate_code_corpus

    tmp = tmp_path_factory.mktemp("gen3")
    t = pq.read_table(generate_code_corpus(600, str(tmp / "corpus"),
                                           num_files=2))
    t = t.append_column("doc_id", pa.array(range(t.num_rows), pa.uint64()))
    d = str(tmp / "idx")
    cfg = IndexConfig(
        fields=[("path", "path"), ("content", "content")],
        language_column="lang",
        store_columns=["repo", "path", "commit", "lang", "content"],
        num_partitions=8, content_hash_column="content")
    for g, (lo, hi) in enumerate([(0, 300), (300, 450), (450, 600)]):
        build_index(rd.from_arrow(t.slice(lo, hi - lo)), d, cfg,
                    append=g > 0, input_fingerprint=f"gen{g}")
        delete_docs(d, list(range(lo + 3, hi, 41)))
    return d


def _engine(d):
    return SearchEngine(open_index(d), cache_ttl=0.0)


def _reference_merge(parts):
    """The generation merge of decoded lists (doc_ids, tfs, positions or
    None), doc by doc: doc ids sorted, a repeated doc's tfs summed, and
    positions kept only when every non-empty list has them and no doc
    repeats."""
    rows, repeated = {}, False
    parts = [p for p in parts if p[0].size]
    for ids, tfs, pos in parts:
        off = 0
        for d, t in zip(ids.tolist(), tfs.tolist()):
            own = None if pos is None else pos[off:off + t].tolist()
            off += t
            repeated |= d in rows
            rows[d] = (rows[d][0] + t, None) if d in rows else (t, own)
    docs = sorted(rows)
    keep = docs and not repeated and all(p[2] is not None for p in parts)
    return (np.array(docs, np.uint64),
            np.array([rows[d][0] for d in docs], np.uint64),
            np.array([x for d in docs for x in rows[d][1]], np.uint64)
            if keep else None)


def _eager_postings(self, term):
    """The fetch before positions on demand: every run decoded with its
    positions, then merged (by ``_reference_merge``)."""
    by_field = {}
    for fid, d, f, p in self._term_records(term):
        by_field.setdefault(fid, []).append(codec.decode_postings(d, f, p))
    return {fid: Posting(*_reference_merge(parts))
            for fid, parts in by_field.items()}


def _decoded_terms(eng):
    """Terms of the reader's LRU with a posting whose positions were
    expanded."""
    return {t for t, posts in eng.index._cache.items()
            if any(p._runs is None and p._positions is not None
                   for p in posts.values())}


def test_non_positional_queries_expand_no_positions(gen3_index,
                                                    perfbench_queries):
    query_set, _ = perfbench_queries
    eng = _engine(gen3_index)
    ops = [(q, kw) for q, kw in query_set if q not in POSITIONAL]
    assert len(ops) == len(query_set) - len(POSITIONAL)
    for q, kw in ops:
        eng.search(q, limit=10, **kw)
    st = eng.cache_stats()["postings"]
    assert st["position_decodes"] == 0 and _decoded_terms(eng) == set()
    assert st["misses"] == st["terms"] > 0 and st["hits"] > 0
    # the fetched lists still hold their packed position streams
    assert all(p._runs is not None for posts in eng.index._cache.values()
               for p in posts.values())


def test_phrase_expands_only_its_terms_once(gen3_index):
    eng = _engine(gen3_index)
    for q in ("parse", "buffer"):
        eng.search(q, limit=10)
    eng.search('"exponential backoff"', limit=10)
    n = eng.cache_stats()["postings"]["position_decodes"]
    assert 0 < n <= 2 * eng.index.nfields
    assert _decoded_terms(eng) == {"exponential", "backoff"}
    eng.search('"exponential backoff"', limit=10)
    assert eng.cache_stats()["postings"]["position_decodes"] == n


CASES = [
    ('"exponential backoff"', {}),
    ("hash table index", {}),
    ("exponential backoff", {}),
    ('"exponential backoff"', {"slop": 2}),
    ('"hash index"', {"slop": 3}),
    ('"exponential back*"', {}),
    ("parse^2 buffer", {"mode": "or"}),
    ("retry^3 backoff", {"mode": "and"}),
    ("parse buffer", {"mode": "or"}),
]


def _results(eng):
    out = []
    for q, kw in CASES:
        r = eng.search(q, limit=50, normalize=False, **kw)
        out.append((r["doc_id"].to_pylist(),
                    np.asarray(r["score"].to_numpy()).tobytes()))
    return out


def test_results_equal_the_eager_fetch(gen3_index, monkeypatch):
    from yetisearch_ray.pipelines import fts_documents

    def span_first(eng):
        monkeypatch.setattr(fts_documents, "get_engine", lambda _: eng)
        return [fts_documents.span_first_topk("unused", t, 12, k=20)
                for t in ("backoff", "hash", "parse")]

    lazy = _engine(gen3_index)
    got, got_span = _results(lazy), span_first(lazy)
    assert lazy.cache_stats()["postings"]["position_decodes"] > 0
    terms = ("exponential", "backoff", "hash", "parse")
    got_posts = {t: lazy.index.postings(t) for t in terms}
    monkeypatch.setattr(engine_mod.IndexReader, "postings", _eager_postings)
    eager = _engine(gen3_index)
    assert got == _results(eager)
    want_span = span_first(eager)
    assert any(len(df) for df in want_span)
    for a, b in zip(got_span, want_span):
        assert a["doc_id"].tolist() == b["doc_id"].tolist()
        assert a["score"].to_numpy().tobytes() == b["score"].to_numpy().tobytes()
    # and the merged lists themselves
    for term in terms:
        want = eager.index.postings(term)
        assert got_posts[term].keys() == want.keys()
        for fid, p in got_posts[term].items():
            w = want[fid]
            assert p.doc_ids.tolist() == w.doc_ids.tolist()
            assert p.tfs.tolist() == w.tfs.tolist()
            assert (p.positions is None) == (w.positions is None)
            if w.positions is not None:
                assert p.positions.tolist() == w.positions.tolist()


def test_merge_halves_equal_the_reference_merge():
    """``merge_docs`` + ``merge_positions`` over packed runs equal the
    doc-by-doc merge of the decoded runs: generations that interleave,
    generations in ascending id ranges (appends), one generation, an
    empty one, a doc repeated across generations, a generation without
    positions."""
    rng = np.random.default_rng(3)
    ids = rng.permutation(400).astype(np.uint64)
    cuts = [ids[:150], ids[150:160], ids[160:]]
    ranges = [np.arange(0, 150), np.arange(150, 160), np.arange(160, 400)]

    def run(docs, with_pos=True):
        docs = np.sort(docs).astype(np.uint64)
        tfs = rng.integers(1, 5, docs.size).astype(np.uint64)
        pos = np.concatenate([np.sort(rng.choice(300, int(t), replace=False))
                              for t in tfs] or [[]]).astype(np.uint64)
        return codec.encode_postings(docs, tfs, pos if with_pos else None)

    shapes = [[run(c) for c in cuts], [run(r) for r in ranges],
              [run(cuts[0])], [run(cuts[0]), run(cuts[1][:0]), run(cuts[2])],
              [run(cuts[0]), run(np.r_[cuts[1], cuts[0][:1]])],
              [run(cuts[0]), run(cuts[1], with_pos=False)]]
    for blobs in shapes:
        want = _reference_merge([codec.decode_postings(*b) for b in blobs])
        doc_ids, tfs, runs = codec.merge_docs([codec.decode_docs(*b)
                                               for b in blobs])
        assert doc_ids.tolist() == want[0].tolist()
        assert tfs.tolist() == want[1].tolist()
        assert (runs is None) == (want[2] is None)
        if runs is not None:
            got = codec.merge_positions(tfs, *runs)
            assert got.tolist() == want[2].tolist()
    # both orders of the merge were taken: parts that interleave, and
    # parts in ascending id ranges
    sources = [codec.merge_docs([codec.decode_docs(*b) for b in blobs])[2][1]
               for blobs in shapes[:2]]
    assert [bool((s[1:] >= s[:-1]).all()) for s in sources] == [False, True]
