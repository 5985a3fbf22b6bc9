"""Full-text search over the driver's ``documents`` table.

Adapter that builds (and caches per scale factor) a two-field index —
``source`` (title-like, field 0) + ``text`` (body, field 1) — over
``{sf_dir}/documents.parquet``, and exposes the reference query classes
(exact term / AND / OR / phrase / field-boosted / language-filtered) as
callables whose results are SQL-oracle-checkable (see
``yetisearch_ray.pipelines.oracles`` for the matching DuckDB BM25 CTEs).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..index.build import IndexConfig, build_index
from ..index.manifest import Manifest
from ..search.engine import SearchEngine, open_index

_ENGINES: dict[str, SearchEngine] = {}


def documents_index_dir(sf_dir: str, base: str = "/tmp/ys_idx") -> str:
    sf = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join(base, f"documents_{sf}")


def get_engine(sf_dir: str) -> SearchEngine:
    """Build-once, open-many index over documents.parquet."""
    idx_dir = documents_index_dir(sf_dir)
    eng = _ENGINES.get(idx_dir)
    if eng is not None:
        return eng
    if not Manifest.is_ready(idx_dir):
        import ray.data as rd

        ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))

        def cast_ids(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            i = t.schema.get_field_index("doc_id")
            return t.set_column(i, "doc_id", pc.cast(t["doc_id"], pa.uint64()))

        ds = ds.map_batches(cast_ids, batch_format="pyarrow")
        cfg = IndexConfig(
            fields=[("source", "source"), ("text", "text")],
            language_column="lang",
            store_columns=["text", "lang", "source", "n_chars"],
            num_partitions=8,
            content_hash_column="text",
        )
        build_index(ds, idx_dir, cfg, input_fingerprint=sf_dir)
    eng = SearchEngine(open_index(idx_dir))
    _ENGINES[idx_dir] = eng
    return eng


def _as_result(t: pa.Table, round_to: int = 5) -> pd.DataFrame:
    df = t.to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    df["score"] = df["score"].abs().round(round_to)
    return df[["doc_id", "score"]]


def term_topk(sf_dir: str, term: str = "merge", k: int = 20) -> pd.DataFrame:
    return _as_result(get_engine(sf_dir).search(term, limit=k, normalize=False))


def and_topk(sf_dir: str, terms=("hash", "merge"), k: int = 20) -> pd.DataFrame:
    return _as_result(
        get_engine(sf_dir).search(" ".join(terms), mode="and", limit=k, normalize=False)
    )


def or_topk(sf_dir: str, terms=("vector", "stream"), k: int = 20) -> pd.DataFrame:
    return _as_result(
        get_engine(sf_dir).search(" ".join(terms), mode="or", limit=k, normalize=False)
    )


def min_match_topk(sf_dir: str, terms=("vector", "stream", "merge"),
                   m: int = 2, k: int = 20) -> pd.DataFrame:
    """OR query keeping only docs that match at least ``m`` of the terms
    (ES minimum_should_match; engine ``min_should_match``).  Scoring is
    plain OR BM25.  Oracle: ``oracles.bm25_topk_sql(..., min_match=m)``."""
    return _as_result(get_engine(sf_dir).search(
        " ".join(terms), mode="or", min_should_match=m, limit=k,
        normalize=False))


def boost_topk(sf_dir: str, query: str = "vector^2 stream",
               k: int = 20) -> pd.DataFrame:
    """OR query with Lucene ``term^N`` query-time boosts (engine
    ``Phrase.boost``: the boosted arm's BM25 contribution is multiplied,
    everything else unchanged).  Oracle:
    ``oracles.bm25_topk_sql(..., boosts=...)``."""
    return _as_result(get_engine(sf_dir).search(
        query, mode="or", limit=k, normalize=False))


def dismax_topk(sf_dir: str, terms=("vector", "stream"), tie: float = 0.3,
                k: int = 20) -> pd.DataFrame:
    """OR query scored as ES dis_max: best arm + ``tie`` * the rest
    (engine ``dismax``/``tie_breaker``).  Oracle:
    ``oracles.bm25_topk_sql(..., dismax=True, tie_breaker=tie)``."""
    return _as_result(get_engine(sf_dir).search(
        " ".join(terms), mode="or", dismax=True, tie_breaker=tie,
        limit=k, normalize=False))


def rank_boost_topk(sf_dir: str, terms=("vector", "stream"),
                    w: float = 0.5, k: int = 20) -> pd.DataFrame:
    """OR query blended with a static-rank doc boost on the stored
    ``n_chars`` column: score += w * ln(1 + n_chars)  (ES function_score
    field_value_factor(log1p); engine ``rank_column``).  Oracle:
    ``oracles.bm25_topk_sql(..., rank_boost=("documents","n_chars",w,"add"))``."""
    return _as_result(get_engine(sf_dir).search(
        " ".join(terms), mode="or", rank_column="n_chars", rank_weight=w,
        limit=k, normalize=False))


def group_topk(sf_dir: str, terms=("dup", "stream"), n: int = 3,
               k: int = 3) -> pd.DataFrame:
    """Top-n docs per lang group for the top-k groups (ES collapse +
    inner_hits; engine ``search_grouped``).  "dup" is the corpus's one
    low-df term so group ranking exercises real idf spread.  Oracle:
    ``oracles.group_topk_sql``."""
    t = get_engine(sf_dir).search_grouped(
        " ".join(terms), mode="or", route_column="lang", group_limit=n,
        limit=k)
    df = t.to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    df["score"] = df["score"].abs().round(5)
    df["pos"] = df["pos"].astype("int64")
    return df[["route", "doc_id", "score", "pos"]]


def phrase_topk(sf_dir: str, phrase: str = "hash value", k: int = 20) -> pd.DataFrame:
    return _as_result(get_engine(sf_dir).search(f'"{phrase}"', limit=k, normalize=False))


def more_like_this_topk(sf_dir: str, doc_id: int = 7, k: int = 10,
                        max_terms: int = 5) -> pd.DataFrame:
    """Docs most similar to ``doc_id`` (top-tf*idf terms -> BM25 OR,
    source excluded); oracle: ``oracles.more_like_this_sql``."""
    return _as_result(get_engine(sf_dir).more_like_this(
        doc_id, limit=k, max_terms=max_terms, normalize=False))


def explain_score(sf_dir: str, doc_id: int = 7,
                  query: str = "src7 value window") -> pd.DataFrame:
    """Per-term BM25 breakdown of one (doc, query) pair (ES ``_explain``
    shape); oracle: ``oracles.explain_score_sql``."""
    df = get_engine(sf_dir).explain_score(doc_id, query).to_pandas()
    return df[["term", "tf", "df", "idf", "contrib"]]


def term_vectors(sf_dir: str, doc_id: int = 7) -> pd.DataFrame:
    """Per-doc term statistics (ES ``_termvectors`` shape): (field,
    term, tf, df) with df the union-of-fields corpus docfreq; oracle:
    ``oracles.term_vectors_sql``."""
    df = get_engine(sf_dir).term_vectors(doc_id).to_pandas()
    return df[["field", "term", "tf", "df"]]


def not_topk(sf_dir: str, term: str = "merge", exclude: str = "window",
             k: int = 20) -> pd.DataFrame:
    """BM25 top-k for ``term`` with docs containing ``exclude`` removed
    (boolean NOT — reference FTS5 ``a NOT b``; engine ``exclude_terms``).
    Oracle: ``oracles.bm25_topk_sql(..., exclude_term=...)``."""
    return _as_result(get_engine(sf_dir).search(
        term, exclude_terms=[exclude], limit=k, normalize=False))


def collapse_topk(sf_dir: str, terms=("vector", "stream"), k: int = 5) -> pd.DataFrame:
    """Field collapsing: OR query grouped by ``lang`` — composite score =
    SUM of member scores, representative = best member (reference
    ``deduplicateByRoute`` semantics, SearchEngine.php:1112-1169, with
    lang as the route).  Oracle: ``oracles.collapse_topk_sql``."""
    return _as_result(get_engine(sf_dir).search(
        " ".join(terms), mode="or", unique_by_route=True,
        route_column="lang", limit=k, normalize=False))


def search_after_page2(sf_dir: str, terms=("vector", "stream"),
                       page: int = 10, k: int = 10) -> pd.DataFrame:
    """Keyset pagination: fetch page 1 (size ``page``), then the next
    ``k`` rows via the (score, doc_id) cursor of its last row.  With the
    unique composite key this equals OFFSET ``page`` — which is exactly
    what the SQL oracle asserts (``oracles.bm25_topk_sql(offset=...)``)."""
    eng = get_engine(sf_dir)
    q = " ".join(terms)
    p1 = eng.search(q, mode="or", limit=page, normalize=False)
    assert p1.num_rows == page, "corpus too small for the pagination demo"
    return _as_result(eng.search_after(
        q, mode="or",
        after_score=p1["score"][page - 1].as_py(),
        after_doc_id=p1["doc_id"][page - 1].as_py(),
        limit=k))


def slop_phrase_topk(sf_dir: str, t1: str = "hash", t2: str = "value",
                     slop: int = 2, k: int = 20) -> pd.DataFrame:
    """Ordered-proximity phrase ("{t1} {t2}"~slop, Lucene sloppy-phrase
    shape): anchors of t1 with t2 within slop+1 positions after.
    Oracle: ``oracles.slop_phrase_sql``."""
    return _as_result(get_engine(sf_dir).search(
        f'"{t1} {t2}"', slop=slop, limit=k, normalize=False))


def phrase_prefix_topk(sf_dir: str, query: str = "hash va",
                       k: int = 20) -> pd.DataFrame:
    """match_phrase_prefix (ES): phrase whose final slot matches any
    dictionary expansion of the trailing prefix; oracle:
    ``oracles.phrase_prefix_topk_sql``."""
    return _as_result(get_engine(sf_dir).search(
        query, mode="phrase", prefix_last=True, limit=k, normalize=False))


def lm_dirichlet_topk(sf_dir: str, query: str = "src3 window",
                      k: int = 20, mu: float = 2000.0) -> pd.DataFrame:
    """Query-likelihood ranking with Dirichlet smoothing (ES
    LMDirichlet — a second similarity beside BM25); oracle:
    ``oracles.lm_dirichlet_topk_sql``."""
    df = get_engine(sf_dir).search_lm(query, limit=k, mu=mu).to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    return df[["doc_id", "score"]]


def bool_prefix_topk(sf_dir: str, query: str = "src3 va",
                     k: int = 20) -> pd.DataFrame:
    """match_bool_prefix (ES): OR over the base terms plus one
    union-of-expansions prefix arm; oracle:
    ``oracles.bool_prefix_topk_sql``."""
    return _as_result(get_engine(sf_dir).search(
        query, mode="or", prefix_last=True, limit=k, normalize=False))


def wildcard_topk(sf_dir: str, pattern: str = "*ow", k: int = 20,
                  max_terms: int = 16) -> pd.DataFrame:
    """Wildcard query (leading-star pattern exercises the full
    dictionary-scan path); oracle: ``oracles.wildcard_topk_sql``."""
    return _as_result(get_engine(sf_dir).search_wildcard(
        pattern, limit=k, max_terms=max_terms, normalize=False))


def facet_nchars(sf_dir: str, terms=("vector", "stream"),
                 edges=(0, 100, 200, 300, 400, 500)) -> pd.DataFrame:
    """Numeric histogram facet on ``n_chars`` over the OR match set
    (top-1000 candidates clamp, reference computeFacets semantics);
    oracle: ``oracles.numeric_facet_sql``."""
    t = get_engine(sf_dir).numeric_facets(
        " ".join(terms), "n_chars", edges, mode="or")
    df = t.to_pandas()
    df["count"] = df["count"].astype("int64")
    return df


def significant_terms(sf_dir: str, terms=("vector", "stream"), k: int = 20,
                      candidates: int = 1000, min_fg_df: int = 5,
                      round_to: int = 6) -> pd.DataFrame:
    """Terms over-represented in a query's match set vs the whole corpus
    (the ES ``significant_terms`` aggregation; an extension over the
    reference's facet surface, ``src/Search/SearchEngine.php``
    computeFacets).

    Foreground = top-``candidates`` BM25-OR match set (the same clamp as
    facets); a doc "contains" a term if it appears in ANY indexed field.
    score = fg_rate * ln(fg_rate / bg_rate) with fg_rate = fg_df/fg_n,
    bg_rate = bg_df/corpus_n; query terms excluded; ties (score desc,
    term asc).  Oracle: ``oracles.significant_terms_sql``.

    Scale shape: the foreground pass tokenizes only the ≤``candidates``
    gathered docs (driver-bounded by construction, like facets); the
    background pass is ONE streaming tokenization of the corpus with the
    candidate term set broadcast via ``ray.put`` and applied map-side,
    so each task emits only candidate-term partial counts and the final
    ``groupby`` aggregates ≤ |candidates' vocabulary| rows — never the
    corpus dictionary."""
    import ray
    import ray.data as rd
    import pyarrow.compute as pc

    from ..analysis.tokenizer import tokenize_batch_dict

    eng = get_engine(sf_dir)
    hits = eng.search(" ".join(terms), mode="or", limit=candidates,
                      normalize=False)
    fg_n = hits.num_rows
    empty = pd.DataFrame({"term": pd.array([], dtype=str),
                          "fg_df": pd.array([], dtype="int64"),
                          "bg_df": pd.array([], dtype="int64"),
                          "score": pd.array([], dtype="float64")})
    if fg_n == 0:
        return empty

    def _joined_fields(t: pa.Table) -> pa.Array:
        src = pc.cast(pc.fill_null(t["source"], ""), pa.string())
        txt = pc.cast(pc.fill_null(t["text"], ""), pa.string())
        out = pc.binary_join_element_wise(src, txt, " ")
        return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out

    # ---- foreground df: tokenize the gathered candidate docs ----------
    fg_ids = hits["doc_id"].to_numpy(zero_copy_only=False)
    docs = eng.index.docs(fg_ids, columns=["doc_id", "source", "text"])
    codes, uniq, rows, _pos, _cnt = tokenize_batch_dict(_joined_fields(docs))
    if len(uniq) == 0:
        return empty
    pair = np.unique(rows * len(uniq) + codes)          # distinct (doc, term)
    fg_df = np.bincount((pair % len(uniq)).astype(np.int64),
                        minlength=len(uniq))
    keep = (fg_df >= min_fg_df) & ~np.isin(uniq, np.asarray(list(terms),
                                                            dtype=object))
    cand_terms = np.sort(uniq[keep].astype(str))
    if cand_terms.size == 0:
        return empty
    fg_map = pd.Series(fg_df[keep], index=uniq[keep].astype(str))

    # ---- background df: one corpus pass, candidate-filtered map-side --
    cand_ref = ray.put(cand_terms)

    def bg_partial(t: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)                 # shared-memory read
        c, u, r, _p, _c = tokenize_batch_dict(_joined_fields(t))
        if len(u) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "bg": pa.array([], pa.int64())})
        p = np.unique(r * len(u) + c)
        dfc = np.bincount((p % len(u)).astype(np.int64), minlength=len(u))
        us = u.astype(str)
        at = np.searchsorted(cand, us)
        ok = (at < cand.size) & (cand[np.minimum(at, cand.size - 1)] == us)
        ok &= dfc > 0
        return pa.table({"term": pa.array(us[ok], pa.string()),
                         "bg": pa.array(dfc[ok].astype(np.int64), pa.int64())})

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["source", "text"])
    agg = (ds.map_batches(bg_partial, batch_format="pyarrow")
           .groupby("term").sum("bg"))
    bg = agg.to_pandas()                          # ≤ |cand_terms| rows
    bg_n = int(eng.index.manifest.stats["n_docs"])

    out = bg.rename(columns={"sum(bg)": "bg_df"})
    out["fg_df"] = out["term"].map(fg_map).astype("int64")
    fg_rate = out["fg_df"] / float(fg_n)
    bg_rate = out["bg_df"] / float(bg_n)
    score = (fg_rate * np.log(fg_rate / bg_rate)).to_numpy()
    out["score"] = [round(float(x), round_to) for x in score]
    out["bg_df"] = out["bg_df"].astype("int64")
    out = out.sort_values(["score", "term"], ascending=[False, True],
                          kind="mergesort").head(k).reset_index(drop=True)
    return out[["term", "fg_df", "bg_df", "score"]]


def weighted_topk(sf_dir: str, term: str = "src3", k: int = 20,
                  w_source: float = 5.0, w_text: float = 1.0) -> pd.DataFrame:
    return _as_result(
        get_engine(sf_dir).search(
            term, limit=k, normalize=False,
            field_weights={"source": w_source, "text": w_text},
        )
    )


def filtered_topk(sf_dir: str, term: str = "window", lang: str = "es",
                  k: int = 20) -> pd.DataFrame:
    return _as_result(
        get_engine(sf_dir).search(term, limit=k, normalize=False, language=lang)
    )


def smart_topk(sf_dir: str, query: str = "hash value", k: int = 20) -> pd.DataFrame:
    """Reference default compile shape ("p" OR NEAR(p,10) OR terms) —
    rows-only check (NEAR instance semantics not SQL-replicated)."""
    return _as_result(get_engine(sf_dir).search(query, limit=k, normalize=False))


def match_count(sf_dir: str, term: str = "merge") -> pd.DataFrame:
    n = get_engine(sf_dir).count(term)
    return pd.DataFrame({"n": pd.array([n], dtype="int64")})


def facet_lang(sf_dir: str, term: str = "merge", candidates: int = 1000,
               top_n: int = 10) -> pd.DataFrame:
    """Facets over the match set (top-1000 candidates quirk preserved)."""
    f = get_engine(sf_dir).facets(term, ["lang"], candidates=candidates,
                                  top_n=top_n, mode="or")
    df = f["lang"].to_pandas()
    df["count"] = df["count"].astype("int64")
    return df


def suggest(sf_dir: str, query: str = "mrege windwo") -> pd.DataFrame:
    df = get_engine(sf_dir).suggest(query).to_pandas()
    df["count"] = df["count"].astype("int64") if len(df) else df.get("count")
    return df


def fuzzy_topk(sf_dir: str, query: str = "mrege", k: int = 10) -> pd.DataFrame:
    return _as_result(get_engine(sf_dir).search(query, limit=k, fuzzy=True,
                                                normalize=False))


def autocomplete_topk(sf_dir: str, prefix: str = "s",
                      k: int = 10) -> pd.DataFrame:
    """Dictionary autocomplete: top-``k`` index terms starting with
    ``prefix``, ranked by summed docfreq (df over (field, doc) pairs,
    i.e. the per-field df rows the segments store, summed across fields,
    generations and hot-term splits).

    Serving shape mirrors ``IndexReader.expand_prefix`` (reference
    prefix queries, SURVEY §2.10): a range of every segment's sorted
    term dictionary.  Oracled by ``oracles.autocomplete_sql``.
    """
    t = get_engine(sf_dir).index.dictionary_rows(prefix).select(["term", "df"])
    df = t.to_pandas().groupby("term", as_index=False)["df"].sum()
    df["df"] = df["df"].astype("int64")
    return (df.sort_values(["df", "term"], ascending=[False, True],
                           kind="mergesort")
            .head(k).reset_index(drop=True)[["term", "df"]])


def index_stats_by_lang(sf_dir: str) -> pd.DataFrame:
    from ..index.manage import index_stats

    get_engine(sf_dir)  # ensure built
    st = index_stats(documents_index_dir(sf_dir), by="lang")
    rows = sorted(st["by_lang"].items())
    return pd.DataFrame({
        "lang": [k for k, _ in rows],
        "n": pd.array([v for _, v in rows], dtype="int64"),
    })


def chunk_stats(sf_dir: str, chunk_size: int = 200, overlap: int = 20) -> pd.DataFrame:
    """Chunking stage over documents: per-doc chunk counts (rows-only)."""
    import ray.data as rd

    from ..stages.chunker import chunk_documents

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    out = chunk_documents(ds, chunk_size=chunk_size, chunk_overlap=overlap)
    df = out.to_pandas()
    agg = df.groupby("parent_id").agg(
        n_rows=("doc_id", "size"),
        n_chunks=("is_chunk", "sum"),
    ).reset_index()
    agg["parent_id"] = agg["parent_id"].astype("int64")
    agg["n_rows"] = agg["n_rows"].astype("int64")
    agg["n_chunks"] = agg["n_chunks"].astype("int64")
    return agg.sort_values("parent_id").reset_index(drop=True)


def two_pass_topk(sf_dir: str, query: str = "merge window", k: int = 10) -> pd.DataFrame:
    r = get_engine(sf_dir).search_two_pass(
        query, limit=k, field_weights={"source": 5.0, "text": 1.0})
    df = r.to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    df["score"] = df["score"].abs().round(5)
    return df[["doc_id", "score"]]


_SHARDED: dict[str, SearchEngine] = {}


def sharded_topk(sf_dir: str, term: str = "merge", k: int = 20,
                 n_shards: int = 3) -> pd.DataFrame:
    """Same query as ``term_topk`` but served through the sharded
    scatter/gather pool (search/sharded.py) — shares ``term_topk``'s
    DuckDB oracle because results are identical by construction."""
    from ..search.sharded import open_sharded

    get_engine(sf_dir)  # ensure the index is built
    idx_dir = documents_index_dir(sf_dir)
    eng = _SHARDED.get(idx_dir)
    if eng is None:
        eng = open_sharded(idx_dir, n_shards=n_shards)
        _SHARDED[idx_dir] = eng
    return _as_result(eng.search(term, limit=k, normalize=False))


_DOC_SHARDED: dict[str, object] = {}


def doc_sharded_topk(sf_dir: str, term: str = "merge", k: int = 20,
                     n_shards: int = 3) -> pd.DataFrame:
    """Same query as ``term_topk`` served through DOC-RANGE shards with
    the two-phase global-stats BM25 protocol (search/doc_sharded.py) —
    shares ``term_topk``'s oracle because the merged ranking is exact."""
    import ray.data as rd

    from ..search.doc_sharded import DocShardedEngine, build_doc_shards

    base = documents_index_dir(sf_dir) + "_docshards"
    eng = _DOC_SHARDED.get(base)
    if eng is None:
        from ..index.manifest import Manifest

        dirs = [os.path.join(base, f"shard={s}") for s in range(n_shards)]
        if not all(Manifest.is_ready(d) for d in dirs):
            ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))

            def cast_ids(t: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                i = t.schema.get_field_index("doc_id")
                return t.set_column(i, "doc_id",
                                    pc.cast(t["doc_id"], pa.uint64()))

            ds = ds.map_batches(cast_ids, batch_format="pyarrow")
            cfg = IndexConfig(
                fields=[("source", "source"), ("text", "text")],
                language_column="lang",
                store_columns=["text", "lang", "source", "n_chars"],
                num_partitions=4,
            )
            dirs = build_doc_shards(ds, base, cfg, n_shards=n_shards)
        eng = DocShardedEngine(dirs)
        _DOC_SHARDED[base] = eng
    r = eng.search(term, limit=k, normalize=False)
    df = r.to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    df["score"] = df["score"].abs().round(5)
    return df[["doc_id", "score"]]


def actor_pool_search(sf_dir: str, queries=("merge", "vector", "window"),
                      k: int = 5) -> pd.DataFrame:
    """Query serving through the map_batches actor pool (SearchActor):
    one actor holds the index state, a Dataset of queries streams
    through it."""
    import ray.data as rd

    from ..search.engine import SearchActor

    get_engine(sf_dir)  # ensure the index is built
    qds = rd.from_items([
        {"qid": i, "query": q, "limit": k} for i, q in enumerate(queries)
    ])
    out = qds.map_batches(
        SearchActor,
        fn_constructor_kwargs={"index_dir": documents_index_dir(sf_dir)},
        batch_format="pyarrow",
        concurrency=1,
        batch_size=8,
    )
    df = out.to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    df["qid"] = df["qid"].astype("int64")
    df["result_rank"] = df["result_rank"].astype("int64")
    return df[["qid", "doc_id", "result_rank"]]


def batch_search_to_parquet(index_dir: str, queries_ds, out_dir: str, *,
                            concurrency: int = 4, batch_size: int = 64,
                            search_defaults: dict | None = None,
                            **engine_kwargs) -> str:
    """Bulk query serving as a SINK: a Dataset of queries streams through
    the SearchActor pool and results land as partitioned parquet.

    The consumer shape for offline evaluation / relevance-set generation
    at scale: output is one file per result block (never one giant
    file), so a failed run re-submits only the missing query shards and
    downstream readers stream the directory.  Columns: (qid, doc_id,
    score, result_rank).
    """
    from ..search.engine import SearchActor

    out = queries_ds.map_batches(
        SearchActor,
        fn_constructor_kwargs={"index_dir": index_dir,
                               "search_defaults": search_defaults,
                               **engine_kwargs},
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=batch_size,
    )
    out.write_parquet(out_dir)
    return out_dir


# --------------------------------------------------------------------------
# rank-eval (ES _rank_eval shape): P@k / recall@k / MRR / nDCG@k per query
# --------------------------------------------------------------------------

RANK_EVAL_QUERIES: tuple[tuple[str, tuple[str, ...]], ...] = (
    # rare (srcN / dup, high idf) × common term: AND sets are small and
    # the OR page mixes relevant and single-term docs, so the metrics
    # are discriminative rather than degenerate-1.0
    ("q_src3_window", ("src3", "window")),
    ("q_dup_merge", ("dup", "merge")),
    ("q_src7_vector", ("src7", "vector")),
)


def rank_eval(sf_dir: str, specs=RANK_EVAL_QUERIES, k: int = 10) -> pd.DataFrame:
    """Offline search-quality evaluation (ES ``_rank_eval`` shape;
    reference analog: benchmarks/benchmark.php result-quality checks).

    For each query: the served page is the BM25 OR-mode top-k; the
    relevance judgment set is the AND-match set (docs containing every
    query term), which is deterministic from the corpus.  Metrics are
    binary-gain precision@k, recall@k, reciprocal rank, and nDCG@k.

    Relevant hits inside the page are computed as
    ``topk_or ∩ topk_and(k)`` — exact, not an approximation: AND prunes
    the match set only (scores identical to OR for surviving docs), so
    AND-ranking is OR-ranking restricted to the relevance set; any
    relevant doc at OR-rank r ≤ k therefore has AND-rank ≤ r ≤ k.

    ``n_rel`` uses the engine's distributed ``count`` (AND mode) — the
    full relevance set is never materialized on the driver.
    """
    eng = get_engine(sf_dir)
    rows = []
    for qname, terms in specs:
        q = " ".join(terms)
        page = eng.search(q, mode="or", limit=k, normalize=False).to_pandas()
        and_page = eng.search(q, mode="and", limit=k, normalize=False)
        rel_in_page = set(and_page["doc_id"].to_pylist())
        n_rel = eng.count(q, mode="and")
        ranks = [i + 1 for i, d in enumerate(page["doc_id"].tolist())
                 if d in rel_in_page]
        hits = len(ranks)
        dcg = float(np.sum(1.0 / np.log2(np.asarray(ranks, dtype=np.float64) + 1.0))) if ranks else 0.0
        ideal = np.arange(1, min(k, n_rel) + 1, dtype=np.float64)
        idcg = float(np.sum(1.0 / np.log2(ideal + 1.0))) if n_rel else 0.0
        rows.append({
            "query": qname,
            "n_rel": n_rel,
            "hits": hits,
            "precision_k": round(hits / k, 6),
            "recall_k": round(hits / n_rel, 6) if n_rel else 0.0,
            "rr": round(1.0 / ranks[0], 6) if ranks else 0.0,
            "ndcg": round(dcg / idcg, 6) if idcg else 0.0,
        })
    df = pd.DataFrame(rows).sort_values("query").reset_index(drop=True)
    df["n_rel"] = df["n_rel"].astype("int64")
    df["hits"] = df["hits"].astype("int64")
    return df


def highlight_topk(sf_dir: str, term: str = "merge", k: int = 10) -> pd.DataFrame:
    """BM25 top-k with highlighted snippets (reference
    SearchEngine::highlight/snippet, src/Search/SearchEngine.php:973-1110):
    single-term query so the snippet construction — first-occurrence
    window, word-boundary trim, 160-char clamp, '...' affixes,
    ``\\b(term s?)\\b`` marking — is SQL-replicable term-for-term.
    Columns (doc_id, score, highlight)."""
    eng = get_engine(sf_dir)
    out = eng.search(term, mode="or", limit=k, normalize=False,
                     highlight=True).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["score"] = out["score"].abs().round(5)
    # deterministic page order on the ROUNDED score (matches the
    # oracle's outer sort; raw-score ordering decides top-k membership
    # identically on both sides, but tie order within the page must be
    # rounding-stable)
    out = out.sort_values(["score", "doc_id"],
                          ascending=[False, True]).reset_index(drop=True)
    return out[["doc_id", "score", "highlight"]]


def decay_topk(sf_dir: str, terms=("vector", "stream"), origin: float = 300.0,
               scale: float = 120.0, offset: float = 0.0,
               k: int = 20) -> pd.DataFrame:
    """OR query with an ES function_score GAUSS DECAY on the stored
    ``n_chars`` column: score *= exp(-max(0,|v-origin|-offset)^2 /
    (2*scale^2)), applied over the FULL match set before pagination
    (engine ``decay_column``) so mid-length docs outrank longer ones
    regardless of raw BM25 page order.  Oracle:
    ``oracles.decay_topk_sql(...)``."""
    return _as_result(get_engine(sf_dir).search(
        " ".join(terms), mode="or", decay_column="n_chars",
        decay_origin=origin, decay_scale=scale, decay_offset=offset,
        limit=k, normalize=False))


def adjacency_matrix(sf_dir: str,
                     filters=(("a", "vector"), ("b", "stream"),
                              ("c", "merge"))) -> pd.DataFrame:
    """ES ``adjacency_matrix`` aggregation: document counts for every
    named term filter and every pairwise intersection (key "x&y",
    x < y), empty buckets omitted — the co-occurrence matrix over match
    SETS rather than scores.

    Match sets come from posting lookups (no scoring/pagination — the
    engine ``match_ids`` path); intersections are sorted-array
    ``np.intersect1d``.  On a sharded index the same algebra runs
    per-shard and the counts add, since doc ranges are disjoint.
    Columns (key, doc_count)."""
    eng = get_engine(sf_dir)
    sets = {name: eng.match_ids(q, mode="or") for name, q in filters}
    names = [n for n, _ in filters]
    rows = []
    for i, a in enumerate(names):
        if sets[a].size:
            rows.append((a, int(sets[a].size)))
        for b in names[i + 1:]:
            n = int(np.intersect1d(sets[a], sets[b]).size)
            if n:
                rows.append((f"{a}&{b}", n))
    out = pd.DataFrame(rows, columns=["key", "doc_count"])
    out["doc_count"] = out["doc_count"].astype("int64")
    return out.sort_values("key").reset_index(drop=True)


def rare_terms(sf_dir: str, *, max_df: int = 100, k: int = 50,
               field: int = 1) -> pd.DataFrame:
    """ES ``rare_terms`` aggregation over the body field: terms whose
    document frequency is at most ``max_df`` — the long-tail complement
    of a top-N terms facet (typo/entity mining).

    Served from the segment DICTIONARY, not the corpus: the postings
    layout stores (term, field, df) per segment, so this is a
    column-pruned metadata scan (hot-term splits store disjoint doc
    lists — summing partials restores true df), no posting decode and
    no corpus re-scan.  Columns (term, df), ordered (df, term)."""
    t = get_engine(sf_dir).index.dictionary_rows()
    df = t.select(["term", "field", "df"]).to_pandas()
    df = df[df["field"] == field]
    df = df.groupby("term", as_index=False)["df"].sum()
    df = df[df["df"] <= max_df]
    df["df"] = df["df"].astype("int64")
    return (df.sort_values(["df", "term"]).head(k)
            .reset_index(drop=True)[["term", "df"]])


def _two_gen_index_dir(sf_dir: str) -> str:
    return documents_index_dir(sf_dir) + "_gen2"


def time_travel_topk(sf_dir: str, terms=("vector", "stream"),
                     k: int = 20) -> pd.DataFrame:
    """Generation-pinned (time-travel) search: query a two-generation
    index AS OF generation 0 — only gen-0 segments are visible and the
    BM25 corpus stats (N, avgdl) are reconstructed from the manifest's
    per-(gen:part) metrics, so the page is rank+score identical to an
    index built from just the snapshot docs (what the SQL oracle
    computes).  This is the snapshot-read every resumable/incremental
    pipeline needs: queries pin a generation while appends land.

    The fixture index holds docs with doc_id < (max+1)//2 in gen 0 and
    the rest appended as gen 1.  Oracle:
    ``oracles.bm25_topk_sql(..., corpus=<first-half documents>)``."""
    import pyarrow.compute as pc
    import ray.data as rd

    idx_dir = _two_gen_index_dir(sf_dir)
    if not (Manifest.is_ready(idx_dir)
            and 1 in Manifest.load(idx_dir).generations()):
        ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
        thr = (int(ds.max("doc_id")) + 1) // 2

        def cast_ids(t: pa.Table) -> pa.Table:
            i = t.schema.get_field_index("doc_id")
            return t.set_column(i, "doc_id",
                                pc.cast(t["doc_id"], pa.uint64()))

        cfg = IndexConfig(
            fields=[("source", "source"), ("text", "text")],
            language_column="lang",
            store_columns=["text", "lang", "source", "n_chars"],
            num_partitions=8,
            content_hash_column="text",
        )
        base = (rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
                .filter(expr=f"doc_id < {thr}")
                .map_batches(cast_ids, batch_format="pyarrow"))
        build_index(base, idx_dir, cfg, input_fingerprint=f"{sf_dir}:gen0")
        delta = (rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
                 .filter(expr=f"doc_id >= {thr}")
                 .map_batches(cast_ids, batch_format="pyarrow"))
        build_index(delta, idx_dir, cfg, append=True,
                    input_fingerprint=f"{sf_dir}:gen1")
    eng = SearchEngine(open_index(idx_dir, max_generation=0))
    return _as_result(eng.search(" ".join(terms), mode="or", limit=k,
                                 normalize=False))


_SYN_ENGINES: dict[str, SearchEngine] = {}


def synonym_topk(sf_dir: str, base=("merge", "stream"),
                 synonyms={"stream": ["buffer"]}, k: int = 20
                 ) -> pd.DataFrame:
    """OR query with query-time synonym expansion (engine ``synonyms``:
    each synonym becomes an extra OR arm, reference Synonyms semantics)
    — so the result is provably identical to an OR over the expanded
    term set, which is exactly what the oracle computes.  Oracle:
    ``oracles.bm25_topk_sql(expanded_terms)``."""
    idx_dir = documents_index_dir(sf_dir)
    eng = _SYN_ENGINES.get(idx_dir)
    if eng is None:
        get_engine(sf_dir)  # ensure the index is built
        eng = SearchEngine(open_index(idx_dir), synonyms=synonyms)
        _SYN_ENGINES[idx_dir] = eng
    return _as_result(eng.search(" ".join(base), mode="or", limit=k,
                                 normalize=False))


def best_fields_topk(sf_dir: str, terms=("dup", "stream"),
                     tie: float = 0.0, k: int = 20) -> pd.DataFrame:
    """ES ``multi_match`` type=best_fields: score each doc per FIELD
    independently (field-restricted tf/df, whole-corpus stats — the
    engine's pinned in_fields semantics), take the best field's score
    plus ``tie`` times the other's — the per-field dis_max, vs the
    engine's default cross-field blended tf.

    Composed from two field-restricted engine passes over the full
    match set (MAX_RESULTS-bounded page at test scale; at 100 TB the
    same max-merge runs as a two-sided outer join keyed by doc).
    Oracle: ``oracles.best_fields_sql(...)``."""
    eng = get_engine(sf_dir)
    q = " ".join(terms)
    f0 = eng.search(q, mode="or", in_fields=["source"], limit=1000,
                    normalize=False).to_pandas()[["doc_id", "score"]]
    f1 = eng.search(q, mode="or", in_fields=["text"], limit=1000,
                    normalize=False).to_pandas()[["doc_id", "score"]]
    m = f0.merge(f1, on="doc_id", how="outer",
                 suffixes=("_0", "_1")).fillna(0.0)
    best = np.maximum(m["score_0"], m["score_1"])
    rest = np.minimum(m["score_0"], m["score_1"])
    # order by the UNROUNDED blend (the oracle's ORDER BY), round only
    # for display/compare
    m["blend"] = best + tie * rest
    m["doc_id"] = m["doc_id"].astype("int64")
    m = (m.sort_values(["blend", "doc_id"], ascending=[False, True])
         .head(k).reset_index(drop=True))
    m["score"] = m["blend"].round(5)
    return m[["doc_id", "score"]]


def terms_enum(sf_dir: str, *, prefix: str = "s", k: int = 20
               ) -> pd.DataFrame:
    """ES ``_terms_enum``: dictionary terms starting with ``prefix``,
    ranked by corpus docfreq (df desc, term asc) — served from the
    segment dictionaries with a term-range pushdown (the same scan
    ``expand_prefix`` uses), no posting decode.

    df here is the union-of-fields docfreq the dictionary stores per
    (term, field) — summed across fields and hot-term splits, matching
    the tokf-distinct oracle.  Columns (term, df)."""
    eng = get_engine(sf_dir)
    terms = eng.index.expand_prefix(prefix, max_terms=k)
    t = eng.index.dictionary_rows(prefix).select(["term", "df"]).to_pandas()
    t = t.groupby("term", as_index=False)["df"].sum()
    t = t[t["term"].isin(terms)]
    t["df"] = t["df"].astype("int64")
    return (t.sort_values(["df", "term"], ascending=[False, True])
            .head(k).reset_index(drop=True))


def boosting_topk(sf_dir: str, terms=("vector", "stream"),
                  negative: str = "merge", negative_boost: float = 0.4,
                  k: int = 20) -> pd.DataFrame:
    """ES ``boosting`` query: OR match on ``terms`` with docs that also
    contain ``negative`` DEMOTED (score × negative_boost), never
    excluded — applied over the full match set before pagination
    (engine ``negative_terms``), so demoted docs can fall out of the
    page and clean docs rise in.  Contrast with ``not_topk``, which
    removes them.  Oracle: ``oracles.bm25_topk_sql(negative_term=...)``."""
    return _as_result(get_engine(sf_dir).search(
        " ".join(terms), mode="or", negative_terms=[negative],
        negative_boost=negative_boost, limit=k, normalize=False))


def span_first_topk(sf_dir: str, term: str = "merge", max_pos: int = 20,
                    k: int = 20) -> pd.DataFrame:
    """Lucene ``span_first``: docs where ``term`` occurs within the
    first ``max_pos`` token positions of the text field, BM25-scored
    normally (positional gate prunes the match set only).  The first
    position per doc comes straight off the posting's flat positions
    array (vectorized: positions[tf-prefix starts]); the gated id set
    feeds the engine's ``restrict_ids`` allowlist.
    Oracle: ``oracles.span_first_sql``."""
    eng = get_engine(sf_dir)
    groups = eng.analyzer.match_terms(term)
    tok = groups[0][0] if groups and groups[0] else term
    post = eng.index.postings(tok).get(1)  # field 1 = text
    if post is None or post.positions is None or not post.doc_ids.size:
        ids = np.empty(0, np.uint64)
    else:
        tfs = post.tfs.astype(np.int64)
        starts = np.cumsum(tfs) - tfs
        first = post.positions[starts]
        ids = post.doc_ids[first < max_pos]
    return _as_result(eng.search(term, restrict_ids=ids, limit=k,
                                 normalize=False))


def constant_score_topk(sf_dir: str, term: str = "window",
                        boost: float = 1.7, k: int = 20) -> pd.DataFrame:
    """ES ``constant_score``: filter-context match (no BM25), every
    matching doc scores exactly ``boost``; deterministic page = first
    ``k`` by doc_id.  Oracle: ``oracles.constant_score_sql``."""
    eng = get_engine(sf_dir)
    ids = np.sort(eng.match_ids(term))[:k]
    return pd.DataFrame({
        "doc_id": pd.array(ids.astype(np.int64), dtype="int64"),
        "score": np.full(ids.size, float(boost)),
    })
