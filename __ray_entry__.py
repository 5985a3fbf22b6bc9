"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.

- ``entry()``   — flagship pipeline at sf0.001: build the inverted index
  over the synthetic source-code corpus and serve the reference query set
  through the actor-pool search path.
- ``queries()`` — one callable per implemented operator (SURVEY.md §2 +
  the training-data extensions); each takes ``sf_dir``.
- ``oracle_sql()`` — DuckDB SQL recomputing the same result from the raw
  tables (omitted for ops whose hash functions/approximations are not
  SQL-replicable → driver records a rows-only check).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import pandas as pd

from yetisearch_ray.analysis.stopwords import STOPWORDS
from yetisearch_ray.pipelines import oracles
from yetisearch_ray.pipelines import fts_documents as ftsd
from yetisearch_ray.sources.corpus import corpus_path

_CODE_GLOB_001 = "/tmp/ys_corpus/sf0.01/*.parquet"

# registered saved-searches for the percolation (reverse search) entry —
# shared between queries() and oracle_sql() so both sides evaluate the
# exact same query set
_PERC_QUERIES = [
    (1, "merge window", "and"),
    (2, "vector stream", "or"),
    (3, "hash value", "and"),
]


def _code_corpus(sf_dir: str) -> str:
    return corpus_path(sf_dir)


# pre-generate the small corpora at import time so the oracle SQL (which
# reads /tmp parquet) works regardless of driver call order
for _sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
    try:
        corpus_path(_sf)
    except Exception:
        pass


# ==========================================================================
# entry — flagship at sf0.001
# ==========================================================================


def entry() -> Any:
    """Build the code-corpus index at sf0.001 and run the reference query
    classes (exact / AND / phrase / boosted) through the engine."""
    from yetisearch_ray.index.build import IndexConfig, build_index
    from yetisearch_ray.index.manifest import Manifest
    from yetisearch_ray.search.engine import SearchEngine, open_index
    from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

    sf_dir = "/root/testdata/sf0.001"
    corpus = _code_corpus(sf_dir)
    idx_dir = "/tmp/ys_idx/code_sf0.001"
    if not Manifest.is_ready(idx_dir):
        cfg = IndexConfig(
            fields=[("path", "path"), ("content", "content")],
            language_column="lang",
            store_columns=["repo", "path", "commit", "lang", "content"],
            num_partitions=8,
            content_hash_column="content",
        )
        build_index(read_parquet_with_doc_ids(corpus), idx_dir, cfg,
                    input_fingerprint=corpus)
    eng = SearchEngine(open_index(idx_dir))
    frames = []
    for qname, kwargs in [
        ("exact:parse", dict(query="parse")),
        ("and:retry backoff", dict(query="retry backoff", mode="and")),
        ("phrase:exponential backoff", dict(query='"exponential backoff"')),
        ("boosted:module", dict(query="module",
                                field_weights={"path": 5.0, "content": 1.0})),
        ("filtered:return@rust", dict(query="return", language="rust")),
    ]:
        r = eng.search(limit=10, normalize=False, **kwargs).to_pandas()
        r.insert(0, "query", qname)
        frames.append(r)
    out = pd.concat(frames, ignore_index=True)
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


# ==========================================================================
# queries
# ==========================================================================


_PAIRS_CACHE: dict = {}


def queries() -> dict[str, Callable[[str], Any]]:
    from yetisearch_ray.pipelines import (ann, classifier, cluster, curation,
                                          dedup, events, hybrid, percolate,
                                          relational, sketches, textstats)

    def _lineitem(sf_dir, columns):
        import ray.data as rd

        return rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                               columns=columns)

    def q_quantiles(sf_dir):
        return sketches.quantiles_disc(
            _lineitem(sf_dir, ["l_extendedprice"]), "l_extendedprice",
            qs=(0.5, 0.9, 0.99))

    def q_distinct_parts(sf_dir):
        n = sketches.distinct_count(_lineitem(sf_dir, ["l_partkey"]),
                                    "l_partkey")
        return pd.DataFrame({"n_distinct": pd.array([n], dtype="int64")})

    def q_heavy_hitters(sf_dir):
        import ray.data as rd

        ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                             columns=["text"])
        return sketches.heavy_hitters(ds, "text", k=100, tokens=True)

    def q_hll_distinct(sf_dir):
        # bound oracle (round-4): the estimate itself is not SQL-
        # reproducible, but |est/exact - 1| <= 3*1.04/sqrt(m) IS a
        # deterministic checkable claim (fixed splitmix64 hash makes the
        # HLL estimate a pure function of the column), so the driver row
        # carries the engine's own exact distinct count plus the band
        # verdict; the oracle emits COUNT(DISTINCT) and a constant 1.
        est, m = sketches.hll_distinct(_lineitem(sf_dir, ["l_partkey"]),
                                       "l_partkey", p=12)
        exact = sketches.distinct_count(_lineitem(sf_dir, ["l_partkey"]),
                                        "l_partkey")
        within = int(abs(est / exact - 1.0) <= 3 * 1.04 / (m ** 0.5))
        return pd.DataFrame({
            "n_distinct_exact": pd.array([exact], dtype="int64"),
            "registers": pd.array([m], dtype="int64"),
            "within_3sigma": pd.array([within], dtype="int64"),
        })

    def q_quality_distill(sf_dir):
        # bound oracle (round-5, HLL_BOUND_SQL idiom): the logreg
        # probabilities aren't SQL-reproducible, but the heuristic
        # label counts ARE, and "agreement >= the pytest bar
        # min(0.95, majority+0.05)" is a deterministic checkable claim
        # (zero init + deterministic data order make the fit a pure
        # function of the corpus AND its block layout — parameter
        # averaging degrades with many tiny blocks, so the input is
        # repartitioned to a pinned 8 blocks to make the row identical
        # at any session parallelism); the oracle recomputes the label
        # counts and bar exactly and emits meets_bar = 1.
        out = classifier.quality_classifier(
            _docs(sf_dir).repartition(8).materialize()).to_pandas()
        n = len(out)
        npos = int(out["label"].sum())
        agreement = float((out["label"] == out["pred"]).mean())
        majority = max(npos, n - npos) / n
        bar = min(0.95, majority + 0.05)
        return pd.DataFrame({
            "n_docs": pd.array([n], dtype="int64"),
            "n_label_pos": pd.array([npos], dtype="int64"),
            "bar": [round(bar, 6)],
            "meets_bar": pd.array([int(agreement >= bar)],
                                  dtype="int64"),
        })

    def _docs(sf_dir):
        import ray.data as rd

        return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))

    def _dedup_incremental(sf_dir, bloom=False):
        # second half of documents "appended" against the first half;
        # the split threshold mirrors the oracle's (max(doc_id)+1)//2
        ds = _docs(sf_dir)
        thr = (int(ds.max("doc_id")) + 1) // 2
        base = _docs(sf_dir).filter(expr=f"doc_id < {thr}")
        new = _docs(sf_dir).filter(expr=f"doc_id >= {thr}")
        fn = (dedup.exact_dedup_incremental_bloom if bloom
              else dedup.exact_dedup_incremental)
        out = fn(new, base).to_pandas()
        return (out[["doc_id", "text", "lang", "source", "n_chars"]]
                .sort_values("doc_id").reset_index(drop=True))

    def _minhash_pairs_ds(sf_dir, threshold=0.5):
        # pairs + clusters entries share one materialized pair table
        # (same input, same params) instead of re-running the LSH+verify
        # pipeline; cache lives for the driver process/session only
        key = (sf_dir, threshold)
        if key not in _PAIRS_CACHE:
            _PAIRS_CACHE[key] = dedup.minhash_dedup_pairs(
                _docs(sf_dir), threshold=threshold,
                as_dataset=True).materialize()
        return _PAIRS_CACHE[key]

    def _emb(sf_dir):
        import ray.data as rd

        return rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))

    def _ivf_partitioned(sf_dir):
        """Centroid-partitioned IVF store (built once per sf under /tmp);
        nprobe=None probes all partitions → exact, shares the brute-force
        oracle."""
        sf = os.path.basename(os.path.normpath(sf_dir))
        out = f"/tmp/ys_ivf/{sf}"
        if not os.path.exists(os.path.join(out, "ivf.json")):
            ann.ivf_build(_emb(sf_dir), out, n_clusters=8)
        return ann.ivf_search(out, _query_vec(sf_dir), k=10,
                              nprobe=None).to_pandas()

    def _ann_multi_query(sf_dir, vec_ids=(1, 2, 3)):
        import numpy as np

        qm = np.stack([np.asarray(_query_vec(sf_dir, vec_id=v))
                       for v in vec_ids])
        df = ann.cosine_topk_batch(_emb(sf_dir), qm, k=10).to_pandas()
        df["qid"] = df["qid"].astype("int64")
        df["vec_id"] = df["vec_id"].astype("int64")
        return df

    def _query_vec(sf_dir, vec_id=1):
        import pyarrow.parquet as pq

        # row-filtered, column-pruned read: only the query row leaves
        # storage (row-group predicate pushdown)
        t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"],
                          filters=[("vec_id", "==", vec_id)])
        return t["embedding"].to_pylist()[0]

    def _query_text(sf_dir, doc_id=0):
        import pyarrow.parquet as pq

        t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "text"])
        df = t.to_pandas()
        return df.loc[df.doc_id == doc_id, "text"].iloc[0]

    def q_code_sha256(sf_dir):
        import pyarrow as pa
        import hashlib

        from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

        ds = read_parquet_with_doc_ids(_code_corpus(sf_dir), columns=["content"])

        def fn(t: "pa.Table") -> "pa.Table":
            hashes = [hashlib.sha256(s.encode()).hexdigest()
                      for s in t["content"].to_pylist()]
            return pa.table({"doc_id": t["doc_id"], "sha256": pa.array(hashes)})

        df = ds.map_batches(fn, batch_format="pyarrow").to_pandas()
        df["doc_id"] = df["doc_id"].astype("int64")
        return df

    def q_code_term_df(sf_dir):
        t = _code_engine(sf_dir).index.dictionary_rows()
        df = t.select(["term", "field", "df"]).to_pandas()
        # split hot terms store partial (disjoint) doc lists in several
        # partitions — sum to the true df per (term, field)
        df = df.groupby(["term", "field"], as_index=False)["df"].sum()
        df["df"] = df["df"].astype("int64")
        df["field"] = df["field"].astype("int8")
        df = df.sort_values(["df", "term", "field"],
                            ascending=[False, True, True]).head(100)
        return df[["term", "field", "df"]].reset_index(drop=True)

    def q_code_stats(sf_dir):
        eng = _code_engine(sf_dir)
        st = eng.index.manifest.stats
        return pd.DataFrame({
            "n_docs": pd.array([st["n_docs"]], dtype="int64"),
            "total_dl": pd.array([st["total_dl"]], dtype="int64"),
            "avgdl": [round(st["avgdl"], 6)],
        })

    def _code_result(sf_dir, query, **kw):
        eng = _code_engine(sf_dir)
        r = eng.search(query, limit=20, normalize=False, **kw).to_pandas()
        r["doc_id"] = r["doc_id"].astype("int64")
        r["score"] = r["score"].abs().round(5)
        return r[["doc_id", "score"]]

    def q_code_bm25(sf_dir):
        return _code_result(sf_dir, "parse buffer", mode="or")

    def q_code_regex_scan(sf_dir):
        from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

        ds = read_parquet_with_doc_ids(_code_corpus(sf_dir), columns=["content"])
        return textstats.regex_scan(ds, r"[a-z]+_free\(", text_col="content", k=100)


    def _ann_ivfpq(sf_dir):
        import os as _os
        import shutil

        from yetisearch_ray.pipelines import ann as _ann

        out = f"/tmp/ys_ivfpq/{_os.path.basename(sf_dir)}"
        if not _os.path.exists(_os.path.join(out, "ivfpq.json")):
            shutil.rmtree(out, ignore_errors=True)
            _ann.ivfpq_build(_emb(sf_dir), out, n_clusters=16, m=16,
                             n_codes=64)
        return _ann.ivfpq_search(out, _query_vec(sf_dir), k=10,
                                 nprobe=None).to_pandas()

    def _mm_ppm_stats(sf_dir):
        import ray.data as rd

        from yetisearch_ray.pipelines.multimodal import (decode_ppm_features,
                                                         resize_ppm,
                                                         to_ppm_payloads)

        ids = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id"]).limit(64)
        imgs = to_ppm_payloads(ids, width=32, height=24)
        # chain real stages: synth -> nearest-neighbor resize -> decode
        df = decode_ppm_features(resize_ppm(imgs, target_w=8, target_h=8))\
            .to_pandas()
        out = df[["doc_id", "width", "height", "mean_r", "mean_g", "mean_b",
                  "brightness"]]
        return out.sort_values("doc_id").reset_index(drop=True)

    def _mm_qoi_stats(sf_dir):
        import ray.data as rd

        from yetisearch_ray.pipelines.multimodal import (decode_qoi_features,
                                                         to_qoi_payloads)

        ids = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id"]).limit(64)
        df = decode_qoi_features(to_qoi_payloads(ids)).to_pandas()
        return df.sort_values("doc_id").reset_index(drop=True)

    def _mm_jpeg_stats(sf_dir):
        import ray.data as rd

        from yetisearch_ray.pipelines.jpeg import (decode_jpeg_features,
                                                   to_jpeg_payloads)

        ids = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id"]).limit(64)
        df = decode_jpeg_features(to_jpeg_payloads(ids)).to_pandas()
        return df.sort_values("doc_id").reset_index(drop=True)

    def _mm_wav_stats(sf_dir):
        import numpy as np
        import ray.data as rd

        from yetisearch_ray.pipelines.multimodal import (decode_wav_features,
                                                         to_wav_payloads)

        ids = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id"]).limit(64)
        wavs = to_wav_payloads(ids, seconds=0.1, rate=8000)
        df = decode_wav_features(wavs, n_windows=4).to_pandas()
        df["rms_mean"] = df.rms_windows.map(lambda a: float(np.round(np.mean(a), 6)))
        out = df[["doc_id", "sample_rate", "n_channels", "duration_sec", "rms_mean"]]
        return out.sort_values("doc_id").reset_index(drop=True)

    return {
        # --- relational / facet shapes (cheapest entries first so a
        #     driver-side tail timeout can't drop their rows — the r2
        #     correctness run lost `rel_multi_union`, then last) ---
        "rel_multi_union": relational.multi_index_union,
        "rel_pricing_summary": relational.pricing_summary,
        "rel_top_customers": relational.top_customers,
        "rel_facet_counts": lambda sf: relational.facet_counts(sf),
        # exact per-group percentile_disc (ES percentiles sub-agg shape)
        "rel_group_percentiles": lambda sf: relational.group_percentiles(sf),
        "rel_filter_matrix": relational.filter_matrix,
        "rel_order_revenue": lambda sf: relational.order_revenue_topk(sf, k=10),
        # per-group top-k via map-side combiner (no global sort)
        "rel_group_topk": lambda sf: relational.grouped_topk(sf, k=5),
        "rel_shipping_priority": lambda sf: relational.shipping_priority_topk(
            sf, k=10),
        "rel_star_join": lambda sf: relational.brand_nation_revenue(sf, k=20),
        # distributed anti-join (NOT EXISTS shape), native left_anti
        "rel_anti_join": lambda sf: relational.customers_without_orders(
            sf, k=20),
        # distributed selection: exact percentile_disc without a global sort
        "agg_quantiles": q_quantiles,
        # exact distributed COUNT(DISTINCT) + its HLL sketch counterpart
        "agg_distinct_parts": q_distinct_parts,
        "agg_hll_distinct": q_hll_distinct,       # bound-oracled (r4)
        # per-group HLL sketches (elementwise-max merge), bound-oracled
        "agg_group_hll": lambda sf: sketches.group_hll_distinct(
            _lineitem(sf, ["l_returnflag", "l_partkey"]),
            "l_returnflag", "l_partkey", p=12),
        # exact top-100 tokens via two-pass Misra-Gries (bounded shuffle)
        "agg_heavy_hitters": q_heavy_hitters,
        # CCNet-style bigram-LM self-scoring (wordcount shuffle + 2 joins)
        "text_bigram_lm": lambda sf: textstats.bigram_lm_scores(_docs(sf)),
        # distributed TF-IDF top-terms (df shuffle + term join + topk combiner)
        "text_tfidf_topk": lambda sf: textstats.tfidf_topk(_docs(sf), k=5),
        # per-term burstiness (Fano factor) over the top-df head
        "text_burstiness": lambda sf: textstats.term_burstiness(
            _docs(sf), k=50),
        # Heaps-law vocab growth at token budgets (prefix-sum positions)
        "text_heaps_curve": lambda sf: textstats.heaps_curve(_docs(sf)),
        # per-source tokenizer report (fertility, distinct terms, TTR)
        "text_source_stats": lambda sf: textstats.source_token_stats(
            _docs(sf)),
        # CCNet head/middle/tail perplexity bucketing (bigram LM +
        # distributed exact percentile_disc tertiles)
        "text_ccnet_buckets": lambda sf: textstats.ccnet_ppl_buckets(
            _docs(sf)),
        # char/word unigram Shannon entropy (gibberish/template signals)
        "text_entropy": lambda sf: textstats.entropy_stats(
            _docs(sf)).to_pandas(),
        # DSIR importance log-weights vs the src0 target slice
        # (Xie et al. 2023; hashed-bigram bucket models, broadcast scan)
        "text_dsir_logw": lambda sf: textstats.dsir_logweights(
            _docs(sf), target_source="src0").to_pandas(),
        # CCNet/fastText-style quality classifier: distributed
        # parameter-averaged logreg distills the oracled quality rule,
        # then scores every doc; emits the (counts, bar, meets_bar)
        # summary row so the sweep can bound-oracle it (round-5; pytest
        # bars in tests/test_classifier.py still pin accuracy + rule
        # recovery on the full table)
        "text_quality_distill": q_quality_distill,
        # terminal training-sequence export (tokenize -> hash-vocab ids
        # -> EOD -> global fixed-length chunking via range prefix sums)
        "cur_train_sequences": lambda sf: curation.export_training_sequences(
            _docs(sf), seq_len=128).to_pandas(),
        # C4 line-cleaning rules (Raffel et al. 2020 §2.2) over the
        # deterministically line-seeded corpus (same idiom as cur_pii_*)
        "cur_c4_clean": lambda sf: curation.c4_line_clean(
            curation.seed_lines_column(_docs(sf))).to_pandas(),
        # Gopher quality-rule matrix (Rae et al. 2021 App. A1.1);
        # min_required=1 because the synthetic corpus holds only one of
        # the paper's eight required words
        "cur_gopher_rules": lambda sf: curation.gopher_rules(
            _docs(sf), min_required=1).to_pandas(),
        # composed v2 curation DAG: Gopher gate -> CCNet tail drop ->
        # best-survivor near-dup -> rebalance -> sequence export
        # (SQL-oracled end-to-end as of round 4: curate_corpus_v2_sql
        # re-roots every stage oracle on the previous stage's CTE)
        "cur_pipeline_v2": lambda sf: curation.curate_corpus_v2(
            _docs(sf), targets={"src0": 0.5, "src1": 0.5}, seq_len=256
        ).to_pandas(),
        # near-dup cluster-size distribution (dedup health report)
        "dedup_cluster_sizes": lambda sf: dedup.cluster_size_histogram(
            _docs(sf), threshold=0.5),
        # quality-argmax survivor per near-dup cluster (keep-best policy)
        "dedup_best_survivors": lambda sf: dedup.best_survivors(
            _docs(sf), threshold=0.5),
        # deterministic per-group uniform k-sample (reservoir shape)
        "cur_group_sample_k": lambda sf: curation.group_sample_k(
            _docs(sf), k=5),
        # domain-mix rebalance to target proportions (Pile/DoReMi shape)
        "cur_rebalance_mix": lambda sf: curation.rebalance_mix(
            _docs(sf), targets={"src0": 0.5, "src1": 0.3, "src2": 0.2}
        ).to_pandas(),
        # --- full-text search over documents (reference query classes) ---
        "fts_term_topk": lambda sf: ftsd.term_topk(sf),
        "fts_and_topk": lambda sf: ftsd.and_topk(sf),
        "fts_or_topk": lambda sf: ftsd.or_topk(sf),
        # ES minimum_should_match: >=2 of 3 OR terms must match
        "fts_min_match_topk": lambda sf: ftsd.min_match_topk(sf),
        # Lucene term^N query-time boost on an OR query
        "fts_boost_topk": lambda sf: ftsd.boost_topk(sf),
        # ES dis_max: best arm + 0.3 * the rest
        "fts_dismax_topk": lambda sf: ftsd.dismax_topk(sf),
        # static-rank doc boost: score += 0.5*ln(1+n_chars)
        "fts_rank_boost_topk": lambda sf: ftsd.rank_boost_topk(sf),
        # ES top-hits-per-group: top-3 docs per lang, top-3 groups
        "fts_group_topk": lambda sf: ftsd.group_topk(sf),
        "fts_phrase_topk": lambda sf: ftsd.phrase_topk(sf),
        "fts_weighted_topk": lambda sf: ftsd.weighted_topk(sf),
        "fts_filtered_topk": lambda sf: ftsd.filtered_topk(sf),
        "fts_smart_topk": lambda sf: ftsd.smart_topk(sf),
        "fts_match_count": lambda sf: ftsd.match_count(sf),
        "fts_actor_pool": lambda sf: ftsd.actor_pool_search(sf),
        "fts_sharded_topk": lambda sf: ftsd.sharded_topk(sf),
        "fts_doc_sharded_topk": lambda sf: ftsd.doc_sharded_topk(sf),
        "fts_facet_lang": lambda sf: ftsd.facet_lang(sf),
        "fts_suggest": lambda sf: ftsd.suggest(sf),                # rows-only
        # dictionary prefix autocomplete (reference prefix-query surface)
        "fts_autocomplete": lambda sf: ftsd.autocomplete_topk(sf),
        # more-like-this: top tf*idf terms of a doc -> BM25 OR, self excluded
        "fts_more_like_this": lambda sf: ftsd.more_like_this_topk(sf),
        # boolean NOT (FTS5 `a NOT b` shape via exclude_terms)
        "fts_not_topk": lambda sf: ftsd.not_topk(sf),
        # wildcard term query (*ow -> row/slow/window), dictionary-expanded
        "fts_wildcard_topk": lambda sf: ftsd.wildcard_topk(sf),
        # match_phrase_prefix: phrase with the trailing token as prefix
        "fts_phrase_prefix": lambda sf: ftsd.phrase_prefix_topk(sf),
        # match_bool_prefix: OR terms + one union-expansion prefix arm
        "fts_bool_prefix": lambda sf: ftsd.bool_prefix_topk(sf),
        # LM-Dirichlet query likelihood (second similarity beside BM25)
        "fts_lm_dirichlet": lambda sf: ftsd.lm_dirichlet_topk(sf),
        # numeric histogram facet (range facet over n_chars)
        "fts_facet_nchars": lambda sf: ftsd.facet_nchars(sf),
        # ordered proximity ("hash value"~2, Lucene sloppy-phrase shape)
        "fts_slop_phrase": lambda sf: ftsd.slop_phrase_topk(sf),
        # field collapsing: best-doc-per-lang, composite = sum of members
        "fts_collapse_topk": lambda sf: ftsd.collapse_topk(sf),
        # keyset (cursor) pagination == OFFSET under the unique sort key
        "fts_search_after": lambda sf: ftsd.search_after_page2(sf),
        # percolation (reverse search): registered queries vs the doc stream
        "fts_percolate": lambda sf: percolate.percolate(sf, _PERC_QUERIES),
        # significant terms: over-represented terms in the match set vs
        # the corpus (ES significant_terms; candidate-filtered bg pass)
        "fts_significant_terms": lambda sf: ftsd.significant_terms(sf),
        # per-doc term statistics (ES _termvectors shape)
        "fts_term_vectors": lambda sf: ftsd.term_vectors(sf),
        # per-term BM25 breakdown for one (doc, query) (ES _explain)
        "fts_explain_score": lambda sf: ftsd.explain_score(sf),
        # offline search-quality eval (ES _rank_eval shape): P@k /
        # recall@k / MRR / nDCG@k per query vs the AND-set judgments
        "fts_rank_eval": lambda sf: ftsd.rank_eval(sf),
        # highlighted snippets over the BM25 page (single-term so the
        # snippet algorithm is SQL-replicable exactly)
        "fts_highlight": lambda sf: ftsd.highlight_topk(sf),
        "fts_fuzzy_topk": lambda sf: ftsd.fuzzy_topk(sf),          # rows-only
        "fts_two_pass": lambda sf: ftsd.two_pass_topk(sf),
        "fts_index_stats": lambda sf: ftsd.index_stats_by_lang(sf),
        "text_chunk_stats": lambda sf: ftsd.chunk_stats(sf),
        # --- code corpus (north-rule input table) ---
        "code_sha256": q_code_sha256,
        "code_term_df_top100": q_code_term_df,
        "code_corpus_stats": q_code_stats,
        "code_bm25_topk": q_code_bm25,
        # distributed grep: RE2 match counts, per-block top-k prune
        "code_regex_scan": q_code_regex_scan,
        # field-restricted match (ES field:term shape) on the content field
        "code_infield_topk": lambda sf: _code_result(
            sf, "file", mode="or", in_fields=["content"]),
        "code_and_topk": lambda sf: _code_result(sf, "retry backoff", mode="and"),
        "code_phrase_topk": lambda sf: _code_result(sf, '"exponential backoff"'),
        "code_weighted_topk": lambda sf: _code_result(
            sf, "module", field_weights={"path": 5.0, "content": 1.0}),
        "code_filtered_topk": lambda sf: _code_result(sf, "buffer", language="rust"),
        # --- dedup ---
        "dedup_exact": lambda sf: dedup.exact_dedup(_docs(sf)).to_pandas(),
        "dedup_exact_rows": lambda sf: dedup.exact_dedup_rows(
            _docs(sf)).to_pandas(),
        "dedup_jaccard_topk": lambda sf: dedup.ngram_jaccard_vs_query(
            _docs(sf), _query_text(sf), k=10).to_pandas(),
        "dedup_decontaminate": lambda sf: dedup.ngram_decontaminate(
            _docs(sf), [_query_text(sf, 0), _query_text(sf, 1)]).to_pandas(),
        "dedup_minhash_pairs": lambda sf: _minhash_pairs_ds(sf).to_pandas(),
        "dedup_minhash_clusters": lambda sf: dedup.connected_components(
            _minhash_pairs_ds(sf)).to_pandas(),
        "dedup_simhash_pairs": lambda sf: dedup.simhash_near_pairs(
            _docs(sf)).to_pandas(),
        # corpus-wide exact paragraph dedup (first occurrence wins,
        # short paragraphs exempt, docs rebuilt in order)
        "dedup_paragraphs": lambda sf: dedup.dedup_paragraphs(
            _docs(sf)).to_pandas(),
        # incremental exact dedup: second half of the corpus appended
        # against the first half (append-time generational gate)
        "dedup_incremental": _dedup_incremental,
        # same answer via the broadcast-Bloom two-phase prune (the
        # huge-base path); oracle identical by construction
        "dedup_incremental_bloom": lambda sf: _dedup_incremental(
            sf, bloom=True),
        # substring-level dedup signal (Lee et al. 2022, char-50-gram
        # rolling hashes; hash-join back, no broadcast)
        "dedup_substring_stats": lambda sf: dedup.substring_dup_stats(
            _docs(sf)).to_pandas(),
        # line-level boilerplate scrub over the CODE corpus (real newlines)
        "dedup_line_dedup": lambda sf: dedup.line_dedup(
            __import__("yetisearch_ray.sources.parquet_source",
                       fromlist=["read_parquet_with_doc_ids"])
            .read_parquet_with_doc_ids(_code_corpus(sf), columns=["content"]),
            text_col="content", min_docs=2).to_pandas(),
        # --- fuzzy conformance (reference benchmarks/benchmark.php:211-327;
        #     rows-only: per-case found flags over the deterministic movie
        #     corpus; pass bars asserted in tests/test_fuzzy_bench.py) ---
        "fts_fuzzy_bench": lambda sf: __import__(
            "yetisearch_ray.pipelines.fuzzy_bench",
            fromlist=["run_fuzzy_benchmark"]).run_fuzzy_benchmark().to_pandas(),
        # --- text analysis ---
        "text_token_counts": lambda sf: textstats.token_counts(_docs(sf)).to_pandas(),
        "text_quality": lambda sf: textstats.quality_scores(_docs(sf)).to_pandas(),
        "text_lang_id": lambda sf: textstats.language_id(_docs(sf)).to_pandas(),
        "text_fingerprints": lambda sf: textstats.fingerprints(_docs(sf)).to_pandas(),
        "text_repetition": lambda sf: textstats.repetition_stats(
            _docs(sf)).to_pandas().sort_values("doc_id").reset_index(drop=True),
        "cur_source_quota": lambda sf: curation.quota_per_group(
            _docs(sf), group_col="source", n=5).to_pandas(),
        # PII entries run over a deterministically seeded corpus (the
        # synthetic text is digit-free) — the oracle seeds identically
        "cur_pii_scan": lambda sf: curation.pii_scan(
            curation.seed_pii_column(_docs(sf))).to_pandas(),
        "cur_pii_redact": lambda sf: curation.pii_redact(
            curation.seed_pii_column(_docs(sf))).to_pandas(),
        "cur_hash_split": lambda sf: curation.hash_split(_docs(sf)).to_pandas(),
        "cur_stratified_sample": lambda sf: curation.stratified_sample(
            _docs(sf), rates={"src0": 1.0, "src1": 0.5, "src2": 0.1},
            default_rate=0.25).to_pandas(),
        # composed flagship: lang filter -> quality gate -> exact dedup
        # -> near-dup cluster survivors, all in one streaming pipeline
        "cur_full_pipeline": lambda sf: curation.curate_corpus(
            _docs(sf), lang="en", min_quality=0.3,
            minhash_threshold=0.5).to_pandas(),
        # real stdlib-wave audio decode over synthesized payloads
        # (rows-only: binary codec path; analytic RMS pinned in pytest)
        "mm_wav_stats": _mm_wav_stats,
        # real numpy PPM image resize+decode (rows-only: binary codec
        # path; analytic channel-mean goldens pinned in pytest)
        "mm_ppm_stats": _mm_ppm_stats,
        # REAL compressed-image codec leg (QOI, qoiformat.org): synth ->
        # qoi_encode -> actor-pool decode -> channel stats (rows-only:
        # codec pinned by lossless round-trip + PPM-leg-equality pytest)
        "mm_qoi_stats": _mm_qoi_stats,
        # REAL baseline-JPEG codec leg (pure-numpy ITU T.81 subset):
        # synth -> jpeg_encode -> actor-pool decode -> channel stats
        # (rows-only: lossy codec pinned by decode-of-fixture md5
        # goldens + constant-color exactness in tests/test_jpeg.py)
        "mm_jpeg_stats": _mm_jpeg_stats,
        "cur_pack_bins": lambda sf: curation.pack_token_bins(
            textstats.token_counts(_docs(sf)), budget=2048).to_pandas(),
        # adjacent-bigram PMI collocations (corpus analytics)
        "text_collocations": lambda sf: textstats.collocations(
            _docs(sf), k=20, min_count=5),
        # corpus vocabulary diagnostics (tokens/terms/hapax/TTR)
        "text_vocab_stats": lambda sf: textstats.vocab_stats(_docs(sf)),
        # Zipf-law slope/intercept over the term-frequency head
        "text_zipf": lambda sf: textstats.zipf_fit(_docs(sf), top_n=1000),
        # all-pairs sparse TF-IDF similarity join (batch more-like-this);
        # bounded slice: pair volume is quadratic in per-term df and this
        # synthetic corpus has df ~ 0.76*N for every term (no Zipf tail
        # to cap with maxdf), so the driver entry runs the first 200 docs
        "text_doc_similarity": lambda sf: textstats.doc_similarity_topk(
            _docs(sf).filter(expr="doc_id < 200"), k=3),
        "text_keywords": lambda sf: textstats.extract_keywords(
            _docs(sf)).to_pandas(),                               # rows-only
        # --- similarity search ---
        "ann_cosine_topk": lambda sf: ann.cosine_topk(
            _emb(sf), _query_vec(sf), k=10).to_pandas(),
        "ann_ivf_topk": lambda sf: ann.ivf_topk(
            _emb(sf), _query_vec(sf), k=10, n_clusters=8, nprobe=None).to_pandas(),
        "ann_lsh_topk": lambda sf: ann.lsh_bucket_topk(
            _emb(sf), _query_vec(sf), k=10).to_pandas(),
        "ann_ivf_partitioned": lambda sf: _ivf_partitioned(sf),
        # PQ/ADC top-k (rows-only: quantization is approximate by design;
        # recall-vs-exact bar pinned in tests/test_pipelines.py)
        "ann_pq_topk": lambda sf: ann.pq_topk(
            _emb(sf), _query_vec(sf), k=10, m=16, n_codes=64).to_pandas(),
        # IVF-PQ store: residual codes in centroid partitions, ADC scan
        # of probed partitions only (rows-only: approximate by design;
        # recall + pruning bars pinned in pytest)
        "ann_ivfpq_topk": _ann_ivfpq,
        "ann_multi_query": lambda sf: _ann_multi_query(sf),
        # fixed-radius similarity search (FAISS range_search shape)
        "ann_range_search": lambda sf: ann.range_search(
            _emb(sf), _query_vec(sf), threshold=0.2).to_pandas(),
        # hybrid retrieval: BM25-OR arm + dense cosine arm, RRF-fused
        "hybrid_rrf_topk": lambda sf: hybrid.hybrid_rrf_topk(sf),
        # retrieve-then-rerank: BM25 candidates, dense cosine re-score
        "hybrid_rerank_topk": lambda sf: hybrid.rerank_dense_topk(sf),
        # MMR diversity rerank of the BM25 page (greedy, embeddings)
        "hybrid_mmr_topk": lambda sf: hybrid.mmr_rerank_topk(sf),
        # distributed Lloyd k-means over the embedding column (rows-only:
        # cluster contents are data-dependent; blob-recovery, NumPy-
        # reference inertia parity and empty-cluster determinism pinned
        # in tests/test_kmeans.py)
        "emb_kmeans_sizes": lambda sf: cluster.kmeans_cluster_sizes(
            _emb(sf), 8, iters=5).to_pandas(),
        # distributed PCA (rows-only: eigendecomposition isn't SQL;
        # 1e-7 component parity vs full-matrix NumPy pinned in
        # tests/test_kmeans.py)
        "emb_pca_coords": lambda sf: cluster.pca_coords(sf).to_pandas(),
        # SemDeDup: cluster-then-compare near-dup pairs (rows-only:
        # recall depends on the k-means partition; 100%-recall-vs-exact
        # on planted blobs + no-dup identity pinned in tests/test_kmeans.py)
        "emb_semdedup_pairs": lambda sf: _ensure_cols(
            cluster.semantic_near_dup_pairs(
                _emb(sf), threshold=0.45, n_clusters=8, iters=5).to_pandas(),
            {"id_a": "int64", "id_b": "int64", "cosine": "float64"}),
        "emb_near_dup_pairs": lambda sf: _ensure_cols(
            ann.embedding_near_dup_pairs(_emb(sf), threshold=0.45).to_pandas(),
            {"id_a": "int64", "id_b": "int64", "cosine": "float64"}),
        # greedy farthest-point k-center selection (diversity sampling);
        # SQL-oracled via the selection loop unrolled into k CTE stages
        "emb_kcenter_sample": lambda sf: cluster.kcenter_sample(_emb(sf), 8),
        # --- stream-shaped operators over the events log ---
        "ev_tumbling_window": events.tumbling_window,
        "ev_sliding_window": events.sliding_window,
        # trending items: top-3 event types per tumbling hour window
        "ev_windowed_topk": events.windowed_topk,
        "ev_session_windows": events.session_windows,
        "ev_asof_join": events.asof_join_orders,
        # strict sequential funnel: view -> click -> purchase
        "ev_funnel": events.funnel_counts,
        # exact COUNT(DISTINCT user) per event type (grouped cardinality)
        "ev_distinct_users": events.distinct_users_per_type,
        # TPC-H Q12-shape conditional aggregate over a big-big join
        "rel_priority_lines": lambda sf: relational.priority_line_counts(sf),
        # weekly cohort retention triangle (growth analytics)
        "ev_retention_cohorts": events.retention_cohorts,
        # per-type daily counts + trailing 7-day moving average
        "ev_daily_moving_avg": events.daily_moving_avg,
        # market-basket co-occurrence of event-type pairs per user
        "ev_type_cooccurrence": events.type_cooccurrence,
        # TPC-H Q4-shape EXISTS semi-join (orders with a late lineitem)
        "rel_late_shipments": lambda sf: relational.late_shipment_priority(sf),
        # stream-stream interval self-join (same-user pairs in-window)
        "ev_window_join": events.window_self_join,
        # GROUPING SETS / ROLLUP hierarchical aggregate
        "rel_rollup": relational.pricing_rollup,
        # blocked fuzzy self-join (record linkage / entity resolution)
        "rel_fuzzy_join": lambda sf: relational.fuzzy_name_join(sf),
        # per-group numeric dispersion profile (Welford partials)
        "rel_group_stats": relational.group_dispersion,
        # windowed exact COUNT(DISTINCT user) per tumbling window
        "ev_window_distinct": events.window_distinct_users,
        # per-user inter-arrival gap stats (SQL lag() shape)
        "ev_gap_stats": events.user_gap_stats,
        # event-type transition counts (SQL lead() / Markov shape)
        "ev_transitions": events.transition_matrix,
        # running (cumulative) totals per type (unbounded-preceding)
        "ev_running_total": events.daily_running_total,
        # global percent_rank via value-histogram prefix sums
        "rel_percent_rank": lambda sf: relational.percent_rank_nchars(sf),
        # semi-structured ETL: JSON props -> per-type numeric stats
        "ev_json_extract": events.props_stats_per_type,
        # LEFT OUTER join + COALESCE (zero-order customers included)
        "rel_left_join": lambda sf: relational.customer_order_counts(sf),
        # composite aggregates from one-pass moment partials
        "rel_group_corr": lambda sf: relational.group_price_qty_corr(sf),
        # daily-volume z-score anomaly flags (alerting shape)
        "ev_zscore_anomaly": events.zscore_anomalies,
        # hour-of-day seasonality profile (diurnal pattern)
        "ev_hourly_profile": events.hourly_profile,
        # truncated exponential moving average (exponential smoothing)
        "ev_daily_ema": events.daily_ema,
        # per-doc n-gram novelty (first-occurrence attribution)
        "text_ngram_novelty": lambda sf: textstats.ngram_novelty(_docs(sf)),
        # decorrelated correlated subquery (above class average)
        "rel_above_avg": relational.above_class_average,
        # higher-moment composite aggregates (two-pass central moments)
        "rel_skew_kurt": relational.group_skew_kurt,
        # ES function_score gauss decay on a stored numeric column
        "fts_decay_topk": lambda sf: ftsd.decay_topk(sf),
        # ES adjacency_matrix: filter + pairwise-intersection counts
        "fts_adjacency_matrix": lambda sf: ftsd.adjacency_matrix(sf),
        # ES composite aggregation with after-key paging
        "agg_composite_page": lambda sf: relational.composite_page(sf),
        # TPC-H Q16 shape: distinct suppliers per brand (join + dedup)
        "rel_brand_suppliers": lambda sf: relational.brand_supplier_counts(sf),
        # ES rare_terms: long-tail dictionary scan (df <= 2)
        "fts_rare_terms": lambda sf: ftsd.rare_terms(sf),
        # filtered vector search (metadata predicate + cosine top-k)
        "ann_filtered_topk": lambda sf: ann.cosine_topk(
            _emb(sf).filter(expr="label == 2"), _query_vec(sf),
            k=10).to_pandas(),
        # per-label centroid-distance outliers (embedding screening)
        "emb_outliers": lambda sf: ann.centroid_outliers(_emb(sf)),
        # global sessionization summary (scalar rollup)
        "ev_session_stats": events.session_stats,
        # lang-id evaluation: labeled-vs-predicted confusion matrix
        "text_langid_confusion":
            lambda sf: textstats.langid_confusion(_docs(sf)),
        # embedding-space class separation (pairwise centroid cosine)
        "emb_label_separation": lambda sf: ann.label_separation(_emb(sf)),
        # generation-pinned snapshot search (time travel at gen 0)
        "fts_time_travel": lambda sf: ftsd.time_travel_topk(sf),
        # tokenizer fertility per language (subwords per word)
        "text_fertility": lambda sf: textstats.fertility_by_lang(_docs(sf)),
        # ES percentile_ranks: exact inverse percentiles in one pass
        "rel_percentile_ranks": relational.percentile_ranks,
        # query-time synonym expansion (== OR over the expanded set)
        "fts_synonym_topk": lambda sf: ftsd.synonym_topk(sf),
        # growth accounting: first-seen users per day + cumulative
        "ev_new_users": events.new_users_daily,
        # RANGE-frame window (value-range neighborhood counts)
        "rel_range_frame": relational.price_neighborhood_counts,
        # ES histogram aggregation (fixed-width numeric buckets)
        "ev_value_histogram": events.value_histogram,
        # full CUBE grouping sets from one finest-level pass
        "rel_cube": relational.pricing_cube,
        # exact-percentile quality gate (keep the top 30% docs)
        "cur_quality_prune": lambda sf: curation.quality_prune(_docs(sf)),
        # runtime-filter join (broadcast Bloom prune + exact semi-join)
        "rel_bloom_join": relational.bloom_filtered_revenue,
        # argmax / DISTINCT ON: each user's latest event row
        "ev_latest_event": events.latest_event_per_user,
        # source-corpus profile: per-language file stats
        "code_lang_stats": relational.code_lang_stats,
        # hot-repo skew report (top repos by file count)
        "code_repo_topk": relational.code_repo_topk,
        # repo-layout report: per-module files + language spread
        "code_dir_stats": relational.code_dir_stats,
        # forward as-of join (earliest order at-or-after each event)
        "ev_asof_next": lambda sf: events.asof_join_orders(
            sf, direction="forward"),
        # one-row corpus datasheet (release-report scalars)
        "cur_datasheet": lambda sf: curation.datasheet(_docs(sf)),
        # k-NN self-join (neighbor-graph construction)
        "ann_knn_join": lambda sf: ann.knn_join(_emb(sf), k=3),
        # lexical diversity (type-token ratio) per source bucket
        "text_ttr_by_source": lambda sf: textstats.ttr_by_source(_docs(sf)),
        # day-over-day percent change (lag arithmetic window)
        "ev_pct_change": events.daily_pct_change,
        # int8 scalar-quantization error report (two aggregate passes)
        "emb_sq8_error": lambda sf: ann.sq8_error(_emb(sf)),
        # hot-key-salted join, answer-identical to the plain join
        "rel_salted_join": relational.salted_join_revenue,
        # character-class profile per language (encoding screening)
        "text_charclass": lambda sf: textstats.charclass_by_lang(_docs(sf)),
        # weekly funnel conversion-rate time series
        "ev_weekly_conversion": events.weekly_conversion,
        # TPC-H Q10 shape: three-table join, returned-item revenue
        "rel_returned_revenue": relational.returned_item_revenue,
        # DAU/MAU stickiness per month
        "ev_stickiness": events.stickiness,
        # TPC-H Q6 shape: one-pass filtered-band aggregate
        "rel_q6_revenue": relational.q6_band_revenue,
        # embedding L2-norm health report per label
        "emb_norm_stats": lambda sf: ann.norm_stats(_emb(sf)),
        # cross-source vocabulary overlap (redundancy map)
        "text_source_overlap":
            lambda sf: textstats.source_vocab_overlap(_docs(sf)),
        # ES multi_match best_fields (per-field dis_max)
        "fts_best_fields": lambda sf: ftsd.best_fields_topk(sf),
        # robust dispersion: per-group median + MAD
        "rel_group_mad": relational.group_mad,
        # deterministic readability proxy (FK-style grade)
        "text_readability": lambda sf: textstats.readability(_docs(sf)),
        # per-day bounce rate (single-event session fraction)
        "ev_bounce_rate": events.bounce_rate,
        # exact-duplicate rate per source (feed health)
        "cur_dup_by_source":
            lambda sf: curation.dup_rate_by_source(_docs(sf)),
        # ES _terms_enum: prefix-ranged dictionary enumeration
        "fts_terms_enum": lambda sf: ftsd.terms_enum(sf),
        # power-user curve: per-user event-count histogram
        "ev_activity_histogram": events.user_activity_histogram,
        # time-to-conversion latency distribution
        "ev_time_to_convert": events.time_to_convert,
        # monthly composition trend (priority share)
        "rel_priority_share": relational.priority_share_trend,
        # revenue concentration: HHI + top-10 share
        "rel_customer_hhi": relational.customer_hhi,
        # unigram-distribution drift between two sources (JS divergence)
        "text_js_divergence":
            lambda sf: textstats.source_js_divergence(_docs(sf)),
        # engagement diversity: per-user event-type entropy
        "ev_user_entropy": events.user_type_entropy,
        # token-length histogram (tokenizer health)
        "text_wordlen_hist":
            lambda sf: textstats.wordlen_histogram(_docs(sf)),
        # TPC-H Q14 shape: promo revenue share (broadcast dim set)
        "rel_q14_promo": relational.q14_promo_share,
        # TPC-H Q17 shape: aggregate-then-rejoin correlated subquery
        "rel_q17_small_qty": relational.q17_small_quantity_revenue,
        # TPC-H Q18 shape: groupby-HAVING then rejoin top-k
        "rel_q18_large_orders": relational.q18_large_orders,
        # TPC-H Q11 shape: group share vs broadcast global total
        "rel_q11_value_share": relational.q11_value_share,
        # ES boosting query: negative-term demotion (pre-pagination)
        "fts_boosting_topk": lambda sf: ftsd.boosting_topk(sf),
        # chi-square independence: segment x priority contingency
        "rel_chi2_seg_priority": relational.segment_priority_chi2,
        # Gini coefficient of customer revenue (sort-free exact Lorenz)
        "rel_revenue_gini": relational.revenue_gini,
        # per-source stopword density (boilerplate detector)
        "text_stopword_density":
            lambda sf: textstats.stopword_density_by_source(_docs(sf)),
        # simplified silhouette per label (cluster quality)
        "emb_silhouette": lambda sf: ann.silhouette_by_label(_emb(sf)),
        # Lucene span_first: positional gate on the first occurrence
        "fts_span_first": lambda sf: ftsd.span_first_topk(sf),
        # ES constant_score: filter-context fixed-score match
        "fts_constant_score": lambda sf: ftsd.constant_score_topk(sf),
        # weekly churn-rate series (complement of W-o-W retention)
        "ev_weekly_churn": events.weekly_churn,
        # per-user NTILE(4) rolled up per tile
        "ev_user_quartiles": events.user_value_quartiles,
        # boilerplate-prefix duplicate clusters
        "dedup_prefix_clusters":
            lambda sf: dedup.prefix_dup_clusters(_docs(sf)),
        # FIRST/LAST_VALUE endpoints drift rollup
        "ev_first_last_drift": events.first_last_drift,
        # deterministic weighted sample (Efraimidis-Spirakis A-Res)
        "cur_weighted_sample":
            lambda sf: curation.weighted_sample(_docs(sf)),
        # Lorenz curve by customer decile (inequality profile)
        "rel_lorenz_deciles": relational.lorenz_deciles,
        # TPC-H Q21 shape: EXISTS/NOT-EXISTS supplier blame
        "rel_q21_blame": relational.q21_supplier_blame,
        # per-language comment density over the code corpus
        "code_comment_density": relational.code_comment_density,
        # per-language top called identifiers (API-usage fingerprint)
        "code_callsite_topk": relational.code_callsite_topk,
        # TPC-H Q5 shape: same-nation customer/supplier revenue
        "rel_q5_local_volume": relational.q5_local_volume,
        # TPC-H Q7 shape: cross-nation trade pairs per year
        "rel_q7_nation_trade": relational.q7_nation_trade,
        # TPC-H Q4 shape: EXISTS late-line probe per priority
        "rel_q4_order_priority": relational.q4_order_priority,
        # exact per-window value quantiles (windowed percentile_disc)
        "ev_windowed_quantiles": events.windowed_quantiles,
        # per-user time-weighted average (irregular-sampling aggregate)
        "ev_time_weighted_avg": events.time_weighted_avg,
        # streaming watermark / allowed-lateness accounting over a
        # deterministic out-of-order arrival (distributed prefix-max)
        "ev_watermark_late": lambda sf: events.watermark_late_counts(
            sf, lateness_sec=14 * 86400),
        # TPC-H Q2 shape: per-part argmin supplier (bucketed reduce)
        "rel_q2_min_cost": relational.q2_min_cost_supplier,
        # TPC-H Q13 shape: order-count distribution, zero bucket, no join
        "rel_q13_custdist": relational.q13_custdist,
        # TPC-H Q15 shape: max-over-aggregate top supplier of a quarter
        "rel_q15_top_supplier": relational.q15_top_supplier,
        # TPC-H Q22 shape: scalar-subquery + NOT EXISTS rich-inactive
        "rel_q22_sales_opportunity": relational.q22_sales_opportunity,
        # TPC-H Q9 shape: profit per supplier-nation and order year
        "rel_q9_profit": relational.q9_profit,
        # TPC-H Q8 shape: supplier-nation market share within a region
        "rel_q8_market_share": relational.q8_market_share,
        # TPC-H Q19 shape: disjunctive band predicates
        "rel_q19_disjunctive": relational.q19_disjunctive_revenue,
        # per-dimension embedding variance report
        "emb_dim_variance": lambda sf: ann.dim_variance_topk(_emb(sf)),
    }


def _ensure_cols(df: pd.DataFrame, schema: dict) -> pd.DataFrame:
    """Empty Dataset results can lose their schema through to_pandas();
    reconstruct the declared columns/dtypes."""
    if len(df) == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in schema.items()})
    return df


_CODE_ENGINES: dict[str, Any] = {}


def _code_engine(sf_dir: str):
    from yetisearch_ray.index.build import IndexConfig, build_index
    from yetisearch_ray.index.manifest import Manifest
    from yetisearch_ray.search.engine import SearchEngine, open_index
    from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

    corpus = _code_corpus(sf_dir)
    sf = os.path.basename(os.path.normpath(sf_dir))
    idx_dir = f"/tmp/ys_idx/code_{sf}"
    eng = _CODE_ENGINES.get(idx_dir)
    if eng is not None:
        return eng
    if not Manifest.is_ready(idx_dir):
        cfg = IndexConfig(
            fields=[("path", "path"), ("content", "content")],
            language_column="lang",
            store_columns=["repo", "path", "commit", "lang", "content"],
            num_partitions=8,
            content_hash_column="content",
        )
        build_index(read_parquet_with_doc_ids(corpus), idx_dir, cfg,
                    input_fingerprint=corpus)
    eng = SearchEngine(open_index(idx_dir))
    _CODE_ENGINES[idx_dir] = eng
    return eng


# ==========================================================================
# oracle SQL
# ==========================================================================


def oracle_sql() -> dict[str, str]:
    code = oracles.code_corpus_cte(_CODE_GLOB_001)
    from yetisearch_ray.pipelines.curation import PII_PATTERNS
    from yetisearch_ray.pipelines.textstats import LANG_MARKERS, _LANG_ORDER

    return {
        "fts_term_topk": oracles.bm25_topk_sql(["merge"], k=20),
        # sharded serving (term- and doc-axis) returns identical results
        # to the local reader, so both share the same independent oracle
        "fts_sharded_topk": oracles.bm25_topk_sql(["merge"], k=20),
        "fts_doc_sharded_topk": oracles.bm25_topk_sql(["merge"], k=20),
        # full smart expression incl. NEAR window-filtered arm (semantics
        # pinned against real FTS5 in tests/test_fts5_goldens.py)
        "fts_smart_topk": oracles.smart_topk_sql(["hash", "value"], k=20),
        "fts_two_pass": oracles.two_pass_sql(["merge", "window"],
                                             w0=5.0, w1=1.0, k=10),
        "fts_actor_pool": oracles.actor_pool_sql(
            ("merge", "vector", "window"), k=5),
        "fts_and_topk": oracles.bm25_topk_sql(["hash", "merge"], require_all=True, k=20),
        "fts_or_topk": oracles.bm25_topk_sql(["vector", "stream"], k=20),
        "fts_min_match_topk": oracles.bm25_topk_sql(
            ["vector", "stream", "merge"], min_match=2, k=20),
        "fts_boost_topk": oracles.bm25_topk_sql(
            ["vector", "stream"], boosts={"vector": 2.0}, k=20),
        "fts_dismax_topk": oracles.bm25_topk_sql(
            ["vector", "stream"], dismax=True, tie_breaker=0.3, k=20),
        "fts_rank_boost_topk": oracles.bm25_topk_sql(
            ["vector", "stream"],
            rank_boost=("documents", "n_chars", 0.5, "add"), k=20),
        "fts_group_topk": oracles.group_topk_sql(
            ["dup", "stream"], route="lang", n=3, k=3),
        "fts_phrase_topk": oracles.phrase_topk_sql(["hash", "value"], k=20),
        "fts_weighted_topk": oracles.bm25_topk_sql(["src3"], w0=5.0, w1=1.0, k=20),
        "fts_filtered_topk": oracles.bm25_topk_sql(["window"], lang="es", k=20),
        "fts_match_count": oracles.match_count_sql("merge"),
        "fts_facet_lang": oracles.facet_lang_sql("merge"),
        "fts_index_stats": oracles.INDEX_STATS_BY_LANG_SQL,
        # fuzzy search path: BM25 + penalty layer + ordering recomputed in
        # SQL; the staged correction decision (mrege→merge, windwo→window)
        # is a pinned literal, itself covered by the reference PHPUnit
        # replays + the 100%/98% fuzzy benchmark bars (see oracles.py)
        "fts_fuzzy_topk": oracles.fuzzy_correction_topk_sql(
            "mrege", "merge", k=10),
        "fts_suggest": oracles.suggest_sql(
            ["merge", "window"], suggestion="merge window",
            confidence=0.6938),
        "fts_autocomplete": oracles.autocomplete_sql("s", k=10),
        "fts_more_like_this": oracles.more_like_this_sql(doc_id=7, k=10, max_terms=5),
        "fts_not_topk": oracles.bm25_topk_sql(["merge"], k=20, exclude_term="window"),
        "fts_slop_phrase": oracles.slop_phrase_sql("hash", "value", slop=2, k=20),
        "fts_wildcard_topk": oracles.wildcard_topk_sql("*ow", k=20),
        "fts_phrase_prefix": oracles.phrase_prefix_topk_sql(["hash"], "va"),
        "fts_bool_prefix": oracles.bool_prefix_topk_sql(["src3"], "va"),
        "fts_lm_dirichlet": oracles.lm_dirichlet_topk_sql(
            ["src3", "window"]),
        "fts_facet_nchars": oracles.numeric_facet_sql(
            ["vector", "stream"], "n_chars", (0, 100, 200, 300, 400, 500)),
        "fts_collapse_topk": oracles.collapse_topk_sql(["vector", "stream"], k=5),
        "fts_search_after": oracles.bm25_topk_sql(["vector", "stream"], k=10, offset=10),
        "fts_percolate": oracles.percolate_sql(_PERC_QUERIES),
        "fts_significant_terms": oracles.significant_terms_sql(
            ["vector", "stream"], k=20, candidates=1000, min_fg=5),
        "fts_term_vectors": oracles.term_vectors_sql(doc_id=7),
        "fts_explain_score": oracles.explain_score_sql(
            ["src7", "value", "window"], doc_id=7),
        "fts_rank_eval": oracles.rank_eval_sql(ftsd.RANK_EVAL_QUERIES),
        "fts_highlight": oracles.highlight_topk_sql("merge", k=10),
        # code corpus (driver compares at sf0.01; glob pinned accordingly)
        "code_sha256": oracles.code_sha256_sql(_CODE_GLOB_001),
        "code_term_df_top100": oracles.term_df_sql(corpus=code, top=100),
        "code_corpus_stats": oracles.corpus_stats_sql(corpus=code),
        "code_bm25_topk": oracles.bm25_topk_sql(["parse", "buffer"], corpus=code, k=20),
        "code_regex_scan": oracles.regex_scan_sql(_CODE_GLOB_001, r"[a-z]+_free\(", k=100),
        "code_infield_topk": oracles.infield_topk_sql(["file"], fld=1, corpus=code, k=20),
        "code_and_topk": oracles.bm25_topk_sql(["retry", "backoff"], corpus=code,
                                               require_all=True, k=20),
        "code_phrase_topk": oracles.phrase_topk_sql(["exponential", "backoff"],
                                                    corpus=code, k=20),
        "code_weighted_topk": oracles.bm25_topk_sql(["module"], corpus=code,
                                                    w0=5.0, w1=1.0, k=20),
        "code_filtered_topk": oracles.bm25_topk_sql(["buffer"], corpus=code,
                                                    lang="rust", k=20),
        # dedup / textstats
        "dedup_exact": oracles.DEDUP_EXACT_SQL,
        "dedup_exact_rows": oracles.DEDUP_EXACT_ROWS_SQL,
        "dedup_jaccard_topk": oracles.jaccard_topk_sql(query_doc_id=0, k=10),
        "dedup_decontaminate": oracles.decontaminate_sql((0, 1)),
        "dedup_minhash_pairs": oracles.MINHASH_PAIRS_SQL,
        "dedup_minhash_clusters": oracles.MINHASH_CLUSTERS_SQL,
        "dedup_cluster_sizes": oracles.CLUSTER_SIZE_HIST_SQL,
        "dedup_line_dedup": oracles.line_dedup_sql(_CODE_GLOB_001, min_docs=2),
        "dedup_substring_stats": oracles.SUBSTRING_DUP_SQL,
        "dedup_simhash_pairs": oracles.simhash_pairs_sql(max_hamming=3),
        "dedup_paragraphs": oracles.dedup_paragraphs_sql(min_len=20),
        "dedup_incremental": oracles.DEDUP_INCREMENTAL_SQL,
        "dedup_incremental_bloom": oracles.DEDUP_INCREMENTAL_SQL,
        "text_token_counts": oracles.TOKEN_COUNTS_SQL,
        "text_quality": oracles.quality_sql(STOPWORDS["en"]),
        # bound-oracled (r5): heuristic label counts + pytest bar are
        # SQL-exact; meets_bar is the engine's deterministic claim
        "text_quality_distill":
            oracles.quality_distill_bound_sql(STOPWORDS["en"]),
        "text_lang_id": oracles.lang_id_sql(LANG_MARKERS, _LANG_ORDER),
        "text_fingerprints": oracles.FINGERPRINT_SQL,
        "text_repetition": oracles.REPETITION_SQL,
        "text_collocations": oracles.collocations_sql(k=20, min_count=5),
        "text_vocab_stats": oracles.VOCAB_STATS_SQL,
        "text_zipf": oracles.zipf_fit_sql(top_n=1000),
        "text_doc_similarity": oracles.doc_similarity_sql(
            k=3, where="doc_id < 200"),
        "cur_source_quota": oracles.QUOTA_SQL,
        "cur_pack_bins": oracles.PACK_BINS_SQL,
        "cur_pii_scan": oracles.pii_scan_sql(PII_PATTERNS),
        "cur_pii_redact": oracles.pii_redact_sql(PII_PATTERNS),
        "cur_hash_split": oracles.hash_split_sql(),
        "cur_full_pipeline": oracles.curate_corpus_sql(
            STOPWORDS["en"], lang="en", min_quality=0.3, threshold=0.5),
        "cur_pipeline_v2": oracles.curate_corpus_v2_sql(
            STOPWORDS["en"], {"src0": 0.5, "src1": 0.5},
            min_required=1, threshold=0.5, seq_len=256),
        "cur_group_sample_k": oracles.group_sample_k_sql(k=5),
        "cur_stratified_sample": oracles.stratified_sample_sql(
            {"src0": 1.0, "src1": 0.5, "src2": 0.1}, default_rate=0.25),
        "text_chunk_stats": oracles.chunk_stats_sql(chunk_size=200, overlap=20),
        # ann
        "ann_cosine_topk": oracles.ann_topk_sql(query_vec_id=1, k=10),
        "ann_range_search": oracles.ann_range_search_sql(
            query_vec_id=1, threshold=0.2),
        "ann_ivf_topk": oracles.ann_topk_sql(query_vec_id=1, k=10),
        "ann_ivf_partitioned": oracles.ann_topk_sql(query_vec_id=1, k=10),
        "ann_lsh_topk": oracles.lsh_topk_sql(query_vec_id=1, k=10),
        "ann_multi_query": oracles.ann_multi_query_sql((1, 2, 3), k=10),
        "hybrid_rrf_topk": oracles.hybrid_rrf_sql(("vector", "stream")),
        "hybrid_rerank_topk": oracles.rerank_dense_sql(("vector", "stream")),
        "hybrid_mmr_topk": oracles.mmr_sql(("vector", "stream")),
        "emb_near_dup_pairs": oracles.near_dup_pairs_sql(threshold=0.45),
        "emb_kcenter_sample": oracles.kcenter_sql(8),
        # events / stream-shaped
        "ev_tumbling_window": oracles.TUMBLING_WINDOW_SQL,
        "ev_sliding_window": oracles.SLIDING_WINDOW_SQL,
        "ev_windowed_topk": oracles.WINDOWED_TOPK_SQL,
        "ev_session_windows": oracles.SESSION_WINDOWS_SQL,
        "ev_asof_join": oracles.ASOF_JOIN_SQL,
        "ev_funnel": oracles.FUNNEL_SQL,
        "ev_distinct_users": oracles.GROUP_DISTINCT_SQL,
        "rel_priority_lines": oracles.PRIORITY_LINES_SQL,
        "ev_retention_cohorts": oracles.RETENTION_COHORTS_SQL,
        "ev_daily_moving_avg": oracles.daily_moving_avg_sql(7),
        "ev_type_cooccurrence": oracles.TYPE_COOCCURRENCE_SQL,
        "rel_late_shipments": oracles.late_shipment_priority_sql(30),
        "ev_window_join": oracles.window_self_join_sql(5),
        "rel_rollup": oracles.PRICING_ROLLUP_SQL,
        "rel_fuzzy_join": oracles.fuzzy_name_join_sql(2),
        "rel_group_stats": oracles.GROUP_DISPERSION_SQL,
        "ev_window_distinct": oracles.window_distinct_sql(360),
        "ev_gap_stats": oracles.USER_GAP_STATS_SQL,
        "ev_transitions": oracles.TRANSITION_MATRIX_SQL,
        "ev_running_total": oracles.DAILY_RUNNING_TOTAL_SQL,
        "rel_percent_rank": oracles.percent_rank_sql(),
        "ev_json_extract": oracles.PROPS_STATS_SQL,
        "rel_left_join": oracles.customer_order_counts_sql(20),
        "rel_group_corr": oracles.GROUP_CORR_SQL,
        "ev_zscore_anomaly": oracles.zscore_anomaly_sql(2.0),
        "ev_hourly_profile": oracles.HOURLY_PROFILE_SQL,
        "ev_daily_ema": oracles.daily_ema_sql(0.3, 14),
        "text_ngram_novelty": oracles.ngram_novelty_sql(5),
        "rel_above_avg": oracles.above_class_average_sql(4),
        "rel_skew_kurt": oracles.GROUP_SKEW_KURT_SQL,
        "fts_decay_topk": oracles.decay_topk_sql(
            ["vector", "stream"], origin=300.0, scale=120.0, k=20),
        "fts_adjacency_matrix": oracles.adjacency_matrix_sql(),
        "agg_composite_page": oracles.composite_page_sql(10, ("en", "src3")),
        "rel_brand_suppliers": oracles.BRAND_SUPPLIERS_SQL,
        "fts_rare_terms": oracles.rare_terms_sql(100, 50),
        "ann_filtered_topk": oracles.ann_filtered_topk_sql(1, 2, 10),
        "emb_outliers": oracles.centroid_outliers_sql(2.0),
        "ev_session_stats": oracles.session_stats_sql(30),
        "text_langid_confusion": oracles.langid_confusion_sql(
            LANG_MARKERS, _LANG_ORDER),
        "emb_label_separation": oracles.label_separation_sql(6),
        "fts_time_travel": oracles.bm25_topk_sql(
            ["vector", "stream"], k=20,
            corpus=("SELECT doc_id, source AS f0, text AS f1, lang "
                    "FROM documents WHERE doc_id < "
                    "(SELECT (max(doc_id)+1)//2 FROM documents)")),
        "text_fertility": oracles.FERTILITY_SQL,
        "rel_percentile_ranks": oracles.percentile_ranks_sql(),
        "fts_synonym_topk": oracles.bm25_topk_sql(
            ["merge", "stream", "buffer"], k=20),
        "ev_new_users": oracles.NEW_USERS_SQL,
        "rel_range_frame": oracles.range_frame_sql(5000.0, 50),
        "ev_value_histogram": oracles.value_histogram_sql(10.0),
        "rel_cube": oracles.PRICING_CUBE_SQL,
        "cur_quality_prune": oracles.quality_prune_sql(STOPWORDS["en"], 0.7),
        "rel_bloom_join": oracles.bloom_join_sql("1-URGENT"),
        "ev_latest_event": oracles.LATEST_EVENT_SQL,
        "code_lang_stats": oracles.code_lang_stats_sql(_CODE_GLOB_001),
        "code_repo_topk": oracles.code_repo_topk_sql(_CODE_GLOB_001, 10),
        "code_dir_stats": oracles.code_dir_stats_sql(_CODE_GLOB_001, 50),
        "ev_asof_next": oracles.ASOF_FORWARD_SQL,
        "cur_datasheet": oracles.datasheet_sql(STOPWORDS["en"]),
        "ann_knn_join": oracles.knn_join_sql(3),
        "text_ttr_by_source": oracles.TTR_BY_SOURCE_SQL,
        "ev_pct_change": oracles.DAILY_PCT_CHANGE_SQL,
        "emb_sq8_error": oracles.sq8_error_sql(6),
        "rel_salted_join": oracles.SALTED_JOIN_SQL,
        "text_charclass": oracles.CHARCLASS_SQL,
        "ev_weekly_conversion": oracles.weekly_conversion_sql(),
        "rel_returned_revenue": oracles.returned_revenue_sql(20),
        "ev_stickiness": oracles.STICKINESS_SQL,
        "rel_q6_revenue": oracles.q6_band_revenue_sql(),
        "emb_norm_stats": oracles.NORM_STATS_SQL,
        "text_source_overlap": oracles.SOURCE_OVERLAP_SQL,
        "fts_best_fields": oracles.best_fields_sql(
            ["dup", "stream"], tie=0.0, k=20),
        "rel_group_mad": oracles.GROUP_MAD_SQL,
        "text_readability": oracles.readability_sql(6),
        "ev_bounce_rate": oracles.bounce_rate_sql(30),
        "cur_dup_by_source": oracles.DUP_RATE_BY_SOURCE_SQL,
        "fts_terms_enum": oracles.terms_enum_sql("s", 20),
        "ev_activity_histogram": oracles.activity_histogram_sql(10),
        "ev_time_to_convert": oracles.time_to_convert_sql(),
        "rel_priority_share": oracles.priority_share_sql(),
        "rel_customer_hhi": oracles.CUSTOMER_HHI_SQL,
        "text_js_divergence": oracles.js_divergence_sql("src0", "src1"),
        "ev_user_entropy": oracles.user_entropy_sql(50),
        "text_wordlen_hist": oracles.wordlen_histogram_sql(30),
        # relational
        "rel_pricing_summary": oracles.PRICING_SUMMARY_SQL,
        "rel_top_customers": oracles.TOP_CUSTOMERS_SQL,
        "rel_facet_counts": oracles.FACET_COUNTS_SQL,
        "rel_group_percentiles": oracles.GROUP_PERCENTILES_SQL,
        "rel_filter_matrix": oracles.FILTER_MATRIX_SQL,
        "rel_multi_union": oracles.MULTI_UNION_SQL,
        "rel_order_revenue": oracles.ORDER_REVENUE_SQL,
        "rel_group_topk": oracles.GROUP_TOPK_SQL,
        "rel_shipping_priority": oracles.shipping_priority_sql(),
        "rel_star_join": oracles.STAR_JOIN_SQL,
        "rel_anti_join": oracles.ANTI_JOIN_SQL,
        "agg_quantiles": oracles.QUANTILES_SQL,
        "agg_distinct_parts": oracles.DISTINCT_PARTS_SQL,
        "agg_hll_distinct": oracles.HLL_BOUND_SQL,
        "agg_group_hll": oracles.GROUP_HLL_BOUND_SQL,
        "agg_heavy_hitters": oracles.HEAVY_HITTERS_SQL,
        "text_bigram_lm": oracles.BIGRAM_LM_SQL,
        "text_tfidf_topk": oracles.TFIDF_TOPK_SQL,
        "text_heaps_curve": oracles.heaps_curve_sql(),
        "text_burstiness": oracles.term_burstiness_sql(k=50),
        "text_source_stats": oracles.source_token_stats_sql(),
        "text_ccnet_buckets": oracles.CCNET_BUCKETS_SQL,
        "text_entropy": oracles.ENTROPY_STATS_SQL,
        "text_dsir_logw": oracles.dsir_logweights_sql("src0"),
        "dedup_best_survivors": oracles.best_survivors_sql(STOPWORDS["en"]),
        "cur_c4_clean": oracles.C4_LINE_CLEAN_SQL,
        "cur_train_sequences": oracles.training_sequences_sql(128),
        "cur_gopher_rules": oracles.gopher_rules_sql(1),
        "cur_rebalance_mix": oracles.rebalance_mix_sql(
            {"src0": 0.5, "src1": 0.3, "src2": 0.2}),
        "rel_q14_promo": oracles.q14_promo_share_sql(),
        "rel_q17_small_qty": oracles.q17_small_quantity_sql(),
        "rel_q18_large_orders": oracles.q18_large_orders_sql(),
        "rel_q11_value_share": oracles.q11_value_share_sql(),
        "fts_boosting_topk": oracles.bm25_topk_sql(
            ["vector", "stream"], k=20, negative_term="merge",
            negative_boost=0.4),
        "rel_chi2_seg_priority": oracles.CHI2_SQL,
        "rel_revenue_gini": oracles.GINI_SQL,
        "text_stopword_density": oracles.stopword_density_sql(
            STOPWORDS["en"]),
        "emb_silhouette": oracles.silhouette_sql(),
        "fts_span_first": oracles.span_first_sql("merge", 20, 20),
        "fts_constant_score": oracles.constant_score_sql("window", 1.7, 20),
        "ev_weekly_churn": oracles.WEEKLY_CHURN_SQL,
        "ev_user_quartiles": oracles.user_quartiles_sql(),
        "dedup_prefix_clusters": oracles.prefix_dup_sql(),
        "ev_first_last_drift": oracles.FIRST_LAST_DRIFT_SQL,
        "cur_weighted_sample": oracles.weighted_sample_sql(),
        "rel_lorenz_deciles": oracles.lorenz_deciles_sql(),
        "rel_q21_blame": oracles.q21_blame_sql(),
        "code_comment_density": oracles.code_comment_density_sql(
            _CODE_GLOB_001),
        "code_callsite_topk": oracles.code_callsite_topk_sql(
            _CODE_GLOB_001),
        "rel_q5_local_volume": oracles.q5_local_volume_sql(),
        "rel_q7_nation_trade": oracles.q7_nation_trade_sql(),
        "rel_q4_order_priority": oracles.q4_order_priority_sql(),
        "ev_windowed_quantiles": oracles.windowed_quantiles_sql(),
        "ev_time_weighted_avg": oracles.time_weighted_avg_sql(),
        "ev_watermark_late": oracles.watermark_late_sql(14 * 86400),
        "rel_q2_min_cost": oracles.q2_min_cost_supplier_sql(),
        "rel_q13_custdist": oracles.Q13_CUSTDIST_SQL,
        "rel_q15_top_supplier": oracles.q15_top_supplier_sql(),
        "rel_q22_sales_opportunity": oracles.q22_sales_opportunity_sql(),
        "rel_q8_market_share": oracles.q8_market_share_sql(),
        "rel_q9_profit": oracles.q9_profit_sql(),
        "rel_q19_disjunctive": oracles.q19_disjunctive_sql(),
        "emb_dim_variance": oracles.dim_variance_sql(),
    }
