"""Doc-sharded query serving: the ORTHOGONAL axis to search/sharded.py.

Each shard actor owns a full (small) index over a DOC-ID RANGE of the
corpus — postings, doc-length arrays and metadata for its docs only, so
no single process ever holds corpus-wide metadata (the residency
concern of a monolithic IndexReader at 100× scale).  Queries run the
classic two-phase distributed-BM25 protocol:

  phase 1 (stats): every shard reports its LOCAL per-arm document
      frequencies (``SearchEngine.arm_dfs``) + its (n_docs, total_dl);
      the coordinator sums them into GLOBAL (N, avgdl, df-per-arm).
  phase 2 (score): every shard scores its own candidates with the
      global stats injected (``_score(stats_override=...)``), applies
      filters/language/tombstones locally, and returns its top-k;
      the coordinator merges by (rank, doc_id) and pages.

Because BM25 factors as f(global stats, local tf, local dl), the merged
ranking is EXACTLY the single-index ranking (asserted in
tests/test_doc_sharded.py).

Supported options: mode, field_weights, filters, language, min_score,
limit/offset, normalize.  Fuzzy/geo/sort/route-dedup stay on the
single-reader or term-sharded paths (their state is corpus-global).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .engine import MAX_RESULTS, SearchEngine, compile_query, open_index
from .topk import topk_order


@ray.remote(max_restarts=2)
class DocShardActor:
    """One doc-range shard: full engine over its sub-index."""

    def __init__(self, index_dir: str, **engine_kwargs):
        self.engine = SearchEngine(open_index(index_dir), cache_ttl=0.0,
                                   **engine_kwargs)

    def shard_stats(self) -> tuple[int, float]:
        st = self.engine.index.manifest.stats
        return int(st["n_docs"]), float(st["total_dl"])

    def arm_dfs(self, query: str, mode: str, prefix_last: bool) -> dict:
        cq = compile_query(query, self.engine.analyzer, mode=mode,
                           prefix_last=prefix_last)
        return self.engine.arm_dfs(cq)

    def topk(self, query: str, *, k: int, mode: str, prefix_last: bool,
             stats_override: dict, field_weights: dict | None,
             filters, language: str | None) -> tuple[np.ndarray, np.ndarray]:
        eng = self.engine
        cq = compile_query(query, eng.analyzer, mode=mode,
                           prefix_last=prefix_last)
        weights = eng._field_weight_vector(field_weights)
        doc_ids, rank = eng._score(cq, weights,
                                   stats_override=stats_override)
        if doc_ids.size and eng.index.tombstones.size:
            live = ~np.isin(doc_ids, eng.index.tombstones)
            doc_ids, rank = doc_ids[live], rank[live]
        if doc_ids.size:
            keep = eng._apply_filters(doc_ids, filters, language)
            doc_ids, rank = doc_ids[keep], rank[keep]
        # NOTE: min_score is NOT applied here — the single-index engine
        # filters AFTER truncating to the page, so the coordinator must
        # do the same on the merged ranking for exact parity.
        order = topk_order(rank, doc_ids, k)[:k]
        return doc_ids[order], rank[order]


def build_doc_shards(ds, base_dir: str, cfg, n_shards: int = 4,
                     id_column: str = "doc_id") -> list[str]:
    """Split the input by doc_id hash-range into ``n_shards`` sub-indexes
    (one ``build_index`` each, under ``{base_dir}/shard=K``)."""
    import os

    import pyarrow.compute as pc  # noqa: F401

    from ..index.build import build_index

    dirs = []
    for s in range(n_shards):
        def keep(t: pa.Table, _s=s) -> pa.Table:
            ids = t[id_column].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(ids % np.uint64(n_shards)
                                     == np.uint64(_s)))

        sub = ds.map_batches(keep, batch_format="pyarrow")
        d = os.path.join(base_dir, f"shard={s}")
        build_index(sub, d, cfg, input_fingerprint=f"{base_dir}:shard{s}")
        dirs.append(d)
    return dirs


class DocShardedEngine:
    """Scatter/gather coordinator over doc-range shard actors."""

    def __init__(self, shard_dirs: list[str], **engine_kwargs):
        self._actors = [DocShardActor.remote(d, **engine_kwargs)
                        for d in shard_dirs]
        stats = ray.get([a.shard_stats.remote() for a in self._actors])
        self.n_docs = sum(s[0] for s in stats)
        total_dl = sum(s[1] for s in stats)
        self.avgdl = (total_dl / self.n_docs) if self.n_docs else 1.0

    def search(self, query: str, *, limit: int = 20, offset: int = 0,
               mode: str = "smart", field_weights: dict | None = None,
               filters=None, language: str | None = None,
               min_score: float = 0.0, normalize: bool = True,
               prefix_last: bool = False) -> pa.Table:
        limit = min(int(limit), MAX_RESULTS)
        # phase 1: global per-arm dfs
        local = ray.get([a.arm_dfs.remote(query, mode, prefix_last)
                         for a in self._actors])
        dfs: dict = {}
        for d in local:
            for k, v in d.items():
                dfs[k] = dfs.get(k, 0) + v
        stats_override = {"n_docs": self.n_docs, "avgdl": self.avgdl,
                          "dfs": dfs}
        # phase 2: per-shard top-k with global stats
        k = offset + limit
        parts = ray.get([
            a.topk.remote(query, k=k, mode=mode, prefix_last=prefix_last,
                          stats_override=stats_override,
                          field_weights=field_weights, filters=filters,
                          language=language)
            for a in self._actors
        ])
        doc_ids = np.concatenate([p[0] for p in parts]) \
            if parts else np.empty(0, np.uint64)
        rank = np.concatenate([p[1] for p in parts]) \
            if parts else np.empty(0, np.float64)
        order = np.lexsort((doc_ids, rank))
        doc_ids, rank = doc_ids[order], rank[order]
        # single-index order of operations: truncate to the page window,
        # THEN apply min_score (can return fewer than `limit` rows)
        doc_ids = doc_ids[:offset + limit]
        rank = rank[:offset + limit]
        if min_score > 0 and doc_ids.size:
            keep = np.abs(rank) >= min_score
            doc_ids, rank = doc_ids[keep], rank[keep]
        doc_ids = doc_ids[offset:offset + limit]
        score = np.abs(rank[offset:offset + limit])
        if normalize and score.size:
            m = score.max()
            if m > 0:
                score = score / m * 100.0
        return pa.table({"doc_id": pa.array(doc_ids, pa.uint64()),
                         "score": pa.array(score, pa.float64())})

    def shutdown(self):
        for a in self._actors:
            ray.kill(a)
        self._actors = []
