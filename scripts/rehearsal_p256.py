#!/usr/bin/env python
"""Large-scale rehearsal (VERDICT r2 item 7): build 600k docs with
num_partitions=256 — the README's cluster-scale partitioning guidance,
previously untested beyond P=32 — and report:

  - per-phase manifest metrics (sketch / exchange wall time),
  - the executed pipeline's ds.stats() tail (UDF vs scheduling split),
  - partition balance (segment bytes / terms / rows percentiles,
    including the hot/split-term placement effect),
  - reader residency at P=256: bytes resident after open, after the
    doc-length load, after one metadata column, and the postings LRU
    sample for the hottest terms — the evidence that dictionary/head +
    docstore-metadata residency stays bounded per serving shard,
  - a serving smoke: mixed query classes must return sane top-k.

Run:  python scripts/rehearsal_p256.py [--docs 600000] [--parts 256]
Writes a JSON report to /tmp/ys_rehearsal/report_p{P}.json and prints it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def host_probe() -> float:
    import numpy as np

    t0 = time.perf_counter()
    np.arange(50_000_000, dtype=np.uint64)
    return round(time.perf_counter() - t0, 3)


def pctls(vals):
    import numpy as np

    if not vals:
        return {}
    a = np.asarray(vals, dtype=np.float64)
    return {"min": float(a.min()), "p50": float(np.percentile(a, 50)),
            "p90": float(np.percentile(a, 90)), "p99": float(np.percentile(a, 99)),
            "max": float(a.max()),
            "max_over_median": round(float(a.max() / max(np.percentile(a, 50), 1)), 2)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=600_000)
    ap.add_argument("--parts", type=int, default=256)
    ap.add_argument("--cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = ap.parse_args()

    report: dict = {"n_docs_requested": args.docs, "num_partitions": args.parts,
                    "num_cpus": args.cpus, "host_probe_sec": {"start": host_probe()}}

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from yetisearch_ray.index.build import IndexConfig, build_index
    from yetisearch_ray.sources.corpus import generate_code_corpus
    from yetisearch_ray.sources.text_sources import read_any_with_doc_ids

    corpus = generate_code_corpus(args.docs, f"/tmp/ys_corpus/scale{args.docs}",
                                  num_files=16)
    idx_dir = f"/tmp/ys_rehearsal/idx_p{args.parts}"
    cfg = IndexConfig(
        fields=[("path", "path"), ("content", "content")],
        language_column="lang",
        store_columns=["repo", "path", "commit", "lang", "content"],
        num_partitions=args.parts,
        content_hash_column="content",
    )
    stats_out: dict = {}
    t0 = time.perf_counter()
    man = build_index(read_any_with_doc_ids(corpus), idx_dir, cfg,
                      input_fingerprint=corpus, stats_out=stats_out)
    build_sec = time.perf_counter() - t0
    report["build_sec"] = round(build_sec, 3)
    report["docs_per_sec"] = round(int(man.stats["n_docs"]) / build_sec, 1)
    report["manifest_metrics"] = man.data.get("metrics", {})
    report["hot_terms"] = len(man.data.get("hot_terms") or {})
    report["split_terms"] = len(man.data.get("split_terms") or {})

    parts = man.data["partitions"]
    report["partition_balance"] = {
        "n_partitions_committed": len(parts),
        "bytes": pctls([p["bytes"] for p in parts.values()]),
        "terms": pctls([p["terms"] for p in parts.values()]),
        "rows": pctls([p["rows"] for p in parts.values()]),
    }
    ds_stats = stats_out.get("ds_stats", "")
    report["ds_stats_tail"] = ds_stats[-2500:] if ds_stats else ""

    # ---- reader residency at P=256 ------------------------------------
    import numpy as np

    from yetisearch_ray.search.engine import SearchEngine, open_index

    def meta_bytes(reader):
        dm = reader._doc_meta or {}
        return int(sum(v.nbytes if isinstance(v, np.ndarray)
                       else sum(len(str(x)) for x in v) for v in dm.values()))

    rd = open_index(idx_dir)
    eng = SearchEngine(rd)
    res = {"after_open": meta_bytes(rd)}
    rd._load_meta()
    res["after_doc_lengths"] = meta_bytes(rd)
    rd._load_col("lang")
    res["after_lang_col"] = meta_bytes(rd)
    # hottest terms by sketch → postings LRU residency sample
    hot = list((man.data.get("hot_terms") or {}).keys())[:16] or ["return"]
    for t in hot:
        eng.index.postings(t)
    cache_bytes = 0
    for term, by_field in rd._cache.items():
        for p in by_field.values():
            cache_bytes += p.doc_ids.nbytes + p.tfs.nbytes
            if p.positions is not None:
                cache_bytes += p.positions.nbytes
    res["postings_lru_16_hot_terms"] = int(cache_bytes)
    res["note"] = ("doc lengths (the docstore's dl column) + one filter "
                   "column are the only per-replica "
                   "resident arrays; postings stream per-term via the LRU. "
                   "At cluster scale both shard by doc range (SearchActor "
                   "axis) / term partition (sharded.py axis).")
    report["reader_residency_bytes"] = res

    # ---- serving smoke -------------------------------------------------
    qs = [("parse buffer", {}), ('"exponential backoff"', {}),
          ("return", {"language": "rust"}),
          ("module", {"field_weights": {"path": 5.0, "content": 1.0}})]
    lat = {}
    for q, kw in qs:
        tq = time.perf_counter()
        out = eng.search(q, limit=10, **kw)
        lat[q] = {"ms": round((time.perf_counter() - tq) * 1e3, 1),
                  "rows": out.num_rows}
        assert out.num_rows > 0, q
    report["serving_smoke"] = lat

    report["host_probe_sec"]["end"] = host_probe()
    os.makedirs("/tmp/ys_rehearsal", exist_ok=True)
    out_path = f"/tmp/ys_rehearsal/report_p{args.parts}.json"
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report, indent=1))
    ray.shutdown()


if __name__ == "__main__":
    main()
