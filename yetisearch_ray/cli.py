"""CLI entry points (reference ``bin/yetisearch`` :34-66 commands).

``python -m yetisearch_ray.cli <command> ...``:

    index-build   --input DIR --index DIR [--fields path,content] [...]
    search        --index DIR QUERY [--limit N] [--fuzzy] [--lang L] ...
    search-dsl    --index DIR 'term field:value -excluded "a phrase"'
    search-url    --index DIR 'q=...&filter[lang]=python&limit=5'
    suggest       --index DIR QUERY
    create-index  --index DIR [--fields title,content]  (empty committed index)
    knn           --index DIR --lat .. --lng .. [--k 5] [--units m|km|mi]
    facets-distance --index DIR --lat .. --lng .. --ranges 1,5,10
    debug-query   --index DIR QUERY   (compiled plan + per-arm df + I/O plan + stages)
    stats         --index DIR [--by lang]
    optimize      --index DIR
    verify        --index DIR     (manifest + segment integrity check)

Owns its Ray session (scripts init/shutdown; library code never does).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False


def _print_table(t, limit=50):
    import pandas as pd

    df = t if isinstance(t, pd.DataFrame) else t.to_pandas()
    print(df.head(limit).to_string(index=False))


def cmd_index_build(args):
    _init_ray()
    from .index.build import IndexConfig, build_index
    from .sources.text_sources import read_any_with_doc_ids

    fields = [(f, f) for f in args.fields.split(",")]
    store = args.store.split(",") if args.store else [c for _, c in fields]
    cfg = IndexConfig(fields=fields, language_column=args.lang_column,
                      store_columns=store, num_partitions=args.partitions,
                      content_hash_column=args.hash_column)
    ds = read_any_with_doc_ids(args.input)  # parquet / jsonl / csv
    man = build_index(ds, args.index, cfg, resume=args.resume,
                      append=args.append, input_fingerprint=args.input)
    print(json.dumps({"status": man.data["status"], "stats": man.stats}))


def _engine(args):
    from .search.engine import SearchEngine, open_index

    n_shards = getattr(args, "sharded", 0)
    if n_shards:
        from .search.sharded import open_sharded

        return open_sharded(args.index, n_shards=n_shards)
    gen = getattr(args, "as_of_generation", None)
    return SearchEngine(open_index(args.index, max_generation=gen))


def cmd_search(args):
    _init_ray()
    eng = _engine(args)
    kw = {}
    if getattr(args, "exclude", None):
        kw["exclude_terms"] = [t for t in args.exclude.split(",") if t]
    if getattr(args, "slop", 0):
        kw["slop"] = args.slop
    if getattr(args, "fields", None):
        kw["in_fields"] = [f for f in args.fields.split(",") if f]
    if getattr(args, "min_match", 1) and args.min_match > 1:
        kw["min_should_match"] = args.min_match
        if args.mode == "smart":  # convenience: msm implies OR mode
            args.mode = "or"
    if getattr(args, "dismax", None) is not None:
        kw.update(dismax=True, tie_breaker=args.dismax)
        if args.mode == "smart":  # convenience: dis_max implies OR mode
            args.mode = "or"
    if getattr(args, "rank_column", None):
        kw.update(rank_column=args.rank_column,
                  rank_weight=args.rank_weight, rank_mode=args.rank_mode)
    if getattr(args, "collapse", None):
        kw.update(unique_by_route=True, route_column=args.collapse,
                  normalize=False)
    if getattr(args, "group_by", None):
        r = eng.search_grouped(args.query, route_column=args.group_by,
                               group_limit=args.group_limit,
                               limit=args.limit, mode=args.mode,
                               language=args.lang, **kw)
        _print_table(r)
        return
    if getattr(args, "after", None):
        sc, _, did = args.after.partition(",")
        r = eng.search_after(args.query, after_score=float(sc),
                             after_doc_id=int(did), limit=args.limit,
                             mode=args.mode, language=args.lang, **kw)
        _print_table(r)
        return
    r = eng.search(args.query, limit=args.limit, mode=args.mode,
                   language=args.lang, fuzzy=args.fuzzy,
                   with_docs=args.docs, highlight=args.highlight, **kw)
    _print_table(r)


def cmd_search_dsl(args):
    _init_ray()
    from .dsl import QueryParser

    eng = _engine(args)
    parsed = QueryParser().parse(args.query)
    kw = parsed.to_search_kwargs()
    q = kw.pop("query")
    r = eng.search(q, limit=args.limit, **{k: v for k, v in kw.items() if v})
    _print_table(r)


def cmd_search_ref_dsl(args):
    """Reference SQL-ish DSL (author = \"John\" AND ... SORT title)."""
    _init_ray()
    from .dsl import ReferenceQueryParser

    eng = _engine(args)
    parsed = ReferenceQueryParser().parse(args.query)
    kw = parsed.to_search_kwargs()
    q = kw.pop("query")
    r = eng.search(q, **{k: v for k, v in kw.items() if v})
    _print_table(r)


def cmd_search_url(args):
    _init_ray()
    from .dsl import URLQueryParser

    eng = _engine(args)
    out = URLQueryParser().parse(args.query)
    q = out.pop("query")
    out.pop("sort", None)
    out.pop("result_fields", None)
    r = eng.search(q, **out)
    _print_table(r)


def cmd_suggest(args):
    _init_ray()
    eng = _engine(args)
    _print_table(eng.suggest(args.query))


def cmd_autocomplete(args):
    """Top-N dictionary completions of a prefix, ranked by summed df
    (the expand_prefix serving path; see fts_documents.autocomplete_topk)."""
    import pandas as pd

    _init_ray()
    eng = _engine(args)
    terms = eng.index.expand_prefix(args.prefix, max_terms=args.limit)
    _print_table(pd.DataFrame({"term": terms,
                               "rank": range(1, len(terms) + 1)}))


def cmd_wildcard(args):
    """Wildcard term query (pa?se / par* / *fix) — dictionary-expanded
    OR through the normal search path."""
    _init_ray()
    eng = _engine(args)
    _print_table(eng.search_wildcard(args.pattern, limit=args.limit,
                                     max_terms=args.max_terms))


def cmd_more_like_this(args):
    """Docs similar to a given doc_id (top tf*idf terms -> BM25 OR,
    self excluded; see SearchEngine.more_like_this)."""
    _init_ray()
    eng = _engine(args)
    _print_table(eng.more_like_this(args.doc_id, limit=args.limit,
                                    max_terms=args.max_terms))


def cmd_search_lm(args):
    """Query-likelihood (LM-Dirichlet) ranking; see
    SearchEngine.search_lm."""
    _init_ray()
    eng = _engine(args)
    _print_table(eng.search_lm(args.query, limit=args.limit, mu=args.mu))


def cmd_term_vectors(args):
    """Per-doc term statistics (ES _termvectors shape; see
    SearchEngine.term_vectors)."""
    _init_ray()
    eng = _engine(args)
    _print_table(eng.term_vectors(args.doc_id))


def cmd_batch_search(args):
    _init_ray()
    from .pipelines.fts_documents import batch_search_to_parquet
    from .sources.text_sources import read_any_with_doc_ids

    qds = read_any_with_doc_ids(args.queries).drop_columns(["doc_id"])
    out = batch_search_to_parquet(args.index, qds, args.out,
                                  concurrency=args.concurrency,
                                  batch_size=args.batch_size)
    import pyarrow.parquet as pq_

    n = pq_.read_table(out, columns=["qid"]).num_rows
    print(json.dumps({"out": out, "result_rows": n}))


def cmd_create_index(args):
    """Create a committed EMPTY index (reference create-index,
    ``bin/yetisearch:81-90``) — searches return 0 rows until a build
    appends into it."""
    from .index.build import IndexConfig
    from .index.manage import create_empty_index

    fields = [(f, f) for f in args.fields.split(",")]
    store = args.store.split(",") if args.store else [c for _, c in fields]
    cfg = IndexConfig(fields=fields, language_column=args.lang_column,
                      store_columns=store, num_partitions=args.partitions,
                      content_hash_column=args.hash_column)
    man = create_empty_index(args.index, cfg)
    print(json.dumps({"status": man.data["status"], "index": args.index,
                      "fields": [f for f, _ in fields]}))


_UNITS_TO_KM = {"m": 0.001, "km": 1.0, "mi": 1.609344}


def _to_km(v: float, units: str) -> float:
    return float(v) * _UNITS_TO_KM[units]


def cmd_knn(args):
    """Geo k-NN fast path (reference knn, ``bin/yetisearch:188-199``)."""
    eng = _engine(args)
    center = {"lat": args.lat, "lng": args.lng,
              "lat_column": args.lat_column, "lng_column": args.lng_column}
    if args.max_distance is not None:
        center["max_distance_km"] = _to_km(args.max_distance, args.units)
    _print_table(eng.knn(center, k=args.k))


def cmd_facets_distance(args):
    """Distance-bucket facets (reference facets-distance,
    ``bin/yetisearch:200-218``) — empty query buckets ALL live docs."""
    eng = _engine(args)
    center = {"lat": args.lat, "lng": args.lng,
              "lat_column": args.lat_column, "lng_column": args.lng_column}
    ranges_km = [_to_km(float(r), args.units)
                 for r in args.ranges.split(",")]
    _print_table(eng.distance_facets(args.query, center, ranges_km))


def cmd_debug_query(args):
    """Query-plan introspection (reference debug:query,
    ``bin/yetisearch:137-155``): compiled arms, per-arm df, posting
    partitions read, fuzzy rewrite, score-modifier stages."""
    eng = _engine(args)
    print(json.dumps(eng.explain(args.query, mode=args.mode,
                                 fuzzy=args.fuzzy), indent=1))


def cmd_stats(args):
    from .index.manage import index_stats

    print(json.dumps(index_stats(args.index, by=args.by), indent=1))


def cmd_optimize(args):
    _init_ray()
    from .index.manage import optimize_index

    print(json.dumps(optimize_index(args.index)))


def _verify_segment(seg, problems: list) -> int:
    """Decode every run of one segment, checking it against its
    dictionary row; returns the runs checked."""
    import numpy as np

    from .index.postings import decode_postings

    keys = list(zip(seg.terms.tolist(), seg.fields.tolist()))
    if keys != sorted(keys):
        problems.append(f"{seg.where}: dictionary not sorted")
    n = 0
    for term, df, cf, (_, d, f, p) in seg.runs():
        n += 1
        try:
            ids, tfs, pos = decode_postings(d, f, p)
        except Exception as e:  # any decode failure is damage
            problems.append(f"{seg.where}: term {term!r} undecodable: {e!r}")
            continue
        bad = [what for what, ok in (
            ("df", ids.size == df),
            ("cf", int(tfs.sum()) == cf),
            ("doc-id order", ids.size < 2
             or bool((np.diff(ids.astype(np.int64)) > 0).all())),
            ("positions", pos is None or pos.size == cf),
        ) if not ok]
        if bad:
            problems.append(f"{seg.where}: term {term!r} "
                            f"{', '.join(bad)} mismatch")
    return n


def _verify_docstore(index_dir: str, man, problems: list) -> int:
    """Read every committed docstore chunk batch by batch (each checked
    against its metadata range; opening it checks its chunk id against
    its entry's) and its doc-length column: one value per row, summing
    to the entry's ``sum_dl``; then the row and length sums against the
    stats.  Returns the rows read."""
    import pyarrow.compute as pc

    from .index.docstore import DL_COLUMN, DocStore

    rows = total_dl = 0
    with DocStore.committed(index_dir, man) as store:
        for i, c in enumerate(store.chunks):
            try:
                n = store.chunk_ids(i).size
                dl = store.chunk(i).read([DL_COLUMN])[DL_COLUMN]
            except (OSError, ValueError) as e:
                problems.append(str(e))
                continue
            where = store.chunk(i).where
            if dl.null_count:
                problems.append(f"{where}: {dl.null_count} of {n} rows "
                                f"without a doc length")
            got = pc.sum(dl).as_py() or 0
            if got != c.get("sum_dl"):
                problems.append(f"{where}: doc lengths sum to {got}, its "
                                f"manifest entry says {c.get('sum_dl')}")
            rows += n
            total_dl += got
    for what, got in (("n_docs", rows), ("total_dl", total_dl)):
        if got != man.stats.get(what):
            problems.append(f"docstore {what} {got} != stats {what} "
                            f"{man.stats.get(what)}")
    return rows


def _verify_id(what: str, part: int, gen: int, got: str, ids: dict,
               problems: list) -> None:
    """Report a file whose segment id is not its manifest entry's."""
    want = ids.get((part, gen))
    if got != want:
        problems.append(
            f"{what} of partition {part:05d} generation {gen}: segment "
            f"id {got or 'none'}, the manifest commits {want}")


def cmd_verify(args):
    """Integrity check: manifest committed, every committed segment
    present and readable with its manifest entry's segment id, every
    run decodable with the df, cf and strictly ascending doc ids its
    dictionary row claims, dictionaries sorted, every committed docstore
    chunk readable with its entry's chunk id, strictly ascending ids in
    its batch ranges and one doc length per row, and the stats equal to
    the chunks' sums.  Exits 1 on any problem."""
    from .index.manifest import Manifest
    from .index.segment import Segment

    man = Manifest.load(args.index)
    problems = []
    if man.data.get("status") != "committed":
        problems.append(f"status={man.data.get('status')}")
    try:
        man.require_current_format()
    except ValueError as e:
        problems.append(str(e))
    ids = man.segment_ids()
    n_segments = n_terms = 0
    for part, gens in sorted(man.segment_generations().items()):
        for gen in sorted(gens):
            try:
                with Segment(args.index, part, gen) as seg:
                    n_segments += 1
                    _verify_id("term dictionary", part, gen, seg.seg_id,
                               ids, problems)
                    n_terms += _verify_segment(seg, problems)
            except (OSError, ValueError) as e:
                problems.append(str(e))
    n_docs = _verify_docstore(args.index, man, problems)
    print(json.dumps({"ok": not problems, "segments": n_segments,
                      "term_rows": n_terms, "docstore_rows": n_docs,
                      "problems": problems}))
    sys.exit(0 if not problems else 1)


def main(argv=None):
    p = argparse.ArgumentParser(prog="yetisearch_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("index-build")
    b.add_argument("--input", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--fields", default="path,content")
    b.add_argument("--store", default="")
    b.add_argument("--lang-column", default=None)
    b.add_argument("--hash-column", default=None)
    b.add_argument("--partitions", type=int, default=32)
    b.add_argument("--resume", action="store_true")
    b.add_argument("--append", action="store_true")
    b.set_defaults(fn=cmd_index_build)

    for name, fn in (("search", cmd_search), ("search-dsl", cmd_search_dsl),
                     ("search-ref-dsl", cmd_search_ref_dsl),
                     ("search-url", cmd_search_url), ("suggest", cmd_suggest)):
        s = sub.add_parser(name)
        s.add_argument("--index", required=True)
        s.add_argument("query")
        s.add_argument("--limit", type=int, default=10)
        if name == "search":
            s.add_argument("--mode", default="smart")
            s.add_argument("--lang", default=None)
            s.add_argument("--fuzzy", action="store_true")
            s.add_argument("--docs", action="store_true")
            s.add_argument("--highlight", action="store_true")
            s.add_argument("--sharded", type=int, default=0, metavar="N",
                           help="serve via N term-partition shard actors")
            s.add_argument("--as-of-generation", dest="as_of_generation",
                           type=int, default=None, metavar="G",
                           help="time-travel: pin reads to segment "
                                "generations <= G (snapshot search)")
            s.add_argument("--exclude", default=None, metavar="T1,T2",
                           help="boolean NOT: drop docs containing these terms")
            s.add_argument("--collapse", default=None, metavar="COLUMN",
                           help="field collapsing: best doc per COLUMN value")
            s.add_argument("--after", default=None, metavar="SCORE,DOC_ID",
                           help="keyset cursor: rows after this (score, doc_id)")
            s.add_argument("--slop", type=int, default=0,
                           help="ordered-proximity window for phrase queries")
            s.add_argument("--fields", default=None, metavar="F1,F2",
                           help="restrict match/tf/df to these index fields")
            s.add_argument("--min-match", dest="min_match", type=int,
                           default=1, metavar="N",
                           help="OR mode: require at least N terms to match")
            s.add_argument("--dismax", type=float, default=None,
                           metavar="TIE",
                           help="score OR arms as dis_max with this "
                                "tie_breaker (0..1)")
            s.add_argument("--rank-column", dest="rank_column", default=None,
                           help="stored numeric column blended into the "
                                "score as ln(1+value)")
            s.add_argument("--rank-weight", dest="rank_weight", type=float,
                           default=0.5)
            s.add_argument("--rank-mode", dest="rank_mode",
                           choices=["add", "multiply"], default="add")
            s.add_argument("--group-by", dest="group_by", default=None,
                           metavar="COL",
                           help="grouped results: top --group-limit docs "
                                "per COL value for the top --limit groups")
            s.add_argument("--group-limit", dest="group_limit", type=int,
                           default=3)
        s.set_defaults(fn=fn)

    s = sub.add_parser("batch-search",
                       help="stream a query table through the SearchActor "
                            "pool, write results as partitioned parquet")
    s.add_argument("--index", required=True)
    s.add_argument("--queries", required=True,
                   help="parquet/jsonl/csv with columns qid, query[, limit]")
    s.add_argument("--out", required=True)
    s.add_argument("--concurrency", type=int, default=4)
    s.add_argument("--batch-size", type=int, default=64)
    s.set_defaults(fn=cmd_batch_search)

    s = sub.add_parser("create-index",
                       help="create a committed empty index")
    s.add_argument("--index", required=True)
    s.add_argument("--fields", default="title,content")
    s.add_argument("--store", default="")
    s.add_argument("--lang-column", default=None)
    s.add_argument("--hash-column", default=None)
    s.add_argument("--partitions", type=int, default=32)
    s.set_defaults(fn=cmd_create_index)

    s = sub.add_parser("knn", help="nearest k docs by haversine distance")
    s.add_argument("--index", required=True)
    s.add_argument("--lat", type=float, required=True)
    s.add_argument("--lng", type=float, required=True)
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--units", choices=("m", "km", "mi"), default="m")
    s.add_argument("--max-distance", type=float, default=None)
    s.add_argument("--lat-column", default="lat")
    s.add_argument("--lng-column", default="lng")
    s.set_defaults(fn=cmd_knn, sharded=0)

    s = sub.add_parser("facets-distance",
                       help="match counts per radius bucket around a point")
    s.add_argument("--index", required=True)
    s.add_argument("--lat", type=float, required=True)
    s.add_argument("--lng", type=float, required=True)
    s.add_argument("--ranges", required=True,
                   help="comma-separated radii, e.g. 1,5,10")
    s.add_argument("--units", choices=("m", "km", "mi"), default="m")
    s.add_argument("--query", default="",
                   help="optional text query (default: all docs)")
    s.add_argument("--lat-column", default="lat")
    s.add_argument("--lng-column", default="lng")
    s.set_defaults(fn=cmd_facets_distance, sharded=0)

    s = sub.add_parser("debug-query",
                       help="print the compiled query plan (debug:query): "
                            "arms, per-arm df, partitions read and the "
                            "score-modifier stages search() runs")
    s.add_argument("--index", required=True)
    s.add_argument("query")
    s.add_argument("--mode", default="smart")
    s.add_argument("--fuzzy", action="store_true")
    s.set_defaults(fn=cmd_debug_query, sharded=0)

    s = sub.add_parser("autocomplete",
                       help="prefix completions from the terms dictionary")
    s.add_argument("--index", required=True)
    s.add_argument("prefix")
    s.add_argument("--limit", type=int, default=10)
    s.set_defaults(fn=cmd_autocomplete)

    s = sub.add_parser("wildcard",
                       help="wildcard term query (pa?se / par* / *fix)")
    s.add_argument("--index", required=True)
    s.add_argument("pattern")
    s.add_argument("--limit", type=int, default=10)
    s.add_argument("--max-terms", type=int, dest="max_terms", default=16)
    s.set_defaults(fn=cmd_wildcard)

    s = sub.add_parser("more-like-this",
                       help="docs similar to a doc_id (tf*idf terms -> BM25)")
    s.add_argument("--index", required=True)
    s.add_argument("doc_id", type=int)
    s.add_argument("--limit", type=int, default=10)
    s.add_argument("--max-terms", type=int, dest="max_terms", default=10)
    s.set_defaults(fn=cmd_more_like_this)

    s = sub.add_parser("search-lm",
                       help="LM-Dirichlet (query likelihood) ranking")
    s.add_argument("--index", required=True)
    s.add_argument("query")
    s.add_argument("--limit", type=int, default=10)
    s.add_argument("--mu", type=float, default=2000.0)
    s.set_defaults(fn=cmd_search_lm)

    s = sub.add_parser("term-vectors",
                       help="per-doc term stats (field, term, tf, df)")
    s.add_argument("--index", required=True)
    s.add_argument("doc_id", type=int)
    s.set_defaults(fn=cmd_term_vectors)

    s = sub.add_parser("stats")
    s.add_argument("--index", required=True)
    s.add_argument("--by", default=None)
    s.set_defaults(fn=cmd_stats)

    s = sub.add_parser("optimize")
    s.add_argument("--index", required=True)
    s.set_defaults(fn=cmd_optimize)

    s = sub.add_parser("verify")
    s.add_argument("--index", required=True)
    s.set_defaults(fn=cmd_verify)

    args = p.parse_args(argv)
    try:
        args.fn(args)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    main()
