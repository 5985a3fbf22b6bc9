"""Ray-Data-native inverted-index build.

The reference's indexing path (``Indexer::insert`` →
``SqliteStorage::insertBatch`` → FTS5 internal posting maintenance,
``src/Index/Indexer.php:55-116`` / ``src/Storage/SqliteStorage.php:487-666``)
is a single-process SQLite transaction loop.  Here the same WHAT — tokenize
every field with unicode61 semantics, maintain per-term doc/tf/position
postings, a docstore, and corpus stats — is expressed as a streaming Ray
Data pipeline:

    read (any Dataset with a uint64 ``doc_id``)
      → map_batches(tokenize → (part, term, field, doc_id, tf, positions)
                    — vectorized, zero-copy Arrow; side-write the batch's
                    docstore chunk with each doc's length, docstore.py)
      → groupby("part")                                # THE shuffle
      → map_groups(build + write segment per partition)
      → metrics rows + the new chunks' entries → manifest

The corpus stats (N, total_dl) are sums over the committed chunk
entries (``Manifest.corpus_stats``): doc lengths never ride the shuffle.

Scale design:
- The shuffle key is ``part = siphash(term) % P`` — explicit hash
  partitioning on term.  P (``num_partitions``) bounds per-task memory:
  size it so (total index size / P) fits a worker heap; at 100 TB input
  that means P in the 10^4–10^5 range, not the default 32 used for tests.
- Skew: hot terms (code keywords: ``the``, ``if``, ``return`` …) are
  Zipf-headed; a df-sketch pre-pass (``sketch_hot_terms``) explicitly
  bin-packs the head across partitions by descending df (least-loaded
  first) and persists the placement in the manifest, so no partition
  collects several ultra-hot keywords by hash accident and readers agree
  on placement.  The segment builder additionally merges duplicate
  (term, doc) rows, so sub-partition salting can be layered on later
  without a format change.
- Resume: each partition's segment is written atomically
  (``segment.py``: tmp + rename, dictionary last) and recorded in the
  manifest with lineage + metrics; a resumed build filters
  already-committed partitions out of the shuffle *before* the
  exchange, so finished work costs nothing but the tokenize scan.
- Postings are sorted by doc_id, delta-encoded and packed at a fixed
  width per run (``postings.py``), positions optional (needed for
  phrase/NEAR).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
import pandas as pd
import pyarrow as pa

from . import docstore
from .manifest import Manifest
from .postings import encode_postings, encode_postings_bulk
from .segment import new_segment_id, segment_paths, write_segment
from ..analysis.tokenizer import tokenize_batch, tokenize_batch_dict

# pandas' siphash with this fixed key is deterministic across processes —
# build and query side MUST use the same function.
_HASH_KEY = "0123456789123456"


def term_partition(terms, num_partitions: int,
                   hot_map: dict | None = None) -> np.ndarray:
    """Partition assignment: explicit placement for hot terms (skew
    balancing), hash for the long tail.  ``hot_map`` comes from the build's
    df-sketch pre-pass and is persisted in the manifest so build and query
    always agree."""
    arr = np.asarray(terms, dtype=object)
    parts = (pd.util.hash_array(arr, hash_key=_HASH_KEY) % num_partitions).astype(np.uint32)
    if hot_map:
        mapped = pd.Series(arr).map(hot_map)  # vectorized dict lookup
        hit = mapped.notna().to_numpy()
        if hit.any():
            parts[hit] = mapped.to_numpy()[hit].astype(np.uint32)
    return parts


def sketch_hot_terms(ds, cfg: "IndexConfig", *, sample_docs: int = 2000,
                     top_k: int | None = None, split_df_ratio: float = 0.5,
                     split_ways: int = 4, id_column: str = "doc_id"):
    """df-sketch pre-pass → explicit balanced placement of the Zipf head.

    Takes a deterministic sample of ~``sample_docs`` docs, counts
    per-term df, takes the top ``top_k`` (default 4×P) and greedily
    bin-packs them across partitions by descending df
    (least-loaded-first), so no partition receives several ultra-hot
    code keywords by hash accident.  Sampling is seeded and
    reproducible for a GIVEN corpus layout; the parquet fast path picks
    row groups first (cluster sampling — re-sharding the same bytes can
    pick different groups and thus different hot terms), then thins
    rows uniformly by doc_id hash, so the within-layout sample is
    independent of corpus order, block boundaries and cluster size.
    Placement is persisted in the manifest per build, so reads are
    always self-consistent regardless.

    A prefix sample (``ds.limit`` — and equally ``random_sample`` +
    ``limit``, whose limit keeps the FIRST sampled rows) would
    mis-sketch any corpus whose order correlates with content — on a
    sorted 100 TB corpus a term hot only in the tail would never be
    seen.  The hash filter needs the corpus row count for its rate;
    ``read_parquet_with_doc_ids`` advertises it from the parquet
    footers (``_ys_row_count``) so the common path adds NO extra pass,
    and per-sample-row tokenization + df counting runs distributed
    (``map_batches``) with only small (term, df) partials reaching the
    driver.
    """
    top_k = top_k or cfg.num_partitions * 4
    from ..analysis.tokenizer import tokenize_batch

    fields_cols = [col for _, col in cfg.fields]
    n_total = getattr(ds, "_ys_row_count", None)
    rg_tasks = getattr(ds, "_ys_tasks", None)
    if n_total is None:
        n_total = ds.count()
    if rg_tasks and n_total > sample_docs:
        # parquet path: read ONLY a seeded subset of row groups (projected
        # to the indexed field columns), then thin rows by doc_id hash —
        # the sketch's IO is O(sample), not O(corpus).  Row-group choice
        # is cluster sampling; spreading it over >=8 groups (when the
        # corpus has them) keeps any single group's topical bias bounded,
        # and the within-group hash thinning is uniform.
        import pyarrow.parquet as _pq
        import ray.data as rd

        rng = np.random.default_rng(42)
        order = rng.permutation(len(rg_tasks))
        target_rows = sample_docs * 8
        chosen: list = []
        rows = 0
        for i in order:
            chosen.append(rg_tasks[int(i)])
            rows += int(rg_tasks[int(i)]["nrows"])
            if rows >= target_rows and len(chosen) >= min(8, len(rg_tasks)):
                break
        frac = min(1.0, sample_docs / max(1, rows))
        thresh = np.uint64(int(frac * (1 << 32)))
        read_cols = list(dict.fromkeys(fields_cols))

        def read_sampled(b: pa.Table) -> pa.Table:
            f = b["file"][0].as_py()
            rg = b["rg"][0].as_py()
            off = b["offset"][0].as_py()
            t = _pq.ParquetFile(f).read_row_group(rg, columns=read_cols)
            ids = np.arange(off, off + t.num_rows, dtype=np.uint64)
            h = pd.util.hash_array(ids) % np.uint64(1 << 32)
            return t.filter(pa.array(h < thresh))

        sample = rd.from_items(chosen).map_batches(
            read_sampled, batch_size=1, batch_format="pyarrow")
    elif n_total > sample_docs:
        # generic input: one full pass, but only a hash-thinned uniform
        # subset of rows is tokenized
        thresh = np.uint64(int((sample_docs / n_total) * (1 << 32)))

        def keep(t: pa.Table) -> pa.Table:
            ids = t[id_column].to_numpy(zero_copy_only=False).astype(np.uint64)
            h = pd.util.hash_array(ids) % np.uint64(1 << 32)
            return t.filter(pa.array(h < thresh))

        if id_column in (ds.columns() or []):
            sample = ds.map_batches(keep, batch_format="pyarrow")
        else:  # no stable id to hash on — seeded row sample instead
            sample = ds.random_sample(min(1.0, sample_docs / n_total), seed=42)
    else:
        sample = ds
    _ROWS_KEY = "\x00__sampled_rows__"  # rides the partials; never a token

    def df_partial(t: pa.Table) -> pa.Table:
        terms: list = [_ROWS_KEY]
        dfs: list = [t.num_rows]
        for col in fields_cols:
            texts = t[col].to_pylist()
            tokens, rows, _, _ = tokenize_batch(texts)
            if not tokens:
                continue
            codes, uniq = pd.factorize(np.asarray(tokens, dtype=object))
            # distinct (term, doc) pairs → df per term, all vectorized
            keys = codes.astype(np.int64) * (len(texts) + 1) + rows
            uk = np.unique(keys)
            cnt = np.bincount((uk // (len(texts) + 1)).astype(np.int64),
                              minlength=len(uniq))
            nz = np.flatnonzero(cnt)
            terms.extend(uniq[nz].tolist())
            dfs.extend(cnt[nz].tolist())
        return pa.table({"term": pa.array(terms, pa.string()),
                         "df": pa.array(dfs, pa.int64())})

    partials = [b for b in sample.map_batches(
        df_partial, batch_size=1024, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow")]
    merged = (pa.concat_tables(partials).group_by("term")
              .aggregate([("df", "sum")]) if partials else
              pa.table({"term": pa.array([], pa.string()),
                        "df_sum": pa.array([], pa.int64())}))
    tdf = merged.to_pandas()
    rows_mask = tdf["term"] == _ROWS_KEY
    n_sampled = max(1, int(tdf.loc[rows_mask, "df_sum"].sum()))
    tdf = tdf[~rows_mask]
    # deterministic head: df desc, then term asc breaks ties
    tdf = tdf.sort_values(["df_sum", "term"], ascending=[False, True])
    hot = list(zip(tdf["term"].head(top_k), tdf["df_sum"].head(top_k)))
    loads = np.zeros(cfg.num_partitions, dtype=np.int64)
    hot_map: dict[str, int] = {}
    split_map: dict[str, list[int]] = {}
    # LOAD-RELATIVE split budget (round-5): the fixed >=50%-of-docs rule
    # alone leaves terms with df far above the per-partition mean but
    # below half the corpus UNSPLIT — at the P=1024 / 2.4M-doc rehearsal
    # that put 400x the median row count in the hot tenth of partitions
    # (each Zipf-head keyword's full posting list landed whole).  A term
    # whose sampled df exceeds ~2x the mean per-partition posting mass
    # is split ceil(df / budget) ways instead, which bounds any single
    # partition's share of any term at ~2x the mean regardless of P.
    total_mass = max(1, int(tdf["df_sum"].sum()))
    budget = max(1.0, 2.0 * total_mass / cfg.num_partitions)
    for term, df in hot:
        ways = 1
        if cfg.num_partitions >= split_ways:
            if df >= n_sampled * split_df_ratio:
                # ULTRA-hot term (present in most docs): always split
                ways = split_ways
            # a term cannot be split finer than its sampled docs
            ways = min(max(ways, int(np.ceil(df / budget))),
                       cfg.num_partitions, df)
        if ways >= 2:
            # SPLIT postings across `ways` partitions by doc-hash salt;
            # the reader merges the sub-lists (positions preserved —
            # doc sets are disjoint).  This bounds any single
            # partition's share of a pathological term.
            parts = []
            for _ in range(ways):
                p = int(np.argmin(loads))
                parts.append(p)
                loads[p] += df // ways
            # the least-loaded partition can win twice; listing it twice
            # would make the reader read (and count) its postings twice
            split_map[term] = list(dict.fromkeys(parts))
        else:
            p = int(np.argmin(loads))
            hot_map[term] = p
            loads[p] += df
    return hot_map, split_map


def _empty_lists(n: int) -> pa.ListArray:
    return pa.ListArray.from_arrays(
        pa.array(np.zeros(n + 1, dtype=np.int32), pa.int32()),
        pa.array([], pa.uint32()),
    )


@dataclass
class IndexConfig:
    """Field list is ordered: field_id = position (FTS5 column order)."""

    fields: list  # [(field_name, source_column), ...]
    id_column: str = "doc_id"
    language_column: str | None = None
    store_columns: list = dc_field(default_factory=list)  # extra docstore cols
    num_partitions: int = 32
    positions: bool = True
    content_hash_column: str | None = None  # source col to sha256 into docstore

    def __post_init__(self):
        user = [self.id_column, self.language_column, *self.store_columns,
                *(col for _, col in self.fields)]
        if docstore.DL_COLUMN in user:
            raise ValueError(f"column name {docstore.DL_COLUMN!r} is "
                             f"reserved for the docstore's doc lengths")

    def as_dict(self) -> dict:
        return {
            "fields": [list(f) for f in self.fields],
            "id_column": self.id_column,
            "language_column": self.language_column,
            "store_columns": list(self.store_columns),
            "num_partitions": self.num_partitions,
            "positions": self.positions,
            "content_hash_column": self.content_hash_column,
        }


# --------------------------------------------------------------------------
# docstore (written as a SIDE EFFECT of the single ingest pass)
# --------------------------------------------------------------------------


def _docstore_table(cfg: IndexConfig, t: pa.Table) -> pa.Table:
    out = {cfg.id_column: t[cfg.id_column]}
    for c in cfg.store_columns:
        out[c] = t[c]
    if cfg.language_column and cfg.language_column not in cfg.store_columns:
        out[cfg.language_column] = t[cfg.language_column]
    for fname, col in cfg.fields:
        if col not in out:
            out[col] = t[col]
    if cfg.content_hash_column:
        hashes = [
            hashlib.sha256((s or "").encode("utf-8")).hexdigest()
            for s in t[cfg.content_hash_column].to_pylist()
        ]
        out["sha256"] = pa.array(hashes, pa.string())
    return pa.table(out)


def _write_docstore_chunk(cfg: IndexConfig, index_dir: str, t: pa.Table,
                          dl: np.ndarray, committed: frozenset[str],
                          append: bool) -> None:
    """The batch's docstore chunk and its doc lengths ``dl``: named by
    its doc_id range (each ingest batch covers a contiguous range),
    written tmp+rename — re-execution (a task retry) overwrites the same
    file, and a resume skips a chunk its manifest already ``committed``.
    A committed chunk is never replaced: an append whose batch spans the
    very id range of one repeats its first and last id, and raises.
    The build's commit lists it in the manifest (``docstore.new_chunks``)."""
    ids = t[cfg.id_column].to_numpy(zero_copy_only=False)
    lo, hi = int(ids.min()), int(ids.max())
    name = docstore.chunk_name(lo, hi)
    if name in committed and append:
        raise ValueError(f"append to {index_dir} repeats doc ids it "
                         f"already holds: {sorted({lo, hi})} (committed "
                         f"chunk {name}); nothing was committed")
    if name not in committed:
        docstore.write_chunk(index_dir, _docstore_table(cfg, t),
                             cfg.id_column, dl)


# --------------------------------------------------------------------------
# postings pass
# --------------------------------------------------------------------------


def _emit_postings_batch(cfg: IndexConfig, skip_parts: frozenset[int],
                         index_dir: str | None = None,
                         hot_map: dict | None = None,
                         split_map: dict | None = None,
                         committed_chunks: frozenset[str] = frozenset(),
                         append: bool = False):
    """The single INGEST pass: tokenize → per-partition IPC blobs.

    Per input batch (vectorized, zero-copy Arrow):
    1. tokenizes every field → (term, field, doc_id, tf, positions),
    2. side-writes the batch's docstore chunk (idempotent range file)
       with each doc's length ``dl_total``, the sum of its per-field
       token counts, so BM25 doc lengths and corpus stats come from the
       same single tokenization,
    3. map-side-combines all rows into one Arrow-IPC blob per partition.

    The corpus is read and tokenized exactly once per build.
    """
    nparts = cfg.num_partitions
    want_pos = cfg.positions
    # Flatten the split map once per build task: with the load-relative
    # budget there can be hundreds of split terms, so the per-batch
    # application must be one vectorized map + gather, not a Python
    # loop over split terms.
    if split_map:
        _split_id = {term: i for i, term in enumerate(split_map)}
        _split_offs = np.cumsum(
            [0] + [len(v) for v in split_map.values()]).astype(np.int64)
        _split_flat = np.concatenate(
            [np.asarray(v, dtype=np.uint32) for v in split_map.values()])

    def fn(t: pa.Table) -> pa.Table:
        doc_ids = t[cfg.id_column].to_numpy(zero_copy_only=False).astype(np.uint64)
        dl_total = np.zeros(doc_ids.size, dtype=np.int64)
        parts_out = []
        for fid, (fname, col) in enumerate(cfg.fields):
            # dictionary-coded Arrow tokenization: C-level lower/split/
            # dict-encode; only unique terms surface as Python strings
            codes, uniques, rows, positions, counts = tokenize_batch_dict(
                t[col], doc_ids)
            dl_total += counts
            if codes.size == 0:
                continue
            # aggregate (doc, term) -> tf + position list, all vectorized:
            # lexsort by (term-code, doc, position), find runs
            order = np.lexsort((positions, rows, codes))
            sc, sr, sp = codes[order], rows[order], positions[order]
            run_start = np.empty(sc.size, dtype=bool)
            run_start[0] = True
            np.not_equal(sc[1:], sc[:-1], out=run_start[1:])
            run_start[1:] |= sr[1:] != sr[:-1]
            starts = np.flatnonzero(run_start)
            lens = np.diff(np.append(starts, sc.size))
            terms_arr = uniques[sc[starts]]
            part = term_partition(terms_arr, nparts, hot_map)
            if split_map:
                # skew-splitting: a hot term's rows are salted by doc
                # hash across its assigned partitions (vectorized:
                # term -> split-group id, then ragged-offset gather)
                run_docs = sr[starts]
                sid = pd.Series(terms_arr).map(_split_id).to_numpy()
                m = ~np.isnan(sid)
                if m.any():
                    si = sid[m].astype(np.int64)
                    ways = (_split_offs[si + 1] - _split_offs[si])
                    salt = (run_docs[m]
                            % ways.astype(np.uint64)).astype(np.int64)
                    part[m] = _split_flat[_split_offs[si] + salt]
            cols = {
                "part": pa.array(part, pa.uint32()),
                "term": pa.array(terms_arr.astype(str), pa.string()),
                "field": pa.array(np.full(starts.size, fid, np.int8), pa.int8()),
                "doc_id": pa.array(sr[starts], pa.uint64()),
                "tf": pa.array(lens.astype(np.uint32), pa.uint32()),
            }
            if want_pos:
                offsets = np.append(starts, sc.size).astype(np.int32)
                cols["pos"] = pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()), pa.array(sp, pa.uint32())
                )
            else:
                cols["pos"] = _empty_lists(starts.size)
            parts_out.append(pa.table(cols))
        if index_dir is not None and t.num_rows:
            _write_docstore_chunk(cfg, index_dir, t, dl_total,
                                  committed_chunks, append)
        if not parts_out:
            return _NO_BLOBS
        out_t = pa.concat_tables(parts_out, promote_options="default")
        if skip_parts:
            import pyarrow.compute as pc

            mask = pc.invert(
                pc.is_in(out_t["part"], value_set=pa.array(sorted(skip_parts), pa.uint32()))
            )
            out_t = out_t.filter(mask)
        # MAP-SIDE COMBINE: pack each partition's rows into ONE Arrow-IPC
        # blob so the exchange moves (#batches × P) blob rows instead of
        # millions of posting rows — the groupby's sort and group-split
        # costs then scale with partition count, not corpus size.
        out_t = out_t.sort_by("part")
        pcol = out_t["part"].to_numpy(zero_copy_only=False)
        if pcol.size == 0:
            return _NO_BLOBS
        bstarts = np.flatnonzero(np.r_[True, pcol[1:] != pcol[:-1]])
        bends = np.append(bstarts[1:], pcol.size)
        payload = out_t.drop_columns(["part"])
        parts_col, blobs = [], []
        for s, e in zip(bstarts, bends):
            sl = payload.slice(s, e - s)
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, sl.schema) as w:
                w.write_table(sl)
            parts_col.append(int(pcol[s]))
            blobs.append(sink.getvalue().to_pybytes())
        return pa.table({"part": pa.array(parts_col, pa.uint32()),
                         "blob": pa.array(blobs, pa.large_binary())})

    return fn


_NO_BLOBS = pa.table({"part": pa.array([], pa.uint32()),
                      "blob": pa.array([], pa.large_binary())})

_SEGMENT_METRICS = pa.schema([
    ("part", pa.uint32()), ("rows", pa.int64()), ("terms", pa.int64()),
    ("bytes", pa.int64()), ("seg_id", pa.string())])


def _build_segment(index_dir: str, want_pos: bool, gen: int = 0):
    """Per-partition group → sorted, encoded segment + metrics row.

    Runs inside ``groupby("part").map_groups``: sorts the whole partition by
    (term, field, doc_id), detects term runs, encodes them all in one
    ``encode_postings_bulk`` call and writes them with
    ``segment.write_segment``, whose atomic writes make re-execution
    idempotent — Ray task retries or build resumes can never leave a torn
    segment.
    """

    def fn(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _SEGMENT_METRICS.empty_table()
        part = int(group["part"][0].as_py())
        # unpack the map-side IPC blobs into one posting table
        t = pa.concat_tables(
            pa.ipc.open_stream(b.as_py()).read_all() for b in group["blob"]
        )
        group_rows = t.num_rows
        # --- numpy-centric path: no pyarrow sort_by / filter / to_pandas on
        # the big table (those cost microseconds per row on list columns) ---
        fields = t["field"].to_numpy(zero_copy_only=False)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        tfs = t["tf"].to_numpy(zero_copy_only=False).astype(np.uint64)
        term_col = t["term"].combine_chunks() if t["term"].num_chunks != 1 else t["term"].chunk(0)
        tdict = term_col.dictionary_encode()
        tcodes = tdict.indices.to_numpy(zero_copy_only=False)
        dict_strings = np.asarray(tdict.dictionary.to_pylist(), dtype=object)
        pos_col = t["pos"].combine_chunks() if t["pos"].num_chunks != 1 else t["pos"].chunk(0)
        flat_pos = pos_col.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
        list_offsets = pos_col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        pos_lens = np.diff(list_offsets)

        # rank terms lexicographically so the segment is term-sorted
        # (its dictionary is binary-searched on point lookups)
        dict_order = np.argsort(dict_strings, kind="stable")
        rank = np.empty(dict_order.size, dtype=np.int64)
        rank[dict_order] = np.arange(dict_order.size)
        t_rank = rank[tcodes]
        sidx = np.lexsort((doc_ids, fields, t_rank))  # row order, sorted
        s_rank, s_fields = t_rank[sidx], fields[sidx]
        s_docs, s_tfs = doc_ids[sidx], tfs[sidx]
        have_pos = want_pos and flat_pos.size > 0
        if have_pos:
            # gather positions into sorted-row order, fully vectorized
            lens_s = pos_lens[sidx]
            gstarts = np.repeat(list_offsets[sidx], lens_s)
            within = np.arange(int(lens_s.sum()), dtype=np.int64)
            row_off = np.cumsum(lens_s) - lens_s
            within -= np.repeat(row_off, lens_s)
            flat_sorted = flat_pos[gstarts + within]
            new_offsets = np.concatenate(([0], np.cumsum(lens_s)))
        # run boundaries on (term-rank, field)
        run_start = np.empty(s_rank.size, dtype=bool)
        run_start[0] = True
        np.not_equal(s_rank[1:], s_rank[:-1], out=run_start[1:])
        run_start[1:] |= s_fields[1:] != s_fields[:-1]
        starts = np.flatnonzero(run_start)
        ends = np.append(starts[1:], s_rank.size)

        inv_rank = dict_order  # rank -> dictionary code
        # duplicate (term, doc) rows can only appear with sub-partition
        # salting (not emitted yet) or doc re-adds within one generation;
        # detect affected runs and handle them individually, bulk-encode
        # the rest in one pass per stream (no per-run numpy setup)
        dup_row = np.zeros(s_docs.size, dtype=bool)
        if s_docs.size > 1:
            dup_row[1:] = (s_docs[1:] == s_docs[:-1]) & ~run_start[1:]
        run_idx_of_row = np.cumsum(run_start) - 1
        dup_runs = np.unique(run_idx_of_row[dup_row]) if dup_row.any() else np.empty(0, np.int64)
        dup_set = set(dup_runs.tolist())
        db_l, tb_l, pb_l = encode_postings_bulk(
            s_docs, s_tfs, flat_sorted if have_pos else None, starts, ends)
        out_terms = [dict_strings[inv_rank[s_rank[s]]] for s in starts]
        out_fields = [int(f) for f in s_fields[starts]]
        lens = (ends - starts).astype(np.int64)
        cf_per_run = np.add.reduceat(s_tfs.astype(np.int64), starts)
        out_df = lens.tolist()
        out_cf = cf_per_run.tolist()
        out_docs, out_tfs, out_pos = db_l, tb_l, pb_l
        for ri in dup_set:
            s, e = starts[ri], ends[ri]
            ids, f = s_docs[s:e], s_tfs[s:e]
            uids, inv = np.unique(ids, return_inverse=True)
            fsum = np.zeros(uids.size, dtype=np.uint64)
            np.add.at(fsum, inv, f)
            db, tb, pb = encode_postings(uids, fsum, None)
            out_df[ri] = uids.size
            out_cf[ri] = int(fsum.sum())
            out_docs[ri], out_tfs[ri], out_pos[ri] = db, tb, pb

        seg_id = new_segment_id()
        nbytes = write_segment(index_dir, part, gen, out_terms, out_fields,
                               out_df, out_cf, out_docs, out_tfs, out_pos,
                               seg_id)
        return pa.Table.from_pylist([{
            "part": part, "rows": group_rows, "terms": len(out_terms),
            "bytes": nbytes, "seg_id": seg_id}], schema=_SEGMENT_METRICS)

    return fn


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------


def _appended_chunks(index_dir: str, man: Manifest, gen: int) -> list[dict]:
    """The entries of the chunks an append wrote, for its commit.  If one
    of its doc ids repeats among them or is already committed (or a chunk
    it wrote cannot be read), remove the files the append wrote (its
    chunks and its generation's segments) and raise, a repeat as
    ``ValueError``, so the manifest stays at its last commit."""
    committed = man.docstore_chunks()
    try:
        repeats = docstore.repeated_ids(index_dir, committed,
                                        man.config["id_column"])
        if repeats.size:
            raise ValueError(
                f"append to {index_dir} repeats doc ids it already holds: "
                f"{repeats[:5].tolist()}; nothing was committed")
        new = docstore.new_chunks(index_dir, committed)
    except (ValueError, OSError):
        docstore.remove_chunks(index_dir, docstore.uncommitted_chunks(
            index_dir, committed))
        for part, g, _ in man.partition_entries():
            for path in segment_paths(index_dir, part, g) if g == gen else ():
                if os.path.exists(path):
                    os.remove(path)
        raise
    return new


def build_index(ds, index_dir: str, cfg: IndexConfig, *, resume: bool = False,
                append: bool = False, input_fingerprint: str = "",
                balance_hot_terms: bool = True,
                stats_out: dict | None = None) -> Manifest:
    """Build, resume, or append to an index (uint64 id column required).

    One streaming execution: the ingest pass tokenizes each block once,
    side-writes its docstore chunk, and ships per-partition IPC blobs
    through the term shuffle; nothing is materialized driver-side except
    the per-partition metrics rows.

    - ``resume=True``  — skip partitions already committed (same gen).
    - ``append=True``  — incremental indexing: new docs go into a NEW
      segment generation per partition; readers merge generations per
      term; ``optimize_index`` compacts.  An append whose doc ids repeat,
      or are already committed, raises ``ValueError`` and commits
      nothing.
    - ``balance_hot_terms`` — df-sketch pre-pass assigns the Zipf head to
      explicit partitions (persisted in the manifest) so no partition
      collects several ultra-hot code keywords by hash accident.
    """
    import ray.data  # noqa: F401  (ensures Dataset API available)

    if not (resume or append) and Manifest.exists(index_dir):
        # fresh build over an existing index dir: clear it (it is ours — it
        # has a manifest) so stale segments/docstore files can't mix in
        import shutil

        shutil.rmtree(index_dir)
    skip: frozenset[int] = frozenset()
    committed_chunks: frozenset[str] = frozenset()
    gen = 0
    if (resume or append) and Manifest.exists(index_dir):
        man = Manifest.load(index_dir)
        man.require_current_format()
        if man.data.get("config") != cfg.as_dict():
            raise ValueError("resume/append with different config; use a fresh index_dir")
        gens = man.generations()
        committed_chunks = frozenset(
            c["name"] for c in man.docstore_chunks())
        if append:
            gen = (max(gens) + 1) if gens else 0
        else:
            gen = max(gens) if gens else 0
            skip = frozenset(
                part for part, g, v in man.partition_entries()
                if g == gen and v.get("status") == "committed")
        hot_map = man.data.get("hot_terms") or None
        split_map = man.data.get("split_terms") or None
    else:
        man = Manifest.new(index_dir, cfg.as_dict(), input_fingerprint)
        t_sk = time.perf_counter()
        if balance_hot_terms:
            hot_map, split_map = sketch_hot_terms(ds, cfg)
        else:
            hot_map, split_map = None, None
        sketch_sec = time.perf_counter() - t_sk
        man.data["hot_terms"] = hot_map or {}
        man.data["split_terms"] = split_map or {}
        man.data.setdefault("metrics", {})["sketch_sec"] = round(sketch_sec, 3)
        man.save()
    if not resume:
        # chunks no manifest commits are the leftovers of a write killed
        # before its commit; this build's commit must not list them
        docstore.remove_chunks(index_dir, docstore.uncommitted_chunks(
            index_dir, man.docstore_chunks()))

    # ---- single ingest pass: docstore side-writes (doc lengths included)
    # + term-partitioned shuffle — the corpus is read and tokenized
    # exactly once, in one execution.
    # batch_size=None → whole blocks as batches: block boundaries come from
    # the deterministic source (one block per parquet row group), so the
    # docstore chunk ranges are stable across runs and resumes
    emitted = ds.map_batches(
        _emit_postings_batch(cfg, skip, index_dir, hot_map, split_map,
                             committed_chunks, append),
        batch_format="pyarrow", batch_size=None)
    t_ex = time.perf_counter()
    metrics = (
        emitted.groupby("part")
        .map_groups(_build_segment(index_dir, cfg.positions, gen),
                    batch_format="pyarrow", num_cpus=1)
    )
    # The plan is map -> all-to-all -> tiny metrics reduce: the sort
    # barrier materializes the combined blobs regardless of allocator
    # policy, and the default per-op reservation would idle ~half the
    # cluster (ONE in-flight tokenize task at 4 CPUs) while the blocking
    # sort holds its share — see stages/exec_ctx.py for measurements.
    from ..stages.exec_ctx import unreserved_execution

    with unreserved_execution(metrics):
        for m in metrics.iter_rows():
            man.record_partition(int(m["part"]), gen, {
                "rows": int(m["rows"]), "terms": int(m["terms"]), "bytes": int(m["bytes"]),
                "seg_id": m["seg_id"], "input_fingerprint": input_fingerprint,
            })
    # phase wall-times ride the manifest (north-rule metrics; `iter_rows`
    # above drains the whole ingest+shuffle execution, so this span IS
    # the tokenize→exchange→segment-write pipeline)
    mx = man.data.setdefault("metrics", {})
    mx[f"exchange_sec_gen{gen}"] = round(time.perf_counter() - t_ex, 3)
    if stats_out is not None:  # opt-in: executed-pipeline ds.stats()
        try:
            stats_out["ds_stats"] = metrics.stats()
        except Exception as e:  # stats are evidence, never a failure
            stats_out["ds_stats"] = f"unavailable: {e}"
    # the docstore chunks this build wrote join the committed ones; the
    # stats are their sums
    chunks = man.docstore_chunks()
    new = (_appended_chunks(index_dir, man, gen) if append
           else docstore.new_chunks(index_dir, chunks))
    chunks += [{**c, "gen": gen} for c in new]
    man.finalize(sorted(chunks, key=lambda c: c["lo"]))
    man.save()
    return man
