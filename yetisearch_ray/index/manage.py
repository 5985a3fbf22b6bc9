"""Index management: delete (tombstones), clear, drop, stats, optimize.

Maps the reference's SQLite mutations onto the immutable-segment world:

- ``delete_docs`` / ``delete_by_prefix`` (reference
  ``SqliteStorage::delete`` :703-763 / ``deleteByIdPrefix`` :775-856) →
  TOMBSTONES in the manifest, applied at query time; physical removal
  happens at ``optimize``.
- ``clear_index`` / ``drop_index`` (:1543-1572 / :329-344) → directory
  truncation / removal.
- ``index_stats`` (``getIndexStats`` :1397-1436) → docstore aggregates.
- ``optimize_index`` (``SqliteStorage::optimize`` :1383-1395, the FTS
  'optimize' + VACUUM analogue) → per-partition segment compaction: a
  Ray job that rewrites every posting segment with tombstoned docs
  removed, rewrites the docstore chunks that held them (their doc
  lengths with them), refreshes stats, clears the tombstone list.
  Per-partition tasks, idempotent atomic writes — the same resumability
  story as the build.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import docstore
from .docstore import DocStore
from .manifest import Manifest
from .postings import decode_postings, encode_postings
from .segment import Segment, new_segment_id, segment_paths, write_segment


# ---------------------------------------------------------------- create


def create_empty_index(index_dir: str, cfg) -> "Manifest":
    """Create a committed EMPTY index (reference CLI ``create-index``,
    ``bin/yetisearch:81-90`` — createIndex writes the empty table
    schema).  Searches return 0 rows; later builds append into it
    (``build_index(..., append=True)`` / facade ``index_batch``).

    Writes only the manifest (no partition or chunk is committed, so a
    reader loads no segment or docstore chunk)."""
    if Manifest.exists(index_dir):
        raise FileExistsError(f"index already exists at {index_dir}")
    os.makedirs(os.path.join(index_dir, "docs"), exist_ok=True)
    os.makedirs(os.path.join(index_dir, "postings"), exist_ok=True)
    man = Manifest.new(index_dir, cfg.as_dict(), input_fingerprint="empty")
    man.data["stats"] = {"n_docs": 0, "total_dl": 0, "avgdl": 0.0}
    man.data["status"] = "committed"
    man.save()
    return man


# ---------------------------------------------------------------- deletes


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone documents (applied at query time; physical at optimize)."""
    man = Manifest.load(index_dir)
    tomb = set(man.data.get("tombstones", []))
    before = len(tomb)
    tomb.update(int(d) for d in doc_ids)
    man.data["tombstones"] = sorted(tomb)
    man.data["tombstone_version"] = man.data.get("tombstone_version", 0) + 1
    man.save()
    return len(tomb) - before


def delete_by_prefix(index_dir: str, column: str, prefix: str) -> int:
    """Delete every doc whose ``column`` starts with ``prefix`` (the
    reference's id-prefix purge used for stale chunk cleanup)."""
    man = Manifest.load(index_dir)
    id_col = man.config["id_column"]
    with DocStore.committed(index_dir, man) as store:
        t = store.scan([id_col, column])
    mask = pc.starts_with(pc.cast(t[column], pa.string()), prefix)
    ids = t.filter(mask)[id_col].to_pylist()
    if ids:
        delete_docs(index_dir, ids)
    return len(ids)


def tombstones(index_dir: str) -> set[int]:
    man = Manifest.load(index_dir)
    return set(man.data.get("tombstones", []))


# ---------------------------------------------------------------- lifecycle


def clear_index(index_dir: str) -> None:
    """Remove all data but keep the index dir + manifest shell."""
    man = Manifest.load(index_dir)
    for sub in ("postings", "docs"):
        shutil.rmtree(os.path.join(index_dir, sub), ignore_errors=True)
    man.data["partitions"] = {}
    man.data["docstore"] = {"chunks": []}
    man.data["tombstones"] = []
    man.data["stats"] = {"n_docs": 0, "total_dl": 0, "avgdl": 0.0}
    man.data["status"] = "cleared"
    man.save()


def drop_index(index_dir: str) -> None:
    if Manifest.exists(index_dir):
        shutil.rmtree(index_dir)


def index_stats(index_dir: str, by: str | None = None):
    """Doc count (+ optional per-column value counts, reference
    getIndexStats groups by language/type)."""
    man = Manifest.load(index_dir)
    out = {
        "n_docs": man.stats.get("n_docs", 0),
        "avgdl": man.stats.get("avgdl", 0.0),
        "total_dl": man.stats.get("total_dl", 0),
        "partitions": len(man.data.get("partitions", {})),
        "tombstones": len(man.data.get("tombstones", [])),
    }
    if by:
        with DocStore.committed(index_dir, man) as store:
            t = store.scan([by])
        import pandas as pd

        counts = pd.Series(t[by].to_pylist()).value_counts().to_dict()
        out[f"by_{by}"] = counts
    return out


# ---------------------------------------------------------------- optimize


def _merge_partition(index_dir: str, part: int, gens: list[int],
                     seg_ids: dict, dead: np.ndarray) -> dict:
    """K-way merge of one partition's committed generations into a
    single generation-0 segment under a fresh segment id: group runs by
    (term, field), merge postings positions-preserving, drop tombstoned
    docs, write atomically, then remove the merged-away generations.
    Returns the new entry's terms and seg_id."""
    from .postings import merge_postings

    seg_id = new_segment_id()
    groups: dict[tuple, list] = {}
    for gen in gens:
        with Segment(index_dir, part, gen, seg_ids[part, gen]) as seg:
            for term, _, _, (fid, d, f, p) in seg.runs():
                groups.setdefault((term, fid), []).append(
                    decode_postings(d, f, p))
    out = {c: [] for c in ("term", "field", "df", "cf", "docs", "tfs", "pos")}
    for term, fid in sorted(groups):
        d, f, p = merge_postings(groups[(term, fid)])
        if dead.size:
            keep = ~np.isin(d, dead)
            if not keep.all():
                if p is not None:
                    p = p[np.repeat(keep, f.astype(np.int64))]
                d, f = d[keep], f[keep]
        if d.size == 0:
            continue
        db, tb, pb = encode_postings(d, f, p)
        out["term"].append(term)
        out["field"].append(fid)
        out["df"].append(d.size)
        out["cf"].append(int(f.sum()))
        out["docs"].append(db)
        out["tfs"].append(tb)
        out["pos"].append(pb)
    write_segment(index_dir, part, 0, out["term"], out["field"], out["df"],
                  out["cf"], out["docs"], out["tfs"], out["pos"], seg_id)
    for gen in gens:
        if gen != 0:
            for f in segment_paths(index_dir, part, gen):  # dictionary first
                os.remove(f)
    return {"terms": len(out["term"]), "merged": True, "seg_id": seg_id}


def optimize_index(index_dir: str) -> dict:
    """Segment compaction (the reference's optimize() analogue): merge
    each partition's committed segment generations into one, physically
    apply tombstones (to the segments and to the docstore chunks, doc
    lengths included), refresh stats from the chunks left.  Files the
    manifest does not commit (the leftovers of a write killed before its
    commit) are never read.  One Ray task per partition — idempotent
    atomic writes, same resumability story as the build."""
    import ray

    man = Manifest.load(index_dir)
    man.require_current_format()
    dead = np.array(sorted(man.data.get("tombstones", [])), dtype=np.uint64)
    by_part = {p: sorted(gs) for p, gs in man.segment_generations().items()}
    seg_ids = man.segment_ids()

    @ray.remote
    def compact(part: int, dead_arr: np.ndarray):
        return _merge_partition(index_dir, part, by_part[part], seg_ids,
                                dead_arr)

    dead_ref = ray.put(dead)
    parts = sorted(by_part)
    entries = ray.get([compact.remote(p, dead_ref) for p in parts])
    chunks, stale = man.docstore_chunks(), []
    if dead.size:
        with DocStore.committed(index_dir, man) as store:
            chunks, stale = store.drop_ids(dead)
    man.data["partitions"] = {}
    for p, e in zip(parts, entries):
        man.record_partition(p, 0, e)
    man.data["docstore"] = {"chunks": [{**c, "gen": 0} for c in chunks]}
    man.data["stats"] = man.corpus_stats()
    man.data["tombstones"] = []
    man.data["optimized_at"] = time.time()
    man.save()
    docstore.remove_chunks(index_dir, stale)  # committed: unlisted now
    return {"segments": len(by_part), "docs_removed": int(dead.size),
            "terms_kept": sum(e["terms"] for e in entries)}


def rebuild_index(index_dir: str) -> dict:
    """Rebuild postings from the stored documents (the reference's
    ``rebuildFts`` :1731-1774 / ``Indexer::rebuild`` :181-196): drops all
    segments and re-runs the full build pipeline over the docstore.  Doc
    ids, config, placement maps, doc lengths and stats are re-derived;
    tombstoned docs are dropped in the process.  This is the migration
    of an index in an older format."""
    from .build import IndexConfig, build_index

    man = Manifest.load(index_dir)
    cfg = IndexConfig(**{k: v for k, v in man.config.items() if k != "fields"},
                      fields=[tuple(f) for f in man.config["fields"]])
    dead = set(man.data.get("tombstones", []))

    import ray.data as rd

    # move the docstore aside: the build writes a fresh one
    tmp = os.path.join(index_dir, ".rebuild")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    os.rename(docstore.docs_dir(index_dir), docstore.docs_dir(tmp))
    shutil.rmtree(os.path.join(index_dir, "postings"), ignore_errors=True)
    # a format-5 index kept its doc lengths there; now the chunks do
    shutil.rmtree(os.path.join(index_dir, "doclens"), ignore_errors=True)
    chunks = man.docstore_chunks()
    # the Parquet chunks of a format-2 (or older) index
    paths = [] if chunks else sorted(
        glob.glob(os.path.join(docstore.docs_dir(tmp), "*.parquet")))
    dead_arr = np.array(sorted(dead), dtype=np.uint64)

    def read_chunk(b: pa.Table) -> pa.Table:
        i = b["chunk"][0].as_py()
        if chunks:
            with DocStore(tmp, [chunks[i]], cfg.id_column) as store:
                t = store.scan()
        else:
            t = pq.read_table(paths[i])
        ids = t[cfg.id_column].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(~np.isin(ids, dead_arr)))

    # one block per chunk, so the rebuilt chunks keep their id ranges
    n = len(chunks or paths)
    ds = rd.from_items([{"chunk": i} for i in range(n)],
                       override_num_blocks=max(n, 1)).map_batches(
        read_chunk, batch_size=1, batch_format="pyarrow")
    # NOTE: content_hash_column stays set — re-hashing the stored source
    # column reproduces identical sha256 values, and clearing it would
    # silently drop the column from the rebuilt docstore and persisted
    # config (future appends would stop hashing).
    # fresh manifest + build (docstore chunks re-written from the copy)
    os.remove(os.path.join(index_dir, "manifest.json"))
    man2 = build_index(ds, index_dir, cfg, input_fingerprint="rebuild")
    shutil.rmtree(tmp, ignore_errors=True)
    return {"n_docs": man2.stats["n_docs"], "dropped": len(dead)}
