"""Top-level facade mirroring the reference's ``YetiSearch`` API surface
(``src/YetiSearch.php``): named indexes under one root directory, with
``create_index / index / index_batch / search / suggest / count / delete /
optimize / clear / drop / stats / search_multiple`` entry points — so a
user of the reference maps their calls one-to-one.

Each named index is a directory under ``root``; engines are cached per
index.  Document ingestion accepts plain dicts (the reference's
associative-array documents): they are normalized into an Arrow table and
APPENDED as a new segment generation (the streaming-batch analogue of the
reference's transactional upsert)."""

from __future__ import annotations

import os
from typing import Any, Iterable

import numpy as np
import pandas as pd
import pyarrow as pa


class YetiSearchRay:
    def __init__(self, root: str, *, default_config: dict | None = None):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._engines: dict[str, Any] = {}
        # name -> the reader of the last released engine, kept open
        # until engine(name) has opened its replacement, which reuses
        # its open segments and chunks (index/segment.py)
        self._retired: dict[str, Any] = {}
        self._configs: dict[str, Any] = {}
        self.default_config = default_config or {}
        self.last_assigned_ids: list[int] = []

    def _dir(self, name: str) -> str:
        return os.path.join(self.root, name)

    # ------------------------------------------------------------- admin
    def create_index(self, name: str, *, fields: list[str] | None = None,
                     language_column: str | None = None,
                     store_columns: list[str] | None = None,
                     num_partitions: int = 8,
                     content_hash_column: str | None = None):
        from .index.build import IndexConfig

        fields = fields or ["title", "content"]
        cfg = IndexConfig(
            fields=[(f, f) for f in fields],
            language_column=language_column,
            store_columns=store_columns or list(fields),
            num_partitions=num_partitions,
            content_hash_column=content_hash_column,
        )
        self._configs[name] = cfg
        return cfg

    def index_exists(self, name: str) -> bool:
        from .index.manifest import Manifest

        return Manifest.exists(self._dir(name))

    def drop(self, name: str) -> None:
        from .index.manage import drop_index

        drop_index(self._dir(name))
        self._release_engine(name, keep_reader=False)

    def clear(self, name: str) -> None:
        from .index.manage import clear_index

        clear_index(self._dir(name))
        self._release_engine(name)

    def optimize(self, name: str) -> dict:
        from .index.manage import optimize_index

        out = optimize_index(self._dir(name))
        self._release_engine(name)
        return out

    def stats(self, name: str, by: str | None = None) -> dict:
        from .index.manage import index_stats

        return index_stats(self._dir(name), by=by)

    # ------------------------------------------------------------ ingest
    def _docs_to_table(self, cfg, docs: Iterable[dict], next_id: int) -> pa.Table:
        rows = []
        seq = 0
        body_col = cfg.fields[-1][1]
        for d in docs:
            content = d.get("content", d)
            row = {cfg.id_column: np.uint64(d.get("doc_id", next_id + seq))}
            seq += 1
            for fname, col in cfg.fields:
                row[col] = str(content.get(fname, d.get(fname, "")) or "")
            for c in cfg.store_columns:
                if c not in row:
                    row[c] = d.get(c, (d.get("metadata") or {}).get(c))
            if cfg.language_column and cfg.language_column not in row:
                row[cfg.language_column] = d.get("language", d.get(cfg.language_column))
            rows.append(row)
            # pre-chunked ingest (reference Indexer.php:269-325): chunks
            # become their own rows — body replaced by the chunk text,
            # other fields inherited; chunk metadata keys are available
            # to any store_columns that declare them
            for n, ch in enumerate(d.get("chunks") or []):
                crow = dict(row)
                crow[cfg.id_column] = np.uint64(next_id + seq)
                seq += 1
                if isinstance(ch, dict):
                    cmeta = ch.get("metadata") or {}
                    ctext = ch.get("content")
                    if isinstance(ctext, dict):
                        for fname, col in cfg.fields:
                            if fname in ctext:
                                crow[col] = str(ctext[fname] or "")
                    else:
                        crow[body_col] = str(ctext or "")
                    for k, v in cmeta.items():
                        if k in cfg.store_columns:
                            crow[k] = v
                else:
                    crow[body_col] = str(ch or "")
                for k, v in (("parent_id", row[cfg.id_column]),
                             ("chunk_index", n), ("is_chunk", True)):
                    if k in cfg.store_columns:
                        crow[k] = v
                rows.append(crow)
        df = pd.DataFrame(rows)
        t = pa.Table.from_pandas(df, preserve_index=False)
        idx = t.schema.get_field_index(cfg.id_column)
        import pyarrow.compute as pc

        return t.set_column(idx, cfg.id_column, pc.cast(t[cfg.id_column], pa.uint64()))

    def index_batch(self, name: str, docs: list[dict]) -> int:
        """Add documents (append generation). Returns docs indexed."""
        return len(self._append_docs(name, docs))

    def _append_docs(self, name: str, docs: list[dict]) -> list[int]:
        """Append ``docs`` and return the assigned doc_ids (local value,
        not shared instance state — interleaved callers each get their
        own ids; ``last_assigned_ids`` is kept only as a convenience
        mirror for the reference's getLastInsertId-style introspection)."""
        import ray.data as rd

        from .index.build import build_index
        from .index.manifest import Manifest

        cfg = self._configs.get(name) or self.create_index(name, **self.default_config)
        idx_dir = self._dir(name)
        next_id = 0
        append = False
        if Manifest.exists(idx_dir):
            man = Manifest.load(idx_dir)
            if man.data.get("status") == "committed":
                append = True
                # SQLite's default rowid rule: one past the largest id
                # the docstore holds, so no live id is handed out twice
                next_id = max((c["hi"] + 1 for c in man.docstore_chunks()),
                              default=0)
        t = self._docs_to_table(cfg, docs, next_id)
        ds = rd.from_arrow(t)
        build_index(ds, idx_dir, cfg, append=append, balance_hot_terms=False,
                    input_fingerprint=f"facade:{len(docs)}")
        self._release_engine(name)
        ids = [int(i) for i in t[cfg.id_column].to_pylist()]
        self.last_assigned_ids = ids
        return ids

    index = index_batch  # single-doc convenience: pass a 1-element list

    # ------------------------------------------------------------ query
    def engine(self, name: str, **kwargs):
        from .search.engine import SearchEngine, open_index

        key = name
        eng = self._engines.get(key)
        if eng is None:
            # config hook 'persistent_cache': true (or a dict of
            # QueryCache options) attaches on-disk query + fuzzy-term
            # caches that survive the process (reference stores both in
            # SQLite / a JSON side-file; yetisearch_ray.state)
            pc_cfg = self.default_config.get("persistent_cache")
            if pc_cfg and "persistent_cache" not in kwargs:
                from .state import FuzzyTermCache, PersistentQueryCache

                opts = pc_cfg if isinstance(pc_cfg, dict) else {}
                kwargs["persistent_cache"] = PersistentQueryCache(
                    os.path.join(self.root, "_query_cache.db"), **opts)
                kwargs["persistent_fuzzy_cache"] = FuzzyTermCache(
                    name, self.root)
            eng = SearchEngine(open_index(self._dir(name)), **kwargs)
            self._engines[key] = eng
            self._retired.pop(name, None)
        return eng

    def search(self, name: str, query: str, **kwargs) -> pa.Table:
        return self.engine(name).search(query, **kwargs)

    def count(self, name: str, query: str, **kwargs) -> int:
        return self.engine(name).count(query, **kwargs)

    def suggest(self, name: str, query: str, **kwargs) -> pa.Table:
        return self.engine(name).suggest(query, **kwargs)

    def delete(self, name: str, doc_ids) -> int:
        from .index.manage import delete_docs

        n = delete_docs(self._dir(name), doc_ids)
        self._release_engine(name)
        return n

    def search_multiple(self, names: list[str], query: str, **kwargs) -> pa.Table:
        from .search.engine import SearchEngine

        return SearchEngine.search_multiple(
            {n: self.engine(n) for n in names}, query, **kwargs)

    multi_search = search_multiple  # reference multiSearch alias

    # --------------------------------------------- reference API parity
    # (thin wrappers over existing machinery; src/YetiSearch.php lines
    #  cited per method)
    def index_document(self, name: str, doc: dict) -> int:
        """Single-document ingest (indexDocument, :245-256)."""
        return self.index_batch(name, [doc])

    def update_document(self, name: str, doc_id: int, doc: dict) -> int:
        """updateDocument / update (:277-297).  The reference upserts in
        place because SQLite replaces rows; segments here are immutable,
        so update = append the new content under a FRESH doc_id
        (returned) + tombstone the old doc_id.  External identity, if
        any, lives in a stored column (doc_id-native contract, SURVEY
        §2.1); ``optimize`` physically drops the tombstoned copy.

        The doc_id must name a LIVE document (KeyError otherwise,
        matching the reference contract) — tombstoning an id that never
        existed would both append a duplicate and permanently undercount
        count_documents.  The append happens BEFORE the tombstone so a
        failed append leaves the old document intact (atomic from the
        reader's perspective: never a window with neither version)."""
        from .index.manifest import Manifest

        doc_id = int(doc_id)
        idx_dir = self._dir(name)
        if not Manifest.exists(idx_dir):
            raise KeyError(f"index {name!r} does not exist")
        man = Manifest.load(idx_dir)
        if doc_id in set(man.data.get("tombstones", [])) or \
                not self._doc_exists(idx_dir, man, doc_id):
            raise KeyError(
                f"doc_id {doc_id} is not a live document in {name!r}")
        d = dict(doc)
        d.pop("doc_id", None)  # a fresh id is assigned on append
        new_id = self._append_docs(name, [d])[0]
        self.delete(name, [doc_id])
        return new_id

    @staticmethod
    def _doc_exists(idx_dir: str, man, doc_id: int) -> bool:
        """Point-lookup the docstore for one id (one batch decoded)."""
        from .index.docstore import DocStore

        id_col = man.config["id_column"]
        with DocStore.committed(idx_dir, man) as store:
            return store.gather([doc_id], [id_col]).num_rows > 0

    def delete_by_id_prefix(self, name: str, column: str, prefix: str) -> int:
        """deleteByIdPrefix (:377-394) — the reference prefixes its
        string external ids; doc_ids here are dense integers, so the
        prefix applies to a stored STRING column (e.g. ``path``)."""
        from .index.manage import delete_by_prefix

        n = delete_by_prefix(self._dir(name), column, prefix)
        self._release_engine(name)
        return n

    def rebuild(self, name: str) -> dict:
        """rebuildFts (:396-406): repopulate postings from the docstore."""
        from .index.manage import rebuild_index

        out = rebuild_index(self._dir(name))
        self._release_engine(name)
        return out

    def count_documents(self, name: str) -> int:
        """Live document count (countDocuments, :331-343):
        manifest n_docs minus tombstones."""
        from .index.manage import tombstones
        from .index.manifest import Manifest

        man = Manifest.load(self._dir(name))
        return int(man.stats.get("n_docs", 0)) - len(tombstones(self._dir(name)))

    def list_indices(self) -> list[str]:
        """Named indexes under the root (listIndices, :672-676)."""
        from .index.manifest import Manifest

        return sorted(
            d for d in os.listdir(self.root)
            if Manifest.exists(self._dir(d)))

    # ------------------------------------------------------ cache ops
    # (getCacheStats / clearCache / warmUpCache, :423-471)
    def cache_stats(self, name: str) -> dict:
        return self.engine(name).cache_stats()

    def clear_cache(self, name: str) -> None:
        self.engine(name).clear_cache()

    def warm_up_cache(self, name: str, popular_queries: list[str]) -> dict:
        """Run each query once so its result is cached; returns
        per-query wall seconds (the reference returns timings too)."""
        import time

        eng = self.engine(name)
        out = {}
        for q in popular_queries:
            t0 = time.perf_counter()
            eng.search(q)
            out[q] = round(time.perf_counter() - t0, 6)
        return out

    def query(self, name: str):
        """Fluent query builder bound to this index (query/execute,
        :504-670) — ``ys.query("idx").query("x").limit(5).execute()``."""
        from .dsl.builder import QueryBuilder

        return QueryBuilder(self.engine(name))

    # reference method-name aliases (YetiSearch.php)
    get_search_engine = engine            # getSearchEngine (:486)
    generate_suggestions = suggest        # generateSuggestions (:473)
    drop_index = drop                     # dropIndex (:141)
    rebuild_fts = rebuild                 # rebuildFts (:396)

    def _release_engine(self, name: str, keep_reader: bool = True) -> None:
        """Drop a cached engine AFTER flushing its persistent tiers —
        a bare pop() loses pending fuzzy-cache entries and leaks the
        query cache's SQLite connection.  The reader is kept unclosed
        (``keep_reader``) until the next ``engine(name)`` has opened its
        replacement, which takes over the files it holds."""
        if not keep_reader:
            self._retired.pop(name, None)
        eng = self._engines.pop(name, None)
        if eng is None:
            return
        fz = getattr(eng, "_fuzzy", None)
        if fz is not None and getattr(fz, "_persistent", None) is not None:
            try:
                fz._persistent.save()
            except Exception:
                pass
        pq_cache = getattr(eng, "_persistent", None)
        if pq_cache is not None:
            try:
                pq_cache.close()
            except Exception:
                pass
        if keep_reader:
            self._retired[name] = eng.index
        else:
            eng.index.close()

    def close(self) -> None:
        """Flush persistent cache tiers and release cached engines
        (reference ``close()`` :678 saves the fuzzy cache file)."""
        for name in list(self._engines):
            self._release_engine(name)
        self._retired.clear()
