"""Row-addressable docstore: Arrow IPC chunks of small zstd record
batches.  Every reader and writer of ``docs/`` goes through this module
(the one exception is ``manage.rebuild_index``, which reads the Parquet
chunks of format-2 indexes to rebuild them).

A chunk ``docs/docs-LLLLLLLLLLLL-HHHHHHHHHHHH.arrow`` holds the stored
rows of one ingest batch, ids ``L..H``.  It is an Arrow IPC file
(Feather v2): rows sorted by id, written as record batches of
``DOC_ROWS`` rows, each buffer zstd-compressed.  The schema metadata
(``_META_KEY``, JSON) records the chunk's row count, the batch size,
each batch's first and last id, the sum of its doc lengths and a random
chunk id.  A chunk is written tmp + rename and named by its id range.

**Doc lengths.**  This module is the only owner of a document's length
(``dl``, uint32: the sum of its per-field token counts, BM25's ``D``).
It is a column of the doc's chunk under the reserved name
``DL_COLUMN``, which ``schema``, ``gather`` and ``scan``'s default
projection leave out, so stored rows read back as they were written.
The corpus stats are sums over the chunk entries (rows and ``sum_dl``,
``Manifest.corpus_stats``).  This is FTS5's ``%_docsize``: each row's
token counts kept next to the row, keyed by rowid.

The manifest commits the chunk list (name, rows, id range, bytes,
``sum_dl``, chunk id, generation; ``Manifest.docstore_chunks``), so a
reader opens only the chunks of its own snapshot.  A gather of ``k``
ids is a search of the chunk ranges, then of the hit chunk's batch
ranges, and one ``get_batch`` per hit batch: it decodes at most ``k``
batches of ``DOC_ROWS`` rows.  A column load reads only that column's
buffers (``included_fields``).  This is the dictionary-plus-offsets-
into-compressed-units layout ``segment.py`` gives postings.

**Sharing.**  An open committed chunk (``_Chunk``: its map, IPC reader,
batch ranges and the ``[id, col]`` columns read of it, ``[id, dl]``
for every query) is one object per process, held by every reader whose
manifest commits it through a weak registry keyed by
``(realpath(index_dir), chunk name, chunk id)``, as ``segment.py``
shares segments, with the same lifetime: a map closes when the last
holder drops its chunk.  A chunk whose entry has no chunk id
(``new_chunks``, a format-5 chunk) is private.

Damage fails loudly and never reads as absent rows: a committed chunk
that is missing raises ``FileNotFoundError``; a chunk that does not
parse, whose metadata is missing or disagrees with the manifest (its
chunk id too: a chunk rewritten under its own name), or whose batch
holds other ids than its metadata says raises ``CorruptSegmentError``
naming the chunk and its id range.  An entry without a chunk id (a
format-5 chunk, which only ``manage.rebuild_index`` reads) is opened
unchecked.
"""

from __future__ import annotations

import json
import os
import weakref
from typing import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .manifest import Manifest
from .segment import (_LOCK, CorruptSegmentError, _replace_atomically,
                      _root, _shared, _superseded, new_segment_id)

# rows per record batch.  Halving it speeds a gather less than it slows
# a column load (4-CPU host, 50k-doc docstore: a batch decodes in 0.23 ms
# at 64 rows vs 0.30 at 128, a [doc_id, lang] load takes 40 vs 26 ms)
DOC_ROWS = 128

# the doc-length column of every chunk; no user column may take its name
DL_COLUMN = "_yetisearch_dl"

_META_KEY = b"yetisearch.docstore"
_WRITE = pa.ipc.IpcWriteOptions(compression="zstd")
_ARROW_ERRORS = (pa.ArrowException, OSError, ValueError, KeyError, TypeError)

# the open committed chunks, by (realpath, chunk name, chunk id);
# process-wide on purpose, as segment._SEGMENTS
_CHUNKS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def chunk_name(lo: int, hi: int) -> str:
    return f"docs-{lo:012d}-{hi:012d}.arrow"


def docs_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "docs")


def _entry(name: str, rows: int, lo: int, hi: int, nbytes: int,
           sum_dl: int, chunk_id: str) -> dict:
    return {"name": name, "rows": rows, "lo": lo, "hi": hi, "bytes": nbytes,
            "sum_dl": sum_dl, "chunk_id": chunk_id}


def write_chunk(index_dir: str, table: pa.Table, id_column: str,
                dl) -> dict:
    """Write ``table`` (unique ids) and its rows' doc lengths ``dl`` as
    one chunk named by its id range, under a fresh chunk id; returns its
    manifest entry (without the generation)."""
    dl = np.asarray(dl, np.uint32)
    t = (table.append_column(DL_COLUMN, pa.array(dl, pa.uint32()))
         .sort_by(id_column).combine_chunks())
    ids = t[id_column].to_numpy(zero_copy_only=False).astype(np.uint64)
    batches = t.to_batches(max_chunksize=DOC_ROWS)
    starts = np.arange(0, ids.size, DOC_ROWS)
    sum_dl, chunk_id = int(dl.sum(dtype=np.uint64)), new_segment_id()
    meta = {"rows": int(ids.size), "batch_rows": DOC_ROWS,
            "lo": ids[starts].tolist(),
            "hi": ids[np.minimum(starts + DOC_ROWS, ids.size) - 1].tolist(),
            "sum_dl": sum_dl, "chunk_id": chunk_id}
    lo, hi = int(ids[0]), int(ids[-1])
    name = chunk_name(lo, hi)
    schema = t.schema.with_metadata({_META_KEY: json.dumps(meta)})
    path = os.path.join(docs_dir(index_dir), name)

    def write(f):
        with pa.ipc.new_file(f, schema, options=_WRITE) as w:
            for b in batches:
                w.write_batch(b)

    _replace_atomically(path, write)
    return _entry(name, int(ids.size), lo, hi, os.path.getsize(path),
                  sum_dl, chunk_id)


def uncommitted_chunks(index_dir: str, committed: Iterable[dict]
                       ) -> list[str]:
    """Names of the chunk files in ``docs/`` that ``committed`` does not
    list, sorted by id."""
    d = docs_dir(index_dir)
    known = {c["name"] for c in committed}
    return sorted(n for n in (os.listdir(d) if os.path.isdir(d) else ())
                  if n.startswith("docs-") and n.endswith(".arrow")
                  and n not in known)


def _span(name: str) -> tuple[int, int]:
    """The id range a chunk's name records."""
    lo, hi = (int(x) for x in name[5:-6].split("-"))
    return lo, hi


def new_chunks(index_dir: str, committed: Iterable[dict]) -> list[dict]:
    """Entries of the chunks in ``docs/`` that ``committed`` does not
    list, sorted by id: what a build wrote, for its commit."""
    d = docs_dir(index_dir)
    out = []
    for name in uncommitted_chunks(index_dir, committed):
        lo, hi = _span(name)
        with _Chunk(d, {"name": name, "lo": lo, "hi": hi}) as ch:
            out.append(_entry(name, ch.rows, lo, hi,
                              os.path.getsize(ch.path), ch.sum_dl,
                              ch.chunk_id))
    return out


def repeated_ids(index_dir: str, committed: list[dict],
                 id_column: str) -> np.ndarray:
    """The sorted doc ids that the chunks ``committed`` does not list
    (what a build wrote) hold more than once between them or that one of
    the ``committed`` entries holds too.  Reads the ids of the new
    chunks, unchecked (a new chunk may hold an id twice, even across two
    of its batches), and of the committed chunks whose id range overlaps
    one of theirs."""
    d = docs_dir(index_dir)
    names = uncommitted_chunks(index_dir, committed)
    spans = [_span(n) for n in names]
    near = [c for c in committed
            if any(c["lo"] <= hi and lo <= c["hi"] for lo, hi in spans)]
    ids = [np.empty(0, np.uint64)]
    for name in names:
        with pa.memory_map(os.path.join(d, name)) as m:
            col = pa.ipc.open_file(m).schema.get_field_index(id_column)
            t = pa.ipc.open_file(
                m, options=_read_options(included_fields=[col])).read_all()
            ids.append(t[id_column].to_numpy(zero_copy_only=False)
                       .astype(np.uint64))
    for c in near:
        with _Chunk(d, c) as ch:
            ids.append(ch.column(id_column, id_column)[0])
    ids = np.sort(np.concatenate(ids))
    return np.unique(ids[1:][ids[1:] == ids[:-1]])


def remove_chunks(index_dir: str, names: Iterable[str]) -> None:
    for name in names:
        os.remove(os.path.join(docs_dir(index_dir), name))


def _hits(ids: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Indexes of the ranges ``[lo, hi]`` that hold one of the sorted
    ``ids``."""
    return np.flatnonzero(np.searchsorted(ids, lo, "left")
                          < np.searchsorted(ids, hi, "right"))


class _Chunk:
    """One open chunk: memory-mapped, its footer and metadata parsed,
    and the ``[id, col]`` columns read of it so far (``column``)."""

    shared = False

    def __init__(self, d: str, entry: dict):
        self.name, self.lo, self.hi = entry["name"], entry["lo"], entry["hi"]
        self.path = os.path.join(d, self.name)
        self.where = (f"docstore chunk {self.name} (ids {self.lo}.."
                      f"{self.hi}) in {d}")
        self._columns: dict = {}  # col -> (ids, values, Arrow type)
        if not os.path.exists(self.path):
            raise FileNotFoundError(
                f"{self.where} missing: the manifest commits it")
        self._map = pa.memory_map(self.path)
        try:
            self._reader = pa.ipc.open_file(self._map, options=_read_options())
            self.schema = self._reader.schema
            meta = json.loads(self.schema.metadata[_META_KEY])
            self.rows, self.batch_rows = int(meta["rows"]), int(meta["batch_rows"])
            self.batch_lo = np.asarray(meta["lo"], np.uint64)
            self.batch_hi = np.asarray(meta["hi"], np.uint64)
            self.sum_dl, self.chunk_id = meta.get("sum_dl"), meta.get("chunk_id")
        except _ARROW_ERRORS as e:
            self._map.close()
            raise CorruptSegmentError(f"damaged {self.where}: {e!r}") from e
        n = self._reader.num_record_batches
        bad = self._check_metadata(entry, n)
        if bad:
            self._map.close()
            raise CorruptSegmentError(f"damaged {self.where}: {bad}")
        self.schema = self.schema.remove_metadata()

    def _check_metadata(self, entry: dict, n: int) -> str | None:
        lo, hi = self.batch_lo, self.batch_hi
        if self.batch_rows < 1 or not (
                lo.size == hi.size == n == -(-self.rows // self.batch_rows)):
            return (f"{n} batches of {self.rows} rows, metadata ranges "
                    f"for {lo.size}")
        if entry.get("rows", self.rows) != self.rows:
            return f"{self.rows} rows, the manifest commits {entry['rows']}"
        want = entry.get("chunk_id")
        if want is not None and self.chunk_id != want:
            return (f"chunk id {self.chunk_id or 'none'}, the manifest "
                    f"commits {want}: rewritten outside a commit")
        if n and (int(lo[0]) != self.lo or int(hi[-1]) != self.hi
                  or (lo > hi).any() or (lo[1:] <= hi[:-1]).any()):
            return "batch ranges do not tile the chunk's id range"
        return None

    def close(self) -> None:
        """Unmap a private chunk (not a registered one)."""
        if not self.shared:
            self._map.close()

    def __enter__(self) -> "_Chunk":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def batch(self, i: int, id_column: str) -> pa.RecordBatch:
        """Record batch ``i``, checked against its metadata range."""
        try:
            b = self._reader.get_batch(i)
            ids = b.column(id_column).to_numpy(zero_copy_only=False)
        except _ARROW_ERRORS as e:
            raise CorruptSegmentError(
                f"damaged batch {i} of {self.where}: {e!r}") from e
        want = min(self.batch_rows, self.rows - i * self.batch_rows)
        if not (ids.size == want and int(ids[0]) == self.batch_lo[i]
                and int(ids[-1]) == self.batch_hi[i]
                and (np.diff(ids.astype(np.int64)) > 0).all()):
            got = f"ids {ids[0]}..{ids[-1]}" if ids.size else "no rows"
            raise CorruptSegmentError(
                f"damaged batch {i} of {self.where}: {ids.size} rows, "
                f"{got}; its metadata says {want} rows, ids "
                f"{self.batch_lo[i]}..{self.batch_hi[i]}")
        return b

    def read(self, columns: list[str]) -> pa.Table:
        """Only ``columns``' buffers of every batch."""
        idx = [self.schema.get_field_index(c) for c in columns]
        if -1 in idx:
            raise CorruptSegmentError(
                f"damaged {self.where}: no column {columns[idx.index(-1)]!r}")
        try:
            r = pa.ipc.open_file(self._map,
                                 options=_read_options(included_fields=idx))
            t = r.read_all()
        except _ARROW_ERRORS as e:
            raise CorruptSegmentError(f"damaged {self.where}: {e!r}") from e
        if t.num_rows != self.rows:
            raise CorruptSegmentError(
                f"damaged {self.where}: read {t.num_rows} of {self.rows} rows")
        return t.replace_schema_metadata(None)

    def check_ids(self, ids: np.ndarray) -> None:
        """Raise unless ``ids`` ascend strictly from ``lo`` to ``hi``."""
        if (int(ids[0]) != self.lo or int(ids[-1]) != self.hi
                or (np.diff(ids.astype(np.int64)) <= 0).any()):
            raise CorruptSegmentError(
                f"damaged {self.where}: its ids do not ascend strictly "
                f"from {self.lo} to {self.hi}")

    def column(self, id_column: str, col: str
               ) -> tuple[np.ndarray, np.ndarray, pa.DataType]:
        """``[id, col]`` of the chunk, read once: ids (ascending,
        checked) and values, read-only, and the column's Arrow type."""
        got = self._columns.get(col)
        if got is None:
            t = self.read(list(dict.fromkeys((id_column, col))))
            ids = (t[id_column].to_numpy(zero_copy_only=False)
                   .astype(np.uint64, copy=False))
            self.check_ids(ids)
            values = t[col].to_numpy(zero_copy_only=False)
            ids.flags.writeable = values.flags.writeable = False
            got = self._columns.setdefault(
                col, (ids, values, t.schema.field(col).type))
        return got


def _read_options(**kw) -> pa.ipc.IpcReadOptions:
    # one thread: the buffers decoded are small, a pool only adds
    # dispatch (4-CPU host, 50k-doc docstore: 10 random batches 3.2 vs
    # 4.6 ms, a [doc_id, lang] load 25 vs 43 ms with threads)
    return pa.ipc.IpcReadOptions(use_threads=False, **kw)


class DocStore:
    """The chunks one manifest snapshot commits, each opened (memory
    mapped) on first touch unless another reader of this process holds
    it (see the module docstring)."""

    def __init__(self, index_dir: str, chunks: list[dict], id_column: str):
        self.index_dir = index_dir
        self.id_column = id_column
        self.chunks = sorted(chunks, key=lambda c: c["lo"])
        self._lo = np.array([c["lo"] for c in self.chunks], np.uint64)
        self._hi = np.array([c["hi"] for c in self.chunks], np.uint64)
        self._root = _root(index_dir)
        # the chunks this store holds, by index: taken from the registry
        # now (what other readers hold) or at first touch
        with _LOCK:
            self._held: dict[int, _Chunk] = {
                i: ch for i, c in enumerate(self.chunks) if c.get("chunk_id")
                and (ch := _CHUNKS.get((self._root, c["name"],
                                        c["chunk_id"]))) is not None}

    @classmethod
    def committed(cls, index_dir: str, manifest: Manifest | None = None,
                  max_generation: int | None = None) -> "DocStore":
        """The chunks the index's manifest (or ``manifest``) commits,
        optionally up to ``max_generation``."""
        man = manifest or Manifest.load(index_dir)
        return cls(index_dir, man.docstore_chunks(max_generation),
                   man.config["id_column"])

    def chunk(self, i: int) -> _Chunk:
        ch = self._held.get(i)
        if ch is None:
            ch = self._held[i] = self._acquire(self.chunks[i])
        return ch

    def _acquire(self, c: dict) -> _Chunk:
        d, cid = docs_dir(self.index_dir), c.get("chunk_id")
        if not cid:
            return _Chunk(d, c)
        try:
            return _shared(_CHUNKS, (self._root, c["name"], cid),
                           lambda: _Chunk(d, c))
        except (FileNotFoundError, CorruptSegmentError) as e:
            raise _superseded(e, self.index_dir, f"docstore chunk {c['name']}",
                              lambda m: (c["name"], cid) in {
                                  (x["name"], x.get("chunk_id"))
                                  for x in m.docstore_chunks()}) from e

    def close(self) -> None:
        """Drop this store's chunks (unmapping the private ones); later
        reads re-acquire them."""
        for ch in self._held.values():
            ch.close()
        self._held.clear()

    def __enter__(self) -> "DocStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def schema(self) -> pa.Schema:
        """Stored columns and types of the first chunk, ``DL_COLUMN``
        left out (empty without chunks)."""
        s = self.chunk(0).schema if self.chunks else pa.schema([])
        i = s.get_field_index(DL_COLUMN)
        return s if i < 0 else s.remove(i)

    def _plan(self, columns) -> tuple[list[str], list[str], pa.Schema]:
        """Output columns, columns to read (the id added) and their
        schema, typed by the first chunk."""
        cols = self.schema.names if columns is None else list(columns)
        read = cols if self.id_column in cols else cols + [self.id_column]
        if not self.chunks:  # an empty index: nothing to type them by
            return cols, read, pa.schema([(c, pa.null()) for c in read])
        first = self.chunk(0).schema
        return cols, read, pa.schema([first.field(c) for c in read])

    def gather(self, ids, columns=None) -> pa.Table:
        """Stored rows whose id is in ``ids``, in docstore order:
        absent ids are omitted, a repeated id adds no rows, and the
        projection is applied last (a table without columns still counts
        its rows; none carries the chunks' metadata).  Decodes only the
        batches whose range holds an id."""
        want = np.unique(np.asarray(ids, dtype=np.uint64))
        cols, read, read_schema = self._plan(columns)
        pieces = []
        for ci in _hits(want, self._lo, self._hi):
            ch = self.chunk(int(ci))
            for bi in _hits(want, ch.batch_lo, ch.batch_hi):
                b = ch.batch(int(bi), self.id_column)
                bids = (b.column(self.id_column).to_numpy(zero_copy_only=False)
                        .astype(np.uint64, copy=False))
                rows = np.searchsorted(bids, want)
                rows = rows[(rows < bids.size)
                            & (bids[np.minimum(rows, bids.size - 1)] == want)]
                if rows.size:
                    b = b.select(read)
                    # a run of rows (one, typically) is a zero-copy slice
                    b = (b.slice(rows[0], rows.size)
                         if rows[-1] - rows[0] + 1 == rows.size
                         else b.take(rows))
                    t = pa.Table.from_batches([b])
                    pieces.append(t if t.schema.equals(read_schema)
                                  else t.cast(read_schema))
        out = (pa.concat_tables(pieces) if pieces
               else read_schema.empty_table())
        return out.replace_schema_metadata(None).select(cols)

    def scan(self, columns=None) -> pa.Table:
        """Every stored row in docstore order (chunk by chunk, each in
        id order), reading only ``columns``."""
        cols, read, read_schema = self._plan(columns)
        pieces = [read_schema.empty_table()]
        for i in range(len(self.chunks)):
            ch = self.chunk(i)
            t = ch.read(read).select(read)
            ch.check_ids(t[self.id_column].to_numpy(zero_copy_only=False))
            pieces.append(t if t.schema.equals(read_schema)
                          else t.cast(read_schema))
        return pa.concat_tables(pieces).select(cols)

    def column_arrays(self, col: str) -> tuple[np.ndarray, np.ndarray]:
        """(ids, values) of ``col`` (``DL_COLUMN`` too) for every row in
        docstore order, concatenated from the chunks' columns.
        Raises ``KeyError`` for a column the store does not have."""
        if not self.chunks:
            return (np.empty(0, np.uint64),
                    np.empty(0, np.uint32 if col == DL_COLUMN else object))
        typ = self.chunk(0).schema.field(col).type
        parts = [self.chunk(i).column(self.id_column, col)
                 for i in range(len(self.chunks))]
        ids = np.concatenate([p[0] for p in parts])
        if all(p[2] == typ for p in parts):
            return ids, np.concatenate([p[1] for p in parts])
        # appends that typed the column otherwise: cast as a scan does
        return ids, self.scan([col])[col].to_numpy(zero_copy_only=False)

    def chunk_ids(self, i: int) -> np.ndarray:
        """Ids of chunk ``i``, read batch by batch through the checks
        a gather makes (``cli verify``)."""
        ch = self.chunk(i)
        return np.concatenate([
            ch.batch(b, self.id_column).column(self.id_column)
            .to_numpy(zero_copy_only=False).astype(np.uint64)
            for b in range(ch.batch_lo.size)])

    def drop_ids(self, dead: np.ndarray) -> tuple[list[dict], list[str]]:
        """Rewrite the chunks holding one of the sorted ``dead`` ids
        without them, each under a fresh chunk id.  Returns the new
        chunk list (an emptied chunk leaves it) and the names of the
        files that list no longer holds, to remove once it is
        committed."""
        dead_set = pa.array(dead, pa.uint64())
        out, stale = [], []
        for i, c in enumerate(self.chunks):
            if (np.searchsorted(dead, c["hi"], "right")
                    == np.searchsorted(dead, c["lo"], "left")):
                out.append(c)
                continue
            ch = self.chunk(i)
            t = ch.read(ch.schema.names)
            t = t.filter(pc.invert(pc.is_in(t[self.id_column],
                                            value_set=dead_set)))
            if t.num_rows == c["rows"]:
                out.append(c)
                continue
            if not t.num_rows:
                stale.append(c["name"])
                continue
            e = write_chunk(self.index_dir, t.drop_columns([DL_COLUMN]),
                            self.id_column, t[DL_COLUMN].to_numpy())
            out.append({**c, **e})
            if e["name"] != c["name"]:  # else replaced in place
                stale.append(c["name"])
        return out, stale
