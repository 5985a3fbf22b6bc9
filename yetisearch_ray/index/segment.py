"""Posting segments.  Every writer and reader of them goes through this
module.  (Doc lengths are a docstore column: ``docstore.py``.)

A segment ``postings/part=KKKKK-gGGG`` (partition K, generation G) is
two files:

- ``part=KKKKK-gGGG.blk`` — each ``(term, field)`` run's encoded
  ``docs|tfs|pos`` bytes (the ``postings.py`` codec), concatenated in
  ``(term, field)`` order and packed into blocks of about ``BLOCK_SIZE``
  raw bytes, each compressed on its own with zstd.  A run never spans
  two blocks: a run longer than a block gets a block to itself.
- ``part=KKKKK-gGGG.parquet`` — the term dictionary, one row per run,
  sorted by ``(term, field)``: ``term, field, df, cf``, the run's block
  address ``block_off, block_len`` (compressed bytes in the ``.blk``),
  ``block_raw`` (the block's decompressed size), ``run_off`` (the run's
  offset in the decompressed block) and ``docs_len, tfs_len, pos_len``.
  Its schema metadata records the ``.blk`` size.

The ``.blk`` is written first and the dictionary last, each tmp +
rename, so the dictionary is the segment's commit point.  A cold term
fetch is a binary search in the loaded dictionary, one ``os.pread`` and
one block decompress.  This is FTS5's layout (doclists in b-tree pages
behind a term index) and the dictionary-plus-offsets-into-compressed-
lists design of "Highly Efficient String Similarity Search and Join
over Compressed Indexes" (ICDE 2022).

**Identity.**  Both files of one (partition, generation) carry the
same random segment id (``new_segment_id``) in their metadata, and the
manifest's ``gen:part`` entry records it.  The id, not the file
name, identifies a segment: ``optimize_index``, ``rebuild_index``,
``clear_index`` and dropping and re-creating an index all reuse the
``part=KKKKK-gGGG`` names.  A file whose id differs from the one its
reader's manifest commits raises ``CorruptSegmentError``.

**Sharing.**  The resident state of a committed segment — its
dictionary arrays (``TermDictionary``) — is immutable and loaded once
per process: a weak registry keyed by ``(realpath(index_dir), part,
gen, seg_id)`` hands the loaded copy to every reader whose manifest
commits that segment (the reuse of unchanged segments of Lucene's
``openIfChanged``).  ``docstore.py`` shares chunk columns through the
same ``_shared``.

**Lifetime.**  A ``SegmentSet`` takes strong references to the live
entries of its snapshot when it is built and loads and registers the
rest on first touch, so a reader opened after a write reuses what the
reader before it loaded, and an entry lives exactly as long as some
reader holds it; there is no cache size.  Each reader keeps its own
open ``.blk`` per loaded segment, checked against the size and the
file its dictionary addresses, so a segment that is rewritten later
(``optimize_index``) keeps serving the bytes its loaded dictionary
addresses.  ``SegmentSet.close`` releases the descriptors, not the
shared state.

A segment file that is damaged — one that does not parse,
a ``.blk`` of the wrong size, a short read, a block that does not
decompress, a segment id other than its manifest's — raises
``CorruptSegmentError`` naming the partition and generation; a missing
one raises ``FileNotFoundError``.  Neither is ever an empty posting
list.
"""

from __future__ import annotations

import functools
import os
import tempfile
import threading
import uuid
import weakref
from typing import Iterable, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

BLOCK_SIZE = 16 * 1024  # raw bytes per block (larger measured no smaller)

_CODEC = pa.Codec("zstd")
_BLK_SIZE_KEY = b"blk_bytes"
_SEG_ID_KEY = b"seg_id"
_ADDR = ("block_off", "block_len", "block_raw", "run_off",
         "docs_len", "tfs_len", "pos_len")
_SCHEMA = pa.schema([("term", pa.string()), ("field", pa.int8()),
                     ("df", pa.uint32()), ("cf", pa.uint64()),
                     ("block_off", pa.uint64()), ("block_len", pa.uint32()),
                     ("block_raw", pa.uint32()), ("run_off", pa.uint32()),
                     ("docs_len", pa.uint32()), ("tfs_len", pa.uint32()),
                     ("pos_len", pa.uint32())])
_STATS = ("term", "field", "df", "cf")

# one run as read back: (field, docs, tfs, pos) encoded blobs
Record = tuple[int, bytes, bytes, bytes]

# the shared state of committed segments, by (realpath, part, gen, seg_id);
# process-wide on purpose: every reader of the process is to find it, and
# the weak values leave its lifetime to the readers that hold it
_LOCK = threading.Lock()
_DICTIONARIES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class CorruptSegmentError(OSError):
    """A posting segment is present but unreadable."""


def new_segment_id() -> str:
    """A fresh random id: of the files of one (partition, generation),
    or of a docstore chunk."""
    return uuid.uuid4().hex


def segment_name(part: int, gen: int) -> str:
    return f"part={part:05d}-g{gen:03d}"


def segment_paths(index_dir: str, part: int, gen: int) -> tuple[str, str]:
    """(dictionary, blocks) paths of one segment."""
    base = os.path.join(index_dir, "postings", segment_name(part, gen))
    return base + ".parquet", base + ".blk"


def _where(index_dir: str, part: int, gen: int) -> str:
    return (f"partition {part:05d} generation {gen} "
            f"({segment_name(part, gen)} in {index_dir})")


def _root(index_dir: str) -> str:
    return _realpath(os.path.abspath(index_dir))


# realpath costs ~20 us of syscalls and a reader resolves it for each
# segment it touches; the segment id in the key names the content, so a
# symlink re-pointed later only changes which readers share
_realpath = functools.lru_cache(maxsize=64)(os.path.realpath)


def _shared(registry, key, load):
    """The registered state of ``key``, loaded (``load()``) and
    registered if no reader holds it.  Two threads may both load; the
    first to register wins."""
    with _LOCK:
        got = registry.get(key)
    if got is None:
        got = load()
        with _LOCK:
            got = registry.setdefault(key, got)
    return got


def _segment_id(meta, want: str | None, what: str, where: str) -> str:
    """The segment id in a file's schema metadata, checked against
    ``want`` (its manifest's) unless that is None."""
    got = (meta or {}).get(_SEG_ID_KEY, b"").decode()
    if want is not None and got != want:
        raise CorruptSegmentError(
            f"{what} of {where} has segment id {got or 'none'}, its "
            f"manifest commits {want}: rewritten outside a commit")
    return got


def _replace_atomically(path: str, write) -> None:
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".seg-")
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_segment(index_dir: str, part: int, gen: int, terms: list,
                  fields, df, cf, docs: list, tfs: list, pos: list,
                  seg_id: str | None = None) -> int:
    """Write one segment from its runs, given sorted by ``(term,
    field)``: parallel lists of term, field, df, cf and the encoded
    docs / tfs / pos blobs.  ``seg_id`` is the id its manifest entry
    will record (a fresh one by default).  Returns the segment's bytes
    on disk."""
    dict_path, blk_path = segment_paths(index_dir, part, gen)
    n = len(terms)
    lens = [np.fromiter(map(len, b), np.int64, n) for b in (docs, tfs, pos)]
    run_len = (lens[0] + lens[1] + lens[2]).tolist()
    # pack runs into blocks, none split across two
    block_of, run_off, block_raw = [], [], []
    fill = 0
    for ln in run_len:
        if fill and fill + ln > BLOCK_SIZE:
            block_raw.append(fill)
            fill = 0
        block_of.append(len(block_raw))
        run_off.append(fill)
        fill += ln
    if n:
        block_raw.append(fill)
    payload = memoryview(b"".join(
        b for run in zip(docs, tfs, pos) for b in run))
    block_off, block_len = [], []

    def write_blocks(f):
        start = at = 0
        for raw in block_raw:
            z = _CODEC.compress(payload[start:start + raw], asbytes=True)
            f.write(z)
            block_off.append(at)
            block_len.append(len(z))
            start += raw
            at += len(z)

    _replace_atomically(blk_path, write_blocks)
    blk_bytes = sum(block_len)
    b = np.asarray(block_of, np.int64)

    def per_run(per_block):
        return np.asarray(per_block, np.int64)[b]

    table = pa.table([
        pa.array(terms, pa.string()), pa.array(fields, pa.int8()),
        pa.array(df, pa.uint32()), pa.array(cf, pa.uint64()),
        pa.array(per_run(block_off), pa.uint64()),
        pa.array(per_run(block_len), pa.uint32()),
        pa.array(per_run(block_raw), pa.uint32()),
        pa.array(run_off, pa.uint32()), pa.array(lens[0], pa.uint32()),
        pa.array(lens[1], pa.uint32()), pa.array(lens[2], pa.uint32()),
    ], schema=_SCHEMA.with_metadata({
        _BLK_SIZE_KEY: str(blk_bytes),
        _SEG_ID_KEY: seg_id or new_segment_id()}))
    _replace_atomically(dict_path, lambda f: pq.write_table(
        table, f, compression="zstd", use_dictionary=False))
    return blk_bytes + os.path.getsize(dict_path)


class TermDictionary:
    """The resident part of one segment: its dictionary table, the
    sorted terms, fields and run addresses a lookup reads, and the
    ``.blk`` it addresses (size and ``(st_dev, st_ino)``), all
    read-only; shared (see the module docstring)."""

    def __init__(self, path: str, where: str, seg_id: str | None,
                 blk: os.stat_result):
        try:
            with pq.ParquetFile(path) as pf:
                t = pf.read()
            if not t.schema.remove_metadata().equals(_SCHEMA):
                raise ValueError(f"dictionary schema {t.schema}")
            self.blk_bytes = int(t.schema.metadata[_BLK_SIZE_KEY])
        except FileNotFoundError as e:
            raise FileNotFoundError(
                f"term dictionary of {where} missing: the manifest "
                f"commits it") from e
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise CorruptSegmentError(
                f"damaged term dictionary of {where}: {e}") from e
        self.seg_id = _segment_id(t.schema.metadata, seg_id,
                                  "term dictionary", where)
        self.blk_file = (blk.st_dev, blk.st_ino)
        self.table = t
        self.terms = t["term"].to_numpy(zero_copy_only=False)
        self.fields = t["field"].to_numpy()
        self.addr = np.stack([t[c].to_numpy().astype(np.int64)
                              for c in _ADDR], axis=1)
        self.terms.flags.writeable = self.addr.flags.writeable = False


class Segment:
    """One committed segment: its dictionary resident (shared when
    ``seg_id``, its manifest's, is given; else a private, unchecked
    copy), its own ``.blk`` descriptor, its blocks read on demand."""

    def __init__(self, index_dir: str, part: int, gen: int,
                 seg_id: str | None = None):
        self.part, self.gen = part, gen
        dict_path, blk_path = segment_paths(index_dir, part, gen)
        self.where = _where(index_dir, part, gen)
        try:
            self._blk = open(blk_path, "rb", buffering=0)
        except FileNotFoundError as e:
            raise FileNotFoundError(
                f"posting segment of {self.where} missing: the manifest "
                f"commits it") from e
        try:
            st = os.fstat(self._blk.fileno())

            def load():
                return TermDictionary(dict_path, self.where, seg_id, st)

            d = (load() if seg_id is None else _shared(
                _DICTIONARIES, (_root(index_dir), part, gen, seg_id), load))
            if st.st_size != d.blk_bytes:
                raise CorruptSegmentError(
                    f"posting blocks of {self.where} are {st.st_size} "
                    f"bytes, their dictionary addresses {d.blk_bytes}")
            if (st.st_dev, st.st_ino) != d.blk_file:
                raise CorruptSegmentError(
                    f"posting blocks of {self.where} were replaced after "
                    f"their dictionary was loaded")
        except BaseException:
            self._blk.close()
            raise
        self.dictionary = d
        self.seg_id = d.seg_id
        self.table, self.terms, self.fields = d.table, d.terms, d.fields
        self._addr = d.addr

    def __len__(self) -> int:
        return len(self.terms)

    def close(self) -> None:
        self._blk.close()

    def __enter__(self) -> "Segment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _block(self, off: int, clen: int, raw: int) -> bytes:
        buf = os.pread(self._blk.fileno(), clen, off)
        if len(buf) != clen:
            raise CorruptSegmentError(
                f"truncated posting blocks of {self.where}: read "
                f"{len(buf)} of {clen} bytes at offset {off}")
        try:
            out = _CODEC.decompress(buf, decompressed_size=raw, asbytes=True)
        except (OSError, ValueError) as e:
            raise CorruptSegmentError(
                f"damaged posting block of {self.where} at offset "
                f"{off}: {e}") from e
        if len(out) != raw:
            raise CorruptSegmentError(
                f"damaged posting block of {self.where} at offset {off}: "
                f"{len(out)} of {raw} bytes")
        return out

    def _records(self, lo: int, hi: int) -> Iterator[Record]:
        """Runs ``lo..hi`` of the dictionary, each block read once."""
        cur, data = None, b""
        for r in range(lo, hi):
            off, clen, raw, at, nd, nt, npos = self._addr[r].tolist()
            if off != cur:
                cur, data = off, self._block(off, clen, raw)
            yield (int(self.fields[r]), data[at:at + nd],
                   data[at + nd:at + nd + nt],
                   data[at + nd + nt:at + nd + nt + npos])

    def lookup(self, term: str) -> list[Record]:
        """The runs of one term (one per field holding it)."""
        lo = int(np.searchsorted(self.terms, term, "left"))
        hi = int(np.searchsorted(self.terms, term, "right"))
        return list(self._records(lo, hi))

    def runs(self) -> Iterator[tuple[str, int, int, Record]]:
        """Every run in dictionary order: (term, df, cf, record)."""
        df = self.table["df"].to_numpy()
        cf = self.table["cf"].to_numpy()
        for r, rec in enumerate(self._records(0, len(self))):
            yield str(self.terms[r]), int(df[r]), int(cf[r]), rec

    def prefix_rows(self, prefix: str) -> pa.Table:
        """``(term, field, df, cf)`` rows of the terms in
        ``[prefix, prefix + U+FFFF)``, a range of the sorted dictionary."""
        t = self.table.select(_STATS)
        if not prefix:
            return t
        lo = int(np.searchsorted(self.terms, prefix, "left"))
        hi = int(np.searchsorted(self.terms, prefix + "\uffff", "left"))
        return t.slice(lo, hi - lo)


class SegmentSet:
    """The segments one manifest snapshot commits (``part -> gens``, with
    ``seg_ids``: ``(part, gen) -> segment id``).  Each partition's
    dictionaries load on its first touch; what another reader of this
    process already holds is reused (see the module docstring).
    Segments of generations outside the snapshot are never opened."""

    def __init__(self, index_dir: str, part_gens: dict[int, Iterable[int]],
                 seg_ids: dict[tuple[int, int], str] | None = None):
        self.index_dir = index_dir
        self.part_gens = {int(p): sorted(int(g) for g in gs)
                          for p, gs in part_gens.items()}
        self.seg_ids = dict(seg_ids or {})
        self._loaded: dict[int, list[Segment]] = {}
        # strong references to the shared state of this snapshot, taken
        # from the registry now (what other readers hold) or at first load
        self._dictionaries: dict[tuple[int, int], TermDictionary] = {}
        root = _root(index_dir)
        with _LOCK:
            for (p, g), sid in self.seg_ids.items():
                got = _DICTIONARIES.get((root, p, g, sid))
                if got is not None:
                    self._dictionaries[p, g] = got

    def partition(self, part: int) -> list[Segment]:
        segs = self._loaded.get(part)
        if segs is None:
            segs = []
            try:
                for g in self.part_gens.get(part, ()):
                    segs.append(Segment(self.index_dir, part, g,
                                        self.seg_ids.get((part, g))))
            except OSError:
                for seg in segs:
                    seg.close()
                raise
            for seg in segs:
                self._dictionaries[part, seg.gen] = seg.dictionary
            self._loaded[part] = segs
        return segs

    def close(self) -> None:
        """Close every loaded segment's ``.blk``; later reads reopen
        them.  The shared state stays held."""
        for segs in self._loaded.values():
            for seg in segs:
                seg.close()
        self._loaded.clear()

    def records(self, term: str, parts: Iterable[int]) -> list[Record]:
        """A term's runs across ``parts`` and every generation of each."""
        return [rec for p in parts for seg in self.partition(p)
                for rec in seg.lookup(term)]

    def prefix_rows(self, prefix: str = "") -> pa.Table:
        """``(term, field, df, cf)`` dictionary rows of every committed
        segment whose term starts with ``prefix`` (see
        ``Segment.prefix_rows``)."""
        tabs = [seg.prefix_rows(prefix) for p in sorted(self.part_gens)
                for seg in self.partition(p)]
        return (pa.concat_tables(tabs) if tabs
                else _SCHEMA.empty_table().select(_STATS))
