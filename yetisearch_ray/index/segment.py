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
reader's manifest commits raises ``CorruptSegmentError``, saying the
reader's snapshot was superseded if the current manifest has moved on.

**Sharing.**  An open committed segment (``Segment``: its ``.blk``
descriptor and its dictionary arrays, read-only) is one object per
process: a weak registry keyed by ``(realpath(index_dir), part, gen,
seg_id)`` hands it to every reader whose manifest commits that segment
(the reuse of unchanged segments of Lucene's ``openIfChanged``).
``docstore.py`` shares open chunks through the same ``_shared``.

**Lifetime.**  A ``SegmentSet`` takes the live segments of its snapshot
from the registry when it is built and opens the rest on first touch;
a descriptor closes when the last holder drops its segment (no cache
size), and a held segment serves its bytes even after its name is
rewritten (``optimize_index``).  ``close`` drops a set's references; a
``Segment`` built directly (``cli verify``, ``optimize_index``) is
private and closes on ``close``, a registered one only when dropped.

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

from .manifest import Manifest

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

# the open committed segments, by (realpath, part, gen, seg_id);
# process-wide on purpose: every reader of the process is to find them,
# and the weak values leave their lifetime to the readers that hold them
_LOCK = threading.Lock()
_SEGMENTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


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
    """The registered handle of ``key``, opened (``load()``) and
    registered if no reader holds it; a registered handle's ``close``
    does nothing.  Two threads may both open; the first to register
    wins, the other's copy closes as it is dropped."""
    with _LOCK:
        got = registry.get(key)
    if got is None:
        got = load()
        got.shared = True
        with _LOCK:
            got = registry.setdefault(key, got)
    return got


def _superseded(e: OSError, index_dir: str, what: str,
                still_commits) -> OSError:
    """``e``, raised opening ``what`` of a reader's snapshot, or one of
    its type saying so if the index's current manifest ``m`` no longer
    commits it (``still_commits(m)`` is false)."""
    try:
        if still_commits(Manifest.load(index_dir)):
            return e
    except (OSError, ValueError):
        return e
    return type(e)(f"{what} of {index_dir}: the snapshot of this reader "
                   f"was superseded by a later commit; open the index again")


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
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
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


class Segment:
    """One committed segment, open: its ``.blk`` descriptor and its
    dictionary table, sorted terms, fields and run addresses, read-only
    (``seg_id``, its manifest's, checked when given)."""

    shared = False

    def __init__(self, index_dir: str, part: int, gen: int,
                 seg_id: str | None = None):
        self.part, self.gen = part, gen
        dict_path, blk_path = segment_paths(index_dir, part, gen)
        self.where = _where(index_dir, part, gen)
        try:
            self._fd = os.open(blk_path, os.O_RDONLY | os.O_CLOEXEC)
        except FileNotFoundError as e:
            raise FileNotFoundError(
                f"posting segment of {self.where} missing: the manifest "
                f"commits it") from e
        # closes the descriptor once no one holds the segment
        self._close = weakref.finalize(self, os.close, self._fd)
        try:
            self._load(dict_path, seg_id)
            size = os.fstat(self._fd).st_size
            if size != self.blk_bytes:
                raise CorruptSegmentError(
                    f"posting blocks of {self.where} are {size} bytes, "
                    f"their dictionary addresses {self.blk_bytes}")
        except BaseException:
            self._close()
            raise

    def _load(self, path: str, seg_id: str | None) -> None:
        try:
            with pq.ParquetFile(path) as pf:
                t = pf.read()
            if not t.schema.remove_metadata().equals(_SCHEMA):
                raise ValueError(f"dictionary schema {t.schema}")
            self.blk_bytes = int(t.schema.metadata[_BLK_SIZE_KEY])
        except FileNotFoundError as e:
            raise FileNotFoundError(
                f"term dictionary of {self.where} missing: the manifest "
                f"commits it") from e
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise CorruptSegmentError(
                f"damaged term dictionary of {self.where}: {e}") from e
        self.seg_id = _segment_id(t.schema.metadata, seg_id,
                                  "term dictionary", self.where)
        self.table = t
        self.terms = t["term"].to_numpy(zero_copy_only=False)
        self.fields = t["field"].to_numpy()
        self._addr = np.stack([t[c].to_numpy().astype(np.int64)
                               for c in _ADDR], axis=1)
        self.terms.flags.writeable = self._addr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.terms)

    def close(self) -> None:
        """Close a private segment's descriptor (not a registered one's)."""
        if not self.shared:
            self._close()

    def __enter__(self) -> "Segment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _block(self, off: int, clen: int, raw: int) -> bytes:
        buf = os.pread(self._fd, clen, off)
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
    ``seg_ids``: ``(part, gen) -> segment id``), each opened on its
    partition's first touch unless another reader of this process holds
    it (see the module docstring).  Segments of generations outside the
    snapshot are never opened."""

    def __init__(self, index_dir: str, part_gens: dict[int, Iterable[int]],
                 seg_ids: dict[tuple[int, int], str] | None = None):
        self.index_dir = index_dir
        self.part_gens = {int(p): sorted(int(g) for g in gs)
                          for p, gs in part_gens.items()}
        self.seg_ids = dict(seg_ids or {})
        self._root = _root(index_dir)
        # the segments this set holds, by (part, gen): taken from the
        # registry now (what other readers hold) or at first touch
        with _LOCK:
            self._held: dict[tuple[int, int], Segment] = {
                pg: seg for pg, sid in self.seg_ids.items()
                if (seg := _SEGMENTS.get((self._root, *pg, sid)))
                is not None}

    def _acquire(self, part: int, gen: int) -> Segment:
        sid = self.seg_ids.get((part, gen))
        if sid is None:
            return Segment(self.index_dir, part, gen)
        try:
            return _shared(_SEGMENTS, (self._root, part, gen, sid),
                           lambda: Segment(self.index_dir, part, gen, sid))
        except (FileNotFoundError, CorruptSegmentError) as e:
            raise _superseded(e, self.index_dir, f"posting segment "
                              f"{segment_name(part, gen)}", lambda m:
                              m.segment_ids().get((part, gen)) == sid) from e

    def partition(self, part: int) -> list[Segment]:
        segs = []
        for g in self.part_gens.get(part, ()):
            seg = self._held.get((part, g))
            if seg is None:
                seg = self._held[part, g] = self._acquire(part, g)
            segs.append(seg)
        return segs

    def close(self) -> None:
        """Drop this set's segments (closing the private ones); later
        reads re-acquire them."""
        for seg in self._held.values():
            seg.close()
        self._held.clear()

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
