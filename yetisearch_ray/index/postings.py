"""Delta + varbyte posting-list codec (vectorized with numpy).

FTS5 keeps its postings in delta/varint-compressed doclists inside SQLite
b-tree pages (public FTS5 file-format docs); we use the same classic
encoding: little-endian base-128 varints with the high bit as
continuation, doc_ids delta-encoded (first absolute), term frequencies
raw varints, and positions as per-document delta-encoded ordinal lists
whose group sizes are the tfs.  Each (term, field) run is three blobs
(docs, tfs, pos); ``segment.py`` stores them in compressed blocks behind
a sorted term dictionary, the counterpart of FTS5's b-tree pages.

Encode and decode are numpy-vectorized — no per-integer Python loop — so
the posting-build `map_groups` stage and the query actor's decode path
stay off the Python bytecode hot path.
"""

from __future__ import annotations

import numpy as np

_MASK = np.uint64(0x7F)


def varbyte_encode(values: np.ndarray) -> bytes:
    """Encode a uint64 array as little-endian base-128 varints."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    # bytes needed per value: ceil(bitlen/7), min 1
    nbits = np.zeros(v.shape, dtype=np.int64)
    tmp = v.copy()
    nb = np.ones(v.shape, dtype=np.int64)
    tmp >>= np.uint64(7)
    while tmp.any():
        nb += (tmp > 0).astype(np.int64)
        tmp >>= np.uint64(7)
    del nbits
    total = int(nb.sum())
    out = np.empty(total, dtype=np.uint8)
    # position of each value's first byte
    starts = np.cumsum(nb) - nb
    # write up to 10 rounds (64/7 -> max 10 bytes)
    remaining = v.copy()
    active = np.ones(v.shape, dtype=bool)
    offset = np.zeros(v.shape, dtype=np.int64)
    while active.any():
        idx = starts[active] + offset[active]
        byte = (remaining[active] & _MASK).astype(np.uint8)
        more = offset[active] < (nb[active] - 1)
        out[idx] = np.where(more, byte | np.uint8(0x80), byte)
        remaining[active] >>= np.uint64(7)
        offset[active] += 1
        active = offset < nb
    return out.tobytes()


def varbyte_decode(buf: bytes, count: int | None = None) -> np.ndarray:
    """Decode varints into a uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.flatnonzero(b < 128)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # group index per byte + offset within group
    gidx = np.searchsorted(ends, np.arange(b.size))
    within = np.arange(b.size) - starts[gidx]
    contrib = (b.astype(np.uint64) & _MASK) << (np.uint64(7) * within.astype(np.uint64))
    vals = np.add.reduceat(contrib, starts)
    if count is not None:
        assert vals.size == count, f"decoded {vals.size} != expected {count}"
    return vals


def delta_encode(sorted_ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(sorted_ids, dtype=np.uint64)
    out = ids.copy()
    out[1:] = ids[1:] - ids[:-1]
    return out


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    return np.cumsum(np.asarray(deltas, dtype=np.uint64), dtype=np.uint64)


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray,
                    positions: np.ndarray | None = None) -> tuple[bytes, bytes, bytes]:
    """Encode one term's posting list.

    doc_ids must be sorted ascending; positions (optional) is the
    concatenation of per-doc position lists whose group sizes are ``tfs``
    (ascending within each doc).
    Returns (doc_blob, tf_blob, pos_blob).
    """
    doc_blob = varbyte_encode(delta_encode(doc_ids))
    tf_blob = varbyte_encode(np.asarray(tfs, dtype=np.uint64))
    if positions is None or len(positions) == 0:
        return doc_blob, tf_blob, b""
    pos = np.asarray(positions, dtype=np.uint64)
    tfs64 = np.asarray(tfs, dtype=np.int64)
    group_starts = np.cumsum(tfs64) - tfs64
    deltas = pos.copy()
    deltas[1:] = pos[1:] - pos[:-1]
    deltas[group_starts] = pos[group_starts]  # restart delta at each doc
    return doc_blob, tf_blob, varbyte_encode(deltas)


def decode_postings(doc_blob: bytes, tf_blob: bytes, pos_blob: bytes = b""):
    """Decode to (doc_ids, tfs, positions_or_None). positions is the flat
    array; per-doc boundaries are reconstructed from tfs."""
    doc_ids = delta_decode(varbyte_decode(doc_blob))
    tfs = varbyte_decode(tf_blob, count=doc_ids.size)
    positions = None
    if pos_blob:
        deltas = varbyte_decode(pos_blob)
        tfs64 = tfs.astype(np.int64)
        starts = np.cumsum(tfs64) - tfs64
        full = np.cumsum(deltas, dtype=np.uint64)
        # per-group cumsum = full cumsum minus the value accumulated before
        # each group's first element
        carry_per_group = np.zeros(tfs64.size, dtype=np.uint64)
        if starts.size > 1:
            carry_per_group[1:] = full[starts[1:] - 1]
        positions = full - np.repeat(carry_per_group, tfs64)
    return doc_ids, tfs, positions


def merge_postings(parts):
    """Merge posting lists with disjoint (or duplicated) doc sets —
    segment-generation merge.  ``parts`` is a list of
    (doc_ids, tfs, positions_or_None); returns the merged triple with
    doc_ids sorted, duplicate doc_ids tf-summed (positions dropped for
    duplicates only), and positions preserved otherwise (vectorized
    group gather, no per-doc loop)."""
    parts = [p for p in parts if p[0].size]
    if not parts:
        return (np.empty(0, np.uint64), np.empty(0, np.uint64), None)
    if len(parts) == 1:
        return parts[0]
    docs = np.concatenate([p[0] for p in parts])
    tfs = np.concatenate([p[1] for p in parts])
    have_pos = all(p[2] is not None for p in parts)
    order = np.argsort(docs, kind="stable")
    docs, tfs_o = docs[order], tfs[order]
    if docs.size > 1 and np.any(docs[1:] == docs[:-1]):
        # duplicates across generations (re-added doc): sum tfs, drop pos
        uids, inv = np.unique(docs, return_inverse=True)
        agg = np.zeros(uids.size, dtype=np.uint64)
        np.add.at(agg, inv, tfs_o)
        return uids, agg, None
    if not have_pos:
        return docs, tfs_o, None
    flat = np.concatenate([p[2] for p in parts])
    lens_all = np.concatenate([p[1] for p in parts]).astype(np.int64)
    starts_all = np.cumsum(lens_all) - lens_all
    lens_o = lens_all[order]
    gstarts = np.repeat(starts_all[order], lens_o)
    within = np.arange(int(lens_o.sum()), dtype=np.int64)
    row_off = np.cumsum(lens_o) - lens_o
    within -= np.repeat(row_off, lens_o)
    return docs, tfs_o, flat[gstarts + within]


def _varbyte_encode_with_lengths(values: np.ndarray):
    """varbyte encode + per-value byte lengths (for bulk slicing)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.empty(0, dtype=np.int64)
    tmp = v.copy()
    nb = np.ones(v.shape, dtype=np.int64)
    tmp >>= np.uint64(7)
    while tmp.any():
        nb += (tmp > 0).astype(np.int64)
        tmp >>= np.uint64(7)
    total = int(nb.sum())
    out = np.empty(total, dtype=np.uint8)
    starts = np.cumsum(nb) - nb
    remaining = v.copy()
    active = np.ones(v.shape, dtype=bool)
    offset = np.zeros(v.shape, dtype=np.int64)
    while active.any():
        idx = starts[active] + offset[active]
        byte = (remaining[active] & _MASK).astype(np.uint8)
        more = offset[active] < (nb[active] - 1)
        out[idx] = np.where(more, byte | np.uint8(0x80), byte)
        remaining[active] >>= np.uint64(7)
        offset[active] += 1
        active = offset < nb
    return out.tobytes(), nb


def encode_postings_bulk(docs: np.ndarray, tfs: np.ndarray,
                         positions: np.ndarray | None,
                         run_starts: np.ndarray, run_ends: np.ndarray):
    """Encode MANY posting runs at once (one varbyte pass per stream,
    per-run output via byte-offset slicing — no per-run numpy setup).

    ``docs``/``tfs`` are the partition's sorted row arrays; runs are
    [run_starts[i], run_ends[i]) slices with docs sorted ascending and
    UNIQUE within each run (callers handle duplicate-doc runs separately).
    ``positions`` is the flat per-doc-sorted position stream aligned with
    rows (group sizes = tfs).  Returns (doc_blobs, tf_blobs, pos_blobs)
    lists of bytes per run.
    """
    docs = np.ascontiguousarray(docs, dtype=np.uint64)
    tfs64 = np.ascontiguousarray(tfs, dtype=np.uint64)
    n = docs.size
    # doc deltas with restart at each run start
    deltas = docs.copy()
    deltas[1:] -= docs[:-1]
    deltas[run_starts] = docs[run_starts]
    doc_buf, doc_nb = _varbyte_encode_with_lengths(deltas)
    tf_buf, tf_nb = _varbyte_encode_with_lengths(tfs64)
    doc_off = np.concatenate(([0], np.cumsum(doc_nb)))
    tf_off = np.concatenate(([0], np.cumsum(tf_nb)))
    doc_blobs = [doc_buf[doc_off[s]:doc_off[e]] for s, e in zip(run_starts, run_ends)]
    tf_blobs = [tf_buf[tf_off[s]:tf_off[e]] for s, e in zip(run_starts, run_ends)]
    if positions is None or positions.size == 0:
        empty = b""
        return doc_blobs, tf_blobs, [empty] * len(doc_blobs)
    pos = np.ascontiguousarray(positions, dtype=np.uint64)
    t64 = tfs64.astype(np.int64)
    doc_pos_starts = np.cumsum(t64) - t64          # per-row group start
    pdeltas = pos.copy()
    pdeltas[1:] -= pos[:-1]
    pdeltas[doc_pos_starts] = pos[doc_pos_starts]  # restart per doc
    pos_buf, pos_nb = _varbyte_encode_with_lengths(pdeltas)
    pos_val_off = np.concatenate(([0], np.cumsum(pos_nb)))
    # run boundary in the position stream = group start of the run's first row
    run_pos_starts = doc_pos_starts[run_starts]
    run_pos_ends = np.where(run_ends < n, doc_pos_starts[np.minimum(run_ends, n - 1)],
                            pos.size)
    run_pos_ends[run_ends >= n] = pos.size
    pos_blobs = [pos_buf[pos_val_off[s]:pos_val_off[e]]
                 for s, e in zip(run_pos_starts, run_pos_ends)]
    return doc_blobs, tf_blobs, pos_blobs
