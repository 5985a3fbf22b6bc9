"""Fixed-width posting-list codec (vectorized with numpy).

Each (term, field) run is three blobs (docs, tfs, pos); ``segment.py``
stores them in zstd-compressed blocks behind a sorted term dictionary,
the counterpart of FTS5's b-tree pages.  A run of ``n`` docs is:

- **docs** — one width byte ``w``, then the ``n`` doc-id deltas (the
  first is the absolute id) as little-endian ``uint{8w}``;
- **tfs** — the ``n`` term frequencies at width ``len(tfs) / n``;
- **pos** — the ``sum(tfs)`` positions, each doc's list delta-encoded
  from its first (absolute) position, at width ``len(pos) / sum(tfs)``;
  empty when the run stores no positions.

Each stream is stored at the narrowest of 1, 2, 4 and 8 bytes that
holds its largest value.  The block compression removes the zero high
bytes a varint codec exists to avoid, so a fixed width costs no bytes
and decodes with one ``np.frombuffer`` and one ``cumsum`` per stream
(block-wise fixed-width packing: Lemire & Boytsov, "Decoding billions
of integers per second through vectorization", SPE 2015).  A stream
whose length or width byte does not fit this layout raises
``ValueError``.
"""

from __future__ import annotations

import numpy as np

_DTYPES = {w: np.dtype(f"<u{w}") for w in (1, 2, 4, 8)}
_WIDTHS = np.array(sorted(_DTYPES), np.int64)
_LIMITS = np.array([1 << 8, 1 << 16, 1 << 32], np.uint64)


def _pack(values: np.ndarray, starts: np.ndarray, ends: np.ndarray,
          header: bool) -> list[bytes]:
    """The bytes of each run ``values[starts[i]:ends[i]]`` at its
    narrowest width, led by the width byte when ``header``.  The runs
    tile ``values`` in order and are not empty unless ``values`` is."""
    lens = ends - starts
    peaks = (np.maximum.reduceat(values, starts) if values.size
             else np.zeros(lens.size, np.uint64))
    widths = _WIDTHS[np.searchsorted(_LIMITS, peaks, side="right")]
    value_widths = np.repeat(widths, lens)
    out = [b""] * lens.size
    for w in np.unique(widths).tolist():
        runs = np.flatnonzero(widths == w)
        buf = values[value_widths == w].astype(_DTYPES[w]).tobytes()
        off = np.concatenate(([0], np.cumsum(lens[runs] * w))).tolist()
        head = bytes((w,)) if header else b""
        for r, a, b in zip(runs.tolist(), off, off[1:]):
            out[r] = head + buf[a:b]
    return out


def _restart_deltas(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Successive differences of ``values``, restarting (the value
    itself) at each of ``starts``."""
    d = values.copy()
    if d.size:
        d[1:] -= values[:-1]
        d[starts] = values[starts]
    return d


def _unpack(blob: bytes, count: int, what: str) -> np.ndarray:
    """The ``count`` values of a headerless stream, at the width its
    length implies."""
    w = len(blob) // count if count else 1  # no values: only b"" fits
    if w not in _DTYPES or w * count != len(blob):
        raise ValueError(f"{what} stream of {len(blob)} bytes does not "
                         f"hold {count} values")
    return np.frombuffer(blob, _DTYPES[w]).astype(np.uint64)


def encode_postings_bulk(docs: np.ndarray, tfs: np.ndarray,
                         positions: np.ndarray | None,
                         run_starts: np.ndarray, run_ends: np.ndarray):
    """Encode many posting runs at once: ``docs``/``tfs`` are row
    arrays and run ``i`` is rows ``[run_starts[i], run_ends[i])``; the
    runs tile the rows in order, each with its docs ascending and
    unique.  ``positions`` is the flat stream of every row's ascending
    positions (group sizes = tfs), or None.  Returns the lists
    (doc_blobs, tf_blobs, pos_blobs), one entry per run."""
    docs = np.ascontiguousarray(docs, dtype=np.uint64)
    tfs = np.ascontiguousarray(tfs, dtype=np.uint64)
    doc_blobs = _pack(_restart_deltas(docs, run_starts), run_starts,
                      run_ends, header=True)
    tf_blobs = _pack(tfs, run_starts, run_ends, header=False)
    if positions is None or len(positions) == 0:
        return doc_blobs, tf_blobs, [b""] * len(doc_blobs)
    pos = np.ascontiguousarray(positions, dtype=np.uint64)
    # row -> offset of its first position
    row_pos = np.concatenate(([0], np.cumsum(tfs, dtype=np.int64)))
    pos_blobs = _pack(_restart_deltas(pos, row_pos[:-1]), row_pos[run_starts],
                      row_pos[run_ends], header=False)
    return doc_blobs, tf_blobs, pos_blobs


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray,
                    positions: np.ndarray | None = None) -> tuple[bytes, bytes, bytes]:
    """Encode one term's posting list (``encode_postings_bulk`` of one
    run): doc_ids ascending and unique, positions (optional) the
    concatenation of per-doc ascending position lists whose group sizes
    are ``tfs``.  Returns (doc_blob, tf_blob, pos_blob)."""
    blobs = encode_postings_bulk(doc_ids, tfs, positions, np.zeros(1, np.int64),
                                 np.array([len(doc_ids)]))
    return tuple(b[0] for b in blobs)


def decode_postings(doc_blob: bytes, tf_blob: bytes, pos_blob: bytes = b""):
    """Decode to (doc_ids, tfs, positions_or_None), all uint64;
    positions is the flat array, its per-doc boundaries given by tfs.
    Raises ``ValueError`` on blobs that do not fit the layout."""
    if not doc_blob or doc_blob[0] not in _DTYPES:
        raise ValueError(f"doc stream width byte {doc_blob[:1]!r} "
                         f"is not one of 1, 2, 4, 8")
    w = doc_blob[0]
    if (len(doc_blob) - 1) % w:
        raise ValueError(f"doc stream of {len(doc_blob) - 1} bytes is not "
                         f"a whole number of {w}-byte values")
    doc_ids = np.cumsum(np.frombuffer(doc_blob, _DTYPES[w], offset=1),
                        dtype=np.uint64)
    tfs = _unpack(tf_blob, doc_ids.size, "tf")
    if not pos_blob:
        return doc_ids, tfs, None
    tf64 = tfs.astype(np.int64)
    full = np.cumsum(_unpack(pos_blob, int(tf64.sum()), "position"),
                     dtype=np.uint64)
    # per-doc running sums: subtract what accumulated before each doc
    before = np.insert(full, 0, 0)[np.cumsum(tf64) - tf64]
    return doc_ids, tfs, full - np.repeat(before, tf64)


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
