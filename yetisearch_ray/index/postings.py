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

Decoding and the generation merge each come in two halves: a doc/tf
half (``decode_docs``, ``merge_docs``), which also checks the length of
the position stream but keeps it packed, and a position half
(``decode_positions``, ``merge_positions``), which expands it.  A reader
fetches a term with the first half and runs the second only when a
phrase, NEAR or span arm reads the term's positions
(``search/engine.py`` ``Posting``); ``optimize_index`` runs both at once
(``manage._merge_partition``), and ``decode_postings`` is the eager
decode of one run (``cli verify``).
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


def _width(blob: bytes, count: int, what: str) -> np.dtype:
    """The value type of a headerless stream of ``count`` values: the
    width its length implies, which must be one of 1, 2, 4, 8."""
    w = len(blob) // count if count else 1  # no values: only b"" fits
    if w not in _DTYPES or w * count != len(blob):
        raise ValueError(f"{what} stream of {len(blob)} bytes does not "
                         f"hold {count} values")
    return _DTYPES[w]


def _unpack(blob: bytes, count: int, what: str) -> np.ndarray:
    """The ``count`` values of a headerless stream, at the width its
    length implies."""
    return np.frombuffer(blob, _width(blob, count, what)).astype(np.uint64)


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


def decode_docs(doc_blob: bytes, tf_blob: bytes, pos_blob: bytes = b""):
    """The doc/tf half of ``decode_postings``: (doc_ids, tfs, packed),
    where ``packed`` is ``pos_blob`` itself (None when empty), its length
    checked against the tfs but its positions not expanded
    (``decode_positions`` does that).  Raises ``ValueError`` on blobs
    that do not fit the layout, as ``decode_postings`` does."""
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
    _width(pos_blob, int(tfs.sum()), "position")
    return doc_ids, tfs, pos_blob


def _per_doc_sums(deltas: np.ndarray, tfs: np.ndarray) -> np.ndarray:
    """Positions from their deltas, each doc's list summed from its
    first (absolute) position; per-doc boundaries given by ``tfs``."""
    tf64 = tfs.astype(np.int64)
    full = np.cumsum(deltas, dtype=np.uint64)
    # per-doc running sums: subtract what accumulated before each doc
    before = np.insert(full, 0, 0)[np.cumsum(tf64) - tf64]
    return full - np.repeat(before, tf64)


def decode_positions(packed: bytes, tfs: np.ndarray) -> np.ndarray:
    """The position half of ``decode_postings``: the flat uint64
    positions of a stream ``decode_docs`` checked, per-doc boundaries
    given by ``tfs``."""
    return _per_doc_sums(_unpack(packed, int(tfs.sum()), "position"), tfs)


def decode_postings(doc_blob: bytes, tf_blob: bytes, pos_blob: bytes = b""):
    """Decode to (doc_ids, tfs, positions_or_None), all uint64;
    positions is the flat array, its per-doc boundaries given by tfs.
    Raises ``ValueError`` on blobs that do not fit the layout."""
    doc_ids, tfs, packed = decode_docs(doc_blob, tf_blob, pos_blob)
    return doc_ids, tfs, (None if packed is None
                          else decode_positions(packed, tfs))


def merge_docs(parts):
    """The doc/tf half of the generation merge of posting lists with
    disjoint (or repeated) doc sets: ``parts`` is a list of
    ``decode_docs`` triples (doc_ids, tfs, packed positions or None).
    Returns (doc_ids, tfs, runs): doc_ids sorted, a doc id repeated
    across parts tf-summed, and ``runs`` what ``merge_positions`` needs.
    ``runs`` is None when the merged list keeps no positions: a part
    stores none, or a doc id repeats (one repeat drops the positions of
    the whole list, not only the repeated doc's).  Else it is (the
    packed positions of each non-empty part, source), with ``source``
    the index in that list of the part each merged doc came from (None
    for one part)."""
    parts = [p for p in parts if p[0].size]
    if not parts:
        return np.empty(0, np.uint64), np.empty(0, np.uint64), None
    have_pos = all(p[2] is not None for p in parts)
    if len(parts) == 1:
        doc_ids, tfs, pos = parts[0]
        return doc_ids, tfs, ([pos], None) if have_pos else None
    docs = np.concatenate([p[0] for p in parts])
    tfs = np.concatenate([p[1] for p in parts])
    order = np.argsort(docs, kind="stable")
    docs, tfs = docs[order], tfs[order]
    if np.any(docs[1:] == docs[:-1]):
        # a doc re-added in a later generation: sum its tfs; its
        # positions in the two runs cannot be told apart, so the merged
        # list keeps none
        uids, inv = np.unique(docs, return_inverse=True)
        agg = np.zeros(uids.size, dtype=np.uint64)
        np.add.at(agg, inv, tfs)
        return uids, agg, None
    if not have_pos:
        return docs, tfs, None
    labels = np.arange(len(parts), dtype=np.min_scalar_type(len(parts) - 1))
    source = np.repeat(labels, [p[0].size for p in parts])[order]
    return docs, tfs, ([p[2] for p in parts], source)


def merge_positions(tfs: np.ndarray, packed: list[bytes],
                    source: np.ndarray | None) -> np.ndarray:
    """The position half of ``merge_docs``: the flat positions of the
    merged list whose tfs are ``tfs``, expanded from ``merge_docs``'
    runs (each part's packed stream and ``source``).  Each doc's deltas
    restart at its first position, so the parts' deltas are put in
    merged order first and summed once."""
    if source is None:
        return decode_positions(packed[0], tfs)
    lens = tfs.astype(np.int64)
    if (source[1:] >= source[:-1]).all():
        # the parts hold ascending id ranges (appends): merged order is
        # part order
        rows = None
        lens_r = lens
    else:
        rows = np.argsort(source, kind="stable")  # merged rows, by part
        lens_r = lens[rows]
    deltas = np.concatenate([
        _unpack(b, int(t.sum()), "position") for b, t in
        zip(packed, np.split(lens_r, np.cumsum(np.bincount(source))[:-1]))])
    if rows is not None:
        # each position moves from its row's offset in part order to
        # that row's offset in the merged order
        shift = (np.cumsum(lens) - lens)[rows] - (np.cumsum(lens_r) - lens_r)
        flat, deltas = deltas, np.empty_like(deltas)
        deltas[np.arange(flat.size) + np.repeat(shift, lens_r)] = flat
    return _per_doc_sums(deltas, tfs)
