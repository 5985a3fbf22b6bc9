import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yetisearch_ray.index.postings import (
    decode_postings,
    encode_postings,
    encode_postings_bulk,
)

# the largest value each width holds, and the smallest that needs the next
EDGES = [0, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63]


class TestPostings:
    def test_roundtrip_with_positions(self):
        rng = np.random.default_rng(1)
        ids = np.unique(rng.integers(0, 10**6, 300).astype(np.uint64))
        tfs = rng.integers(1, 8, ids.size).astype(np.uint64)
        pos = np.concatenate(
            [np.sort(rng.choice(5000, int(t), replace=False)).astype(np.uint64) for t in tfs]
        )
        db, tb, pb = encode_postings(ids, tfs, pos)
        d2, t2, p2 = decode_postings(db, tb, pb)
        assert np.array_equal(ids, d2)
        assert np.array_equal(tfs, t2)
        assert np.array_equal(pos, p2)

    def test_roundtrip_without_positions(self):
        ids = np.array([1, 5, 9], dtype=np.uint64)
        tfs = np.array([2, 1, 4], dtype=np.uint64)
        db, tb, pb = encode_postings(ids, tfs, None)
        d2, t2, p2 = decode_postings(db, tb, pb)
        assert p2 is None and np.array_equal(ids, d2) and np.array_equal(tfs, t2)

    @given(docs=st.lists(st.sampled_from(EDGES) | st.integers(0, 2**64 - 1),
                         min_size=1, max_size=40),
           tfs=st.lists(st.sampled_from(EDGES[1:]) | st.integers(1, 9),
                        min_size=1, max_size=5),
           gaps=st.lists(st.sampled_from(EDGES), min_size=1, max_size=8),
           with_pos=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property(self, docs, tfs, gaps, with_pos):
        """Values at every width edge round-trip in the doc, tf and
        position streams, with and without positions."""
        ids = np.unique(np.array(docs, np.uint64))
        tfs = np.resize(np.array(tfs, np.uint64), ids.size)
        pos = None
        if with_pos:
            tfs = np.minimum(tfs, 256)
            gaps = np.resize(np.array(gaps, np.uint64), int(tfs.sum()))
            # each doc's positions: the running sum of its own gaps
            cuts = np.cumsum(tfs.astype(np.int64))[:-1]
            pos = np.concatenate([np.cumsum(g, dtype=np.uint64)
                                  for g in np.split(gaps, cuts)])
        d, t, p = decode_postings(*encode_postings(ids, tfs, pos))
        assert d.dtype == t.dtype == np.uint64
        assert d.tolist() == ids.tolist() and t.tolist() == tfs.tolist()
        assert (p is None) == (pos is None)
        if pos is not None:
            assert p.dtype == np.uint64 and p.tolist() == pos.tolist()

    def test_empty_run(self):
        empty = np.empty(0, np.uint64)
        d, t, p = decode_postings(*encode_postings(empty, empty))
        assert d.size == t.size == 0 and p is None
        for tf_blob, pos_blob in ((b"\x01", b""), (b"", b"\x01")):
            with pytest.raises(ValueError, match="stream of 1 bytes"):
                decode_postings(b"\x01", tf_blob, pos_blob)

    def test_narrowest_width(self):
        """Each stream is stored at the narrowest of 1, 2, 4, 8 bytes
        that holds its largest value."""
        for value, width in zip(EDGES, [1, 1, 2, 2, 4, 4, 8, 8]):
            v = np.array([value], np.uint64)
            db, tb, _ = encode_postings(v, np.maximum(v, 1))
            _, _, pb = encode_postings(v, np.ones(1, np.uint64), v)
            assert db[0] == width
            assert (len(db), len(tb), len(pb)) == (1 + width, width, width)
        # 1000 small deltas, tfs and positions: one byte each
        ids = np.arange(0, 100_000, 100, dtype=np.uint64)
        tfs = np.full(ids.size, 2, np.uint64)
        pos = np.tile(np.array([7, 200], np.uint64), ids.size)
        db, tb, pb = encode_postings(ids, tfs, pos)
        assert (len(db), len(tb), len(pb)) == (1001, 1000, 2000)


def test_bulk_matches_single_run_encoding():
    """Each run's bytes from one ``encode_postings_bulk`` call equal
    ``encode_postings`` of that run alone."""
    rng = np.random.default_rng(5)
    runs = []
    for i in range(400):
        hi = EDGES[1 + i % (len(EDGES) - 1)]
        ids = np.unique(rng.integers(0, hi, int(rng.integers(1, 30)),
                                     dtype=np.uint64, endpoint=True))
        tfs = rng.integers(1, [4, 260][i % 2], ids.size,
                           dtype=np.uint64)
        pos = np.concatenate([np.sort(rng.choice(2**17 + 5, int(t)))
                              for t in tfs]).astype(np.uint64)
        runs.append((ids, tfs, pos))
    lens = np.array([r[0].size for r in runs])
    ends = np.cumsum(lens)
    docs, tfs = (np.concatenate([r[k] for r in runs]) for k in (0, 1))
    pos = np.concatenate([r[2] for r in runs])
    for p in (pos, None):
        bulk = encode_postings_bulk(docs, tfs, p, ends - lens, ends)
        for i, (ids, f, q) in enumerate(runs):
            one = encode_postings(ids, f, None if p is None else q)
            assert one == (bulk[0][i], bulk[1][i], bulk[2][i])


class TestMalformed:
    """A stream that does not fit the layout raises ValueError (not an
    ``assert``, which ``python -O`` strips)."""

    ids = np.array([3, 9, 700], np.uint64)
    tfs = np.array([1, 2, 1], np.uint64)
    pos = np.array([4, 1, 5, 2], np.uint64)

    def _blobs(self):
        return encode_postings(self.ids, self.tfs, self.pos)

    @pytest.mark.parametrize("first", [b"", b"\x00", b"\x03", b"\x10"])
    def test_width_byte_outside_the_widths(self, first):
        db, tb, pb = self._blobs()
        with pytest.raises(ValueError, match="width byte"):
            decode_postings(first + db[1:] if first else b"", tb, pb)

    def test_doc_stream_not_whole_values(self):
        db, tb, pb = self._blobs()
        assert db[0] == 2
        with pytest.raises(ValueError, match="not a whole number"):
            decode_postings(db[:-1], tb, pb)

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_tf_count_differs_from_doc_count(self, cut):
        db, tb, pb = self._blobs()
        with pytest.raises(ValueError, match="tf stream .* hold 3 values"):
            decode_postings(db, tb[:-cut], pb)
        with pytest.raises(ValueError, match="tf stream"):
            decode_postings(db, tb + b"\x01", pb)

    def test_position_count_differs_from_tf_sum(self):
        db, tb, pb = self._blobs()
        with pytest.raises(ValueError, match="position stream .* hold 4"):
            decode_postings(db, tb, pb[:-1])
        with pytest.raises(ValueError, match="position stream"):
            decode_postings(db, tb, pb + b"\x00")
