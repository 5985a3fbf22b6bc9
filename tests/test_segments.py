"""Block-addressed posting segments (``yetisearch_ray/index/segment.py``).

- The format round-trips: every run written comes back byte-exact from
  a dictionary lookup, including runs longer than a block and runs
  without positions, and no run spans two blocks.
- A reader reads only the segments its own manifest commits: opened
  before an append it returns its pre-append results and never opens
  a generation-1 segment.
- Damage fails loudly, naming the partition and generation: a
  truncated ``.blk`` (at load, or as a short read after it), a block
  that does not decompress, a dictionary that does not parse.  Other
  partitions are still served.
- ``IndexReader.close`` drops the reader's segments: a ``.blk``
  closes once no reader holds it, and the reader still serves.
- ``cli verify`` decodes every run and exits 1 on damage, naming the
  term of a run that does not decode, whose fetch raises.
- A format-1 index is refused, naming ``rebuild_index``, which
  rebuilds it.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from yetisearch_ray.index import segment
from yetisearch_ray.index.postings import decode_postings, encode_postings
from yetisearch_ray.index.segment import (BLOCK_SIZE, CorruptSegmentError,
                                          Segment, SegmentSet, segment_paths,
                                          write_segment)
from yetisearch_ray.search.engine import SearchEngine, open_index

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _runs(rng, n_terms):
    """Sorted (term, field) runs with random postings; a few long."""
    terms = sorted({f"t{int(x):05d}" for x in rng.integers(0, 10**5, n_terms)})
    out = []
    for i, term in enumerate(terms):
        for field in sorted(rng.choice(3, int(rng.integers(1, 3)),
                                       replace=False).tolist()):
            n = 3000 if i % 17 == 0 else int(rng.integers(1, 40))
            docs = np.unique(rng.integers(0, 10**6, n)).astype(np.uint64)
            tfs = rng.integers(1, 4, docs.size).astype(np.uint64)
            pos = (None if i % 5 == 0 else np.concatenate(
                [np.sort(rng.choice(500, int(t), replace=False))
                 for t in tfs]).astype(np.uint64))
            out.append((term, field, docs, tfs, pos))
    return out


def _write(d, part, gen, runs):
    enc = [encode_postings(r[2], r[3], r[4]) for r in runs]
    return write_segment(d, part, gen, [r[0] for r in runs],
                         [r[1] for r in runs], [r[2].size for r in runs],
                         [int(r[3].sum()) for r in runs],
                         [e[0] for e in enc], [e[1] for e in enc],
                         [e[2] for e in enc])


def test_round_trip_and_block_layout(tmp_path):
    d = str(tmp_path)
    runs = _runs(np.random.default_rng(7), 300)
    nbytes = _write(d, 3, 1, runs)
    dict_path, blk_path = segment_paths(d, 3, 1)
    assert nbytes == os.path.getsize(dict_path) + os.path.getsize(blk_path)
    seg = Segment(d, 3, 1)
    assert len(seg) == len(runs)
    for term in {r[0] for r in runs}:
        want = [r for r in runs if r[0] == term]
        got = seg.lookup(term)
        assert [g[0] for g in got] == [w[1] for w in want]
        for (_, db, tb, pb), (_, _, docs, tfs, pos) in zip(got, want):
            gd, gt, gp = decode_postings(db, tb, pb)
            assert gd.tolist() == docs.tolist()
            assert gt.tolist() == tfs.tolist()
            assert (gp is None) == (pos is None)
            if pos is not None:
                assert gp.tolist() == pos.tolist()
    assert seg.lookup("t") == [] and seg.lookup("zzz") == []
    # runs share ~BLOCK_SIZE blocks; a run never crosses a block end
    t = seg.table
    raw, at = t["block_raw"].to_numpy(), t["run_off"].to_numpy()
    run_len = sum(t[c].to_numpy().astype(np.int64)
                  for c in ("docs_len", "tfs_len", "pos_len"))
    assert (at + run_len <= raw).all()
    blocks = np.unique(t["block_off"].to_numpy())
    assert 1 < blocks.size < len(runs)
    multi = raw[at > 0]
    assert (multi <= BLOCK_SIZE).all()
    # runs() walks the dictionary in order with its df / cf
    walked = [(term, df, cf, rec[0]) for term, df, cf, rec in seg.runs()]
    assert walked == [(r[0], r[2].size, int(r[3].sum()), r[1]) for r in runs]
    # prefix rows: a range of the sorted dictionary
    pre = seg.prefix_rows("t01")
    assert pre.column_names == ["term", "field", "df", "cf"]
    assert pre["term"].to_pylist() == [r[0] for r in runs
                                       if r[0].startswith("t01")]


def test_empty_segment(tmp_path):
    d = str(tmp_path)
    write_segment(d, 0, 0, [], [], [], [], [], [], [])
    seg = Segment(d, 0, 0)
    assert len(seg) == 0 and seg.lookup("a") == [] and list(seg.runs()) == []
    assert SegmentSet(d, {0: [0]}).prefix_rows().num_rows == 0


def _build(d, docs, append=False, tag="base"):
    import ray.data as rd

    from yetisearch_ray.index.build import IndexConfig, build_index

    ids = sorted(docs)
    t = pa.table({"doc_id": pa.array(ids, pa.uint64()),
                  "body": pa.array([docs[i] for i in ids])})
    build_index(rd.from_arrow(t), d, IndexConfig(
        fields=[("body", "body")], store_columns=["body"], num_partitions=4),
        append=append, input_fingerprint=tag, balance_hot_terms=False)


def _corpus(ids, extra=""):
    words = ["alpha", "beta", "gamma", "delta", "kappa", "sigma"]
    return {i: " ".join(words[(i * k) % 6] for k in range(1, 6))
            + f" w{i % 13} {extra}" for i in ids}


QUERIES = ["alpha", "beta gamma", "w3", "w7 sigma", "zulu", '"beta gamma"']


def _results(eng):
    return [eng.search(q, limit=100, normalize=False)
            .select(["doc_id", "score"]).to_pylist() for q in QUERIES]


@pytest.mark.usefixtures("ray_session")
class TestSnapshot:
    def test_reader_opened_before_append_never_opens_new_generation(
            self, tmp_path, monkeypatch):
        d = str(tmp_path / "idx")
        _build(d, _corpus(range(120)))
        want = _results(SearchEngine(open_index(d), cache_ttl=0.0))
        stale = SearchEngine(open_index(d), cache_ttl=0.0)
        _build(d, _corpus(range(120, 200), extra="zulu alpha"),
               append=True, tag="gen1")
        opened = []

        class Spy(Segment):
            def __init__(self, index_dir, part, gen, *rest):
                opened.append(gen)
                super().__init__(index_dir, part, gen, *rest)

        monkeypatch.setattr(segment, "Segment", Spy)
        # garbage in place of every generation-1 file: reading one fails
        post = os.path.join(d, "postings")
        g1 = [f for f in os.listdir(post) if "-g001." in f]
        assert g1
        saved = {}
        for f in g1:
            with open(os.path.join(post, f), "rb") as fh:
                saved[f] = fh.read()
            with open(os.path.join(post, f), "wb") as fh:
                fh.write(b"\0" * 64)
        assert _results(stale) == want
        assert opened and set(opened) == {0}
        # a reader opened now sees (and opens) generation 1
        for f, b in saved.items():
            with open(os.path.join(post, f), "wb") as fh:
                fh.write(b)
        fresh = SearchEngine(open_index(d), cache_ttl=0.0)
        assert fresh.search("zulu", limit=100).num_rows == 80
        assert 1 in opened


def _damage_index(tmp_path):
    d = str(tmp_path / "idx")
    _build(d, _corpus(range(200)))
    reader = open_index(d)
    words = [f"w{i}" for i in range(13)]
    part = reader._term_parts("w3")[0]
    other = next(w for w in words if reader._term_parts(w)[0] != part)
    return d, part, other


@pytest.mark.usefixtures("ray_session")
class TestDamage:
    def _assert_other_served(self, d, other):
        assert SearchEngine(open_index(d), cache_ttl=0.0).search(
            other, limit=100).num_rows > 0

    def test_truncated_blocks_fail_at_load(self, tmp_path):
        d, part, other = _damage_index(tmp_path)
        _, blk = segment_paths(d, part, 0)
        os.truncate(blk, os.path.getsize(blk) - 10)
        eng = SearchEngine(open_index(d), cache_ttl=0.0)
        with pytest.raises(CorruptSegmentError,
                           match=f"partition {part:05d} generation 0"):
            eng.search("w3")
        self._assert_other_served(d, other)

    def test_short_read_after_load(self, tmp_path):
        d, part, other = _damage_index(tmp_path)
        reader = open_index(d)
        seg = reader._segments.partition(part)[0]  # dictionary loaded
        _, blk = segment_paths(d, part, 0)
        os.truncate(blk, 0)
        with pytest.raises(CorruptSegmentError, match=f"truncated .*"
                           f"partition {part:05d} generation 0"):
            reader.postings("w3")
        assert "w3" not in reader._cache  # no empty list was cached
        assert len(seg) > 0
        self._assert_other_served(d, other)

    def test_block_that_does_not_decompress(self, tmp_path):
        d, part, other = _damage_index(tmp_path)
        _, blk = segment_paths(d, part, 0)
        size = os.path.getsize(blk)
        with open(blk, "r+b") as fh:  # same size, damaged bytes
            fh.write(b"\xff" * size)
        with pytest.raises(CorruptSegmentError,
                           match=f"damaged posting block of partition "
                                 f"{part:05d} generation 0"):
            open_index(d).postings("w3")
        self._assert_other_served(d, other)

    def test_damaged_dictionary(self, tmp_path):
        d, part, other = _damage_index(tmp_path)
        dict_path, _ = segment_paths(d, part, 0)
        with open(dict_path, "r+b") as fh:
            fh.seek(os.path.getsize(dict_path) // 2)
            fh.write(b"\0" * 64)
            fh.seek(-12, os.SEEK_END)
            fh.write(b"\0" * 8)  # footer length
        with pytest.raises(CorruptSegmentError,
                           match=f"damaged term dictionary of partition "
                                 f"{part:05d} generation 0"):
            open_index(d).postings("w3")
        self._assert_other_served(d, other)


def _open_files(d):
    """Paths under ``d`` that this process holds a descriptor of."""
    fds = "/proc/self/fd"
    out = []
    for fd in os.listdir(fds):
        try:
            path = os.readlink(os.path.join(fds, fd))
        except OSError:  # closed since the listing
            continue
        if path.startswith(d):
            out.append(path)
    return sorted(out)


@pytest.mark.usefixtures("ray_session")
def test_close_releases_segment_files(tmp_path):
    """``close`` drops a reader's references: a segment's ``.blk``
    closes once no reader holds it, and the closed reader re-acquires
    on its next read."""
    d, part, other = _damage_index(tmp_path)
    _, blk = segment_paths(d, part, 0)
    reader, holder = open_index(d), open_index(d)
    want = reader.postings("w3")[0].doc_ids.tolist()
    holder.postings("w3")
    (seg,) = reader._segments.partition(part)
    assert holder._segments.partition(part) == [seg]  # one open segment
    closed = seg._close
    del seg
    reader.close()
    assert closed.alive and _open_files(d) == [blk]  # the holder's
    holder.close()
    assert not closed.alive and _open_files(d) == []
    reader._cache.clear()
    assert reader.postings("w3")[0].doc_ids.tolist() == want
    assert _open_files(d) == [blk]


def _verify(d):
    p = subprocess.run([sys.executable, "-m", "yetisearch_ray.cli", "verify",
                        "--index", d], cwd=ROOT, capture_output=True,
                       text=True, timeout=120)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.usefixtures("ray_session")
class TestVerify:
    def test_verify_decodes_every_run(self, tmp_path):
        d, part, _ = _damage_index(tmp_path)
        code, out = _verify(d)
        assert code == 0 and out["ok"], out
        segs = open_index(d)._segments
        assert out["term_rows"] == segs.prefix_rows().num_rows
        assert out["segments"] == len(segs.part_gens)
        # a df / cf the postings do not have is reported
        seg = Segment(d, part, 0)
        rows = list(seg.runs())
        bad = rows[len(rows) // 2][0]
        write_segment(d, part, 0, [r[0] for r in rows],
                      [r[3][0] for r in rows],
                      [r[1] + (r[0] == bad) for r in rows],
                      [r[2] for r in rows], [r[3][1] for r in rows],
                      [r[3][2] for r in rows], [r[3][3] for r in rows])
        code, out = _verify(d)
        assert code == 1
        assert any(repr(bad) in p and "df" in p for p in out["problems"])

    def test_verify_fails_on_truncated_block(self, tmp_path):
        d, part, _ = _damage_index(tmp_path)
        _, blk = segment_paths(d, part, 0)
        os.truncate(blk, os.path.getsize(blk) // 2)
        code, out = _verify(d)
        assert code == 1 and not out["ok"]
        assert any(f"partition {part:05d} generation 0" in p
                   for p in out["problems"])

    def test_verify_reports_an_undecodable_run(self, tmp_path):
        """A run whose tf stream is one byte short, in a segment whose
        id is still its manifest's: ``verify`` names its partition,
        generation and term, and a reader's fetch of it raises."""
        d, part, other = _damage_index(tmp_path)
        with Segment(d, part, 0) as seg:
            rows, seg_id = list(seg.runs()), seg.seg_id
        short = [r[3][2][:-1] if r[0] == "w3" else r[3][2] for r in rows]
        write_segment(d, part, 0, [r[0] for r in rows],
                      [r[3][0] for r in rows], [r[1] for r in rows],
                      [r[2] for r in rows], [r[3][1] for r in rows], short,
                      [r[3][3] for r in rows], seg_id)
        code, out = _verify(d)
        assert code == 1 and not out["ok"]
        (problem,) = out["problems"]
        assert problem.startswith(f"partition {part:05d} generation 0 ")
        assert problem.endswith("term 'w3' undecodable: ValueError('tf "
                                "stream of 15 bytes does not hold 16 values')")
        with pytest.raises(ValueError, match="tf stream"):
            open_index(d).postings("w3")
        assert SearchEngine(open_index(d), cache_ttl=0.0).search(
            other, limit=100).num_rows > 0


@pytest.mark.usefixtures("ray_session")
def test_format_1_index_is_refused_until_rebuilt(tmp_path):
    from yetisearch_ray.index.manage import optimize_index, rebuild_index
    from yetisearch_ray.index.manifest import Manifest

    d = str(tmp_path / "idx")
    docs = _corpus(range(60))
    _build(d, docs)
    man = Manifest.load(d)
    man.data["format_version"] = 1
    man.save()
    assert not Manifest.is_ready(d)
    for call in (lambda: open_index(d),
                 lambda: _build(d, _corpus(range(60, 70)), append=True),
                 lambda: optimize_index(d)):
        with pytest.raises(ValueError, match="rebuild_index"):
            call()
    rebuild_index(d)
    assert Manifest.is_ready(d)
    assert SearchEngine(open_index(d)).search("alpha", limit=100).num_rows \
        == sum("alpha" in t for t in docs.values())
