"""Row-addressable docstore (``yetisearch_ray/index/docstore.py``).

- A reader reads only the docstore chunks its own manifest commits:
  opened before an append, it gathers no appended row, keeps its
  pre-append ``search(with_docs=True)`` output and never opens an
  appended chunk.
- Damage fails loudly, naming the chunk and its id range: a missing
  chunk, a truncated or garbled one, batch-range metadata that is
  missing or wrong.  None of them reads as absent rows.
- Doc lengths are a chunk column (``DL_COLUMN``) that no stored-row
  read shows; the reserved name cannot be a user column.
- ``cli verify`` reads every chunk and exits 1 on a chunk id other than
  its entry's, a chunk without a doc length per row, and row or length
  sums that disagree with the stats or the entries' ``sum_dl``.
- ``optimize_index`` rewrites the chunks that held deleted rows and
  removes the files it no longer lists.
- A format-2 index (Parquet docstore) is refused until
  ``rebuild_index`` rebuilds it, with the same search output.
- ``IndexReader.close`` drops the reader's chunks: a chunk is
  unmapped once no reader holds it, and the reader still serves.
"""

import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from yetisearch_ray.index import docstore
from yetisearch_ray.index.docstore import DOC_ROWS, DocStore
from yetisearch_ray.index.manifest import Manifest
from yetisearch_ray.index.segment import CorruptSegmentError
from yetisearch_ray.search.engine import SearchEngine, open_index

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LANGS = ["python", "rust", "go"]
WORDS = ["alpha", "beta", "gamma", "delta", "kappa", "sigma"]
QUERIES = [("alpha", {}), ("beta gamma", {}), ('"beta gamma"', {}),
           ("alpha", {"language": "rust"}), ("w3", {"mode": "and"})]


def _table(ids, extra=""):
    ids = list(ids)
    return pa.table({
        "doc_id": pa.array(ids, pa.uint64()),
        "lang": [LANGS[i % 3] for i in ids],
        "body": [" ".join(WORDS[(i * k) % 6] for k in range(1, 6))
                 + f" w{i % 13} {extra}" for i in ids]})


def _build(d, ids, blocks=2, append=False, tag="base", extra=""):
    """One ingest block, hence one docstore chunk, per slice."""
    import ray.data as rd

    from yetisearch_ray.index.build import IndexConfig, build_index

    t = _table(ids, extra)
    step = -(-t.num_rows // blocks)
    rd_ds = rd.from_arrow([t.slice(i, step)
                           for i in range(0, t.num_rows, step)])
    build_index(rd_ds, d, IndexConfig(
        fields=[("body", "body")], language_column="lang",
        store_columns=["lang", "body"], num_partitions=4),
        append=append, input_fingerprint=tag, balance_hot_terms=False)


def _results(eng):
    return [eng.search(q, limit=100, with_docs=True, highlight=True, **kw)
            for q, kw in QUERIES]


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.equals(w, check_metadata=True)


@pytest.mark.usefixtures("ray_session")
def test_reader_opened_before_append_keeps_its_docstore(tmp_path,
                                                         monkeypatch):
    d = str(tmp_path / "idx")
    _build(d, range(10), blocks=1)
    before = {c["name"] for c in Manifest.load(d).docstore_chunks()}
    want = _results(SearchEngine(open_index(d), cache_ttl=0.0))
    stale = SearchEngine(open_index(d), cache_ttl=0.0)  # nothing read yet
    _build(d, range(10, 20), blocks=1, append=True, tag="gen1",
           extra="alpha beta gamma")
    opened = []

    class Spy(docstore._Chunk):
        def __init__(self, d, entry):
            opened.append(entry["name"])
            super().__init__(d, entry)

    monkeypatch.setattr(docstore, "_Chunk", Spy)
    assert stale.index.docs([15]).num_rows == 0
    assert stale.index.docs([5, 15])["doc_id"].to_pylist() == [5]
    _same(_results(stale), want)
    assert opened and set(opened) <= before
    # a reader opened now gathers the appended rows
    fresh = open_index(d)
    assert fresh.docs([15])["doc_id"].to_pylist() == [15]
    assert set(opened) - before


def _index(tmp_path):
    """600 docs in two chunks of 300 rows (three batches each); returns
    the second chunk, the one the damage tests damage."""
    d = str(tmp_path / "idx")
    _build(d, range(600))
    chunks = Manifest.load(d).docstore_chunks()
    assert [(c["lo"], c["hi"], c["rows"]) for c in chunks] == \
        [(0, 299, 300), (300, 599, 300)]
    assert DOC_ROWS < 300
    return d, chunks[1], os.path.join(d, "docs", chunks[1]["name"])


def _where(chunk):
    return f"docstore chunk {chunk['name']} \\(ids 300..599\\)"


def _rewrite(path, t, meta):
    """Write ``t`` as a chunk file with the given schema metadata."""
    schema = t.schema.remove_metadata()
    if meta is not None:
        schema = schema.with_metadata({b"yetisearch.docstore": json.dumps(meta)})
    with pa.OSFile(path, "wb") as f, pa.ipc.new_file(
            f, schema, options=pa.ipc.IpcWriteOptions(compression="zstd")) as w:
        for b in t.to_batches(max_chunksize=DOC_ROWS):
            w.write_batch(b)


def _chunk_table(d, i=1):
    with DocStore.committed(d) as store:
        return store.chunk(i).read(["doc_id", "lang", "body"])


def _meta(path):
    with pa.memory_map(path) as m:
        md = pa.ipc.open_file(m).schema.metadata
    return json.loads(md[b"yetisearch.docstore"])


@pytest.mark.usefixtures("ray_session")
class TestDamage:
    def test_missing_chunk(self, tmp_path):
        d, chunk, path = _index(tmp_path)
        os.remove(path)
        reader = open_index(d)
        with pytest.raises(FileNotFoundError, match=_where(chunk)):
            reader.docs([305])
        assert reader.docs([5])["doc_id"].to_pylist() == [5]
        with pytest.raises(FileNotFoundError, match=_where(chunk)):
            open_index(d).meta("lang")

    def test_truncated_chunk(self, tmp_path):
        d, chunk, path = _index(tmp_path)
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(CorruptSegmentError, match=_where(chunk)):
            open_index(d).docs([305])
        assert open_index(d).docs([5]).num_rows == 1

    def test_garbled_chunk(self, tmp_path):
        d, chunk, path = _index(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:  # the batch bodies, not the footer
            f.seek(size // 8)
            f.write(b"\xff" * (size // 2))
        with pytest.raises(CorruptSegmentError, match=_where(chunk)):
            open_index(d).docs(list(range(300, 600)))
        with pytest.raises(CorruptSegmentError, match=_where(chunk)):
            open_index(d).meta("lang")

    def test_missing_batch_metadata(self, tmp_path):
        d, chunk, path = _index(tmp_path)
        _rewrite(path, _chunk_table(d), None)
        with pytest.raises(CorruptSegmentError, match=_where(chunk)):
            open_index(d).docs([305])

    def test_wrong_batch_ranges(self, tmp_path):
        """Batch ranges that still tile the chunk but put the last ids
        of batch 0 in batch 1: a gather must not look for them there
        and come back without them."""
        d, chunk, path = _index(tmp_path)
        meta = _meta(path)
        meta["hi"][0] -= 5
        meta["lo"][1] -= 5
        _rewrite(path, _chunk_table(d), meta)
        reader = open_index(d)
        with pytest.raises(CorruptSegmentError,
                           match=r"batch 1 of " + _where(chunk)):
            reader.docs([300 + DOC_ROWS - 2])

    def test_manifest_rows_disagree(self, tmp_path):
        d, chunk, path = _index(tmp_path)
        man = Manifest.load(d)
        man.data["docstore"]["chunks"][1]["rows"] = 301
        man.save()
        with pytest.raises(CorruptSegmentError, match="301"):
            open_index(d).docs([305])


@pytest.mark.usefixtures("ray_session")
def test_doc_lengths_never_show_in_stored_rows(tmp_path):
    d, _, _ = _index(tmp_path)
    stored = ["doc_id", "lang", "body"]
    reader = open_index(d)
    assert reader.docs([5, 305]).column_names == stored
    assert reader._docstore.schema.names == stored
    with DocStore.committed(d) as store:
        assert store.scan().column_names == stored
        lens = store.scan(["doc_id", docstore.DL_COLUMN])
    eng = SearchEngine(reader, cache_ttl=0.0)
    got = eng.search("alpha", limit=5, with_docs=True, highlight=True)
    assert docstore.DL_COLUMN not in got.column_names
    assert set(stored) <= set(got.column_names)
    # the column is each doc's token count (one field, "body")
    body = _table(range(600))["body"].to_pylist()
    assert lens[docstore.DL_COLUMN].to_pylist() == [
        len(b.split()) for b in body]
    assert reader.dl_total_for(np.array([7], np.uint64)).tolist() == [
        len(body[7].split())]


def test_column_arrays_of_chunks_typed_apart(tmp_path):
    """A column that one chunk types otherwise (an append whose batch
    held no value for it) reads as a scan casts it, not as numpy's
    concatenation of the two."""
    d = str(tmp_path)
    entries = [
        docstore.write_chunk(d, pa.table({
            "doc_id": pa.array([0, 1], pa.uint64()),
            "n": pa.array([4, 5], pa.int64())}), "doc_id", [1, 2]),
        docstore.write_chunk(d, pa.table({
            "doc_id": pa.array([2], pa.uint64()),
            "n": pa.array([None], pa.null())}), "doc_id", [3])]
    with DocStore(d, entries, "doc_id") as store:
        ids, n = store.column_arrays("n")
        want = store.scan(["n"])["n"].to_numpy(zero_copy_only=False)
        assert ids.tolist() == [0, 1, 2]
        np.testing.assert_array_equal(n, want)  # float, NaN for the null
        assert store.column_arrays(docstore.DL_COLUMN)[1].tolist() == \
            [1, 2, 3]


@pytest.mark.parametrize("where", ["store_columns", "fields", "id_column",
                                   "language_column"])
def test_reserved_doc_length_name_is_refused(where):
    from yetisearch_ray.index.build import IndexConfig

    kw = {"fields": [("body", "body")], "store_columns": ["body"]}
    name = docstore.DL_COLUMN
    kw.update({"store_columns": ["body", name]} if where == "store_columns"
              else {"fields": [("body", name)]} if where == "fields"
              else {where: name})
    with pytest.raises(ValueError, match="reserved"):
        IndexConfig(**kw)


def _verify(d):
    p = subprocess.run([sys.executable, "-m", "yetisearch_ray.cli", "verify",
                        "--index", d], cwd=ROOT, capture_output=True,
                       text=True, timeout=120)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.usefixtures("ray_session")
class TestVerify:
    def test_good_index(self, tmp_path):
        d, _, _ = _index(tmp_path)
        code, out = _verify(d)
        assert code == 0 and out["ok"], out
        assert out["docstore_rows"] == 600

    def test_garbled_chunk(self, tmp_path):
        d, chunk, path = _index(tmp_path)
        meta = _meta(path)
        meta["hi"][0] -= 5
        meta["lo"][1] -= 5
        _rewrite(path, _chunk_table(d), meta)
        code, out = _verify(d)
        assert code == 1 and not out["ok"]
        assert any(chunk["name"] in p for p in out["problems"])

    def test_chunk_rewritten_under_its_name(self, tmp_path):
        """Same rows, same name, a fresh chunk id: not the committed
        chunk."""
        d, chunk, path = _index(tmp_path)
        with DocStore.committed(d) as store:
            t = store.chunk(1).read(["doc_id", "lang", "body",
                                     docstore.DL_COLUMN])
        e = docstore.write_chunk(d, t.drop_columns([docstore.DL_COLUMN]),
                                 "doc_id", t[docstore.DL_COLUMN].to_numpy())
        assert e["name"] == chunk["name"]
        assert e["chunk_id"] != chunk["chunk_id"]
        code, out = _verify(d)
        assert code == 1
        assert any(chunk["name"] in p and "chunk id" in p
                   for p in out["problems"]), out
        with pytest.raises(CorruptSegmentError, match="chunk id"):
            open_index(d).docs([305])

    @pytest.mark.parametrize("damage", ["no column", "nulls"])
    def test_chunk_without_a_length_per_row(self, tmp_path, damage):
        d, chunk, path = _index(tmp_path)
        t = _chunk_table(d)
        if damage == "nulls":
            t = t.append_column(docstore.DL_COLUMN, pa.array(
                [None] * 5 + [3] * (t.num_rows - 5), pa.uint32()))
        _rewrite(path, t, _meta(path))  # its chunk id kept
        code, out = _verify(d)
        assert code == 1
        assert any(chunk["name"] in p for p in out["problems"]), out

    @pytest.mark.parametrize("field", ["n_docs", "total_dl", "sum_dl"])
    def test_sums_disagree(self, tmp_path, field):
        d, chunk, _ = _index(tmp_path)
        man = Manifest.load(d)
        if field == "sum_dl":
            man.data["docstore"]["chunks"][1]["sum_dl"] += 1
        else:
            man.data["stats"][field] += 1
        man.save()
        code, out = _verify(d)
        assert code == 1
        named = chunk["name"] if field == "sum_dl" else f"stats {field}"
        assert any(named in p for p in out["problems"]), out


@pytest.mark.usefixtures("ray_session")
def test_optimize_rewrites_chunks_without_deleted_rows(tmp_path):
    """A chunk keeps its name when its range survives, is renamed when
    an end id is deleted, and leaves the list when every row is."""
    from yetisearch_ray.index.manage import delete_docs, optimize_index

    d = str(tmp_path / "idx")
    _build(d, range(600), blocks=3)
    dead = [5, 150, 399] + list(range(400, 600))
    delete_docs(d, dead)
    optimize_index(d)
    chunks = Manifest.load(d).docstore_chunks()
    assert [(c["lo"], c["hi"], c["rows"], c["gen"]) for c in chunks] == \
        [(0, 199, 198, 0), (200, 398, 199, 0)]
    assert sorted(os.listdir(os.path.join(d, "docs"))) == \
        [c["name"] for c in chunks]
    with DocStore.committed(d) as store:
        assert store.scan(["doc_id"])["doc_id"].to_pylist() == \
            [i for i in range(600) if i not in set(dead)]
    code, out = _verify(d)
    assert code == 0, out


def _to_format_2(d):
    """The layout of a format-2 index: one snappy Parquet file per
    docstore chunk, a manifest without a chunk list.  (Posting segments
    are the same in formats 2 and 3.)"""
    man = Manifest.load(d)
    with DocStore.committed(d, man) as store:
        tables = [(c, store.chunk(i).read(store.chunk(i).schema.names))
                  for i, c in enumerate(store.chunks)]
    for c, t in tables:
        os.remove(os.path.join(d, "docs", c["name"]))
        pq.write_table(t, os.path.join(
            d, "docs", f"docs-{c['lo']:012d}-{c['hi']:012d}.parquet"),
            compression="snappy", row_group_size=4096)
    man.data["format_version"] = 2
    man.data["docstore"] = {"status": "committed",
                            "path": os.path.join(d, "docs")}
    man.save()
    return [c["name"] for c, _ in tables]


@pytest.mark.usefixtures("ray_session")
def test_format_2_index_is_refused_until_rebuilt(tmp_path):
    from yetisearch_ray.index.manage import rebuild_index

    d, _, _ = _index(tmp_path)
    want = _results(SearchEngine(open_index(d), cache_ttl=0.0))
    names = _to_format_2(d)
    assert not Manifest.is_ready(d)
    with pytest.raises(ValueError, match="rebuild_index"):
        open_index(d)
    rebuild_index(d)
    assert Manifest.is_ready(d)
    # one block per old chunk: the same chunk ranges come back
    assert [c["name"] for c in Manifest.load(d).docstore_chunks()] == names
    _same(_results(SearchEngine(open_index(d), cache_ttl=0.0)), want)


@pytest.mark.usefixtures("ray_session")
def test_close_unmaps_chunks(tmp_path):
    """``close`` drops a reader's chunks: a chunk is unmapped once no
    reader holds it, and the closed reader re-acquires on its next
    read."""
    d, _, _ = _index(tmp_path)
    reader, holder = open_index(d), open_index(d)
    want = reader.docs([5, 305])
    holder.docs([5, 305])
    chunks = list(reader._docstore._held.values())
    assert len(chunks) == 2
    assert list(holder._docstore._held.values()) == chunks  # one map each
    refs = [weakref.ref(ch) for ch in chunks]
    del chunks
    reader.close()
    assert not reader._docstore._held
    assert all(r() is not None for r in refs) and len(_mapped(d)) == 2
    holder.close()
    assert all(r() is None for r in refs) and _mapped(d) == []
    assert reader.docs([5, 305]).equals(want)  # re-acquired
    assert len(_mapped(d)) == 2


def _mapped(d):
    """The files under ``d`` this process has mapped."""
    with open("/proc/self/maps") as f:
        return sorted({ln.split(None, 5)[5].strip() for ln in f
                       if len(ln.split(None, 5)) == 6
                       and ln.split(None, 5)[5].startswith(d)})
