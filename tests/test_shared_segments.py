"""Shared segment state (``yetisearch_ray/index/segment.py``), shared
docstore columns (``yetisearch_ray/index/docstore.py``) and the manifest
writes around them.

- A committed segment (its ``.blk`` descriptor and dictionary) and a
  committed docstore chunk (its map and the columns read of it, its doc
  lengths among them) open once per process and are shared by every
  reader whose manifest commits them, keyed by their segment or chunk
  id, not their file name: an
  ``optimize_index`` that rewrites the ``-g000`` names while a reader
  of the old snapshot is alive, and dropping and re-creating an index
  at the same path, each leave the old reader on its snapshot and the
  new one on the new files.
- A reader holds what other readers had opened when it opened.  A
  fresh reader of a held snapshot opens no file through the benchmark's
  read pass; after an append it opens only generation-1 files.
- Threads opening readers, gathering docs and highlighting at once end
  up on one ``Segment`` and one ``_Chunk`` per file.
- ``close`` drops a reader's references; the registries and the
  process's descriptors of the index empty once every reader is gone,
  and a process that reads and exits under ``python -X dev`` leaves no
  ``ResourceWarning``.
- A file whose segment id is not its manifest's raises
  ``CorruptSegmentError`` naming the partition and generation, and
  ``cli verify`` exits 1 on a rewritten segment; a chunk whose chunk id
  is not its manifest's raises it naming the chunk.  A held segment
  serves its bytes after a copy is renamed over its path; a reader
  with no holder loads only a ``.blk`` of the size its dictionary
  addresses.
- A reader whose snapshot a later commit superseded (here an
  ``optimize_index``) says so on its first touch of a file it had not
  opened.
- ``optimize_index`` ignores a chunk its manifest does not commit.
- A ``max_generation`` reader's corpus stats are those of an index
  built from only those generations' docs.
- ``Manifest.save`` fsyncs the file before the rename and the directory
  after, and leaves no tmp file when the write fails.
- Formats 3, 4 and 5 are refused until ``rebuild_index``, which
  rebuilds an index serving the same results (and, from format 5,
  leaves no ``doclens/``).
- The schema-less blocks Ray Data warns about during a build come from
  its sort (the ``groupby("part")`` exchange), not from our operators.
"""

import ast
import gc
import json
import os
import stat
import subprocess
import sys
import threading

import pyarrow as pa
import pytest

from yetisearch_ray.index import docstore, segment
from yetisearch_ray.index.docstore import DL_COLUMN, DocStore
from yetisearch_ray.index.manifest import FORMAT_VERSION, Manifest
from yetisearch_ray.index.segment import (CorruptSegmentError, Segment,
                                          write_segment)
from yetisearch_ray.search.engine import SearchEngine, open_index

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORDS = ["alpha", "beta", "gamma", "delta", "kappa", "sigma"]
QUERIES = ["alpha", "beta gamma", "w3", "w7 sigma", "zulu", '"beta gamma"']


def _corpus(ids, extra=""):
    return {i: " ".join(WORDS[(i * k) % 6] for k in range(1, 6))
            + f" w{i % 13} {extra}" for i in ids}


def _build(d, docs, append=False, tag="base"):
    import ray.data as rd

    from yetisearch_ray.index.build import IndexConfig, build_index

    ids = sorted(docs)
    t = pa.table({"doc_id": pa.array(ids, pa.uint64()),
                  "body": pa.array([docs[i] for i in ids])})
    return build_index(rd.from_arrow(t), d, IndexConfig(
        fields=[("body", "body")], store_columns=["body"], num_partitions=4),
        append=append, input_fingerprint=tag, balance_hot_terms=False)


def _engine(d):
    return SearchEngine(open_index(d), cache_ttl=0.0)


def _results(eng):
    return [eng.search(q, limit=100, normalize=False)
            .select(["doc_id", "score"]).to_pylist() for q in QUERIES]


def _registered(d):
    root = os.path.realpath(d)
    return [k for reg in (segment._SEGMENTS, docstore._CHUNKS)
            for k in list(reg.keys()) if k[0] == root]


class _Loads:
    """Spy on the opens of segments (``segments``, their
    ``part=KKKKK-gGGG`` names) and docstore chunks (``chunks``, their
    names)."""

    def __init__(self, monkeypatch):
        self.segments, self.chunks = [], []
        base = segment.Segment

        def load_segment(obj, index_dir, part, gen, *rest):
            self.segments.append(segment.segment_name(part, gen))
            base.__init__(obj, index_dir, part, gen, *rest)

        monkeypatch.setattr(segment, "Segment", type(
            "Segment", (base,), {"__init__": load_segment}))
        chunk_base = docstore._Chunk

        def load_chunk(obj, d, entry):
            self.chunks.append(entry["name"])
            chunk_base.__init__(obj, d, entry)

        monkeypatch.setattr(docstore, "_Chunk", type(
            "_Chunk", (chunk_base,), {"__init__": load_chunk}))


@pytest.mark.usefixtures("ray_session")
class TestSharing:
    def test_fresh_reader_reuses_loaded_segments(self, tmp_path, monkeypatch):
        d = str(tmp_path / "idx")
        _build(d, _corpus(range(200)))
        first = _engine(d)
        want = _results(first)
        loads = _Loads(monkeypatch)
        second = _engine(d)
        assert _results(second) == want
        # every segment and chunk (doc lengths) shared
        assert loads.segments == [] and loads.chunks == []
        for p in second.index._segments.part_gens:
            for a, b in zip(first.index._segments.partition(p),
                            second.index._segments.partition(p)):
                assert a is b

    def test_reader_holds_what_was_loaded_when_it_opened(
            self, tmp_path, monkeypatch):
        """The perfbench/facade shape: the old reader is dropped right
        after the new one opens, before the new one touches anything."""
        d = str(tmp_path / "idx")
        _build(d, _corpus(range(200)))
        old = _engine(d)
        want = _results(old)
        new = _engine(d)
        del old
        gc.collect()
        loads = _Loads(monkeypatch)
        assert _results(new) == want
        assert loads.segments == [] and loads.chunks == []

    def test_reader_after_append_loads_only_new_chunks(
            self, tmp_path, monkeypatch):
        d = str(tmp_path / "idx")
        _build(d, _corpus(range(200)))
        old = _engine(d)
        _results(old)
        _build(d, _corpus(range(200, 230), extra="zulu"), append=True,
               tag="gen1")
        new_chunks = {c["name"] for c in Manifest.load(d).docstore_chunks()
                      if c["gen"] == 1}
        loads = _Loads(monkeypatch)
        new = _engine(d)
        got = _results(new)
        assert got[QUERIES.index("zulu")]  # the appended docs are served
        assert sorted(loads.chunks) == sorted(new_chunks)
        assert loads.segments and all(
            p.endswith("-g001") for p in loads.segments)

    def test_optimize_rewrite_with_old_reader_alive(self, tmp_path):
        d, ref = str(tmp_path / "idx"), str(tmp_path / "ref")
        docs = _corpus(range(150))
        docs.update(_corpus(range(150, 220), extra="zulu alpha"))
        _build(d, {i: docs[i] for i in range(150)})
        _build(d, {i: docs[i] for i in range(150, 220)}, append=True,
               tag="gen1")
        from yetisearch_ray.index.manage import delete_docs, optimize_index

        dead = [3, 77, 160, 219]
        delete_docs(d, dead)
        old = _engine(d)
        before = _results(old)  # loads every partition it touches
        optimize_index(d)
        new = _engine(d)
        # the new reader serves the optimized files: equal to an index
        # built from the surviving docs under the same ids
        _build(ref, {i: t for i, t in docs.items() if i not in dead})
        assert _results(new) == _results(_engine(ref))
        # the old one keeps its snapshot, with its postings LRU cleared
        old.index._cache.clear()
        assert _results(old) == before
        for p in new.index._segments.part_gens:
            (seg,) = new.index._segments.partition(p)
            assert all(seg is not s
                       for s in old.index._segments.partition(p))

    def test_drop_and_recreate_at_same_path(self, tmp_path):
        from yetisearch_ray.index.manage import drop_index

        d, ref = str(tmp_path / "idx"), str(tmp_path / "ref")
        _build(d, _corpus(range(120)))
        old = _engine(d)
        before = _results(old)
        drop_index(d)
        other = {i: f"zulu {WORDS[i % 6]} w{i % 5}" for i in range(90)}
        _build(d, other)
        _build(ref, other)
        assert _results(_engine(d)) == _results(_engine(ref))
        old.index._cache.clear()
        assert _results(old) == before

    def test_threads_open_readers_at_once(self, tmp_path):
        """Eight threads (more than the host's cores) open readers of one
        snapshot at once, with a short switch interval, and search,
        gather docs and highlight through them: every reader gets the
        same result, all of them end up on one ``Segment`` and one
        ``_Chunk`` per file, sharing its descriptor, its IPC reader and
        its columns, and once they are gone the process holds no file
        of the index."""
        d = str(tmp_path / "idx")
        _build(d, _corpus(range(300)))
        want = _reads(_engine(d))
        gc.collect()  # nothing registered: the threads race to open
        assert _registered(d) == [] and _open_files(d) == []
        n = 8
        start = threading.Barrier(n)
        out, errors = [None] * n, []

        def run(i):
            try:
                start.wait(timeout=60)
                eng = _engine(d)
                out[i] = (eng, _reads(eng))
            except BaseException as e:  # surfaced below
                errors.append(e)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        first = out[0][0].index
        for eng, got in out:
            assert got == want
            segs = eng.index._segments
            for p in first._segments.part_gens:
                for x, y in zip(first._segments.partition(p),
                                segs.partition(p)):
                    assert x is y
            held = eng.index._docstore._held
            assert held.keys() == first._docstore._held.keys() and held
            assert all(first._docstore._held[k] is v for k, v in held.items())
        assert _open_files(d)
        del out, first, eng, segs, held, x, y
        gc.collect()
        assert _registered(d) == [] and _open_files(d) == []

    def test_facade_search_after_write_loads_only_new_generation(
            self, tmp_path, monkeypatch):
        from yetisearch_ray.facade import YetiSearchRay

        ys = YetiSearchRay(str(tmp_path / "root"))
        ys.create_index("books", fields=["title", "content"],
                        num_partitions=4)
        ys.index_batch("books", [{"content": {
            "title": f"book {i}", "content": f"rocket w{i % 7} {WORDS[i % 6]}"}}
            for i in range(60)])
        assert ys.search("books", "rocket zulu", limit=100).num_rows == 60
        ys.index_batch("books", [{"content": {
            "title": "late", "content": "rocket zulu"}}])
        loads = _Loads(monkeypatch)  # the build checked its new chunk
        got = ys.search("books", "rocket zulu", limit=100)
        assert got.num_rows == 61
        new_id = ys.last_assigned_ids[0]
        assert got["doc_id"][0].as_py() == new_id  # matches both terms
        assert loads.segments and all(
            p.endswith("-g001") for p in loads.segments), loads.segments
        chunks = Manifest.load(os.path.join(ys.root, "books")) \
            .docstore_chunks()
        assert loads.chunks == [c["name"] for c in chunks if c["gen"] == 1]
        ys.close()

    def test_registry_empties_when_readers_are_gone(self, tmp_path):
        d = str(tmp_path / "idx")
        _build(d, _corpus(range(100)))
        eng = _engine(d)
        want = _results(eng)
        assert _registered(d)
        eng.index.close()  # drops the references of the only holder
        assert _registered(d) == [] and _open_files(d) == []
        eng.index._cache.clear()
        assert _results(eng) == want  # the reader re-acquires
        assert _registered(d)
        del eng
        gc.collect()
        assert _registered(d) == [] and _open_files(d) == []

    def test_superseded_snapshot_says_so(self, tmp_path):
        """A reader that searched, then saw an ``optimize_index``, on
        its first touch of a partition it had not opened; and a reader
        that had opened nothing, on its first gather once no other
        reader holds the old chunks."""
        from yetisearch_ray.index.manage import delete_docs, optimize_index

        d = str(tmp_path / "idx")
        docs = _corpus(range(150))
        _build(d, {i: docs[i] for i in range(100)})
        _build(d, {i: docs[i] for i in range(100, 150)}, append=True,
               tag="gen1")
        delete_docs(d, [120])
        searched, untouched = _engine(d), _engine(d)
        searched.search("alpha")
        optimize_index(d)
        held = searched.index._term_parts("alpha")
        other = next(w for w in (f"w{i}" for i in range(13))
                     if searched.index._term_parts(w)[0] not in held)
        superseded = ("superseded by a later commit; open the index "
                      "again")
        with pytest.raises(CorruptSegmentError, match=superseded):
            searched.search(other)
        del searched  # the holder of every chunk it had loaded
        gc.collect()
        with pytest.raises(CorruptSegmentError,
                           match="docstore chunk .*" + superseded):
            untouched.index.docs([130])
        assert _engine(d).search(other).num_rows  # a new reader serves


def _open_files(d):
    """Paths under ``d`` this process holds a descriptor or a map of."""
    root = os.path.realpath(d)
    fds = "/proc/self/fd"
    out = set()
    for fd in os.listdir(fds):
        try:
            out.add(os.readlink(os.path.join(fds, fd)))
        except OSError:  # closed since the listing
            pass
    with open("/proc/self/maps") as f:
        out.update(ln.split(None, 5)[5].strip() for ln in f
                   if len(ln.split(None, 5)) == 6)
    return sorted(p for p in out if p.startswith(root))


def _reads(eng):
    """Ids-only results, a docs gather and highlighted searches."""
    return (_results(eng),
            eng.index.docs(list(range(0, 300, 7))).to_pylist(),
            [eng.search(q, limit=20, with_docs=True, highlight=True)
             .to_pylist() for q in QUERIES])


def _perfbench_queries():
    """``QUERY_SET`` and ``DOCS_PROBE`` of ``perfbench/workloads.py``,
    read without importing the benchmark."""
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as f:
        tree = ast.parse(f.read())
    got = {t.id: ast.literal_eval(node.value) for node in tree.body
           if isinstance(node, ast.Assign) for t in node.targets
           if isinstance(t, ast.Name)
           and t.id in ("QUERY_SET", "DOCS_PROBE")}
    return got["QUERY_SET"], got["DOCS_PROBE"]


class _Opens:
    """Spy on the opens of files under ``d`` the way ``segment.py`` and
    ``docstore.py`` open them: a ``.blk`` (``os.open``), a dictionary
    (``pq.ParquetFile``), a chunk (``pa.memory_map``)."""

    def __init__(self, monkeypatch, d):
        import pyarrow.parquet as pq

        self.files = []
        root = os.path.realpath(d)

        def spy(real):
            def opened(path, *a, **kw):
                if os.path.realpath(str(path)).startswith(root):
                    self.files.append(os.path.basename(path))
                return real(path, *a, **kw)
            return opened

        monkeypatch.setattr(os, "open", spy(os.open))
        monkeypatch.setattr(pq, "ParquetFile", spy(pq.ParquetFile))
        monkeypatch.setattr(pa, "memory_map", spy(pa.memory_map))


@pytest.mark.usefixtures("ray_session")
def test_fresh_reader_of_a_held_snapshot_opens_no_file(tmp_path,
                                                       monkeypatch):
    """The benchmark's ``update`` read pass (its query set, then its
    docs probes with docs and highlights) on a reader opened afresh
    while a reader of the same snapshot that ran it is alive opens no
    file; after an append, only generation-1 files."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from yetisearch_ray.index.build import IndexConfig, build_index
    from yetisearch_ray.sources.corpus import generate_code_corpus

    query_set, docs_probe = _perfbench_queries()

    def read_pass(eng):
        return ([eng.search(q, limit=10, **kw).to_pylist()
                 for q, kw in query_set]
                + [eng.search(q, limit=10, with_docs=True, highlight=True,
                              **kw).to_pylist() for q, kw in docs_probe])

    t = pq.read_table(generate_code_corpus(
        400, str(tmp_path / "corpus"), num_files=2))
    t = t.append_column("doc_id", pa.array(range(t.num_rows), pa.uint64()))
    d = str(tmp_path / "idx")
    cfg = IndexConfig(
        fields=[("path", "path"), ("content", "content")],
        language_column="lang",
        store_columns=["repo", "path", "commit", "lang", "content"],
        num_partitions=8, content_hash_column="content")
    build_index(rd.from_arrow(t.slice(0, 300)), d, cfg)
    live = _engine(d)
    want = read_pass(live)
    opens = _Opens(monkeypatch, d)
    fresh = _engine(d)
    assert read_pass(fresh) == want
    assert opens.files == []
    monkeypatch.undo()
    build_index(rd.from_arrow(t.slice(300)), d, cfg, append=True,
                input_fingerprint="gen1")
    new_chunks = {c["name"] for c in Manifest.load(d).docstore_chunks()
                  if c["gen"] == 1}
    opens = _Opens(monkeypatch, d)
    appended = _engine(d)
    got = read_pass(appended)
    assert any(r["doc_id"] >= 300 for rows in got for r in rows)
    assert opens.files and all(
        "-g001." in f or f in new_chunks for f in opens.files), opens.files
    assert new_chunks <= set(opens.files)


@pytest.mark.usefixtures("ray_session")
def test_reading_process_exits_without_resource_warnings(tmp_path):
    d = str(tmp_path / "idx")
    _build(d, _corpus(range(100)))
    code = "\n".join([
        "from yetisearch_ray.search.engine import SearchEngine, open_index",
        f"eng = SearchEngine(open_index({d!r}), cache_ttl=0.0)",
        "assert eng.search('alpha', limit=5).num_rows",
        "assert eng.search('beta gamma', limit=5, with_docs=True,",
        "                  highlight=True).num_rows",
        "assert eng.index.docs([1, 2, 3]).num_rows == 3",
        f"other = open_index({d!r})",
        "other.postings('sigma')",
        "other.close()",
        "print('ok')"])
    p = subprocess.run([sys.executable, "-X", "dev", "-c", code], cwd=ROOT,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0 and p.stdout.strip() == "ok", p.stderr
    assert "ResourceWarning" not in p.stderr, p.stderr


def _segment_ids(d):
    return Manifest.load(d).segment_ids()


def _doc_ids(postings):
    return {f: p.doc_ids.tolist() for f, p in postings.items()}


@pytest.mark.usefixtures("ray_session")
class TestSegmentIds:
    def _index(self, tmp_path):
        d = str(tmp_path / "idx")
        _build(d, _corpus(range(200)))
        reader = open_index(d)
        return d, reader._term_parts("w3")[0]

    def test_manifest_and_files_carry_one_id(self, tmp_path):
        d, _ = self._index(tmp_path)
        ids = _segment_ids(d)
        man = Manifest.load(d)
        assert man.data["format_version"] == FORMAT_VERSION
        assert set(ids) == {(p, 0) for p in range(4)}
        assert len(set(ids.values())) == 4
        for (p, g), sid in ids.items():
            with Segment(d, p, g) as seg:
                assert seg.seg_id == sid
        with DocStore.committed(d, man) as store:
            chunk_ids = [store.chunk(i).chunk_id
                         for i in range(len(store.chunks))]
            assert chunk_ids == [c["chunk_id"] for c in store.chunks]
        assert len(set(chunk_ids)) == len(chunk_ids) > 0

    def test_rewritten_dictionary_is_refused(self, tmp_path):
        d, part = self._index(tmp_path)
        _rewrite(d, part)
        with pytest.raises(CorruptSegmentError,
                           match=f"term dictionary of partition {part:05d} "
                                 f"generation 0 .*segment id"):
            _engine(d).search("w3")

    def test_rewritten_chunk_is_refused(self, tmp_path):
        """The chunk holding the doc lengths, rewritten unchanged under
        its own name and a new chunk id, leaving the manifest alone."""
        d, _ = self._index(tmp_path)
        (c,) = Manifest.load(d).docstore_chunks()
        with DocStore.committed(d) as store:
            t = store.chunk(0).read(["doc_id", "body", DL_COLUMN])
        docstore.write_chunk(d, t.select(["doc_id", "body"]), "doc_id",
                             t[DL_COLUMN].to_numpy())
        with pytest.raises(CorruptSegmentError,
                           match=f"docstore chunk {c['name']} .*chunk id"):
            _engine(d).search("w3")

    def test_held_segment_serves_its_bytes_after_a_rename_over_it(
            self, tmp_path):
        """A reader that finds a held segment reads through its open
        descriptor, not the path: a same-size file of other bytes
        renamed over the ``.blk`` changes nothing for it.  A reader with
        no holder opens the path, whose damaged bytes it refuses, and
        loads only a ``.blk`` of the size its dictionary addresses."""
        d, part = self._index(tmp_path)
        holder = open_index(d)
        want = _doc_ids(holder.postings("w3"))
        blk = segment.segment_paths(d, part, 0)[1]
        size = os.path.getsize(blk)

        def rename_over(data):
            with open(blk + ".new", "wb") as f:
                f.write(data)
            os.replace(blk + ".new", blk)

        rename_over(b"\xff" * size)
        assert _doc_ids(open_index(d).postings("w3")) == want
        del holder
        gc.collect()
        assert _registered(d) == []
        where = f"partition {part:05d} generation 0"
        with pytest.raises(CorruptSegmentError,
                           match=f"damaged posting block of {where}"):
            open_index(d).postings("w3")
        rename_over(b"\xff" * (size - 1))
        with pytest.raises(CorruptSegmentError,
                           match=f"posting blocks of {where} .*are "
                                 f"{size - 1} bytes"):
            open_index(d).postings("w3")

    def test_verify_reports_a_segment_rewritten_under_its_name(
            self, tmp_path):
        d, part = self._index(tmp_path)
        code, out = _verify(d)
        assert code == 0 and out["ok"], out
        _rewrite(d, part)
        code, out = _verify(d)
        assert code == 1 and not out["ok"]
        assert [p for p in out["problems"] if "segment id" in p] == [
            p for p in out["problems"]
            if f"partition {part:05d} generation 0" in p]
        assert len(out["problems"]) == 1

    def _refused_until_rebuilt(self, tmp_path, version):
        from yetisearch_ray.index.manage import rebuild_index

        d, _ = self._index(tmp_path)
        want = _results(_engine(d))
        man = Manifest.load(d)
        man.data["format_version"] = version
        if version < 4:  # segment ids came with format 4
            for v in man.data["partitions"].values():
                v.pop("seg_id")
        _to_format_5_docstore(d, man)
        man.save()
        assert not Manifest.is_ready(d)
        with pytest.raises(ValueError, match="rebuild_index"):
            open_index(d)
        rebuild_index(d)
        assert Manifest.is_ready(d) and len(_segment_ids(d)) == 4
        assert not os.path.exists(os.path.join(d, "doclens"))
        assert _results(_engine(d)) == want

    def test_format_3_is_refused_until_rebuilt(self, tmp_path):
        self._refused_until_rebuilt(tmp_path, 3)

    def test_format_4_is_refused_until_rebuilt(self, tmp_path):
        """Format 4 held varbyte posting runs."""
        self._refused_until_rebuilt(tmp_path, 4)

    def test_format_5_is_refused_until_rebuilt(self, tmp_path):
        """Format 5 kept doc lengths in ``doclens/`` Parquet files and
        chunks without a length column, chunk id or ``sum_dl``."""
        self._refused_until_rebuilt(tmp_path, 5)


def _to_format_5_docstore(d, man):
    """The docstore of formats 3-5: chunks without the length column,
    chunk id or ``sum_dl``, the lengths in ``doclens/`` files."""
    from yetisearch_ray.index.docstore import _META_KEY

    with DocStore.committed(d, man) as store:
        tables = [store.chunk(i).read(store.schema.names)
                  for i in range(len(store.chunks))]
        metas = [json.loads(pa.ipc.open_file(store.chunk(i)._map)
                            .schema.metadata[_META_KEY])
                 for i in range(len(store.chunks))]
    for c, t, meta in zip(man.docstore_chunks(), tables, metas):
        del meta["sum_dl"], meta["chunk_id"], c["sum_dl"], c["chunk_id"]
        path = os.path.join(d, "docs", c["name"])
        with pa.OSFile(path, "wb") as f, pa.ipc.new_file(
                f, t.schema.with_metadata({_META_KEY: json.dumps(meta)}),
                options=pa.ipc.IpcWriteOptions(compression="zstd")) as w:
            w.write_table(t, max_chunksize=docstore.DOC_ROWS)
    os.makedirs(os.path.join(d, "doclens"))
    with open(os.path.join(d, "doclens", "part=00000-g000.parquet"),
              "wb") as f:
        f.write(b"PAR1")


def _rewrite(d, part):
    """Rewrite one segment, unchanged, under its own name and a new id,
    leaving the manifest alone."""
    with Segment(d, part, 0) as seg:
        rows = list(seg.runs())
    write_segment(d, part, 0, [r[0] for r in rows], [r[3][0] for r in rows],
                  [r[1] for r in rows], [r[2] for r in rows],
                  [r[3][1] for r in rows], [r[3][2] for r in rows],
                  [r[3][3] for r in rows])


def _verify(d):
    p = subprocess.run([sys.executable, "-m", "yetisearch_ray.cli", "verify",
                        "--index", d], cwd=ROOT, capture_output=True,
                       text=True, timeout=120)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.usefixtures("ray_session")
def test_optimize_ignores_an_uncommitted_chunk(tmp_path):
    """A chunk left by an append killed before its commit is not the
    index's: optimize must not count its rows or lengths, nor may the
    next append commit it."""
    from yetisearch_ray.index.manage import optimize_index

    d = str(tmp_path / "idx")
    _build(d, _corpus(range(40)))
    want = _results(_engine(d))
    stats = dict(Manifest.load(d).stats)
    left = docstore.write_chunk(d, pa.table({
        "doc_id": pa.array(range(40, 50), pa.uint64()),
        "body": ["zulu"] * 10}), "doc_id", [7] * 10)
    optimize_index(d)
    man = Manifest.load(d)
    assert man.stats == stats
    assert left["name"] not in {c["name"] for c in man.docstore_chunks()}
    assert open_index(d).n_rows == 40
    assert _results(_engine(d)) == want
    _build(d, _corpus(range(100, 110)), append=True, tag="gen1")
    assert Manifest.load(d).stats["n_docs"] == open_index(d).n_rows == 50
    assert not os.path.exists(os.path.join(d, "docs", left["name"]))


@pytest.mark.usefixtures("ray_session")
def test_generation_reader_stats_equal_those_of_its_docs(tmp_path):
    """N and avgdl of a ``max_generation`` reader are sums over its
    generations' chunk entries: those of an index built from only
    those generations' docs."""
    d = str(tmp_path / "idx")
    docs = _corpus(range(120))
    docs.update(_corpus(range(120, 170), extra="zulu zulu alpha beta"))
    docs.update(_corpus(range(170, 200), extra="sigma"))
    _build(d, {i: docs[i] for i in range(120)})
    _build(d, {i: docs[i] for i in range(120, 170)}, append=True, tag="g1")
    _build(d, {i: docs[i] for i in range(170, 200)}, append=True, tag="g2")
    for gen, hi in ((0, 120), (1, 170), (2, 200)):
        ref = str(tmp_path / f"ref{gen}")
        _build(ref, {i: docs[i] for i in range(hi)})
        pinned, whole = open_index(d, max_generation=gen), open_index(ref)
        assert (pinned.n_docs, pinned.avgdl) == (whole.n_docs, whole.avgdl)
        assert pinned.n_docs == hi


class TestManifestSave:
    def test_fsyncs_file_then_directory(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                         else "file")
            fsync(fd)

        def spy_replace(a, b):
            calls.append("replace")
            replace(a, b)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        man = Manifest(str(tmp_path / "manifest.json"), {"a": 1})
        man.save()
        assert calls == ["file", "replace", "dir"]
        assert Manifest.load(str(tmp_path)).data == {"a": 1}

    def test_failed_write_leaves_no_tmp_file(self, tmp_path):
        man = Manifest(str(tmp_path / "manifest.json"), {"a": 1})
        man.save()
        man.data["bad"] = object()
        with pytest.raises(TypeError):
            man.save()
        assert os.listdir(tmp_path) == ["manifest.json"]
        assert Manifest.load(str(tmp_path)).data == {"a": 1}


@pytest.mark.usefixtures("ray_session")
def test_schema_less_build_blocks_come_from_rays_sort(tmp_path, monkeypatch):
    """Ray Data logs "Operator produced a RefBundle with a different
    schema ... new schema: ." during a build.  Record where the
    schema-less bundles come from: empty ranges of Ray's sort (the
    ``groupby("part")`` exchange) and the ``map_groups`` stage that
    consumes them, which never calls our segment builder on an empty
    block.  None comes from our ingest operator, and none has rows."""
    from ray.data._internal.execution import streaming_executor_state as ses

    seen = []
    add_output = ses.OpState.add_output

    def spy(state, ref):
        schema = ref.schema
        if schema is not None and not list(schema.names):
            deps = [o.name for o in state.op.input_dependencies]
            seen.append((state.op.name, deps, ref.num_rows()))
        return add_output(state, ref)

    monkeypatch.setattr(ses.OpState, "add_output", spy)
    _build(str(tmp_path / "idx"), _corpus(range(400)))
    for name, deps, rows in seen:
        assert rows == 0
        assert name == "Sort" or deps == ["Sort"], seen
