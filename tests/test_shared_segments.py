"""Shared segment state (``yetisearch_ray/index/segment.py``), shared
docstore columns (``yetisearch_ray/index/docstore.py``) and the manifest
writes around them.

- A committed segment's dictionary and a committed docstore chunk's
  columns (its doc lengths among them) load once per process and are
  shared by every reader whose manifest commits them, keyed by their
  segment or chunk id, not their file name: an
  ``optimize_index`` that rewrites the ``-g000`` names while a reader
  of the old snapshot is alive, and dropping and re-creating an index
  at the same path, each leave the old reader on its snapshot and the
  new one on the new files.
- A reader holds what other readers had loaded when it opened.
- Threads opening readers at once end up sharing one copy.
- A reader opened after an append, and the facade's write-then-search
  traffic, load only the new generation's segments and chunks.
- The registries empty once every reader is gone.
- A file whose segment id is not its manifest's, or a ``.blk`` that is
  not the file its shared dictionary was loaded against, raises
  ``CorruptSegmentError`` naming the partition and generation, and
  ``cli verify`` exits 1 on a rewritten segment; a chunk whose chunk id
  is not its manifest's raises it naming the chunk.
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
    return [k for reg in (segment._DICTIONARIES, docstore._COLUMNS)
            for k in list(reg.keys()) if k[0] == root]


class _Loads:
    """Spy on the loads from disk of dictionaries (``paths``, file
    names) and chunk columns (``chunks``, ``(chunk name, column)``)."""

    def __init__(self, monkeypatch):
        self.paths, self.chunks = [], []
        base = segment.TermDictionary

        def load_dictionary(obj, path, *rest):
            self.paths.append(os.path.basename(path))
            base.__init__(obj, path, *rest)

        monkeypatch.setattr(segment, "TermDictionary", type(
            "TermDictionary", (base,), {"__init__": load_dictionary}))
        col_base = docstore.ChunkColumn

        def load_column(obj, ch, id_column, col):
            self.chunks.append((ch.name, col))
            col_base.__init__(obj, ch, id_column, col)

        monkeypatch.setattr(docstore, "ChunkColumn", type(
            "ChunkColumn", (col_base,), {"__init__": load_column}))


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
        # every dictionary and chunk column (doc lengths) shared
        assert loads.paths == [] and loads.chunks == []
        for p in second.index._segments.part_gens:
            for a, b in zip(first.index._segments.partition(p),
                            second.index._segments.partition(p)):
                assert a.dictionary is b.dictionary
                assert a._blk is not b._blk  # descriptors stay per reader

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
        assert loads.paths == [] and loads.chunks == []

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
        assert sorted(loads.chunks) == sorted(
            (name, DL_COLUMN) for name in new_chunks)
        assert loads.paths and all("-g001." in p for p in loads.paths)

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
            assert all(seg.dictionary is not s.dictionary
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
        snapshot at once, with a short switch interval: every reader
        gets the same result and all of them end up on one copy of each
        dictionary and doc-length file."""
        d = str(tmp_path / "idx")
        _build(d, _corpus(range(300)))
        want = _results(_engine(d))
        gc.collect()  # nothing registered: the threads race to load
        assert _registered(d) == []
        n = 8
        start = threading.Barrier(n)
        out, errors = [None] * n, []

        def run(i):
            try:
                start.wait(timeout=60)
                eng = _engine(d)
                out[i] = (eng, _results(eng))
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
        first = out[0][0].index._segments
        for eng, got in out:
            assert got == want
            segs = eng.index._segments
            for p in first.part_gens:
                for x, y in zip(first.partition(p), segs.partition(p)):
                    assert x.dictionary is y.dictionary
            cols = eng.index._docstore._columns
            firsts = out[0][0].index._docstore._columns
            assert cols.keys() == firsts.keys() and cols
            assert all(cols[k] is v for k, v in firsts.items())

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
        loads = _Loads(monkeypatch)
        ys.index_batch("books", [{"content": {
            "title": "late", "content": "rocket zulu"}}])
        got = ys.search("books", "rocket zulu", limit=100)
        assert got.num_rows == 61
        new_id = ys.last_assigned_ids[0]
        assert got["doc_id"][0].as_py() == new_id  # matches both terms
        assert loads.paths and all("-g001." in p for p in loads.paths), \
            loads.paths
        chunks = Manifest.load(os.path.join(ys.root, "books")) \
            .docstore_chunks()
        assert loads.chunks == [(c["name"], DL_COLUMN) for c in chunks
                                if c["gen"] == 1]
        ys.close()

    def test_registry_empties_when_readers_are_gone(self, tmp_path):
        d = str(tmp_path / "idx")
        _build(d, _corpus(range(100)))
        eng = _engine(d)
        _results(eng)
        eng.index.close()  # descriptors only: the state stays held
        assert _registered(d)
        del eng
        gc.collect()
        assert _registered(d) == []


def _segment_ids(d):
    return Manifest.load(d).segment_ids()


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

    def test_blocks_replaced_under_a_loaded_dictionary_are_refused(
            self, tmp_path):
        """A reader that finds a shared dictionary still opens its own
        ``.blk``: one that is not the file the dictionary was loaded
        against (here a same-size copy renamed over it) is refused."""
        d, part = self._index(tmp_path)
        holder = open_index(d)
        holder.postings("w3")  # registers the dictionary
        blk = segment.segment_paths(d, part, 0)[1]
        with open(blk, "rb") as f, open(blk + ".new", "wb") as g:
            g.write(f.read())
        os.replace(blk + ".new", blk)
        with pytest.raises(CorruptSegmentError,
                           match=f"posting blocks of partition {part:05d} "
                                 f"generation 0 .*replaced"):
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
