"""Docstore gather: ``IndexReader.docs`` decodes only the docstore
batches whose id range holds a requested id (``index/docstore.py``).

Checked against a brute-force read of the whole docstore
(``DocStore.scan``) on every layout the writers produce -- a fresh
build, appended generations, an append whose ids fall between the
base's, a delete + optimize rewrite -- and on chunks of 1-row batches.  ``search(with_docs=True, highlight=True)`` is
checked against the pandas join it replaced."""

import shutil
from unittest import mock

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from yetisearch_ray.index import docstore
from yetisearch_ray.index.docstore import DocStore
from yetisearch_ray.index.manifest import Manifest
from yetisearch_ray.search.engine import (SearchEngine, compile_query,
                                          make_snippet, open_index)

STORED = ["path", "lang", "content"]
COLUMNS = ["doc_id"] + STORED
N_DOCS = 200  # ids are 3*i, so every range has absent ids inside it
LAYOUTS = ["fresh", "appended", "optimized", "one_row_batches",
           "interleaved"]
# the benchmark's docs probes (perfbench/workloads.py DOCS_PROBE)
DOCS_PROBE = [("parse buffer", {}), ("retry backoff", {"mode": "and"}),
              ('"exponential backoff"', {}), ("deadline", {}),
              ("hash table index", {})]


def _rows(lo, hi, offset=0):
    return [{"doc_id": 3 * i + offset, "path": f"src/mod{i % 9}/f{i}.py",
             "lang": ("python", "rust", "go")[i % 3],
             "content": ("parse buffer "
                         + ("retry backoff" if i % 4 else "deadline")
                         + f" hash table index{i % 7} exponential backoff")}
            for i in range(lo, hi)]


@pytest.fixture(scope="module")
def layouts(ray_session, tmp_path_factory):
    import ray.data as rd

    from yetisearch_ray.index.build import IndexConfig, build_index
    from yetisearch_ray.index.manage import delete_docs, optimize_index

    root = tmp_path_factory.mktemp("gather")
    cfg = IndexConfig(fields=[("path", "path"), ("content", "content")],
                      language_column="lang", store_columns=STORED,
                      num_partitions=4)
    out = {k: str(root / k) for k in LAYOUTS}
    build_index(rd.from_items(_rows(0, 120)).repartition(4), out["fresh"], cfg)
    shutil.copytree(out["fresh"], out["appended"])
    for lo, hi in ((120, 160), (160, N_DOCS)):
        build_index(rd.from_items(_rows(lo, hi)).repartition(2),
                    out["appended"], cfg, append=True)
    shutil.copytree(out["appended"], out["optimized"])
    delete_docs(out["optimized"], [3 * i for i in range(0, N_DOCS, 7)])
    optimize_index(out["optimized"])
    # an append whose ids fall between the base's: chunk ranges overlap
    shutil.copytree(out["fresh"], out["interleaved"])
    build_index(rd.from_items(_rows(0, 90, offset=1)).repartition(3),
                out["interleaved"], cfg, append=True)
    shutil.copytree(out["appended"], out["one_row_batches"])
    man = Manifest.load(out["one_row_batches"])
    with DocStore.committed(out["one_row_batches"], man) as store, \
            mock.patch.object(docstore, "DOC_ROWS", 1):
        for i, c in enumerate(store.chunks):  # same names: same id ranges
            t = store.chunk(i).read(COLUMNS + [docstore.DL_COLUMN])
            c.update(docstore.write_chunk(
                out["one_row_batches"], t.select(COLUMNS), "doc_id",
                t[docstore.DL_COLUMN].to_numpy()))
    man.save()  # the rewritten chunks' ids
    return out


def _brute(index_dir, ids, columns):
    with DocStore.committed(index_dir) as store:
        t = store.scan()
    t = t.filter(pc.is_in(t["doc_id"], value_set=pa.array(ids, pa.uint64())))
    return t if columns is None else t.select(columns)


@st.composite
def _id_lists(draw):
    one_id = st.one_of(st.integers(0, N_DOCS - 1).map(lambda i: 3 * i),
                       st.integers(0, 3 * N_DOCS + 10))
    ids = draw(st.one_of(
        st.just([]),
        st.lists(one_id, min_size=1, max_size=1),
        st.lists(one_id, max_size=40)))
    if draw(st.booleans()):
        ids = ids + ids[: len(ids) // 2 + 1]  # duplicates
    return ids


_projections = st.one_of(
    st.none(),
    st.permutations(COLUMNS).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda k: list(p[:k]))))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(layout=st.sampled_from(LAYOUTS), ids=_id_lists(),
       columns=_projections)
@example(layout="one_row_batches", ids=list(range(0, 3 * N_DOCS, 3)),
         columns=None)
@example(layout="optimized", ids=list(range(0, 3 * N_DOCS, 3)),
         columns=["content"])
def test_gather_matches_brute_force(layouts, layout, ids, columns):
    index_dir = layouts[layout]
    got = open_index(index_dir).docs(ids, columns=columns)
    want = _brute(index_dir, ids, columns)
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows
    assert got.equals(want)  # docstore order


def test_layouts_cover_the_directory_cases(layouts):
    """The fixture exercises what the directory must handle: several
    generations, chunks rewritten without deleted rows, chunks of many
    batches and chunks whose id ranges overlap."""
    def chunks(layout):
        return open_index(layouts[layout]).manifest.docstore_chunks()

    assert {c["gen"] for c in chunks("appended")} == {0, 1, 2}
    assert any(c["rows"] < (c["hi"] - c["lo"]) // 3 + 1
               for c in chunks("optimized"))
    ranges = sorted((c["lo"], c["hi"]) for c in chunks("interleaved"))
    assert any(b[0] <= a[1] for a, b in zip(ranges, ranges[1:]))
    with DocStore.committed(layouts["one_row_batches"]) as store:
        assert all(store.chunk(i).batch_lo.size == c["rows"] > 1
                   for i, c in enumerate(store.chunks))


def _pandas_join(eng, index_dir, q, kw):
    """``search(with_docs=True, highlight=True)`` as the full-scan
    gather + pandas ``set_index().loc`` join produced it."""
    out = eng.search(q, limit=10, **kw)
    doc_ids = out["doc_id"].to_numpy()
    docs = _brute(index_dir, doc_ids, None)
    dt = docs.to_pandas().set_index("doc_id").loc[doc_ids.tolist()]
    for c in dt.columns:
        out = out.append_column(c, pa.array(dt[c].tolist()))
    cq = compile_query(q, eng.analyzer, mode=kw.get("mode", "smart"))
    terms = [t for ph in cq.phrases for t in ph.terms]
    body = eng.index.fields[-1][1]
    snips = [make_snippet(s, terms) for s in dt[body].tolist()]
    return out.append_column("highlight", pa.array(snips, pa.string()))


@pytest.mark.parametrize("q,kw", DOCS_PROBE)
def test_search_with_docs_matches_pandas_join(layouts, built_index, q, kw):
    for index_dir in (built_index, layouts["appended"], layouts["optimized"],
                      layouts["interleaved"]):
        eng = SearchEngine(open_index(index_dir), cache_ttl=0.0)
        got = eng.search(q, limit=10, with_docs=True, highlight=True, **kw)
        want = _pandas_join(eng, index_dir, q, kw)
        assert got.num_rows > 0, (index_dir, q)
        assert got.equals(want, check_metadata=True), (index_dir, q)
