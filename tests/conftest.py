import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_corpus_dir(tmp_path_factory):
    """1k-doc deterministic source-code corpus (north-rule schema)."""
    from yetisearch_ray.sources.corpus import generate_code_corpus

    out = str(tmp_path_factory.mktemp("corpus"))
    generate_code_corpus(300, out, num_files=3)
    return out


@pytest.fixture(scope="session")
def built_index(ray_session, tiny_corpus_dir, tmp_path_factory):
    """Index built over the tiny corpus: fields path (title-like) + content."""
    from yetisearch_ray.index.build import IndexConfig, build_index
    from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

    idx_dir = str(tmp_path_factory.mktemp("index")) + "/idx"
    ds = read_parquet_with_doc_ids(tiny_corpus_dir)
    cfg = IndexConfig(
        fields=[("path", "path"), ("content", "content")],
        language_column="lang",
        store_columns=["repo", "path", "commit", "lang", "content"],
        num_partitions=8,
        content_hash_column="content",
    )
    build_index(ds, idx_dir, cfg, input_fingerprint="tiny300")
    return idx_dir


@pytest.fixture(scope="session")
def perfbench_queries():
    """``QUERY_SET`` and ``DOCS_PROBE`` of ``perfbench/workloads.py``,
    read without importing the benchmark."""
    import ast

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "workloads.py")) as f:
        tree = ast.parse(f.read())
    got = {t.id: ast.literal_eval(node.value) for node in tree.body
           if isinstance(node, ast.Assign) for t in node.targets
           if isinstance(t, ast.Name)
           and t.id in ("QUERY_SET", "DOCS_PROBE")}
    return got["QUERY_SET"], got["DOCS_PROBE"]
