"""yetisearch_ray — a Ray-Data-native full-text indexing and BM25 query engine.

A from-scratch re-expression of the capabilities of yetidevworks/yetisearch
(pure-PHP SQLite-FTS5 search library; reference read-only at /root/reference)
as an idiomatic Ray Data pipeline:

- ``ray.data.Dataset`` + ``map_batches`` over zero-copy Arrow batches for the
  analysis chain (tokenize / chunk / normalize),
- an explicit term-hash-partitioned shuffle (``groupby("part").map_groups``)
  building sorted, delta-encoded, fixed-width packed posting lists per partition,
- per-partition segment files + manifest for resumable builds,
- a stateful query engine (usable standalone or as a ``map_batches`` actor
  pool) implementing SQLite-FTS5 BM25 semantics (k1=1.2, b=0.75, negated,
  column-weighted) plus the reference's post-scoring layers.

Nothing here is a port: the reference tells us WHAT to compute (see
SURVEY.md), the architecture is Ray-Data-first.
"""

__version__ = "0.1.0"

from .facade import YetiSearchRay  # noqa: E402

__all__ = ["YetiSearchRay", "__version__"]
