"""Keyed exchange for the pipelines: co-locate rows by key, then run one
vectorized kernel per bucket of keys.

``map_groups`` invokes its function once per group, so grouping by the
key itself (a user, a term, a doc, a window) would be one Python call
plus one pandas frame per key — a per-key loop at the reduce.  Grouping
by a HASH BUCKET of the key instead holds every row of a key in exactly
one bucket by construction, and each call processes a whole bucket
(|keys| / ``buckets`` keys) with one sort + segment arithmetic or one
pandas groupby.  Kernels return Arrow tables where the result enters a
further shuffle: pandas blocks entering a Ray Data shuffle are ~20x
slower than Arrow blocks.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

DEFAULT_BUCKETS = 64
_BKT = "_bkt"


def bucket_ids(keys, buckets: int = DEFAULT_BUCKETS) -> np.ndarray:
    """Bucket in ``[0, buckets)`` of every key, as int64.

    Integer keys map to ``key % buckets``.  Any other type (strings,
    timestamps) hashes its dictionary-encoded uniques with
    ``pd.util.hash_array``, so a timestamp key spreads over the buckets
    even when every value is a multiple of ``buckets`` (hour-aligned
    window starts in µs).  Takes Arrow arrays or anything ``pa.array``
    accepts (NumPy arrays, pandas Series)."""
    arr = keys if isinstance(keys, (pa.Array, pa.ChunkedArray)) \
        else pa.array(keys)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_integer(arr.type):
        return arr.to_numpy(zero_copy_only=False).astype(np.int64) % buckets
    d = arr.dictionary_encode(null_encoding="encode")
    h = pd.util.hash_array(d.dictionary.to_numpy(zero_copy_only=False))
    return (h % buckets).astype(np.int64)[
        d.indices.to_numpy(zero_copy_only=False)]


def bucketed_apply(ds, key: str, kernel, *, buckets: int = DEFAULT_BUCKETS):
    """``kernel(frame)`` once per bucket of ``key`` values over ``ds``.

    Every row of one key value reaches the same call, and the frame
    holds exactly ``ds``'s columns (the bucket column is dropped before
    the kernel sees it).  Blocks enter the exchange without schema
    metadata (see ``dedup._strip_meta``), so callers need not strip it.
    Returns the lazy ``Dataset`` of the kernel outputs."""

    def tag(t: pa.Table) -> pa.Table:
        return t.replace_schema_metadata(None).append_column(
            _BKT, pa.array(bucket_ids(t[key], buckets), pa.int64()))

    def run(g: pd.DataFrame):
        del g[_BKT]
        return kernel(g)

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby(_BKT).map_groups(run, batch_format="pandas"))
