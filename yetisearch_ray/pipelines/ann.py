"""Similarity search over embedding columns.

- ``cosine_topk``: brute-force exact cosine top-k against a broadcast
  query matrix — numpy matmul per batch (the scale baseline: every batch
  task does one GEMM against the broadcast queries; a per-batch local
  top-k keeps the sort input tiny).
- ``ivf_topk``: IVF-bucketed variant — deterministic k-means (fixed seed,
  few Lloyd iterations, fit on a driver-side sample), assignment via
  map_batches, probe only ``nprobe`` nearest centroids.  With
  ``nprobe == n_clusters`` it is exact (== brute force) which is how the
  correctness oracle checks it; smaller nprobe is the scale path.
- ``lsh_bucket_topk``: random-hyperplane LSH variant (approximate,
  rows-only check).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _batch_vectors(t: pa.Table, col: str) -> np.ndarray:
    lst = t[col]
    if lst.num_chunks == 1:
        arr = lst.chunk(0)
    else:
        arr = lst.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _fit_sample(ds, vec_col: str, sample_size: int, seed: int) -> np.ndarray:
    """Bounded, UNIFORM (seeded) sample matrix for centroid fitting.

    A prefix sample (``ds.limit``) would fit centroids on the corpus
    head — biased whenever storage order correlates with content.  The
    uniform sample costs one counting pass, which parquet metadata makes
    cheap."""
    n = ds.count()
    if n > sample_size:
        frac = min(1.0, (sample_size * 1.25) / n)
        ds = ds.random_sample(frac, seed=seed).limit(sample_size)
    t = ds.to_pandas()
    return np.stack(t[vec_col].to_numpy()).astype(np.float64)


def cosine_topk(ds, query_vec, *, k=10, vec_col="embedding", id_col="vec_id",
                round_to=6):
    """Exact top-k by cosine similarity to one query vector.

    Per-batch GEMM + local top-k → tiny global sort.  Returns
    (id, cosine) with deterministic tie-break by id.
    """
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)

    def score(t: pa.Table) -> pa.Table:
        m = _normalize(_batch_vectors(t, vec_col))
        sims = m @ q
        ids = t[id_col].to_numpy(zero_copy_only=False)
        if sims.size > k:  # local top-k prune before the global sort
            part = np.argpartition(-sims, k)[: k * 2]
            ids, sims = ids[part], sims[part]
        return pa.table({id_col: pa.array(ids),
                         "cosine": pa.array(np.round(sims, round_to), pa.float64())})

    scored = ds.map_batches(score, batch_format="pyarrow")
    return scored.sort(["cosine", id_col], descending=[True, False]).limit(k)


def cosine_topk_batch(ds, query_matrix, *, k=10, vec_col="embedding",
                      id_col="vec_id", round_to=6):
    """Exact top-k for MANY queries at once: one GEMM per batch against
    the BROADCAST query matrix (``ray.put`` once, read per task), local
    per-query top-k prune, then a tiny (qid, cosine) global sort.

    Output: (qid, vec_id, cosine) best-first within each qid.
    """
    import ray

    q = np.asarray(query_matrix, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    q_ref = ray.put(qn)
    nq = qn.shape[0]

    def score(t: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        m = _normalize(_batch_vectors(t, vec_col))
        sims = m @ qm.T                      # (batch, nq)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        out_q, out_id, out_c = [], [], []
        for j in range(nq):
            col = sims[:, j]
            if col.size > k:
                part = np.argpartition(-col, k)[: k * 2]
            else:
                part = np.arange(col.size)
            out_q.append(np.full(part.size, j, dtype=np.int64))
            out_id.append(ids[part])
            out_c.append(np.round(col[part], round_to))
        return pa.table({
            "qid": pa.array(np.concatenate(out_q), pa.int64()),
            id_col: pa.array(np.concatenate(out_id)),
            "cosine": pa.array(np.concatenate(out_c), pa.float64()),
        })

    scored = ds.map_batches(score, batch_format="pyarrow")

    def topk_group(t: pa.Table) -> pa.Table:
        c = t["cosine"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -c))[:k]
        return pa.table({"qid": t["qid"].take(pa.array(order)),
                         id_col: pa.array(ids[order]),
                         "cosine": pa.array(c[order], pa.float64())})

    return (scored.groupby("qid")
            .map_groups(topk_group, batch_format="pyarrow")
            .sort(["qid", "cosine", id_col],
                  descending=[False, True, False]))


def kmeans_fit(sample: np.ndarray, n_clusters: int, *, iters: int = 10,
               seed: int = 42) -> np.ndarray:
    """Deterministic Lloyd k-means on a sample (driver-side, small)."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(sample.shape[0], size=min(n_clusters, sample.shape[0]), replace=False)
    cents = sample[np.sort(idx)].copy()
    for _ in range(iters):
        d = ((sample[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(cents.shape[0]):
            mask = assign == c
            if mask.any():
                cents[c] = sample[mask].mean(axis=0)
    return cents


def ivf_topk(ds, query_vec, *, k=10, n_clusters=8, nprobe=None,
             vec_col="embedding", id_col="vec_id", sample_size=2048,
             seed=42, round_to=6):
    """IVF: cluster → probe nearest ``nprobe`` centroids only.

    nprobe=None ⇒ all clusters ⇒ exact.  The centroid fit samples
    driver-side (bounded), assignment + scoring stream via map_batches
    with the centroid matrix broadcast (ray.put) once.
    """
    import ray

    nprobe = n_clusters if nprobe is None else min(nprobe, n_clusters)
    sample = _fit_sample(ds, vec_col, sample_size, seed)
    cents = kmeans_fit(sample, n_clusters, seed=seed)
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    # probe list: centroids nearest the query
    order = np.argsort(((cents - q) ** 2).sum(axis=1))
    probed = set(order[:nprobe].tolist())
    cents_ref = ray.put(cents)

    def score(t: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        m = _batch_vectors(t, vec_col)
        d = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        keep = np.isin(assign, list(probed))
        ids = t[id_col].to_numpy(zero_copy_only=False)[keep]
        mm = _normalize(m[keep])
        sims = mm @ qn
        return pa.table({id_col: pa.array(ids),
                         "cosine": pa.array(np.round(sims, round_to), pa.float64())})

    scored = ds.map_batches(score, batch_format="pyarrow")
    return scored.sort(["cosine", id_col], descending=[True, False]).limit(k)


def ivf_build(ds, out_dir, *, n_clusters=16, vec_col="embedding",
              id_col="vec_id", sample_size=2048, seed=42) -> dict:
    """Centroid-PARTITIONED vector storage: one parquet partition dir per
    IVF bucket plus a centroids sidecar.

    This is the true scale path ``ivf_topk`` approximates in-stream: a
    search probing ``nprobe`` centroids READS ONLY those partitions from
    storage (partition pruning at the read), instead of streaming every
    vector and discarding non-probed ones after assignment.
    """
    import json

    sample = _fit_sample(ds, vec_col, sample_size, seed)
    cents = kmeans_fit(sample, n_clusters, seed=seed)
    import ray

    cents_ref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        m = _batch_vectors(t, vec_col)
        d = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        return t.append_column(
            "bucket", pa.array(d.argmin(axis=1).astype(np.int32)))

    import os

    os.makedirs(out_dir, exist_ok=True)
    data_dir = os.path.join(out_dir, "data")
    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        data_dir, partition_cols=["bucket"])
    np.save(os.path.join(out_dir, "centroids.npy"), cents)
    meta = {"n_clusters": int(cents.shape[0]), "vec_col": vec_col,
            "id_col": id_col, "dim": int(cents.shape[1])}
    with open(os.path.join(out_dir, "ivf.json"), "w") as f:
        json.dump(meta, f)
    return meta


def ivf_search(out_dir, query_vec, *, k=10, nprobe=None, round_to=6):
    """Top-k over a centroid-partitioned store, reading ONLY the probed
    partitions (``nprobe=None`` probes all → exact == brute force)."""
    import json
    import os

    import ray.data as rd

    with open(os.path.join(out_dir, "ivf.json")) as f:
        meta = json.load(f)
    cents = np.load(os.path.join(out_dir, "centroids.npy"))
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    nprobe = meta["n_clusters"] if nprobe is None else min(
        int(nprobe), meta["n_clusters"])
    order = np.argsort(((cents - q) ** 2).sum(axis=1))
    import glob as _glob

    probe_files = []
    for b in order[:nprobe]:
        d = os.path.join(out_dir, "data", f"bucket={int(b)}")
        if os.path.isdir(d):
            probe_files.extend(sorted(_glob.glob(os.path.join(d, "*.parquet"))))
    vec_col, id_col = meta["vec_col"], meta["id_col"]
    if not probe_files:  # every probed bucket was empty/unwritten
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64())}))
    ds = rd.read_parquet(probe_files, columns=[id_col, vec_col])

    def score(t: pa.Table) -> pa.Table:
        m = _normalize(_batch_vectors(t, vec_col))
        sims = m @ qn
        ids = t[id_col].to_numpy(zero_copy_only=False)
        if sims.size > k:
            part = np.argpartition(-sims, k)[: k * 2]
            ids, sims = ids[part], sims[part]
        return pa.table({id_col: pa.array(ids),
                         "cosine": pa.array(np.round(sims, round_to),
                                            pa.float64())})

    return (ds.map_batches(score, batch_format="pyarrow")
            .sort(["cosine", id_col], descending=[True, False]).limit(k))


def lsh_bucket_topk(ds, query_vec, *, k=10, n_planes=12, vec_col="embedding",
                    id_col="vec_id", seed=42, round_to=6):
    """Random-hyperplane LSH: score only vectors sharing the query's sign
    bucket prefix (approximate — rows-only check)."""
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_planes, q.size))
    qsig = (planes @ q > 0).astype(np.uint8)

    def score(t: pa.Table) -> pa.Table:
        m = _batch_vectors(t, vec_col)
        sigs = (m @ planes.T > 0).astype(np.uint8)
        # keep vectors agreeing on >= n_planes-2 bits (multi-probe-ish)
        agree = (sigs == qsig[None, :]).sum(axis=1)
        keep = agree >= n_planes - 2
        ids = t[id_col].to_numpy(zero_copy_only=False)[keep]
        mm = _normalize(m[keep])
        sims = mm @ qn
        return pa.table({id_col: pa.array(ids),
                         "cosine": pa.array(np.round(sims, round_to), pa.float64())})

    scored = ds.map_batches(score, batch_format="pyarrow")
    return scored.sort(["cosine", id_col], descending=[True, False]).limit(k)


def _pair_table_from_blocks(ids_i, m_i, ids_j, m_j, threshold, round_to,
                            same_block: bool) -> pa.Table:
    """Pairs (id_a < id_b, cosine >= threshold) between two normalized
    blocks — one GEMM, vectorized emission."""
    sims = m_i @ m_j.T
    if same_block:
        # upper triangle only (i<j positionally; ids within a block are
        # not necessarily sorted, so orient each pair by id below)
        sims = np.triu(sims, k=1)
    ii, jj = np.nonzero(sims >= threshold)
    if ii.size == 0:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "cosine": pa.array([], pa.float64())})
    a = ids_i[ii].astype(np.int64)
    b = ids_j[jj].astype(np.int64)
    c = np.round(sims[ii, jj], round_to)
    keep = a != b
    a, b, c = a[keep], b[keep], c[keep]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return pa.table({"id_a": pa.array(lo, pa.int64()),
                     "id_b": pa.array(hi, pa.int64()),
                     "cosine": pa.array(c, pa.float64())})


def embedding_near_dup_pairs(ds, *, threshold=0.95, vec_col="embedding",
                             id_col="vec_id", round_to=6, method="auto",
                             num_blocks=None, n_clusters=16, nprobe=2,
                             sample_size=2048, seed=42,
                             exact_max_rows=200_000):
    """All pairs with cosine ≥ threshold.

    ``method="auto"`` (default): exact while the O(N²) GEMM is cheap
    (N ≤ ``exact_max_rows``), IVF above it — an exact all-pairs over a
    100 TB corpus is never the right default, and the caller shouldn't
    have to know that.

    ``method="exact"``: distributed block-pair GEMM.  The dataset is
    normalized into B Arrow blocks held in the OBJECT STORE (never on
    the driver), and one Ray task per block pair (i ≤ j) computes its
    GEMM slab and emits qualifying pairs.  O(N²) compute is inherent to
    an exact all-pairs operator, but it is spread over B(B+1)/2 tasks;
    the per-pair output tables stay in the object store and are handed
    to ``ray.data.from_arrow_refs`` — the driver holds only refs, never
    the pair slabs.  Raw Ray tasks are used because the Dataset API
    cannot express a self-cross-join.

    ``method="ivf"``: the 100 TB scale path — assign every vector to its
    ``nprobe`` nearest centroids (deterministic k-means on a bounded
    sample), explode to (bucket, id, vec) rows, groupby(bucket) and pair
    only within buckets.  Approximate: a qualifying pair is found iff
    the two vectors share ≥1 probed centroid (recall is validated
    against the exact method in tests at small scale); dedup across
    shared buckets is a keyed groupby.
    """
    import ray

    n = None
    if method == "auto":
        n = ds.count()
        method = "exact" if n <= exact_max_rows else "ivf"

    if method == "ivf":
        return _near_dup_pairs_ivf(ds, threshold=threshold, vec_col=vec_col,
                                   id_col=id_col, round_to=round_to,
                                   n_clusters=n_clusters, nprobe=nprobe,
                                   sample_size=sample_size, seed=seed)

    def prep(t: pa.Table) -> pa.Table:
        m = _normalize(_batch_vectors(t, vec_col))
        return pa.table({id_col: t[id_col],
                         "v": pa.array(list(m), pa.list_(pa.float64()))})

    if num_blocks is None:
        if n is None:
            n = ds.count()
        num_blocks = max(1, int(np.ceil(n / 4096)))
    blocks = ds.map_batches(prep, batch_format="pyarrow") \
               .repartition(num_blocks)
    refs = blocks.to_arrow_refs()  # object-store refs; no driver pull

    @ray.remote(num_cpus=1)
    def pair_task(bi, bj, same):
        ids_i = bi[id_col].to_numpy(zero_copy_only=False)
        m_i = np.stack(bi["v"].to_numpy(zero_copy_only=False)) \
            if bi.num_rows else np.empty((0, 1))
        ids_j = bj[id_col].to_numpy(zero_copy_only=False)
        m_j = np.stack(bj["v"].to_numpy(zero_copy_only=False)) \
            if bj.num_rows else np.empty((0, 1))
        if ids_i.size == 0 or ids_j.size == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        return _pair_table_from_blocks(ids_i, m_i, ids_j, m_j,
                                       threshold, round_to, same)

    futs = []
    for i in range(len(refs)):
        for j in range(i, len(refs)):
            futs.append(pair_task.remote(refs[i], refs[j], i == j))
    if not futs:
        return ray.data.from_arrow(pa.table(
            {"id_a": pa.array([], pa.int64()),
             "id_b": pa.array([], pa.int64()),
             "cosine": pa.array([], pa.float64())}))
    # pair slabs stay in the object store; the driver keeps refs only —
    # downstream consumers stream them (write_parquet / iter_batches)
    return ray.data.from_arrow_refs(futs)


def _near_dup_pairs_ivf(ds, *, threshold, vec_col, id_col, round_to,
                        n_clusters, nprobe, sample_size, seed):
    """IVF-bucketed near-dup pairing (see embedding_near_dup_pairs)."""
    import ray

    sample = _fit_sample(ds, vec_col, sample_size, seed)
    cents = kmeans_fit(sample, n_clusters, seed=seed)
    cents_ref = ray.put(cents)
    nprobe = min(nprobe, cents.shape[0])

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        m = _batch_vectors(t, vec_col)
        mn = _normalize(m)
        d = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        top = np.argsort(d, axis=1)[:, :nprobe]
        n = t.num_rows
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array(top.reshape(-1), pa.int32()),
            id_col: pa.array(np.repeat(ids, nprobe)),
            "v": pa.array(list(np.repeat(mn, nprobe, axis=0)),
                          pa.list_(pa.float64())),
        })

    def bucket_pairs(t: pa.Table) -> pa.Table:
        if t.num_rows < 2:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        ids = t[id_col].to_numpy(zero_copy_only=False)
        m = np.stack(t["v"].to_numpy(zero_copy_only=False))
        return _pair_table_from_blocks(ids, m, ids, m, threshold,
                                       round_to, same_block=True)

    # the same pair can surface from several probed buckets — distinct
    # with a vectorized keyed aggregate (round 5: was one Python call
    # per distinct pair; cosine is a pure function of the pair, so
    # Min() keeps the identical value)
    from ray.data.aggregate import Min

    def batch_distinct(t: pa.Table) -> pa.Table:
        out = t.group_by(["id_a", "id_b"]).aggregate([("cosine", "min")])
        return pa.table({"id_a": out["id_a"], "id_b": out["id_b"],
                         "cosine": out["cosine_min"]})

    return (ds.map_batches(assign, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(bucket_pairs, batch_format="pyarrow")
            .map_batches(batch_distinct, batch_format="pyarrow")
            .groupby(["id_a", "id_b"])
            .aggregate(Min("cosine", alias_name="cosine")))


# ---------------------------------------------------------------- PQ (ADC)


def pq_train(ds, *, m=16, n_codes=64, vec_col="embedding",
             sample_size=2048, seed=42, normalize=True) -> np.ndarray:
    """Product-quantization codebooks ``(m, n_codes, d/m)`` via
    per-subspace k-means on a seeded sample — the memory-scale path for
    100 TB ANN (a 64-dim float32 vector becomes ``m`` uint8 codes; the
    vector store shrinks ~16x and ADC scans never touch raw vectors).
    Vectors are L2-normalized first by default so ADC's L2 ordering
    matches cosine ordering downstream."""
    sample = _fit_sample(ds, vec_col, sample_size, seed)
    if normalize:
        sample = _normalize(sample)
    d = sample.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    return np.stack([
        kmeans_fit(np.ascontiguousarray(sample[:, j * sub:(j + 1) * sub]),
                   n_codes, seed=seed + j)
        for j in range(m)])


def pq_encode(ds, codebooks, *, vec_col="embedding", id_col="vec_id",
              normalize=True):
    """Encode every vector to ``m`` uint8 codes (argmin per subspace,
    one small GEMM each — fully vectorized, codebooks broadcast once)."""
    import ray

    ref = ray.put(np.ascontiguousarray(codebooks))

    def enc(t: pa.Table) -> pa.Table:
        cb = ray.get(ref)                      # (m, k, sub)
        x = _batch_vectors(t, vec_col)
        if normalize:
            x = _normalize(x)
        n = x.shape[0]
        m_, _, sub = cb.shape
        codes = np.empty((n, m_), np.uint8)
        for j in range(m_):
            xs = x[:, j * sub:(j + 1) * sub]
            c = cb[j]
            d2 = ((xs ** 2).sum(1)[:, None] - 2.0 * (xs @ c.T)
                  + (c ** 2).sum(1)[None, :])
            codes[:, j] = d2.argmin(axis=1)
        offsets = pa.array(np.arange(0, (n + 1) * m_, m_, dtype=np.int32))
        col = pa.ListArray.from_arrays(
            offsets, pa.array(codes.reshape(-1), pa.uint8()))
        return pa.table({id_col: t[id_col], "codes": col})

    return ds.map_batches(enc, batch_format="pyarrow")


def pq_topk(ds, query_vec, *, k=10, m=16, n_codes=64, vec_col="embedding",
            id_col="vec_id", sample_size=2048, seed=42, round_to=6):
    """Asymmetric-distance (ADC) top-k: train codebooks on a sample,
    encode the corpus to uint8 codes, then score every doc as
    ``sum_j LUT[j, code_j]`` where LUT holds the query's squared
    distances to each subspace centroid — no raw vector is touched at
    scan time.  Distributed top-k via sort+limit (only k rows reach the
    driver).  Returns (id, adc_dist) ascending; with normalized inputs
    the ordering approximates cosine descending."""
    import ray

    cb = pq_train(ds, m=m, n_codes=n_codes, vec_col=vec_col,
                  sample_size=sample_size, seed=seed)
    q = np.asarray(query_vec, np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    sub = cb.shape[2]
    lut = np.stack([((cb[j] - q[j * sub:(j + 1) * sub]) ** 2).sum(axis=1)
                    for j in range(cb.shape[0])])  # (m, n_codes)
    lut_ref = ray.put(lut)
    codes = pq_encode(ds, cb, vec_col=vec_col, id_col=id_col)

    def score(t: pa.Table) -> pa.Table:
        lu = ray.get(lut_ref)
        m_ = lu.shape[0]
        flat = np.asarray(t["codes"].combine_chunks().flatten(), np.int64)
        c = flat.reshape(-1, m_)
        dist = lu[np.arange(m_)[None, :], c].sum(axis=1)
        return pa.table({id_col: t[id_col],
                         "adc_dist": pa.array(np.round(dist, round_to),
                                              pa.float64())})

    scored = codes.map_batches(score, batch_format="pyarrow")
    return scored.sort(["adc_dist", id_col]).limit(k)


# ------------------------------------------------------------- IVF-PQ store


def ivfpq_build(ds, out_dir, *, n_clusters=16, m=16, n_codes=64,
                vec_col="embedding", id_col="vec_id", sample_size=2048,
                seed=42) -> dict:
    """IVF-PQ store — the canonical billion-scale vector layout (FAISS
    IVFPQ shape): vectors are normalized, coarse-assigned to a centroid
    partition, and stored as ``m`` uint8 codes of the RESIDUAL
    ``x - centroid`` (residual PQ recovers most of the accuracy a raw-
    vector PQ loses to coarse cell size).  Storage per vector: m bytes +
    an id — raw vectors are never written.  Searches read only the
    probed partitions (pruning at the read) and scan codes via LUT.
    """
    import json
    import os

    sample = _normalize(_fit_sample(ds, vec_col, sample_size, seed))
    cents = kmeans_fit(sample, n_clusters, seed=seed)
    d = sample.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    # PQ codebooks on sample residuals
    a = ((sample[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2).argmin(1)
    resid = sample - cents[a]
    books = np.stack([
        kmeans_fit(np.ascontiguousarray(resid[:, j * sub:(j + 1) * sub]),
                   n_codes, seed=seed + j)
        for j in range(m)])
    import ray

    cents_ref, books_ref = ray.put(cents), ray.put(books)

    def encode(t: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        cb = ray.get(books_ref)
        x = _normalize(_batch_vectors(t, vec_col))
        assign = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).argmin(1)
        r = x - c[assign]
        n = x.shape[0]
        codes = np.empty((n, m), np.uint8)
        for j in range(m):
            rs = r[:, j * sub:(j + 1) * sub]
            d2 = ((rs ** 2).sum(1)[:, None] - 2.0 * (rs @ cb[j].T)
                  + (cb[j] ** 2).sum(1)[None, :])
            codes[:, j] = d2.argmin(axis=1)
        offsets = pa.array(np.arange(0, (n + 1) * m, m, dtype=np.int32))
        col = pa.ListArray.from_arrays(
            offsets, pa.array(codes.reshape(-1), pa.uint8()))
        return pa.table({id_col: t[id_col], "codes": col,
                         "bucket": pa.array(assign.astype(np.int32))})

    os.makedirs(out_dir, exist_ok=True)
    ds.map_batches(encode, batch_format="pyarrow").write_parquet(
        os.path.join(out_dir, "data"), partition_cols=["bucket"])
    np.save(os.path.join(out_dir, "centroids.npy"), cents)
    np.save(os.path.join(out_dir, "codebooks.npy"), books)
    meta = {"n_clusters": int(n_clusters), "m": int(m),
            "n_codes": int(n_codes), "dim": int(d), "id_col": id_col}
    with open(os.path.join(out_dir, "ivfpq.json"), "w") as f:
        json.dump(meta, f)
    return meta


def ivfpq_search(out_dir, query_vec, *, k=10, nprobe=4, round_to=6):
    """ADC search over the IVF-PQ store: per probed partition the LUT is
    built against the query's residual to THAT centroid; only the
    probed partitions' code files are read (columns pruned to id +
    codes).  Returns (id, adc_dist) ascending — raw vectors are never
    touched."""
    import glob as _glob
    import json
    import os

    import ray
    import ray.data as rd

    with open(os.path.join(out_dir, "ivfpq.json")) as f:
        meta = json.load(f)
    cents = np.load(os.path.join(out_dir, "centroids.npy"))
    books = np.load(os.path.join(out_dir, "codebooks.npy"))
    m, id_col = meta["m"], meta["id_col"]
    sub = meta["dim"] // m
    q = np.asarray(query_vec, np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    nprobe = meta["n_clusters"] if nprobe is None else min(
        int(nprobe), meta["n_clusters"])
    order = np.argsort(((cents - q) ** 2).sum(axis=1))[:nprobe]
    # one LUT per probed bucket: distances of (q - centroid_b) to codes
    luts = {}
    for b in order:
        r = q - cents[b]
        luts[int(b)] = np.stack(
            [((books[j] - r[j * sub:(j + 1) * sub]) ** 2).sum(axis=1)
             for j in range(m)])
    luts_ref = ray.put(luts)

    frames = []
    for b in order:
        d = os.path.join(out_dir, "data", f"bucket={int(b)}")
        files = sorted(_glob.glob(os.path.join(d, "*.parquet")))
        if not files:
            continue
        part = rd.read_parquet(files, columns=[id_col, "codes"])

        def score(t: pa.Table, _b=int(b)) -> pa.Table:
            lu = ray.get(luts_ref)[_b]
            flat = np.asarray(t["codes"].combine_chunks().flatten(), np.int64)
            c = flat.reshape(-1, m)
            dist = lu[np.arange(m)[None, :], c].sum(axis=1)
            return pa.table({id_col: t[id_col],
                             "adc_dist": pa.array(np.round(dist, round_to),
                                                  pa.float64())})

        frames.append(part.map_batches(score, batch_format="pyarrow"))
    if not frames:
        return rd.from_arrow(pa.table({id_col: pa.array([], pa.int64()),
                                       "adc_dist": pa.array([], pa.float64())}))
    ds = frames[0]
    if len(frames) > 1:
        ds = ds.union(*frames[1:])
    return ds.sort(["adc_dist", id_col]).limit(k)


def range_search(ds, query_vec, *, threshold=0.2, vec_col="embedding",
                 id_col="vec_id", round_to=6):
    """Radius (range) similarity search: ALL vectors with cosine
    similarity >= ``threshold`` to the query — the fixed-radius
    counterpart of ``cosine_topk`` (FAISS ``range_search`` shape).

    Distributed shape: per-batch GEMM against the (tiny, closure-
    captured) query vector, the threshold filter applied inside the
    batch so only matches ever leave the task, then one global sort of
    the (bounded-by-result-size) match set.  Unlike top-k there is no
    k-dependent prune: output volume is governed by the radius, which
    is the operator's contract.  Returns (id, cosine), cosine rounded,
    ordered cosine DESC / id ASC."""
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)

    def score(t: pa.Table) -> pa.Table:
        m = _normalize(_batch_vectors(t, vec_col))
        sims = m @ q
        keep = sims >= threshold  # raw-precision filter (oracle parity)
        ids = t[id_col].to_numpy(zero_copy_only=False)[keep]
        return pa.table({
            id_col: pa.array(ids),
            "cosine": pa.array(np.round(sims[keep], round_to), pa.float64()),
        })

    scored = ds.map_batches(score, batch_format="pyarrow")
    return scored.sort(["cosine", id_col], descending=[True, False])


def _label_centroids(ds, *, vec_col="embedding",
                     label_col="label") -> dict[int, np.ndarray]:
    """Per-label mean vector via distributed partial sums: per-batch
    per-label vector SUMS + counts (one (labels x dim) exchange — raw
    vectors never shuffle), merged per label, divided on the driver.
    Returns {label: centroid} (aggregate-sized)."""
    import pandas as pd

    def label_sums(t: pa.Table) -> pa.Table:
        m = _batch_vectors(t, vec_col)
        lab = t[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((u.size, m.shape[1]), np.float64)
        np.add.at(sums, inv, m)
        cnt = np.bincount(inv)
        return pa.table({
            "label": pa.array(u, pa.int64()),
            "s": pa.array(list(sums), pa.list_(pa.float64())),
            "n": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    def merge_sums(g: pd.DataFrame) -> pd.DataFrame:
        s = np.sum(np.stack([np.asarray(x, np.float64) for x in g["s"]]),
                   axis=0)
        return pd.DataFrame({"label": [int(g["label"].iloc[0])],
                             "s": [s.tolist()],
                             "n": [int(g["n"].sum())]})

    cent_df = (ds.map_batches(label_sums, batch_format="pyarrow")
               .groupby("label").map_groups(merge_sums,
                                            batch_format="pandas")
               .to_pandas())
    return {int(r.label): np.asarray(r.s, np.float64) / int(r.n)
            for r in cent_df.itertuples()}


def centroid_outliers(ds, *, z_thresh: float = 2.0, vec_col="embedding",
                      id_col="vec_id", label_col="label", round_to=6):
    """Embedding-quality screening: per-label Euclidean distance to the
    label centroid, flagging vectors more than ``z_thresh`` population
    standard deviations above/below that label's mean distance — the
    mislabeled/corrupt-vector detector run before training on an
    embedding corpus.

    Distributed shape: pass 1 reduces per-batch per-label vector SUMS
    (one small (labels x dim) exchange — never raw vectors) to driver
    centroids, broadcast via ``ray.put``; pass 2 computes distances and
    per-label moment partials map-side (one |labels|-row exchange);
    pass 3 re-applies the broadcast (mean, std) and collects ONLY the
    flagged rows.  The vector table itself never sorts, joins, or
    reaches the driver.  Columns (vec_id, label, dist, z)."""
    import ray
    from ray.data.aggregate import Sum

    centroids = _label_centroids(ds, vec_col=vec_col, label_col=label_col)
    c_ref = ray.put(centroids)

    def dists(t: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        m = _batch_vectors(t, vec_col)
        lab = t[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cm = np.stack([c[int(x)] for x in lab])
        d = np.linalg.norm(m - cm, axis=1)
        return pa.table({id_col: t[id_col],
                         "label": pa.array(lab, pa.int64()),
                         "dist": pa.array(d, pa.float64())})

    dist_ds = ds.map_batches(dists, batch_format="pyarrow")
    mom = (dist_ds.map_batches(
        lambda t: pa.table({
            "label": t["label"],
            "one": pa.array(np.ones(len(t), np.float64), pa.float64()),
            "d1": t["dist"],
            "d2": pa.array(t["dist"].to_numpy(zero_copy_only=False) ** 2,
                           pa.float64())}),
        batch_format="pyarrow")
        .groupby("label")
        .aggregate(Sum("one", alias_name="n"),
                   Sum("d1", alias_name="d1"),
                   Sum("d2", alias_name="d2")).to_pandas())
    stats = {}
    for r in mom.itertuples():
        mu = r.d1 / r.n
        var = max(r.d2 / r.n - mu * mu, 0.0)
        stats[int(r.label)] = (mu, float(np.sqrt(var)))
    s_ref = ray.put(stats)

    def flag(t: pa.Table) -> pa.Table:
        st = ray.get(s_ref)
        lab = t["label"].to_numpy(zero_copy_only=False)
        d = t["dist"].to_numpy(zero_copy_only=False)
        mu = np.fromiter((st[int(x)][0] for x in lab), np.float64, lab.size)
        sd = np.fromiter((st[int(x)][1] for x in lab), np.float64, lab.size)
        ok = sd > 0
        z = np.zeros_like(d)
        z[ok] = (d[ok] - mu[ok]) / sd[ok]
        keep = ok & (np.abs(z) > z_thresh)
        return pa.table({
            id_col: t[id_col].filter(pa.array(keep)),
            "label": t["label"].filter(pa.array(keep)),
            "dist": pa.array(np.round(d[keep], round_to), pa.float64()),
            "z": pa.array(np.round(z[keep], round_to), pa.float64()),
        })

    out = dist_ds.map_batches(flag, batch_format="pyarrow").to_pandas()
    out[id_col] = out[id_col].astype("int64")
    out["label"] = out["label"].astype("int64")
    return out.sort_values(id_col).reset_index(drop=True)


def label_separation(ds, *, vec_col="embedding", label_col="label",
                     round_to: int = 6):
    """Clustering-quality report: cosine similarity between every pair
    of label centroids (a < b) — the separation matrix that tells you
    whether an embedding space actually distinguishes its classes.

    Distributed shape: the only distributed work is the
    partial-vector-sum centroid pass (``_label_centroids``); the
    |labels|^2/2 pairwise cosines are driver arithmetic on the
    aggregate.  Columns (label_a, label_b, centroid_cosine)."""
    import itertools

    import pandas as pd

    cents = _label_centroids(ds, vec_col=vec_col, label_col=label_col)
    labels = sorted(cents)
    rows = []
    for a, b in itertools.combinations(labels, 2):
        ca, cb = cents[a], cents[b]
        denom = np.linalg.norm(ca) * np.linalg.norm(cb)
        cos = float(ca @ cb / denom) if denom else 0.0
        rows.append((a, b, round(cos, round_to)))
    out = pd.DataFrame(rows,
                       columns=["label_a", "label_b", "centroid_cosine"])
    out["label_a"] = out["label_a"].astype("int64")
    out["label_b"] = out["label_b"].astype("int64")
    return out


def knn_join(ds, *, k: int = 3, vec_col="embedding", id_col="vec_id",
             round_to: int = 6):
    """k-NN SELF-join: for EVERY vector, its ``k`` nearest neighbors by
    cosine (self excluded) — the neighbor-graph construction step under
    SemDeDup/SSL-curation and graph-based ANN indexes.

    Distributed shape: the full vector matrix is broadcast ONCE
    (``ray.put``) and each batch runs one GEMM against it with a local
    per-row top-(k+1) prune — the same block-pair schedule as
    ``cosine_topk_batch``; only (n x k) id/score rows leave the tasks.
    This exact mode is O(N^2/B) GEMMs: the 100 TB path bucket-joins via
    IVF partitions first (``ivf_build``) and runs the same kernel per
    probed bucket.  Columns (vec_id, neighbor_id, cosine), ranked per
    vec_id."""
    import ray

    all_df = ds.to_pandas()
    ids = all_df[id_col].to_numpy(np.int64)
    m = np.stack(all_df[vec_col].to_numpy()).astype(np.float64)
    mn = _normalize(m)
    ref = ray.put((ids, mn))

    def score(t: pa.Table) -> pa.Table:
        aids, am = ray.get(ref)
        q = _normalize(_batch_vectors(t, vec_col))
        my = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = q @ am.T                        # (batch, N)
        # self-exclusion by id, then per-row top-k
        out_v, out_n, out_c = [], [], []
        for r in range(sims.shape[0]):
            row = sims[r]
            cand = np.flatnonzero(aids != my[r])
            # deterministic cut AND order: (rounded cosine desc, id asc)
            # — ties straddling the k boundary resolve to lowest ids,
            # matching the SQL row_number() oracle
            order = np.lexsort((aids[cand],
                                -np.round(row[cand], round_to)))
            take = cand[order[:k]]
            out_v.append(np.full(k, my[r], np.int64)[:take.size])
            out_n.append(aids[take])
            out_c.append(np.round(row[take], round_to))
        return pa.table({
            id_col: pa.array(np.concatenate(out_v), pa.int64()),
            "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
            "cosine": pa.array(np.concatenate(out_c), pa.float64()),
        })

    out = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    return (out.sort_values([id_col, "cosine", "neighbor_id"],
                            ascending=[True, False, True])
            .reset_index(drop=True))


def sq8_error(ds, *, vec_col="embedding", label_col="label",
              round_to: int = 6):
    """Scalar-quantization (int8) error report: quantize every vector
    to 8 bits per dimension against the corpus-wide per-dim min/max
    grid and report the mean absolute reconstruction error per label —
    the memory-vs-recall tradeoff report run before shipping a
    quantized ANN index.

    Distributed shape: pass 1 reduces per-batch per-dim MIN/MAX
    partials (one (2 x dim) exchange); pass 2 quantizes map-side
    against the broadcast grid and emits per-label error sums — raw
    vectors never shuffle.  Quantization uses floor(x+0.5) so the SQL
    oracle's rounding semantics match bit-for-bit.
    Columns (label, n, mae)."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    def mm_partial(t: pa.Table) -> pa.Table:
        m = _batch_vectors(t, vec_col)
        return pa.table({
            "lo": pa.array([m.min(axis=0).tolist()],
                           pa.list_(pa.float64())),
            "hi": pa.array([m.max(axis=0).tolist()],
                           pa.list_(pa.float64())),
        })

    mm = ds.map_batches(mm_partial, batch_format="pyarrow").to_pandas()
    lo = np.min(np.stack([np.asarray(x) for x in mm["lo"]]), axis=0)
    hi = np.max(np.stack([np.asarray(x) for x in mm["hi"]]), axis=0)
    scale = np.where(hi > lo, (hi - lo) / 255.0, 1.0)
    ref = ray.put((lo, scale))

    def err_partial(t: pa.Table) -> pa.Table:
        l_, s_ = ray.get(ref)
        m = _batch_vectors(t, vec_col)
        q = np.floor((m - l_) / s_ + 0.5)
        recon = l_ + q * s_
        err = np.abs(m - recon).mean(axis=1)
        lab = t[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"label": pa.array(lab, pa.int64()),
                         "e": pa.array(err, pa.float64()),
                         "one": pa.array(np.ones_like(err), pa.float64())})

    agg = (ds.map_batches(err_partial, batch_format="pyarrow")
           .groupby("label")
           .aggregate(Sum("e", alias_name="e"),
                      Sum("one", alias_name="n")).to_pandas())
    out = pd.DataFrame({
        "label": agg["label"].astype("int64"),
        "n": agg["n"].astype("int64"),
        "mae": (agg["e"] / agg["n"]).round(round_to),
    })
    return out.sort_values("label").reset_index(drop=True)


def norm_stats(ds, *, vec_col="embedding", label_col="label",
               round_to: int = 6):
    """Embedding-norm health report: per label, mean and population std
    of the L2 norms (norm collapse / exploding-embedding detector).

    Distributed shape: norms and their moment partials compute
    map-side; one |labels|-row exchange.
    Columns (label, n, norm_mean, norm_std)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        m = _batch_vectors(t, vec_col)
        nm = np.linalg.norm(m, axis=1)
        lab = t[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"label": pa.array(lab, pa.int64()),
                         "one": pa.array(np.ones_like(nm), pa.float64()),
                         "s1": pa.array(nm, pa.float64()),
                         "s2": pa.array(nm * nm, pa.float64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("label")
           .aggregate(Sum("one", alias_name="n"),
                      Sum("s1", alias_name="s1"),
                      Sum("s2", alias_name="s2")).to_pandas())
    n = agg["n"].to_numpy(np.float64)
    mu = agg["s1"].to_numpy(np.float64) / n
    var = np.maximum(agg["s2"].to_numpy(np.float64) / n - mu * mu, 0.0)
    out = pd.DataFrame({
        "label": agg["label"].astype("int64"),
        "n": n.astype(np.int64),
        "norm_mean": np.round(mu, round_to),
        "norm_std": np.round(np.sqrt(var), round_to),
    })
    return out.sort_values("label").reset_index(drop=True)


def silhouette_by_label(ds, *, vec_col="embedding", label_col="label",
                        round_to: int = 6):
    """Per-label mean SIMPLIFIED SILHOUETTE (centroid-based: a = dist
    to own centroid, b = min dist to any other centroid, s =
    (b-a)/max(a,b)) — the cluster-quality report run after any
    labeling/clustering pass, O(N x labels) instead of the O(N^2)
    exact silhouette.

    Distributed shape: centroids via ``_label_centroids`` (one
    labels x dim exchange), broadcast as a matrix; per-batch distances
    are one GEMM (|batch| x labels) with the d^2 = |x|^2+|c|^2-2xc
    identity; per-label partial sums shuffle (label, sum, n) rows
    only.  Columns (label, n, mean_silhouette)."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    cents = _label_centroids(ds, vec_col=vec_col, label_col=label_col)
    labels = np.array(sorted(cents), dtype=np.int64)
    C = np.stack([cents[int(l)] for l in labels])
    cref = ray.put((labels, C, (C * C).sum(axis=1)))

    def partial(t: pa.Table) -> pa.Table:
        labs, cm, c2 = ray.get(cref)
        x = _batch_vectors(t, vec_col)
        lab = t[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d2 = np.maximum((x * x).sum(axis=1)[:, None] + c2[None, :]
                        - 2.0 * (x @ cm.T), 0.0)
        d = np.sqrt(d2)
        own_idx = np.searchsorted(labs, lab)
        rows = np.arange(d.shape[0])
        a = d[rows, own_idx]
        masked = d.copy()
        masked[rows, own_idx] = np.inf
        b = masked.min(axis=1)
        s = np.where(np.maximum(a, b) > 0,
                     (b - a) / np.maximum(a, b), 0.0)
        u, inv = np.unique(lab, return_inverse=True)
        return pa.table({
            "label": pa.array(u, pa.int64()),
            "s_sum": pa.array(np.bincount(inv, weights=s), pa.float64()),
            "n": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
        })

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("label")
           .aggregate(Sum("s_sum", alias_name="s"),
                      Sum("n", alias_name="n")).to_pandas())
    out = pd.DataFrame({
        "label": agg["label"].astype("int64"),
        "n": agg["n"].astype("int64"),
        "mean_silhouette": (agg["s"] / agg["n"]).round(round_to),
    })
    return out.sort_values("label").reset_index(drop=True)


def dim_variance_topk(ds, *, vec_col="embedding", k: int = 10,
                      round_to: int = 6):
    """Per-dimension variance report, top-k most-variant dims — the
    embedding-health check (dead dims have ~0 variance; a few dims
    holding all the variance means the encoder collapsed).

    Distributed shape: one pass of per-batch (sum, sumsq, n) partials
    per dimension — a d-row exchange, vectors never shuffle; moments
    finish on the driver over the d-row frame.  Columns
    (dim, variance, mean)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        m = _batch_vectors(t, vec_col)
        d = m.shape[1]
        return pa.table({
            "dim": pa.array(np.arange(d, dtype=np.int64)),
            "s1": pa.array(m.sum(axis=0), pa.float64()),
            "s2": pa.array((m * m).sum(axis=0), pa.float64()),
            "n": pa.array(np.full(d, m.shape[0], np.int64)),
        })

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("dim")
           .aggregate(Sum("s1", alias_name="s1"),
                      Sum("s2", alias_name="s2"),
                      Sum("n", alias_name="n")).to_pandas())
    n = agg["n"].to_numpy(np.float64)
    mu = agg["s1"].to_numpy(np.float64) / n
    var = np.maximum(agg["s2"].to_numpy(np.float64) / n - mu * mu, 0.0)
    out = pd.DataFrame({
        "dim": agg["dim"].astype("int64"),
        "variance": np.round(var, round_to),
        "mean": np.round(mu, round_to),
    })
    return (out.sort_values(["variance", "dim"],
                            ascending=[False, True])
            .head(k).reset_index(drop=True))
