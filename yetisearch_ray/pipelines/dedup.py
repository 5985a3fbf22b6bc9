"""Deduplication operators for large-scale corpus curation.

Exact (hash-partitioned), MinHash+LSH near-dup, SimHash, n-gram Jaccard
similarity, and embedding-cosine near-dup.  The reference engine's only
dedup is query-time ``deduplicateByRoute``
(``src/Search/SearchEngine.php:1112-1169``, implemented in the search
engine); these corpus-level operators are the training-data-pipeline
extension mandated for 100 TB curation.

Scale design: every operator shuffles only SMALL key tuples
((hash, id), (band, bandhash, id)), never full documents; full-row
recovery is a broadcast semi-join.  Per-batch work is vectorized numpy.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.bucketed import bucketed_apply

_MERSENNE = (1 << 61) - 1


def _join_ready(ds, num_partitions: int):
    """Coalesce away 0-row schema-less blocks.

    Ray Data's groupby/aggregate stages emit empty partitions as blocks
    with an EMPTY schema; Arrow's hash join then fails with "No match …
    for key field reference" when such a block reaches a join side.
    A repartition concatenates blocks so the surviving blocks all carry
    the real schema.  The datasets passed here are small key/pair tables,
    so the extra exchange is negligible.
    """
    return ds.repartition(num_partitions)


def _default_join_partitions(requested: int | None = None) -> int:
    """Join partition count bounded by cluster CPUs.

    Ray Data's hash join spins up ``num_partitions`` aggregator actors,
    each holding a CPU slot; requesting more partitions than the cluster
    has CPUs deadlocks the streaming executor (observed on a 4-CPU local
    session with 16 partitions).  Scale partitions with the cluster,
    capped at half the CPUs so map/shuffle stages keep running.
    """
    if requested is not None:
        return requested
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    # capped low: every hash join spins num_partitions aggregator actors,
    # and this module's joins move small key/pair tables — fewer, larger
    # partitions win until the tables stop fitting an aggregator
    return max(2, min(8, cpus // 2))


def _md5_batch(texts) -> list[str]:
    return [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]


def _strip_meta(ds):
    """Drop schema-level metadata from every block (zero-copy).

    Parquet written by pandas carries a ``b'pandas'`` schema-metadata
    blob; pyarrow Schemas with metadata are UNHASHABLE, which defeats
    Ray's schema deduplication in every downstream shuffle/join
    aggregator (it logs "Failed to hash the schemas" per block and falls
    back to O(blocks) schema unification).  Stripping once at the
    pipeline entry keeps the exchange metadata-clean."""
    return ds.map_batches(lambda t: t.replace_schema_metadata(None),
                          batch_format="pyarrow")


# ------------------------------------------------------------------ exact


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Survivor per distinct text: (id, text_hash), id = min per hash.

    Shuffle moves only (hash, id) pairs.  md5 matches DuckDB's ``md5()``
    so the operator is SQL-oracle-checkable.
    """

    def hash_batch(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: t[id_col],
                "text_hash": pa.array(_md5_batch(t[text_col].to_pylist()), pa.string()),
            }
        )

    from ray.data.aggregate import Min

    pairs = ds.map_batches(hash_batch, batch_format="pyarrow")
    return pairs.groupby("text_hash").aggregate(Min(id_col, alias_name=id_col))


def exact_dedup_rows(ds, text_col: str = "text", id_col: str = "doc_id",
                     num_partitions: int | None = None):
    """Full surviving rows via a keyed SEMI-JOIN on the survivor ids.

    Fully distributed: the survivor set (min id per content hash) is a
    Dataset, and ``ds.join(..., "left_semi")`` hash-partitions both sides
    on the id — the driver never materializes ids (the previous
    implementation collected the survivor set driver-side, O(N) driver
    memory at corpus scale)."""
    num_partitions = _default_join_partitions(num_partitions)
    ds = _strip_meta(ds)
    surv = _join_ready(exact_dedup(ds, text_col, id_col)
                       .select_columns([id_col]), num_partitions)
    return ds.join(surv, "left_semi", num_partitions, on=(id_col,))


def exact_dedup_incremental(new_ds, base_ds, *, text_col: str = "text",
                            id_col: str = "doc_id",
                            num_partitions: int | None = None):
    """Incremental exact dedup — the append-time gate a generational
    corpus runs before indexing a new crawl batch: rows of ``new_ds``
    whose content (md5 of ``text_col``) already appears in ``base_ds``
    are dropped, and duplicates WITHIN the new batch collapse to the
    min-id survivor (one operator = both gates).

    Fully distributed: the base side is reduced to distinct hashes by a
    groupby before the ``left_anti`` hash join, so neither side needs
    to fit anywhere and only (hash) rows cross the base exchange."""
    from ray.data.aggregate import Min

    nparts = _default_join_partitions(num_partitions)
    new_ds = _strip_meta(new_ds)

    def hash_rows(t: pa.Table) -> pa.Table:
        return t.append_column(
            "text_hash",
            pa.array(_md5_batch(t[text_col].to_pylist()), pa.string()))

    new_h = new_ds.map_batches(hash_rows, batch_format="pyarrow")
    base_hashes = (_strip_meta(base_ds.select_columns([text_col]))
                   .map_batches(
                       lambda t: pa.table({"text_hash": pa.array(
                           sorted(set(_md5_batch(t[text_col].to_pylist()))),
                           pa.string())}),
                       batch_format="pyarrow")
                   .groupby("text_hash").count())
    fresh = new_h.join(_join_ready(base_hashes.select_columns(["text_hash"]),
                                   nparts),
                       "left_anti", nparts, on=("text_hash",))
    surv = (fresh.select_columns(["text_hash", id_col])
            .groupby("text_hash").aggregate(Min(id_col, alias_name=id_col)))
    out = fresh.join(_join_ready(surv.select_columns([id_col]), nparts),
                     "left_semi", nparts, on=(id_col,))
    return out.drop_columns(["text_hash"])


def _bloom_indexes(hashes: list[str], bits: int, k: int) -> np.ndarray:
    """k bit positions per md5-hex hash (double hashing: h1 + i*h2)."""
    out = np.empty((len(hashes), k), dtype=np.int64)
    for r, h in enumerate(hashes):
        h1 = int(h[:16], 16) % bits
        h2 = int(h[16:32], 16) % (bits - 1) + 1
        for i in range(k):
            out[r, i] = (h1 + i * h2) % bits
    return out


def exact_dedup_incremental_bloom(new_ds, base_ds, *, text_col: str = "text",
                                  id_col: str = "doc_id",
                                  bloom_bits: int = 1 << 24,
                                  n_hashes: int = 4,
                                  num_partitions: int | None = None):
    """``exact_dedup_incremental`` with a broadcast Bloom filter over
    the base hashes pruning the anti-join input — the two-phase shape
    an append gate needs when the base corpus is huge: rows whose hash
    the Bloom filter rules out of the base (no false negatives) bypass
    the join entirely; only the possible-member minority pays the
    exchange, and an EXACT anti-join on that minority removes the
    Bloom's false positives, so the answer is bit-identical to the
    exact operator.

    The filter is ``bloom_bits`` bits (default 2 MiB) regardless of
    base size: per-batch bitmaps stream to the driver and OR together,
    then one ``ray.put`` broadcasts the result to every split task."""
    import ray
    from ray.data.aggregate import Min

    nparts = _default_join_partitions(num_partitions)
    new_ds = _strip_meta(new_ds)
    nbytes = bloom_bits // 8

    def hash_rows(t: pa.Table) -> pa.Table:
        return t.append_column(
            "text_hash",
            pa.array(_md5_batch(t[text_col].to_pylist()), pa.string()))

    new_h = new_ds.map_batches(hash_rows, batch_format="pyarrow")
    # internal survivor selection first (hash groups land in one Bloom
    # branch, so the order is immaterial; doing it first shrinks both)
    surv = (new_h.select_columns(["text_hash", id_col])
            .groupby("text_hash").aggregate(Min(id_col, alias_name=id_col)))
    new_u = new_h.join(_join_ready(surv.select_columns([id_col]), nparts),
                       "left_semi", nparts, on=(id_col,))

    def bitmap(t: pa.Table) -> pa.Table:
        hs = sorted(set(_md5_batch(t[text_col].to_pylist())))
        bits = np.zeros(nbytes, dtype=np.uint8)
        if hs:
            idx = _bloom_indexes(hs, bloom_bits, n_hashes).ravel()
            np.bitwise_or.at(bits, idx >> 3,
                             (1 << (idx & 7)).astype(np.uint8))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    base_h = _strip_meta(base_ds.select_columns([text_col]))
    agg_bits = np.zeros(nbytes, dtype=np.uint8)
    for b in (base_h.map_batches(bitmap, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        for buf in b["bits"].to_pylist():
            agg_bits |= np.frombuffer(buf, dtype=np.uint8)
    bits_ref = ray.put(agg_bits)

    def split(t: pa.Table, want_hit: bool) -> pa.Table:
        bits = ray.get(bits_ref)
        hs = t["text_hash"].to_pylist()
        if not hs:
            return t
        idx = _bloom_indexes(hs, bloom_bits, n_hashes)
        hit = np.all((bits[idx >> 3] & (1 << (idx & 7)).astype(np.uint8))
                     != 0, axis=1)
        return t.filter(pa.array(hit if want_hit else ~hit))

    definite = new_u.map_batches(lambda t: split(t, False),
                                 batch_format="pyarrow")
    possible = new_u.map_batches(lambda t: split(t, True),
                                 batch_format="pyarrow")
    base_hashes = (base_h.map_batches(
        lambda t: pa.table({"text_hash": pa.array(
            sorted(set(_md5_batch(t[text_col].to_pylist()))), pa.string())}),
        batch_format="pyarrow").groupby("text_hash").count())
    # the bloom-hit side is the MINORITY by design (expected dups +
    # false-positive rate), so materializing it to test emptiness is
    # bounded; an entirely-empty hit side would reach the join as
    # schema-less 0-row partitions and crash Acero, and with zero rows
    # there is nothing to verify anyway
    possible = possible.materialize()
    if possible.count() == 0:
        return definite.drop_columns(["text_hash"])
    checked = _join_ready(possible, nparts).join(
        _join_ready(base_hashes.select_columns(["text_hash"]), nparts),
        "left_anti", nparts, on=("text_hash",))
    return definite.union(checked).drop_columns(["text_hash"])


def dedup_paragraphs(ds, *, text_col: str = "text", id_col: str = "doc_id",
                     min_len: int = 20, sep: str = "\n",
                     num_partitions: int | None = None):
    """Corpus-wide exact paragraph dedup, first occurrence wins
    (MassiveText / CCNet-style repeated-boilerplate removal — an
    LLM-pipeline extension beyond the reference's doc-level dedup,
    ``src/Search/SearchEngine.php`` dedup-by-route).

    Each doc is split on ``sep`` into paragraphs; a paragraph whose
    exact text already appeared earlier in the corpus (earlier =
    smaller ``(doc_id, paragraph_index)``) is removed.  Paragraphs
    shorter than ``min_len`` characters are exempt (separators and
    short headers stay).  Docs are rebuilt from surviving paragraphs in
    order; docs with NO surviving paragraphs are dropped.  Returns
    ``(doc_id, text, n_kept, n_removed)``.

    Distributed shape: the winner election shuffles only
    ``(paragraph_key, packed int64)`` pairs — exempt paragraphs get a
    per-occurrence unique key so one groupby serves both classes; the
    survivor selection is a ``left_semi`` hash join on the packed
    ``(doc_id, pidx)`` key; the rebuild is one groupby over surviving
    paragraphs.  Paragraph text crosses the exchange only in the join
    and rebuild (unavoidable: output is the rebuilt corpus).  Requires
    ``pidx < 2**20`` (1M paragraphs/doc) and non-negative doc ids so
    the packed key fits int64."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Min

    nparts = _default_join_partitions(num_partitions)
    ds = _strip_meta(ds.select_columns([id_col, text_col]))

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        txt = t[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(pc.cast(txt, pa.string()), "")
        split = pc.split_pattern(txt, pattern=sep)
        flat = split.flatten()
        offs = np.asarray(split.offsets, dtype=np.int64)
        offs = offs - offs[0]
        counts = np.diff(offs)
        doc = np.repeat(ids, counts)
        pidx = np.arange(len(flat), dtype=np.int64) - np.repeat(
            offs[:-1], counts)
        packed = doc * (1 << 20) + pidx
        lens = np.asarray(pc.utf8_length(flat), dtype=np.int64)
        elig = lens >= min_len
        keys = np.where(
            elig,
            np.asarray(_md5_batch(flat.to_pylist()), dtype=object),
            np.char.add("#", packed.astype(str)).astype(object),
        )
        return pa.table({
            id_col: pa.array(doc, pa.int64()),
            "pidx": pa.array(pidx, pa.int64()),
            "para": flat,
            "packed": pa.array(packed, pa.int64()),
            "pkey": pa.array(keys, pa.string()),
            # per-doc paragraph count rides every row so the rebuild
            # needs no second pass over the input
            "n_paras": pa.array(np.repeat(counts, counts), pa.int64()),
        })

    paras = ds.map_batches(explode, batch_format="pyarrow")
    winners = (paras.select_columns(["pkey", "packed"])
               .groupby("pkey").aggregate(Min("packed", alias_name="packed")))
    surv = paras.join(_join_ready(winners.select_columns(["packed"]), nparts),
                      "left_semi", nparts, on=("packed",))

    def rebuild(g: pd.DataFrame) -> pa.Table:
        # one (doc, pidx) sort per bucket of docs rebuilds every doc at
        # once — ListArray offsets + binary_join (the c4_line_clean
        # idiom), no per-doc Python (round 5)
        g = g.sort_values([id_col, "pidx"], kind="mergesort")
        u = g[id_col].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        counts = np.diff(np.append(starts, u.size))
        offs = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
        la = pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()),
            pa.array(g["para"], pa.string()))
        text = pc.binary_join(la, sep)
        n_removed = (g["n_paras"].to_numpy(np.int64)[starts]
                     - counts.astype(np.int64))
        return pa.table({
            id_col: pa.array(u[starts], pa.int64()),
            "text": text,
            "n_kept": pa.array(counts.astype(np.int64), pa.int64()),
            "n_removed": pa.array(n_removed, pa.int64()),
        })

    return bucketed_apply(surv, id_col, rebuild)


# ------------------------------------------------------------------ shingles

# RE2's \s class is [\t\n\f\r ] (ASCII only) — the DuckDB oracles split
# with string_split_regex(text, '\s+').  Python str.split() splits on
# UNICODE whitespace (NBSP, U+2028, ...), so a corpus containing any
# non-ASCII whitespace would make operator and oracle disagree.  All
# dedup tokenization goes through this one helper so both sides always
# see identical tokens.
import re as _re

_WS_RE = _re.compile(r"[\t\n\f\r ]+")


def _ws_tokens(s: str | None) -> list[str]:
    return [t for t in _WS_RE.split(s or "") if t]


def _word_shingles(tokens: list[str], n: int = 3) -> set[str]:
    # docs shorter than n tokens have NO shingles (matches the SQL oracle's
    # range() semantics exactly)
    return {" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)}


_HASH_KEY = "0123456789123456"  # pandas siphash fixed key — deterministic


def _hash_obj_array(arr: np.ndarray) -> np.ndarray:
    return pd.util.hash_array(arr, hash_key=_HASH_KEY)


def _shingle_hashes_batch(texts, n: int = 3):
    """Vectorized per-batch shingling: returns (flat shingle hashes uint64,
    per-doc counts int64).  Shingles are word n-grams; tokenization is
    one Arrow regex split over the whole batch (round 4 — the previous
    per-doc ``_ws_tokens`` Python loop dominated the signing stage),
    shingle strings are ``binary_join_element_wise`` over shifted
    slices, and hashing is pandas' deterministic siphash — no per-doc
    or per-shingle Python loop anywhere."""
    import pyarrow.compute as pc

    from .textstats import _ws_split_re2

    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        col = texts
        n_docs = len(texts)
    else:
        col = pa.array([t or "" for t in texts], pa.string())
        n_docs = len(texts)
    values, offs = _ws_split_re2(col)
    counts = np.diff(offs)
    sh_counts = np.maximum(counts - n + 1, 0)
    total = len(values)
    if total < n or int(sh_counts.sum()) == 0:
        return np.empty(0, np.uint64), np.zeros(n_docs, np.int64)
    doc_idx = np.repeat(np.arange(len(counts)), counts)
    same = pa.array(doc_idx[: total - n + 1] == doc_idx[n - 1:])
    parts = [values.slice(j, total - n + 1).filter(same) for j in range(n)]
    sh = pc.binary_join_element_wise(*parts, " ")
    hashes = _hash_obj_array(sh.to_numpy(zero_copy_only=False))
    return hashes.astype(np.uint64), sh_counts


# ------------------------------------------------------------------ minhash


class MinHasher:
    """Seeded universal-hash MinHash signatures (k permutations)."""

    def __init__(self, num_perm: int = 64, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)
        self.num_perm = num_perm

    def signature(self, shingle_hashes: np.ndarray) -> np.ndarray:
        if shingle_hashes.size == 0:
            return np.full(self.num_perm, np.uint64(_MERSENNE), dtype=np.uint64)
        # (k, n) permuted values mod mersenne prime
        x = shingle_hashes.astype(np.uint64)
        v = (self.a[:, None] * (x[None, :] % _MERSENNE) + self.b[:, None]) % np.uint64(_MERSENNE)
        return v.min(axis=1)


_SIGNER_CACHE: dict = {}


def _signer_state(num_perm: int, seed: int, rows_per_band: int):
    """Once-per-worker-process MinHash state (hasher + band mixers).

    Construction is deterministic and cheap (a couple of seeded rng
    draws), so a process-level cache gives the once-per-worker setup an
    actor pool would — without reserving actor slots that contend with
    the shuffle stages sharing the plan (measured: a 2-actor pool added
    1–2 s startup at bench scale and capped signing parallelism)."""
    key = (num_perm, seed, rows_per_band)
    st = _SIGNER_CACHE.get(key)
    if st is None:
        mh = MinHasher(num_perm, seed)
        rng = np.random.default_rng(seed + 1)
        # per-row mixing multipliers for band hashing (odd → bijective)
        mix = rng.integers(1, 2**63, rows_per_band, dtype=np.uint64) | np.uint64(1)
        st = _SIGNER_CACHE[key] = (mh, mix)
    return st


def minhash_lsh_candidates(ds, *, text_col="text", id_col="doc_id",
                           num_perm=64, bands=16, shingle_n=3, seed=42,
                           concurrency=None):
    """Emit LSH candidate buckets: (band, band_hash) groups with >1 doc.

    map_batches (signature per doc, vectorized hashing; hasher state is
    process-cached, see ``_signer_state``) → explode to
    (band, band_hash, id) rows → groupby (the only shuffle — tuples,
    not documents) → buckets with ≥2 members.

    ``concurrency`` caps the signing tasks; default None lets the
    streaming executor scale them with free CPUs.
    """
    rows_per_band = num_perm // bands

    def sign(t: pa.Table) -> pa.Table:
        mh, mix = _signer_state(num_perm, seed, rows_per_band)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        hashes, sh_counts = _shingle_hashes_batch(t[text_col], shingle_n)
        ndocs = ids.size
        sigs = np.full((ndocs, num_perm), np.uint64(_MERSENNE), dtype=np.uint64)
        starts = np.cumsum(sh_counts) - sh_counts
        nonempty = np.flatnonzero(sh_counts > 0)
        # chunk docs so the (perm × shingle) matrix stays small
        for lo in range(0, nonempty.size, 128):
            sel = nonempty[lo : lo + 128]
            span_lo = starts[sel[0]]
            span_hi = starts[sel[-1]] + sh_counts[sel[-1]]
            h = hashes[span_lo:span_hi] % _MERSENNE
            v = (mh.a[:, None] * h[None, :] + mh.b[:, None]) % np.uint64(_MERSENNE)
            local_starts = (starts[sel] - span_lo).astype(np.int64)
            mins = np.minimum.reduceat(v, local_starts, axis=1)
            sigs[sel] = mins.T
        # band hashes: mix the rows of each band (vectorized)
        band_sigs = sigs.reshape(ndocs, bands, rows_per_band)
        bh = (band_sigs * mix[None, None, :]).sum(axis=2, dtype=np.uint64)
        bh ^= bh >> np.uint64(33)
        return pa.table({
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), ndocs)),
            "band_hash": pa.array(bh.reshape(-1), pa.uint64()),
            id_col: pa.array(np.repeat(ids, bands)),
        })

    def bucket(t: pa.Table) -> pa.Table:
        if t.num_rows < 2:
            return pa.table({"band": pa.array([], pa.int32()),
                             "band_hash": pa.array([], pa.uint64()),
                             "members": pa.array([], pa.list_(pa.int64()))})
        ids = sorted(t[id_col].to_pylist())
        return pa.table({
            "band": pa.array([t["band"][0].as_py()], pa.int32()),
            "band_hash": pa.array([t["band_hash"][0].as_py()], pa.uint64()),
            "members": pa.array([ids], pa.list_(pa.int64())),
        })

    sigs = ds.select_columns([id_col, text_col]).map_batches(
        sign, batch_format="pyarrow", concurrency=concurrency)
    return sigs.groupby(["band", "band_hash"]).map_groups(bucket, batch_format="pyarrow")


def minhash_dedup_pairs(ds, *, text_col="text", id_col="doc_id", num_perm=64,
                        bands=16, shingle_n=3, threshold=0.7, seed=42,
                        num_partitions=None, max_bucket=1000,
                        as_dataset=False):
    """Candidate pairs from LSH buckets, verified with EXACT (string)
    shingle Jaccard — fully distributed, single-join.

    Pipeline (no driver-side materialization of pairs or texts):
      buckets → pair tuples (capped per bucket) → groupby dedupes
      multi-band repeats (tuples only) → SEMI-JOIN restricts the corpus
      to candidate docs → per-candidate shingle strings → pair-side
      rows keyed by member id UNION candidate shingle rows →
      groupby(key) attaches each doc's shingles to its pair sides →
      groupby(pair) computes exact Jaccard, thresholds.

    Why this shape: the original version chained THREE hash joins, and
    each Ray join spins ``num_partitions`` aggregator ACTORS — three
    pools stacked in one streaming plan starve each other on small
    clusters (measured 52 s at bench scale).  The attach step is now a
    sort-groupby over tagged rows (no join), pairs are deduped BEFORE
    shingles attach (one shingle copy per pair side, not one per band
    hit), and only CANDIDATE docs are shingled and shuffled — the one
    remaining semi-join runs in its own bounded execution.  Bench scale:
    ~8 s.  Buckets larger than ``max_bucket`` members are truncated
    (the pairs beyond the cap are dropped and the count is reported via
    print → Ray log; a bucket that big means near-identical boilerplate
    where any survivor policy is equivalent).
    """
    import itertools

    num_partitions = _default_join_partitions(num_partitions)
    ds = _strip_meta(ds.select_columns([id_col, text_col]))
    buckets = minhash_lsh_candidates(ds, text_col=text_col, id_col=id_col,
                                     num_perm=num_perm, bands=bands,
                                     shingle_n=shingle_n, seed=seed)

    empty = pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "jaccard": pa.array([], pa.float64())})

    def to_pairs(t: pa.Table) -> pa.Table:
        ra, rb = [], []
        members_col = (t["members"].to_pylist()
                       if "members" in t.column_names else [])
        for members in members_col:
            if len(members) > max_bucket:
                print(f"minhash_dedup_pairs: bucket truncated "
                      f"{len(members)} -> {max_bucket} members")
                members = members[:max_bucket]
            for x, y in itertools.combinations(members, 2):
                ra.append(min(x, y))
                rb.append(max(x, y))
        return pa.table({"id_a": pa.array(ra, pa.int64()),
                         "id_b": pa.array(rb, pa.int64())})

    def batch_distinct(t: pa.Table) -> pa.Table:
        # map-side combine + vectorized global distinct (round 5): the
        # old per-pair map_groups(first_row) made one Python call per
        # distinct pair; per-block Arrow group_by + a Count aggregate
        # dedupes entirely in C
        return t.group_by(["id_a", "id_b"]).aggregate([])

    def drop_n(t: pa.Table) -> pa.Table:
        return t.select(["id_a", "id_b"])

    from ray.data.aggregate import Count

    # tuples only: dedupe multi-band repeats, coalesce empty groupby
    # blocks, and bound the plan with a materialize (reused twice below)
    pairs = _join_ready(
        buckets.map_batches(to_pairs, batch_format="pyarrow")
        .map_batches(batch_distinct, batch_format="pyarrow")
        .groupby(["id_a", "id_b"]).aggregate(Count(alias_name="_n"))
        .map_batches(drop_n, batch_format="pyarrow"),
        num_partitions).materialize()
    if pairs.count() == 0:
        return empty

    def both_sides(t: pa.Table) -> pa.Table:
        if "id_a" not in t.column_names:
            return pa.table({"cid": pa.array([], pa.int64())})
        ids = np.concatenate([t["id_a"].to_numpy(zero_copy_only=False),
                              t["id_b"].to_numpy(zero_copy_only=False)])
        return pa.table({"cid": pa.array(np.unique(ids), pa.int64())})

    cands = pairs.map_batches(both_sides, batch_format="pyarrow")
    cand_docs = ds.join(cands, "left_semi", num_partitions,
                        on=(id_col,), right_on=("cid",))

    def to_pair_sides(t: pa.Table) -> pa.Table:
        """Each deduped pair (a,b) → two rows keyed by its member ids."""
        if "id_a" not in t.column_names:
            return pa.table({"key": pa.array([], pa.int64()),
                             "id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "sh": pa.array([], pa.string())})
        a = t["id_a"].to_numpy(zero_copy_only=False)
        b = t["id_b"].to_numpy(zero_copy_only=False)
        ks = np.concatenate([a, b])
        ra = np.concatenate([a, a])
        rb = np.concatenate([b, b])
        return pa.table({"key": pa.array(ks, pa.int64()),
                         "id_a": pa.array(ra, pa.int64()),
                         "id_b": pa.array(rb, pa.int64()),
                         "sh": pa.array([None] * ks.size, pa.string())})

    # shingle sets ride the shuffle as a single \x1f-delimited string
    # (list columns don't survive the groupby sort path zero-copy)
    def shingle_rows(t: pa.Table) -> pa.Table:
        if text_col not in t.column_names:
            return pa.table({"key": pa.array([], pa.int64()),
                             "id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "sh": pa.array([], pa.string())})
        shs = ["\x1f".join(sorted(_word_shingles(_ws_tokens(txt),
                                                 shingle_n)))
               for txt in t[text_col].to_pylist()]
        n = t.num_rows
        return pa.table({"key": t[id_col].cast(pa.int64()),
                         "id_a": pa.array([None] * n, pa.int64()),
                         "id_b": pa.array([None] * n, pa.int64()),
                         "sh": pa.array(shs, pa.string())})

    pair_sides = pairs.map_batches(to_pair_sides, batch_format="pyarrow")
    sh_rows = cand_docs.map_batches(shingle_rows, batch_format="pyarrow")

    def attach(t: pa.Table) -> pa.Table:
        """Group = one doc id: its shingle row + its pair-side rows."""
        out = {"key": [], "id_a": [], "id_b": [], "sh": []}
        if "key" not in t.column_names:
            return pa.table({k: pa.array(v, pa.int64() if k != "sh"
                                         else pa.string())
                             for k, v in out.items()})
        ia = t["id_a"].to_numpy(zero_copy_only=False)
        doc_sh = None
        for i in np.flatnonzero(pd.isna(ia)):
            doc_sh = t["sh"][int(i)].as_py()
            break
        pair_idx = np.flatnonzero(~pd.isna(ia))
        if doc_sh is None or pair_idx.size == 0:
            return pa.table({"key": pa.array([], pa.int64()),
                             "id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "sh": pa.array([], pa.string())})
        sub = t.take(pair_idx)
        return pa.table({"key": sub["key"],
                         "id_a": sub["id_a"],
                         "id_b": sub["id_b"],
                         "sh": pa.array([doc_sh] * len(pair_idx),
                                        pa.string())})

    attached = (pair_sides.union(sh_rows)
                .groupby("key")
                .map_groups(attach, batch_format="pyarrow"))

    def verify(t: pa.Table) -> pa.Table:
        """Group = one (id_a, id_b) pair; its two attached rows carry
        the sides' shingle strings."""
        if "id_a" not in t.column_names or t.num_rows == 0:
            return empty
        a = int(t["id_a"][0].as_py())
        b = int(t["id_b"][0].as_py())
        keys = t["key"].to_numpy(zero_copy_only=False)
        va = vb = None
        for i in range(t.num_rows):
            if keys[i] == a and va is None:
                va = t["sh"][i].as_py()
            elif keys[i] == b and vb is None:
                vb = t["sh"][i].as_py()
        if va is None or vb is None:  # a side's doc row was missing
            return empty
        sa = set(va.split("\x1f")) if va else set()
        sb = set(vb.split("\x1f")) if vb else set()
        union = len(sa | sb)
        j = (len(sa & sb) / union) if union else 0.0
        if j < threshold:
            return empty
        return pa.table({"id_a": pa.array([a], pa.int64()),
                         "id_b": pa.array([b], pa.int64()),
                         "jaccard": pa.array([round(j, 6)], pa.float64())})

    out = (attached.groupby(["id_a", "id_b"])
           .map_groups(verify, batch_format="pyarrow"))
    sorted_pairs = out.sort(["id_a", "id_b"])
    if as_dataset:
        # 100 TB contract: the pair table never lands on the driver —
        # consume with write_parquet / iter_batches downstream
        return sorted_pairs
    res = sorted_pairs.to_pandas()
    if res.empty:
        return empty
    return pa.table({"id_a": pa.array(res["id_a"], pa.int64()),
                     "id_b": pa.array(res["id_b"], pa.int64()),
                     "jaccard": pa.array(res["jaccard"], pa.float64())})


def minhash_dedup_pairs_to_parquet(ds, out_dir: str, **kwargs):
    """Sink variant: stream the verified pair table straight to
    partitioned parquet (one file per output block) without ever
    collecting it on the driver — the honest contract when the pair
    table itself is large (boilerplate-heavy corpora)."""
    pairs = minhash_dedup_pairs(ds, as_dataset=True, **kwargs)
    pairs.write_parquet(out_dir)
    return out_dir


# ------------------------------------------------------------------ simhash


def _md5_u64_tokens(tokens: np.ndarray) -> np.ndarray:
    """64-bit token hash equal to DuckDB's ``md5_number_lower(tok)``:
    the LOWER 8 bytes of the md5 digest, little-endian (verified against
    DuckDB 1.0) — this is what makes SimHash SQL-oracle-checkable."""
    out = np.empty(tokens.size, np.uint64)
    for i, t in enumerate(tokens):
        out[i] = int.from_bytes(
            hashlib.md5(t.encode("utf-8")).digest()[8:16], "little")
    return out


def simhash_signatures(ds, *, text_col="text", id_col="doc_id"):
    """64-bit SimHash per doc (sign-sum of tf-weighted token hashes).

    Token hashing is md5-based so DuckDB can replicate the exact
    signature (``oracles.simhash_pairs_sql``); md5 runs once per UNIQUE
    token of the batch (the vocabulary is much smaller than the token
    stream), bit expansion and per-doc accumulation stay vectorized."""

    _POW2 = (np.uint64(1) << np.arange(64, dtype=np.uint64))

    def fn(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        texts = t[text_col].to_pylist()
        token_lists = [_ws_tokens(s) for s in texts]
        counts = np.array([len(tl) for tl in token_lists], dtype=np.int64)
        flat = np.array([w for tl in token_lists for w in tl], dtype=object)
        sigs = np.zeros(len(texts), dtype=np.uint64)
        if flat.size:
            uniq, inv = np.unique(flat, return_inverse=True)
            hs = _md5_u64_tokens(uniq)[inv]
            starts = np.cumsum(counts) - counts
            nonempty = np.flatnonzero(counts > 0)
            for lo in range(0, nonempty.size, 256):
                sel = nonempty[lo : lo + 256]
                span_lo = starts[sel[0]]
                span_hi = starts[sel[-1]] + counts[sel[-1]]
                h = hs[span_lo:span_hi]
                bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                        & np.uint64(1)).astype(np.int32) * 2 - 1
                local_starts = (starts[sel] - span_lo).astype(np.int64)
                sums = np.add.reduceat(bits, local_starts, axis=0)
                sigs[sel] = ((sums > 0) * _POW2[None, :]).sum(axis=1, dtype=np.uint64)
        return pa.table({id_col: ids, "simhash": pa.array(sigs, pa.uint64())})

    return ds.map_batches(fn, batch_format="pyarrow")


def simhash_near_pairs(ds, *, text_col="text", id_col="doc_id", max_hamming=3,
                       as_dataset=False):
    """Near-dup pairs by SimHash: 4-block banding (Hamming ≤3 ⇒ one 16-bit
    block equal) → groupby block value → verify Hamming distance."""
    sigs = simhash_signatures(ds, text_col=text_col, id_col=id_col)

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        sg = t["simhash"].to_numpy(zero_copy_only=False)
        blocks, vals, oid, osig = [], [], [], []
        for b in range(4):
            blocks.extend([b] * ids.size)
            vals.extend(((sg >> np.uint64(16 * b)) & np.uint64(0xFFFF)).tolist())
            oid.extend(ids.tolist())
            osig.extend(sg.tolist())
        return pa.table({"block": pa.array(blocks, pa.int8()),
                         "val": pa.array(vals, pa.uint32()),
                         id_col: pa.array(oid),
                         "simhash": pa.array(osig, pa.uint64())})

    import itertools

    def pairs(t: pa.Table) -> pa.Table:
        ra, rb, rh = [], [], []
        if t.num_rows >= 2:
            ids = t[id_col].to_pylist()
            sgs = t["simhash"].to_pylist()
            for (i1, s1), (i2, s2) in itertools.combinations(
                sorted(zip(ids, sgs)), 2
            ):
                h = bin(s1 ^ s2).count("1")
                if h <= max_hamming and i1 != i2:
                    ra.append(i1)
                    rb.append(i2)
                    rh.append(h)
        return pa.table({"id_a": pa.array(ra, pa.int64()),
                         "id_b": pa.array(rb, pa.int64()),
                         "hamming": pa.array(rh, pa.int32())})

    out = (
        sigs.map_batches(explode, batch_format="pyarrow")
        .groupby(["block", "val"])
        .map_groups(pairs, batch_format="pyarrow")
    )

    # the same pair can surface from several blocks — distinct it with
    # a vectorized keyed aggregate (round 5: was one Python call per
    # distinct pair via map_groups(first_row); hamming is a pure
    # function of the pair, so Min() keeps the identical value), then
    # collect the final small pair table sorted for determinism
    from ray.data.aggregate import Min

    def batch_distinct(t: pa.Table) -> pa.Table:
        out = t.group_by(["id_a", "id_b"]).aggregate([("hamming", "min")])
        return pa.table({"id_a": out["id_a"], "id_b": out["id_b"],
                         "hamming": out["hamming_min"]})

    def tidy(t: pa.Table) -> pa.Table:
        return pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                         "hamming": t["hamming"].cast(pa.int32())})

    ded = (out.map_batches(batch_distinct, batch_format="pyarrow")
           .groupby(["id_a", "id_b"])
           .aggregate(Min("hamming", alias_name="hamming"))
           .map_batches(tidy, batch_format="pyarrow"))
    sorted_pairs = ded.sort(["id_a", "id_b"])
    if as_dataset:
        return sorted_pairs
    pdf = sorted_pairs.to_pandas()
    return pa.Table.from_pandas(pdf, preserve_index=False)


def simhash_near_pairs_to_parquet(ds, out_dir: str, **kwargs):
    """Sink variant of :func:`simhash_near_pairs` — pairs stream to
    partitioned parquet, nothing lands on the driver."""
    pairs = simhash_near_pairs(ds, as_dataset=True, **kwargs)
    pairs.write_parquet(out_dir)
    return out_dir


# ------------------------------------------------------------------ jaccard search


def ngram_decontaminate(ds, benchmark_texts, *, text_col="text",
                        id_col="doc_id", shingle_n=3):
    """Benchmark decontamination — flag documents sharing any word
    n-gram with a benchmark/eval set (the standard pre-training hygiene
    pass before an eval suite can be trusted).

    Scale shape: the benchmark's DISTINCT shingle hashes are broadcast
    once (``ray.put`` — a uint64 array, ~8 MB per million n-grams, read
    zero-copy by every task); each batch computes its docs' distinct
    shingle hashes vectorized (pandas siphash, no per-shingle loop) and
    counts membership with one ``np.isin``.  64-bit hashing makes a
    false hit ~1e-12 per (doc-shingle, benchmark) universe and is
    deterministic, so corpus+benchmark either matches the string-exact
    SQL oracle or not — verified at oracle scale.

    Returns (id, n_hits, contaminated[0/1]) sorted by id, where n_hits
    counts distinct shared n-grams.
    """
    import ray

    bench_sets = [
        sorted(_word_shingles(_ws_tokens(t), shingle_n))
        for t in benchmark_texts
    ]
    flat = np.array([s for bs in bench_sets for s in bs], dtype=object)
    bench = (np.unique(_hash_obj_array(flat).astype(np.uint64))
             if flat.size else np.empty(0, np.uint64))
    bench_ref = ray.put(bench)

    def flag(t: pa.Table) -> pa.Table:
        b = ray.get(bench_ref)
        hashes, sh_counts = _shingle_hashes_batch(t[text_col], shingle_n)
        doc_idx = np.repeat(np.arange(t.num_rows), sh_counts)
        # distinct (doc, shingle) pairs so n_hits counts DISTINCT shared
        # n-grams, matching the oracle's list_distinct semantics
        order = np.lexsort((hashes, doc_idx))
        d_s, h_s = doc_idx[order], hashes[order]
        keep = np.ones(d_s.size, dtype=bool)
        if d_s.size > 1:
            keep[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        d_u, h_u = d_s[keep], h_s[keep]
        hits = np.zeros(t.num_rows, dtype=np.int64)
        if h_u.size and b.size:
            m = np.isin(h_u, b)
            np.add.at(hits, d_u[m], 1)
        return pa.table({
            id_col: t[id_col],
            "n_hits": pa.array(hits, pa.int64()),
            "contaminated": pa.array((hits > 0).astype(np.int64), pa.int64()),
        })

    return ds.map_batches(flag, batch_format="pyarrow").sort(id_col)


def ngram_jaccard_vs_query(ds, query_text: str, *, text_col="text",
                           id_col="doc_id", shingle_n=3, k=10):
    """Top-k docs by word-n-gram Jaccard similarity to a query text —
    SQL-oracle-checkable (DuckDB list ops).  Broadcast the query shingles,
    score per batch, global top-k."""
    q = sorted(_word_shingles(_ws_tokens(query_text), shingle_n))
    qset = set(q)

    def score(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        sims = np.empty(t.num_rows, dtype=np.float64)
        for i, text in enumerate(t[text_col].to_pylist()):
            s = _word_shingles(_ws_tokens(text), shingle_n)
            union = len(s | qset)
            sims[i] = (len(s & qset) / union) if union else 0.0
        return pa.table({id_col: ids, "jaccard": pa.array(np.round(sims, 6), pa.float64())})

    scored = ds.map_batches(score, batch_format="pyarrow")
    return scored.sort(["jaccard", id_col], descending=[True, False]).limit(k)


# -------------------------------------------------- dedup clusters (CC)


def connected_components(pairs, *, id_a="id_a", id_b="id_b",
                         driver_threshold: int = 200_000,
                         num_partitions: int | None = None,
                         max_rounds: int = 64):
    """Near-duplicate CLUSTERS from a verified pair table: connected
    components over the pair graph, labeled by the component's minimum
    doc id (the canonical survivor).  Returns a Dataset of
    (doc_id, cluster_id) for every doc appearing in a pair, sorted by
    doc_id; docs absent from the output are singletons (survivors by
    definition), so the keep-set is ``singletons ∪ {doc_id ==
    cluster_id}``.

    Two paths, same answer (equality pinned by test):

    * pair tables below ``driver_threshold`` rows — the common dedup
      case, since verified pairs are output-bounded — are solved with
      driver-side union-find (O(E α(E)); this is the standard move in
      production dedup pipelines once edges fit in one process).
    * larger tables run DISTRIBUTED min-label propagation: symmetric
      edges with self-loops, then per round ``labels' = min over
      in-neighbors' labels`` via one hash join + one groupby-min.
      Labels only decrease, so the label SUM is a strictly decreasing
      fixpoint detector costing O(1) driver bytes per round.  Rounds =
      component diameter — small for near-dup clusters, which are
      dense by construction (every member pair-verified against the
      shared boilerplate); ``max_rounds`` guards pathological chains.
    """
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Min, Sum

    if not isinstance(pairs, pd.DataFrame):
        # count() + to_pandas() would otherwise re-execute the (possibly
        # expensive) upstream pair pipeline; the pair table is output-
        # bounded, so pinning its blocks once is cheap
        pairs = pairs.materialize()
    n_pairs = len(pairs) if isinstance(pairs, pd.DataFrame) else pairs.count()
    if n_pairs == 0:
        return rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                       "cluster_id": pa.array([], pa.int64())}))

    if n_pairs < driver_threshold:
        df = pairs if isinstance(pairs, pd.DataFrame) else pairs.to_pandas()
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:  # path compression
                parent[x], x = root, parent[x]
            return root

        for a, b in zip(df[id_a].astype(int), df[id_b].astype(int)):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        nodes = sorted(set(df[id_a].astype(int)) | set(df[id_b].astype(int)))
        out = pa.table({
            "doc_id": pa.array(nodes, pa.int64()),
            "cluster_id": pa.array([find(n) for n in nodes], pa.int64())})
        return rd.from_arrow(out)

    num_partitions = _default_join_partitions(num_partitions)

    def sym(t: pa.Table) -> pa.Table:
        a = t[id_a].combine_chunks().cast(pa.int64())
        b = t[id_b].combine_chunks().cast(pa.int64())
        # symmetric edges + self-loops (a,a), (b,b)
        src = pa.concat_arrays([a, b, a, b])
        dst = pa.concat_arrays([b, a, a, b])
        return pa.table({"src": src, "dst": dst})

    edges = (pairs.map_batches(sym, batch_format="pyarrow")
             .select_columns(["src", "dst"]).materialize())
    labels = (edges.groupby("src").aggregate(Min("dst", alias_name="lbl"))
              .rename_columns({"src": "node"}).materialize())
    prev = None
    for _ in range(max_rounds):
        cur = labels.aggregate(Sum("lbl", alias_name="s"))["s"]
        if prev is not None and cur == prev:
            break
        prev = cur
        joined = edges.join(labels, join_type="inner",
                            num_partitions=num_partitions,
                            on=("dst",), right_on=("node",))
        labels = (joined.groupby("src")
                  .aggregate(Min("lbl", alias_name="lbl"))
                  .rename_columns({"src": "node"}).materialize())
    return (labels.rename_columns({"node": "doc_id", "lbl": "cluster_id"})
            .sort("doc_id"))


def minhash_dedup_clusters(ds, **kwargs):
    """MinHash-verified pairs → connected components → (doc_id,
    cluster_id) canonical-survivor clusters.  ``kwargs`` pass through to
    :func:`minhash_dedup_pairs` (threshold, bands, seed, ...)."""
    cc_kw = {k: kwargs.pop(k) for k in
             ("driver_threshold", "num_partitions", "max_rounds")
             if k in kwargs}
    pairs = minhash_dedup_pairs(ds, as_dataset=True, **kwargs)
    return connected_components(pairs, **cc_kw)


# --------------------------------------------------------- line dedup


def line_dedup(ds, *, text_col="text", id_col="doc_id", min_docs=2,
               sep="\n"):
    """RefinedWeb-style LINE-level deduplication: drop every line that
    appears (exactly) in at least ``min_docs`` DISTINCT documents — the
    boilerplate scrub (headers, license banners, nav chrome) run before
    doc-level dedup in pre-training pipelines.

    Shape: pass 1 emits per-doc DISTINCT 64-bit line hashes with a
    map-side partial count, so the groupby shuffles (hash, partial_n)
    rows — bounded by distinct lines per batch, never total line
    occurrences.  The ``>= min_docs`` survivors are the HOT set — by
    construction the rare cross-doc boilerplate, orders of magnitude
    smaller than the corpus — broadcast once via ``ray.put``.  Pass 2
    rebuilds each doc dropping hot lines; no other shuffle.  Line
    hashing is the DuckDB-replicable ``md5_number_lower`` idiom, so the
    whole operator is SQL-oracle-checkable.

    Returns (id, n_lines, n_dropped, clean_md5) sorted by id —
    ``clean_md5`` pins the full rebuilt text.
    """
    import hashlib

    import ray
    from ray.data.aggregate import Sum

    # hashes ride as SIGNED int64 (the two's-complement view of the u64
    # digest): Ray's aggregate path converts uint64 > 2^63 via pandas,
    # which silently falls back to pickled-object columns
    def _h64(ln: str) -> int:
        return int.from_bytes(hashlib.md5(ln.encode("utf-8")).digest()[8:16],
                              "little", signed=True)

    def partial_counts(t: pa.Table) -> pa.Table:
        agg: dict[int, int] = {}
        for s in t[text_col].to_pylist():
            for h in {_h64(ln) for ln in (s or "").split(sep)}:
                agg[h] = agg.get(h, 0) + 1
        return pa.table({"h": pa.array(list(agg.keys()), pa.int64()),
                         "n": pa.array(list(agg.values()), pa.int64())})

    counts = (ds.select_columns([text_col])
              .map_batches(partial_counts, batch_format="pyarrow")
              .groupby("h").aggregate(Sum("n", alias_name="n_docs")))
    hot_tbl = counts.filter(
        expr=f"n_docs >= {int(min_docs)}").select_columns(["h"]).to_pandas()
    # an all-cold corpus yields zero-row schema-less blocks → no "h" col
    hot = frozenset(int(v) for v in hot_tbl["h"]) \
        if "h" in hot_tbl.columns else frozenset()
    hot_ref = ray.put(hot)

    def rebuild(t: pa.Table) -> pa.Table:
        hset = ray.get(hot_ref)
        ids, n_lines, n_dropped, md5s = [], [], [], []
        for i, s in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            lines = (s or "").split(sep)
            kept = [ln for ln in lines if _h64(ln) not in hset]
            ids.append(int(i))
            n_lines.append(len(lines))
            n_dropped.append(len(lines) - len(kept))
            md5s.append(hashlib.md5(sep.join(kept).encode("utf-8")).hexdigest())
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "n_lines": pa.array(n_lines, pa.int64()),
                         "n_dropped": pa.array(n_dropped, pa.int64()),
                         "clean_md5": pa.array(md5s, pa.string())})

    return (ds.select_columns([id_col, text_col])
            .map_batches(rebuild, batch_format="pyarrow").sort(id_col))


# ------------------------------------------------ substring-level dedup


_FNV_B = np.uint64(1099511628211)          # FNV-1a prime; odd -> invertible
_FNV_BINV = np.uint64(pow(1099511628211, -1, 1 << 64))


def _gram_hash_rows(texts: list[str], gram_len: int):
    """Vectorized rolling-hash of every char ``gram_len``-gram of every
    text: returns (doc_idx, hash_i64, positions) flat arrays with one
    row per DISTINCT (doc, gram-hash) and ``positions`` = occurrence
    count inside that doc.

    O(total chars) flat computation, no per-window materialization:
    texts are concatenated into one codepoint array and the polynomial
    hash h_i = sum_k cp[i+k] * B^(L-1-k) (mod 2^64) is recovered from a
    single prefix sum via the invertible-B trick —
    h_i = B^(L-1+i) * (S[i+L] - S[i]) with S the prefix sum of
    cp[j] * B^(-j).  Windows crossing a document boundary are masked
    out, so no separator characters are needed.
    """
    lens = np.array([len(s) for s in texts], dtype=np.int64)
    n = int(lens.sum())
    L = gram_len
    if n < L or len(texts) == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    flat = np.frombuffer("".join(texts).encode("utf-32-le"),
                         dtype=np.uint32).astype(np.uint64)
    # B^-j and B^j ladders (mod 2^64 via native uint64 wraparound)
    binv_p = np.full(n, _FNV_BINV, dtype=np.uint64)
    binv_p[0] = 1
    np.cumprod(binv_p, out=binv_p)
    b_p = np.full(n - L + 1, _FNV_B, dtype=np.uint64)
    b_p[0] = 1
    np.cumprod(b_p, out=b_p)
    s = np.cumsum(flat * binv_p, dtype=np.uint64)
    s_hi = s[L - 1:]                                  # S[i+L-1], i = 0..n-L
    s_lo = np.concatenate(([np.uint64(0)], s[:n - L]))
    bl1 = np.uint64(pow(1099511628211, L - 1, 1 << 64))
    h = (s_hi - s_lo) * b_p * bl1
    # a window starting at i is valid iff chars i and i+L-1 share a doc
    doc_of = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    valid = doc_of[:n - L + 1] == doc_of[L - 1:]
    dfp = pd.DataFrame({"d": doc_of[:n - L + 1][valid],
                        "h": h[valid].view(np.int64)})
    g = dfp.groupby(["d", "h"], sort=False).size()
    idx = g.index.to_frame(index=False)
    return (idx["d"].to_numpy(), idx["h"].to_numpy(),
            g.to_numpy().astype(np.int64))


def substring_dup_stats(ds, *, text_col="text", id_col="doc_id",
                        gram_len: int = 50, num_partitions: int | None = None):
    """Cross-document SUBSTRING duplication stats — the signal behind
    suffix-array dedup ("Deduplicating Training Data Makes Language
    Models Better", Lee et al. 2022), approximated with char
    ``gram_len``-gram rolling hashes: for each doc, how many of its
    character n-gram positions also occur verbatim in at least one
    OTHER document.

    Shape (all Dataset ops, no driver materialization of grams):

    1. one pass emits per-doc DISTINCT (hash, occurrence-count) rows —
       bounded by corpus chars, shuffled hash-partitioned;
    2. ``groupby(h).count() >= 2`` finds cross-doc hashes (rows are
       distinct per doc, so row count = doc frequency);
    3. an inner hash join back + ``groupby(doc).sum`` counts each doc's
       duplicated positions;
    4. totals ride a zero-filled union into ONE final groupby — no
       left-outer join, no broadcast.

    64-bit hashes stand in for the grams themselves (a gram never
    leaves its worker); collision odds at 10^12 grams are ~3e-5 per
    corpus and only perturb counts by ±1.  Returns
    (id, n_grams, n_dup_grams, dup_frac round-6) sorted by id.
    """
    from ray.data.aggregate import Count, Sum

    L = int(gram_len)
    num_partitions = _default_join_partitions(num_partitions)

    def gram_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = [x or "" for x in t[text_col].to_pylist()]
        d, h, c = _gram_hash_rows(texts, L)
        return pa.table({id_col: pa.array(ids[d], pa.int64()),
                         "h": pa.array(h, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    grams = (ds.select_columns([id_col, text_col])
             .map_batches(gram_rows, batch_format="pyarrow").materialize())
    hot = (grams.groupby("h").aggregate(Count(alias_name="n_docs"))
           .filter(expr="n_docs >= 2").select_columns(["h"]))
    dup = (_join_ready(grams, num_partitions)
           .join(_join_ready(hot, num_partitions), join_type="inner",
                 num_partitions=num_partitions, on=("h",))
           .groupby(id_col).aggregate(Sum("c", alias_name="n_dup_grams")))

    # n_grams per doc = sum of c over its (doc, hash) rows (every window
    # position lands in exactly one row), so totals come from the gram
    # table itself — the TEXT column is scanned exactly once.  Docs too
    # short for any window still need a row: an id-only projection (the
    # cheap column) rides the union with zeros.
    def gram_totals(t: pa.Table) -> pa.Table:
        gb = pd.DataFrame({
            "i": t[id_col].to_numpy(zero_copy_only=False),
            "c": t["c"].to_numpy(zero_copy_only=False)}).groupby(
                "i", sort=False)["c"].sum()
        return pa.table({
            id_col: pa.array(gb.index.to_numpy(), pa.int64()),
            "n_grams": pa.array(gb.to_numpy().astype(np.int64), pa.int64()),
            "n_dup_grams": pa.array(np.zeros(len(gb), np.int64), pa.int64())})

    def id_zeros(t: pa.Table) -> pa.Table:
        z = np.zeros(len(t), np.int64)
        return pa.table({
            id_col: t[id_col].combine_chunks().cast(pa.int64()),
            "n_grams": pa.array(z, pa.int64()),
            "n_dup_grams": pa.array(z, pa.int64())})

    def dup_side(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: t[id_col].combine_chunks().cast(pa.int64()),
            "n_grams": pa.array(np.zeros(len(t), np.int64), pa.int64()),
            "n_dup_grams": t["n_dup_grams"].combine_chunks().cast(pa.int64())})

    tot = grams.map_batches(gram_totals, batch_format="pyarrow")
    ids = (ds.select_columns([id_col])
           .map_batches(id_zeros, batch_format="pyarrow"))
    merged = (tot.union(ids, dup.map_batches(dup_side, batch_format="pyarrow"))
              .groupby(id_col)
              .aggregate(Sum("n_grams", alias_name="n_grams"),
                         Sum("n_dup_grams", alias_name="n_dup_grams")))

    def finalize(t: pa.Table) -> pa.Table:
        ng = t["n_grams"].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = t["n_dup_grams"].to_numpy(zero_copy_only=False).astype(np.int64)
        frac = np.round(nd / np.maximum(ng, 1), 6)
        return pa.table({id_col: t[id_col].combine_chunks().cast(pa.int64()),
                         "n_grams": pa.array(ng, pa.int64()),
                         "n_dup_grams": pa.array(nd, pa.int64()),
                         "dup_frac": pa.array(frac, pa.float64())})

    return merged.map_batches(finalize, batch_format="pyarrow").sort(id_col)


def best_survivors(ds, *, threshold=0.5, id_col="doc_id",
                   num_partitions=8, k=1, clusters=None,
                   as_dataset=False):
    """Quality-based survivor selection over near-dup clusters — the
    "keep the best copy, not the arbitrary one" dedup policy real
    pipelines use: MinHash-verified pairs → connected components →
    per-cluster argmax of the pretraining quality score (ties on
    ascending id).

    Fully distributed composition: the (doc_id, cluster_id) component
    table hash-joins the quality table on doc_id (both sides shuffle by
    key via ``Dataset.join``), then the per-cluster winner uses the
    grouped_topk map-side combiner — the shuffle after the join moves
    at most ``k`` rows per cluster per block.  Returns
    (cluster_id, doc_id, quality) sorted by cluster_id.
    """
    import pandas as pd

    from .textstats import quality_scores

    if clusters is None:  # pass a precomputed/materialized table to
        clusters = minhash_dedup_clusters(ds, threshold=threshold)
        # avoid re-running the MinHash pipeline (curate_corpus_v2 does)
    qual = quality_scores(ds).map_batches(
        lambda t: pa.table({id_col: t[id_col], "quality": t["quality"]}),
        batch_format="pyarrow")
    joined = _strip_meta(clusters).join(
        _strip_meta(qual), join_type="inner",
        num_partitions=num_partitions, on=(id_col,))

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["cluster_id", "quality", id_col],
                                       ascending=[True, False, True])
        out = pa.Table.from_pandas(
            df.groupby("cluster_id", sort=False).head(k),
            preserve_index=False)
        return out.replace_schema_metadata(None)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(["quality", id_col],
                              ascending=[False, True])
                .head(k).reset_index(drop=True))

    out = (joined.map_batches(partial, batch_format="pyarrow")
           .groupby("cluster_id").map_groups(final, batch_format="pandas"))
    if as_dataset:  # stay distributed — one winner row per cluster,
        return out  # O(#clusters) at web scale, never on the driver
    pdf = out.to_pandas().sort_values("cluster_id").reset_index(drop=True)
    return pdf[["cluster_id", id_col, "quality"]]


def prefix_dup_clusters(ds, *, prefix_chars: int = 100, min_size: int = 2,
                        k: int = 20, text_col: str = "text"):
    """Boilerplate-prefix duplicate clusters: docs sharing their first
    ``prefix_chars`` CHARACTERS (md5 of the prefix) — the cheap
    template/header detector run before heavier near-dup passes (a
    crawl source whose docs all start identically is chrome, and exact
    prefix grouping finds it in one shuffle of (hash, 1) rows).
    Columns (prefix_hash, n) — clusters of >= min_size, largest
    first."""
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        pref = pc.utf8_slice_codeunits(t[text_col], 0, prefix_chars)
        h = _md5_batch(pref.to_pylist())
        df = pd.DataFrame({"prefix_hash": h})
        g = df.groupby("prefix_hash").size().reset_index(name="n")
        return pa.table({"prefix_hash": pa.array(g["prefix_hash"]),
                         "n": pa.array(g["n"].to_numpy(np.int64))})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("prefix_hash")
           .aggregate(Sum("n", alias_name="n")).to_pandas())
    agg = agg[agg["n"] >= min_size]
    agg["n"] = agg["n"].astype("int64")
    return (agg.sort_values(["n", "prefix_hash"],
                            ascending=[False, True])
            .head(k).reset_index(drop=True))


def cluster_size_histogram(ds, *, threshold: float = 0.5,
                           text_col: str = "text",
                           id_col: str = "doc_id"):
    """Near-dup CLUSTER-SIZE distribution — the dedup health report a
    curation run reads before deleting anything: how many clusters of
    each size the pair graph produced (singletons excluded; they never
    enter the pair table).

    Distributed shape: reuses :func:`minhash_dedup_clusters` (banding
    shuffle + verified pairs + component labels), then two chained
    aggregate-sized groupbys — members per cluster, clusters per size.
    Columns (cluster_size, n_clusters) ordered by size."""
    import pandas as pd
    from ray.data.aggregate import Count

    clusters = minhash_dedup_clusters(ds, threshold=threshold,
                                      text_col=text_col, id_col=id_col)
    per_cluster = (_strip_meta(clusters.select_columns(["cluster_id"]))
                   .groupby("cluster_id")
                   .aggregate(Count(alias_name="cluster_size")))
    hist = (_strip_meta(per_cluster.select_columns(["cluster_size"]))
            .groupby("cluster_size")
            .aggregate(Count(alias_name="n_clusters")).to_pandas())
    hist["cluster_size"] = hist["cluster_size"].astype("int64")
    hist["n_clusters"] = hist["n_clusters"].astype("int64")
    return (hist.sort_values("cluster_size").reset_index(drop=True)
            [["cluster_size", "n_clusters"]])
