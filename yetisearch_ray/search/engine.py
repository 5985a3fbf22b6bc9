"""BM25 query engine over the partitioned posting segments.

Mirrors the reference's serving path (``SearchEngine::search`` →
``SqliteStorage::search``, ``src/Search/SearchEngine.php:94-272`` /
``src/Storage/SqliteStorage.php:858-1273``) with FTS5-BM25 semantics
(see ``bm25.py``) and the reference's post-scoring layers: min_score,
0–100 per-page normalization, field-weight handling, dedup-by-route,
highlights.

Architecture: ``IndexReader`` is the stateful piece — manifest + corpus
stats + doc-metadata arrays resident, postings decoded on demand with an
LRU cache; the segment dictionaries and the docstore columns (doc
lengths, filter columns) it reads are shared with the other readers of
the process (``index/segment.py``, ``index/docstore.py``).
``SearchActor`` wraps an engine as a ``map_batches`` callable class so
query serving runs as a Ray actor pool (state loaded once per actor in
``__init__``, per reference §2.3's cache/dictionary actors).

Scale notes: one reader holds ONE index replica.  At cluster scale the
doc-metadata arrays and segments shard by partition across actors (the
term-hash partitioning is already in the layout); this process-local
reader is the per-shard unit of that design.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field as dc_field, fields as dc_fields

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .bm25 import K1, B, bm25_term_score, idf as _idf
from .fuzzy import FuzzyMatcher, fuzzy_penalty
from .topk import topk_order
from ..analysis.analyzer import StandardAnalyzer
from ..analysis.tokenizer import fold_text, tokenize as _index_tok
from ..functions.geo import distance_blend, haversine_km, in_bounds, near_mask
from ..index.build import term_partition
from ..index.docstore import DL_COLUMN, DocStore
from ..index.manifest import Manifest
from ..index.postings import decode_postings, merge_postings
from ..index.segment import Record, SegmentSet

MAX_RESULTS = 1000  # reference clamp (src/Search/SearchEngine.php:661)

# Lucene `term^2.5` query-time boost suffix (extension; see search())
_BOOST_RE = re.compile(r"(\S+)\^(\d+(?:\.\d+)?)")


@dataclass
class Posting:
    doc_ids: np.ndarray
    tfs: np.ndarray
    positions: np.ndarray | None  # flat; boundaries via tfs


_EMPTY = Posting(np.empty(0, np.uint64), np.empty(0, np.uint64), None)


class IndexReader:
    def __init__(self, index_dir: str, cache_terms: int = 4096,
                 max_generation: int | None = None):
        self.index_dir = index_dir
        self.manifest = Manifest.load(index_dir)
        self.manifest.require_current_format()
        # generation-pinned (time-travel / snapshot) reads: only segment
        # files and docstore chunks of generation <= max_generation are
        # visible, and corpus stats (N, avgdl) are summed over those
        # chunks' entries so BM25 at the snapshot is identical to an
        # index built from just those docs.  Valid until
        # optimize_index() compacts generations away.
        self.max_generation = max_generation
        cfg = self.manifest.config
        self.fields = [tuple(f) for f in cfg["fields"]]  # [(name, src_col)]
        self.nfields = len(self.fields)
        self.num_partitions = int(cfg["num_partitions"])
        self.id_column = cfg["id_column"]
        self.language_column = cfg.get("language_column")
        st = (self.manifest.stats if max_generation is None
              else self.manifest.corpus_stats(max_generation))
        self.n_docs = int(st["n_docs"])
        self.avgdl = float(st["avgdl"]) if st["avgdl"] else 1.0
        # tombstones: deletes are logical until optimize_index() compacts
        # (N/avgdl intentionally reflect the pre-delete corpus until then,
        # mirroring "stats lag physical state" of segment architectures)
        self.tombstones = np.array(
            sorted(self.manifest.data.get("tombstones", [])), dtype=np.uint64
        )
        # Content-derived mutation version: ANY committed change —
        # append (new partitions/stats), delete (tombstones), optimize/
        # rebuild/clear (partition set) — yields a new value, so every
        # cache tier keyed on it (query cache, persistent query cache,
        # fuzzy term/correction cache) invalidates without coordination.
        # tombstone_version alone missed appends/rebuilds.
        md = self.manifest.data
        state = json.dumps({
            "parts": sorted((k, v.get("bytes", 0), v.get("rows", 0))
                            for k, v in (md.get("partitions") or {}).items()),
            "tombv": md.get("tombstone_version", 0),
            "ntomb": len(md.get("tombstones", [])),
            "stats": md.get("stats"),
            "maxgen": max_generation,
        }, sort_keys=True, default=str)
        self.mutation_version = hashlib.md5(state.encode()).hexdigest()[:16]
        # the segments this reader's own manifest commits: generations
        # appended after it opened are never read (snapshot isolation),
        # a committed segment that is gone is an error naming its
        # partition rather than an absent term, and what another reader
        # of this process loaded of them is reused
        self._segments = SegmentSet(
            index_dir, self.manifest.segment_generations(max_generation),
            self.manifest.segment_ids(max_generation))
        self._cache: OrderedDict[str, dict[int, Posting]] = OrderedDict()
        self._cache_max = cache_terms
        # the same snapshot of the docstore: chunks open on first touch,
        # shared as the segments are
        self._docstore = DocStore.committed(index_dir, self.manifest,
                                            max_generation)
        self._doc_meta: dict[str, np.ndarray] | None = None
        self._meta_order: np.ndarray | None = None
        self._meta_dense = False
        self._live: np.ndarray | None = None

    # ---------------- doc metadata (lazy resident arrays) --------------
    def _load_meta(self):
        """Doc ids and lengths of this reader's snapshot: the docstore's
        ``[id, dl]`` columns (shared with the other readers of the
        process, ``index/docstore.py``), sorted by doc_id once for
        searchsorted lookup — the identity unless appended chunks
        interleave.  Needed by EVERY query (BM25 normalization), so
        loaded eagerly on first use.  Filterable docstore columns load
        LAZILY, one column on first reference (``_load_col``, in the
        same order) — a reader serving unfiltered queries never pays for
        store-column residency.

        At cluster scale these arrays shard by doc_id range across query
        actors (the SearchActor replica axis); term-partition sharding is
        the orthogonal axis served by search/sharded.py."""
        if self._doc_meta is not None:
            return
        ids, dl = self._docstore.column_arrays(DL_COLUMN)
        if (ids[1:] < ids[:-1]).any():  # chunks of interleaved appends
            self._meta_order = np.argsort(ids, kind="stable")
            ids, dl = ids[self._meta_order], dl[self._meta_order]
        self._doc_meta = {self.id_column: ids, "dl_total": dl}
        # Fresh builds assign doc_ids densely (0..N-1), making id->row a
        # direct index — ~10x cheaper than searchsorted on the hot
        # scoring path.  Appends/deletes break density; then we fall
        # back to the sorted lookup.
        self._meta_dense = bool(
            ids.size and ids[0] == 0 and int(ids[-1]) == ids.size - 1)

    def _load_col(self, col: str):
        if col in self._doc_meta:
            return
        _, vals = self._docstore.column_arrays(col)
        if self._meta_order is not None:
            vals = vals[self._meta_order]
        self._doc_meta[col] = vals

    def has_meta(self, col: str) -> bool:
        """Whether the docstore carries this metadata column (schema
        check — does not force the column resident)."""
        return col in self._docstore.schema.names

    def meta(self, col: str) -> np.ndarray:
        self._load_meta()
        if col != "dl_total":
            self._load_col(col)
        return self._doc_meta[col]

    def meta_for(self, col: str, doc_ids: np.ndarray) -> np.ndarray:
        """Values of a metadata column for given doc ids: ``meta(col)``
        at ``rows_of(doc_ids)``, so an id without a doc-meta row raises
        ``KeyError``."""
        return self.meta(col)[self.rows_of(doc_ids)]

    def dl_total_for(self, doc_ids: np.ndarray) -> np.ndarray:
        return self.meta_for("dl_total", doc_ids)

    @property
    def n_rows(self) -> int:
        """Number of doc-meta rows: the size of the row space
        ``rows_of`` maps into."""
        self._load_meta()
        return int(self._doc_meta[self.id_column].size)

    def _find_rows(self, doc_ids: np.ndarray):
        """(doc-meta row of each doc id, mask of the ids that have one);
        a direct index when ids are dense, else a sorted lookup."""
        self._load_meta()
        ids = self._doc_meta[self.id_column]
        if self._meta_dense:
            return doc_ids.astype(np.intp), doc_ids < ids.size
        rows = np.searchsorted(ids, doc_ids)
        hit = (ids[np.minimum(rows, ids.size - 1)] == doc_ids if ids.size
               else np.zeros(doc_ids.size, dtype=bool))
        return rows, hit

    def rows_of(self, doc_ids: np.ndarray) -> np.ndarray:
        """Doc-meta row of each doc id, i.e. its position in the sorted
        docstore id array — the row space the scorer accumulates in
        (rows ascend with doc id).  Raises ``KeyError`` for an id without
        a row: a clamped lookup would credit another doc."""
        rows, hit = self._find_rows(doc_ids)
        if not hit.all():
            raise KeyError(f"doc ids without a doc-meta row in "
                           f"{self.index_dir}: {doc_ids[~hit][:5].tolist()}")
        return rows

    @property
    def live(self) -> np.ndarray:
        """Bool mask over the doc-meta rows, False at a deleted
        (tombstoned) doc; built once per reader."""
        if self._live is None:
            rows, hit = self._find_rows(self.tombstones)
            self._live = np.ones(self.n_rows, dtype=bool)
            self._live[rows[hit]] = False
        return self._live

    # ---------------- postings ----------------------------------------
    def _term_parts(self, term: str) -> list[int]:
        """Partition(s) holding a term: split terms live in several
        (doc-hash-salted) partitions, hot terms in an explicitly placed
        one, the long tail by hash."""
        split = self.manifest.data.get("split_terms") or {}
        sp = split.get(term)
        if sp:  # deduped: older builds could list a partition twice
            return list(dict.fromkeys(int(p) for p in sp))
        hot = self.manifest.data.get("hot_terms") or {}
        p = hot.get(term)
        if p is not None:
            return [int(p)]
        return [int(term_partition([term], self.num_partitions)[0])]

    def _term_records(self, term: str) -> list[Record]:
        """Encoded runs of one term across its partitions and every
        committed generation of each (``segment.py``)."""
        return self._segments.records(term, self._term_parts(term))

    def postings(self, term: str) -> dict[int, Posting]:
        """field_id -> Posting for one term (LRU-cached); runs from
        multiple segment generations are merged positions-preserving."""
        hit = self._cache.get(term)
        if hit is not None:
            self._cache.move_to_end(term)
            return hit
        by_field: dict[int, list] = {}
        for fid, d, f, p in self._term_records(term):
            by_field.setdefault(fid, []).append(decode_postings(d, f, p))
        out = {fid: Posting(*merge_postings(parts))
               for fid, parts in by_field.items()}
        self._cache[term] = out
        if len(self._cache) > self._cache_max:
            self._cache.popitem(last=False)
        return out

    def close(self) -> None:
        """Drop this reader's references to its open files (each closes
        once no reader of the process holds it); the reader stays usable
        and a later read re-acquires what it needs."""
        self._segments.close()
        self._docstore.close()

    def dictionary_rows(self, prefix: str = "") -> pa.Table:
        """``(term, field, df, cf)`` rows of every committed segment's
        term dictionary whose term starts with ``prefix`` — one row per
        (segment, term, field); a term's df is the sum of its rows."""
        return self._segments.prefix_rows(prefix)

    def _ranked_terms(self, t: pa.Table, max_terms: int,
                      keep=None) -> list[str]:
        """Terms of dictionary rows ``t`` ranked df DESC, term ASC."""
        found: dict[str, int] = {}
        for term, df in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            if keep is None or keep(term):
                found[term] = found.get(term, 0) + df
        ranked = sorted(found.items(), key=lambda kv: (-kv[1], kv[0]))
        return [term for term, _ in ranked[:max_terms]]

    def expand_prefix(self, prefix: str, max_terms: int = 128) -> list[str]:
        """Terms starting with prefix, ranked df DESC, term ASC — a range
        of every loaded sorted term dictionary."""
        return self._ranked_terms(self.dictionary_rows(prefix), max_terms)

    def expand_wildcard(self, pattern: str, max_terms: int = 128) -> list[str]:
        """Terms matching a glob pattern (``*`` = any run, ``?`` = one
        char), ranked df DESC, term ASC — the prefix-expansion contract
        generalized to mid/leading wildcards.

        The literal prefix before the first wildcard narrows the scan to
        a range of each sorted dictionary (as ``expand_prefix``); a
        leading wildcard scans every dictionary in full.
        """
        i = min([j for j, c in enumerate(pattern) if c in "*?"],
                default=len(pattern))
        if i == len(pattern):  # no wildcard — degenerate exact term
            return [pattern]
        rx = re.compile(
            "^" + "".join(".*" if c == "*" else "." if c == "?"
                          else re.escape(c) for c in pattern) + "$")
        return self._ranked_terms(self.dictionary_rows(pattern[:i]),
                                  max_terms, keep=rx.match)

    def dictionary(self, limit: int = 20000, min_df: int = 2) -> dict[str, int]:
        """Top-``limit`` terms by summed df (at least ``min_df``) — the
        fuzzy candidate source (reference ``max_indexed_terms`` /
        ``min_term_frequency``).  Exact: split terms' per-partition
        shares and every generation's rows are summed before ranking."""
        t = self.dictionary_rows()
        s = pd.Series(t["df"].to_numpy(zero_copy_only=False),
                      index=t["term"].to_pylist()).groupby(level=0).sum()
        s = s[s >= min_df]
        return dict(s.sort_values(ascending=False, kind="stable").head(limit))

    # ---------------- docstore gather ---------------------------------
    def docs(self, doc_ids, columns=None) -> pa.Table:
        """Stored rows whose id is in ``doc_ids``, in docstore order
        (absent ids are omitted, a repeated id adds no rows; the
        projection is applied last).  Decodes only the docstore batches
        whose id range holds a requested id (``docstore.py``), so a
        top-k gather decodes about k small batches.  Columns and types
        follow the first docstore chunk's schema."""
        return self._docstore.gather(doc_ids, columns)


def open_index(index_dir: str,
               max_generation: int | None = None) -> IndexReader:
    return IndexReader(index_dir, max_generation=max_generation)


# ==========================================================================
# query compilation
# ==========================================================================


@dataclass
class Phrase:
    terms: list  # 1..n unicode61 terms; n>1 => positional phrase
    prefix: bool = False  # last term is a prefix (term*)
    # ordered proximity (Lucene "sloppy phrase" shape, an extension —
    # FTS5 has only exact phrases + unordered NEAR): a match is a
    # strictly-increasing position chain q1<…<qn in term order with
    # span qn-q1 <= (n-1)+slop; tf = number of anchor positions q1
    # admitting such a chain.  0 = exact adjacency (FTS5 semantics).
    slop: int = 0
    # query-time boost (Lucene `term^2` shape, an extension — FTS5 has
    # no per-phrase boosts): multiplies this arm's BM25 contribution.
    boost: float = 1.0


@dataclass
class CompiledQuery:
    """mode:
    - "smart":  reference default  ("t1 … tn" OR NEAR(t1…tn,10) OR t1 OR …)
    - "and":    implicit FTS5 conjunction (reference fuzzy-correction shape)
    - "or":     explicit OR of terms
    - "phrase": single positional phrase
    """

    mode: str
    # field-restricted match (ES `field:term` shape, an extension — the
    # reference never emits FTS5 column filters): when set, match set,
    # tf AND df all come from these field ids only; N, avgdl and dl stay
    # whole-corpus (the pinned FTS5 unweighted-dl behavior).  The SQL
    # oracle mirrors this split verbatim.
    fields: frozenset | None = None
    # ES minimum_should_match (an extension — FTS5 OR is fixed at "any"):
    # in "or" mode, keep only docs matching at least this many of the OR
    # arms; scoring is unchanged (BM25 sum over the arms that match).
    # 1 = plain OR; len(arms) = the AND match set with OR scoring.
    min_should_match: int = 1
    # ES dis_max (an extension): score = best arm + tie_breaker * (sum
    # of the other arms).  tie_breaker=1 degenerates to the plain sum.
    dismax: bool = False
    tie_breaker: float = 0.0
    phrases: list = dc_field(default_factory=list)  # scoring phrases
    required: list = dc_field(default_factory=list)  # phrases that must ALL match ("and"/"phrase")
    any_of: list = dc_field(default_factory=list)  # components; ANY matches ("or"/"smart")
    exclude: list = dc_field(default_factory=list)  # NOT phrases (DSL layer)
    near_terms: list | None = None  # smart mode NEAR group
    near_distance: int = 10


def compile_query(query: str, analyzer: StandardAnalyzer, mode: str = "smart",
                  prefix_last: bool = False,
                  near_distance: int = 10) -> CompiledQuery:
    query = query.strip()
    explicit_phrase = len(query) >= 2 and query[0] == '"' and query[-1] == '"'
    if explicit_phrase:
        query = query[1:-1]
        mode = "phrase"
    groups = analyzer.match_terms(query)
    terms: list[str] = [t for g in groups for t in g]
    if not terms:
        return CompiledQuery(mode=mode)

    def P(ts, prefix=False):
        return Phrase(list(ts), prefix)

    last_prefix = prefix_last
    if mode == "phrase" or explicit_phrase:
        # prefix_last + phrase = ES match_phrase_prefix: the final slot
        # matches any dictionary expansion of the prefix
        ph = P(terms, prefix=last_prefix)
        return CompiledQuery(mode="phrase", phrases=[ph], required=[ph])
    if len(terms) == 1:
        ph = P(terms, prefix=last_prefix)
        return CompiledQuery(mode="smart", phrases=[ph], any_of=[ph])
    # NOTE: phrases/required/any_of must be DISTINCT list objects — callers
    # append synonym arms to cq.phrases only, which must not leak into the
    # required conjuncts (aliasing here once made synonyms shrink AND-mode
    # match sets and double-score OR arms).
    if mode == "near":
        # explicit FTS5 NEAR(t1 … tn, N) query: match set = docs with a
        # qualifying window (single column, span <= N+1); members are
        # scored ONCE each, with window-filtered tf (_near_filtered_tfs).
        # `phrases` carries the dedup'd singles for highlight/suggest
        # bookkeeping only — _score skips them in near mode.
        phs = [P([t]) for t in dict.fromkeys(terms)]
        return CompiledQuery(mode="near", phrases=list(phs), any_of=[],
                             near_terms=terms, near_distance=near_distance)
    if mode == "and":
        phs = [P([t]) for t in dict.fromkeys(terms)]
        return CompiledQuery(mode="and", phrases=list(phs), required=list(phs))
    if mode == "or":
        # prefix_last + or = ES match_bool_prefix: the last token is a
        # prefix arm (union of its dictionary expansions scored as ONE
        # term-like arm), the rest are plain OR terms
        phs = []
        seen_or: set = set()
        for i, t in enumerate(terms):
            pfx = last_prefix and i == len(terms) - 1
            if (t, pfx) in seen_or:
                continue
            seen_or.add((t, pfx))
            phs.append(P([t], prefix=pfx))
        return CompiledQuery(mode="or", phrases=list(phs), any_of=list(phs))
    # smart: "t1..tn" OR NEAR(t1..tn, 10) OR t1 OR ... OR tn
    # (reference src/Search/SearchEngine.php:615-643; components pass
    # through array_unique, so DUPLICATE single-term arms collapse while
    # the phrase/NEAR arms keep repeated tokens)
    full = P(terms)
    singles = []
    seen: set = set()
    for i, t in enumerate(terms):
        pfx = last_prefix and i == len(terms) - 1
        if (t, pfx) in seen:
            continue
        seen.add((t, pfx))
        singles.append(P([t], prefix=pfx))
    cq = CompiledQuery(
        mode="smart",
        phrases=[full] + singles,
        any_of=[full] + singles,
        near_terms=terms,
    )
    return cq


# ==========================================================================
# engine
# ==========================================================================


def _like_regex(pattern) -> re.Pattern:
    """SQLite ``LIKE`` (no ESCAPE clause) as a regex for ``fullmatch``:
    ``%`` is any run of characters, newlines included, ``_`` any one
    character; case folds for ASCII letters only, as in SQLite."""
    return re.compile("".join(
        ".*" if c == "%" else "." if c == "_" else re.escape(c)
        for c in str(pattern)), re.I | re.S | re.A)


def _freeze(v):
    """A hashable, value-complete image of a request option: dicts become
    sorted item tuples, lists and arrays tuples, sets frozensets."""
    if isinstance(v, dict):
        return tuple(sorted((k, _freeze(x)) for k, x in v.items()))
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return tuple(_freeze(x) for x in v)
    if isinstance(v, (set, frozenset)):
        return frozenset(_freeze(x) for x in v)
    return v


@dataclass(frozen=True)
class SearchRequest:
    """The query and options of one ``SearchEngine.search()`` call.

    Every field is part of the result-cache key (``key()``), so a new
    option can never be left out of it."""

    query: str
    limit: int = 20
    offset: int = 0
    mode: str = "smart"
    field_weights: dict[str, float] | None = None
    filters: list | None = None
    language: str | None = None
    min_score: float = 0.0
    normalize: bool = True
    unique_by_route: bool = False
    route_column: str | None = None
    prefix_last: bool = False
    with_docs: bool = False
    highlight: bool = False
    round_scores: int | None = None
    fuzzy: bool = False
    fuzzy_mode: str = "correction"
    exclude_terms: list | None = None
    post_rescore: bool = False
    geo_filters: dict | None = None
    distance_weight: float = 0.0
    sort: tuple | None = None
    merge_tokens: bool = False
    result_fields: list | None = None
    enable_suggestions: bool = False
    near_distance: int = 10
    slop: int = 0
    in_fields: list | None = None
    min_should_match: int = 1
    term_boosts: dict | None = None
    dismax: bool = False
    tie_breaker: float = 0.0
    rank_column: str | None = None
    rank_weight: float = 0.0
    rank_mode: str = "add"
    decay_column: str | None = None
    decay_origin: float = 0.0
    decay_scale: float = 0.0
    decay_offset: float = 0.0
    negative_terms: list | None = None
    negative_boost: float = 0.5
    restrict_ids: list | None = None

    def key(self, version: str) -> tuple:
        """Result-cache key: every field, frozen, then the index
        ``version`` last."""
        return (*(_freeze(getattr(self, f.name)) for f in dc_fields(self)),
                version)


@dataclass
class _Hits:
    """Candidates on their way to the page: doc-meta rows (ascending
    until the selection orders them), their rank (negated score) and,
    under a geo filter with a reference point, their distances in km."""

    rows: np.ndarray
    rank: np.ndarray
    distances: np.ndarray | None = None

    def take(self, sel) -> None:
        """Keep (and order) the candidates at ``sel``."""
        self.rows, self.rank = self.rows[sel], self.rank[sel]
        if self.distances is not None:
            self.distances = self.distances[sel]


class SearchEngine:
    def __init__(self, index: IndexReader, *, language: str = "en",
                 analyzer: StandardAnalyzer | None = None,
                 field_weights: dict[str, float] | None = None,
                 synonyms: dict[str, list] | None = None,
                 fuzzy_algorithm: str = "trigram",
                 fuzziness: float = 0.4,
                 max_indexed_terms: int = 20000,
                 min_term_frequency: int = 2,
                 min_part_frequency: int = 5,
                 cache_ttl: float = 300.0,
                 persistent_cache=None,
                 persistent_fuzzy_cache=None):
        self.index = index
        self.analyzer = analyzer or StandardAnalyzer(language=language)
        self.default_weights = field_weights
        self.synonyms = {k.lower(): list(v) for k, v in (synonyms or {}).items()}
        self.fuzzy_algorithm = fuzzy_algorithm
        self.fuzziness = fuzziness
        self._fuzzy_cfg = (max_indexed_terms, min_term_frequency,
                           min_part_frequency)
        self._fuzzy = None
        self._cache_ttl = cache_ttl
        self._result_cache: OrderedDict = OrderedDict()
        self._cache_max = 1000
        self._cache_hits = 0
        self._cache_misses = 0
        # optional cross-process tiers (yetisearch_ray.state): a SQLite
        # query-result cache and a JSON fuzzy-term cache, both keyed on
        # the index mutation version so writes invalidate (reference
        # QueryCache.php / FuzzyTermCache.php)
        self._persistent = persistent_cache
        self._persistent_fuzzy = persistent_fuzzy_cache
        self._index_name = os.path.basename(
            os.path.normpath(index.index_dir)) or "default"

    @property
    def fuzzy_matcher(self):
        """Dictionary head + fuzzy state, built lazily once per engine
        (reference's indexed-terms cache, §2.3)."""
        if self._fuzzy is None:
            limit, min_df, min_part = self._fuzzy_cfg
            self._fuzzy = FuzzyMatcher(
                self.index.dictionary(limit=limit, min_df=min_df),
                algorithm=self.fuzzy_algorithm, fuzziness=self.fuzziness,
                min_part_frequency=min_part,
                persistent_cache=self._persistent_fuzzy,
                version=self.index.mutation_version,
            )
        return self._fuzzy

    def _expand_synonyms(self, groups: list[list[str]], cap_per_term: int = 3):
        """Synonym expansion (reference ``expandSynonyms`` :2157-2213):
        extra OR-arms per term; multi-word synonyms become phrases."""
        extra = []
        for g in groups:
            if len(g) != 1:
                continue
            for syn in self.synonyms.get(g[0], [])[:cap_per_term]:
                toks = self.analyzer.match_terms(syn)
                extra.extend(toks)
        return extra

    # ---------------- low-level helpers -------------------------------
    def _field_weight_vector(self, field_weights: dict[str, float] | None) -> np.ndarray:
        w = np.ones(self.index.nfields, dtype=np.float64)
        if field_weights:
            for i, (fname, _) in enumerate(self.index.fields):
                if fname in field_weights:
                    w[i] = float(field_weights[fname])
        return w

    def _term_postings(self, term: str) -> dict[int, Posting]:
        return self.index.postings(term)

    def _phrase_postings(self, phrase: Phrase) -> dict[int, Posting]:
        """Postings of a (possibly multi-term / prefix) phrase per field.

        Multi-term: positional adjacency intersection (tf = number of
        phrase occurrences).  Prefix: union over expanded terms.
        """
        if phrase.prefix:
            # UNCAPPED expansion — FTS5 `term*` and ES *_prefix queries
            # are "starts with", not "top-k expansions"
            expanded = self.index.expand_prefix(phrase.terms[-1],
                                                max_terms=1 << 31)
            base_terms = phrase.terms[:-1]
            buf: dict[int, list] = {}
            for t in expanded:
                for fid, p in self._term_postings(t).items():
                    buf.setdefault(fid, []).append(p)
            if not base_terms:
                # union of postings of all expanded terms per field, tfs
                # summed
                out: dict[int, Posting] = {}
                for fid, ps in buf.items():
                    uids, inv = np.unique(
                        np.concatenate([p.doc_ids for p in ps]),
                        return_inverse=True)
                    agg = np.zeros(uids.size, dtype=np.uint64)
                    np.add.at(agg, inv, np.concatenate([p.tfs for p in ps]))
                    out[fid] = Posting(uids, agg, None)
                return out
            # phrase ending in prefix (ES match_phrase_prefix): the final
            # slot matches ANY dictionary expansion of the prefix; the
            # union occurrence set is built per field with positions so
            # the standard adjacency kernel below runs unchanged
            per_last: dict[int, Posting] = {}
            for fid, ps in buf.items():
                if any(p.positions is None for p in ps):
                    continue
                docs = np.concatenate(
                    [np.repeat(p.doc_ids, p.tfs.astype(np.int64))
                     for p in ps])
                pos = np.concatenate([p.positions for p in ps])
                key = ((docs.astype(np.uint64) << np.uint64(32))
                       | pos.astype(np.uint64))
                order = np.argsort(key, kind="stable")
                docs, pos = docs[order], pos[order]
                uids, counts = np.unique(docs, return_counts=True)
                per_last[fid] = Posting(uids.astype(np.uint64),
                                        counts.astype(np.uint64), pos)
            if not per_last:
                return {}
            per_term = [self._term_postings(t) for t in base_terms]
            per_term.append(per_last)
            phrase = Phrase(list(base_terms) + [phrase.terms[-1]])
        else:
            if len(phrase.terms) == 1:
                return self._term_postings(phrase.terms[0])
            per_term = [self._term_postings(t) for t in phrase.terms]
        out: dict[int, Posting] = {}
        for fid in range(self.index.nfields):
            plists = [pt.get(fid) for pt in per_term]
            if any(p is None or p.doc_ids.size == 0 for p in plists):
                continue
            if any(p.positions is None for p in plists):
                continue  # positions required for phrases
            # fully vectorized adjacency: encode each occurrence as
            # key = doc_id * 2^32 + position, then a phrase anchored at key
            # requires key+j present in term j's key set — a chain of
            # sorted-array membership tests, no per-doc loop.
            # Bounds: positions are uint32 at build time (< 2^32), and
            # doc_id must fit the high 32 bits — guard so a pathological
            # id can never silently corrupt keys into false matches.
            SHIFT = np.uint64(32)
            # prune to the doc intersection before expanding occurrences —
            # an adjacency run needs every term in the doc, so non-shared
            # docs can never contribute (hot-term phrases shrink a lot)
            rows, shared = self._shared_rows(plists)
            n_common = int(np.count_nonzero(shared))
            if n_common == 0:
                continue
            prune = n_common < 0.8 * min(p.doc_ids.size for p in plists)
            keys = []
            for p, r in zip(plists, rows):
                if p.doc_ids.size and int(p.doc_ids[-1]) >= (1 << 32):
                    raise ValueError(
                        "phrase matching requires doc_id < 2^32 per shard "
                        f"(got {int(p.doc_ids[-1])}); re-shard the index")
                tfs64 = p.tfs.astype(np.int64)
                if prune:
                    mask = shared[r]
                    docs_exp = np.repeat(p.doc_ids[mask], tfs64[mask])
                    pos = p.positions[np.repeat(mask, tfs64)]
                else:
                    docs_exp = np.repeat(p.doc_ids, tfs64)
                    pos = p.positions
                keys.append((docs_exp << SHIFT) | pos.astype(np.uint64))
            occ = keys[0]
            if phrase.slop > 0:
                # greedy windowed chain: per anchor, take the SMALLEST
                # next-term position > current — greedy minimizes the
                # final span, so "greedy chain fits the window" is exact
                # for "∃ increasing chain within the window".  One
                # searchsorted per term over the whole anchor vector —
                # no per-doc loop.
                bound = np.uint64(len(phrase.terms) - 1 + phrase.slop)
                anchor = occ
                cur = occ
                for j in range(1, len(phrase.terms)):
                    # keys are globally ascending: build sorts postings by
                    # (term, doc, position) (build.py:338) and docs_exp
                    # repeats the ascending doc_ids
                    kj = keys[j]
                    idx = np.searchsorted(kj, cur + np.uint64(1))
                    ok = idx < kj.size
                    nxt = kj[np.minimum(idx, kj.size - 1)]
                    ok &= (nxt >> SHIFT) == (cur >> SHIFT)  # same doc
                    ok &= (nxt - anchor) <= bound
                    anchor, cur = anchor[ok], nxt[ok]
                    if anchor.size == 0:
                        break
                occ = anchor
            else:
                for j in range(1, len(phrase.terms)):
                    occ = occ[np.isin(occ + np.uint64(j), keys[j],
                                      assume_unique=True)]
                    if occ.size == 0:
                        break
            if occ.size:
                # occ ascends, so each doc's occurrences form one run
                docs = (occ >> SHIFT).astype(np.uint64)
                starts = np.flatnonzero(np.r_[True, docs[1:] != docs[:-1]])
                counts = np.diff(np.r_[starts, docs.size]).astype(np.uint64)
                out[fid] = Posting(docs[starts], counts, None)
        return out

    # FTS5 NEAR window rule, probed against stdlib sqlite3 FTS5 (see
    # tests/test_fts5_goldens.py): single-token members of NEAR(t1 … tn, N)
    # form a qualifying clump iff max(pos) - min(pos) <= N + 1, within a
    # SINGLE column (positions never span columns).  This holds for any
    # member count — "tokens between the end of the first phrase and the
    # start of the last" <= N.
    def _near_mask(self, terms: list[str], distance: int) -> np.ndarray:
        """Doc-meta rows (bool mask) where all terms occur within a
        qualifying NEAR window in some single field — the NEAR(t1 … tn,
        N) match set.

        Thin wrapper over the vectorized global-windowing kernel
        (_near_filtered_tfs): a doc has a qualifying window iff any of
        its term instances survive window filtering (tf > 0).  One NEAR
        implementation, no per-doc Python loop."""
        mask = self._row_mask(self._posting_rows(self._term_postings(terms[0])))
        for t in terms[1:]:
            mask &= self._row_mask(self._posting_rows(self._term_postings(t)))
        rows = np.flatnonzero(mask)
        if rows.size == 0:
            return mask
        ones = np.ones(self.index.nfields, dtype=np.float64)
        tfs = self._near_filtered_tfs(terms, distance, rows, ones)
        total = np.zeros(rows.size, dtype=np.float64)
        for tfw in tfs:
            total += tfw
        mask[rows[~(total > 0.0)]] = False
        return mask

    def _near_filtered_tfs(self, terms: list[str], distance: int,
                           match_rows: np.ndarray,
                           weights: np.ndarray) -> list[np.ndarray]:
        """Per-term, NEAR-window-filtered, column-weighted tf aligned with
        the ascending doc-meta rows ``match_rows`` — the tf FTS5's bm25()
        sees for the member phrases of a NEAR group.

        FTS5 semantics (probed empirically, tests/test_fts5_goldens.py):
        an instance of a member term counts iff it lies inside some token
        window of span <= distance+1 (within one column) that contains at
        least one instance of EVERY member term; instances outside every
        qualifying window are dropped from the phrase's position list and
        therefore from its tf.
        """
        nterms = len(terms)
        if match_rows.size == 0:
            return [np.zeros(0, dtype=np.float64) for _ in range(nterms)]
        in_match = np.zeros(self.index.n_rows, dtype=bool)
        in_match[match_rows] = True
        acc = [np.zeros(self.index.n_rows, dtype=np.float64)
               for _ in range(nterms)]
        per_term = [self._term_postings(t) for t in terms]
        span_u = np.uint64(distance + 1)
        SHIFT = np.uint64(32)
        for fid in range(self.index.nfields):
            plists = [pt.get(fid) for pt in per_term]
            if any(p is None or p.doc_ids.size == 0 or p.positions is None
                   for p in plists):
                continue
            for p in plists:
                if int(p.doc_ids[-1]) >= (1 << 32):
                    raise ValueError(
                        "NEAR matching requires doc_id < 2^32 per shard")
            # Candidate pruning BEFORE occurrence expansion: a qualifying
            # window needs every member term in the same doc+field, and
            # only docs still in ``match`` can receive tf — so restrict
            # each posting to the doc intersection ∩ match first.  For
            # hot-term pairs this shrinks the occurrence sort from the
            # UNION of all postings to the (much smaller) co-occurrence
            # set (measured ~3× on two-hot-term smart queries).
            rows, shared = self._shared_rows(plists)
            shared &= in_match
            n_common = int(np.count_nonzero(shared))
            if n_common == 0:
                continue
            # masking pays only when it actually shrinks the expansion —
            # for hot-term pairs that co-occur everywhere, skip it
            prune = n_common < 0.8 * min(p.doc_ids.size for p in plists)
            # Global vectorized windowing over ALL docs at once: pack
            # every occurrence as key = doc<<32 | pos (sorted).  A window
            # ending at occurrence h starts at lo(h) = first key >=
            # key[h]-span; same-doc membership is implied (cross-doc keys
            # differ by >= 2^32 - span).  The window qualifies iff every
            # term label appears in [lo(h), h] (per-label cumulative
            # counts), and a qualifying window marks all of its members
            # (interval-union via a +1/-1 diff array).  O(n log n), no
            # per-doc Python loop.
            keys_list, lbl_list = [], []
            for j, (p, r) in enumerate(zip(plists, rows)):
                tfs64 = p.tfs.astype(np.int64)
                if prune:
                    mask = shared[r]
                    docs_exp = np.repeat(p.doc_ids[mask], tfs64[mask])
                    pos = p.positions[np.repeat(mask, tfs64)]
                else:
                    docs_exp = np.repeat(p.doc_ids, tfs64)
                    pos = p.positions
                keys_list.append((docs_exp << SHIFT)
                                 | pos.astype(np.uint64))
                lbl_list.append(np.full(keys_list[-1].size, j, dtype=np.int8))
            keys = np.concatenate(keys_list)
            lbl = np.concatenate(lbl_list)
            order = np.argsort(keys, kind="stable")
            keys, lbl = keys[order], lbl[order]
            n = keys.size
            lo_target = np.where(keys >= span_u, keys - span_u,
                                 np.uint64(0))
            lo = np.searchsorted(keys, lo_target, side="left")
            cum = np.empty((nterms, n + 1), dtype=np.int64)
            ok = np.ones(n, dtype=bool)
            for j in range(nterms):
                cum[j, 0] = 0
                np.cumsum(lbl == j, out=cum[j, 1:])
                ok &= (cum[j, 1:] - cum[j, lo]) > 0
            if not ok.any():
                continue
            diff = np.zeros(n + 1, dtype=np.int64)
            np.add.at(diff, lo[ok], 1)
            hi_idx = np.flatnonzero(ok)
            np.add.at(diff, hi_idx + 1, -1)
            marked = np.cumsum(diff[:-1]) > 0
            w = float(weights[fid])
            for j in range(nterms):
                sel = marked & (lbl == j)
                if not sel.any():
                    continue
                at = self.index.rows_of(keys[sel] >> SHIFT)
                # NEAR-qualifying docs may have been REMOVED from the
                # match set (exclude terms): only members receive tf
                at = at[in_match[at]]
                if at.size:
                    np.add.at(acc[j], at, w)
        return [a[match_rows] for a in acc]

    # ---------------- scoring -----------------------------------------
    # The scorer works in the reader's doc-meta row space
    # (``IndexReader.rows_of``): match sets are bool masks over the rows,
    # intersections per-row counts, and each arm adds its BM25
    # contribution at its own rows of a row-length score.  An arm costs
    # O(rows) instead of the sorts of a doc-id union; the doc-sharded
    # layout bounds the rows per reader.
    @staticmethod
    def _arm_key(ph: Phrase):
        return ("phrase", tuple(ph.terms), bool(ph.prefix))

    def _posting_rows(self, posts: dict[int, Posting]) -> dict[int, np.ndarray]:
        """field id -> doc-meta rows of that field's posting."""
        return {fid: self.index.rows_of(p.doc_ids) for fid, p in posts.items()}

    def _shared_rows(self, plists: list[Posting]):
        """(doc-meta rows of each posting, mask of the rows all of them
        hold) — the per-row count of the members is the intersection."""
        rows = [self.index.rows_of(p.doc_ids) for p in plists]
        hits = np.zeros(self.index.n_rows, dtype=np.intp)
        for r in rows:
            hits[r] += 1
        return rows, hits == len(plists)

    def _row_mask(self, rows: dict[int, np.ndarray]) -> np.ndarray:
        """Rows holding an arm in any field: its match set, and by
        count its df."""
        mask = np.zeros(self.index.n_rows, dtype=bool)
        for r in rows.values():
            mask[r] = True
        return mask

    def _arm_tfs(self, posts: dict[int, Posting], rows: dict[int, np.ndarray],
                 mask: np.ndarray, weights: np.ndarray):
        """(rows, tf) of an arm: the ascending rows holding it in any
        field and its column-weighted tf there.  Fields add in posting
        order, as FTS5's weighted tf sum does; a one-field arm is its
        posting as is."""
        if len(posts) == 1:
            (fid, p), = posts.items()
            return rows[fid], p.tfs.astype(np.float64) * weights[fid]
        tf = np.zeros(self.index.n_rows, dtype=np.float64)
        for fid, p in posts.items():
            tf[rows[fid]] += p.tfs.astype(np.float64) * weights[fid]
        at = np.flatnonzero(mask)
        return at, tf[at]

    def arm_dfs(self, cq: CompiledQuery) -> dict:
        """LOCAL document frequencies per scoring arm — phrase arms keyed
        ("phrase", terms, prefix), NEAR member terms keyed ("near", t).
        The doc-sharded coordinator sums these across shards and feeds
        the totals back via ``_score(stats_override=...)`` so every shard
        scores with GLOBAL idf (distributed-BM25 two-phase protocol)."""
        def df(posts) -> int:
            return int(np.count_nonzero(self._row_mask(self._posting_rows(posts))))

        out: dict = {self._arm_key(ph): df(self._phrase_postings(ph))
                     for ph in cq.phrases}
        if cq.near_terms and len(cq.near_terms) > 1:
            for t in cq.near_terms:
                out[("near", t)] = df(self._term_postings(t))
        return out

    def _score(self, cq: CompiledQuery, weights: np.ndarray,
               stats_override: dict | None = None):
        """Returns (rows, rank): the ascending doc-meta rows of the match
        set and their NEGATED FTS5 bm25 sum (ORDER BY rank ASC = best
        first).

        ``stats_override`` = {"n_docs": N, "avgdl": x, "dfs": {arm_key:
        df}} replaces the LOCAL corpus statistics with cluster-global
        ones — the per-shard scoring phase of doc-sharded serving.
        """
        if stats_override:
            N = int(stats_override["n_docs"])
            avgdl = float(stats_override["avgdl"])
            dfs = stats_override["dfs"]
        else:
            N = self.index.n_docs
            avgdl = self.index.avgdl
            dfs = None
        phrase_posts = [self._phrase_postings(p) for p in cq.phrases]
        if cq.fields is not None:
            # field-restricted match: drop non-selected fields BEFORE the
            # match set / tf / df are formed — restricted-corpus semantics
            phrase_posts = [{fid: p for fid, p in pp.items()
                             if fid in cq.fields} for pp in phrase_posts]
        # near mode: phrases are bookkeeping only — EXCEPT when the NEAR
        # group degenerates to a single member, where FTS5 scores
        # NEAR(term) exactly like a plain term query (the NEAR-arm
        # contribution below requires >1 members and would otherwise
        # leave every match at score 0)
        near_match = cq.mode == "near" and len(cq.near_terms or []) > 1
        arm_rows = ([] if near_match
                    else [self._posting_rows(pp) for pp in phrase_posts])
        arm_masks = [self._row_mask(r) for r in arm_rows]

        # match set
        if near_match:
            mask = self._near_mask(cq.near_terms, cq.near_distance)
        elif cq.mode in ("and", "phrase") or cq.required:
            if cq.mode == "and":
                # Intersect ONLY over the required conjuncts — synonym
                # expansion appends extra scoring phrases to cq.phrases
                # which must behave as OR arms, not shrink the match set
                # (reference expandSynonyms adds OR components).
                req_ids = {id(ph) for ph in cq.required}
                sets = [m for ph, m in zip(cq.phrases, arm_masks)
                        if id(ph) in req_ids]
            else:
                sets = arm_masks[:1]
            mask = sets[0].copy()
            for s in sets[1:]:
                mask &= s
        elif cq.min_should_match > 1:
            # minimum_should_match: each arm counts once per row, so the
            # sum is the number of matching arms per doc
            hits = np.zeros(self.index.n_rows, dtype=np.int32)
            for m in arm_masks:
                hits += m
            mask = hits >= cq.min_should_match
        else:
            mask = np.zeros(self.index.n_rows, dtype=bool)
            for m in arm_masks:
                mask |= m
            # The smart expression's NEAR(t1..tn, 10) arm adds nothing to
            # the MATCH SET (every NEAR match contains all terms, which the
            # OR-of-terms arms already cover) but it DOES contribute score:
            # FTS5's bm25() counts every phrase in the expression, so the
            # NEAR group's member terms are scored a second time with
            # window-filtered tf — added below after the phrase loop.
        if cq.exclude and mask.any():
            for ph in cq.exclude:
                posts = self._phrase_postings(ph)
                if cq.fields is not None:
                    posts = {fid: p for fid, p in posts.items()
                             if fid in cq.fields}
                for r in self._posting_rows(posts).values():
                    mask[r] = False
        rows = np.flatnonzero(mask)
        if rows.size == 0:
            return rows, np.empty(0, np.float64)

        dl = self.index.meta("dl_total")

        def norm(at):  # BM25 length normalization at rows ``at``
            return K1 * (1.0 - B + B * dl[at].astype(np.float64) / avgdl)

        # Each arm adds its contribution at its own rows only: the rows
        # it misses would add 0.0, which leaves every sum bit-identical.
        score = np.zeros(self.index.n_rows, dtype=np.float64)
        # dis_max (ES disjunction-max, an extension): combine arm
        # contributions as max + tie_breaker*(sum - max) instead of sum
        dmax = (np.zeros(self.index.n_rows, dtype=np.float64)
                if cq.dismax else None)
        for ph, posts, prow, pmask in zip(cq.phrases, phrase_posts,
                                          arm_rows, arm_masks):
            if not posts:
                continue
            # df = rows containing the phrase in ANY column (FTS5 idf)
            if dfs is not None:
                df = int(dfs.get(self._arm_key(ph), 0))
                if df == 0:
                    continue
            else:
                df = int(np.count_nonzero(pmask))
            term_idf = _idf(N, df)
            at, tfw = self._arm_tfs(posts, prow, pmask, weights)
            c = ph.boost * term_idf * (tfw * (K1 + 1.0)) / (tfw + norm(at))
            c = np.where(tfw > 0, c, 0.0)
            score[at] += c  # running sum (plain BM25 path)
            if dmax is not None:
                dmax[at] = np.maximum(dmax[at], c)
        score = score[rows]
        if dmax is not None:
            # score holds the arm SUM; fold into dis_max form
            dmax = dmax[rows]
            score = dmax + cq.tie_breaker * (score - dmax)
        # NEAR-arm contribution (smart mode only): FTS5's bm25() scores
        # every phrase in the expression, so the member terms of
        # NEAR(t1..tn, 10) count AGAIN, with tf restricted to instances
        # inside qualifying NEAR windows.  idf uses each member's
        # standalone df (xQueryPhrase counts unconstrained phrase rows).
        # Verified rank- and score-identical to real SQLite FTS5 in
        # tests/test_fts5_goldens.py.
        if (cq.mode in ("smart", "near") and cq.near_terms
                and len(cq.near_terms) > 1):
            near_tfs = self._near_filtered_tfs(
                cq.near_terms, cq.near_distance, rows, weights)
            norm_match = norm(rows)
            for t, tfw in zip(cq.near_terms, near_tfs):
                posts = self._term_postings(t)
                if not posts:
                    continue
                if dfs is not None:
                    df = int(dfs.get(("near", t), 0))
                    if df == 0:
                        continue
                else:
                    df = int(np.count_nonzero(
                        self._row_mask(self._posting_rows(posts))))
                term_idf = _idf(N, df)
                denom = tfw + norm_match
                contrib = term_idf * (tfw * (K1 + 1.0)) / np.where(
                    denom > 0, denom, 1.0)
                np.add(score, np.where(tfw > 0, contrib, 0.0), out=score)
        return rows, -score

    # ---------------- filters -----------------------------------------
    _OPS = {"=", "!=", "<", ">", "<=", ">=", "in", "not in", "between",
            "like", "not like", "contains", "is null", "is not null",
            "exists", "not exists", "=?"}

    def _apply_filters(self, rows: np.ndarray, filters, language: str | None):
        """Mask of the doc-meta ``rows`` that pass ``language`` and every
        filter (values read at the rows of the resident columns)."""
        if rows.size == 0:
            return np.ones(0, dtype=bool)
        mask = np.ones(rows.size, dtype=bool)
        if language and self.index.language_column:
            mask &= self.index.meta(self.index.language_column)[rows] == language
        for f in filters or []:
            col, op, value = f["field"], f.get("operator", "=").lower(), f.get("value")
            if op not in self._OPS:
                raise ValueError(f"unsupported filter operator: {op}")
            if op in ("exists", "not exists"):
                have = self.index.has_meta(col)
                mask &= np.full(rows.size, have if op == "exists" else not have)
                continue
            vals = self.index.meta(col)[rows]
            # as in SQLite, a NULL (None or NaN) value makes !=, NOT IN,
            # LIKE and NOT LIKE unknown, and the row is dropped
            if op in ("!=", "not in", "like", "not like"):
                mask &= ~pd.isna(vals)
            if op == "=":
                mask &= vals == value
            elif op == "!=":
                mask &= vals != value
            elif op == "<":
                mask &= vals < value
            elif op == ">":
                mask &= vals > value
            elif op == "<=":
                mask &= vals <= value
            elif op == ">=":
                mask &= vals >= value
            elif op in ("in", "not in"):
                opts = list(value)
                if vals.dtype == object:  # np.isin would cast a mixed
                    opts = np.array(opts, dtype=object)  # list to str
                hit = np.isin(vals, opts)
                mask &= hit if op == "in" else ~hit
            elif op == "between":
                lo, hi = value
                mask &= (vals >= lo) & (vals <= hi)
            elif op in ("like", "not like"):
                rx = _like_regex(value)
                hit = np.fromiter((rx.fullmatch(str(v)) is not None
                                   for v in vals), bool, vals.size)
                mask &= hit if op == "like" else ~hit
            elif op == "contains":
                mask &= np.fromiter((str(value).lower() in str(v).lower() for v in vals), bool, vals.size)
            elif op == "is null":
                mask &= np.fromiter((v is None or (isinstance(v, float) and np.isnan(v)) for v in vals), bool, vals.size)
            elif op == "is not null":
                mask &= np.fromiter((not (v is None or (isinstance(v, float) and np.isnan(v))) for v in vals), bool, vals.size)
            elif op == "=?":
                mask &= np.fromiter(
                    (v == value or v is None or v == "" for v in vals), bool, vals.size
                )
        return mask

    def _parse_boost_syntax(self, query: str, term_boosts):
        """Lucene ``term^2.5`` boost syntax: strip the suffix before the
        analyzer sees it (it would otherwise split "2.5" into tokens)
        and fold into term_boosts keyed by the ANALYZED term."""
        if "^" not in query:
            return query, term_boosts
        boosts = dict(term_boosts or {})

        def _take(mo):
            g = self.analyzer.match_terms(mo.group(1))
            for t in (t for grp in g for t in grp):
                boosts[t] = float(mo.group(2))
            return mo.group(1)

        return _BOOST_RE.sub(_take, query), boosts

    # ---------------- public API ---------------------------------------
    def search(self, query: str, **options) -> pa.Table:
        """Ranked page for ``query``; ``options`` are the fields of
        ``SearchRequest`` (an unknown one raises ``TypeError``).

        Stages: compile (``_compile_search``) → candidates (``_candidates``:
        the live, allowed, filtered match set as doc-meta rows) → the
        score modifiers ``_stages`` lists → select (``_select``: top-k
        order, cut to the rows the page reads) → page (``_page``: doc
        ids, re-ranking, slice, normalization) → gather (``_gather``)."""
        req = SearchRequest(query, **options)
        cache_key, out = self._cache_lookup(req)
        if out is not None:
            return out
        cq, query, orig_terms = self._compile_search(req)
        if not cq.phrases:
            return self._empty_result(req.with_docs)
        hits = _Hits(*self._candidates(cq, self._weights(req), req))
        for _, stage in self._stages(req):
            if not hits.rows.size:
                break
            stage(req, hits)
        self._select(req, hits)
        out = self._gather(req, cq, *self._page(req, cq, hits, orig_terms))
        if req.enable_suggestions and out.num_rows == 0:
            # reference attaches a did-you-mean to empty result sets
            # (SearchEngine.php:238-249 -> generateSuggestion); the Arrow
            # mapping is schema metadata on the (empty) result table
            sug = self.suggest(query)
            if sug.num_rows:
                out = out.replace_schema_metadata(
                    {b"suggestion": sug["suggestion"][0].as_py().encode()})
        if cache_key is not None:
            self._cache_store(cache_key, out)
            if self._persistent is not None:
                self._persistent.set(
                    self._index_name, {"key": repr(cache_key)}, out,
                    ttl=int(self._cache_ttl), version=cache_key[-1])
        return out

    def _cache_lookup(self, req: SearchRequest):
        """(result-cache key, cached table or None); the key is None when
        caching is off.  Reference QueryCache §2.3: TTL + LRU, keyed on
        the index's mutation version so writes invalidate."""
        if self._cache_ttl <= 0:
            return None, None
        cache_key = req.key(self.index.mutation_version)
        hit = self._result_cache.get(cache_key)
        if hit is not None:
            expiry, table = hit
            if time.time() < expiry:
                self._result_cache.move_to_end(cache_key)
                self._cache_hits += 1
                return cache_key, table
            del self._result_cache[cache_key]
        self._cache_misses += 1
        if self._persistent is not None:
            # cross-process tier: the version is already the last
            # element of cache_key, so a mutated index never hits
            pt = self._persistent.get(
                self._index_name, {"key": repr(cache_key)},
                version=cache_key[-1])
            if pt is not None:
                self._cache_store(cache_key, pt)
                return cache_key, pt
        return cache_key, None

    def _weights(self, req: SearchRequest) -> np.ndarray:
        return self._field_weight_vector(req.field_weights
                                         or self.default_weights)

    def _candidates(self, cq: CompiledQuery, weights: np.ndarray,
                    req: SearchRequest, stats_override: dict | None = None):
        """(rows, rank) of the match set of ``cq`` under ``req``: scored
        (``_score``), then deleted docs dropped (``IndexReader.live``),
        then rows outside ``restrict_ids``, then rows failing ``filters``
        / ``language``.  Rows ascend, and so do their doc ids.  The one
        candidate stage of ``search()``, ``match_ids()``/``count()``, the
        ``negative_terms`` demotion and the doc-sharded shards."""
        if not cq.phrases:
            return np.empty(0, np.intp), np.empty(0, np.float64)
        rows, rank = self._score(cq, weights, stats_override)
        if rows.size and self.index.tombstones.size:
            keep = self.index.live[rows]
            rows, rank = rows[keep], rank[keep]
        if rows.size and req.restrict_ids is not None:
            # ES `ids` / terms-by-_id filter (extension): prune the match
            # set to an explicit doc-id allowlist; scoring (df/idf/dl) is
            # unaffected, like exclude_terms.
            keep = np.isin(self.index.meta(self.index.id_column)[rows],
                           np.asarray(req.restrict_ids, dtype=np.uint64))
            rows, rank = rows[keep], rank[keep]
        if rows.size and (req.filters or req.language):
            keep = self._apply_filters(rows, req.filters, req.language)
            rows, rank = rows[keep], rank[keep]
        return rows, rank

    def _stages(self, req: SearchRequest) -> list:
        """(name, method) of the score modifiers ``search()`` runs on the
        candidates, in order, before the top-k selection; ``explain()``
        reports the names as ``plan["stages"]``.  Each acts on the full
        candidate set, so it can promote a doc from outside the BM25
        page."""
        return [(name, fn) for name, on, fn in (
            ("rank_boost", req.rank_column and req.rank_weight,
             self._rank_boost),
            ("decay", req.decay_column and req.decay_scale > 0, self._decay),
            ("negative_terms", req.negative_terms, self._demote),
            ("geo", req.geo_filters, self._apply_geo),
        ) if on]

    def _rank_boost(self, req: SearchRequest, hits: _Hits) -> None:
        """Static-rank doc boost (ES function_score
        field_value_factor(log1p) shape, an extension): blend a stored
        numeric column into the score.
        add:      score += w * ln(1 + max(v, 0))
        multiply: score *= 1 + w * ln(1 + max(v, 0))"""
        if req.rank_mode not in ("add", "multiply"):
            raise ValueError("rank_mode must be 'add' or 'multiply'")
        vals = self.index.meta(req.rank_column)[hits.rows]
        f = np.log1p(np.maximum(np.asarray(vals, np.float64), 0.0))
        s = np.abs(hits.rank)
        s = (s * (1.0 + req.rank_weight * f) if req.rank_mode == "multiply"
             else s + req.rank_weight * f)
        hits.rank = -s

    def _decay(self, req: SearchRequest, hits: _Hits) -> None:
        """ES function_score gauss decay (extension): multiply the score
        by exp(-max(0, |v-origin|-offset)^2 / (2*scale^2))."""
        vals = np.asarray(self.index.meta(req.decay_column)[hits.rows],
                          np.float64)
        d = np.maximum(
            np.abs(vals - float(req.decay_origin)) - float(req.decay_offset),
            0.0)
        hits.rank = -(np.abs(hits.rank)
                      * np.exp(-(d * d) / (2.0 * float(req.decay_scale) ** 2)))

    def _demote(self, req: SearchRequest, hits: _Hits) -> None:
        """ES `boosting` query (extension): docs matching ANY of the
        negative terms (an OR query each) keep their positive score
        multiplied by negative_boost — a demotion, never an exclusion."""
        neg = np.zeros(hits.rows.size, dtype=bool)
        for nt in req.negative_terms:
            neg |= np.isin(hits.rows, self._match_rows(str(nt), mode="or"))
        s = np.abs(hits.rank)
        s[neg] *= float(req.negative_boost)
        hits.rank = -s

    def _select(self, req: SearchRequest, hits: _Hits) -> None:
        """ORDER BY rank ASC, doc_id ASC (reference :1096) — or an
        explicit column sort (reference :1106-1128) — cut to the rows
        the page reads, then min_score on the abs score (processResults
        :717-729)."""
        limit, offset = min(int(req.limit), MAX_RESULTS), req.offset
        # widen before dedup (reference widens to max_results :129-137);
        # post_rescore must keep the full clamp(limit*20, 200, 2000)
        # candidate pool alive so rescoring can promote docs from outside
        # the final page (reference :901-913) — truncate only afterwards.
        if req.unique_by_route or req.fuzzy:
            page_n = MAX_RESULTS
        elif req.post_rescore:
            page_n = max(offset + limit, int(np.clip(limit * 20, 200, 2000)))
        else:
            page_n = offset + limit
        # rows of the ranked order read below: the distance re-sort
        # draws from the first clamp(limit*20, 200, MAX_RESULTS)
        by_distance = (hits.distances is not None
                       and req.geo_filters.get("sort_by_distance"))
        need = MAX_RESULTS if by_distance else page_n
        if min(offset, limit) < 0:  # negative slices read from the end
            need = hits.rows.size
        if req.sort is not None and hits.rows.size:
            col, direction = (req.sort if isinstance(req.sort, (tuple, list))
                              else (req.sort, "asc"))
            order = np.argsort(self.index.meta(col)[hits.rows], kind="stable")
            if str(direction).lower().startswith("desc"):
                order = order[::-1]
        else:
            # rows at or above the need-th rank, ties kept; rows ascend
            # with doc id, so they break rank ties as doc ids do
            order = topk_order(hits.rank, hits.rows, need)
        hits.take(order)
        if by_distance:
            # reference two-phase fallback (:1086-1098,:1237-1262):
            # widen candidates by rank, then re-sort by distance
            hits.take(slice(int(np.clip(limit * 20, 200, 1000))))
            hits.take(np.lexsort((hits.rows, hits.distances)))
        hits.take(slice(page_n))
        if req.min_score > 0:
            hits.take(np.abs(hits.rank) >= req.min_score)

    def _page(self, req: SearchRequest, cq: CompiledQuery, hits: _Hits,
              orig_terms: list):
        """(doc ids, scores, distances or None) of the page: the selected
        rows' doc ids — the only ones a search materializes — re-ranked
        by post_rescore, the fuzzy penalty and route dedup when asked,
        sliced, normalized and distance-blended."""
        limit, offset = min(int(req.limit), MAX_RESULTS), req.offset
        doc_ids = self.index.meta(self.index.id_column)[hits.rows]
        score, distances = np.abs(hits.rank), hits.distances
        if req.post_rescore and doc_ids.size:
            # candidate widening then PHP-style rescore + resort
            # (reference :901-913, :1226-1234: clamp(limit·20, 200, 2000))
            widen = int(np.clip(limit * 20, 200, 2000))
            doc_ids, score = doc_ids[:widen], score[:widen]
            terms = [t for ph in cq.phrases for t in ph.terms][:8]
            score = self._field_weighted_rescore(
                doc_ids, score, terms,
                req.field_weights or self.default_weights or {})
            order = np.lexsort((doc_ids, -score))
            doc_ids, score = doc_ids[order], score[order]
        if req.fuzzy and doc_ids.size and orig_terms:
            score = self._apply_fuzzy_penalty(doc_ids, score, orig_terms)
            order = np.lexsort((doc_ids, -score))  # re-sort after penalty
            doc_ids, score = doc_ids[order], score[order]
        if req.unique_by_route and req.route_column:
            doc_ids, score = self._dedup_by_route(doc_ids, score, req.route_column)
            distances = None  # representative rows reordered
        # page slice
        doc_ids = doc_ids[offset : offset + limit]
        score = score[offset : offset + limit]
        if distances is not None:
            distances = distances[offset : offset + limit]
        # normalize 0-100 by max in page (quirk preserved: per-page max)
        if req.normalize and score.size:
            m = score.max()
            if m > 0:
                score = score / m * 100.0
        # distance blend (§2.9 step 5): after normalization, then re-sort
        # the page by the blended score
        if distances is not None and req.distance_weight > 0 and score.size:
            score = distance_blend(score, distances, weight=req.distance_weight)
            o3 = np.lexsort((doc_ids, -score))
            doc_ids, score, distances = doc_ids[o3], score[o3], distances[o3]
        if req.round_scores is not None:
            score = np.round(score, req.round_scores)
        return doc_ids, score, distances

    def _gather(self, req: SearchRequest, cq: CompiledQuery, doc_ids,
                score, distances) -> pa.Table:
        """The result table of the page: ids, scores and distances, plus
        stored columns and highlights when asked."""
        cols = {"doc_id": pa.array(doc_ids, pa.uint64()),
                "score": pa.array(score, pa.float64())}
        if distances is not None:
            cols["distance_km"] = pa.array(np.round(distances, 4), pa.float64())
        out = pa.table(cols)
        if req.with_docs or req.highlight:
            docs = self.index.docs(doc_ids)
            id_col = self.index.id_column
            # join in doc_id order
            dt = docs.take(pc.index_in(pa.array(doc_ids, pa.uint64()),
                                       value_set=docs[id_col]))
            stored = [c for c in dt.column_names if c != id_col]
            for c in (req.result_fields or stored):
                if c in stored:
                    # result types are inferred from the values (string,
                    # int64, double; null when the page is empty), not
                    # the docstore's (large_string, uint64, ...)
                    out = out.append_column(c, pa.array(dt[c].to_pylist()))
            if req.highlight:
                terms = [t for ph in cq.phrases for t in ph.terms]
                body_col = self.index.fields[-1][1]
                snips = [make_snippet(s, terms)
                         for s in dt[body_col].to_pylist()]
                out = out.append_column("highlight", pa.array(snips, pa.string()))
        return out

    def _cache_store(self, key: tuple, table: pa.Table) -> None:
        """Insert into the in-process result LRU, evicting the oldest
        entries past ``_cache_max``."""
        self._result_cache[key] = (time.time() + self._cache_ttl, table)
        while len(self._result_cache) > self._cache_max:
            self._result_cache.popitem(last=False)

    def _compile_search(self, req: SearchRequest):
        """search()'s query compilation: returns (compiled query, query
        text after boost-syntax stripping and token merging, the fuzzy
        rewrite's original terms).  ``explain()`` compiles through this
        same call, so the plan it reports is the one ``search()`` runs;
        options that act after scoring are ignored."""
        orig_terms: list[str] = []
        query, term_boosts = self._parse_boost_syntax(req.query,
                                                      req.term_boosts)
        if req.merge_tokens and not req.fuzzy:
            query = self._merge_adjacent_tokens(query)
        if req.fuzzy:
            cq, orig_terms = self._compile_fuzzy(query, req.fuzzy_mode)
        else:
            cq = compile_query(query, self.analyzer, mode=req.mode,
                               prefix_last=req.prefix_last,
                               near_distance=req.near_distance)
        if req.slop > 0:
            # sloppy phrase (ordered proximity) — applies to the
            # multi-term phrase components; singles are unaffected
            for ph in cq.phrases:
                if len(ph.terms) > 1 and not ph.prefix:
                    ph.slop = int(req.slop)
        if req.in_fields:
            if req.mode == "smart" and cq.near_terms:
                raise ValueError(
                    "in_fields requires mode in {'and','or','phrase'} — "
                    "the smart-mode NEAR arm is not field-restrictable")
            names = [f[0] for f in self.index.fields]
            unknown = [f for f in req.in_fields if f not in names]
            if unknown:
                raise KeyError(f"unknown index fields: {unknown}")
            cq.fields = frozenset(names.index(f) for f in req.in_fields)
        if int(req.min_should_match) > 1:
            if req.mode != "or" or req.fuzzy:
                raise ValueError(
                    "min_should_match requires mode='or' without fuzzy — "
                    "other modes fix their own match-set semantics")
            cq.min_should_match = int(req.min_should_match)
        if term_boosts:
            # query-time term boosts (Lucene `term^2`): multiply the
            # matching single-term arm's BM25 contribution.  or/and only:
            # smart mode's NEAR arm re-scores member terms through a
            # separate window-filtered kernel that must stay FTS5-pinned.
            if req.mode not in ("or", "and") or req.fuzzy:
                raise ValueError(
                    "term_boosts requires mode in {'or','and'} without fuzzy")
            if any(b <= 0 for b in term_boosts.values()):
                raise ValueError("term boosts must be > 0")
            for ph in cq.phrases:
                if len(ph.terms) == 1 and ph.terms[0] in term_boosts:
                    ph.boost = float(term_boosts[ph.terms[0]])
        if req.dismax:
            # dis_max combines OR arms by max; other modes either have a
            # single arm (phrase) or conjunction semantics where ES
            # defines no dis_max analogue — keep the surface honest.
            if req.mode != "or" or req.fuzzy:
                raise ValueError("dismax requires mode='or' without fuzzy")
            if not (0.0 <= float(req.tie_breaker) <= 1.0):
                raise ValueError("tie_breaker must be in [0, 1]")
            cq.dismax, cq.tie_breaker = True, float(req.tie_breaker)
        if req.exclude_terms:
            for x in req.exclude_terms:
                g = self.analyzer.match_terms(x)
                for sub in g:
                    cq.exclude.append(Phrase(sub))
        if self.synonyms and not req.fuzzy:
            extra = self._expand_synonyms(
                [ph.terms for ph in cq.phrases if len(ph.terms) == 1])
            for g in extra:
                ph = Phrase(g)
                cq.phrases.append(ph)
                if cq.any_of:
                    cq.any_of.append(ph)
        return cq, query, orig_terms

    def _merge_adjacent_tokens(self, query: str) -> str:
        """tryMergeTokens (reference :1539-1592): merge adjacent query
        tokens when the concatenation is a known index term
        ("search engine" -> "searchengine" when that identifier exists)."""
        toks = self.analyzer.analyze(query)
        if len(toks) < 2:
            return query
        d = self.fuzzy_matcher.dict
        out, i = [], 0
        while i < len(toks):
            if i + 1 < len(toks) and (toks[i] + toks[i + 1]) in d:
                out.append(toks[i] + toks[i + 1])
                i += 2
            else:
                out.append(toks[i])
                i += 1
        return " ".join(out)

    # ---------------- geo ---------------------------------------------
    def _apply_geo(self, req: SearchRequest, hits: _Hits) -> None:
        """Geo filters over candidate metadata (reference near/within,
        :2128-2201): ``near {lat, lng, radius_km}`` = bbox prefilter +
        haversine radius; ``within {bounds: (min_lat, max_lat, min_lng,
        max_lng)}``.  Lat/lng come from docstore metadata columns
        (default ``lat``/``lng``).  Distances are from ``near``'s point,
        else from ``distance_from``'s."""
        geo = req.geo_filters
        lats = self.index.meta(geo.get("lat_column", "lat"))[hits.rows]
        lngs = self.index.meta(geo.get("lng_column", "lng"))[hits.rows]
        lats, lngs = lats.astype(np.float64), lngs.astype(np.float64)
        mask = np.ones(hits.rows.size, dtype=bool)
        near = geo.get("near")
        if near:
            mask &= near_mask(lats, lngs, near["lat"], near["lng"],
                              near["radius_km"])
        within = geo.get("within")
        if within:
            mask &= in_bounds(lats, lngs, within["bounds"])
        ref = near or geo.get("distance_from")
        if ref:
            hits.distances = haversine_km(lats, lngs, ref["lat"], ref["lng"])
        hits.take(mask)

    # ---------------- fuzzy -------------------------------------------
    def _compile_fuzzy(self, query: str, fuzzy_mode: str):
        """Fuzzy query compilation (reference ``processQuery`` :394-654).

        correction (default): replace each token with its best correction
        and emit an implicit-AND expression (:549-562).
        expansion: (smart shape over exact terms) OR (variations) — the
        budget is ``fuzzy_total_max_variations`` (:563-614).
        """
        fm = self.fuzzy_matcher
        groups = self.analyzer.match_terms(query)
        terms = [t for g in groups for t in g]
        if not terms:
            return CompiledQuery(mode="and"), []
        if fuzzy_mode == "correction":
            # corrected tokens compose as an implicit-AND expression
            # (:549-562 — "Multiple terms - search for all of them
            # (implicit AND in FTS5)"); the reference's own PHPUnit
            # (EnhancedFuzzySearchTest::testMultipleTypoCorrection) pins
            # this: an uncorrectable token DOES veto the query (0 rows),
            # which is also why the benchmark's "Teh Matrix" case fails
            # under trigram (teh→the is below the trigram threshold) —
            # parity, not a bug
            corrected: list[str] = []
            for t in terms:
                c = fm.find_best_correction(t)
                corrected.extend((c or t).split())
            phs = [Phrase([t]) for t in corrected]
            return CompiledQuery(mode="and", phrases=phs, required=phs), terms
        # expansion mode
        cq = compile_query(" ".join(terms), self.analyzer, mode="smart")
        budget = fm.total_max_variations
        for t in terms:
            if budget <= 0:
                break
            vars_ = fm.variations(t)[: min(fm.max_variations, budget)]
            budget -= len(vars_)
            for v in vars_:
                ph = Phrase(v.split())
                cq.phrases.append(ph)
                cq.any_of.append(ph)
        return cq, terms

    def _apply_fuzzy_penalty(self, doc_ids, score, orig_terms):
        """Penalty layer (§2.9 step 4): per-candidate match quality vs the
        ORIGINAL query terms decides the multiplier."""
        def present(posts) -> np.ndarray:  # doc_ids holding the arm
            hit = np.zeros(doc_ids.size, dtype=bool)
            for p in posts.values():
                if p.doc_ids.size:
                    idx = np.clip(np.searchsorted(p.doc_ids, doc_ids), 0,
                                  p.doc_ids.size - 1)
                    hit |= p.doc_ids[idx] == doc_ids
            return hit

        n_present = np.zeros(doc_ids.size, dtype=np.int64)
        for t in orig_terms:
            n_present += present(self._term_postings(t))
        # exact-phrase presence (only meaningful for multi-term queries)
        phrase_present = (present(self._phrase_postings(Phrase(list(orig_terms))))
                          if len(orig_terms) > 1
                          else np.zeros(doc_ids.size, dtype=bool))
        nt = max(1, len(orig_terms))
        penalties = np.fromiter(
            (fuzzy_penalty(bool(phrase_present[i]),
                           n_present[i] == nt,
                           n_present[i] / nt)
             for i in range(doc_ids.size)),
            np.float64, doc_ids.size,
        )
        return score * (1.0 - penalties)

    def suggest(self, query: str, *, limit: int = 5) -> pa.Table:
        """Did-you-mean (reference ``SearchEngine::suggest`` :2215-2373):
        per-token correction, verified to have hits, with confidence."""
        tokens = [t for g in self.analyzer.match_terms(query) for t in g]
        corrected, conf, changed = (self.fuzzy_matcher.suggest_tokens(tokens)
                                    if tokens else ([], 0.0, False))
        suggestion = " ".join(corrected)
        # the reference verifies the composed suggestion with a DEFAULT
        # (smart) SearchQuery count, not an AND (SearchEngine.php:2254)
        n = self.count(suggestion) if changed else 0
        if n == 0:
            return pa.table({"suggestion": pa.array([], pa.string()),
                             "confidence": pa.array([], pa.float64()),
                             "count": pa.array([], pa.int64())})
        return pa.table({"suggestion": pa.array([suggestion], pa.string()),
                         "confidence": pa.array([round(conf, 4)], pa.float64()),
                         "count": pa.array([n], pa.int64())})

    def _dedup_by_route(self, doc_ids, score, route_column):
        """Reference dedup: group by route; composite = SUM of chunk scores;
        representative = best chunk; rows without route pass through
        (``SearchEngine::deduplicateByRoute`` :1112-1169)."""
        routes = self.index.meta_for(route_column, doc_ids)
        best: dict = {}
        passthrough = []
        for i, r in enumerate(routes):
            if r is None or r == "":
                passthrough.append(i)
                continue
            cur = best.get(r)
            if cur is None:
                best[r] = [i, float(score[i])]
            else:
                cur[1] += float(score[i])
                if score[i] > score[cur[0]]:
                    cur[0] = i
        items = [(doc_ids[i], s) for i, s in best.values()] + [
            (doc_ids[i], float(score[i])) for i in passthrough
        ]
        items.sort(key=lambda t: (-t[1], t[0]))
        if not items:
            return np.empty(0, np.uint64), np.empty(0, np.float64)
        ids = np.asarray([d for d, _ in items], np.uint64)
        sc = np.asarray([s for _, s in items], np.float64)
        return ids, sc

    # ---------------- field-weighted post-rescore (§2.9 step 2) --------
    _PRIMARY_FIELDS = {"title", "h1", "name", "label", "path"}

    def _field_weighted_rescore(self, doc_ids, base_score, terms,
                                field_weights: dict[str, float]):
        """The reference's PHP rescoring layer
        (``calculateFieldWeightedScore``, ``SqliteStorage.php:2472-2658``):
        per candidate, the best per-field match tier (exact field 100 /
        exact phrase 50 / all-terms 20 / partial 5·ratio), weighted and
        blended into the BM25 base as
        ``base · (1 + (best/10)^1.5 · tier_mult)``."""
        if doc_ids.size == 0 or not terms:
            return base_score
        cols = [self.index.id_column] + [c for _, c in self.index.fields]
        docs = self.index.docs(doc_ids, columns=cols)
        dt = docs.to_pandas().set_index(self.index.id_column)
        dt = dt.loc[[int(d) for d in doc_ids]]
        phrase = " ".join(terms)
        out = base_score.copy()
        for i in range(doc_ids.size):
            best = 0.0
            tier_mult = 2.0
            for fname, col in self.index.fields:
                text = str(dt[col].iloc[i] or "").lower()
                w = float(field_weights.get(fname, 1.0))
                primary = 2.0 if (fname in self._PRIMARY_FIELDS or w >= 5) else 1.0
                s, tm = 0.0, 2.0
                if text == phrase:
                    s, tm = 100.0, 10.0
                elif phrase in text and len(terms) > 1:
                    ratio = len(phrase) / max(1, len(text))
                    s = 50.0 + (20.0 if ratio > 0.5 else 10.0 * ratio)
                    tm = 10.0
                else:
                    present = [t for t in terms if t in text]
                    if len(present) == len(terms):
                        s, tm = 20.0, 5.0
                        pos = [text.find(t) for t in terms]
                        gap = max(pos) - min(pos)
                        if gap < 50:
                            s += 10.0 * (1.0 - gap / 50.0)
                        stripped = "".join(ch for ch in text if ch.isalnum() or ch == " ")
                        if set(stripped.split()) == set(terms):
                            s += 30.0
                    elif present:
                        s, tm = 5.0 * len(present) / len(terms), 2.0
                s *= w * primary
                if s > best:
                    best, tier_mult = s, tm
            if best > 0:
                out[i] = base_score[i] * (1.0 + (best / 10.0) ** 1.5 * tier_mult)
        return out

    def search_two_pass(self, query: str, *, limit: int = 20,
                        field_weights: dict[str, float] | None = None,
                        primary_boost: float = 1.5, **kwargs) -> pa.Table:
        """Two-pass precision mode (reference :139-203): pass 1 over
        primary fields with doubled weights (limit 100), pass 2 full;
        merge primary-first with a ×boost, dedup by id, sort, slice."""
        fw = dict(field_weights or self.default_weights or {})
        primary_fw = {
            f: fw.get(f, 1.0) * 2.0
            for f, _ in self.index.fields
            if f in self._PRIMARY_FIELDS or fw.get(f, 1.0) >= 5
        }
        p1 = self.search(query, limit=100, field_weights={**fw, **primary_fw},
                         normalize=False, **kwargs)
        p2 = self.search(query, limit=max(100, limit), field_weights=fw or None,
                         normalize=False, **kwargs)
        d1 = p1.to_pandas()
        d1["score"] = d1["score"] * primary_boost
        d2 = p2.to_pandas()
        merged = pd.concat([d1, d2]).drop_duplicates("doc_id", keep="first")
        merged = merged.sort_values(["score", "doc_id"],
                                    ascending=[False, True]).head(limit)
        return pa.Table.from_pandas(merged.reset_index(drop=True),
                                    preserve_index=False)

    def _top_rows(self, query: str, candidates: int, kwargs: dict):
        """(doc ids, doc-meta rows) of the top-``candidates`` raw-score
        results of ``search(query, **kwargs)``."""
        r = self.search(query, limit=candidates, normalize=False, **kwargs)
        ids = r["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return ids, self.index.rows_of(ids)

    def _values_at(self, ids, rows, field: str) -> np.ndarray:
        """``field`` at result ``ids`` (their doc-meta ``rows``).  A column
        the reader does not hold reads the docstore; result ids always
        have a row, so the ``KeyError`` caught is the column's."""
        try:
            return self.index.meta(field)[rows]
        except KeyError:
            return self.index.docs(ids, columns=[self.index.id_column, field])[
                field].to_numpy(zero_copy_only=False)

    def facets(self, query: str, facet_fields, *, candidates: int = 1000,
               min_count: int = 1, top_n: int = 10,
               **search_kwargs) -> dict[str, pa.Table]:
        """Facet value counts over the match set — reference semantics
        preserved (``computeFacets`` :1187-1307): counts come from the
        TOP-``candidates`` (1000) results only, min_count filter, count
        desc, top-N."""
        ids, rows = self._top_rows(query, candidates, search_kwargs)
        out: dict[str, pa.Table] = {}
        for field in facet_fields:
            counts = pd.Series(self._values_at(ids, rows, field)).value_counts()
            counts = counts[counts >= min_count]
            df = counts.reset_index()
            df.columns = ["value", "count"]
            df["value"] = df["value"].astype(str)
            df = df.sort_values(["count", "value"],
                                ascending=[False, True]).head(top_n)
            out[field] = pa.Table.from_pandas(df.reset_index(drop=True),
                                              preserve_index=False)
        return out

    def numeric_facets(self, query: str, field: str, edges, *,
                       candidates: int = 1000,
                       **search_kwargs) -> pa.Table:
        """Histogram facet over a numeric metadata column of the match
    set — the range-facet counterpart of :meth:`facets` (same
        top-``candidates`` clamp as the reference's computeFacets; the
        distance-facet shape from ``facets_distance``, generalized to
        any numeric column).  ``edges`` are ascending bucket boundaries;
        row i counts matches with ``edges[i] <= v < edges[i+1]``
        (v = the column value), plus the standard open-ended last
        bucket ``v >= edges[-1]``.  Empty buckets are kept (count 0) so
        the histogram shape is stable across queries."""
        ids, rows = self._top_rows(query, candidates, search_kwargs)
        edges = np.asarray(list(edges), dtype=np.float64)
        if edges.size < 1 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be ascending and non-empty")
        v = np.asarray(self._values_at(ids, rows, field), dtype=np.float64)
        v = v[~np.isnan(v)]
        # bucket i = [edges[i], edges[i+1]); values below edges[0] drop
        idx = np.searchsorted(edges, v, side="right") - 1
        counts = np.bincount(idx[idx >= 0], minlength=edges.size)
        los = edges
        his = np.append(edges[1:], np.inf)
        return pa.table({
            "lo": pa.array(los, pa.float64()),
            "hi": pa.array(his, pa.float64()),
            "count": pa.array(counts.astype(np.int64), pa.int64()),
        })

    def distance_facets(self, query: str, center: dict, thresholds,
                        *, candidates: int = 1000, **kwargs) -> pa.Table:
        """Distance-bucket facets (reference :1193-1258): count matches per
        radius threshold around a center point."""
        if query.strip() in ("", "*"):
            # geo-only facets (reference CLI facets-distance passes query
            # '', bin/yetisearch:200-218): bucket ALL live docs
            rows = np.flatnonzero(self.index.live)
        else:
            _, rows = self._top_rows(query, candidates, kwargs)
        lats = self.index.meta(center.get("lat_column", "lat"))[rows]
        lngs = self.index.meta(center.get("lng_column", "lng"))[rows]
        d = haversine_km(lats.astype(np.float64), lngs.astype(np.float64),
                         center["lat"], center["lng"])
        labels, counts = [], []
        for th in sorted(thresholds):
            labels.append(f"<{th}km")
            counts.append(int((d <= th).sum()))
        return pa.table({"bucket": pa.array(labels, pa.string()),
                         "count": pa.array(counts, pa.int64())})

    def aggregate(self, query: str, aggregations: dict, *,
                  candidates: int = 1000, **kwargs) -> pa.Table:
        """Numeric aggregations over the match set — honoring the API the
        reference documents but stubs out (``README:1382-1396``,
        ``SearchEngine.php:1309-1314`` returns []).  ``aggregations`` maps
        column -> list of ops in {avg, min, max, sum, count}."""
        ids, rows = self._top_rows(query, candidates, kwargs)
        cols = {"aggregation": [], "value": []}
        for field, ops in aggregations.items():
            vals = self.index.meta(field)[rows].astype(np.float64)
            for op in ops:
                fn = {"avg": np.mean, "min": np.min, "max": np.max,
                      "sum": np.sum, "count": np.size}[op]
                cols["aggregation"].append(f"{op}_{field}")
                cols["value"].append(float(fn(vals)) if ids.size else 0.0)
        return pa.table({"aggregation": pa.array(cols["aggregation"], pa.string()),
                         "value": pa.array(cols["value"], pa.float64())})

    def knn(self, center: dict, k: int = 10) -> pa.Table:
        """Geo k-NN fast path (reference :916-989): ignore text, nearest
        ``k`` docs by haversine distance, optional max_distance clamp."""
        k = min(int(k), MAX_RESULTS)
        ids = self.index.meta(self.index.id_column)
        lats = self.index.meta(center.get("lat_column", "lat")).astype(np.float64)
        lngs = self.index.meta(center.get("lng_column", "lng")).astype(np.float64)
        d = haversine_km(lats, lngs, center["lat"], center["lng"])
        keep = self.index.live
        if center.get("max_distance_km") is not None:
            keep = keep & (d <= center["max_distance_km"])
        ids, d = ids[keep], d[keep]
        order = np.lexsort((ids, d))[:k]
        return pa.table({
            "doc_id": pa.array(ids[order].astype(np.uint64), pa.uint64()),
            "distance_km": pa.array(np.round(d[order], 4), pa.float64()),
        })

    def _source_row(self, caller: str, doc_id: int):
        """(indexed source columns, the doc's stored row of them).  Raises
        ValueError if the docstore does not hold them, KeyError for an
        unknown doc."""
        cfg = self.index.manifest.data.get("config") or {}
        src_cols = [f[1] for f in cfg.get("fields", [])]
        missing = [c for c in src_cols
                   if c not in set(cfg.get("store_columns") or [])]
        if missing:
            raise ValueError(f"{caller} needs stored source columns; not "
                             f"in docstore: {missing}")
        t = self.index.docs([doc_id], columns=src_cols)
        if t.num_rows == 0:
            raise KeyError(f"doc_id {doc_id} not found")
        return src_cols, t

    def _df(self, term: str) -> int:
        """Union-of-fields document frequency of ``term`` (BM25's df)."""
        arrs = [p.doc_ids for p in self._term_postings(term).values()]
        return int(np.unique(np.concatenate(arrs)).size) if arrs else 0

    def more_like_this(self, doc_id: int, *, limit: int = 10,
                       max_terms: int = 10, mode: str = "or",
                       language: str | None = None,
                       normalize: bool = True, **kwargs) -> pa.Table:
        """Find documents similar to ``doc_id`` (Lucene/Elasticsearch
        "more like this" shape — an extension beyond the reference's
        query classes, built entirely from its primitives).

        Selection: the source doc's stored indexed fields are
        re-tokenized with the INDEX tokenizer (exactly what the build
        saw), each distinct term weighted ``tf * ln(N / df)`` with df
        the union-of-fields document frequency (same definition the
        BM25 idf uses); terms the query compiler would drop (stopwords,
        length outside the analyzer's 2..50 window) are excluded since
        they could never score.  The top ``max_terms`` (weight DESC,
        term ASC — deterministic) run as one OR query through the
        normal search path; the source doc is removed from the result.

        Raises KeyError if the doc is unknown and ValueError if the
        index does not store its indexed source columns (MLT needs the
        original text).
        """
        src_cols, t = self._source_row("more_like_this", doc_id)
        tf: Counter = Counter()
        for c in src_cols:
            tf.update(_index_tok(t[c][0].as_py() or ""))

        N = max(self.index.n_docs, 1)
        scored: list[tuple[float, str]] = []
        for term, f in tf.items():
            # keep only terms the query compiler would keep, verbatim
            if self.analyzer.match_terms(term) != [[term]]:
                continue
            df = self._df(term)
            if df <= 0:
                continue
            # rounded so the DuckDB oracle's ln() agrees on ties
            scored.append((-round(f * math.log(N / df), 9), term))
        scored.sort()
        terms = [term for _, term in scored[:max_terms]]
        if not terms:
            return self._empty_result(False)

        res = self.search(" ".join(terms), mode=mode, limit=limit + 1,
                          normalize=normalize, language=language, **kwargs)
        keep = pc.not_equal(res["doc_id"],
                            pa.scalar(int(doc_id), pa.uint64()))
        return res.filter(keep).slice(0, limit)

    def search_lm(self, query: str, *, limit: int = 20, mu: float = 2000.0,
                  round_to: int = 5) -> pa.Table:
        """Query-likelihood ranking with Dirichlet smoothing (the
        Elasticsearch ``LMDirichlet`` similarity; a second ranking
        function beside the reference's FTS5 BM25,
        ``src/Storage/SqliteStorage.php:993-1015``):

            score(d) = sum_t ln( (tf_td + mu * cf_t / C) / (dl_d + mu) )

        over the query's OR match set, where ``tf_td`` is the doc's
        UNWEIGHTED any-field term count, ``cf_t`` the collection term
        count, ``C`` the total token count of the corpus, and ``dl_d``
        the unweighted doc length — absent terms contribute the pure
        smoothing mass, so the sum runs over every query term.  Terms
        with ``cf_t = 0`` are dropped (zero probability mass).  Rows
        ``(doc_id, score)`` with score = round(-total, round_to)
        ascending best-first (log-likelihoods are negative; smaller
        magnitude = better), ties doc_id ASC."""
        cq = compile_query(query, self.analyzer, mode="or")
        terms = [p.terms[0] for p in cq.phrases]
        if not terms:
            return pa.table({"doc_id": pa.array([], pa.uint64()),
                             "score": pa.array([], pa.float64())})
        C = float(self.index.manifest.stats.get("total_dl") or
                  (self.index.n_docs * self.index.avgdl))
        per_term = []
        match: np.ndarray | None = None
        for t in terms:
            posts = self._term_postings(t)
            if not posts:
                continue
            ids = np.unique(np.concatenate(
                [p.doc_ids for p in posts.values()]))
            tfs = np.zeros(ids.size, dtype=np.float64)
            for p in posts.values():
                at = np.searchsorted(ids, p.doc_ids)
                tfs[at] += p.tfs.astype(np.float64)
            cf = float(tfs.sum())
            per_term.append((ids, tfs, cf))
            match = ids if match is None else np.union1d(match, ids)
        if match is None or match.size == 0:
            return pa.table({"doc_id": pa.array([], pa.uint64()),
                             "score": pa.array([], pa.float64())})
        dl = self.index.dl_total_for(match).astype(np.float64)
        denom = np.log(dl + mu)
        total = np.zeros(match.size, dtype=np.float64)
        for ids, tfs, cf in per_term:
            tf_d = np.zeros(match.size, dtype=np.float64)
            at = np.searchsorted(match, ids)
            tf_d[at] = tfs
            total += np.log(tf_d + mu * cf / C) - denom
        # (log-likelihood DESC, doc_id ASC)
        top = topk_order(-total, match, limit)[:limit]
        return pa.table({
            "doc_id": pa.array(match[top], pa.uint64()),
            "score": pa.array(np.round(-total[top], round_to), pa.float64()),
        })

    def explain_score(self, doc_id: int, query: str, *,
                      field_weights: dict | None = None,
                      round_to: int = 5) -> pa.Table:
        """Per-term BM25 score breakdown for one (doc, query) pair —
        the Elasticsearch ``_explain`` shape (an introspection
        extension; the reference exposes only the final ``abs(rank)``,
        ``src/Storage/SqliteStorage.php:993-1015``).

        The query is compiled in OR mode and each single-term arm
        reports ``(term, tf, df, idf, contrib)``: ``tf`` the
        column-weight-summed term frequency in the doc, ``df`` the
        any-column docfreq, ``idf`` the floor-clamped FTS5 idf, and
        ``contrib`` the arm's BM25 addend — summing ``contrib`` over
        rows reproduces the doc's OR-mode score exactly.  Terms absent
        from the doc are omitted (they contribute 0).  Rows sorted by
        term.  Raises ValueError on phrase/NEAR queries (window-kernel
        arms have no per-term decomposition) and KeyError for an
        unknown doc."""
        cq = compile_query(query, self.analyzer, mode="or")
        if cq.near_terms or any(len(p.terms) != 1 for p in cq.phrases):
            raise ValueError(
                "explain_score decomposes single-term OR arms only")
        if self.index.docs([doc_id]).num_rows == 0:
            raise KeyError(f"doc_id {doc_id} not found")
        weights = self._field_weight_vector(field_weights)
        ids = np.asarray([doc_id], dtype=np.uint64)
        dl = float(self.index.dl_total_for(ids)[0])
        N, avgdl = self.index.n_docs, self.index.avgdl
        rows = []
        for ph in cq.phrases:
            term = ph.terms[0]
            posts = self._term_postings(term)
            if not posts:
                continue
            df = self._df(term)
            tfw = 0.0
            for fid, p in posts.items():
                at = np.searchsorted(p.doc_ids, ids[0])
                if at < p.doc_ids.size and p.doc_ids[at] == ids[0]:
                    tfw += float(weights[fid]) * float(p.tfs[at])
            if tfw <= 0:
                continue
            tidf = _idf(N, df)
            contrib = float(bm25_term_score([tfw], [dl], avgdl, tidf)[0])
            rows.append((term, tfw, df, round(tidf, 6),
                         round(contrib, round_to)))
        rows.sort()
        return pa.table({
            "term": pa.array([r[0] for r in rows], pa.string()),
            "tf": pa.array([r[1] for r in rows], pa.float64()),
            "df": pa.array([r[2] for r in rows], pa.int64()),
            "idf": pa.array([r[3] for r in rows], pa.float64()),
            "contrib": pa.array([r[4] for r in rows], pa.float64()),
        })

    def term_vectors(self, doc_id: int) -> pa.Table:
        """Per-document term statistics (the Elasticsearch
        ``_termvectors`` shape — an introspection extension over the
        reference's ``fts5vocab``-style dictionary surface,
        ``src/Storage/SqliteStorage.php`` getIndexedTerms).

        Each stored indexed field is re-tokenized with the INDEX
        tokenizer (exactly what the build saw) and reported as
        ``(field, term, tf, df)`` where ``tf`` is the in-field term
        count and ``df`` the union-of-fields corpus document frequency
        (the same definition BM25's idf uses; one postings read per
        distinct term, LRU-cached).  Rows sorted (field ASC, term ASC).

        Raises KeyError for an unknown doc and ValueError if the index
        does not store its indexed source columns."""
        src_cols, t = self._source_row("term_vectors", doc_id)
        per_field = {c: Counter(_index_tok(t[c][0].as_py() or ""))
                     for c in src_cols}
        dfs: dict[str, int] = {}
        for term in set().union(*(c.keys() for c in per_field.values())):
            dfs[term] = self._df(term)
        rows = sorted((fname, term, tf, dfs[term])
                      for fname, ctr in per_field.items()
                      for term, tf in ctr.items())
        return pa.table({
            "field": pa.array([r[0] for r in rows], pa.string()),
            "term": pa.array([r[1] for r in rows], pa.string()),
            "tf": pa.array([r[2] for r in rows], pa.int64()),
            "df": pa.array([r[3] for r in rows], pa.int64()),
        })

    def search_wildcard(self, pattern: str, *, limit: int = 20,
                        max_terms: int = 16, **kwargs) -> pa.Table:
        """Wildcard term query (``pa?se``, ``par*``, ``*fix`` — the
        Elasticsearch wildcard-query shape; the reference exposes only
        trailing-prefix ``term*``).  The pattern is expanded against the
        index dictionary (df DESC, term ASC, capped at ``max_terms`` so
        a hot pattern can't explode into thousands of OR arms), terms
        the query compiler would drop (stopwords / length window) are
        removed since they could never score, and the survivors run as
        one OR query through the normal search path.
        """
        # expand unbounded (the dictionary scan reads all matching rows
        # regardless), drop compiler-dropped terms, THEN cap — so the cap
        # always buys max_terms scorable arms and the selection is
        # exactly "top max_terms surviving terms by (df DESC, term ASC)"
        # (the SQL oracle replicates this order verbatim)
        terms = [t for t in self.index.expand_wildcard(pattern,
                                                       max_terms=1 << 31)
                 if self.analyzer.match_terms(t) == [[t]]][:max_terms]
        if not terms:
            return self._empty_result(kwargs.get("with_docs", False))
        return self.search(" ".join(terms), mode="or", limit=limit, **kwargs)

    def _raw_results(self, caller: str, query: str, kwargs: dict) -> pa.Table:
        """The MAX_RESULTS-clamped raw-score page of ``query`` (the
        cursor and group readers compare raw scores across rows)."""
        if kwargs.pop("normalize", False):
            raise ValueError(f"{caller} needs raw scores; "
                             "normalize=True is incompatible")
        kwargs.pop("offset", None)
        return self.search(query, limit=MAX_RESULTS, normalize=False, **kwargs)

    def search_after(self, query: str, *, after_score: float,
                     after_doc_id: int, limit: int = 10,
                     **kwargs) -> pa.Table:
        """Keyset (cursor) pagination — the Elasticsearch ``search_after``
        shape, an extension beyond the reference's offset pagination.

        ``(after_score, after_doc_id)`` is the composite sort key of the
        last row of the previous page (result order is score DESC,
        doc_id ASC, and doc_id makes the key unique), so the next page
        is exactly the rows strictly after it.  Unlike OFFSET, a keyset
        cursor is stable under concurrent appends of lower-scoring docs
        and costs the same for page 1000 as for page 2 — the scalable
        deep-pagination contract.  Scores must be raw (``normalize``
        rescales per page, destroying cursor comparability), so
        normalize=True is rejected.  The reachable depth is the same
        MAX_RESULTS clamp the reference applies to offset pagination.
        """
        res = self._raw_results("search_after", query, kwargs)
        s = res["score"].to_numpy(zero_copy_only=False)
        d = res["doc_id"].to_numpy(zero_copy_only=False)
        keep = (s < after_score) | ((s == after_score) & (d > after_doc_id))
        return res.filter(pa.array(keep)).slice(0, limit)

    def search_grouped(self, query: str, *, route_column: str,
                       group_limit: int = 3, limit: int = 5,
                       **kwargs) -> pa.Table:
        """Grouped results (ES ``collapse`` + ``inner_hits`` / top_hits
        shape, an extension beyond the reference's best-per-route
        collapsing): the top ``group_limit`` docs per ``route_column``
        value, for the top ``limit`` groups ranked by their best
        member's score (ties broken by route value).  Candidates come
        from the same MAX_RESULTS-clamped raw-score page as field
        collapsing, which the SQL oracle replicates.  Output columns:
        ``route, doc_id, score, pos`` (1-based position within group),
        ordered by group rank then position.
        """
        res = self._raw_results("search_grouped", query, kwargs)
        if res.num_rows == 0:
            return pa.table({"route": pa.array([], pa.string()),
                             "doc_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64()),
                             "pos": pa.array([], pa.int64())})
        d = res["doc_id"].to_numpy(zero_copy_only=False)
        s = res["score"].to_numpy(zero_copy_only=False)
        routes = self.index.meta_for(route_column, d.astype(np.uint64))
        # page rows arrive in (score DESC, doc_id ASC) order, so a
        # stable cumcount IS the within-group position and each group's
        # first row carries its best score — no further sorting needed
        df = pd.DataFrame({"route": routes, "doc_id": d.astype(np.int64),
                           "score": s})
        df["pos"] = df.groupby("route", sort=False).cumcount() + 1
        best = (df[df["pos"] == 1][["route", "score"]]
                .sort_values(["score", "route"], ascending=[False, True]))
        keep_routes = best["route"].head(int(limit)).tolist()
        grank = {r: i for i, r in enumerate(keep_routes)}
        out = df[(df["pos"] <= int(group_limit))
                 & df["route"].isin(grank)].copy()
        out["_g"] = out["route"].map(grank)
        out = out.sort_values(["_g", "pos"]).drop(columns="_g")
        return pa.Table.from_pandas(out.reset_index(drop=True),
                                    preserve_index=False)

    @staticmethod
    def search_multiple(engines: dict, query: str, *, limit: int = 20,
                        offset: int = 0, **kwargs) -> pa.Table:
        """Multi-index union (reference ``searchMultiple`` :1574-1628):
        per-index searches, tag ``_index``, merge by score desc, slice."""
        frames = []
        for name, eng in engines.items():
            r = eng.search(query, limit=limit + offset, **kwargs)
            t = r.append_column("_index",
                                pa.array([name] * r.num_rows, pa.string()))
            frames.append(t)
        merged = pa.concat_tables(frames, promote_options="default")
        df = merged.to_pandas().sort_values(
            ["score", "doc_id"], ascending=[False, True]
        ).iloc[offset : offset + limit]
        return pa.Table.from_pandas(df.reset_index(drop=True),
                                    preserve_index=False)

    def count(self, query: str, **options) -> int:
        """Size of the match set ``match_ids`` returns."""
        return int(self._match_rows(query, **options).size)

    def match_ids(self, query: str, **options) -> np.ndarray:
        """Ascending doc ids of ``search(query, **options)``'s candidate
        stage and geo filter: compiled as search() compiles (synonyms
        included), deleted docs, ``restrict_ids``, filters and
        ``geo_filters`` honored — the match SET without scoring or
        pagination.  Feeds count(), suggest() and set-algebra
        aggregations (adjacency matrix)."""
        return self.index.meta(self.index.id_column)[
            self._match_rows(query, **options)]

    def _match_rows(self, query: str, **options) -> np.ndarray:
        req = SearchRequest(query, **options)
        cq, _, _ = self._compile_search(req)
        hits = _Hits(*self._candidates(cq, self._weights(req), req))
        if req.geo_filters and hits.rows.size:
            self._apply_geo(req, hits)
        return hits.rows

    def explain(self, query: str, **options) -> dict:
        """Query plan introspection — the analog of the reference CLI's
        ``debug:query`` (``bin/yetisearch:137-155``), which prints the
        generated SQL + bind params + EXPLAIN QUERY PLAN.  There is no
        SQL here; the equivalent artifacts are the compiled query (arms,
        mode, NEAR params), the fuzzy rewrite if any, per-arm document
        frequencies, the posting PARTITIONS each term reads (the I/O
        plan) and, as ``stages``, the score modifiers ``search()`` runs
        on the candidates, in order (``_stages``: the list search()
        iterates).  ``options`` are ``search()``'s."""
        req = SearchRequest(query, **options)
        cq, query, orig_terms = self._compile_search(req)
        arms = []
        dfs = self.arm_dfs(cq)
        for ph in cq.phrases:
            terms = list(ph.terms)
            arm = {
                "terms": terms,
                "prefix": bool(ph.prefix),
                "kind": ("phrase" if len(terms) > 1 else "term"),
                "required": any(p is ph for p in cq.required),
                "df": dfs.get(self._arm_key(ph), 0),
                "partitions": sorted({p for t in terms
                                      for p in self.index._term_parts(t)}),
            }
            if ph.boost != 1.0:
                arm["boost"] = ph.boost
            arms.append(arm)
        plan = {
            "query": query,
            "mode": cq.mode,
            "arms": arms,
            "exclude": [list(p.terms) for p in cq.exclude],
            "stages": [name for name, _ in self._stages(req)],
            "stats": {"n_docs": self.index.n_docs,
                      "avgdl": self.index.avgdl,
                      "tombstones": int(self.index.tombstones.size)},
        }
        if cq.near_terms:
            plan["near"] = {"terms": list(cq.near_terms),
                            "distance": cq.near_distance}
        if req.fuzzy:
            plan["fuzzy"] = {"original_terms": orig_terms,
                             "corrected_terms":
                                 [t for ph in cq.phrases for t in ph.terms]}
        # round-3 query-feature surface, reflected so debug-query dumps
        # the full effective plan
        if cq.fields is not None:
            plan["in_fields"] = {"fields": list(req.in_fields),
                                 "field_ids": sorted(cq.fields)}
        if cq.min_should_match > 1:
            plan["min_should_match"] = cq.min_should_match
        if cq.dismax:
            plan["dismax"] = {"tie_breaker": cq.tie_breaker}
        if req.rank_column:
            plan["rank_boost"] = {"column": req.rank_column,
                                  "weight": float(req.rank_weight),
                                  "mode": req.rank_mode}
        return plan

    # ---------------- result-cache introspection ----------------------
    # (reference getCacheStats/clearCache/warmUpCache,
    #  src/YetiSearch.php:423-471)
    def cache_stats(self) -> dict:
        return {"entries": len(self._result_cache),
                "hits": self._cache_hits, "misses": self._cache_misses,
                "ttl": self._cache_ttl, "max_entries": self._cache_max}

    def clear_cache(self) -> None:
        self._result_cache.clear()
        self._cache_hits = 0
        self._cache_misses = 0

    def _empty_result(self, with_docs: bool) -> pa.Table:
        return pa.table({"doc_id": pa.array([], pa.uint64()),
                         "score": pa.array([], pa.float64())})


# ==========================================================================
# snippets / highlighting (reference :973-1110)
# ==========================================================================


def make_snippet(text: str, terms: list[str], context: int = 50,
                 max_len: int = 160) -> str:
    if not text:
        return ""
    # terms arrive FOLDED (unicode61: lowercase + diacritics stripped);
    # match against the folded text so accented originals highlight
    # (reference Utf8HighlightTest: "brûlée" must <mark>).  fold_text is
    # length-preserving for precomposed letters, so matched offsets map
    # 1:1 back onto the original text; on the rare ligature expansion
    # fall back to plain lowercase matching.
    folded = fold_text(text)
    low = folded if len(folded) == len(text) else text.lower()
    best_pos = None
    for t in sorted(terms, key=len, reverse=True):
        for cand in (t, t + "s"):
            p = low.find(cand)
            if p >= 0 and (best_pos is None or p < best_pos):
                best_pos = p
    if best_pos is None:
        snippet = text[:max_len]
    else:
        start = max(0, best_pos - context)
        # word-boundary trim
        if start > 0:
            sp = text.find(" ", start)
            if 0 <= sp < best_pos:
                start = sp + 1
        snippet = text[start : start + max_len]
        if start > 0:
            snippet = "..." + snippet
        if start + max_len < len(text):
            snippet = snippet + "..."
    # mark original-text spans found via the folded view
    folded_snip = fold_text(snippet)
    if len(folded_snip) != len(snippet):
        folded_snip = snippet.lower()
    spans: list[tuple[int, int]] = []
    for t in sorted(set(terms), key=len, reverse=True):
        for m in re.finditer(rf"\b({re.escape(t)}s?)\b", folded_snip,
                             flags=re.I):
            s, e = m.span(1)
            if not any(s < e2 and e > s2 for s2, e2 in spans):
                spans.append((s, e))
    out = []
    last = 0
    for s, e in sorted(spans):
        out.append(snippet[last:s])
        out.append("<mark>" + snippet[s:e] + "</mark>")
        last = e
    out.append(snippet[last:])
    return "".join(out)


# ==========================================================================
# actor-pool serving
# ==========================================================================


class SearchActor:
    """Callable class for ``map_batches`` query serving.

    ``queries_ds.map_batches(SearchActor, fn_constructor_kwargs={...},
    concurrency=N, batch_size=B)`` — the index is opened ONCE per actor
    (manifest, stats, metadata arrays, posting cache), each batch of query
    strings is served from that state.
    """

    def __init__(self, index_dir: str, search_defaults: dict | None = None,
                 **engine_kwargs):
        self.engine = SearchEngine(open_index(index_dir), **engine_kwargs)
        # per-search defaults applied to every query this actor serves
        self.search_defaults = dict(search_defaults or {})

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, queries = batch["qid"].to_pylist(), batch["query"].to_pylist()
        limits = (
            batch["limit"].to_pylist() if "limit" in batch.column_names
            else [10] * len(queries)
        )
        # optional per-row search options (JSON dict, e.g. {"mode": "or"})
        # merged OVER the actor-wide defaults — a mixed workload (boosted,
        # dis_max, field-restricted queries...) rides one actor pool
        opts = (
            batch["options"].to_pylist() if "options" in batch.column_names
            else [None] * len(queries)
        )
        out_qid, out_doc, out_score, out_rank = [], [], [], []
        for qid, q, lim, opt in zip(qids, queries, limits, opts):
            kw = dict(self.search_defaults)
            if opt:
                kw.update(json.loads(opt))
            r = self.engine.search(q, limit=int(lim), **kw)
            ids = r["doc_id"].to_pylist()
            scores = r["score"].to_pylist()
            out_qid.extend([qid] * len(ids))
            out_doc.extend(ids)
            out_score.extend(scores)
            out_rank.extend(range(1, len(ids) + 1))
        # qid typed explicitly: an all-empty batch would otherwise emit a
        # null-typed column → mixed block schemas in batch_search sinks
        return pa.table({
            "qid": pa.array(out_qid, pa.int64()),
            "doc_id": pa.array(out_doc, pa.uint64()),
            "score": pa.array(out_score, pa.float64()),
            "result_rank": pa.array(out_rank, pa.int32()),
        })
