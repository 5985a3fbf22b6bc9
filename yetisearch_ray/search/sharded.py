"""Sharded query serving: term-partition shard actors + scatter/gather.

The index layout is already term-hash-partitioned (``part=NNNNN``
segment files + manifest hot/split placement), so the serving shard unit
is a SUBSET OF TERM PARTITIONS.  ``ShardedIndexReader`` owns a pool of
``TermShardActor``s (partition p -> shard p % N), scatters each term
read to the shard(s) owning its partition(s) and gathers the raw
encoded runs — byte-identical input to what the single-process reader
gets from disk, so scoring is EXACTLY the single-reader result (asserted
in tests/test_sharded.py).

On a real cluster each shard actor would be co-located with its
partition files (or read them from shared storage); the coordinator
keeps only the doc-metadata arrays (doc-length, filter columns), which
shard along the ORTHOGONAL doc axis — that second axis is the
``SearchActor`` replica pool, composable with this one.

The reference has no distributed serving (single-process SQLite,
src/Storage/SqliteStorage.php); this is the Ray-native scale path
SURVEY.md §2.3 calls for.
"""

from __future__ import annotations

import ray

from ..index.segment import Record, SegmentSet
from .engine import IndexReader, SearchEngine


@ray.remote(max_restarts=2)
class TermShardActor:
    """Serves the posting segments of a subset of term partitions.

    It is handed the coordinator's ``part -> generations`` snapshot for
    its partitions and their segment ids, so it reads exactly the
    segments the coordinator's manifest commits; each ``term_records``
    call is a dictionary lookup and one block read per run
    (``segment.SegmentSet``)."""

    def __init__(self, index_dir: str, part_gens: dict[int, list[int]],
                 seg_ids: dict[tuple[int, int], str]):
        self._segments = SegmentSet(index_dir, part_gens, seg_ids)

    def owned(self) -> list[int]:
        return sorted(self._segments.part_gens)

    def term_records(self, term: str, parts: list[int]) -> list[Record]:
        return self._segments.records(term, parts)


class ShardedIndexReader(IndexReader):
    """IndexReader whose posting reads scatter/gather over shard actors.

    Everything downstream of ``_term_records`` (decode, merge, BM25,
    filters, facets) is inherited unchanged, which is what makes the
    sharded results identical to the local reader's."""

    def __init__(self, index_dir: str, n_shards: int = 4,
                 cache_terms: int = 4096):
        super().__init__(index_dir, cache_terms)
        self.n_shards = max(1, min(int(n_shards), self.num_partitions))
        assign: dict[int, dict[int, list[int]]] = {
            s: {} for s in range(self.n_shards)}
        for p in range(self.num_partitions):
            assign[p % self.n_shards][p] = self._segments.part_gens.get(p, [])
        self._shards = [
            TermShardActor.remote(index_dir, assign[s],
                                  self._segments.seg_ids)
            for s in range(self.n_shards)
        ]

    def _term_records(self, term: str) -> list[Record]:
        by_shard: dict[int, list[int]] = {}
        for p in self._term_parts(term):
            by_shard.setdefault(p % self.n_shards, []).append(p)
        futs = [self._shards[s].term_records.remote(term, ps)
                for s, ps in sorted(by_shard.items())]
        return [rec for recs in ray.get(futs) for rec in recs]

    def shutdown(self):
        for a in self._shards:
            ray.kill(a)
        self._shards = []


def open_sharded(index_dir: str, n_shards: int = 4,
                 **engine_kwargs) -> SearchEngine:
    """SearchEngine over a sharded reader pool."""
    return SearchEngine(ShardedIndexReader(index_dir, n_shards=n_shards),
                        **engine_kwargs)
