"""Index manifest: commit point, per-partition lineage + metrics, resume.

Replaces the reference's ``{index}_meta`` key/value table
(``src/Storage/SqliteStorage.php:195-199``) with a JSON manifest that is
written LAST in the build (the commit point).  Each posting partition
records its own status/rows/terms/bytes so an interrupted build can be
resumed: committed partitions are skipped, everything else is re-derived
from lineage (input fingerprint + config hash).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

MANIFEST_NAME = "manifest.json"
# 2: block-addressed posting segments (``segment.py``).
# 3: a manifest-listed docstore of Arrow IPC chunks (``docstore.py``).
# 4: a segment id per committed (partition, generation) in its entry
#    and its files (``segment.py``).
# 5: fixed-width posting runs in place of varbyte (``postings.py``).
# 6: doc lengths as a docstore column, a chunk id and ``sum_dl`` per
#    chunk entry (``docstore.py``).
# No reader of older formats is kept: ``manage.rebuild_index`` rebuilds
# an index from its docstore in the current format.
FORMAT_VERSION = 6


@dataclass
class Manifest:
    path: str
    data: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, index_dir: str) -> "Manifest":
        p = os.path.join(index_dir, MANIFEST_NAME)
        with open(p) as f:
            return cls(path=p, data=json.load(f))

    @classmethod
    def exists(cls, index_dir: str) -> bool:
        return os.path.exists(os.path.join(index_dir, MANIFEST_NAME))

    @classmethod
    def is_ready(cls, index_dir: str) -> bool:
        """A committed index in the current format (build-once caches
        rebuild anything else)."""
        if not cls.exists(index_dir):
            return False
        d = cls.load(index_dir).data
        return (d.get("status") == "committed"
                and d.get("format_version") == FORMAT_VERSION)

    def require_current_format(self) -> None:
        """Raise unless this index's segments are in the current format."""
        v = self.data.get("format_version")
        if v != FORMAT_VERSION:
            d = os.path.dirname(self.path)
            raise ValueError(
                f"index {d} has format {v}, this version reads "
                f"format {FORMAT_VERSION}: rebuild it from its docstore "
                f"with yetisearch_ray.index.manage.rebuild_index({d!r})")

    def save(self) -> None:
        """Durable atomic write: the tmp file is fsynced before it
        replaces the manifest and the directory after, so readers never
        see a torn manifest and a crash never loses a commit that
        returned.  A failed write leaves no tmp file behind."""
        d = os.path.dirname(self.path)
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".manifest-")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(self.data, f, indent=1, sort_keys=True)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise
        dfd = os.open(d, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)

    # ------------------------------------------------------------------
    @classmethod
    def new(cls, index_dir: str, config: dict, input_fingerprint: str) -> "Manifest":
        return cls(
            path=os.path.join(index_dir, MANIFEST_NAME),
            data={
                "format_version": FORMAT_VERSION,
                "created_at": time.time(),
                "config": config,
                "input_fingerprint": input_fingerprint,
                "partitions": {},
                "docstore": {"chunks": []},
                "stats": {},
                "status": "building",
            },
        )

    @property
    def config(self) -> dict:
        return self.data["config"]

    @property
    def stats(self) -> dict:
        return self.data["stats"]

    @property
    def num_partitions(self) -> int:
        return int(self.data["config"]["num_partitions"])

    def partition_entries(self):
        """(partition, generation, entry) of every partition entry (keys
        are ``"gen:part"``)."""
        for k, v in self.data.get("partitions", {}).items():
            gen, part = k.split(":")
            yield int(part), int(gen), v

    def committed_partitions(self) -> set[int]:
        """Committed partition ids (across generations)."""
        return {part for part, _, v in self.partition_entries()
                if v.get("status") == "committed"}

    def _committed(self, field: str, max_generation: int | None):
        """(partition, generation, entry) of the committed partitions
        whose ``field`` is set and non-zero, optionally up to
        ``max_generation``."""
        for part, gen, v in self.partition_entries():
            if (v.get("status") == "committed" and v.get(field)
                    and (max_generation is None or gen <= max_generation)):
                yield part, gen, v

    def segment_generations(self, max_generation: int | None = None
                            ) -> dict[int, set[int]]:
        """partition -> generations whose posting segment the manifest
        commits (committed with terms), optionally up to
        ``max_generation``: the segment snapshot of a reader."""
        out: dict[int, set[int]] = {}
        for part, gen, _ in self._committed("terms", max_generation):
            out.setdefault(part, set()).add(gen)
        return out

    def segment_ids(self, max_generation: int | None = None
                    ) -> dict[tuple[int, int], str]:
        """(partition, generation) -> segment id of every committed entry,
        optionally up to ``max_generation`` (``segment.py``)."""
        return {(part, gen): v["seg_id"] for part, gen, v
                in self._committed("seg_id", max_generation)}

    def docstore_chunks(self, max_generation: int | None = None
                        ) -> list[dict]:
        """The committed docstore chunks (``docstore.py`` entries: name,
        rows, id range, bytes, ``sum_dl``, chunk id, generation),
        optionally up to ``max_generation``."""
        return [c for c in self.data.get("docstore", {}).get("chunks", [])
                if max_generation is None or c["gen"] <= max_generation]

    def corpus_stats(self, max_generation: int | None = None) -> dict:
        """``n_docs``, ``total_dl`` and ``avgdl`` summed over the committed
        chunk entries, optionally up to ``max_generation``: the BM25
        corpus of that snapshot."""
        chunks = self.docstore_chunks(max_generation)
        n_docs = sum(c["rows"] for c in chunks)
        total_dl = sum(c["sum_dl"] for c in chunks)
        return {"n_docs": n_docs, "total_dl": total_dl,
                "avgdl": (total_dl / n_docs) if n_docs else 0.0}

    def generations(self) -> set[int]:
        return {gen for _, gen, _ in self.partition_entries()}

    def record_partition(self, part: int, gen: int, metrics: dict) -> None:
        self.data["partitions"][f"{gen}:{part}"] = {"status": "committed",
                                                   **metrics}

    def finalize(self, chunks: list[dict]) -> None:
        """Commit ``chunks`` as the docstore and the stats they sum to."""
        self.data["docstore"] = {"chunks": chunks}
        self.data["stats"] = self.corpus_stats()
        self.data["status"] = "committed"
        self.data["committed_at"] = time.time()
