"""Correctness gate: engine top-k against real SQLite FTS5.

The table mirrors ``tests/test_fts5_goldens.py``: ``fts5(id UNINDEXED,
lang UNINDEXED, path, content, tokenize='unicode61')`` with rowid =
doc_id, so bm25 weights bind as ``bm25(fts, 1, 1, w_path, w_content)``
and a language filter is a plain predicate on ``lang``.  Engine scores
come from ``search(normalize=False)`` and must equal ``-bm25``.

Two results agree when their scores agree rank by rank and every doc id
the engine returns carries the same score in FTS5.  Ties may order
differently only where the two float sums differ in the last bits.
"""

from __future__ import annotations

import sqlite3

import pyarrow as pa

REL_TOL = 1e-9


class Fts5:
    def __init__(self):
        self.db = sqlite3.connect(":memory:", check_same_thread=False)
        self.db.execute(
            "CREATE VIRTUAL TABLE fts USING fts5(id UNINDEXED, lang UNINDEXED,"
            " path, content, tokenize='unicode61')")

    def add(self, t: pa.Table, first_id: int) -> None:
        ids = range(first_id, first_id + t.num_rows)
        self.db.executemany(
            "INSERT INTO fts(rowid, id, lang, path, content) VALUES (?,?,?,?,?)",
            zip(ids, ids, t["lang"].to_pylist(), t["path"].to_pylist(),
                t["content"].to_pylist()))

    def delete(self, ids) -> None:
        self.db.executemany("DELETE FROM fts WHERE rowid = ?",
                            [(int(i),) for i in ids])

    def topk(self, match: str, k: int, weights=None, lang=None,
             exclude=()) -> list[tuple[int, float]]:
        """(doc_id, score) best-first; ``exclude`` ids are dropped after
        ranking, as the engine drops tombstoned docs."""
        w = weights or (1.0, 1.0)
        sql = (f"SELECT id, bm25(fts, 1.0, 1.0, {w[0]!r}, {w[1]!r}) AS r "
               "FROM fts WHERE fts MATCH ?")
        args: list = [match]
        if lang:
            sql += " AND lang = ?"
            args.append(lang)
        sql += " ORDER BY r ASC, id ASC LIMIT ?"
        args.append(k + len(exclude))
        dead = set(exclude)
        rows = [(int(i), -r) for i, r in self.db.execute(sql, args)
                if int(i) not in dead]
        return rows[:k]

    def score_of(self, match: str, doc_id: int, weights=None) -> float | None:
        w = weights or (1.0, 1.0)
        row = self.db.execute(
            f"SELECT bm25(fts, 1.0, 1.0, {w[0]!r}, {w[1]!r}) FROM fts "
            "WHERE fts MATCH ? AND rowid = ?", (match, doc_id)).fetchone()
        return None if row is None else -row[0]


def fts5_match(query: str, kw: dict) -> str | None:
    """The FTS5 MATCH expression equal to ``search(query, **kw)``, or None
    when the options have no FTS5 equivalent."""
    if set(kw) - {"mode", "field_weights", "language"} or "^" in query:
        return None
    mode = kw.get("mode", "smart")
    if query.startswith('"') and query.endswith('"'):
        return query
    terms = query.split()
    if len(terms) == 1:
        return terms[0]
    # the engine, like the reference, drops repeated single-term arms;
    # the phrase and NEAR arms keep every token
    singles = list(dict.fromkeys(terms))
    if mode == "and":
        return " AND ".join(singles)
    if mode == "or":
        return " OR ".join(singles)
    if mode == "smart":
        t = " ".join(terms)
        return f'"{t}" OR NEAR({t}, 10) OR ' + " OR ".join(singles)
    return None


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def compare(got: list[tuple[int, float]], want: list[tuple[int, float]],
            fts: Fts5, match: str, weights=None) -> str | None:
    """None when ``got`` (engine) equals ``want`` (FTS5), else a reason."""
    if len(got) != len(want):
        return f"{len(got)} results, FTS5 has {len(want)}"
    for rank, ((gi, gs), (wi, ws)) in enumerate(zip(got, want)):
        if not close(gs, ws):
            return f"rank {rank}: score {gs!r} (doc {gi}), FTS5 {ws!r} (doc {wi})"
        if gi != wi:
            other = fts.score_of(match, gi, weights)
            if other is None or not close(other, gs):
                return f"rank {rank}: doc {gi}, FTS5 doc {wi}"
    return None
