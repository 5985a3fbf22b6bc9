"""``like`` / ``not like`` filters follow SQLite ``LIKE``, the reference's
operator: ``%`` is any run of characters (newlines too), ``_`` one
character, case folded for ASCII letters only."""
import sqlite3
from types import SimpleNamespace

import numpy as np

from yetisearch_ray.search.engine import SearchEngine

VALUES = ["abc", "ABC", "axc", "a\nb", "a\nc", "a_c", "a%c", "a.c", "a\\c",
          "Äbc", "äbc", "", "src/parse.rs", 12, 1.5]
PATTERNS = ["a_c", "a%b", "a%c", "a%", "%", "_", "", "abc", "äbc", "a.c",
            "a\\c", "%_%", "%PARSE%", "1_", "1.%", "a\\_c"]


def test_like_matches_sqlite():
    vals = np.array(VALUES, dtype=object)
    eng = SearchEngine.__new__(SearchEngine)
    eng.index = SimpleNamespace(
        language_column=None,
        meta_for=lambda col, ids: vals[ids.astype(np.int64)])
    ids = np.arange(len(VALUES), dtype=np.uint64)
    con = sqlite3.connect(":memory:")
    try:
        for pat in PATTERNS:
            for op in ("like", "not like"):
                got = eng._apply_filters(
                    ids, [{"field": "v", "operator": op, "value": pat}], None)
                want = [bool(con.execute(f"SELECT ? {op.upper()} ?",
                                         (v, pat)).fetchone()[0])
                        for v in VALUES]
                assert got.tolist() == want, (op, pat)
    finally:
        con.close()
