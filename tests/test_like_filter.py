"""``like`` / ``not like`` filters follow SQLite ``LIKE``, the reference's
operator: ``%`` is any run of characters (newlines too), ``_`` one
character, case folded for ASCII letters only.  A NULL value (None or
NaN) drops the row under ``like``, ``not like``, ``!=`` and ``not in``,
as SQLite's three-valued comparison does."""
import sqlite3
from types import SimpleNamespace

import numpy as np

from yetisearch_ray.search.engine import SearchEngine

VALUES = ["abc", "ABC", "axc", "a\nb", "a\nc", "a_c", "a%c", "a.c", "a\\c",
          "Äbc", "äbc", "", "src/parse.rs", 12, 1.5, None, float("nan")]
PATTERNS = ["a_c", "a%b", "a%c", "a%", "%", "_", "", "abc", "äbc", "a.c",
            "a\\c", "%_%", "%PARSE%", "1_", "1.%", "a\\_c", "None", "nan"]
IN_LISTS = [["abc"], ["abc", "a_c"], ["ABC", 12], [1.5, "", "None"]]


def _engine():
    vals = np.array(VALUES, dtype=object)
    eng = SearchEngine.__new__(SearchEngine)
    eng.index = SimpleNamespace(language_column=None, meta=lambda col: vals)
    return eng


def _check(eng, con, op, value, sql):
    rows = np.arange(len(VALUES))
    got = eng._apply_filters(
        rows, [{"field": "v", "operator": op, "value": value}], None)
    params = value if isinstance(value, list) else [value]
    # NaN binds as NULL in sqlite3, the same as None
    want = [bool(con.execute(sql, (v, *params)).fetchone()[0])
            for v in VALUES]
    assert got.tolist() == want, (op, value)


def test_like_matches_sqlite():
    eng, con = _engine(), sqlite3.connect(":memory:")
    try:
        for pat in PATTERNS:
            for op in ("like", "not like"):
                _check(eng, con, op, pat, f"SELECT ? {op.upper()} ?")
    finally:
        con.close()


def test_not_equal_and_in_lists_match_sqlite():
    eng, con = _engine(), sqlite3.connect(":memory:")
    try:
        for v in PATTERNS + [12, 1.5]:
            _check(eng, con, "!=", v, "SELECT ? != ?")
        for lst in IN_LISTS:
            marks = ", ".join("?" * len(lst))
            for op in ("in", "not in"):
                _check(eng, con, op, lst, f"SELECT ? {op.upper()} ({marks})")
    finally:
        con.close()
