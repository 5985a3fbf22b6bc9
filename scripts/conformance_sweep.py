"""Driver-style conformance sweep: run every `queries()` entry and its
`oracle_sql()` counterpart at a given scale factor and compare
rows / columns / sorted-value hash, mirroring the external driver's
CORRECTNESS gate so regressions surface before a round closes.

Usage: python scripts/conformance_sweep.py [sf_dir] [pattern ...]

Each pattern is an entry name or an ``fnmatch`` pattern (quote it from
the shell): ``'ev_*'`` runs every event entry.  With no pattern every
entry runs.  Exits 2 when a pattern matches no entry, 1 when an entry
errors or differs from its oracle.
"""

import fnmatch
import hashlib
import json
import os
import sys
import time
import traceback

import duckdb
import pandas as pd
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def _to_pandas(res):
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()


def _hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(6)
        elif df[c].dtype.kind == "M":  # normalize datetime64 resolution
            df[c] = df[c].astype("datetime64[us]")
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return hashlib.md5(
        pd.util.hash_pandas_object(df, index=False).values.tobytes()
    ).hexdigest()


def main() -> None:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    patterns = sys.argv[2:]
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, ignore_reinit_error=True)

    import __ray_entry__ as entrymod

    queries = entrymod.queries()
    oracles = entrymod.oracle_sql()
    unmatched = [p for p in patterns if not fnmatch.filter(queries, p)]
    if unmatched:
        print(f"no entry matches: {' '.join(unmatched)}", file=sys.stderr)
        sys.exit(2)

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    report = {}
    for name, fn in queries.items():
        if patterns and not any(fnmatch.fnmatch(name, p)
                                for p in patterns):
            continue
        row = {"rows": None, "oracle_rows": None, "hash_match": None, "err": None}
        t0 = time.time()
        try:
            rdf = _to_pandas(fn(sf))
            row["rows"] = int(len(rdf))
            if name in oracles:
                odf = con.execute(oracles[name]).fetchdf()
                row["oracle_rows"] = int(len(odf))
                row["cols_match"] = sorted(rdf.columns) == sorted(odf.columns)
                row["hash_match"] = bool(
                    row["cols_match"]
                    and len(rdf) == len(odf)
                    and _hash(rdf) == _hash(odf)
                )
        except Exception:
            row["err"] = traceback.format_exc(limit=3)
        row["sec"] = round(time.time() - t0, 2)
        report[name] = row
        status = (
            "ERR" if row["err"]
            else "PASS" if row["hash_match"]
            else "rows-only" if name not in oracles
            else "FAIL"
        )
        print(f"{status:9s} {name:26s} rows={row['rows']} "
              f"oracle={row['oracle_rows']} {row['sec']}s", flush=True)

    fails = {k: v for k, v in report.items()
             if v["err"] or v["hash_match"] is False}
    out = os.environ.get("CONFORMANCE_OUT", "/tmp/conformance_sweep.json")
    oracled = sum(1 for k in report if k in oracles)
    meta = {
        "_meta": {
            "sf_dir": sf,
            "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_rev": os.popen("git rev-parse --short HEAD 2>/dev/null")
                        .read().strip(),
            "entries": len(report),
            "oracled": oracled,
            "rows_only": len(report) - oracled,
            "problems": len(fails),
            "method": "driver-identical rows+schema+sorted-value-hash vs "
                      "DuckDB (scripts/conformance_sweep.py)",
        }
    }
    meta.update(report)
    with open(out, "w") as f:
        json.dump(meta, f, indent=1, default=str)
    print(f"\n{len(report)} entries, {len(fails)} problems -> {out}")
    if fails:
        for k, v in fails.items():
            print("PROBLEM:", k, (v["err"] or "hash/rows mismatch")[:300])
        sys.exit(1)


if __name__ == "__main__":
    main()
