"""Layer spans recorded from outside the package.

``QueryTracer`` wraps the public entry points the search engine calls
into -- ``compile_query`` and ``make_snippet`` in ``search.engine``, and
one ``IndexReader``'s ``postings`` and ``docs`` -- and sums their time
per search call.  A posting fetch counts as cold when the term is not in
the reader's postings LRU at call time.  Recording is switched per
operation (``on``), so one run can alternate traced and untraced
operations and report the overhead of tracing.

``parse_build_stats`` turns the free-text ``Dataset.stats()`` of the
index build (``build_index(stats_out=)``) into per-operator wall, CPU,
UDF time and output bytes.
"""

from __future__ import annotations

import re
import time

_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


class QueryTracer:
    LAYERS = ("search", "compile", "fetch_warm", "fetch_cold", "gather",
              "snippet")

    def __init__(self):
        self.on = False
        self.cur = dict.fromkeys(self.LAYERS, 0.0)
        self.calls = {"fetch_warm": 0, "fetch_cold": 0}
        self.cold_fetch_s: list[float] = []
        self.ops: list[dict] = []  # one per traced search call
        self._installed = False

    def _timed(self, layer, fn):
        def wrapper(*a, **kw):
            if not self.on:
                return fn(*a, **kw)
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                self.cur[layer] += time.perf_counter() - t0
        return wrapper

    def search(self, engine, *a, **kw):
        """``engine.search`` with its own duration recorded."""
        return self._timed("search", engine.search)(*a, **kw)

    def install(self, engine) -> None:
        """Wrap the engine module's entry points and ``engine``'s reader
        (only the reader when already installed)."""
        if not self._installed:
            from yetisearch_ray.search import engine as mod

            for name, layer in (("compile_query", "compile"),
                                ("make_snippet", "snippet")):
                setattr(mod, name, self._timed(layer, getattr(mod, name)))
            self._installed = True
        self.attach(engine)

    def attach(self, engine) -> None:
        """Wrap the reader of ``engine`` (again after it is reopened)."""
        reader = engine.index
        fetch, docs = reader.postings, reader.docs

        def postings(term):
            if not self.on:
                return fetch(term)
            warm = term in reader._cache
            t0 = time.perf_counter()
            try:
                return fetch(term)
            finally:
                dt = time.perf_counter() - t0
                layer = "fetch_warm" if warm else "fetch_cold"
                self.cur[layer] += dt
                self.calls[layer] += 1
                if not warm:
                    self.cold_fetch_s.append(dt)

        reader.postings = postings
        reader.docs = self._timed("gather", docs)

    def begin(self) -> None:
        self.cur = dict.fromkeys(self.LAYERS, 0.0)

    def end(self, kind: str, wall_s: float, **extra) -> None:
        self.ops.append(dict(self.cur, kind=kind, wall=wall_s, **extra))


def _seconds(line: str, label: str) -> float:
    m = re.search(label + r":.*?([\d.]+)(us|ms|s) total", line)
    if not m:
        raise ValueError(f"no '{label}' total in: {line!r}")
    return float(m.group(1)) * _UNIT_S[m.group(2)]


def parse_build_stats(text: str) -> dict:
    """Operators of the build's term exchange from ``Dataset.stats()``.

    The plan is ingest (read + tokenize + combine + docstore write) ->
    Sort (the ``groupby("part")`` exchange) -> segment build, so the
    operators before and after the Sort are ingest and segment."""
    blocks = re.split(r"\n(?=Operator \d+ )", "\n" + text)
    ops = []
    for b in blocks:
        head = b.strip().splitlines()[0] if b.strip() else ""
        m = re.match(r"Operator \d+ (.+?): .*? in ([\d.]+)s", head)
        if m:
            ops.append((m.group(1), float(m.group(2)), b))
    names = [o[0] for o in ops]
    try:
        i = next(k for k, n in enumerate(names) if n.startswith("Sort"))
    except StopIteration:
        raise ValueError(f"no Sort operator in build stats: {names}")
    if i == 0 or i + 1 >= len(ops):
        raise ValueError(f"unexpected build plan: {names}")

    def op(k):
        name, wall, body = ops[k]
        lines = {ln.strip().split(":")[0].lstrip("* "): ln
                 for ln in body.splitlines() if ln.strip().startswith("*")}
        out = {"wall": wall}
        if "Remote cpu time" in lines:
            out["cpu"] = _seconds(lines["Remote cpu time"], "Remote cpu time")
            out["udf"] = _seconds(lines["UDF time"], "UDF time")
            m = re.search(r"(\d+) total", lines["Output size bytes per block"])
            out["bytes_out"] = int(m.group(1))
        return out

    return {"ingest": op(i - 1), "sort": op(i), "segment": op(i + 1)}
