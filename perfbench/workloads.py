"""The benchmark workloads, one closed-loop client each.

Every workload starts Ray, generates its corpus from the seed and builds
its index in set-up (timed: the build layers are traced on every
workload), then runs its loop for the measured window:

query_hot   the 14-class query mix, ids only, on a 50k-doc index with
            ~3.4k distinct terms, all within the 4,096-term postings LRU:
            compile, scoring and top-k, no disk fetch.
query_cold  Zipf-drawn long-tail queries on a 50k-doc index with ~53k
            distinct terms (13x the LRU): posting fetch from parquet; 20%
            of the operations also gather documents and snippets.
update      2k-doc generations appended to a 10k-doc base, ids deleted,
            the multi-generation index queried after every write, then
            optimize_index: the write path beside reads.

Every workload reports every metric.  Where a workload's loop does not
exercise an operation, a small probe after the window does, so the
number exists and a regression there still shows.
"""

from __future__ import annotations

import ctypes
import gc
import os
import shutil
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa

import corpus
import oracle
from layers import QueryTracer, parse_build_stats
from session import Guard, RaySession

# (query, search options): the query classes of the repository's bench.py
QUERY_SET = [
    ("parse", {}),
    ("buffer", {}),
    ("deadline", {}),
    ("return", {}),
    ("retry backoff", {"mode": "and"}),
    ("parse buffer", {"mode": "or"}),
    ('"exponential backoff"', {}),
    ("module", {"field_weights": {"path": 5.0, "content": 1.0}}),
    ("return", {"language": "python"}),
    ("hash table index", {}),
    ("parse buffer limit", {"mode": "or", "min_should_match": 2}),
    ("parse^2 buffer", {"mode": "or"}),
    ("parse buffer", {"mode": "or", "dismax": True, "tie_breaker": 0.3}),
    ("file", {"mode": "or", "in_fields": ["content"]}),
]
DOCS_PROBE = [("parse buffer", {}), ("retry backoff", {"mode": "and"}),
              ('"exponential backoff"', {}), ("deadline", {}),
              ("hash table index", {})]

# docs: corpus rows; tail: long-tail vocabulary (sets distinct terms)
SIZES = {
    "query_hot": {"docs": 50_000, "tail": 1_000},
    "query_cold": {"docs": 50_000, "tail": 60_000},
    "update": {"docs": 10_000, "tail": 20_000, "gen_docs": 2_000,
               "deletes": 50},
}
WARM_DOCS = 1_000
PARTITIONS = 64
LIMIT = 10
COLD_DOCS_EVERY = 5  # 20% of query_cold operations gather documents
COLD_QUERY_ZIPF = 0.8
STRATA = 20
# cycles per second of --seconds: query_hot, the query set and one docs
# gather; query_cold, one operation; update, one write cycle
OPS_PER_S = {"query_hot": 3, "query_cold": 24, "update": 0.25}
UPDATE_READ_PASSES = 3  # reader passes per update read phase
MIN_PROBES = {"query": 28, "docs": 5}
TIMEOUT_S = {"warmup_build": 120, "prebuild": 120, "append": 60, "delete": 20,
             "optimize": 90, "query": 15, "warmup": 15, "docs": 30,
             "overhead": 15}
GATE_QUERIES = 25


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


def index_config():
    from yetisearch_ray.index.build import IndexConfig

    return IndexConfig(
        fields=[("path", "path"), ("content", "content")],
        language_column="lang",
        store_columns=["repo", "path", "commit", "lang", "content"],
        num_partitions=PARTITIONS,
        content_hash_column="content",
    )


def dir_bytes(d: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(d) for f in fs)


def cold_queries(seed: int, tail: int, n: int) -> list[tuple[str, dict, str]]:
    """(query, options, kind) ops over Zipf-drawn long-tail terms.

    The draws are stratified: every block of STRATA operations takes one
    term from each of STRATA equal-probability slices of the Zipf law, so
    any stretch of the stream, whatever the seed, mixes head and tail
    terms in the same proportions.  Shapes cycle (one term; two terms
    OR; two terms smart) and every fifth operation gathers documents."""
    rng = np.random.default_rng([seed, 7])

    def terms(size):
        blocks = -(-size // STRATA)
        strata = np.concatenate([rng.permutation(STRATA) for _ in range(blocks)])
        u = (strata[:size] + rng.random(size)) / STRATA
        return corpus.zipf_ranks(u, tail, COLD_QUERY_ZIPF)

    first, second = terms(n), terms(n)
    ops = []
    for i in range(n):
        w1, w2 = corpus.tail_word(int(first[i])), corpus.tail_word(int(second[i]))
        q, kw = [(w1, {}), (f"{w1} {w2}", {"mode": "or"}),
                 (f"{w1} {w2}", {})][i % 3]
        ops.append((q, kw, "docs" if i % COLD_DOCS_EVERY == COLD_DOCS_EVERY - 1
                    else "query"))
    return ops


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 repo_root: str, num_cpus: int, scale: float = 1.0):
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = {k: max(1, int(v * scale)) if k in ("docs", "gen_docs")
                     else v for k, v in SIZES[workload].items()}
        self.warm_docs = max(200, int(WARM_DOCS * scale))
        self.state = os.path.join(repo_root, ".perfbench_run")
        self.session = RaySession(repo_root, self.state, num_cpus)
        self.guard = Guard()
        self.tracer = QueryTracer() if trace else None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.n_docs: list[tuple[str, int, int]] = []  # (what, got, want)
        self.input_bytes = 0
        self.build_trace: dict | None = None
        self.layer: dict[str, float] = {}
        self.dead: np.ndarray = np.empty(0, np.uint64)
        self.files_per_part = 1.0

    # ------------------------------------------------------------ ops
    def op(self, kind: str, fn):
        """One timed operation; a failure or timeout is counted."""
        if self.guard.hung:
            return None
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.guard.call(fn, TIMEOUT_S[kind])
        except Exception as e:  # counted and reported, the run goes on
            self.failed += 1
            log(f"[perfbench] {kind} failed: {type(e).__name__}: {e}")
            return None
        self.samples[kind].append(time.perf_counter() - t0)
        return out

    def build(self, corpus_dir: str, index_dir: str, stats: dict | None = None):
        from yetisearch_ray.index.build import build_index
        from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

        return build_index(read_parquet_with_doc_ids(corpus_dir), index_dir,
                           index_config(), input_fingerprint=corpus_dir,
                           stats_out=stats)

    def prebuild(self) -> None:
        """The timed build of the workload's index, traced in trace runs."""
        stats = {} if self.trace else None
        man = self.op("prebuild",
                      lambda: self.build(self.corpus_dir, self.index_dir, stats))
        if man is None:
            raise RuntimeError("index prebuild failed")
        self.n_docs.append(("prebuild n_docs", int(man.stats["n_docs"]),
                            self.table.num_rows))
        if self.trace:
            self.build_trace = {
                "stats": stats["ds_stats"], "wall": self.samples["prebuild"][-1],
                "metrics": dict(man.data.get("metrics", {})),
                "rows": [int(p["rows"]) for p in man.data["partitions"].values()],
                "n_docs": int(man.stats["n_docs"]),
            }

    def engine(self, index_dir: str):
        from yetisearch_ray.search.engine import SearchEngine, open_index

        eng = SearchEngine(open_index(index_dir), cache_ttl=0)
        files = len([f for f in os.listdir(os.path.join(index_dir, "postings"))
                     if f.endswith(".parquet")])
        self.files_per_part = files / eng.index.num_partitions
        if self.tracer is not None:
            self.tracer.install(eng)
        return eng

    def search(self, eng, q: str, kw: dict, kind: str = "query",
               traced: bool | None = None):
        """One search operation; traced in trace runs unless ``traced``
        says otherwise."""
        tr = self.tracer if traced is not False else None
        extra = {"with_docs": True, "highlight": True} if kind == "docs" else {}
        if tr is None:
            r = self.op(kind, lambda: eng.search(q, limit=LIMIT, **kw, **extra))
        else:
            tr.begin()
            tr.on = True
            r = self.op(kind, lambda: tr.search(eng, q, limit=LIMIT, **kw, **extra))
            tr.on = False
            if r is not None:
                tr.end(kind, self.samples[kind][-1], q=q, kw=kw,
                       rows=r.num_rows, files=self.files_per_part)
        if r is not None and self.dead.size:
            ids = np.asarray(r["doc_id"].to_numpy(), np.uint64)
            if np.isin(ids, self.dead).any():
                self.problems.append(f"deleted id returned for {q!r}")
        return r

    def probe_searches(self, eng) -> None:
        """Top up query and docs samples to MIN_PROBES after the window."""
        for kind, queries in (("query", QUERY_SET), ("docs", DOCS_PROBE)):
            for i in range(MIN_PROBES[kind] - len(self.samples[kind])):
                q, kw = queries[i % len(queries)]
                self.search(eng, q, kw, kind)

    # ---------------------------------------------------------- phases
    def setup(self) -> None:
        """Ray start-up, input generation, warm-up and index prebuild."""
        t00 = time.perf_counter()
        self.session.stop_stale()
        shutil.rmtree(self.state, ignore_errors=True)
        os.makedirs(self.state)
        self.session.start()
        t0 = time.perf_counter()
        # warm-up: a tiny build starts the workers and Ray Data, so the
        # timed build below does not pay process start-up; it runs while
        # this thread generates the input
        warm = corpus.write_corpus(
            corpus.make_table(self.seed, self.warm_docs, 500),
            os.path.join(self.state, "warm_corpus"))
        self.warm_index = os.path.join(self.state, "warm_index")
        warming = threading.Thread(target=self.op, args=(
            "warmup_build", lambda: self.build(warm, self.warm_index)))
        warming.start()
        self.table = corpus.make_table(self.seed, self.size["docs"],
                                       self.size["tail"])
        self.input_bytes = self.table.nbytes
        self.corpus_dir = corpus.write_corpus(
            self.table, os.path.join(self.state, "corpus"))
        t1 = time.perf_counter()
        warming.join()
        if not self.samples["warmup_build"]:
            raise RuntimeError("warm-up build failed")
        t2 = time.perf_counter()
        self.index_dir = os.path.join(self.state, "index")
        os.sync()  # the corpus writeback must not stall the timed build
        self.prebuild()
        os.sync()  # no writeback of the index beside the timed window
        t3 = time.perf_counter()
        self.eng = self.engine(self.index_dir)
        if self.trace:
            self.ray_probes()
        if self.name != "update":
            # queries need no Ray: its processes stop before the window
            self.session.close()
        if self.name == "query_hot":
            for q, kw in QUERY_SET:  # fill the postings LRU
                self.search(self.eng, q, kw, "warmup")
        log(f"[perfbench] setup: ray start {t0 - t00:.2f} s, input {t1 - t0:.2f} s, "
            f"rest of warm-up {t2 - t1:.2f} s, prebuild {t3 - t2:.2f} s, "
            f"rest {time.perf_counter() - t3:.2f} s")

    def measure(self) -> None:
        """The measured window; ``peak_rss_mb`` is the process's peak
        resident memory over it."""
        # return memory freed by set-up to the OS, then reset the peak
        # (VmHWM) to the current RSS, so the peak is the window's own
        gc.collect()
        pa.default_memory_pool().release_unused()
        ctypes.CDLL("libc.so.6").malloc_trim(0)
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        t0 = time.perf_counter()
        getattr(self, "measure_" + self.name)()
        with open("/proc/self/status") as f:
            hwm = next(ln for ln in f if ln.startswith("VmHWM:"))
        self.peak_rss_mb = int(hwm.split()[1]) / 1024.0
        log(f"[perfbench] measured phase {time.perf_counter() - t0:.2f} s")

    def n_ops(self) -> int:
        """Operations in the window: --seconds at the workload's nominal
        rate on a 4-CPU host.  A fixed count (not a deadline) makes every
        run issue the same operations, so the postings LRU, the memory
        held and the sample count do not depend on how fast the host
        happens to be during the run."""
        return max(1, round(self.seconds * OPS_PER_S[self.name]))

    def measure_query_hot(self) -> None:
        """Cycles of the query set in order, ids only, each followed by a
        docs gather; the cycle count is a multiple of the docs probe
        queries, so each of them is gathered equally often."""
        k = len(DOCS_PROBE)
        for c in range(-(-self.n_ops() // k) * k):
            for q, kw in QUERY_SET:
                self.search(self.eng, q, kw, "query")
            q, kw = DOCS_PROBE[c % k]
            self.search(self.eng, q, kw, "docs")
        self.probe_searches(self.eng)

    def measure_query_cold(self) -> None:
        self.cold_ops = cold_queries(self.seed, self.size["tail"], self.n_ops())
        for q, kw, kind in self.cold_ops:
            self.search(self.eng, q, kw, kind)
        self.probe_searches(self.eng)

    def update_reads(self) -> None:
        """The reads after a write: UPDATE_READ_PASSES passes, each on a
        reader opened afresh (so it fetches its postings from every
        generation), of the query set and one docs gather per docs probe
        query."""
        os.sync()  # no writeback of the write's files beside the reads
        for _ in range(UPDATE_READ_PASSES):
            self.eng = self.engine(self.index_dir)
            for q, kw in QUERY_SET:
                self.search(self.eng, q, kw, "query")
            for q, kw in DOCS_PROBE:
                self.search(self.eng, q, kw, "docs")

    @staticmethod
    def append(index_dir: str, t, first_id: int):
        import ray.data as rd
        from yetisearch_ray.index.build import build_index

        ids = np.arange(first_id, first_id + t.num_rows, dtype=np.uint64)
        ds = rd.from_arrow(t.append_column("doc_id", pa.array(ids)))
        return build_index(ds, index_dir, index_config(), append=True,
                           input_fingerprint=f"gen@{first_id}")

    def measure_update(self) -> None:
        """Write cycles, then optimize; every run ends on an index of the
        same shape."""
        from yetisearch_ray.index.manage import delete_docs, optimize_index

        rng = np.random.default_rng([self.seed, 11])
        base_postings = dir_bytes(os.path.join(self.index_dir, "postings"))
        self.gens = [(0, self.table)]
        next_id = self.table.num_rows
        for _ in range(self.n_ops()):
            t = corpus.make_table(self.seed, self.size["gen_docs"],
                                  self.size["tail"], first_doc=next_id)
            if self.op("append", lambda: self.append(self.index_dir, t, next_id)) is None:
                break
            self.gens.append((next_id, t))
            self.input_bytes += t.nbytes
            next_id += t.num_rows
            live = np.setdiff1d(np.arange(next_id, dtype=np.uint64), self.dead)
            drop = rng.choice(live, self.size["deletes"], replace=False)
            if self.op("delete", lambda: delete_docs(self.index_dir, drop.tolist())) is None:
                break
            self.dead = np.union1d(self.dead, drop)
            self.update_reads()
        appended = dir_bytes(os.path.join(self.index_dir, "postings"))
        man = self.eng.index.manifest
        self.n_docs.append(("n_docs before optimize", int(man.stats["n_docs"]), next_id))
        self.before_opt = self.gate_results(self.eng, QUERY_SET)
        if self.op("optimize", lambda: optimize_index(self.index_dir)) is None:
            return
        self.eng = self.engine(self.index_dir)
        self.n_docs.append(("n_docs after optimize",
                            int(self.eng.index.manifest.stats["n_docs"]),
                            next_id - self.dead.size))
        self.update_reads()
        self.after_opt = self.gate_results(self.eng, QUERY_SET)
        optimized = dir_bytes(os.path.join(self.index_dir, "postings"))
        self.layer["index.bytes.postings_over_base_appended"] = appended / base_postings
        self.layer["index.bytes.postings_over_base_optimized"] = optimized / base_postings

    # ------------------------------------------------- correctness gate
    @staticmethod
    def gate_results(eng, queries) -> list:
        """(query, options, top-k, match set) for the FTS5-expressible
        queries, recorded outside any timed operation."""
        out = []
        for q, kw in queries:
            if oracle.fts5_match(q, kw) is None:
                continue
            r = eng.search(q, limit=LIMIT, normalize=False, **kw)
            got = list(zip(r["doc_id"].to_pylist(), r["score"].to_pylist()))
            mode = kw.get("mode", "smart")
            match = eng.match_ids(q, mode=mode, language=kw.get("language"))
            out.append((q, kw, got, np.sort(match)))
        return out

    def check_against(self, fts, results, exclude=()) -> None:
        for q, kw, got, _ in results:
            match = oracle.fts5_match(q, kw)
            fw = kw.get("field_weights")
            w = (fw["path"], fw["content"]) if fw else None
            want = fts.topk(match, LIMIT, w, kw.get("language"), exclude)
            why = oracle.compare(got, want, fts, match, w)
            if why:
                self.problems.append(f"FTS5 mismatch for {q!r} {kw}: {why}")

    def load_oracle(self) -> threading.Thread:
        """Fill the FTS5 table from the run's input on a thread, so it
        overlaps Ray's shutdown."""
        self.fts = oracle.Fts5()
        gens = getattr(self, "gens", [(0, self.table)])

        def load():
            for first, t in gens:
                self.fts.add(t, first)

        th = threading.Thread(target=load)
        th.start()
        return th

    def gate(self) -> bool:
        for what, got, want in self.n_docs:
            if got != want:
                self.problems.append(f"{what} = {got}, input has {want}")
        if self.failed:
            self.problems.append("operations failed, FTS5 comparison skipped")
        else:
            fts = self.fts
            if self.name == "update":
                self.check_against(fts, self.before_opt, self.dead.tolist())
                fts.delete(self.dead.tolist())
                self.check_against(fts, self.after_opt)
                for (q, kw, _, m1), (_, _, _, m2) in zip(self.before_opt,
                                                         self.after_opt):
                    if not np.array_equal(m1, m2):
                        self.problems.append(f"match set of {q!r} changed by optimize")
            else:
                if self.name == "query_cold":
                    qs = [(q, kw) for q, kw, _ in self.cold_ops]
                else:
                    qs = QUERY_SET
                self.check_against(fts, self.gate_results(self.eng, qs[:GATE_QUERIES]))
        for p in self.problems:
            log("[perfbench] CHECK FAILED:", p)
        return not self.problems

    # ------------------------------------------------------------ metrics
    def end_to_end(self, setup_s: float) -> dict:
        """name -> (value, sample count)."""
        q, d = self.samples["query"], self.samples["docs"]
        return {
            "setup_s": (setup_s, 1),
            "query_p50_ms": (1e3 * statistics.median(q), len(q)),
            "docs_p50_ms": (1e3 * statistics.median(d), len(d)),
            "index_bytes_per_input_byte": (
                dir_bytes(self.index_dir) / self.input_bytes, 1),
            "query_rss_mb": (self.peak_rss_mb, 1),
        }

    def ray_probes(self) -> None:
        """Trace-run probes that need Ray, run after the prebuild: the
        source read, and for the query workloads the write path (append,
        delete, optimize) on the warm-up index."""
        from yetisearch_ray.index.manage import delete_docs, optimize_index
        from yetisearch_ray.sources.parquet_source import read_parquet_with_doc_ids

        t0 = time.perf_counter()
        n = read_parquet_with_doc_ids(self.corpus_dir).materialize().count()
        self.layer["sources.read_docs_per_s"] = n / (time.perf_counter() - t0)
        if self.name == "update":
            return
        idx = self.warm_index
        base = dir_bytes(os.path.join(idx, "postings"))
        t = corpus.make_table(self.seed, self.warm_docs, 500,
                              first_doc=self.warm_docs)
        self.op("append", lambda: self.append(idx, t, self.warm_docs))
        appended = dir_bytes(os.path.join(idx, "postings"))
        drop = list(range(0, self.warm_docs, 20))
        self.op("delete", lambda: delete_docs(idx, drop))
        self.op("optimize", lambda: optimize_index(idx))
        optimized = dir_bytes(os.path.join(idx, "postings"))
        self.layer["index.bytes.postings_over_base_appended"] = appended / base
        self.layer["index.bytes.postings_over_base_optimized"] = optimized / base

    def layer_probes(self) -> None:
        """Trace-run probes after the window: tokenizer and codec
        throughput, and the overhead of tracing."""
        from yetisearch_ray.analysis.tokenizer import tokenize_batch_dict
        from yetisearch_ray.index.postings import encode_postings

        content = self.table["content"].slice(0, 10_000)
        c0 = time.process_time()
        codes = tokenize_batch_dict(content)[0]
        self.layer["analysis.tokens_per_cpu_s"] = codes.size / max(time.process_time() - c0, 1e-9)

        nbytes, secs = 0, 0.0
        for q, _ in QUERY_SET:
            for term in q.strip('"').replace("^2", "").split():
                for p in self.eng.index.postings(term).values():
                    t0 = time.perf_counter()
                    encode_postings(p.doc_ids, p.tfs, p.positions)
                    secs += time.perf_counter() - t0
                    nbytes += p.doc_ids.nbytes + p.tfs.nbytes + (
                        0 if p.positions is None else p.positions.nbytes)
        self.layer["index.postings.encode_mb_per_s"] = nbytes / 1e6 / secs

        # tracing overhead: warm passes of the query set, alternately
        # traced and untraced
        walls: dict[bool, list[float]] = {True: [], False: []}
        for p in range(5):
            for q, kw in QUERY_SET:
                traced = p % 2 == 1
                if self.search(self.eng, q, kw, "overhead", traced) is not None and p:
                    walls[traced].append(self.samples["overhead"][-1])
        self.layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)

    def per_layer(self) -> dict:
        s, L = self.samples, dict(self.layer)
        bt = self.build_trace
        ops = parse_build_stats(bt["stats"])
        mx = bt["metrics"]
        pipeline = mx.get("exchange_sec_gen0", 0.0)
        rows = sorted(bt["rows"])
        L.update({
            "index.build.docs_per_s": bt["n_docs"] / bt["wall"],
            "index.build.sketch_s": mx.get("sketch_sec", 0.0),
            "index.build.ingest_wall_s": ops["ingest"]["wall"],
            "index.build.ingest_cpu_s": ops["ingest"]["cpu"],
            "index.build.ingest_udf_s": ops["ingest"]["udf"],
            "index.build.exchange_bytes_per_doc": ops["ingest"]["bytes_out"] / bt["n_docs"],
            "index.build.sort_s": max(ops["sort"]["wall"] - ops["ingest"]["wall"], 0.0),
            "index.build.segment_wall_s": ops["segment"]["wall"],
            "index.build.segment_cpu_s": ops["segment"]["cpu"],
            "index.build.partition_rows_max_over_median": rows[-1] / statistics.median(rows),
            "trace.build_path_over_wall": (mx.get("sketch_sec", 0.0) + pipeline) / bt["wall"],
            "index.build.append_s": statistics.median(s["append"]),
            "index.manage.delete_ms": 1e3 * statistics.median(s["delete"]),
            "index.manage.optimize_s": statistics.median(s["optimize"]),
        })
        for sub in ("postings", "docs", "doclens"):
            L[f"index.bytes.{sub}"] = dir_bytes(os.path.join(self.index_dir, sub))

        def mean(xs):
            return statistics.fmean(xs) if xs else 0.0

        tr = self.tracer
        q = [o for o in tr.ops if o["kind"] in ("query", "warmup")]
        inner_ms = 1e3 * mean([o["search"] for o in q])
        d = [o for o in tr.ops if o["kind"] == "docs"]
        compile_ms = 1e3 * mean([o["compile"] for o in q])
        warm_ms = 1e3 * mean([o["fetch_warm"] for o in q])
        cold_ms = 1e3 * mean([o["fetch_cold"] for o in q])
        wall_ms = 1e3 * mean([o["wall"] for o in q])
        score_ms = inner_ms - compile_ms - warm_ms - cold_ms
        calls = tr.calls["fetch_warm"] + tr.calls["fetch_cold"]
        per_term = 1e3 * mean(tr.cold_fetch_s)
        files = mean([o["files"] for o in q])
        counts, seen = [], {}
        for o in q[:200]:
            key = (o["q"], repr(o["kw"]))
            if key not in seen:
                kw = o["kw"]
                seen[key] = self.eng.count(o["q"], mode=kw.get("mode", "smart"),
                                           language=kw.get("language"),
                                           field_weights=kw.get("field_weights"))
            if o["rows"]:
                counts.append(seen[key] / o["rows"])
        gather_ms = 1e3 * mean([o["gather"] for o in d])
        snippet_ms = 1e3 * mean([o["snippet"] for o in d])
        L.update({
            "search.compile_ms": compile_ms,
            "search.fetch_warm_ms": warm_ms,
            "search.fetch_cold_ms": cold_ms,
            "search.score_select_ms": score_ms,
            "search.match_docs_per_result": mean(counts),
            "search.segment_files_per_term": files,
            "search.postings_lru_hit_rate": tr.calls["fetch_warm"] / calls if calls else 0.0,
            "search.fetch_cold_ms_per_term": per_term,
            "search.fetch_cold_ms_per_file": per_term / files,
            "search.docs_gather_ms": gather_ms,
            "search.snippet_ms": snippet_ms,
            "trace.query_path_over_wall": (compile_ms + warm_ms + cold_ms + score_ms) / wall_ms,
        })
        return L
