"""Benchmark of yetisearch_ray: index build, hot and cold queries, updates.

    python3 perfbench/run.py --workload query_hot --seed 1 --seconds 16 --trace 0

Run from the repository root (or anywhere: the root is found from this
file).  The run owns its Ray instance on ``--num-cpus`` CPUs, generates
its input from ``--seed``, measures a window of its workload sized to
``--seconds``, checks the results against SQLite FTS5 and prints one JSON
line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones of a traced run.  A readable report with sample counts
goes to standard error.  Everything the run writes stays under
``.perfbench_run`` in the repository root.  See ``LAYERS.md`` for the
workloads, their sizes and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # the whole run, set-up to teardown


class RunTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through session.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["query_hot", "query_cold", "update"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--num-cpus", type=int, default=4,
                    help="CPUs given to Ray (never taken from nproc)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="corpus size factor (the smoke test uses a small one)")
    args = ap.parse_args(argv)

    # Standard output carries only the result line: everything else the
    # process or its libraries print goes to standard error.
    result_fd = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    cpus = len(os.sched_getaffinity(0))
    if args.num_cpus > cpus:
        print(f"--num-cpus {args.num_cpus} exceeds the {cpus} CPUs available",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, ROOT)
    try:
        import yetisearch_ray  # noqa: F401
    except ImportError as e:
        print(f"cannot import the package under test: {e}", file=sys.stderr)
        return 2

    from workloads import Bench, log

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace),
                  ROOT, args.num_cpus, args.scale)
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)
    signal.alarm(RUN_LIMIT_S)
    try:
        t0 = time.perf_counter()
        bench.setup()
        setup_s = time.perf_counter() - t0
        bench.measure()
        if args.trace:
            bench.layer_probes()
        loading = bench.load_oracle()
        bench.session.close()
        loading.join()
        correct = bench.gate()
        if args.trace:
            metrics = {k: (v, 1) for k, v in bench.per_layer().items()}
        else:
            metrics = bench.end_to_end(setup_s)
    finally:
        signal.alarm(0)
        bench.session.close()

    units = _units()
    out = {k: {"value": float(v), "unit": units[k]}
           for k, (v, _) in metrics.items()}
    log(f"[perfbench] {args.workload} seed={args.seed} trace={args.trace} "
        f"attempted={bench.attempted} failed={bench.failed} correct={correct}")
    for k, (v, n) in metrics.items():
        log(f"  {k:46s} {v:14.6g} {units[k]:7s} n={n}")
    line = json.dumps({"correct": correct, "attempted": bench.attempted,
                       "failed": bench.failed, "metrics": out})
    os.write(result_fd, (line + "\n").encode())
    return 0


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
