"""Ray session and process hygiene for one benchmark run.

A run owns its Ray instance from start to finish:

- processes left behind by an earlier, killed run in the same checkout
  are stopped first (recorded pids plus anything whose command line names
  this run's Ray temp directory);
- Ray starts with a fixed ``num_cpus`` (never sized from ``nproc``, which
  reads 1 under ``OMP_NUM_THREADS=1``) and hands the repository root to
  its workers in ``PYTHONPATH``, so the package imports in workers
  whatever the current directory is.  The variable is set in the
  environment Ray's processes inherit rather than in a job
  ``runtime_env``: with a ``runtime_env`` Ray cannot use the workers it
  prestarts and spawns new ones through its runtime-env agent, which
  added about 4.5 s to every run on a 4-CPU host;
- ``close()`` always shuts Ray down and waits until every process the run
  started has exited.

``Guard`` bounds each benchmark operation by a timeout, so a hang becomes
a failed operation instead of a stuck run.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import threading
import time

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store, which
# leaves about 44 bytes for <temp>.
_MAX_RAY_TEMP = 40


class OpTimeout(Exception):
    """An operation did not finish within its timeout."""


def _proc_table() -> dict[int, tuple[int, str, str]]:
    """pid -> (ppid, state, command line) for every visible process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        out[int(name)] = (int(fields[1]), fields[0], cmd)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except OSError:
        return False


def _descendants(root: int) -> set[int]:
    table = _proc_table()
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = set(), [root]
    while todo:
        for k in kids.get(todo.pop(), []):
            if k not in out:
                out.add(k)
                todo.append(k)
    return out


def _stop(pids: set[int], grace_s: float = 5.0) -> None:
    """SIGTERM, then SIGKILL after ``grace_s``; returns once all exited."""
    pids = {p for p in pids if p != os.getpid()}
    for sig, wait in ((signal.SIGTERM, grace_s), (signal.SIGKILL, 10.0)):
        live = {p for p in pids if _alive(p)}
        if not live:
            return
        for p in live:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + wait
        while time.monotonic() < deadline and any(_alive(p) for p in live):
            time.sleep(0.05)


class RaySession:
    """One Ray instance on ``num_cpus`` CPUs, rooted in ``state_dir``."""

    def __init__(self, repo_root: str, state_dir: str, num_cpus: int,
                 object_store_bytes: int = 1_000_000_000):
        self.repo_root = repo_root
        self.state_dir = state_dir
        self.num_cpus = num_cpus
        self.object_store_bytes = object_store_bytes
        tmp = os.path.join(state_dir, "ray")
        # A checkout at a deep path cannot hold Ray's sockets; Ray then
        # uses its default temp directory.
        self.ray_temp = tmp if len(tmp) <= _MAX_RAY_TEMP else None
        self._pidfile = state_dir + ".pids"
        self._started: set[int] = set()

    def stop_stale(self) -> None:
        """Stop processes of an earlier run in this checkout."""
        stale: set[int] = set()
        try:
            with open(self._pidfile) as f:
                recorded = json.load(f)
        except (OSError, ValueError):
            recorded = []
        table = _proc_table()
        for pid in recorded:
            if pid in table and "ray" in table[pid][2]:
                stale.add(pid)
        if self.ray_temp:
            stale |= {p for p, (_, _, cmd) in table.items()
                      if self.ray_temp in cmd}
        _stop(stale)
        try:
            os.remove(self._pidfile)
        except FileNotFoundError:
            pass

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.repo_root, os.environ.get("PYTHONPATH")) if p)
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=self.object_store_bytes,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self.ray_temp,
        )
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self._record()

    def _record(self) -> None:
        self._started |= _descendants(os.getpid())
        with open(self._pidfile, "w") as f:
            json.dump(sorted(self._started), f)

    def close(self) -> None:
        """Shut Ray down and wait for every process this run started."""
        import ray

        if ray.is_initialized():
            self._record()
            ray.shutdown()
        _stop(self._started | _descendants(os.getpid()))
        try:
            os.remove(self._pidfile)
        except FileNotFoundError:
            pass


class Guard:
    """Runs operations on one daemon thread, each with a timeout.

    After a timeout the worker thread may still be stuck in the operation,
    so the caller must stop issuing operations (``hung`` is set)."""

    def __init__(self):
        self.hung = False
        self._q: queue.Queue = queue.Queue()
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self) -> None:
        while True:
            fn, box, done = self._q.get()
            try:
                box.append((True, fn()))
            except BaseException as e:  # handed to the caller below
                box.append((False, e))
            done.set()

    def call(self, fn, timeout_s: float):
        if self.hung:
            raise OpTimeout("an earlier operation is still running")
        box: list = []
        done = threading.Event()
        self._q.put((fn, box, done))
        if not done.wait(timeout_s):
            self.hung = True
            raise OpTimeout(f"operation exceeded {timeout_s:.0f} s")
        ok, val = box[0]
        if not ok:
            raise val
        return val
