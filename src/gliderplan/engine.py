"""Master/worker task pool with round-based delegation and sleep-mode workers.

The master dispatches tasks in barrier-synchronized rounds of up to
n_workers and waits for every result of a round before starting the next,
so wall time scales with the number of delegation rounds. Workers are
threads with private ordered inboxes; all cross-boundary data are
immutable value messages. An awake worker blocks on its inbox; a sleeping
worker polls it with a sleep interval between checks, trading latency for
idle cost.
"""

import queue
import threading
import time
from dataclasses import dataclass

from .errors import EngineError, ParameterError

ASLEEP = "asleep"
AWAKE = "awake"

# How long (s) the master waits on a result before it checks that every
# worker thread is still alive: a dead worker never sends its result.
_LIVENESS_CHECK_S = 0.1


@dataclass(frozen=True)
class EngineConfig:
    n_workers: int
    sleep_poll_interval: float = 0.1  # seconds

    def __post_init__(self):
        if self.n_workers < 1:
            raise ParameterError("n_workers must be >= 1")
        if not self.sleep_poll_interval > 0:
            raise ParameterError("sleep_poll_interval must be > 0")


@dataclass(frozen=True)
class TaskResult:
    task_id: int
    value: object
    duration: float
    error: object = None


def rounds_required(n_tasks, n_workers):
    """Number of delegation rounds: ceil(n_tasks / n_workers)."""
    if n_tasks < 1 or n_workers < 1:
        raise ParameterError("n_tasks and n_workers must be >= 1")
    return -(-n_tasks // n_workers)


class WorkerPool:
    """Pool handle; usable from one control flow at a time."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._results = queue.Queue()
        self._control = queue.Queue()
        self._inboxes = [queue.Queue() for _ in range(cfg.n_workers)]
        self._states = [AWAKE] * cfg.n_workers
        self._threads = []
        self._alive = True
        for wid in range(cfg.n_workers):
            th = threading.Thread(
                target=self._worker_loop, args=(wid,), daemon=True
            )
            th.start()
            self._threads.append(th)

    @property
    def n_workers(self):
        return self.cfg.n_workers

    def _worker_loop(self, wid):
        inbox = self._inboxes[wid]
        interval = self.cfg.sleep_poll_interval
        while True:
            if self._states[wid] == ASLEEP:
                try:
                    msg = inbox.get_nowait()
                except queue.Empty:
                    time.sleep(interval)
                    continue
            else:
                msg = inbox.get()
            kind = msg[0]
            if kind == "stop":
                return
            if kind == "sleep":
                self._states[wid] = ASLEEP
            elif kind == "wake":
                self._states[wid] = AWAKE
            elif kind == "ping":
                self._control.put(("pong", wid))
            elif kind == "task":
                task = msg[1]
                start = time.perf_counter()
                try:
                    value, error = task.run(), None
                except BaseException as exc:  # reported to the master, not raised here
                    value, error = None, exc
                self._results.put(TaskResult(
                    task.task_id, value, time.perf_counter() - start, error))

    def worker_states(self):
        return list(self._states)

    def sleep_all(self):
        self._check_alive()
        for inbox in self._inboxes:
            inbox.put(("sleep",))

    def wake(self, k):
        self._check_alive()
        if k < 0:
            raise ParameterError("wake count must be >= 0")
        for wid in range(min(k, self.cfg.n_workers)):
            self._inboxes[wid].put(("wake",))

    def ping_all(self):
        """Round-trip handshake with every worker."""
        self._check_alive()
        for inbox in self._inboxes:
            inbox.put(("ping",))
        for _ in range(self.cfg.n_workers):
            self._control.get()

    def delegate(self, tasks):
        """Dispatch tasks in rounds of up to n_workers, waiting for the full
        round before the next; returns one result per task, ordered by
        task id."""
        self._check_alive()
        tasks = list(tasks)
        if not tasks:
            raise ParameterError("task list must be non-empty")
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ParameterError("task ids must be unique")
        n = self.cfg.n_workers
        results = {}
        failed = []
        for offset in range(0, len(tasks), n):
            chunk = tasks[offset:offset + n]
            for wid, task in enumerate(chunk):
                self._inboxes[wid].put(("task", task))
            for _ in chunk:
                res = self._next_result(chunk, results)
                results[res.task_id] = res
                if res.error is not None:
                    failed.append(res.task_id)
        if failed:
            raise EngineError(
                "worker failure on %d task(s)" % len(failed), sorted(failed)
            )
        return [results[i] for i in sorted(results)]

    def _next_result(self, chunk, results):
        """The next TaskResult of the round that dispatched chunk. Raises
        EngineError, with the round's task ids still without a result, once
        a worker thread has died."""
        while True:
            try:
                return self._results.get(timeout=_LIVENESS_CHECK_S)
            except queue.Empty:
                if all(th.is_alive() for th in self._threads):
                    continue
            missing = [t.task_id for t in chunk if t.task_id not in results]
            raise EngineError(
                "worker thread died; %d task(s) without a result"
                % len(missing), sorted(missing))

    def shutdown(self):
        if not self._alive:
            return
        self._alive = False
        for inbox in self._inboxes:
            inbox.put(("stop",))
        for th in self._threads:
            th.join()

    def _check_alive(self):
        if not self._alive:
            raise EngineError("pool is shut down")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


def pool_evaluator(pool):
    """Edge-cost evaluation strategy backed by the worker pool."""

    def evaluate(tasks):
        return [res.value for res in pool.delegate(tasks)]

    return evaluate


def noop_run(cfg):
    """Start the pool, handshake with every worker, tear down; report
    wall-clock durations. Measures infrastructure overhead only."""
    t0 = time.perf_counter()
    pool = WorkerPool(cfg)
    pool.ping_all()
    t1 = time.perf_counter()
    pool.shutdown()
    t2 = time.perf_counter()
    return {
        "n_workers": cfg.n_workers,
        "startup_ms": (t1 - t0) * 1e3,
        "teardown_ms": (t2 - t1) * 1e3,
        "total_ms": (t2 - t0) * 1e3,
    }
