import queue
import threading
import time
from dataclasses import dataclass

import pytest

import gliderplan as gp
from gliderplan.engine import ASLEEP, AWAKE


@dataclass(frozen=True)
class SleepTask:
    task_id: int
    duration: float

    def run(self):
        time.sleep(self.duration)
        return self.task_id


@dataclass(frozen=True)
class FailTask:
    task_id: int

    def run(self):
        raise RuntimeError("boom")


@dataclass(frozen=True)
class ExitTask:
    task_id: int

    def run(self):
        raise SystemExit(1)


class LosingQueue(queue.Queue):
    """A result queue whose first put raises, in the worker that calls it:
    that worker thread dies outside task.run() and its result is lost."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self.lost = False

    def put(self, item, block=True, timeout=None):
        with self._lock:
            lose, self.lost = not self.lost, True
        if lose:
            raise RuntimeError("result lost")
        super().put(item, block, timeout)


def wait_for_states(pool, predicate, timeout=2.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        states = pool.worker_states()
        if predicate(states):
            return states
    return pool.worker_states()


class TestRoundsRequired:
    @pytest.mark.parametrize("n_tasks,n_workers,expected", [
        (20, 5, 4), (20, 6, 4), (20, 7, 3), (20, 10, 2), (20, 20, 1),
        (1, 1, 1), (7, 7, 1), (21, 20, 2),
    ])
    def test_values(self, n_tasks, n_workers, expected):
        assert gp.rounds_required(n_tasks, n_workers) == expected

    def test_invalid_inputs(self):
        with pytest.raises(gp.ParameterError):
            gp.rounds_required(0, 4)
        with pytest.raises(gp.ParameterError):
            gp.rounds_required(4, 0)


class TestPoolLifecycle:
    def test_single_worker(self):
        with gp.start_pool(gp.EngineConfig(1)) as pool:
            assert pool.n_workers == 1

    def test_47_workers(self):
        with gp.start_pool(gp.EngineConfig(47)) as pool:
            assert pool.n_workers == 47
            res = pool.delegate([SleepTask(i, 0.0) for i in range(20)])
            assert len(res) == 20

    def test_zero_workers_rejected(self):
        with pytest.raises(gp.ParameterError):
            gp.EngineConfig(0)

    def test_use_after_shutdown_rejected(self):
        pool = gp.start_pool(gp.EngineConfig(2))
        pool.shutdown()
        with pytest.raises(gp.EngineError):
            pool.delegate([SleepTask(0, 0.0)])


class TestSleepWake:
    def test_sleep_all_then_partial_wake(self):
        with gp.start_pool(gp.EngineConfig(8, sleep_poll_interval=0.02)) as pool:
            pool.sleep_all()
            states = wait_for_states(pool, lambda s: s.count(ASLEEP) == 8)
            assert states == [ASLEEP] * 8
            pool.wake(3)
            states = wait_for_states(pool, lambda s: s.count(AWAKE) == 3)
            assert states[:3] == [AWAKE] * 3
            assert states[3:] == [ASLEEP] * 5

    def test_wake_zero_is_noop(self):
        with gp.start_pool(gp.EngineConfig(3, sleep_poll_interval=0.02)) as pool:
            pool.sleep_all()
            wait_for_states(pool, lambda s: s.count(ASLEEP) == 3)
            pool.wake(0)
            time.sleep(0.05)
            assert pool.worker_states() == [ASLEEP] * 3

    def test_wake_clamps_to_pool_size(self):
        with gp.start_pool(gp.EngineConfig(3, sleep_poll_interval=0.02)) as pool:
            pool.sleep_all()
            wait_for_states(pool, lambda s: s.count(ASLEEP) == 3)
            pool.wake(100)
            states = wait_for_states(pool, lambda s: s.count(AWAKE) == 3)
            assert states == [AWAKE] * 3

    def test_sleeping_worker_latency_bounded(self):
        interval = 0.1
        with gp.start_pool(gp.EngineConfig(1, sleep_poll_interval=interval)) as pool:
            pool.sleep_all()
            wait_for_states(pool, lambda s: s == [ASLEEP])
            start = time.perf_counter()
            pool.delegate([SleepTask(0, 0.0)])
            elapsed = time.perf_counter() - start
            assert elapsed <= interval + 0.08  # one poll interval plus slack


class TestDelegate:
    def test_results_complete_and_ordered(self):
        with gp.start_pool(gp.EngineConfig(4)) as pool:
            # uneven durations so completion order differs from task order
            tasks = [SleepTask(i, 0.02 if i % 2 else 0.001) for i in range(11)]
            results = pool.delegate(tasks)
            assert [r.task_id for r in results] == list(range(11))
            assert [r.value for r in results] == list(range(11))
            assert all(r.duration >= 0 for r in results)

    def test_empty_task_list_rejected(self):
        with gp.start_pool(gp.EngineConfig(2)) as pool:
            with pytest.raises(gp.ParameterError):
                pool.delegate([])

    def test_duplicate_ids_rejected(self):
        with gp.start_pool(gp.EngineConfig(2)) as pool:
            with pytest.raises(gp.ParameterError):
                pool.delegate([SleepTask(1, 0.0), SleepTask(1, 0.0)])

    def test_worker_failure_reports_task_ids(self):
        with gp.start_pool(gp.EngineConfig(3)) as pool:
            tasks = [SleepTask(0, 0.0), FailTask(1), SleepTask(2, 0.0),
                     FailTask(3)]
            with pytest.raises(gp.EngineError) as exc:
                pool.delegate(tasks)
            assert exc.value.task_ids == (1, 3)

    def test_system_exit_in_task_reported_not_hung(self):
        # A BaseException from a task must not kill its worker: the master
        # would then wait for ever on the missing result.
        pool = gp.start_pool(gp.EngineConfig(2))
        outcome = []

        def master():
            try:
                pool.delegate([SleepTask(0, 0.0), ExitTask(1)])
            except gp.EngineError as exc:
                outcome.append(exc.task_ids)

        th = threading.Thread(target=master, daemon=True)
        th.start()
        th.join(timeout=5.0)
        assert not th.is_alive(), "delegate blocked on a failed task"
        assert outcome == [(1,)]
        # both workers survive and still take work
        assert [r.value for r in pool.delegate(
            [SleepTask(0, 0.0), SleepTask(1, 0.0)])] == [0, 1]
        pool.shutdown()
        assert not any(t.is_alive() for t in pool._threads)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_worker_fails_delegate_not_hangs(self):
        pool = gp.start_pool(gp.EngineConfig(2))
        pool._results = LosingQueue()
        outcome = []

        def master():
            try:
                pool.delegate([SleepTask(0, 0.0), SleepTask(1, 0.0)])
            except gp.EngineError as exc:
                outcome.append(exc.task_ids)

        th = threading.Thread(target=master, daemon=True)
        th.start()
        th.join(timeout=5.0)
        assert not th.is_alive(), "delegate blocked on a dead worker"
        assert pool._results.lost
        # one worker died holding its task's result; the other delivered
        assert sum(t.is_alive() for t in pool._threads) == 1
        assert outcome in ([(0,)], [(1,)])
        pool.shutdown()
        assert not any(t.is_alive() for t in pool._threads)

    @pytest.mark.parametrize("n_tasks,n_workers", [(20, 5), (20, 7), (20, 20)])
    def test_round_structure_timing(self, n_tasks, n_workers):
        duration = 0.04
        with gp.start_pool(gp.EngineConfig(n_workers)) as pool:
            tasks = [SleepTask(i, duration) for i in range(n_tasks)]
            start = time.perf_counter()
            pool.delegate(tasks)
            wall = time.perf_counter() - start
        expected = gp.rounds_required(n_tasks, n_workers) * duration
        assert wall == pytest.approx(expected, rel=0.25)

    def test_final_partial_round(self):
        # 20 tasks over 7 workers: 3 rounds, last round carries 6 tasks
        with gp.start_pool(gp.EngineConfig(7)) as pool:
            results = pool.delegate([SleepTask(i, 0.001) for i in range(20)])
        last_round_ids = {r.task_id for r in results[14:]}
        assert last_round_ids == set(range(14, 20))


class TestNoopRun:
    def test_single_worker_baseline(self):
        report = gp.noop_run(gp.EngineConfig(1))
        assert report["n_workers"] == 1
        assert report["startup_ms"] > 0
        assert report["teardown_ms"] > 0

    def test_reported_fields_consistent(self):
        report = gp.noop_run(gp.EngineConfig(8))
        assert report["total_ms"] == pytest.approx(
            report["startup_ms"] + report["teardown_ms"], rel=0.05)

    def test_repeated_runs_stable_medians(self):
        import statistics
        totals = [gp.noop_run(gp.EngineConfig(16))["total_ms"]
                  for _ in range(7)]
        med = statistics.median(totals)
        inner = sorted(totals)[1:-1]  # drop extremes, scheduler noise
        assert all(abs(t - med) / med < 0.5 for t in inner)
