"""Span tracer for the traced benchmark run.

The tracer wraps the layers' public functions at their module attributes
while one plan runs: gliderplan.search.edge_cost, gliderplan.cost's
serial_evaluator, traverse_edge and velocity, WorkerPool.delegate, and the
pool evaluator passed to plan. The program itself is not changed.

Each thread keeps its own spans in flat arrays, so the hot velocity wrapper
takes no lock. A span's parent is the enclosing span in the same thread;
spans in pool worker threads have none. Every span also records the
pipeline stage that was open when it started. A span's self time is its
duration minus the durations of its children.
"""

import threading
import time
from array import array
from contextlib import contextmanager

import gliderplan.cost
import gliderplan.search
from gliderplan.engine import WorkerPool, rounds_required
from gliderplan.errors import EngineError

_clock = time.perf_counter


class _ThreadSpans:
    __slots__ = ("worker", "name", "stage", "parent", "start", "end", "none",
                 "stack")

    def __init__(self, worker):
        self.worker = worker
        self.name = array("i")
        self.stage = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.none = array("b")  # 1 when the call returned None
        self.stack = [-1]


class Tracer:
    """Pipeline clock that also records spans; see pipeline.StageClock."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self.threads = []
        self.stage_id = -1
        self.times = {}
        self.tails = []          # edge.frm of every edge_cost call
        self.delegations = []    # (tasks, rounds, busy_s) per delegate call
        self.task_errors = 0

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _thread_spans(self):
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans(threading.get_ident() != self._main)
            self._local.spans = spans
            with self._lock:
                self.threads.append(spans)
            return spans

    def _open(self, name_id):
        sp = self._thread_spans()
        row = len(sp.start)
        sp.name.append(name_id)
        sp.stage.append(self.stage_id)
        sp.parent.append(sp.stack[-1])
        sp.end.append(0.0)
        sp.none.append(0)
        sp.stack.append(row)
        sp.start.append(_clock())
        return sp, row

    def wrap(self, name, fn):
        name_id = self._name_id(name)
        open_span = self._open

        def traced(*args, **kwargs):
            sp, row = open_span(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                sp.end[row] = _clock()
                sp.stack.pop()
            if out is None:
                sp.none[row] = 1
            return out

        return traced

    @contextmanager
    def stage(self, name):
        name_id = self._name_id(name)
        sp, row = self._open(name_id)
        outer = self.stage_id
        self.stage_id = name_id
        try:
            yield
        finally:
            sp.end[row] = _clock()
            sp.stack.pop()
            self.stage_id = outer
            self.times[name] = (self.times.get(name, 0.0)
                                + sp.end[row] - sp.start[row])

    def evaluator(self, evaluator):
        return evaluator if evaluator is None else self.wrap("evaluator", evaluator)

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        real_edge_cost = gliderplan.search.edge_cost
        traced_edge_cost = self.wrap("edge_cost", real_edge_cost)

        def edge_cost(edge, *args, **kwargs):
            self.tails.append(edge.frm)
            return traced_edge_cost(edge, *args, **kwargs)

        traced_delegate = self.wrap("delegate", WorkerPool.delegate)

        def delegate(pool, tasks):
            try:
                results = traced_delegate(pool, tasks)
            except EngineError as exc:
                self.task_errors += len(exc.task_ids)
                raise
            self.delegations.append((
                len(results), rounds_required(len(results), pool.n_workers),
                sum(r.duration for r in results)))
            return results

        cost = gliderplan.cost
        patches = [
            (gliderplan.search, "edge_cost", edge_cost),
            (cost, "serial_evaluator",
             self.wrap("evaluator", cost.serial_evaluator)),
            (cost, "traverse_edge", self.wrap("traverse_edge", cost.traverse_edge)),
            (cost, "velocity", self.wrap("velocity", cost.velocity)),
            (WorkerPool, "delegate", delegate),
        ]
        saved = []
        try:
            for owner, attr, fn in patches:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, fn)
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def totals(self):
        """{(name, stage, worker): [self_s, inclusive_s, calls, none_calls]}
        over every recorded span, and the smallest self time seen."""
        import numpy as np

        out = {}
        min_self = 0.0
        n_names = len(self.names)
        for sp in self.threads:
            n = len(sp.start)
            if n == 0:
                continue
            dur = np.frombuffer(sp.end) - np.frombuffer(sp.start)
            parent = np.frombuffer(sp.parent, dtype=np.int32)
            nested = parent >= 0
            child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
            self_t = dur - child
            min_self = min(min_self, float(self_t.min()))
            # stage ids run from -1 (no stage open) to n_names - 1
            key = (np.frombuffer(sp.name, dtype=np.int32) * (n_names + 1)
                   + np.frombuffer(sp.stage, dtype=np.int32) + 1)
            size = n_names * (n_names + 1)
            sums = [np.bincount(key, weights=w, minlength=size)
                    for w in (self_t, dur, None,
                              np.frombuffer(sp.none, dtype=np.int8))]
            for k in np.nonzero(sums[2])[0]:
                name_id, stage_id = divmod(int(k), n_names + 1)
                stage = self.names[stage_id - 1] if stage_id else None
                acc = out.setdefault((self.names[name_id], stage, sp.worker),
                                     [0.0, 0.0, 0, 0])
                acc[0] += float(sums[0][k])
                acc[1] += float(sums[1][k])
                acc[2] += int(sums[2][k])
                acc[3] += int(round(sums[3][k]))
        return out, min_self

    def span_arrays(self):
        """All spans as flat arrays, for writing out."""
        import numpy as np

        cols = {c: [] for c in ("thread", "name", "stage", "parent", "start", "end")}
        for i, sp in enumerate(self.threads):
            cols["thread"].append(np.full(len(sp.start), i, dtype=np.int32))
            cols["name"].append(np.frombuffer(sp.name, dtype=np.int32))
            cols["stage"].append(np.frombuffer(sp.stage, dtype=np.int32))
            cols["parent"].append(np.frombuffer(sp.parent, dtype=np.int32))
            cols["start"].append(np.frombuffer(sp.start))
            cols["end"].append(np.frombuffer(sp.end))
        arrays = {c: np.concatenate(v) for c, v in cols.items()}
        arrays["names"] = np.array(self.names)
        return arrays

    def layers(self, n_workers):
        """Per-layer numbers of the plan this tracer recorded.

        n_workers is the pool size, or None for a serial plan. Cost and
        ocean numbers count only the search; the output writer's own
        re-simulation is inside cli.write_s.
        """
        totals, min_self = self.totals()

        def pick(name, field, stage=None, worker=None):
            return sum(v[field] for (n, st, wk), v in totals.items()
                       if n == name and (stage is None or st == stage)
                       and (worker is None or wk == worker))

        def incl(stage):
            return pick(stage, 1)

        tasks = sum(d[0] for d in self.delegations)
        busy = sum(d[2] for d in self.delegations)
        delegate_s = pick("delegate", 0)
        traversals = pick("traverse_edge", 2, "search")
        infeasible = pick("traverse_edge", 3, "search")
        out = {
            "mission.parse_s": incl("mission.parse"),
            "profiles.generate_s": incl("profiles.generate"),
            "grid.build_s": incl("grid.build"),
            "grid.terminal_s": incl("grid.terminal"),
            "search.self_s": pick("search", 0),
            "search.settled": len(set(self.tails)),
            "search.edges_relaxed": pick("edge_cost", 2, "search"),
            "cost.edge_cost_self_s": pick("edge_cost", 0, "search"),
            "cost.evaluator_self_s": pick("evaluator", 0, "search"),
            "cost.traverse_self_s": pick("traverse_edge", 0, "search"),
            "cost.traversals": traversals,
            "cost.infeasible": infeasible,
            "cost.feasible_ratio": ((traversals - infeasible) / traversals
                                    if traversals else 0.0),
            "ocean.velocity_s": pick("velocity", 0, "search"),
            "ocean.velocity_calls": pick("velocity", 2, "search"),
            "engine.start_s": incl("engine.start"),
            "engine.delegate_s": delegate_s,
            "engine.busy_s": busy,
            "engine.wait_s": delegate_s - busy / n_workers if n_workers else 0.0,
            "engine.utilization": (busy / (delegate_s * n_workers)
                                   if n_workers and delegate_s else 0.0),
            "engine.rounds": sum(d[1] for d in self.delegations),
            "engine.tasks": tasks,
            "engine.task_errors": self.task_errors,
            "engine.shutdown_s": incl("engine.shutdown"),
            "cli.write_s": incl("cli.write"),
        }
        # The main thread's layers must cover the whole pipeline: what is
        # left is the pipeline span's own time between the stages.
        accounted = sum(out[k] for k in (
            "mission.parse_s", "profiles.generate_s", "grid.build_s",
            "grid.terminal_s", "engine.start_s", "search.self_s",
            "cost.edge_cost_self_s", "cost.evaluator_self_s",
            "engine.delegate_s", "engine.shutdown_s", "cli.write_s"))
        accounted += pick("traverse_edge", 0, "search", worker=False)
        accounted += pick("velocity", 0, "search", worker=False)
        plan_s = incl("pipeline")
        out["trace.plan_s"] = plan_s
        out["trace.unaccounted_s"] = plan_s - accounted
        return out, min_self
