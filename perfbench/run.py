"""Planner benchmark: times `gliderplan plan` end to end and layer by layer.

    python3 perfbench/run.py --workload example-serial --seed 0 --seconds 50 --trace 0

Run it from the root of a source checkout; it imports gliderplan from
./src. Plans run closed-loop, one at a time, in this process. With
--trace 0 it plans the seed's missions (see workloads.py) serially, in
whole rounds for about --seconds, and reports end-to-end medians scaled
to a reference host speed (see calibration.py). With
--trace 1 it plans the seed's first mission in rounds of an untraced and a
traced serial plan and, on workloads with a pool, a traced pool plan, and
reports per-layer numbers from the traced ones. Every plan's output is
checked. The last line of standard output is the result as JSON; the line
before it holds the details, the machine and the inputs, which are also
written to perfbench/.work/results/.
"""

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

ORACLE_RTOL = 1e-9
SELF_CHECK_RTOL = 1e-9
# Share of the traced plan_s that the layers' self times may leave out.
UNACCOUNTED_MAX = 0.01

COUNTERS = ("search.settled", "search.edges_relaxed", "cost.traversals",
            "cost.infeasible", "cost.feasible_ratio", "ocean.velocity_calls",
            "engine.rounds", "engine.tasks", "engine.task_errors")


def timing_summary(values):
    """Median, the highest percentile with at least ten samples above it
    (None below eleven samples), and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail": None}
    if n > 10:
        out["tail"] = {"percentile": 100.0 * (n - 10) / n,
                       "value": ordered[n - 11]}
    return out


def machine_facts(workload):
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
    }
    if workload.pool_workers:
        facts["note"] = (
            "engine numbers come from %d pool worker threads sharing one "
            "interpreter lock; on %d cores they measure lock and delegation "
            "cost, not scaling" % (workload.pool_workers, facts["nproc"]))
    return facts


def path_problems(result):
    """Structural checks on one planned path."""
    legs = result.legs
    if not legs:
        return ["empty path"]
    out = []
    if legs[0].departure != result.t0:
        out.append("first leg departs at %r, not t0" % legs[0].departure)
    for a, b in zip(legs, legs[1:]):
        if a.to != b.frm or b.departure != a.departure + a.travel_time:
            out.append("legs %d->%d and %d->%d do not chain"
                       % (a.frm, a.to, b.frm, b.to))
    if result.arrival != legs[-1].departure + legs[-1].travel_time:
        out.append("arrival is not the last leg's end")
    return out


def cli_path_xml(mission, out_dir, flags):
    """path.xml as `gliderplan plan --out` writes it for this mission."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "gliderplan.cli", "plan", "--mission", mission,
         "--out", out_dir] + flags,
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError("gliderplan plan %s exited %d: %s"
                           % (" ".join(flags), proc.returncode,
                              proc.stderr.strip()))
    with open(os.path.join(out_dir, "path.xml"), "rb") as fh:
        return fh.read()


class Run:
    """Plans, their outputs and the problems found with them."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.plans = []   # dicts: mission, outcome, xml, n_workers, problems

    def plan(self, j, mission, clock, n_workers=None):
        """One plan of mission j, serial or through a pool of n_workers;
        returns its PlanOutcome, or None when it raised."""
        from pipeline import run_pipeline

        out_dir = os.path.join(self.work_dir, "out-%d" % j)
        entry = {"mission": j, "outcome": None, "xml": None,
                 "n_workers": n_workers, "problems": []}
        self.plans.append(entry)
        gc.collect()
        try:
            outcome = run_pipeline(mission, out_dir, n_workers, clock)
            with open(os.path.join(out_dir, "path.xml"), "rb") as fh:
                entry["xml"] = fh.read()
        except Exception as exc:  # a failed plan is counted, not fatal
            entry["problems"].append("%s: %s" % (type(exc).__name__, exc))
            return None
        entry["outcome"] = outcome
        entry["problems"] += path_problems(outcome.result)
        return outcome

    def check(self, missions):
        """Checks made once per mission, outside the timed plans; returns
        {mission: details}."""
        import reference
        from gliderplan.grid import build_grid, insert_terminal
        from gliderplan.ocean import MODE_UNIFORM

        per_mission = {}
        graph = None
        for j, mission in enumerate(missions):
            done = [p for p in self.plans
                    if p["mission"] == j and p["outcome"] is not None]
            if not done:
                continue
            first = done[0]
            info = per_mission[j] = {}
            problems = []
            # serial and pool plans of one mission must write the same bytes
            for p in done[1:]:
                if p["xml"] != first["xml"]:
                    p["problems"].append("path.xml differs from mission "
                                         "%d's first plan" % j)
            outcome = first["outcome"]
            t0 = outcome.result.t0
            # The planner samples the current every dt, so it can promise a
            # leg on which the finer reference loses the track or stalls.
            # That is the planner's discretisation, reported, not a failure.
            try:
                ref = reference.reference_arrival(outcome)
            except reference.FlightError as exc:
                info["reference_flight"] = str(exc)
            else:
                info["arrival_err"] = abs(outcome.result.arrival - ref) / (ref - t0)
            cfg = outcome.cfg
            if cfg.env.mode == MODE_UNIFORM:
                if graph is None:
                    graph = build_grid(cfg.grid)
                    insert_terminal(graph, cfg.start[0], cfg.start[1], "start")
                    insert_terminal(graph, cfg.goal[0], cfg.goal[1], "goal")
                oracle = reference.static_dijkstra_arrival(
                    graph, t0, cfg.env.ux, cfg.env.uy, cfg.vehicle.v_bf)
                rel = abs(outcome.result.arrival - oracle) / (oracle - t0)
                info["oracle_rel_diff"] = rel
                if rel > ORACLE_RTOL:
                    problems.append("arrival differs from the static Dijkstra "
                                    "oracle by %g relative" % rel)
            if j == 0:
                pools = {p["n_workers"] for p in done} - {None}
                problems += self._check_cli(mission, first["xml"], pools)
            for p in done:
                p["problems"] += problems
        return per_mission

    def _check_cli(self, mission, xml, pools):
        """The pipeline must write what the command line writes, serially
        and with each pool size the run used."""
        flags = [["--serial"]] + [["--parallel", "--workers", str(n)]
                                  for n in sorted(pools)]
        problems = []
        for i, f in enumerate(flags):
            try:
                want = cli_path_xml(mission, os.path.join(self.work_dir, "cli-%d" % i), f)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                problems.append(str(exc))
                continue
            if want != xml:
                problems.append("path.xml differs from `gliderplan plan %s`"
                                % " ".join(f))
        return problems

    def counts(self):
        attempted = len(self.plans)
        failed = sum(1 for p in self.plans if p["problems"])
        return attempted, failed

    def problems(self):
        return sorted({q for p in self.plans for q in p["problems"]})


def run_untraced(run, missions, seconds):
    from calibration import REF_CHUNK_S, SpeedSampler
    from pipeline import SETUP_STAGES, StageClock

    sampler = SpeedSampler()
    windows = []   # kernel times during each successful plan
    t_run = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for j, mission in enumerate(missions):
            with sampler.sampling() as window:
                outcome = run.plan(j, mission, StageClock(sampler.clock))
            if outcome is not None:
                windows.append(window)
        now = time.perf_counter()
        # whole rounds only, so that every mission is planned equally often
        if now - t_run + (now - t_round) / 2 >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_mission = run.check(missions)
    ok = [p["outcome"] for p in run.plans if p["outcome"] is not None]
    if not ok:
        return None, {"missions": per_mission}
    wall = {
        "plan_s": [o.plan_s for o in ok],
        "search_s": [o.stage_s["search"] for o in ok],
        "setup_s": [sum(o.stage_s.get(k, 0.0) for k in SETUP_STAGES)
                    for o in ok],
    }
    # each plan at the reference host speed; see calibration.py
    scales = [REF_CHUNK_S / statistics.fmean(w or sampler.times)
              for w in windows]
    timings = {name: timing_summary([v * k for v, k in zip(values, scales)])
               for name, values in wall.items()}
    metrics = {name: {"value": t["median"], "unit": "s"}
               for name, t in timings.items()}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    errs = [m["arrival_err"] for m in per_mission.values() if "arrival_err" in m]
    samples = [[p["mission"], p["outcome"].plan_s] for p in run.plans
               if p["outcome"] is not None]
    details = {"timings": timings,
               "calibration": dict(sampler.summary(),
                                   scale=timing_summary(scales)),
               "wall_timings": {name: timing_summary(values)
                                for name, values in wall.items()},
               "plan_s_by_mission": samples,
               "missions": per_mission,
               "arrival_err_mean": statistics.fmean(errs) if errs else None}
    return metrics, details


# Per-layer units: "s" for names ending in _s, "count" otherwise, except these.
RATIOS = ("cost.feasible_ratio", "cost.arrival_err", "engine.utilization")


def traced_plan(run, mission, n_workers):
    """One traced plan of mission 0; its layers go into the plan's entry."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        outcome = run.plan(0, mission, tracer, n_workers)
    if outcome is None:
        return None
    layers, min_self = tracer.layers(n_workers)
    entry = run.plans[-1]
    entry["layers"] = layers
    if abs(layers["trace.unaccounted_s"]) > UNACCOUNTED_MAX * layers["trace.plan_s"]:
        entry["problems"].append(
            "layer self times leave %.3g s of %.3g s unaccounted"
            % (layers["trace.unaccounted_s"], layers["trace.plan_s"]))
    if min_self < -1e-6:
        entry["problems"].append("a span is shorter than its children")
    return tracer


def merge_layers(entries):
    """Medians of the traced plans' times; counters, which must repeat."""
    first = entries[0]["layers"]
    for p in entries[1:]:
        moved = [k for k in COUNTERS if p["layers"][k] != first[k]]
        if moved:
            p["problems"].append("counters differ between traced plans: %s"
                                 % ", ".join(moved))
    return {k: first[k] if k in COUNTERS
            else statistics.median(p["layers"][k] for p in entries)
            for k in first}


def run_traced(run, missions, seconds):
    from pipeline import StageClock

    pool = run.workload.pool_workers
    untraced, last = [], None
    t_run = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        outcome = run.plan(0, missions[0], StageClock())
        if outcome is not None:
            untraced.append(outcome.plan_s)
        last = traced_plan(run, missions[0], None) or last
        if pool:
            traced_plan(run, missions[0], pool)
        now = time.perf_counter()
        if now - t_run + (now - t_round) / 2 >= seconds:
            break
    per_mission = run.check(missions[:1])
    serial = [p for p in run.plans if "layers" in p and p["n_workers"] is None]
    pooled = [p for p in run.plans if "layers" in p and p["n_workers"] is not None]
    if not serial or not untraced or (pool and not pooled):
        return None, {"missions": per_mission}
    layers = merge_layers(serial)
    if pool:
        # the engine layer exists only in the pool plans
        layers.update((k, v) for k, v in merge_layers(pooled).items()
                      if k.startswith("engine."))
    inputs = serial[0]["outcome"].inputs
    layers["profiles.count"] = inputs["profiles"]
    layers["profiles.depth_independent"] = inputs["profiles_depth_independent"]
    layers["grid.nodes"] = inputs["nodes"]
    layers["grid.edges"] = inputs["edges"]
    # 1.0, the whole travel time, when the reference cannot fly the path
    layers["cost.arrival_err"] = per_mission.get(0, {}).get("arrival_err", 1.0)
    layers["trace.untraced_plan_s"] = statistics.median(untraced)
    layers["trace.overhead_s"] = layers["trace.plan_s"] - layers["trace.untraced_plan_s"]
    metrics = {k: {"value": v, "unit": "1" if k in RATIOS
                   else "s" if k.endswith("_s") else "count"}
               for k, v in layers.items()}
    import numpy as np

    spans_path = os.path.join(WORK, "results",
                              os.path.basename(run.work_dir) + "-spans.npz")
    np.savez_compressed(spans_path, **last.span_arrays())
    details = {"missions": per_mission, "traced_serial_plans": len(serial),
               "traced_pool_plans": len(pooled), "untraced_plans": len(untraced),
               "spans": os.path.relpath(spans_path, ROOT)}
    return metrics, details


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gliderplan", "__init__.py")):
        print("perfbench: no gliderplan sources in %s; run from the root of "
              "a source checkout" % SRC, file=sys.stderr)
        return 2
    # gliderplan, and the benchmark modules that import it, load only once
    # this checkout's sources are first on the path.
    sys.path.insert(0, SRC)
    import gliderplan
    if not os.path.abspath(gliderplan.__file__).startswith(SRC + os.sep):
        print("perfbench: gliderplan imported from %s, not %s"
              % (gliderplan.__file__, SRC), file=sys.stderr)
        return 2
    import reference
    from gliderplan.mission import parse_mission
    from workloads import write_missions

    workload = WORKLOADS[args.workload]
    tag = "%s-seed%d-trace%d-%d" % (workload.name, args.seed, args.trace, os.getpid())
    work_dir = os.path.join(WORK, tag)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    os.makedirs(work_dir)
    try:
        missions = write_missions(workload, ROOT, args.seed, work_dir, parse_mission)
        run = Run(workload, work_dir)
        self_check = reference.self_check()
        if args.trace:
            metrics, details = run_traced(run, missions, args.seconds)
        else:
            metrics, details = run_untraced(run, missions, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = run.counts()
    problems = run.problems()
    if self_check > SELF_CHECK_RTOL:
        problems.append("reference integrator misses the uniform-flow closed "
                        "form by %g relative" % self_check)
    inputs = next((p["outcome"].inputs for p in run.plans
                   if p["outcome"] is not None), None)
    details.update(workload=workload.name, seed=args.seed, trace=args.trace,
                   seconds=args.seconds, machine=machine_facts(workload),
                   inputs=inputs, reference_self_check=self_check,
                   problems=problems)
    correct = metrics is not None and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics or {}}
    with open(os.path.join(WORK, "results", tag + ".json"), "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    if metrics is None:
        print("perfbench: no plan succeeded: %s" % "; ".join(problems),
              file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
