"""Command-line entry points: plan, bench, noop, field, profiles.

Exit codes: 0 success, 2 no path found, 3 configuration error,
4 runtime error.
"""

import argparse
import dataclasses
import os
import statistics
import sys
import time

from .cost import solo_families, traverse_edge
from .engine import EngineConfig, WorkerPool, noop_run, pool_evaluator
from .errors import ConfigError, NoPathError, ParameterError
from .grid import build_grid, graph_stats_rows, insert_terminal
from .mission import parse_mission, write_csv, write_path_xml
from .ocean import velocity
from .profiles import _levels, generate_dive_profiles
from .search import plan

EXIT_OK = 0
EXIT_NO_PATH = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4


def run_plan(cfg, n_workers=None):
    """One planning run: serial when n_workers is None, else through a pool
    of n_workers workers with the mission's other <engine> settings, shut
    down however the run ends. Returns (PathResult, graph, search_s,
    total_s)."""
    t_begin = time.perf_counter()
    pool = evaluator = None
    if n_workers is not None:
        pool = WorkerPool(dataclasses.replace(cfg.engine, n_workers=n_workers))
    try:
        if pool is not None and cfg.auto_sleep:
            pool.sleep_all()
        profiles = generate_dive_profiles(cfg.profile_params)
        graph = build_grid(cfg.grid)
        insert_terminal(graph, cfg.start[0], cfg.start[1], "start")
        insert_terminal(graph, cfg.goal[0], cfg.goal[1], "goal")
        if pool is not None:
            pool.wake(pool.n_workers)
            evaluator = pool_evaluator(pool)
        t_search = time.perf_counter()
        result = plan(graph, cfg.t0, profiles, cfg.env, cfg.vehicle,
                      cfg.integration, evaluator)
        search_s = time.perf_counter() - t_search
    finally:
        if pool is not None:
            pool.shutdown()
    return result, graph, search_s, time.perf_counter() - t_begin


def _find_edge(graph, frm, to):
    for edge in graph.adj[frm]:
        if edge.to == to:
            return edge
    raise RuntimeError("leg edge %d->%d not found" % (frm, to))


def write_plan_outputs(cfg, result, graph, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_path_xml(result, os.path.join(out_dir, "path.xml"))

    rows = [(result.t0, graph.nodes[graph.start_id].x,
             graph.nodes[graph.start_id].y)]
    t = result.t0
    for leg in result.legs:
        t = leg.departure + leg.travel_time
        node = graph.nodes[leg.to]
        rows.append((t, node.x, node.y))
    write_csv(os.path.join(out_dir, "path.csv"), ("t", "x", "y"), rows)

    profiles = generate_dive_profiles(cfg.profile_params)
    trace_rows = []
    for i, leg in enumerate(result.legs):
        edge = _find_edge(graph, leg.frm, leg.to)
        trace = []
        family, = solo_families([profiles[leg.profile_index]], cfg.env,
                                cfg.vehicle, cfg.integration)
        traverse_edge(edge, leg.departure, family, trace=trace)
        for t, s, x, y, z, u, v, g in trace:
            trace_rows.append((i, t, s, x, y, z, u, v, g))
    write_csv(os.path.join(out_dir, "path_trace.csv"),
              ("leg", "t", "s", "x", "y", "z", "u", "v", "g"), trace_rows)

    write_csv(os.path.join(out_dir, "graph_stats.csv"), ("stat", "value"),
              graph_stats_rows(graph))


def cmd_plan(args):
    """Plan as --serial or --parallel says, else as the mission's <run mode>
    says. A pool plan has --workers workers, or the mission's <engine
    n_workers> without the flag; --workers on a serial plan is a usage
    error."""
    cfg = parse_mission(args.mission)
    n_workers = None
    if args.parallel or cfg.run_mode == "parallel" and not args.serial:
        n_workers = (cfg.engine.n_workers if args.workers is None
                     else args.workers)
    elif args.workers is not None:
        raise ConfigError("--workers sets a pool size, but this plan runs "
                          "serially")
    result, graph, search_s, total_s = run_plan(cfg, n_workers)
    write_plan_outputs(cfg, result, graph, args.out)
    print("path: %d legs, arrival %.6f (search %.3f s, total %.3f s)"
          % (len(result.legs), result.arrival, search_s, total_s))
    return EXIT_OK


def _median_run(cfg, n_workers, repeat):
    """Median (search_s, total_s) of `repeat` run_plan runs."""
    runs = [run_plan(cfg, n_workers)[2:] for _ in range(repeat)]
    return tuple(map(statistics.median, zip(*runs)))


def bench_rows(cfg, worker_counts, repeat):
    """S-TVE once plus P-TVE per worker count; medians of `repeat` runs."""
    serial_search, serial_total = _median_run(cfg, None, repeat)
    rows = [("S-TVE", 1, serial_total * 1e3, serial_search * 1e3, 1.0)]
    for k in worker_counts:
        search_s, total_s = _median_run(cfg, k, repeat)
        rows.append(("P-TVE", k, total_s * 1e3, search_s * 1e3,
                     serial_search / search_s))
    return rows


def cmd_bench(args):
    cfg = parse_mission(args.mission)
    rows = bench_rows(cfg, parse_worker_list(args.workers), args.repeat)
    write_csv(args.out, ("variant", "n_workers", "total_ms", "search_ms",
                         "speedup"), rows)
    print("bench report written to %s (%d rows)" % (args.out, len(rows)))
    return EXIT_OK


def cmd_noop(args):
    rows = []
    for k in parse_worker_list(args.workers):
        reports = [noop_run(EngineConfig(k)) for _ in range(args.repeat)]
        for phase in ("startup_ms", "teardown_ms", "total_ms"):
            med = statistics.median(r[phase] for r in reports)
            rows.append((k, phase.replace("_ms", ""), med))
    write_csv(args.out, ("n_workers", "phase", "wall_ms"), rows)
    print("noop report written to %s" % args.out)
    return EXIT_OK


def _linspace(spec_str):
    try:
        lo_s, hi_s, n_s = spec_str.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ConfigError("expected min:max:count, got %r" % spec_str)
    if n < 1:
        raise ConfigError("sample count must be >= 1 in %r" % spec_str)
    return _levels(lo, hi, n)


def _float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError("expected comma-separated numbers, got %r" % text)


def cmd_field(args):
    cfg = parse_mission(args.mission)
    xs = _linspace(args.x)
    ys = _linspace(args.y)
    zs = _float_list(args.z)
    ts = _float_list(args.times)
    rows = []
    for t in ts:
        for z in zs:
            for y in ys:
                for x in xs:
                    s = velocity(x, y, z, t, cfg.env)
                    rows.append((t, x, y, z, s.u, s.v))
    write_csv(args.out, ("t", "x", "y", "z", "u", "v"), rows)
    print("field samples written to %s (%d rows)" % (args.out, len(rows)))
    return EXIT_OK


def cmd_profiles(args):
    cfg = parse_mission(args.mission)
    profiles = generate_dive_profiles(cfg.profile_params)
    rows = [(p.index, p.z_climb_to, p.z_dive_to) for p in profiles]
    if args.out:
        write_csv(args.out, ("index", "z_climb_to", "z_dive_to"), rows)
        print("%d profiles written to %s" % (len(rows), args.out))
    else:
        print("index,z_climb_to,z_dive_to")
        for row in rows:
            print("%d,%r,%r" % row)
    return EXIT_OK


def parse_worker_list(text):
    """Comma-separated counts and inclusive ranges, e.g. '1-8,10,47'."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "-" in tok:
            lo_s, hi_s = tok.split("-", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ConfigError("bad worker range %r" % tok)
            if lo > hi:
                raise ConfigError("bad worker range %r" % tok)
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(tok))
            except ValueError:
                raise ConfigError("bad worker count %r" % tok)
    if not out or min(out) < 1:
        raise ConfigError("worker counts must be >= 1")
    return out


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error, not argparse's exit code 2
    (no path found); subparsers are made with this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError("%s: %s" % (self.prog, message))


def count(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % n)
    return n


def build_parser():
    parser = _Parser(
        prog="gliderplan",
        description="Time-varying-environment path planner for underwater gliders")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run the path search and write results")
    p.add_argument("--mission", required=True)
    p.add_argument("--out", default=".")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--serial", action="store_true")
    mode.add_argument("--parallel", action="store_true")
    p.add_argument("--workers", type=int,
                   help="pool size of a pool plan; default <engine n_workers>")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("bench", help="serial vs parallel planning benchmark")
    p.add_argument("--mission", required=True)
    p.add_argument("--workers", default="1-8")
    p.add_argument("--repeat", type=count, default=3)
    p.add_argument("--out", default="bench.csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("noop", help="worker-pool startup/teardown overhead")
    p.add_argument("--workers", default="1-8")
    p.add_argument("--repeat", type=count, default=3)
    p.add_argument("--out", default="noop.csv")
    p.set_defaults(func=cmd_noop)

    p = sub.add_parser("field", help="sample the current field to CSV")
    p.add_argument("--mission", required=True)
    p.add_argument("--x", default="0:8:33", help="min:max:count")
    p.add_argument("--y", default="-2.5:2.5:21", help="min:max:count")
    p.add_argument("--z", default="0", help="comma-separated depths (m)")
    p.add_argument("--times", default="0", help="comma-separated times")
    p.add_argument("--out", default="field.csv")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("profiles", help="dump generated dive profiles")
    p.add_argument("--mission", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_profiles)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NoPathError as exc:
        print("no path: %s" % exc, file=sys.stderr)
        return EXIT_NO_PATH
    except ParameterError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print("runtime error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
