import math
import random

import pytest
from hypothesis import example, given, reject, settings, strategies as st

import gliderplan as gp
import gliderplan.search
from gliderplan.ocean import MODES
from conftest import (EXAMPLE_MISSION, all_edges, benchmark_missions,
                      explicit_graph)
from oracle import brute_force_plan


def make_instance(seed):
    """Small randomized planning instance on a 3x3 lattice with a
    time-varying but horizontally uniform (surface-only) flow kept well
    below the vehicle speed."""
    rng = random.Random(seed)
    g = gp.build_grid(gp.GridSpec(0, 1.0, 0, 1.0, 0.5, 1))
    gp.insert_terminal(g, rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.95),
                       "start")
    gp.insert_terminal(g, rng.uniform(0.7, 0.95), rng.uniform(0.05, 0.95),
                       "goal")
    surf = gp.SurfaceCurrentParams(W0=rng.uniform(0.05, 0.2),
                                   d=rng.uniform(0.5, 2.0))
    jet = gp.JetParams(omega=rng.uniform(0.2, 0.6))
    env = gp.FlowEnvironment(jet=jet, surface=surf, mode="surface")
    profiles = gp.generate_dive_profiles(
        gp.DiveProfileParams(0.0, rng.choice([40.0, 60.0]), 20.0, 10.0, 2, 2))
    veh = gp.VehicleParams(v_bf=0.5, w_vert=rng.uniform(50, 200))
    integ = gp.IntegrationParams(dt=0.05)
    t0 = rng.uniform(0, 3)
    return g, t0, profiles, env, veh, integ


def example_instance(t0=None):
    """The example mission's planning instance, at its own t0 or another."""
    return mission_instance(EXAMPLE_MISSION, t0)


def mission_instance(mission, t0=None):
    """A mission file's planning instance, at its own t0 or another."""
    cfg = gp.parse_mission(str(mission))
    g = gp.build_grid(cfg.grid)
    gp.insert_terminal(g, *cfg.start, "start")
    gp.insert_terminal(g, *cfg.goal, "goal")
    profiles = gp.generate_dive_profiles(cfg.profile_params)
    return (g, cfg.t0 if t0 is None else t0, profiles, cfg.env, cfg.vehicle,
            cfg.integration)


def legs_of(result):
    """(tail, head) of each leg of a plan's result, in path order."""
    return [(leg.frm, leg.to) for leg in result.legs]


def recording(evaluator, calls):
    """evaluator that also appends (tasks, times) of each call to calls."""
    def evaluate(tasks):
        times = evaluator(tasks)
        calls.append((tasks, times))
        return times
    return evaluate


def fifo_holds(g, t0, profiles, env, veh, integ, n_edges=12, n_times=4):
    """Sampled FIFO check: later departures never arrive earlier."""
    families = gp.solo_families(profiles, env, veh, integ)
    for edge in all_edges(g)[::7][:n_edges]:
        last = None
        for i in range(n_times):
            t = t0 + i * 0.8
            res = gp.edge_cost(edge, t, families)
            if res.best_time is None:
                continue
            arrival = t + res.best_time
            if last is not None and arrival < last - 1e-12:
                return False
            last = arrival
    return True


def fifo_instances(n, start_seed=0):
    found = []
    seed = start_seed
    while len(found) < n:
        inst = make_instance(seed)
        seed += 1
        if fifo_holds(*inst):
            found.append(inst)
    return found


def two_node_graph(length=1.0):
    # the 2 x 2 lattice with only its direct diagonal edge
    spec = gp.GridSpec(0, length, 0, length, length, 1)
    g = gp.build_grid(spec)
    return explicit_graph(spec, [(n.x, n.y) for n in g.nodes], {0: [3]},
                          0, 3)


class TestPlanBasics:
    def test_single_edge_still_water(self, veh, integ):
        spec = gp.GridSpec(0, 1, 0, 1, 1.0, 1)
        lattice = gp.build_grid(spec).nodes
        g = explicit_graph(spec, [(n.x, n.y) for n in lattice], {0: [1]},
                           0, 1)
        res = gp.plan(g, 0.0, [gp.DiveProfile(0.0, 200.0, 0)],
                      gp.FlowEnvironment.still(), veh, integ)
        assert len(res.legs) == 1
        assert res.arrival - res.t0 == pytest.approx(2.0, abs=integ.dt)

    def test_missing_terminals_rejected(self, veh, integ):
        g = gp.build_grid(gp.GridSpec(0, 1, 0, 1, 0.5, 1))
        with pytest.raises(gp.ParameterError):
            gp.plan(g, 0.0, [gp.DiveProfile(0.0, 200.0, 0)],
                    gp.FlowEnvironment.still(), veh, integ)

    def test_unreachable_goal(self, veh, integ):
        g = gp.build_grid(gp.GridSpec(0, 1, 0, 1, 0.5, 1))
        gp.insert_terminal(g, 0.9, 0.5, "start")
        gp.insert_terminal(g, 0.1, 0.5, "goal")
        env = gp.FlowEnvironment.uniform(0.6, 0.0)  # eastward, goal is west
        with pytest.raises(gp.NoPathError):
            gp.plan(g, 0.0, [gp.DiveProfile(0.0, 200.0, 0)], env, veh, integ)

    def test_still_water_grid_matches_geometry(self, veh, integ):
        g = gp.build_grid(gp.GridSpec(0, 1, 0, 1, 0.5, 1))
        gp.insert_terminal(g, 0.0, 0.0, "start")
        gp.insert_terminal(g, 1.0, 1.0, "goal")
        env = gp.FlowEnvironment.still()
        profiles = [gp.DiveProfile(0.0, 200.0, 0)]
        res = gp.plan(g, 0.0, profiles, env, veh, integ)
        bf = brute_force_plan(g, 0.0, profiles, env, veh, integ, max_hops=8)
        # shortest lattice route: 0.5 axis hop, center diagonal, 0.5 hop
        assert res.arrival - res.t0 == pytest.approx(2 + math.sqrt(2),
                                                     rel=1e-9)
        assert res.arrival == bf.arrival

    def test_arrival_times_strictly_increase(self, veh):
        g, t0, profiles, env, _veh, integ = make_instance(3)
        res = gp.plan(g, t0, profiles, env, _veh, integ)
        times = [res.t0] + [leg.departure + leg.travel_time for leg in res.legs]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert times[-1] == res.arrival

    def test_resimulation_consistency(self):
        g, t0, profiles, env, veh, integ = make_instance(4)
        res = gp.plan(g, t0, profiles, env, veh, integ)
        families = gp.solo_families(profiles, env, veh, integ)
        for leg in res.legs:
            edge = next(e for e in g.adj[leg.frm] if e.to == leg.to)
            again = gp.edge_cost(edge, leg.departure, families)
            assert again.best_time == leg.travel_time  # bit-exact
            assert again.best_profile_index == leg.profile_index

    def test_deterministic_across_evaluators(self):
        g, t0, profiles, env, veh, integ = make_instance(5)
        serial = gp.plan(g, t0, profiles, env, veh, integ)
        with gp.WorkerPool(gp.EngineConfig(3)) as pool:
            parallel = gp.plan(g, t0, profiles, env, veh, integ,
                               gp.pool_evaluator(pool))
        assert serial.legs == parallel.legs
        assert serial.arrival == parallel.arrival


class TestCostedEdges:
    def test_no_edge_into_a_settled_head(self):
        for inst in [make_instance(seed) for seed in range(6)] + [
                example_instance()]:
            calls = []
            gp.plan(*inst, recording(gp.serial_evaluator, calls))
            assert calls
            tails = set()
            for tasks, _times in calls:
                edge = tasks[0].edge
                tails.add(edge.frm)
                assert edge.to not in tails

    def test_no_flight_starts_at_or_past_its_deadline(self, tmp_path):
        # an edge into a head reached before the departure is not flown:
        # it could only arrive later
        insts = [example_instance(t0) for t0 in (0.0, 1.5, 3.0)] + [
            mission_instance(m) for m in benchmark_missions(tmp_path)]
        for inst in insts:
            calls = []
            gp.plan(*inst, recording(gp.serial_evaluator, calls))
            assert calls
            for tasks, _times in calls:
                for task in tasks:
                    assert task.t_start < task.t_limit

    def test_lattice_plan_makes_few_edges(self, monkeypatch, tmp_path):
        mission, = benchmark_missions(tmp_path)[:1]
        inst = mission_instance(mission)
        assert inst[0].n_edges() == 125_262
        made = []
        real_edge = gp.Graph.edge

        def edge(g, a, b):
            made.append((a, b))
            return real_edge(g, a, b)

        monkeypatch.setattr(gp.Graph, "edge", edge)
        gp.plan(*inst)
        assert 0 < len(made) < 0.03 * 125_262

    def test_pool_and_serial_cut_the_same_traversals(self):
        inst = example_instance(t0=2.0)
        serial_calls, pool_calls = [], []
        serial = gp.plan(*inst, recording(gp.serial_evaluator, serial_calls))
        with gp.WorkerPool(gp.EngineConfig(2)) as pool:
            parallel = gp.plan(*inst, recording(gp.pool_evaluator(pool),
                                                pool_calls))
        assert serial == parallel

        def nones(calls):
            return [t is None for _tasks, times in calls for t in times]

        assert nones(serial_calls) == nones(pool_calls)
        cut = [task for tasks, times in serial_calls
               for task, t in zip(tasks, times)
               if t is None
               and task._replace(t_limit=math.inf).run() is not None]
        assert cut  # the deadlines did cut traversals


class TestFamilies:
    """plan() flies profiles in families; the outputs are those of flying
    every profile alone."""

    @pytest.mark.parametrize("t0", [0.0, 1.0, 2.0, 3.0])
    def test_plan_equals_plan_with_one_member_families(self, monkeypatch,
                                                       t0):
        inst = example_instance(t0)
        grouped = gp.plan(*inst)
        monkeypatch.setattr(gliderplan.search, "profile_families",
                            gp.solo_families)
        alone = gp.plan(*inst)
        assert grouped == alone
        assert repr(grouped) == repr(alone)

    def test_brute_force_flies_every_profile_alone(self):
        g, t0, profiles, env, veh, integ = make_instance(3)
        calls = []
        brute_force_plan(g, t0, profiles, env, veh, integ,
                         recording(gp.serial_evaluator, calls), max_hops=4)
        flown = [task.family.profiles for tasks, _times in calls
                 for task in tasks]
        assert calls
        assert all(len(members) == 1 for members in flown)
        assert len(flown) == len(calls) * len(profiles)


class TestBruteForce:
    def test_single_edge_matches_plan(self, veh, integ):
        g = two_node_graph()
        profiles = [gp.DiveProfile(0.0, 200.0, 0)]
        env = gp.FlowEnvironment.still()
        a = gp.plan(g, 0.0, profiles, env, veh, integ)
        b = brute_force_plan(g, 0.0, profiles, env, veh, integ)
        assert a.arrival == b.arrival
        assert a.legs == b.legs

    def test_triangle_picks_faster_route(self, veh, integ):
        # direct edge against a two-hop detour with a strong tailwind on
        # the detour: uniform flow keeps costs hand-computable
        g = gp.build_grid(gp.GridSpec(0, 1, 0, 1, 0.5, 1))
        gp.insert_terminal(g, 0.0, 0.5, "start")
        gp.insert_terminal(g, 1.0, 0.5, "goal")
        env = gp.FlowEnvironment.uniform(0.3, 0.0)
        profiles = [gp.DiveProfile(0.0, 200.0, 0)]
        res = brute_force_plan(g, 0.0, profiles, env, veh, integ,
                               max_hops=6)
        # eastbound straight line with tailwind: t = 1.0 / 0.8
        assert res.arrival == pytest.approx(1.0 / 0.8, abs=3 * integ.dt)

    def test_no_path_within_hop_bound(self, veh, integ):
        g = two_node_graph()
        env = gp.FlowEnvironment.uniform(-0.5, -0.5)
        with pytest.raises(gp.NoPathError):
            brute_force_plan(g, 0.0, [gp.DiveProfile(0.0, 200.0, 0)],
                             env, veh, integ)


class TestOptimalityOracle:
    def test_plan_matches_brute_force_on_random_instances(self):
        for inst in fifo_instances(25, start_seed=100):
            g, t0, profiles, env, veh, integ = inst
            a = gp.plan(g, t0, profiles, env, veh, integ)
            b = brute_force_plan(g, t0, profiles, env, veh, integ,
                                 max_hops=8)
            assert abs(a.arrival - b.arrival) <= 1e-9

    def test_collapsed_plan_matches_brute_force_over_every_profile(self):
        # plan() flies the profiles in families; the oracle flies each
        # profile alone
        checked = 0
        for seed in range(200, 215):
            g, t0, profiles, env, veh, integ = make_instance(seed)
            n = len(profiles)
            profiles = profiles + [
                gp.DiveProfile(zc, zd, n + i) for i, (zc, zd) in
                enumerate([(15.0, 60.0), (30.0, 45.0), (20.0, 70.0)])]
            assert (len(gp.profile_families(profiles, env, veh, integ))
                    < len(profiles))
            if not fifo_holds(g, t0, profiles, env, veh, integ):
                continue
            a = gp.plan(g, t0, profiles, env, veh, integ)
            b = brute_force_plan(g, t0, profiles, env, veh, integ,
                                 max_hops=8)
            assert abs(a.arrival - b.arrival) <= 1e-9
            if legs_of(a) == legs_of(b):
                assert a.legs == b.legs
            checked += 1
        assert checked >= 10

    def test_example_walk_beats_plan_where_costs_are_not_fifo(self):
        # The example's edge costs are not FIFO, so plan() can miss the
        # fastest path. At t0 = 0 it reaches node 14 at its label 1.38,
        # where 14 -> 23 cannot be flown; the walk below reaches 14 at
        # 2.93 and flies it. Each leg departs at the previous arrival and
        # flies every profile family, as plan() flies an edge.
        g, t0, profiles, env, veh, integ = example_instance(0.0)
        res = gp.plan(g, t0, profiles, env, veh, integ)
        assert legs_of(res) == [(35, 15), (15, 9), (9, 24), (24, 25),
                                (25, 36)]
        assert res.arrival == pytest.approx(9.719796044469643, abs=1e-4)
        families = gp.profile_families(profiles, env, veh, integ)
        walk = [35, 8, 7, 14, 23, 24, 36]
        t = t0
        for a, b in zip(walk, walk[1:]):
            assert b in g.heads(a)
            t += gp.edge_cost(g.edge(a, b), t, families).best_time
        assert t == pytest.approx(5.039411357194515, abs=1e-4)
        assert t < res.arrival


def plan_without_bound(*args):
    """plan() with h = 0, which is Dijkstra: the current disk is made
    infinitely wide, so the time-to-goal bound is 0 everywhere."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gliderplan.search, "current_disk",
                   lambda env: (0.0, 0.0, math.inf))
        return gp.plan(*args)


def outcome(plan_fn, inst):
    """repr of the PathResult, or the NoPathError."""
    try:
        return repr(plan_fn(*inst))
    except gp.NoPathError as exc:
        return repr(exc)


@st.composite
def flow_environments(draw):
    """A FlowEnvironment in any flow mode, with uniform currents up to 0.8
    along each axis."""
    jet = gp.JetParams(B0=draw(st.floats(0.1, 2.0)),
                       epsilon=draw(st.floats(0.0, 1.0)),
                       omega=draw(st.floats(-1.0, 1.0)),
                       k=draw(st.floats(0.1, 2.0)),
                       c=draw(st.floats(-1.0, 1.0)))
    surface = gp.SurfaceCurrentParams(W0=draw(st.floats(-1.0, 1.0)),
                                      d=draw(st.floats(-3.0, 3.0)),
                                      z_decay=draw(st.floats(5.0, 60.0)))
    return gp.FlowEnvironment(jet, surface, draw(st.sampled_from(MODES)),
                              draw(st.floats(-0.8, 0.8)),
                              draw(st.floats(-0.8, 0.8)))


@st.composite
def vehicles(draw):
    """VehicleParams with v_bf from 0.2 to 1.5, often 0.5, so that some
    currents outrun the vehicle."""
    return gp.VehicleParams(v_bf=draw(st.one_of(st.just(0.5),
                                                st.floats(0.2, 1.5))),
                            w_vert=draw(st.floats(50.0, 200.0)))


@st.composite
def small_missions(draw, start_near_a_node=False):
    """A planning instance on a lattice of at most 9 x 7 nodes, in any flow
    mode, currents faster than the vehicle included. Terminals are often
    on lattice points, and the lattice sides often commensurate, which
    makes arrival ties between routes likely. With start_near_a_node the
    start is 1-4 ulps east or west of a grid node."""
    h = draw(st.sampled_from([0.2, 0.25, 0.4, 0.5]))
    spec = gp.GridSpec(0.0, draw(st.sampled_from([0.8, 1.2, 1.6])), 0.0,
                       draw(st.sampled_from([0.8, 1.2])), h,
                       draw(st.integers(1, 3)))
    nx, ny = spec.shape

    def coordinate(n, top):
        return draw(st.one_of(st.floats(0.0, top),
                              st.integers(0, n - 1).map(
                                  lambda i: min(i * h, top))))

    def near_a_node():
        x = draw(st.integers(1, nx - 1)) * h
        toward = draw(st.sampled_from([-math.inf, math.inf]))
        for _ in range(draw(st.integers(1, 4))):
            x = math.nextafter(x, toward)
        return x, min(draw(st.integers(0, ny - 1)) * h, spec.y_max)

    g = gp.build_grid(spec)
    for role in ("start", "goal"):
        if role == "start" and start_near_a_node:
            x, y = near_a_node()
        else:
            x, y = coordinate(nx, spec.x_max), coordinate(ny, spec.y_max)
        try:
            gp.insert_terminal(g, x, y, role)
        except gp.ParameterError:
            # a terminal a subnormal distance from a grid node, which
            # Graph.edge refuses, or one an ulp outside the box
            reject()
    env = draw(flow_environments())
    profiles = gp.generate_dive_profiles(gp.DiveProfileParams(
        0.0, 200.0, 40.0, 50.0, draw(st.integers(1, 3)),
        draw(st.integers(1, 3))))
    veh = draw(vehicles())
    integ = gp.IntegrationParams(
        dt=draw(st.sampled_from([0.02, 0.05, 0.1, 0.25, 1.0])))
    t0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    return g, t0, profiles, env, veh, integ


def parallelogram_instance():
    """Still water on a hand-built graph where two routes tie exactly at
    node 3: 0 -> 1 -> 3 flies edges of times 1 and 2, 0 -> 2 -> 3 flies
    the same times the other way round. A* settles node 2 first (its
    bound to the goal at node 4 is the smaller), Dijkstra node 1 (it is
    reached first)."""
    g = explicit_graph(
        gp.GridSpec(0.0, 0.5, 0.0, 1.5, 0.5, 1),
        [(0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.5, 1.0), (0.5, 1.5)],
        {0: [1, 2], 1: [3], 2: [3], 3: [4]}, 0, 4)
    return (g, 0.0, [gp.DiveProfile(0.0, 200.0, 0)],
            gp.FlowEnvironment.still(), gp.VehicleParams(),
            gp.IntegrationParams(dt=0.1))


def goal_bound(g, env, veh):
    """h as plan() reads it: the straight-leg bound from a node to the
    goal terminal."""
    bound = gliderplan.search._leg_bound(env, veh)
    gx, gy = g.xs[g.goal_id], g.ys[g.goal_id]
    return lambda n: bound(gx - g.xs[n], gy - g.ys[n])


def start_an_ulp_from_a_grid_node():
    """A start 2**-52 east of grid node 0, on the line from that node to
    the goal, in a uniform current. The straight-leg bounds of the two
    differ by more than the flight between them takes."""
    g = gp.build_grid(gp.GridSpec(0.0, 0.8, 0.0, 0.8, 0.2, 1))
    gp.insert_terminal(g, 2.0 ** -52, 0.0, "start")
    gp.insert_terminal(g, 0.5, 0.0, "goal")
    return (g, 0.0, [gp.DiveProfile(0.0, 200.0, 0)],
            gp.FlowEnvironment.uniform(0.1875, 0.0),
            gp.VehicleParams(v_bf=1.0, w_vert=50.0),
            gp.IntegrationParams(dt=0.02))


class TestAStar:
    """plan() is A* with a consistent time-to-goal bound; it finds the
    path that Dijkstra (the same search with h = 0) finds."""

    @settings(max_examples=200, deadline=None)
    @given(inst=small_missions())
    @example(inst=start_an_ulp_from_a_grid_node())
    def test_plan_equals_plan_with_h_zero(self, inst):
        assert outcome(gp.plan, inst) == outcome(plan_without_bound, inst)

    @settings(max_examples=60, deadline=None)
    @given(inst=small_missions())
    def test_bound_is_consistent(self, inst):
        """h is consistent on every edge where neither end is the start.
        plan() needs no more: the start pops first, no edge into it is
        flown, and edges out of it are keyed without h(start). On a link
        at a start closer to a grid node than the rounding of h, h need
        not be consistent (TestBounds)."""
        g, t0, profiles, env, veh, integ = inst
        h = goal_bound(g, env, veh)
        assert h(g.goal_id) == 0.0
        families = gp.profile_families(profiles, env, veh, integ)
        for edge in all_edges(g):
            if g.start_id in (edge.frm, edge.to):
                continue
            res = gp.edge_cost(edge, t0, families)
            if res.best_time is not None:
                assert h(edge.frm) <= res.best_time + h(edge.to)

    def test_uniform_bound_is_the_straight_line_time(self, veh, integ):
        g = gp.build_grid(gp.GridSpec(0, 1, 0, 1, 0.5, 1))
        gp.insert_terminal(g, 0.0, 0.0, "start")
        gp.insert_terminal(g, 1.0, 1.0, "goal")
        env = gp.FlowEnvironment.uniform(0.3, 0.0)
        h = goal_bound(g, env, veh)
        # along the diagonal the current gives 0.3 / sqrt(2) along track
        # and as much across it
        c = 0.3 / math.sqrt(2.0)
        speed = c + math.sqrt(veh.v_bf ** 2 - c * c)
        assert h(g.start_id) == pytest.approx(math.sqrt(2.0) / speed,
                                              rel=1e-11)
        assert h(g.start_id) < math.sqrt(2.0) / speed

    def test_tied_routes_keep_the_dijkstra_predecessor(self):
        inst = parallelogram_instance()
        res = gp.plan(*inst)
        assert res == plan_without_bound(*inst)
        assert legs_of(res) == [(0, 1), (1, 3), (3, 4)]
        assert res.legs[1].departure + res.legs[1].travel_time == (
            res.legs[0].travel_time + res.legs[1].travel_time)

    def test_lattice_costs_under_a_tenth_of_the_edges(self, tmp_path):
        # the benchmark's lattice-uniform missions, the current turned by
        # 0, 1/4, 1/2 and 3/4 of a turn
        for mission in benchmark_missions(tmp_path):
            inst = mission_instance(mission)
            a_star, dijkstra = [], []
            res = gp.plan(*inst, recording(gp.serial_evaluator, a_star))
            assert res == plan_without_bound(
                *inst, recording(gp.serial_evaluator, dijkstra))
            assert len(a_star) < 0.1 * len(dijkstra)


def late_tie_instance():
    """Still water on a hand-built graph where two routes tie exactly at
    node 3: 0 -> 1 -> 3 flies edges of times 2 and 1, 0 -> 2 -> 3 the
    same times the other way round. A* settles node 1 first (its bound to
    the goal at node 4 is the smaller), Dijkstra node 2 (it is reached
    first), whose id is the larger. t0 is 2**20 and dt 0.5, so that every
    flight time is exact and every sum of them lands on a float. An ulp
    there is 2**-32, so the bounds' shrink (1e-12) rounds away: a
    candidate's key is the key its head gets from the flight."""
    g = explicit_graph(
        gp.GridSpec(0.0, 0.5, 0.0, 1.5, 0.5, 1),
        [(0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0), (0.5, 1.5)],
        {0: [1, 2], 1: [3], 2: [3], 3: [4]}, 0, 4)
    return (g, 2.0 ** 20, [gp.DiveProfile(0.0, 200.0, 0)],
            gp.FlowEnvironment.still(), gp.VehicleParams(),
            gp.IntegrationParams(dt=0.5))


class TestLazyEdges:
    """plan() queues each edge unflown, keyed on a lower bound of its
    arrival, and flies it only when that key pops."""

    def test_candidate_at_its_heads_key_is_flown_before_the_head_settles(
            self):
        inst = late_tie_instance()
        g, t0, _profiles, env, veh, _integ = inst
        flown = []
        res = gp.plan(*inst, recording(gp.serial_evaluator, flown))
        assert res == plan_without_bound(*inst)
        assert legs_of(res) == [(0, 2), (2, 3), (3, 4)]
        # 1 -> 3 is flown first and labels node 3; 2 -> 3 ties that label
        # and is flown before node 3 settles, at node 3's key
        edges = [(tasks[0].edge.frm, tasks[0].edge.to)
                 for tasks, _times in flown]
        assert edges.index((1, 3)) < edges.index((2, 3))
        leg_02, leg_23, _leg_34 = res.legs
        arrival_2 = leg_02.departure + leg_02.travel_time
        arrival_3 = leg_23.departure + leg_23.travel_time
        assert (arrival_2, arrival_3) == (t0 + 1.0, t0 + 3.0)
        bound = gliderplan.search._leg_bound(env, veh)
        h = goal_bound(g, env, veh)
        (_, x2, y2), (_, x3, y3) = g.nodes[2], g.nodes[3]
        key = arrival_2 + bound(x3 - x2, y3 - y2) + h(3)
        assert key == arrival_3 + h(3)

    def test_lattice_flies_81_edges_per_mission(self, tmp_path):
        # the benchmark's lattice-uniform missions, the current turned by
        # 0, 1/4, 1/2 and 3/4 of a turn
        for mission in benchmark_missions(tmp_path):
            inst = mission_instance(mission)
            flown = []
            res = gp.plan(*inst, recording(gp.serial_evaluator, flown))
            assert len(flown) == 81
            assert res == plan_without_bound(*inst)


class TestBounds:
    """The two bounds plan() keys its queue on: lb on an edge's flight
    time, and h, consistent on every edge where neither end is the start.
    On a link at a start an ulp from a grid node h need not be, and plan()
    still finds the path Dijkstra finds."""

    @settings(max_examples=60, deadline=None)
    @given(inst=small_missions())
    def test_edge_bound_is_at_most_the_flight_time(self, inst):
        g, t0, profiles, env, veh, integ = inst
        lb = gliderplan.search._leg_bound(env, veh)
        families = gp.profile_families(profiles, env, veh, integ)
        for edge in all_edges(g):
            res = gp.edge_cost(edge, t0, families)
            (_, ax, ay), (_, bx, by) = g.nodes[edge.frm], g.nodes[edge.to]
            if res.best_time is not None:
                assert lb(bx - ax, by - ay) <= res.best_time

    def test_start_an_ulp_from_a_grid_node_needs_no_consistent_bound(self):
        inst = start_an_ulp_from_a_grid_node()
        g, t0, profiles, env, veh, integ = inst
        assert gp.plan(*inst) == plan_without_bound(*inst)
        h = goal_bound(g, env, veh)
        families = gp.profile_families(profiles, env, veh, integ)
        times = {}
        for edge in all_edges(g):
            times[edge.frm, edge.to] = gp.edge_cost(edge, t0,
                                                    families).best_time
            if g.start_id not in (edge.frm, edge.to):
                assert h(edge.frm) <= times[edge.frm, edge.to] + h(edge.to)
        # the straight-leg bound is not consistent on the link 0 -> start
        assert h(0) > times[0, g.start_id] + h(g.start_id)

    @settings(max_examples=100, deadline=None)
    @given(inst=small_missions(start_near_a_node=True))
    def test_start_ulps_from_a_grid_node_plans_as_h_zero(self, inst):
        assert outcome(gp.plan, inst) == outcome(plan_without_bound, inst)


@st.composite
def lattice_specs(draw):
    """A GridSpec of at most 12 x 12 nodes, its corner up to 1e6 from the
    origin and h from 1e-8 to 3, so that rounding moves the node
    coordinates by up to a large share of h; sector_order 1-4, so nx and ny
    are often at most 2 * sector_order."""
    def corner():
        return draw(st.one_of(st.just(0.0), st.floats(-1e6, 1e6),
                              st.sampled_from([-1e6, 1e6 - 1.0, 1e6])))

    h = 10.0 ** draw(st.floats(-8.0, 0.5))
    x_min, y_min = corner(), corner()
    # half a step past the last node, so rounding keeps the node count
    x_max = x_min + (draw(st.integers(1, 11)) + 0.5) * h
    y_max = y_min + (draw(st.integers(1, 11)) + 0.5) * h
    try:
        return gp.GridSpec(x_min, x_max, y_min, y_max, h,
                           draw(st.integers(1, 4)))
    except gp.ParameterError:
        reject()


def lattice_legs(g, tails):
    """(tail id, head id, ex, ey) of every lattice edge out of tails."""
    nodes, n_lattice = g.nodes, g.n_lattice
    for n in tails:
        _, x, y = nodes[n]
        for m in g.heads(n):
            if m < n_lattice:
                _, mx, my = nodes[m]
                yield n, m, mx - x, my - y


def far_lattice_instance(turn=0.0):
    """A lattice-uniform-like mission 1e6 east and 1e6 south of the
    origin: at h = 0.1 rounding moves a lattice leg by about 1e-10, a
    relative 1e-9 of the leg, far more than lb's shrink of 1e-12."""
    spec = gp.GridSpec(1e6, 1e6 + 2.0, -1e6, -1e6 + 1.2, 0.1, 3)
    g = gp.build_grid(spec)
    gp.insert_terminal(g, 1e6 + 0.15, -1e6 + 0.55, "start")
    gp.insert_terminal(g, 1e6 + 1.85, -1e6 + 0.65, "goal")
    c, s = math.cos(turn), math.sin(turn)
    env = gp.FlowEnvironment.uniform(0.15 * c - 0.05 * s,
                                     0.15 * s + 0.05 * c)
    return (g, 0.0, [gp.DiveProfile(0.0, 200.0, 0)], env,
            gp.VehicleParams(v_bf=0.5, w_vert=100.0),
            gp.IntegrationParams(dt=1.0))


class TestLatticeTable:
    """plan() reads a lattice edge's lb from a per-offset table
    (search._lattice_bounds), which is at most the bound of the edge's own
    leg, and so at most its flight time (TestBounds)."""

    @settings(max_examples=150, deadline=None)
    @given(spec=lattice_specs(), env=flow_environments(), veh=vehicles())
    @example(spec=gp.GridSpec(1e6 - 0.55, 1e6, -1e6, -1e6 + 0.25, 0.1, 4),
             env=gp.FlowEnvironment.uniform(0.8, 0.0),
             veh=gp.VehicleParams(v_bf=0.5))
    def test_table_is_at_most_each_edges_own_bound(self, spec, env, veh):
        try:
            g = gp.build_grid(spec)
        except gp.ParameterError:
            reject()  # lattice points that rounding collapses
        bound = gliderplan.search._leg_bound(env, veh)
        table = gliderplan.search._lattice_bounds(g, bound)
        for n, m, ex, ey in lattice_legs(g, range(len(g.nodes))):
            assert table[m - n] <= bound(ex, ey)

    def test_table_holds_at_the_node_cap_far_from_the_origin(self):
        # h as small as MAX_NODES allows on a 1,999-wide box at 1e6; its
        # tails checked near each corner and at a stride between them
        spec = gp.GridSpec(1e6 - 1999.0, 1e6, 1e6 - 0.0041, 1e6, 0.004, 3)
        nx, ny = spec.shape
        assert gp.grid.MAX_NODES - 1000 < nx * ny <= gp.grid.MAX_NODES
        g = gp.build_grid(spec)
        env = gp.FlowEnvironment.uniform(0.15, 0.05)
        veh = gp.VehicleParams()
        bound = gliderplan.search._leg_bound(env, veh)
        table = gliderplan.search._lattice_bounds(g, bound)
        assert 0.0 < min(table.values())
        tails = set(range(0, nx * ny, 997))
        for j in range(ny):
            tails.update(range(j * nx, j * nx + 4))
            tails.update(range((j + 1) * nx - 4, (j + 1) * nx))
        for n, m, ex, ey in lattice_legs(g, sorted(tails)):
            assert table[m - n] <= bound(ex, ey)

    def test_graphs_build_grid_did_not_make_have_no_table(self):
        spec = gp.GridSpec(0, 1, 0, 1, 0.5, 1)
        lattice = gp.build_grid(spec)
        g = explicit_graph(spec, [(n.x, n.y) for n in lattice.nodes],
                           {0: [1, 4]}, 0, 4)
        bound = gliderplan.search._leg_bound(gp.FlowEnvironment.still(),
                                             gp.VehicleParams())
        assert gliderplan.search._lattice_bounds(lattice, bound)
        assert gliderplan.search._lattice_bounds(g, bound) == {}

    @pytest.mark.parametrize("turn", [0.0, 0.5 * math.pi, math.pi,
                                      1.5 * math.pi])
    def test_far_lattice_plans_as_h_zero(self, turn):
        inst = far_lattice_instance(turn)
        g, _t0, _profiles, env, veh, _integ = inst
        bound = gliderplan.search._leg_bound(env, veh)
        table = gliderplan.search._lattice_bounds(g, bound)
        nx = g.shape[0]
        for di, dj in g.offsets:
            assert 0.0 < table[dj * nx + di] < bound(di * 0.1, dj * 0.1)
        assert outcome(gp.plan, inst) == outcome(plan_without_bound, inst)
