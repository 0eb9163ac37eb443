import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import gliderplan as gp
import gliderplan.cost
import gliderplan.ocean
from conftest import adverse_surface_time, fly, jet_core_y, straight_edge


def sawtooth_depth(t_rel, profile, w_vert):
    """Depth (m) of the profile's sawtooth at time t_rel after edge start,
    by the kernel's own depth formula."""
    return gliderplan.cost._depth(
        t_rel, *gliderplan.cost._sawtooth(profile, w_vert), w_vert)


def independent_travel_time(edge, t_start, profile, env, veh, dt):
    """Independent re-implementation of the track-holding traversal used
    as a cross-check oracle; deliberately written from the kinematic model
    rather than shared with the library code."""
    s, tau = 0.0, 0.0
    while s < edge.length:
        zr = profile.z_dive_to - profile.z_climb_to
        cycle = math.fmod(tau, 2 * zr / veh.w_vert)
        if cycle * veh.w_vert <= zr:
            depth = profile.z_climb_to + veh.w_vert * cycle
        else:
            depth = profile.z_dive_to - (cycle * veh.w_vert - zr)
        flow = gp.velocity(edge.x0 + s * edge.dx, edge.y0 + s * edge.dy,
                           depth, t_start + tau, env)
        along = flow.u * edge.dx + flow.v * edge.dy
        across = flow.v * edge.dx - flow.u * edge.dy
        if across ** 2 >= veh.v_bf ** 2:
            return None
        speed = along + math.sqrt(veh.v_bf ** 2 - across ** 2)
        if speed <= 0:
            return None
        step = min(speed * dt, edge.length - s)
        s += step
        tau += step / speed
    return tau


class TestSawtoothDepth:
    def test_starts_at_climb_depth(self):
        p = gp.DiveProfile(10.0, 110.0, 0)
        assert sawtooth_depth(0.0, p, 100.0) == 10.0

    def test_reaches_dive_depth(self):
        p = gp.DiveProfile(10.0, 110.0, 0)
        assert sawtooth_depth(1.0, p, 100.0) == pytest.approx(110.0)

    def test_full_period(self):
        p = gp.DiveProfile(10.0, 110.0, 0)
        assert sawtooth_depth(2.0, p, 100.0) == pytest.approx(10.0)

    def test_waveform_within_band(self):
        p = gp.DiveProfile(5.0, 80.0, 0)
        for i in range(200):
            z = sawtooth_depth(i * 0.013, p, 120.0)
            assert 5.0 - 1e-9 <= z <= 80.0 + 1e-9


class TestTraverseEdge:
    def test_still_water(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        t = fly(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                             gp.FlowEnvironment.still(), veh, integ)
        assert t == pytest.approx(2.0, abs=integ.dt)

    def test_along_track_tailwind(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.uniform(0.1, 0.0)
        t = fly(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                             env, veh, integ)
        assert t == pytest.approx(1.0 / 0.6, abs=integ.dt)

    def test_cross_track_exceeds_vehicle_speed(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.uniform(0.0, 0.6)
        assert fly(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                                env, veh, integ) is None

    def test_opposing_current_stalls(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.uniform(-0.5, 0.0)
        assert fly(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                                env, veh, integ) is None

    def test_lower_bound(self, veh, integ, default_env):
        # eastbound edge on the jet centerline at t = 0
        edge = straight_edge(0.0, 1.2, 0.4, 1.2)
        t = fly(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                             default_env, veh, integ)
        c_max = 1.0 + 0.5  # jet peak plus surface amplitude
        assert t is not None
        assert t >= edge.length / (veh.v_bf + c_max)

    def test_monotone_in_adverse_uniform_current(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        prof = gp.DiveProfile(0.0, 200.0, 0)
        times = [fly(edge, 0.0, prof,
                                  gp.FlowEnvironment.uniform(-c, 0.0),
                                  veh, integ)
                 for c in (0.0, 0.1, 0.2, 0.3, 0.4)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_convergence_under_dt_halving(self, veh):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.still()
        prof = gp.DiveProfile(0.0, 200.0, 0)
        t1 = fly(edge, 0.0, prof, env, veh,
                              gp.IntegrationParams(dt=0.01))
        t2 = fly(edge, 0.0, prof, env, veh,
                              gp.IntegrationParams(dt=0.005))
        assert abs(t1 - t2) <= 0.01

    def test_max_steps_exhaustion(self, veh):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        integ = gp.IntegrationParams(dt=0.01, max_steps=10)
        assert fly(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                                gp.FlowEnvironment.still(), veh, integ) is None

    def test_trace_rows(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 0.5, 0.0)
        trace = []
        t = fly(edge, 1.0, gp.DiveProfile(0.0, 100.0, 0),
                             gp.FlowEnvironment(), veh, integ, trace=trace)
        assert t is not None
        assert trace[0][0] == 1.0  # first sample at departure time
        svals = [row[1] for row in trace]
        assert svals == sorted(svals)
        assert all(len(row) == 8 for row in trace)

    @pytest.mark.parametrize("env", [gp.FlowEnvironment(),
                                     gp.FlowEnvironment.still()])
    def test_one_velocity_call_per_step(self, monkeypatch, veh, integ, env):
        # the benchmark counts field evaluations at cost.velocity
        calls = []
        real = gliderplan.cost.velocity

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gliderplan.cost, "velocity", counted)
        trace = []
        time = fly(straight_edge(0.0, 1.2, 0.4, 1.2), 0.0,
                                gp.DiveProfile(0.0, 200.0, 0), env, veh,
                                integ, trace=trace)
        assert time is not None
        assert len(calls) == len(trace) > 1
        assert [(x, y, z, t) for x, y, z, t, _env in calls] == [
            (x, y, z, t) for t, _s, x, y, z, _u, _v, _g in trace]

    def test_deep_profile_beats_shallow_in_adverse_surface(
            self, veh, default_env):
        # eastbound edge in the jet core at a maximally adverse surface
        # time: climbing only to 80/3 m avoids the opposing surface layer
        integ = gp.IntegrationParams(dt=0.005)
        t_adv = adverse_surface_time(default_env)
        y = jet_core_y(0.2, t_adv, default_env.jet)
        edge = straight_edge(0.0, y, 0.4, y)
        shallow = gp.DiveProfile(0.0, 200.0, 0)
        deep = gp.DiveProfile(80.0 / 3.0, 200.0, 11)
        t_shallow = fly(edge, t_adv, shallow, default_env, veh, integ)
        t_deep = fly(edge, t_adv, deep, default_env, veh, integ)
        assert t_deep < t_shallow
        # cross-check both with the independent integrator at dt/10
        i_shallow = independent_travel_time(edge, t_adv, shallow, default_env,
                                            veh, integ.dt / 10)
        i_deep = independent_travel_time(edge, t_adv, deep, default_env,
                                         veh, integ.dt / 10)
        assert i_deep < i_shallow
        assert t_shallow == pytest.approx(i_shallow, rel=0.02)
        assert t_deep == pytest.approx(i_deep, rel=0.02)


class TestEdgeCost:
    def test_single_profile(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.still()
        prof = gp.DiveProfile(0.0, 200.0, 0)
        res = gp.edge_cost(edge, 0.0, gp.solo_families([prof], env, veh, integ))
        assert res.best_profile_index == 0
        assert res.best_time == fly(edge, 0.0, prof, env, veh, integ)

    def test_still_water_all_profiles_tie(self, paper_profile_params,
                                          veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        profiles = gp.generate_dive_profiles(paper_profile_params)
        env = gp.FlowEnvironment.still()
        res = gp.edge_cost(edge, 0.0,
                           gp.solo_families(profiles, env, veh, integ))
        assert len(set(times_by_index(
            edge, 0.0, gp.profile_families(profiles, env, veh, integ))
            .values())) == 1
        assert res.best_profile_index == 0

    def test_adverse_surface_best_climbs_deeper(self, paper_profile_params,
                                                veh, integ, default_env):
        t_adv = adverse_surface_time(default_env)
        y = jet_core_y(0.0, t_adv, default_env.jet)
        edge = straight_edge(0.0, y, 0.4, y)
        profiles = gp.generate_dive_profiles(paper_profile_params)
        res = gp.edge_cost(edge, t_adv,
                           gp.solo_families(profiles, default_env, veh, integ))
        assert profiles[res.best_profile_index].z_climb_to > 0.0

    def test_all_infeasible_propagates(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.uniform(0.0, 0.9)
        profiles = [gp.DiveProfile(0.0, 200.0, 0),
                    gp.DiveProfile(10.0, 200.0, 1)]
        res = gp.edge_cost(edge, 0.0,
                           gp.solo_families(profiles, env, veh, integ))
        assert res.best_time is None
        assert res.best_profile_index is None
        assert times_by_index(
            edge, 0.0, gp.profile_families(profiles, env, veh, integ)) == {
                0: "None", 1: "None"}

    def test_empty_profiles_rejected(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        with pytest.raises(gp.ParameterError):
            gp.edge_cost(edge, 0.0, [])

    def test_depth_shielding_bit_exact(self, veh, integ):
        # profiles never entering the surface layer give bit-identical
        # times with the surface term enabled or disabled
        full = gp.FlowEnvironment()
        jet_only = gp.FlowEnvironment(mode="jet")
        prof = gp.DiveProfile(20.0, 150.0, 0)  # 20 m > z_decay = 15 m
        edge = straight_edge(0.3, 0.9, 0.7, 1.1)
        for t0 in (0.0, 2.0, 3.9):
            a = fly(edge, t0, prof, full, veh, integ)
            b = fly(edge, t0, prof, jet_only, veh, integ)
            assert a == b  # bit-exact

    def test_serial_and_pool_evaluators_identical(self, paper_profile_params,
                                                  veh, default_env):
        integ = gp.IntegrationParams(dt=0.02)
        profiles = gp.generate_dive_profiles(paper_profile_params)
        edge = straight_edge(0.0, 0.5, 0.4, 0.7)
        for families in (gp.solo_families(profiles, default_env, veh, integ),
                         gp.profile_families(profiles, default_env, veh,
                                             integ)):
            tasks = [gp.EdgeTask(i, edge, 1.0, f)
                     for i, f in enumerate(families)]
            serial = gp.edge_cost(edge, 1.0, families)
            with gp.WorkerPool(gp.EngineConfig(5)) as pool:
                parallel = gp.edge_cost(edge, 1.0, families,
                                        gp.pool_evaluator(pool))
                pooled_times = gp.pool_evaluator(pool)(tasks)
            assert serial == parallel  # bit-exact
            # and so is every profile's time
            assert repr(pooled_times) == repr(gp.serial_evaluator(tasks))

    def test_pool_pairs_times_with_profiles_out_of_index_order(self, veh,
                                                               integ):
        # the pool returns results in task id order, so task ids must
        # follow the list order, not the profile indices
        edge = straight_edge(0.0, 2.0, 0.4, 2.0)
        env = gp.FlowEnvironment()
        profiles = [gp.DiveProfile(0.0, 200.0, 5),
                    gp.DiveProfile(40.0, 200.0, 2)]
        for families in (gp.solo_families(profiles, env, veh, integ),
                         gp.profile_families(profiles, env, veh, integ)):
            serial = gp.edge_cost(edge, 0.3, families)
            with gp.WorkerPool(gp.EngineConfig(2)) as pool:
                parallel = gp.edge_cost(edge, 0.3, families,
                                        gp.pool_evaluator(pool))
            assert serial == parallel
            assert serial.best_profile_index == 5


def times_by_index(edge, t_start, families, t_limit=math.inf):
    """{profile index: repr(time)} of every member of families, each
    family flown once with traverse_edge."""
    out = {}
    for family in families:
        times = gp.traverse_edge(edge, t_start, family, t_limit=t_limit)
        if times is None:
            times = (None,) * len(family.profiles)
        assert len(times) == len(family.profiles)
        out.update((p.index, repr(t)) for p, t in zip(family.profiles, times))
    return out


class TestDistinctProfiles:
    """Profiles grouped into families (profile_families) give the times,
    the best time and the best index they give when each is flown alone
    (solo_families)."""

    @staticmethod
    def with_boundary_profile(params, z_decay):
        """The generated profiles plus one climbing exactly to z_decay,
        ordered so that it is the first never to climb above z_decay."""
        pairs = [(p.z_climb_to, p.z_dive_to)
                 for p in gp.generate_dive_profiles(params)]
        pairs = sorted(pairs + [(z_decay, 170.0)], key=lambda zz: zz[0])
        return [gp.DiveProfile(zc, zd, i) for i, (zc, zd) in enumerate(pairs)]

    @pytest.mark.parametrize("mode", ["full", "surface", "jet"])
    def test_collapse_is_exact(self, paper_profile_params, veh, mode):
        env = gp.FlowEnvironment(mode=mode)
        integ = gp.IntegrationParams(dt=0.02)
        profiles = self.with_boundary_profile(paper_profile_params,
                                              env.surface.z_decay)
        families = gp.profile_families(profiles, env, veh, integ)
        solo = gp.solo_families(profiles, env, veh, integ)
        # the boundary profile flies with the profiles that never climb
        # above z_decay; in jet mode every profile does
        shielded = families[-1]
        assert all(f is shielded or f.stops[:-1] for f in families)
        assert shielded.stops == (-1,)
        boundary = next(p for p in profiles
                        if p.z_climb_to == env.surface.z_decay)
        assert boundary in shielded.profiles
        if mode == "jet":
            assert len(families) == 1
        rng = random.Random(7)
        for _ in range(12):
            x0, y0 = rng.uniform(0.0, 7.6), rng.uniform(-1.5, 1.5)
            heading = rng.uniform(0.0, 2.0 * math.pi)
            edge = straight_edge(x0, y0, x0 + 0.4 * math.cos(heading),
                                 y0 + 0.4 * math.sin(heading))
            t = rng.uniform(0.0, 8.0)
            every = gp.edge_cost(edge, t, solo)
            grouped = gp.edge_cost(edge, t, families)
            assert repr(grouped.best_time) == repr(every.best_time)
            assert grouped.best_profile_index == every.best_profile_index
            assert (times_by_index(edge, t, families)
                    == times_by_index(edge, t, solo))

    def test_counts(self, paper_profile_params):
        profiles = gp.generate_dive_profiles(paper_profile_params)
        veh, integ = gp.VehicleParams(), gp.IntegrationParams()
        # 6 profiles climb to 0 m and 5 to 40/3 m, above z_decay = 15 m;
        # the 9 others never climb above it
        for mode in ("full", "surface"):
            families = gp.profile_families(
                profiles, gp.FlowEnvironment(mode=mode), veh, integ)
            assert [[p.index for p in f.profiles] for f in families] == [
                list(range(6)), list(range(6, 11)), list(range(11, 20))]
            # each trunk dives to 200 m; the shallower a member's dive,
            # the sooner it climbs back above z_decay and forks
            assert [len(f.stops) - 1 for f in families] == [5, 4, 0]
            for f in families[:2]:
                assert list(f.stops[:-1]) == sorted(f.stops[:-1])
                slots = [flight[0] for flight in f.flights]
                assert slots == [None] + list(range(len(slots) - 2, -1, -1))
        for env in (gp.FlowEnvironment(mode="jet"),
                    gp.FlowEnvironment.uniform(0.1, -0.2),
                    gp.FlowEnvironment.still()):
            families = gp.profile_families(profiles, env, veh, integ)
            assert len(families) == 1
            assert list(families[0].profiles) == profiles
            assert families[0].stops == (-1,)
            solo = gp.solo_families(profiles, env, veh, integ)
            assert [f.profiles for f in solo] == [(p,) for p in profiles]
            # each family flies with what it was grouped for
            assert all((f.env, f.veh, f.integ) == (env, veh, integ)
                       for f in families + solo)

    def test_best_index_is_the_profiles_own(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.still()
        res = gp.edge_cost(edge, 0.0,
                           gp.solo_families([gp.DiveProfile(20.0, 200.0, 11)],
                                            env, veh, integ))
        assert res.best_profile_index == 11
        # every profile ties in still water, and in a surface current of
        # zero amplitude, which groups the profiles as the full field does:
        # the lowest index wins, in whatever order the profiles and
        # families come
        profiles = [gp.DiveProfile(20.0, 200.0, 11),
                    gp.DiveProfile(0.0, 60.0, 5), gp.DiveProfile(0.0, 200.0, 7)]
        calm = gp.FlowEnvironment(surface=gp.SurfaceCurrentParams(W0=0.0),
                                  mode="surface")
        forked = gp.profile_families(profiles, calm, veh, integ)
        assert [[p.index for p in f.profiles] for f in forked] == [[11], [7, 5]]
        assert forked[1].stops[:-1]
        for families in (gp.solo_families(profiles, env, veh, integ), forked,
                         gp.profile_families(profiles, env, veh, integ)):
            res = gp.edge_cost(edge, 0.0, families)
            assert res.best_profile_index == 5


def fork_steps(family):
    """{profile index: fork step (None: never)} of a family's members."""
    return {p.index: None if flight[0] is None else family.stops[flight[0]]
            for p, flight in zip(family.profiles, family.flights)}


def two_branch_families(profiles, env, veh, integ):
    """Families as (members, fork steps), trunk first, grouped with a
    branch of their own for the profiles that never climb above z_flat:
    they form one family led by the first of them, whose members are
    given no fork step without asking _fork_step. profile_families must
    group exactly as this does."""
    z_flat = gliderplan.ocean.depth_independent_below(env)
    groups = {}
    for p in profiles:
        climb = p.z_climb_to if p.z_climb_to < z_flat else None
        groups.setdefault(climb, []).append(p)
    out = []
    for climb, members in groups.items():
        if climb is None:
            out.append((members, [None] * len(members)))
            continue
        i = max(range(len(members)), key=lambda j: members[j].z_dive_to)
        trunk = members[i]
        rest = members[:i] + members[i + 1:]
        out.append(([trunk] + rest, [None] + [
            gliderplan.cost._fork_step(trunk, p, z_flat, veh.w_vert, integ)
            for p in rest]))
    return out


class TestForkStep:
    VEH = gp.VehicleParams()
    INTEG = gp.IntegrationParams(dt=0.02)
    Z_FLAT = gp.SurfaceCurrentParams().z_decay

    def fork_step(self, trunk, member):
        return gliderplan.cost._fork_step(
            gp.DiveProfile(*trunk, 0), gp.DiveProfile(*member, 1),
            self.Z_FLAT, self.VEH.w_vert, self.INTEG)

    def test_never_for_profiles_that_never_climb_above_z_flat(self):
        assert self.Z_FLAT == 15.0
        assert self.fork_step((80.0 / 3.0, 200.0), (40.0, 110.0)) is None
        assert self.fork_step((40.0, 110.0), (80.0 / 3.0, 200.0)) is None
        assert self.fork_step((self.Z_FLAT, 170.0), (40.0, 110.0)) is None

    def test_a_step_within_a_climb_group(self):
        step = self.fork_step((0.0, 200.0), (0.0, 110.0))
        assert step is not None and step > 0
        # until the shallower dive turns back up, both are at one depth
        turn = (110.0 - 0.0) / self.VEH.w_vert / self.INTEG.dt
        assert step >= math.floor(turn)

    @pytest.mark.parametrize("dt", [0.003, 0.02, 0.08, 1.0])
    def test_every_example_pair_as_a_scan_from_step_0(self, dt):
        # _fork_step does not compute depths it knows to be equal; a scan
        # that computes every step's depths finds the same step for every
        # pair profile_families asks about: one climb depth, or neither
        # climbing above z_flat
        z_flat = self.Z_FLAT
        w_vert = self.VEH.w_vert
        integ = gp.IntegrationParams(dt=dt)

        def scan(a, b):
            if (a.z_climb_to, a.z_dive_to) == (b.z_climb_to, b.z_dive_to) \
                    or min(a.z_climb_to, b.z_climb_to) >= z_flat:
                return None
            bound = 2.0 * min(a.z_dive_to - a.z_climb_to,
                              b.z_dive_to - b.z_climb_to) / w_vert
            elapsed = 0.0
            for k in range(integ.max_steps):
                z_a = sawtooth_depth(elapsed, a, w_vert)
                z_b = sawtooth_depth(elapsed, b, w_vert)
                if (z_a != z_b and min(z_a, z_b) < z_flat
                        or elapsed > bound):
                    return k
                elapsed += dt
            return None

        profiles = gp.generate_dive_profiles(
            gp.DiveProfileParams(0.0, 200.0, 40.0, 50.0, 4, 6))
        steps = [(gliderplan.cost._fork_step(a, b, z_flat, w_vert, integ),
                  scan(a, b)) for a in profiles for b in profiles
                 if a != b and (a.z_climb_to == b.z_climb_to
                                or min(a.z_climb_to, b.z_climb_to) >= z_flat)]
        assert all(fast == slow for fast, slow in steps)
        assert any(fast is not None for fast, _slow in steps)


class TestFamilies:
    """Flying a family gives every member the time, bit for bit, that it
    gives when flown alone, in every flow mode and with or without a
    deadline; the families are those of two_branch_families."""

    Z_DECAY = gp.SurfaceCurrentParams().z_decay
    ENVS = {
        "full": gp.FlowEnvironment(),
        "jet": gp.FlowEnvironment(mode="jet"),
        "surface": gp.FlowEnvironment(mode="surface"),
        "uniform": gp.FlowEnvironment.uniform(0.12, -0.07),
        "still": gp.FlowEnvironment.still(),
    }
    # climb depths: above z_decay, exactly at it, and below it
    CLIMBS = (0.0, 5.0, 40.0 / 3.0, Z_DECAY, 80.0 / 3.0)
    # always in the set: a climb exactly at z_decay, dives shallower than
    # z_decay (both stay above it, so only their depths tell them apart),
    # and a duplicated (climb, dive) pair
    REQUIRED = ((Z_DECAY, 170.0), (0.0, 10.0), (0.0, 12.5), (5.0, 60.0),
                (0.0, 200.0), (0.0, 200.0))

    @settings(max_examples=120, deadline=None)
    @given(mode=st.sampled_from(sorted(ENVS)),
           x0=st.floats(0.0, 7.6), y0=st.floats(-2.5, 2.5),
           heading=st.floats(0.0, 2.0 * math.pi),
           length=st.floats(0.05, 1.0), t_start=st.floats(0.0, 8.0),
           dt=st.floats(0.003, 0.08),
           limit=st.one_of(st.none(), st.floats(0.0, 3.0)),
           extra=st.lists(st.tuples(st.sampled_from(CLIMBS),
                                    st.floats(1.0, 190.0)), max_size=6),
           order=st.randoms(use_true_random=False))
    def test_family_equals_members_alone(self, mode, x0, y0, heading, length,
                                         t_start, dt, limit, extra, order):
        pairs = list(self.REQUIRED) + [(zc, zc + d) for zc, d in extra]
        indices = list(range(len(pairs)))
        order.shuffle(indices)  # profiles not in index order
        profiles = [gp.DiveProfile(zc, zd, i)
                    for (zc, zd), i in zip(pairs, indices)]
        env = self.ENVS[mode]
        veh = gp.VehicleParams()
        integ = gp.IntegrationParams(dt=dt)
        edge = straight_edge(x0, y0, x0 + length * math.cos(heading),
                             y0 + length * math.sin(heading))
        t_limit = math.inf if limit is None else t_start + limit
        families = gp.profile_families(profiles, env, veh, integ)
        assert sorted(p.index for f in families for p in f.profiles) == sorted(
            indices)
        # one grouping rule gives the families of two branches: the same
        # partition, the same trunk wherever a member forks, and the same
        # fork step for every member
        before = two_branch_families(profiles, env, veh, integ)
        assert ([{p.index for p in f.profiles} for f in families]
                == [{p.index for p in members} for members, _ in before])
        for family, (members, forks) in zip(families, before):
            assert fork_steps(family) == {
                p.index: f for p, f in zip(members, forks)}
            if any(f is not None for f in forks):
                assert family.profiles[0] is members[0]
        for family in families:
            times = gp.traverse_edge(edge, t_start, family, t_limit=t_limit)
            alone = [fly(edge, t_start, p, env, veh, integ, t_limit=t_limit)
                     for p in family.profiles]
            if times is None:
                assert alone == [None] * len(alone)
            else:
                assert [repr(t) for t in times] == [repr(t) for t in alone]
        grouped = gp.edge_cost(edge, t_start, families, t_limit=t_limit)
        solo = gp.solo_families(profiles, env, veh, integ)
        every = gp.edge_cost(edge, t_start, solo, t_limit=t_limit)
        assert repr(grouped.best_time) == repr(every.best_time)
        assert grouped.best_profile_index == every.best_profile_index


class TestDeadline:
    """t_limit cuts only traversals that cannot arrive before it."""

    PROFILES = gp.generate_dive_profiles(
        gp.DiveProfileParams(0.0, 200.0, 40.0, 50.0, 4, 6))
    VEH = gp.VehicleParams()
    INTEG = gp.IntegrationParams(dt=0.02)

    @staticmethod
    def limits(t_start, time, frac):
        """Deadlines around an unbounded result: part of the way, the
        arrival itself and the floats on either side of it."""
        if time is None:
            return [t_start, t_start + frac]
        arrival = t_start + time
        return [t_start, t_start + frac * time, arrival,
                math.nextafter(arrival, -math.inf),
                math.nextafter(arrival, math.inf)]

    CASES = dict(
        x0=st.floats(0.0, 7.6), y0=st.floats(-1.5, 1.5),
        heading=st.floats(0.0, 2.0 * math.pi), length=st.floats(0.05, 0.6),
        t_start=st.floats(0.0, 8.0), frac=st.floats(0.0, 1.5),
        mode=st.sampled_from(["full", "surface", "jet"]))

    @staticmethod
    def edge(x0, y0, heading, length):
        return straight_edge(x0, y0, x0 + length * math.cos(heading),
                             y0 + length * math.sin(heading))

    @settings(max_examples=200, deadline=None)
    @given(**CASES, k=st.integers(0, 19))
    def test_traverse_edge(self, x0, y0, heading, length, t_start, frac,
                           mode, k):
        args = (self.edge(x0, y0, heading, length), t_start,
                self.PROFILES[k], gp.FlowEnvironment(mode=mode), self.VEH,
                self.INTEG)
        free = fly(*args)
        assert repr(fly(*args, t_limit=math.inf)) == repr(free)
        for limit in self.limits(t_start, free, frac):
            bounded = fly(*args, t_limit=limit)
            if free is not None and t_start + free < limit:
                assert repr(bounded) == repr(free)  # bit-exact
            else:
                assert bounded is None or repr(bounded) == repr(free)
            if limit <= t_start:
                assert bounded is None

    @settings(max_examples=50, deadline=None)
    @given(**CASES)
    def test_edge_cost(self, x0, y0, heading, length, t_start, frac, mode):
        env = gp.FlowEnvironment(mode=mode)
        families = gp.profile_families(self.PROFILES, env, self.VEH,
                                       self.INTEG)
        args = (self.edge(x0, y0, heading, length), t_start, families)
        free = gp.edge_cost(*args)
        assert gp.edge_cost(*args, t_limit=math.inf) == free
        for limit in self.limits(t_start, free.best_time, frac):
            bounded = gp.edge_cost(*args, t_limit=limit)
            if free.best_time is not None and t_start + free.best_time < limit:
                assert repr(bounded.best_time) == repr(free.best_time)
                assert bounded.best_profile_index == free.best_profile_index
            else:
                assert (bounded.best_time is None
                        or t_start + bounded.best_time >= limit)


class TestParamValidation:
    def test_vehicle(self):
        with pytest.raises(gp.ParameterError):
            gp.VehicleParams(v_bf=0.0)
        with pytest.raises(gp.ParameterError):
            gp.VehicleParams(w_vert=-1.0)

    def test_integration(self):
        with pytest.raises(gp.ParameterError):
            gp.IntegrationParams(dt=0.0)
        with pytest.raises(gp.ParameterError):
            gp.IntegrationParams(max_steps=0)
        with pytest.raises(gp.ParameterError):
            gp.IntegrationParams(eps_speed=-1e-9)
