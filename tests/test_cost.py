import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import gliderplan as gp
import gliderplan.cost
from conftest import adverse_surface_time, jet_core_y, straight_edge


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
        assert gp.sawtooth_depth(0.0, p, 100.0) == 10.0

    def test_reaches_dive_depth(self):
        p = gp.DiveProfile(10.0, 110.0, 0)
        assert gp.sawtooth_depth(1.0, p, 100.0) == pytest.approx(110.0)

    def test_full_period(self):
        p = gp.DiveProfile(10.0, 110.0, 0)
        assert gp.sawtooth_depth(2.0, p, 100.0) == pytest.approx(10.0)

    def test_waveform_within_band(self):
        p = gp.DiveProfile(5.0, 80.0, 0)
        for i in range(200):
            z = gp.sawtooth_depth(i * 0.013, p, 120.0)
            assert 5.0 - 1e-9 <= z <= 80.0 + 1e-9


class TestTraverseEdge:
    def test_still_water(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        t = gp.traverse_edge(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                             gp.FlowEnvironment.still(), veh, integ)
        assert t == pytest.approx(2.0, abs=integ.dt)

    def test_along_track_tailwind(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.uniform(0.1, 0.0)
        t = gp.traverse_edge(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                             env, veh, integ)
        assert t == pytest.approx(1.0 / 0.6, abs=integ.dt)

    def test_cross_track_exceeds_vehicle_speed(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.uniform(0.0, 0.6)
        assert gp.traverse_edge(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                                env, veh, integ) is None

    def test_opposing_current_stalls(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.uniform(-0.5, 0.0)
        assert gp.traverse_edge(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                                env, veh, integ) is None

    def test_lower_bound(self, veh, integ, default_env):
        # eastbound edge on the jet centerline at t = 0
        edge = straight_edge(0.0, 1.2, 0.4, 1.2)
        t = gp.traverse_edge(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                             default_env, veh, integ)
        c_max = 1.0 + 0.5  # jet peak plus surface amplitude
        assert t is not None
        assert t >= edge.length / (veh.v_bf + c_max)

    def test_monotone_in_adverse_uniform_current(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        prof = gp.DiveProfile(0.0, 200.0, 0)
        times = [gp.traverse_edge(edge, 0.0, prof,
                                  gp.FlowEnvironment.uniform(-c, 0.0),
                                  veh, integ)
                 for c in (0.0, 0.1, 0.2, 0.3, 0.4)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_convergence_under_dt_halving(self, veh):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.still()
        prof = gp.DiveProfile(0.0, 200.0, 0)
        t1 = gp.traverse_edge(edge, 0.0, prof, env, veh,
                              gp.IntegrationParams(dt=0.01))
        t2 = gp.traverse_edge(edge, 0.0, prof, env, veh,
                              gp.IntegrationParams(dt=0.005))
        assert abs(t1 - t2) <= 0.01

    def test_max_steps_exhaustion(self, veh):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        integ = gp.IntegrationParams(dt=0.01, max_steps=10)
        assert gp.traverse_edge(edge, 0.0, gp.DiveProfile(0.0, 200.0, 0),
                                gp.FlowEnvironment.still(), veh, integ) is None

    def test_trace_rows(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 0.5, 0.0)
        trace = []
        t = gp.traverse_edge(edge, 1.0, gp.DiveProfile(0.0, 100.0, 0),
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
        time = gp.traverse_edge(straight_edge(0.0, 1.2, 0.4, 1.2), 0.0,
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
        t_shallow = gp.traverse_edge(edge, t_adv, shallow, default_env, veh, integ)
        t_deep = gp.traverse_edge(edge, t_adv, deep, default_env, veh, integ)
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
        res = gp.edge_cost(edge, 0.0, [gp.DiveProfile(0.0, 200.0, 0)],
                           gp.FlowEnvironment.still(), veh, integ)
        assert res.best_profile_index == 0
        assert res.best_time == res.per_profile_times[0]

    def test_still_water_all_profiles_tie(self, paper_profile_params,
                                          veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        profiles = gp.generate_dive_profiles(paper_profile_params)
        res = gp.edge_cost(edge, 0.0, profiles, gp.FlowEnvironment.still(),
                           veh, integ)
        assert len(set(res.per_profile_times)) == 1
        assert res.best_profile_index == 0

    def test_adverse_surface_best_climbs_deeper(self, paper_profile_params,
                                                veh, integ, default_env):
        t_adv = adverse_surface_time(default_env)
        y = jet_core_y(0.0, t_adv, default_env.jet)
        edge = straight_edge(0.0, y, 0.4, y)
        profiles = gp.generate_dive_profiles(paper_profile_params)
        res = gp.edge_cost(edge, t_adv, profiles, default_env, veh, integ)
        assert profiles[res.best_profile_index].z_climb_to > 0.0

    def test_all_infeasible_propagates(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        env = gp.FlowEnvironment.uniform(0.0, 0.9)
        res = gp.edge_cost(edge, 0.0, [gp.DiveProfile(0.0, 200.0, 0),
                                       gp.DiveProfile(10.0, 200.0, 1)],
                           env, veh, integ)
        assert res.best_time is None
        assert res.best_profile_index is None
        assert res.per_profile_times == (None, None)

    def test_empty_profiles_rejected(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        with pytest.raises(gp.ParameterError):
            gp.edge_cost(edge, 0.0, [], gp.FlowEnvironment.still(), veh, integ)

    def test_depth_shielding_bit_exact(self, veh, integ):
        # profiles never entering the surface layer give bit-identical
        # times with the surface term enabled or disabled
        full = gp.FlowEnvironment()
        jet_only = gp.FlowEnvironment(mode="jet")
        prof = gp.DiveProfile(20.0, 150.0, 0)  # 20 m > z_decay = 15 m
        edge = straight_edge(0.3, 0.9, 0.7, 1.1)
        for t0 in (0.0, 2.0, 3.9):
            a = gp.traverse_edge(edge, t0, prof, full, veh, integ)
            b = gp.traverse_edge(edge, t0, prof, jet_only, veh, integ)
            assert a == b  # bit-exact

    def test_serial_and_pool_evaluators_identical(self, paper_profile_params,
                                                  veh, default_env):
        integ = gp.IntegrationParams(dt=0.02)
        profiles = gp.generate_dive_profiles(paper_profile_params)
        edge = straight_edge(0.0, 0.5, 0.4, 0.7)
        serial = gp.edge_cost(edge, 1.0, profiles, default_env, veh, integ)
        with gp.WorkerPool(gp.EngineConfig(5)) as pool:
            parallel = gp.edge_cost(edge, 1.0, profiles, default_env, veh,
                                    integ, gp.pool_evaluator(pool))
        assert serial == parallel  # bit-exact, including per-profile times


class TestDistinctProfiles:
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
        kept = gp.distinct_profiles(profiles, env)
        if mode != "jet":
            assert kept[-1].z_climb_to == env.surface.z_decay
        rng = random.Random(7)
        for _ in range(12):
            x0, y0 = rng.uniform(0.0, 7.6), rng.uniform(-1.5, 1.5)
            heading = rng.uniform(0.0, 2.0 * math.pi)
            edge = straight_edge(x0, y0, x0 + 0.4 * math.cos(heading),
                                 y0 + 0.4 * math.sin(heading))
            t = rng.uniform(0.0, 8.0)
            every = gp.edge_cost(edge, t, profiles, env, veh, integ)
            distinct = gp.edge_cost(edge, t, kept, env, veh, integ)
            assert repr(distinct.best_time) == repr(every.best_time)
            assert distinct.best_profile_index == every.best_profile_index
            # each dropped profile flies exactly as the last kept one
            shielded = every.per_profile_times[kept[-1].index]
            for p, time in zip(profiles, every.per_profile_times):
                if p not in kept:
                    assert repr(time) == repr(shielded)

    def test_counts(self, paper_profile_params):
        profiles = gp.generate_dive_profiles(paper_profile_params)
        kept = gp.distinct_profiles(profiles, gp.FlowEnvironment())
        assert len(kept) == 12
        assert [p.index for p in kept] == list(range(12))
        for env in (gp.FlowEnvironment(mode="jet"),
                    gp.FlowEnvironment.uniform(0.1, -0.2),
                    gp.FlowEnvironment.still()):
            assert gp.distinct_profiles(profiles, env) == profiles[:1]

    def test_best_index_is_the_profiles_own(self, veh, integ):
        edge = straight_edge(0.0, 0.0, 1.0, 0.0)
        res = gp.edge_cost(edge, 0.0, [gp.DiveProfile(20.0, 200.0, 11)],
                           gp.FlowEnvironment.still(), veh, integ)
        assert res.best_profile_index == 11


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
        free = gp.traverse_edge(*args)
        assert repr(gp.traverse_edge(*args, t_limit=None)) == repr(free)
        for limit in self.limits(t_start, free, frac):
            bounded = gp.traverse_edge(*args, t_limit=limit)
            if free is not None and t_start + free < limit:
                assert repr(bounded) == repr(free)  # bit-exact
            else:
                assert bounded is None or repr(bounded) == repr(free)
            if limit <= t_start:
                assert bounded is None

    @settings(max_examples=50, deadline=None)
    @given(**CASES)
    def test_edge_cost(self, x0, y0, heading, length, t_start, frac, mode):
        args = (self.edge(x0, y0, heading, length), t_start, self.PROFILES,
                gp.FlowEnvironment(mode=mode), self.VEH, self.INTEG)
        free = gp.edge_cost(*args)
        assert gp.edge_cost(*args, t_limit=None) == free
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
