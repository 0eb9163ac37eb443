import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import gliderplan as gp
import gliderplan.cost
from gliderplan.ocean import (MODE_FULL, MODE_JET, MODE_STILL, MODE_SURFACE,
                              MODE_UNIFORM, MODES, current_disk,
                              depth_independent_below)


def fd_velocity(x, y, t, jet, h=1e-5):
    """Central-difference oracle for the stream-function gradient."""
    u = -(gp.stream_function(x, y + h, t, jet)
          - gp.stream_function(x, y - h, t, jet)) / (2 * h)
    v = (gp.stream_function(x + h, y, t, jet)
         - gp.stream_function(x - h, y, t, jet)) / (2 * h)
    return u, v


def random_points(n, seed=0):
    rng = random.Random(seed)
    return [(rng.uniform(0, 10), rng.uniform(-3, 3), rng.uniform(0, 25))
            for _ in range(n)]


class TestMeanderAmplitude:
    def test_default_t0(self):
        assert gp.meander_amplitude(0.0, gp.JetParams()) == pytest.approx(1.2)

    def test_phase_zero(self):
        jet = gp.JetParams()
        t = -jet.theta / jet.omega  # omega*t + theta = 0
        assert gp.meander_amplitude(t, jet) == pytest.approx(1.5)

    def test_phase_pi(self):
        jet = gp.JetParams()
        t = (math.pi - jet.theta) / jet.omega
        assert gp.meander_amplitude(t, jet) == pytest.approx(0.9)


class TestStreamFunction:
    def test_centerline_value(self):
        jet = gp.JetParams()
        for t, x in [(0.0, 0.0), (3.0, 1.7), (11.0, 5.2)]:
            y = gp.meander_amplitude(t, jet) * math.cos(jet.k * (x - jet.c * t))
            assert gp.stream_function(x, y, t, jet) == pytest.approx(1.0)

    def test_far_field_limits(self):
        jet = gp.JetParams()
        assert gp.stream_function(1.0, 1e6, 0.0, jet) == pytest.approx(0.0)
        assert gp.stream_function(1.0, -1e6, 0.0, jet) == pytest.approx(2.0)

    def test_spatial_periodicity(self):
        jet = gp.JetParams()
        period = 2 * math.pi / jet.k
        for x, y, t in random_points(50, seed=1):
            assert gp.stream_function(x + period, y, t, jet) == pytest.approx(
                gp.stream_function(x, y, t, jet), abs=1e-12)


class TestJetVelocity:
    """velocity() in jet mode: the jet alone."""

    def test_centerline_u(self):
        jet = gp.JetParams()
        env = gp.FlowEnvironment(jet, mode=MODE_JET)
        for t, x in [(0.0, 0.3), (5.0, 2.0)]:
            B = gp.meander_amplitude(t, jet)
            a = jet.k * (x - jet.c * t)
            y = B * math.cos(a)
            expected = 1.0 / math.sqrt(1 + jet.k ** 2 * B ** 2 * math.sin(a) ** 2)
            s = gp.velocity(x, y, 0.0, t, env)
            assert s.u == pytest.approx(expected)
            assert s.u > 0

    def test_matches_finite_differences(self):
        jet = gp.JetParams()
        env = gp.FlowEnvironment(jet, mode=MODE_JET)
        for x, y, t in random_points(1000, seed=2):
            fu, fv = fd_velocity(x, y, t, jet)
            s = gp.velocity(x, y, 0.0, t, env)
            assert abs(s.u - fu) <= 1e-5 * max(1.0, abs(fu))
            assert abs(s.v - fv) <= 1e-5 * max(1.0, abs(fv))

    def test_v_at_sin_zero_on_centerline(self):
        # sin(k(x-ct)) = 0 and numerator zero: x - ct a multiple of pi/k,
        # y on the centerline.
        jet = gp.JetParams()
        env = gp.FlowEnvironment(jet, mode=MODE_JET)
        t = 0.0
        for m in range(4):
            x = jet.c * t + m * math.pi / jet.k
            y = gp.meander_amplitude(t, jet) * math.cos(jet.k * (x - jet.c * t))
            fu, fv = fd_velocity(x, y, t, jet)
            s = gp.velocity(x, y, 0.0, t, env)
            assert s.v == pytest.approx(fv, abs=1e-8)


def surface_u(z, t, surf, omega):
    """velocity()'s u in surface mode: the surface term alone."""
    env = gp.FlowEnvironment(gp.JetParams(omega=omega), surf, MODE_SURFACE)
    return gp.velocity(0.0, 0.0, z, t, env).u


class TestSurfaceTerm:
    def test_vanishes_at_decay_depth(self):
        surf = gp.SurfaceCurrentParams()
        for t in (0.0, 1.0, 7.3):
            assert surface_u(15.0, t, surf, 0.4) == 0.0
            assert surface_u(80.0, t, surf, 0.4) == 0.0

    def test_surface_value(self):
        assert surface_u(0.0, 0.0, gp.SurfaceCurrentParams(), 0.4) == \
            pytest.approx(0.5)

    def test_linear_decay(self):
        assert surface_u(7.5, 0.0, gp.SurfaceCurrentParams(), 0.4) == \
            pytest.approx(0.25)

    def test_negative_depth_rejected(self):
        with pytest.raises(gp.ParameterError):
            surface_u(-1.0, 0.0, gp.SurfaceCurrentParams(), 0.4)

    def test_sign_follows_cosine(self):
        surf = gp.SurfaceCurrentParams()
        omega = 0.4
        for t in [0.0, 1.0, 2.0, 3.5, 6.0]:
            val = surface_u(0.0, t, surf, omega)
            c = math.cos(surf.d * omega * t)
            assert math.copysign(1.0, val) == math.copysign(1.0, c) or val == 0.0


class TestVelocity:
    def test_full_equals_jet_below_decay_depth(self):
        env = gp.FlowEnvironment()
        jet_env = gp.FlowEnvironment(env.jet, mode=MODE_JET)
        for x, y, t in random_points(50, seed=3):
            for z in (15.0, 30.0, 200.0):
                full = gp.velocity(x, y, z, t, env)
                jet = gp.velocity(x, y, 0.0, t, jet_env)
                assert full.u == jet.u  # bit-exact
                assert full.v == jet.v

    def test_v_independent_of_depth(self):
        env = gp.FlowEnvironment()
        for x, y, t in random_points(50, seed=4):
            v0 = gp.velocity(x, y, 0.0, t, env).v
            for z in (3.0, 14.0, 100.0):
                assert gp.velocity(x, y, z, t, env).v == v0

    @pytest.mark.parametrize("mode", MODES)
    def test_depth_independent_below(self, mode):
        # the profile families of cost.profile_families are exact only if
        # the field is bit-identical at and below this depth in every mode
        env = gp.FlowEnvironment(mode=mode, ux=0.1, uy=-0.2)
        z_flat = depth_independent_below(env)
        assert z_flat is not None
        for x, y, t in random_points(50, seed=7):
            at = gp.velocity(x, y, z_flat, t, env)
            for dz in (1e-9, 0.5, 185.0):
                assert gp.velocity(x, y, z_flat + dz, t, env) == at

    def test_still_mode(self):
        env = gp.FlowEnvironment(mode=MODE_STILL)
        assert gp.velocity(1.0, 2.0, 3.0, 4.0, env) == gp.FlowSample(0.0, 0.0)

    def test_uniform_mode(self):
        env = gp.FlowEnvironment(mode=MODE_UNIFORM, ux=0.1, uy=-0.2)
        assert gp.velocity(0.0, 0.0, 5.0, 1.0, env) == gp.FlowSample(0.1, -0.2)

    def test_surface_mode_has_zero_v(self):
        env = gp.FlowEnvironment(mode=MODE_SURFACE)
        s = gp.velocity(2.0, 1.0, 5.0, 3.0, env)
        assert s.v == 0.0

    def test_negative_depth_rejected(self):
        env = gp.FlowEnvironment()
        with pytest.raises(gp.ParameterError):
            gp.velocity(0.0, 0.0, -0.1, 0.0, env)

    def test_divergence_free(self):
        env = gp.FlowEnvironment()
        rng = random.Random(5)
        h = 1e-4
        for _ in range(1000):
            x, y = rng.uniform(0, 10), rng.uniform(-3, 3)
            z, t = rng.uniform(0, 100), rng.uniform(0, 25)
            dudx = (gp.velocity(x + h, y, z, t, env).u
                    - gp.velocity(x - h, y, z, t, env).u) / (2 * h)
            dvdy = (gp.velocity(x, y + h, z, t, env).v
                    - gp.velocity(x, y - h, z, t, env).v) / (2 * h)
            assert abs(dudx + dvdy) < 1e-6

    def test_spatial_periodicity(self):
        env = gp.FlowEnvironment()
        period = 2 * math.pi / env.jet.k
        for x, y, t in random_points(50, seed=6):
            a = gp.velocity(x, y, 5.0, t, env)
            b = gp.velocity(x + period, y, 5.0, t, env)
            assert a.u == pytest.approx(b.u, abs=1e-12)
            assert a.v == pytest.approx(b.v, abs=1e-12)


def reference_amplitude(t, jet):
    return jet.B0 + jet.epsilon * math.cos(jet.omega * t + jet.theta)


def reference_jet_uv(x, y, t, jet):
    """The jet velocity expressions as first written, read from the
    parameters on every call; the reference the bound field must match
    bit for bit."""
    k = jet.k
    a = k * (x - jet.c * t)
    B = reference_amplitude(t, jet)
    sa = math.sin(a)
    ca = math.cos(a)
    n = y - B * ca
    g = 1.0 + k * k * B * B * sa * sa
    d = math.sqrt(g)
    q = n / d
    ch = math.cosh(q)
    sech2 = 1.0 / (ch * ch)
    dq_dx = (B * k * sa * d - n * (k ** 3) * B * B * sa * ca / d) / g
    return sech2 / d, -sech2 * dq_dx


def reference_surface(z, t, surf, omega):
    shape = 1.0 - z / surf.z_decay
    if shape <= 0.0:
        return 0.0
    return surf.W0 * math.cos(surf.d * omega * t) * shape


def reference_velocity(x, y, z, t, env):
    """velocity() with the mode dispatched on every call."""
    if z < 0:
        raise gp.ParameterError("depth z must be >= 0")
    if env.mode == MODE_FULL:
        u, v = reference_jet_uv(x, y, t, env.jet)
        return u + reference_surface(z, t, env.surface, env.jet.omega), v
    if env.mode == MODE_JET:
        return reference_jet_uv(x, y, t, env.jet)
    if env.mode == MODE_SURFACE:
        return reference_surface(z, t, env.surface, env.jet.omega), 0.0
    if env.mode == MODE_UNIFORM:
        return env.ux, env.uy
    return 0.0, 0.0


def bits(values):
    """Float values as hex strings: equal only if bit-identical, so -0.0
    differs from 0.0."""
    return tuple(float(v).hex() for v in values)


JETS = st.builds(gp.JetParams, B0=st.floats(0.1, 3.0),
                 epsilon=st.floats(0.0, 1.0), omega=st.floats(-1.0, 1.0),
                 theta=st.floats(-math.pi, math.pi), k=st.floats(0.1, 3.0),
                 c=st.floats(-1.0, 1.0))
SURFACES = st.builds(gp.SurfaceCurrentParams, W0=st.floats(-2.0, 2.0),
                     d=st.floats(-4.0, 4.0), z_decay=st.floats(0.5, 100.0))
# depth as a multiple of z_decay: the surface, above z_decay, exactly at it
# and below it
DEPTH_FRACTIONS = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0),
                            st.floats(1.0, 20.0))


class TestBoundField:
    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(MODES), jet=JETS, surface=SURFACES,
           ux=st.floats(-1.0, 1.0), uy=st.floats(-1.0, 1.0),
           x=st.floats(-20.0, 20.0), y=st.floats(-5.0, 5.0),
           t=st.floats(-50.0, 50.0), frac=DEPTH_FRACTIONS)
    def test_bit_identical_to_reference(self, mode, jet, surface, ux, uy,
                                        x, y, t, frac):
        env = gp.FlowEnvironment(jet, surface, mode, ux, uy)
        z = frac * surface.z_decay
        sample = gp.velocity(x, y, z, t, env)
        assert type(sample) is gp.FlowSample
        assert bits(sample) == bits(reference_velocity(x, y, z, t, env))
        # each term alone, as velocity() gives it in jet or surface mode
        assert bits(gp.velocity(x, y, z, t, gp.FlowEnvironment(
            jet, surface, MODE_JET))) == bits(reference_jet_uv(x, y, t, jet))
        assert bits(gp.velocity(x, y, z, t, gp.FlowEnvironment(
            jet, surface, MODE_SURFACE))) == bits(
            (reference_surface(z, t, surface, jet.omega), 0.0))
        assert bits([gp.meander_amplitude(t, jet)]) == bits(
            [reference_amplitude(t, jet)])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("z", [-1e-300, -0.5, -math.inf])
    def test_negative_depth_rejected_in_every_mode(self, mode, z):
        # through the public API and through the kernel's per-step call
        for velocity in (gp.velocity, gliderplan.cost.velocity):
            with pytest.raises(gp.ParameterError):
                velocity(0.0, 0.0, z, 0.0, gp.FlowEnvironment(mode=mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_kernel_sample_is_the_public_sample_as_a_plain_tuple(self, mode):
        # cost.velocity, the kernel's per-step call, returns a plain tuple;
        # ocean.velocity wraps the same floats in a FlowSample
        env = gp.FlowEnvironment(mode=mode, ux=0.1, uy=-0.2)
        z_decay = env.surface.z_decay
        for x, y, t in random_points(20, seed=11):
            for z in (0.0, 0.5 * z_decay, z_decay, 2.0 * z_decay):
                uv = gliderplan.cost.velocity(x, y, z, t, env)
                sample = gp.velocity(x, y, z, t, env)
                assert type(uv) is tuple
                assert type(sample) is gp.FlowSample
                assert bits(uv) == bits(sample) == bits((sample.u, sample.v))

    def test_value_semantics_unchanged(self):
        names = [f.name for f in dataclasses.fields(gp.FlowEnvironment)]
        assert names == ["jet", "surface", "mode", "ux", "uy"]
        a = gp.FlowEnvironment.uniform(0.1, -0.2)
        b = gp.FlowEnvironment(gp.JetParams(), gp.SurfaceCurrentParams(),
                               MODE_UNIFORM, 0.1, -0.2)
        assert a == b and hash(a) == hash(b)
        assert a != gp.FlowEnvironment.uniform(0.1, 0.2)
        assert repr(a) == (
            "FlowEnvironment(jet=%r, surface=%r, mode='uniform', ux=0.1, "
            "uy=-0.2)" % (gp.JetParams(), gp.SurfaceCurrentParams()))

    def test_replace_rebinds_the_field(self):
        env = gp.FlowEnvironment()
        for changed in (dict(jet=gp.JetParams(B0=2.0)),
                        dict(surface=gp.SurfaceCurrentParams(W0=-1.0)),
                        dict(mode=MODE_UNIFORM, ux=0.3, uy=0.4)):
            new = dataclasses.replace(env, **changed)
            for x, y, z, t in [(0.3, 0.2, 1.0, 0.5), (1.7, -0.4, 6.0, 2.5)]:
                assert gp.velocity(x, y, z, t, new) == reference_velocity(
                    x, y, z, t, new)
                assert gp.velocity(x, y, z, t, new) != gp.velocity(
                    x, y, z, t, env)


class TestCurrentDisk:
    """Every sample of the field lies in current_disk(env), the disk the
    search's time-to-goal bound is made from."""

    @settings(max_examples=400, deadline=None)
    @given(mode=st.sampled_from(MODES), jet=JETS, surface=SURFACES,
           ux=st.floats(-1.0, 1.0), uy=st.floats(-1.0, 1.0),
           x=st.floats(-20.0, 20.0), t=st.floats(-50.0, 50.0),
           frac=DEPTH_FRACTIONS,
           # y off the jet's centerline, in units of its width 1 / d
           off=st.one_of(st.floats(-3.0, 3.0), st.floats(-0.9, -0.6),
                         st.floats(0.6, 0.9)))
    def test_every_sample_inside(self, mode, jet, surface, ux, uy, x, t,
                                 frac, off):
        env = gp.FlowEnvironment(jet, surface, mode, ux, uy)
        a = jet.k * (x - jet.c * t)
        B = gp.meander_amplitude(t, jet)
        y = B * math.cos(a) + off * math.sqrt(
            1.0 + (jet.k * B * math.sin(a)) ** 2)
        u, v = gp.velocity(x, y, frac * surface.z_decay, t, env)
        cx, cy, r = current_disk(env)
        assert math.hypot(u - cx, v - cy) <= r

    def test_disks(self):
        jet = gp.JetParams(B0=1.0, epsilon=0.5, k=2.0)
        surface = gp.SurfaceCurrentParams(W0=-0.3)
        vb = 1.0 + 0.2239 * 4.0 * 1.5
        assert current_disk(gp.FlowEnvironment.still()) == (0.0, 0.0, 0.0)
        assert current_disk(gp.FlowEnvironment.uniform(0.2, -0.1)) == (
            0.2, -0.1, 0.0)
        for mode, disk in ((MODE_SURFACE, (0.0, 0.0, 0.3)),
                           (MODE_JET, (0.5, 0.0, math.hypot(0.5, vb))),
                           (MODE_FULL, (0.5, 0.0, math.hypot(0.8, vb)))):
            env = gp.FlowEnvironment(jet, surface, mode)
            assert current_disk(env) == pytest.approx(disk, rel=1e-15)

    def test_jet_v_bound_is_not_loose(self):
        # |v| <= vb = 1 + 0.2239 k^2 (B0 + epsilon) comes within 11% of a
        # sample: where k B sin(a) = 1 and q = n / d = -0.7717, the two
        # terms of v add, and the second is near its bound
        jet = gp.JetParams(B0=20.0, epsilon=0.0, k=1.0, c=0.0)
        env = gp.FlowEnvironment(jet=jet, mode=MODE_JET)
        a = math.asin(1.0 / 20.0)
        y = 20.0 * math.cos(a) - 0.7717 * math.sqrt(2.0)
        vb = 1.0 + 0.2239 * 20.0
        _cx, _cy, r = current_disk(env)
        assert r == math.hypot(0.5, vb)
        assert 0.89 * vb < abs(gp.velocity(a, y, 0.0, 0.0, env).v) <= vb


class TestParamValidation:
    def test_jet_invariants(self):
        with pytest.raises(gp.ParameterError):
            gp.JetParams(B0=0.0)
        with pytest.raises(gp.ParameterError):
            gp.JetParams(epsilon=-0.1)
        with pytest.raises(gp.ParameterError):
            gp.JetParams(k=0.0)

    def test_surface_invariants(self):
        with pytest.raises(gp.ParameterError):
            gp.SurfaceCurrentParams(z_decay=0.0)

    def test_unknown_mode(self):
        with pytest.raises(gp.ParameterError):
            gp.FlowEnvironment(mode="bogus")
