"""Reference answers the benchmark checks the planner against.

Nothing here calls gliderplan.cost: the reference integrator and the
lattice oracle restate the vehicle model from its definition. The
along-track position s obeys ds/dt = c_par + sqrt(v_bf^2 - c_perp^2),
where c_par and c_perp are the current's components along and across the
track, taken at the depth of the sawtooth dive profile.
"""

import heapq
import math

from gliderplan.ocean import MODE_FULL, MODE_SURFACE, velocity

# Classic fourth-order Runge-Kutta with this step. Steps end on every kink
# of the right-hand side (sawtooth turns, z_decay crossings), so the
# scheme keeps its order and the reference error is far below the
# planner's.
REF_DT = 2e-3


class FlightError(Exception):
    """The reference flight cannot hold the track or stalls."""


def _sawtooth(t_rel, z_climb, z_dive, w_vert):
    half = (z_dive - z_climb) / w_vert
    phase = t_rel % (2.0 * half)
    if phase <= half:
        return z_climb + w_vert * phase
    return z_dive - w_vert * (phase - half)


def _kinks(z_climb, z_dive, w_vert, env):
    """Sorted times in [0, period) after leg start where the right-hand
    side has a kink, and the sawtooth period."""
    half = (z_dive - z_climb) / w_vert
    out = [0.0, half]
    if env.mode in (MODE_FULL, MODE_SURFACE):
        z_decay = env.surface.z_decay
        if z_climb < z_decay < z_dive:
            down = (z_decay - z_climb) / w_vert
            out += [down, 2.0 * half - down]
    return sorted(out), 2.0 * half


def leg_time(x0, y0, x1, y1, t_start, profile, env, v_bf, w_vert, h=REF_DT):
    """Time to fly the straight leg from (x0, y0) to (x1, y1), departing
    at t_start; the last step is cut so that it ends exactly at the end."""
    length = math.hypot(x1 - x0, y1 - y0)
    ex, ey = (x1 - x0) / length, (y1 - y0) / length
    zc, zd = profile.z_climb_to, profile.z_dive_to

    def speed(s, t):
        z = _sawtooth(t - t_start, zc, zd, w_vert)
        f = velocity(x0 + s * ex, y0 + s * ey, z, t, env)
        c_par = f.u * ex + f.v * ey
        c_perp = -f.u * ey + f.v * ex
        if abs(c_perp) >= v_bf:
            raise FlightError("cross-track current %g >= v_bf" % c_perp)
        g = c_par + math.sqrt(v_bf * v_bf - c_perp * c_perp)
        if g <= 0.0:
            raise FlightError("ground speed %g <= 0" % g)
        return g

    def rk4(s, t, dt):
        k1 = speed(s, t)
        k2 = speed(s + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = speed(s + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = speed(s + dt * k3, t + dt)
        return s + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    kinks, period = _kinks(zc, zd, w_vert, env)

    def next_kink(t_rel):
        base = math.floor(t_rel / period) * period
        for k in kinks[1:] + [period, period + kinks[1]]:
            if base + k > t_rel + 1e-12:
                return base + k

    s, t = 0.0, t_start
    while True:
        dt = min(h, t_start + next_kink(t - t_start) - t)
        s_next = rk4(s, t, dt)
        if s_next >= length:
            # Newton on the step length: s(t + tau) = length
            tau = (length - s) / speed(s, t)
            for _ in range(50):
                miss = rk4(s, t, tau) - length
                step = miss / speed(length, t + tau)
                tau -= step
                if abs(step) <= 1e-15 * (1.0 + tau):
                    break
            return t + tau - t_start
        s, t = s_next, t + dt


def reference_arrival(outcome):
    """Fly the planned legs in order, each departing at the previous
    reference arrival; return the reference arrival at the goal."""
    cfg = outcome.cfg
    t = outcome.result.t0
    legs = zip(outcome.leg_points, outcome.leg_profiles)
    for i, ((x0, y0, x1, y1), profile) in enumerate(legs):
        try:
            t += leg_time(x0, y0, x1, y1, t, profile, cfg.env,
                          cfg.vehicle.v_bf, cfg.vehicle.w_vert)
        except FlightError as exc:
            raise FlightError("leg %d: %s" % (i, exc))
    return t


def uniform_leg_time(x0, y0, x1, y1, ux, uy, v_bf):
    """Closed-form travel time of a straight leg in a uniform current."""
    length = math.hypot(x1 - x0, y1 - y0)
    ex, ey = (x1 - x0) / length, (y1 - y0) / length
    c_par = ux * ex + uy * ey
    c_perp = -ux * ey + uy * ex
    return length / (c_par + math.sqrt(v_bf * v_bf - c_perp * c_perp))


def static_dijkstra_arrival(graph, t0, ux, uy, v_bf):
    """Earliest arrival at the goal terminal in a uniform current, where
    every edge time is fixed and given by uniform_leg_time."""
    nodes = graph.nodes
    best = {graph.start_id: 0.0}
    done = set()
    heap = [(0.0, graph.start_id)]
    while heap:
        d, n = heapq.heappop(heap)
        if n in done:
            continue
        if n == graph.goal_id:
            return t0 + d
        done.add(n)
        a = nodes[n]
        for edge in graph.adj[n]:
            b = nodes[edge.to]
            nd = d + uniform_leg_time(a.x, a.y, b.x, b.y, ux, uy, v_bf)
            if nd < best.get(edge.to, math.inf):
                best[edge.to] = nd
                heapq.heappush(heap, (nd, edge.to))
    raise FlightError("goal unreachable in the oracle graph")


def self_check():
    """The reference integrator against the closed form in uniform flow;
    returns the largest relative difference over a few legs."""
    from gliderplan.ocean import FlowEnvironment
    from gliderplan.profiles import DiveProfile

    worst = 0.0
    profile = DiveProfile(0.0, 150.0, 0)
    for ux, uy in ((0.15, 0.05), (-0.2, 0.1), (0.0, -0.3)):
        env = FlowEnvironment.uniform(ux, uy)
        for x1, y1 in ((1.0, 0.0), (0.3, -0.7), (-0.4, 0.25)):
            got = leg_time(0.1, 0.2, x1, y1, 3.0, profile, env, 0.5, 100.0)
            want = uniform_leg_time(0.1, 0.2, x1, y1, ux, uy, 0.5)
            worst = max(worst, abs(got - want) / want)
    return worst
