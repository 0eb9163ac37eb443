"""Edge traversal cost for a gliding vehicle.

Travel time along an edge is obtained by fixed-step simulation of the
vehicle holding the edge track through the current field while flying a
sawtooth depth trajectory. The per-edge cost is the minimum travel time
over a set of candidate dive profiles; each profile evaluation is an
independent work unit suitable for parallel delegation.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError
from .ocean import depth_independent_below, velocity


@dataclass(frozen=True)
class VehicleParams:
    """v_bf: body-fixed horizontal speed (dimensionless); w_vert: vertical
    rate in m per unit dimensionless time."""

    v_bf: float = 0.5
    w_vert: float = 100.0

    def __post_init__(self):
        if not self.v_bf > 0:
            raise ParameterError("v_bf must be > 0")
        if not self.w_vert > 0:
            raise ParameterError("w_vert must be > 0")


@dataclass(frozen=True)
class IntegrationParams:
    dt: float = 0.01
    max_steps: int = 1_000_000
    eps_speed: float = 1e-6

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError("dt must be > 0")
        if self.max_steps <= 0:
            raise ParameterError("max_steps must be > 0")
        if self.eps_speed < 0:
            raise ParameterError("eps_speed must be >= 0")


# EdgeCostResult and EdgeTask are made per edge and per profile in the
# search loop; as named tuples they cost a fraction of a frozen dataclass.
class EdgeCostResult(NamedTuple):
    """Minimum travel time over the profile set. Infeasible traversals are
    represented as None, never as a sentinel number."""

    best_time: object
    best_profile_index: object
    per_profile_times: tuple


class EdgeTask(NamedTuple):
    """Self-contained per-profile edge-cost work unit (value message).

    t_limit is traverse_edge's absolute deadline, or None. It travels in
    the task so that every evaluator cuts the same traversals."""

    task_id: int
    edge: object
    t_start: float
    profile: object
    env: object
    veh: object
    integ: object
    t_limit: object = None

    def run(self):
        return traverse_edge(
            self.edge, self.t_start, self.profile, self.env, self.veh,
            self.integ, t_limit=self.t_limit
        )


def _sawtooth(profile, w_vert):
    """A profile's sawtooth constants (z_climb, z_dive, half, period) for
    _depth, computed once per traversal."""
    half = (profile.z_dive_to - profile.z_climb_to) / w_vert
    return profile.z_climb_to, profile.z_dive_to, half, 2.0 * half


def _depth(t_rel, z_climb, z_dive, half, period, w_vert):
    """Depth (m) at time t_rel after edge start: triangular wave from
    z_climb down to z_dive and back, starting in descent."""
    phase = math.fmod(t_rel, period)
    if phase <= half:
        return z_climb + w_vert * phase
    return z_dive - w_vert * (phase - half)


def sawtooth_depth(t_rel, profile, w_vert):
    """Depth (m) of the profile's sawtooth at time t_rel after edge start."""
    return _depth(t_rel, *_sawtooth(profile, w_vert), w_vert)


def traverse_edge(edge, t_start, profile, env, veh, integ, trace=None,
                  t_limit=None):
    """Travel time along the edge for one dive profile, or None if the
    traversal is infeasible (track cannot be held, ground speed collapses,
    or the step budget is exhausted).

    The vehicle crabs to null cross-track drift, so the along-track ground
    speed is c_par + sqrt(v_bf^2 - c_perp^2). The final step is shortened
    exactly to terminate at the edge length. When trace is a list, a
    (t, s, x, y, z, u, v, g) row is appended per step.

    t_limit is an absolute deadline: the traversal returns None as soon as
    a step starts at t_start + elapsed >= t_limit. The returned time is at
    least every earlier step's elapsed, so a traversal with
    t_start + time < t_limit is never cut and returns the same time as
    without a deadline.
    """
    v_bf = veh.v_bf
    v_bf2 = v_bf * v_bf
    w_vert = veh.w_vert
    z_climb, z_dive, half, period = _sawtooth(profile, w_vert)
    dt = integ.dt
    eps = integ.eps_speed
    length = edge.length
    dx, dy = edge.dx, edge.dy
    x0, y0 = edge.x0, edge.y0
    sqrt = math.sqrt
    limit = math.inf if t_limit is None else t_limit
    s = 0.0
    elapsed = 0.0
    for _ in range(integ.max_steps):
        t = t_start + elapsed
        if t >= limit:
            return None
        z = _depth(elapsed, z_climb, z_dive, half, period, w_vert)
        x = x0 + s * dx
        y = y0 + s * dy
        u, v = velocity(x, y, z, t, env)
        c_par = u * dx + v * dy
        c_perp = -u * dy + v * dx
        if abs(c_perp) >= v_bf:
            return None
        g = c_par + sqrt(v_bf2 - c_perp * c_perp)
        if g <= eps:
            return None
        if trace is not None:
            trace.append((t, s, x, y, z, u, v, g))
        remaining = length - s
        if g * dt >= remaining:
            return elapsed + remaining / g
        s += g * dt
        elapsed += dt
    return None


def serial_evaluator(tasks):
    """In-process evaluation of edge tasks, in task order."""
    return [task.run() for task in tasks]


def make_tasks(edge, t_start, profiles, env, veh, integ, t_limit=None):
    return [
        EdgeTask(p.index, edge, t_start, p, env, veh, integ, t_limit)
        for p in profiles
    ]


def distinct_profiles(profiles, env):
    """The profiles whose travel times can differ, in the given order.

    Every profile that never climbs above the depth from which env's
    field is depth-independent (ocean.depth_independent_below) flies the
    same field and gives bit-identical times on every edge, so the first
    of them stands for all. The kept profile of each class has the lowest
    index in it, so a search over the result breaks ties as one over all
    profiles.
    """
    z_flat = depth_independent_below(env)
    if z_flat is None:
        return list(profiles)
    out = []
    shielded = False
    for p in profiles:
        if p.z_climb_to < z_flat:
            out.append(p)
        elif not shielded:
            out.append(p)
            shielded = True
    return out


def edge_cost(edge, t_start, profiles, env, veh, integ, evaluator=None,
              t_limit=None):
    """Minimum travel time over all profiles, lowest index on ties.

    best_profile_index is the winning profile's own index, which is its
    list position when profiles is a full generated set. The evaluator
    maps a task list to a time list ordered by task id; the result is
    identical regardless of the evaluation strategy.

    t_limit is an absolute deadline handed to every traversal
    (traverse_edge): a profile that cannot arrive before it may report
    None. The result is the one without a deadline whenever that arrives
    before t_limit (t_start + best_time < t_limit); otherwise best_time
    is None or does not arrive before t_limit either.
    """
    if not profiles:
        raise ParameterError("profile set must be non-empty")
    if evaluator is None:
        evaluator = serial_evaluator
    times = evaluator(
        make_tasks(edge, t_start, profiles, env, veh, integ, t_limit))
    best = None
    best_i = None
    for p, t in zip(profiles, times):
        if t is not None and (best is None or t < best):
            best = t
            best_i = p.index
    return EdgeCostResult(best, best_i, tuple(times))
