"""Edge traversal cost for a gliding vehicle.

Travel time along an edge is obtained by fixed-step simulation of the
vehicle holding the edge track through the current field while flying a
sawtooth depth trajectory. The per-edge cost is the minimum travel time
over a set of candidate dive profiles.

Profiles are flown in families, grouped once per search
(profile_families). Only the surface term of the field depends on depth,
and it is exactly 0.0 at and below ocean.depth_independent_below. So
profiles that start at the same climb depth, or that never climb above
that depth, sample the same field, bit for bit, until their depths part
with one of them above it; one rule (_fork_step) finds that step, or
that there is none. A family's trunk is flown once; every other member
resumes from the trunk's state at its own fork step. A family flies with
the env, vehicle and integration it was grouped for, and is one
independent work unit.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError
from .ocean import depth_independent_below
# The kernel's one field call per step, and the name the benchmark's tracer
# wraps. field_uv returns a plain (u, v) tuple: building a FlowSample per
# step, as ocean.velocity does, took about a fifth of the example search.
from .ocean import field_uv as velocity


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


# EdgeCostResult and EdgeTask are made per edge in the search loop; as
# named tuples they cost a fraction of a frozen dataclass. edge_cost builds
# them with tuple.__new__, which skips the named tuple's generated __new__
# and its Python frame.
_new = tuple.__new__


class EdgeCostResult(NamedTuple):
    """Minimum travel time over the profile set. Infeasible traversals are
    represented as None, never as a sentinel number."""

    best_time: object
    best_profile_index: object


@dataclass(frozen=True)
class Family:
    """Dive profiles flown as one trajectory until their depths part
    (profile_families, solo_families), through env by veh with integ, the
    only ones its fork steps hold for. Immutable, so one family serves
    every edge of a search and every pool worker.

    profiles holds the members, trunk first. stops holds the distinct
    steps, ascending, at which some member forks from the trunk, then -1,
    which no step matches. flights holds, per member, (slot, z_climb,
    z_dive, half, period): the position in stops of the member's fork step
    (None for the trunk and for a member that never forks) and its
    sawtooth constants for _depth."""

    profiles: tuple
    stops: tuple
    flights: tuple
    env: object
    veh: object
    integ: object


class EdgeTask(NamedTuple):
    """Self-contained per-family edge-cost work unit (value message).

    t_limit is traverse_edge's absolute deadline, math.inf for none. It
    travels in the task so that every evaluator cuts the same traversals."""

    task_id: int
    edge: object
    t_start: float
    family: Family
    t_limit: float = math.inf

    def run(self):
        # one unpack reads the fields faster than four attribute reads
        _id, edge, t_start, family, t_limit = self
        return traverse_edge(edge, t_start, family, None, t_limit)


def _sawtooth(profile, w_vert):
    """A profile's sawtooth constants (z_climb, z_dive, half, period) for
    _depth."""
    half = (profile.z_dive_to - profile.z_climb_to) / w_vert
    return profile.z_climb_to, profile.z_dive_to, half, 2.0 * half


def _depth(t_rel, z_climb, z_dive, half, period, w_vert):
    """Depth (m) at time t_rel after edge start: triangular wave from
    z_climb down to z_dive and back, starting in descent."""
    phase = math.fmod(t_rel, period)
    if phase <= half:
        return z_climb + w_vert * phase
    return z_dive - w_vert * (phase - half)


def _family(members, forks, env, veh, integ):
    """A Family of members, trunk first, with each member's fork step
    (None: never)."""
    stops = sorted({f for f in forks if f is not None})
    slots = [None if f is None else stops.index(f) for f in forks]
    return Family(
        tuple(members), tuple(stops) + (-1,),
        tuple((i,) + _sawtooth(p, veh.w_vert) for p, i in zip(members, slots)),
        env, veh, integ)


def _fork_step(trunk, member, z_flat, w_vert, integ):
    """The first step at which member's depth differs from trunk's with
    one of them above z_flat, the first step at which their fields may
    differ; None (never) for the same (climb, dive) pair, or when neither
    climbs above z_flat, so both sample the same field at every step.

    Depths come from _depth at the kernel's own elapsed sequence
    (elapsed += dt), so the step is exact. The scan is bounded: it stops
    at the first step past the shorter sawtooth period, which it returns,
    or after max_steps steps, which no traversal outlasts (None). Forking
    a member earlier than needed only makes it fly more steps on its own,
    which is still exact.
    """
    a = _sawtooth(trunk, w_vert)
    b = _sawtooth(member, w_vert)
    if a[:2] == b[:2] or min(a[0], b[0]) >= z_flat:
        return None
    bound = min(a[3], b[3])
    dt = integ.dt
    elapsed = 0.0
    for k in range(integ.max_steps):
        z_a = _depth(elapsed, *a, w_vert)
        z_b = _depth(elapsed, *b, w_vert)
        if z_a != z_b and (z_a < z_flat or z_b < z_flat) or elapsed > bound:
            return k
        elapsed += dt
    return None


def solo_families(profiles, env, veh, integ):
    """Every profile as a family of its own, in the given order: nothing
    is shared."""
    return [_family((p,), (None,), env, veh, integ) for p in profiles]


def profile_families(profiles, env, veh, integ):
    """The profiles grouped into families; made once per search.

    Profiles are grouped by min(z_climb_to, z_flat), with
    z_flat = depth_independent_below(env): by climb depth if they climb
    above z_flat, else all in one group. A group's trunk is its first
    profile with the deepest dive, which stays below z_flat longest, and
    every other member forks from it at _fork_step, which alone decides
    whether it ever does. Families, and the members after each trunk, keep
    the given order.
    """
    w_vert = veh.w_vert
    z_flat = depth_independent_below(env)
    groups = {}
    for p in profiles:
        groups.setdefault(min(p.z_climb_to, z_flat), []).append(p)
    out = []
    for members in groups.values():
        i = max(range(len(members)), key=lambda j: members[j].z_dive_to)
        trunk = members[i]
        rest = members[:i] + members[i + 1:]
        out.append(_family(
            [trunk] + rest,
            [None] + [_fork_step(trunk, p, z_flat, w_vert, integ) for p in rest],
            env, veh, integ))
    return out


def traverse_edge(edge, t_start, family, trace=None, t_limit=math.inf):
    """Travel time along the edge for each of the family's profiles, in
    family order, or None if no profile arrives, flown with the family's
    env, veh and integ. A profile's time is None if its traversal is
    infeasible (track cannot be held, ground speed collapses, or the step
    budget is exhausted).

    The vehicle crabs to null cross-track drift, so the along-track ground
    speed is c_par + sqrt(v_bf^2 - c_perp^2). The final step is shortened
    exactly to terminate at the edge length.

    The trunk is flown first and saves its (s, elapsed) at the start of
    each member's fork step. A member resumes from that state with its own
    depth, or takes the trunk's time if the trunk ended before the fork
    step: up to it, both flew the same field. Every time is the one the
    profile gives when flown alone. When trace is a list, a
    (t, s, x, y, z, u, v, g) row is appended per step flown: the trunk's,
    then each resumed member's.

    t_limit is an absolute deadline, math.inf for none: a traversal stops
    with None as soon as a step starts at t_start + elapsed >= t_limit.
    The returned time is at least every earlier step's elapsed, so a
    traversal with t_start + time < t_limit is never cut and returns the
    same time as without a deadline.
    """
    env, veh, integ = family.env, family.veh, family.integ
    v_bf = veh.v_bf
    v_bf2 = v_bf * v_bf
    w_vert = veh.w_vert
    dt = integ.dt
    eps = integ.eps_speed
    max_steps = integ.max_steps
    # one unpack of the grid.Edge; the flight reads all but frm and to
    _frm, _to, x0, y0, length, dx, dy = edge
    sqrt = math.sqrt
    stops = family.stops
    stop = stops[0]
    saved = ()
    times = ()
    arrived = False
    first = 0
    s = 0.0
    elapsed = 0.0
    for slot, z_climb, z_dive, half, period in family.flights:
        if times:
            if slot is None or slot >= len(saved):
                times += times[:1]
                continue
            s, elapsed = saved[slot]
            first = stops[slot]
            stop = -1
        time = None
        for k in range(first, max_steps):
            if k == stop:
                saved += ((s, elapsed),)
                stop = stops[len(saved)]
            t = t_start + elapsed
            if t >= t_limit:
                break
            z = _depth(elapsed, z_climb, z_dive, half, period, w_vert)
            x = x0 + s * dx
            y = y0 + s * dy
            u, v = velocity(x, y, z, t, env)
            c_par = u * dx + v * dy
            c_perp = -u * dy + v * dx
            if abs(c_perp) >= v_bf:
                break
            g = c_par + sqrt(v_bf2 - c_perp * c_perp)
            if g <= eps:
                break
            if trace is not None:
                trace.append((t, s, x, y, z, u, v, g))
            remaining = length - s
            if g * dt >= remaining:
                time = elapsed + remaining / g
                arrived = True
                break
            s += g * dt
            elapsed += dt
        times += (time,)
    return times if arrived else None


def serial_evaluator(tasks):
    """In-process evaluation of edge tasks, in task order."""
    return [task.run() for task in tasks]


def edge_cost(edge, t_start, families, evaluator=None, t_limit=math.inf):
    """Minimum travel time over the families' profiles, lowest profile
    index on ties.

    families come from profile_families (once per search) or
    solo_families. best_profile_index is the winning profile's own index.
    The evaluator maps a task list, one task per family, to a list of
    traverse_edge results ordered by task id; the result is identical
    regardless of the evaluation strategy, and regardless of how the
    profiles are grouped into families.

    t_limit is an absolute deadline handed to every traversal
    (traverse_edge), math.inf for none: a profile that cannot arrive
    before it may report None. The result is the one without a deadline
    whenever that arrives before t_limit (t_start + best_time < t_limit);
    otherwise best_time is None or does not arrive before t_limit either.
    """
    if not families:
        raise ParameterError("profile set must be non-empty")
    if evaluator is None:
        evaluator = serial_evaluator
    tasks = []
    for family in families:
        tasks.append(_new(EdgeTask, (len(tasks), edge, t_start, family,
                                     t_limit)))
    results = evaluator(tasks)
    best = None
    best_i = None
    # Counters, not zip: on a graph whose edges fly one step, building
    # a zip per edge costs more than the loop itself.
    i = 0
    for family_times in results:
        profiles = families[i].profiles
        i += 1
        if family_times is None:
            continue
        j = 0
        for t in family_times:
            if t is not None and (best is None or t < best or t == best
                                  and profiles[j].index < best_i):
                best = t
                best_i = profiles[j].index
            j += 1
    return _new(EdgeCostResult, (best, best_i))
