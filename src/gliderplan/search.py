"""Time-varying-environment shortest-time search.

Label-setting (time-dependent Dijkstra): edge costs are evaluated at the
arrival time of the settled tail node, no waiting at nodes. Optimality
requires FIFO edge costs (Kaufman & Smith 1993), under which a settled
label is final; plan() assumes them and does not check them.

Heap pops never decrease and travel times are positive, so an edge into a
settled head m can never arrive before arrival[m]; such edges are not
flown at all. An edge into an unsettled head is flown with the head's
tentative arrival as its deadline (cost.edge_cost's t_limit), since a
later arrival cannot improve the label.

The profiles are grouped into families once per search, for its env,
vehicle and integration (cost.profile_families). Each costed edge flies
one trajectory per family: profiles that share a climb depth share their
steps until their depths part.
"""

import heapq
import math
from dataclasses import dataclass

from .cost import edge_cost, profile_families, solo_families
from .errors import NoPathError, ParameterError


@dataclass(frozen=True)
class Leg:
    frm: int
    to: int
    departure: float
    travel_time: float
    profile_index: int


@dataclass
class PathResult:
    legs: list
    t0: float
    arrival: float

    @property
    def total_time(self):
        return self.arrival - self.t0

    def node_sequence(self):
        if not self.legs:
            return []
        return [self.legs[0].frm] + [leg.to for leg in self.legs]


def _reconstruct(pred, start, goal, t0, arrival):
    legs = []
    node = goal
    while node != start:
        edge, departure, travel, profile = pred[node]
        legs.append(Leg(edge.frm, edge.to, departure, travel, profile))
        node = edge.frm
    legs.reverse()
    return PathResult(legs, t0, arrival)


def plan(g, t0, profiles, env, veh, integ, evaluator=None):
    """Least-arrival-time path from the start terminal to the goal terminal.

    Ties in the queue break on (arrival time, node id); an equal-arrival
    relaxation never replaces an existing predecessor. Each edge into an
    unsettled node is flown once per profile family
    (cost.profile_families, grouped once here), up to that node's
    tentative arrival. Ties between profiles break on the lowest profile
    index, so the result is the same as when every profile is flown alone.
    """
    if g.start_id is None or g.goal_id is None:
        raise ParameterError("graph needs start and goal terminals")
    start, goal = g.start_id, g.goal_id
    families = profile_families(profiles, env, veh, integ)
    arrival = {start: t0}
    pred = {}
    settled = set()
    heap = [(t0, start)]
    while heap:
        t, n = heapq.heappop(heap)
        if n in settled:
            continue
        settled.add(n)
        if n == goal:
            return _reconstruct(pred, start, goal, t0, t)
        for edge in g.adj[n]:
            m = edge.to
            if m in settled:
                continue
            tentative = arrival.get(m, math.inf)
            best_time, best_i = edge_cost(edge, t, families, evaluator,
                                          tentative)
            if best_time is None:
                continue
            arr = t + best_time
            if arr < tentative:
                arrival[m] = arr
                pred[m] = (edge, t, best_time, best_i)
                heapq.heappush(heap, (arr, m))
    raise NoPathError("goal terminal unreachable from start at t0=%g" % t0)


def brute_force_plan(g, t0, profiles, env, veh, integ, evaluator=None, max_hops=12):
    """Exhaustive enumeration of simple start-goal paths up to max_hops,
    accumulating time-dependent edge costs in path order. Test oracle for
    plan(); only suitable for small graphs. Every profile is flown as a
    family of its own (cost.solo_families), so the oracle shares none of
    plan()'s fork steps.

    Partial paths already no better than the best complete path are cut,
    which cannot change the returned minimum (travel times are positive).
    """
    if g.start_id is None or g.goal_id is None:
        raise ParameterError("graph needs start and goal terminals")
    start, goal = g.start_id, g.goal_id
    families = solo_families(profiles, env, veh, integ)
    best = {"arrival": None, "legs": None}

    def visit(node, t, hops, on_path, legs):
        if best["arrival"] is not None and t >= best["arrival"]:
            return
        if node == goal:
            best["arrival"] = t
            best["legs"] = list(legs)
            return
        if hops == max_hops:
            return
        for edge in g.adj[node]:
            m = edge.to
            if m in on_path:
                continue
            result = edge_cost(edge, t, families, evaluator)
            if result.best_time is None:
                continue
            on_path.add(m)
            legs.append(Leg(edge.frm, m, t, result.best_time, result.best_profile_index))
            visit(m, t + result.best_time, hops + 1, on_path, legs)
            legs.pop()
            on_path.remove(m)

    visit(start, t0, 0, {start}, [])
    if best["arrival"] is None:
        raise NoPathError("no start-goal path within %d hops" % max_hops)
    return PathResult(best["legs"], t0, best["arrival"])
