"""Time-varying-environment shortest-time search.

Label-setting A* over time-dependent edge costs: edge costs are evaluated
at the arrival time of the settled tail node, no waiting at nodes. The
queue is keyed on arrival + h(node), where h is a lower bound on the
travel time from the node to the goal. With FIFO edge costs (Kaufman &
Smith 1993) and a consistent h, a settled label is final, as in Dijkstra
(Hart, Nilsson & Raphael 1968; Chabini & Lan 2002 for time-dependent
networks); plan() assumes FIFO costs and does not check them. With h = 0
the search is Dijkstra, key and tie rules included.

Where costs are not FIFO, a later arrival at a node can lead to an
earlier arrival at the goal, and plan() can miss it. The example
mission's costs are not: at t0 = 0 plan() arrives at 9.7198, while the
walk 35 -> 8 -> 7 -> 14 -> 23 -> 24 -> 36 arrives at 5.0394. It reaches
node 14 at 2.93, not at its label 1.38, and from there 14 -> 23 can be
flown (tests/test_search.py::TestOptimalityOracle::
test_example_walk_beats_plan_where_costs_are_not_fifo).

The bound comes from ocean.current_disk: every current sample c lies in a
disk about (cx, cy) of radius r, so every ground velocity c + w of a
vehicle with |w| = v_bf lies in the disk K about (cx, cy) of radius
R = v_bf + r. Along a unit direction d the kernel's ground speed
c_par + sqrt(v_bf^2 - c_perp^2) is then at most
rho(d) = C_par + sqrt(R^2 - C_perp^2), the same formula with the disk's
centre as the current and R as the speed, and each Euler step (the cut
final step too) covers at most rho(d) times its time. So no edge of
length L along d is flown faster than L / rho(d). That time is the gauge
of K, which is convex and holds the origin when hypot(cx, cy) < R, so it
obeys the triangle inequality: h(n) = L(n, goal) / rho(dir(n, goal)) is at
most any edge's time plus h at its head, which is consistency. h is shrunk
by a relative 1e-12 so that rounding in the bound, the keys and the
kernel's cut final step cannot make it inconsistent. That needs the
rounding in rho, a few ulps of R, to stay well below 1e-12 of rho;
rho >= R - hypot(cx, cy) >= R / 100 keeps it under 1e-13. It also needs
an edge's time to be long against the rounding of h at its ends. That
holds for lattice edges, and for a link into the goal, where h is 0 at
the head and at the tail is the link's own straight-leg bound. A link at
a start an ulp from a grid node is shorter than that rounding, so h is
consistent on every edge where neither end is the start. That is all
plan() needs: the start pops first, as the only entry queued; no edge
into it is ever flown, as it is settled; and an edge out of it is keyed
on (t0 + lb) + h(head), never on h(start), which plan() does not
evaluate. When the current may outrun the vehicle (hypot(cx, cy) >= R),
or comes within 1% of R, h is 0 and the search is Dijkstra. The direction
to the goal is L's components over L, a unit vector to an ulp wherever L
is at least the smallest normal float (grid.MIN_EDGE_LENGTH), the
shortest edge Graph.edge makes. The bound is 0 closer than that, as at
the goal's own position.

The graph stores no edges: a settled node's out-neighbours come from
Graph.heads, and Graph.edge makes an edge only for a flight. Edges are
flown lazily (lazy best-first search, Dellin & Srinivasa 2016). When a
node n settles at t, each edge n -> m is queued unflown, as a candidate
keyed on (t + lb) + h(m), rounded in those two steps as a node's key
arrival + h(m) is. lb is the same disk bound for the straight leg n -> m:
one bound, made once per search (_leg_bound), gives h and lb, each shrunk
by the same relative 1e-12, well above the rounding in rho, so lb is at
most the edge's flight time. A candidate is flown when it pops; at equal
keys candidates pop before nodes. Rounding is monotone, so a candidate
whose flight would lower or tie m's label has a key no greater than the
key m gets from that label: it pops, and is flown, before m settles. That
holds for any lb no greater than the flight time. With h = 0, lb = 0 too,
every candidate pops right after its tail settles, and the search is
Dijkstra.

A lattice edge's lb comes from a table made once per search, keyed by
head id minus tail id: the bound of its offset's nominal leg
(di * h, dj * h), shrunk so that it is at most the bound of the edge's own
leg. The two legs differ by the rounding of the node coordinates
x_min + i * h and y_min + j * h and of their differences: each component
by at most err = 3u (max(|x_min| + 2 (nx - 1) h, |y_min| + 2 (ny - 1) h)
+ sector_order * h), u the unit roundoff, so the legs are at most 1.5 err
apart. The unshrunk bound is the gauge of K, which obeys the triangle
inequality, and along any direction rho lies between R - hypot(cx, cy)
>= R / 100 and 2R, so moving a leg of length at least h by 1.5 err moves
its bound by at most a relative 300 err / h. The table shrinks the
nominal leg's lb by that and by a further relative 1e-12, which covers the
rounding of the two bound evaluations (each under 1e-13, as above). In a
box so far from the origin against h that the shrink takes the whole
bound, lb is 0. Where nx <= 2 * sector_order two offsets can share a key,
and the table holds the smaller bound, still a bound on both. Links to
the terminals, and every edge of a graph build_grid did not make
(Graph.n_lattice is 0), take the bound of their own leg.

Three cuts keep flights that cannot improve a label from being flown,
checked when the candidate is queued and again when it pops. An edge into
a settled head m can never arrive before arrival[m]: by the argument
above, one that could would have been flown before m settled. Nor can an
edge into a head already reached before the departure (arrival[m] < t),
as travel times are positive. Neither edge is made. Any other edge is
flown with the float just above the head's tentative arrival at the pop
as its deadline (cost.edge_cost's t_limit): a later arrival cannot
improve the label, and one that ties it is flown to the end, for plan()'s
tie rule. A deadline taken later is only tighter, so it cuts only flights
that could neither improve nor tie the label. A step starts no later than
the flight ends, so the tie's last step always starts before that
deadline, and every flight starts before its deadline.

The profiles are grouped into families once per search, for its env,
vehicle and integration (cost.profile_families). Each costed edge flies
one trajectory per family: profiles that share a climb depth share their
steps until their depths part.
"""

import heapq
import math
from dataclasses import dataclass

from .cost import edge_cost, profile_families
from .errors import NoPathError, ParameterError
from .grid import MIN_EDGE_LENGTH
from .ocean import current_disk

# The relative shrink of the straight-leg bound, which gives h and lb,
# against rounding, and of the lattice table on top of its rounding
# margin (see the module doc).
_SHRINK = 1.0 - 1e-12
_UNIT_ROUNDOFF = math.ulp(1.0) / 2
# The disk bound is used while the disk's centre is at most this share of
# R from the origin, so its speed toward the goal is at least 1% of R
# (see the module doc); h is 0 beyond it.
_DISK_SPAN = 0.99


# A plan's result holds a Leg per path leg; slots keep each one small.
@dataclass(frozen=True, slots=True)
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


def _reconstruct(pred, start, goal, t0, arrival):
    legs = []
    node = goal
    while node != start:
        tail, departure, travel, profile = pred[node]
        legs.append(Leg(tail, node, departure, travel, profile))
        node = tail
    legs.reverse()
    return PathResult(legs, t0, arrival)


def _leg_bound(env, veh):
    """bound(ex, ey): a lower bound on the time any flight through env
    takes along the straight leg (ex, ey), the disk bound of the module
    doc times _SHRINK. It is 0 for a leg shorter than MIN_EDGE_LENGTH, and
    for every leg when the disk's centre is more than _DISK_SPAN * R from
    the origin."""
    cx, cy, r = current_disk(env)
    R = veh.v_bf + r
    R2 = R * R
    sqrt = math.sqrt
    hypot = math.hypot

    if hypot(cx, cy) > _DISK_SPAN * R:
        return lambda ex, ey: 0.0

    def bound(ex, ey):
        length = hypot(ex, ey)
        if length < MIN_EDGE_LENGTH:
            return 0.0
        dx, dy = ex / length, ey / length
        c_perp = cx * dy - cy * dx
        rho = cx * dx + cy * dy + sqrt(R2 - c_perp * c_perp)
        return _SHRINK * length / rho

    return bound


def _lattice_bounds(g, bound):
    """lb for every lattice edge of a graph build_grid made, keyed by head
    id minus tail id: bound of the edge's nominal leg (di * h, dj * h),
    shrunk to cover how far rounding puts the node coordinates from it
    (see the module doc). Where offsets share a key (nx <= 2 *
    sector_order), the least of their bounds. Empty for any other graph,
    whose edges all take bound on their own legs."""
    if not g.n_lattice:
        return {}
    spec = g.spec
    nx, ny = g.shape
    h = spec.h
    # a lattice leg's components lie within err of the nominal leg's
    err = 3 * _UNIT_ROUNDOFF * (
        max(abs(spec.x_min) + 2 * (nx - 1) * h,
            abs(spec.y_min) + 2 * (ny - 1) * h) + spec.sector_order * h)
    shrink = max(0.0, _SHRINK - 300 * err / h)
    table = {}
    for di, dj in g.offsets:
        # an offset no lattice edge has would only lower a shared key's lb
        if abs(di) < nx and abs(dj) < ny:
            lb = shrink * bound(di * h, dj * h)
            key = dj * nx + di
            table[key] = min(lb, table.get(key, lb))
    return table


def plan(g, t0, profiles, env, veh, integ, evaluator=None):
    """Least-arrival-time path from the start terminal to the goal terminal.

    A* whose edges are flown lazily, with one straight-leg bound
    (_leg_bound) made per search: h(node) is its bound on the leg from the
    node to the goal. A node reached at arrival is queued on
    (arrival + h(node), 1, arrival, node id), and the start on
    (t0, 1, t0, start), so with h = 0 nodes pop in Dijkstra's order,
    (arrival time, node id). When a node n settles at t, each edge n -> m
    into a head that is neither settled nor reached before t is queued
    unflown, as a candidate ((t + lb) + h(m), 0, n, m), lb the bound on
    the edge's straight leg, read from the table of _lattice_bounds where
    n and m are both below g.n_lattice; at equal keys candidates pop
    first. A popped candidate whose head is still neither settled nor
    reached before t is made with Graph.edge and flown once per profile
    family (cost.profile_families, grouped once here), up to just past the
    head's tentative arrival at the pop.

    A label keeps its tail's id, departure, travel time and profile index.
    Among tails that reach a node at the same arrival, the one with the
    least (departure, tail id) is its predecessor: the tail Dijkstra
    settles first, whose label it keeps. That rule does not depend on the
    order in which tails settle or their edges are flown, so the path is
    the one h = 0 gives. Ties between profiles break on the lowest profile
    index, so the result is the same as when every profile is flown alone.
    """
    if g.start_id is None or g.goal_id is None:
        raise ParameterError("graph needs start and goal terminals")
    start, goal = g.start_id, g.goal_id
    families = profile_families(profiles, env, veh, integ)
    bound = _leg_bound(env, veh)
    table = _lattice_bounds(g, bound)
    n_lattice = g.n_lattice
    xs, ys = g.xs, g.ys
    gx, gy = xs[goal], ys[goal]
    inf = math.inf
    heappush = heapq.heappush
    arrival = {start: t0}
    pred = {}
    settled = set()
    # h of each node a candidate has reached; the keys are made inline,
    # since a lattice search queues some 30 candidates per settled node.
    # The start is the only entry when it pops, so its key needs no h.
    hs = {}
    heap = [(t0, 1, t0, start)]
    while heap:
        _key, is_node, a, b = heapq.heappop(heap)
        if is_node:
            t, n = a, b
            if n in settled:
                continue
            settled.add(n)
            if n == goal:
                return _reconstruct(pred, start, goal, t0, t)
            x, y = xs[n], ys[n]
            # heads below lim are lattice nodes, as n is, and read their lb
            # from the table; lim is 0 for a terminal tail
            lim = n_lattice if n < n_lattice else 0
            for m in g.heads(n):
                if arrival.get(m, inf) < t or m in settled:
                    continue
                hm = hs.get(m)
                if hm is None:
                    hm = hs[m] = bound(gx - xs[m], gy - ys[m])
                if m < lim:
                    lb = table[m - n]
                else:
                    lb = bound(xs[m] - x, ys[m] - y)
                heappush(heap, ((t + lb) + hm, 0, n, m))
            continue
        n, m = a, b
        t = arrival[n]
        tentative = arrival.get(m, inf)
        if tentative < t or m in settled:
            continue
        best_time, best_i = edge_cost(g.edge(n, m), t, families, evaluator,
                                      math.nextafter(tentative, inf))
        if best_time is None:
            continue
        arr = t + best_time
        if arr < tentative:
            arrival[m] = arr
            pred[m] = (n, t, best_time, best_i)
            heappush(heap, (arr + hs[m], 1, arr, m))
        elif arr == tentative and (t, n) < (pred[m][1], pred[m][0]):
            pred[m] = (n, t, best_time, best_i)
    raise NoPathError("goal terminal unreachable from start at t0=%g" % t0)

