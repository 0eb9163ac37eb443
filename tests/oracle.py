"""Brute-force test oracles: for gliderplan.search.plan, for the links
gliderplan.grid.insert_terminal makes, and for the nodes
gliderplan.grid.build_grid's graph reads as."""

import math
from itertools import islice, repeat

import gliderplan as gp


def lattice_nodes(spec):
    """The lattice nodes of spec as a list of Node tuples, ids row-major
    from (x_min, y_min), built in one bulk pass with each column's x and
    each row's y made once. The reference for g.nodes of a build_grid
    lattice."""
    nx, ny = spec.shape
    xs = [spec.x_min + i * spec.h for i in range(nx)]
    ys = [spec.y_min + j * spec.h for j in range(ny)]
    return list(map(tuple.__new__, repeat(gp.Node), zip(
        range(nx * ny), xs * ny, [y for y in ys for _ in xs])))


def terminal_links(g, x, y):
    """Ids of the lattice nodes of g that a terminal at (x, y) links to:
    every one within Euclidean radius sector_order * h but not on it, by a
    scan of them all, in id order. The reference for insert_terminal's
    lattice window."""
    radius = g.spec.sector_order * g.spec.h
    return [node.id for node in islice(g.nodes, math.prod(g.shape))
            if 0.0 < math.hypot(node.x - x, node.y - y) <= radius]


def brute_force_plan(g, t0, profiles, env, veh, integ, evaluator=None,
                     max_hops=12):
    """Exhaustive enumeration of simple start-goal paths up to max_hops,
    accumulating time-dependent edge costs in path order. Test oracle for
    gliderplan.plan(); only suitable for small graphs. Every profile is flown as a
    family of its own (cost.solo_families), so the oracle shares none of
    plan()'s fork steps.

    Partial paths already no better than the best complete path are cut,
    which cannot change the returned minimum (travel times are positive).
    """
    if g.start_id is None or g.goal_id is None:
        raise gp.ParameterError("graph needs start and goal terminals")
    start, goal = g.start_id, g.goal_id
    families = gp.solo_families(profiles, env, veh, integ)
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
            result = gp.edge_cost(edge, t, families, evaluator)
            if result.best_time is None:
                continue
            on_path.add(m)
            legs.append(gp.Leg(edge.frm, m, t, result.best_time,
                               result.best_profile_index))
            visit(m, t + result.best_time, hops + 1, on_path, legs)
            legs.pop()
            on_path.remove(m)

    visit(start, t0, 0, {start}, [])
    if best["arrival"] is None:
        raise gp.NoPathError("no start-goal path within %d hops" % max_hops)
    return gp.PathResult(best["legs"], t0, best["arrival"])
