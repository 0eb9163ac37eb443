"""Rectangular multi-sector grid graph over the mission region.

Nodes sit on a regular lattice; each node connects to every neighbor at a
coprime lattice offset with Chebyshev radius <= sector_order, giving a
distinct edge heading per ring (32 directions for order 3). Start/goal
terminals are inserted off-lattice and linked to nearby grid nodes.
"""

import math
import sys
from dataclasses import dataclass
from math import hypot
from typing import NamedTuple

from .errors import ParameterError


@dataclass(frozen=True)
class GridSpec:
    x_min: float = 0.0
    x_max: float = 8.0
    y_min: float = -2.5
    y_max: float = 2.5
    h: float = 0.4
    sector_order: int = 3

    def __post_init__(self):
        if not self.x_max > self.x_min or not self.y_max > self.y_min:
            raise ParameterError("grid bounding box is empty")
        if not self.h > 0:
            raise ParameterError("grid size h must be > 0")
        if self.sector_order < 1:
            raise ParameterError("sector_order must be >= 1")
        nx, ny = self.shape
        if nx < 2 or ny < 2:
            raise ParameterError("bounding box too small for a 2x2 lattice")

    @property
    def shape(self):
        """Lattice points per axis, (nx, ny)."""
        return tuple(int(math.floor(span / self.h + 1e-9)) + 1
                     for span in (self.x_max - self.x_min,
                                  self.y_max - self.y_min))


# One Edge is made per lattice edge (125,262 on the benchmark lattice); as
# named tuples Node and Edge cost a fraction of a frozen dataclass to build
# and to hold. An Edge holds only what a flight and the search read.
class Node(NamedTuple):
    id: int
    x: float
    y: float


class Edge(NamedTuple):
    """Directed edge frm -> to, made by Graph.edge: the start point, the
    length and the unit direction a flight reads, so cost evaluation needs
    no access to the graph."""

    frm: int
    to: int
    x0: float
    y0: float
    length: float
    dx: float
    dy: float


# Graph.edge refuses edges shorter than this, the smallest normal float
# (see there).
MIN_EDGE_LENGTH = sys.float_info.min

# Builds an Edge from a field tuple, skipping the named tuple's generated
# Python __new__ (as ocean._sample does for FlowSample).
_edge = tuple.__new__


class Graph:
    """Immutable after construction except for terminal insertion."""

    def __init__(self, spec):
        self.spec = spec
        self.nodes = []
        self.adj = []
        self.start_id = None
        self.goal_id = None

    def add_node(self, x, y):
        node = Node(len(self.nodes), x, y)
        self.nodes.append(node)
        self.adj.append([])
        return node.id

    def edge(self, a, b):
        """The edge a -> b from the node coordinates; the one formula every
        edge of the graph is built with, so it rebuilds any of them
        exactly. The edge holds its nodes' own id objects, which saves an
        int object per lattice edge. An edge shorter than the smallest
        normal float is refused: below it hypot loses the precision that
        makes (dx, dy) a unit vector."""
        a, ax, ay = self.nodes[a]
        b, bx, by = self.nodes[b]
        ex, ey = bx - ax, by - ay
        length = hypot(ex, ey)
        if length < MIN_EDGE_LENGTH:
            what = "zero-length" if length == 0.0 else "subnormal-length"
            raise ParameterError("%s edge %d -> %d at (%g, %g)"
                                 % (what, a, b, ax, ay))
        return _edge(Edge, (a, b, ax, ay, length, ex / length, ey / length))

    def n_edges(self):
        return sum(len(lst) for lst in self.adj)


def coprime_offsets(s):
    """Lattice offsets (di, dj) with Chebyshev radius <= s and
    gcd(|di|, |dj|) = 1, in lexicographic order."""
    out = []
    for di in range(-s, s + 1):
        for dj in range(-s, s + 1):
            if (di, dj) == (0, 0):
                continue
            if math.gcd(abs(di), abs(dj)) != 1:
                continue
            out.append((di, dj))
    return out


def build_grid(spec):
    """Grid graph over the bounding box; node ids row-major from
    (x_min, y_min), edge lists ordered by the offset table."""
    g = Graph(spec)
    nx, ny = spec.shape
    for j in range(ny):
        for i in range(nx):
            g.add_node(spec.x_min + i * spec.h, spec.y_min + j * spec.h)
    offsets = coprime_offsets(spec.sector_order)
    edge = g.edge
    for j in range(ny):
        for i in range(nx):
            a = j * nx + i
            out = g.adj[a]
            for di, dj in offsets:
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    out.append(edge(a, jj * nx + ii))
    return g


def insert_terminal(g, x, y, role):
    """Add a start or goal node at (x, y), linked both ways to all grid
    nodes within Euclidean radius sector_order * h (coincident nodes are
    skipped). Returns the new node id."""
    spec = g.spec
    if not (spec.x_min <= x <= spec.x_max and spec.y_min <= y <= spec.y_max):
        raise ParameterError("terminal (%g, %g) outside the bounding box" % (x, y))
    if role not in ("start", "goal"):
        raise ParameterError("terminal role must be 'start' or 'goal'")
    n_grid = math.prod(spec.shape)
    radius = spec.sector_order * spec.h
    tid = g.add_node(x, y)
    linked = 0
    for node in g.nodes[:n_grid]:
        dist = math.hypot(node.x - x, node.y - y)
        if dist == 0.0 or dist > radius:
            continue
        g.adj[tid].append(g.edge(tid, node.id))
        g.adj[node.id].append(g.edge(node.id, tid))
        linked += 1
    if linked == 0:
        raise ParameterError("no grid node within radius of terminal (%g, %g)" % (x, y))
    if role == "start":
        g.start_id = tid
    else:
        g.goal_id = tid
    return tid


def degree_histogram(g):
    hist = {}
    for lst in g.adj:
        hist[len(lst)] = hist.get(len(lst), 0) + 1
    return dict(sorted(hist.items()))


def graph_stats_rows(g):
    """CSV-ready (key, value) statistics rows."""
    rows = [("nodes", len(g.nodes)), ("edges", g.n_edges())]
    for deg, count in degree_histogram(g).items():
        rows.append(("degree_%d" % deg, count))
    return rows
