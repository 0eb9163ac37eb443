"""Rectangular multi-sector grid graph over the mission region.

Nodes sit on a regular lattice; each node connects to every neighbor at a
coprime lattice offset with Chebyshev radius <= sector_order, giving a
distinct edge heading per ring (32 directions for order 3). Start/goal
terminals are inserted off-lattice and linked to nearby grid nodes.

The graph stores no edges. A node's out-neighbours follow from the offset
table and the box (Graph.heads), and Graph.edge, the one edge formula,
makes an edge from its two nodes when a reader wants it: the search makes
only the edges it flies.
"""

import math
import sys
from dataclasses import dataclass
from math import hypot
from typing import NamedTuple

from .errors import ParameterError

# GridSpec refuses a lattice of more nodes, about 240 times the benchmark's
# 4,133-node lattice: build_grid would make every one of them.
MAX_NODES = 1_000_000


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
        # The longer span / h is compared as a float first, so a count that
        # is inf, or would overflow int(), is refused before shape makes one.
        n = max(self.x_max - self.x_min, self.y_max - self.y_min) / self.h
        if not n < MAX_NODES or math.prod(self.shape) > MAX_NODES:
            raise ParameterError("grid bounding box too large: more than %d "
                                 "lattice nodes" % MAX_NODES)
        nx, ny = self.shape
        if nx < 2 or ny < 2:
            raise ParameterError("bounding box too small for a 2x2 lattice")

    @property
    def shape(self):
        """Lattice points per axis, (nx, ny)."""
        return tuple(int(math.floor(span / self.h + 1e-9)) + 1
                     for span in (self.x_max - self.x_min,
                                  self.y_max - self.y_min))


# An Edge is made for every flight of a search; as named tuples Node and
# Edge cost a fraction of a frozen dataclass to build and to hold. An Edge
# holds only what a flight and the search read.
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
# Python __new__ and its frame.
_edge = tuple.__new__


class Graph:
    """The lattice nodes of a spec and the terminals insert_terminal adds.

    A graph stores no edges: only its nodes, the offset table and links,
    each node's list of terminals it is linked to. heads(a) lists a's
    out-neighbours, and edge(a, b) makes an edge when it is wanted.
    Immutable after construction except for terminal insertion."""

    def __init__(self, spec):
        self.spec = spec
        self.shape = spec.shape
        self.nodes = []
        self.offsets = coprime_offsets(spec.sector_order)
        self.links = {}
        self.start_id = None
        self.goal_id = None

    def heads(self, a):
        """a's out-neighbours: for a lattice node, its neighbours at the
        table's offsets that lie in the box, in table order; then the
        terminals it is linked to, in insertion order."""
        nx, ny = self.shape
        out = []
        if a < nx * ny:
            j, i = divmod(a, nx)
            for di, dj in self.offsets:
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    out.append(jj * nx + ii)
        out += self.links.get(a, ())
        return out

    @property
    def adj(self):
        """Read-only view of every node's out-edges (see _OutEdges)."""
        return _OutEdges(self)

    def edge(self, a, b):
        """The edge a -> b from the node coordinates; the one formula every
        edge of the graph is made with, so it makes any of them the same
        each time, bit for bit. An edge shorter than the smallest normal
        float is refused: below it hypot loses the precision that makes
        (dx, dy) a unit vector."""
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
        return sum(len(self.heads(a)) for a in range(len(self.nodes)))


class _OutEdges:
    """g.adj: view[a] is a list of a's out-edges, made with Graph.edge in
    heads order each time it is read. Ids past the last node raise
    IndexError, so the view iterates node by node."""

    def __init__(self, g):
        self._g = g

    def __len__(self):
        return len(self._g.nodes)

    def __getitem__(self, a):
        a = self._g.nodes[a].id
        return [self._g.edge(a, b) for b in self._g.heads(a)]


def coprime_offsets(s):
    """Lattice offsets (di, dj) with Chebyshev radius <= s and
    gcd(|di|, |dj|) = 1, in lexicographic order; gcd(0, 0) = 0 leaves out
    (0, 0)."""
    r = range(-s, s + 1)
    return [(di, dj) for di in r for dj in r if math.gcd(di, dj) == 1]


def build_grid(spec):
    """Lattice graph over the bounding box; node ids row-major from
    (x_min, y_min).

    A box whose lattice points collapse onto one another is refused.
    x_min + i * h never decreases as i grows, nor y_min + j * h as j
    grows, so every lattice edge is at least as long as a unit edge of the
    first row or column along an axis it moves on. Making those
    nx - 1 + ny - 1 edges with Graph.edge refuses every edge it would."""
    g = Graph(spec)
    nx, ny = g.shape
    # each column's x and each row's y is made once, and its nodes share it
    xs = [spec.x_min + i * spec.h for i in range(nx)]
    ys = [spec.y_min + j * spec.h for j in range(ny)]
    g.nodes = [Node(j * nx + i, x, y)
               for j, y in enumerate(ys) for i, x in enumerate(xs)]
    for i in range(nx - 1):
        g.edge(i, i + 1)
    for j in range(ny - 1):
        g.edge(j * nx, (j + 1) * nx)
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
    radius = spec.sector_order * spec.h
    near = [node.id for node in g.nodes[:math.prod(g.shape)]
            if 0.0 < math.hypot(node.x - x, node.y - y) <= radius]
    if not near:
        raise ParameterError("no grid node within radius of terminal (%g, %g)" % (x, y))
    tid = len(g.nodes)
    g.nodes.append(Node(tid, x, y))
    # a link and its reverse have the same length, so one edge checks both;
    # all are checked before any is linked, and a refused terminal leaves
    # no node behind
    try:
        for b in near:
            g.edge(tid, b)
    except ParameterError:
        g.nodes.pop()
        raise
    for b in near:
        g.links.setdefault(b, []).append(tid)
    g.links[tid] = near
    if role == "start":
        g.start_id = tid
    else:
        g.goal_id = tid
    return tid


def degree_histogram(g):
    hist = {}
    for a in range(len(g.nodes)):
        deg = len(g.heads(a))
        hist[deg] = hist.get(deg, 0) + 1
    return dict(sorted(hist.items()))


def graph_stats_rows(g):
    """CSV-ready (key, value) statistics rows, from one pass over the
    nodes' heads."""
    hist = degree_histogram(g)
    rows = [("nodes", len(g.nodes)),
            ("edges", sum(deg * count for deg, count in hist.items()))]
    return rows + [("degree_%d" % deg, count) for deg, count in hist.items()]
