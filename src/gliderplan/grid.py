"""Rectangular multi-sector grid graph over the mission region.

Nodes sit on a regular lattice; each node connects to every neighbor at a
coprime lattice offset with Chebyshev radius <= sector_order, giving a
distinct edge heading per ring (32 directions for order 3). Start/goal
terminals are inserted off-lattice and linked to nearby grid nodes.

insert_terminal reads only the lattice window that can hold a link, and
the window is exact. build_grid makes each column's x and each row's y
once, so node (i, j) has x = xs[i] and y = ys[j * nx], bit for bit, and
both never decrease as i or j grows. A link passes
0 < hypot(xs[a] - x, ys[a] - y) <= radius, and hypot, within an ulp of
the exact value, is never below either of its arguments: a linked node has
|fl(xs[a] - x)| <= radius and |fl(ys[a] - y)| <= radius. fl(v - x)
never decreases as v grows, so two bisections on it find exactly the
columns that pass the first test, and two more the rows that pass the
second. No node outside that window can link, with no margin to argue.

The graph stores no edges and no node objects: node a is at (xs[a],
ys[a]), two lists indexed by node id. g.nodes makes Node(a, xs[a], ys[a])
when read, handing out the lists' own float objects with no arithmetic,
so its coordinates are bit for bit the ones every edge is made from. A
node's out-neighbours follow from the offset table and the box
(Graph.heads), and Graph.edge, the one edge formula, makes an edge from
its two nodes' coordinates when a reader wants it: the search makes only
the edges it flies.
"""

import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from math import hypot
from typing import NamedTuple

from .errors import ParameterError

# GridSpec refuses a lattice of more nodes, about 240 times the benchmark's
# 4,133-node lattice: build_grid makes only two coordinate lists, but heads,
# n_edges and graph_stats_rows still loop over every node.
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


# An Edge is made for every flight of a search, a Node for every read of
# g.nodes; as named tuples they cost a fraction of a frozen dataclass to
# build. An Edge holds only what a flight and the search read.
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

# Builds a Node or an Edge from a field tuple, skipping the named tuple's
# generated Python __new__ and its frame.
_new = tuple.__new__


class Graph:
    """The lattice nodes of a spec and the terminals insert_terminal adds.

    A graph stores no edges and no node objects: only its node coordinates
    xs and ys, indexed by node id, the offset table and links, each node's
    list of terminals it is linked to. heads(a) lists a's out-neighbours,
    and edge(a, b) makes an edge when it is wanted. Immutable after
    construction except for terminal insertion."""

    def __init__(self, spec):
        self.spec = spec
        self.shape = spec.shape
        self.xs = []
        self.ys = []
        self.offsets = coprime_offsets(spec.sector_order)
        self.links = {}
        self.start_id = None
        self.goal_id = None
        # build_grid sets it to nx * ny: the first n_lattice nodes are then
        # the spec's lattice, with the coordinates build_grid gives them
        self.n_lattice = 0

    def heads(self, a):
        """a's out-neighbours: for a lattice node (a < n_lattice), its
        neighbours at the table's offsets that lie in the box, in table
        order; then the terminals it is linked to, in insertion order."""
        nx, ny = self.shape
        out = []
        if a < self.n_lattice:
            j, i = divmod(a, nx)
            for di, dj in self.offsets:
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    out.append(jj * nx + ii)
        out += self.links.get(a, ())
        return out

    @property
    def nodes(self):
        """Read-only view of the nodes: nodes[a] is Node(a, xs[a], ys[a]),
        made when read (see _View)."""
        return _View(self, lambda a: _new(Node, (a, self.xs[a], self.ys[a])))

    @property
    def adj(self):
        """Read-only view of every node's out-edges: adj[a] is a list of
        a's edges, made with edge in heads order when read (see _View)."""
        return _View(self, lambda a: [self.edge(a, b) for b in self.heads(a)])

    def edge(self, a, b):
        """The edge a -> b from the node coordinates; the one formula every
        edge of the graph is made with, so it makes any of them the same
        each time, bit for bit. An edge shorter than the smallest normal
        float is refused: below it hypot loses the precision that makes
        (dx, dy) a unit vector."""
        xs, ys = self.xs, self.ys
        ax, ay = xs[a], ys[a]
        ex, ey = xs[b] - ax, ys[b] - ay
        length = hypot(ex, ey)
        if length < MIN_EDGE_LENGTH:
            what = "zero-length" if length == 0.0 else "subnormal-length"
            raise ParameterError("%s edge %d -> %d at (%g, %g)"
                                 % (what, a, b, ax, ay))
        return _new(Edge, (a, b, ax, ay, length, ex / length, ey / length))

    def n_edges(self):
        return sum(len(self.heads(a)) for a in range(len(self.nodes)))


class _View(Sequence):
    """A read-only view of a graph with one item per node: view[a] is
    item(a), made when read. An id reads as a list index does: negative
    ids count from the end, and ids past the last node raise
    IndexError."""

    def __init__(self, g, item):
        self._g = g
        self._item = item

    def __len__(self):
        return len(self._g.xs)

    def __getitem__(self, a):
        return self._item(range(len(self))[a])


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
    g.xs = xs * ny
    g.ys = list(chain.from_iterable(map(repeat, ys, repeat(nx, ny))))
    for i in range(nx - 1):
        g.edge(i, i + 1)
    for j in range(ny - 1):
        g.edge(j * nx, (j + 1) * nx)
    g.n_lattice = nx * ny
    return g


def insert_terminal(g, x, y, role):
    """Add a start or goal node at (x, y), linked both ways to all grid
    nodes within Euclidean radius sector_order * h (coincident nodes are
    skipped), in ascending id order. Returns the new node id.

    Only the lattice window that can hold a link is read (see the module
    doc), so g must be a build_grid lattice; any other graph is refused."""
    spec = g.spec
    if not (spec.x_min <= x <= spec.x_max and spec.y_min <= y <= spec.y_max):
        raise ParameterError("terminal (%g, %g) outside the bounding box" % (x, y))
    if role not in ("start", "goal"):
        raise ParameterError("terminal role must be 'start' or 'goal'")
    if not g.n_lattice:
        raise ParameterError("insert_terminal needs a build_grid lattice")
    xs, ys, (nx, ny) = g.xs, g.ys, g.shape
    radius = spec.sector_order * spec.h
    # the window's rows in ascending order, each row's columns ascending:
    # ids come out ascending, as a scan of every node gives them
    cols = _window(nx, lambda i: xs[i] - x, radius)
    near = [a for j in _window(ny, lambda j: ys[j * nx] - y, radius)
            for a in range(j * nx + cols.start, j * nx + cols.stop)
            if 0.0 < hypot(xs[a] - x, ys[a] - y) <= radius]
    if not near:
        raise ParameterError("no grid node within radius of terminal (%g, %g)" % (x, y))
    tid = len(xs)
    xs.append(x)
    ys.append(y)
    # a link and its reverse have the same length, so one edge checks both;
    # all are checked before any is linked, and a refused terminal leaves
    # no node behind
    try:
        for b in near:
            g.edge(tid, b)
    except ParameterError:
        xs.pop()
        ys.pop()
        raise
    for b in near:
        g.links.setdefault(b, []).append(tid)
    g.links[tid] = near
    if role == "start":
        g.start_id = tid
    else:
        g.goal_id = tid
    return tid


def _window(n, key, radius):
    """The indices i of range(n) with -radius <= key(i) <= radius, for a
    key that never decreases as i grows."""
    return range(bisect_left(range(n), -radius, key=key),
                 bisect_right(range(n), radius, key=key))


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
