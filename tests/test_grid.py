import math
import sys

import pytest

import gliderplan as gp
from conftest import LATTICE_MISSION, all_edges, straight_edge
from gliderplan.grid import MAX_NODES, degree_histogram, graph_stats_rows


def interior_id(g, spec):
    # node closest to the box center
    cx = (spec.x_min + spec.x_max) / 2
    cy = (spec.y_min + spec.y_max) / 2
    return min(g.nodes, key=lambda n: (n.x - cx) ** 2 + (n.y - cy) ** 2).id


class TestOffsets:
    @pytest.mark.parametrize("s,count", [(1, 8), (2, 16), (3, 32)])
    def test_coprime_offset_counts(self, s, count):
        offsets = gp.coprime_offsets(s)
        assert len(offsets) == count
        assert len(set(offsets)) == count
        for di, dj in offsets:
            assert max(abs(di), abs(dj)) <= s
            assert math.gcd(abs(di), abs(dj)) == 1

    def test_lexicographic_order(self):
        offsets = gp.coprime_offsets(3)
        assert offsets == sorted(offsets)


class TestBuildGrid:
    @pytest.mark.parametrize("s,deg", [(1, 8), (2, 16), (3, 32)])
    def test_interior_degree(self, s, deg):
        spec = gp.GridSpec(0, 8, 0, 8, 1.0, s)
        g = gp.build_grid(spec)
        assert len(g.adj[interior_id(g, spec)]) == deg

    def test_node_count_and_row_major_order(self):
        spec = gp.GridSpec(0, 2, 0, 1, 0.5, 1)
        g = gp.build_grid(spec)
        assert len(g.nodes) == 5 * 3
        assert (g.nodes[0].x, g.nodes[0].y) == (0.0, 0.0)
        assert (g.nodes[1].x, g.nodes[1].y) == (0.5, 0.0)
        assert (g.nodes[5].x, g.nodes[5].y) == (0.0, 0.5)
        assert spec.shape == (5, 3)

    def test_columns_and_rows_share_coordinates(self):
        # one float object per column x and per row y
        spec = gp.GridSpec(0, 0.7, 0, 0.5, 0.1, 3)
        g = gp.build_grid(spec)
        assert len({id(n.x) for n in g.nodes}) == spec.shape[0]
        assert len({id(n.y) for n in g.nodes}) == spec.shape[1]

    def test_shape_tolerates_rounding(self):
        # 0.7 / 0.1 is 6.999...; the lattice still reaches x_max
        assert gp.GridSpec(0, 0.7, 0, 0.2, 0.1, 1).shape == (8, 3)

    def test_edge_geometry(self):
        spec = gp.GridSpec(0, 4, 0, 4, 0.4, 3)
        g = gp.build_grid(spec)
        for e in all_edges(g):
            assert e.frm != e.to
            assert e.length > 0
            assert math.hypot(e.dx, e.dy) == pytest.approx(1.0, abs=1e-12)
            assert e.length <= 3 * 0.4 * math.sqrt(2) + 1e-12
        # offset (1, 2) at h = 0.4
        lengths = {round(e.length, 12) for e in g.adj[0]}
        assert round(0.4 * math.sqrt(5), 12) in lengths

    def test_adjacency_symmetric(self):
        g = gp.build_grid(gp.GridSpec(0, 2, 0, 2, 0.5, 2))
        pairs = {(e.frm, e.to) for e in all_edges(g)}
        assert all((b, a) in pairs for a, b in pairs)
        assert len(pairs) == g.n_edges()  # no duplicates

    def test_connected(self):
        g = gp.build_grid(gp.GridSpec(0, 1, 0, 1, 0.5, 1))
        seen = {0}
        stack = [0]
        while stack:
            for e in g.adj[stack.pop()]:
                if e.to not in seen:
                    seen.add(e.to)
                    stack.append(e.to)
        assert len(seen) == len(g.nodes)

    def test_deterministic_rebuild(self):
        spec = gp.GridSpec(-1, 3, -2, 2, 0.4, 3)
        a = gp.build_grid(spec)
        b = gp.build_grid(spec)
        assert a.nodes == b.nodes
        assert all_edges(a) == all_edges(b)

    def test_too_small_box_rejected(self):
        with pytest.raises(gp.ParameterError):
            gp.GridSpec(0, 0.3, 0, 0.3, 0.4, 3)

    @pytest.mark.parametrize("box", [
        (0, 1e12, 0, 1, 0.4, 1),             # 2.5e12 x 3 nodes
        (0, 400, 0, 400, 0.4, 1),            # 1001 x 1001 nodes
        (-1.5e308, 1.5e308, 0, 1, 0.4, 1),   # the span overflows to inf
        (0, 1e308, 0, 1, 1e-10, 1),          # span / h overflows to inf
    ])
    def test_too_large_box_rejected(self, box):
        with pytest.raises(gp.ParameterError, match="too large"):
            gp.GridSpec(*box)

    def test_largest_box_accepted_without_building(self):
        spec = gp.GridSpec(0, 399.6, 0, 399.6, 0.4, 1)
        assert spec.shape == (1000, 1000)
        assert spec.shape[0] * spec.shape[1] == MAX_NODES


def lattice_edges(g, spec, a):
    """Reference out-edges of lattice node a: the neighbours in
    coprime_offsets order, geometry from the node coordinates."""
    nx, ny = spec.shape
    i, j = a % nx, a // nx
    na = g.nodes[a]
    out = []
    for di, dj in gp.coprime_offsets(spec.sector_order):
        ii, jj = i + di, j + dj
        if 0 <= ii < nx and 0 <= jj < ny:
            nb = g.nodes[jj * nx + ii]
            out.append(straight_edge(na.x, na.y, nb.x, nb.y, a, nb.id))
    return out


EXACT_SPECS = [
    gp.GridSpec(0, 0.7, 0, 0.5, 0.1, 3),        # h not exact in binary
    gp.GridSpec(-1, 2, -1.5, 1.2, 0.3, 1),      # negative y_min, order 1
    gp.GridSpec(0.5, 3.7, -0.9, 0.9, 0.3, 3),
    gp.GridSpec(0, 2.4, -0.8, 0.8, 0.4, 2),
]


class TestExactGeometry:
    """Every float of the graph is what the reference formula gives, and
    edges come in offset-table order; the byte-identical outputs and the
    search's tie-breaking rest on both."""

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_lattice_edges_bit_exact_and_ordered(self, spec):
        g = gp.build_grid(spec)
        nx, ny = spec.shape
        assert len(g.nodes) == nx * ny
        for node in g.nodes:
            i, j = node.id % nx, node.id // nx
            assert (node.x, node.y) == (spec.x_min + i * spec.h,
                                        spec.y_min + j * spec.h)
            assert g.adj[node.id] == lattice_edges(g, spec, node.id)

    @staticmethod
    def with_terminals(spec):
        """The lattice of spec with an off-lattice start and goal."""
        g = gp.build_grid(spec)
        gp.insert_terminal(g, spec.x_min + 0.37 * (spec.x_max - spec.x_min),
                           spec.y_min + 0.61 * (spec.y_max - spec.y_min),
                           "start")
        gp.insert_terminal(g, spec.x_max - 0.45 * spec.h,
                           spec.y_min + 0.2 * spec.h, "goal")
        return g

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_terminal_edges_bit_exact_and_ordered(self, spec):
        g = self.with_terminals(spec)
        sid, gid = g.start_id, g.goal_id
        n_grid = math.prod(spec.shape)
        radius = spec.sector_order * spec.h
        near = {}
        for tid in (sid, gid):
            t = g.nodes[tid]
            near[tid] = [n for n in g.nodes[:n_grid]
                         if 0.0 < math.hypot(n.x - t.x, n.y - t.y) <= radius]
            assert near[tid]
            assert g.adj[tid] == [straight_edge(t.x, t.y, n.x, n.y, tid, n.id)
                                  for n in near[tid]]
        for n in g.nodes[:n_grid]:
            back = [straight_edge(n.x, n.y, g.nodes[tid].x, g.nodes[tid].y,
                                  n.id, tid)
                    for tid in (sid, gid) if n in near[tid]]
            assert g.adj[n.id] == lattice_edges(g, spec, n.id) + back

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_edge_rebuilds_every_edge(self, spec):
        # a plan's leg edge, rebuilt from its two node ids, is the edge
        # the search flew, bit for bit
        g = self.with_terminals(spec)
        for a in range(len(g.nodes)):
            assert [g.edge(a, e.to) for e in g.adj[a]] == g.adj[a]


class TestNoStoredEdges:
    """The graph stores no edges: building it and inserting its terminals
    makes only the edges that check it, and adj makes them when read."""

    def test_build_and_terminals_make_only_checks_and_links(self,
                                                           monkeypatch):
        cfg = gp.parse_mission(str(LATTICE_MISSION))
        made = []
        real_edge = gp.Graph.edge

        def edge(g, a, b):
            made.append((a, b))
            return real_edge(g, a, b)

        monkeypatch.setattr(gp.Graph, "edge", edge)
        g = gp.build_grid(cfg.grid)
        gp.insert_terminal(g, *cfg.start, "start")
        gp.insert_terminal(g, *cfg.goal, "goal")
        nx, ny = cfg.grid.shape
        unit_edges = ([(i, i + 1) for i in range(nx - 1)]
                      + [(j * nx, (j + 1) * nx) for j in range(ny - 1)])
        links = [(tid, b) for tid in (g.start_id, g.goal_id)
                 for b in g.links[tid]]
        assert links
        assert made == unit_edges + links

    def test_adj_iterates_node_by_node(self):
        g = TestExactGeometry.with_terminals(EXACT_SPECS[0])
        assert len(list(g.adj)) == len(g.nodes)
        assert len(g.adj) == len(g.nodes)
        with pytest.raises(IndexError):
            g.adj[len(g.nodes)]


class TestZeroLengthEdge:
    def test_collapsed_coordinates_rejected(self):
        # at 1e17 the spacing of doubles is 16, so lattice points 1.0
        # apart collapse onto one another
        spec = gp.GridSpec(1e17, 1e17 + 64, 0, 4, 1.0, 1)
        with pytest.raises(gp.ParameterError,
                           match=r"^zero-length edge 0 -> 1 at \(1e\+17, 0\)$"):
            gp.build_grid(spec)

    def test_subnormal_length_rejected(self):
        # hypot of two subnormal components rounds to the larger one, so
        # the direction would be (-1, -1)
        g = gp.build_grid(gp.GridSpec(0, 1, 0, 1, 0.5, 1))
        with pytest.raises(gp.ParameterError,
                           match=r"^subnormal-length edge 9 -> 0 at "):
            gp.insert_terminal(g, 5e-324, 5e-324, "start")

    def test_refused_terminal_leaves_no_node(self):
        spec = gp.GridSpec(0, 1, 0, 1, 0.5, 1)
        g = gp.build_grid(spec)
        with pytest.raises(gp.ParameterError):
            gp.insert_terminal(g, 5e-324, 5e-324, "start")
        assert len(g.nodes) == 9
        assert g.start_id is None and not g.links
        assert graph_stats_rows(g) == graph_stats_rows(gp.build_grid(spec))
        assert gp.insert_terminal(g, 0.25, 0.25, "start") == 9

    def test_smallest_normal_length_has_a_unit_direction(self):
        g = gp.build_grid(gp.GridSpec(0, 1, 0, 1, 0.5, 1))
        tiny = sys.float_info.min
        tid = gp.insert_terminal(g, tiny, tiny, "start")
        edge = g.adj[tid][0]
        assert edge.to == 0 and edge.length > 0.0
        assert math.hypot(edge.dx, edge.dy) == pytest.approx(1.0, abs=1e-15)


NODE_FIELDS = ("id", "x", "y")
EDGE_FIELDS = ("frm", "to", "x0", "y0", "length", "dx", "dy")


class TestValueMessages:
    """Node and Edge are immutable values with a fixed field order, so
    positional construction cannot silently permute them."""

    def test_fields(self):
        assert gp.Node._fields == NODE_FIELDS
        assert gp.Edge._fields == EDGE_FIELDS

    @pytest.mark.parametrize("field", EDGE_FIELDS)
    def test_edge_immutable(self, field):
        e = straight_edge(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(AttributeError):
            setattr(e, field, 0)

    @pytest.mark.parametrize("field", NODE_FIELDS)
    def test_node_immutable(self, field):
        node = gp.build_grid(gp.GridSpec(0, 1, 0, 1, 1.0, 1)).nodes[0]
        with pytest.raises(AttributeError):
            setattr(node, field, 1)


class TestInsertTerminal:
    def test_on_lattice_point(self):
        spec = gp.GridSpec(0, 8, 0, 8, 1.0, 3)
        g = gp.build_grid(spec)
        tid = gp.insert_terminal(g, 4.0, 4.0, "start")
        # lattice points within Euclidean radius 3h of the center,
        # excluding the coincident node: 28
        assert len(g.adj[tid]) == 28
        assert g.start_id == tid
        # bidirectional
        assert all(any(e.to == tid for e in g.adj[e2.to]) for e2 in g.adj[tid])

    def test_off_lattice(self):
        g = gp.build_grid(gp.GridSpec(0, 4, 0, 4, 0.4, 3))
        tid = gp.insert_terminal(g, 2.03, 1.97, "goal")
        assert g.goal_id == tid
        radius = 3 * 0.4
        for e in g.adj[tid]:
            assert e.length <= radius + 1e-12

    def test_corner_terminal(self):
        g = gp.build_grid(gp.GridSpec(0, 2, 0, 2, 0.5, 1))
        tid = gp.insert_terminal(g, 0.0, 0.0, "start")
        assert len(g.adj[tid]) >= 1

    def test_outside_box_rejected(self):
        g = gp.build_grid(gp.GridSpec(0, 2, 0, 2, 0.5, 1))
        with pytest.raises(gp.ParameterError):
            gp.insert_terminal(g, 3.0, 0.0, "start")

    def test_bad_role_rejected(self):
        g = gp.build_grid(gp.GridSpec(0, 2, 0, 2, 0.5, 1))
        with pytest.raises(gp.ParameterError):
            gp.insert_terminal(g, 1.0, 1.0, "midpoint")


class TestStats:
    def test_degree_histogram_and_rows(self):
        g = gp.build_grid(gp.GridSpec(0, 2, 0, 2, 1.0, 1))
        hist = degree_histogram(g)
        assert sum(hist.values()) == len(g.nodes)
        rows = graph_stats_rows(g)
        assert rows[0] == ("nodes", 9)
        assert rows[1][0] == "edges"
