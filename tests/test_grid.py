import math
import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, reject, settings, strategies as st

import gliderplan as gp
from conftest import LATTICE_MISSION, all_edges, explicit_graph, straight_edge
from gliderplan.grid import MAX_NODES, degree_histogram, graph_stats_rows
from oracle import lattice_nodes, terminal_links


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
        assert (a.xs, a.ys) == (b.xs, b.ys)
        assert list(a.nodes) == list(b.nodes)
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
        near = {}
        for tid in (sid, gid):
            t = g.nodes[tid]
            near[tid] = [g.nodes[b] for b in terminal_links(g, t.x, t.y)]
            assert near[tid]
            assert g.adj[tid] == [straight_edge(t.x, t.y, n.x, n.y, tid, n.id)
                                  for n in near[tid]]
        for n in islice(g.nodes, n_grid):
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

    def test_graph_build_grid_did_not_make_has_no_lattice(self):
        # it has the spec's shape but none of its nodes, so heads lists
        # only links, even for ids below nx * ny
        spec = gp.GridSpec(0, 1, 0, 1, 0.5, 1)
        g = gp.Graph(spec)
        assert g.n_lattice == 0
        assert g.heads(0) == []
        g.links[0] = [9]
        assert g.heads(0) == [9]
        assert gp.build_grid(spec).n_lattice == 9


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


@st.composite
def terminal_lattices(draw):
    """A build_grid lattice and a point in its box for each terminal.
    Corners up to 1e6 from the origin, or up to 6 h below it, so that a
    node and a terminal can lie on either side of 0, where v - x rounds.
    One axis has up to 1,000 nodes, as many as MAX_NODES allows a square
    box, the other up to 12. h is from 1e-8 to 3, or 1-16 ulps of the
    corners' magnitude, where rounding spaces the nodes unevenly or
    collapses them; sector_order 1-4. Each coordinate is anywhere in the
    box, on its edge, on a node's column or row, or sector_order * h from
    one of the 8 nodes nearest either end of the axis, give or take 2
    ulps."""
    def corner():
        # None: up to 6 h below the origin, once h is drawn
        return draw(st.one_of(st.just(0.0), st.just(None),
                              st.floats(-1e6, 1e6),
                              st.sampled_from([-1e6, 1e6 - 1.0, 1e6])))

    corners = corner(), corner()
    ulp = math.ulp(max(abs(c or 0.0) for c in corners + (1.0,)))
    h = draw(st.one_of(st.floats(-8.0, 0.5).map(lambda e: 10.0 ** e),
                       st.integers(1, 16).map(lambda k: k * ulp)))
    x_min, y_min = (-draw(st.floats(0.0, 6.0)) * h if c is None else c
                    for c in corners)
    long, short = draw(st.integers(1, 999)), draw(st.integers(1, 11))
    steps = (long, short) if draw(st.booleans()) else (short, long)
    try:
        # half a step past the last node, so rounding keeps the node count
        g = gp.build_grid(gp.GridSpec(
            x_min, x_min + (steps[0] + 0.5) * h,
            y_min, y_min + (steps[1] + 0.5) * h, h, draw(st.integers(1, 4))))
    except gp.ParameterError:
        reject()  # lattice points that rounding collapses
    nx, ny = g.shape
    radius = g.spec.sector_order * h

    def coordinate(lo, hi, lattice):
        v = draw(st.one_of(
            st.floats(lo, hi), st.sampled_from([lo, hi]),
            st.sampled_from(lattice),
            st.tuples(st.sampled_from(lattice[:8] + lattice[-8:]),
                      st.sampled_from([-1, 1]),
                      st.integers(-2, 2)).map(
                lambda t: t[0] + t[1] * radius + t[2] * math.ulp(t[0]))))
        return min(max(v, lo), hi)

    nodes = g.nodes
    xs = [nodes[i].x for i in range(nx)]
    ys = [nodes[j * nx].y for j in range(ny)]
    return g, [(coordinate(g.spec.x_min, g.spec.x_max, xs),
                coordinate(g.spec.y_min, g.spec.y_max, ys))
               for _ in range(2)]


def link_like_the_full_scan(g, points):
    """Insert a start and a goal at points and check each terminal's links
    against the oracle's scan of every lattice node."""
    for (x, y), role in zip(points, ("start", "goal")):
        expected = terminal_links(g, x, y)
        try:
            tid = gp.insert_terminal(g, x, y, role)
        except gp.ParameterError as exc:
            # no node within radius, which the scan finds too, or a link
            # that Graph.edge refuses
            assert not expected or "subnormal-length edge" in str(exc)
            continue
        assert g.links[tid] == expected
        assert all(g.links[b][-1] == tid for b in expected)
    if g.start_id is not None and g.goal_id is not None:
        assert g.start_id not in g.links[g.goal_id]


class CountingCoordinates(list):
    """A coordinate list that counts the coordinates read from it: by
    index, by slice and by iteration."""

    reads = 0

    def __getitem__(self, i):
        got = super().__getitem__(i)
        self.reads += len(got) if isinstance(i, slice) else 1
        return got

    def __iter__(self):
        for v in super().__iter__():
            self.reads += 1
            yield v


class TestTerminalWindow:
    """insert_terminal reads only the lattice window that can hold a link,
    and links exactly the nodes a scan of every lattice node links."""

    @settings(max_examples=200, deadline=None)
    @given(inst=terminal_lattices())
    @example(inst=(gp.build_grid(gp.GridSpec(0, 8, 0, 8, 1.0, 3)),
                   [(4.0, 4.0), (1.0, 4.0)]))
    @example(inst=(gp.build_grid(gp.GridSpec(0, 0.7, 0, 0.5, 0.1, 3)),
                   [(0.0, 0.5), (0.7, 0.2)]))
    @example(inst=(gp.build_grid(gp.GridSpec(
        -0.5124744385752686, 0.17720025467617428, -2.709264851142337,
        -2.425281153921155, 0.08113819920605211, 1)),
        [(0.05549295586709616, -2.465850253524181), (0.1, -2.5)]))
    def test_links_equal_the_full_scan(self, inst):
        g, points = inst
        link_like_the_full_scan(g, points)

    def test_links_equal_the_full_scan_at_the_node_cap(self):
        # h as small as MAX_NODES allows on a 1,999-wide box at 1e6: a
        # start on a node, a goal sector_order * h along x from one
        spec = gp.GridSpec(1e6 - 1999.0, 1e6, 1e6 - 0.0041, 1e6, 0.004, 3)
        nx, ny = spec.shape
        assert MAX_NODES - 1000 < nx * ny <= MAX_NODES
        g = gp.build_grid(spec)
        on_node, along_x = g.nodes[nx + 1234], g.nodes[nx - 7]
        link_like_the_full_scan(g, [(on_node.x, on_node.y),
                                    (along_x.x + 3 * 0.004, along_x.y)])
        assert g.links[g.start_id] and g.links[g.goal_id]

    @pytest.mark.parametrize("s", [1, 4])
    def test_reads_at_most_the_axes_and_the_window(self, s):
        # at most nx + ny + (2 * s + 3) ** 2 coordinate reads, of 100,000
        # nodes
        spec = gp.GridSpec(0, 49.875, 0, 31.125, 0.125, s)
        nx, ny = spec.shape
        assert nx * ny == 100_000
        g = gp.build_grid(spec)
        g.xs, g.ys = CountingCoordinates(g.xs), CountingCoordinates(g.ys)
        points = [(13.37, 20.01), (0.0, 31.125)]
        for (x, y), role in zip(points, ("start", "goal")):
            before = g.xs.reads + g.ys.reads
            gp.insert_terminal(g, x, y, role)
            assert (g.xs.reads + g.ys.reads - before
                    <= nx + ny + (2 * s + 3) ** 2)
        assert [g.links[tid] for tid in (g.start_id, g.goal_id)] == [
            terminal_links(g, x, y) for x, y in points]

    @pytest.mark.parametrize("explicit", [False, True],
                             ids=["empty", "explicit"])
    def test_graph_build_grid_did_not_make_is_refused(self, explicit):
        # the window rests on build_grid's shared coordinates, so a graph
        # without them gets no link, not an IndexError
        spec = gp.GridSpec(0, 1, 0, 1, 0.5, 1)
        g = gp.Graph(spec)
        if explicit:
            points = [(n.x, n.y) for n in gp.build_grid(spec).nodes]
            g = explicit_graph(spec, points, {}, None, None)
        n_nodes = len(g.nodes)
        with pytest.raises(gp.ParameterError,
                           match="needs a build_grid lattice"):
            gp.insert_terminal(g, 0.25, 0.25, "start")
        assert len(g.nodes) == n_nodes
        assert g.start_id is None and not g.links


class TestNodeView:
    """g.nodes reads as the list of Node tuples of the oracle's bulk build
    plus the terminals, bit for bit, though the graph keeps only its
    coordinate lists; g.adj reads as the list of each node's edges to its
    heads, made with Graph.edge."""

    @settings(max_examples=100, deadline=None)
    @given(inst=terminal_lattices(), data=st.data())
    def test_reads_as_the_oracle_list(self, inst, data):
        g, points = inst
        expected = lattice_nodes(g.spec)
        for (x, y), role in zip(points, ("start", "goal")):
            try:
                tid = gp.insert_terminal(g, x, y, role)
            except gp.ParameterError:
                continue
            expected.append(gp.Node(tid, x, y))
        n = len(expected)
        a = data.draw(st.integers(-n, -1), label="negative id")

        def out_edges(i):
            return [g.edge(i, b) for b in g.heads(i)]

        # Each view is read in full once and each oracle item made once:
        # adj node by node against out_edges, so no list of every edge is
        # held. repr tells -0.0 from 0.0, so equal reprs are equal bits; adj
        # makes its edges from the floats out_edges makes them from, so ==
        # does.
        nodes = list(g.nodes)
        assert repr(nodes) == repr(expected)
        for i, edges in enumerate(g.adj):
            assert edges == out_edges(i)
        assert i == n - 1
        for view, want, bits in ((g.nodes, expected.__getitem__, repr),
                                 (g.adj, out_edges, list)):
            assert len(view) == n
            assert bits(view[a]) == bits(want(n + a))
            for past in (n, -n - 1):
                with pytest.raises(IndexError):
                    view[past]
        nx = g.shape[0]
        for node in nodes[:g.n_lattice]:
            j, i = divmod(node.id, nx)
            assert node.x is nodes[i].x and node.y is nodes[j * nx].y

    def test_has_no_setter(self):
        g = gp.build_grid(gp.GridSpec(0, 1, 0, 1, 0.5, 1))
        with pytest.raises(AttributeError):
            g.nodes = lattice_nodes(g.spec)

    def test_build_and_terminals_at_the_node_cap_stay_small(self):
        # two lists of a million coordinates take about 16 MiB; a million
        # Node tuples took about 123 MiB
        spec = gp.GridSpec(0, 399.6, 0, 399.6, 0.4, 3)
        tracemalloc.start()
        try:
            g = gp.build_grid(spec)
            gp.insert_terminal(g, 123.45, 67.89, "start")
            gp.insert_terminal(g, 399.6, 0.0, "goal")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g.nodes) == MAX_NODES + 2
        assert peak < 24 * 2 ** 20


class TestStats:
    def test_degree_histogram_and_rows(self):
        g = gp.build_grid(gp.GridSpec(0, 2, 0, 2, 1.0, 1))
        hist = degree_histogram(g)
        assert sum(hist.values()) == len(g.nodes)
        rows = graph_stats_rows(g)
        assert rows[0] == ("nodes", 9)
        assert rows[1][0] == "edges"
