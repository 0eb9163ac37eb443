import importlib.util
import math
from pathlib import Path

import pytest

import gliderplan as gp

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_MISSION = REPO_ROOT / "missions" / "example.xml"
LATTICE_MISSION = REPO_ROOT / "perfbench" / "missions" / "lattice-uniform.xml"


@pytest.fixture
def paper_profile_params():
    return gp.DiveProfileParams(0.0, 200.0, 40.0, 50.0, 4, 6)


@pytest.fixture
def default_env():
    return gp.FlowEnvironment()


@pytest.fixture
def veh():
    return gp.VehicleParams()


@pytest.fixture
def integ():
    return gp.IntegrationParams()


@pytest.fixture
def example_mission():
    return str(EXAMPLE_MISSION)


def explicit_graph(spec, points, heads, start, goal):
    """A Graph whose nodes are points, ids in order, whose out-neighbours
    are heads[a] (none where a is not a key) in place of its lattice's,
    and whose start and goal terminals are the given ids. Its edges are
    made with Graph.edge, as on any graph."""
    g = gp.Graph(spec)
    g.xs = [x for x, _ in points]
    g.ys = [y for _, y in points]
    g.heads = lambda a: heads.get(a, [])
    g.start_id, g.goal_id = start, goal
    return g


def all_edges(g):
    """Every edge of g, tail by tail in node order, each tail's edges in
    adjacency order."""
    return [edge for out in g.adj for edge in out]


def benchmark_missions(out_dir):
    """The lattice-uniform missions of benchmark seed 0, as
    perfbench/workloads.py writes them into out_dir: mission 0 is the
    mission file itself, missions 1-3 turn the current by 1/4, 1/2 and 3/4
    of a turn and shift t0 to match."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.write_missions(workloads.WORKLOADS["lattice-uniform"],
                                    str(REPO_ROOT), 0, str(out_dir),
                                    gp.parse_mission)


def straight_edge(x0, y0, x1, y1, frm=0, to=1):
    """Free-standing edge from (x0, y0) to (x1, y1), with the arithmetic
    of Graph.edge."""
    length = math.hypot(x1 - x0, y1 - y0)
    return gp.Edge(frm, to, x0, y0, length,
                   (x1 - x0) / length, (y1 - y0) / length)


def fly(edge, t_start, profile, env, veh, integ, **kwargs):
    """traverse_edge for one profile flown alone: its time, or None."""
    family, = gp.solo_families([profile], env, veh, integ)
    times = gp.traverse_edge(edge, t_start, family, **kwargs)
    return None if times is None else times[0]


def adverse_surface_time(env):
    """A time at which the surface term is maximally adverse:
    cos(d * omega * t) = -1."""
    return math.pi / (env.surface.d * env.jet.omega)


def jet_core_y(x, t, jet):
    """y of the jet centerline at (x, t)."""
    return gp.meander_amplitude(t, jet) * math.cos(jet.k * (x - jet.c * t))
