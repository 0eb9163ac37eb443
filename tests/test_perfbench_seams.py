"""The benchmark's tracer patches gliderplan names at their module
attributes, and its reference flights read ocean.velocity's samples; a
renamed or bypassed name, or a changed sample, must fail here, not only in
the benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

import gliderplan as gp
import gliderplan.cost
import gliderplan.search
from conftest import fly, straight_edge
from gliderplan.engine import WorkerPool

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def seams():
    cost = gliderplan.cost
    return (gliderplan.search.edge_cost, cost.serial_evaluator,
            cost.traverse_edge, cost.velocity, WorkerPool.delegate)


def test_tracer_installs_and_restores():
    tracer = load("tracer").Tracer()
    before = seams()
    with tracer.installed():
        assert all(a is not b for a, b in zip(seams(), before))
    assert seams() == before


def traced_calls(env, y0=0.0):
    """Calls per traced name in a serial plan of a small grid whose lower
    edge lies at y0."""
    graph = gp.build_grid(gp.GridSpec(0, 1, y0, y0 + 1, 0.5, 1))
    gp.insert_terminal(graph, 0.1, y0 + 0.1, "start")
    gp.insert_terminal(graph, 0.9, y0 + 0.9, "goal")
    profiles = gp.generate_dive_profiles(gp.DiveProfileParams())
    tracer = load("tracer").Tracer()
    with tracer.installed():
        gp.plan(graph, 0.0, profiles, env, gp.VehicleParams(),
                gp.IntegrationParams(dt=0.1))
    totals, _min_self = tracer.totals()
    calls = {name: v[2] for (name, _stage, _worker), v in totals.items()}
    assert len(tracer.tails) == calls["edge_cost"] > 0
    assert calls["evaluator"] == calls["edge_cost"]
    assert calls["velocity"] >= calls["traverse_edge"]
    return calls


def test_tracer_sees_a_serial_plan():
    # in still water all profiles fly alike: one traversal per edge
    calls = traced_calls(gp.FlowEnvironment.still())
    assert calls["traverse_edge"] == calls["edge_cost"]


def test_tracer_sees_the_distinct_profiles_of_a_full_plan():
    # The default profiles fly as 3 families, one traversal each: 6 climb
    # to 0 m and 5 to 40/3 m, above z_decay; the 9 others never do.
    # The grid lies north of the jet core, where the track can be held.
    calls = traced_calls(gp.FlowEnvironment(), y0=2.0)
    assert calls["traverse_edge"] == calls["edge_cost"] * 3


class TestReferenceFlight:
    """reference.leg_time flies a leg on ocean.velocity's FlowSamples, as
    the benchmark's output check does."""

    # a short leg north of the jet core, where the track can be held
    LEG = (0.1, 2.1, 0.4, 2.3)
    PROFILE = gp.DiveProfile(0.0, 150.0, 0)

    def leg_time(self, env):
        veh = gp.VehicleParams()
        return load("reference").leg_time(*self.LEG, 1.0, self.PROFILE, env,
                                          veh.v_bf, veh.w_vert)

    def test_full_mode_agrees_with_the_kernel(self):
        env = gp.FlowEnvironment()
        kernel = fly(straight_edge(*self.LEG), 1.0, self.PROFILE, env,
                     gp.VehicleParams(), gp.IntegrationParams(dt=1e-3))
        assert self.leg_time(env) == pytest.approx(kernel, rel=1e-3)

    def test_uniform_mode_matches_the_closed_form(self):
        env = gp.FlowEnvironment.uniform(0.15, 0.05)
        want = load("reference").uniform_leg_time(*self.LEG, 0.15, 0.05,
                                                  gp.VehicleParams().v_bf)
        assert self.leg_time(env) == pytest.approx(want, rel=1e-9)
