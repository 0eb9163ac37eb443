"""One `gliderplan plan` run, made of the calls `cmd_plan` makes.

The stages are timed by a clock: StageClock only times them, while
tracer.Tracer also records spans inside them.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

from gliderplan.cli import write_plan_outputs
from gliderplan.engine import EngineConfig, WorkerPool, pool_evaluator
from gliderplan.grid import build_grid, insert_terminal
from gliderplan.mission import parse_mission
from gliderplan.ocean import MODE_FULL, MODE_SURFACE
from gliderplan.profiles import generate_dive_profiles
from gliderplan.search import plan

SETUP_STAGES = ("mission.parse", "profiles.generate", "grid.build",
                "grid.terminal", "engine.start")


class StageClock:
    """Time per pipeline stage, read from now(), with nothing recorded
    inside the stages."""

    def __init__(self, now=time.perf_counter):
        self.times = {}
        self.now = now

    @contextmanager
    def stage(self, name):
        t = self.now()
        try:
            yield
        finally:
            self.times[name] = self.times.get(name, 0.0) + self.now() - t

    def evaluator(self, evaluator):
        return evaluator


@dataclass(frozen=True)
class PlanOutcome:
    """What the checks need from one run, without the graph."""

    plan_s: float
    stage_s: dict
    result: object         # search.PathResult
    leg_points: list       # (x0, y0, x1, y1) per leg
    leg_profiles: list     # DiveProfile per leg
    cfg: object            # mission.MissionConfig
    inputs: dict


def depth_independent(cfg, profiles):
    """Profiles whose travel time cannot depend on depth: the field has no
    surface term, or the profile never climbs above z_decay."""
    if cfg.env.mode not in (MODE_FULL, MODE_SURFACE):
        return len(profiles)
    z_decay = cfg.env.surface.z_decay
    return sum(1 for p in profiles if p.z_climb_to >= z_decay)


def run_pipeline(mission_path, out_dir, n_workers, clock):
    """Plan serially, or through a pool of n_workers when it is not None."""
    with clock.stage("pipeline"):
        with clock.stage("mission.parse"):
            cfg = parse_mission(mission_path)
        with clock.stage("profiles.generate"):
            profiles = generate_dive_profiles(cfg.profile_params)
        with clock.stage("grid.build"):
            graph = build_grid(cfg.grid)
        with clock.stage("grid.terminal"):
            insert_terminal(graph, cfg.start[0], cfg.start[1], "start")
            insert_terminal(graph, cfg.goal[0], cfg.goal[1], "goal")
        pool = None
        evaluator = None
        try:
            if n_workers is not None:
                with clock.stage("engine.start"):
                    pool = WorkerPool(EngineConfig(
                        n_workers, cfg.engine.sleep_poll_interval))
                    if cfg.auto_sleep:
                        pool.sleep_all()
                    pool.wake(pool.n_workers)
                    evaluator = pool_evaluator(pool)
            with clock.stage("search"):
                result = plan(graph, cfg.t0, profiles, cfg.env, cfg.vehicle,
                              cfg.integration, clock.evaluator(evaluator))
            with clock.stage("cli.write"):
                write_plan_outputs(cfg, result, graph, out_dir)
        finally:
            if pool is not None:
                with clock.stage("engine.shutdown"):
                    pool.sleep_all()
                    pool.shutdown()
    nodes = graph.nodes
    return PlanOutcome(
        plan_s=clock.times["pipeline"],
        stage_s=dict(clock.times),
        result=result,
        leg_points=[(nodes[leg.frm].x, nodes[leg.frm].y,
                     nodes[leg.to].x, nodes[leg.to].y) for leg in result.legs],
        leg_profiles=[profiles[leg.profile_index] for leg in result.legs],
        cfg=cfg,
        inputs={"nodes": len(nodes), "edges": graph.n_edges(),
                "profiles": len(profiles),
                "profiles_depth_independent": depth_independent(cfg, profiles)},
    )
