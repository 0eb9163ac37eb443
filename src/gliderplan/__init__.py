"""Time-varying-environment path planner for buoyancy-driven underwater
gliders, with per-edge dive-profile cost evaluation delegated to a
master/worker pool."""

from .cost import (EdgeCostResult, EdgeTask, Family, IntegrationParams,
                   VehicleParams, edge_cost, profile_families,
                   serial_evaluator, solo_families, traverse_edge)
from .engine import (EngineConfig, TaskResult, WorkerPool, noop_run,
                     pool_evaluator, rounds_required)
from .errors import ConfigError, EngineError, NoPathError, ParameterError
from .grid import (Edge, Graph, GridSpec, Node, build_grid, coprime_offsets,
                   insert_terminal)
from .mission import MissionConfig, parse_mission, write_path_xml
from .ocean import (FlowEnvironment, FlowSample, JetParams,
                    SurfaceCurrentParams, meander_amplitude, stream_function,
                    velocity)
from .profiles import DiveProfile, DiveProfileParams, generate_dive_profiles
from .search import Leg, PathResult, plan

__version__ = "0.1.0"
