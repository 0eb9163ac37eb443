"""The benchmark's workloads and the missions a seed makes from them.

A run plans MISSIONS_PER_RUN missions. Their start times are spread evenly
over pi / (d * omega), from a phase the seed picks. Over that half period
of the surface current, cos(d * omega * t) takes every value in [-1, 1]
once. On lattice-uniform the current direction is also turned, by the same
fraction of a full turn. Spreading the missions evenly keeps the amount of
search work nearly the same from seed to seed: one shifted start time alone
changes it by up to 20% on the example mission. Mission 0 of seed 0 is the
mission file exactly as written.
"""

import math
import os
import random
import shutil
import xml.etree.ElementTree as ET
from dataclasses import dataclass

MISSIONS_PER_RUN = 4


@dataclass(frozen=True)
class Workload:
    name: str
    mission: str  # relative to the checkout root
    rotate_current: bool
    # Traced runs also plan through a WorkerPool of this size, for the
    # engine layer; None: no pool. Untraced runs plan serially only.
    pool_workers: object


WORKLOADS = {
    w.name: w for w in (
        Workload("example-serial", "missions/example.xml", False, 2),
        Workload("lattice-uniform", "perfbench/missions/lattice-uniform.xml",
                 True, None),
    )
}


def _set_attr(root, tag, name, value):
    el = root.find(tag)
    if el is None:
        el = ET.SubElement(root, tag)
    el.set(name, repr(value))


def write_missions(workload, root_dir, seed, out_dir, parse_mission):
    """Write this run's mission files into out_dir; return their paths."""
    base = os.path.join(root_dir, workload.mission)
    cfg = parse_mission(base)
    span = math.pi / (cfg.env.surface.d * cfg.env.jet.omega)
    phase = 0.0 if seed == 0 else random.Random(seed).random()
    paths = []
    for j in range(MISSIONS_PER_RUN):
        frac = (phase + j) / MISSIONS_PER_RUN
        path = os.path.join(out_dir, "mission-%d.xml" % j)
        if frac == 0.0:
            shutil.copyfile(base, path)
        else:
            tree = ET.parse(base)
            mission = tree.getroot()
            _set_attr(mission, "search", "t0", cfg.t0 + frac * span)
            if workload.rotate_current:
                c, s = math.cos(2 * math.pi * frac), math.sin(2 * math.pi * frac)
                ux, uy = cfg.env.ux, cfg.env.uy
                _set_attr(mission, "flow", "ux", c * ux - s * uy)
                _set_attr(mission, "flow", "uy", s * ux + c * uy)
            tree.write(path, encoding="UTF-8", xml_declaration=True)
        paths.append(path)
    return paths
