"""Golden outputs: the files `gliderplan plan` writes for the example
mission and for the lattice-uniform benchmark mission, pinned by SHA-256.

A change that claims byte-identical output must keep these digests. A
change that moves results on purpose updates them and says by how much
and why. The digests were recorded on x86-64 Linux with glibc 2.36 and
CPython 3.11. sin, cos, cosh and sqrt come from the host's libm, so
another libm may round a last bit differently and fail here with no
fault in the planner.
"""

import dataclasses
import hashlib

import pytest

from gliderplan.cli import run_plan, write_plan_outputs
from gliderplan.mission import parse_mission
from conftest import EXAMPLE_MISSION, REPO_ROOT

FILES = ("path.xml", "path.csv", "path_trace.csv", "graph_stats.csv")

GRAPH_STATS = "2e93ea113d4e0b3d78e98d5a46cbfa296f589220ed7ec2c7b29ba2798ec8375f"

# t0 -> SHA-256 of path.xml, path.csv, path_trace.csv, graph_stats.csv
GOLDEN = {
    0.0: ("57ee415170e90e56b4062fc99c95a30ff57fcb9697efe46d04e28cff3a913bcb",
          "1c3a57d8e19004aaa627d0a13c46e7829b986d6def38d0e62395a5e9326ab8bb",
          "64ffb1ab6d06cabb326424f709a3d5443eeb64e29b01a281f21e685f1860aaee",
          GRAPH_STATS),
    1.0: ("6d0409df65447c76c87427a7327220c3b67981e931468c35b04551bc2af0518d",
          "c5ad6e2eaf6052d87c40792b0a60e59eb0e84eed9c04ab1c2bf6b022aed00aad",
          "4a6ddcade100918d2d498c9bcb46e463935cf0537adcce368575a6f52b1a93be",
          GRAPH_STATS),
    2.0: ("a8117840607aa6acfab14df298c89107fa0c7391ad31735618c468cf3f223cbc",
          "b021e5a5895d19f46972c0a3b01c04cd56b86d3879a53b5a950a9bc8bc583590",
          "b24c20a434f0f2b72a3c5b7f20a4071fbf68c272dbbd923da30adf46d7a928bb",
          GRAPH_STATS),
    3.0: ("9dcf72ca74a1ae037367e525e540e56c851e87686467dbdd8c0c94a072cc7477",
          "e4792fa04587da83e0d9a8baa15703bc922eeb6fe56d29819c9ac1b9f742656a",
          "55a5992686f0fe962fbdaa891fbc34ed26b9a0b04d2d4c97720591f211c7e76e",
          GRAPH_STATS),
}


# One dive profile in a uniform current on a 4,133-node lattice: every
# profile family has one member, so this pins the path that shares nothing.
LATTICE_MISSION = REPO_ROOT / "perfbench" / "missions" / "lattice-uniform.xml"
LATTICE_GOLDEN = (
    "b578e16407d9d5c880a56b2d8cc4a7b1fdffa7270649868812a5d7079b89eed2",
    "aa5f802ee94d3e2761c291733cabc9a4a3e765cf637319e513bc196769e111c7",
    "450e5a3e9a479610d2ba5578e975354e525256047cf2f30235a74aeddb4054d0",
    "a139e58894fc1965f895d662e252444bea2e2e58ea3e3fadf1783e1310648ba5")


def digests(tmp_path, t0, parallel, mission=EXAMPLE_MISSION):
    cfg = dataclasses.replace(parse_mission(str(mission)), t0=t0)
    result, graph, _search_s, _total_s = run_plan(cfg, 2 if parallel else None)
    write_plan_outputs(cfg, result, graph, str(tmp_path))
    return tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in FILES)


@pytest.mark.parametrize("t0", sorted(GOLDEN))
def test_serial_outputs(tmp_path, t0):
    assert digests(tmp_path, t0, parallel=False) == GOLDEN[t0]


def test_pool_outputs(tmp_path):
    assert digests(tmp_path, 0.0, parallel=True) == GOLDEN[0.0]


def test_lattice_uniform_outputs(tmp_path):
    assert digests(tmp_path, 0.0, parallel=False,
                   mission=LATTICE_MISSION) == LATTICE_GOLDEN
