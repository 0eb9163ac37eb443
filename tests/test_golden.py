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
from gliderplan.ocean import FlowEnvironment
from conftest import EXAMPLE_MISSION, LATTICE_MISSION, benchmark_missions

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
LATTICE_GOLDEN = (
    "b578e16407d9d5c880a56b2d8cc4a7b1fdffa7270649868812a5d7079b89eed2",
    "aa5f802ee94d3e2761c291733cabc9a4a3e765cf637319e513bc196769e111c7",
    "450e5a3e9a479610d2ba5578e975354e525256047cf2f30235a74aeddb4054d0",
    "a139e58894fc1965f895d662e252444bea2e2e58ea3e3fadf1783e1310648ba5")


# The benchmark's lattice-uniform missions 1-3 of seed 0: the current
# turned by 1/4, 1/2 and 3/4 of a turn, and t0 shifted to match, as
# perfbench/workloads.py writes them. Mission 0 is LATTICE_MISSION itself.
LATTICE_TURNED_GOLDEN = {
    1: ("0d565cb4d2bc07904134e284945e75f61cbfbd0ebf5425d6f1d0b68b5d394c9e",
        "e6d18a96dcad4c8524064be5cd0e1c31854068e422cd6dabf5ba7d65655aae63",
        "97b553de902efee29dede8e75841cdb5a9df7ae96464d2e86af8f0958a464717",
        LATTICE_GOLDEN[3]),
    2: ("b1336fc0c6323d537ca41ea9cf037200f0b5e6e0d902e6c828da92bb05e87642",
        "b5e44b290dd34af24696159f61b06645052381f1fc9b0fa441d937438109546d",
        "5bbd89fc457b3430008815c5c3656d86f5805536b5d45623124c496d44287d08",
        LATTICE_GOLDEN[3]),
    3: ("4551b8a4a878d943b230baa1a7d192707912a0bd7bec632e461b8db9fdfe102b",
        "e850e3356542f151173d999037e25fd54c5817096fc6e63ce65dbadd752be0f5",
        "9ce4fa54dab316987b142b86b960a01fac84b07aa4ad95ee97e383135e6c2688",
        LATTICE_GOLDEN[3]),
}

# LATTICE_MISSION in other currents (ux, uy), None for still water. At
# 0.6 the current outruns the vehicle (v_bf = 0.5), so the search's
# straight-leg bound, h and lb alike, is 0 (search._leg_bound).
LATTICE_FLOW_GOLDEN = {
    (0.2, 0.0): (
        "7eb241832c6d148b983fca4534f8b7f4d809496010852ced9be2fc765ec6024f",
        "ba44c9b082f65f4f7e557b97fedd7f507b752b23387c1a0ed1d7032e7dd9b535",
        "1fc527dd199e26581aebb62b8157cc56322c372b62887048b426fd933c94bad6",
        LATTICE_GOLDEN[3]),
    (0.6, 0.0): (
        "9d114c0d7b3d35dcb12b60faefc82a775e3103c73b82eaa81069f1ef29d295d2",
        "76ff841bd2ae36e3a0cdfe29bc5ebcf8869eeda2b2c499dc4912e8eee8d456ec",
        "72e95930386068e315629ef0c5ebe4598cba23dc74ec3b2accfc4a2944de7851",
        LATTICE_GOLDEN[3]),
    None: (
        "e74fcf2cef7a42077d0e062cc4c58fda724153c306102f787d84b126f43aaf4e",
        "9903b0b3ade914cb9b29d1623531001a45bfa962402945d80d3684743d1e42b2",
        "ea619073b844ebcf1dbedd6fd1e5bdf340f0aafee9df1a6cf2f3a8e67d5d9fc5",
        LATTICE_GOLDEN[3]),
}


def cfg_digests(tmp_path, cfg, parallel=False):
    result, graph, _search_s, _total_s = run_plan(cfg, 2 if parallel else None)
    write_plan_outputs(cfg, result, graph, str(tmp_path))
    return tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in FILES)


def digests(tmp_path, t0, parallel, mission=EXAMPLE_MISSION):
    cfg = dataclasses.replace(parse_mission(str(mission)), t0=t0)
    return cfg_digests(tmp_path, cfg, parallel)


@pytest.mark.parametrize("t0", sorted(GOLDEN))
def test_serial_outputs(tmp_path, t0):
    assert digests(tmp_path, t0, parallel=False) == GOLDEN[t0]


def test_pool_outputs(tmp_path):
    assert digests(tmp_path, 0.0, parallel=True) == GOLDEN[0.0]


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "pool"])
def test_lattice_uniform_outputs(tmp_path, parallel):
    assert digests(tmp_path, 0.0, parallel,
                   mission=LATTICE_MISSION) == LATTICE_GOLDEN


@pytest.mark.parametrize("j", sorted(LATTICE_TURNED_GOLDEN))
def test_lattice_turned_current_outputs(tmp_path, j):
    mission = benchmark_missions(tmp_path)[j]
    out = tmp_path / "out"
    out.mkdir()
    assert (cfg_digests(out, parse_mission(mission))
            == LATTICE_TURNED_GOLDEN[j])


@pytest.mark.parametrize("flow", list(LATTICE_FLOW_GOLDEN), ids=str)
def test_lattice_other_current_outputs(tmp_path, flow):
    env = FlowEnvironment.still() if flow is None else FlowEnvironment.uniform(
        *flow)
    cfg = dataclasses.replace(parse_mission(str(LATTICE_MISSION)), env=env)
    assert cfg_digests(tmp_path, cfg) == LATTICE_FLOW_GOLDEN[flow]
