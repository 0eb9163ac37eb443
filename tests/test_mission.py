import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import gliderplan as gp
import gliderplan.cli
from gliderplan.cli import main, parse_worker_list, run_plan
from gliderplan.mission import read_path_xml, write_path_xml
from gliderplan.search import Leg, PathResult

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

STILL_MISSION = """<?xml version="1.0"?>
<mission>
  <flow mode="still"/>
  <vehicle v_bf="0.5" w_vert="100"/>
  <integration dt="0.01"/>
  <grid x_min="0" x_max="1" y_min="0" y_max="1" h="0.5" sector_order="1"/>
  <dive_profiles z_min="0" z_max="100" z_climb_to_max="20" d_min_range="30"
                 n_climb_levels="2" n_dive_levels="2"/>
  <start x="0.0" y="0.0"/>
  <goal x="1.0" y="1.0"/>
  <engine n_workers="2"/>
</mission>
"""


@pytest.fixture
def still_mission(tmp_path):
    p = tmp_path / "still.xml"
    p.write_text(STILL_MISSION)
    return str(p)


class TestParseMission:
    def test_example_mission(self, example_mission):
        cfg = gp.parse_mission(example_mission)
        assert cfg.env.mode == "full"
        assert cfg.vehicle.v_bf == 0.5
        assert cfg.grid.h == 0.4
        assert cfg.grid.sector_order == 3
        profiles = gp.generate_dive_profiles(cfg.profile_params)
        assert len(profiles) == 20

    def test_defaults_for_omitted_elements(self, tmp_path):
        p = tmp_path / "minimal.xml"
        p.write_text("<mission/>")
        cfg = gp.parse_mission(str(p))
        assert cfg.env.jet.B0 == 1.2
        assert cfg.env.jet.theta == pytest.approx(math.pi / 2)
        assert cfg.grid.x_max == 8.0
        assert cfg.start == (0.2, 0.0)
        assert cfg.goal == (7.8, 0.0)
        assert cfg.t0 == 0.0
        assert cfg.engine.sleep_poll_interval == pytest.approx(0.1)
        assert cfg.engine == gp.EngineConfig(4)
        assert cfg.auto_sleep is False
        assert cfg.run_mode == "serial"
        # the module sections take their config dataclasses' field defaults
        assert cfg.env == gp.FlowEnvironment()
        assert cfg.vehicle == gp.VehicleParams()
        assert cfg.integration == gp.IntegrationParams()
        assert cfg.grid == gp.GridSpec()
        assert cfg.profile_params == gp.DiveProfileParams()

    def test_readme_schema_block_states_the_defaults(self, tmp_path):
        readme = README.read_text()
        block = re.search(r"## Mission file schema.*?```xml\n(.*?)```",
                          readme, re.S).group(1)
        documented, minimal = tmp_path / "readme.xml", tmp_path / "min.xml"
        documented.write_text(block)
        minimal.write_text("<mission/>")
        assert gp.parse_mission(str(documented)) == \
            gp.parse_mission(str(minimal))

    def test_partial_nested_section(self, tmp_path):
        p = tmp_path / "jet.xml"
        p.write_text('<mission><flow mode="jet"><jet B0="2"/></flow></mission>')
        env = gp.parse_mission(str(p)).env
        assert env == gp.FlowEnvironment(jet=gp.JetParams(B0=2.0), mode="jet")

    @pytest.mark.parametrize("doc,name", [
        ('<flow mode="tidal"/>', "tidal"),
        ("<flow><tide/></flow>", "tide"),
        ('<flow><jet x="1"/></flow>', "'x'"),
        ('<flow><jet B0="0"/></flow>', "<jet>"),
        ('<flow><surface z_decay="0"/></flow>', "<surface>"),
        ("<vehicle><x/></vehicle>", "<vehicle>"),
        ('<grid sector_order="1.5"/>', "sector_order"),
        ('<integration max_steps="1e6"/>', "max_steps"),
    ])
    def test_bad_section_names_culprit(self, tmp_path, doc, name):
        p = tmp_path / "bad.xml"
        p.write_text("<mission>%s</mission>" % doc)
        with pytest.raises(gp.ConfigError, match=re.escape(name)):
            gp.parse_mission(str(p))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.xml"
        p.write_text("")
        with pytest.raises(gp.ConfigError):
            gp.parse_mission(str(p))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(gp.ConfigError):
            gp.parse_mission(str(tmp_path / "nope.xml"))

    def test_zero_dive_levels_names_field(self, tmp_path):
        p = tmp_path / "bad.xml"
        p.write_text('<mission><dive_profiles n_dive_levels="0"/></mission>')
        with pytest.raises(gp.ConfigError, match="n_dive_levels"):
            gp.parse_mission(str(p))

    def test_unknown_element_rejected(self, tmp_path):
        p = tmp_path / "bad.xml"
        p.write_text("<mission><warp_drive/></mission>")
        with pytest.raises(gp.ConfigError, match="warp_drive"):
            gp.parse_mission(str(p))

    @pytest.mark.parametrize("tag", ["start", "goal", "search", "engine",
                                     "run"])
    def test_child_of_leaf_element_rejected(self, tmp_path, tag):
        p = tmp_path / "bad.xml"
        p.write_text("<mission><%s><foo/></%s></mission>" % (tag, tag))
        with pytest.raises(gp.ConfigError, match=re.escape(
                "unknown element <foo> inside <%s>" % tag)):
            gp.parse_mission(str(p))

    @pytest.mark.parametrize("doc,message", [
        ('<flow><jet B0="2"/><jet B0="3"/></flow>',
         "duplicate element <jet> inside <flow>"),
        ('<grid/><grid h="0.5"/>', "duplicate element <grid> inside <mission>"),
    ])
    def test_repeated_element_rejected(self, tmp_path, doc, message):
        p = tmp_path / "bad.xml"
        p.write_text("<mission>%s</mission>" % doc)
        with pytest.raises(gp.ConfigError, match=re.escape(message)):
            gp.parse_mission(str(p))

    def test_unknown_attribute_rejected(self, tmp_path):
        p = tmp_path / "bad.xml"
        p.write_text('<mission><vehicle thrust="9"/></mission>')
        with pytest.raises(gp.ConfigError, match="thrust"):
            gp.parse_mission(str(p))

    def test_bad_number_rejected(self, tmp_path):
        p = tmp_path / "bad.xml"
        p.write_text('<mission><vehicle v_bf="fast"/></mission>')
        with pytest.raises(gp.ConfigError, match="v_bf"):
            gp.parse_mission(str(p))

    def test_parse_is_total(self, still_mission, example_mission):
        # every accepted document yields constructible, validated components
        for path in (still_mission, example_mission):
            cfg = gp.parse_mission(path)
            gp.generate_dive_profiles(cfg.profile_params)
            gp.build_grid(cfg.grid)


class TestPathXmlRoundTrip:
    def test_round_trip_equality(self, tmp_path):
        result = PathResult(
            [Leg(84, 61, 0.0, 0.8312345678901234, 11),
             Leg(61, 33, 0.8312345678901234, 1.25e-1, 0)],
            0.0, 0.9562345678901234)
        out = tmp_path / "path.xml"
        write_path_xml(result, str(out))
        again = read_path_xml(str(out))
        assert again.legs == result.legs
        assert again.t0 == result.t0
        assert again.arrival == result.arrival

    @pytest.mark.parametrize("text, names", [
        ('<path t0="0.0"/>', ("<path>", "'arrival'")),
        ('<path arrival="1.0"/>', ("<path>", "'t0'")),
        ('<path t0="0.0" arrival="late"/>', ("<path", "arrival=")),
        ('<path t0="0.0" arrival="0.5"><leg from="1" to="2" departure="0.0"'
         ' travel_time="x" profile="3"/></path>', ("<leg", "travel_time=")),
        ('<path t0="0.0" arrival="0.5"><leg from="1" to="2" departure="0.0"'
         ' travel_time="0.5"/></path>', ("<leg>", "'profile'")),
        ('<path t0="0.0" arrival="0.5"><leg from="1.5" to="2" departure="0.0"'
         ' travel_time="0.5" profile="3"/></path>', ("<leg", "from=")),
    ], ids=["path-no-arrival", "path-no-t0", "path-bad-arrival",
            "leg-bad-travel_time", "leg-no-profile", "leg-bad-from"])
    def test_bad_attribute_names_element_and_attribute(self, tmp_path, text,
                                                       names):
        out = tmp_path / "path.xml"
        out.write_text(text)
        with pytest.raises(gp.ConfigError) as info:
            read_path_xml(str(out))
        assert all(name in str(info.value) for name in names)

    @pytest.mark.parametrize("text, message", [
        ('<path t0="0.0" arrival="1.0" bogus="x"/>',
         "<path>: unknown attribute 'bogus'"),
        ('<path t0="0.0" arrival="1.0"><leg from="1" to="2" departure="0.0"'
         ' travel_time="1.0" profile="3" extra="y"/></path>',
         "<leg>: unknown attribute 'extra'"),
        ('<path t0="0.0" arrival="1.0"><leg from="1" to="2" departure="0.0"'
         ' travel_time="1.0" profile="3"><child/></leg></path>',
         "unknown element <child> inside <leg>"),
    ], ids=["path-unknown-attribute", "leg-unknown-attribute", "leg-child"])
    def test_unknown_attribute_or_element_rejected(self, tmp_path, text,
                                                   message):
        # a path file is held to the rules of a mission file
        out = tmp_path / "path.xml"
        out.write_text(text)
        with pytest.raises(gp.ConfigError, match=re.escape(message)):
            read_path_xml(str(out))

    def test_byte_stable(self, tmp_path):
        result = PathResult([Leg(1, 2, 0.0, 0.5, 3)], 0.0, 0.5)
        a, b = tmp_path / "a.xml", tmp_path / "b.xml"
        write_path_xml(result, str(a))
        write_path_xml(result, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestWorkerListParsing:
    def test_ranges_and_singletons(self):
        assert parse_worker_list("1-4,7,10-11") == [1, 2, 3, 4, 7, 10, 11]

    def test_invalid(self):
        with pytest.raises(gp.ConfigError):
            parse_worker_list("0")
        with pytest.raises(gp.ConfigError):
            parse_worker_list("5-2")
        with pytest.raises(gp.ConfigError):
            parse_worker_list("two")


class TestCmdPlan:
    def test_still_water_route(self, still_mission, tmp_path):
        out = tmp_path / "out"
        code = main(["plan", "--mission", still_mission, "--out", str(out)])
        assert code == 0
        result = read_path_xml(str(out / "path.xml"))
        # lattice route 0.5 + sqrt(0.5) + 0.5 long, at v_bf = 0.5
        assert result.total_time == pytest.approx(2 + math.sqrt(2), rel=1e-6)
        assert (out / "path.csv").exists()
        assert (out / "path_trace.csv").exists()
        assert (out / "graph_stats.csv").exists()

    def test_serial_parallel_byte_identical(self, still_mission, tmp_path):
        out_s, out_p = tmp_path / "s", tmp_path / "p"
        assert main(["plan", "--mission", still_mission, "--serial",
                     "--out", str(out_s)]) == 0
        assert main(["plan", "--mission", still_mission, "--parallel",
                     "--workers", "3", "--out", str(out_p)]) == 0
        assert (out_s / "path.xml").read_bytes() == \
            (out_p / "path.xml").read_bytes()

    def test_auto_sleep_pool_plan_equals_serial(self, tmp_path):
        # the pool's workers are put to sleep while the grid is built and
        # woken for the search
        p = tmp_path / "sleepy.xml"
        p.write_text(STILL_MISSION.replace(
            '<engine n_workers="2"/>',
            '<engine n_workers="2" auto_sleep="true"'
            ' sleep_poll_interval_ms="5"/>'))
        assert gp.parse_mission(str(p)).auto_sleep
        out_s, out_p = tmp_path / "s", tmp_path / "p"
        assert main(["plan", "--mission", str(p), "--serial",
                     "--out", str(out_s)]) == 0
        assert main(["plan", "--mission", str(p), "--parallel",
                     "--workers", "2", "--out", str(out_p)]) == 0
        assert (out_s / "path.xml").read_bytes() == \
            (out_p / "path.xml").read_bytes()

    def test_plan_does_not_import_numpy(self, still_mission, tmp_path):
        # a serial and a pool plan in a fresh interpreter; numpy alone
        # would almost double the planner's resident memory
        code = (
            "import sys\n"
            "from gliderplan.cli import main\n"
            "for mode in ('--serial', '--parallel'):\n"
            "    assert main(['plan', '--mission', sys.argv[1], mode,\n"
            "                 '--out', sys.argv[2] + mode]) == 0\n"
            "assert 'numpy' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, still_mission, str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_interrupted_pool_plan_shuts_the_pool_down(self, example_mission,
                                                       monkeypatch):
        cfg = gp.parse_mission(example_mission)
        before = set(threading.enumerate())
        workers = []

        def interrupted(*args):
            workers.extend(set(threading.enumerate()) - before)
            raise KeyboardInterrupt

        monkeypatch.setattr(gliderplan.cli, "plan", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_plan(cfg, cfg.engine.n_workers)
        assert len(workers) == cfg.engine.n_workers
        assert not any(t.is_alive() for t in workers)

    def test_no_path_exit_code(self, tmp_path):
        p = tmp_path / "blocked.xml"
        p.write_text(STILL_MISSION.replace(
            '<flow mode="still"/>', '<flow mode="uniform" ux="-0.6"/>'))
        code = main(["plan", "--mission", str(p), "--out",
                     str(tmp_path / "out")])
        assert code == 2

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.xml"
        p.write_text('<mission><dive_profiles n_dive_levels="0"/></mission>')
        assert main(["plan", "--mission", str(p)]) == 3

    @pytest.mark.parametrize("doc,args,message", [
        ('<mission><engine auto_sleep="maybe"/></mission>', ["plan"],
         "<engine auto_sleep='maybe'>"),
        ('<mission><run mode="batch"/></mission>', ["plan"], "<run>"),
        ("<plan/>", ["plan"], "root element must be <mission>"),
        ('<mission><grid x_min="1" x_max="1"/></mission>', ["plan"],
         "<grid>: grid bounding box is empty"),
        ('<mission><grid h="0"/></mission>', ["plan"], "<grid>: grid size h"),
        ('<mission><grid sector_order="0"/></mission>', ["plan"],
         "<grid>: sector_order"),
        ('<mission><engine sleep_poll_interval_ms="0"/></mission>', ["plan"],
         "<engine>: sleep_poll_interval"),
        (STILL_MISSION, ["field", "--x", "0:1:0"], "'0:1:0'"),
        (STILL_MISSION, ["field", "--z", "a"], "'a'"),
        (STILL_MISSION, ["bench", "--workers", "3-x"], "'3-x'"),
        ('<mission><grid x_max="1e12"/></mission>', ["plan"],
         "<grid>: grid bounding box too large"),
        ('<mission><grid x_min="-1.5e308" x_max="1.5e308"/></mission>',
         ["plan"], "<grid>: grid bounding box too large"),
    ])
    def test_config_errors_exit_3(self, tmp_path, capsys, doc, args, message):
        p = tmp_path / "bad.xml"
        p.write_text(doc)
        assert main([args[0], "--mission", str(p), *args[1:],
                     "--out", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,culprit", [
        ('<search t0="0.0"/>', '<search t0="nan"/>', "<search t0='nan'>"),
        ('x_max="2.4"', 'x_max="inf"', "<grid x_max='inf'>"),
        ('w_vert="100"', 'w_vert="inf"', "<vehicle w_vert='inf'>"),
        ('eps_speed="1e-6"', 'eps_speed="nan"',
         "<integration eps_speed='nan'>"),
        ('omega="0.4"', 'omega="nan"', "<jet omega='nan'>"),
    ])
    def test_non_finite_number_is_a_config_error(self, example_mission,
                                                 tmp_path, capsys, old, new,
                                                 culprit):
        text = Path(example_mission).read_text()
        assert old in text
        p = tmp_path / "non_finite.xml"
        p.write_text(text.replace(old, new))
        assert main(["plan", "--mission", str(p), "--out",
                     str(tmp_path / "out")]) == 3
        assert culprit + ": not a finite number" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        # argparse's own exit code, 2, is the no-path code
        assert main(["plan"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: gliderplan plan")
        assert "config error: " in err and "--mission" in err

    def test_serial_and_parallel_exclusive(self, still_mission, tmp_path,
                                           capsys):
        assert main(["plan", "--mission", still_mission, "--serial",
                     "--parallel", "--out", str(tmp_path / "out")]) == 3
        assert "not allowed with argument --serial" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_workers_with_serial_is_usage_error(self, still_mission,
                                                tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["plan", "--mission", still_mission, "--serial",
                     "--workers", "2", "--out", str(out)]) == 3
        assert "config error: --workers" in capsys.readouterr().err
        assert not (out / "path.xml").exists()

    @pytest.mark.parametrize("run", ["", '<run mode="serial"/>'])
    def test_workers_on_serial_mission_is_usage_error(self, tmp_path, run):
        # a mission without <run> plans serially, like <run mode="serial"/>
        p = tmp_path / "serial.xml"
        p.write_text(STILL_MISSION.replace("</mission>", run + "</mission>"))
        out = tmp_path / "out"
        assert main(["plan", "--mission", str(p), "--workers", "2",
                     "--out", str(out)]) == 3
        assert not (out / "path.xml").exists()

    def test_workers_sizes_the_pool_of_a_parallel_mission(
            self, still_mission, tmp_path, monkeypatch):
        p = tmp_path / "parallel.xml"
        p.write_text(STILL_MISSION.replace(
            '<engine n_workers="2"/>',
            '<engine n_workers="4" sleep_poll_interval_ms="50"/>'
            '<run mode="parallel"/>'))
        configs = []

        def recording_pool(cfg):
            configs.append(cfg)
            return gp.WorkerPool(cfg)

        monkeypatch.setattr(gliderplan.cli, "WorkerPool", recording_pool)
        outs = [tmp_path / name for name in ("serial", "flag", "engine")]
        assert main(["plan", "--mission", still_mission,
                     "--out", str(outs[0])]) == 0
        assert main(["plan", "--mission", str(p), "--workers", "2",
                     "--out", str(outs[1])]) == 0
        assert main(["plan", "--mission", str(p), "--out", str(outs[2])]) == 0
        # the flag sets the pool size only; the rest comes from <engine>
        assert configs == [gp.EngineConfig(2, 0.05), gp.EngineConfig(4, 0.05)]
        xml = [(out / "path.xml").read_bytes() for out in outs]
        assert xml[1] == xml[0] and xml[2] == xml[0]

    def test_serial_run_plan_starts_no_thread(self, still_mission,
                                              monkeypatch):
        cfg = gp.parse_mission(still_mission)
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        run_plan(cfg)
        assert started == []
        run_plan(cfg, 2)
        assert len(started) == 2

    def test_each_leg_starts_at_its_climb_depth(self, example_mission,
                                                 tmp_path):
        # the sawtooth phase restarts on every leg: each leg's flight
        # begins at its own profile's climb depth, at the leg's departure
        out = tmp_path / "out"
        assert main(["plan", "--mission", example_mission, "--serial",
                     "--out", str(out)]) == 0
        result = read_path_xml(str(out / "path.xml"))
        profiles = gp.generate_dive_profiles(
            gp.parse_mission(example_mission).profile_params)
        lines = (out / "path_trace.csv").read_text().splitlines()
        assert lines[0] == "leg,t,s,x,y,z,u,v,g"
        first = {}
        for line in lines[1:]:
            leg, t, _s, _x, _y, z = line.split(",")[:6]
            first.setdefault(int(leg), (float(t), float(z)))
        assert sorted(first) == list(range(len(result.legs)))
        climbs = [profiles[leg.profile_index].z_climb_to
                  for leg in result.legs]
        assert [z for _t, z in first.values()] == climbs
        assert [t for t, _z in first.values()] == [
            leg.departure for leg in result.legs]
        assert len(set(climbs)) > 1  # the path changes climb depth

    def test_zero_length_edge_exit_code(self, tmp_path, capsys):
        # lattice points 1.0 apart collapse at x = 1e17
        p = tmp_path / "collapsed.xml"
        p.write_text(STILL_MISSION.replace(
            '<grid x_min="0" x_max="1" y_min="0" y_max="1" h="0.5"',
            '<grid x_min="1e17" x_max="1.0000000000000006e+17" y_min="0"'
            ' y_max="4" h="1"').replace(
            '<start x="0.0"', '<start x="1e17"').replace(
            '<goal x="1.0"', '<goal x="1e17"'))
        assert main(["plan", "--mission", str(p), "--out",
                     str(tmp_path / "out")]) == 3
        assert "config error: zero-length edge 0 -> 1 at (1e+17, 0)" \
            in capsys.readouterr().err

    def test_path_xml_reparses_to_consistent_result(self, still_mission,
                                                    tmp_path):
        out = tmp_path / "out"
        main(["plan", "--mission", still_mission, "--out", str(out)])
        result = read_path_xml(str(out / "path.xml"))
        assert result.legs[0].departure == result.t0
        for a, b in zip(result.legs, result.legs[1:]):
            assert a.to == b.frm
            assert b.departure == a.departure + a.travel_time
        assert result.arrival == pytest.approx(
            result.t0 + sum(l.travel_time for l in result.legs))


class TestCmdBench:
    def test_report_structure(self, still_mission, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--mission", still_mission, "--workers", "1,2",
                     "--repeat", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "variant,n_workers,total_ms,search_ms,speedup"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["S-TVE", "P-TVE", "P-TVE"]
        assert [int(r[1]) for r in rows] == [1, 1, 2]
        # speedup recomputes from the time columns
        serial_search = float(rows[0][3])
        assert float(rows[0][4]) == 1.0
        for r in rows[1:]:
            assert float(r[4]) == pytest.approx(serial_search / float(r[3]))

    def test_repeat_below_one_rejected(self, still_mission, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--mission", still_mission, "--workers", "1",
                     "--repeat", "0", "--out", str(out)]) == 3
        assert not out.exists()


class TestCmdNoop:
    def test_csv_rows(self, tmp_path):
        out = tmp_path / "noop.csv"
        code = main(["noop", "--workers", "1,4", "--repeat", "1",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n_workers,phase,wall_ms"
        assert len(lines) == 1 + 2 * 3  # startup/teardown/total per count

    def test_repeat_below_one_rejected(self, tmp_path):
        out = tmp_path / "noop.csv"
        assert main(["noop", "--workers", "1", "--repeat", "0",
                     "--out", str(out)]) == 3
        assert not out.exists()


class TestCmdField:
    def test_row_count_and_surface_term(self, example_mission, tmp_path):
        out = tmp_path / "field.csv"
        # cos(d*omega*t) = 1 at t = 0
        code = main(["field", "--mission", example_mission,
                     "--x", "0:2:3", "--y", "0:1:2", "--z", "0,20",
                     "--times", "0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x,y,z,u,v"
        assert len(lines) == 1 + 3 * 2 * 2
        cfg = gp.parse_mission(example_mission)
        jet_env = gp.FlowEnvironment(cfg.env.jet, mode="jet")
        for line in lines[1:]:
            t, x, y, z, u, v = (float(tok) for tok in line.split(","))
            jet = gp.velocity(x, y, 0.0, t, jet_env)
            if z == 0.0:
                assert u == pytest.approx(jet.u + 0.5)
            else:  # below z_decay: jet only
                assert u == jet.u

    def test_bad_range_spec(self, example_mission, tmp_path):
        assert main(["field", "--mission", example_mission, "--x", "0..1",
                     "--out", str(tmp_path / "f.csv")]) == 3


class TestCmdProfiles:
    def test_paper_params_give_20_rows(self, example_mission, tmp_path):
        out = tmp_path / "profiles.csv"
        code = main(["profiles", "--mission", example_mission,
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,z_climb_to,z_dive_to"
        assert len(lines) == 21

    def test_single_profile(self, tmp_path):
        p = tmp_path / "single.xml"
        p.write_text('<mission><dive_profiles z_min="0" z_max="100" '
                     'z_climb_to_max="10" d_min_range="20" '
                     'n_climb_levels="1" n_dive_levels="1"/></mission>')
        out = tmp_path / "profiles.csv"
        assert main(["profiles", "--mission", str(p), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_validation_failure_nonzero_exit(self, tmp_path):
        p = tmp_path / "bad.xml"
        p.write_text('<mission><dive_profiles n_climb_levels="0"/></mission>')
        assert main(["profiles", "--mission", str(p)]) != 0
