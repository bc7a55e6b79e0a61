import hashlib
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import wait_until

import wingman
from wingman import cli, scenario
from wingman.cli import main
from wingman.transport import MqttClient, SocketTransport

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_gen_trajectory_circle(tmp_path, capsys):
    out = tmp_path / "circle.csv"
    code = main([
        "gen-trajectory", "--kind", "circle", "--radius", "1.0",
        "--angular-speed", "1.0", "--rate", "10", "--duration", "2.0",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 21
    t, x, y, z = (float(v) for v in lines[1].split(","))
    assert (t, x, y, z) == (0.0, 0.0, 0.0, 0.0)
    t, x, y, z = (float(v) for v in lines[11].split(","))
    assert t == 1.0
    assert x == pytest.approx(math.cos(1.0) - 1.0, abs=1e-9)
    assert z == pytest.approx(math.sin(1.0), abs=1e-9)


def test_gen_trajectory_stdout_and_validation(capsys):
    assert main(["gen-trajectory", "--duration", "0.5", "--rate", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 3
    assert main([
        "gen-trajectory", "--kind", "ellipse", "--semi-a", "2.0", "--semi-b", "1.0",
        "--angular-speed", "1.0", "--rate", "10", "--duration", "2.0",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    assert [float(v) for v in lines[1].split(",")] == [0.0, 0.0, 0.0, 0.0]
    t, x, y, z = (float(v) for v in lines[11].split(","))
    assert t == 1.0
    assert x == pytest.approx(2.0 * math.cos(1.0) - 2.0, abs=1e-9)
    assert y == 0.0
    assert z == pytest.approx(math.sin(1.0), abs=1e-9)
    assert main(["gen-trajectory", "--duration", "-1"]) == 2
    assert main(["gen-trajectory", "--rate", "0"]) == 2
    # a flag of the other --kind is a configuration error, as in run
    assert main(["gen-trajectory", "--kind", "circle", "--semi-a", "1"]) == 2
    assert main(["gen-trajectory", "--kind", "ellipse", "--radius", "1"]) == 2
    capsys.readouterr()


# sha256 of the CSV that gen-trajectory writes for the default circle
# and for one ellipse: the t,x,y,z rows stay byte for byte as they are
GEN_DIGESTS = [
    ([], "8441ac99df33d241849819d34370317100a6f479fbf067e71deb77ada059ce96"),
    (["--kind", "ellipse", "--semi-a", "2", "--semi-b", "1"],
     "2c17d866c6932f49e0a7eb3c826faea663f2aec17a4ea5ef60739339465af755"),
]


@pytest.mark.parametrize("flags, digest", GEN_DIGESTS, ids=["circle", "ellipse"])
def test_gen_trajectory_bytes_are_pinned(flags, digest, tmp_path, capsys):
    out = tmp_path / "trajectory.csv"
    assert main(["gen-trajectory", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert main(["gen-trajectory", *flags]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_run_with_config_and_out(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"duration": 2.0, "seed": 3}))
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "similarity=" in summary
    for name in ("trace.csv", "report.json", "messages.jsonl"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report) == {"dtw_distance", "similarity", "path_length", "lag_estimate"}


def test_run_flag_overrides_without_config(capsys):
    code = main([
        "run", "--trajectory", "ellipse", "--semi-a", "0.75", "--semi-b", "0.5",
        "--duration", "2.0", "--seed", "1",
    ])
    assert code == 0
    assert "similarity=" in capsys.readouterr().out


def test_run_path_flags_resolve_against_working_directory(tmp_path, monkeypatch, capsys):
    world = "id,label,x,y,z\ncrate,box,-2,0,0\n"
    (tmp_path / "objects.csv").write_text(world)
    (tmp_path / "way.csv").write_text("t,x,y,z\n0,0,0,0\n1,1,0,0\n")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "s.json").write_text(json.dumps({"duration": 1.0}))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "sub/s.json", "--world-csv", "objects.csv"]) == 0
    assert main([
        "run", "--config", "sub/s.json", "--trajectory", "waypoints", "--waypoints-csv", "way.csv",
    ]) == 0
    # a path written in the config file stays relative to the file
    (sub / "s.json").write_text(json.dumps({"duration": 1.0, "world_csv": "objects.csv"}))
    assert main(["run", "--config", "sub/s.json"]) == 2
    (sub / "objects.csv").write_text(world)
    assert main(["run", "--config", "sub/s.json"]) == 0
    capsys.readouterr()


def test_run_set_overrides(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"duration": 10.0, "seed": 3}))
    code = main([
        "run", "--config", str(cfg),
        "--set", "duration=2.0",
        "--set", "follower.update_period=0.2",
        "--set", "trajectory.radius=0.4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ticks=20" in out  # duration override took
    # dotted overrides reach nested validation too
    assert main(["run", "--set", "detector.fov=-1", "--duration", "2"]) == 2
    assert main(["run", "--set", "nonsense", "--duration", "2"]) == 2
    assert main(["run", "--set", "follower.update_period.x=1", "--duration", "2"]) == 2
    capsys.readouterr()


def test_run_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--duration", "0"]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"duration": 1.0, "typo_key": 1}))
    assert main(["run", "--config", str(unknown)]) == 2
    capsys.readouterr()
    # input that is not UTF-8 names its file and line
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"duration": 1.0,\n "world": [{"id": "c", "label": "caf\xe9", "x": 0, "y": 0, "z": 1}]}')
    assert main(["run", "--config", str(latin1)]) == 2
    assert f"{latin1} line 2: not UTF-8" in capsys.readouterr().err
    world = tmp_path / "latin1.csv"
    world.write_bytes(b"id,label,x,y,z\nc,caf\xe9,0,0,1\n")
    assert main(["run", "--world-csv", str(world), "--duration", "1"]) == 2
    assert f"{world} line 2: not UTF-8" in capsys.readouterr().err
    # a waypoint that is not finite is a config error too, naming its file and line
    for row in ("1,inf,0,0", "nan,0,0,0"):
        way = tmp_path / "way.csv"
        way.write_text(f"t,x,y,z\n0,0,0,0\n{row}\n")
        assert main(["run", "--trajectory", "waypoints", "--waypoints-csv", str(way), "--duration", "1"]) == 2
        assert f"{way} line 3: non-finite waypoint {row}" in capsys.readouterr().err
    # a directory given for an input file is a config error naming it
    folder = tmp_path / "folder"
    folder.mkdir()
    for argv in (["run", "--config", str(folder)],
                 ["run", "--world-csv", str(folder), "--duration", "1"],
                 ["run", "--trajectory", "waypoints", "--waypoints-csv", str(folder), "--duration", "1"],
                 ["eval", "--trace", str(folder)],
                 ["eval", "--annotations", str(folder)]):
        assert main(argv) == 2, argv
        assert f"{folder}: cannot read" in capsys.readouterr().err, argv


def test_out_paths_that_cannot_be_written_exit_2_before_any_tick(tmp_path, monkeypatch, capsys):
    assert main(["run", "--duration", "1", "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    trace = tmp_path / "run" / "trace.csv"
    a_file = tmp_path / "a_file"
    a_file.write_text("kept\n")
    folder = tmp_path / "folder"
    folder.mkdir()

    def tick(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(scenario, "_run", tick)
    for argv in (["run", "--config", str(CONFIGS / "demo.json"), "--duration", "1", "--out", str(a_file)],
                 ["run", "--duration", "1", "--out", str(a_file / "under")],
                 ["gen-trajectory", "--duration", "1", "--out", str(folder)],
                 ["eval", "--trace", str(trace), "--out", str(folder)]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith(f"error: {argv[-1]}: cannot ") and err.count("\n") == 1, (argv, err)
    assert a_file.read_text() == "kept\n"


# each holds one config number that is a bool, a string, NaN, an infinity
# or too large, or one config string that is empty or not a string: every
# one is a config error, exit 2, and names its field
BAD_NUMBERS = [
    ('"seed": true', "seed"),
    ('"broker_port": true', "broker_port"),
    ('"duration": Infinity', "duration"),
    ('"duration": NaN', "duration"),
    ('"duration": 1e308', "duration"),
    ('"duration": 1' + "0" * 400, "duration"),
    ('"human_start": [NaN, 0, 0]', "human_start[0]"),
    ('"human_start": [0, "1.5", 0]', "human_start[1]"),
    ('"human_start": [0, 0, true]', "human_start[2]"),
    ('"drone_offset": ["1.5", 0]', "drone_offset[0]"),
    ('"drone_offset": [0, true]', "drone_offset[1]"),
    ('"drone_offset": [-Infinity, 0]', "drone_offset[0]"),
    ('"follower": {"follow_offset": [0, true, 0]}', "follower.follow_offset[1]"),
    ('"world": [{"id": "c", "x": "1.5", "y": 0, "z": 1}]', "world[0].x"),
    ('"world": [{"id": "c", "x": 0, "y": true, "z": 1}]', "world[0].y"),
    ('"world": [{"id": "c", "x": 0, "y": 0, "z": NaN}]', "world[0].z"),
    ('"detach": [{"t": 0.5, "waypoints": [[0, 0, 1], ["1.5", 0, 0]]}]', "detach[0].waypoints[1][0]"),
    ('"detach": [{"t": 0.5, "waypoints": [[0, true, 0]]}]', "detach[0].waypoints[0][1]"),
    ('"detach": [{"t": Infinity, "waypoints": [[0, 0, 1]]}]', "detach[0].t"),
    ('"world": [{"id": "", "x": 0, "y": 0, "z": 1}]', "world[0].id"),
    ('"world": [{"id": null, "x": 0, "y": 0, "z": 1}]', "world[0].id"),
    ('"world": [{"id": "c", "x": 0, "y": 0, "z": 1}, {"id": 5, "x": 0, "y": 0, "z": 2}]', "world[1].id"),
    ('"world": [{"id": "c", "label": 5, "x": 0, "y": 0, "z": 1}]', "world[0].label"),
    ('"mode": "sockets", "broker_host": 5', "broker_host"),
    ('"broker_host": ""', "broker_host"),
    # a value that must be a list names its field
    ('"world": "abc"', "world"),
    ('"world": {"id": "c", "x": 0, "y": 0, "z": 1}', "world"),
    ('"detach": [{"t": 0.5, "waypoints": 5}]', "detach[0].waypoints"),
]


# a JSON escape can hold a lone surrogate, which has no UTF-8 form
LONE_SURROGATES = [
    ('"world": [{"id": "c\\udc80", "x": 0, "y": 0, "z": 1}]', "world[0].id"),
    ('"world": [{"id": "c", "label": "\\ud800", "x": 0, "y": 0, "z": 1}]', "world[0].label"),
    ('"broker_host": "\\udfff"', "broker_host"),
]


@pytest.mark.parametrize("entry,name", BAD_NUMBERS + LONE_SURROGATES,
                         ids=[name for _, name in BAD_NUMBERS]
                         + [f"{name}-surrogate" for _, name in LONE_SURROGATES])
def test_bad_config_numbers_exit_2(tmp_path, capsys, entry, name):
    cfg = tmp_path / "numbers.json"
    cfg.write_text('{"duration": 0.5, ' + entry + "}")  # the later of two "duration" keys wins
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} ")


def test_a_lone_surrogate_in_a_config_string_exits_2(tmp_path, capsys):
    # the detector sees the object, so its label reaches the wire and the
    # artifacts, neither of which can encode it
    cfg = tmp_path / "surrogate.json"
    cfg.write_text('{"duration": 2.0, "detector": {"fov": 6.28}, '
                   '"world": [{"id": "c1", "label": "\\ud800", "x": 0, "y": 0, "z": 1}]}')
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: world[0].label ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# every config object refuses a key it does not know, and says which object
UNKNOWN_KEYS = [
    ('"typo": 1', "config", "typo"),
    ('"trajectory": {"kind": "circle", "semi_axis_a": 1}', "trajectory", "semi_axis_a"),
    ('"trajectory": {"kind": "ellipse", "radius": 1}', "trajectory", "radius"),
    ('"trajectory": {"kind": "waypoints", "csv": "way.csv", "radius": 1}', "trajectory", "radius"),
    ('"follower": {"update_periode": 0.1}', "follower", "update_periode"),
    ('"detector": {"range_m": 4}', "detector", "range_m"),
    ('"world": [{"id": "c", "lable": "box", "x": 0, "y": 0, "z": 1}]', "world[0]", "lable"),
    ('"detach": [{"t": 0.5, "waypoints": [[0, 0, 1]], "speed": 3}]', "detach[0]", "speed"),
]


@pytest.mark.parametrize("entry,section,key", UNKNOWN_KEYS, ids=[section for _, section, _ in UNKNOWN_KEYS])
def test_unknown_config_keys_exit_2(tmp_path, capsys, entry, section, key):
    (tmp_path / "way.csv").write_text("t,x,y,z\n0,0,0,0\n1,1,0,0\n")
    cfg = tmp_path / "keys.json"
    cfg.write_text('{"duration": 0.5, ' + entry + "}")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: unknown {section} keys: {key}\n"


def test_config_values_that_must_be_lists_say_so(capsys):
    for flag, name in (("world=5", "world"), ('detach={"t": 0.5}', "detach"),
                       ('detach=[{"t": 0.5, "waypoints": "abc"}]', "detach[0].waypoints")):
        assert main(["run", "--duration", "0.5", "--set", flag]) == 2
        assert capsys.readouterr().err == f"error: {name} must be a list\n"


def test_a_callback_fault_in_sockets_mode_fails_the_run(monkeypatch, capsys):
    from wingman.follower import FollowerLoop

    calls = []
    on_message = FollowerLoop.on_message

    def fifth_call_raises(self, topic, payload):
        calls.append(topic)
        if len(calls) == 5:
            raise RuntimeError("follower bug")
        return on_message(self, topic, payload)

    monkeypatch.setattr(FollowerLoop, "on_message", fifth_call_raises)
    assert main(["run", "--config", str(CONFIGS / "demo.json"), "--mode", "sockets", "--port", "0",
                 "--duration", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: client follower failed: RuntimeError('follower bug')\n"
    assert captured.out == ""


def test_bad_world_csv_rows_name_their_line(tmp_path, capsys):
    world = tmp_path / "world.csv"
    for row, error in ((",a,0,0,1", "id must be a non-empty string, got ''"),
                       ("c1,a,nan,0,1", "object 'c1': non-finite position")):
        world.write_text(f"id,label,x,y,z\nc0,a,0,0,2\n{row}\n")
        assert main(["run", "--world-csv", str(world), "--duration", "1"]) == 2
        assert f"{world} line 3: {error}" in capsys.readouterr().err


def test_bad_number_overrides_exit_2(capsys):
    for flags in (["--set", "seed=true"], ["--set", "broker_port=true"], ["--duration", "inf"],
                  ["--set", "trajectory.rate=NaN"]):
        assert main(["run", "--duration", "0.5", *flags]) == 2, flags
    assert main(["gen-trajectory", "--duration", "inf"]) == 2
    capsys.readouterr()


def test_run_sockets_bind_failure_exits_3(capsys):
    from wingman.transport import Broker, TcpBrokerServer

    blocker = TcpBrokerServer(Broker(), "127.0.0.1", 0)
    blocker.start()
    try:
        code = main(["run", "--mode", "sockets", "--port", str(blocker.port),
                     "--duration", "1.0"])
    finally:
        blocker.stop()
    assert code == 3
    assert "bind" in capsys.readouterr().err


def write_annotations(path, rows):
    lines = ["frame,label,xmin,ymin,xmax,ymax"]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def test_eval_annotations(tmp_path, capsys):
    ann = tmp_path / "ann.csv"
    rows = []
    for f in range(60):
        cx, cy = 100 + f, 200 + 0.5 * f
        rows.append((f, "head", cx - 5, cy - 5, cx + 5, cy + 5))
        rows.append((f, "drone", cx - 2, cy - 2, cx + 2, cy + 2))
    write_annotations(ann, rows)
    out = tmp_path / "report.json"
    code = main(["eval", "--annotations", str(ann), "--out", str(out)])
    assert code == 0
    assert "similarity=1.0000" in capsys.readouterr().out
    assert json.loads(out.read_text())["similarity"] == 1.0


def test_eval_annotations_missing_label(tmp_path, capsys):
    ann = tmp_path / "ann.csv"
    write_annotations(ann, [(0, "head", 0, 0, 2, 2)])
    assert main(["eval", "--annotations", str(ann)]) == 2
    assert "drone" in capsys.readouterr().err


def test_eval_annotations_parse_error_exits_2(tmp_path, capsys):
    ann = tmp_path / "ann.csv"
    ann.write_text("frame,label,xmin,ymin,xmax,ymax\n0,head,9,0,0,9\n")
    assert main(["eval", "--annotations", str(ann)]) == 2
    capsys.readouterr()

    write_annotations(ann, [(0, "head", 0, 0, 2, 2), (1, "head", "nan", 0, 1, 1),
                            (0, "drone", 0, 0, 2, 2)])
    assert main(["eval", "--annotations", str(ann)]) == 2
    assert "line 3" in capsys.readouterr().err
    ann.write_bytes(b"frame,label,xmin,ymin,xmax,ymax\n0,head,0,0,2,2\n0,caf\xe9,0,0,2,2\n")
    assert main(["eval", "--annotations", str(ann)]) == 2
    assert f"{ann} line 3: not UTF-8" in capsys.readouterr().err
    write_annotations(ann, [(0, "head", 0, 0, 2, 2), (0, "drone", 0, 0, 2, 2)])
    for fps in ("nan", "inf", "0", "-30"):
        assert main(["eval", "--annotations", str(ann), "--fps", fps]) == 2
        assert "fps must be finite and > 0" in capsys.readouterr().err


def test_eval_trace_round_trip(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "duration": 8.0,
        "seed": 3,
        "detach": [{"t": 2.0, "waypoints": [[0.3, 0, 0.3], [0.5, 0, 0.0]]}],
    }))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    run_summary = capsys.readouterr().out.strip()
    assert "DETACH" in (out_dir / "trace.csv").read_text()
    assert main(["eval", "--trace", str(out_dir / "trace.csv")]) == 0
    eval_summary = capsys.readouterr().out.strip()
    # the trace alone reproduces the run's evaluation; dtw_distance only to
    # the 9 significant digits the trace stores
    run_fields = dict(part.split("=") for part in run_summary.split())
    eval_fields = dict(part.split("=") for part in eval_summary.split())
    assert eval_fields["similarity"] == run_fields["similarity"]
    assert eval_fields["path_length"] == run_fields["path_length"]
    assert eval_fields["lag"] == run_fields["lag"]
    # blank lines are skipped, as in the other CSV inputs
    trace_csv = out_dir / "trace.csv"
    lines = trace_csv.read_text().splitlines(keepends=True)
    trace_csv.write_text("".join(lines[:3] + ["\n"] + lines[3:] + ["\n"]))
    assert main(["eval", "--trace", str(trace_csv)]) == 0
    assert capsys.readouterr().out.strip() == eval_summary


def test_eval_trace_rejects_foreign_csv(tmp_path, capsys):
    bogus = tmp_path / "x.csv"
    bogus.write_text("a,b,c\n1,2,3\n")
    assert main(["eval", "--trace", str(bogus)]) == 2
    assert main(["eval", "--trace", str(tmp_path / "none.csv")]) == 2
    capsys.readouterr()
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"t,hx,hy,hz,hyaw,dx,dy,dz,dyaw,mode\n0,0,0,0,0,0,0,0,0,FOLLOW\n0.1,0,0,0,0,0,0,0,0,caf\xe9\n")
    assert main(["eval", "--trace", str(latin1)]) == 2
    assert f"{latin1} line 3: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("world_in", ["config", "csv"])
def test_run_artifacts_are_utf8_under_an_ascii_locale(world_in, tmp_path, capsys):
    doc = {"duration": 2.0, "detector": {"fov": 2 * math.pi}}
    if world_in == "csv":
        (tmp_path / "world.csv").write_bytes("id,label,x,y,z\nc1,café,0,0,1\n".encode("utf-8"))
        doc["world_csv"] = "world.csv"
    else:
        doc["world"] = [{"id": "c1", "label": "café", "x": 0.0, "y": 0.0, "z": 1.0}]
    cfg = tmp_path / "cafe.json"
    cfg.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    src = str(Path(wingman.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # an ASCII locale with Python's UTF-8 coercion and UTF-8 mode both off
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "wingman.cli", "run", "--config", str(cfg), "--out", str(tmp_path / "ascii")],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "default")]) == 0
    capsys.readouterr()
    for name in ("trace.csv", "report.json", "messages.jsonl"):
        assert (tmp_path / "ascii" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()
    assert "café".encode("utf-8") in (tmp_path / "default" / "messages.jsonl").read_bytes()


def test_broker_command_serves_until_sigint():
    src = str(Path(wingman.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # a child inherits SIGINT ignored from a shell's background job; the
    # handler set here is reset to the default across exec
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "wingman.cli", "broker", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    try:
        assert select.select([proc.stdout], [], [], 30.0)[0], "no listening line"
        match = re.fullmatch(r"broker listening on 127\.0\.0\.1:(\d+)\n", proc.stdout.readline())
        assert match
        port = int(match.group(1))
        received = []
        sub = MqttClient(SocketTransport("127.0.0.1", port), "sub", on_message=lambda t, p: received.append((t, p)))
        pub = MqttClient(SocketTransport("127.0.0.1", port), "pub")
        for client in (sub, pub):
            client.connect()
        sub.subscribe("t/#")
        pub.publish("t/x", b"hello")
        pub.ping()
        assert wait_until(lambda: received == [("t/x", b"hello")])
        for client in (sub, pub):
            client.disconnect()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=2.0)
        assert proc.returncode == 0
        assert err == ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_bad_port_env_only_fails_commands_that_read_it(monkeypatch, capsys):
    monkeypatch.delenv("WINGMAN_BROKER_PORT", raising=False)
    assert main(["gen-trajectory", "--duration", "1"]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setenv("WINGMAN_BROKER_PORT", "abc")
    # gen-trajectory uses no broker
    assert main(["gen-trajectory", "--duration", "1"]) == 0
    assert capsys.readouterr().out == expected
    # an explicit port wins without reading the environment
    assert main(["run", "--duration", "1", "--port", "1999"]) == 0
    # with no port given, run still reports the bad environment
    assert main(["run", "--duration", "1"]) == 2
    assert "WINGMAN_BROKER_PORT" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env", [
    (["--port", "70000"], None),
    (["--port", "-1"], None),
    ([], "70000"),
])
def test_broker_refuses_an_out_of_range_port_as_a_config_error(monkeypatch, capsys, argv, env):
    monkeypatch.delenv("WINGMAN_BROKER_PORT", raising=False)
    if env is not None:
        monkeypatch.setenv("WINGMAN_BROKER_PORT", env)

    def bind(*args):
        raise AssertionError("the broker was started")

    monkeypatch.setattr(cli.TcpBrokerServer, "start", bind)
    assert main(["broker", *argv]) == 2
    port = env if env is not None else argv[1]
    assert capsys.readouterr() == ("", f"error: broker_port must be 0..65535, got {port}\n")
    # run names the same field, through the same check
    assert main(["run", "--duration", "1", *argv]) == 2
    assert capsys.readouterr().err == f"error: broker_port must be 0..65535, got {port}\n"


def test_broker_port_env_parsing(monkeypatch):
    import wingman.scenario as scenario

    monkeypatch.setenv("WINGMAN_BROKER_PORT", "9999")
    assert scenario.broker_port_default() == 9999
