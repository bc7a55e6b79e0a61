"""Tests of the benchmark's helpers.

Run with:  python3 -m pytest bench/test_harness.py
"""

import json
import socket
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
from deterministic import ARTIFACTS, check_run  # noqa: E402
from harness import (  # noqa: E402
    compare_streams,
    interquartile_mean,
    min_samples_for,
    percentile,
    pose_command_pairs,
    pose_to_cmd_ms,
    self_times,
    windowed_percentile,
)
from tracer import Tracer  # noqa: E402
import speed  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 21), 50) == 10  # nearest rank 10, ten ranks above
    assert percentile(range(1, 20), 50) is None  # only nine above rank 10
    assert percentile(range(1, 1001), 99) == 990
    assert percentile(range(1, 1000), 99) is None
    assert percentile([], 50) is None
    assert min_samples_for(50) == 20
    assert min_samples_for(99) == 1000


def test_percentile_is_order_independent():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 6
    assert percentile(samples, 50) == percentile(sorted(samples), 50) == 3.0


def test_windowed_percentile_takes_the_median_window():
    quiet = [1.0] * 1000
    burst = [1.0] * 970 + [50.0] * 30  # interference in one window only
    assert percentile(quiet * 2 + burst, 99) == 1.0
    assert percentile(burst * 2 + quiet, 99) == 50.0
    assert windowed_percentile(burst * 2 + quiet, 99, 1000) == 50.0
    assert windowed_percentile(quiet * 2 + burst, 99, 1000) == 1.0
    assert windowed_percentile(quiet + burst + quiet, 99, 1000) == 1.0
    # windows [0, 1250) and [1250, 2500) report 624 and 1874
    assert windowed_percentile(list(range(2500)), 50, 1000) == 1249.0
    assert windowed_percentile(quiet[:999], 99, 1000) is None
    assert windowed_percentile(quiet[:1999], 99, 1000) == 1.0  # one window of 1999


def test_interquartile_mean_drops_a_quarter_at_each_end():
    assert interquartile_mean([1.0, 2.0, 3.0, 100.0]) == 2.5  # 1 and 100 dropped
    assert interquartile_mean([4.0, 1.0, 2.0]) == pytest.approx(7.0 / 3)  # too few to drop any
    # two speed modes: one more slow run makes the median jump the whole gap, this a fifth of it
    fast, slow = [1.0] * 5, [2.0] * 5
    assert interquartile_mean(fast[:5] + slow[:4]) == pytest.approx(1.4)
    assert interquartile_mean(fast[:4] + slow[:5]) == pytest.approx(1.6)


def _mark(wall, samples, busy=0.0):
    return speed.Mark(wall=wall, cpu=wall, busy_wall=busy, busy_cpu=busy, samples=samples)


def test_scaled_time_drops_the_handler_and_divides_by_the_slowdown():
    sampler = speed.Sampler()
    sampler.wall = [2 * speed.NOMINAL_WALL_S] * 40  # the host ran at half speed
    sampler.cpu = [3 * speed.NOMINAL_CPU_S] * 40
    a, b = _mark(10.0, 0), _mark(11.1, 40, busy=0.1)
    assert sampler.slowdown(a, b) == pytest.approx((2.0, 3.0))
    assert sampler.scaled_wall(a, b) == pytest.approx(0.5)
    assert sampler.scaled_cpu(a, b) == pytest.approx(1.0 / 3)


def test_short_interval_borrows_the_nearest_samples():
    sampler = speed.Sampler()
    sampler.wall = [1 * speed.NOMINAL_WALL_S] * 50 + [3 * speed.NOMINAL_WALL_S] * 50
    sampler.cpu = list(sampler.wall)
    window = sampler._window(49, 51)
    assert window.stop - window.start == speed.MIN_SAMPLES and window.start < 49 and window.stop > 51
    assert 1.0 < sampler.slowdown(_mark(0, 49), _mark(0, 51))[0] < 3.0  # straddles the change
    assert sampler.slowdown_between(50, 50) == sampler.slowdown_between(49, 51)  # around one point
    assert sampler._window(0, 2) == slice(0, speed.MIN_SAMPLES)
    assert sampler._window(99, 100) == slice(100 - speed.MIN_SAMPLES, 100)
    assert sampler.slowdown(_mark(0, 60), _mark(0, 90))[0] == pytest.approx(3.0)  # long enough alone
    assert speed.Sampler().slowdown(_mark(0, 0), _mark(1, 0)) == (1.0, 1.0)  # no samples: unscaled


def test_sampler_samples_while_started_and_restores_the_signal():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        a = sampler.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        b = sampler.mark()
    assert b.samples - a.samples >= 3
    assert 0.0 < b.busy_wall - a.busy_wall < 0.2
    assert sampler.scaled_wall(a, b) > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    assert list(self_times(parent, start, end)) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_spans_nest_and_self_time_adds_up():
    ns = SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * ns.inner(x)
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer", before=lambda x: tracer.counts.__setitem__("seen", x))
    try:
        assert ns.outer(2) == 9
        spans = tracer.end_rep()
    finally:
        tracer.restore()
    assert ns.outer(2) == 9 and not hasattr(ns.outer, "__wrapped__")
    outer_calls, outer_total, outer_self = spans["outer"]
    inner_calls, inner_total, inner_self = spans["inner"]
    assert (outer_calls, inner_calls) == (1, 2)
    assert inner_self == pytest.approx(inner_total)
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert tracer.counts["seen"] == 2


def test_tracer_counts_errors_and_closes_the_span():
    ns = SimpleNamespace(fail=lambda: 1 / 0)
    tracer = Tracer()
    errors = []
    tracer.wrap(ns, "fail", "fail", on_error=lambda args, exc: errors.append(type(exc)))
    with pytest.raises(ZeroDivisionError):
        ns.fail()
    assert errors == [ZeroDivisionError]
    assert tracer.end_rep()["fail"][0] == 1
    tracer.restore()


def test_pose_command_pairs_map_first_command_of_each_pose():
    assert pose_command_pairs([0, 1, 1, 0, 2, 1]) == [(1, 0), (2, 1), (4, 2), (5, 4)]
    assert pose_command_pairs([0, 0]) == []


def test_pose_to_cmd_latency_uses_due_time_and_counts_missing():
    pairs = [(0, 0), (1, 1), (2, 2)]
    due = [10.0, 10.001, 10.002]
    received = [10.0005, 10.003]
    latencies, missing = pose_to_cmd_ms(pairs, due, received)
    assert latencies == pytest.approx([0.5, 2.0])
    assert missing == 1


def test_corrupted_command_stream_is_reported():
    expected = [b"a", b"b", b"c"]
    assert compare_streams(expected, list(expected)) == {"mismatched": 0, "missing": 0, "extra": 0}
    assert compare_streams(expected, [b"a", b"x", b"c"])["mismatched"] == 1
    assert compare_streams(expected, [b"a", b"c", b"b"])["mismatched"] == 2  # reordered
    assert compare_streams(expected, [b"a", b"b"])["missing"] == 1
    assert compare_streams(expected, expected + [b"d"])["extra"] == 1


def test_offline_replay_pairs_each_command_with_its_pose():
    from bus import replay
    from workloads import pose_stream

    stream = pose_stream(3)[:200]
    commands, emitted = replay(stream)
    assert len(emitted) == len(stream)
    assert sum(emitted) == len(commands) > 0
    pairs = pose_command_pairs(emitted)
    assert all(j < len(commands) for _, j in pairs)
    assert replay(stream)[0] == commands  # the expected stream is deterministic


def test_extra_trailing_command_is_caught():
    from bus import _commands, _receive
    from wingman.transport import PacketDecoder, Publish, encode_packet

    expected = [b'{"seq":1}', b'{"seq":2}']
    packets = [encode_packet(Publish("tagteam/cmd", payload)) for payload in expected]
    reader_end, system_end = socket.socketpair()
    chunks = []
    drained = threading.Event()
    reader = threading.Thread(target=_receive, args=(reader_end, sum(map(len, packets)), chunks, drained))
    reader.start()
    try:
        system_end.sendall(b"".join(packets))
        assert drained.wait(5.0)
        time.sleep(0.01)
        system_end.sendall(packets[-1])  # the last command again, in a later chunk
    finally:
        system_end.close()
        reader.join(5.0)
        reader_end.close()
    _, received = _commands(PacketDecoder(), chunks)
    assert received == expected + expected[-1:]
    assert compare_streams(expected, received)["extra"] == 1


def _fake_run(ticks=10):
    cfg = SimpleNamespace(duration=ticks / 10.0, trajectory=SimpleNamespace(rate=10.0), detach_script=())
    messages = [(k / 10.0, "tagteam/pose", b"{}") for k in range(ticks)]
    messages.append((0.1, "tagteam/cmd", b'{"kind":"move"}'))
    trace = SimpleNamespace(rows=[None] * ticks, messages=messages)
    report = SimpleNamespace(similarity=0.9, path_length=ticks + 2)
    return cfg, trace, report


def test_check_run_flags_a_corrupted_digest():
    cfg, trace, report = _fake_run()
    digest = {name: "0" * 64 for name in ARTIFACTS}
    ok = check_run(cfg, trace, report, 1, digest, dict(digest), dict(digest))
    assert all(passed for _, passed in ok)
    corrupted = dict(digest, **{"messages.jsonl": "f" * 64})
    failed = [name for name, passed in check_run(cfg, trace, report, 1, digest, corrupted, None) if not passed]
    assert failed == ["messages.jsonl matches pinned digest"]


def test_check_run_flags_bad_counts_and_scores():
    cfg, trace, report = _fake_run()
    report.path_length = 2 * 10  # beyond 2n - 1
    trace.rows.pop()
    failed = {name for name, passed in check_run(cfg, trace, report, 0, {}, None, None) if not passed}
    assert failed == {"ticks recorded", "path_length in [n, 2n-1]", "every command reached the drone"}


def test_benchmark_json_declares_the_measured_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    assert declared_e2e == [row for row in metrics.END_TO_END]
    declared_layers = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert declared_layers == list(metrics.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == ["sim_long", "crowded", "bus_tcp"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
