"""sim_long and crowded: repeated deterministic runs of ``run_scenario``.

An untraced run times the tick loop and ``sync_report`` with one wrapper
each and measures pose->command latency with a probe: the time from the
wearable producing a pose to the drone receiving the first command that
pose triggered, inside the deterministic tick. Teardown is what
``run_scenario`` does after ``sync_report`` returns: writing the three
artifacts. Where evaluation takes most of a run, simulation-only runs
(sync_report stubbed out, artifacts written elsewhere) sample the tick
loop and the artifact writing in between, so their metrics rest on more
than one short span. Every time but set-up is scaled to reference speed
by a ``speed.Sampler`` running through the whole measurement.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import metrics
import workloads
from harness import interquartile_mean, median
from speed import Mark, Sampler
from tracer import MOVE_MARKER, Patcher, Tracer, component_counts, install

HERE = Path(__file__).resolve().parent
ARTIFACTS = ("trace.csv", "report.json", "messages.jsonl")
DETACH_MARKER = b'"kind":"detach"'
SETUP_REPEATS = 5
MAX_REPS = 40
MAX_MEASURE_S = 110.0


class _Probe(Patcher):
    """Tick-loop and evaluation timers plus the pose->command probe.

    The tick loop runs from the start of ``run_scenario`` until it first
    asks the finished trace for the human trajectory.
    """

    def __init__(self, scenario, sampler: Sampler) -> None:
        super().__init__()
        self.sampler = sampler
        self.reset()
        probe = self

        class ProbedWearable(scenario.WearableSim):
            def next_pose(self):
                result = super().next_pose()
                probe.pose_t = perf_counter()
                return result

        class ProbedDrone(scenario.DroneAgent):
            def on_message(self, topic, payload):
                if topic == "tagteam/cmd":
                    probe.cmd_deliveries += 1
                    if probe.pose_t is not None and MOVE_MARKER in payload:
                        probe.latencies_ms.append((perf_counter() - probe.pose_t) * 1000.0)
                        probe.latency_samples.append(len(sampler.wall))
                        probe.pose_t = None
                super().on_message(topic, payload)

            def step(self, dt):
                probe.pose_t = None  # later commands of this tick were not caused by its pose
                super().step(dt)

        human_trajectory = scenario.RunTrace.human_trajectory
        sync_report = scenario.sync_report
        placeholder = scenario.SyncReport

        def loop_done(trace):
            probe.marks.setdefault("loop", sampler.mark())
            return human_trajectory(trace)

        def evaluate(a, b):
            probe.marks["evaluate"] = sampler.mark()
            if probe.skip_evaluation:
                report = placeholder(0.0, 1.0, len(a), 0.0)
            else:
                report = sync_report(a, b)
            probe.marks["evaluated"] = sampler.mark()
            return report

        self.patch(scenario, "WearableSim", ProbedWearable)
        self.patch(scenario, "DroneAgent", ProbedDrone)
        self.patch(scenario.RunTrace, "human_trajectory", loop_done)
        self.patch(scenario, "sync_report", evaluate)

    def reset(self, evaluate: bool = True) -> None:
        self.skip_evaluation = not evaluate
        self.pose_t: float | None = None
        self.latencies_ms: list[float] = []
        self.latency_samples: list[int] = []  # speed samples taken before each latency
        self.cmd_deliveries = 0
        self.marks: dict[str, Mark] = {"start": self.sampler.mark()}


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def check_run(cfg, trace, report, cmd_deliveries: int, found: dict | None, pinned: dict | None, first: dict | None):
    """(check, passed) pairs for one run: counts, score ranges, digests.

    A simulation-only run has no report and no artifacts (None).
    """
    ticks = round(cfg.duration * cfg.trajectory.rate)
    topics = Counter(topic for _, topic, _ in trace.messages)
    commands = [payload for _, topic, payload in trace.messages if topic == "tagteam/cmd"]
    checks = [
        ("ticks recorded", len(trace.rows) == ticks),
        ("one pose message per tick", topics["tagteam/pose"] == ticks),
        ("detach orders published", sum(DETACH_MARKER in p for p in commands) == len(cfg.detach_script)),
        ("every command reached the drone", len(commands) == cmd_deliveries),
        ("at most one cue per detection", topics["tagteam/cues"] <= topics["tagteam/detections"]),
    ]
    if report is not None:
        checks.append(("similarity in (0, 1]", 0.0 < report.similarity <= 1.0))
        checks.append(("path_length in [n, 2n-1]", ticks <= report.path_length <= 2 * ticks - 1))
    for name in ARTIFACTS if found is not None else ():
        if pinned is not None:
            checks.append((f"{name} matches pinned digest", found[name] == pinned[name]))
        if first is not None:
            checks.append((f"{name} identical to first run", found[name] == first[name]))
    return checks


def setup_seconds(workload: str, seed: int, src: Path) -> float:
    """Median over fresh interpreters of importing wingman and building the config."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(src)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Runner:
    def __init__(self, workload: str, seed: int, out_dir: Path, sampler: Sampler) -> None:
        import wingman.scenario as scenario

        self.scenario = scenario
        self.cfg = scenario.config_from_dict(workloads.scenario_doc(workload, seed))
        self.ticks = round(self.cfg.duration * self.cfg.trajectory.rate)
        self.artifacts = out_dir / f"{workload}-artifacts"
        self.sim_only_artifacts = out_dir / f"{workload}-artifacts-sim-only"
        pins = json.loads((HERE / "digests.json").read_text()).get(workload, {})
        self.pinned = pins.get(str(seed))
        self.first: dict | None = None
        self.found: dict | None = None
        self.checks: list[tuple[str, bool]] = []
        self.sampler = sampler
        self.probe = _Probe(scenario, sampler)
        self.tracer: Tracer | None = None

    def rep(self, evaluate: bool = True) -> dict:
        """One ``run_scenario``; without evaluate, a simulation-only run in
        which sync_report is stubbed out and the artifacts go to a directory
        of their own.

        Its times are scaled to reference speed later, by ``scale``, when
        the samples that follow it exist too.
        """
        probe, tracer = self.probe, self.tracer
        if tracer is not None:
            tracer.start_rep()
        probe.reset(evaluate)
        trace, report = self.scenario.run_scenario(self.cfg, self.artifacts if evaluate else self.sim_only_artifacts)
        marks = dict(probe.marks, end=self.sampler.mark())
        rep = {
            "full": evaluate,
            "marks": marks,
            "raw_loop_s": marks["loop"].wall - marks["start"].wall,
            "raw_teardown_s": marks["end"].wall - marks["evaluated"].wall,
            "raw_latencies_ms": probe.latencies_ms,
            "latency_samples": probe.latency_samples,
        }
        if evaluate:
            rep["raw_run_s"] = marks["end"].wall - marks["start"].wall
            rep["raw_evaluate_s"] = marks["evaluated"].wall - marks["evaluate"].wall
            self.found = digests(self.artifacts)
            self.checks += check_run(self.cfg, trace, report, probe.cmd_deliveries, self.found, self.pinned, self.first)
            if self.first is None:
                self.first = self.found
        else:
            self.checks += check_run(self.cfg, trace, None, probe.cmd_deliveries, None, None, None)
        if tracer is not None:
            spans = tracer.end_rep()
            component_counts(tracer)
            tracer.counts["scenario.messages_logged"] = len(trace.messages)
            tracer.counts["scenario.artifact_bytes"] = sum((self.artifacts / n).stat().st_size for n in ARTIFACTS)
            rep["spans"] = spans
            rep["layers"] = metrics.layer_values(spans, tracer.counts)
            rep["hops"] = metrics.rep_hops(tracer.marks)
        del trace, report
        gc.collect()  # so that this run's garbage is not collected inside the next
        return rep

    def scale(self, rep: dict) -> None:
        """Add a repetition's times scaled to reference speed."""
        sampler, marks = self.sampler, rep["marks"]
        start, loop, evaluated, end = marks["start"], marks["loop"], marks["evaluated"], marks["end"]
        slowdown = sampler.slowdown(start, loop)[0]
        rep["slowdown"] = slowdown
        rep["sim_ticks_per_s"] = self.ticks / sampler.scaled_wall(start, loop)
        rep["bus_cpu_ms_per_pose"] = sampler.scaled_cpu(start, loop) * 1000.0 / self.ticks
        rep["teardown_s"] = sampler.scaled_wall(evaluated, end)
        around: dict[int, float] = {}  # each latency is scaled by the slowdown around it
        for n in rep["latency_samples"]:
            if n not in around:
                around[n] = sampler.slowdown_between(n, n)[0]
        rep["latencies_ms"] = [lat / around[n] for lat, n in zip(rep["raw_latencies_ms"], rep["latency_samples"])]
        if rep["full"]:
            rep["run_s"] = sampler.scaled_wall(start, end)
            rep["evaluate_s"] = sampler.scaled_wall(marks["evaluate"], evaluated)

    def phase(self, min_seconds: float, fill_loop: bool) -> list[dict]:
        """Repeat until min_seconds passed and p99 has enough samples.

        With fill_loop, each full run is followed by simulation-only runs
        for as long as its evaluation took, so that a workload dominated
        by evaluation samples its tick loop as often as its evaluation.
        """
        reps: list[dict] = []
        t0 = perf_counter()
        while True:
            full = self.rep()
            reps.append(full)
            until = min(perf_counter() + full["raw_evaluate_s"], t0 + min_seconds)
            while fill_loop and perf_counter() + full["raw_loop_s"] <= until:
                reps.append(self.rep(evaluate=False))
            samples = sum(len(rep["raw_latencies_ms"]) for rep in reps)
            elapsed = perf_counter() - t0
            if len(reps) >= MAX_REPS or elapsed > MAX_MEASURE_S:
                break
            if elapsed >= min_seconds and samples >= metrics.LATENCY_WINDOW:
                break
        for rep in reps:
            self.scale(rep)
        return reps


def summarize(reps: list[dict], setup_s: float) -> dict[str, float]:
    latencies = [lat for rep in reps for lat in rep["latencies_ms"]]
    full = [rep for rep in reps if rep["full"]]
    values = {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb()}
    for name in ("run_s", "evaluate_s"):
        values[name] = interquartile_mean([rep[name] for rep in full])
    for name in ("sim_ticks_per_s", "bus_cpu_ms_per_pose", "teardown_s"):
        values[name] = interquartile_mean([rep[name] for rep in reps])
    values["pose_to_cmd_p50_ms"] = metrics.latency(latencies, 50)
    values["pose_to_cmd_p99_ms"] = metrics.latency(latencies, 99)
    return values


def run(workload: str, seed: int, seconds: float, traced: bool, src: Path, out_dir: Path) -> dict:
    setup_s = setup_seconds(workload, seed, src)
    sampler = Sampler()
    runner = _Runner(workload, seed, out_dir, sampler)
    sampler.start()
    try:
        if not traced:
            reps = runner.phase(seconds, fill_loop=True)
            return _result(runner, reps, summarize(reps, setup_s), None)
        started = perf_counter()
        untraced = summarize(runner.phase(0.0, fill_loop=False), setup_s)
        runner.tracer = Tracer()
        install(runner.tracer)
        reps = runner.phase(seconds - (perf_counter() - started), fill_loop=False)
        traced_values = summarize(reps, setup_s)
        spans_written = runner.tracer.write(out_dir / f"spans-{workload}.npz")
        layers = {name: median([rep["layers"].get(name, 0.0) for rep in reps]) for name, _, _ in metrics.PER_LAYER}
        pooled = {key: [h for rep in reps for h in rep["hops"][key]] for key in reps[0]["hops"]}
        layers.update({k: v for k, v in metrics.hop_values(pooled).items() if v is not None})
        layers["pose_to_cmd_p99_ms"] = untraced["pose_to_cmd_p99_ms"]
        for name, _, _ in metrics.END_TO_END:
            if name != "setup_s":
                layers[f"trace_overhead.{name}"] = traced_values[name] - untraced[name]
        shares = {
            "tick_loop_share_of_layers": median([metrics.tick_loop_share(rep["spans"], rep["raw_loop_s"]) for rep in reps]),
            "dtw_share_of_evaluate": median([metrics.dtw_share(rep["spans"]) or 0.0 for rep in reps]),
            "spans_written": spans_written,
            "untraced": untraced,
            "traced": traced_values,
        }
        return _result(runner, reps, layers, shares)
    finally:
        sampler.stop()
        if runner.tracer is not None:
            runner.tracer.restore()
        runner.probe.restore()


def _result(runner: _Runner, reps: list[dict], values: dict, notes: dict | None) -> dict:
    failed = [name for name, ok in runner.checks if not ok]
    return {
        "values": values,
        "attempted": len(runner.checks),
        "failed": len(failed),
        "failed_checks": sorted(set(failed)),
        "reps": len(reps),
        "per_rep": [{k: v for k, v in rep.items() if isinstance(v, (bool, float))} for rep in reps],
        "digests": runner.found,
        "pinned_seed": runner.pinned is not None,
        "notes": notes or {},
    }
