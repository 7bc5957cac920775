"""hodsim benchmark: host time, set-up time, throughput and memory per workload.

    python3 bench/run.py --workload hod-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload hod-large --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --scaling            # report-only growth sweep
    python3 bench/run.py --write-references   # re-pin references.json

One process, no extra threads, closed loop: each sample starts when the
previous one has finished.  All times are host time (time.perf_counter).
The hodsim package is imported from ``src/`` of the checkout this file sits
in, never from an installed copy.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs untraced and traced samples alternately and prints the per-layer
metrics.  Every sample's outputs are digested: samples of a reference seed
must match references.json, and every sample of one scenario must match the
first.  One reference scenario is also run and checked at the start of every
run (it doubles as the warm-up).  The last stdout line is one JSON object;
the exit code is 1 if any sample failed, 2 if hodsim cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

import check
import scenarios
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
REFERENCES = BENCH / "references.json"

CLI_SEEDS = 2  # seeds per `hodsim --seeds A..B` invocation in cli-sweep
MIN_SAMPLES = 3
SETUP_SHARE = 0.1  # set-up passes per timed sample, as a share of its wall time
SETUP_PASSES = 10  # at most, per timed sample

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "sim_events_per_s": "1/s", "peak_rss_mb": "MB",
}

# Self-time metrics: each span name feeds exactly one of these, so over a
# traced sample they add up to trace.wall_s.
SELF_METRIC = {
    "sample": "trace.unattributed_s",
    "config.parse": "config.parse_s",
    "topology.build": "topology.build_s",
    "simcore.init": "simcore.init_s",
    "monitors.init": "monitors.init_s",
    "detection.graph_build": "detection.graph_build_s",
    "attacks.inject": "attacks.inject_s",
    "metrics.run_scenario": "metrics.run_scenario_self_s",
    "simcore.run": "simcore.loop_self_s",
    "simcore.send": "simcore.send_s",
    "monitors.hook": "monitors.hook_s",
    "detection.cluster_pipeline": "detection.cluster_pipeline_s",
    "detection.watchdog": "detection.watchdog_s",
    "metrics.score": "metrics.score_s",
    # cli.main time outside run_scenario and score: trace rows, CSV, summaries, writes
    "cli.main": "cli.output_s",
    "cli.render_summary": "cli.output_s",
    "cli.rows_to_csv": "cli.output_s",
    "metrics.compare": "cli.output_s",
    "detection.base_report": "cli.output_s",
}
CALL_COUNTS = {
    "simcore.send": "simcore.sends",
    "monitors.hook": "monitors.hook_calls",
    "detection.cluster_pipeline": "detection.cluster_pipeline_calls",
    "detection.watchdog": "detection.watchdog_calls",
}
PER_LAYER = {
    **{m: "s" for m in dict.fromkeys(SELF_METRIC.values())},
    "monitors.hook_window_p50_s": "s",
    "monitors.hook_window_max_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    **{m: "count" for m in CALL_COUNTS.values()},
    "detection.graph_edges": "count",
    "simcore.events": "count",
    "simcore.overheard_rx": "count",
    "simcore.delivery_ratio": "ratio",
    "simcore.drops_jammed": "count",
    "simcore.drops_collision": "count",
    "detection.alerts": "count",
    "detection.base_records": "count",
    "detection.alarm_tx_per_alert": "ratio",
    "flat.anomalies": "count",
    "attacks.ground_truth": "count",
    "cli.bytes_written": "bytes",
}


def load_hodsim():
    """Import hodsim from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hodsim
        import hodsim.cli  # noqa: F401 - the traced run wraps its functions
    except ImportError as exc:
        print(f"error: cannot import hodsim from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src.resolve() not in Path(hodsim.__file__).resolve().parents:
        print(f"error: hodsim was imported from {hodsim.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return hodsim


# ---------------------------------------------------------------- workloads


@dataclass
class Sample:
    wall_s: float
    events: int
    digest: str | None
    bytes_written: int = 0


class _ReachedRun(Exception):
    pass


def until_run(hodsim, call) -> float:
    """Host seconds from now until ``call`` enters Engine.run; the run is skipped."""
    original = hodsim.Engine.__dict__["run"]
    reached: list[float] = []

    def stop(engine):
        reached.append(time.perf_counter())
        raise _ReachedRun

    t0 = time.perf_counter()
    hodsim.Engine.run = stop
    try:
        call()
    except _ReachedRun:
        pass
    finally:
        hodsim.Engine.run = original
    if not reached:
        raise RuntimeError("Engine.run was never reached")
    return reached[0] - t0


class LibraryWorkload:
    """Scenario in hand -> ScenarioConfig.from_dict -> run_scenario -> score."""

    def __init__(self, hodsim, scenario: dict, mode: str) -> None:
        self.hodsim = hodsim
        self.scenario = scenario
        self.mode = mode

    def execute(self):
        hs = self.hodsim
        t0 = time.perf_counter()
        sc = hs.ScenarioConfig.from_dict(self.scenario)
        log, topo = hs.run_scenario(sc, self.mode, sc.seed)
        m = hs.score(log, topo, sc.thresholds)
        return time.perf_counter() - t0, (log, m)

    def inspect(self, wall_s: float, out) -> Sample:
        log, m = out
        return Sample(wall_s, len(log.events), check.library_digest(log, m))

    def setup(self) -> float:
        hs = self.hodsim
        t0 = time.perf_counter()
        sc = hs.ScenarioConfig.from_dict(self.scenario)
        parse = time.perf_counter() - t0
        return parse + until_run(hs, lambda: hs.run_scenario(sc, self.mode, sc.seed))

    def close(self) -> None:
        pass


class CliWorkload:
    """One whole `hodsim --mode compare --seeds A..B --format both` invocation."""

    def __init__(self, hodsim, scenario: dict, workdir: Path) -> None:
        self.hodsim = hodsim
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "scenario.yaml"
        self.config.write_text(yaml.safe_dump(scenario, sort_keys=False), encoding="utf-8")
        self.out = workdir / "out"
        first = scenario["seed"]
        self.seeds = list(range(first, first + CLI_SEEDS))
        self.argv = ["--config", str(self.config), "--mode", "compare",
                     "--seeds", f"{first}..{first + CLI_SEEDS - 1}",
                     "--format", "both", "--out", str(self.out)]

    def execute(self):
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = self.hodsim.cli.main(self.argv)
        return time.perf_counter() - t0, (rc, sink.getvalue())

    def inspect(self, wall_s: float, out) -> Sample:
        rc, text = out
        try:
            if rc != 0:
                print(f"hodsim exited {rc}: {text.strip()[-500:]}", file=sys.stderr)
                return Sample(wall_s, 0, None)
            digest, rows, size = check.directory_digest(self.out)
            return Sample(wall_s, rows, digest, size)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def setup(self) -> float:
        hs = self.hodsim
        t0 = time.perf_counter()
        sc = hs.ScenarioConfig.from_file(str(self.config))
        total = time.perf_counter() - t0
        for seed in self.seeds:
            for mode in ("hod", "flat"):
                total += until_run(hs, lambda: hs.run_scenario(sc, mode, seed))
        return total

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "hod-large": (scenarios.hod_large, "hod"),
    "flat-dense": (scenarios.flat_dense, "flat"),
    "cli-sweep": (scenarios.cli_sweep, None),
}


def make_workload(hodsim, name: str, seed: int):
    generate, mode = WORKLOADS[name]
    if mode is None:
        return CliWorkload(hodsim, generate(seed), WORK / f"{os.getpid()}-{name}-{seed}")
    return LibraryWorkload(hodsim, generate(seed), mode)


# ---------------------------------------------------------------- sampling


def run_sample(work) -> Sample:
    """One untraced sample; None digest if the program raised."""
    gc.collect()
    try:
        wall, out = work.execute()
    except Exception as exc:  # noqa: BLE001 - a failing sample is counted, not fatal
        print(f"sample raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return Sample(0.0, 0, None)
    sample = work.inspect(wall, out)
    del out
    return sample


def traced_sample(work) -> tuple[Sample, spans.Tracer]:
    gc.collect()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        root = tracer.begin("sample")
        try:
            wall, out = work.execute()
        finally:
            tracer.end(root)
    except Exception as exc:  # noqa: BLE001
        print(f"traced sample raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return Sample(0.0, 0, None), tracer
    finally:
        undo()
    return work.inspect(wall, out), tracer


def layer_metrics(tracer: spans.Tracer, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced sample (the root span is span 0)."""
    self_ns = tracer.self_times()
    wall_ns = tracer.ends[0] - tracer.starts[0]
    if sum(self_ns) != wall_ns:
        raise RuntimeError(f"span self times sum to {sum(self_ns)} ns, root is {wall_ns} ns")
    out = {m: 0.0 for m in PER_LAYER}
    hooks = []
    for name, ns in zip(tracer.names, self_ns):
        out[SELF_METRIC[name]] += ns / 1e9
        if name in CALL_COUNTS:
            out[CALL_COUNTS[name]] += 1
        if name == "monitors.hook":
            hooks.append(ns / 1e9)
    out["trace.wall_s"] = wall_ns / 1e9
    if hooks:
        out["monitors.hook_window_p50_s"] = statistics.median(hooks)
        out["monitors.hook_window_max_s"] = max(hooks)
    graphs = tracer.kept.get("detection.graph_build", [])
    out["detection.graph_edges"] = sum(sum(len(a) for a in g.adj) // 2 for g in graphs)
    stats = traced_stats(tracer)
    out["simcore.events"] = stats["events"]
    out["simcore.overheard_rx"] = stats["overheard_rx"]
    out["simcore.delivery_ratio"] = stats["short_range_delivered"] / max(stats["short_range_tx"], 1)
    out["simcore.drops_jammed"] = stats["drops_jammed"]
    out["simcore.drops_collision"] = stats["drops_collision"]
    out["detection.alerts"] = stats["alerts"]
    out["detection.base_records"] = stats["base_records"]
    out["detection.alarm_tx_per_alert"] = (
        stats["cluster_alarm_tx"] / stats["cluster_alerts"] if stats["cluster_alerts"] else 0.0
    )
    out["flat.anomalies"] = stats["flat_anomalies"]
    out["attacks.ground_truth"] = stats["ground_truth"]
    out["cli.bytes_written"] = bytes_written
    return out


def traced_stats(tracer: spans.Tracer) -> dict:
    """Simulated counts of the runs made inside one traced sample."""
    runs = tracer.kept.get("metrics.run_scenario", [])
    scores = tracer.kept.get("metrics.score", [])
    return check.sim_stats([(log, topo, m) for (log, topo), m in zip(runs, scores)])


# ---------------------------------------------------------------- reporting


def run_metadata() -> dict:
    meta = {
        "git_sha": None,
        "dirty": None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random (unset)"),
        "hash_seed_policy": "outputs do not depend on PYTHONHASHSEED; left as inherited",
        "load": "one process, no extra threads, closed loop",
    }
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            meta["git_sha"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=30, check=True).stdout.strip()
            meta["dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True).stdout.strip())
    return meta


def write_result(stem: str, result: dict, tracers: list[spans.Tracer] = ()) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracers:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for i, tracer in enumerate(tracers):
                for rec in tracer.records():
                    fh.write(json.dumps([i] + rec) + "\n")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


# ---------------------------------------------------------------- modes


def reference_check(hodsim, name: str, seed: int, ref: dict, trace: bool) -> str | None:
    """Run one reference scenario (the run's warm-up); returns a failure note or None."""
    work = make_workload(hodsim, name, seed)
    try:
        if not trace:
            sample = run_sample(work)
        else:
            sample, tracer = traced_sample(work)
            if sample.digest is not None and traced_stats(tracer) != ref["stats"]:
                return f"simulated statistics of seed {seed} differ from references.json"
    finally:
        work.close()
    if sample.digest != ref["digest"]:
        return f"seed {seed} output digest differs from references.json"
    return None


def _more(done: int, t_end: float, minimum: int, last_s: float) -> bool:
    """Keep going until ``minimum`` rounds were attempted and another would overrun t_end.

    Failed rounds count as attempted, so a run whose every sample fails still ends.
    """
    return done < minimum or time.perf_counter() + last_s <= t_end


def timed_metrics(work, seconds: float, checker: check.Checker) -> tuple[dict, dict]:
    """End-to-end metrics from timed samples, each preceded by set-up passes.

    Set-up passes are spread over the whole run, like the samples, so both see
    the same machine; they take about SETUP_SHARE of the run.
    """
    setups: list[float] = []
    timed: list[Sample] = []
    ok: list[Sample] = []
    t_end = time.perf_counter() + seconds
    round_s = 0.0
    while _more(len(timed), t_end, MIN_SAMPLES, round_s):
        t0 = time.perf_counter()
        t_setup = t0 + SETUP_SHARE * (timed[-1].wall_s if timed else 0.0)
        for _ in range(SETUP_PASSES):
            gc.collect()
            setups.append(work.setup())
            if time.perf_counter() >= t_setup:
                break
        s = run_sample(work)
        if checker.check(s.digest):
            ok.append(s)
        timed.append(s)
        round_s = time.perf_counter() - t0
    metrics = {}
    if ok:
        metrics = {
            "wall_s": statistics.median(s.wall_s for s in ok),
            "setup_s": statistics.median(setups),
            "sim_events_per_s": statistics.median(s.events / s.wall_s for s in ok),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    samples = {"wall_s": [s.wall_s for s in timed], "setup_s": setups,
               "events": [s.events for s in timed],
               "bytes_written": [s.bytes_written for s in timed]}
    return metrics, samples


def traced_metrics(work, seconds: float, checker: check.Checker,
                   tracers: list[spans.Tracer]) -> tuple[dict, dict]:
    """Per-layer metrics from pairs of one untraced and one traced sample.

    trace.overhead_s is the median over pairs of traced minus untraced wall
    time; pairing keeps slow drifts of machine speed out of the difference.
    """
    pairs = 0
    traced: list[dict] = []
    plain: list[float] = []
    t_end = time.perf_counter() + seconds
    pair_s = 0.0
    while _more(pairs, t_end, 2, pair_s):
        t0 = time.perf_counter()
        s = run_sample(work)
        ok = checker.check(s.digest)
        t, tracer = traced_sample(work)
        if checker.check(t.digest) and ok:
            traced.append(layer_metrics(tracer, t.bytes_written))
            plain.append(s.wall_s)
            tracers.append(tracer)
        pairs += 1
        pair_s = time.perf_counter() - t0
    metrics = {}
    if traced:
        metrics = {m: statistics.median(t[m] for t in traced) for m in PER_LAYER}
        metrics["trace.overhead_s"] = statistics.median(
            t["trace.wall_s"] - w for t, w in zip(traced, plain))
        for m, unit in PER_LAYER.items():
            if unit in ("count", "bytes"):
                metrics[m] = int(metrics[m])
    return metrics, {"untraced_wall_s": plain, "traced": traced}


def measure(hodsim, name: str, seed: int, seconds: float, trace: bool) -> int:
    refs = load_references().get(name, {})
    ref_seed = (scenarios.DEFAULT_SEED, scenarios.HELD_OUT_SEED)[seed % 2]
    if str(ref_seed) not in refs:
        print(f"error: references.json has no {name} seed {ref_seed}; "
              "run with --write-references", file=sys.stderr)
        return 2
    notes = [reference_check(hodsim, name, ref_seed, refs[str(ref_seed)], trace)]
    checker = check.Checker(refs.get(str(seed), {}).get("digest"))
    tracers: list[spans.Tracer] = []
    work = make_workload(hodsim, name, seed)
    try:
        if trace:
            metrics, samples = traced_metrics(work, seconds, checker, tracers)
        else:
            metrics, samples = timed_metrics(work, seconds, checker)
    finally:
        work.close()
    units = PER_LAYER if trace else END_TO_END

    attempted = 1 + checker.attempted
    failed = (notes[0] is not None) + checker.failed
    if checker.failed:
        notes.append(f"{checker.failed} sample(s) of seed {seed} raised or changed output")
    notes = [n for n in notes if n]
    correct = failed == 0 and len(metrics) == len(units)
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    write_result(f"{name}-seed{seed}-trace{int(trace)}",
                 {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "reference_seed": ref_seed, "metadata": run_metadata(), **line,
                  "notes": notes, "samples": samples},
                 tracers)

    n = len(samples["traced"] if trace else samples["wall_s"])
    print(f"{name}  seed {seed}  {'traced' if trace else 'timed'} samples: {n}  "
          f"(+1 reference check of seed {ref_seed})")
    for k, v in metrics.items():
        print(f"  {k:<34} {v:>16.6g} {units[k]}")
    print(f"  {'error_rate':<34} {failed / attempted:>16.6g} ratio  ({failed}/{attempted} samples)")
    for note in notes:
        print(f"  FAILED: {note}")
    print(json.dumps(line))
    return 0 if correct else 1


def write_references(hodsim) -> int:
    """Pin digests and simulated statistics of both reference seeds of every workload."""
    refs: dict = {}
    for name in WORKLOADS:
        refs[name] = {}
        for seed in (scenarios.DEFAULT_SEED, scenarios.HELD_OUT_SEED):
            work = make_workload(hodsim, name, seed)
            try:
                plain = run_sample(work)
                traced, tracer = traced_sample(work)
            finally:
                work.close()
            if plain.digest is None or plain.digest != traced.digest:
                print(f"error: {name} seed {seed} is not reproducible", file=sys.stderr)
                return 1
            refs[name][str(seed)] = {"digest": plain.digest, "stats": traced_stats(tracer)}
            print(f"{name} seed {seed}: {plain.digest[:16]}  {plain.wall_s:.2f} s")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def scaling(hodsim, seed: int, repeats: int = 3) -> int:
    """Report-only: median hod wall_s at rings 2, 3, 5 x 10 sensors, 8 windows."""
    rows = {}
    for rings in (2, 3, 5):
        work = LibraryWorkload(hodsim, scenarios.scaling(rings, seed), "hod")
        checker = check.Checker()
        walls = []
        for _ in range(repeats):
            s = run_sample(work)
            checker.check(s.digest)
            walls.append(s.wall_s)
        if checker.failed:
            print(f"error: {checker.failed} rings={rings} sample(s) raised or changed output",
                  file=sys.stderr)
            return 1
        rows[rings] = statistics.median(walls)
        print(f"rings={rings} x 10 sensors, 8 windows: hod wall_s {rows[rings]:.4f} s "
              f"(median of {repeats})")
    ratio = rows[5] / rows[2]
    print(f"growth rings=5 / rings=2: {ratio:.2f}x")
    write_result(f"scaling-seed{seed}", {"seed": seed, "repeats": repeats, "metadata": run_metadata(),
                                         "wall_s_by_rings": rows, "growth_5_over_2": ratio})
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scaling", action="store_true", help="report-only rings growth sweep")
    p.add_argument("--write-references", action="store_true")
    args = p.parse_args(argv)
    if sum([args.workload is not None, args.scaling, args.write_references]) != 1:
        p.error("give exactly one of --workload, --scaling, --write-references")
    hodsim = load_hodsim()
    if args.write_references:
        return write_references(hodsim)
    if args.scaling:
        return scaling(hodsim, args.seed)
    return measure(hodsim, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
