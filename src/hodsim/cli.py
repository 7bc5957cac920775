"""Command-line entry point.

Runs a scenario file in hierarchical mode, flat-baseline mode, or both
(compare), over one seed or a seed range, and writes traces, summaries,
metrics, and the comparison table under the output directory.

Exit codes: 0 on success, 2 for bad usage (an --out path that is an existing
file or lies under one, found before any run and with nothing written) or an
invalid scenario file, 3 for any other failure during simulation or output
writing.  Each attack's fit to the grid, schedules and horizon is checked when
the file is parsed; only a forgery interval with no admissible emission time
(AttackSpecError) and a mac schedule that leaves a sensor no fully awake slot
(the message names the mac keys that set it) are found while a run is set up.
Files already written by a failed invocation are removed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TextIO

from .attacks import AttackSpecError
from .config import ConfigError, ScenarioConfig
from .detection import base_station_report
from .mac import SchedulingError
from .metrics import Metrics, compare, rows_to_csv, run_scenario, score
from .simcore import RunLog, TraceEvent
from .topology import Topology

_DISCLAIMER = (
    "# detection thresholds, radio constants, and scenario parameters are "
    "simulator design choices"
)


TRACE_FIELDS = (
    "time_us", "event", "src", "dst", "cell", "outcome",
    "rssi_dbm", "energy_uj", "packet_id", "kind", "control",
)


def _trace_tuples(events: Iterable[TraceEvent]) -> Iterator[tuple]:
    """One row per trace event, in TRACE_FIELDS order, formatted as the CSV cells."""
    for e in events:
        yield (
            e.time_us,
            e.event_kind,
            "" if e.src is None else e.src,
            "" if e.dst is None else e.dst,
            "" if e.cell is None else f"{e.cell.q},{e.cell.r}",
            e.outcome,
            "" if e.rssi_dbm is None else f"{e.rssi_dbm:.2f}",
            f"{e.energy_uj:.6f}",
            "" if e.packet_id is None else e.packet_id,
            e.pkt_kind,
            int(e.control),
        )


def _trace_rows(log: RunLog) -> list[dict]:
    """The same rows as dicts keyed by TRACE_FIELDS; bench/check.py digests through them."""
    return [dict(zip(TRACE_FIELDS, r)) for r in _trace_tuples(log.events)]


def write_trace(log: RunLog, fh: TextIO) -> None:
    """Write a run's trace CSV into an open file: the header block, the column
    row, then one row per event, formatted as it is written, so no copy of the
    whole trace is held.  A run with no events gets the header block alone."""
    fh.write(_header(log))
    if log.events:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_FIELDS)
        writer.writerows(_trace_tuples(log.events))


def _header(log: RunLog) -> str:
    lines = [
        "# hodsim run",
        f"# mode: {log.mode}  seed: {log.seed}  windows: {log.n_windows}  "
        f"window_us: {log.window_us}",
        f"# scenario_hash: {log.scenario_hash}",
        f"# config: {json.dumps(log.config_echo, sort_keys=True, separators=(',', ':'))}",
        _DISCLAIMER,
    ]
    return "\n".join(lines) + "\n"


def _render_metrics(m: Metrics) -> list[str]:
    lines = [
        f"ids control messages: {m.ids_control_messages}",
        f"total messages:       {m.total_messages}",
        f"total energy:         {m.energy_total_j:.9f} J",
    ]
    for role, mean in m.energy_mean_by_role_j.items():
        lines.append(f"mean energy {role}: {mean:.9f} J")
    for kind in sorted(m.gt_total):
        rate = m.detection_rate.get(kind, 0.0)
        rate_d = m.detection_rate_delivered.get(kind)
        lat = m.mean_latency_us(kind)
        lines.append(
            f"attack {kind}: {m.detected.get(kind, 0)}/{m.gt_total[kind]} detected "
            f"(rate {rate:.3f}, delivered-rate "
            f"{'n/a' if rate_d is None else f'{rate_d:.3f}'}, "
            f"mean latency {'n/a' if lat is None else f'{lat:.0f} us'})"
        )
    fp_total = sum(m.false_positives.values())
    lines.append(f"false positives: {fp_total} "
                 f"({m.jamming_fp_per_100_windows:.3f} jamming FPs per 100 windows)")
    return lines


def render_summary(log: RunLog, topology: Topology, metrics: Metrics) -> str:
    out = [_header(log)]
    if log.mode == "hod":
        report = base_station_report(log, topology, metrics.matched)
        out.append(f"alerts received at base station: {report.total_alerts}")
        out.append("")
        out.append("per-scope alert tally:")
        for scope in sorted(report.tally):
            rules = report.tally[scope]
            joined = ", ".join(f"{r}={rules[r]}" for r in sorted(rules))
            out.append(f"  {scope}: {joined}")
        out.append("")
        out.append("alert timeline:")
        out.append("  detected_at  layer    rule                suspect          "
                   "by    base_arrival  latency_us  hop_trail")
        for row in report.timeline:
            lat = "" if row["latency_us"] is None else str(row["latency_us"])
            out.append(
                f"  {row['detected_at_us']:>11}  {row['layer']:<7}  {row['rule']:<18}  "
                f"{row['suspect']:<15}  {row['detected_by']:<4}  "
                f"{row['base_arrival_us']:>12}  {lat:>10}  "
                f"{'->'.join(str(h) for h in row['hop_trail'])}"
            )
        out.append("")
        if report.compromised_monitors:
            out.append("monitors flagged compromised: "
                       + ", ".join(report.compromised_monitors))
        else:
            out.append("monitors flagged compromised: none")
    else:
        out.append(f"local anomaly records: {len(log.flat_anomalies)}")
        by_rule: dict[str, int] = {}
        for a in log.flat_anomalies:
            by_rule[a.rule.value] = by_rule.get(a.rule.value, 0) + 1
        for rule in sorted(by_rule):
            out.append(f"  {rule}: {by_rule[rule]}")
    out.append("")
    out.extend(_render_metrics(metrics))
    out.append("")
    return "\n".join(out)


class _OutputSet:
    """Tracks files written by one invocation so failures clean up after themselves.

    A path is recorded as soon as its file is opened, before anything is
    written to it, so a write that fails part-way leaves no partial file.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.written: list[Path] = []

    def open(self, name: str) -> TextIO:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / name
        fh = path.open("w", encoding="utf-8")
        self.written.append(path)
        return fh

    def write(self, name: str, content: str) -> None:
        with self.open(name) as fh:
            fh.write(content)

    def discard_all(self) -> None:
        for path in self.written:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass


def _parse_seeds(args: argparse.Namespace, scenario: ScenarioConfig) -> list[int]:
    if args.seed is not None and args.seeds is not None:
        raise ConfigError("give either --seed or --seeds, not both")
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return [args.seed]
    if args.seeds is not None:
        lo, sep, hi = args.seeds.partition("..")
        if not sep or not lo.isdecimal() or not hi.isdecimal():
            raise ConfigError(f"--seeds wants the form A..B, got {args.seeds!r}")
        a, b = int(lo), int(hi)
        if b < a:
            raise ConfigError(f"--seeds range is empty: {args.seeds!r}")
        return list(range(a, b + 1))
    return [scenario.seed]


def _run_one(scenario: ScenarioConfig, mode: str, seed: int) -> tuple[RunLog, Topology, Metrics]:
    log, topology = run_scenario(scenario, mode, seed)
    return log, topology, score(log, topology, scenario.thresholds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hodsim",
        description="Deterministic simulator for a hierarchical overlay IDS on a "
        "hexagonal wireless sensor network, with a flat per-sensor baseline.",
    )
    parser.add_argument("--config", required=True, help="scenario YAML file")
    parser.add_argument(
        "--mode",
        choices=["hod", "flat", "compare"],
        default="hod",
        help="hierarchical run, flat-baseline run, or both plus a comparison",
    )
    parser.add_argument("--seed", type=int, default=None, help="single seed")
    parser.add_argument("--seeds", default=None, help="inclusive seed range A..B")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--format",
        choices=["csv", "text", "both"],
        default="both",
        help="which output flavors to write",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        scenario = ScenarioConfig.from_file(args.config)
        seeds = _parse_seeds(args, scenario)
        out = Path(args.out)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out {args.out}: {existing} exists and is not a directory")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    want_csv = args.format in ("csv", "both")
    want_text = args.format in ("text", "both")
    outputs = _OutputSet(out)
    modes = ["hod", "flat"] if args.mode == "compare" else [args.mode]

    try:
        metrics_rows: dict[str, list[dict]] = {m: [] for m in modes}
        by_seed: dict[int, dict[str, Metrics]] = {}
        for seed in seeds:
            for mode in modes:
                log, topology, m = _run_one(scenario, mode, seed)
                by_seed.setdefault(seed, {})[mode] = m
                metrics_rows[mode].append(m.to_row())
                if want_csv:
                    with outputs.open(f"trace_{mode}_{seed}.csv") as fh:
                        write_trace(log, fh)
                if want_text:
                    outputs.write(
                        f"summary_{mode}_{seed}.txt",
                        render_summary(log, topology, m),
                    )
                print(
                    f"ran {mode} seed={seed}: "
                    f"{len(log.ground_truth)} ground-truth events, "
                    f"{len(log.base_received) if mode == 'hod' else len(log.flat_anomalies)} "
                    f"{'base alerts' if mode == 'hod' else 'local anomalies'}, "
                    f"{m.total_messages} messages"
                )
                # a finished run holds no reference cycle (Engine.run drops its heap and
                # monitors), so this frees the log now and only one run's log is ever alive
                del log, topology
        if want_csv:
            for mode in modes:
                outputs.write(f"metrics_{mode}.csv", rows_to_csv(metrics_rows[mode]))
        if args.mode == "compare":
            reports = [
                compare(by_seed[s]["hod"], by_seed[s]["flat"], scenario.compare_tolerance)
                for s in seeds
            ]
            if want_csv:
                outputs.write("comparison.csv", rows_to_csv([r.to_row() for r in reports]))
            if want_text:
                outputs.write("comparison.txt", "".join(r.to_text() for r in reports))
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, cleans, exits 2 or 3
        outputs.discard_all()
        message = str(exc)
        if isinstance(exc, SchedulingError):
            keys = ", ".join(f"mac.{k}={v}" for k, v in dataclasses.asdict(scenario.mac).items())
            message += f"; the schedule is set by {keys}"
        print(f"error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, (AttackSpecError, SchedulingError)) else 3

    print(f"wrote {len(outputs.written)} files to {outputs.directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
