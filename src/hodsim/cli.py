"""Command-line entry point.

Runs a scenario file in hierarchical mode, flat-baseline mode, or both
(compare), over one seed or a seed range, and writes traces, summaries,
metrics, and the comparison table under the output directory.

Exit codes: 0 on success, 2 for bad usage or an invalid scenario file
(including an attack spec that does not fit the topology or schedules),
3 for any other failure during simulation or output writing.  Files already
written by a failed invocation are removed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attacks import AttackSpecError
from .config import ConfigError, ScenarioConfig
from .detection import base_station_report
from .metrics import Metrics, compare, rows_to_csv, run_scenario, score
from .simcore import RunLog
from .topology import Topology

_DISCLAIMER = (
    "# detection thresholds, radio constants, and scenario parameters are "
    "simulator design choices"
)


def _cell_str(cell) -> str:
    return "" if cell is None else f"{cell.q},{cell.r}"


def _trace_rows(log: RunLog) -> list[dict]:
    rows = []
    for e in log.events:
        rows.append(
            {
                "time_us": e.time_us,
                "event": e.event_kind,
                "src": "" if e.src is None else e.src,
                "dst": "" if e.dst is None else e.dst,
                "cell": _cell_str(e.cell),
                "outcome": e.outcome,
                "rssi_dbm": "" if e.rssi_dbm is None else f"{e.rssi_dbm:.2f}",
                "energy_uj": f"{e.energy_uj:.6f}",
                "packet_id": "" if e.packet_id is None else e.packet_id,
                "kind": e.pkt_kind,
                "control": int(e.control),
            }
        )
    return rows


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
    """Tracks files written by one invocation so failures clean up after themselves."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.written: list[Path] = []

    def write(self, name: str, content: str) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / name
        path.write_text(content, encoding="utf-8")
        self.written.append(path)
        return path

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
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    want_csv = args.format in ("csv", "both")
    want_text = args.format in ("text", "both")
    outputs = _OutputSet(Path(args.out))
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
                    outputs.write(
                        f"trace_{mode}_{seed}.csv",
                        _header(log) + rows_to_csv(_trace_rows(log)),
                    )
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
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, AttackSpecError) else 3

    print(f"wrote {len(outputs.written)} files to {outputs.directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
