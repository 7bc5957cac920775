"""Scoring, the two-mode comparison, and the scenario runner.

Scoring works from the run log alone: ground-truth events are matched to the
alerts that reached the base station (hierarchical mode) or to deduplicated
local anomaly records (flat mode).  Detection rate is reported twice — over
all injected events, and over the subset whose offending packet actually
reached a cluster node, which isolates detector quality from radio loss.

Both monitor layers, and the rules they share, live in detection.py.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Any

from .attacks import apply_attacks
from .config import ScenarioConfig
from .detection import (
    Alert,
    AlertRule,
    BaseAlertRecord,
    DetectorThresholds,
    FlatMonitors,
    HodMonitors,
    RULES_FOR_KIND,
    match_alerts,
)
from .simcore import Engine, RunLog
from .topology import NodeRole, Topology

ATTACK_KINDS = tuple(RULES_FOR_KIND)  # canonical column order


# ============================================================================
# Metrics
# ============================================================================


@dataclass
class Metrics:
    mode: str
    seed: int
    scenario_hash: str
    n_windows: int
    gt_total: dict[str, int]
    gt_delivered: dict[str, int]
    detected: dict[str, int]
    detection_rate: dict[str, float]
    detection_rate_delivered: dict[str, float]
    latencies_us: dict[str, list[int]]
    false_positives: dict[str, int]
    jamming_fp_per_100_windows: float
    ids_control_messages: int
    total_messages: int
    energy_mean_by_role_j: dict[str, float]
    energy_total_j: float
    matched: dict[int, int]  # ground-truth index -> alert record index; not a CSV column

    def mean_latency_us(self, kind: str) -> float | None:
        vals = self.latencies_us.get(kind, [])
        return (sum(vals) / len(vals)) if vals else None

    def to_row(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "mode": self.mode,
            "seed": self.seed,
            "scenario_hash": self.scenario_hash,
            "n_windows": self.n_windows,
            "ids_control_messages": self.ids_control_messages,
            "total_messages": self.total_messages,
            "energy_total_j": f"{self.energy_total_j:.9f}",
            "jamming_fp_per_100_windows": f"{self.jamming_fp_per_100_windows:.4f}",
        }
        for role in ("Sensor", "ClusterNode", "RegionalNode", "BaseStation"):
            row[f"energy_mean_{role}_j"] = f"{self.energy_mean_by_role_j.get(role, 0.0):.9f}"
        for kind in ATTACK_KINDS:
            row[f"gt_{kind}"] = self.gt_total.get(kind, 0)
            row[f"detected_{kind}"] = self.detected.get(kind, 0)
            rate = self.detection_rate.get(kind)
            row[f"rate_{kind}"] = "" if rate is None else f"{rate:.4f}"
            rate_d = self.detection_rate_delivered.get(kind)
            row[f"rate_delivered_{kind}"] = "" if rate_d is None else f"{rate_d:.4f}"
            lat = self.mean_latency_us(kind)
            row[f"mean_latency_us_{kind}"] = "" if lat is None else f"{lat:.1f}"
        for rule in AlertRule:
            row[f"fp_{rule.value}"] = self.false_positives.get(rule.value, 0)
        return row


def _flat_records(run_log: RunLog) -> list[BaseAlertRecord]:
    """Collapse per-sensor anomaly records to one per distinct finding."""
    best: dict[tuple, Alert] = {}
    for a in run_log.flat_anomalies:
        key = a.dedup_key()
        cur = best.get(key)
        if cur is None or (a.detected_at, a.detected_by) < (cur.detected_at, cur.detected_by):
            best[key] = a
    return [
        BaseAlertRecord(alert=best[key], base_arrival_us=best[key].detected_at)
        for key in sorted(best, key=lambda k: (best[k].detected_at, str(k)))
    ]


def score(run_log: RunLog, topology: Topology, thresholds: DetectorThresholds) -> Metrics:
    records = run_log.base_received if run_log.mode == "hod" else _flat_records(run_log)
    pairs, unmatched = match_alerts(
        run_log.ground_truth, records, run_log.window_us, thresholds.match_window_count
    )
    delivered_ids = {
        pid for pid, receiver in run_log.delivered_to.items()
        if topology.role(receiver) is NodeRole.CLUSTER
    }

    gt_total: dict[str, int] = {}
    gt_delivered: dict[str, int] = {}
    detected: dict[str, int] = {}
    detected_delivered: dict[str, int] = {}
    latencies: dict[str, list[int]] = {}
    for gi, gt in enumerate(run_log.ground_truth):
        kind = gt.kind
        gt_total[kind] = gt_total.get(kind, 0) + 1
        delivered = gt.packet_id is None or gt.packet_id in delivered_ids
        if delivered:
            gt_delivered[kind] = gt_delivered.get(kind, 0) + 1
        if gi in pairs:
            detected[kind] = detected.get(kind, 0) + 1
            if delivered:
                detected_delivered[kind] = detected_delivered.get(kind, 0) + 1
            latencies.setdefault(kind, []).append(
                records[pairs[gi]].base_arrival_us - gt.time_us
            )

    rate = {
        k: detected.get(k, 0) / n for k, n in gt_total.items() if n
    }
    rate_delivered = {
        k: (detected_delivered.get(k, 0) / gt_delivered[k]) if gt_delivered.get(k) else None
        for k in gt_total
    }

    fps: dict[str, int] = {}
    for ri in unmatched:
        rule = records[ri].alert.rule.value
        fps[rule] = fps.get(rule, 0) + 1
    jam_fp = fps.get(AlertRule.JAMMING_SUSPECTED.value, 0)
    jam_fp_per_100 = 100.0 * jam_fp / run_log.n_windows if run_log.n_windows else 0.0

    tally_counters = sum(c.control_sent for c in run_log.counters.values())
    tally_trace = sum(1 for e in run_log.events if e.event_kind == "tx" and e.control)
    if tally_counters != tally_trace:
        raise AssertionError(
            f"control-message ledgers disagree: counters={tally_counters} trace={tally_trace}"
        )
    total_messages = sum(c.total_sent() for c in run_log.counters.values())

    by_role: dict[str, list[float]] = {}
    total_energy = 0.0
    for node in topology.nodes:
        j = run_log.meters[node.node_id].total_j
        by_role.setdefault(node.role.value, []).append(j)
        total_energy += j
    energy_mean = {role: sum(v) / len(v) for role, v in sorted(by_role.items())}

    return Metrics(
        mode=run_log.mode,
        seed=run_log.seed,
        scenario_hash=run_log.scenario_hash,
        n_windows=run_log.n_windows,
        gt_total=gt_total,
        gt_delivered=gt_delivered,
        detected=detected,
        detection_rate=rate,
        detection_rate_delivered=rate_delivered,
        latencies_us=latencies,
        false_positives=fps,
        jamming_fp_per_100_windows=jam_fp_per_100,
        ids_control_messages=tally_counters,
        total_messages=total_messages,
        energy_mean_by_role_j=energy_mean,
        energy_total_j=total_energy,
        matched=pairs,
    )


# ============================================================================
# Comparison
# ============================================================================


@dataclass
class ComparisonReport:
    seed: int
    scenario_hash: str
    hod_control_messages: int
    flat_control_messages: int
    control_message_ratio: float
    fewer_control_messages: bool
    hod_total_messages: int
    flat_total_messages: int
    hod_sensor_energy_j: float
    flat_sensor_energy_j: float
    sensor_energy_ratio: float
    lower_sensor_energy: bool
    rate_delta: dict[str, float]  # hod minus flat, per attack kind present
    detection_parity: bool
    tolerance: float

    def to_row(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "seed": self.seed,
            "scenario_hash": self.scenario_hash,
            "hod_control_messages": self.hod_control_messages,
            "flat_control_messages": self.flat_control_messages,
            "control_message_ratio": f"{self.control_message_ratio:.6f}",
            "fewer_control_messages": self.fewer_control_messages,
            "hod_total_messages": self.hod_total_messages,
            "flat_total_messages": self.flat_total_messages,
            "hod_sensor_energy_j": f"{self.hod_sensor_energy_j:.9f}",
            "flat_sensor_energy_j": f"{self.flat_sensor_energy_j:.9f}",
            "sensor_energy_ratio": f"{self.sensor_energy_ratio:.6f}",
            "lower_sensor_energy": self.lower_sensor_energy,
            "detection_parity": self.detection_parity,
            "tolerance": self.tolerance,
        }
        for kind in ATTACK_KINDS:
            delta = self.rate_delta.get(kind)
            row[f"rate_delta_{kind}"] = "" if delta is None else f"{delta:+.4f}"
        return row

    def to_text(self) -> str:
        lines = [
            f"comparison (seed {self.seed})",
            f"  IDS control messages: hierarchical {self.hod_control_messages} vs "
            f"flat {self.flat_control_messages} "
            f"(ratio {self.control_message_ratio:.4f}, fewer={self.fewer_control_messages})",
            f"  total messages:       hierarchical {self.hod_total_messages} vs "
            f"flat {self.flat_total_messages}",
            f"  mean sensor energy:   hierarchical {self.hod_sensor_energy_j:.9f} J vs "
            f"flat {self.flat_sensor_energy_j:.9f} J "
            f"(ratio {self.sensor_energy_ratio:.4f}, lower={self.lower_sensor_energy})",
            f"  detection parity within {self.tolerance:.2f}: {self.detection_parity}",
        ]
        for kind in ATTACK_KINDS:
            if kind in self.rate_delta:
                lines.append(f"    rate delta {kind}: {self.rate_delta[kind]:+.4f}")
        return "\n".join(lines) + "\n"


def compare(hod: Metrics, flat: Metrics, tolerance: float = 0.1) -> ComparisonReport:
    """Pair a hierarchical run against the flat baseline of the same scenario."""
    if hod.mode != "hod" or flat.mode != "flat":
        raise ValueError(f"compare() needs one hod and one flat run, got {hod.mode!r}/{flat.mode!r}")
    if hod.scenario_hash != flat.scenario_hash or hod.seed != flat.seed:
        raise ValueError(
            "refusing to compare runs of different scenarios: "
            f"hod seed={hod.seed} hash={hod.scenario_hash[:12]} vs "
            f"flat seed={flat.seed} hash={flat.scenario_hash[:12]}"
        )
    control_ratio = (
        hod.ids_control_messages / flat.ids_control_messages
        if flat.ids_control_messages
        else float("inf")
    )
    hod_sensor = hod.energy_mean_by_role_j.get(NodeRole.SENSOR.value, 0.0)
    flat_sensor = flat.energy_mean_by_role_j.get(NodeRole.SENSOR.value, 0.0)
    energy_ratio = hod_sensor / flat_sensor if flat_sensor else float("inf")
    deltas: dict[str, float] = {}
    parity = True
    for kind, n in sorted(hod.gt_total.items()):
        if not n:
            continue
        h = hod.detection_rate.get(kind, 0.0)
        f = flat.detection_rate.get(kind, 0.0)
        deltas[kind] = h - f
        if h < f - tolerance:
            parity = False
    return ComparisonReport(
        seed=hod.seed,
        scenario_hash=hod.scenario_hash,
        hod_control_messages=hod.ids_control_messages,
        flat_control_messages=flat.ids_control_messages,
        control_message_ratio=control_ratio,
        fewer_control_messages=hod.ids_control_messages < flat.ids_control_messages,
        hod_total_messages=hod.total_messages,
        flat_total_messages=flat.total_messages,
        hod_sensor_energy_j=hod_sensor,
        flat_sensor_energy_j=flat_sensor,
        sensor_energy_ratio=energy_ratio,
        lower_sensor_energy=hod_sensor < flat_sensor,
        rate_delta=deltas,
        detection_parity=parity,
        tolerance=tolerance,
    )


# ============================================================================
# Scenario runner and serialization helpers
# ============================================================================


def run_scenario(scenario: ScenarioConfig, mode: str, seed: int) -> tuple[RunLog, Topology]:
    """Run one (scenario, mode, seed): the engine, its monitors, the scenario's attacks."""
    if mode not in ("hod", "flat"):
        raise ValueError(f"mode must be 'hod' or 'flat', got {mode!r}")
    engine = Engine(scenario, seed, mode)
    (HodMonitors if mode == "hod" else FlatMonitors)(engine)
    apply_attacks(engine)
    return engine.run(), engine.topology


def rows_to_csv(rows: list[dict[str, Any]]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
