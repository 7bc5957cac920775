"""Detection for both modes: the shared rules and the two monitor layers.

The per-packet rules (foreign origin, TDMA slot, S-MAC sleep, route) live in
one function, evaluate_data_packet, and the windowed jamming vote over channel
statistics in detect_jamming, whose verdict jamming_votes takes once per
(window, cell) when the window closes; both monitor layers apply exactly these.

HodMonitors is the four-layer overlay.  Sensors host no detection logic at
all; they only produce data.  Cluster nodes run the per-packet rules and the
jamming vote over what reached them.  Regional nodes watch their
member clusters (liveness and alert suppression) and forward everything
upward; the base station watches the regionals and keeps the authoritative
alert ledger.  Alerts ripple up one hop per aggregation window: cluster ->
regional rides the normal short-range channel, regional -> base uses the
reliable long-range channel.  A cluster keeps each alarm it sends in its
outbox until the alarm shows up in its regional's inbox: a hop is shorter than
a window, so an alarm sent at one window step is in that inbox at the next
step if and only if it was delivered, and the cluster then drops it; it
retransmits any other.  So no alarm reaches a node twice, and the regional
relays, and the base records, every alarm it receives.  An alarm carries the
Alert itself; each node that receives one keeps its own copy with itself
appended to the hop trail, so an alert is never changed once logged.  The
periodic data reports (cluster report, regional summary) are overlay traffic
too: HodMonitors sends them at the end of every window, after the alarm and
heartbeat traffic.

The layer tag on an alert names the protocol layer whose rule fired:
phy (jamming), link (slot / sleep / foreign origin), net (route deviation),
overlay (watchdog findings about the monitoring hierarchy itself).

FlatMonitors is the baseline without the hierarchy: the same IDS module on
every sensor.  Each sensor promiscuously overhears its neighborhood, runs
cluster_pipeline (the cluster node's own window step) on what it overheard, so
it judges the data addressed to its cell's cluster, and gossips per-window
state and anomaly notices to each in-range peer.  Those exchanges ride the
always-on control plane (exempt from the data-plane duty cycle), which is
exactly the per-node overhead the hierarchical overlay is designed to avoid.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Any

from .mac import SmacSchedule, TdmaSchedule, is_sleep_violation, is_slot_violation, slot_owner_at
from .simcore import (
    DATA_KINDS,
    ChannelWindowStats,
    CompromiseMode,
    Engine,
    GroundTruthEvent,
    Packet,
    PacketKind,
    RadioModel,
    RunLog,
    SimTime,
    active_at,
)
from .topology import HexCoord, NodeRole, Topology, suspect_cell, suspect_node


class AlertRule(enum.Enum):
    JAMMING_SUSPECTED = "JammingSuspected"
    SLOT_VIOLATION = "SlotViolation"
    SLEEP_VIOLATION = "SleepViolation"
    FOREIGN_ORIGIN = "ForeignOrigin"
    ROUTE_DEVIATION = "RouteDeviation"
    MISSED_HEARTBEAT = "MissedHeartbeat"
    SUPPRESSED_ALERTS = "SuppressedAlerts"


LAYER_OF_RULE = {
    AlertRule.JAMMING_SUSPECTED: "phy",
    AlertRule.SLOT_VIOLATION: "link",
    AlertRule.SLEEP_VIOLATION: "link",
    AlertRule.FOREIGN_ORIGIN: "link",
    AlertRule.ROUTE_DEVIATION: "net",
    AlertRule.MISSED_HEARTBEAT: "overlay",
    AlertRule.SUPPRESSED_ALERTS: "overlay",
}


@dataclass(frozen=True)
class DetectorThresholds:
    """Jamming vote and watchdog thresholds.

    The None defaults resolve against the radio model: idle_rssi_max becomes
    noise floor + 10 dB, carrier_sense_max becomes 3x the attack-free mean
    (which equals the carrier-sense turnaround time).
    """

    pdr_min: float = 0.6
    idle_rssi_max_dbm: float | None = None
    carrier_sense_max_us: float | None = None
    vote_k: int = 2
    heartbeat_timeout_windows: int = 2
    match_window_count: int = 3

    def __post_init__(self) -> None:
        if not (0.0 <= self.pdr_min <= 1.0):
            raise ValueError("pdr_min must be in [0, 1]")
        if not (1 <= self.vote_k <= 3):
            raise ValueError("vote_k must be in 1..3")
        if self.heartbeat_timeout_windows < 1:
            raise ValueError("heartbeat_timeout_windows must be >= 1")
        if self.match_window_count < 1:
            raise ValueError("match_window_count must be >= 1")

    def resolved(self, radio: RadioModel) -> "DetectorThresholds":
        idle = (
            self.idle_rssi_max_dbm
            if self.idle_rssi_max_dbm is not None
            else radio.noise_floor_dbm + 10.0
        )
        cs = (
            self.carrier_sense_max_us
            if self.carrier_sense_max_us is not None
            else 3.0 * radio.cs_turnaround_us
        )
        return dataclasses.replace(self, idle_rssi_max_dbm=idle, carrier_sense_max_us=cs)


@dataclass
class Alert:
    rule: AlertRule
    layer: str
    suspect: str
    detected_by: int
    detected_at: SimTime
    window: int
    hop_trail: list[int]
    evidence: dict[str, Any] = field(default_factory=dict)
    packet_id: int | None = None

    def dedup_key(self) -> tuple:
        return (self.rule.value, self.suspect, self.window, self.packet_id)


def _new_alert(
    rule: AlertRule,
    suspect: str,
    detected_by: int,
    now: SimTime,
    window: int,
    evidence: dict[str, Any],
    packet_id: int | None = None,
) -> Alert:
    return Alert(
        rule=rule,
        layer=LAYER_OF_RULE[rule],
        suspect=suspect,
        detected_by=detected_by,
        detected_at=now,
        window=window,
        hop_trail=[detected_by],
        evidence=evidence,
        packet_id=packet_id,
    )


@dataclass
class BaseAlertRecord:
    alert: Alert
    base_arrival_us: SimTime


# ============================================================================
# Routing oracle
# ============================================================================


class ConnectivityGraph:
    """Static connectivity at zero shadowing: edges join nodes within short range.

    adj[n] lists, ascending, the other nodes Topology.within finds at most
    short_range_m from n.  expected_route returns the minimum-hop path,
    tie-broken to the lexicographically smallest node-id sequence; None when
    disconnected.  Each (src, dst) answer is searched for once, on its first
    query, and kept; every call returns a fresh list.
    """

    def __init__(self, topology: Topology, short_range_m: float) -> None:
        self.adj: list[list[int]] = [
            [m for m in topology.within(n.x, n.y, short_range_m) if m != n.node_id]
            for n in topology.nodes
        ]
        self._routes: dict[tuple[int, int], tuple[int, ...] | None] = {}

    def expected_route(self, src: int, dst: int) -> list[int] | None:
        try:
            route = self._routes[src, dst]
        except KeyError:
            route = self._routes[src, dst] = self._search(src, dst)
        return None if route is None else list(route)

    def _search(self, src: int, dst: int) -> tuple[int, ...] | None:
        """Breadth-first from dst, level by level, until src's level is complete.

        By then every node closer to dst than src has its exact hop count, so
        the walk below sees the same distances a search of the whole graph
        would give it.
        """
        adj = self.adj
        dist = {dst: 0}
        frontier = [dst]
        level = 0
        while frontier and src not in dist:
            level += 1
            reached = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = level
                        reached.append(v)
            frontier = reached
        if src not in dist:
            return None
        path = [src]
        cur = src
        while cur != dst:
            # smallest-id neighbor one step closer: yields the lexicographic
            # minimum among all minimum-hop paths
            closer = dist[cur] - 1
            cur = min(v for v in adj[cur] if dist.get(v) == closer)
            path.append(cur)
        return tuple(path)


def check_route(graph: ConnectivityGraph, packet: Packet) -> tuple[bool, dict[str, Any]]:
    """Route verdict for a data packet addressed to its destination.

    The observed path is read from the header alone: the claimed origin, the
    link-layer sender when that is a relay (src != origin), and the
    destination.  The engine relays a packet at most once, so this is every
    node the packet passed through, whether or not its last hop was delivered.
    """
    expected = graph.expected_route(packet.origin, packet.dst)
    if packet.src == packet.origin:
        observed = [packet.origin, packet.dst]
    else:
        observed = [packet.origin, packet.src, packet.dst]
    if expected is None:
        return False, {"error": "NoRoute"}
    violated = observed != expected
    return violated, {"observed_path": observed, "expected_path": expected}


# ============================================================================
# Windowed jamming vote
# ============================================================================


def detect_jamming(
    stats: ChannelWindowStats, thresholds: DetectorThresholds
) -> tuple[bool, dict[str, Any]]:
    """k-of-3 vote over PDR, mean idle RSSI, and mean carrier-sense time."""
    if thresholds.idle_rssi_max_dbm is None or thresholds.carrier_sense_max_us is None:
        raise AssertionError("thresholds must be resolved against the radio model")
    trips = {
        "pdr": stats.pdr < thresholds.pdr_min,
        "idle_rssi": stats.mean_idle_rssi_dbm > thresholds.idle_rssi_max_dbm,
        "carrier_sense": stats.mean_carrier_sense_us > thresholds.carrier_sense_max_us,
    }
    fired = sum(trips.values()) >= thresholds.vote_k
    evidence = {
        "pdr": round(stats.pdr, 6),
        "idle_rssi_dbm": round(stats.mean_idle_rssi_dbm, 3),
        "carrier_sense_us": round(stats.mean_carrier_sense_us, 3),
        "trips": sorted(k for k, v in trips.items() if v),
    }
    return fired, evidence


def jamming_votes(
    stats_by_cell: dict[HexCoord, ChannelWindowStats], thresholds: DetectorThresholds
) -> dict[HexCoord, tuple[bool, dict[str, Any]]]:
    """One window's jamming vote for every cell: {cell: (fired, evidence)}."""
    return {cell: detect_jamming(stats, thresholds) for cell, stats in stats_by_cell.items()}


# ============================================================================
# Per-packet rules and the cluster pipeline
# ============================================================================


def evaluate_data_packet(
    packet: Packet,
    t_tx: SimTime,
    members: set[int],
    tdma: TdmaSchedule,
    smac: SmacSchedule,
    graph: ConnectivityGraph,
    cell: HexCoord,
) -> tuple[list[tuple[AlertRule, dict[str, Any]]], int]:
    """Apply the per-packet rules to one data packet bound for cell's cluster.

    t_tx is the claimed transmit time, members the sensors of the cell.
    Returns the findings as (rule, evidence) pairs, each naming the claimed
    origin as suspect, plus the number of rules evaluated: 1 when the
    foreign-origin check short-circuits, otherwise 4.
    """
    if packet.origin not in members:
        return [(AlertRule.FOREIGN_ORIGIN, {"t_tx": t_tx, "cell": suspect_cell(cell)})], 1
    findings: list[tuple[AlertRule, dict[str, Any]]] = []
    if is_slot_violation(tdma, packet.origin, t_tx):
        findings.append(
            (AlertRule.SLOT_VIOLATION, {"t_tx": t_tx, "slot_owner": slot_owner_at(tdma, t_tx)})
        )
    if is_sleep_violation(smac, t_tx):
        findings.append((AlertRule.SLEEP_VIOLATION, {"t_tx": t_tx}))
    violated, route_ev = check_route(graph, packet)
    if violated:
        findings.append((AlertRule.ROUTE_DEVIATION, route_ev))
    return findings, 4


def cluster_pipeline(
    engine: Engine,
    graph: ConnectivityGraph,
    detector: int,
    window: int,
    received: list[tuple[SimTime, Packet]],
    vote: tuple[bool, dict[str, Any]],
) -> tuple[list[Alert], int]:
    """Run one detector's window: gather, detect, package.

    The detector is a cluster node reading its inbox (overlay) or a sensor
    reading what it overheard (flat baseline); either way it judges its own
    cell's channel and the data packets addressed to its cell's cluster.
    vote is that cell's jamming vote, taken once when the window closed.
    Returns the alerts plus the number of rule evaluations performed (for the
    monitor energy ledger).  Callers must not invoke this for a cluster in
    Silent compromise.
    """
    topo = engine.topology
    cell = topo.node(detector).cell
    cluster = topo.cluster_of(cell)
    now = engine.now
    sensors = set(topo.sensors_of(cell))
    tdma = engine.tdma[cell]
    smac = engine.smac[cell]
    latency = engine.config.radio.per_hop_latency_us
    alerts: list[Alert] = []

    fired, evidence = vote
    evals = 1
    if fired:
        alerts.append(
            _new_alert(AlertRule.JAMMING_SUSPECTED, suspect_cell(cell), detector, now, window, evidence)
        )

    for arrival, packet in received:
        if packet.dst != cluster or packet.kind not in DATA_KINDS:
            continue
        t_tx = arrival - latency  # claimed transmit time reconstructed from the hop latency
        findings, n = evaluate_data_packet(packet, t_tx, sensors, tdma, smac, graph, cell)
        evals += n
        suspect = suspect_node(packet.origin)
        alerts.extend(
            _new_alert(rule, suspect, detector, now, window, ev, packet.packet_id)
            for rule, ev in findings
        )

    # package phase: drop duplicates within the window
    unique: dict[tuple, Alert] = {}
    for a in alerts:
        unique.setdefault(a.dedup_key(), a)
    return list(unique.values()), evals


# ============================================================================
# Watchdog
# ============================================================================

_LEGAL_WATCHDOG_PAIRS = {
    (NodeRole.CLUSTER, NodeRole.SENSOR),
    (NodeRole.REGIONAL, NodeRole.CLUSTER),
    (NodeRole.BASE, NodeRole.REGIONAL),
}


def watchdog_check(
    topology: Topology,
    monitor_id: int,
    monitored_id: int,
    window: int,
    now: SimTime,
    last_seen_window: int,
    thresholds: DetectorThresholds,
    suppression_evidence: list[dict[str, Any]] | None = None,
) -> list[Alert]:
    """Liveness and suppression checks for one (monitor, monitored) pair.

    suppression_evidence, when provided, holds one entry per window of the
    lookback, each {'anomalous': bool, 'reported_zero': bool, ...}; the
    SuppressedAlerts rule fires only if every entry shows an independently
    observed anomaly while the child reported zero alerts.
    """
    pair = (topology.role(monitor_id), topology.role(monitored_id))
    if pair not in _LEGAL_WATCHDOG_PAIRS:
        raise ValueError(
            f"illegal watchdog pair {pair[0].value} -> {pair[1].value}; the hierarchy "
            "monitors exactly one layer down"
        )
    alerts: list[Alert] = []
    timeout = thresholds.heartbeat_timeout_windows
    silent_windows = window - last_seen_window
    suspect = suspect_node(monitored_id)
    if silent_windows >= timeout:
        alerts.append(
            _new_alert(
                AlertRule.MISSED_HEARTBEAT,
                suspect,
                monitor_id,
                now,
                window,
                {"silent_windows": silent_windows, "last_seen_window": last_seen_window},
            )
        )
    if suppression_evidence is not None and len(suppression_evidence) >= timeout:
        recent = suppression_evidence[-timeout:]
        if all(e["anomalous"] and e["reported_zero"] for e in recent):
            alerts.append(
                _new_alert(
                    AlertRule.SUPPRESSED_ALERTS,
                    suspect,
                    monitor_id,
                    now,
                    window,
                    {"windows": [e.get("window") for e in recent], "lookback": recent},
                )
            )
    return alerts


# ============================================================================
# The monitor layers driving the engine hooks
# ============================================================================


def _trace_finding(eng: Engine, alert: Alert, event_kind: str) -> None:
    """Trace one finding: event_kind is 'alert' (hod) or 'anomaly' (flat)."""
    eng.trace_node_event(
        alert.detected_by,
        event_kind,
        outcome=alert.rule.value,
        packet_id=alert.packet_id,
        pkt_kind=alert.suspect,
    )


def _send(
    eng: Engine,
    src: int,
    dst: int,
    kind: PacketKind,
    payload: dict | None = None,
    *,
    control: bool = True,
    long_range: bool = False,
    mac_exempt: bool = False,
) -> int:
    """Send one monitor message now (IDS control plane by default); returns its packet id."""
    packet = eng.new_packet(
        kind, src, dst, payload=payload, control=control, long_range=long_range, mac_exempt=mac_exempt
    )
    eng.send(packet)
    return packet.packet_id


def _relayed_copy(alert: Alert, node: int) -> Alert:
    """The receiving node's own copy of a relayed alert, with itself on the hop trail."""
    return dataclasses.replace(alert, hop_trail=[*alert.hop_trail, node])


@dataclass
class _OutboxEntry:
    alert: Alert
    last_packet_id: int | None = None


class HodMonitors:
    """Attaches the four-layer overlay to an engine."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.thresholds = engine.config.detect.resolved(engine.config.radio)
        self.graph = ConnectivityGraph(engine.topology, engine.config.radio.short_range_m)
        topo = engine.topology
        self.cluster_outbox: dict[int, list[_OutboxEntry]] = {
            topo.cluster_of(c): [] for c in topo.cells
        }
        # node -> last window its watcher saw a sign of life from it (every node but the base)
        self.last_seen: dict[int, int] = {
            n.node_id: -1 for n in topo.nodes if n.role is not NodeRole.BASE
        }
        self.reported_alert_counts: dict[int, int] = {}  # cluster -> this window's report
        # window -> {cell: jamming vote} and window -> {cluster: alert count it
        # reported about that window}, each for this window and the lookback before it
        self.votes: dict[int, dict[HexCoord, tuple[bool, dict[str, Any]]]] = {}
        self.child_reports: dict[int, dict[int, int]] = {}
        engine.inboxes = {m: [] for m in topo.monitor_ids()}
        engine.monitors = self

    # ------------------------------------------------------------------ hooks

    def on_window_end(self, engine: Engine, window: int) -> None:
        topo = engine.topology
        self.votes[window] = jamming_votes(engine.log.window_stats[window], self.thresholds)
        self.child_reports[window] = {}
        expired = window - self.thresholds.heartbeat_timeout_windows - 1
        self.votes.pop(expired, None)
        self.child_reports.pop(expired, None)
        self.reported_alert_counts = {}
        for cell in topo.cells:
            self._cluster_step(topo.cluster_of(cell), cell, window)
        for rid in sorted(topo.regional_by_region):
            self._regional_step(topo.regional_by_region[rid], rid, window)
        self._base_step(window)
        self._send_data_reports(window)

    # ---------------------------------------------------------------- cluster

    def _log_alert(self, alert: Alert) -> None:
        self.engine.log.alerts.append(alert)
        _trace_finding(self.engine, alert, "alert")

    def _cluster_step(self, cluster: int, cell: HexCoord, window: int) -> None:
        eng = self.engine
        regional = eng.topology.regional_of_cell(cell)
        outbox = self.cluster_outbox[cluster]
        if outbox:
            # the ack: an alarm sent at the last step resolved within this window
            # (a hop is shorter than a window), so it is in the regional's inbox
            # if and only if it was delivered; taken even while Silent, so that
            # a cluster that recovers resends only what was lost
            delivered = {packet.packet_id for _t, packet in eng.inboxes[regional]}
            outbox[:] = [e for e in outbox if e.last_packet_id not in delivered]
        mode = active_at(eng.compromise, cluster, eng.now)
        if mode is CompromiseMode.SILENT:
            return
        received = eng.inboxes[cluster]
        alerts, evals = cluster_pipeline(eng, self.graph, cluster, window, received, self.votes[window][cell])

        # liveness ledger: any claimed-origin data from the cell's own sensors is a sign of life
        sensors = eng.topology.sensors_of(cell)
        for _t, packet in received:
            if packet.kind in DATA_KINDS and packet.origin in sensors:
                self.last_seen[packet.origin] = window
        for sensor in sensors:
            evals += 1
            alerts.extend(
                watchdog_check(
                    eng.topology,
                    cluster,
                    sensor,
                    window,
                    eng.now,
                    self.last_seen[sensor],
                    self.thresholds,
                )
            )
        eng.charge_rule_evals(cluster, evals)

        for a in alerts:
            self._log_alert(a)
        if mode is CompromiseMode.FALSE_DATA:
            # the lie: report zero, forward nothing, not even alarms queued before
            self.reported_alert_counts[cluster] = 0
            outbox.clear()
        else:
            self.reported_alert_counts[cluster] = len(alerts)
            outbox.extend(_OutboxEntry(a) for a in alerts)
        for entry in outbox:
            entry.last_packet_id = _send(
                eng, cluster, regional, PacketKind.REGIONAL_ALARM, {"alert": entry.alert}
            )
        _send(eng, cluster, regional, PacketKind.HEARTBEAT)

    # --------------------------------------------------------------- regional

    def _regional_step(self, regional: int, rid: int, window: int) -> None:
        eng = self.engine
        topo = eng.topology
        mode = active_at(eng.compromise, regional, eng.now)
        if mode is CompromiseMode.SILENT:
            return
        received = eng.inboxes[regional]
        member_cells = topo.regions[rid]
        children = [topo.cluster_of(c) for c in member_cells]

        incoming: list[Alert] = []
        for _t, packet in received:
            src = packet.src
            if src in children:
                if packet.kind in (PacketKind.CLUSTER_REPORT, PacketKind.HEARTBEAT):
                    self.last_seen[src] = window
                if packet.kind is PacketKind.CLUSTER_REPORT:
                    self.child_reports[packet.payload["window"]][src] = packet.payload["alert_count"]
                if packet.kind is PacketKind.REGIONAL_ALARM and "alert" in packet.payload:
                    incoming.append(_relayed_copy(packet.payload["alert"], regional))

        own: list[Alert] = []
        evals = 0
        for child in children:
            cell = topo.node(child).cell
            # Lookback pairs each completed window's jamming vote on the child's
            # cell with the child's report about that same window; the report
            # for window w only arrives during w+1 (a scenario's hop latency is
            # below its window), so the current window is excluded.  A missing
            # report is absence, not a zero claim.
            evidence = []
            for w in range(max(0, window - self.thresholds.heartbeat_timeout_windows), window):
                anomalous, vote_ev = self.votes[w][cell]
                reported = self.child_reports[w].get(child)
                evidence.append(
                    {
                        "window": w,
                        "anomalous": anomalous,
                        "reported_zero": reported == 0,
                        "overheard_pdr": vote_ev["pdr"],
                    }
                )
            evals += 2 + len(evidence)
            own.extend(
                watchdog_check(
                    topo,
                    regional,
                    child,
                    window,
                    eng.now,
                    self.last_seen[child],
                    self.thresholds,
                    suppression_evidence=evidence,
                )
            )
        eng.charge_rule_evals(regional, evals)
        for a in own:
            self._log_alert(a)

        if mode is CompromiseMode.FALSE_DATA:
            return  # keeps reporting (data plane) but suppresses every alert

        base = topo.base_id
        for alert in incoming + own:
            _send(eng, regional, base, PacketKind.REGIONAL_ALARM, {"alert": alert}, long_range=True)
        _send(eng, regional, base, PacketKind.REGIONAL_ALARM, long_range=True)
        _send(eng, regional, base, PacketKind.HEARTBEAT, long_range=True)

    # ------------------------------------------------------------------- base

    def _base_step(self, window: int) -> None:
        eng = self.engine
        topo = eng.topology
        base = topo.base_id
        received = eng.inboxes[base]
        regionals = sorted(topo.regional_by_region.values())
        for t, packet in received:
            if packet.src in regionals:
                self.last_seen[packet.src] = window
            if packet.kind is PacketKind.REGIONAL_ALARM and "alert" in packet.payload:
                record = BaseAlertRecord(alert=_relayed_copy(packet.payload["alert"], base), base_arrival_us=t)
                eng.log.base_received.append(record)
        evals = 0
        for regional in regionals:
            evals += 1
            for alert in watchdog_check(
                topo, base, regional, window, eng.now, self.last_seen[regional], self.thresholds
            ):
                self._log_alert(alert)
                eng.log.base_received.append(BaseAlertRecord(alert=alert, base_arrival_us=eng.now))
        eng.charge_rule_evals(base, evals)

    # ----------------------------------------------------------- data reports

    def _send_data_reports(self, window: int) -> None:
        """Data-plane periodic reports: cluster -> regional -> base."""
        eng = self.engine
        topo = eng.topology
        for cell in topo.cells:
            cluster = topo.cluster_of(cell)
            payload = {"window": window, "alert_count": self.reported_alert_counts.get(cluster, 0)}
            _send(eng, cluster, topo.regional_of_cell(cell), PacketKind.CLUSTER_REPORT, payload, control=False)
        for rid in sorted(topo.regional_by_region):
            regional = topo.regional_by_region[rid]
            _send(eng, regional, topo.base_id, PacketKind.REGIONAL_ALARM, control=False, long_range=True)


class FlatMonitors:
    """Per-sensor standalone IDS: the cluster's window step at every sensor, plus gossip."""

    def __init__(self, engine: Engine) -> None:
        self.thresholds = engine.config.detect.resolved(engine.config.radio)
        self.graph = ConnectivityGraph(engine.topology, engine.config.radio.short_range_m)
        topo = engine.topology
        self.neighbors: dict[int, list[int]] = {}
        for s in topo.sensor_ids():
            self.neighbors[s] = [
                v for v in self.graph.adj[s] if topo.role(v) is NodeRole.SENSOR
            ]
        engine.overheard = {s: [] for s in topo.sensor_ids()}
        engine.monitors = self

    def on_window_end(self, engine: Engine, window: int) -> None:
        topo = engine.topology
        votes = jamming_votes(engine.log.window_stats[window], self.thresholds)
        for sensor in topo.sensor_ids():
            found, evals = cluster_pipeline(
                engine, self.graph, sensor, window, engine.overheard[sensor], votes[topo.node(sensor).cell]
            )
            for a in found:
                engine.log.flat_anomalies.append(a)
                _trace_finding(engine, a, "anomaly")
            engine.charge_rule_evals(sensor, evals)
            for peer in self.neighbors[sensor]:
                _send(engine, sensor, peer, PacketKind.HEARTBEAT, {"window": window}, mac_exempt=True)
            for a in found:
                notice = {"anomaly": {"rule": a.rule.value, "suspect": a.suspect, "window": a.window}}
                for peer in self.neighbors[sensor]:
                    _send(engine, sensor, peer, PacketKind.REGIONAL_ALARM, notice, mac_exempt=True)


# ============================================================================
# Ground-truth matching and the base station report
# ============================================================================

RULES_FOR_KIND = {
    "Jamming": {AlertRule.JAMMING_SUSPECTED},
    "SlotSpoof": {AlertRule.SLOT_VIOLATION},
    "SleepReplay": {AlertRule.SLEEP_VIOLATION},
    "RouteDeviation": {AlertRule.ROUTE_DEVIATION},
    "NodeCompromise": {AlertRule.MISSED_HEARTBEAT, AlertRule.SUPPRESSED_ALERTS},
}


def match_alerts(
    ground_truth: list[GroundTruthEvent],
    records: list[BaseAlertRecord],
    window_us: int,
    match_window_count: int,
) -> tuple[dict[int, int], set[int]]:
    """Greedy one-to-one matching of ground truth to received alerts.

    An alert matches an event when its rule is compatible with the attack
    kind, suspects agree, packet ids agree when the event has one, and the
    detection time falls within [event, event + match_window_count windows].
    Returns {gt_index: record_index} plus the set of unmatched record indices
    (false positives).
    """
    span = match_window_count * window_us
    used: set[int] = set()
    pairs: dict[int, int] = {}
    order = sorted(range(len(ground_truth)), key=lambda i: (ground_truth[i].time_us, i))
    for gi in order:
        gt = ground_truth[gi]
        rules = RULES_FOR_KIND.get(gt.kind, set())
        best = None
        for ri, rec in enumerate(records):
            if ri in used:
                continue
            a = rec.alert
            if a.rule not in rules or a.suspect != gt.target:
                continue
            if gt.packet_id is not None and a.packet_id != gt.packet_id:
                continue
            if not (gt.time_us <= a.detected_at <= gt.time_us + span):
                continue
            if best is None or (a.detected_at, rec.base_arrival_us, ri) < best[0]:
                best = ((a.detected_at, rec.base_arrival_us, ri), ri)
        if best is not None:
            used.add(best[1])
            pairs[gi] = best[1]
    unmatched = set(range(len(records))) - used
    return pairs, unmatched


@dataclass
class SummaryReport:
    n_windows: int
    tally: dict[str, dict[str, int]]  # cell/scope -> rule -> count
    timeline: list[dict[str, Any]]
    compromised_monitors: list[str]
    total_alerts: int


def _scope_of(alert: Alert, topology: Topology) -> str:
    node = topology.node(alert.detected_by)
    if node.cell is not None:
        return suspect_cell(node.cell)
    return node.role.value


def base_station_report(
    run_log: RunLog,
    topology: Topology,
    pairs: dict[int, int],
) -> SummaryReport:
    """Compile the per-cell tallies, latency timeline, and compromise list.

    pairs is the run's ground-truth matching, {gt_index: record_index} as
    score() found it (Metrics.matched), so latencies agree with the metrics.
    """
    latency_by_record = {
        ri: run_log.base_received[ri].base_arrival_us - run_log.ground_truth[gi].time_us
        for gi, ri in pairs.items()
    }
    monitors = {
        suspect_node(n)
        for n in (*topology.cluster_by_cell.values(), *topology.regional_by_region.values())
    }
    tally: dict[str, dict[str, int]] = {}
    timeline = []
    compromised: set[str] = set()
    for ri, rec in enumerate(run_log.base_received):
        a = rec.alert
        scope = _scope_of(a, topology)
        tally.setdefault(scope, {})
        tally[scope][a.rule.value] = tally[scope].get(a.rule.value, 0) + 1
        timeline.append(
            {
                "detected_at_us": a.detected_at,
                "layer": a.layer,
                "rule": a.rule.value,
                "suspect": a.suspect,
                "detected_by": a.detected_by,
                "base_arrival_us": rec.base_arrival_us,
                "latency_us": latency_by_record.get(ri),
                "hop_trail": list(a.hop_trail),
            }
        )
        if a.rule in (AlertRule.MISSED_HEARTBEAT, AlertRule.SUPPRESSED_ALERTS) and a.suspect in monitors:
            compromised.add(a.suspect)
    return SummaryReport(
        n_windows=run_log.n_windows,
        tally=tally,
        timeline=timeline,
        compromised_monitors=sorted(compromised),
        total_alerts=len(run_log.base_received),
    )
