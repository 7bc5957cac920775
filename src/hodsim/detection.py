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
long-range uplink.  A cluster's outbox holds the alarm packets it sent at its
last step.  A hop is shorter than a window, so such a packet is in the
regional's inbox at the next step if and only if it was delivered; the ack
then drops it, and the cluster resends each packet left as a new packet with
the same payload, ahead of the step's new alarms.  So no alarm reaches a node
twice, and the regional relays, and the base records, every alarm it
receives.  An alarm carries the Alert itself; each node that receives one
keeps its own copy with itself appended to the hop trail, so an alert is
never changed once logged.  The periodic data reports (cluster report,
regional summary) are overlay traffic too: HodMonitors sends them at the end
of every window, after the alarm and heartbeat traffic.

For suppression a regional keeps one count per member cluster: the run of
consecutive closed windows whose jamming vote fired on the cluster's cell
while the cluster reported zero alerts about them.  The report about a window
arrives during the next one, so each step extends or ends the run by the
window before; a missing report ends it, and so does a Silent regional step,
which leaves its inbox unread.  SuppressedAlerts fires once the run reaches
the heartbeat timeout.

An alert's layer follows from its rule and names the protocol layer it guards:
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
from dataclasses import dataclass
from typing import Any

from .mac import SmacSchedule, TdmaSchedule, is_sleep_violation, is_slot_violation
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
    """One finding: which rule fired on whom, where, when, and the hops it took."""

    rule: AlertRule
    suspect: str
    detected_by: int
    detected_at: SimTime
    window: int
    hop_trail: list[int]
    packet_id: int | None = None

    @property
    def layer(self) -> str:
        return LAYER_OF_RULE[self.rule]

    def dedup_key(self) -> tuple:
        return (self.rule.value, self.suspect, self.window, self.packet_id)


def _new_alert(
    rule: AlertRule,
    suspect: str,
    detected_by: int,
    now: SimTime,
    window: int,
    packet_id: int | None = None,
) -> Alert:
    return Alert(
        rule=rule,
        suspect=suspect,
        detected_by=detected_by,
        detected_at=now,
        window=window,
        hop_trail=[detected_by],
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


def check_route(graph: ConnectivityGraph, packet: Packet) -> bool:
    """Whether a data packet addressed to its destination left the expected route.

    The observed path is read from the header alone: the claimed origin, the
    link-layer sender when that is a relay (src != origin), and the
    destination.  The engine relays a packet at most once, so this is every
    node the packet passed through, whether or not its last hop was delivered.
    A pair with no route is no violation.
    """
    expected = graph.expected_route(packet.origin, packet.dst)
    if expected is None:
        return False
    if packet.src == packet.origin:
        return expected != [packet.origin, packet.dst]
    return expected != [packet.origin, packet.src, packet.dst]


# ============================================================================
# Windowed jamming vote
# ============================================================================


def detect_jamming(stats: ChannelWindowStats, thresholds: DetectorThresholds) -> bool:
    """k-of-3 vote over PDR, mean idle RSSI, and mean carrier-sense time."""
    if thresholds.idle_rssi_max_dbm is None or thresholds.carrier_sense_max_us is None:
        raise AssertionError("thresholds must be resolved against the radio model")
    trips = (
        (stats.pdr < thresholds.pdr_min)
        + (stats.mean_idle_rssi_dbm > thresholds.idle_rssi_max_dbm)
        + (stats.mean_carrier_sense_us > thresholds.carrier_sense_max_us)
    )
    return trips >= thresholds.vote_k


def jamming_votes(
    stats_by_cell: dict[HexCoord, ChannelWindowStats], thresholds: DetectorThresholds
) -> dict[HexCoord, bool]:
    """One window's jamming vote for every cell: {cell: fired}."""
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
) -> tuple[list[AlertRule], int]:
    """Apply the per-packet rules to one data packet bound for its cell's cluster.

    t_tx is the claimed transmit time, members the sensors of the cell, and
    tdma and smac its schedules.  Returns the rules that fired, each against
    the claimed origin, plus the number of rules evaluated: 1 when the
    foreign-origin check short-circuits, otherwise 4.
    """
    if packet.origin not in members:
        return [AlertRule.FOREIGN_ORIGIN], 1
    findings = []
    if is_slot_violation(tdma, packet.origin, t_tx):
        findings.append(AlertRule.SLOT_VIOLATION)
    if is_sleep_violation(smac, t_tx):
        findings.append(AlertRule.SLEEP_VIOLATION)
    if check_route(graph, packet):
        findings.append(AlertRule.ROUTE_DEVIATION)
    return findings, 4


def cluster_pipeline(
    engine: Engine,
    graph: ConnectivityGraph,
    detector: int,
    window: int,
    received: list[tuple[SimTime, Packet]],
    jammed: bool,
) -> tuple[list[Alert], int]:
    """Run one detector's window: gather, detect, package.

    The detector is a cluster node reading its inbox (overlay) or a sensor
    reading what it overheard (flat baseline); either way it judges its own
    cell's channel and the data packets addressed to its cell's cluster.
    jammed is that cell's jamming vote, taken once when the window closed.
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

    evals = 1
    if jammed:
        alerts.append(_new_alert(AlertRule.JAMMING_SUSPECTED, suspect_cell(cell), detector, now, window))

    for arrival, packet in received:
        if packet.dst != cluster or packet.kind not in DATA_KINDS:
            continue
        t_tx = arrival - latency  # claimed transmit time reconstructed from the hop latency
        findings, n = evaluate_data_packet(packet, t_tx, sensors, tdma, smac, graph)
        evals += n
        suspect = suspect_node(packet.origin)
        alerts.extend(
            _new_alert(rule, suspect, detector, now, window, packet.packet_id) for rule in findings
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
    suppressed: int = 0,
) -> list[Alert]:
    """Liveness and suppression checks for one (monitor, monitored) pair.

    MissedHeartbeat fires once the monitored node has been silent for the
    heartbeat timeout.  suppressed is the run of consecutive closed windows
    whose jamming vote fired on the child's cell while the child reported
    zero alerts about them; SuppressedAlerts fires once it reaches the
    heartbeat timeout.
    """
    pair = (topology.role(monitor_id), topology.role(monitored_id))
    if pair not in _LEGAL_WATCHDOG_PAIRS:
        raise ValueError(
            f"illegal watchdog pair {pair[0].value} -> {pair[1].value}; the hierarchy "
            "monitors exactly one layer down"
        )
    # the suspect string is built only for a rule that fires
    alerts: list[Alert] = []
    timeout = thresholds.heartbeat_timeout_windows
    if window - last_seen_window >= timeout:
        alerts.append(_new_alert(AlertRule.MISSED_HEARTBEAT, suspect_node(monitored_id), monitor_id, now, window))
    if suppressed >= timeout:
        alerts.append(_new_alert(AlertRule.SUPPRESSED_ALERTS, suspect_node(monitored_id), monitor_id, now, window))
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


def _relayed_copy(alert: Alert, node: int) -> Alert:
    """The receiving node's own copy of a relayed alert, with itself on the hop trail."""
    return dataclasses.replace(alert, hop_trail=[*alert.hop_trail, node])


class HodMonitors:
    """Attaches the four-layer overlay to an engine."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.thresholds = engine.config.detect.resolved(engine.config.radio)
        self.graph = ConnectivityGraph(engine.topology, engine.config.radio.short_range_m)
        topo = engine.topology
        clusters = [topo.cluster_of(c) for c in topo.cells]
        # cluster -> the alarm packets it sent last; the ack drops those its regional received
        self.cluster_outbox: dict[int, list[Packet]] = {c: [] for c in clusters}
        # node -> last window its watcher saw a sign of life from it (every node but the base)
        self.last_seen: dict[int, int] = {
            n.node_id: -1 for n in topo.nodes if n.role is not NodeRole.BASE
        }
        # cluster -> the run of consecutive closed windows, up to the last one,
        # whose jamming vote fired on its cell while it reported zero alerts about them
        self.suppressed_windows: dict[int, int] = dict.fromkeys(clusters, 0)
        self.votes: dict[HexCoord, bool] = {}  # this window's jamming vote per cell
        engine.inboxes = {m: [] for m in topo.monitor_ids()}
        engine.monitors = self

    # ------------------------------------------------------------------ hooks

    def on_window_end(self, engine: Engine, window: int) -> None:
        topo = engine.topology
        previous_votes, self.votes = self.votes, jamming_votes(engine.log.window_stats[window], self.thresholds)
        reported = [self._cluster_step(topo.cluster_of(cell), cell, window) for cell in topo.cells]
        for rid in sorted(topo.regional_by_region):
            self._regional_step(topo.regional_by_region[rid], rid, window, previous_votes)
        self._base_step(window)
        self._send_data_reports(reported)

    # ---------------------------------------------------------------- cluster

    def _log_alert(self, alert: Alert) -> None:
        self.engine.log.alerts.append(alert)
        _trace_finding(self.engine, alert, "alert")

    def _cluster_step(self, cluster: int, cell: HexCoord, window: int) -> int:
        """One cluster's window step; returns the alert count its data report claims."""
        eng = self.engine
        regional = eng.topology.regional_of_cell(cell)
        outbox = self.cluster_outbox[cluster]
        if outbox:
            # the ack: an alarm sent at the last step resolved within this window
            # (a hop is shorter than a window), so it is in the regional's inbox
            # if and only if it was delivered; taken even while Silent, so that
            # a cluster that recovers resends only what was lost
            delivered = {packet.packet_id for _t, packet in eng.inboxes[regional]}
            outbox[:] = [p for p in outbox if p.packet_id not in delivered]
        mode = active_at(eng.compromise, cluster, eng.now)
        if mode is CompromiseMode.SILENT:
            return 0
        received = eng.inboxes[cluster]
        alerts, evals = cluster_pipeline(eng, self.graph, cluster, window, received, self.votes[cell])

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
            payloads, reported = [], 0
        else:
            # the unacked alarms again, as new packets, then this window's
            payloads = [p.payload for p in outbox] + [{"alert": a} for a in alerts]
            reported = len(alerts)
        outbox[:] = [
            eng.new_packet(PacketKind.REGIONAL_ALARM, cluster, regional, payload=payload, control=True)
            for payload in payloads
        ]
        eng.send(*outbox, eng.new_packet(PacketKind.HEARTBEAT, cluster, regional, control=True))
        return reported

    # --------------------------------------------------------------- regional

    def _regional_step(self, regional: int, rid: int, window: int, previous_votes: dict[HexCoord, bool]) -> None:
        """One regional's window step; previous_votes is the jamming vote of the window before."""
        eng = self.engine
        topo = eng.topology
        mode = active_at(eng.compromise, regional, eng.now)
        children = [topo.cluster_of(c) for c in topo.regions[rid]]
        if mode is CompromiseMode.SILENT:
            # the inbox goes unread, and with it this step's reports: every run restarts
            for child in children:
                self.suppressed_windows[child] = 0
            return
        received = eng.inboxes[regional]

        incoming: list[Alert] = []
        reports: dict[int, int] = {}  # child -> the alert count it reported about the window before
        for _t, packet in received:
            src = packet.src
            if src in children:
                if packet.kind in (PacketKind.CLUSTER_REPORT, PacketKind.HEARTBEAT):
                    self.last_seen[src] = window
                if packet.kind is PacketKind.CLUSTER_REPORT:
                    reports[src] = packet.payload["alert_count"]
                if packet.kind is PacketKind.REGIONAL_ALARM and "alert" in packet.payload:
                    incoming.append(_relayed_copy(packet.payload["alert"], regional))

        own: list[Alert] = []
        # A report sent at the last step arrived during this window (a
        # scenario's hop latency is below its window), so this step closes the
        # window before: its jamming vote on the child's cell against the
        # child's report about it.  A missing report is absence, not a zero claim.
        for child in children:
            cell = topo.node(child).cell
            if previous_votes.get(cell, False) and reports.get(child) == 0:
                self.suppressed_windows[child] += 1
            else:
                self.suppressed_windows[child] = 0
            own.extend(
                watchdog_check(
                    topo,
                    regional,
                    child,
                    window,
                    eng.now,
                    self.last_seen[child],
                    self.thresholds,
                    suppressed=self.suppressed_windows[child],
                )
            )
        # per child: its two watchdog rules, plus one check per window of the run the timeout covers
        evals = len(children) * (2 + min(window, self.thresholds.heartbeat_timeout_windows))
        eng.charge_rule_evals(regional, evals)
        for a in own:
            self._log_alert(a)

        if mode is CompromiseMode.FALSE_DATA:
            return  # keeps reporting (data plane) but suppresses every alert

        base = topo.base_id
        burst = [
            eng.new_packet(PacketKind.REGIONAL_ALARM, regional, base, payload={"alert": alert}, control=True)
            for alert in incoming + own
        ]
        burst.append(eng.new_packet(PacketKind.REGIONAL_ALARM, regional, base, control=True))
        burst.append(eng.new_packet(PacketKind.HEARTBEAT, regional, base, control=True))
        eng.send(*burst)

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

    def _send_data_reports(self, reported: list[int]) -> None:
        """Data-plane periodic reports, in one burst: cluster -> regional -> base.

        reported holds, in topology.cells order, the alert count each cluster's report claims.
        """
        eng = self.engine
        topo = eng.topology
        burst = []
        for cell, alert_count in zip(topo.cells, reported):
            cluster = topo.cluster_of(cell)
            regional = topo.regional_of_cell(cell)
            burst.append(
                eng.new_packet(PacketKind.CLUSTER_REPORT, cluster, regional, payload={"alert_count": alert_count})
            )
        for rid in sorted(topo.regional_by_region):
            burst.append(eng.new_packet(PacketKind.REGIONAL_ALARM, topo.regional_by_region[rid], topo.base_id))
        eng.send(*burst)


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
            # one burst per sensor: its heartbeats, then its notices, to each peer
            peers = self.neighbors[sensor]
            burst = engine.fan_out(PacketKind.HEARTBEAT, sensor, peers, control=True)
            for a in found:
                notice = {"anomaly": {"rule": a.rule.value, "suspect": a.suspect, "window": a.window}}
                burst += engine.fan_out(PacketKind.REGIONAL_ALARM, sensor, peers, payload=notice, control=True)
            engine.send(*burst)


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
