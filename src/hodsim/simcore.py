"""Deterministic discrete-event core: clock, radio, energy, workload, windows.

The engine runs the one ScenarioConfig it is given and keeps it as
Engine.config: it builds its topology from the topology section and the seed,
reads every other section from it (apply_attacks(engine) injects its attacks),
and derives the run log's scenario hash and config echo from it, so a run
always reports the configuration it ran.

Everything runs on an integer microsecond clock.  Each event is a handler and
its one argument (a hop record, a packet, a planned report or a window index),
kept on the engine's binary heap as (time, sequence, handler, argument); the
engine schedules no closures.  Events execute in strict (time, sequence) order,
so identical inputs replay to byte-identical logs.  The engine is
detection-agnostic: monitor layers (the hierarchical overlay or the flat
per-sensor baseline) attach as a hook object and are invoked once per
aggregation window.  A monitor registers the receive buffers it reads (cluster
and overlay inboxes, or promiscuous overhearing lists) and sends its own
protocol traffic through Engine.send; the engine only fills the registered
buffers with (time, packet) entries and clears them after each window.

Deliveries: RunLog.delivered_to records the last receiver of the ground-truth
packet ids alone, registered once the workload is planned (scoring asks which
of them reached a cluster); no other delivery is kept.  A monitor that wants
to know whether its own packet arrived reads the receiver's inbox.

Windows: at each aggregation-window boundary the engine closes the window's
per-cell channel statistics (data sends, deliveries, PDR, mean idle RSSI at
the cluster node, mean carrier-sense time) into RunLog.window_stats, indexed
[window][cell], charges every node its idle cost, and then calls the monitor
hook.  Monitors read the statistics of any closed window from that one store
and keep no copy of their own.

Workload: every periodic sensor report of the run is planned as integers when
the run starts.  Its jitter, packet id, any RouteDeviation ground truth and its
heap sequence number are fixed then, in (cell, sensor, report) order, and it is
kept as (time, sequence, packet id, sensor, destination).  Only the next report
sits on the heap; its Packet is built when it is sent, so a run holds the
packets in flight rather than every report of the horizon, and equal-time ties
resolve as if each report had been scheduled at the start.

Hops: a Packet carries only its header (ids, kind, payload and flags); no
send or delivery changes it, and every hop is priced at the configured
packet_size_bits.  Engine.send decides every fact about a hop once (the true
transmit position, the cell it is traced and counted in, whether it counts
toward that cell's PDR, whether it contends for a cluster's channel, its
sampled RSSI) and carries them on the hop's _PendingTx record; resolution,
delivery and overhearing read the record and decide nothing again.  One writer
traces every hop row (tx, drop, rx, overheard rx) and one every node row (idle
and rule_eval charges, findings).

Overhearing: the registered overhearing sensors that hear a transmit position
at zero shadowing are found once, on the first data send from that position
(a node's own, or a phantom's forged one), from Topology.within at the radio's
reach, and kept with their RSSI in ascending id order.  Each send then skips
its transmitter and its destination and applies the jammer SINR test per
listener.

Radio: log-distance path loss with optional gaussian shadowing per
transmission.  A packet is delivered iff its sampled RSSI clears the receiver
sensitivity and the signal-to-interference ratio clears the SINR threshold
against the noise floor plus any active jammers.  The summed jammer level at a
position is computed once per set of active jammers and kept on the engine
(Engine.interference_dbm_at); with no jammer active it is the noise floor.
Only in-range data-plane sends into a cluster node contend for its channel:
two that overlap in time collide and both drop.  Scheduled control-plane
messages are modeled on a separate logical channel, and sends to any other
receiver do not collide.

Energy: first-order radio model.  Transmit cost is e_elec * bits +
e_amp * bits * d^2, receive cost is e_elec * bits; monitors additionally pay a
fixed cost per detection-rule evaluation and every node pays a small idle cost
per window.  Every charge is logged, so meters can be audited against the
event trace.
"""

from __future__ import annotations

import enum
import heapq
import math
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

from .mac import (
    SmacSchedule,
    TdmaSchedule,
    build_tdma,
    is_awake,
    next_compliant_slot,
)
from .topology import HexCoord, Node, NodeRole, build_topology, suspect_node

if TYPE_CHECKING:
    from .config import ScenarioConfig

SimTime = int  # microseconds


# ============================================================================
# Radio and energy models
# ============================================================================


def power_sum_dbm(*levels_dbm: float) -> float:
    """Combine power levels in dBm (sum in linear milliwatts)."""
    return 10.0 * math.log10(sum(10.0 ** (v / 10.0) for v in levels_dbm))


@dataclass(frozen=True)
class RadioModel:
    path_loss_exponent: float = 2.4
    reference_loss_db: float = 40.0  # at 1 m
    noise_floor_dbm: float = -95.0
    rx_sensitivity_dbm: float = -85.0
    sinr_threshold_db: float = 6.0
    shadowing_sigma_db: float = 0.0
    short_range_m: float = 75.0
    tx_power_dbm: float = 0.0
    long_range_reliable: bool = True
    per_hop_latency_us: int = 2000
    airtime_us: int = 1000
    cs_busy_threshold_dbm: float = -90.0
    cs_turnaround_us: int = 128
    cs_busy_wait_us: int = 5000

    def __post_init__(self) -> None:
        # written as not (x > 0) so that a NaN fails too
        for key in ("airtime_us", "per_hop_latency_us", "short_range_m", "path_loss_exponent"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0")
        for key in ("shadowing_sigma_db", "cs_turnaround_us", "cs_busy_wait_us"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be >= 0")
        # a hop resolves one latency after it starts: were its airtime still
        # running then, a later overlapping send would drop and it would not
        if not self.per_hop_latency_us >= self.airtime_us:
            raise ValueError(
                f"per_hop_latency_us ({self.per_hop_latency_us}) must be >= "
                f"airtime_us ({self.airtime_us})"
            )

    def path_loss_db(self, distance_m: float) -> float:
        # distances under the 1 m reference are clamped to the reference
        d = max(distance_m, 1.0)
        return self.reference_loss_db + 10.0 * self.path_loss_exponent * math.log10(d)

    def deterministic_rssi(self, distance_m: float, tx_power_dbm: float | None = None) -> float:
        p = self.tx_power_dbm if tx_power_dbm is None else tx_power_dbm
        return p - self.path_loss_db(distance_m)

    def rssi_at(self, distance_m: float, rng: random.Random) -> float:
        """Sampled RSSI at tx_power_dbm: deterministic path loss plus gaussian shadowing."""
        base = self.deterministic_rssi(distance_m)
        if self.shadowing_sigma_db > 0.0:
            return base + rng.gauss(0.0, self.shadowing_sigma_db)
        return base


@dataclass(frozen=True)
class EnergyModel:
    e_elec_j_per_bit: float = 50e-9
    e_amp_j_per_bit_m2: float = 100e-12
    rule_eval_j: float = 5e-6
    idle_j_per_window: float = 1e-6
    packet_size_bits: int = 512

    def __post_init__(self) -> None:
        if self.packet_size_bits <= 0:
            raise ValueError("packet_size_bits must be > 0")
        for key in ("e_elec_j_per_bit", "e_amp_j_per_bit_m2", "rule_eval_j", "idle_j_per_window"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be >= 0")

    def tx_energy_j(self, bits: int, distance_m: float) -> float:
        return self.e_elec_j_per_bit * bits + self.e_amp_j_per_bit_m2 * bits * distance_m**2

    def rx_energy_j(self, bits: int) -> float:
        return self.e_elec_j_per_bit * bits


@dataclass
class EnergyMeter:
    tx_j: float = 0.0
    rx_j: float = 0.0
    idle_j: float = 0.0
    rule_eval_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.tx_j + self.rx_j + self.idle_j + self.rule_eval_j


# ============================================================================
# Packets and log records
# ============================================================================


class PacketKind(enum.Enum):
    SENSOR_DATA = "SensorData"
    CLUSTER_REPORT = "ClusterReport"
    REGIONAL_ALARM = "RegionalAlarm"
    HEARTBEAT = "Heartbeat"
    ATTACK_TRAFFIC = "AttackTraffic"


# data-plane kinds: what the detection rules inspect and the flat baseline overhears
DATA_KINDS = (PacketKind.SENSOR_DATA, PacketKind.ATTACK_TRAFFIC)


class Outcome(enum.Enum):
    DELIVERED = "Delivered"
    OUT_OF_RANGE = "Dropped(OutOfRange)"
    JAMMED = "Dropped(Jammed)"
    COLLISION = "Dropped(Collision)"


@dataclass(slots=True)
class Packet:
    packet_id: int
    kind: PacketKind
    src: int  # claimed link-layer sender
    origin: int  # claimed original source
    dst: int
    payload: dict[str, Any] = field(default_factory=dict)
    control: bool = False  # IDS control plane (separate logical channel)
    long_range: bool = False
    mac_exempt: bool = False  # attack machinery bypasses sender-side MAC asserts
    phantom_pos: tuple[float, float] | None = None  # true tx position if forged


@dataclass(slots=True)
class TraceEvent:
    time_us: SimTime
    event_kind: str  # tx | rx | drop | idle | rule_eval | alert | anomaly
    src: int | None
    dst: int | None
    cell: HexCoord | None
    outcome: str
    rssi_dbm: float | None
    energy_uj: float
    packet_id: int | None = None
    pkt_kind: str = ""
    control: bool = False


@dataclass
class GroundTruthEvent:
    time_us: SimTime
    kind: str  # attack kind name
    target: str  # suspect string expected from a correct detector
    detail: str
    packet_id: int | None = None
    end_us: SimTime | None = None


@dataclass
class ChannelWindowStats:
    cell: HexCoord
    window: int
    sent: int
    delivered: int
    pdr: float
    mean_idle_rssi_dbm: float
    mean_carrier_sense_us: float


@dataclass
class MessageCounters:
    sent: dict[str, int] = field(default_factory=dict)
    control_sent: int = 0

    def total_sent(self) -> int:
        return sum(self.sent.values())


@dataclass
class RunLog:
    """Everything a finished run produced, sufficient for scoring and replay."""

    mode: str
    seed: int
    scenario_hash: str
    config_echo: dict[str, Any]
    horizon_us: SimTime
    window_us: SimTime
    n_windows: int
    events: list[TraceEvent] = field(default_factory=list)
    ground_truth: list[GroundTruthEvent] = field(default_factory=list)
    alerts: list[Any] = field(default_factory=list)  # detection.Alert, generation order
    base_received: list[Any] = field(default_factory=list)  # detection.BaseAlertRecord
    flat_anomalies: list[Any] = field(default_factory=list)  # detection.Alert, flat mode
    window_stats: list[dict[HexCoord, ChannelWindowStats]] = field(default_factory=list)  # [window][cell]
    meters: dict[int, EnergyMeter] = field(default_factory=dict)
    counters: dict[int, MessageCounters] = field(default_factory=dict)
    delivered_to: dict[int, int] = field(default_factory=dict)  # ground-truth packet id -> last receiver


# ============================================================================
# Scenario-level configuration consumed by the engine
# ============================================================================


@dataclass(frozen=True)
class MacConfig:
    slot_duration_us: int = 10_000
    frame_length: int | None = None  # default: sensors_per_cell
    smac_period_us: int | None = None  # default: 2 * frame duration
    awake_fraction: float = 0.5
    phase_offset_us: int = 0

    def __post_init__(self) -> None:
        if self.slot_duration_us <= 0:
            raise ValueError("slot_duration_us must be > 0")
        if self.smac_period_us is not None and self.smac_period_us <= 0:
            raise ValueError("smac_period_us must be > 0")
        if not 0.0 < self.awake_fraction <= 1.0:
            raise ValueError("awake_fraction must be in (0, 1]")


@dataclass(frozen=True)
class WorkloadConfig:
    report_interval_us: int = 1_000_000
    jitter_frac: float = 0.1
    sensors_enabled: bool = True

    def __post_init__(self) -> None:
        if self.report_interval_us <= 0:
            raise ValueError("report_interval_us must be > 0")
        if self.jitter_frac < 0:
            raise ValueError("jitter_frac must be >= 0")


@dataclass(frozen=True)
class InterferenceSource:
    x: float
    y: float
    power_dbm: float
    start_us: SimTime
    end_us: SimTime


class CompromiseMode(enum.Enum):
    SILENT = "Silent"
    FALSE_DATA = "FalseData"


@dataclass(slots=True)
class _PendingTx:
    """One hop from send to delivery, carrying every fact Engine.send decided about it."""

    start_us: SimTime
    end_us: SimTime
    packet: Packet
    transmitter: int | None  # the metered node keying the radio; None for a phantom
    tx_pos: tuple[float, float]  # true transmit position (the forger's, for a phantom)
    cell: HexCoord | None  # sender's cell, or the claimed origin's for a phantom
    counted: bool  # counts toward its cell's sent/delivered totals
    contends: bool  # in-range data send into a cluster: enters its collision table
    rssi_dbm: float | None  # None on the reliable long-range channel (no shadowing draw)
    in_range: bool


def active_at(intervals: dict[Any, list[tuple[SimTime, SimTime, Any]]], key: Any, t: SimTime) -> Any:
    """The value of key's first (start, end, value) interval that holds t, or None."""
    for start, end, value in intervals.get(key, ()):
        if start <= t < end:
            return value
    return None


# ============================================================================
# Engine
# ============================================================================


class Engine:
    """Runs one scenario: owns the clock, the radio, and all per-window accounting."""

    def __init__(self, config: ScenarioConfig, seed: int, mode: str) -> None:
        self.topology = topology = build_topology(
            config.topology.rings, config.topology.sensors_per_cell, config.topology.cell_radius_m, seed
        )
        self.config = config
        self.seed = seed
        self.now: SimTime = 0
        # (time, seq, handler, arg): seq breaks ties in schedule order
        self._heap: list[tuple[SimTime, int, Callable[[Any], object], Any]] = []
        self._seq = 0
        # planned sensor reports not yet on the heap, latest first (_plan_workload)
        self._reports: list[tuple[SimTime, int, int, int, int]] = []
        self.monitors: Any = None

        self._shadow_rng = random.Random(f"{seed}|shadow")
        self._jitter_rng = random.Random(f"{seed}|jitter")
        self._idle_rng = random.Random(f"{seed}|idle-rssi")
        self._packet_seq = 0
        # one position tuple per node, shared by the records of every hop it
        # transmits: a new tuple per hop in flight would add collector work
        self._positions = [(n.x, n.y) for n in topology.nodes]

        # per-cell schedules
        self.tdma: dict[HexCoord, TdmaSchedule] = {}
        self.smac: dict[HexCoord, SmacSchedule] = {}
        mac = config.mac
        for cell in topology.cells:
            sensors = topology.sensors_of(cell)
            frame_len = mac.frame_length if mac.frame_length is not None else len(sensors)
            tdma = build_tdma(sensors, frame_len, mac.slot_duration_us)
            period = (
                mac.smac_period_us
                if mac.smac_period_us is not None
                else 2 * tdma.frame_duration_us
            )
            self.tdma[cell] = tdma
            self.smac[cell] = SmacSchedule(
                period_us=period,
                awake_fraction=mac.awake_fraction,
                phase_offset_us=mac.phase_offset_us,
            )

        # attack state (populated by the attacks module before run())
        self.interference: list[InterferenceSource] = []
        # (x, y, indices of the active jammers) -> summed level: interference_dbm_at's
        self._interference_levels: dict[tuple[float, float, tuple[int, ...]], float] = {}
        self.compromise: dict[int, list[tuple[SimTime, SimTime, CompromiseMode]]] = {}
        self.route_overrides: dict[int, list[tuple[SimTime, SimTime, int]]] = {}

        # per-window accounting
        w = config.sim.aggregation_window_us
        self.log = RunLog(
            mode=mode,
            seed=seed,
            scenario_hash=config.scenario_hash(seed),
            config_echo=config.echo(),
            horizon_us=w * config.sim.horizon_windows,
            window_us=w,
            n_windows=config.sim.horizon_windows,
        )
        for n in topology.nodes:
            self.log.meters[n.node_id] = EnergyMeter()
            self.log.counters[n.node_id] = MessageCounters()

        # cluster node -> in-range data sends into it that may still collide
        self._contending: dict[int, list[_PendingTx]] = {}
        self._cell_sent: dict[HexCoord, int] = {c: 0 for c in topology.cells}
        self._cell_delivered: dict[HexCoord, int] = {c: 0 for c in topology.cells}
        self._cell_cs_samples: dict[HexCoord, list[int]] = {c: [] for c in topology.cells}
        # receive buffers, registered by the attached monitor
        self.inboxes: dict[int, list[tuple[SimTime, Packet]]] = {}
        self.overheard: dict[int, list[tuple[SimTime, Packet]]] = {}
        # the ground-truth packet ids, whose deliveries RunLog.delivered_to records
        self._truth_ids: set[int] = set()
        # transmit position -> its overhearing sensors, filled on its first data send
        self._listeners: dict[tuple[float, float], list[tuple[int, Node, float]]] = {}
        # every hop is packet_size_bits long, so every reception costs the same
        self._rx_j = config.energy.rx_energy_j(config.energy.packet_size_bits)

    # ------------------------------------------------------------------ utils

    def next_packet_id(self) -> int:
        pid = self._packet_seq
        self._packet_seq += 1
        return pid

    def new_packet(
        self,
        kind: PacketKind,
        src: int,
        dst: int,
        *,
        payload: dict[str, Any] | None = None,
        control: bool = False,
        long_range: bool = False,
        mac_exempt: bool = False,
        phantom_pos: tuple[float, float] | None = None,
    ) -> Packet:
        """A packet from src with the next id; its origin is src."""
        # positional, in field order: keyword matching costs more than the rest
        return Packet(
            self.next_packet_id(), kind, src, src, dst,
            {} if payload is None else payload, control, long_range, mac_exempt, phantom_pos,
        )

    def schedule(self, t: SimTime, handler: Callable[[Any], object], arg: Any) -> None:
        """Call handler(arg) at time t; equal times fire in schedule order."""
        if t < self.now:
            raise ValueError(f"cannot schedule event at {t} before current time {self.now}")
        heapq.heappush(self._heap, (t, self._seq, handler, arg))
        self._seq += 1

    def interference_dbm_at(self, x: float, y: float, t0: SimTime, t1: SimTime | None = None) -> float:
        """Noise floor plus all jammers active anywhere in [t0, t1).

        With no jammer active this is the noise floor.  Otherwise the level
        is summed once per position and set of active jammers, and kept: the
        key holds the jammers' indices in self.interference, to which attacks
        only ever append, so a jammer added later makes a new key and never
        meets a level summed without it.
        """
        t1 = t0 + 1 if t1 is None else t1
        active: tuple[int, ...] = ()
        for i, src in enumerate(self.interference):
            if src.start_us < t1 and src.end_us > t0:
                active += (i,)
        if not active:
            return self.config.radio.noise_floor_dbm
        key = (x, y, active)
        level = self._interference_levels.get(key)
        if level is None:
            radio = self.config.radio
            levels = [radio.noise_floor_dbm]
            for i in active:
                src = self.interference[i]
                d = math.hypot(x - src.x, y - src.y)
                levels.append(radio.deterministic_rssi(d, src.power_dbm))
            level = self._interference_levels[key] = power_sum_dbm(*levels)
        return level

    # ------------------------------------------------------------------ trace

    def _trace_hop(
        self,
        event_kind: str,
        packet: Packet,
        dst: int,
        cell: HexCoord | None,
        outcome: str,
        rssi: float | None,
        joules: float,
        control: bool = False,
    ) -> None:
        """Trace one hop event: tx, drop, rx or overheard rx."""
        # positional, in field order, and _value_ rather than the slower
        # Enum.value property: this runs for every hop event
        self.log.events.append(
            TraceEvent(
                self.now,
                event_kind,
                packet.src,
                dst,
                cell,
                outcome,
                rssi,
                joules * 1e6,
                packet.packet_id,
                packet.kind._value_,
                control,
            )
        )

    def trace_node_event(
        self,
        node: int,
        kind: str,
        joules: float = 0.0,
        outcome: str = "",
        packet_id: int | None = None,
        pkt_kind: str = "",
    ) -> None:
        """Trace one node's event that no hop carries: an idle or rule_eval charge, or a finding."""
        self.log.events.append(
            TraceEvent(
                self.now,
                kind,
                node,
                None,
                self.topology.nodes[node].cell,
                outcome,
                None,
                joules * 1e6,
                packet_id,
                pkt_kind,
            )
        )

    # ----------------------------------------------------------------- energy

    def charge_rule_evals(self, node_id: int, count: int) -> None:
        """Fixed per-rule-evaluation cost on the evaluating node."""
        if count <= 0:
            return
        joules = self.config.energy.rule_eval_j * count
        self.log.meters[node_id].rule_eval_j += joules
        self.trace_node_event(node_id, "rule_eval", joules)

    # ------------------------------------------------------------------- send

    def send(self, packet: Packet) -> None:
        """Transmit a packet at the current time.

        Silent-compromised nodes transmit nothing.  The sender pays transmit
        energy whether or not the packet will be delivered; delivery resolves
        one hop latency later.  Every fact about the hop is decided here and
        carried on its _PendingTx record to delivery.
        """
        radio = self.config.radio
        nodes = self.topology.nodes
        if packet.phantom_pos is None:
            transmitter: int | None = packet.src
            src_node = nodes[packet.src]
            if active_at(self.compromise, packet.src, self.now) is CompromiseMode.SILENT:
                return
            if src_node.role is NodeRole.SENSOR and not packet.mac_exempt:
                # compliant sensors only transmit inside their wake window
                if not is_awake(self.smac[src_node.cell], self.now):
                    raise AssertionError(
                        f"sensor {packet.src} transmitting outside wake window at {self.now}"
                    )
            tx_pos = self._positions[packet.src]
            cell = src_node.cell
        else:
            transmitter = None  # external attacker hardware is not metered
            tx_pos = packet.phantom_pos
            cell = nodes[packet.origin].cell
        counted = transmitter is not None and cell is not None and not packet.long_range
        dst_node = nodes[packet.dst]
        distance = math.hypot(tx_pos[0] - dst_node.x, tx_pos[1] - dst_node.y)

        energy = 0.0
        if transmitter is not None:
            energy = self.config.energy.tx_energy_j(self.config.energy.packet_size_bits, distance)
            self.log.meters[transmitter].tx_j += energy
            counters = self.log.counters[transmitter]
            kind = packet.kind._value_
            counters.sent[kind] = counters.sent.get(kind, 0) + 1
            if packet.control:
                counters.control_sent += 1
            if counted:
                self._cell_sent[cell] += 1
                if src_node.role is NodeRole.CLUSTER:
                    self._record_carrier_sense(cell, tx_pos)
        self._trace_hop("tx", packet, packet.dst, cell, "", None, energy, control=packet.control)

        if packet.long_range and radio.long_range_reliable:
            rssi, in_range, contends = None, True, False
        else:
            rssi = radio.rssi_at(distance, self._shadow_rng)
            in_range = rssi >= radio.rx_sensitivity_dbm
            contends = in_range and not packet.control and dst_node.role is NodeRole.CLUSTER
        # positional, in field order: one per send, and keyword matching
        # would cost more than the rest of the constructor
        hop = _PendingTx(
            self.now,
            self.now + radio.airtime_us,
            packet,
            transmitter,
            tx_pos,
            cell,
            counted,
            contends,
            rssi,
            in_range,
        )
        if contends:
            self._contending.setdefault(packet.dst, []).append(hop)
        t_arrive = self.now + radio.per_hop_latency_us
        if rssi is None:  # the reliable long-range channel always delivers
            self.schedule(t_arrive, self._deliver, hop)
        else:
            self.schedule(t_arrive, self._resolve, hop)

    def _record_carrier_sense(self, cell: HexCoord, pos: tuple[float, float]) -> None:
        radio = self.config.radio
        level = self.interference_dbm_at(pos[0], pos[1], self.now)
        wait = radio.cs_turnaround_us
        if level > radio.cs_busy_threshold_dbm:
            wait += radio.cs_busy_wait_us
        self._cell_cs_samples[cell].append(wait)

    def _collides(self, hop: _PendingTx) -> bool:
        # slot collisions only matter on the shared data channel into a cluster
        if not hop.contends:
            return False
        for other in self._contending[hop.packet.dst]:
            if other is not hop and other.start_us < hop.end_us and other.end_us > hop.start_us:
                return True
        return False

    def _resolve(self, hop: _PendingTx) -> None:
        radio = self.config.radio
        packet = hop.packet
        dst_node = self.topology.nodes[packet.dst]
        outcome = Outcome.DELIVERED
        if not hop.in_range:
            outcome = Outcome.OUT_OF_RANGE
        else:
            interference = self.interference_dbm_at(dst_node.x, dst_node.y, hop.start_us, hop.end_us)
            if hop.rssi_dbm - interference < radio.sinr_threshold_db:
                outcome = Outcome.JAMMED
            elif self._collides(hop):
                outcome = Outcome.COLLISION

        if outcome is Outcome.DELIVERED:
            self._deliver(hop)
        else:
            self._trace_hop("drop", packet, packet.dst, hop.cell, outcome._value_, hop.rssi_dbm, 0.0)
        self._overhear(hop)
        # Every hop resolves one latency after it starts, so every send still
        # unresolved started no earlier than this one: an entry that ended
        # before this one started can collide with nothing any more.
        lst = self._contending.get(packet.dst)
        if lst is not None:
            self._contending[packet.dst] = [p for p in lst if p.end_us > hop.start_us]

    def _deliver(self, hop: _PendingTx) -> None:
        packet = hop.packet
        dst = packet.dst
        self.log.meters[dst].rx_j += self._rx_j
        if hop.counted:
            self._cell_delivered[hop.cell] += 1
        if packet.packet_id in self._truth_ids:
            self.log.delivered_to[packet.packet_id] = dst
        self._trace_hop("rx", packet, dst, hop.cell, Outcome.DELIVERED._value_, hop.rssi_dbm, self._rx_j)
        if dst in self.inboxes:
            self.inboxes[dst].append((self.now, packet))
        dst_node = self.topology.nodes[dst]
        if dst_node.role is NodeRole.SENSOR and packet.kind is PacketKind.SENSOR_DATA:
            self._relay_onward(packet, dst)

    def _relay_onward(self, packet: Packet, relay: int) -> None:
        """Second hop of a detoured intra-cell route (attack machinery)."""
        cell = self.topology.node(packet.origin).cell
        cluster = self.topology.cluster_of(cell)
        # forwarded inside the victim's own slot so only the route layer fires
        t = next_compliant_slot(self.tdma[cell], self.smac[cell], packet.origin, self.now)
        self.schedule(t, self.send, replace(packet, src=relay, dst=cluster, mac_exempt=True))

    def _listeners_at(self, pos: tuple[float, float]) -> list[tuple[int, Node, float]]:
        """The registered overhearing sensors that hear pos at zero shadowing.

        Each is (sensor, node, deterministic RSSI), ascending by id.
        """
        radio = self.config.radio
        x, y = pos
        # deterministic_rssi(d) clears the sensitivity iff max(d, 1) <= 10**exponent;
        # within() is asked for that reach (kept in [1, 1e300] m) widened by a
        # relative 1e-9, and the exact test below decides, as a full scan would
        exponent = (radio.tx_power_dbm - radio.reference_loss_db - radio.rx_sensitivity_dbm) / (
            10.0 * radio.path_loss_exponent
        )
        reach = max(10.0 ** min(exponent, 300.0), 1.0)
        listeners = []
        for sensor_id in self.topology.within(x, y, reach * (1.0 + 1e-9)):
            if sensor_id not in self.overheard:
                continue
            node = self.topology.node(sensor_id)
            det = radio.deterministic_rssi(math.hypot(x - node.x, y - node.y))
            if det >= radio.rx_sensitivity_dbm:
                listeners.append((sensor_id, node, det))
        return listeners

    def _overhear(self, hop: _PendingTx) -> None:
        """Flat-baseline promiscuous listening on data-plane transmissions.

        A transmit position's listeners (_listeners_at, candidates from
        Topology.within) are found on the first data send from it and kept,
        for metered and phantom sends alike.  Each send skips its transmitter
        and its destination and runs the jammer SINR test per listener.
        """
        if not self.overheard:
            return
        packet = hop.packet
        if packet.kind not in DATA_KINDS:
            return
        listeners = self._listeners.get(hop.tx_pos)
        if listeners is None:
            listeners = self._listeners[hop.tx_pos] = self._listeners_at(hop.tx_pos)
        radio = self.config.radio
        rx_j = self._rx_j
        for sensor_id, node, det in listeners:
            if sensor_id == packet.dst or sensor_id == hop.transmitter:
                continue
            interference = self.interference_dbm_at(node.x, node.y, hop.start_us, hop.end_us)
            if det - interference < radio.sinr_threshold_db:
                continue
            self.log.meters[sensor_id].rx_j += rx_j
            self._trace_hop("rx", packet, sensor_id, node.cell, "Overheard", det, rx_j)
            self.overheard[sensor_id].append((self.now, packet))

    # ------------------------------------------------------------- run window

    def _collect_window_stats(self, window: int) -> None:
        radio = self.config.radio
        sim = self.config.sim
        w_start = window * sim.aggregation_window_us
        ticks = max(1, sim.aggregation_window_us // sim.sensing_tick_us)
        by_cell: dict[HexCoord, ChannelWindowStats] = {}
        for cell in self.topology.cells:
            cluster = self.topology.node(self.topology.cluster_of(cell))
            samples = []
            for i in range(ticks):
                t = w_start + i * sim.sensing_tick_us
                level = self.interference_dbm_at(cluster.x, cluster.y, t)
                if radio.shadowing_sigma_db > 0.0:
                    level += self._idle_rng.gauss(0.0, radio.shadowing_sigma_db)
                samples.append(level)
            cs = self._cell_cs_samples[cell]
            sent = self._cell_sent[cell]
            delivered = self._cell_delivered[cell]
            by_cell[cell] = ChannelWindowStats(
                cell=cell,
                window=window,
                sent=sent,
                delivered=delivered,
                pdr=(delivered / sent) if sent else 1.0,
                mean_idle_rssi_dbm=sum(samples) / len(samples),
                mean_carrier_sense_us=(sum(cs) / len(cs)) if cs else float(radio.cs_turnaround_us),
            )
            self._cell_sent[cell] = 0
            self._cell_delivered[cell] = 0
            self._cell_cs_samples[cell] = []
        self.log.window_stats.append(by_cell)

    def _window_boundary(self, window: int) -> None:
        self._collect_window_stats(window)
        idle = self.config.energy.idle_j_per_window
        if idle > 0.0:
            for n in self.topology.nodes:
                self.log.meters[n.node_id].idle_j += idle
                self.trace_node_event(n.node_id, "idle", idle)
        if self.monitors is not None:
            self.monitors.on_window_end(self, window)
        for inbox in self.inboxes.values():
            inbox.clear()
        for lst in self.overheard.values():
            lst.clear()

    def _plan_workload(self) -> None:
        """Plan every sensor report as (time, seq, packet id, sensor, dst); see Workload above."""
        wl = self.config.workload
        if not wl.sensors_enabled:
            return
        horizon = self.log.horizon_us
        interval = wl.report_interval_us
        jitter_span = int(interval * wl.jitter_frac)
        reports = []
        for cell in self.topology.cells:
            tdma = self.tdma[cell]
            smac = self.smac[cell]
            cluster = self.topology.cluster_of(cell)
            for sensor in self.topology.sensors_of(cell):
                k = 0
                while True:
                    nominal = k * interval
                    if nominal >= horizon:
                        break
                    jitter = self._jitter_rng.randint(-jitter_span, jitter_span) if jitter_span else 0
                    t = next_compliant_slot(tdma, smac, sensor, max(nominal + jitter, 0))
                    if t < horizon:
                        relay = active_at(self.route_overrides, sensor, t)
                        packet_id = self.next_packet_id()
                        if relay is not None:
                            self.log.ground_truth.append(
                                GroundTruthEvent(
                                    time_us=t,
                                    kind="RouteDeviation",
                                    target=suspect_node(sensor),
                                    detail=f"detour via node {relay}",
                                    packet_id=packet_id,
                                )
                            )
                        reports.append((t, self._seq, packet_id, sensor, cluster if relay is None else relay))
                        self._seq += 1
                    k += 1
        # latest first, so the next report is popped off the end
        reports.sort(reverse=True)
        self._reports = reports
        self._schedule_next_report()

    def _schedule_next_report(self) -> None:
        """Put the next planned report on the heap under the sequence number it was planned with."""
        if self._reports:
            report = self._reports.pop()
            heapq.heappush(self._heap, (report[0], report[1], self._send_report, report))

    def _send_report(self, report: tuple[SimTime, int, int, int, int]) -> None:
        _t, _seq, packet_id, sensor, dst = report
        self._schedule_next_report()
        self.send(Packet(packet_id, PacketKind.SENSOR_DATA, sensor, sensor, dst))

    def run(self) -> RunLog:
        """Execute the scenario to its horizon and return the completed log.

        What is left on the heap after the drain, and the monitors, are
        dropped: both refer back to the engine, so the engine and its log are
        freed by reference counting once the caller lets go of them.
        """
        # boundaries are scheduled before the workload so that at an exact
        # boundary instant the window rolls over before any same-time send
        sim = self.config.sim
        for window in range(sim.horizon_windows):
            self.schedule((window + 1) * sim.aggregation_window_us, self._window_boundary, window)
        self._plan_workload()
        self._truth_ids.update(gt.packet_id for gt in self.log.ground_truth if gt.packet_id is not None)
        t_end = self.log.horizon_us + sim.drain_us
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            t, _, handler, arg = heapq.heappop(heap)
            if t < self.now:
                raise AssertionError("event queue went backwards")
            self.now = t
            handler(arg)
        heap.clear()
        self.monitors = None
        return self.log
