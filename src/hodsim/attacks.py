"""Attack injection with ground truth.

Each attack kind is a minimal parametric model chosen to trigger exactly one
detection surface:

* Jamming        - a continuous interferer raising the noise seen by every
                   receiver per the path-loss model (physical layer).
* SlotSpoof      - forged packets claiming a victim origin, emitted in TDMA
                   slots the victim does not own, inside wake windows.
* SleepReplay    - forged packets claiming a victim origin while the victim's
                   cell is in its sleep period (and, when the schedule allows,
                   inside the victim's own slot so the slot rule stays quiet).
* RouteDeviation - the victim's data is detoured through another sensor in the
                   cell; the relay forwards inside the victim's own slot, so
                   only the route check can see it.
* NodeCompromise - a cluster or regional node goes Silent (emits nothing) or
                   FalseData (keeps reporting, suppresses all alerts).

Injection happens before the event loop starts; every sampled emission time
and every ground-truth record derives from a per-attack seeded stream, so a
scenario replays identically.  Attacker radios are external: they spend no
metered energy and appear in no message counters.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, fields

from .simcore import (
    CompromiseMode,
    Engine,
    GroundTruthEvent,
    InterferenceSource,
    PacketKind,
)
from .mac import is_awake, slot_owner_at
from .topology import HexCoord, axial_to_xy, suspect_cell, suspect_node


class AttackKind(enum.Enum):
    JAMMING = "Jamming"
    SLOT_SPOOF = "SlotSpoof"
    SLEEP_REPLAY = "SleepReplay"
    ROUTE_DEVIATION = "RouteDeviation"
    NODE_COMPROMISE = "NodeCompromise"


class TargetRole(enum.Enum):
    CLUSTER = "cluster"
    REGIONAL = "regional"


# the enum fields of AttackSpec; each also takes its value, as YAML gives it
_ENUM_FIELDS = {"kind": AttackKind, "target_role": TargetRole, "compromise_mode": CompromiseMode}


class AttackSpecError(ValueError):
    """An attack spec is inconsistent with the topology or schedules."""


@dataclass(frozen=True)
class AttackSpec:
    kind: AttackKind
    start_us: int
    end_us: int
    cell: HexCoord | None = None
    # jamming / spoof emitter
    power_dbm: float = 10.0
    position: tuple[float, float] | None = None  # default: target cell centroid
    # spoof / replay / deviation
    packet_count: int = 5
    sensor_index: int = 0  # victim, as an index into the cell's sensors
    relay_index: int | None = None  # deviation detour; default nearest sensor
    # node compromise
    target_role: TargetRole = TargetRole.CLUSTER
    region: int | None = None
    compromise_mode: CompromiseMode = CompromiseMode.SILENT

    def __post_init__(self) -> None:
        for name, cls in _ENUM_FIELDS.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, cls(value))
            except ValueError:
                allowed = ", ".join(repr(m.value) for m in cls)
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}") from None
        # a field the kind never reads would be ignored in silence; its default is what the echo writes
        read = fields_read(self)
        for f in fields(self):
            if f.name not in read and getattr(self, f.name) != f.default:
                takes = ", ".join(g.name for g in fields(self) if g.name in read)
                raise ValueError(
                    f"'{f.name}' is not used by a {self.kind.value} attack (it takes {takes})"
                )


# the AttackSpec fields each kind's injector reads; NodeCompromise also reads
# cell or region, by its target_role (see fields_read)
_FORGERY_READS = frozenset({"cell", "position", "packet_count", "sensor_index"})
_READS: dict[AttackKind, frozenset[str]] = {
    AttackKind.JAMMING: frozenset({"cell", "power_dbm", "position"}),
    AttackKind.SLOT_SPOOF: _FORGERY_READS,
    AttackKind.SLEEP_REPLAY: _FORGERY_READS,
    AttackKind.ROUTE_DEVIATION: frozenset({"cell", "sensor_index", "relay_index"}),
    AttackKind.NODE_COMPROMISE: frozenset({"target_role", "compromise_mode"}),
}
_TARGET_FIELD = {TargetRole.CLUSTER: {"cell"}, TargetRole.REGIONAL: {"region"}}


def fields_read(spec: AttackSpec) -> frozenset[str]:
    """The fields of spec that its kind's injector reads; any other field is ignored."""
    read = _READS[spec.kind] | {"kind", "start_us", "end_us"}
    if spec.kind is AttackKind.NODE_COMPROMISE:
        read |= _TARGET_FIELD[spec.target_role]
    return read


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AttackSpecError(msg)


def _resolve_cell(engine: Engine, spec: AttackSpec) -> HexCoord:
    _require(spec.cell is not None, f"{spec.kind.value}: target cell is required")
    _require(
        spec.cell in engine.topology.cluster_by_cell,
        f"{spec.kind.value}: cell ({spec.cell.q},{spec.cell.r}) is not in the grid",
    )
    return spec.cell


def _resolve_victim(engine: Engine, spec: AttackSpec, cell: HexCoord) -> int:
    sensors = engine.topology.sensors_of(cell)
    _require(
        0 <= spec.sensor_index < len(sensors),
        f"{spec.kind.value}: sensor_index {spec.sensor_index} out of range "
        f"(cell has {len(sensors)} sensors)",
    )
    return sensors[spec.sensor_index]


def _emitter_position(engine: Engine, spec: AttackSpec, cell: HexCoord) -> tuple[float, float]:
    if spec.position is not None:
        return spec.position
    return axial_to_xy(cell, engine.topology.cell_radius_m)


def _check_interval(engine: Engine, spec: AttackSpec) -> None:
    _require(
        0 <= spec.start_us < spec.end_us <= engine.log.horizon_us,
        f"{spec.kind.value}: interval [{spec.start_us}, {spec.end_us}) must lie "
        f"within [0, {engine.log.horizon_us}]",
    )


# ---------------------------------------------------------------------------
# per-kind injectors
# ---------------------------------------------------------------------------


def inject_jamming(engine: Engine, spec: AttackSpec, rng: random.Random) -> None:
    cell = _resolve_cell(engine, spec)
    _check_interval(engine, spec)
    x, y = _emitter_position(engine, spec, cell)
    engine.interference.append(
        InterferenceSource(x=x, y=y, power_dbm=spec.power_dbm, start_us=spec.start_us, end_us=spec.end_us)
    )
    engine.log.ground_truth.append(
        GroundTruthEvent(
            time_us=spec.start_us,
            kind=AttackKind.JAMMING.value,
            target=suspect_cell(cell),
            detail=f"{spec.power_dbm:g} dBm at ({x:.1f},{y:.1f})",
            end_us=spec.end_us,
        )
    )


def _schedule_forgeries(
    engine: Engine,
    spec: AttackSpec,
    rng: random.Random,
    cell: HexCoord,
    victim: int,
    accept,
    fallback,
) -> None:
    cluster = engine.topology.cluster_of(cell)
    pos = _emitter_position(engine, spec, cell)
    _require(spec.packet_count >= 1, f"{spec.kind.value}: packet_count must be >= 1")
    times: list[int] = []
    for _ in range(spec.packet_count):
        t = _sample_time(rng, spec, accept, fallback)
        times.append(t)
    for t in sorted(times):
        # forged link-layer identity, sent from the attacker's position
        packet = engine.new_packet(PacketKind.ATTACK_TRAFFIC, victim, cluster, phantom_pos=pos)
        engine.log.ground_truth.append(
            GroundTruthEvent(
                time_us=t,
                kind=spec.kind.value,
                target=suspect_node(victim),
                detail=f"forged origin {victim} into cell ({cell.q},{cell.r})",
                packet_id=packet.packet_id,
            )
        )
        engine.schedule(t, engine.send, packet)


def _sample_time(rng, spec, accept, fallback, tries: int = 20_000) -> int:
    for _ in range(tries):
        t = rng.randrange(spec.start_us, spec.end_us)
        if accept(t):
            return t
    if fallback is not None:
        for _ in range(tries):
            t = rng.randrange(spec.start_us, spec.end_us)
            if fallback(t):
                return t
    raise AttackSpecError(
        f"{spec.kind.value}: no emission time satisfying the schedule constraints "
        f"found in [{spec.start_us}, {spec.end_us})"
    )


def inject_slot_spoof(engine: Engine, spec: AttackSpec, rng: random.Random) -> None:
    cell = _resolve_cell(engine, spec)
    victim = _resolve_victim(engine, spec, cell)
    tdma = engine.tdma[cell]
    smac = engine.smac[cell]
    _require(
        tdma.owners() != {victim},
        "SlotSpoof: every slot in the frame belongs to the spoofed origin; "
        "no foreign slot exists",
    )
    _check_interval(engine, spec)

    def foreign_awake(t: int) -> bool:
        return slot_owner_at(tdma, t) != victim and is_awake(smac, t)

    _schedule_forgeries(engine, spec, rng, cell, victim, foreign_awake, None)


def inject_sleep_replay(engine: Engine, spec: AttackSpec, rng: random.Random) -> None:
    cell = _resolve_cell(engine, spec)
    victim = _resolve_victim(engine, spec, cell)
    tdma = engine.tdma[cell]
    smac = engine.smac[cell]
    _require(
        smac.awake_fraction < 1.0,
        "SleepReplay: the cell never sleeps (awake_fraction = 1), nothing to replay into",
    )
    _check_interval(engine, spec)

    def asleep_own_slot(t: int) -> bool:
        # preferred: inside the sleep window and the victim's own slot, so the
        # sleep rule is the only one that can fire
        return not is_awake(smac, t) and slot_owner_at(tdma, t) == victim

    def asleep(t: int) -> bool:
        return not is_awake(smac, t)

    _schedule_forgeries(engine, spec, rng, cell, victim, asleep_own_slot, asleep)


def inject_route_deviation(engine: Engine, spec: AttackSpec, rng: random.Random) -> None:
    cell = _resolve_cell(engine, spec)
    victim = _resolve_victim(engine, spec, cell)
    sensors = engine.topology.sensors_of(cell)
    _require(
        len(sensors) >= 2,
        "RouteDeviation: the cell has no second sensor to act as a detour relay",
    )
    _check_interval(engine, spec)
    if spec.relay_index is not None:
        _require(
            0 <= spec.relay_index < len(sensors),
            f"RouteDeviation: relay_index {spec.relay_index} out of range",
        )
        relay = sensors[spec.relay_index]
        _require(
            relay != victim,
            "RouteDeviation: the detour relay must differ from the best-route next hop",
        )
    else:
        relay = min(
            (s for s in sensors if s != victim),
            key=lambda s: (engine.topology.distance(s, victim), s),
        )
    engine.route_overrides.setdefault(victim, []).append((spec.start_us, spec.end_us, relay))
    # per-packet ground truth is emitted when the workload plans each detoured send


def inject_node_compromise(engine: Engine, spec: AttackSpec, rng: random.Random) -> None:
    topo = engine.topology
    if spec.target_role is TargetRole.CLUSTER:
        target = topo.cluster_of(_resolve_cell(engine, spec))
    else:
        _require(spec.region is not None, "NodeCompromise: region id is required for regional targets")
        _require(
            spec.region in topo.regional_by_region,
            f"NodeCompromise: region {spec.region} does not exist",
        )
        target = topo.regional_by_region[spec.region]
    _check_interval(engine, spec)
    engine.compromise.setdefault(target, []).append((spec.start_us, spec.end_us, spec.compromise_mode))
    engine.log.ground_truth.append(
        GroundTruthEvent(
            time_us=spec.start_us,
            kind=AttackKind.NODE_COMPROMISE.value,
            target=suspect_node(target),
            detail=spec.compromise_mode.value,
            end_us=spec.end_us,
        )
    )


_INJECTORS = {
    AttackKind.JAMMING: inject_jamming,
    AttackKind.SLOT_SPOOF: inject_slot_spoof,
    AttackKind.SLEEP_REPLAY: inject_sleep_replay,
    AttackKind.ROUTE_DEVIATION: inject_route_deviation,
    AttackKind.NODE_COMPROMISE: inject_node_compromise,
}


def apply_attacks(engine: Engine, specs: list[AttackSpec]) -> None:
    """Validate and inject all attacks; must run before engine.run()."""
    for i, spec in enumerate(specs):
        rng = random.Random(f"{engine.seed}|attack|{i}")
        _INJECTORS[spec.kind](engine, spec, rng)
