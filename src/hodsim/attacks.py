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

A spec is checked when it is built, and fitted to its scenario when that is
built (check_attacks_fit).  Injection happens before the event loop starts;
every sampled emission time and every ground-truth record derives from a
per-attack seeded stream, so a scenario replays identically.  Attacker radios are external: they spend no
metered energy and appear in no message counters.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .simcore import (
    CompromiseMode,
    Engine,
    GroundTruthEvent,
    InterferenceSource,
    PacketKind,
)
from .mac import is_awake, slot_owner_at
from .topology import HexCoord, axial_to_xy, hex_distance, suspect_cell, suspect_node

if TYPE_CHECKING:
    from .config import ScenarioConfig


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
    """A forgery's interval holds no emission time that meets its schedule constraints."""


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
        # the checks that need the spec alone; check_attacks_fit makes those that need its scenario
        if not 0 <= self.start_us < self.end_us:
            raise ValueError(f"need 0 <= start_us < end_us, got {self.start_us} and {self.end_us}")
        for name in ("cell", "region"):
            if name in read and getattr(self, name) is None:
                raise ValueError(f"a {self.kind.value} attack needs '{name}'")
        if self.packet_count < 1:
            raise ValueError(f"packet_count must be >= 1, got {self.packet_count}")
        for name in ("sensor_index", "relay_index", "region"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


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


def check_attacks_fit(scenario: ScenarioConfig) -> None:
    """Raise ValueError, naming 'attacks[i].<field>', for the first attack that does not fit
    its scenario's grid, schedules or horizon; only _sample_time can then refuse an attack."""
    topo, sim = scenario.topology, scenario.sim
    horizon_us = sim.horizon_windows * sim.aggregation_window_us
    n_regions = (topo.rings + 1) ** 2  # group_regions' count for a centered patch
    n_sensors = topo.sensors_per_cell
    # a field the kind does not read holds its default, None or sensor_index 0, which always fits
    for i, spec in enumerate(scenario.attacks):
        at = f"'attacks[{i}]"
        if spec.end_us > horizon_us:
            raise ValueError(f"{at}.end_us' ({spec.end_us}) is past the horizon ({horizon_us} us)")
        if spec.cell is not None and hex_distance(spec.cell, HexCoord(0, 0)) > topo.rings:
            cell = f"{spec.cell.q},{spec.cell.r}"
            raise ValueError(f"{at}.cell' ({cell}) is not in the grid of {topo.rings} rings")
        if spec.region is not None and spec.region >= n_regions:
            last = n_regions - 1
            raise ValueError(f"{at}.region' ({spec.region}) does not exist: the grid has regions 0 to {last}")
        for name in ("sensor_index", "relay_index"):
            index = getattr(spec, name)
            if index is not None and index >= n_sensors:
                raise ValueError(f"{at}.{name}' ({index}) is past the {n_sensors} sensors of a cell")
        if spec.relay_index == spec.sensor_index:
            raise ValueError(f"{at}.relay_index' ({spec.relay_index}) is the victim's own sensor_index")
        # a forged slot or a detour relay needs a second sensor in the cell
        if spec.kind in (AttackKind.SLOT_SPOOF, AttackKind.ROUTE_DEVIATION) and n_sensors < 2:
            raise ValueError(f"{at}.kind' ({spec.kind.value}) needs topology.sensors_per_cell >= 2")
        if spec.kind is AttackKind.SLEEP_REPLAY and scenario.mac.awake_fraction >= 1.0:
            raise ValueError(f"{at}.kind' (SleepReplay) needs a cell that sleeps: mac.awake_fraction < 1")


def _emitter_position(engine: Engine, spec: AttackSpec) -> tuple[float, float]:
    if spec.position is not None:
        return spec.position
    return axial_to_xy(spec.cell, engine.topology.cell_radius_m)


def _victim(engine: Engine, spec: AttackSpec) -> int:
    return engine.topology.sensors_of(spec.cell)[spec.sensor_index]


# ---------------------------------------------------------------------------
# per-kind injectors
# ---------------------------------------------------------------------------


def inject_jamming(engine: Engine, spec: AttackSpec, rng: random.Random) -> None:
    x, y = _emitter_position(engine, spec)
    engine.interference.append(
        InterferenceSource(x=x, y=y, power_dbm=spec.power_dbm, start_us=spec.start_us, end_us=spec.end_us)
    )
    engine.log.ground_truth.append(
        GroundTruthEvent(
            time_us=spec.start_us,
            kind=AttackKind.JAMMING.value,
            target=suspect_cell(spec.cell),
            detail=f"{spec.power_dbm:g} dBm at ({x:.1f},{y:.1f})",
            end_us=spec.end_us,
        )
    )


def _schedule_forgeries(
    engine: Engine, spec: AttackSpec, rng: random.Random, victim: int, accept, fallback
) -> None:
    cell = spec.cell
    cluster = engine.topology.cluster_of(cell)
    pos = _emitter_position(engine, spec)
    times = [_sample_time(rng, spec, accept, fallback) for _ in range(spec.packet_count)]
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
    victim = _victim(engine, spec)
    tdma = engine.tdma[spec.cell]
    smac = engine.smac[spec.cell]

    def foreign_awake(t: int) -> bool:
        return slot_owner_at(tdma, t) != victim and is_awake(smac, t)

    _schedule_forgeries(engine, spec, rng, victim, foreign_awake, None)


def inject_sleep_replay(engine: Engine, spec: AttackSpec, rng: random.Random) -> None:
    victim = _victim(engine, spec)
    tdma = engine.tdma[spec.cell]
    smac = engine.smac[spec.cell]

    def asleep_own_slot(t: int) -> bool:
        # preferred: inside the sleep window and the victim's own slot, so the
        # sleep rule is the only one that can fire
        return not is_awake(smac, t) and slot_owner_at(tdma, t) == victim

    def asleep(t: int) -> bool:
        return not is_awake(smac, t)

    _schedule_forgeries(engine, spec, rng, victim, asleep_own_slot, asleep)


def inject_route_deviation(engine: Engine, spec: AttackSpec, rng: random.Random) -> None:
    victim = _victim(engine, spec)
    sensors = engine.topology.sensors_of(spec.cell)
    if spec.relay_index is not None:
        relay = sensors[spec.relay_index]
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
        target = topo.cluster_of(spec.cell)
    else:
        target = topo.regional_by_region[spec.region]
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


def apply_attacks(engine: Engine) -> None:
    """Inject engine.config.attacks in order, each from its own seeded stream; run before engine.run()."""
    for i, spec in enumerate(engine.config.attacks):
        rng = random.Random(f"{engine.seed}|attack|{i}")
        _INJECTORS[spec.kind](engine, spec, rng)
