"""Shared helpers: engine factories, ledger audits, and log serialization."""

import math

from hodsim.config import ScenarioConfig, SimSection, TopologyConfig
from hodsim.simcore import Engine, EnergyModel, MacConfig, RadioModel, WorkloadConfig
from hodsim.topology import build_topology


def make_engine(
    rings=1,
    sensors_per_cell=2,
    seed=1,
    mode="hod",
    radio=None,
    energy=None,
    mac=None,
    workload=None,
    horizon_windows=3,
    **sim_kwargs,
):
    """A small engine with workload off by default, for hand-driven tests.

    Timing keywords (aggregation_window_us, sensing_tick_us, drain_us) go to
    the scenario's sim section, so its range checks apply.
    """
    scenario = ScenarioConfig(
        topology=TopologyConfig(rings=rings, sensors_per_cell=sensors_per_cell),
        radio=radio or RadioModel(),
        energy=energy or EnergyModel(),
        mac=mac or MacConfig(),
        workload=workload or WorkloadConfig(sensors_enabled=False),
        sim=SimSection(horizon_windows=horizon_windows, **sim_kwargs),
        seed=seed,
    )
    topo = build_topology(
        rings=rings,
        sensors_per_cell=sensors_per_cell,
        cell_radius_m=scenario.topology.cell_radius_m,
        seed=seed,
    )
    return Engine(topo, scenario, seed=seed, mode=mode)


def energy_from_events(log):
    """Rebuild per-node energy from the trace: tx/idle/rule_eval bill the
    source, rx bills the destination."""
    per_node: dict[int, float] = {}
    for e in log.events:
        if e.energy_uj == 0.0:
            continue
        if e.event_kind == "rx":
            node = e.dst
        elif e.event_kind in ("tx", "idle", "rule_eval"):
            node = e.src
        else:
            continue
        if node is None:
            continue
        per_node[node] = per_node.get(node, 0.0) + e.energy_uj * 1e-6
    return per_node


def assert_energy_ledger_consistent(log):
    """Every joule in the meters is accounted for by exactly one trace event."""
    from_events = energy_from_events(log)
    for node_id, meter in log.meters.items():
        expect = from_events.get(node_id, 0.0)
        assert math.isclose(meter.total_j, expect, rel_tol=1e-9, abs_tol=1e-15), (
            f"node {node_id}: meter {meter.total_j} != trace sum {expect}"
        )


def serialize_log(log):
    """Stable byte-for-byte text form of everything a run produced."""
    parts = [f"mode={log.mode} seed={log.seed} hash={log.scenario_hash}"]
    parts.extend(repr(e) for e in log.events)
    parts.extend(repr(g) for g in log.ground_truth)
    parts.extend(repr(a) for a in log.alerts)
    parts.extend(repr(r) for r in log.base_received)
    parts.extend(repr(a) for a in log.flat_anomalies)
    parts.extend(repr(s) for by_cell in log.window_stats for s in by_cell.values())
    parts.extend(f"{nid}:{log.meters[nid]!r}" for nid in sorted(log.meters))
    parts.extend(f"{nid}:{log.counters[nid]!r}" for nid in sorted(log.counters))
    return "\n".join(parts)
