"""Shared helpers: engine factories, ledger audits, and log serialization."""

import csv
import gc
import io
import math
from collections import Counter

import pytest

from hodsim.cli import write_trace
from hodsim.config import ScenarioConfig, SimSection, TopologyConfig
from hodsim.simcore import Engine, EnergyModel, MacConfig, RadioModel, WorkloadConfig


@pytest.fixture
def collector_paused():
    """Collect once, then keep the cyclic collector off for the test.

    A run that leaves a reference cycle behind then stays alive until a
    gc.collect() the test makes itself, instead of until a pass the
    collector happens to start.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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
    attacks=(),
    **sim_kwargs,
):
    """A small engine with workload off by default, for hand-driven tests.

    Timing keywords (aggregation_window_us, sensing_tick_us, drain_us) go to
    the scenario's sim section, so its range checks apply.  The attacks are
    the scenario's; apply_attacks(engine) injects them.
    """
    scenario = ScenarioConfig(
        topology=TopologyConfig(rings=rings, sensors_per_cell=sensors_per_cell),
        radio=radio or RadioModel(),
        energy=energy or EnergyModel(),
        mac=mac or MacConfig(),
        workload=workload or WorkloadConfig(sensors_enabled=False),
        sim=SimSection(horizon_windows=horizon_windows, **sim_kwargs),
        attacks=list(attacks),
        seed=seed,
    )
    return Engine(scenario, seed=seed, mode=mode)


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


def assert_trace_replays(log):
    """The written trace CSV alone recomputes each node's messages sent by kind
    (RunLog.counters) and each cell's sends and deliveries per window
    (RunLog.window_stats).

    A message is a tx row with energy > 0: a forged send's tx row has none, so
    this holds while the tx energy coefficients are > 0.  A send is a message
    with a cell (a long-range hop has none); a delivery is a Delivered rx row
    of a hop, (packet_id, src), that is a send.  A row's window is
    time_us // window_us, and rows in the drain after the last window are
    skipped.
    """
    buf = io.StringIO()
    write_trace(log, buf)
    rows = list(csv.DictReader(line for line in buf.getvalue().splitlines() if not line.startswith("#")))
    messages = [r for r in rows if r["event"] == "tx" and float(r["energy_uj"]) > 0]
    by_node = {}
    for r in messages:
        by_node.setdefault(int(r["src"]), Counter())[r["kind"]] += 1
    assert by_node == {n: c.sent for n, c in log.counters.items() if c.sent}

    sends = [r for r in messages if r["cell"]]
    hops = {(r["packet_id"], r["src"]) for r in sends}
    deliveries = [
        r for r in rows
        if r["event"] == "rx" and r["outcome"] == "Delivered" and (r["packet_id"], r["src"]) in hops
    ]
    replayed = {}
    for column, kept in ((0, sends), (1, deliveries)):
        for r in kept:
            window = int(r["time_us"]) // log.window_us
            if window < log.n_windows:
                replayed.setdefault((window, r["cell"]), [0, 0])[column] += 1
    recorded = {
        (w, f"{cell.q},{cell.r}"): [s.sent, s.delivered]
        for w, by_cell in enumerate(log.window_stats)
        for cell, s in by_cell.items()
        if s.sent or s.delivered
    }
    assert replayed == recorded
