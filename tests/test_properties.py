"""Property test: random small scenarios against the determinism and ledger invariants.

Scenarios span rings 0-2, 1-4 sensors per cell, 2-6 windows, shadowing off or
at 4 dB, and up to three attacks of any kind that fit the grid: target cells
and regions drawn from it, intervals inside the horizon, and a forgery or
detour only with a second sensor in the cell.  Either the regional -> base
uplink is reliable, or it takes the short-range link budget at 30 dBm, which
reaches the base from every regional at rings <= 2.  Runs whose forgery
interval holds no admissible emission time (AttackSpecError) are discarded.

An alarm raised at window w reaches the base at step w + 2, and a copy resent
one step later at w + 3.  So only a run of at least w + 4 windows shows a
cluster that resends a delivered alarm, as two base records with one dedup
key.  The horizons reach 6 windows, but whether a draw holds such a run
depends on the draw, and any edit to the test redraws it; so one pinned
example, ALARM_IN_WINDOW_0, always does.

Every run's trace is also written by cli.write_trace and compared with the
csv module's formatting of the same rows.
"""

import io

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import assert_energy_ledger_consistent, assert_trace_replays, serialize_log
from hodsim.attacks import AttackKind, AttackSpec, AttackSpecError
from hodsim.cli import _header, _trace_rows, write_trace
from hodsim.config import ScenarioConfig, SimSection, TopologyConfig
from hodsim.metrics import rows_to_csv, run_scenario, score
from hodsim.simcore import RadioModel
from hodsim.topology import NodeRole, build_hex_grid

W = 1_000_000


@st.composite
def attack_specs(draw, rings, sensors_per_cell, horizon_us):
    # a forged slot or a detour relay needs a second sensor in the cell
    needs_two = (AttackKind.SLOT_SPOOF, AttackKind.ROUTE_DEVIATION)
    kind = draw(st.sampled_from([k for k in AttackKind if sensors_per_cell > 1 or k not in needs_two]))
    start = draw(st.integers(0, horizon_us - 1))
    spec = dict(
        kind=kind,
        start_us=start,
        end_us=draw(st.integers(start + 1, horizon_us)),
        cell=draw(st.sampled_from(build_hex_grid(rings))),
    )
    sensor_index = st.integers(0, sensors_per_cell - 1)
    if kind is AttackKind.JAMMING:
        spec["power_dbm"] = draw(st.sampled_from([0.0, 10.0, 20.0]))
    elif kind in (AttackKind.SLOT_SPOOF, AttackKind.SLEEP_REPLAY):
        spec["packet_count"] = draw(st.integers(1, 3))
        spec["sensor_index"] = draw(sensor_index)
    elif kind is AttackKind.ROUTE_DEVIATION:
        victim = draw(sensor_index)
        spec["sensor_index"] = victim
        spec["relay_index"] = draw(st.none() | sensor_index.filter(lambda i: i != victim))
    else:
        spec["compromise_mode"] = draw(st.sampled_from(["Silent", "FalseData"]))
        if draw(st.booleans()):
            spec.update(target_role="regional", cell=None, region=draw(st.integers(0, (rings + 1) ** 2 - 1)))
    return AttackSpec(**spec)


@st.composite
def scenarios(draw):
    rings = draw(st.integers(0, 2))
    sensors_per_cell = draw(st.integers(1, 4))
    windows = draw(st.integers(2, 6))
    reliable = draw(st.booleans())
    return ScenarioConfig(
        topology=TopologyConfig(rings=rings, sensors_per_cell=sensors_per_cell),
        radio=RadioModel(
            shadowing_sigma_db=draw(st.sampled_from([0.0, 4.0])),
            long_range_reliable=reliable,
            # at the default 0 dBm an unreliable uplink is refused: it cannot reach the base
            tx_power_dbm=0.0 if reliable else 30.0,
            per_hop_latency_us=draw(st.sampled_from([2_000, 20_000])),
        ),
        sim=SimSection(horizon_windows=windows),
        attacks=draw(st.lists(attack_specs(rings, sensors_per_cell, windows * W), max_size=3)),
        seed=draw(st.integers(0, 1000)),
    )


def _run(scenario, mode):
    try:
        return run_scenario(scenario, mode, scenario.seed)
    except AttackSpecError:
        assume(False)


# A slot violation in window 0 of a 4-window run: the one alarm reaches the base
# at step 2, so a cluster that resent it after delivery would record it twice.
ALARM_IN_WINDOW_0 = ScenarioConfig(
    topology=TopologyConfig(rings=0, sensors_per_cell=2),
    sim=SimSection(horizon_windows=4),
    attacks=[
        AttackSpec(kind=AttackKind.SLOT_SPOOF, start_us=0, end_us=W, cell=(0, 0), packet_count=1, sensor_index=0)
    ],
    seed=1,
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(scenarios())
@example(ALARM_IN_WINDOW_0)
def test_random_scenarios_keep_the_invariants(scenario):
    for mode in ("hod", "flat"):
        log, topo = _run(scenario, mode)
        rerun, _ = _run(scenario, mode)
        assert serialize_log(rerun) == serialize_log(log)
        trace = io.StringIO()
        write_trace(log, trace)
        assert trace.getvalue() == _header(log) + rows_to_csv(_trace_rows(log))
        assert_energy_ledger_consistent(log)
        assert_trace_replays(log)
        score(log, topo, scenario.thresholds)  # raises if the control ledgers disagree
        # delivered_to keeps the last receiver of exactly the delivered ground-truth packets
        tracked = {g.packet_id for g in log.ground_truth if g.packet_id is not None}
        assert log.delivered_to == {
            e.packet_id: e.dst
            for e in log.events
            if e.event_kind == "rx" and e.outcome == "Delivered" and e.packet_id in tracked
        }
        if mode != "hod":
            continue
        assert all(topo.role(a.detected_by) is not NodeRole.SENSOR for a in log.alerts)
        # an alarm is resent only when it was lost, so the base takes in each alert once
        keys = [rec.alert.dedup_key() for rec in log.base_received]
        assert len(set(keys)) == len(keys)
        for rec in log.base_received:
            trail = rec.alert.hop_trail
            assert trail[0] == rec.alert.detected_by
            assert trail[-1] == topo.base_id
            assert len(set(trail)) == len(trail)
