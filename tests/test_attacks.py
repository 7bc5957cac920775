"""Attack spec validation, injection mechanics, and ground-truth emission."""

import re

import pytest

from conftest import make_engine
from hodsim.attacks import AttackKind, AttackSpec, AttackSpecError, apply_attacks
from hodsim.config import ConfigError
from hodsim.detection import HodMonitors
from hodsim.mac import is_awake, slot_owner_at
from hodsim.simcore import CompromiseMode, MacConfig, WorkloadConfig
from hodsim.topology import HexCoord, axial_to_xy

CELL = HexCoord(0, 0)


def jam_spec(**kw):
    base = dict(kind=AttackKind.JAMMING, start_us=0, end_us=1_000_000, cell=CELL)
    base.update(kw)
    return AttackSpec(**base)


class TestSpecValidation:
    """A check on the spec alone runs when the spec is built (ValueError), one
    that needs the grid, schedules or horizon when its scenario is built
    (ConfigError, naming attacks[i].<field>); only the emission-time search
    is left to injection (AttackSpecError)."""

    def misfit(self, spec, fragment, **engine_kw):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            make_engine(attacks=[spec], **engine_kw)

    def test_cell_required(self):
        with pytest.raises(ValueError, match="a Jamming attack needs 'cell'"):
            jam_spec(cell=None)

    def test_cell_outside_grid(self):
        self.misfit(jam_spec(cell=HexCoord(5, 5)), "'attacks[0].cell' (5,5) is not in the grid of 1 rings")

    def test_interval_bounds(self):
        for start, end in ((-1, 1_000_000), (500, 500), (5, 1)):
            with pytest.raises(ValueError, match="need 0 <= start_us < end_us"):
                jam_spec(start_us=start, end_us=end)
        self.misfit(jam_spec(end_us=99_000_000), "'attacks[0].end_us' (99000000) is past the horizon (3000000")

    def test_spoof_needs_a_foreign_slot(self):
        spec = AttackSpec(
            kind=AttackKind.SLOT_SPOOF, start_us=0, end_us=1_000_000, cell=CELL
        )
        self.misfit(spec, "(SlotSpoof) needs topology.sensors_per_cell >= 2", sensors_per_cell=1)

    def test_spoof_sensor_index_range(self):
        spec = dict(kind=AttackKind.SLOT_SPOOF, start_us=0, end_us=1_000_000, cell=CELL)
        self.misfit(AttackSpec(**spec, sensor_index=7), "'attacks[0].sensor_index' (7) is past the 2 sensors")
        with pytest.raises(ValueError, match="sensor_index must be >= 0, got -1"):
            AttackSpec(**spec, sensor_index=-1)
        with pytest.raises(ValueError, match="packet_count must be >= 1, got 0"):
            AttackSpec(**spec, packet_count=0)

    def test_spoof_unsatisfiable_interval(self):
        # [0, 10 ms) is exactly the victim's own slot; no foreign time exists
        spec = AttackSpec(
            kind=AttackKind.SLOT_SPOOF,
            start_us=0,
            end_us=10_000,
            cell=CELL,
            sensor_index=0,
        )
        eng = make_engine(attacks=[spec])
        with pytest.raises(AttackSpecError, match="no emission time"):
            apply_attacks(eng)

    def test_replay_needs_sleep(self):
        spec = AttackSpec(
            kind=AttackKind.SLEEP_REPLAY, start_us=0, end_us=1_000_000, cell=CELL
        )
        self.misfit(spec, "(SleepReplay) needs a cell that sleeps", mac=MacConfig(awake_fraction=1.0))

    def test_deviation_needs_second_sensor(self):
        spec = AttackSpec(
            kind=AttackKind.ROUTE_DEVIATION, start_us=0, end_us=1_000_000, cell=CELL
        )
        self.misfit(spec, "(RouteDeviation) needs topology.sensors_per_cell >= 2", sensors_per_cell=1)

    def test_deviation_relay_must_differ(self):
        spec = AttackSpec(
            kind=AttackKind.ROUTE_DEVIATION,
            start_us=0,
            end_us=1_000_000,
            cell=CELL,
            sensor_index=0,
            relay_index=0,
        )
        self.misfit(spec, "'attacks[0].relay_index' (0) is the victim's own sensor_index")

    def test_deviation_relay_index_range(self):
        spec = AttackSpec(
            kind=AttackKind.ROUTE_DEVIATION,
            start_us=0,
            end_us=1_000_000,
            cell=CELL,
            relay_index=9,
        )
        self.misfit(spec, "'attacks[0].relay_index' (9) is past the 2 sensors")

    def test_compromise_role_and_region(self):
        # an unknown target_role is refused when the spec is built (test_config.TestUnknownEnumValue)
        regional = dict(kind=AttackKind.NODE_COMPROMISE, start_us=0, end_us=1_000_000, target_role="regional")
        with pytest.raises(ValueError, match="a NodeCompromise attack needs 'region'"):
            AttackSpec(**regional)
        with pytest.raises(ValueError, match="region must be >= 0, got -1"):
            AttackSpec(**regional, region=-1)
        # rings=1 makes regions 0..3; the message names the misfit by its index
        message = "'attacks[1].region' (4) does not exist: the grid has regions 0 to 3"
        with pytest.raises(ConfigError, match=re.escape(message)):
            make_engine(attacks=[jam_spec(), AttackSpec(**regional, region=4)])
        make_engine(attacks=[jam_spec(), AttackSpec(**regional, region=3)])

    def test_compromise_mode_string(self):
        # the enum's value is accepted in its place; any other string is refused at construction
        spec = AttackSpec(
            kind=AttackKind.NODE_COMPROMISE, start_us=0, end_us=1_000_000, cell=CELL, compromise_mode="FalseData"
        )
        assert spec.compromise_mode is CompromiseMode.FALSE_DATA
        with pytest.raises(ValueError, match="compromise_mode must be one of 'Silent', 'FalseData', got 'Chatty'"):
            AttackSpec(kind=AttackKind.NODE_COMPROMISE, start_us=0, end_us=1_000_000, compromise_mode="Chatty")


class TestJammingInjection:
    def test_default_position_is_cell_centroid(self):
        eng = make_engine(attacks=[jam_spec(power_dbm=7.5, end_us=2_000_000)])
        apply_attacks(eng)
        sources = [s for s in eng.interference if s.power_dbm == 7.5]
        assert len(sources) == 1
        cx, cy = axial_to_xy(CELL, 50.0)
        assert (sources[0].x, sources[0].y) == (cx, cy)
        assert (sources[0].start_us, sources[0].end_us) == (0, 2_000_000)
        gt = eng.log.ground_truth
        assert len(gt) == 1
        assert gt[0].kind == "Jamming"
        assert gt[0].target == "cell:0,0"
        assert (gt[0].time_us, gt[0].end_us) == (0, 2_000_000)

    def test_custom_position(self):
        eng = make_engine(attacks=[jam_spec(position=(12.0, -3.0))])
        apply_attacks(eng)
        src = [s for s in eng.interference if s.power_dbm == 10.0][0]
        assert (src.x, src.y) == (12.0, -3.0)


class TestForgedTraffic:
    def test_slot_spoof_times_and_delivery(self):
        spec = AttackSpec(
            kind=AttackKind.SLOT_SPOOF,
            start_us=0,
            end_us=2_000_000,
            cell=CELL,
            packet_count=4,
        )
        eng = make_engine(sensors_per_cell=3, attacks=[spec])
        victim = eng.topology.sensors_of(CELL)[0]
        apply_attacks(eng)
        gt = [g for g in eng.log.ground_truth if g.kind == "SlotSpoof"]
        assert len(gt) == 4
        assert [g.time_us for g in gt] == sorted(g.time_us for g in gt)
        tdma, smac = eng.tdma[CELL], eng.smac[CELL]
        for g in gt:
            assert g.target == f"node:{victim}"
            assert g.packet_id is not None
            assert slot_owner_at(tdma, g.time_us) != victim
            assert is_awake(smac, g.time_us)
        eng.run()
        pids = {g.packet_id for g in gt}
        cluster = eng.topology.cluster_of(CELL)
        rx_pids = {
            e.packet_id
            for e in eng.log.events
            if e.event_kind == "rx" and e.dst == cluster and e.pkt_kind == "AttackTraffic"
        }
        assert rx_pids == pids
        # forged transmissions are free for the claimed sender
        assert eng.log.meters[victim].tx_j == 0.0
        assert eng.log.counters[victim].total_sent() == 0

    def test_sleep_replay_times(self):
        spec = AttackSpec(
            kind=AttackKind.SLEEP_REPLAY,
            start_us=0,
            end_us=2_000_000,
            cell=CELL,
            packet_count=4,
        )
        eng = make_engine(sensors_per_cell=2, attacks=[spec])
        victim = eng.topology.sensors_of(CELL)[0]
        apply_attacks(eng)
        gt = [g for g in eng.log.ground_truth if g.kind == "SleepReplay"]
        assert len(gt) == 4
        tdma, smac = eng.tdma[CELL], eng.smac[CELL]
        for g in gt:
            assert not is_awake(smac, g.time_us)
            # the schedule admits sleep-time slots owned by the victim, so the
            # preferred sampler must have found them
            assert slot_owner_at(tdma, g.time_us) == victim


class TestRouteDeviation:
    def test_default_relay_is_nearest(self):
        spec = AttackSpec(
            kind=AttackKind.ROUTE_DEVIATION, start_us=0, end_us=2_000_000, cell=CELL
        )
        eng = make_engine(sensors_per_cell=4, attacks=[spec])
        topo = eng.topology
        sensors = topo.sensors_of(CELL)
        victim = sensors[0]
        apply_attacks(eng)
        want = min(
            (s for s in sensors if s != victim),
            key=lambda s: (topo.distance(s, victim), s),
        )
        assert eng.route_overrides[victim] == [(0, 2_000_000, want)]

    def test_explicit_relay_and_per_packet_ground_truth(self):
        spec = AttackSpec(
            kind=AttackKind.ROUTE_DEVIATION,
            start_us=0,
            end_us=3_000_000,
            cell=CELL,
            relay_index=1,
        )
        eng = make_engine(
            sensors_per_cell=3,
            workload=WorkloadConfig(),
            horizon_windows=3,
            attacks=[spec],
        )
        topo = eng.topology
        sensors = topo.sensors_of(CELL)
        victim, relay = sensors[0], sensors[1]
        apply_attacks(eng)
        eng.run()
        gt = [g for g in eng.log.ground_truth if g.kind == "RouteDeviation"]
        assert len(gt) >= 2  # one per report interval inside the horizon
        assert all(g.target == f"node:{victim}" for g in gt)
        pids = [g.packet_id for g in gt]
        assert len(set(pids)) == len(pids)
        cluster = topo.cluster_of(CELL)
        for pid in pids:
            hop1 = [
                e
                for e in eng.log.events
                if e.event_kind == "tx" and e.packet_id == pid and e.src == victim
            ]
            assert len(hop1) == 1 and hop1[0].dst == relay
            hop2_rx = [
                e
                for e in eng.log.events
                if e.event_kind == "rx"
                and e.packet_id == pid
                and e.dst == cluster
                and e.src == relay
            ]
            assert len(hop2_rx) == 1


class TestNodeCompromise:
    def spec(self, mode):
        return AttackSpec(
            kind=AttackKind.NODE_COMPROMISE,
            start_us=1_000_000,
            end_us=3_000_000,
            cell=CELL,
            compromise_mode=mode,
        )

    def test_registration(self):
        eng = make_engine(attacks=[self.spec("Silent")])
        apply_attacks(eng)
        cluster = eng.topology.cluster_of(CELL)
        assert eng.compromise[cluster] == [(1_000_000, 3_000_000, CompromiseMode.SILENT)]
        gt = eng.log.ground_truth
        assert len(gt) == 1
        assert gt[0].kind == "NodeCompromise"
        assert gt[0].target == f"node:{cluster}"
        assert gt[0].detail == "Silent"

    def test_regional_target(self):
        rid = 0
        spec = AttackSpec(
            kind=AttackKind.NODE_COMPROMISE,
            start_us=0,
            end_us=1_000_000,
            target_role="regional",
            region=rid,
            compromise_mode="FalseData",
        )
        eng = make_engine(attacks=[spec])
        apply_attacks(eng)
        regional = eng.topology.regional_by_region[rid]
        assert eng.compromise[regional] == [(0, 1_000_000, CompromiseMode.FALSE_DATA)]

    def test_silent_cluster_stops_reports(self):
        eng = make_engine(horizon_windows=3, attacks=[self.spec("Silent")])
        HodMonitors(eng)  # cluster reports are overlay traffic
        apply_attacks(eng)
        eng.run()
        target = eng.topology.cluster_of(CELL)
        # boundaries at 1s/2s fall inside the outage, the one at 3s after it
        assert eng.log.counters[target].sent.get("ClusterReport", 0) == 1
        for cell in eng.topology.cells:
            if cell == CELL:
                continue
            other = eng.topology.cluster_of(cell)
            assert eng.log.counters[other].sent.get("ClusterReport", 0) == 3

    def test_false_data_cluster_keeps_transmitting(self):
        eng = make_engine(horizon_windows=3, attacks=[self.spec("FalseData")])
        HodMonitors(eng)
        apply_attacks(eng)
        eng.run()
        target = eng.topology.cluster_of(CELL)
        assert eng.log.counters[target].sent.get("ClusterReport", 0) == 3


class TestDeterminism:
    def gt_times(self, seed):
        spec = AttackSpec(
            kind=AttackKind.SLOT_SPOOF,
            start_us=0,
            end_us=2_000_000,
            cell=CELL,
            packet_count=5,
        )
        eng = make_engine(sensors_per_cell=3, seed=seed, attacks=[spec])
        apply_attacks(eng)
        return tuple(g.time_us for g in eng.log.ground_truth)

    def test_same_seed_same_times(self):
        assert self.gt_times(3) == self.gt_times(3)

    def test_different_seed_different_times(self):
        assert self.gt_times(3) != self.gt_times(4)
