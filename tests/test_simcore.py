"""Radio math, energy, event ordering, and engine behavior tests.

Expected numbers are either closed-form (computed inline from first
principles with raw math, not the module under test) or statistical bounds.
"""

import dataclasses
import gc
import heapq
import math
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest

from conftest import assert_energy_ledger_consistent, make_engine, serialize_log
from hodsim.attacks import AttackKind, AttackSpec, apply_attacks
from hodsim.config import ScenarioConfig
from hodsim.detection import FlatMonitors, HodMonitors
from hodsim.metrics import run_scenario
from hodsim.simcore import (
    CompromiseMode,
    Engine,
    EnergyModel,
    GroundTruthEvent,
    InterferenceSource,
    MacConfig,
    Outcome,
    Packet,
    PacketKind,
    RadioModel,
    WorkloadConfig,
    power_sum_dbm,
)
from hodsim.topology import HexCoord, NodeRole, axial_to_xy, build_topology, suspect_node


def db_to_mw(db):
    return 10.0 ** (db / 10.0)


class TestRadioMath:
    def test_power_sum_oracle(self):
        # two equal sources: +10*log10(2) ~ 3.0103 dB
        assert power_sum_dbm(-95.0, -95.0) == pytest.approx(
            -95.0 + 10.0 * math.log10(2.0), abs=1e-9
        )
        # independent mW-domain computation
        for levels in [(-95.0, -70.0), (-30.0, -90.0, -60.0), (-85.0,)]:
            want = 10.0 * math.log10(sum(db_to_mw(x) for x in levels))
            assert power_sum_dbm(*levels) == pytest.approx(want, abs=1e-12)

    def test_deterministic_rssi_closed_form(self):
        radio = RadioModel()
        # tx 0 dBm, 40 dB at 1 m, exponent 2.4: -40 - 24*log10(d)
        assert radio.deterministic_rssi(1.0) == pytest.approx(-40.0, abs=1e-12)
        assert radio.deterministic_rssi(10.0) == pytest.approx(-64.0, abs=1e-12)
        assert radio.deterministic_rssi(50.0) == pytest.approx(
            -40.0 - 24.0 * math.log10(50.0), abs=1e-12
        )

    def test_sub_meter_clamp(self):
        radio = RadioModel()
        assert radio.deterministic_rssi(0.0) == radio.deterministic_rssi(1.0)
        assert radio.deterministic_rssi(0.5) == radio.deterministic_rssi(1.0)

    def test_connectivity_edge_of_range(self):
        # sensitivity -85 dBm crossed at d = 10**(45/24) ~ 74.99 m
        radio = RadioModel()
        d_max = 10.0 ** (45.0 / 24.0)
        assert radio.deterministic_rssi(d_max - 0.01) > -85.0
        assert radio.deterministic_rssi(d_max + 0.01) < -85.0
        assert 74.9 < d_max < 75.0

    def test_shadowing_statistics(self):
        radio = RadioModel(shadowing_sigma_db=4.0)
        rng = random.Random(77)
        n = 4000
        samples = [radio.rssi_at(10.0, rng) for _ in range(n)]
        mean = sum(samples) / n
        var = sum((s - mean) ** 2 for s in samples) / (n - 1)
        # mean within 4 standard errors, sigma within 10%
        assert abs(mean - (-64.0)) < 4.0 * 4.0 / math.sqrt(n)
        assert abs(math.sqrt(var) - 4.0) < 0.4

    def test_zero_sigma_is_deterministic(self):
        radio = RadioModel()
        rng = random.Random(1)
        assert radio.rssi_at(25.0, rng) == radio.deterministic_rssi(25.0)


class TestEnergyModel:
    def test_transmit_closed_form(self):
        em = EnergyModel()
        # 50 nJ/bit * 512 + 100 pJ/bit/m^2 * 512 * 50^2 = 25.6 uJ + 128 uJ
        assert em.tx_energy_j(512, 50.0) == pytest.approx(153.6e-6, rel=1e-12)
        assert em.tx_energy_j(512, 0.0) == pytest.approx(25.6e-6, rel=1e-12)

    def test_receive_closed_form(self):
        em = EnergyModel()
        assert em.rx_energy_j(512) == pytest.approx(25.6e-6, rel=1e-12)


class TestEventOrder:
    def test_sort_oracle_large(self):
        # schedule in random order; handlers must fire in (time, schedule order)
        eng = make_engine()
        rng = random.Random(123)
        entries = [(rng.randrange(0, 5_000), i) for i in range(20_000)]
        fired = []
        for entry in entries:
            eng.schedule(entry[0], fired.append, entry)
        eng.run()
        assert fired == sorted(entries, key=lambda e: (e[0], e[1]))

    def test_past_events_rejected(self):
        eng = make_engine()
        fired = []
        eng.schedule(100, fired.append, 100)
        eng.schedule(10, fired.append, 10)
        drain(eng, t_end=100)
        assert fired == [10, 100] and eng.now == 100
        with pytest.raises(ValueError, match="cannot schedule event at 50 before current time 100"):
            eng.schedule(50, fired.append, 50)

    def test_fifo_among_equal_times(self):
        eng = make_engine()
        order = []
        for i in range(5):
            eng.schedule(42, order.append, i)
        drain(eng)
        assert order == [0, 1, 2, 3, 4]


def drain(engine, t_end=None):
    """Run the engine's heap without planning any workload."""
    limit = t_end if t_end is not None else engine.log.horizon_us + engine.config.sim.drain_us
    heap = engine._heap
    while heap and heap[0][0] <= limit:
        t, _, handler, arg = heapq.heappop(heap)
        engine.now = t
        handler(arg)


def data_packet(engine, src, dst, control=False, mac_exempt=True, long_range=False):
    return Packet(
        packet_id=engine.next_packet_id(),
        kind=PacketKind.SENSOR_DATA if not control else PacketKind.HEARTBEAT,
        src=src,
        origin=src,
        dst=dst,
        control=control,
        mac_exempt=mac_exempt,
        long_range=long_range,
    )


class TestDeliveryOutcomes:
    def outcomes(self, log):
        out = []
        for e in log.events:
            if e.event_kind == "rx" and e.outcome == Outcome.DELIVERED.value:
                out.append(("rx", e.packet_id))
            elif e.event_kind == "drop":
                out.append((e.outcome, e.packet_id))
        return out

    def test_in_range_delivery_and_latency(self):
        eng = make_engine()
        cell = sorted(eng.topology.cells)[0]
        sensor = eng.topology.sensors_of(cell)[0]
        cluster = eng.topology.cluster_of(cell)
        pkt = data_packet(eng, sensor, cluster)
        eng.schedule(1000, eng.send, pkt)
        drain(eng)
        rx = [e for e in eng.log.events if e.event_kind == "rx"]
        assert len(rx) == 1
        assert rx[0].time_us == 1000 + eng.config.radio.per_hop_latency_us
        assert rx[0].packet_id == pkt.packet_id
        # receiver saw the deterministic path-loss RSSI at zero shadowing
        d = max(eng.topology.distance(sensor, cluster), 1.0)
        assert rx[0].rssi_dbm == pytest.approx(-40.0 - 24.0 * math.log10(d), abs=1e-9)

    def test_only_tracked_deliveries_are_recorded(self):
        eng = make_engine()
        cell = sorted(eng.topology.cells)[0]
        s1, s2 = eng.topology.sensors_of(cell)
        cluster = eng.topology.cluster_of(cell)
        tracked, untracked = data_packet(eng, s1, cluster), data_packet(eng, s2, cluster)
        eng.log.ground_truth.append(GroundTruthEvent(1000, "SlotSpoof", suspect_node(s1), "", tracked.packet_id))
        eng.schedule(1000, eng.send, tracked)
        eng.schedule(5000, eng.send, untracked)
        eng.run()
        assert self.outcomes(eng.log) == [("rx", tracked.packet_id), ("rx", untracked.packet_id)]
        assert eng.log.delivered_to == {tracked.packet_id: cluster}

    def test_out_of_range_drop(self):
        eng = make_engine(rings=2)
        topo = eng.topology
        cells = sorted(topo.cells)
        far_a, far_b = cells[0], cells[-1]  # opposite corners of the patch
        src = topo.sensors_of(far_a)[0]
        dst = topo.cluster_of(far_b)
        assert topo.distance(src, dst) > 75.0
        eng.schedule(0, eng.send, data_packet(eng, src, dst))
        drain(eng)
        assert self.outcomes(eng.log) == [(Outcome.OUT_OF_RANGE.value, 0)]

    def test_jammed_drop_and_sinr_threshold(self):
        eng = make_engine()
        topo = eng.topology
        cell = sorted(topo.cells)[0]
        sensor = topo.sensors_of(cell)[0]
        cluster = topo.cluster_of(cell)
        cx, cy = topo.position(cluster)
        # jammer parked on the receiver: SINR collapses regardless of link
        eng.interference.append(
            InterferenceSource(x=cx, y=cy, power_dbm=10.0, start_us=0, end_us=10_000)
        )
        eng.schedule(100, eng.send, data_packet(eng, sensor, cluster))
        # second try after the jammer stops: delivered
        eng.schedule(20_000, eng.send, data_packet(eng, sensor, cluster))
        drain(eng)
        assert self.outcomes(eng.log) == [(Outcome.JAMMED.value, 0), ("rx", 1)]

    def test_collision_between_overlapping_data_sends(self):
        # at 20 ms per hop the first send resolves 20 airtimes after it
        # starts; the second, which overlaps it, must still find it
        for latency in (2_000, 20_000):
            eng = make_engine(sensors_per_cell=3, radio=RadioModel(per_hop_latency_us=latency))
            topo = eng.topology
            cell = sorted(topo.cells)[0]
            s1, s2, s3 = topo.sensors_of(cell)
            cluster = topo.cluster_of(cell)
            # two overlap (airtime 1000 us), the third is clear of both
            eng.schedule(0, eng.send, data_packet(eng, s1, cluster))
            eng.schedule(500, eng.send, data_packet(eng, s2, cluster))
            eng.schedule(5_000, eng.send, data_packet(eng, s3, cluster))
            drain(eng)
            assert self.outcomes(eng.log) == [
                (Outcome.COLLISION.value, 0),
                (Outcome.COLLISION.value, 1),
                ("rx", 2),
            ], latency

    def test_control_plane_never_collides(self):
        # two control sends, then one control and one data send, into one cluster
        for second_is_control in (True, False):
            eng = make_engine(sensors_per_cell=2)
            topo = eng.topology
            cell = sorted(topo.cells)[0]
            s1, s2 = topo.sensors_of(cell)
            cluster = topo.cluster_of(cell)
            eng.schedule(0, eng.send, data_packet(eng, s1, cluster, control=True))
            eng.schedule(0, eng.send, data_packet(eng, s2, cluster, control=second_is_control))
            drain(eng)
            assert [o for o, _ in self.outcomes(eng.log)] == ["rx", "rx"]

    def test_sends_to_non_cluster_receivers_do_not_collide(self):
        eng = make_engine(sensors_per_cell=3)
        topo = eng.topology
        # two member clusters of one triad transmit to the shared regional
        # node at the same instant; only cluster receivers arbitrate slots
        region = topo.region_of_cell[HexCoord(0, 0)]
        cells = [c for c in sorted(topo.cells) if topo.region_of_cell[c] == region]
        assert len(cells) >= 2
        regional = topo.regional_by_region[region]
        c1, c2 = topo.cluster_of(cells[0]), topo.cluster_of(cells[1])
        eng.schedule(0, eng.send, data_packet(eng, c1, regional))
        eng.schedule(0, eng.send, data_packet(eng, c2, regional))
        drain(eng)
        assert [o for o, _ in self.outcomes(eng.log)] == ["rx", "rx"]

    def test_long_range_reliable_ignores_jamming(self):
        eng = make_engine()
        topo = eng.topology
        regional = topo.regional_by_region[0]
        bx, by = topo.position(topo.base_id)
        eng.interference.append(
            InterferenceSource(x=bx, y=by, power_dbm=30.0, start_us=0, end_us=10**7)
        )
        eng.schedule(0, eng.send, data_packet(eng, regional, topo.base_id, long_range=True))
        eng.run()
        assert [o for o, _ in self.outcomes(eng.log)] == ["rx"]
        # the regional has no cell, and a long-range send counts toward none
        (rx,) = [e for e in eng.log.events if e.event_kind == "rx"]
        assert rx.cell is None
        assert all(s.sent == s.delivered == 0 for s in eng.log.window_stats[0].values())


class TestEngineMechanics:
    def test_log_reports_the_scenario_the_engine_holds(self):
        eng = make_engine(seed=5, horizon_windows=2)
        assert eng.log.scenario_hash == eng.config.scenario_hash(5)
        assert eng.log.config_echo == eng.config.echo()
        assert eng.log.n_windows == eng.config.sim.horizon_windows == 2

    @pytest.mark.parametrize(
        "key, value",
        [("sensing_tick_us", 0), ("horizon_windows", 0), ("drain_us", -1), ("aggregation_window_us", 0)],
    )
    def test_timing_range_checks_guard_every_engine(self, key, value):
        with pytest.raises(ValueError, match=key):
            make_engine(**{key: value})

    def test_silent_compromise_suppresses_sends(self):
        eng = make_engine()
        topo = eng.topology
        cell = sorted(topo.cells)[0]
        cluster = topo.cluster_of(cell)
        regional = topo.regional_of_cell(cell)
        eng.compromise[cluster] = [(0, 5_000, CompromiseMode.SILENT)]
        eng.schedule(100, eng.send, data_packet(eng, cluster, regional))
        eng.schedule(8_000, eng.send, data_packet(eng, cluster, regional))
        drain(eng)
        tx = [e for e in eng.log.events if e.event_kind == "tx"]
        assert len(tx) == 1 and tx[0].time_us == 8_000
        assert eng.log.counters[cluster].total_sent() == 1

    def test_phantom_sends_cost_nothing_and_deliver(self):
        eng = make_engine()
        topo = eng.topology
        cell = sorted(topo.cells)[0]
        victim = topo.sensors_of(cell)[0]
        cluster = topo.cluster_of(cell)
        cx, cy = topo.position(cluster)
        pkt = Packet(
            packet_id=eng.next_packet_id(),
            kind=PacketKind.ATTACK_TRAFFIC,
            src=victim,
            origin=victim,
            dst=cluster,
            phantom_pos=(cx + 5.0, cy),
        )
        eng.log.ground_truth.append(GroundTruthEvent(0, "SlotSpoof", suspect_node(victim), "", pkt.packet_id))
        eng.schedule(0, eng.send, pkt)
        eng.run()
        assert eng.log.counters[victim].total_sent() == 0  # the victim sent nothing
        assert eng.log.meters[victim].tx_j == 0.0
        assert eng.log.delivered_to == {pkt.packet_id: cluster}
        # traced in the victim's cell, but not counted toward its channel statistics
        rows = [e for e in eng.log.events if e.packet_id == pkt.packet_id]
        assert [e.event_kind for e in rows] == ["tx", "rx"]
        assert all(e.cell == cell for e in rows)
        stats = eng.log.window_stats[0][cell]
        assert stats.sent == stats.delivered == 0

    def test_interference_sums_multiple_sources(self):
        eng = make_engine()
        x, y = 10.0, 0.0
        eng.interference.append(InterferenceSource(x=x, y=y, power_dbm=0.0, start_us=0, end_us=100))
        eng.interference.append(InterferenceSource(x=x, y=y, power_dbm=0.0, start_us=0, end_us=100))
        # two colocated 0 dBm sources at the sample point (clamped to 1 m)
        want = 10.0 * math.log10(db_to_mw(-95.0) + 2.0 * db_to_mw(-40.0))
        assert eng.interference_dbm_at(x, y, 50) == pytest.approx(want, abs=1e-9)
        # outside the active window only the floor remains
        assert eng.interference_dbm_at(x, y, 200) == -95.0

    def test_interference_cache_matches_the_uncached_sum(self):
        def uncached(eng, x, y, t0, t1=None):
            t1 = t0 + 1 if t1 is None else t1
            radio = eng.config.radio
            levels = [radio.noise_floor_dbm] + [
                radio.deterministic_rssi(math.hypot(x - s.x, y - s.y), s.power_dbm)
                for s in eng.interference
                if s.start_us < t1 and s.end_us > t0
            ]
            return power_sum_dbm(*levels) if len(levels) > 1 else levels[0]

        eng = make_engine()
        eng.interference.append(InterferenceSource(x=30.0, y=0.0, power_dbm=10.0, start_us=100, end_us=300))
        eng.interference.append(InterferenceSource(x=-20.0, y=5.0, power_dbm=0.0, start_us=200, end_us=400))
        points = [(0.0, 0.0), (12.5, -3.0), (30.0, 0.0)]
        # each jammer's start and end edges, alone, overlapping and as [t0, t1) ranges
        times = [(t, None) for t in (99, 100, 199, 200, 299, 300, 399, 400)]
        times += [(50, 100), (50, 101), (299, 301), (300, 350), (150, 250), (400, 500)]
        for warm in (False, True):
            for x, y in points:
                for t0, t1 in times:
                    assert eng.interference_dbm_at(x, y, t0, t1) == uncached(eng, x, y, t0, t1), (warm, x, y, t0, t1)
        # a jammer appended after the queries is seen by the next one
        before = eng.interference_dbm_at(0.0, 0.0, 250)
        eng.interference.append(InterferenceSource(x=0.0, y=0.0, power_dbm=-20.0, start_us=0, end_us=1000))
        after = eng.interference_dbm_at(0.0, 0.0, 250)
        assert after > before
        assert after == uncached(eng, 0.0, 0.0, 250)

    def test_window_boundaries_and_idle_charges(self):
        eng = make_engine(horizon_windows=3)
        eng.run()
        n_nodes = len(eng.topology.nodes)
        idle = [e for e in eng.log.events if e.event_kind == "idle"]
        assert len(idle) == 3 * n_nodes
        for node in eng.topology.nodes:
            assert eng.log.meters[node.node_id].idle_j == pytest.approx(3e-6, rel=1e-12)
        # per-cell stats recorded every window, indexed [window][cell]
        assert len(eng.log.window_stats) == 3
        for w, by_cell in enumerate(eng.log.window_stats):
            assert sorted(by_cell) == sorted(eng.topology.cells)
            assert all(s.window == w and s.cell == c for c, s in by_cell.items())

    def test_carrier_sense_baseline_and_busy(self):
        eng = make_engine()
        topo = eng.topology
        cell = sorted(topo.cells)[0]
        cluster = topo.cluster_of(cell)
        regional = topo.regional_of_cell(cell)
        cx, cy = topo.position(cluster)
        eng.interference.append(
            InterferenceSource(x=cx, y=cy, power_dbm=0.0, start_us=50_000, end_us=60_000)
        )
        eng.schedule(10_000, eng.send, data_packet(eng, cluster, regional))
        eng.schedule(55_000, eng.send, data_packet(eng, cluster, regional))
        drain(eng)
        assert eng._cell_cs_samples[cell] == [128, 5128]

    def test_attack_free_pdr_is_one(self):
        eng = make_engine(
            sensors_per_cell=4,
            workload=WorkloadConfig(),
            horizon_windows=4,
        )
        eng.run()
        for by_cell in eng.log.window_stats:
            for ws in by_cell.values():
                assert ws.pdr == 1.0

    def test_energy_ledger_audit(self):
        eng = make_engine(sensors_per_cell=4, workload=WorkloadConfig(), horizon_windows=4)
        eng.run()
        assert_energy_ledger_consistent(eng.log)

    def test_tx_energy_scales_with_distance(self):
        eng = make_engine(sensors_per_cell=2)
        topo = eng.topology
        cell = sorted(topo.cells)[0]
        sensor = topo.sensors_of(cell)[0]
        cluster = topo.cluster_of(cell)
        d = topo.distance(sensor, cluster)
        eng.schedule(0, eng.send, data_packet(eng, sensor, cluster))
        drain(eng)
        want = 50e-9 * 512 + 100e-12 * 512 * d * d
        assert eng.log.meters[sensor].tx_j == pytest.approx(want, rel=1e-12)
        assert eng.log.meters[cluster].rx_j == pytest.approx(50e-9 * 512, rel=1e-12)


class TestDeterminism:
    def _run(self, seed, sigma=4.0):
        eng = make_engine(
            sensors_per_cell=3,
            seed=seed,
            radio=RadioModel(shadowing_sigma_db=sigma),
            workload=WorkloadConfig(),
            horizon_windows=3,
        )
        eng.run()
        return serialize_log(eng.log)

    def test_identical_seeds_identical_logs(self):
        assert self._run(31) == self._run(31)

    def test_different_seeds_differ(self):
        assert self._run(31) != self._run(32)


class TestOverhearListeners:
    """The per-position listener lists are exactly what a scan of every sensor finds."""

    def full_scan(self, eng, pos):
        radio = eng.config.radio
        found = []
        for sensor in eng.overheard:
            node = eng.topology.node(sensor)
            det = radio.deterministic_rssi(math.hypot(pos[0] - node.x, pos[1] - node.y))
            if det >= radio.rx_sensitivity_dbm:
                found.append((sensor, node, det))
        return found

    def flat_engine(self, tx_power_dbm, mode="flat", horizon_windows=2, attacks=()):
        eng = make_engine(
            rings=1,
            sensors_per_cell=3,
            mode=mode,
            radio=RadioModel(tx_power_dbm=tx_power_dbm),
            workload=WorkloadConfig(),
            horizon_windows=horizon_windows,
            attacks=attacks,
        )
        (FlatMonitors if mode == "flat" else HodMonitors)(eng)
        return eng

    @pytest.mark.parametrize("tx_power_dbm", [0.0, 30.0])
    def test_cached_lists_are_the_full_scan(self, tx_power_dbm):
        eng = self.flat_engine(tx_power_dbm)
        eng.run()
        sensors = eng.topology.sensor_ids()
        # every sensor sent data, and no two share a position
        assert sorted(eng._listeners) == sorted(eng.topology.position(s) for s in sensors)
        for pos, listeners in eng._listeners.items():
            assert listeners == self.full_scan(eng, pos)
        if tx_power_dbm == 30.0:
            # at 30 dBm every sensor hears every position, its own included
            assert all(len(v) == len(sensors) for v in eng._listeners.values())

    @pytest.mark.parametrize("tx_power_dbm", [0.0, 30.0])
    def test_phantom_positions_get_the_full_scan(self, tx_power_dbm):
        eng = self.flat_engine(tx_power_dbm)
        rng = random.Random(5)
        points = [eng.topology.position(n) for n in range(len(eng.topology.nodes))]
        points += [(rng.uniform(-400, 400), rng.uniform(-400, 400)) for _ in range(50)]
        for pos in points:
            assert eng._listeners_at(pos) == self.full_scan(eng, pos)

    def test_listeners_scanned_once_per_transmitter_and_sensor(self, monkeypatch):
        eng = self.flat_engine(0.0, horizon_windows=5)
        in_overhear = [False]
        scanned = Counter()  # distance -> deterministic_rssi calls made while overhearing
        rssi = RadioModel.deterministic_rssi
        overhear = Engine._overhear

        def counting_rssi(self, distance_m, *args, **kwargs):
            if in_overhear[0]:
                scanned[distance_m] += 1
            return rssi(self, distance_m, *args, **kwargs)

        def flagged_overhear(self, hop):
            in_overhear[0] = True
            try:
                overhear(self, hop)
            finally:
                in_overhear[0] = False

        monkeypatch.setattr(RadioModel, "deterministic_rssi", counting_rssi)
        monkeypatch.setattr(Engine, "_overhear", flagged_overhear)
        log = eng.run()
        # no jammer, so every call made while overhearing is a listener scan;
        # a pair's distance is scanned once each way (a -> b and b -> a), and
        # each sensor's distance to its own position once
        assert not eng.interference
        assert scanned[0.0] == len(eng.overheard)
        assert max(n for d, n in scanned.items() if d) <= 2
        assert sum(scanned.values()) <= len(eng._listeners) * len(eng.overheard)
        # every sensor sent often enough that a scan per send would repeat a distance
        sends = Counter(e.src for e in log.events if e.event_kind == "tx" and e.pkt_kind == "SensorData")
        assert min(sends[s] for s in eng.overheard) >= 3

    def forger(self, **position):
        """A SlotSpoof of four forgeries at cell (0, 0)'s first sensor over the first window."""
        return AttackSpec(
            kind=AttackKind.SLOT_SPOOF, start_us=0, end_us=1_000_000, cell=HexCoord(0, 0), packet_count=4, **position
        )

    def test_phantom_listeners_found_once_per_position(self, monkeypatch):
        eng = self.flat_engine(0.0, attacks=[self.forger()])
        apply_attacks(eng)
        looked_up = Counter()
        listeners_at = Engine._listeners_at

        def counting_listeners_at(self, pos, *args):
            looked_up[pos] += 1
            return listeners_at(self, pos, *args)

        monkeypatch.setattr(Engine, "_listeners_at", counting_listeners_at)
        log = eng.run()
        phantom = axial_to_xy(HexCoord(0, 0), eng.topology.cell_radius_m)
        assert sum(e.event_kind == "tx" and e.pkt_kind == "AttackTraffic" for e in log.events) == 4
        assert set(looked_up) == {phantom, *(eng.topology.position(s) for s in eng.overheard)}
        assert set(looked_up.values()) == {1}

    def test_phantom_on_a_sensor_is_overheard_by_it(self):
        topo = self.flat_engine(0.0).topology
        sensor = topo.sensors_of(HexCoord(0, 0))[1]  # the victim is sensor 0
        eng = self.flat_engine(0.0, attacks=[self.forger(position=topo.position(sensor))])
        apply_attacks(eng)
        log = eng.run()
        assert eng._listeners[topo.position(sensor)] == self.full_scan(eng, topo.position(sensor))
        forged = {e.packet_id for e in log.events if e.event_kind == "tx" and e.pkt_kind == "AttackTraffic"}
        heard = {e.packet_id for e in log.events if e.outcome == "Overheard" and e.dst == sensor}
        assert len(forged) == 4 and forged <= heard
        # a sensor never overhears its own sends, though its position's list holds it
        assert all(e.src != e.dst for e in log.events if e.outcome == "Overheard" and e.packet_id not in forged)

    def test_hod_engine_builds_no_listener_cache(self):
        eng = self.flat_engine(0.0, mode="hod")
        eng.run()
        assert eng.overheard == {}
        assert eng._listeners == {}


EXAMPLES = Path(__file__).resolve().parent.parent / "examples_cfg"


def test_sending_never_changes_a_packet(monkeypatch):
    """Every packet sent, a detour relay's onward copy included, leaves its header as it was sent."""
    sent = []
    send = Engine.send

    def recording_send(self, packet):
        sent.append((packet, dataclasses.astuple(packet)))
        return send(self, packet)

    monkeypatch.setattr(Engine, "send", recording_send)
    run_scenario(ScenarioConfig.from_file(str(EXAMPLES / "route_deviation.yaml")), "hod", 1)
    relayed = [p for p, _ in sent if p.kind is PacketKind.SENSOR_DATA and p.src != p.origin]
    assert relayed
    changed = [p.packet_id for p, header in sent if dataclasses.astuple(p) != header]
    assert changed == []


class TestRunMemory:
    """A run holds what is in flight, and a finished run is freed without the collector."""

    @pytest.mark.parametrize("mode", ["hod", "flat"])
    @pytest.mark.parametrize("example", sorted(p.stem for p in EXAMPLES.glob("*.yaml")))
    def test_finished_run_is_freed_by_reference_counting(self, example, mode, collector_paused):
        scenario = ScenarioConfig.from_file(str(EXAMPLES / f"{example}.yaml"))
        log, topology = run_scenario(scenario, mode, 1)
        assert log.events and log.ground_truth
        ref = weakref.ref(log)
        del log, topology
        log_alive = ref() is not None
        assert not log_alive
        assert gc.collect() == 0

    def workload_engine(self, horizon_windows):
        eng = make_engine(sensors_per_cell=3, workload=WorkloadConfig(), horizon_windows=horizon_windows)
        HodMonitors(eng)
        return eng

    def test_reports_are_built_when_they_are_sent(self, collector_paused):
        eng = self.workload_engine(horizon_windows=20)
        sensors = len(eng.topology.sensor_ids())
        live = []
        # scheduled before run(): fires at the first boundary, before the window closes
        eng.schedule(
            eng.config.sim.aggregation_window_us,
            lambda _: live.append(sum(isinstance(o, Packet) for o in gc.get_objects())),
            None,
        )
        log = eng.run()
        reports = sum(1 for e in log.events if e.event_kind == "tx" and e.pkt_kind == "SensorData")
        assert reports >= 20 * sensors  # one report per sensor and window
        # the first window's reports sit in the cluster inboxes; none of the later ones exists yet
        assert 0 < live[0] < 2 * sensors

    def test_planned_reports_keep_their_place_among_equal_time_events(self):
        first = self.workload_engine(horizon_windows=2).run()
        t0 = next(e.time_us for e in first.events if e.event_kind == "tx" and e.pkt_kind == "SensorData")
        at_t0 = sum(1 for e in first.events if e.event_kind == "tx" and e.pkt_kind == "SensorData" and e.time_us == t0)

        eng = self.workload_engine(horizon_windows=2)
        seen = {}

        def count_reports_sent(label):
            seen[label] = sum(
                1 for e in eng.log.events if e.event_kind == "tx" and e.pkt_kind == "SensorData" and e.time_us == t0
            )

        # one probe is scheduled before run(), the other by an event during the run
        eng.schedule(t0, count_reports_sent, "before run")
        eng.schedule(0, lambda _: eng.schedule(t0, count_reports_sent, "during run"), None)
        log = eng.run()
        assert seen == {"before run": 0, "during run": at_t0}
        assert serialize_log(log) == serialize_log(first)
