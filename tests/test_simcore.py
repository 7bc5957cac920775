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
from hodsim.mac import is_awake, next_compliant_slot
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
    active_at,
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

    def sampled_rssi(self, sigma, n):
        """The RSSI the engine samples on n hops over one cluster -> regional link, and the link's length."""
        eng = make_engine(radio=RadioModel(shadowing_sigma_db=sigma))
        topo = eng.topology
        cell = sorted(topo.cells)[0]
        cluster, regional = topo.cluster_of(cell), topo.regional_of_cell(cell)
        eng.send(*(data_packet(eng, cluster, regional) for _ in range(n)))
        drain(eng)
        rows = [e for e in eng.log.events if e.event_kind in ("rx", "drop")]
        assert len(rows) == n
        (cx, cy), (rx, ry) = topo.position(cluster), topo.position(regional)
        return [e.rssi_dbm for e in rows], math.hypot(cx - rx, cy - ry)

    def test_shadowing_statistics(self):
        n = 4000
        samples, distance = self.sampled_rssi(4.0, n)
        mean = sum(samples) / n
        var = sum((s - mean) ** 2 for s in samples) / (n - 1)
        # mean within 4 standard errors of -40 - 24*log10(d), sigma within 10%
        assert abs(mean - (-40.0 - 24.0 * math.log10(distance))) < 4.0 * 4.0 / math.sqrt(n)
        assert abs(math.sqrt(var) - 4.0) < 0.4

    def test_zero_sigma_is_deterministic(self):
        samples, distance = self.sampled_rssi(0.0, 5)
        assert samples == [RadioModel().deterministic_rssi(distance)] * 5


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


def data_packet(engine, src, dst, control=False):
    return Packet(
        packet_id=engine.next_packet_id(),
        kind=PacketKind.SENSOR_DATA if not control else PacketKind.HEARTBEAT,
        src=src,
        origin=src,
        dst=dst,
        control=control,
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
        # second try after the jammer stops, in the next wake window: delivered
        eng.schedule(40_000, eng.send, data_packet(eng, sensor, cluster))
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
        eng.schedule(0, eng.send, data_packet(eng, regional, topo.base_id))
        eng.run()
        assert [o for o, _ in self.outcomes(eng.log)] == ["rx"]
        # the regional has no cell, and a send to the base counts toward none
        (rx,) = [e for e in eng.log.events if e.event_kind == "rx"]
        assert rx.cell is None
        assert all(s.sent == s.delivered == 0 for s in eng.log.window_stats[0].values())


class TestBursts:
    """Engine.send(*packets) resolves as the same packets sent one by one would."""

    def twin(self, sigma):
        eng = make_engine(sensors_per_cell=3, radio=RadioModel(shadowing_sigma_db=sigma))
        topo = eng.topology
        eng.overheard = {s: [] for s in topo.sensor_ids()}  # the flat baseline's listening
        cell_a, cell_b = sorted(topo.cells)[:2]
        silent = topo.cluster_of(cell_b)
        eng.compromise[silent] = [(0, 10**7, CompromiseMode.SILENT)]
        a1, a2, a3 = topo.sensors_of(cell_a)
        cluster = topo.cluster_of(cell_a)
        regional = topo.regional_of_cell(cell_a)
        packets = [
            data_packet(eng, a1, cluster),
            data_packet(eng, silent, topo.regional_of_cell(cell_b), control=True),
            data_packet(eng, regional, topo.base_id),  # the reliable channel
            data_packet(eng, a2, cluster),  # overlaps the first send into the cluster
            data_packet(eng, a3, a1),  # a detour: delivered to a sensor, relayed onward
            dataclasses.replace(data_packet(eng, cluster, regional), kind=PacketKind.CLUSTER_REPORT),
        ]
        return eng, packets

    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    def test_a_burst_resolves_as_its_packets_sent_one_by_one(self, sigma):
        burst, packets = self.twin(sigma)
        burst.send(*packets)
        assert len(burst._heap) == 1  # one heap entry resolves the whole burst
        single, twin_packets = self.twin(sigma)
        for packet in twin_packets:
            single.send(packet)
        assert len(single._heap) == len(packets) - 1  # the silent sender sent nothing
        assert serialize_log(burst.run()) == serialize_log(single.run())
        if sigma:
            return
        hops = [e for e in burst.log.events if e.outcome != "Overheard"]
        outcomes = {e.packet_id: e.outcome for e in hops if e.event_kind in ("rx", "drop")}
        first, silent, long_range, second, detour, report = (p.packet_id for p in packets)
        assert outcomes[first] == outcomes[second] == Outcome.COLLISION.value
        assert silent not in outcomes
        assert outcomes[long_range] == outcomes[report] == Outcome.DELIVERED.value
        # the detour's second hop, scheduled while the burst resolved, was sent and delivered
        assert [e.event_kind for e in hops if e.packet_id == detour] == ["tx", "rx", "tx", "rx"]
        assert any(e.outcome == "Overheard" for e in burst.log.events)

    def test_an_all_silent_burst_leaves_no_heap_entry(self):
        eng, packets = self.twin(0.0)
        eng.send(packets[1])
        assert eng._heap == []


class _OneReportPerEntry(Engine):
    """The workload path before report bursts: a randint plan, and one heap entry and one send per report."""

    def _plan_workload(self):
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
        reports.sort(reverse=True)
        self._reports = reports
        self._schedule_next_report()

    def _send_report(self, report):
        _t, _seq, packet_id, sensor, dst = report
        self._schedule_next_report()
        self.send(Packet(packet_id, PacketKind.SENSOR_DATA, sensor, sensor, dst))


def planned_reports(eng):
    """Every report eng planned, in the order they go out."""
    first = [arg for _t, _seq, handler, arg in eng._heap if handler == eng._send_report]
    return first + eng._reports[::-1]


class TestReportBursts:
    """The reports planned for one instant go out as one burst, as one entry and one send per report did."""

    def engine(self, cls, sigma, mode, attacks=()):
        eng = make_engine(
            sensors_per_cell=3,
            mode=mode,
            radio=RadioModel(shadowing_sigma_db=sigma),
            workload=WorkloadConfig(),
            horizon_windows=3,
            attacks=attacks,
        )
        if cls is not Engine:
            eng = cls(eng.config, seed=eng.seed, mode=mode)
        (HodMonitors if mode == "hod" else FlatMonitors)(eng)
        apply_attacks(eng)
        return eng

    def attacks(self):
        """A detour whose relayed hop goes out at an instant where two other cells report, and a
        SlotSpoof emission at that instant into the cluster of one of those reports.

        Returns the attacks, the instant, and the sensor whose report the forgery collides with.
        """
        probe = self.engine(Engine, 0.0, "hod")
        probe._plan_workload()
        plan = planned_reports(probe)
        reporters = {}
        for t, _seq, _pid, sensor, _dst in plan:
            reporters.setdefault(t, []).append(sensor)
        topo = probe.topology
        for t, _seq, _pid, victim, _dst in plan:
            cell = topo.node(victim).cell
            resolved = t + probe.config.radio.per_hop_latency_us
            relay_t = next_compliant_slot(probe.tdma[cell], probe.smac[cell], victim, resolved)
            others = [s for s in reporters.get(relay_t, ()) if topo.node(s).cell != cell]
            if len(others) >= 2:
                break
        else:
            pytest.fail("no detour lands on an instant where two other cells report")
        collided = others[0]
        spoofed_cell = topo.node(collided).cell
        forged = next(i for i, s in enumerate(topo.sensors_of(spoofed_cell)) if s != collided)
        attacks = [
            AttackSpec(
                kind=AttackKind.ROUTE_DEVIATION, start_us=t, end_us=t + 1, cell=cell,
                sensor_index=topo.sensors_of(cell).index(victim),
            ),
            AttackSpec(
                kind=AttackKind.SLOT_SPOOF, start_us=relay_t, end_us=relay_t + 1, cell=spoofed_cell,
                sensor_index=forged, packet_count=1,
            ),
        ]
        return attacks, relay_t, collided

    def test_the_plan_is_the_randint_plan(self):
        attacks, _t, _collided = self.attacks()
        real, oracle = (self.engine(cls, 4.0, "hod", attacks) for cls in (Engine, _OneReportPerEntry))
        for eng in (real, oracle):
            eng._plan_workload()
        assert real._reports == oracle._reports
        assert [e[:2] + e[3:] for e in real._heap] == [e[:2] + e[3:] for e in oracle._heap]
        assert (real._seq, real._packet_seq) == (oracle._seq, oracle._packet_seq)
        assert real.log.ground_truth == oracle.log.ground_truth
        assert any(gt.kind == "RouteDeviation" for gt in real.log.ground_truth)

    @pytest.mark.parametrize("mode", ["hod", "flat"])
    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    def test_a_burst_per_instant_runs_as_a_send_per_report(self, sigma, mode):
        attacks, instant, collided = self.attacks()
        real = self.engine(Engine, sigma, mode, attacks)
        oracle = self.engine(_OneReportPerEntry, sigma, mode, attacks)
        bursts = {real: [], oracle: []}
        report_entries = []  # planned-report entries on the real engine's heap, at each of its sends
        for eng in (real, oracle):
            send = eng.send

            def recording_send(*packets, eng=eng, send=send):
                if eng is real:
                    report_entries.append(sum(entry[2] == real._send_report for entry in real._heap))
                bursts[eng].append(packets)
                return send(*packets)

            eng.send = recording_send
        real_log = real.run()
        assert serialize_log(real_log) == serialize_log(oracle.run())
        assert max(report_entries) == 1

        fresh = self.engine(Engine, sigma, mode, attacks)
        fresh._plan_workload()
        planned = {}
        for t, _seq, packet_id, _sensor, _dst in planned_reports(fresh):
            planned.setdefault(t, []).append(packet_id)
        planned_ids = {pid for ids in planned.values() for pid in ids}

        def report_sends(eng):
            # a relayed detour keeps its report's id but leaves from the relay
            return [
                [p.packet_id for p in burst]
                for burst in bursts[eng]
                if burst[0].packet_id in planned_ids and burst[0].src == burst[0].origin
            ]

        # one send per distinct report instant, holding that instant's reports in plan order
        assert report_sends(real) == list(planned.values())
        assert report_sends(oracle) == [[pid] for ids in planned.values() for pid in ids]
        if sigma:
            return
        # the instant holds what the scenario claims: reports of several cells, the forgery, the relayed detour
        at = [e for e in real_log.events if e.event_kind == "tx" and e.time_us == instant]
        reports = [e for e in at if e.pkt_kind == "SensorData" and e.packet_id in planned[instant]]
        assert len({e.cell for e in reports}) >= 2
        assert [e.pkt_kind for e in at].count("AttackTraffic") == 1
        relayed = [e for e in at if e.pkt_kind == "SensorData" and e.packet_id not in planned[instant]]
        assert len(relayed) == 1 and relayed[0].packet_id in planned_ids
        resolved = instant + real.config.radio.per_hop_latency_us
        cluster = real.topology.cluster_of(real.topology.node(collided).cell)
        collisions = [
            e.pkt_kind
            for e in real_log.events
            if e.time_us == resolved and e.outcome == Outcome.COLLISION.value and e.dst == cluster
        ]
        assert sorted(collisions) == ["AttackTraffic", "SensorData"]


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
        assert eng._jammer_level(x, y, eng._jammers_on(50, 51)) == pytest.approx(want, abs=1e-9)
        # outside the active window only the floor remains
        assert eng._jammer_level(x, y, eng._jammers_on(200, 201)) == -95.0

    def test_interference_cache_matches_the_uncached_sum(self):
        def cached(eng, x, y, t0, t1=None):
            return eng._jammer_level(x, y, eng._jammers_on(t0, t0 + 1 if t1 is None else t1))

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
                    assert cached(eng, x, y, t0, t1) == uncached(eng, x, y, t0, t1), (warm, x, y, t0, t1)
        # a jammer appended after the queries is seen by the next one
        before = cached(eng, 0.0, 0.0, 250)
        eng.interference.append(InterferenceSource(x=0.0, y=0.0, power_dbm=-20.0, start_us=0, end_us=1000))
        after = cached(eng, 0.0, 0.0, 250)
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
        eng.run()
        # one idle wait of 128 us, one busy one of 128 + 5000 us
        assert eng.log.window_stats[0][cell].mean_carrier_sense_us == 2628.0

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


class TestWakeGuard:
    """A sensor's data plane transmits only inside its cell's S-MAC wake window.

    The guard is an explicit raise, so it holds under python -O too.
    """

    def setup_method(self):
        self.eng = eng = make_engine()
        self.cell = sorted(eng.topology.cells)[0]
        self.sensor = eng.topology.sensors_of(self.cell)[0]
        self.cluster = eng.topology.cluster_of(self.cell)
        smac = eng.smac[self.cell]
        self.awake = smac.phase_offset_us
        self.asleep = smac.phase_offset_us + smac.awake_us  # the first instant of the sleep part
        assert is_awake(smac, self.awake) and not is_awake(smac, self.asleep)

    def tx_rows(self):
        return [(e.time_us, e.src, e.control) for e in self.eng.log.events if e.event_kind == "tx"]

    def test_a_sensor_data_send_outside_its_wake_window_raises(self):
        eng = self.eng
        # the link's record is built on an awake send; the guard still runs on every later send
        eng.now = self.awake
        eng.send(data_packet(eng, self.sensor, self.cluster))
        eng.now = self.asleep
        with pytest.raises(AssertionError, match=f"sensor {self.sensor} transmitting outside wake window"):
            eng.send(data_packet(eng, self.sensor, self.cluster))
        assert self.tx_rows() == [(self.awake, self.sensor, False)]

    def test_a_control_send_at_the_same_instant_does_not_raise(self):
        eng = self.eng
        eng.now = self.asleep
        eng.send(data_packet(eng, self.sensor, self.cluster, control=True))
        with pytest.raises(AssertionError, match="outside wake window"):
            eng.send(data_packet(eng, self.sensor, self.cluster))
        assert self.tx_rows() == [(self.asleep, self.sensor, True)]

    def test_a_cluster_send_is_never_checked(self):
        eng = self.eng
        regional = eng.topology.regional_of_cell(self.cell)
        for t in (self.asleep, self.awake + eng.smac[self.cell].period_us, self.asleep + 1):
            eng.now = t
            eng.send(data_packet(eng, self.cluster, regional), data_packet(eng, self.cluster, self.sensor))
        assert len(self.tx_rows()) == 6


class TestLinkTable:
    """Each metered (src, dst) link is priced once and kept; a phantom's forged sends are not in the table."""

    @pytest.mark.parametrize("mode", ["hod", "flat"])
    def test_one_record_per_metered_link(self, mode, monkeypatch):
        priced = []
        tx_energy_j = EnergyModel.tx_energy_j

        def counting_tx_energy_j(self, bits, distance_m):
            priced.append(distance_m)
            return tx_energy_j(self, bits, distance_m)

        monkeypatch.setattr(EnergyModel, "tx_energy_j", counting_tx_energy_j)
        eng = make_engine(
            sensors_per_cell=3,
            mode=mode,
            radio=RadioModel(shadowing_sigma_db=4.0),
            workload=WorkloadConfig(),
            attacks=[AttackSpec(kind=AttackKind.SLOT_SPOOF, start_us=0, end_us=2_000_000, cell=HexCoord(0, 0),
                                packet_count=5)],
        )
        (HodMonitors if mode == "hod" else FlatMonitors)(eng)
        apply_attacks(eng)
        eng.run()
        forged = {gt.packet_id for gt in eng.log.ground_truth if gt.kind == "SlotSpoof"}
        tx = [e for e in eng.log.events if e.event_kind == "tx"]
        metered = {(e.src, e.dst) for e in tx if e.packet_id not in forged}
        assert len(forged) == 5 and sum(e.packet_id in forged for e in tx) == 5
        assert len(priced) == len(metered) == len(eng._links)
        assert set(eng._links) == metered


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

        def flagged_overhear(self, *args):
            in_overhear[0] = True
            try:
                overhear(self, *args)
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

    def recording_send(self, *packets):
        sent.extend((packet, dataclasses.astuple(packet)) for packet in packets)
        return send(self, *packets)

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
