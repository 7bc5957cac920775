"""Detection rules: unit truth tables, routing oracle, watchdog, rippling."""

from collections import Counter, deque

import pytest

import hodsim.detection
from conftest import make_engine
from hodsim.attacks import AttackKind, AttackSpec, apply_attacks
from hodsim.detection import (
    Alert,
    AlertRule,
    BaseAlertRecord,
    ConnectivityGraph,
    DetectorThresholds,
    FlatMonitors,
    HodMonitors,
    base_station_report,
    check_route,
    cluster_pipeline,
    detect_jamming,
    match_alerts,
    suspect_cell,
    suspect_node,
    watchdog_check,
)
from hodsim.metrics import score
from hodsim.simcore import (
    ChannelWindowStats,
    CompromiseMode,
    GroundTruthEvent,
    Packet,
    PacketKind,
    RadioModel,
    WorkloadConfig,
    active_at,
)
from hodsim.topology import HexCoord, NodeRole, build_topology

CELL = HexCoord(0, 0)
W = 1_000_000


def stats_for(cell, window=0, pdr=1.0, idle=-95.0, cs=128.0):
    return ChannelWindowStats(
        cell=cell,
        window=window,
        sent=10,
        delivered=int(round(10 * pdr)),
        pdr=pdr,
        mean_idle_rssi_dbm=idle,
        mean_carrier_sense_us=cs,
    )


class TestThresholds:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorThresholds(pdr_min=1.5)
        with pytest.raises(ValueError):
            DetectorThresholds(vote_k=0)
        with pytest.raises(ValueError):
            DetectorThresholds(vote_k=4)
        with pytest.raises(ValueError):
            DetectorThresholds(heartbeat_timeout_windows=0)

    def test_resolution_defaults(self):
        t = DetectorThresholds().resolved(RadioModel())
        assert t.idle_rssi_max_dbm == -85.0  # noise floor -95 + 10 dB
        assert t.carrier_sense_max_us == 384.0  # 3 x 128 us turnaround

    def test_resolution_keeps_explicit_values(self):
        t = DetectorThresholds(idle_rssi_max_dbm=-70.0, carrier_sense_max_us=999.0)
        r = t.resolved(RadioModel())
        assert (r.idle_rssi_max_dbm, r.carrier_sense_max_us) == (-70.0, 999.0)

    def test_unresolved_thresholds_rejected(self):
        with pytest.raises(AssertionError):
            detect_jamming(stats_for(CELL), DetectorThresholds())


class TestJammingVote:
    T = DetectorThresholds().resolved(RadioModel())

    @pytest.mark.parametrize(
        "pdr,idle,cs,want",
        [
            (1.0, -95.0, 128.0, False),  # clean
            (0.5, -95.0, 128.0, False),  # pdr only
            (1.0, -80.0, 128.0, False),  # idle only
            (1.0, -95.0, 5128.0, False),  # cs only
            (0.5, -80.0, 128.0, True),  # pdr + idle
            (0.5, -95.0, 5128.0, True),  # pdr + cs
            (1.0, -80.0, 5128.0, True),  # idle + cs
            (0.5, -80.0, 5128.0, True),  # all three
            (0.6, -85.0, 384.0, False),  # exact thresholds do not trip
        ],
    )
    def test_two_of_three_vote(self, pdr, idle, cs, want):
        fired, evidence = detect_jamming(stats_for(CELL, pdr=pdr, idle=idle, cs=cs), self.T)
        assert fired is want
        n_trips = (pdr < 0.6) + (idle > -85.0) + (cs > 384.0)
        assert len(evidence["trips"]) == n_trips

    def test_vote_k_extremes(self):
        k1 = DetectorThresholds(vote_k=1).resolved(RadioModel())
        k3 = DetectorThresholds(vote_k=3).resolved(RadioModel())
        one_trip = stats_for(CELL, pdr=0.5)
        two_trips = stats_for(CELL, pdr=0.5, idle=-80.0)
        assert detect_jamming(one_trip, k1)[0]
        assert not detect_jamming(two_trips, k3)[0]
        assert detect_jamming(stats_for(CELL, pdr=0.5, idle=-80.0, cs=5128.0), k3)[0]


class TestConnectivityGraph:
    def bfs_dist(self, adj, dst):
        dist = {dst: 0}
        dq = deque([dst])
        while dq:
            u = dq.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    dq.append(v)
        return dist

    def test_routes_are_valid_minimal_and_lexicographic(self):
        topo = make_engine(sensors_per_cell=2).topology
        graph = ConnectivityGraph(topo, 75.0)
        n = len(topo.nodes)
        # adjacency rebuilt here from raw distances, independent of the graph
        adj = {
            a: [b for b in range(n) if b != a and topo.distance(a, b) <= 75.0]
            for a in range(n)
        }
        for dst in range(n):
            dist = self.bfs_dist(adj, dst)
            for src in range(n):
                path = graph.expected_route(src, dst)
                if src not in dist:
                    assert path is None
                    continue
                assert path is not None
                assert path[0] == src and path[-1] == dst
                assert len(path) == dist[src] + 1
                for u, v in zip(path, path[1:]):
                    assert v in adj[u]
                    assert dist[v] == dist[u] - 1
                    # lexicographic minimality: no smaller-id closer neighbor
                    assert v == min(w for w in adj[u] if dist.get(w, -2) == dist[u] - 1)

    @pytest.mark.parametrize("rings", [0, 1, 2, 3])
    @pytest.mark.parametrize("sensors_per_cell", [1, 6, 10])
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_adjacency_is_every_pair_in_range(self, rings, sensors_per_cell, seed):
        topo = build_topology(rings, sensors_per_cell, seed=seed)
        n = len(topo.nodes)
        dist = [[topo.distance(a, b) for b in range(n)] for a in range(n)]
        # the distance of one sensor-cluster pair, so the inclusive boundary is pinned
        a, b = topo.sensors_of(topo.cells[0])[0], topo.cluster_of(topo.cells[-1])
        for radius in (10.0, 49.9, 75.0, 120.0, dist[a][b]):
            brute = [[m for m in range(n) if m != k and dist[k][m] <= radius] for k in range(n)]
            assert ConnectivityGraph(topo, radius).adj == brute
        assert b in ConnectivityGraph(topo, dist[a][b]).adj[a]

    def test_trivial_and_disconnected(self):
        topo = make_engine(sensors_per_cell=2).topology
        graph = ConnectivityGraph(topo, 75.0)
        assert graph.expected_route(3, 3) == [3]
        # the base sits hundreds of meters outside the patch: unreachable on
        # the short-range graph
        assert graph.expected_route(0, topo.base_id) is None


class TestCheckRoute:
    def packet(self, origin, dst, src=None):
        """A data packet from origin to dst, sent on its last hop by src (a relay) or by origin."""
        return Packet(
            packet_id=1,
            kind=PacketKind.SENSOR_DATA,
            src=origin if src is None else src,
            origin=origin,
            dst=dst,
        )

    def test_direct_hop_compliant(self):
        topo = make_engine(sensors_per_cell=2).topology
        graph = ConnectivityGraph(topo, 75.0)
        s = topo.sensors_of(CELL)[0]
        c = topo.cluster_of(CELL)
        violated, ev = check_route(graph, self.packet(s, c))
        assert not violated
        assert ev["observed_path"] == ev["expected_path"] == [s, c]

    def test_detour_flagged(self):
        topo = make_engine(sensors_per_cell=2).topology
        graph = ConnectivityGraph(topo, 75.0)
        s0, s1 = topo.sensors_of(CELL)
        c = topo.cluster_of(CELL)
        violated, ev = check_route(graph, self.packet(s0, c, src=s1))
        assert violated
        assert ev["observed_path"] == [s0, s1, c]
        assert ev["expected_path"] == [s0, c]

    def test_unroutable_pair_is_not_a_violation(self):
        topo = make_engine(sensors_per_cell=2).topology
        graph = ConnectivityGraph(topo, 75.0)
        s = topo.sensors_of(CELL)[0]
        violated, ev = check_route(graph, self.packet(s, topo.base_id))
        assert not violated
        assert ev == {"error": "NoRoute"}


class TestClusterPipeline:
    """The window step as the overlay runs it, at the cell's cluster node."""

    def setup_method(self):
        self.eng = make_engine(sensors_per_cell=3)
        self.topo = self.eng.topology
        self.graph = ConnectivityGraph(self.topo, 75.0)
        self.thresholds = DetectorThresholds().resolved(RadioModel())
        self.cluster = self.topo.cluster_of(CELL)
        self.sensors = self.topo.sensors_of(CELL)
        self.detector = self.cluster

    def inbox_entry(self, origin, t_tx, relay=None, pid=0):
        packet = Packet(
            packet_id=pid,
            kind=PacketKind.SENSOR_DATA,
            src=origin if relay is None else relay,
            origin=origin,
            dst=self.cluster,
        )
        return (t_tx + 2000, packet)

    def run_pipeline(self, received, stats=None):
        alerts, evals = cluster_pipeline(
            self.eng,
            self.graph,
            self.detector,
            0,
            received,
            detect_jamming(stats or stats_for(CELL), self.thresholds),
        )
        assert all(a.detected_by == self.detector for a in alerts)
        return alerts, evals

    def test_compliant_window_is_quiet(self):
        s0 = self.sensors[0]
        # slot 0 of the frame belongs to sensor 0; daytime, own slot, direct
        alerts, evals = self.run_pipeline([self.inbox_entry(s0, 2_000)])
        assert alerts == []
        assert evals == 1 + 4  # jamming vote + foreign/slot/sleep/route

    def test_foreign_origin_short_circuits(self):
        outsider = self.topo.sensors_of(HexCoord(1, 0))[0]
        alerts, evals = self.run_pipeline([self.inbox_entry(outsider, 2_000)])
        assert [a.rule for a in alerts] == [AlertRule.FOREIGN_ORIGIN]
        assert alerts[0].suspect == suspect_node(outsider)
        assert evals == 1 + 1  # vote + the origin check only

    def test_slot_violation(self):
        s1 = self.sensors[1]  # transmits during sensor 0's slot
        alerts, _ = self.run_pipeline([self.inbox_entry(s1, 2_000, pid=5)])
        assert [a.rule for a in alerts] == [AlertRule.SLOT_VIOLATION]
        a = alerts[0]
        assert a.suspect == suspect_node(s1)
        assert a.packet_id == 5
        assert a.evidence["slot_owner"] == self.sensors[0]
        assert a.layer == "link"

    def test_sleep_violation(self):
        s2 = self.sensors[2]
        # 52 ms: inside the sleep half-period, and slot index 5 mod 3 owns it
        alerts, _ = self.run_pipeline([self.inbox_entry(s2, 52_000)])
        assert [a.rule for a in alerts] == [AlertRule.SLEEP_VIOLATION]
        assert alerts[0].suspect == suspect_node(s2)

    def test_route_deviation(self):
        s0, s1 = self.sensors[0], self.sensors[1]
        entry = self.inbox_entry(s0, 2_000, relay=s1)
        alerts, _ = self.run_pipeline([entry])
        assert [a.rule for a in alerts] == [AlertRule.ROUTE_DEVIATION]
        assert alerts[0].evidence["expected_path"] == [s0, self.cluster]
        assert alerts[0].layer == "net"

    def test_non_data_kinds_skipped(self):
        hb = Packet(
            packet_id=9,
            kind=PacketKind.HEARTBEAT,
            src=self.cluster,
            origin=self.cluster,
            dst=self.cluster,
        )
        # a detour's first hop is data, but addressed to the relay sensor
        s0, s1 = self.sensors[0], self.sensors[1]
        first_hop = Packet(
            packet_id=10,
            kind=PacketKind.SENSOR_DATA,
            src=s0,
            origin=s0,
            dst=s1,
        )
        for packet in (hb, first_hop):
            alerts, evals = self.run_pipeline([(2_000, packet)])
            assert alerts == []
            assert evals == 1  # only the jamming vote

    def test_duplicate_alerts_packaged_once(self):
        s1 = self.sensors[1]
        entries = [self.inbox_entry(s1, 2_000, pid=5), self.inbox_entry(s1, 2_000, pid=5)]
        alerts, evals = self.run_pipeline(entries)
        assert len(alerts) == 1
        assert evals == 1 + 4 + 4  # both copies were still evaluated

    def test_jamming_vote_in_pipeline(self):
        alerts, _ = self.run_pipeline([], stats_for(CELL, pdr=0.2, idle=-70.0))
        assert [a.rule for a in alerts] == [AlertRule.JAMMING_SUSPECTED]
        assert alerts[0].suspect == suspect_cell(CELL)
        assert alerts[0].layer == "phy"


class TestClusterPipelineAtASensor(TestClusterPipeline):
    """Every case again, with a sensor of the cell as detector (the flat baseline)."""

    def setup_method(self):
        super().setup_method()
        self.detector = self.sensors[2]


class TestOneJammingVote:
    """The jamming vote is taken once per (window, cell); every reader sees that vote."""

    SPC = 3
    # Two weak jammers.  CELL's cluster reports zero alerts (the regional's
    # lookback fires); the other jammed cell's cluster is silent for two windows.
    ATTACKS = [
        AttackSpec(kind=AttackKind.JAMMING, start_us=W, end_us=4 * W, cell=CELL, power_dbm=-10.0),
        AttackSpec(
            kind=AttackKind.NODE_COMPROMISE,
            start_us=0,
            end_us=6 * W,
            cell=CELL,
            compromise_mode="FalseData",
        ),
        AttackSpec(
            kind=AttackKind.JAMMING, start_us=W, end_us=4 * W, cell=HexCoord(-1, 0), power_dbm=-5.0
        ),
        AttackSpec(
            kind=AttackKind.NODE_COMPROMISE,
            start_us=2 * W,
            end_us=4 * W,
            cell=HexCoord(-1, 0),
            compromise_mode="Silent",
        ),
    ]

    def run(self, mode):
        eng = make_engine(
            sensors_per_cell=self.SPC,
            mode=mode,
            workload=WorkloadConfig(),
            horizon_windows=6,
            attacks=self.ATTACKS,
        )
        (HodMonitors if mode == "hod" else FlatMonitors)(eng)
        apply_attacks(eng)
        eng.run()
        return eng

    def fired(self, eng):
        """{(window, cell) whose vote fired}, recomputed from the run's window stats."""
        thresholds = eng.config.detect.resolved(eng.config.radio)
        return {
            (w, cell)
            for w, by_cell in enumerate(eng.log.window_stats)
            for cell, stats in by_cell.items()
            if detect_jamming(stats, thresholds)[0]
        }

    @pytest.mark.parametrize("mode", ["hod", "flat"])
    def test_one_vote_per_window_and_cell(self, mode, monkeypatch):
        calls = []

        def counted(stats, thresholds):
            calls.append((stats.window, stats.cell))
            return detect_jamming(stats, thresholds)

        monkeypatch.setattr(hodsim.detection, "detect_jamming", counted)
        eng = self.run(mode)
        assert len(calls) == len(eng.topology.cells) * eng.log.n_windows
        assert len(set(calls)) == len(calls)

    def test_flat_sensors_of_a_cell_share_its_vote(self):
        eng = self.run("flat")
        per_pair = Counter(
            (a.window, a.suspect)
            for a in eng.log.flat_anomalies
            if a.rule is AlertRule.JAMMING_SUSPECTED
        )
        assert per_pair
        assert set(per_pair.values()) == {self.SPC}
        assert set(per_pair) == {(w, suspect_cell(cell)) for w, cell in self.fired(eng)}

    def test_hod_cluster_and_lookback_read_the_vote(self):
        eng = self.run("hod")
        topo = eng.topology
        fired = self.fired(eng)
        raised = {
            (a.window, a.suspect) for a in eng.log.alerts if a.rule is AlertRule.JAMMING_SUSPECTED
        }
        silenced = 0
        for w in range(eng.log.n_windows):
            for cell in topo.cells:
                silent = active_at(eng.compromise, topo.cluster_of(cell), (w + 1) * W)
                if silent is CompromiseMode.SILENT:
                    silenced += (w, cell) in fired
                    assert (w, suspect_cell(cell)) not in raised
                else:
                    assert ((w, suspect_cell(cell)) in raised) == ((w, cell) in fired)
        assert silenced  # a silent cluster's cell was jammed too: its vote went unread

        suppressed = [a for a in eng.log.alerts if a.rule is AlertRule.SUPPRESSED_ALERTS]
        assert suppressed
        for a in suppressed:
            cell = topo.node(int(a.suspect.split(":")[1])).cell
            for entry in a.evidence["lookback"]:
                w = entry["window"]
                assert entry["overheard_pdr"] == round(eng.log.window_stats[w][cell].pdr, 6)
                assert entry["anomalous"] == ((w, cell) in fired)


class TestWatchdog:
    def setup_method(self):
        self.topo = make_engine(sensors_per_cell=2).topology
        self.thresholds = DetectorThresholds()
        self.cluster = self.topo.cluster_of(CELL)
        self.sensor = self.topo.sensors_of(CELL)[0]
        self.regional = self.topo.regional_of_cell(CELL)

    def check(self, monitor, monitored, window=5, last_seen=4, evidence=None):
        return watchdog_check(
            self.topo,
            monitor,
            monitored,
            window,
            now=(window + 1) * W,
            last_seen_window=last_seen,
            thresholds=self.thresholds,
            suppression_evidence=evidence,
        )

    def test_hierarchy_only_monitors_one_layer_down(self):
        with pytest.raises(ValueError, match="illegal watchdog pair"):
            self.check(self.cluster, self.cluster)
        with pytest.raises(ValueError, match="illegal watchdog pair"):
            self.check(self.sensor, self.cluster)
        with pytest.raises(ValueError, match="illegal watchdog pair"):
            self.check(self.topo.base_id, self.cluster)

    def test_missed_heartbeat_threshold(self):
        assert self.check(self.cluster, self.sensor, window=5, last_seen=4) == []
        alerts = self.check(self.cluster, self.sensor, window=5, last_seen=3)
        assert [a.rule for a in alerts] == [AlertRule.MISSED_HEARTBEAT]
        assert alerts[0].evidence == {"silent_windows": 2, "last_seen_window": 3}
        assert alerts[0].suspect == suspect_node(self.sensor)

    def test_never_seen_child(self):
        alerts = self.check(self.cluster, self.sensor, window=1, last_seen=-1)
        assert [a.rule for a in alerts] == [AlertRule.MISSED_HEARTBEAT]
        assert alerts[0].evidence["silent_windows"] == 2

    def test_suppression_requires_full_lookback(self):
        good = {"anomalous": True, "reported_zero": True, "window": 0}
        partial = {"anomalous": True, "reported_zero": False, "window": 1}
        fires = self.check(self.regional, self.cluster, evidence=[good, good])
        assert [a.rule for a in fires] == [AlertRule.SUPPRESSED_ALERTS]
        assert self.check(self.regional, self.cluster, evidence=[good, partial]) == []
        assert self.check(self.regional, self.cluster, evidence=[good]) == []
        assert self.check(self.regional, self.cluster, evidence=None) == []

    def test_liveness_and_suppression_can_costack(self):
        good = {"anomalous": True, "reported_zero": True, "window": 0}
        alerts = self.check(
            self.regional, self.cluster, window=5, last_seen=2, evidence=[good, good]
        )
        assert {a.rule for a in alerts} == {
            AlertRule.MISSED_HEARTBEAT,
            AlertRule.SUPPRESSED_ALERTS,
        }


class TestRippling:
    def spoofed_run(self, *extra, horizon=6, **spec_kw):
        spec = dict(
            kind=AttackKind.SLOT_SPOOF,
            start_us=0,
            end_us=2 * W,
            cell=CELL,
            packet_count=2,
        )
        spec.update(spec_kw)
        eng = make_engine(sensors_per_cell=3, horizon_windows=horizon, attacks=[AttackSpec(**spec), *extra])
        HodMonitors(eng)
        apply_attacks(eng)
        eng.run()
        return eng

    def test_alert_ripples_cluster_regional_base(self):
        eng = self.spoofed_run()
        victim = eng.topology.sensors_of(CELL)[0]
        cluster = eng.topology.cluster_of(CELL)
        regional = eng.topology.regional_of_cell(CELL)
        local = [a for a in eng.log.alerts if a.rule is AlertRule.SLOT_VIOLATION]
        gt = [g for g in eng.log.ground_truth if g.kind == "SlotSpoof"]
        assert {a.packet_id for a in local} == {g.packet_id for g in gt}
        for a in local:
            assert a.hop_trail == [cluster]
            assert a.suspect == suspect_node(victim)
        records = [
            r for r in eng.log.base_received if r.alert.rule is AlertRule.SLOT_VIOLATION
        ]
        assert {r.alert.packet_id for r in records} == {g.packet_id for g in gt}
        for r in records:
            assert r.alert.hop_trail == [cluster, regional, eng.topology.base_id]
            # one window of store-and-forward at the regional, then one hop up
            assert r.base_arrival_us == r.alert.detected_at + W + 2000

    def test_base_detected_alert_trail_is_the_base_alone(self):
        spec = AttackSpec(
            kind=AttackKind.NODE_COMPROMISE,
            start_us=W,
            end_us=6 * W,
            target_role="regional",
            region=0,
            compromise_mode="Silent",
        )
        eng = make_engine(horizon_windows=6, attacks=[spec])
        HodMonitors(eng)
        apply_attacks(eng)
        eng.run()
        base = eng.topology.base_id
        records = [r for r in eng.log.base_received if r.alert.detected_by == base]
        assert records
        for r in records:
            assert r.alert.hop_trail == [base]
        own = [a for a in eng.log.alerts if a.detected_by == base]
        assert own and all(a.hop_trail == [base] for a in own)

    def jammed_uplink_run(self, *attacks):
        # a spoof in the first window, and the regional jammed across the next two boundaries
        topo = make_engine(sensors_per_cell=3).topology
        regional = topo.regional_of_cell(CELL)
        rx_, ry_ = topo.position(regional)
        eng = make_engine(
            sensors_per_cell=3,
            horizon_windows=8,
            attacks=[
                AttackSpec(
                    kind=AttackKind.SLOT_SPOOF,
                    start_us=0,
                    end_us=W,
                    cell=CELL,
                    packet_count=2,
                ),
                AttackSpec(
                    kind=AttackKind.JAMMING,
                    start_us=W - 10_000,
                    end_us=3 * W - 10_000,
                    cell=CELL,
                    position=(rx_, ry_),
                    power_dbm=30.0,
                ),
                *attacks,
            ],
        )
        HodMonitors(eng)
        apply_attacks(eng)
        eng.run()
        return eng

    def test_retries_deliver_exactly_once(self):
        # the outbox must retry past the jammed boundaries and the base must
        # still record each alert exactly once
        eng = self.jammed_uplink_run()
        gt = [g for g in eng.log.ground_truth if g.kind == "SlotSpoof"]
        records = [
            r for r in eng.log.base_received if r.alert.rule is AlertRule.SLOT_VIOLATION
        ]
        by_pid = {}
        for r in records:
            by_pid.setdefault(r.alert.packet_id, []).append(r)
        assert set(by_pid) == {g.packet_id for g in gt}
        for pid, recs in by_pid.items():
            assert len(recs) == 1
            # first two uplink attempts fell inside the jam window
            assert recs[0].base_arrival_us >= 4 * W

    def test_a_cluster_silent_for_a_step_resends_nothing_that_was_delivered(self):
        # the alarms sent at W are delivered while the cluster is Silent at 2W;
        # when it speaks again at 3W it must not send them a second time
        eng = self.spoofed_run(
            AttackSpec(
                kind=AttackKind.NODE_COMPROMISE,
                start_us=3 * W // 2,
                end_us=5 * W // 2,
                cell=CELL,
                compromise_mode="Silent",
            ),
            end_us=W,
        )
        keys = [r.alert.dedup_key() for r in eng.log.base_received]
        assert len(keys) == len(set(keys))
        spoofed = {g.packet_id for g in eng.log.ground_truth if g.kind == "SlotSpoof"}
        at_base = {r.alert.packet_id for r in eng.log.base_received if r.alert.rule is AlertRule.SLOT_VIOLATION}
        assert at_base == spoofed

    def test_false_data_cluster_drops_alarms_queued_before_its_compromise(self):
        # the spoof's alarms wait in the outbox while the uplink is jammed; the
        # cluster turns FalseData before they get through and must not forward them
        eng = self.jammed_uplink_run(
            AttackSpec(
                kind=AttackKind.NODE_COMPROMISE,
                start_us=3 * W // 2,
                end_us=6 * W,
                cell=CELL,
                compromise_mode="FalseData",
            )
        )
        cluster = eng.topology.cluster_of(CELL)
        assert any(a.rule is AlertRule.SLOT_VIOLATION and a.detected_by == cluster for a in eng.log.alerts)
        alarms_while_lying = [
            e
            for e in eng.log.events
            if e.event_kind == "tx"
            and e.src == cluster
            and e.pkt_kind == PacketKind.REGIONAL_ALARM.value
            and 3 * W // 2 <= e.time_us < 6 * W
        ]
        assert alarms_while_lying == []
        assert not [r for r in eng.log.base_received if r.alert.rule is AlertRule.SLOT_VIOLATION]

    def test_false_data_cluster_detects_but_never_forwards(self):
        eng = self.spoofed_run(horizon=6)
        # fresh engine with the same spoof plus a FalseData compromise
        eng2 = make_engine(
            sensors_per_cell=3,
            horizon_windows=6,
            attacks=[
                AttackSpec(
                    kind=AttackKind.SLOT_SPOOF,
                    start_us=0,
                    end_us=2 * W,
                    cell=CELL,
                    packet_count=2,
                ),
                AttackSpec(
                    kind=AttackKind.NODE_COMPROMISE,
                    start_us=0,
                    end_us=6 * W,
                    cell=CELL,
                    compromise_mode="FalseData",
                ),
            ],
        )
        HodMonitors(eng2)
        apply_attacks(eng2)
        eng2.run()
        local = [a for a in eng2.log.alerts if a.rule is AlertRule.SLOT_VIOLATION]
        assert local  # detection still happens at the cluster
        at_base = [
            r for r in eng2.log.base_received if r.alert.rule is AlertRule.SLOT_VIOLATION
        ]
        assert at_base == []
        # the honest run for contrast
        assert [
            r for r in eng.log.base_received if r.alert.rule is AlertRule.SLOT_VIOLATION
        ]


class TestMatchAlerts:
    def record(self, rule, suspect, detected_at, pid=None, arrival=None):
        alert = Alert(
            rule=rule,
            layer="link",
            suspect=suspect,
            detected_by=21,
            detected_at=detected_at,
            window=detected_at // W,
            hop_trail=[21],
            evidence={},
            packet_id=pid,
        )
        return BaseAlertRecord(alert=alert, base_arrival_us=arrival or detected_at + 2000)

    def gt(self, kind, target, t, pid=None):
        return GroundTruthEvent(time_us=t, kind=kind, target=target, detail="", packet_id=pid)

    def test_packet_id_join(self):
        truth = [self.gt("SlotSpoof", "node:4", 100, pid=7)]
        recs = [
            self.record(AlertRule.SLOT_VIOLATION, "node:4", W, pid=8),
            self.record(AlertRule.SLOT_VIOLATION, "node:4", W, pid=7),
        ]
        pairs, unmatched = match_alerts(truth, recs, W, 3)
        assert pairs == {0: 1}
        assert unmatched == {0}

    def test_window_cutoff(self):
        truth = [self.gt("SlotSpoof", "node:4", 0)]
        late = [self.record(AlertRule.SLOT_VIOLATION, "node:4", 3 * W + 1)]
        pairs, unmatched = match_alerts(truth, late, W, 3)
        assert pairs == {}
        assert unmatched == {0}
        on_time = [self.record(AlertRule.SLOT_VIOLATION, "node:4", 3 * W)]
        pairs, unmatched = match_alerts(truth, on_time, W, 3)
        assert pairs == {0: 0}
        assert unmatched == set()

    def test_rule_kind_compatibility(self):
        truth = [self.gt("SleepReplay", "node:4", 0)]
        recs = [self.record(AlertRule.SLOT_VIOLATION, "node:4", 100)]
        pairs, unmatched = match_alerts(truth, recs, W, 3)
        assert pairs == {} and unmatched == {0}

    def test_greedy_earliest_detection_wins(self):
        truth = [self.gt("NodeCompromise", "node:9", 0)]
        recs = [
            self.record(AlertRule.MISSED_HEARTBEAT, "node:9", 2 * W),
            self.record(AlertRule.MISSED_HEARTBEAT, "node:9", W),
        ]
        pairs, unmatched = match_alerts(truth, recs, W, 3)
        assert pairs == {0: 1}
        assert unmatched == {0}

    def test_one_to_one(self):
        truth = [
            self.gt("SlotSpoof", "node:4", 0, pid=1),
            self.gt("SlotSpoof", "node:4", 0, pid=2),
        ]
        recs = [
            self.record(AlertRule.SLOT_VIOLATION, "node:4", W, pid=1),
            self.record(AlertRule.SLOT_VIOLATION, "node:4", W, pid=2),
        ]
        pairs, unmatched = match_alerts(truth, recs, W, 3)
        assert pairs == {0: 0, 1: 1}
        assert unmatched == set()


class TestBaseStationReport:
    def test_spoof_run_summary(self):
        eng = TestRippling().spoofed_run()
        pairs = score(eng.log, eng.topology, DetectorThresholds()).matched
        report = base_station_report(eng.log, eng.topology, pairs)
        assert report.n_windows == 6
        scope = suspect_cell(CELL)
        assert report.tally[scope]["SlotViolation"] == 2
        assert report.compromised_monitors == []
        assert report.total_alerts == len(eng.log.base_received)
        matched = [t for t in report.timeline if t["latency_us"] is not None]
        assert len(matched) >= 2
        for t in matched:
            assert t["latency_us"] > 0
