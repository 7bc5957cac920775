"""Scoring, the flat baseline monitors, and the two-mode comparison."""

import csv
import io

import pytest

from conftest import make_engine
from hodsim.attacks import AttackKind, AttackSpec, apply_attacks
from hodsim.config import ScenarioConfig
from hodsim.detection import Alert, AlertRule, BaseAlertRecord, DetectorThresholds, FlatMonitors
from hodsim.metrics import (
    _flat_records,
    compare,
    rows_to_csv,
    run_scenario,
    score,
)
from hodsim.simcore import (
    EnergyMeter,
    GroundTruthEvent,
    MessageCounters,
    RunLog,
    TraceEvent,
    WorkloadConfig,
)
from hodsim.topology import HexCoord, build_topology

CELL = HexCoord(0, 0)
W = 1_000_000


def empty_log(topo, mode="hod", n_windows=10):
    log = RunLog(
        mode=mode,
        seed=1,
        scenario_hash="h",
        config_echo={},
        horizon_us=n_windows * W,
        window_us=W,
        n_windows=n_windows,
    )
    for node in topo.nodes:
        log.meters[node.node_id] = EnergyMeter()
        log.counters[node.node_id] = MessageCounters()
    return log


def rx_event(t, src, dst, pid):
    return TraceEvent(
        time_us=t,
        event_kind="rx",
        src=src,
        dst=dst,
        cell=None,
        outcome="Delivered",
        rssi_dbm=-60.0,
        energy_uj=25.6,
        packet_id=pid,
        pkt_kind="AttackTraffic",
    )


def control_tx(t, src, dst):
    return TraceEvent(
        time_us=t,
        event_kind="tx",
        src=src,
        dst=dst,
        cell=None,
        outcome="",
        rssi_dbm=None,
        energy_uj=153.6,
        packet_id=None,
        pkt_kind="ClusterReport",
        control=True,
    )


def base_record(rule, suspect, detected_at, pid=None, arrival=None):
    return BaseAlertRecord(
        alert=Alert(
            rule=rule,
            suspect=suspect,
            detected_by=21,
            detected_at=detected_at,
            window=detected_at // W,
            hop_trail=[21],
            packet_id=pid,
        ),
        base_arrival_us=arrival if arrival is not None else detected_at + 2000,
    )


class TestScoreSynthetic:
    def build(self):
        topo = build_topology(rings=1, sensors_per_cell=2, cell_radius_m=50.0, seed=1)
        log = empty_log(topo)
        victim = topo.sensors_of(CELL)[0]
        cluster = topo.cluster_of(CELL)
        suspect = f"node:{victim}"
        log.ground_truth = [
            GroundTruthEvent(time_us=100_000, kind="SlotSpoof", target=suspect, detail="", packet_id=1),
            GroundTruthEvent(time_us=200_000, kind="SlotSpoof", target=suspect, detail="", packet_id=2),
        ]
        # only packet 1 ever reached a cluster node
        log.events.append(rx_event(102_000, victim, cluster, 1))
        log.delivered_to[1] = cluster
        log.base_received = [
            base_record(AlertRule.SLOT_VIOLATION, suspect, W, pid=1, arrival=2 * W + 2000),
            # an unmatched extra: a jamming alert nobody injected
            base_record(AlertRule.JAMMING_SUSPECTED, "cell:0,0", 4 * W),
        ]
        # control ledger: counters and trace must agree
        log.counters[cluster].control_sent = 2
        log.counters[cluster].sent = {"ClusterReport": 3}
        log.events.append(control_tx(W, cluster, 28))
        log.events.append(control_tx(2 * W, cluster, 28))
        # energy: one hot sensor, one idle-charged cluster
        log.meters[victim].tx_j = 2e-3
        log.meters[cluster].idle_j = 1e-3
        return topo, log, victim, cluster

    def test_rates_use_both_denominators(self):
        topo, log, victim, cluster = self.build()
        m = score(log, topo, DetectorThresholds())
        assert m.gt_total == {"SlotSpoof": 2}
        assert m.gt_delivered == {"SlotSpoof": 1}
        assert m.detected == {"SlotSpoof": 1}
        assert m.detection_rate["SlotSpoof"] == 0.5
        assert m.detection_rate_delivered["SlotSpoof"] == 1.0

    def test_latency_and_false_positives(self):
        topo, log, *_ = self.build()
        m = score(log, topo, DetectorThresholds())
        assert m.latencies_us["SlotSpoof"] == [2 * W + 2000 - 100_000]
        assert m.mean_latency_us("SlotSpoof") == 2 * W + 2000 - 100_000
        assert m.false_positives == {"JammingSuspected": 1}
        assert m.jamming_fp_per_100_windows == 10.0  # 1 FP over 10 windows

    def test_message_and_energy_tallies(self):
        topo, log, victim, cluster = self.build()
        m = score(log, topo, DetectorThresholds())
        assert m.ids_control_messages == 2
        assert m.total_messages == 3
        n_sensors = len(topo.sensor_ids())
        n_clusters = len(topo.cells)
        assert m.energy_mean_by_role_j["Sensor"] == pytest.approx(2e-3 / n_sensors)
        assert m.energy_mean_by_role_j["ClusterNode"] == pytest.approx(1e-3 / n_clusters)
        assert m.energy_total_j == pytest.approx(3e-3)

    def test_to_row_formats(self):
        topo, log, *_ = self.build()
        row = score(log, topo, DetectorThresholds()).to_row()
        assert row["rate_SlotSpoof"] == "0.5000"
        assert row["rate_delivered_SlotSpoof"] == "1.0000"
        assert row["fp_JammingSuspected"] == 1
        assert row["mode"] == "hod"

    def test_control_ledger_disagreement_is_fatal(self):
        topo, log, victim, cluster = self.build()
        log.counters[cluster].control_sent = 5  # counters now lie vs the trace
        with pytest.raises(AssertionError, match="ledgers disagree"):
            score(log, topo, DetectorThresholds())

    def test_delivered_ids_scan(self):
        topo, log, victim, cluster = self.build()
        assert score(log, topo, DetectorThresholds()).gt_delivered == {"SlotSpoof": 1}
        # packet 2 last reached a non-cluster node: it does not count
        log.delivered_to[2] = topo.base_id
        assert score(log, topo, DetectorThresholds()).gt_delivered == {"SlotSpoof": 1}
        # a detoured packet counts once its last receiver is the cluster
        log.delivered_to[2] = cluster
        assert score(log, topo, DetectorThresholds()).gt_delivered == {"SlotSpoof": 2}


class TestFlatRecords:
    def test_dedup_keeps_earliest(self):
        topo = build_topology(rings=1, sensors_per_cell=2, cell_radius_m=50.0, seed=1)
        log = empty_log(topo, mode="flat")
        mk = lambda by, at, window=0: Alert(
            rule=AlertRule.SLOT_VIOLATION,
            suspect="node:4",
            detected_by=by,
            detected_at=at,
            window=window,
            hop_trail=[by],
            packet_id=7,
        )
        log.flat_anomalies = [mk(10, 3000), mk(8, 1000), mk(9, 1000), mk(8, 1000, window=1)]
        records = _flat_records(log)
        assert len(records) == 2  # windows 0 and 1
        first = min(records, key=lambda r: r.alert.window)
        assert first.alert.detected_by == 8  # earliest time, then lowest id
        assert first.base_arrival_us == first.alert.detected_at == 1000


class TestFlatMonitors:
    def test_gossip_per_neighbor_per_window(self):
        eng = make_engine(
            sensors_per_cell=2, horizon_windows=2, workload=WorkloadConfig(), mode="flat"
        )
        mon = FlatMonitors(eng)
        eng.run()
        assert eng.log.flat_anomalies == []  # attack-free stays quiet
        for s in eng.topology.sensor_ids():
            assert eng.log.counters[s].control_sent == 2 * len(mon.neighbors[s])
            assert len(mon.neighbors[s]) > 0

    def test_flat_detects_slot_spoof(self):
        spoof = AttackSpec(kind=AttackKind.SLOT_SPOOF, start_us=0, end_us=2 * W, cell=CELL, packet_count=3)
        eng = make_engine(
            sensors_per_cell=3, horizon_windows=4, workload=WorkloadConfig(), mode="flat", attacks=[spoof]
        )
        FlatMonitors(eng)
        apply_attacks(eng)
        eng.run()
        m = score(eng.log, eng.topology, DetectorThresholds())
        assert m.mode == "flat"
        assert m.detection_rate["SlotSpoof"] == 1.0
        assert m.false_positives.get("JammingSuspected", 0) == 0


class TestCompare:
    def scenario(self):
        # sensor reporting is off so forged packets cannot collide with
        # legitimate slot traffic; every spoof reaches the cluster and both
        # modes see identical evidence
        return ScenarioConfig.from_dict(
            {
                "topology": {"rings": 1, "sensors_per_cell": 3},
                "workload": {"sensors_enabled": False},
                "sim": {"horizon_windows": 4},
                "attacks": [
                    {
                        "kind": "SlotSpoof",
                        "start_us": 0,
                        "end_us": 2 * W,
                        "cell": [0, 0],
                        "packet_count": 3,
                    }
                ],
            }
        )

    def run_pair(self, seed=5):
        sc = self.scenario()
        hod_log, topo = run_scenario(sc, "hod", seed)
        flat_log, _ = run_scenario(sc, "flat", seed)
        return score(hod_log, topo, sc.thresholds), score(flat_log, topo, sc.thresholds)

    def test_comparison_flags(self):
        hod, flat = self.run_pair()
        report = compare(hod, flat)
        assert report.fewer_control_messages
        assert report.lower_sensor_energy
        assert 0.0 < report.control_message_ratio < 1.0
        assert 0.0 < report.sensor_energy_ratio < 1.0
        assert report.detection_parity
        assert report.rate_delta["SlotSpoof"] == pytest.approx(
            hod.detection_rate["SlotSpoof"] - flat.detection_rate["SlotSpoof"]
        )
        text = report.to_text()
        assert "IDS control messages" in text and "detection parity" in text
        row = report.to_row()
        assert row["fewer_control_messages"] is True

    def test_mode_mismatch_refused(self):
        hod, flat = self.run_pair()
        with pytest.raises(ValueError, match="one hod and one flat"):
            compare(hod, hod)
        with pytest.raises(ValueError, match="one hod and one flat"):
            compare(flat, flat)

    def test_scenario_mismatch_refused(self):
        hod, flat = self.run_pair()
        flat.seed = 6
        with pytest.raises(ValueError, match="different scenarios"):
            compare(hod, flat)
        flat.seed = hod.seed
        flat.scenario_hash = "0" * 64
        with pytest.raises(ValueError, match="different scenarios"):
            compare(hod, flat)


class TestRunScenario:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode must be"):
            run_scenario(ScenarioConfig(), "both", 1)

    def test_log_carries_scenario_identity(self):
        sc = ScenarioConfig.from_dict(
            {"topology": {"rings": 1, "sensors_per_cell": 2}, "sim": {"horizon_windows": 2}}
        )
        log, topo = run_scenario(sc, "hod", 9)
        assert log.mode == "hod"
        assert log.seed == 9
        assert log.scenario_hash == sc.scenario_hash(9)
        assert log.n_windows == 2
        assert len(topo.nodes) == len(log.meters)


class TestCsv:
    def test_round_trip(self):
        rows = [
            {"a": 1, "b": "x,y", "c": ""},
            {"a": 2, "b": "plain", "c": "0.5"},
        ]
        text = rows_to_csv(rows)
        back = list(csv.DictReader(io.StringIO(text)))
        assert back == [
            {"a": "1", "b": "x,y", "c": ""},
            {"a": "2", "b": "plain", "c": "0.5"},
        ]

    def test_empty(self):
        assert rows_to_csv([]) == ""
