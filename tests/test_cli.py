"""CLI behavior: outputs, formats, exit codes, and failure cleanup."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from decimal import Decimal
from pathlib import Path

import pytest
import yaml

from conftest import assert_trace_replays
from hodsim import cli
from hodsim.cli import main
from hodsim.config import ScenarioConfig
from hodsim.metrics import rows_to_csv, run_scenario
from hodsim.simcore import RunLog, TraceEvent
from hodsim.topology import HexCoord

SCENARIO = """\
topology:
  rings: 1
  sensors_per_cell: 2
workload:
  sensors_enabled: false
sim:
  horizon_windows: 3
seed: 7
attacks:
  - kind: SlotSpoof
    start_us: 0
    end_us: 2000000
    cell: [0, 0]
    packet_count: 2
"""

DISCLAIMER = (
    "# detection thresholds, radio constants, and scenario parameters are "
    "simulator design choices"
)


@pytest.fixture
def cfg(tmp_path):
    p = tmp_path / "scenario.yaml"
    p.write_text(SCENARIO, encoding="utf-8")
    return str(p)


def run_cli(cfg, out, *extra):
    return main(["--config", cfg, "--out", str(out), *extra])


class TestHappyPath:
    def test_hod_run_writes_trace_summary_metrics(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(cfg, out, "--mode", "hod", "--seed", "3") == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["metrics_hod.csv", "summary_hod_3.txt", "trace_hod_3.csv"]
        trace = (out / "trace_hod_3.csv").read_text()
        assert trace.startswith("# hodsim run\n")
        assert "# mode: hod  seed: 3  windows: 3" in trace
        assert "# scenario_hash: " in trace
        assert DISCLAIMER in trace
        assert "time_us,event,src,dst,cell,outcome" in trace
        summary = (out / "summary_hod_3.txt").read_text()
        assert DISCLAIMER in summary
        assert "alerts received at base station:" in summary
        assert "SlotViolation" in summary
        metrics = (out / "metrics_hod.csv").read_text()
        assert metrics.count("\n") == 2  # header + one seed row
        assert ",hod," not in metrics.splitlines()[0]
        stdout = capsys.readouterr().out
        assert "ran hod seed=3" in stdout
        assert "wrote 3 files" in stdout

    def test_seed_defaults_to_scenario(self, cfg, tmp_path):
        out = tmp_path / "out"
        assert run_cli(cfg, out, "--mode", "hod") == 0
        assert (out / "trace_hod_7.csv").exists()

    def test_compare_mode(self, cfg, tmp_path):
        out = tmp_path / "out"
        assert run_cli(cfg, out, "--mode", "compare", "--seed", "3") == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "trace_hod_3.csv",
            "trace_flat_3.csv",
            "summary_hod_3.txt",
            "summary_flat_3.txt",
            "metrics_hod.csv",
            "metrics_flat.csv",
            "comparison.csv",
            "comparison.txt",
        }
        text = (out / "comparison.txt").read_text()
        assert "IDS control messages" in text
        assert "detection parity" in text
        flat_summary = (out / "summary_flat_3.txt").read_text()
        assert "local anomaly records:" in flat_summary

    def test_seed_range(self, cfg, tmp_path):
        out = tmp_path / "out"
        assert run_cli(cfg, out, "--mode", "hod", "--seeds", "4..6", "--format", "csv") == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "trace_hod_4.csv",
            "trace_hod_5.csv",
            "trace_hod_6.csv",
            "metrics_hod.csv",
        }
        metrics = (out / "metrics_hod.csv").read_text()
        assert metrics.count("\n") == 4  # header + three seeds


class TestFormats:
    def test_csv_only(self, cfg, tmp_path):
        out = tmp_path / "out"
        assert run_cli(cfg, out, "--format", "csv", "--seed", "1") == 0
        assert all(p.suffix == ".csv" for p in out.iterdir())

    def test_text_only(self, cfg, tmp_path):
        out = tmp_path / "out"
        assert run_cli(cfg, out, "--format", "text", "--seed", "1") == 0
        assert {p.name for p in out.iterdir()} == {"summary_hod_1.txt"}


class TestExitCodes:
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("topolgy: {}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(str(bad), out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_cell_missing_a_coordinate_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(SCENARIO.replace("cell: [0, 0]", "cell: {q: 0}"), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(str(bad), out, "--seed", "1") == 2
        assert "must have the keys q and r" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            # sensors stay disabled, so a regression that plans the workload cannot hang
            ("sensors_enabled: false\n  report_interval_us: 0", "report_interval_us must be > 0"),
            ('sensors_enabled: "no"', "'workload.sensors_enabled' must be true or false"),
            # used to fail inside the run with "cannot schedule event at -5" (exit 3)
            ("sensors_enabled: false\nradio:\n  per_hop_latency_us: -5", "per_hop_latency_us must be > 0"),
            # a hop that lands past the next window used to give silently wrong overlay answers
            (
                "sensors_enabled: false\nradio:\n  per_hop_latency_us: 1000000",
                "'radio.per_hop_latency_us' (1000000) must be < 'sim.aggregation_window_us' (1000000)",
            ),
            # a regional -> base uplink on the short-range budget at 0 dBm never delivers
            (
                "sensors_enabled: false\nradio:\n  long_range_reliable: false",
                "487 m from the base, reaches it at -104.5 dBm",
            ),
        ],
    )
    def test_bad_scalar_value_is_usage_error(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(SCENARIO.replace("sensors_enabled: false", line), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(str(bad), out, "--seed", "1") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli(str(tmp_path / "absent.yaml"), tmp_path / "out") == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_seed_arguments(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(cfg, out, "--seeds", "5..x") == 2
        assert run_cli(cfg, out, "--seeds", "9..5") == 2
        assert run_cli(cfg, out, "--seed", "1", "--seeds", "1..2") == 2
        assert run_cli(cfg, out, "--seed", "-3") == 2
        assert run_cli(cfg, out, "--seeds=-3..2") == 2
        assert run_cli(cfg, out, "--seeds", "1..\u00b2") == 2  # a digit that int() rejects
        assert not out.exists()
        capsys.readouterr()

    def test_argparse_rejections(self, cfg, tmp_path, capsys):
        assert main(["--config", cfg, "--mode", "bogus"]) == 2
        capsys.readouterr()

    # each is refused when the file is parsed, but for no-time: only the run's
    # emission-time search finds that, and it still exits 2 before any output
    @pytest.mark.parametrize(
        "attack, message",
        [
            pytest.param(
                {"cell": [7, 0]}, "'attacks[0].cell' (7,0) is not in the grid of 1 rings", id="cell-outside-grid"
            ),
            pytest.param({"cell": None}, "a SlotSpoof attack needs 'cell'", id="no-cell"),
            pytest.param({"kind": "Jamming", "cell": None}, "a Jamming attack needs 'cell'", id="jamming-no-cell"),
            pytest.param(
                {"kind": "NodeCompromise", "target_role": "regional", "cell": None},
                "a NodeCompromise attack needs 'region'",
                id="regional-no-region",
            ),
            pytest.param({"packet_count": 0}, "packet_count must be >= 1, got 0", id="no-packets"),
            pytest.param(
                {"sensor_index": 7}, "'attacks[0].sensor_index' (7) is past the 2 sensors", id="no-such-sensor"
            ),
            pytest.param({"sensor_index": -1}, "sensor_index must be >= 0, got -1", id="negative-sensor"),
            pytest.param(
                {"start_us": 5, "end_us": 1}, "need 0 <= start_us < end_us, got 5 and 1", id="reversed-interval"
            ),
            pytest.param(
                {"end_us": 99000000}, "'attacks[0].end_us' (99000000) is past the horizon (3000000 us",
                id="past-horizon",
            ),
            # [0, 1) holds only the spoofed sensor's own slot
            pytest.param(
                {"end_us": 1}, "no emission time satisfying the schedule constraints", id="no-time"
            ),
            pytest.param(
                {"kind": "NodeCompromise", "target_role": "boss"}, "target_role must be", id="bad-role"
            ),
            pytest.param(
                {"kind": "NodeCompromise", "compromise_mode": "Loud"},
                "compromise_mode must be",
                id="bad-mode",
            ),
        ],
    )
    def test_invalid_attack_spec_returns_2(self, tmp_path, capsys, attack, message):
        bad = tmp_path / "bad.yaml"
        # parses cleanly: the override replaces the spoof's own value of the key
        spec = {"kind": "SlotSpoof", "start_us": 0, "end_us": 2000000, "cell": [0, 0], **attack}
        bad.write_text(
            SCENARIO.split("attacks:")[0] + f"attacks:\n  - {json.dumps(spec)}\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        assert run_cli(str(bad), out, "--mode", "compare", "--seed", "1") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # found only when the run plans the workload, but still a bad scenario
    @pytest.mark.parametrize(
        "mac, key",
        [
            ("{awake_fraction: 0.01}", "mac.awake_fraction=0.01"),
            ("{smac_period_us: 5000}", "mac.smac_period_us=5000"),
            ("{phase_offset_us: -5}", "mac.phase_offset_us=-5"),
        ],
    )
    def test_mac_schedule_without_an_awake_slot_returns_2(self, tmp_path, capsys, mac, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "topology: {rings: 1, sensors_per_cell: 3}\nsim: {horizon_windows: 3}\n"
            f"mac: {mac}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run_cli(str(bad), out, "--mode", "compare", "--seeds", "1..2") == 2
        err = capsys.readouterr().err
        assert "no awake slot for node" in err and key in err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "attack, message",
        [
            pytest.param(
                "{kind: SlotSpoof, start_us: 0, end_us: 2000000, cell: [0, 0], power_dbm: 99}",
                "invalid section 'attacks[0]': 'power_dbm' is not used by a SlotSpoof attack",
                id="spoof-power",
            ),
            pytest.param(
                "{kind: Jamming, start_us: 0, end_us: 2000000, cell: [0, 0], sensor_index: 99}",
                "invalid section 'attacks[0]': 'sensor_index' is not used by a Jamming attack",
                id="jamming-victim",
            ),
            pytest.param(
                "{kind: NodeCompromise, start_us: 0, end_us: 2000000, target_role: regional, "
                "region: 0, cell: [5, 5]}",
                "invalid section 'attacks[0]': 'cell' is not used by a NodeCompromise attack",
                id="regional-cell",
            ),
            pytest.param(
                "{kind: Jamming, start_us: 0, end_us: 2000000, cell: [0, 0], power_dbm: 10, "
                "power_dbm: 30}",
                "duplicate key 'power_dbm' on line 4",
                id="duplicate-key",
            ),
        ],
    )
    def test_attack_the_parser_rejects_returns_2(self, tmp_path, capsys, attack, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "topology: {rings: 1, sensors_per_cell: 3}\nsim: {horizon_windows: 3}\n"
            f"attacks:\n  - {attack}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run_cli(str(bad), out, "--mode", "compare", "--seed", "1") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_partial_outputs_removed_on_failure(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        # a directory squatting on the metrics path makes the last write fail
        (out / "metrics_hod.csv").mkdir(parents=True)
        assert run_cli(cfg, out, "--seed", "3") == 3
        assert "error:" in capsys.readouterr().err
        # the trace and summary written before the failure were cleaned up
        assert not (out / "trace_hod_3.csv").exists()
        assert not (out / "summary_hod_3.txt").exists()

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["out-is-a-file", "out-under-a-file"])
    def test_out_under_a_file_is_usage_error_before_any_run(self, cfg, tmp_path, capsys, sub):
        squatter = tmp_path / "F"
        squatter.write_text("keep me\n", encoding="utf-8")
        assert run_cli(cfg, squatter / sub, "--seed", "3") == 2
        captured = capsys.readouterr()
        assert f"--out {squatter / sub}: {squatter} exists and is not a directory" in captured.err
        assert "ran " not in captured.out
        assert squatter.read_text(encoding="utf-8") == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "scenario.yaml"]

    def test_trace_write_failing_part_way_leaves_no_partial_file(self, cfg, tmp_path, capsys, monkeypatch):
        real_open = cli._OutputSet.open
        traces = []
        stored = []

        class DiskFillsUp:
            """A trace file that stores half of its first chunk of rows, then fails."""

            def __init__(self, fh):
                self.fh = fh
                self.head = 0  # characters of the header block and the column row

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, text):
                if text.startswith(("#", "time_us,")):
                    self.head += len(text)
                    return self.fh.write(text)
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                stored.append((self.head, Path(self.fh.name).stat().st_size))
                raise OSError(28, "No space left on device")

        def open_output(outputs, name):
            fh = real_open(outputs, name)
            if name.startswith("trace_"):
                traces.append(name)
                if len(traces) == 2:  # the second trace: flat, seed 3
                    return DiskFillsUp(fh)
            return fh

        monkeypatch.setattr(cli._OutputSet, "open", open_output)
        out = tmp_path / "out"
        assert run_cli(cfg, out, "--mode", "compare", "--seed", "3") == 3
        assert "No space left on device" in capsys.readouterr().err
        assert traces == ["trace_hod_3.csv", "trace_flat_3.csv"]
        # the flat trace held its header and part of its rows when the write failed
        [(head, size)] = stored
        assert 0 < head < size
        # the first trace and summary, and the flat trace cut off part-way, are all gone
        assert not list(out.iterdir())


COMPROMISE_SCENARIO = """\
topology:
  rings: 1
  sensors_per_cell: 2
sim:
  horizon_windows: 7
detect:
  match_window_count: {window_count}
attacks:
  - kind: NodeCompromise
    start_us: 2500000
    end_us: 7000000
    cell: [0, 1]
    target_role: cluster
    compromise_mode: FalseData
  - kind: Jamming
    start_us: 2000000
    end_us: 7000000
    cell: [0, 1]
    power_dbm: 10.0
"""


class TestSummaryAgreesWithMetrics:
    # the compromised head is named 1.5 windows after onset: inside a
    # three-window match span, outside a one-window span
    @pytest.mark.parametrize("window_count,want_detected", [(1, 0), (3, 1)])
    def test_summary_uses_the_scenario_match_window(self, tmp_path, window_count, want_detected):
        p = tmp_path / "compromise.yaml"
        p.write_text(COMPROMISE_SCENARIO.format(window_count=window_count), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(str(p), out, "--mode", "hod", "--seed", "3") == 0
        (row,) = csv.DictReader(io.StringIO((out / "metrics_hod.csv").read_text()))
        detected = sum(int(v) for k, v in row.items() if k.startswith("detected_"))
        assert detected == want_detected
        summary = (out / "summary_hod_3.txt").read_text()
        timeline = summary.split("alert timeline:\n", 1)[1].split("\n\n", 1)[0]
        # columns: detected_at layer rule suspect by base_arrival [latency_us] hop_trail
        with_latency = [r for r in timeline.splitlines()[1:] if len(r.split()) == 8]
        assert len(with_latency) == detected


class TestDeterminism:
    def test_reruns_are_byte_identical(self, cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(cfg, a, "--mode", "compare", "--seed", "5") == 0
        assert run_cli(cfg, b, "--mode", "compare", "--seed", "5") == 0
        for p in sorted(a.iterdir()):
            assert (b / p.name).read_bytes() == p.read_bytes(), p.name

    def test_a_seed_does_not_depend_on_earlier_runs_in_the_process(self, cfg, tmp_path):
        both, alone = tmp_path / "both", tmp_path / "alone"
        assert run_cli(cfg, both, "--mode", "compare", "--seeds", "4..5", "--format", "csv") == 0
        assert run_cli(cfg, alone, "--mode", "compare", "--seed", "5", "--format", "csv") == 0
        for mode in ("hod", "flat"):
            name = f"trace_{mode}_5.csv"
            assert (both / name).read_bytes() == (alone / name).read_bytes(), name

    def test_outputs_match_across_processes_and_hash_seeds(self, tmp_path):
        # string hashing is salted per process; no output, the scenario hash included, may depend on it
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for hash_seed in ("0", "12345"):
            out = tmp_path / f"out{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "hodsim.cli", "--config", str(EXAMPLES / "node_compromise.yaml"),
                 "--mode", "compare", "--seeds", "1..2", "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            outs.append(out)
        a, b = outs
        assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
        for p in sorted(a.iterdir()):
            assert (b / p.name).read_bytes() == p.read_bytes(), p.name


class TestRunMemory:
    def test_no_earlier_run_is_alive_when_a_run_starts(self, tmp_path, monkeypatch, collector_paused):
        # the README's promise: a --seeds sweep needs the memory of one run's log
        p = tmp_path / "scenario.yaml"
        p.write_text(SCENARIO.replace("sensors_enabled: false", "sensors_enabled: true"), encoding="utf-8")
        logs = []
        alive_at_start = []

        def tracked_run_scenario(scenario, mode, seed):
            alive_at_start.append(sum(ref() is not None for ref in logs))
            log, topology = run_scenario(scenario, mode, seed)
            logs.append(weakref.ref(log))
            return log, topology

        monkeypatch.setattr(cli, "run_scenario", tracked_run_scenario)
        assert run_cli(str(p), tmp_path / "out", "--mode", "compare", "--seeds", "1..3") == 0
        assert alive_at_start == [0] * 6
        assert sum(ref() is not None for ref in logs) == 0


EXAMPLES = Path(__file__).resolve().parent.parent / "examples_cfg"

# sha256 over the name, length and bytes of every file that
# `--mode compare --seed 1` writes for each bundled example.  A change that
# alters outputs on purpose re-pins these and says why.
EXAMPLE_DIGESTS = {
    "jamming": "ee7c0f0da58f6dacc54ef199b0a3fd22d0598afabac894b09e816da648832e15",
    "node_compromise": "1fbf42ebb865323c91b13b1b15193d3efe63a1098ca11f7799eb96cd33be87ab",
    "route_deviation": "3108f8d701de25d3a942e758953569bc7e29c496caecfc7a11c997481acc62df",
    "sleep_replay": "7ebed4ca4f9c68f35fd266015339367cecbedab9fb70aeb90eee9d1f3f0b0866",
    "slot_spoof": "88809a05fa9baecaf8c19f77e526cf8dc360ef7e0cb45c37f2d4fa53c4f4e7fe",
}


class TestBundledExamples:
    def test_every_example_is_pinned(self):
        assert {p.stem for p in EXAMPLES.glob("*.yaml")} == set(EXAMPLE_DIGESTS)

    @pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
    def test_outputs_match_pinned_digest(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(str(EXAMPLES / f"{name}.yaml"), out, "--mode", "compare", "--seed", "1") == 0
        capsys.readouterr()
        h = hashlib.sha256()
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            h.update(f"{path.name}\0{len(data)}\0".encode())
            h.update(data)
        assert h.hexdigest() == EXAMPLE_DIGESTS[name]


class TestTraceLedger:
    """The trace of each bundled example recomputes the totals in its metrics and its run log.

    A forged (phantom) send writes a tx row too, and only its zero energy tells
    it from a metered send: an attacker's radio spends no metered energy.  So
    `total_messages` counts the tx rows with energy > 0, which holds only
    while the tx energy coefficients are > 0; the test checks that they are.
    """

    @pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
    def test_metrics_match_the_trace(self, name, tmp_path, capsys):
        config = EXAMPLES / f"{name}.yaml"
        assert ScenarioConfig.from_file(str(config)).energy.e_elec_j_per_bit > 0
        out = tmp_path / "out"
        assert run_cli(str(config), out, "--mode", "compare", "--seed", "1") == 0
        capsys.readouterr()
        for mode in ("hod", "flat"):
            with open(out / f"trace_{mode}_1.csv", encoding="utf-8") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            tx = [r for r in rows if r["event"] == "tx"]
            metered = [r for r in rows if r["event"] in ("tx", "rx", "idle", "rule_eval")]
            energy_uj = sum(Decimal(r["energy_uj"]) for r in metered)
            with open(out / f"metrics_{mode}.csv", encoding="utf-8") as fh:
                (metrics,) = csv.DictReader(fh)
            assert int(metrics["total_messages"]) == sum(Decimal(r["energy_uj"]) > 0 for r in tx)
            assert int(metrics["ids_control_messages"]) == sum(r["control"] == "1" for r in tx)
            assert metrics["energy_total_j"] == f"{energy_uj / 1_000_000:.9f}"

    @pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
    def test_trace_replays_the_run_log(self, name):
        scenario = ScenarioConfig.from_file(str(EXAMPLES / f"{name}.yaml"))
        for mode in ("hod", "flat"):
            log, _ = run_scenario(scenario, mode, 1)
            assert_trace_replays(log)


class TestTraceWriter:
    """write_trace streams the trace CSV: the same bytes as formatting the whole file at once."""

    @pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
    def test_streamed_trace_equals_the_whole_file(self, name):
        scenario = ScenarioConfig.from_file(str(EXAMPLES / f"{name}.yaml"))
        for mode in ("hod", "flat"):
            log, _ = run_scenario(scenario, mode, 1)
            buf = io.StringIO()
            cli.write_trace(log, buf)
            assert buf.getvalue() == cli._header(log) + rows_to_csv(cli._trace_rows(log))

    def test_fields_needing_quotes_are_quoted_as_the_csv_module_quotes_them(self):
        log = RunLog("flat", 1, "h", {}, 3_000_000, 1_000_000, 3)
        strings = ["plain", "a,b", 'say "hi"', '"', "cr\rlf\n", ""]
        for i, text in enumerate(strings):
            for cell, rssi in ((None, None), (HexCoord(-1, 2), -71.234)):
                log.events.append(TraceEvent(i, "tx", i, None, cell, text, rssi, 1.5 * i, i, text[::-1], bool(i % 2)))
                log.events.append(TraceEvent(i, "anomaly", None, i, cell, "", None, 0.0, None, text, False))
        buf = io.StringIO()
        cli.write_trace(log, buf)
        assert buf.getvalue() == cli._header(log) + rows_to_csv(cli._trace_rows(log))

    def test_no_events_writes_the_header_block_only(self):
        log, _ = run_scenario(ScenarioConfig.from_file(str(EXAMPLES / "jamming.yaml")), "hod", 1)
        log.events.clear()
        buf = io.StringIO()
        cli.write_trace(log, buf)
        assert buf.getvalue() == cli._header(log)

    def test_memory_stays_far_below_the_file_size(self, tmp_path):
        # the csv writer's record buffer is a fixed ~130 kB; the rows themselves must not add up
        spec = yaml.safe_load((EXAMPLES / "jamming.yaml").read_text(encoding="utf-8"))
        spec["sim"]["horizon_windows"] = 24
        log, _ = run_scenario(ScenarioConfig.from_dict(spec), "flat", 1)
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            with path.open("w", encoding="utf-8") as fh:
                cli.write_trace(log, fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 3_000_000
        assert peak < size / 10, (peak, size)
