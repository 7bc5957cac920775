"""CLI behavior: outputs, formats, exit codes, and failure cleanup."""

import csv
import hashlib
import io
from pathlib import Path

import pytest

from hodsim.cli import main

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

    # each is found only when the run places the attack, but is still a bad scenario
    @pytest.mark.parametrize(
        "attack, message",
        [
            pytest.param("cell: [5, 5]", "cell (5,5) is not in the grid", id="cell-outside-grid"),
            pytest.param("cell: null", "target cell is required", id="no-cell"),
            pytest.param("packet_count: 0", "packet_count must be >= 1", id="no-packets"),
            pytest.param("sensor_index: 7", "sensor_index 7 out of range", id="no-such-sensor"),
            pytest.param(
                "end_us: 99000000", "interval [0, 99000000) must lie within", id="past-horizon"
            ),
            # [0, 1) holds only the spoofed sensor's own slot
            pytest.param(
                "end_us: 1", "no emission time satisfying the schedule constraints", id="no-time"
            ),
            pytest.param(
                "kind: NodeCompromise, target_role: boss", "target_role must be", id="bad-role"
            ),
            pytest.param(
                "kind: NodeCompromise, compromise_mode: Loud", "compromise_mode must be", id="bad-mode"
            ),
        ],
    )
    def test_invalid_attack_spec_returns_2(self, tmp_path, capsys, attack, message):
        bad = tmp_path / "bad.yaml"
        # parses cleanly; the override comes last in the flow mapping, so it wins
        spec = "{kind: SlotSpoof, start_us: 0, end_us: 2000000, cell: [0, 0], packet_count: 2, "
        bad.write_text(
            SCENARIO.split("attacks:")[0] + f"attacks:\n  - {spec}{attack}}}\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        assert run_cli(str(bad), out, "--mode", "compare", "--seed", "1") == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_partial_outputs_removed_on_failure(self, cfg, tmp_path, capsys):
        out = tmp_path / "out"
        # a directory squatting on the metrics path makes the last write fail
        (out / "metrics_hod.csv").mkdir(parents=True)
        assert run_cli(cfg, out, "--seed", "3") == 3
        assert "error:" in capsys.readouterr().err
        # the trace and summary written before the failure were cleaned up
        assert not (out / "trace_hod_3.csv").exists()
        assert not (out / "summary_hod_3.txt").exists()


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
