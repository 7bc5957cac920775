"""Quick tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import check
import run
import scenarios
import spans

hodsim = run.load_hodsim()


def tiny(seed: int) -> dict:
    return {
        "topology": {"rings": 1, "sensors_per_cell": 3},
        "sim": {"horizon_windows": 3},
        "seed": seed,
        "attacks": [{"kind": "Jamming", "start_us": 1_000_000, "end_us": 2_000_000,
                     "cell": [0, 0], "power_dbm": 10.0}],
    }


# ------------------------------------------------------------ span arithmetic


def test_self_times_subtract_direct_children_including_sends_inside_the_hook():
    # begin/end each read the clock once, in this order
    clock = iter([0, 10, 15, 20, 30, 40, 45, 50, 60, 80, 90, 100])
    t = spans.Tracer(clock=lambda: next(clock))
    root = t.begin("sample")                  # 0 .. 100
    loop = t.begin("simcore.run")             # 10 .. 90
    t.end(t.begin("simcore.send"))            # 15 .. 20, sent by the loop
    hook = t.begin("monitors.hook")           # 30 .. 80
    t.end(t.begin("simcore.send"))            # 40 .. 45, sent by the hook
    t.end(t.begin("detection.cluster_pipeline"))  # 50 .. 60
    t.end(hook)
    t.end(loop)
    t.end(root)

    assert t.self_times() == [20, 25, 5, 35, 5, 10]
    assert sum(t.self_times()) == 100

    m = run.layer_metrics(t, bytes_written=0)
    assert m["trace.wall_s"] == pytest.approx(100e-9)
    assert m["simcore.loop_self_s"] == pytest.approx(25e-9)
    assert m["simcore.send_s"] == pytest.approx(10e-9)  # both sends, wherever they ran
    assert m["monitors.hook_s"] == pytest.approx(35e-9)
    assert m["monitors.hook_window_max_s"] == pytest.approx(35e-9)
    assert m["detection.cluster_pipeline_s"] == pytest.approx(10e-9)
    assert m["trace.unattributed_s"] == pytest.approx(20e-9)
    assert m["simcore.sends"] == 2


def test_wrapped_call_closes_its_span_when_it_raises():
    t = spans.Tracer()

    def boom():
        raise ValueError("x")

    root = t.begin("sample")
    with pytest.raises(ValueError):
        t.wrap("simcore.send", boom)()
    t.end(root)
    assert t.parents == [-1, 0] and all(t.ends)


def test_traced_sample_adds_up_and_uninstalls():
    originals = (hodsim.Engine.__dict__["run"], hodsim.cli.run_scenario,
                 hodsim.ScenarioConfig.__dict__["from_dict"])
    work = run.LibraryWorkload(hodsim, tiny(3), "hod")
    plain = run.run_sample(work)
    sample, tracer = run.traced_sample(work)
    assert sample.digest == plain.digest  # tracing changes no output
    assert (hodsim.Engine.__dict__["run"], hodsim.cli.run_scenario,
            hodsim.ScenarioConfig.__dict__["from_dict"]) == originals

    m = run.layer_metrics(tracer, 0)
    self_metrics = set(run.SELF_METRIC.values())
    assert sum(m[k] for k in self_metrics) == pytest.approx(m["trace.wall_s"])
    assert m["simcore.events"] == plain.events
    assert m["detection.cluster_pipeline_calls"] == 7 * 3  # 7 cells x 3 windows
    assert m["detection.graph_edges"] > 0


# ------------------------------------------------------------ correctness gate


def test_perturbed_output_counts_as_failed():
    work = run.LibraryWorkload(hodsim, tiny(5), "hod")
    checker = check.Checker(run.run_sample(work).digest)
    assert checker.check(run.run_sample(work).digest)

    _, (log, m) = work.execute()
    log.events[len(log.events) // 2].energy_uj += 1e-3
    assert not checker.check(check.library_digest(log, m))
    assert not checker.check(None)  # a sample that raised
    assert (checker.attempted, checker.failed) == (3, 2)


def test_library_digest_covers_the_trace_csv_as_the_cli_writes_it():
    _, (log, m) = run.LibraryWorkload(hodsim, tiny(4), "hod").execute()
    csv_text = hodsim.cli.rows_to_csv(hodsim.cli._trace_rows(log))
    whole = hashlib.sha256((csv_text + json.dumps(m.to_row())).encode()).hexdigest()
    assert check.library_digest(log, m, chunk=7) == whole


def test_perturbed_file_changes_the_directory_digest(tmp_path):
    (tmp_path / "trace_hod_1.csv").write_text("# header\na,b\n1,2\n3,4\n")
    (tmp_path / "metrics_hod.csv").write_text("x\n1\n")
    digest, rows, size = check.directory_digest(tmp_path)
    assert rows == 2 and size == 25
    (tmp_path / "metrics_hod.csv").write_text("x\n2\n")
    assert check.directory_digest(tmp_path)[0] != digest


@pytest.fixture
def wrong_references(tmp_path, monkeypatch):
    """A tiny workload whose pinned reference digests are all wrong."""
    monkeypatch.setitem(run.WORKLOADS, "tiny", (tiny, "hod"))
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    refs = tmp_path / "references.json"
    monkeypatch.setattr(run, "REFERENCES", refs)
    wrong = {"digest": "0" * 64, "stats": {}}
    refs.write_text(json.dumps({"tiny": {str(scenarios.DEFAULT_SEED): wrong,
                                         str(scenarios.HELD_OUT_SEED): wrong}}))


def test_reference_mismatch_fails_the_run(wrong_references, capsys):
    assert run.measure(hodsim, "tiny", 2, 0.01, trace=False) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_traced_run_ends_when_every_sample_of_a_reference_seed_fails(wrong_references, capsys):
    assert run.measure(hodsim, "tiny", scenarios.DEFAULT_SEED, 0.01, trace=True) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == 1 + 2 * 2  # reference check + 2 pairs
    assert line["metrics"] == {}


def test_install_refuses_a_missing_target_and_restores_the_rest(monkeypatch):
    monkeypatch.setattr(spans, "METHODS", spans.METHODS + [("x", "Engine", "no_such_method")])
    original = hodsim.Engine.__dict__["run"]
    with pytest.raises(LookupError, match="hodsim.Engine.no_such_method"):
        spans.install(spans.Tracer())
    assert hodsim.Engine.__dict__["run"] is original
    assert hodsim.cli.run_scenario is hodsim.metrics.run_scenario


# ------------------------------------------------------------ workload generation


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_workload_seed_gives_same_scenario(name):
    generate, _mode = run.WORKLOADS[name]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_scenarios_do_not_depend_on_the_hash_seed():
    code = "import json, run; print(json.dumps({n: g(7) for n, (g, _) in run.WORKLOADS.items()}))"
    outs = {
        subprocess.run([sys.executable, "-c", code], cwd=run.BENCH, capture_output=True,
                       text=True, check=True, env={**os.environ, "PYTHONHASHSEED": h}).stdout
        for h in ("1", "2")
    }
    assert len(outs) == 1


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_generated_scenarios_set_up_without_error(name):
    for seed in (0, 1, 2):
        work = run.make_workload(hodsim, name, seed)
        try:
            assert work.setup() > 0
        finally:
            work.close()


def test_scaling_scenarios_are_deterministic():
    assert scenarios.scaling(3, 1) == scenarios.scaling(3, 1)
    assert scenarios.scaling(3, 1)["topology"] == {"rings": 3, "sensors_per_cell": 10}
