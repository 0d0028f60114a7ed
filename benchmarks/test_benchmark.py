"""Self-tests of the benchmark on tiny inputs.

    python3 -m pytest benchmarks -q
"""

import json
import os
import shutil
import signal
from time import perf_counter
from pathlib import Path

import pytest

import calibrate
import checks
import run
import tracing
import worker
import workloads

TINY_DEMO = {"n": 700, "epochs": 1, "warmup": 200, "onset": 450}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny demo plan, run once traced and once untraced."""
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("work"))
    try:
        plan = workloads.demo(seed=5, **TINY_DEMO)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = worker.run_pass(plan, tracer)
        untraced = worker.run_pass(plan)
        yield plan, traced, untraced, tracer
    finally:
        os.chdir(cwd)


def test_tiny_pass_succeeds_and_is_deterministic(tiny):
    plan, traced, untraced, _ = tiny
    assert traced.attempted == untraced.attempted == 4
    assert traced.failed == untraced.failed == 0
    assert traced.digest == untraced.digest


def test_every_layer_yields_a_span(tiny):
    spans = tiny[3].spans
    names = {span.name for span in spans}
    assert set(tracing.SPAN_NAMES) <= names
    by_id = {span.id: span for span in spans}
    # cli and nn.network bind these through their own ``from ... import``
    assert any(s.name == "io_utils.write_csv" and by_id[s.parent].name == "cli.cmd_detect"
               for s in spans)
    assert any(s.name == "nn.gru_backward" and by_id[s.parent].name == "nn.gradients"
               for s in spans)


def test_self_times_add_up_to_stage_wall(tiny):
    spans = tiny[3].spans
    child = {span.id: 0.0 for span in spans}
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    roots = [s for s in spans if s.parent is None]
    assert [r.name for r in roots] == ["stage.simulate", "stage.train", "stage.detect",
                                       "stage.report"]
    for root in roots:
        members = [s for s in spans if s.stage == root.stage]
        selfs = [s.end - s.start - child[s.id] for s in members]
        assert min(selfs) >= 0.0
        assert sum(selfs) == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-9)
    summary = tracing.summarize(spans)
    assert all(stats["self_s"] >= 0.0 for stats in summary.values())


def test_checker_flags_flipped_fused_flag(tiny, tmp_path):
    scenario = tiny[0][0]
    run_dir = tmp_path / "run"
    shutil.copytree(Path(scenario.run_dir).resolve(), run_dir)
    detect = ("detect", "--config", scenario.config)
    assert checks.check_stage(detect, run_dir, scenario.n, scenario.warmup) == []

    path = run_dir / "verdicts_fused.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = "0" if cells[-1] == "1" else "1"
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_stage(detect, run_dir, scenario.n, scenario.warmup)
    assert any("fused flag" in p for p in problems)


def test_checker_flags_passive_flag_in_warmup(tiny, tmp_path):
    scenario = tiny[0][0]
    run_dir = tmp_path / "run"
    shutil.copytree(Path(scenario.run_dir).resolve(), run_dir)
    path = run_dir / "verdicts_passive.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",1"
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_stage(("detect",), run_dir, scenario.n, scenario.warmup)
    assert any("warm-up" in p for p in problems)


def test_missing_layer_records_no_span():
    tracer = tracing.Tracer()
    gone = tracing.Layer("fdia_lab.akf", "no_such_function", "akf.no_such_function")
    with tracing.installed(tracer, layers=[gone]):
        pass
    assert tracer.spans == []


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_reference_clock_takes_its_samples_out_of_the_call():
    def work():
        start = perf_counter()
        while perf_counter() - start < 2.5 * calibrate.INTERVAL_S:
            pass

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.ReferenceClock() as clock:
        start = perf_counter()
        _, own, scaled = clock.time(work)
        wall = perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.samples) >= 3          # before, during and after the call
    during = sum(clock.samples[1:-1])
    assert own == pytest.approx(wall - during - clock.samples[-1] - clock.samples[0],
                                abs=0.01)
    assert scaled == pytest.approx(own * calibrate.REF_S / (sum(clock.samples)
                                                            / len(clock.samples)))
