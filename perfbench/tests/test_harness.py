"""Tests of the benchmark harness itself, at tiny scale.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench import layers, run
from perfbench.probe import INTERVAL_S, REFERENCE_PROBE_S, Probe
from perfbench.spans import (
    SpanRecorder,
    percentile,
    tail_percentile,
    wrap_call,
    wrap_stream,
)
from perfbench.workloads import WORKLOADS

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def load(name: str) -> dict:
    with open(os.path.join(ROOT, name), encoding="utf-8") as f:
        return json.load(f)


# -- self-time arithmetic -------------------------------------------------


def test_self_time_of_nested_call_tree(clock):
    recorder = SpanRecorder(clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(1.0)

    def root():
        clock.advance(1.0)
        traced_middle()
        clock.advance(1.0)
        traced_leaf()
        traced_leaf()
        clock.advance(2.0)

    traced_leaf = wrap_call(recorder, "leaf", leaf)
    traced_middle = wrap_call(recorder, "middle", middle)
    wrap_call(recorder, "root", root)()

    table = recorder.layer_table()
    assert table["root"] == {"calls": 1, "total_s": 9.0, "self_s": 4.0}
    assert table["middle"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert table["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert sum(row["self_s"] for row in table.values()) == 9.0
    assert recorder.durations("leaf") == [1.0, 1.0, 1.0]


def test_span_closes_when_the_call_raises(clock):
    recorder = SpanRecorder(clock)

    def boom():
        clock.advance(2.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        wrap_call(recorder, "boom", boom)()
    assert recorder.layer_table()["boom"]["self_s"] == 2.0


def test_open_span_refuses_a_table(clock):
    recorder = SpanRecorder(clock)
    recorder.enter(recorder.intern("open"))
    with pytest.raises(RuntimeError):
        recorder.layer_table()


# -- generator-aware step wrapper -----------------------------------------


def test_stream_counts_only_time_inside_next(clock):
    recorder = SpanRecorder(clock)

    def stream(n):
        for value in range(n):
            clock.advance(1.0)
            yield value

    def consumer():
        total = 0
        for value in wrap_stream(recorder, "step", stream, items="step.cases")(3):
            clock.advance(10.0)  # the consumer's own work: not the step's
            total += value
        return total

    assert wrap_call(recorder, "evaluate", consumer)() == 3
    table = recorder.layer_table()
    assert table["step"]["self_s"] == 3.0
    assert table["evaluate"]["self_s"] == 30.0
    assert recorder.counts["step.cases"] == 3
    assert recorder.counts["step.calls"] == 1


def test_stream_abandoned_early_and_raising(clock):
    recorder = SpanRecorder(clock)

    def stream():
        clock.advance(1.0)
        yield 1.0
        clock.advance(1.0)
        yield 2.0
        clock.advance(5.0)
        raise ArithmeticError("diverged")

    traced = wrap_stream(recorder, "step", stream, items="step.cases")
    for value in traced():  # short-circuit after the first case
        break
    with pytest.raises(ArithmeticError):
        list(traced())
    table = recorder.layer_table()
    assert table["step"]["self_s"] == 1.0 + (1.0 + 1.0 + 5.0)
    assert recorder.counts["step.cases"] == 3
    assert recorder.counts["step.calls"] == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(1_000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 99.0) == 99.0


# -- host-speed probe -----------------------------------------------------


def test_reference_seconds_leave_the_probes_out_and_rescale():
    probe = Probe()
    probe.times = [2 * REFERENCE_PROBE_S, 3 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S]
    assert probe.speed() == pytest.approx(0.5)
    phase_s = 10.0 + probe.overhead_s()
    assert probe.reference_seconds(phase_s) == pytest.approx(5.0)


def test_probe_fires_during_a_phase_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGPROF)
    with Probe() as probe:
        started = time.process_time()
        while time.process_time() - started < 4 * INTERVAL_S:
            pass
    assert len(probe.times) >= 4  # entry, exit and at least two timer ticks
    assert all(t > 0 for t in probe.times)
    assert signal.getsignal(signal.SIGPROF) == previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


# -- names and schema ------------------------------------------------------


def test_benchmark_json_names_and_units():
    spec = load("BENCHMARK.json")
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = []
    for kind in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[kind]:
            assert NAME.match(entry["name"]), entry["name"]
            names.append(entry["name"])
            if kind != "workloads":
                assert UNIT.match(entry["unit"]), entry["unit"]
                assert entry["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(entry["bound"] <= 0.25 for entry in spec["end_to_end"])
    assert {"setup_s", "run_ref_s", "evals_per_ref_s", "peak_rss_mb"} <= {
        entry["name"] for entry in spec["end_to_end"]
    }


def test_design_documents_every_layer_metric_once():
    spec = load("BENCHMARK.json")
    design = load("perfbench/design.json")
    documented = [
        metric for layer in design["per_layer"].values() for metric in layer["metrics"]
    ]
    assert sorted(documented) == sorted(entry["name"] for entry in spec["per_layer"])


def test_result_line_schema():
    results = {
        "river-default": {
            "attempted": 2,
            "failed": 0,
            "metrics": {"run_s": 1.5, "setup_s": 0.5},
        }
    }
    line = run.result_line(results, {"run_s": "s", "setup_s": "s"})
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 2
    assert line["metrics"]["run_s"] == {"value": 1.5, "unit": "s"}
    json.dumps(line)


# -- the traced run at tiny scale -----------------------------------------


def _tiny_run(trace: bool):
    from repro.gp import GMRConfig, GMREngine

    config = GMRConfig(
        population_size=6,
        max_generations=2,
        local_search_steps=1,
        eval_batch_size=6,
        gaussian_proposals=2,
        kernel_min_batch=1,
    )
    engine = GMREngine.for_domain("river", config, mini=True)
    evaluator = engine.make_evaluator()
    recorder = SpanRecorder()
    uninstall = layers.install(recorder) if trace else None
    try:
        result = engine.run(seed=3, evaluator=evaluator)
    finally:
        if uninstall is not None:
            uninstall()
    return result, recorder, evaluator


def test_traced_run_is_observational_and_covered():
    plain, _, _ = _tiny_run(trace=False)
    traced, recorder, evaluator = _tiny_run(trace=True)
    assert traced.best_fitness.hex() == plain.best_fitness.hex()
    assert traced.stats.evaluations == plain.stats.evaluations
    assert [r.best_fitness for r in traced.history] == [
        r.best_fitness for r in plain.history
    ]

    run_s = recorder.durations("gp.engine")[0]
    metrics = layers.layer_metrics(recorder, evaluator, run_s)
    metrics["trace.untraced_run_s"] = plain.elapsed
    metrics["trace.overhead"] = run_s / plain.elapsed
    spec = load("BENCHMARK.json")
    run.check_names(metrics, spec["per_layer"], "per-layer")
    # The root span's self time is the part no named layer covers.
    assert metrics["trace.coverage"] == pytest.approx(
        1.0 - metrics["gp.engine.self_s"] / run_s
    )
    assert 0.0 < metrics["trace.coverage"] < 1.0
    assert metrics["gp.fitness.evaluations"] == traced.stats.evaluations
    assert metrics["tag.derive.calls"] > 0
    assert metrics["dynamics.task.step.cases"] > 0
    assert metrics["gp.fitness.batched_share"] > 0

    # Unwrapped again: the patched functions are the originals.
    import repro.gp.fitness as fitness

    assert not hasattr(fitness.GMRFitnessEvaluator.evaluate, "__wrapped__")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__", "tests"),
    )
    # The full argument list of a measured run: a usage error (exit 2)
    # would fail every run, not only this one.
    command = [sys.executable, "perfbench/run.py", "--workload", "river-default"]
    command += ["--seed", "1", "--seconds", "40", "--trace", "0"]
    proc = subprocess.run(
        command,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert '"correct"' not in proc.stdout
