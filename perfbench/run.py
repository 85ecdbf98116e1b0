#!/usr/bin/env python3
"""End-to-end benchmark of whole GMR runs, with an optional traced run.

Usage (from the repository root)::

    python3 perfbench/run.py                          # every workload
    python3 perfbench/run.py --workload river-default --seed 3 --seconds 40
    python3 perfbench/run.py --workload lv-durable --trace 1

Each sample is a fresh, single-threaded interpreter (``perfbench.child``)
that imports ``repro.gp``, builds the workload's engine with
``GMREngine.for_domain`` and calls ``engine.run``; one sample runs at a
time.  With ``--trace 0`` the run takes as many samples as fit in
``--seconds`` (default: ``run_seconds`` from ``BENCHMARK.json``; at
least two) and adds set-up-only samples, then reports the medians of
the end-to-end metrics.  Their times are reference seconds: CPU time
rescaled by a probe that times the core's speed during the phase
(``perfbench.probe``), because the shared host's speed drifts by more
than any bound would absorb.  The wall-clock and CPU-time medians are
printed beside them, unbounded.  With ``--trace 1`` it makes one
untraced and one traced sample, neither probed, and reports the
per-layer metrics of the traced one.  Every sample's result is checked
against ``perfbench/reference.json``.  The last line of output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--seed`` seeds each child interpreter's hash randomisation
(``PYTHONHASHSEED``).  The engine seed stays ``REFERENCE_SEED``, so
every sample can be checked bit for bit against the committed result;
``--engine-seed`` overrides it, and then the samples are checked against
each other instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.layers import COVERAGE_FLOOR, ROOT_LAYER  # noqa: E402
from perfbench.workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(ROOT, "perfbench", "out")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")
#: Every invocation ends within 180 s; children are not started past this.
DEADLINE_S = 170.0
MIN_REPEATS = 2
SETUP_ONLY_SAMPLES = 3
MEASURED_UNITS = {
    "setup_wall_s": "s",
    "run_s": "s",
    "evals_per_s": "1/s",
    "run_cpu_s": "s",
    "speed": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["REPRO_MAX_WORKERS"] = "1"
    return env


class Runner:
    """Starts children one at a time, never past the deadline."""

    def __init__(self, seed: int, engine_seed: int) -> None:
        self.env = child_env(seed)
        self.engine_seed = engine_seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.longest = 0.0
        self.last = 0.0

    def room_for(self, factor: float = 1.5) -> bool:
        return time.monotonic() + factor * self.longest < self.deadline

    def child(
        self, mode: str, workload: str, trace: bool = False, probe: bool = False
    ) -> dict | None:
        """One child's JSON report, or None when it failed."""
        command = [sys.executable, "-m", "perfbench.child", mode, workload]
        command += ["--out", OUT_DIR, "--engine-seed", str(self.engine_seed)]
        if trace:
            command.append("--trace")
        if probe:
            command.append("--probe")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired:
            print(f"{workload}: {mode} sample timed out", file=sys.stderr)
            return None
        finally:
            self.last = time.monotonic() - started
            self.longest = max(self.longest, self.last)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return None
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sys.stderr.write(proc.stdout[-4000:])
            return None


def fingerprint(sample: dict) -> tuple:
    return (sample["best_fitness"], sample["evaluations"], tuple(sample["history"]))


def expected_fingerprint(name: str, engine_seed: int) -> tuple | None:
    """The committed reference, when the samples run at its engine seed."""
    if engine_seed != REFERENCE_SEED:
        return None
    try:
        with open(REFERENCE, encoding="utf-8") as f:
            entry = json.load(f).get(name)
    except FileNotFoundError:
        return None
    return None if entry is None else fingerprint(entry)


def judge(
    name: str, samples: list[dict | None], engine_seed: int
) -> list[dict]:
    """The samples that ran and agree with the reference.

    Without a reference for the engine seed, samples must agree bit for
    bit with the first one that ran.
    """
    expected = expected_fingerprint(name, engine_seed)
    passed = []
    for sample in samples:
        if sample is None:
            continue
        if expected is None:
            expected = fingerprint(sample)
        if fingerprint(sample) == expected:
            passed.append(sample)
        else:
            print(
                f"{name}: result {sample['best_fitness']} after "
                f"{sample['evaluations']} evaluations disagrees with "
                f"{expected[0]} after {expected[1]}",
                file=sys.stderr,
            )
    return passed


def warm_up(runner: Runner, name: str) -> None:
    """One discarded set-up probe: fails fast when the program is missing."""
    if runner.child("setup", name) is None:
        raise BenchError(
            f"{name}: cannot import repro.gp and build the engine "
            f"(is {os.path.join(ROOT, 'src')} present?)"
        )


def measure(runner: Runner, name: str, seconds: float) -> dict:
    """End-to-end metrics of ``name``, tracing off."""
    warm_up(runner, name)
    samples: list[dict | None] = []
    started = time.monotonic()
    while True:
        samples.append(runner.child("run", name, probe=True))
        # Start another sample only if it should end inside the window.
        ends_at = time.monotonic() - started + runner.last
        if len(samples) >= MIN_REPEATS and ends_at > seconds:
            break
        if not runner.room_for():
            break
    passed = judge(name, samples, runner.engine_seed)
    if not passed:
        raise BenchError(f"{name}: no sample ran and agreed with the reference")
    setups = list(passed)
    for _ in range(SETUP_ONLY_SAMPLES):
        if not runner.room_for(1.0):
            break
        sample = runner.child("setup", name, probe=True)
        if sample is not None:
            setups.append(sample)
    values = {
        "setup_s": [sample["setup_ref_s"] for sample in setups],
        "run_ref_s": [sample["run_ref_s"] for sample in passed],
        "evals_per_ref_s": [
            sample["evaluations"] / sample["run_ref_s"] for sample in passed
        ],
        "peak_rss_mb": [sample["peak_rss_mb"] for sample in passed],
    }
    # As measured on this host: printed, not bounded (see design.json).
    measured = {
        "setup_wall_s": [sample["setup_wall_s"] for sample in setups],
        "run_s": [sample["run_wall_s"] for sample in passed],
        "evals_per_s": [
            sample["evaluations"] / sample["run_wall_s"] for sample in passed
        ],
        "run_cpu_s": [sample["run_cpu_s"] for sample in passed],
        "speed": [sample["run_speed"] for sample in passed],
    }
    both = {**values, **measured}
    return {
        "attempted": len(samples),
        "failed": len(samples) - len(passed),
        "metrics": {key: statistics.median(v) for key, v in values.items()},
        "measured": {key: statistics.median(v) for key, v in measured.items()},
        "samples": {key: len(v) for key, v in both.items()},
        "spread": {key: (min(v), max(v)) for key, v in both.items()},
    }


def measure_traced(runner: Runner, name: str) -> dict:
    """Per-layer metrics of one traced sample, plus its overhead."""
    warm_up(runner, name)
    samples = [runner.child("run", name), runner.child("run", name, trace=True)]
    passed = judge(name, samples, runner.engine_seed)
    untraced, traced = samples
    if untraced is None or traced is None:
        raise BenchError(f"{name}: the traced or the untraced sample did not run")
    metrics = dict(traced["layers"])
    metrics["trace.untraced_run_s"] = untraced["run_wall_s"]
    metrics["trace.overhead"] = traced["run_wall_s"] / untraced["run_wall_s"]
    return {
        "attempted": 2,
        "failed": 2 - len(passed),
        "metrics": metrics,
        "spans_file": traced.get("spans_file"),
    }


def check_names(metrics: dict, declared: list[dict], kind: str) -> None:
    names = {entry["name"] for entry in declared}
    if set(metrics) != names:
        raise BenchError(
            f"{kind} metrics disagree with BENCHMARK.json: "
            f"missing {sorted(names - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - names)}"
        )


def print_end_to_end(name: str, result: dict, units: dict) -> None:
    print(f"== {name}: end-to-end (tracing off)")
    rows = [(key, value, units[key]) for key, value in result["metrics"].items()]
    rows += [
        (key, value, MEASURED_UNITS[key]) for key, value in result["measured"].items()
    ]
    for key, value, unit in rows:
        low, high = result["spread"][key]
        note = "" if key in result["metrics"] else "  as measured, not bounded"
        print(
            f"  {key:<16} {value:>12.4f} {unit:<6} median of "
            f"{result['samples'][key]} (min {low:.4f}, max {high:.4f}){note}"
        )
    print(
        f"  {'fail_rate':<16} {result['failed'] / result['attempted']:>12.4f} "
        f"{'ratio':<6} {result['failed']} of {result['attempted']} runs failed"
    )


def print_layers(name: str, result: dict, units: dict) -> None:
    metrics = result["metrics"]
    run_s = metrics["trace.run_s"]
    print(f"== {name}: per layer (one traced run of {run_s:.3f} s)")
    for key in sorted(metrics):
        share = ""
        if key.endswith(".self_s"):
            share = f"{metrics[key] / run_s:7.1%} of traced run_s"
        print(f"  {key:<38} {metrics[key]:>14.6g} {units[key]:<6} {share}")
    if metrics["trace.coverage"] < COVERAGE_FLOOR:
        warning = (
            f"{name}: trace.coverage {metrics['trace.coverage']:.3f} is below "
            f"{COVERAGE_FLOOR}: the named layers leave too much of run_s "
            f"to {ROOT_LAYER}.self_s"
        )
        print(f"  WARNING {warning}")
        print(f"perfbench: {warning}", file=sys.stderr)
    if result.get("spans_file"):
        print(f"  spans written to {os.path.relpath(result['spans_file'], ROOT)}")


def result_line(results: dict[str, dict], units: dict[str, str]) -> dict:
    """The final JSON object; metric names carry the workload when several ran."""
    prefix = len(results) > 1
    failed = sum(result["failed"] for result in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": {
            (f"{name}.{key}" if prefix else key): {"value": value, "unit": units[key]}
            for name, result in results.items()
            for key, value in result["metrics"].items()
        },
    }


def record_reference(names: list[str], runner: Runner) -> None:
    """Write the reference result of each workload at REFERENCE_SEED."""
    try:
        with open(REFERENCE, encoding="utf-8") as f:
            reference = json.load(f)
    except FileNotFoundError:
        reference = {}
    for name in names:
        sample = runner.child("run", name)
        if sample is None:
            raise BenchError(f"{name}: the reference run failed")
        reference[name] = {
            key: sample[key]
            for key in ("best_fitness", "evaluations", "history")
        }
        print(f"{name}: {sample['best_fitness']} after {sample['evaluations']}")
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--engine-seed", type=int, default=REFERENCE_SEED)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="rewrite reference.json from one run per workload",
    )
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        spec = load_spec()
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.record_reference:
            record_reference(names, Runner(args.seed, REFERENCE_SEED))
            return 0
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        units = {entry["name"]: entry["unit"] for entry in declared}
        results = {}
        for name in names:
            # Each workload gets its own 180 s budget.
            runner = Runner(args.seed, args.engine_seed)
            if args.trace:
                result = measure_traced(runner, name)
                check_names(result["metrics"], declared, "per-layer")
                print_layers(name, result, units)
            else:
                seconds = args.seconds or spec["run_seconds"]
                result = measure(runner, name, seconds)
                check_names(result["metrics"], declared, "end-to-end")
                print_end_to_end(name, result, units)
            results[name] = result
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    print(json.dumps(result_line(results, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
