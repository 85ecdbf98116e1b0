"""One measured GMR run (or set-up probe) in a fresh interpreter.

Run as ``python -m perfbench.child <mode> <workload> [options]`` with
``src`` on ``PYTHONPATH``; ``run.py`` starts one of these per sample so
that imports, kernel compilation and memory are paid as a user pays
them.  Prints one JSON object as its last line of output.

Modes:
    setup   time ``import repro.gp`` plus ``GMREngine.for_domain(...)``.
    run     the same set-up, then ``engine.run(seed=...)``, timed; with
            ``--trace`` the layer boundaries are wrapped first
            (``perfbench.layers``) and the spans are written to ``--out``.

Each phase (``setup``, ``run``) is reported as ``<phase>_wall_s`` (wall
clock), ``<phase>_cpu_s`` (CPU time of this process) and, with
``--probe``, ``<phase>_ref_s`` and ``<phase>_speed``: the phase's CPU
time at the reference speed, from a :class:`perfbench.probe.Probe` that
runs during the phase.  Wall and CPU times leave the probes' own time out.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from perfbench.probe import Probe
from perfbench.workloads import REFERENCE_SEED, WORKLOADS


@contextlib.contextmanager
def timed(report: dict, phase: str, probing: bool):
    """Time the body into ``report`` under ``<phase>_*`` keys."""
    probe = Probe() if probing else None
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    with probe if probe is not None else contextlib.nullcontext():
        yield
    cpu_s = time.process_time() - cpu_started
    wall_s = time.perf_counter() - wall_started
    overhead_s = 0.0
    if probe is not None:
        overhead_s = probe.overhead_s()
        report[f"{phase}_ref_s"] = probe.reference_seconds(cpu_s)
        report[f"{phase}_speed"] = probe.speed()
    report[f"{phase}_cpu_s"] = cpu_s - overhead_s
    report[f"{phase}_wall_s"] = wall_s - overhead_s


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload")
    parser.add_argument("--engine-seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--probe", action="store_true", help="report reference-speed times"
    )
    parser.add_argument("--out", required=True, help="directory for run files")
    args = parser.parse_args(argv)
    if args.trace and args.probe:
        parser.error("--probe would add its own time to the traced layers")

    workload = WORKLOADS[args.workload]
    engine_kwargs = {}
    scratch = None
    if workload.durable:
        scratch = tempfile.mkdtemp(prefix="durable-", dir=args.out)
        engine_kwargs["trace_dir"] = scratch

    report: dict = {}
    try:
        with timed(report, "setup", args.probe):
            from repro.gp import GMRConfig, GMREngine

            engine = GMREngine.for_domain(
                workload.domain, GMRConfig(**workload.config), **engine_kwargs
            )
        if args.mode == "run":
            _run(args, workload, engine, scratch, report)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


def _run(args, workload, engine, scratch, report: dict) -> None:
    run_kwargs = {}
    if scratch is not None:
        run_kwargs["checkpoint_path"] = os.path.join(scratch, "run.ckpt")
    recorder = uninstall = None
    if args.trace:
        from perfbench import layers
        from perfbench.spans import SpanRecorder

        recorder = SpanRecorder()
        uninstall = layers.install(recorder)
    evaluator = engine.make_evaluator()

    with timed(report, "run", args.probe):
        result = engine.run(seed=args.engine_seed, evaluator=evaluator, **run_kwargs)
    report.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        evaluations=result.stats.evaluations,
        best_fitness=result.best_fitness.hex(),
        history=[record.best_fitness.hex() for record in result.history],
    )
    if recorder is not None:
        uninstall()
        report["layers"] = layers.layer_metrics(
            recorder, evaluator, report["run_wall_s"]
        )
        spans_path = os.path.join(args.out, f"spans-{workload.name}.npz")
        recorder.dump(spans_path)
        report["spans_file"] = spans_path


if __name__ == "__main__":
    sys.exit(main())
