"""Layer boundaries of a GMR run, wrapped from outside the program.

:func:`install` replaces the public functions listed in :data:`LAYERS`
with span-recording wrappers (``spans.wrap_call`` / ``wrap_stream``) and
returns a function that restores the originals.  Module-level functions
are patched in the namespace that *calls* them (``repro.gp.fitness``
imports ``batched_euler_rollout`` by name, so that is where the patch
must go).  :func:`layer_metrics` turns the recorded spans plus the
evaluator's public stats objects into the per-layer metrics.
"""

from __future__ import annotations

import os
from typing import Callable

from perfbench.spans import (
    SpanRecorder,
    percentile,
    tail_percentile,
    wrap_call,
    wrap_stream,
)

#: The root span: ``GMREngine.run``, timed as ``run_s`` by the child.
ROOT_LAYER = "gp.engine"

#: ``(layer, owner, attribute)``: owner is a module path or
#: ``module:Class``.  A layer may cover several functions.
LAYERS: tuple[tuple[str, str, str], ...] = (
    (ROOT_LAYER, "repro.gp.engine:GMREngine", "run"),
    ("gp.init", "repro.gp.engine", "initial_population"),
    ("tag.derive", "repro.gp.individual", "expressions_of"),
    ("gp.individual.phenotype", "repro.gp.individual:Individual", "phenotype"),
    (
        "dynamics.system.structure_key",
        "repro.dynamics.system:ProcessModel",
        "structure_key",
    ),
    ("dynamics.system.compile", "repro.dynamics.system:ProcessModel", "compiled"),
    (
        "dynamics.system.compile",
        "repro.dynamics.system:ProcessModel",
        "compiled_batched",
    ),
    ("dynamics.system.compile", "repro.gp.fitness", "compile_cohort"),
    ("dynamics.task.step", "repro.dynamics.task:ModelingTask", "error_stream"),
    ("dynamics.integrate.batched", "repro.gp.fitness", "batched_euler_rollout"),
    ("dynamics.integrate.fused", "repro.gp.fitness", "fused_euler_rollout"),
    ("gp.fitness.evaluate", "repro.gp.fitness:GMRFitnessEvaluator", "evaluate"),
    (
        "gp.fitness.evaluate_batch",
        "repro.gp.fitness:GMRFitnessEvaluator",
        "evaluate_batch",
    ),
    ("gp.local_search", "repro.gp.engine", "hill_climb"),
    ("gp.operators", "repro.gp.engine", "crossover"),
    ("gp.operators", "repro.gp.engine", "subtree_mutation"),
    ("gp.operators", "repro.gp.engine", "gaussian_mutation"),
    ("gp.operators", "repro.gp.engine", "gaussian_mutation_best_of"),
    ("gp.operators", "repro.gp.engine", "replication"),
    ("gp.operators", "repro.gp.engine", "tournament_select"),
    ("gp.checkpoint", "repro.gp.engine", "save_checkpoint"),
    ("obs.trace", "repro.obs.trace:JsonlSink", "emit"),
)

#: The generator-aware layer: timed per yielded fitness case.
STREAM_LAYER = "dynamics.task.step"

#: ``trace.coverage`` below this leaves too much of a run unattributed.
COVERAGE_FLOOR = 0.95

#: Layers reported with ``.calls`` and ``.self_s``.
CALL_LAYERS = (
    "gp.init",
    "tag.derive",
    "gp.individual.phenotype",
    "dynamics.system.structure_key",
    "dynamics.system.compile",
    "dynamics.integrate.batched",
    "dynamics.integrate.fused",
    "gp.fitness.evaluate",
    "gp.fitness.evaluate_batch",
    "gp.local_search",
    "gp.operators",
    "gp.checkpoint",
    "obs.trace",
)


def _resolve(owner: str) -> object:
    import importlib

    module_name, _, class_name = owner.partition(":")
    target: object = importlib.import_module(module_name)
    if class_name:
        target = getattr(target, class_name)
    return target


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that unwraps them."""
    patched: list[tuple[object, str, object]] = []
    for layer, owner, attribute in LAYERS:
        target = _resolve(owner)
        original = getattr(target, attribute)
        if layer == STREAM_LAYER:
            wrapper = wrap_stream(
                recorder, layer, original, items=f"{layer}.cases"
            )
        else:
            wrapper = wrap_call(recorder, layer, original)
        if layer == "gp.checkpoint":
            wrapper = _count_bytes(recorder, wrapper)
        patched.append((target, attribute, original))
        setattr(target, attribute, wrapper)

    def uninstall() -> None:
        for target, attribute, original in reversed(patched):
            setattr(target, attribute, original)

    return uninstall


def _count_bytes(recorder: SpanRecorder, save: Callable) -> Callable:
    """Add the size of every checkpoint written to ``gp.checkpoint.bytes``."""

    def wrapper(checkpoint, path, *args, **kwargs):
        save(checkpoint, path, *args, **kwargs)
        recorder.count("gp.checkpoint.bytes", os.path.getsize(path))

    return wrapper


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    recorder: SpanRecorder, evaluator, run_s: float
) -> dict[str, float]:
    """Per-layer metrics of one traced run of ``run_s`` wall seconds.

    ``evaluator`` is the run's :class:`GMRFitnessEvaluator`; its
    ``stats``, ``cache.stats`` and ``compiled_cache.stats`` supply the
    counts and hit rates.  Every ratio comes with its base.
    """
    table = recorder.layer_table()
    empty = {"calls": 0, "self_s": 0.0}
    metrics: dict[str, float] = {}
    for layer in CALL_LAYERS:
        row = table.get(layer, empty)
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_s"] = row["self_s"]
    metrics[f"{ROOT_LAYER}.self_s"] = table.get(ROOT_LAYER, empty)["self_s"]

    step = table.get(STREAM_LAYER, empty)
    metrics[f"{STREAM_LAYER}.calls"] = recorder.counts.get(
        f"{STREAM_LAYER}.calls", 0
    )
    metrics[f"{STREAM_LAYER}.cases"] = recorder.counts.get(
        f"{STREAM_LAYER}.cases", 0
    )
    metrics[f"{STREAM_LAYER}.self_s"] = step["self_s"]
    metrics["gp.checkpoint.bytes"] = recorder.counts.get(
        "gp.checkpoint.bytes", 0
    )

    latencies = recorder.durations("gp.fitness.evaluate")
    tail = tail_percentile(len(latencies))
    metrics["gp.fitness.evaluate.p50_ms"] = (
        percentile(latencies, 50.0) * 1e3 if latencies else 0.0
    )
    metrics["gp.fitness.evaluate.tail_pct"] = tail if tail is not None else 0.0
    metrics["gp.fitness.evaluate.tail_ms"] = (
        percentile(latencies, tail) * 1e3 if tail is not None else 0.0
    )

    stats = evaluator.stats
    metrics["gp.fitness.evaluations"] = stats.evaluations
    metrics["gp.fitness.batched_share"] = _ratio(
        stats.batched_evaluations, stats.evaluations
    )
    metrics["gp.fitness.fused_cohorts"] = stats.fused_cohorts
    metrics["gp.fitness.steps_possible"] = stats.steps_possible
    metrics["gp.fitness.es_step_fraction"] = _ratio(
        stats.steps_evaluated, stats.steps_possible
    )
    tree = evaluator.cache.stats
    metrics["gp.cache.tree_lookups"] = tree.lookups
    metrics["gp.cache.tree_hit_rate"] = _ratio(tree.hits, tree.lookups)
    kernels = evaluator.compiled_cache.stats
    metrics["gp.cache.kernel_lookups"] = kernels.lookups
    metrics["gp.cache.kernel_hit_rate"] = _ratio(kernels.hits, kernels.lookups)

    metrics["trace.spans"] = len(recorder)
    metrics["trace.run_s"] = run_s
    # The root's self time is whatever no named layer covers, so it is
    # left out: coverage is the share of run_s the named layers explain.
    metrics["trace.coverage"] = _ratio(
        sum(row["self_s"] for layer, row in table.items() if layer != ROOT_LAYER),
        run_s,
    )
    return metrics
