"""Evaluation phase timers partition wall time (the satellite fix).

``compile_time``, ``step_time`` and ``batch_fill`` used to be measured
with independent overlapping stopwatches: batch planning timed a region
that *included* kernel compilation, so the three could sum past
``wall_time``.  They now all route through one
:class:`~repro.obs.profile.PhaseProfile`, making the invariant

    derive_time + compile_time + step_time + batch_fill + triage_time
        <= wall_time

true by construction on the scalar path, the batched path, and any mix
(batched cohorts with scalar fallbacks).  ``derive_time`` (building or
reusing phenotypes) is its own phase on both paths, so batch planning's
``batch_fill`` no longer contains derivation.  These tests enforce it on
real evaluations of the toy revision problem.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

from repro.gp.fitness import EvaluationStats, GMRFitnessEvaluator
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfile
from repro.obs.trace import MemorySink, Tracer

from tests.gp.test_batched_fitness import make_cohort

#: Wall time is measured around the phase-timed region, so the phases
#: can only undershoot it -- any overshoot beyond float rounding means
#: a stopwatch overlapped.
EPSILON = 1e-9


def assert_partition(stats) -> None:
    phase_sum = (
        stats.derive_time
        + stats.compile_time
        + stats.step_time
        + stats.batch_fill
        + stats.triage_time
    )
    assert phase_sum == stats.phase_total
    assert phase_sum <= stats.wall_time + EPSILON, (
        f"phases overlap: derive={stats.derive_time:.6f} + "
        f"compile={stats.compile_time:.6f} + "
        f"step={stats.step_time:.6f} + fill={stats.batch_fill:.6f} + "
        f"triage={stats.triage_time:.6f} "
        f"= {phase_sum:.6f} > wall={stats.wall_time:.6f}"
    )


class TestPhasePartition:
    def test_scalar_path_partitions_wall_time(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        cohort = make_cohort(
            toy_grammar, toy_knowledge, small_config, seed=13, size=20
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        for individual in cohort:
            evaluator.evaluate(individual)
        stats = evaluator.stats
        assert stats.step_time > 0.0, "scalar integration must be timed"
        assert stats.derive_time > 0.0, "phenotype building must be timed"
        assert stats.batch_fill == 0.0
        assert_partition(stats)

    def test_batched_path_partitions_wall_time(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        cohort = make_cohort(
            toy_grammar, toy_knowledge, small_config, seed=13, size=20
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        evaluator.evaluate_batch(cohort)
        stats = evaluator.stats
        assert stats.batched_evaluations > 0
        assert stats.derive_time > 0.0, "planning must time derivation"
        assert stats.batch_fill > 0.0
        assert_partition(stats)

    def test_mixed_paths_accumulate_disjointly(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        # Scalar singles then a batched cohort on one evaluator: the
        # accumulated totals must still partition the accumulated wall.
        config = dataclasses.replace(small_config, kernel_batch_size=3)
        cohort = make_cohort(toy_grammar, toy_knowledge, config, seed=13)
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        for individual in copy.deepcopy(cohort[:5]):
            evaluator.evaluate(individual)
        evaluator.evaluate_batch(cohort)
        assert_partition(evaluator.stats)

    def test_partition_survives_reset(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        cohort = make_cohort(
            toy_grammar, toy_knowledge, small_config, seed=13, size=10
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        evaluator.evaluate_batch(copy.deepcopy(cohort))
        evaluator.reset()
        stats = evaluator.stats
        assert (
            stats.derive_time,
            stats.compile_time,
            stats.step_time,
            stats.batch_fill,
        ) == (0.0, 0.0, 0.0, 0.0)
        evaluator.evaluate_batch(cohort)
        assert_partition(evaluator.stats)

    def test_triage_phase_accounted(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        # With static triage on, the analysis time lands in its own
        # phase bucket and the partition still holds on both paths.
        config = dataclasses.replace(small_config, static_triage=True)
        cohort = make_cohort(toy_grammar, toy_knowledge, config, seed=13)
        evaluator = GMRFitnessEvaluator(task=toy_task, config=config)
        for individual in copy.deepcopy(cohort[:5]):
            evaluator.evaluate(individual)
        evaluator.evaluate_batch(cohort)
        stats = evaluator.stats
        assert stats.triage_time > 0.0, "triage analysis must be timed"
        assert_partition(stats)


class _Ticks:
    """A clock that advances one second per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestDerivePhase:
    def test_derive_phase_is_exclusive_inside_fill(self):
        # Batch planning opens ``derive`` inside ``fill``: the inner
        # phase pauses the outer one, so derivation leaves batch_fill.
        profile = PhaseProfile(clock=_Ticks())
        with profile.phase("fill"):
            with profile.phase("derive"):
                pass
        assert profile.totals == {"fill": 2.0, "derive": 1.0}

    def test_drain_credits_derive_time(
        self, toy_task, small_config
    ):
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        evaluator._profile = PhaseProfile(clock=_Ticks())
        with evaluator._profile.phase("derive"):
            pass
        evaluator._drain_phases()
        assert evaluator.stats.derive_time == 1.0
        assert evaluator.stats.batch_fill == 0.0

    def test_batch_event_carries_derive_time(
        self, toy_grammar, toy_knowledge, toy_task, small_config
    ):
        cohort = make_cohort(
            toy_grammar, toy_knowledge, small_config, seed=13, size=10
        )
        evaluator = GMRFitnessEvaluator(task=toy_task, config=small_config)
        sink = MemorySink()
        evaluator.tracer = Tracer(sink)
        evaluator.evaluate_batch(cohort)
        (event,) = [e for e in sink.events if e.kind == "evaluation_batch"]
        assert event.fields["batched"] is True
        assert event.fields["derive_time"] == evaluator.stats.derive_time
        assert event.fields["derive_time"] > 0.0


class TestDeriveTimeStats:
    def test_old_stats_pickles_heal_missing_derive_time(self):
        stats = EvaluationStats()
        stats.evaluations = 5
        state = dict(stats.__dict__)
        del state["derive_time"]
        healed = EvaluationStats.__new__(EvaluationStats)
        healed.__setstate__(state)
        assert healed.evaluations == 5
        assert healed.derive_time == 0.0

    def test_roundtrip_merge_and_total(self):
        a, b = EvaluationStats(), EvaluationStats()
        a.derive_time, b.derive_time = 0.5, 0.25
        a.step_time = 1.0
        assert pickle.loads(pickle.dumps(a)).derive_time == 0.5
        assert a.merge(b).derive_time == 0.75
        assert a.phase_total == 1.5

    def test_publish_reports_derive_time(self):
        stats = EvaluationStats(derive_time=0.5)
        registry = MetricsRegistry()
        stats.publish(registry)
        assert registry.gauge("eval.derive_time").value == 0.5
