"""The Euler observation rollout equals the step-kernel Euler stream.

The fitness evaluator runs each structure through one compiled rollout
(:meth:`ProcessModel.compiled_rollout`) that yields the fitness cases
directly.  The reference is what it replaces: the step form driven
through :func:`euler_steps`, followed by the target's finite check and
``(pred - obs) ** 2``.  Every squared error must agree as ``float.hex``,
and a stream that raises must raise the same exception class with the
same message after the same number of cases.
"""

from __future__ import annotations

import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import get_domain
from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import (
    ClampSpec,
    SimulationDiverged,
    euler_steps,
    observation_error_stream,
)
from repro.dynamics.system import ProcessModel
from repro.dynamics.task import ModelingTask
from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var
from repro.expr.compile import (
    MAX_INLINE_DEPTH,
    compile_model,
    compile_rollout,
    generate_rollout_source,
    generate_source,
)
from repro.gp.config import GMRConfig
from repro.gp.fitness import GMRFitnessEvaluator
from repro.gp.init import random_individual
from repro.gp.knowledge import build_grammar
from tests.expr.strategies import PARAM_NAMES, VAR_NAMES, expressions

CLAMPS = (
    ClampSpec(),
    ClampSpec(minimum=-math.inf, maximum=math.inf),
    ClampSpec(minimum=-10.0, maximum=10.0),
)

finite = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def stepped_cases(model, params, drivers, initial, observed, target, dt, clamp):
    """The reference stream: step kernel through ``euler_steps``."""
    index = model.state_names.index(target)
    stepper = euler_steps(model, params, drivers, initial, dt, clamp)
    for step, state in enumerate(stepper):
        predicted = state[index]
        if not math.isfinite(predicted):
            raise SimulationDiverged("predicted value is not finite")
        error = predicted - float(observed[step])
        yield error * error


def outcome(stream):
    """Every yielded value as ``float.hex``, then the exception if any."""
    values = []
    try:
        for value in stream:
            assert type(value) is float
            values.append(value.hex())
    except (SimulationDiverged, OverflowError) as error:
        return values, (type(error), str(error))
    return values, None


def assert_rollout_matches(
    model, params, drivers, initial, observed, target, dt=1.0, clamp=ClampSpec()
):
    expected = outcome(
        stepped_cases(model, params, drivers, initial, observed, target, dt, clamp)
    )
    actual = outcome(
        observation_error_stream(
            model, params, drivers, initial, observed, target, dt, clamp
        )
    )
    assert actual == expected
    return actual


class TestHypothesisModels:
    @settings(max_examples=150, deadline=None)
    @given(
        expressions(max_leaves=12),
        expressions(max_leaves=12),
        st.lists(finite, min_size=3, max_size=3),
        st.lists(st.tuples(finite, finite), min_size=0, max_size=12),
        st.tuples(finite, finite),
        st.sampled_from(("s0", "s1")),
        st.sampled_from(CLAMPS),
        st.sampled_from((1.0, 0.25)),
    )
    def test_rollout_equals_stepped_stream(
        self, first, second, params, rows, initial, target, clamp, dt
    ):
        # The strategies' only state is s0; s1 enters through the
        # coupling s0 * s1 in the second equation.
        model = ProcessModel(
            {"s0": first, "s1": ast.add(second, ast.mul(State("s0"), State("s1")))},
            PARAM_NAMES,
            VAR_NAMES,
        )
        drivers = DriverTable(VAR_NAMES, np.array(rows, dtype=float).reshape(-1, 2))
        observed = np.linspace(0.0, 1.0, len(rows))
        assert_rollout_matches(
            model, tuple(params), drivers, initial, observed, target, dt, clamp
        )

    @settings(max_examples=150, deadline=None)
    @given(expressions(), st.sampled_from(CLAMPS))
    def test_single_state_models(self, expr, clamp):
        model = ProcessModel({"s0": expr}, PARAM_NAMES, VAR_NAMES)
        drivers = DriverTable(
            VAR_NAMES, np.array([[0.5, -2.0], [3.0, 1e-13], [-7.0, 40.0]])
        )
        assert_rollout_matches(
            model, (1.5, -0.25, 1e-12), drivers, (2.0,), [1.0, 2.0, 3.0], "s0",
            clamp=clamp,
        )


def domain_individuals(name, count, seed):
    spec = get_domain(name)
    knowledge = spec.make_knowledge()
    grammar = build_grammar(knowledge)
    config = GMRConfig(population_size=4, max_generations=1, max_size=24)
    rng = random.Random(seed)
    task = spec.mini_task()
    for __ in range(count):
        individual = random_individual(grammar, knowledge, config, rng)
        yield task, individual.phenotype(task.state_names, task.var_order)


class TestGrammarDerivedModels:
    @pytest.mark.parametrize("name", ["river", "lotka_volterra", "sir"])
    def test_domain_individuals(self, name):
        diverged = 0
        for task, (model, params) in domain_individuals(name, 40, seed=11):
            __, error = assert_rollout_matches(
                model,
                params,
                task.drivers,
                task.initial_state,
                task.observed,
                task.target_state,
                task.dt,
                task.clamp,
            )
            diverged += error is not None
            # The task's stream is the same rollout.
            assert outcome(task.error_stream(model, params)) == outcome(
                observation_error_stream(
                    model, params, task.drivers, task.initial_state,
                    task.observed, task.target_state, task.dt, task.clamp,
                )
            )
        assert diverged < 40


def two_state_model(first, second, params=("k",)):
    return ProcessModel({"A": first, "B": second}, params, ("x",))


def drivers_of(*values):
    return DriverTable(("x",), np.array(values, dtype=float).reshape(-1, 1))


class TestEdgeCases:
    def test_nan_in_first_state(self):
        model = two_state_model(
            ast.mul(Var("x"), State("A")), ast.mul(Param("k"), State("B"))
        )
        drivers = drivers_of(1.0, 0.5, math.nan, 2.0)
        values, error = assert_rollout_matches(
            model, (0.1,), drivers, (1.0, 2.0), [0.0] * 4, "B"
        )
        assert len(values) == 2
        assert error == (SimulationDiverged, "state became NaN")

    def test_nan_in_last_state(self):
        model = two_state_model(
            ast.mul(Param("k"), State("A")), ast.mul(Var("x"), State("B"))
        )
        drivers = drivers_of(1.0, math.nan, 2.0)
        values, error = assert_rollout_matches(
            model, (0.1,), drivers, (1.0, 2.0), [0.0] * 3, "A"
        )
        assert len(values) == 1
        assert error == (SimulationDiverged, "state became NaN")

    def test_nonfinite_target_under_unbounded_clamp(self):
        unbounded = ClampSpec(maximum=math.inf)
        model = two_state_model(
            ast.mul(Const(1e300), Const(1e300)), ast.mul(Param("k"), State("B"))
        )
        values, error = assert_rollout_matches(
            model, (0.1,), drivers_of(1.0, 2.0), (1.0, 2.0), [0.0, 0.0], "A",
            clamp=unbounded,
        )
        assert values == []
        assert error == (SimulationDiverged, "predicted value is not finite")
        # A non-target state may be infinite: only the target is checked.
        values, error = assert_rollout_matches(
            model, (0.1,), drivers_of(1.0, 2.0), (1.0, 2.0), [0.0, 0.0], "B",
            clamp=unbounded,
        )
        assert len(values) == 2 and error is None

    def test_zero_parameters(self):
        model = ProcessModel({"A": ast.sub(Var("x"), State("A"))}, (), ("x",))
        values, error = assert_rollout_matches(
            model, (), drivers_of(1.0, 2.0, 3.0), (0.5,), [1.0, 1.0, 1.0], "A"
        )
        assert len(values) == 3 and error is None

    def test_one_state_one_driver(self):
        model = ProcessModel(
            {"A": ast.div(Var("x"), ast.add(State("A"), Param("k")))},
            ("k",),
            ("x",),
        )
        values, error = assert_rollout_matches(
            model, (-1.0,), drivers_of(3.0, -1.0, 0.0, 7.0), (1.0,),
            [0.0, 1.0, 2.0, 3.0], "A",
        )
        assert len(values) == 4 and error is None

    def test_empty_driver_table(self):
        model = ProcessModel({"A": ast.mul(Param("k"), State("A"))}, ("k",), ("x",))
        no_rows = DriverTable(("x",), np.empty((0, 1)))
        assert assert_rollout_matches(
            model, (0.1,), no_rows, (1.0,), [], "A"
        ) == ([], None)
        constant = ProcessModel({"A": Param("k")}, ("k",), ())
        no_columns = DriverTable((), np.empty((3, 0)))
        values, error = assert_rollout_matches(
            model=constant, params=(0.5,), drivers=no_columns, initial=(1.0,),
            observed=[1.0, 2.0, 3.0], target="A",
        )
        assert len(values) == 3 and error is None

    def test_derivatives_read_the_old_state(self):
        # A rotation: each derivative reads the other state, so updating
        # one state before the next derivative is computed would differ.
        model = two_state_model(
            ast.neg(ast.mul(Param("k"), State("B"))),
            ast.mul(Param("k"), ast.add(State("A"), Var("x"))),
        )
        for target in ("A", "B"):
            values, error = assert_rollout_matches(
                model, (0.5,), drivers_of(0.0, 1.0, 2.0), (3.0, 5.0),
                [0.0] * 3, target, clamp=ClampSpec(-100.0, 100.0),
            )
            assert len(values) == 3 and error is None

    def test_nonfinite_constants(self):
        # Simplification folds overflowing constant subtrees to inf.
        model = ProcessModel(
            {"A": ast.sub(Const(math.inf), ast.mul(Var("x"), State("A")))},
            (),
            ("x",),
        )
        values, error = assert_rollout_matches(
            model, (), drivers_of(1.0, 2.0), (0.5,), [0.0, 0.0], "A"
        )
        assert len(values) == 2 and error is None
        assert compile_model([Const(-math.inf)], (), (), ())((), (), ()) == (
            -math.inf,
        )

    def test_parameter_only_terms_are_hoisted(self):
        rate = ast.div(Param("a"), ast.add(Param("b"), Const(1.0)))
        model = ProcessModel(
            {"A": ast.mul(rate, ast.sub(Var("x"), State("A")))},
            ("a", "b"),
            ("x",),
        )
        source = generate_rollout_source(
            [model.equations["A"]], model.param_order, model.var_order,
            model.state_names, 0,
        )
        head, loop = source.split("    for ", 1)
        assert "/ t0" in head and "/" not in loop
        assert_rollout_matches(
            model, (2.0, 3.0), drivers_of(1.0, 4.0), (0.5,), [0.0, 0.0], "A"
        )


def max_nesting(source):
    depth = deepest = 0
    for char in source:
        if char == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif char == ")":
            depth -= 1
    return deepest


def chain(length):
    expr = State("s")
    for index in range(length):
        expr = ast.add(expr, Param("p")) if index % 2 else ast.mul(expr, Const(0.999))
    return expr


class TestDeepTrees:
    def test_thousand_node_chain_compiles(self):
        expr = chain(1000)
        step = compile_model([expr], ("p",), (), ("s",))
        rollout = compile_rollout([expr], ("p",), (), ("s",), 0, SimulationDiverged)
        for source in (step.source, rollout.source):
            assert max_nesting(source) <= MAX_INLINE_DEPTH + 2
        # Both forms compute the same derivative and the same stream.
        derivative = step((1e-3,), (), (2.0,))[0]
        clamp = ClampSpec(minimum=-math.inf, maximum=math.inf)
        errors = list(
            rollout((1e-3,), [()], [2.0], [0.0], 1.0, clamp.minimum,
                    clamp.maximum, clamp.apply)
        )
        state = 2.0 + 1.0 * derivative
        assert errors == [state * state]

    def test_inline_depth_is_capped(self):
        source = generate_source([chain(200)], ("p",), (), ("s",))
        assert max_nesting(source) <= MAX_INLINE_DEPTH + 2
        # Each temp holds at most MAX_INLINE_DEPTH folded operations.
        assert source.count("\n    t") >= 200 // MAX_INLINE_DEPTH


def domain_evaluator(name, **overrides):
    spec = get_domain(name)
    knowledge = spec.make_knowledge()
    config = GMRConfig(population_size=4, max_generations=1, **overrides)
    evaluator = GMRFitnessEvaluator(task=spec.mini_task(), config=config)
    rng = random.Random(7)
    grammar = build_grammar(knowledge)
    individuals = [
        random_individual(grammar, knowledge, config, rng) for __ in range(6)
    ]
    return evaluator, individuals


class TestPaths:
    def test_interpreter_path_never_compiles(self, monkeypatch):
        compiled, individuals = domain_evaluator(
            "lotka_volterra", es_threshold=None
        )
        expected = [compiled.evaluate(copy.deepcopy(i)) for i in individuals]

        def refuse(*args, **kwargs):
            raise AssertionError("compiled a kernel on the interpreter path")

        monkeypatch.setattr(ProcessModel, "compiled_rollout", refuse)
        monkeypatch.setattr(ProcessModel, "compiled", refuse)
        calls = []
        interpret = ProcessModel.interpret_step

        def counting(self, *args):
            calls.append(1)
            return interpret(self, *args)

        monkeypatch.setattr(ProcessModel, "interpret_step", counting)
        interpreted, __ = domain_evaluator(
            "lotka_volterra", es_threshold=None, use_compilation=False
        )
        results = [interpreted.evaluate(copy.deepcopy(i)) for i in individuals]
        assert [r.hex() for r in results] == [e.hex() for e in expected]
        assert len(calls) == interpreted.stats.steps_evaluated > 0
        assert interpreted.compiled_cache.stats.lookups == 0

    def test_evaluator_compiles_only_the_rollout(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compiled the step kernel as well")

        monkeypatch.setattr(ProcessModel, "compiled", refuse)
        monkeypatch.setattr(ProcessModel, "_build_scalar_kernel", refuse)
        evaluator, individuals = domain_evaluator("river", use_tree_cache=False)
        task = evaluator.task
        target = task.state_names.index(task.target_state)
        for individual in individuals:
            evaluator.evaluate(individual)
            model, __ = individual.phenotype(task.state_names, task.var_order)
            assert model._compiled is None
            assert model._compiled_rollout.target_index == target
        # A structurally identical individual hits the share table.
        hits = evaluator.compiled_cache.stats.hits
        evaluator.evaluate(copy.deepcopy(individuals[0]))
        assert evaluator.compiled_cache.stats.hits == hits + 1

    def test_demoted_structures_pin_their_rollout(self):
        evaluator, individuals = domain_evaluator("sir")
        task = evaluator.task
        for individual in individuals:
            model, __ = individual.phenotype(task.state_names, task.var_order)
            evaluator._kernel_blocklist.add(model.structure_key())
        for individual in individuals:
            evaluator.evaluate(individual)
        assert evaluator.compiled_cache.stats.lookups == 0
        pinned = list(evaluator._demoted_scalar.values())
        assert pinned and all(hasattr(kernel, "target_index") for kernel in pinned)

    def test_pickles_carry_no_rollout(self):
        evaluator, individuals = domain_evaluator("sir")
        task = evaluator.task
        for individual in individuals:
            model, __ = individual.phenotype(task.state_names, task.var_order)
            model.structure_key()
            fresh = pickle.dumps(model)
            evaluator.evaluate(individual)
            assert model._compiled_rollout is not None
            assert pickle.dumps(model) == fresh
            assert pickle.loads(fresh)._compiled_rollout is None
        assert len(evaluator.compiled_cache) > 0
        assert task.__dict__.get("_observed_floats")
        clone = pickle.loads(pickle.dumps(evaluator))
        assert len(clone.compiled_cache) == 0
        assert clone._demoted_scalar == {}
        assert "_observed_floats" not in clone.task.__dict__


class TestObservedFloats:
    def test_cached_python_floats_never_pickled(self):
        task = ModelingTask(
            drivers=drivers_of(1.0, 2.0),
            observed=np.array([0.5, 1.5]),
            target_state="A",
            state_names=("A",),
            initial_state=(1.0,),
        )
        pristine = pickle.dumps(task)
        floats = task.observed_floats()
        assert floats == [0.5, 1.5]
        assert all(type(value) is float for value in floats)
        assert task.observed_floats() is floats
        assert pickle.dumps(task) == pristine
        clone = pickle.loads(pristine)
        assert clone.observed_floats() == floats
