"""Generated-source inspection: the runtime compiler's lowering rules."""

import pytest
from hypothesis import given, settings

from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var
from repro.expr.compile import (
    generate_batched_source,
    generate_cohort_source,
    generate_rollout_source,
    generate_source,
)
from tests.expr.strategies import PARAM_NAMES, VAR_NAMES, expressions


class TestLowering:
    def test_positional_indices_are_baked(self):
        expr = ast.add(Param("b"), ast.add(Var("y"), State("s")))
        source = generate_source(
            [expr], ["a", "b"], ["x", "y"], ["s"]
        )
        assert "P[1]" in source
        assert "V[1]" in source
        assert "S[0]" in source
        assert "P[0]" not in source  # unused parameter never read

    @staticmethod
    def _temps(source):
        return [
            line.strip()
            for line in source.splitlines()
            if line.strip().startswith("t") and " = " in line
        ]

    def test_temps_only_for_shared_and_guard_operands(self):
        # Single-use subtrees fold into their consumer, leaves and
        # constants are written inline: no temp at all.
        folded = ast.mul(ast.add(Param("a"), Var("x")), Const(3))
        source = generate_source([folded], ["a"], ["x"], [])
        assert self._temps(source) == []
        assert "return (((P[0] + V[0]) * 3.0),)" in source

        # A subtree used twice -- by identity or by structure -- gets
        # exactly one temp.
        for second in (folded, ast.mul(ast.add(Param("a"), Var("x")), Const(3))):
            source = generate_source(
                [ast.sub(folded, second)], ["a"], ["x"], []
            )
            assert self._temps(source) == ["t0 = (P[0] + V[0]) * 3.0"]
            assert "return ((t0 - t0),)" in source

        # A compound operand a protected-op guard reads more than once
        # gets exactly one temp; the single-use numerator stays inline.
        denominator = ast.add(Var("x"), Const(1))
        numerator = ast.mul(Var("y"), Const(2))
        source = generate_source(
            [ast.div(numerator, denominator)], [], ["x", "y"], []
        )
        assert self._temps(source) == ["t0 = V[0] + 1.0"]
        assert "(V[1] * 2.0) / t0" in source

        # A leaf operand needs no temp even under a guard; log's magnitude
        # is read twice (guard and logarithm), so it gets one.
        source = generate_source([ast.log(Var("x"))], [], ["x"], [])
        assert self._temps(source) == ["t0 = V[0] if V[0] >= 0.0 else -V[0]"]
        source = generate_source(
            [ast.minimum(ast.exp(Var("x")), Var("y"))], [], ["x", "y"], []
        )
        assert self._temps(source) == ["t0 = _exp(60.0 if V[0] > 60.0 else V[0])"]

    def test_division_guard_structure(self):
        expr = ast.div(Var("a"), Var("b"))
        source = generate_source([expr], [], ["a", "b"], [])
        # The protected branch sits on the `if` side so a NaN denominator
        # falls through to the IEEE quotient, as in protected_div.
        assert "0.0 if " in source
        # Magnitude temp for the guard.
        assert ">= 0.0 else -" in source

    def test_exp_clamp_constant_present(self):
        source = generate_source([ast.exp(Var("x"))], [], ["x"], [])
        assert "60.0" in source

    def test_min_lowered_to_conditional(self):
        source = generate_source(
            [ast.minimum(Var("x"), Var("y"))], [], ["x", "y"], []
        )
        assert " < " in source

    def test_multiple_outputs_share_subtrees(self):
        shared = ast.mul(Var("x"), Var("x"))
        source = generate_source(
            [shared, ast.add(shared, Const(1))], [], ["x"], []
        )
        assert source.count("*") == 1  # the shared product emitted once

    def test_return_is_tuple(self):
        source = generate_source([Const(1), Const(2)], [], [], [])
        assert source.strip().endswith(")")
        assert "return (" in source

    def test_single_output_trailing_comma(self):
        source = generate_source([Const(1)], [], [], [])
        assert ",)" in source


class TestErrorPaths:
    def test_unbound_variable(self):
        from repro.expr.compile import CompilationError

        with pytest.raises(CompilationError, match="variable"):
            generate_source([Var("nope")], [], [], [])

    def test_unbound_state(self):
        from repro.expr.compile import CompilationError

        with pytest.raises(CompilationError, match="state"):
            generate_source([State("nope")], [], [], [])


class TestExtReadThrough:
    """Every emitter reads ``Ext`` markers through, so compiling an
    Ext-wrapped equation needs no ``strip_ext`` copy first."""

    @settings(max_examples=150, deadline=None)
    @given(expressions(), expressions())
    def test_sources_identical_with_and_without_ext(self, first, second):
        orders = (PARAM_NAMES, VAR_NAMES, ("s0", "s1"))
        wrapped = [first, ast.Ext("Ext1", second)]
        stripped = [ast.strip_ext(expr) for expr in wrapped]
        assert generate_source(wrapped, *orders) == generate_source(
            stripped, *orders
        )
        for target in (0, 1):
            assert generate_rollout_source(
                wrapped, *orders, target
            ) == generate_rollout_source(stripped, *orders, target)
        assert generate_batched_source(
            wrapped, *orders
        ) == generate_batched_source(stripped, *orders)
        members = [(wrapped, PARAM_NAMES), (stripped[::-1], PARAM_NAMES)]
        plain = [(stripped, PARAM_NAMES), (stripped[::-1], PARAM_NAMES)]
        assert generate_cohort_source(
            members, VAR_NAMES, orders[2], 2
        ) == generate_cohort_source(plain, VAR_NAMES, orders[2], 2)
