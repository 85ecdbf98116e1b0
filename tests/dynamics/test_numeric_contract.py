"""The scalar numeric contract: Python floats end to end.

Driver rows, parameters, states and observations reach the compiled
scalar step as plain ``float``, so no step operation boxes a NumPy
scalar.  IEEE ``+ - * /`` and ``math.exp``/``math.log`` give the same
bits on ``float`` and ``np.float64``, so the contract changes speed and
warnings, never results.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import (
    ClampSpec,
    SimulationDiverged,
    euler_steps,
    observation_error_stream,
)
from repro.dynamics.system import ProcessModel
from repro.expr import ast
from repro.expr.ast import Param, State, Var
from tests.expr.strategies import PARAM_NAMES, STATE_NAMES, VAR_NAMES, expressions

ROWS = np.array(
    [[0.5 + 0.1 * t, 3.0 - 0.2 * t] for t in range(12)], dtype=float
)


def float_table() -> DriverTable:
    return DriverTable(VAR_NAMES, ROWS)


def numpy_scalar_table() -> DriverTable:
    """The same table, with its row cache holding ``np.float64`` rows (what
    :meth:`DriverTable.rows` returned before the contract)."""
    table = DriverTable(VAR_NAMES, ROWS)
    object.__setattr__(
        table, "_rows_cache", [tuple(row) for row in table.values]
    )
    assert type(table.rows()[0][0]) is np.float64
    return table


def every_operator_model() -> ProcessModel:
    s, p, v = State("s0"), Param("p0"), Var("v0")
    expr = ast.add(
        ast.div(ast.mul(p, s), ast.sub(Var("v1"), v)),
        ast.BinOp(
            "min",
            ast.UnOp("exp", ast.neg(v)),
            ast.BinOp("max", ast.UnOp("log", s), Param("p1")),
        ),
    )
    return ProcessModel({"s0": expr}, PARAM_NAMES, VAR_NAMES)


def run(model, params, drivers, initial):
    """Every state of an Euler rollout as hex, plus how it ended."""
    states = []
    try:
        for state in euler_steps(
            model, params, drivers, initial, clamp=ClampSpec(-1e6, 1e6)
        ):
            states.append(tuple(value.hex() for value in state))
    except (SimulationDiverged, OverflowError) as error:
        return states, type(error).__name__
    return states, None


class TestScalarKernel:
    def test_kernel_returns_python_floats_on_rows(self):
        model = every_operator_model()
        step = model.compiled()
        for row in float_table().rows():
            derivatives = step((0.3, 0.2, 0.1), row, [1.5])
            assert all(type(value) is float for value in derivatives)

    def test_stepper_yields_python_floats(self):
        model = every_operator_model()
        for state in euler_steps(model, (0.3, 0.2, 0.1), float_table(), (1.5,)):
            assert all(type(value) is float for value in state)

    def test_error_stream_yields_python_floats(self):
        model = every_operator_model()
        observed = np.linspace(1.0, 2.0, len(ROWS))
        errors = list(
            observation_error_stream(
                model, (0.3, 0.2, 0.1), float_table(), (1.5,), observed, "s0"
            )
        )
        assert len(errors) == len(ROWS)
        assert all(type(value) is float for value in errors)


class TestBitIdentity:
    def test_every_operator_model(self):
        model = every_operator_model()
        params = (0.3, 0.2, 0.1)
        with np.errstate(all="ignore"):
            boxed = run(model, params, numpy_scalar_table(), (1.5,))
        assert run(model, params, float_table(), (1.5,)) == boxed

    @settings(max_examples=150, deadline=None)
    @given(
        expressions(max_leaves=12),
        st.tuples(
            *(
                st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
                for __ in PARAM_NAMES
            )
        ),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    def test_random_models(self, expr, params, initial):
        """Float rows and ``np.float64`` rows give the same bits, overflow,
        NaN divergence and clamping included."""
        model = ProcessModel({STATE_NAMES[0]: expr}, PARAM_NAMES, VAR_NAMES)
        with np.errstate(all="ignore"):
            boxed = run(model, params, numpy_scalar_table(), (initial,))
        assert run(model, params, float_table(), (initial,)) == boxed

    def test_overflow_to_infinity_is_silent_and_identical(self):
        s = State("s0")
        expr = ast.mul(ast.mul(s, s), ast.mul(Param("p0"), Var("v0")))
        model = ProcessModel({"s0": expr}, PARAM_NAMES, VAR_NAMES)
        params = (1e200, 0.0, 0.0)
        with np.errstate(all="ignore"):
            boxed = run(model, params, numpy_scalar_table(), (1e200,))
        # s0 * s0 overflows to inf; the clamp band's ceiling catches it.
        assert boxed[0][0] == ((1e6).hex(),)
        assert run(model, params, float_table(), (1e200,)) == boxed
