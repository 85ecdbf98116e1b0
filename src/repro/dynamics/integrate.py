"""Forward integration of process models over driver data.

The river models are integrated with a daily explicit Euler step (the
standard choice for this family of ecological models); an RK4 stepper is
provided for callers that need higher-order accuracy.  State trajectories
are clamped to a physically plausible band, and divergence (NaN) is
reported via :class:`SimulationDiverged` so that fitness evaluation can
assign the worst score instead of propagating bad floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.dynamics.drivers import DriverTable
from repro.dynamics.system import ProcessModel
from repro.expr.compile import CompiledCohortKernel
from repro.obs.metrics import GLOBAL_METRICS

#: Element budget for hoisted driver-dependent temporaries in batched
#: rollouts (~16 MiB of float64) -- bounds memory on long trajectories.
_HOIST_ELEMENT_BUDGET = 1 << 21


class SimulationDiverged(ArithmeticError):
    """Raised when a simulated state becomes NaN."""


@dataclass(frozen=True)
class ClampSpec:
    """Per-state clamping band applied after every step.

    Biomass states cannot go negative and unbounded exponential growth is
    unphysical; the clamp keeps evolved models inside a sane envelope so
    one bad individual cannot stall the whole evolutionary run.
    """

    minimum: float = 1e-3
    maximum: float = 1e6

    def apply(self, value: float) -> float:
        if value != value:  # NaN
            raise SimulationDiverged("state became NaN")
        if value < self.minimum:
            return self.minimum
        if value > self.maximum:
            return self.maximum
        return value


def euler_steps(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
    use_compiled: bool = True,
) -> Iterator[tuple[float, ...]]:
    """Yield the state after each Euler step, one per driver row.

    The state yielded at step ``t`` is the state *after* consuming driver
    row ``t``; the initial state itself is not yielded.

    Args:
        model: The process model to integrate.
        params: Parameter values following ``model.param_order``.
        drivers: Driver table whose columns follow ``model.var_order``.
        initial_state: Starting values following ``model.state_names``.
        dt: Step size (days).
        clamp: Clamping band applied to every state after each step.
        use_compiled: When False, step through the reference interpreter
            (the Figure 10 "no runtime compilation" configuration).
    """
    if drivers.names != model.var_order:
        drivers = drivers.select(model.var_order)
    params = tuple(params)
    state = list(float(value) for value in initial_state)
    n_states = len(state)
    if n_states != len(model.state_names):
        raise ValueError(
            f"initial state has {n_states} entries, model has "
            f"{len(model.state_names)} states"
        )
    step = model.compiled() if use_compiled else model.interpret_step
    rows = drivers.rows()
    for row in rows:
        derivatives = step(params, row, state)
        for index in range(n_states):
            state[index] = clamp.apply(state[index] + dt * derivatives[index])
        yield tuple(state)


def _checked_slopes(slopes: tuple[float, ...]) -> tuple[float, ...]:
    """Raise :class:`SimulationDiverged` if any slope is NaN.

    RK4 evaluates the step function at intermediate points; a NaN in an
    intermediate slope (``k2``/``k3``) would otherwise propagate silently
    through the combined update, so slopes get the same loud-failure
    treatment :meth:`ClampSpec.apply` gives states.
    """
    for value in slopes:
        if value != value:  # NaN
            raise SimulationDiverged("slope became NaN")
    return slopes


def rk4_steps(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
    use_compiled: bool = True,
) -> Iterator[tuple[float, ...]]:
    """Yield states from a classical Runge-Kutta-4 integration.

    Driver values are held constant within a step (they are daily
    observations, so sub-step interpolation would be spurious precision).
    Matches :func:`euler_steps` error behaviour: a NaN in any slope or
    updated state raises :class:`SimulationDiverged`, and ``use_compiled``
    selects between the compiled step function and the reference
    interpreter.
    """
    if drivers.names != model.var_order:
        drivers = drivers.select(model.var_order)
    params = tuple(params)
    state = [float(value) for value in initial_state]
    n_states = len(state)
    step = model.compiled() if use_compiled else model.interpret_step
    for row in drivers.rows():
        k1 = _checked_slopes(step(params, row, state))
        mid1 = [state[i] + 0.5 * dt * k1[i] for i in range(n_states)]
        k2 = _checked_slopes(step(params, row, mid1))
        mid2 = [state[i] + 0.5 * dt * k2[i] for i in range(n_states)]
        k3 = _checked_slopes(step(params, row, mid2))
        end = [state[i] + dt * k3[i] for i in range(n_states)]
        k4 = _checked_slopes(step(params, row, end))
        for i in range(n_states):
            increment = (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) / 6.0
            state[i] = clamp.apply(state[i] + dt * increment)
        yield tuple(state)


@dataclass(frozen=True)
class BatchedRollout:
    """Outcome of a batched Euler integration over K parameter columns.

    Attributes:
        states: Trajectory array of shape ``(T, n_states, K)``; column
            ``k`` of a non-diverged candidate matches the scalar
            :func:`euler_steps` trajectory for its parameter vector.
        diverged_at: Shape ``(K,)``; the first driver row whose update
            produced a NaN in column ``k``, or ``T`` when the column
            never diverged.  Rows at and after ``diverged_at[k]`` hold
            the column's last good state (frozen, then clamped) -- they
            carry no information and must not be scored.
    """

    states: np.ndarray
    diverged_at: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.states.shape[0]

    @property
    def diverged(self) -> np.ndarray:
        """Boolean mask of shape ``(K,)``: which columns went NaN."""
        return self.diverged_at < self.n_steps

    def target_series(self, state_index: int) -> np.ndarray:
        """One state's trajectories, shape ``(T, K)``."""
        return self.states[:, state_index, :]


def batched_euler_rollout(
    model: ProcessModel,
    params: np.ndarray,
    drivers: DriverTable,
    initial_state: Sequence[float],
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
) -> BatchedRollout:
    """Integrate K parameter columns of one structure in a single pass.

    The batched twin of :func:`euler_steps`: every driver row advances
    all K columns of the ``(n_states, K)`` state matrix through the
    model's batched kernel, with vectorised clamping.  Divergence is
    masked per column instead of raised -- a column whose update goes NaN
    is frozen at its last good state and recorded in
    ``BatchedRollout.diverged_at``, so one poisoned candidate cannot
    spoil its batch.  IEEE exceptional intermediates (overflow to inf,
    inf - inf) are expected from evolved models and silenced for the
    duration of the rollout; NaN detection happens explicitly per step.

    Args:
        model: The process model to integrate.
        params: Parameter matrix of shape ``(n_params, K)``, rows
            following ``model.param_order``; column ``k`` is candidate
            ``k``'s parameter vector.
        drivers: Driver table whose columns follow ``model.var_order``.
        initial_state: Starting values following ``model.state_names``
            (shared by all K candidates).
        dt: Step size (days).
        clamp: Clamping band applied to every state after each step.
    """
    if drivers.names != model.var_order:
        drivers = drivers.select(model.var_order)
    params = np.asarray(params, dtype=float)
    if params.ndim != 2:
        raise ValueError(
            f"params must be an (n_params, K) matrix, got shape {params.shape}"
        )
    if params.shape[0] != len(model.param_order):
        raise ValueError(
            f"params has {params.shape[0]} rows, model has "
            f"{len(model.param_order)} parameters"
        )
    n_states = len(model.state_names)
    initial = np.asarray(initial_state, dtype=float)
    if initial.shape != (n_states,):
        raise ValueError(
            f"initial state has shape {initial.shape}, model has "
            f"{n_states} states"
        )
    n_columns = params.shape[1]
    n_steps = len(drivers)
    GLOBAL_METRICS.counter("kernel.batched_rollouts").inc()
    GLOBAL_METRICS.counter("kernel.batched_columns").inc(n_columns)
    GLOBAL_METRICS.counter("kernel.batched_steps").inc(n_steps * n_columns)
    return _euler_rollout_core(
        model.compiled_batched(),
        params,
        drivers.values,
        initial,
        n_states,
        dt,
        clamp,
    )


def _euler_rollout_core(
    kernel,
    params: np.ndarray,
    rows: np.ndarray,
    initial: np.ndarray,
    n_states: int,
    dt: float,
    clamp: ClampSpec,
) -> BatchedRollout:
    """The shared per-step loop of the batched and fused rollout forms.

    ``kernel`` is any two-phase step kernel (batched or cohort); its
    column axis is opaque here -- per-column divergence masking and
    freezing work identically whether the columns belong to one
    structure's K candidates or to M structures' padded lanes, because
    every operation in the loop is elementwise over that axis.
    """
    n_steps = len(rows)
    n_columns = params.shape[1]
    states = np.empty((n_steps, n_states, n_columns), dtype=float)
    diverged_at = np.full(n_columns, n_steps, dtype=np.int64)
    if n_columns == 0 or n_steps == 0:
        return BatchedRollout(states=states, diverged_at=diverged_at)
    state = np.repeat(initial[:, np.newaxis], n_columns, axis=1)
    alive = np.ones(n_columns, dtype=bool)
    any_dead = False
    finished = False
    # Driver-dependent temporaries are hoisted out of the step loop and
    # evaluated over whole blocks of rows at once; the block length keeps
    # the hoisted arrays within a fixed element budget.
    if kernel.n_hoisted:
        block = max(
            16, _HOIST_ELEMENT_BUDGET // (kernel.n_hoisted * n_columns)
        )
    else:
        block = n_steps
    with np.errstate(all="ignore"):
        for block_start in range(0, n_steps, block):
            block_rows = rows[block_start : block_start + block]
            hoisted = kernel.precompute(params, block_rows)
            for offset in range(len(block_rows)):
                index = block_start + offset
                derivatives = kernel.step(params, hoisted, offset, state)
                # Update in place into the output buffer: dt * d + state
                # is bitwise-identical to the scalar state + dt * d.
                updated = states[index]
                np.multiply(derivatives, dt, out=updated)
                updated += state
                # Fast path: min() propagates NaN, so a single reduction
                # detects divergence anywhere in the batch without
                # building per-column masks on healthy steps.
                if any_dead or np.isnan(np.min(updated)):
                    newly_dead = np.isnan(updated).any(axis=0) & alive
                    if newly_dead.any():
                        diverged_at[newly_dead] = index
                        alive &= ~newly_dead
                        any_dead = True
                        if not alive.any():
                            frozen = np.clip(
                                state, clamp.minimum, clamp.maximum
                            )
                            states[index:] = frozen
                            finished = True
                            break
                    dead = ~alive
                    updated[:, dead] = state[:, dead]
                np.clip(updated, clamp.minimum, clamp.maximum, out=updated)
                state = updated
            if finished:
                break
    return BatchedRollout(states=states, diverged_at=diverged_at)


def fused_euler_rollout(
    kernel: CompiledCohortKernel,
    params: np.ndarray,
    drivers: DriverTable,
    initial_state: Sequence[float],
    var_order: Sequence[str],
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
) -> BatchedRollout:
    """Integrate a fused multi-structure cohort kernel in a single pass.

    The cohort twin of :func:`batched_euler_rollout`: the same per-step
    loop advances all ``M * K`` lanes of the fused kernel at once.  Lane
    ``m * K + k`` of the result is bit-identical to column ``k`` of a
    :func:`batched_euler_rollout` of member ``m`` alone, because every
    loop operation (derivative kernel included) is elementwise over the
    lane axis; divergence is likewise masked per lane, so a padding lane
    or another member's lane going NaN never perturbs live lanes.

    Args:
        kernel: A fused cohort kernel from
            :func:`repro.expr.compile.compile_model_cohort`.
        params: Padded parameter matrix of shape
            ``(kernel.n_params, kernel.width)``; member ``m``'s rows
            beyond its own parameter count are never read by its lanes.
        drivers: Driver table; reordered to ``var_order`` if needed.
        initial_state: Starting values shared by every lane.
        var_order: Driver-variable order the kernel was compiled with
            (shared by all cohort members).
        dt: Step size (days).
        clamp: Clamping band applied to every state after each step.
    """
    var_order = tuple(var_order)
    if drivers.names != var_order:
        drivers = drivers.select(var_order)
    params = np.asarray(params, dtype=float)
    if params.shape != (kernel.n_params, kernel.width):
        raise ValueError(
            f"params has shape {params.shape}, fused kernel expects "
            f"({kernel.n_params}, {kernel.width})"
        )
    initial = np.asarray(initial_state, dtype=float)
    if initial.shape != (kernel.n_states,):
        raise ValueError(
            f"initial state has shape {initial.shape}, cohort has "
            f"{kernel.n_states} states"
        )
    n_steps = len(drivers)
    GLOBAL_METRICS.counter("kernel.fused_rollouts").inc()
    GLOBAL_METRICS.counter("kernel.fused_lanes").inc(kernel.width)
    GLOBAL_METRICS.counter("kernel.fused_steps").inc(n_steps * kernel.width)
    return _euler_rollout_core(
        kernel, params, drivers.values, initial, kernel.n_states, dt, clamp
    )


def simulate(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
    use_compiled: bool = True,
) -> np.ndarray:
    """Integrate and return the full trajectory, shape ``(T, n_states)``.

    Raises:
        SimulationDiverged: If any state becomes NaN.
    """
    GLOBAL_METRICS.counter("kernel.scalar_simulations").inc()
    trajectory = np.empty((len(drivers), len(model.state_names)), dtype=float)
    stepper = euler_steps(
        model, params, drivers, initial_state, dt, clamp, use_compiled
    )
    for index, state in enumerate(stepper):
        trajectory[index] = state
    return trajectory


def is_finite_trajectory(trajectory: np.ndarray) -> bool:
    """True if every entry of the trajectory is finite."""
    return bool(np.all(np.isfinite(trajectory)))


def safe_simulate(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
) -> np.ndarray | None:
    """Like :func:`simulate`, but return None on divergence."""
    try:
        trajectory = simulate(model, params, drivers, initial_state, dt, clamp)
    except (SimulationDiverged, OverflowError):
        return None
    if not is_finite_trajectory(trajectory):
        return None
    return trajectory


def observation_error_stream(
    model: ProcessModel,
    params: Sequence[float],
    drivers: DriverTable,
    initial_state: Sequence[float],
    observed: np.ndarray,
    target_state: str,
    dt: float = 1.0,
    clamp: ClampSpec = ClampSpec(),
    use_compiled: bool = True,
) -> Iterator[float]:
    """Yield per-step squared errors between a state and observations.

    This is the *fitness case* stream consumed by evaluation
    short-circuiting (Algorithm 1): one squared error per time step,
    produced incrementally so evaluation can stop early.

    Raises:
        SimulationDiverged: If the simulated state becomes NaN (callers
            should score such individuals with the worst fitness).
    """
    try:
        target_index = model.state_names.index(target_state)
    except ValueError:
        raise ValueError(
            f"model has no state {target_state!r}; states: {model.state_names}"
        ) from None
    # Python floats, like the driver rows: the step stays free of
    # NumPy scalars end to end.
    observed = np.asarray(observed, dtype=float).tolist()
    if len(observed) != len(drivers):
        raise ValueError(
            f"{len(observed)} observations for {len(drivers)} driver rows"
        )
    stepper = euler_steps(
        model, params, drivers, initial_state, dt, clamp, use_compiled
    )
    for step_index, state in enumerate(stepper):
        predicted = state[target_index]
        if not math.isfinite(predicted):
            raise SimulationDiverged("predicted value is not finite")
        error = predicted - observed[step_index]
        yield error * error
