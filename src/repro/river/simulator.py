"""River-system simulation: biology advected through the flow network.

Appendix A of the paper describes the coupling that this module
implements: the *hydrological process* (known, static) moves water bodies
between stations, and the *biological process* (the model under revision)
updates plankton inside each water body.  Each day, the state at a
non-headwater station is a mass-balance blend (equation (9)) of

* the locally retained water, advanced one day by the biological model;
* water arriving from upstream stations (lagged by segment travel time),
  carrying the upstream plankton state;
* rainfall runoff, which carries no plankton (dilution).

Headwater stations are boundary conditions: their plankton series come
from observations.  Because every simulated parcel is anchored to an
upstream observation a few days back, candidate models are judged on how
well they evolve plankton over the true residence time of the river --
not on decade-long free-running stability.

The mixing schedule (who arrives where, when, with what weight) is
*model-independent*: it is precomputed once from the flow series and
reused for every candidate evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.dynamics.drivers import DriverTable
from repro.dynamics.integrate import ClampSpec, SimulationDiverged
from repro.dynamics.system import ProcessModel
from repro.river.network import RiverNetwork


class RiverSimulationError(ValueError):
    """Raised for inconsistent river-simulation inputs."""


@dataclass(frozen=True)
class UpstreamSource:
    """One effective upstream contribution to a station.

    Virtual (confluence) stations are collapsed: a source is always a
    measuring station, with the total lag accumulated along the path.
    """

    station: str
    lag_days: int


@dataclass
class MixingSchedule:
    """Precomputed daily mass-balance weights for one station.

    For station B on day t, the new state is::

        state_B(t+1) = retained_frac[t] * bio_step(state_B(t))
                     + sum_k source_frac[k][t] * state_{src_k}(t - lag_k)
                     + runoff_frac[t] * 0        (plankton-free rain water)

    The fractions sum to one; they follow from equation (9)'s flow mass
    balance, so high-flow (monsoon) days replace the local water faster.
    """

    station: str
    sources: list[UpstreamSource]
    retained_frac: np.ndarray
    source_frac: list[np.ndarray]
    runoff_frac: np.ndarray

    def validate(self) -> None:
        """Mass balance: retained + source + runoff fractions sum to one.

        Delegates to the lint pass's S005 check so a failure names the
        station, the worst day's total, and how many days are off.
        """
        from repro.lint.system_rules import check_mixing_fractions

        total = self.retained_frac + self.runoff_frac
        for frac in self.source_frac:
            total = total + frac
        findings = check_mixing_fractions(self.station, total)
        if findings:
            raise RiverSimulationError(
                "; ".join(finding.format() for finding in findings)
            )


def collapse_upstream(
    network: RiverNetwork, station: str
) -> list[UpstreamSource]:
    """Effective measuring-station sources of ``station``.

    Walks through virtual stations, accumulating segment lags, and returns
    one :class:`UpstreamSource` per contributing measuring station.
    """
    sources: list[UpstreamSource] = []

    def walk(name: str, lag: int) -> None:
        for upstream, segment_lag in network.upstream_of(name):
            total = lag + segment_lag
            if network.station(upstream).is_virtual:
                walk(upstream, total)
            else:
                sources.append(UpstreamSource(upstream, total))

    walk(station, 0)
    return sources


def build_mixing_schedules(
    network: RiverNetwork,
    flows: Mapping[str, np.ndarray],
    runoff: Mapping[str, np.ndarray],
) -> dict[str, MixingSchedule]:
    """Precompute the daily mixing weights for all non-headwater stations.

    Follows equation (9): the water at B on day t+1 is composed of
    ``r_B * F_B(t)`` retained water, the lagged upstream discharges
    ``(1 - r_A) * F_A(t - lag)``, and the local runoff.  Fractions are the
    components normalised by their sum.
    """
    schedules: dict[str, MixingSchedule] = {}
    for name in network.topological_order():
        station = network.station(name)
        if station.is_virtual or station.headwater:
            continue
        sources = collapse_upstream(network, name)
        flow = np.asarray(flows[name], dtype=float)
        horizon = len(flow)
        retained = np.empty(horizon)
        retained[0] = station.retention * flow[0]
        retained[1:] = station.retention * flow[:-1]
        source_parts: list[np.ndarray] = []
        for source in sources:
            source_station = network.station(source.station)
            upstream_flow = np.asarray(flows[source.station], dtype=float)
            passed = (1.0 - source_station.retention) * _delay(
                upstream_flow, source.lag_days
            )
            source_parts.append(passed)
        runoff_part = np.asarray(
            runoff.get(name, np.zeros(horizon)), dtype=float
        )
        total = retained + runoff_part + sum(source_parts)
        total = np.maximum(total, 1e-9)
        schedule = MixingSchedule(
            station=name,
            sources=sources,
            retained_frac=retained / total,
            source_frac=[part / total for part in source_parts],
            runoff_frac=runoff_part / total,
        )
        schedule.validate()
        schedules[name] = schedule
    return schedules


@dataclass
class RiverSystemSimulator:
    """Simulates a biological model across the whole river network.

    Attributes:
        network: The river network (stations, segments, retention).
        schedules: Mixing schedules from :func:`build_mixing_schedules`.
        drivers: Per-station driver tables (identical column order).
        boundary: Per-headwater-station boundary plankton series, keyed by
            station name then state name (e.g. ``{"S6": {"BPhy": ..}}``).
        initial_states: Initial plankton state per non-headwater station.
        clamp: State clamping band applied after every blend.
        dt: Biological step size (days).
    """

    network: RiverNetwork
    schedules: dict[str, MixingSchedule]
    drivers: dict[str, DriverTable]
    boundary: dict[str, dict[str, np.ndarray]]
    initial_states: dict[str, tuple[float, ...]]
    clamp: ClampSpec = field(default_factory=ClampSpec)
    dt: float = 1.0

    def __post_init__(self) -> None:
        self._order = [
            name
            for name in self.network.topological_order()
            if not self.network.station(name).is_virtual
            and not self.network.station(name).headwater
        ]
        horizons: dict[str, int] = {}
        for name, table in self.drivers.items():
            horizons[f"drivers at station {name!r}"] = len(table)
        for station, series_map in self.boundary.items():
            for state, series in series_map.items():
                horizons[f"boundary {state!r} at station {station!r}"] = len(
                    series
                )
        if len(set(horizons.values())) != 1:
            details = ", ".join(
                f"{who}: {days} days" for who, days in sorted(horizons.items())
            )
            raise RiverSimulationError(
                f"driver/boundary horizons differ: {details}"
            )
        self.horizon = next(iter(horizons.values()))

    @property
    def biological_stations(self) -> list[str]:
        """Stations where the biological model runs (non-headwater)."""
        return list(self._order)

    def run(
        self,
        model: ProcessModel,
        params: Sequence[float],
        use_compiled: bool = True,
    ) -> dict[str, np.ndarray]:
        """Simulate and return full per-station state trajectories.

        Returns arrays of shape ``(horizon, n_states)`` per biological
        station.

        Raises:
            SimulationDiverged: If any state becomes NaN.
        """
        trajectories = {
            name: np.empty((self.horizon, len(model.state_names)))
            for name in self._order
        }
        for __ in self.steps(model, params, trajectories, use_compiled):
            pass
        return trajectories

    def steps(
        self,
        model: ProcessModel,
        params: Sequence[float],
        trajectories: dict[str, np.ndarray] | None = None,
        use_compiled: bool = True,
    ) -> Iterator[dict[str, tuple[float, ...]]]:
        """Advance the whole network one day at a time.

        Yields the per-station state after each day; optionally records
        into ``trajectories``.  This is the incremental interface used for
        evaluation short-circuiting.

        The loop body is deliberately written against plain-Python
        pre-bound structures (lists, tuples): it runs once per station per
        day for every fitness evaluation of every individual, so avoiding
        numpy scalar boxing here is a several-fold end-to-end speedup.
        """
        n_states = len(model.state_names)
        step = model.compiled() if use_compiled else model.interpret_step
        params = tuple(params)
        dt = self.dt
        clamp_min, clamp_max = self.clamp.minimum, self.clamp.maximum
        history: dict[str, list[tuple[float, ...]]] = {}
        for name in self._order:
            initial = tuple(float(v) for v in self.initial_states[name])
            if len(initial) != n_states:
                raise RiverSimulationError(
                    f"initial state at station {name!r} has {len(initial)} "
                    f"entries for {n_states} state(s) "
                    f"{list(model.state_names)}"
                )
            history[name] = [initial]

        # Pre-bind everything the inner loop touches.
        plan = []
        for name in self._order:
            schedule = self.schedules[name]
            sources = []
            for k, source in enumerate(schedule.sources):
                frac = schedule.source_frac[k].tolist()
                if source.station in self.boundary:
                    series_map = self.boundary[source.station]
                    columns = tuple(
                        np.asarray(series_map[state], dtype=float).tolist()
                        for state in model.state_names
                    )
                    sources.append((frac, source.lag_days, columns, None))
                else:
                    sources.append(
                        (frac, source.lag_days, None, history[source.station])
                    )
            plan.append(
                (
                    name,
                    self.drivers[name].rows(),
                    schedule.retained_frac.tolist(),
                    sources,
                    history[name],
                )
            )

        state_range = range(n_states)
        for t in range(self.horizon):
            snapshot: dict[str, tuple[float, ...]] = {}
            for name, rows, retained, sources, own_history in plan:
                current = own_history[t]
                derivatives = step(params, rows[t], current)
                r = retained[t]
                blended = [
                    r * (current[s] + dt * derivatives[s]) for s in state_range
                ]
                for frac, lag, columns, upstream_history in sources:
                    f = frac[t]
                    origin = t - lag
                    if origin < 0:
                        origin = 0
                    if columns is None:
                        upstream = upstream_history[origin + 1]
                        for s in state_range:
                            blended[s] += f * upstream[s]
                    else:
                        for s in state_range:
                            blended[s] += f * columns[s][origin]
                # Runoff fraction contributes zero plankton.
                for s in state_range:
                    value = blended[s]
                    if value != value:  # NaN
                        raise SimulationDiverged(
                            f"state {model.state_names[s]} at {name} is NaN"
                        )
                    if value < clamp_min:
                        blended[s] = clamp_min
                    elif value > clamp_max:
                        blended[s] = clamp_max
                new_state = tuple(blended)
                own_history.append(new_state)
                snapshot[name] = new_state
                if trajectories is not None:
                    trajectories[name][t] = new_state
            yield snapshot


@dataclass
class RiverTask:
    """Fit the biological process to observations at a target station.

    Duck-type compatible with :class:`repro.dynamics.task.ModelingTask`
    (``state_names``, ``var_order``, ``n_cases``, ``error_stream``,
    ``rmse``, ``mae``, ``trajectory``), so it plugs into the GMR fitness
    evaluator and all calibration baselines unchanged.
    """

    simulator: RiverSystemSimulator
    observed: np.ndarray
    target_station: str
    target_state: str
    state_names: tuple[str, ...]
    var_order: tuple[str, ...]

    def __post_init__(self) -> None:
        self.observed = np.asarray(self.observed, dtype=float)
        if len(self.observed) != self.simulator.horizon:
            raise RiverSimulationError(
                f"{len(self.observed)} observations for horizon "
                f"{self.simulator.horizon}"
            )
        if self.target_station not in self.simulator.biological_stations:
            raise RiverSimulationError(
                f"target {self.target_station!r} is not a simulated station"
            )
        self._target_index = self.state_names.index(self.target_state)

    @property
    def n_cases(self) -> int:
        return self.simulator.horizon

    def error_stream(
        self,
        model: ProcessModel,
        params: Sequence[float],
        use_compiled: bool = True,
    ) -> Iterator[float]:
        """Per-day squared error at the target station (for Algorithm 1)."""
        index = self._target_index
        observed = self.observed.tolist()
        for t, snapshot in enumerate(
            self.simulator.steps(model, params, use_compiled=use_compiled)
        ):
            predicted = snapshot[self.target_station][index]
            if not math.isfinite(predicted):
                raise SimulationDiverged("prediction is not finite")
            error = predicted - observed[t]
            yield error * error

    def rmse(
        self,
        model: ProcessModel,
        params: Sequence[float],
        use_compiled: bool = True,
    ) -> float:
        from repro.dynamics.task import BAD_FITNESS

        total = 0.0
        count = 0
        try:
            for squared_error in self.error_stream(model, params, use_compiled):
                total += squared_error
                count += 1
        except (SimulationDiverged, OverflowError):
            return BAD_FITNESS
        if count == 0 or not math.isfinite(total):
            return BAD_FITNESS
        return math.sqrt(total / count)

    def mae(self, model: ProcessModel, params: Sequence[float]) -> float:
        from repro.dynamics.task import BAD_FITNESS

        series = self.trajectory(model, params)
        if series is None:
            return BAD_FITNESS
        return float(np.mean(np.abs(series - self.observed)))

    def trajectory(
        self, model: ProcessModel, params: Sequence[float]
    ) -> np.ndarray | None:
        """The predicted target series; None on divergence."""
        try:
            trajectories = self.simulator.run(model, params)
        except (SimulationDiverged, OverflowError):
            return None
        series = trajectories[self.target_station][:, self._target_index]
        if not np.all(np.isfinite(series)):
            return None
        return series


def _delay(series: np.ndarray, lag: int) -> np.ndarray:
    """Shift a series forward in time by ``lag`` days (edge-padded)."""
    if lag <= 0:
        return series.copy()
    delayed = np.empty_like(series)
    delayed[:lag] = series[0]
    delayed[lag:] = series[:-lag]
    return delayed
