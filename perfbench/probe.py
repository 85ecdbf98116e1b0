"""Host-speed probe: rescales a measured phase to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.7x over minutes, CPU time included: the same GMR run took 8.6 s
to 15 s of CPU time within one hour on a 2-vCPU Intel Xeon VM.  A probe
taken next to the run does not follow it, because the speed also moves
within seconds.  So the probe runs *during* the phase: a CPU-time timer
(``ITIMER_PROF``) interrupts the process every :data:`INTERVAL_S` and the
signal handler times a fixed pure-Python loop.  The median of those
timings says how fast the core was while the phase ran, and

    reference seconds = (phase CPU time - probe time)
                        * REFERENCE_PROBE_S / median probe time

is the phase's CPU time at the speed at which one probe takes
:data:`REFERENCE_PROBE_S`.  The loop touches no program state and
allocates no container, so it does not change what the program computes
(every sample is still checked bit for bit), and a change to the program
moves the reference seconds as it moves CPU time.  One limit: the loop
shares the core's caches with the program, so a program whose working
set grows a lot may slow the probes a little and hide part of its own
slowdown; peak_rss_mb shows such growth.
"""

from __future__ import annotations

import signal
import statistics
import time

#: The scale of a reference second: about one probe's time on an
#: unloaded core of the 2-vCPU Intel Xeon VM (CPython 3.11) the benchmark
#: was written on.  A constant, so that values compare across commits.
REFERENCE_PROBE_S = 1.5e-3
#: CPU seconds between probes; the probes cost about 3% of a phase.
INTERVAL_S = 0.05
_LOOPS = 20_000


def _loop() -> int:
    total = 0
    for i in range(_LOOPS):
        total += i * i % 7
    return total


class Probe:
    """Times the probe loop every :data:`INTERVAL_S` of CPU time while active.

    Use as a context manager around one measured phase; it also probes
    once on entry and once on exit, so even a short phase has two.
    Single-threaded use only: the handler runs on the main thread.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self._previous = None

    def _probe(self, *_signal) -> None:
        # Wall clock: inside a signal handler the process CPU clock can
        # read the same before and after the loop.  A probe that loses
        # the core for a while is an outlier the median ignores.
        started = time.perf_counter()
        _loop()
        self.times.append(time.perf_counter() - started)

    def __enter__(self) -> "Probe":
        self._probe()
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._probe()

    def overhead_s(self) -> float:
        """Seconds the probes took."""
        return sum(self.times)

    def speed(self) -> float:
        """Core speed during the phase, relative to the reference."""
        return REFERENCE_PROBE_S / statistics.median(self.times)

    def reference_seconds(self, cpu_s: float) -> float:
        """``cpu_s`` (which includes the probes) less the probes, rescaled."""
        return (cpu_s - self.overhead_s()) * self.speed()
