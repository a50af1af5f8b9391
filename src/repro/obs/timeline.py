"""Windowed simulated-time metrics sampling.

Aggregate ``RunStats`` counters answer "how much, in total"; the
timeline answers "when".  A :class:`MetricsTimeline` registers a
periodic engine callback (:meth:`~repro.sim.engine.EventEngine.call_every`)
that every ``window`` simulated cycles samples:

* **ring occupancy** - in-flight ring transactions
  (``TransactionManager.inflight()``);
* **snoops and ring requests** issued during the window (deltas of
  the live ``RunStats`` counters), and their ratio;
* **retries** during the window;
* **link utilization** - the fraction of physical-link capacity
  booked during the window, from the walker's cumulative link
  reservation cycles (``_link_free`` bookings); 0.0 whenever link
  contention modeling is off;
* **snoop-port queue depth** - mean pending snoops per CMP port at
  the sample instant, from the walker's ``_snoop_port_free`` state;
  0.0 whenever port serialization is off.

Each sample is labeled with the phase (``warmup`` / ``measure``), so a
run's series splits cleanly at the measurement reset.  The sampler
reads counters and mutates no simulator state, and its callbacks stop
rescheduling once it is the only work left in the engine, so enabling
it never changes simulation results (``summary()`` is bit-identical;
only the engine's bookkeeping event counts grow).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.sim.system import RingMultiprocessor
    from repro.sim.walker import RingWalker


class TimelineSample(NamedTuple):
    """Counters observed over one sampling window."""

    time: int
    phase: str
    inflight: int
    requests: int
    snoops: int
    retries: int
    #: Fraction of physical-link capacity reserved during the window
    #: (0.0 when link contention modeling is off).
    link_util: float = 0.0
    #: Mean snoop-port queue depth (pending snoops per CMP) at the
    #: sample instant (0.0 when port serialization is off).
    port_queue: float = 0.0

    @property
    def snoops_per_request(self) -> float:
        return self.snoops / self.requests if self.requests else 0.0


class MetricsTimeline:
    """Periodic sampler over a running :class:`RingMultiprocessor`."""

    def __init__(
        self,
        system: "RingMultiprocessor",
        window: int,
        walker: Optional["RingWalker"] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("sample window must be positive")
        self.system = system
        self.window = window
        self.samples: List[TimelineSample] = []
        self._last_requests = 0
        self._last_snoops = 0
        self._last_retries = 0
        # Occupancy channels read the walker's contention state; the
        # facade wires its walker in, other cores may pass None (the
        # channels then stay at 0.0).
        self._walker = (
            walker if walker is not None else getattr(system, "walker", None)
        )
        self._last_link_busy = 0

    def start(self) -> None:
        """Begin sampling (call before ``engine.run``)."""
        self.system.engine.call_every(self.window, self._sample)

    def detach(self) -> None:
        """Drop the sampled machine once it has run; the samples stay."""
        self.system = None  # type: ignore[assignment]
        self._walker = None

    def _sample(self) -> None:
        system = self.system
        stats = system.stats  # rebound at the warmup reset
        now = system.engine.now
        requests = (
            stats.read_ring_transactions + stats.write_ring_transactions
        )
        snoops = stats.read_snoops + stats.write_snoops
        retries = stats.retries
        if requests < self._last_requests or snoops < self._last_snoops:
            # The warmup reset replaced the stats object: cumulative
            # counters restarted from zero mid-window.
            self._last_requests = 0
            self._last_snoops = 0
            self._last_retries = 0
        link_util = 0.0
        port_queue = 0.0
        walker = self._walker
        if walker is not None:
            link_busy = walker.link_busy_cycles
            if walker.total_links:
                link_util = (link_busy - self._last_link_busy) / (
                    self.window * walker.total_links
                )
            self._last_link_busy = link_busy
            port_queue = walker.snoop_port_backlog(now)
        self.samples.append(
            TimelineSample(
                time=now,
                phase="warmup" if system.warmup.in_warmup else "measure",
                inflight=system.txns.inflight(),
                requests=requests - self._last_requests,
                snoops=snoops - self._last_snoops,
                retries=retries - self._last_retries,
                link_util=link_util,
                port_queue=port_queue,
            )
        )
        self._last_requests = requests
        self._last_snoops = snoops
        self._last_retries = retries

    # ------------------------------------------------------------------
    # Presentation

    def render(self) -> str:
        """Fixed-width table of every sample (one row per window)."""
        from repro.obs.render import render_samples

        return render_samples(self.samples)
