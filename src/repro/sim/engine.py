"""A minimal deterministic discrete-event engine.

Events are ``(time, sequence, callback)`` tuples kept in a binary
heap.  The sequence number breaks ties so that events scheduled first
fire first, which makes every simulation fully deterministic for a
given seed and input trace.  An event cannot be cancelled once it is
scheduled, so a heap entry needs no handle and the drain loop no
liveness test.

The engine sits on the hot path of every simulation (a full-matrix
harness run drains tens of millions of events), so :meth:`run` binds
the heap and ``heappop`` once and reads each entry straight off the
heap.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

_Entry = Tuple[int, int, Callable[[], None]]


class EventEngine:
    """Binary-heap event queue with a monotonic simulation clock."""

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self.now = 0
        self.events_processed = 0

    def call_after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError("cannot schedule an event in the past")
        seq = self._seq
        heapq.heappush(self._heap, (self.now + delay, seq, callback))
        self._seq = seq + 1

    def call_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self.now:
            raise ValueError(
                "cannot schedule at %d, current time is %d" % (time, self.now)
            )
        seq = self._seq
        heapq.heappush(self._heap, (time, seq, callback))
        self._seq = seq + 1

    def call_every(
        self, interval: int, callback: Callable[[], None]
    ) -> None:
        """Run ``callback`` every ``interval`` cycles, starting one
        interval from now, until it is the only work left.

        Built for observability samplers (see
        :class:`repro.obs.timeline.MetricsTimeline`): after each tick
        the next one is scheduled only while other events remain, so
        a sampler never keeps an otherwise-drained simulation
        spinning.  The callback must not assume it fires after the
        last real event of an instant - ties are broken by scheduling
        order as usual.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")

        def tick() -> None:
            callback()
            # The heap no longer holds this tick (it was popped); an
            # empty heap means the simulation has fully drained.
            if self._heap:
                seq = self._seq
                heapq.heappush(self._heap, (self.now + interval, seq, tick))
                self._seq = seq + 1

        self.call_after(interval, tick)

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue, or stop after ``max_events`` events (a
        safety valve against runaway simulations).

        Returns the number of events processed by this call.
        """
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while heap:
            if max_events is not None and processed >= max_events:
                break
            time, _, callback = pop(heap)
            self.now = time
            self.events_processed += 1
            processed += 1
            callback()
        return processed

    def clear(self) -> None:
        """Drop every pending event: a stopped run's leftovers, whose
        callbacks close over the machine."""
        self._heap.clear()

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (fired or pending)."""
        return self._seq
