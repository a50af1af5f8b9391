"""A minimal deterministic discrete-event engine.

Events are ``(time, sequence, handle, callback)`` tuples kept in a
binary heap.  The sequence number breaks ties so that events scheduled
first fire first, which makes every simulation fully deterministic for
a given seed and input trace.

The engine sits on the hot path of every simulation (a full-matrix
harness run drains tens of millions of events), so the implementation
leans on a few deliberate micro-optimizations:

* :meth:`EventEngine.call_at` / :meth:`EventEngine.call_after` push a
  bare callback with no :class:`Event` handle at all (the heap entry's
  handle slot is ``None``).  Simulators that never cancel use these
  and skip one object allocation per event.
* :class:`Event` (returned by the cancellable :meth:`schedule` /
  :meth:`schedule_at`) uses ``__slots__`` - handles never need a
  ``__dict__``.
* :meth:`EventEngine.run` walks the heap directly instead of going
  through :meth:`peek_time`/:meth:`step`, saving two method calls and
  a tuple unpack per event.
* Cancelled events are dropped lazily when they surface at the heap
  top, but the engine also compacts the heap outright once cancelled
  entries dominate it, keeping pop cost logarithmic in the number of
  *live* events.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional


#: Compaction is considered once at least this many cancelled entries
#: are buried in the heap (below that, lazy pop-time dropping is
#: cheaper than a rebuild).
_COMPACT_MIN_CANCELLED = 64


class Event:
    """Handle to one scheduled callback.

    The heap itself stores ``(time, seq, event, callback)`` tuples so
    ordering comparisons run at C speed and never touch this object.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_engine")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[], None],
        engine: Optional["EventEngine"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the callback from firing when the event is popped.

        Cancelling an event that already fired is a harmless no-op:
        the engine detaches itself on pop, so the cancelled-in-heap
        accounting only ever covers events still queued.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancelled()

    def __repr__(self) -> str:
        return "Event(time=%r, seq=%r, cancelled=%r)" % (
            self.time,
            self.seq,
            self.cancelled,
        )


class EventEngine:
    """Binary-heap event queue with a monotonic simulation clock."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0
        self.now = 0
        self.events_processed = 0
        # Number of cancelled events still buried in the heap; kept
        # live so ``pending`` is O(1) and compaction can trigger
        # without scanning.
        self._cancelled_in_heap = 0

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError("cannot schedule an event in the past")
        return self._push(self.now + delay, callback)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self.now:
            raise ValueError(
                "cannot schedule at %d, current time is %d" % (time, self.now)
            )
        return self._push(time, callback)

    def call_after(self, delay: int, callback: Callable[[], None]) -> None:
        """Like :meth:`schedule`, without allocating a cancellation
        handle.  The hot-path variant for callers that never cancel."""
        if delay < 0:
            raise ValueError("cannot schedule an event in the past")
        seq = self._seq
        heapq.heappush(self._heap, (self.now + delay, seq, None, callback))
        self._seq = seq + 1

    def call_at(self, time: int, callback: Callable[[], None]) -> None:
        """Like :meth:`schedule_at`, without allocating a cancellation
        handle.  The hot-path variant for callers that never cancel."""
        if time < self.now:
            raise ValueError(
                "cannot schedule at %d, current time is %d" % (time, self.now)
            )
        seq = self._seq
        heapq.heappush(self._heap, (time, seq, None, callback))
        self._seq = seq + 1

    def call_every(
        self, interval: int, callback: Callable[[], None]
    ) -> None:
        """Run ``callback`` every ``interval`` cycles, starting one
        interval from now, until it is the only work left.

        Built for observability samplers (see
        :class:`repro.obs.timeline.MetricsTimeline`): after each tick
        the next one is scheduled only while other live events remain,
        so a sampler never keeps an otherwise-drained simulation
        spinning.  The callback must not assume it fires after the
        last real event of an instant - ties are broken by scheduling
        order as usual.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")

        def tick() -> None:
            callback()
            # ``pending`` no longer counts this tick (it was popped);
            # zero means the simulation has fully drained.
            if self.pending > 0:
                seq = self._seq
                heapq.heappush(
                    self._heap, (self.now + interval, seq, None, tick)
                )
                self._seq = seq + 1

        self.call_after(interval, tick)

    def _push(self, time: int, callback: Callable[[], None]) -> Event:
        event = Event(time, self._seq, callback, self)
        heapq.heappush(self._heap, (time, self._seq, event, callback))
        self._seq += 1
        return event

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; keeps the live count exact
        and compacts the heap when cancelled entries dominate it."""
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries.

        The list is filtered in place (slice assignment) because the
        hot loop in :meth:`run` holds a direct reference to it across
        callbacks, and a callback may cancel enough events to trigger
        this compaction mid-drain.
        """
        self._heap[:] = [
            entry
            for entry in self._heap
            if entry[2] is None or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or None when empty."""
        heap = self._heap
        while heap and heap[0][2] is not None and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the next event; return False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _, event, callback = heapq.heappop(heap)
            if event is not None:
                if event.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                event._engine = None
            self.now = time
            self.events_processed += 1
            callback()
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the queue.

        Args:
            until: stop once the clock would pass this time.
            max_events: safety valve against runaway simulations.

        Returns the number of events processed by this call.
        """
        # Hot loop: bind everything once and look at the heap top
        # directly rather than via peek_time()/step(), which would
        # cost two extra method calls per event.
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while heap:
            if max_events is not None and processed >= max_events:
                break
            time, _, event, callback = heap[0]
            if event is not None and event.cancelled:
                pop(heap)
                self._cancelled_in_heap -= 1
                continue
            if until is not None and time > until:
                break
            pop(heap)
            if event is not None:
                event._engine = None
            self.now = time
            self.events_processed += 1
            processed += 1
            callback()
        return processed

    def clear(self) -> None:
        """Drop every pending event: a stopped run's leftovers, whose
        callbacks close over the machine.  Their handles are detached,
        so cancelling one afterwards leaves ``pending`` exact."""
        for entry in self._heap:
            if entry[2] is not None:
                entry[2]._engine = None
        self._heap.clear()
        self._cancelled_in_heap = 0

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued; O(1)."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (fired, pending or cancelled)."""
        return self._seq
