"""Trace containers: the simulator's input format.

A trace is a per-core sequence of L2-level memory accesses.  Each
access carries the CPU *think time* since the previous access (cycles
of computation the core performs before issuing it), whether it is a
read or a write, and the line address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterator, List, NamedTuple, Sequence

_new_tuple = tuple.__new__


class _AccessFields(NamedTuple):
    address: int
    is_write: bool
    think_time: int


class Access(_AccessFields):
    """One memory access in a core's trace.

    A NamedTuple: a trace holds one per access, and a tuple is the
    cheapest record CPython builds and the one its cyclic collector
    can stop tracking.  The public constructor validates each access;
    :func:`accesses_from_columns` validates whole columns once and
    builds the tuples directly.
    """

    __slots__ = ()

    def __new__(
        cls, address: int, is_write: bool, think_time: int
    ) -> "Access":
        if address < 0:
            raise ValueError("address must be non-negative")
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        return _new_tuple(cls, (address, is_write, think_time))


def accesses_from_columns(
    addresses: Sequence[int],
    is_write: Sequence[bool],
    think_time: Sequence[int],
) -> List[Access]:
    """Accesses from three equal-length columns of Python values.

    The columns are checked once, as a whole, against the rules
    :class:`Access` applies to each access; the tuples are then built
    without calling its constructor.
    """
    if not len(addresses) == len(is_write) == len(think_time):
        raise ValueError("access columns differ in length")
    if addresses and min(addresses) < 0:
        raise ValueError("address must be non-negative")
    if think_time and min(think_time) < 0:
        raise ValueError("think_time must be non-negative")
    return list(
        map(_new_tuple, repeat(Access), zip(addresses, is_write, think_time))
    )


#: One core's access sequence.
CoreTrace = List[Access]


@dataclass
class WorkloadTrace:
    """A complete multi-core workload trace.

    Attributes:
        name: workload label (shown in result tables).
        cores_per_cmp: CMP population the trace was generated for;
            core ``i`` runs on CMP ``i // cores_per_cmp``.
        traces: one access list per core.
        prewarm: optional per-core lists of line addresses installed
            in the core's cache (state E, as if read from memory long
            ago) before the simulation starts.  This models the
            checkpoint state of a long-running application: resident
            private data whose compulsory misses happened long before
            the measured window.
    """

    name: str
    cores_per_cmp: int
    traces: List[CoreTrace] = field(default_factory=list)
    prewarm: List[List[int]] = field(default_factory=list)

    @property
    def num_cores(self) -> int:
        return len(self.traces)

    @property
    def num_cmps(self) -> int:
        return self.num_cores // self.cores_per_cmp

    @property
    def total_accesses(self) -> int:
        return sum(len(t) for t in self.traces)

    def cmp_of_core(self, core: int) -> int:
        return core // self.cores_per_cmp

    def iter_accesses(self) -> Iterator[Access]:
        for trace in self.traces:
            yield from trace

    def address_footprint(self) -> int:
        """Number of distinct lines touched by the whole trace."""
        return len({a.address for a in self.iter_accesses()})

    def stats(self) -> Dict[str, float]:
        """Descriptive statistics, used by tests and examples."""
        total = self.total_accesses
        writes = sum(1 for a in self.iter_accesses() if a.is_write)
        return {
            "cores": self.num_cores,
            "accesses": total,
            "write_fraction": writes / total if total else 0.0,
            "footprint_lines": self.address_footprint(),
        }

    def validate(self) -> None:
        """Sanity-check trace shape; raises ValueError on problems."""
        if not self.traces:
            raise ValueError("workload has no cores")
        if self.num_cores % self.cores_per_cmp != 0:
            raise ValueError(
                "core count %d not divisible by cores_per_cmp %d"
                % (self.num_cores, self.cores_per_cmp)
            )
        if self.prewarm and len(self.prewarm) != self.num_cores:
            raise ValueError(
                "prewarm has %d entries for %d cores"
                % (len(self.prewarm), self.num_cores)
            )
