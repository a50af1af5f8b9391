"""Discrete-event simulation substrate and full-system assembly.

The machine is a facade (:class:`RingMultiprocessor`) over four
subsystems - :class:`TransactionManager`, :class:`RingWalker`,
:class:`DataPathModel` and :class:`WarmupController` - each in its
own module with a documented interface contract.
"""

from repro.sim.datapath import DataPathModel
from repro.sim.engine import EventEngine
from repro.sim.memory import MainMemory
from repro.sim.system import RingMultiprocessor, SimulationResult
from repro.sim.transactions import Transaction, TransactionManager
from repro.sim.walker import RingWalker
from repro.sim.warmup import WarmupController

__all__ = [
    "DataPathModel",
    "EventEngine",
    "MainMemory",
    "RingMultiprocessor",
    "RingWalker",
    "SimulationResult",
    "Transaction",
    "TransactionManager",
    "WarmupController",
]
