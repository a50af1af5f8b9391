"""Coherence line states and the compatibility matrix of Figure 2(b).

The protocol is MESI enhanced with two qualifiers on the Shared state
and a Tagged state:

* ``S``  - plain shared copy; cannot supply data.
* ``SL`` - Shared, Local Master: the one cache per CMP that brought the
  line into the CMP; supplies data to reads from cores in the same CMP.
* ``SG`` - Shared, Global Master: the one cache in the machine that
  brought the line from memory; supplies data to ring snoop requests.
* ``T``  - Tagged: the line is dirty but coherent copies exist in other
  caches; on eviction, a T line is written back to memory.

The *supplier states* - those that answer a read snoop request on the
ring - are SG, E, D and T.
"""

from __future__ import annotations

import enum
from typing import FrozenSet


class LineState(enum.Enum):
    """State of one line in one cache."""

    I = "I"  # noqa: E741 - the paper's name for Invalid
    S = "S"
    SL = "SL"
    SG = "SG"
    E = "E"
    D = "D"
    T = "T"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "LineState.%s" % self.name


#: States in which a cache answers a ring read snoop request.
SUPPLIER_STATES: FrozenSet[LineState] = frozenset(
    {LineState.SG, LineState.E, LineState.D, LineState.T}
)

#: States in which a cache supplies data to a read from its own CMP.
LOCAL_MASTER_STATES: FrozenSet[LineState] = frozenset(
    {LineState.SL, LineState.SG, LineState.E, LineState.D, LineState.T}
)

#: States denoting a valid cached copy.
CACHED_STATES: FrozenSet[LineState] = frozenset(
    {
        LineState.S,
        LineState.SL,
        LineState.SG,
        LineState.E,
        LineState.D,
        LineState.T,
    }
)

#: States whose data differs from memory and must be written back.
DIRTY_STATES: FrozenSet[LineState] = frozenset({LineState.D, LineState.T})


# Precomputed classification flags, attached directly to the enum
# members.  ``state in SUPPLIER_STATES`` hashes the enum member through
# ``Enum.__hash__`` (a Python-level call) on every membership test; the
# cache fill/eviction path performs millions of these per simulation,
# so the hot code reads ``state.supplier`` (a plain attribute) instead.
for _state in LineState:
    _state.supplier = _state in SUPPLIER_STATES
    _state.local_master = _state in LOCAL_MASTER_STATES
    _state.dirty = _state in DIRTY_STATES
    _state.cached = _state in CACHED_STATES
del _state


def is_supplier(state: LineState) -> bool:
    """True if a cache in ``state`` answers ring read snoop requests."""
    return state.supplier


def is_local_master(state: LineState) -> bool:
    """True if a cache in ``state`` supplies reads within its CMP."""
    return state.local_master


def is_dirty(state: LineState) -> bool:
    """True if the line's data is newer than memory's copy."""
    return state.dirty


# Compatibility matrix of Figure 2(b).  ``_COMPATIBLE_ANY[a]`` is the
# set of states another cache *in a different CMP* may hold while some
# cache holds the line in state ``a``.  ``_COMPATIBLE_SAME_CMP[a]`` is
# the same for a cache in the *same* CMP; the paper marks with ``*``
# the states that are only compatible across CMPs.
_COMPATIBLE_ANY = {
    LineState.I: CACHED_STATES | {LineState.I},
    LineState.S: frozenset(
        {LineState.I, LineState.S, LineState.SL, LineState.SG, LineState.T}
    ),
    LineState.SL: frozenset(
        {LineState.I, LineState.S, LineState.SL, LineState.SG, LineState.T}
    ),
    LineState.SG: frozenset({LineState.I, LineState.S, LineState.SL}),
    LineState.E: frozenset({LineState.I}),
    LineState.D: frozenset({LineState.I}),
    LineState.T: frozenset({LineState.I, LineState.S, LineState.SL}),
}

_COMPATIBLE_SAME_CMP = {
    LineState.I: CACHED_STATES | {LineState.I},
    LineState.S: frozenset(
        {LineState.I, LineState.S, LineState.SL, LineState.SG, LineState.T}
    ),
    # SL is compatible with SL, SG and T only if they are in a
    # different CMP (one local master per CMP; T implies mastership).
    LineState.SL: frozenset({LineState.I, LineState.S}),
    LineState.SG: frozenset({LineState.I, LineState.S}),
    LineState.E: frozenset({LineState.I}),
    LineState.D: frozenset({LineState.I}),
    LineState.T: frozenset({LineState.I, LineState.S}),
}


# The matrix again as bit masks on the members, for checks that must
# not hash the enum: ``state.bit`` is the state's own bit, and
# ``state.admits`` / ``state.admits_same_cmp`` are the bits of the
# states ``_COMPATIBLE_ANY[state]`` / ``_COMPATIBLE_SAME_CMP[state]``
# allow.  Every state admits at least as much from another CMP as from
# its own, which lets a check fold the two masks (see
# ``ProtocolTables.check_line``).
for _index, _state in enumerate(LineState):
    _state.bit = 1 << _index
for _state in LineState:
    _state.admits = sum(other.bit for other in _COMPATIBLE_ANY[_state])
    _state.admits_same_cmp = sum(
        other.bit for other in _COMPATIBLE_SAME_CMP[_state]
    )
    assert _state.admits_same_cmp & ~_state.admits == 0
del _index, _state

#: Every state's bit.
ALL_STATE_BITS = sum(state.bit for state in LineState)


def compatible(a: LineState, b: LineState, same_cmp: bool) -> bool:
    """True if two caches may simultaneously hold a line in states
    ``a`` and ``b``, given whether the caches sit in the same CMP.

    This encodes the matrix of Figure 2(b); it is symmetric.
    """
    table = _COMPATIBLE_SAME_CMP if same_cmp else _COMPATIBLE_ANY
    return b in table[a]
