"""Protocol-level transition rules of the enhanced MESI protocol.

These pure functions encode the state-transition conventions of
Section 2.2 of the paper:

* The cache that brought a line from memory retains the *Global
  Master* qualifier (SG) until eviction or invalidation, so a supplier
  in E or SG keeps global mastership after supplying a read.
* A dirty supplier (D) that supplies a read transitions to Tagged (T):
  the data stays dirty but coherent copies now exist elsewhere.
* The cache that brings a line into a CMP from outside retains the
  *Local Master* qualifier (SL).

The :class:`ProtocolTables` helper validates a global snapshot of all
cache states against the compatibility matrix, and is used by tests
and the optional runtime invariant checker.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.coherence.states import ALL_STATE_BITS, LineState, compatible


class CoherenceError(Exception):
    """Raised when a coherence invariant is violated."""


def supplier_next_state_on_read(state: LineState) -> LineState:
    """State of the supplier cache after it services a ring read.

    The supplier keeps mastership: SG stays SG, E (clean exclusive)
    becomes SG once a second copy exists, D becomes T (dirty shared),
    and T stays T.
    """
    if state == LineState.SG:
        return LineState.SG
    if state == LineState.E:
        return LineState.SG
    if state == LineState.D:
        return LineState.T
    if state == LineState.T:
        return LineState.T
    raise CoherenceError("state %s cannot supply a ring read" % state.name)


def requester_state_from_cache() -> LineState:
    """State acquired by a requester whose read was satisfied by a
    cache in another CMP.

    The requester brought the line into its CMP from outside, so it
    becomes the CMP's Local Master (SL).  Global mastership stays with
    the supplier.
    """
    return LineState.SL


def requester_state_from_memory(other_copies_exist: bool) -> LineState:
    """State acquired by a requester whose read was satisfied by memory.

    With no other cached copies the line is Exclusive (E).  If plain
    shared copies survive somewhere (the previous global master was
    evicted), the requester becomes the new Global Master (SG).
    """
    return LineState.SG if other_copies_exist else LineState.E


def local_reader_state() -> LineState:
    """State acquired by a core whose read hit a local master in its
    own CMP: a plain shared copy (the local master keeps SL)."""
    return LineState.S


def writer_state() -> LineState:
    """State acquired by a writer after its invalidation completes."""
    return LineState.D


def downgrade_state(state: LineState) -> Tuple[LineState, bool]:
    """Downgrade used by the Exact predictor on conflict evictions
    (Section 4.3.3).

    Returns ``(new_state, needs_writeback)``: SG and E are silently
    downgraded to SL; D and T are written back to memory and kept in
    SL.
    """
    if state in (LineState.SG, LineState.E):
        return LineState.SL, False
    if state in (LineState.D, LineState.T):
        return LineState.SL, True
    raise CoherenceError("cannot downgrade non-supplier state %s" % state.name)


class ProtocolTables:
    """Validation helpers over a global snapshot of cache states.

    A snapshot maps ``(cmp_id, core_id) -> LineState`` for one line.
    """

    @staticmethod
    def check_line(
        states: Dict[Tuple[int, int], LineState], address: int = 0
    ) -> None:
        """Raise :class:`CoherenceError` if the snapshot violates the
        compatibility matrix or the mastership invariants.

        One pass over the snapshot, with no enum hashing: a state is
        compatible with every earlier holder when its bit is in all
        their ``admits`` masks and in the ``admits_same_cmp`` masks of
        those in its CMP (``I`` admits everything and every state
        admits ``I``).  Two suppliers, or two local masters in one CMP,
        are always an incompatible pair, so a clean pass means all
        three rules hold; otherwise :func:`_raise_first_violation`
        names the violation.
        """
        admitted = ALL_STATE_BITS
        per_cmp: Dict[int, int] = {}
        for key, state in states.items():
            same_cmp = per_cmp.get(key[0], ALL_STATE_BITS)
            if not state.bit & admitted & same_cmp:
                _raise_first_violation(states, address)
            admitted &= state.admits
            per_cmp[key[0]] = same_cmp & state.admits_same_cmp

    @staticmethod
    def is_consistent(states: Dict[Tuple[int, int], LineState]) -> bool:
        """Boolean form of :meth:`check_line`."""
        try:
            ProtocolTables.check_line(states)
        except CoherenceError:
            return False
        return True


def _raise_first_violation(
    states: Dict[Tuple[int, int], LineState], address: int
) -> None:
    """Raise the error for the first rule ``states`` breaks: two global
    suppliers, then two local masters in one CMP, then the first
    incompatible pair in snapshot order."""
    holders: List[Tuple[Tuple[int, int], LineState]] = [
        (key, state) for key, state in states.items() if state != LineState.I
    ]
    suppliers = [key for key, state in holders if state.supplier]
    if len(suppliers) > 1:
        raise CoherenceError(
            "line %#x has %d global suppliers: %s"
            % (address, len(suppliers), suppliers)
        )
    masters_per_cmp: Dict[int, List[Tuple[int, int]]] = {}
    for key, state in holders:
        if state.local_master:
            masters_per_cmp.setdefault(key[0], []).append(key)
    for cmp_id, masters in masters_per_cmp.items():
        if len(masters) > 1:
            raise CoherenceError(
                "line %#x has %d local masters in CMP %d: %s"
                % (address, len(masters), cmp_id, masters)
            )
    for i, (key_a, state_a) in enumerate(holders):
        for key_b, state_b in holders[i + 1 :]:
            same_cmp = key_a[0] == key_b[0]
            if not compatible(state_a, state_b, same_cmp=same_cmp):
                raise CoherenceError(
                    "line %#x: incompatible states %s@%s and %s@%s"
                    % (address, state_a.name, key_a, state_b.name, key_b)
                )
