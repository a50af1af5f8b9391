"""Unit tests for the protocol transition rules and the global
invariant checker."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.protocol import (
    CoherenceError,
    ProtocolTables,
    downgrade_state,
    local_reader_state,
    requester_state_from_cache,
    requester_state_from_memory,
    supplier_next_state_on_read,
    writer_state,
)
from repro.coherence.states import (
    LOCAL_MASTER_STATES,
    SUPPLIER_STATES,
    LineState,
    compatible,
)


# ----------------------------------------------------------------------
# Supplier transitions on read


def test_sg_supplier_keeps_global_mastership():
    assert supplier_next_state_on_read(LineState.SG) is LineState.SG


def test_exclusive_supplier_becomes_global_master():
    assert supplier_next_state_on_read(LineState.E) is LineState.SG


def test_dirty_supplier_becomes_tagged():
    assert supplier_next_state_on_read(LineState.D) is LineState.T


def test_tagged_supplier_stays_tagged():
    assert supplier_next_state_on_read(LineState.T) is LineState.T


@pytest.mark.parametrize(
    "state", [LineState.I, LineState.S, LineState.SL]
)
def test_non_suppliers_cannot_supply(state):
    with pytest.raises(CoherenceError):
        supplier_next_state_on_read(state)


# ----------------------------------------------------------------------
# Requester states


def test_requester_from_cache_becomes_local_master():
    assert requester_state_from_cache() is LineState.SL


def test_requester_from_memory():
    assert requester_state_from_memory(False) is LineState.E
    assert requester_state_from_memory(True) is LineState.SG


def test_local_reader_gets_plain_shared():
    assert local_reader_state() is LineState.S


def test_writer_gets_dirty():
    assert writer_state() is LineState.D


# ----------------------------------------------------------------------
# Exact downgrades (Section 4.3.3)


def test_downgrade_clean_suppliers_silent():
    for state in (LineState.SG, LineState.E):
        new_state, needs_writeback = downgrade_state(state)
        assert new_state is LineState.SL
        assert not needs_writeback


def test_downgrade_dirty_suppliers_write_back():
    for state in (LineState.D, LineState.T):
        new_state, needs_writeback = downgrade_state(state)
        assert new_state is LineState.SL
        assert needs_writeback


def test_downgrade_non_supplier_rejected():
    with pytest.raises(CoherenceError):
        downgrade_state(LineState.S)


# ----------------------------------------------------------------------
# Global snapshot checking


def test_single_supplier_snapshot_ok():
    ProtocolTables.check_line(
        {
            (0, 0): LineState.SG,
            (1, 0): LineState.SL,
            (2, 0): LineState.S,
        }
    )


def test_two_suppliers_rejected():
    with pytest.raises(CoherenceError):
        ProtocolTables.check_line(
            {(0, 0): LineState.SG, (1, 0): LineState.E}
        )


def test_two_local_masters_same_cmp_rejected():
    with pytest.raises(CoherenceError):
        ProtocolTables.check_line(
            {(0, 0): LineState.SL, (0, 1): LineState.SL}
        )


def test_local_masters_different_cmps_ok():
    ProtocolTables.check_line(
        {(0, 0): LineState.SL, (1, 0): LineState.SL, (2, 0): LineState.T}
    )


def test_exclusive_with_sharer_rejected():
    with pytest.raises(CoherenceError):
        ProtocolTables.check_line(
            {(0, 0): LineState.E, (1, 0): LineState.S}
        )


def test_dirty_alone_ok():
    ProtocolTables.check_line({(3, 1): LineState.D})


def test_tagged_with_shared_copies_ok():
    ProtocolTables.check_line(
        {
            (0, 0): LineState.T,
            (0, 1): LineState.S,
            (1, 0): LineState.SL,
        }
    )


def test_is_consistent_boolean_form():
    assert ProtocolTables.is_consistent({(0, 0): LineState.D})
    assert not ProtocolTables.is_consistent(
        {(0, 0): LineState.D, (1, 0): LineState.S}
    )


def _pairwise_check_line(states, address=0):
    """The checker as first written, kept as the reference: list the
    holders, the suppliers and the masters per CMP, then test every
    pair against the matrix."""
    holders = [(k, s) for k, s in states.items() if s != LineState.I]
    suppliers = [k for k, s in holders if s in SUPPLIER_STATES]
    if len(suppliers) > 1:
        raise CoherenceError(
            "line %#x has %d global suppliers: %s"
            % (address, len(suppliers), suppliers)
        )
    masters_per_cmp = {}
    for key, state in holders:
        if state in LOCAL_MASTER_STATES:
            masters_per_cmp.setdefault(key[0], []).append(key)
    for cmp_id, masters in masters_per_cmp.items():
        if len(masters) > 1:
            raise CoherenceError(
                "line %#x has %d local masters in CMP %d: %s"
                % (address, len(masters), cmp_id, masters)
            )
    for i, (key_a, state_a) in enumerate(holders):
        for key_b, state_b in holders[i + 1 :]:
            if not compatible(state_a, state_b, key_a[0] == key_b[0]):
                raise CoherenceError(
                    "line %#x: incompatible states %s@%s and %s@%s"
                    % (address, state_a.name, key_a, state_b.name, key_b)
                )


def _outcome(check, states):
    try:
        check(states, 0x40)
    except CoherenceError as exc:
        return str(exc)
    return None


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.sampled_from(LineState),
        max_size=8,
    )
)
@settings(max_examples=300, deadline=None)
def test_check_line_raises_what_the_pairwise_reference_raises(states):
    """The one-pass checker accepts what the pairwise reference accepts
    and raises its first error, text included."""
    assert _outcome(ProtocolTables.check_line, states) == _outcome(
        _pairwise_check_line, states
    )
