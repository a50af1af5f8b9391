"""Unit tests for the ring message model."""

from __future__ import annotations

from repro.ring.messages import MessageMode, RingMessage, SnoopKind


def make_message(**kwargs):
    defaults = dict(
        transaction_id=7,
        kind=SnoopKind.READ,
        address=0x40,
        requester=2,
    )
    defaults.update(kwargs)
    return RingMessage(**defaults)


def test_initial_state_is_combined():
    message = make_message()
    assert message.mode is MessageMode.COMBINED
    assert message.reply_time is None
    assert not message.satisfied
    assert not message.satisfied_reply
    assert message.supplier is None


def test_init_sets_every_slot():
    """Each ring transaction builds a new message, so the constructor
    alone gives every field its value."""
    message = make_message()
    for name in RingMessage.__slots__:
        getattr(message, name)


def test_init_stores_every_argument():
    message = make_message(
        mode=MessageMode.SPLIT,
        request_time=11,
        reply_time=13,
        satisfied=True,
        satisfied_reply=True,
        supplier=3,
        hops_request=4,
        hops_reply=5,
        squashed=True,
    )
    assert message.transaction_id == 7
    assert message.kind is SnoopKind.READ
    assert message.address == 0x40
    assert message.requester == 2
    assert message.mode is MessageMode.SPLIT
    assert (message.request_time, message.reply_time) == (11, 13)
    assert message.satisfied and message.satisfied_reply
    assert message.supplier == 3
    assert (message.hops_request, message.hops_reply) == (4, 5)
    assert message.squashed


def test_split_and_recombine():
    message = make_message()
    message.split(reply_departure=150)
    assert message.mode is MessageMode.SPLIT
    assert message.reply_time == 150
    message.recombine()
    assert message.mode is MessageMode.COMBINED
    assert message.reply_time is None


def test_mark_satisfied_combined():
    message = make_message()
    message.mark_satisfied_combined(supplier=5)
    assert message.satisfied
    assert message.satisfied_reply
    assert message.supplier == 5


def test_mark_satisfied_reply_only_keeps_request_live():
    message = make_message()
    message.mark_satisfied_reply_only(supplier=5)
    assert not message.satisfied  # request still induces actions
    assert message.satisfied_reply
    assert message.supplier == 5


def test_total_hops():
    message = make_message()
    message.hops_request = 8
    message.hops_reply = 7
    assert message.total_hops == 15


def test_kinds():
    read = make_message(kind=SnoopKind.READ)
    write = make_message(kind=SnoopKind.WRITE)
    assert read.kind is SnoopKind.READ
    assert write.kind is SnoopKind.WRITE
