"""Snoop message model for the embedded ring.

A coherence transaction is represented on the ring by *one logical
message* that may exist in two physical forms (Section 3.2 / Table 2):

* **combined** - a single Combined Request/Reply (R/R) carrying both
  the request and the accumulated snoop outcomes.
* **split** - a *snoop request* racing ahead plus a *snoop reply*
  trailing behind, collecting outcomes.

``Forward Then Snoop`` splits a combined message; ``Snoop Then
Forward`` recombines a split one.  A message can be split and
recombined several times along the ring.  Once the supplier is found,
the message is *satisfied*: it is marked as a reply and traverses the
remainder of the ring without inducing snoops.

:class:`RingMessage` tracks the walk state of one transaction: the
arrival time of the request (or combined R/R) at the current node and,
when split, the time the trailing reply will arrive there.
"""

from __future__ import annotations

import enum
from typing import Optional


class MessageMode(enum.Enum):
    """Physical form of the logical snoop message at a ring segment."""

    COMBINED = "combined"
    SPLIT = "split"


class SnoopKind(enum.Enum):
    """Type of the coherence transaction the message serializes."""

    READ = "read"
    WRITE = "write"


class RingMessage:
    """Walk state of one transaction's snoop message.

    Attributes:
        transaction_id: owning transaction.
        kind: read or write snoop.
        address: line address.
        requester: CMP node id that issued the message.
        mode: combined or split physical form.
        request_time: time the request (or combined R/R) arrives at the
            node currently processing the message.
        reply_time: time the trailing reply arrives at that node; only
            meaningful in split mode.
        satisfied: True once a supplier answered the request; set on
            the *combined/reply* part.  In split mode the request
            racing ahead stays unsatisfied (downstream nodes cannot
            know yet), which is exactly why Eager snoops every node.
        satisfied_reply: True when the trailing reply carries the
            positive outcome.
        supplier: node that supplied the line, if any.
        hops_request: ring segments crossed by the request/combined
            form (message-energy accounting).
        hops_reply: ring segments crossed by trailing replies.
        squashed: the message lost a collision and performs no snoops;
            it circulates for serialization only and is retried.

    A hand-rolled ``__slots__`` class (not a dataclass): one message
    exists per ring transaction, so construction and field access are
    on the hot path.
    """

    __slots__ = (
        "transaction_id",
        "kind",
        "address",
        "requester",
        "mode",
        "request_time",
        "reply_time",
        "satisfied",
        "satisfied_reply",
        "supplier",
        "hops_request",
        "hops_reply",
        "squashed",
    )

    def __init__(
        self,
        transaction_id: int,
        kind: SnoopKind,
        address: int,
        requester: int,
        mode: MessageMode = MessageMode.COMBINED,
        request_time: int = 0,
        reply_time: Optional[int] = None,
        satisfied: bool = False,
        satisfied_reply: bool = False,
        supplier: Optional[int] = None,
        hops_request: int = 0,
        hops_reply: int = 0,
        squashed: bool = False,
    ) -> None:
        self.transaction_id = transaction_id
        self.kind = kind
        self.address = address
        self.requester = requester
        self.mode = mode
        self.request_time = request_time
        self.reply_time = reply_time
        self.satisfied = satisfied
        self.satisfied_reply = satisfied_reply
        self.supplier = supplier
        self.hops_request = hops_request
        self.hops_reply = hops_reply
        self.squashed = squashed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            "RingMessage(transaction_id=%r, kind=%r, address=%#x, "
            "requester=%r, mode=%r, satisfied=%r, squashed=%r)"
            % (
                self.transaction_id,
                self.kind,
                self.address,
                self.requester,
                self.mode,
                self.satisfied,
                self.squashed,
            )
        )

    @property
    def total_hops(self) -> int:
        """Total ring segment crossings by all forms of this message."""
        return self.hops_request + self.hops_reply

    def split(self, reply_departure: int) -> None:
        """Split into request + trailing reply (Forward Then Snoop).

        ``reply_departure`` is when the (new or merged) reply leaves
        the current node.
        """
        self.mode = MessageMode.SPLIT
        self.reply_time = reply_departure

    def recombine(self) -> None:
        """Merge the trailing reply into a combined R/R."""
        self.mode = MessageMode.COMBINED
        self.reply_time = None

    def mark_satisfied_combined(self, supplier: int) -> None:
        """Record a supply on the combined form: the message is now a
        reply and traverses the remaining ring without snoops."""
        self.satisfied = True
        self.satisfied_reply = True
        self.supplier = supplier

    def mark_satisfied_reply_only(self, supplier: int) -> None:
        """Record a supply whose outcome travels in the trailing reply
        (Forward Then Snoop): the request racing ahead stays live, so
        downstream nodes keep acting on it."""
        self.satisfied_reply = True
        self.supplier = supplier
