"""Doors: the Spring nucleus' object-oriented IPC endpoints (Section 3.3).

A *door* is a communication endpoint created by a server domain.  Threads
in other domains execute cross-address-space calls through it.  The domain
that creates a door receives a *door identifier*, which it can pass to
other domains so that they can issue calls to the associated door.

The kernel manages every operation on doors and door identifiers —
construction, destruction, copying, and transmission — and door
identifiers function as software capabilities: only the legitimate owner
of an identifier may issue a call on its door.

This module defines the passive data structures; all state transitions go
through :class:`repro.kernel.nucleus.Kernel`.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.marshal.buffer import MarshalBuffer

__all__ = ["Door", "DoorIdentifier", "DoorState", "TransitDoorRef", "DoorHandler"]

#: Server-side entry point a door delivers incoming calls to.  It receives
#: the (already kernel-translated) argument buffer and returns the reply
#: buffer.  In practice this is a server-side subcontract's call processor
#: (Section 5.2.2), occasionally the server stubs directly.
DoorHandler = Callable[["MarshalBuffer"], "MarshalBuffer"]

_door_uids = itertools.count(1)
_ident_uids = itertools.count(1)


class DoorState(enum.Enum):
    """Lifecycle of a door."""

    ACTIVE = "active"
    REVOKED = "revoked"  # server revoked it (Section 5.2.3)
    DEAD = "dead"        # server domain crashed or door fully released


class Door:
    """A kernel communication endpoint owned by a server domain.

    Attributes:
        uid: kernel-wide unique door number.
        server: the domain that created the door and receives its calls.
        handler: where incoming calls are delivered.
        unreferenced: optional upcall run when the last outstanding
            identifier for this door is deleted, so the server-side
            subcontract can clean up (Section 7, simplex consume).
        label: a fixed name for diagnostics, set at creation.
    """

    def __init__(
        self,
        server: "Domain",
        handler: DoorHandler,
        unreferenced: Callable[["Door"], None] | None = None,
        label: str = "",
    ) -> None:
        self.uid = next(_door_uids)
        self.server = server
        self.handler = handler
        self.unreferenced = unreferenced
        self.label = label
        #: what traces and windows call this door: its label, else its uid
        self.span_name = label or f"door#{self.uid}"
        self.state = DoorState.ACTIVE
        #: outstanding identifiers (owned or in transit) naming this door
        self.refcount = 0
        #: statistics, used by benches (E4) and tests
        self.calls_handled = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"<Door #{self.uid}{tag} {self.state.value}"
            f" refs={self.refcount} server={self.server.name!r}>"
        )


class DoorIdentifier:
    """A capability naming a door, owned by exactly one domain.

    Identifiers are unforgeable in this emulation because the marshal
    layer never serialises them as bytes: they travel out-of-band in a
    buffer's door vector and are translated by the kernel at transmission
    time (compare Mach port rights).
    """

    def __init__(self, door: Door, owner: "Domain") -> None:
        self.uid = next(_ident_uids)
        self.door = door
        self.owner = owner
        self.valid = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "valid" if self.valid else "invalid"
        return (
            f"<DoorIdentifier #{self.uid} door=#{self.door.uid}"
            f" owner={self.owner.name!r} {status}>"
        )


class TransitDoorRef:
    """A door reference detached from any domain, riding in a buffer.

    Created when a door identifier is marshalled (the sender's identifier
    is consumed); converted back into a domain-owned identifier when the
    receiving domain unmarshals it.  While in transit it holds one unit of
    the door's refcount, so a door cannot become unreferenced while a
    message naming it is in flight.
    """

    def __init__(self, door: Door) -> None:
        self.door = door
        self.live = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "live" if self.live else "consumed"
        return f"<TransitDoorRef door=#{self.door.uid} {status}>"
