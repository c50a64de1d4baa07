"""Marshalling error hierarchy."""

from __future__ import annotations

__all__ = [
    "MarshalError",
    "WireTypeError",
    "BufferUnderflowError",
    "DoorVectorError",
    "BufferLifecycleError",
    "ReplyStatusError",
]


class MarshalError(Exception):
    """Base class for errors raised by the marshal layer."""


class WireTypeError(MarshalError):
    """The next wire item does not have the expected type tag.

    Raised when stubs and skeletons disagree about an interface, or when a
    subcontract misreads a buffer — both bugs the self-describing wire
    format exists to catch early.
    """


class BufferUnderflowError(MarshalError):
    """A read ran past the end of the marshalled data."""


class DoorVectorError(MarshalError):
    """A door slot index did not name a live entry in the buffer's door vector."""


class BufferLifecycleError(MarshalError):
    """A pooled communication buffer was used outside its lifecycle.

    Raised immediately at the misuse site — double release, release of a
    buffer still parking live in-transit door references, or any put/get
    on a buffer that has already been returned to its domain's pool —
    instead of corrupting the pool and failing later via the
    pristine-state check on reacquisition.  With ``REPRO_DEBUG=1`` the
    first release site is recorded and included in double-release
    messages.
    """


class ReplyStatusError(MarshalError):
    """A reply's status byte is none of the statuses the stub protocol
    defines (ok, application exception, revoked).

    The stub refuses such a reply — recycling it first — instead of
    decoding whatever follows as results.
    """
