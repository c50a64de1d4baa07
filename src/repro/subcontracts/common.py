"""Shared building blocks for the bundled subcontracts.

Most client-server subcontracts process incoming calls the same way
(Section 5.2.2): the call arrives first in the server-side subcontract,
which reads any subcontract-level control information and then forwards
the call to the server stubs (skeleton), possibly piggybacking control
information on the reply.  ``make_door_handler`` builds that handler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.marshal.buffer import MarshalBuffer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.domain import Domain

__all__ = ["make_door_handler", "peek_opname", "SingleDoorRep"]

#: hook run by a handler before dispatch: (request, reply) -> None.  The
#: request hook reads the subcontract's control information off the front
#: of the request; the reply hook writes control onto the front of the
#: reply (the client-side ``invoke`` consumes it before returning the
#: buffer to the stubs).
ControlHook = Callable[[MarshalBuffer, MarshalBuffer], None]


def make_door_handler(
    domain: "Domain",
    impl: Any,
    binding: "InterfaceBinding",
    control_hook: ControlHook | None = None,
) -> Callable[[MarshalBuffer], MarshalBuffer]:
    """Build a door handler that forwards incoming calls to the skeleton.

    The returned handler is what the subcontract installs as the door's
    target; the ``indirect_call`` charge is the server-side indirect call
    from the subcontract into the server stubs that Section 9.3 counts.
    """
    kernel = domain.kernel
    skeleton = binding.skeleton
    interface_name = binding.name

    def handler(request: MarshalBuffer) -> MarshalBuffer:
        # Pool-acquired: the consumer of the reply (normally the client's
        # remote_call) releases it back to this domain's free-list.
        reply = domain.acquire_buffer()
        if control_hook is not None:
            control_hook(request, reply)
        if kernel.tracer.enabled:
            with kernel.tracer.begin_span(
                domain,
                peek_opname(request),
                "skeleton",
                interface=interface_name,
            ):
                kernel.clock.charge("indirect_call")  # subcontract -> server stubs
                skeleton.dispatch(domain, impl, request, reply, binding)
            return reply
        kernel.clock.charge("indirect_call")  # subcontract -> server stubs
        skeleton.dispatch(domain, impl, request, reply, binding)
        return reply

    return handler


def peek_opname(request: MarshalBuffer) -> str:
    """Read the operation name at the request's current position without
    consuming it (the skeleton re-reads it during dispatch)."""
    try:
        return request.peek_string()
    except Exception:
        return "?"


class SingleDoorRep:
    """Representation shared by the single-door subcontracts: one kernel
    door identifier pointing at the server (Figure 4)."""

    __slots__ = ("door",)

    def __init__(self, door: Any) -> None:
        self.door = door

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SingleDoorRep door_id=#{self.door.uid}>"
