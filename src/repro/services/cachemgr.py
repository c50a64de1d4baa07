"""The per-machine cache manager used by the caching subcontract
(Section 8.2, Figure 5).

The manager is an interface-agnostic interposer: when a caching object is
unmarshalled on a machine, the subcontract *presents the D1 door
identifier to the local cache manager and receives a new D2*.  The D2
door leads to a per-server-door "front" that serves repeated cacheable
reads from local memory and forwards everything else to the real server
through D1.

Coherence model (a deliberate simplification of the Spring file system's
cache-coherence protocol, documented in DESIGN.md): any non-cacheable
operation performed *through a front* invalidates that front's entries,
and ``flush`` invalidates on demand.  Fronts on other machines are not
notified; tests cover exactly this contract.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.idl.compiler import IdlModule, compile_idl
from repro.marshal.buffer import MarshalBuffer
from repro.subcontracts.singleton import SingletonServer

if TYPE_CHECKING:
    from repro.core.object import SpringObject
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.domain import Domain
    from repro.kernel.doors import DoorIdentifier

__all__ = [
    "CACHE_MANAGER_IDL",
    "cache_manager_module",
    "cache_manager_binding",
    "CacheManagerImpl",
    "CacheManagerService",
]

CACHE_MANAGER_IDL = """
// Machine-local cache manager (Section 8.2).
interface cache_manager {
    subcontract "singleton";

    // Present a server door (D1); receive a local cache door (D2).
    door register_cache(door server_door);

    // Drop cached entries for one server door.
    void flush(door server_door);
    // Drop everything.
    void flush_all();

    // Which operation names may be served from cache.
    void set_cacheable(sequence<string> ops);
    sequence<string> cacheable_ops();

    int64 hits();
    int64 misses();
}
"""

#: default operation names treated as cacheable reads
DEFAULT_CACHEABLE_OPS = ("read", "size", "get", "has", "keys", "stat", "list_dir", "exists")

#: operations that neither hit the cache nor invalidate it
_NEUTRAL_OPS = frozenset({"_spring_type_query"})


@lru_cache(maxsize=1)
def cache_manager_module() -> IdlModule:
    return compile_idl(CACHE_MANAGER_IDL, module_name="repro.services.cachemgr")


def cache_manager_binding() -> "InterfaceBinding":
    """The runtime binding for the ``cache_manager`` interface."""
    return cache_manager_module().binding("cache_manager")


class _CacheFront:
    """One cache front: D2's target, keyed by the server door it fronts."""

    def __init__(self, manager: "CacheManagerImpl", server_door: "DoorIdentifier") -> None:
        self.manager = manager
        self.server_door = server_door
        self.entries: dict[tuple[str, bytes], bytes] = {}
        domain = manager.domain
        # Label by the fronted door's own label when it has one: door uids
        # are a process-global counter, and a uid-bearing label would make
        # per-door telemetry keys differ between otherwise identical runs.
        fronted = server_door.door.span_name
        self.front_door = domain.kernel.create_door(
            domain, self.handle, label=f"cache-front:{fronted}"
        )

    def handle(self, request: MarshalBuffer) -> MarshalBuffer:
        domain = self.manager.domain
        kernel = domain.kernel
        opname = request.get_string()
        key = (opname, bytes(request.data[request.read_pos :]))
        cacheable = (
            opname in self.manager.cacheable and request.live_door_count() == 0
        )

        if cacheable:
            stored = self.entries.get(key)
            if stored is not None:
                self.manager.hit_count += 1
                if kernel.tracer.enabled:
                    kernel.tracer.event("cache.hit", subcontract="caching", op=opname)
                kernel.clock.charge("memory_copy_byte", len(stored))
                reply = MarshalBuffer(kernel)
                reply.data.extend(stored)
                return reply

        # Forward to the real server through D1, re-addressing the
        # request without understanding its contents.
        forward = MarshalBuffer(kernel)
        forward.put_string(opname)
        forward.graft_tail(request)
        try:
            reply = kernel.door_call(domain, self.server_door, forward)
        finally:
            # graft_tail stole the request's door vector; if the forward
            # never reaches the server (or the server leaves slots
            # unread), drop the leftovers so their refcounts unwind.
            forward.discard()

        if cacheable and reply.live_door_count() == 0:
            self.manager.miss_count += 1
            if kernel.tracer.enabled:
                kernel.tracer.event("cache.miss", subcontract="caching", op=opname)
            self.entries[key] = bytes(reply.data)
        elif opname not in self.manager.cacheable and opname not in _NEUTRAL_OPS:
            # A write (or any unknown operation) went through: drop this
            # front's cached view of the object.
            self.entries.clear()
        return reply

    def invalidate(self) -> None:
        self.entries.clear()


class CacheManagerImpl:
    """Implementation object behind the ``cache_manager`` interface."""

    def __init__(
        self,
        domain: "Domain",
        cacheable_ops: tuple[str, ...] = DEFAULT_CACHEABLE_OPS,
    ) -> None:
        self.domain = domain
        self.cacheable: set[str] = set(cacheable_ops)
        #: server door uid -> front
        self.fronts: dict[int, _CacheFront] = {}
        self.hit_count = 0
        self.miss_count = 0

    # -- IDL operations ---------------------------------------------------

    def register_cache(self, server_door: "DoorIdentifier") -> "DoorIdentifier":
        """Present a server door (D1); receive a local cache door (D2)."""
        kernel = self.domain.kernel
        front = self.fronts.get(server_door.door.uid)
        if front is None:
            front = _CacheFront(self, server_door)
            self.fronts[server_door.door.uid] = front
        else:
            # Already fronting this door; the presented duplicate is not
            # needed.
            kernel.delete_door_id(self.domain, server_door)
        return kernel.copy_door_id(self.domain, front.front_door)

    def flush(self, server_door: "DoorIdentifier") -> None:
        """Drop cached entries for one server door."""
        front = self.fronts.get(server_door.door.uid)
        if front is not None:
            front.invalidate()
        self.domain.kernel.delete_door_id(self.domain, server_door)

    def flush_all(self) -> None:
        """Drop every front's cached entries."""
        for front in self.fronts.values():
            front.invalidate()

    def set_cacheable(self, ops: list[str]) -> None:
        """Replace the set of operation names served from cache."""
        self.cacheable = set(ops)

    def cacheable_ops(self) -> list[str]:
        """Sorted operation names served from cache."""
        return sorted(self.cacheable)

    def hits(self) -> int:
        """Reads served from cache so far."""
        return self.hit_count

    def misses(self) -> int:
        """Cacheable reads that had to reach the server."""
        return self.miss_count


class CacheManagerService:
    """A cache manager hosted in its own domain and exported via singleton."""

    def __init__(
        self,
        domain: "Domain",
        cacheable_ops: tuple[str, ...] = DEFAULT_CACHEABLE_OPS,
    ) -> None:
        self.domain = domain
        self.impl = CacheManagerImpl(domain, cacheable_ops)
        self._server = SingletonServer(domain)
        self.manager: "SpringObject" = self._server.export(
            self.impl, cache_manager_binding()
        )
