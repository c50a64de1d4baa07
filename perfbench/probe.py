"""Outside-in layer instrumentation: timed spans and deterministic counts.

Nothing here edits the program.  Both instruments find each layer's
public entry points from the benchmark's side:

* :class:`Recorder` wraps those functions (class attributes, restored
  on exit) so every call into a layer opens a span.  A span records its
  name, start, end, parent and the call's id; self time is its duration
  minus the time its child spans cover.  Aggregates are kept online and
  the first spans are kept in memory for writing out after the run.
* :func:`count_pass` runs ops under ``sys.setprofile`` and attributes
  every Python function call to the innermost layer entry on the
  profiled stack.  Its counts depend only on the ops, so two runs with
  the same seed must agree exactly.

Layers are named after the program's modules:

``stubs``        generated stub methods (the call's root span)
``subcontract``  client ``invoke``/``invoke_preamble`` of every bundled subcontract
``nucleus``      ``Kernel.door_call`` and the kernel's delivery leg
``fabric``       ``NetworkFabric.carry`` (sim fabric, cross-machine)
``skeleton``     generated ``skeleton.dispatch``
``impl``         server implementation methods (the application)
``buffer``       ``Domain.acquire_buffer``, ``MarshalBuffer.release``/``recycle``
``replicon``     ``RepliconGroup.broadcast``
``retry``        ``RetryPolicy.backoff_us``
``procfabric``   ``ProcFabric.call_raw`` (waits on a worker; opaque to counts)
``clock``        ``SimClock.charge``/``charge_bytes``/``advance`` (counts only)
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path
from time import perf_counter_ns

from repro.core.subcontract import ClientSubcontract
from repro.kernel.clock import SimClock
from repro.kernel.domain import Domain
from repro.kernel.nucleus import Kernel
from repro.marshal.buffer import MarshalBuffer
from repro.net.fabric import NetworkFabric
from repro.net.procfabric import ProcFabric
from repro.runtime.retry import RetryPolicy
from repro.subcontracts import standard_subcontracts
from repro.subcontracts.replicon import RepliconGroup

from workloads import IMPL_CLASSES

TIMED_LAYERS = (
    "stubs",
    "subcontract",
    "nucleus",
    "fabric",
    "skeleton",
    "impl",
    "buffer",
    "replicon",
    "retry",
    "procfabric",
)

#: layer whose nested calls the count pass does not attribute: it waits
#: on another process, so the calls it makes while waiting vary by run
OPAQUE = "procfabric"

_BENCH_DIR = str(Path(__file__).resolve().parent)


def _impl_classes() -> list[type]:
    seen: list[type] = []
    todo = list(IMPL_CLASSES)
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def static_entries() -> list[tuple[str, type, str]]:
    """(layer, owner class, attribute) for every fixed layer entry."""
    entries = []
    classes = {ClientSubcontract}
    for cls in standard_subcontracts():
        classes.update(c for c in cls.__mro__ if issubclass(c, ClientSubcontract))
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        for name in ("invoke_preamble", "invoke"):
            if name in cls.__dict__:
                entries.append(("subcontract", cls, name))
    entries += [
        ("nucleus", Kernel, "door_call"),
        ("nucleus", Kernel, "_deliver"),
        ("fabric", NetworkFabric, "carry"),
        ("buffer", Domain, "acquire_buffer"),
        ("buffer", MarshalBuffer, "release"),
        ("buffer", MarshalBuffer, "recycle"),
        ("replicon", RepliconGroup, "broadcast"),
        ("retry", RetryPolicy, "backoff_us"),
        ("procfabric", ProcFabric, "call_raw"),
    ]
    for cls in _impl_classes():
        for name, value in vars(cls).items():
            if callable(value) and not name.startswith("_"):
                entries.append(("impl", cls, name))
    return entries


def module_entries(modules) -> list[tuple[str, type, str]]:
    """Stub methods and skeleton dispatch of a world's compiled modules."""
    entries = []
    for module, interfaces in modules:
        for name in interfaces:
            binding = module.binding(name)
            for op in binding.operations:
                entries.append(("stubs", binding.stub_class, op))
            entries.append(("skeleton", binding.skeleton, "dispatch"))
    return entries


def _function(owner: type, name: str):
    value = owner.__dict__[name]
    return value.__func__ if isinstance(value, staticmethod) else value


# ----------------------------------------------------------------------
# timed spans
# ----------------------------------------------------------------------


class Recorder:
    """Times every call into a layer entry it has patched."""

    def __init__(self, keep_spans: int = 20_000) -> None:
        self.keep_spans = keep_spans
        self._patched: list[tuple[type, str, object]] = []
        self._seen: set[tuple[int, str]] = set()
        #: open spans: [span id, start ns, ns covered by child spans]
        self.stack: list[list] = []
        self.totals = {layer: [0, 0] for layer in TIMED_LAYERS}
        self.spans: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded; wrappers keep their references.

        Open spans stay open (a worker resets from inside a call).
        """
        #: layer -> [spans, self ns]
        for slot in self.totals.values():
            slot[0] = slot[1] = 0
        #: kept spans: (id, parent id, name, start ns, end ns, call id)
        self.spans.clear()
        self.call_id = 0
        self._ids = itertools.count(1)

    # -- patching ------------------------------------------------------

    def patch(self, layer: str, owner: type, name: str) -> None:
        if (id(owner), name) in self._seen:
            return
        self._seen.add((id(owner), name))
        original = owner.__dict__[name]
        fn = _function(owner, name)
        wrapped = self._wrap(layer, f"{layer}:{owner.__name__}.{name}", fn)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapped)

    def patch_static(self) -> None:
        for entry in static_entries():
            self.patch(*entry)

    def patch_module(self, module, interfaces) -> None:
        for entry in module_entries([(module, interfaces)]):
            self.patch(*entry)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        self._seen.clear()

    def _wrap(self, layer: str, label: str, fn):
        """A span around ``fn``.

        The parent is credited with the whole wrapper interval, but the
        span's own self time stops before its bookkeeping, so the
        recorder's overhead lands in no layer's self time.
        """
        recorder = self
        stack = self.stack
        slot = self.totals[layer]
        spans = self.spans
        keep = self.keep_spans

        def span(*args, **kwargs):
            frame = [next(recorder._ids), perf_counter_ns(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                slot[0] += 1
                slot[1] += end - frame[1] - frame[2]
                if len(spans) < keep:
                    spans.append(
                        (
                            frame[0],
                            stack[-1][0] if stack else 0,
                            label,
                            frame[1],
                            end,
                            recorder.call_id,
                        )
                    )
                if stack:
                    stack[-1][2] += perf_counter_ns() - frame[1]

        span.__wrapped__ = fn
        return span

    def snapshot(self) -> dict:
        return {layer: list(slot) for layer, slot in self.totals.items()}


# ----------------------------------------------------------------------
# deterministic counts
# ----------------------------------------------------------------------

COUNT_LAYERS = TIMED_LAYERS + ("clock", "client")


def count_pass(world, ops) -> dict:
    """Python calls by layer and program counters over ``ops``.

    Calls made by the benchmark's own files are not counted; program
    code the benchmark calls directly (deadline and idempotency context
    managers, say) counts as ``client``.
    """
    layer_of = {}
    for layer, owner, name in static_entries() + module_entries(world.modules):
        layer_of[_function(owner, name).__code__] = layer
    clock_codes = {
        SimClock.charge.__code__,
        SimClock.charge_bytes.__code__,
        SimClock.advance.__code__,
    }
    for code in clock_codes:
        layer_of[code] = "clock"
    alloc = MarshalBuffer.__init__.__code__
    release = MarshalBuffer.release.__code__
    call_raw = ProcFabric.call_raw.__code__

    calls = dict.fromkeys(COUNT_LAYERS, 0)
    entries = dict.fromkeys(COUNT_LAYERS, 0)
    tallies = {"buffer_allocs": 0, "buffer_bytes": 0, "procfabric_bytes": 0}
    stack: list[tuple] = []
    bench_codes: dict = {}

    def is_bench(code) -> bool:
        hit = bench_codes.get(code)
        if hit is None:
            hit = bench_codes[code] = code.co_filename.startswith(_BENCH_DIR)
        return hit

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            top = stack[-1][1] if stack else "client"
            if top == OPAQUE:
                return
            if code is alloc:
                tallies["buffer_allocs"] += 1
            elif code is release:
                tallies["buffer_bytes"] += frame.f_locals["self"].size
            elif code is call_raw:
                tallies["procfabric_bytes"] += len(frame.f_locals["payload"])
            layer = layer_of.get(code)
            if layer is not None:
                stack.append((frame, layer))
                entries[layer] += 1
                calls[layer] += 1
            elif not is_bench(code):
                calls[top] += 1
        elif event == "return" and stack and stack[-1][0] is frame:
            stack.pop()
            if frame.f_code is call_raw and arg is not None:
                tallies["procfabric_bytes"] += len(arg)

    kernel = world.kernel
    clock = kernel.clock
    pool_before = _pool_counts(world)
    doors_before = _door_translations(world)
    carried_before = _carries(world)
    counters_before = world.counters()
    tally_before = clock.tally()
    start_us = clock.now_us
    call = world.call
    for op in ops:
        sys.setprofile(profile)
        try:
            call(op)
        finally:
            sys.setprofile(None)
        if stack:
            raise RuntimeError(f"layer stack not empty after op {op!r}")
    tally = clock.tally()
    counters = world.counters()
    return {
        "ops": len(ops),
        "py_calls": calls,
        "entries": entries,
        "tallies": tallies,
        "buffer_acquires": _pool_counts(world)[0] - pool_before[0],
        "buffer_releases": _pool_counts(world)[1] - pool_before[1],
        "sim_us": clock.now_us - start_us,
        "sim_us_by_category": {
            key: tally.get(key, 0.0) - tally_before.get(key, 0.0)
            for key in sorted(tally)
            if tally.get(key, 0.0) != tally_before.get(key, 0.0)
        },
        "fabric_carries": _carries(world) - carried_before,
        "door_translations": _door_translations(world) - doors_before,
        "counters": {
            key: counters[key] - counters_before.get(key, 0) for key in counters
        },
    }


def _pool_counts(world) -> tuple[int, int]:
    domains = world.kernel.domains.values()
    return (
        sum(d.buffer_acquires for d in domains),
        sum(d.buffer_releases for d in domains),
    )


def _carries(world) -> int:
    return world.env.fabric.calls_carried


def _door_translations(world) -> int:
    return sum(
        machine.net_server.doors_exported + machine.net_server.doors_imported
        for machine in world.env.fabric.machines.values()
    )
