"""The tracer: spans, causal context, and the no-op disabled mode.

One :class:`Tracer` serves one kernel (``kernel.tracer``); every kernel
boots with the preallocated :data:`NULL_TRACER`, whose class-level
``enabled = False`` is the *only* thing hot paths ever read from it.

Span model
----------

A span is one timed unit of work, in one domain, with a name and a
category describing which layer did the work::

    invoke     client stub -> subcontract (remote_call / fused stub)
    door       kernel door traversal (door_call)
    fabric     cross-machine forwarding (NetworkFabric.carry)
    netserver  door-identifier translation at a machine boundary
    handler    server-side door delivery (_deliver / rawnet receive)
    skeleton   server subcontract -> server stubs dispatch

Causality is carried two ways:

* **within a call chain on one thread** — a per-thread span stack; a new
  span's parent is the stack top, which is how a nested ``remote_call``
  made from inside a server-side handler joins its caller's trace;
* **across the transmission boundary** — the kernel's traced door leg
  stamps ``(trace_id, span_id)`` into the communication buffer's
  out-of-band ``trace_ctx`` slot (the same out-of-band channel the door
  vector uses), and the delivery leg starts the handler span from that
  context alone.  Domain isolation holds: no Python object crosses, only
  the two integers, and the rawnet subcontract proves the point by
  carrying the same pair in-band in its packet headers
  (:meth:`~repro.marshal.codec.Encoder.put_trace_ctx`).

Timestamps are simulated microseconds from the kernel's ``SimClock``;
wall-clock deltas (``time.perf_counter``) ride along so real-hardware
profiles can be read off the same spans.  While tracing is enabled the
tracer charges its own probe cost to the clock (``trace_span`` per span,
``trace_event`` per event) so traced sim-time is honest about the
instrumentation; disabled runs charge nothing and stay bit-for-bit
identical to an untraced tree.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import (
    BYTES_BUCKETS,
    LATENCY_BUCKETS_US,
    RETRY_BUCKETS,
    MetricsRegistry,
)
from repro.obs.ring import DEFAULT_RING_CAPACITY, TraceRing

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.kernel.nucleus import Kernel

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "install_tracer"]


class _SpanStack(threading.local):
    """Per-thread stack of open spans, created on a thread's first touch."""

    def __init__(self) -> None:
        self.stack: list[Span] = []


#: ``Span.events`` until the first event: most spans never get one, so
#: they share this empty tuple instead of allocating a list each
_NO_EVENTS: tuple = ()


class Span:
    """One timed unit of work; also a context manager (records errors).

    Opening a span (``Tracer.begin_*``) charges its ``trace_span`` probe,
    stamps the start times and pushes it on the thread's stack; ending
    it stamps the end times, pops it and records it (ring, then windows,
    then invoke metrics).  Both legs stay a fixed handful of calls:
    ``attrs`` adopts the caller's keyword dict, ``events`` is allocated
    on the first event, and metric handles are cached per scope.
    """

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "category",
        "subcontract",
        "domain_name",
        "machine_name",
        "start_sim_us",
        "end_sim_us",
        "start_wall_s",
        "end_wall_s",
        "status",
        "error_type",
        "error_message",
        "events",
        "attrs",
        "seq",
        "_ring",
        "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        domain: "Domain",
        name: str,
        category: str,
        attrs: dict,
        ctx: "tuple[int, int] | None" = None,
        subcontract: str | None = None,
    ) -> None:
        # Parent: the wire context when given, else the thread's
        # current span, else none (a fresh trace).
        stack = tracer._local.stack
        if ctx is not None:
            trace_id, parent_id = ctx
        elif stack:
            top = stack[-1]
            trace_id, parent_id = top.trace_id, top.span_id
        else:
            trace_id, parent_id = next(tracer._trace_ids), 0
        clock = tracer.clock
        clock.charge(_EV_TRACE_SPAN)
        ring = domain._trace_ring
        if ring is None or ring.owner is not tracer:
            ring = tracer._ring_for(domain)
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = next(tracer._span_ids)
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.subcontract = subcontract
        self.domain_name = domain.name
        machine = domain.machine
        self.machine_name = machine.name if machine is not None else ""
        self.start_sim_us = clock.now_us
        self.end_sim_us = 0.0
        self.start_wall_s = time.perf_counter()  # springlint: disable=clock-discipline -- spans record real wall-clock deltas alongside simulated time by design
        self.end_wall_s = 0.0
        self.status = "ok"
        self.error_type: str | None = None
        self.error_message: str | None = None
        self.events: list[dict] | tuple = _NO_EVENTS
        self.attrs: dict[str, Any] = attrs
        self.seq = -1
        self._ring = ring
        self._ended = False
        stack.append(self)

    # -- annotation ----------------------------------------------------

    @property
    def ctx(self) -> tuple[int, int]:
        """The wire form of this span: ``(trace_id, span_id)``."""
        return (self.trace_id, self.span_id)

    @property
    def duration_us(self) -> float:
        return self.end_sim_us - self.start_sim_us

    @property
    def wall_us(self) -> float:
        return (self.end_wall_s - self.start_wall_s) * 1e6

    def annotate(self, **attrs: Any) -> None:
        """Attach key/value attributes to this span."""
        self.attrs.update(attrs)

    def event(self, name: str, **detail: Any) -> None:
        """Record a point-in-time event on this span."""
        clock = self.tracer.clock
        clock.charge(_EV_TRACE_EVENT)
        evt = {"name": name, "ts_us": clock.now_us}
        if detail:
            evt.update(detail)
        if self.events:
            self.events.append(evt)
        else:
            self.events = [evt]

    def record_error(self, exc: BaseException) -> None:
        """Mark this span failed; called once per failing span."""
        self.status = "error"
        self.error_type = type(exc).__name__
        self.error_message = str(exc)

    # -- completion ----------------------------------------------------

    def end(self, exc_type: Any = None, exc: Any = None, tb: Any = None) -> None:
        """Finish the span: stamp end times, pop the stack, record it.

        Also the span's ``__exit__``: an exception leaving the ``with``
        block is recorded first, even on a span already ended inside
        it.  Idempotent — a second ``end`` is a no-op.
        """
        if exc is not None:
            self.record_error(exc)
        if self._ended:
            return
        self._ended = True
        tracer = self.tracer
        clock = tracer.clock
        self.end_sim_us = clock.now_us
        self.end_wall_s = time.perf_counter()  # springlint: disable=clock-discipline -- spans record real wall-clock deltas alongside simulated time by design
        stack = tracer._local.stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # out-of-order end: remove without disturbing others
            try:
                stack.remove(self)
            except ValueError:
                pass
        self._ring.record(self)
        windows = tracer.windows
        if windows is not None:
            clock.charge(_EV_WINDOW_PROBE)
            windows.record_span(self)
        if self.category == "invoke":
            tracer._fold_invoke(self)

    def __enter__(self) -> "Span":
        return self

    __exit__ = end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.trace_id}/{self.span_id} {self.category}:{self.name!r}"
            f" parent={self.parent_id} {self.status}>"
        )


#: precomputed charge-site names (clock-discipline: no hot-path formatting)
_EV_TRACE_SPAN = "trace_span"
_EV_TRACE_EVENT = "trace_event"
_EV_WINDOW_PROBE = "window_probe"


class Tracer:
    """Live tracer for one kernel: spans, per-domain rings, metrics."""

    #: hot paths read only this; NullTracer's False makes them no-ops
    enabled = True

    def __init__(
        self, kernel: "Kernel", ring_capacity: int = DEFAULT_RING_CAPACITY
    ) -> None:
        self.kernel = kernel
        self.clock = kernel.clock
        self.ring_capacity = ring_capacity
        self.metrics = MetricsRegistry()
        #: optional WindowedSeries (repro.obs.windows.install_windows);
        #: None keeps the windowed feed at one attr read per span/event
        self.windows = None
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._local = _SpanStack()
        self._rings: list[TraceRing] = []
        self._ring_lock = threading.Lock()
        #: invoke scope -> metric name -> handle (see _fold_invoke)
        self._invoke_metrics: dict[str, dict[str, Any]] = {}

    # -- plumbing ------------------------------------------------------

    def _ring_for(self, domain: "Domain") -> TraceRing:
        ring = domain._trace_ring
        if ring is not None and ring.owner is self:
            return ring
        with self._ring_lock:
            ring = domain._trace_ring
            if ring is None or ring.owner is not self:
                ring = TraceRing(self.ring_capacity, owner=self, domain_name=domain.name)
                domain._trace_ring = ring
                self._rings.append(ring)
            return ring

    def _fold_invoke(self, span: Span) -> None:
        """Fold one finished invoke span into the cumulative metrics.

        Metric handles are cached per scope, each fetched from the
        registry on first need, so the registry holds exactly the series
        a fresh lookup per span would have made.
        """
        scope = span.subcontract or "unknown"
        metrics = self.metrics
        handles = self._invoke_metrics.get(scope)
        if handles is None:
            handles = self._invoke_metrics[scope] = {
                "invocations": metrics.counter(scope, "invocations"),
                "invoke_sim_us": metrics.histogram(
                    scope, "invoke_sim_us", LATENCY_BUCKETS_US
                ),
            }
        handles["invocations"].value += 1
        if span.status != "ok":
            errors = handles.get("errors")
            if errors is None:
                errors = handles["errors"] = metrics.counter(scope, "errors")
            errors.value += 1
        handles["invoke_sim_us"].observe(span.end_sim_us - span.start_sim_us)
        attrs = span.attrs
        request_bytes = attrs.get("request_bytes")
        if request_bytes is not None:
            histogram = handles.get("request_bytes")
            if histogram is None:
                histogram = handles["request_bytes"] = metrics.histogram(
                    scope, "request_bytes", BYTES_BUCKETS
                )
            histogram.observe(request_bytes)
        reply_bytes = attrs.get("reply_bytes")
        if reply_bytes is not None:
            histogram = handles.get("reply_bytes")
            if histogram is None:
                histogram = handles["reply_bytes"] = metrics.histogram(
                    scope, "reply_bytes", BYTES_BUCKETS
                )
            histogram.observe(reply_bytes)
        retries = attrs.get("retries")
        if retries is not None:
            histogram = handles.get("retries")
            if histogram is None:
                histogram = handles["retries"] = metrics.histogram(
                    scope, "retries", RETRY_BUCKETS
                )
            histogram.observe(retries)

    # -- span creation -------------------------------------------------

    def begin_span(
        self, domain: "Domain", name: str, category: str = "span", **attrs: Any
    ) -> Span:
        """Open a span; its parent is the calling thread's current span."""
        return Span(self, domain, name, category, attrs)

    def begin_invoke(
        self, domain: "Domain", op: str, subcontract_id: str, **attrs: Any
    ) -> Span:
        """Open the client-side invocation span for one operation."""
        return Span(self, domain, op, "invoke", attrs, subcontract=subcontract_id)

    def begin_handler(
        self,
        domain: "Domain",
        name: str,
        ctx: "tuple[int, int] | None",
        **attrs: Any,
    ) -> Span:
        """Open a server-side span parented ONLY by the wire context.

        ``ctx`` is the ``(trace_id, parent span_id)`` pair recovered from
        the transmission (buffer ``trace_ctx`` slot, or a rawnet packet
        header); the thread stack is deliberately not consulted, so the
        causal link is exactly what crossed the wire.
        """
        if ctx is None:
            ctx = (next(self._trace_ids), 0)
        return Span(self, domain, name, "handler", attrs, ctx)

    # -- current-span conveniences (safe no-ops with no span open) -----

    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = self._local.stack
        return stack[-1] if stack else None

    def current_ctx(self) -> tuple[int, int] | None:
        """Wire context of the current span, for in-band transports."""
        stack = self._local.stack
        return stack[-1].ctx if stack else None

    def event(self, name: str, subcontract: str | None = None, **detail: Any) -> None:
        """Annotate the current span with a point event and count it.

        This is the one call subcontracts make at their routing decisions;
        with no span open (untraced entry point) the event is dropped,
        but the per-subcontract counter still ticks.
        """
        if subcontract is not None:
            self.metrics.counter(subcontract, "events:" + name).inc()  # springlint: disable=metrics-naming -- generic relay: the literal name is at the caller's emit site
        windows = self.windows
        if windows is not None:
            clock = self.clock
            clock.charge(_EV_WINDOW_PROBE)
            windows.record_event(name, subcontract, detail, clock.now_us)
        stack = self._local.stack
        if stack:
            stack[-1].event(name, **detail)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the current span, if one is open."""
        stack = self._local.stack
        if stack:
            stack[-1].attrs.update(attrs)

    # -- collection ----------------------------------------------------

    def rings(self) -> list[TraceRing]:
        with self._ring_lock:
            return list(self._rings)

    def spans(self) -> list[Span]:
        """All retained spans across every domain ring, in id order."""
        out: list[Span] = []
        for ring in self.rings():
            out.extend(ring.spans())
        out.sort(key=lambda s: (s.trace_id, s.span_id))
        return out

    def dropped(self) -> int:
        """Total spans lost to ring wraparound across all domains."""
        return sum(ring.dropped for ring in self.rings())


class NullTracer:
    """The preinstalled disabled tracer: one attribute, all no-ops.

    Hot paths check ``kernel.tracer.enabled`` and never call further; the
    method surface exists only so cold paths and tests may call through
    unconditionally.
    """

    enabled = False
    metrics = None
    windows = None

    def begin_span(self, *args: Any, **kwargs: Any) -> "_NullSpan":
        return _NULL_SPAN

    def begin_invoke(self, *args: Any, **kwargs: Any) -> "_NullSpan":
        return _NULL_SPAN

    def begin_handler(self, *args: Any, **kwargs: Any) -> "_NullSpan":
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def current_ctx(self) -> None:
        return None

    def event(self, *args: Any, **kwargs: Any) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None

    def spans(self) -> list:
        return []

    def dropped(self) -> int:
        return 0


class _NullSpan:
    """Inert span returned by :class:`NullTracer`."""

    __slots__ = ()

    status = "ok"

    def annotate(self, **attrs: Any) -> None:
        return None

    def event(self, name: str, **detail: Any) -> None:
        return None

    def record_error(self, exc: BaseException) -> None:
        return None

    def end(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: the process-wide disabled tracer every kernel boots with
NULL_TRACER = NullTracer()


def install_tracer(
    kernel: "Kernel", ring_capacity: int = DEFAULT_RING_CAPACITY
) -> Tracer:
    """Create a :class:`Tracer` and install it on ``kernel``."""
    tracer = Tracer(kernel, ring_capacity=ring_capacity)
    kernel.tracer = tracer
    return tracer
