"""Deterministic per-span cost gate for the enabled tracer.

Counts the Python function calls (``sys.setprofile`` "call" events) of
one general-stub call across machines with the tracer and windows
installed, and pins the count exactly.  The count depends only on the
code path, so it moves exactly when the traced path gains or loses a
call; a change that moves it must say why and re-pin it.

The same call untraced is counted too: the difference, spread over the
call's spans, is the tracer's per-span budget (docs/observability.md,
"Cost contract").
"""

from __future__ import annotations

import sys

from repro.obs.tracer import NULL_TRACER
from tests.obs.conftest import build_counter_world

#: Python calls in one traced general-stub call (tracer + windows)
TRACED_CALLS = 206
#: Python calls in the same call with tracing off
UNTRACED_CALLS = 99
#: spans the traced call records
SPANS = 9


def _count_calls(fn) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _traced_world(counter_module):
    env, client, server, remote = build_counter_world(counter_module)
    tracer = env.install_tracer()
    env.install_windows(window_us=1_000_000.0, retention=4)
    # Warm up: rings, metric handles and window keys are made once.
    for _ in range(3):
        remote.add(1)
    return env, tracer, remote


def test_traced_general_call_cost_is_pinned(counter_module):
    env, tracer, remote = _traced_world(counter_module)
    before = len(tracer.spans())
    calls = _count_calls(lambda: remote.add(1))
    assert len(tracer.spans()) - before == SPANS
    assert calls == TRACED_CALLS, (
        f"a traced general-stub call made {calls} Python calls, pinned at "
        f"{TRACED_CALLS}; re-pin only for an intended change to the traced path"
    )


def test_untraced_general_call_cost_is_pinned(counter_module):
    env, tracer, remote = _traced_world(counter_module)
    env.kernel.tracer = NULL_TRACER
    assert _count_calls(lambda: remote.add(1)) == UNTRACED_CALLS


def test_count_is_deterministic(counter_module):
    counts = set()
    for _ in range(2):
        env, tracer, remote = _traced_world(counter_module)
        counts.add(_count_calls(lambda: remote.add(1)))
    assert len(counts) == 1
