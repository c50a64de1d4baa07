"""Golden trace pin: the enabled tracer's observable output, to the byte.

A small seeded world runs a few hundred calls with every per-call plane
installed (tracer with a small ring, windows, admission, chaos,
deadlines, idempotency keys) across local, cross-machine, fused,
cluster, reconnectable and replicon targets.  The test pins sha256
digests of

* the span JSONL records, minus the wall-clock ``wall_us`` field,
* ``tracer.metrics.snapshot()``,
* ``windows.snapshot()`` (plus ``tracer.dropped()``),
* ``clock.tally()``.

Any change to how spans are opened, parented, annotated, recorded or
folded into metrics and windows — or to any sim-clock charge on the
traced path — moves a digest.  A change that is meant to move one must
say so and re-pin it.

Door, identifier and domain uids come from process-wide counters, so
each run restarts them (and puts the originals back afterwards); the
output is then hashed exactly as produced.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from repro import Environment, compile_idl, narrow
from repro.idl.specialize import specialize
from repro.kernel import doors as doors_module
from repro.kernel import domain as domain_module
from repro.kernel.errors import CommunicationError
from repro.obs.export import span_record
from repro.runtime.admission import AdmissionPolicy
from repro.runtime.deadline import deadline
from repro.runtime.idem import idempotency_key, next_idempotency_key
from repro.subcontracts.cluster import ClusterServer
from repro.subcontracts.reconnectable import ReconnectableServer
from repro.subcontracts.replicon import RepliconGroup
from repro.subcontracts.singleton import SingletonServer
from tests.conftest import COUNTER_IDL, CounterImpl

SEED = 7
CALLS = 300
TARGETS = ("local", "remote", "fused", "cluster", "reconnectable", "replicon")

#: digests of the parent tree's output; see the module docstring
GOLDEN = {
    "spans": "239c0edb03264b960cc6ea75c5c0b583db23d8d61cec69b82bad4a25bb5c343a",
    "metrics": "2243b64a52a2a416986b80fb834bd3aa89f62c3c02d6589bc144070d6f544c10",
    "windows": "66f92a192fc6e822a338d297e8d97be7d59ca8bdb5de2abc17db23c105d6ff09",
    "tally": "d35bf4cf4d883747fe02c8af9d50a618fd34449ed430cf33896f8d059f8d9e84",
}


class _SharedCell:
    """Replicon members' common state: one counter cell for all."""

    def __init__(self, cell: list) -> None:
        self.cell = cell

    def add(self, n: int) -> int:
        self.cell[0] += n
        return self.cell[0]

    def total(self) -> int:
        return self.cell[0]

    def reset(self) -> None:
        self.cell[0] = 0


@pytest.fixture
def fresh_uids(monkeypatch):
    """Each run numbers its doors, identifiers and domains from 1."""

    def restart() -> None:
        monkeypatch.setattr(doors_module, "_door_uids", itertools.count(1))
        monkeypatch.setattr(doors_module, "_ident_uids", itertools.count(1))
        monkeypatch.setattr(domain_module, "_domain_uids", itertools.count(1))

    return restart


def _run_world(restart) -> dict:
    restart()
    env = Environment(seed=SEED)
    module = compile_idl(COUNTER_IDL, module_name="golden_trace.counter")
    fused = compile_idl(COUNTER_IDL, module_name="golden_trace.fused")
    specialize(fused, "counter", "singleton")
    binding = module.binding("counter")

    client = env.create_domain("desk", "client")
    local = env.create_domain("desk", "local-server")
    alpha = env.create_domain("alpha", "alpha-server")
    beta = env.create_domain("beta", "beta-server")
    servers = [local, alpha, beta]
    env.bind(local, "/g/local", SingletonServer(local).export(CounterImpl(), binding))
    alpha_server = SingletonServer(alpha)
    env.bind(alpha, "/g/remote", alpha_server.export(CounterImpl(), binding))
    env.bind(
        alpha,
        "/g/fused",
        alpha_server.export(CounterImpl(), fused.binding("counter")),
    )
    env.bind(beta, "/g/cluster", ClusterServer(beta).export(CounterImpl(), binding))
    ReconnectableServer(beta).export(CounterImpl(), binding, name="/g/reconnectable")
    group = RepliconGroup(binding)
    cell = [0]
    for machine in ("alpha", "beta", "gamma"):
        replica = env.create_domain(machine, f"replica-{machine}")
        group.add_replica(replica, _SharedCell(cell))
        servers.append(replica)
    env.bind(servers[-3], "/g/replicon", group.make_object(servers[-3]))

    def resolve(name: str):
        target = fused if name == "fused" else module
        return narrow(env.resolve(client, f"/g/{name}"), target.binding("counter"))

    targets = [resolve(name) for name in TARGETS]

    kernel = env.kernel
    tracer = env.install_tracer(ring_capacity=512)
    windows = env.install_windows(window_us=20_000.0, retention=16)
    admission = env.install_admission(seed=SEED)
    for domain in servers:
        admission.govern_domain(domain, AdmissionPolicy(limit=4, queue_limit=8))
    chaos = env.install_chaos(seed=SEED)
    chaos.door_fault_rate = 0.02
    chaos.default_link.carry_drop = 0.02

    rng = random.Random(SEED)
    outcomes = []
    for _ in range(CALLS):
        index = rng.randrange(len(TARGETS))
        n = rng.randint(1, 9) if rng.random() < 0.5 else 0
        key = next_idempotency_key(kernel) if n else None
        tight = rng.random() < 0.1
        for attempt in range(8):
            # A tight first budget misses on cross-machine targets.
            budget = 2_000.0 if tight and attempt == 0 else 200_000.0
            try:
                with deadline(kernel, budget):
                    if key is None:
                        outcomes.append(targets[index].total())
                    else:
                        with idempotency_key(kernel, key):
                            outcomes.append(targets[index].add(n))
                break
            except CommunicationError as failure:
                outcomes.append(type(failure).__name__)
                if TARGETS[index] == "replicon":
                    try:
                        targets[index] = resolve("replicon")
                    except CommunicationError:
                        pass
    return {
        "tracer": tracer,
        "windows": windows,
        "tally": kernel.clock.tally(),
        "outcomes": outcomes,
    }


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _span_records(spans) -> list[dict]:
    records = []
    for span in spans:
        record = span_record(span)
        del record["wall_us"]
        records.append(record)
    return records


def _digests(run: dict) -> dict:
    tracer = run["tracer"]
    return {
        "spans": _digest(_span_records(tracer.spans())),
        "metrics": _digest(tracer.metrics.snapshot()),
        "windows": _digest([run["windows"].snapshot(), tracer.dropped()]),
        "tally": _digest(run["tally"]),
    }


def test_world_exercises_every_plane(fresh_uids):
    run = _run_world(fresh_uids)
    tracer = run["tracer"]
    categories = {span.category for span in tracer.spans()}
    assert categories >= {"invoke", "door", "fabric", "netserver", "handler", "skeleton"}
    assert tracer.dropped() > 0, "the small ring should wrap"
    failures = {o for o in run["outcomes"] if isinstance(o, str)}
    assert failures >= {"InjectedFault", "DeadlineExceeded"}
    assert any(span.events for span in tracer.spans())


def test_replays_identically(fresh_uids):
    assert _digests(_run_world(fresh_uids)) == _digests(_run_world(fresh_uids))


def test_golden_digests(fresh_uids):
    assert _digests(_run_world(fresh_uids)) == GOLDEN
