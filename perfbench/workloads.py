"""Workload generators and the worlds they run against.

Each workload has a generator that turns a seed into a plain op list,
and a world class whose constructor stands a Spring world up through the
public API and whose ``call(op)`` performs one operation and checks its
result against a client-side model.  The program never sees the seed,
only the generated ops.

Workloads (all closed loop: one calling thread, the next call waits for
the previous reply):

``hotpath``  small ``counter`` calls against six targets, no plane.
``files``    the paper's file service through a desk cache manager.
``planes``   the ``hotpath`` ops with tracer, windows, admission,
             chaos, deadlines and idempotency keys installed.
``proc``     ``blob_store.roundtrip`` over the process fabric.  Not in
             ``BENCHMARK.json``: on a shared two-core host its wall
             figures (p99 above all) spread far beyond any bound a later
             change could be judged by, so it is run by hand only.
"""

from __future__ import annotations

import itertools
import json
import random

from repro import Environment, compile_idl, narrow
from repro.idl.specialize import specialize
from repro.kernel.errors import CommunicationError
from repro.runtime.admission import AdmissionPolicy
from repro.runtime.deadline import deadline
from repro.runtime.idem import idempotency_key, next_idempotency_key
from repro.services.fs import FileImpl, FileServer, fs_module
from repro.subcontracts.cluster import ClusterServer
from repro.subcontracts.reconnectable import ReconnectableServer
from repro.subcontracts.replicon import RepliconGroup
from repro.subcontracts.singleton import SingletonServer

COUNTER_IDL = """
interface counter {
    int32 add(int32 n);
    int32 total();
}
"""

BLOB_IDL = """
interface blob_store {
    bytes roundtrip(bytes data);
}
"""

#: read-only window into a process-fabric worker's layer tallies
PROBE_IDL = """
interface layer_probe {
    string snapshot();
    void reset();
}
"""

_module_names = itertools.count()


class CheckError(Exception):
    """A result, or a post-run invariant, disagreed with the model."""


def _module(idl: str, stem: str):
    # Fresh module per world: a world's stubs and skeletons are its own.
    return compile_idl(idl, module_name=f"perfbench.{stem}{next(_module_names)}")


def _log_size(rng: random.Random, low: int, high: int) -> int:
    """A size spread evenly in log space over [low, high]."""
    return int(low * (high / low) ** rng.random())


# ----------------------------------------------------------------------
# server implementations
# ----------------------------------------------------------------------


class CounterImpl:
    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int) -> int:
        self.value += n
        return self.value

    def total(self) -> int:
        return self.value


class ReplicaCounterImpl:
    """One replicon member; all members share one synchronized cell."""

    def __init__(self, cell: list) -> None:
        self.cell = cell

    def add(self, n: int) -> int:
        self.cell[0] += n
        return self.cell[0]

    def total(self) -> int:
        return self.cell[0]


class BlobImpl:
    def roundtrip(self, data: bytes) -> bytes:
        return data


class ProbeImpl:
    """Serves a worker's recorder snapshot (traced runs only)."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder

    def snapshot(self) -> str:
        return json.dumps(self.recorder.snapshot() if self.recorder else {})

    def reset(self) -> None:
        if self.recorder is not None:
            self.recorder.reset()


#: implementation classes whose methods are the ``impl`` layer
IMPL_CLASSES = (CounterImpl, ReplicaCounterImpl, BlobImpl, FileImpl)


# ----------------------------------------------------------------------
# client-side models
# ----------------------------------------------------------------------


class CounterModel:
    """What one counter object may hold, as far as its client knows.

    ``known`` is the last value a reply confirmed; ``slack`` bounds the
    adds that may have landed without a confirming reply (a failed call
    whose request was consumed).  ``dup`` is how many extra executions
    one successful add may hide (a replicon member that ran the call
    but lost the reply before failover re-ran it on a sibling).
    """

    def __init__(self, name: str, dup: int = 0) -> None:
        self.name = name
        self.dup = dup
        self.known = 0
        self.slack = 0

    def added(self, n: int, value: int) -> None:
        low = self.known + n
        high = low + self.slack + n * self.dup
        if not low <= value <= high:
            raise CheckError(
                f"{self.name}: add({n}) returned {value}, model allows "
                f"[{low}, {high}]"
            )
        self.known, self.slack = value, 0

    def totalled(self, value: int) -> None:
        high = self.known + self.slack
        if not self.known <= value <= high:
            raise CheckError(
                f"{self.name}: total() returned {value}, model allows "
                f"[{self.known}, {high}]"
            )
        self.known, self.slack = value, 0

    def lost(self, n: int) -> None:
        self.slack += n * (1 + self.dup)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

HOTPATH_TARGETS = ("local", "remote", "fused", "cluster", "replicon", "reconnectable")
HOTPATH_OPS = 20_000


def generate_counter_ops(seed: int) -> list[tuple[int, int]]:
    """(target index, n): n == 0 is ``total()``, else ``add(n)``."""
    rng = random.Random(seed)
    ops = []
    for _ in range(HOTPATH_OPS):
        target = rng.randrange(len(HOTPATH_TARGETS))
        n = rng.randint(1, 9) if rng.random() < 0.5 else 0
        ops.append((target, n))
    return ops


FILE_KINDS = 3  # file i is cacheable, plain or replicated by i % 3
FILE_COUNT = 3 * FILE_KINDS
SIZE_BANDS = 16
FILE_BYTES = 96 * 1024
READ_TRIPLES = 96
FILE_OPS = 8_000
POOL_BYTES = 128 * 1024


def generate_file_ops(seed: int) -> dict:
    """~80% Zipf-skewed reads over bounded triples, ~20% writes.

    Ops are ("r", triple index) or ("w", file, offset, size, pool offset);
    sizes are log-spread from 64 B to 64 KiB.  ``pool`` is the byte
    source written data is sliced from, and ``files`` the initial
    contents.
    """
    rng = random.Random(seed)
    triples = []
    for rank in range(READ_TRIPLES):
        # Rank r reads from size band r % SIZE_BANDS, so every seed's hot
        # head spans the whole size range (the bytes mix barely moves
        # with the seed) while the sizes inside each band are random.
        band = rank % SIZE_BANDS
        low = 64 * 1024 ** (band / SIZE_BANDS)
        count = _log_size(rng, int(low), int(low * 1024 ** (1 / SIZE_BANDS)))
        file = FILE_KINDS * rng.randrange(FILE_COUNT // FILE_KINDS) + rank % FILE_KINDS
        triples.append((file, rng.randrange(FILE_BYTES - count + 1), count))
    # Zipf(1.1) over triple rank: a hot head the cache can hold.
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(READ_TRIPLES)]
    cumulative = list(itertools.accumulate(weights))
    ops = []
    for _ in range(FILE_OPS):
        if rng.random() < 0.8:
            (index,) = rng.choices(range(READ_TRIPLES), cum_weights=cumulative)
            ops.append(("r", index))
        else:
            size = _log_size(rng, 64, 64 * 1024)
            ops.append(
                (
                    "w",
                    rng.randrange(FILE_COUNT),
                    rng.randrange(FILE_BYTES - size + 1),
                    size,
                    rng.randrange(POOL_BYTES - size + 1),
                )
            )
    return {
        "ops": ops,
        "triples": triples,
        "pool": rng.randbytes(POOL_BYTES),
        "files": [rng.randbytes(FILE_BYTES) for _ in range(FILE_COUNT)],
    }


PROC_WORKERS = 2
PROC_OPS = 8_000


def generate_blob_ops(seed: int) -> dict:
    """(worker, size, pool offset), sizes log-spread 16 B .. 16 KiB."""
    rng = random.Random(seed)
    ops = []
    for _ in range(PROC_OPS):
        size = _log_size(rng, 16, 16 * 1024)
        ops.append(
            (rng.randrange(PROC_WORKERS), size, rng.randrange(POOL_BYTES - size + 1))
        )
    return {"ops": ops, "pool": rng.randbytes(POOL_BYTES)}


# ----------------------------------------------------------------------
# worlds
# ----------------------------------------------------------------------


class World:
    """A built world plus the operations the benchmark drives through it."""

    env: Environment

    def __init__(self, inputs, seed: int, recorder=None) -> None:
        self.ops = inputs["ops"] if isinstance(inputs, dict) else inputs
        self.recorder = recorder
        #: (module, interface names) pairs whose stubs/skeletons are layers
        self.modules = []
        #: failed call attempts (only ``planes`` tolerates any)
        self.failed_attempts = 0
        self.attempts = 0

    def compiled(self, module, *interfaces: str):
        """Register a compiled module; instrument it before servers start."""
        self.modules.append((module, interfaces))
        if self.recorder is not None:
            self.recorder.patch_module(module, interfaces)
        return module

    @property
    def kernel(self):
        return self.env.kernel

    def first_call(self) -> None:
        self.call(self.ops[0])

    def close(self) -> None:
        """Stop anything the world started (processes, threads)."""

    def counters(self) -> dict:
        """Program-side counters for the per-layer report."""
        return {}

    def reset_workers(self) -> None:
        """Zero the layer tallies kept in other processes (none here)."""

    def worker_layers(self) -> list[dict]:
        """Layer tallies kept in other processes (none here)."""
        return []

    def transit_refs(self) -> int:
        """Door references held by in-transit messages, not identifiers."""
        kernel = self.kernel
        held = sum(door.refcount for door in kernel.doors.values())
        return held - sum(len(d.door_ids) for d in kernel.domains.values())

    def invariants(self, clock_start_us: float, transit_start: int) -> None:
        """Post-run conservation checks (raise :class:`CheckError`)."""
        for domain in self.kernel.domains.values():
            if domain.buffer_acquires != domain.buffer_releases:
                raise CheckError(
                    f"domain {domain.name!r} leaked "
                    f"{domain.buffer_acquires - domain.buffer_releases} pooled buffer(s)"
                )
        transit = self.transit_refs()
        if transit != transit_start:
            raise CheckError(
                f"{transit - transit_start} door reference(s) left in transit"
            )
        clock = self.kernel.clock
        spent = clock.now_us - clock_start_us
        tallied = sum(clock.tally().values())
        if abs(spent - tallied) > 1e-6 * max(1.0, spent):
            raise CheckError(
                f"sim clock leaked time: now_us advanced {spent!r} but the "
                f"tally sums to {tallied!r}"
            )


class CounterWorld(World):
    """Six counter targets seen from one client domain (``hotpath``)."""

    def __init__(self, inputs, seed: int, recorder=None) -> None:
        super().__init__(inputs, seed, recorder)
        env = self.env = Environment(seed=seed)
        module = self.compiled(_module(COUNTER_IDL, "counter"), "counter")
        fused = self.compiled(_module(COUNTER_IDL, "fused"), "counter")
        specialize(fused, "counter", "singleton")
        binding = module.binding("counter")

        client = self.client = env.create_domain("desk", "client")
        local = env.create_domain("desk", "local-server")
        alpha = env.create_domain("alpha", "alpha-server")
        beta = env.create_domain("beta", "beta-server")
        self.servers = [local, alpha, beta]

        singleton = {domain: SingletonServer(domain) for domain in (local, alpha)}
        exports = (
            ("local", local, singleton[local].export(CounterImpl(), binding)),
            ("remote", alpha, singleton[alpha].export(CounterImpl(), binding)),
            ("fused", alpha, singleton[alpha].export(
                CounterImpl(), fused.binding("counter"))),
            ("cluster", beta, ClusterServer(beta).export(CounterImpl(), binding)),
        )
        for name, domain, obj in exports:
            env.bind(domain, f"/perfbench/{name}", obj)
        # A reconnectable export binds its own recovery name.
        self.reconnectable = ReconnectableServer(beta)
        self.reconnectable.export(CounterImpl(), binding, name="/perfbench/reconnectable")
        self.group = RepliconGroup(binding)
        cell = [0]
        replicas = []
        for machine in ("alpha", "beta", "gamma"):
            domain = env.create_domain(machine, f"replica-{machine}")
            self.group.add_replica(domain, ReplicaCounterImpl(cell))
            replicas.append(domain)
        self.replicas = replicas
        self.servers.extend(replicas)
        env.bind(replicas[0], "/perfbench/replicon", self.group.make_object(replicas[0]))

        self.bindings = {
            name: (fused if name == "fused" else module).binding("counter")
            for name in HOTPATH_TARGETS
        }
        self.targets = [self.resolve(name) for name in HOTPATH_TARGETS]
        self.models = [CounterModel(name) for name in HOTPATH_TARGETS]

    def resolve(self, name: str):
        return narrow(
            self.env.resolve(self.client, f"/perfbench/{name}"), self.bindings[name]
        )

    def call(self, op) -> int:
        index, n = op
        obj = self.targets[index]
        model = self.models[index]
        if n:
            model.added(n, obj.add(n))
            return 8
        model.totalled(obj.total())
        return 4


class PlanesWorld(CounterWorld):
    """``hotpath``'s world with every per-call plane installed.

    Installed: tracer + windows, admission governing every server
    domain's doors, a seeded fault plane (door faults and carry drops),
    a deadline on every call and idempotency keys on ``add``.  A failed
    attempt must be a :class:`CommunicationError` (which covers
    ``ServerBusyError`` and ``DeadlineExceeded``); the client retries
    the operation under the same idempotency key.
    """

    DEADLINE_US = 200_000.0
    MAX_ATTEMPTS = 16
    DOOR_FAULT_RATE = 0.004
    CARRY_DROP_RATE = 0.004

    def __init__(self, inputs, seed: int, recorder=None) -> None:
        super().__init__(inputs, seed, recorder)
        env = self.env
        self.tracer = env.install_tracer()
        env.install_windows(window_us=50_000.0, retention=64)
        self.admission = env.install_admission(seed=seed)
        for domain in self.servers:
            self.admission.govern_domain(
                domain, AdmissionPolicy(limit=4, queue_limit=8)
            )
        # Chaos goes in last, so naming traffic during the build is clean.
        self.chaos = env.install_chaos(seed=seed)
        self.chaos.door_fault_rate = self.DOOR_FAULT_RATE
        self.chaos.default_link.carry_drop = self.CARRY_DROP_RATE
        # Under failover a replicon add can run on up to every member.
        self.models[HOTPATH_TARGETS.index("replicon")].dup = len(self.replicas) - 1
        #: failure class name -> failed attempts
        self.failures: dict[str, int] = {}
        #: targets whose client copy lost members and must be re-resolved
        self.stale: set[int] = set()

    def call(self, op) -> int:
        index, n = op
        kernel = self.kernel
        key = next_idempotency_key(kernel) if n else None
        for _attempt in range(self.MAX_ATTEMPTS):
            if index in self.stale:
                self._refresh(index)
            self.attempts += 1
            try:
                with deadline(kernel, self.DEADLINE_US):
                    if key is None:
                        return CounterWorld.call(self, op)
                    with idempotency_key(kernel, key):
                        return CounterWorld.call(self, op)
            except CommunicationError as failure:
                self.failed_attempts += 1
                kind = type(failure).__name__
                self.failures[kind] = self.failures.get(kind, 0) + 1
                if n:
                    self.models[index].lost(n)
                if HOTPATH_TARGETS[index] == "replicon":
                    # The client pruned the members it could not reach;
                    # fetch a fresh copy of the object before the retry.
                    self.stale.add(index)
        raise CheckError(f"op {op!r} failed {self.MAX_ATTEMPTS} attempts in a row")

    def _refresh(self, index: int) -> None:
        try:
            self.targets[index] = self.resolve(HOTPATH_TARGETS[index])
        except CommunicationError:
            return  # naming call lost to chaos; try again next attempt
        self.stale.discard(index)

    def counters(self) -> dict:
        memos = [self.reconnectable.dedup]
        memos += [self.group.dedup_memos[d.uid] for d in self.replicas]
        stats = self.admission.stats
        return {
            "tracer.spans": sum(ring.recorded for ring in self.tracer.rings()),
            "tracer.dropped": self.tracer.dropped(),
            "admission.admitted": stats["admitted"],
            "admission.shed": stats["shed"],
            "admission.rejected": stats["rejected"],
            "chaos.injected": self.chaos.total_injected(),
            "idem.dedup_hits": sum(memo.hits for memo in memos),
            "calls.failed_attempts": self.failed_attempts,
            "calls.attempts": self.attempts,
        }


class FilesWorld(World):
    """The file service over the sim fabric, read from a caching desk."""

    def __init__(self, inputs, seed: int, recorder=None) -> None:
        super().__init__(inputs, seed, recorder)
        env = self.env = Environment(seed=seed)
        module = fs_module()
        self.compiled(module, "file", "cacheable_file", "replicated_file")
        env.install_cache_manager("desk")
        self.cache = env.cache_managers[("desk", "default")].impl
        server = env.create_domain("fs-host", "fileserver")
        files = FileServer(server)
        env.bind(server, "/perfbench/fs", files.root.spring_copy())
        replicas = [env.create_domain(m, f"fs-replica-{m}") for m in ("alpha", "beta", "gamma")]
        self.groups = []
        client = self.client = env.create_domain("desk", "user")
        fs = narrow(env.resolve(client, "/perfbench/fs"), module.binding("file_system"))
        self.handles = []
        self.shadows = [bytearray(data) for data in inputs["files"]]
        for index, data in enumerate(inputs["files"]):
            path = f"/data/{index}"
            files.make_file(path, data)
            kind = index % FILE_KINDS
            if kind == 0:
                handle = fs.open_cached(path)
            elif kind == 1:
                handle = fs.open(path)
            else:
                obj = files.export_replicated_file(path, replicas)
                env.bind(replicas[0], f"/perfbench/rfile/{index}", obj)
                handle = narrow(
                    env.resolve(client, f"/perfbench/rfile/{index}"),
                    module.binding("replicated_file"),
                )
            self.handles.append(handle)
        self.triples = inputs["triples"]
        self.pool = inputs["pool"]

    def call(self, op) -> int:
        if op[0] == "r":
            file, offset, count = self.triples[op[1]]
            data = self.handles[file].read(offset, count)
            if data != self.shadows[file][offset : offset + count]:
                raise CheckError(f"read {file}@{offset}+{count} disagrees with shadow")
            return 8 + len(data)
        _, file, offset, size, start = op
        data = self.pool[start : start + size]
        written = self.handles[file].write(offset, data)
        if written != size:
            raise CheckError(f"write {file}@{offset} returned {written}, sent {size}")
        self.shadows[file][offset : offset + size] = data
        return 8 + size

    def counters(self) -> dict:
        return {"cache.hits": self.cache.hit_count, "cache.misses": self.cache.miss_count}


class ProcWorld(World):
    """``blob_store`` echo over real worker processes."""

    def __init__(self, inputs, seed: int, recorder=None) -> None:
        super().__init__(inputs, seed, recorder)
        env = self.env = Environment(seed=seed, transport="proc")
        module = self.compiled(_module(BLOB_IDL, "blob"), "blob_store")
        probe_module = _module(PROBE_IDL, "probe")
        blob = module.binding("blob_store")
        probe = probe_module.binding("layer_probe")

        def bootstrap(worker_env, index):
            # Runs in the forked worker; the recorder was inherited.
            if recorder is not None:
                recorder.reset()
            domain = worker_env.create_domain("worker", f"blob-server-{index}")
            server = SingletonServer(domain)
            return {
                "blob": server.export(BlobImpl(), blob),
                "probe": server.export(ProbeImpl(recorder), probe),
            }

        self.fabric = env.install_procfabric(bootstrap, workers=PROC_WORKERS)
        client = self.client = env.create_domain("desk", "client")
        self.blobs = [
            self.fabric.bind(client, "blob", blob, worker=w) for w in range(PROC_WORKERS)
        ]
        self.probes = [
            self.fabric.bind(client, "probe", probe, worker=w)
            for w in range(PROC_WORKERS)
        ]
        self.pool = inputs["pool"]

    def call(self, op) -> int:
        worker, size, start = op
        data = self.pool[start : start + size]
        echoed = self.blobs[worker].roundtrip(data)
        if echoed != data:
            raise CheckError(f"worker {worker} echoed {len(echoed)} B for {size} B")
        return 2 * size

    def close(self) -> None:
        self.env.uninstall_procfabric()

    def counters(self) -> dict:
        stats = self.fabric.stats()
        return {
            "procfabric.calls": sum(w["calls"] for w in stats.values()),
            "procfabric.ring_payloads": sum(w["ring_payloads"] for w in stats.values()),
        }

    def worker_layers(self) -> list[dict]:
        return [json.loads(probe.snapshot()) for probe in self.probes]

    def reset_workers(self) -> None:
        for probe in self.probes:
            probe.reset()


WORKLOADS = {
    "hotpath": (generate_counter_ops, CounterWorld),
    "files": (generate_file_ops, FilesWorld),
    "planes": (generate_counter_ops, PlanesWorld),
    "proc": (generate_blob_ops, ProcWorld),
}
