#!/usr/bin/env python3
"""The repository benchmark: one workload, one closed loop, one process.

Run from the repository root::

    python3 perfbench/run.py --workload hotpath --seed 1 --seconds 10 --trace 0

Workloads are ``hotpath``, ``files``, ``planes`` and ``proc`` (see
``workloads.py``).  One calling thread drives the op list generated from
``--seed``; each call waits for the previous reply, as every Spring
caller does.  Every result is checked against a client-side model, and
buffer-pool, door-transit and sim-clock conservation are asserted after
the run.

``--trace 0`` measures the end-to-end metrics with nothing of the
benchmark's instrumentation installed.  Wall figures are medians over
one-second windows of the loop; ``setup_s`` is the median of several
builds, each up to the first successful call.  ``planes`` retries a
failed attempt, so its failures show as ``attempts_per_call`` above 1
in the result line (``error_rate``, failed over attempted calls, is
printed beside it and is 0 on the other workloads).

``--trace 1`` measures the per-layer metrics: a short untraced loop
(for the tracing overhead), two deterministic count passes under
``sys.setprofile`` that must agree exactly, and a loop with outside-in
spans around each layer's entry points (``probe.py``).

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full report (host facts, deterministic counts, sim-us by
cost category) and the kept spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: ops run after the first call and before anything is measured
WARM_OPS = {"hotpath": 1000, "planes": 1000, "files": 300, "proc": 300}
#: measured ops over which sim_us_per_call is taken (every run does them)
SIM_WINDOW = 10_000
#: ops in each deterministic count pass
COUNT_OPS = {"hotpath": 2000, "planes": 2000, "files": 1000, "proc": 1000}
#: the loop is cut into windows this long; wall figures are the median
#: of the per-window figures, which damps bursts of interference
WINDOW_S = 1.0
#: world builds per run; setup_s is their median
SETUPS = 11

END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "payload_mb_per_s": "MB/s",
    "sim_us_per_call": "sim_us",
    "attempts_per_call": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_facts() -> dict:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "loadavg_before": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


def build(cls, inputs, seed, recorder=None):
    """Build a world and make its first call; returns (world, seconds)."""
    started = time.perf_counter()
    world = cls(inputs, seed, recorder)
    world.first_call()
    return world, time.perf_counter() - started


@contextlib.contextmanager
def warmed(name, cls, inputs, seed, recorder=None):
    """A built world with its warm-up ops run; closed on exit."""
    world, _ = build(cls, inputs, seed, recorder)
    try:
        for op in world.ops[1 : WARM_OPS[name]]:
            world.call(op)
        yield world
    finally:
        world.close()


def setup_times(cls, inputs, seed) -> list[float]:
    times = []
    for _ in range(SETUPS):
        gc.collect()  # each build starts from a collected heap, untimed
        world, elapsed = build(cls, inputs, seed)
        world.close()
        times.append(elapsed)
    return times


def closed_loop(world, start: int, seconds: float, recorder=None) -> dict:
    """Drive ops from index ``start`` on for ``seconds`` (and at least
    ``SIM_WINDOW`` ops), cut into ``WINDOW_S`` windows.

    Returns per-window (calls, wall ns, payload bytes, p50 ns, p99 ns),
    plus the sim time of the first ``SIM_WINDOW`` ops.  Latencies are
    dropped at each window's end, so memory does not grow with speed.
    """
    ops = world.ops
    count = len(ops)
    index = start
    call = world.call
    clock = world.kernel.clock
    clock.reset_tally()
    sim_start = clock.now_us
    transit_start = world.transit_refs()
    attempts_start = world.attempts
    failed_start = world.failed_attempts
    sim_window = None
    windows = []
    done = 0
    now = time.perf_counter_ns
    window_ns = int(WINDOW_S * 1e9)
    began = window_start = now()
    deadline_ns = began + int(seconds * 1e9)
    latencies = []
    record = latencies.append
    payload = 0
    while True:
        if recorder is not None:
            recorder.call_id = done + 1
        op = ops[index % count]
        index += 1
        t0 = now()
        payload += call(op)
        t1 = now()
        record(t1 - t0)
        done += 1
        if done == SIM_WINDOW:
            sim_window = clock.now_us - sim_start
        if t1 - window_start >= window_ns:
            latencies.sort()
            windows.append(
                (
                    len(latencies),
                    t1 - window_start,
                    payload,
                    percentile(latencies, 0.50),
                    percentile(latencies, 0.99),
                )
            )
            latencies = []
            record = latencies.append
            payload = 0
            window_start = t1
            if t1 >= deadline_ns and done >= SIM_WINDOW:
                break
    wall_ns = now() - began
    world.invariants(sim_start, transit_start)
    return {
        "ops": done,
        "wall_s": wall_ns / 1e9,
        "windows": windows,
        "sim_us_window": sim_window,
        "attempts": world.attempts - attempts_start,
        "failed_attempts": world.failed_attempts - failed_start,
    }


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, int(round(q * len(sorted_values))))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _rate(calls, wall_ns, payload, p50, p99) -> float:
    return calls / wall_ns * 1e9


def window_median(windows, figure) -> float:
    """Median over windows of ``figure(calls, wall_ns, payload, p50, p99)``."""
    return statistics.median(figure(*window) for window in windows)


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------


def run_end_to_end(name, cls, inputs, seed, seconds) -> tuple[dict, dict]:
    setups = setup_times(cls, inputs, seed)
    with warmed(name, cls, inputs, seed) as world:
        loop = closed_loop(world, WARM_OPS[name], seconds)

    windows = loop["windows"]
    ops = loop["ops"]
    wall = loop["wall_s"]
    attempts = loop["attempts"] or ops
    smallest = min(window[0] for window in windows)
    metrics = {
        "calls_per_s": window_median(windows, _rate),
        "call_p50_us": window_median(windows, lambda n, ns, b, p50, p99: p50) / 1e3,
        "call_p99_us": window_median(windows, lambda n, ns, b, p50, p99: p99) / 1e3,
        "payload_mb_per_s": window_median(windows, lambda n, ns, b, p50, p99: b / ns * 1e3),
        "sim_us_per_call": loop["sim_us_window"] / SIM_WINDOW,
        "attempts_per_call": attempts / ops,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_window = f"median of {len(windows)} windows of {WINDOW_S} s, {ops} calls"
    samples = {
        "calls_per_s": per_window,
        "call_p50_us": per_window,
        "call_p99_us": f"{per_window}; >= {smallest - int(round(0.99 * smallest))} beyond p99 per window",
        "payload_mb_per_s": per_window,
        "sim_us_per_call": f"first {SIM_WINDOW} measured calls",
        "attempts_per_call": f"{attempts} attempts, {loop['failed_attempts']} failed",
        "setup_s": f"median of {SETUPS} builds",
        "peak_rss_mb": "1 process",
    }
    if smallest - int(round(0.99 * smallest)) < 10:
        raise RuntimeError(f"a window has only {smallest} calls: too few for a p99")
    for key, value in metrics.items():
        print(f"{key:<20} {value:>14.4f} {END_TO_END_UNITS[key]:<7} ({samples[key]})")
    error_rate = loop["failed_attempts"] / attempts
    print(f"{'error_rate':<20} {error_rate:>14.6f} ratio   (failed / attempted calls)")
    detail = {
        "ops": ops,
        "wall_s": wall,
        "windows": [
            {"calls": n, "wall_ns": ns, "payload_bytes": b, "p50_ns": p50, "p99_ns": p99}
            for n, ns, b, p50, p99 in windows
        ],
        "attempts": attempts,
        "failed_attempts": loop["failed_attempts"],
        "error_rate": error_rate,
        "failure_classes": getattr(world, "failures", {}),
        "setup_s_each": setups,
        "samples": samples,
    }
    result = {
        "correct": True,
        "attempted": ops,
        "failed": 0,
        "metrics": {
            key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in metrics.items()
        },
    }
    return result, detail


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------


def run_layers(name, cls, inputs, seed, seconds) -> tuple[dict, dict]:
    import probe

    # 1. untraced reference for the tracing overhead
    with warmed(name, cls, inputs, seed) as world:
        untraced = closed_loop(world, WARM_OPS[name], seconds / 4)

    # 2. deterministic counts, twice; they must agree exactly
    passes = []
    start = WARM_OPS[name]
    for _ in range(2):
        with warmed(name, cls, inputs, seed) as world:
            ops = world.ops[start : start + COUNT_OPS[name]]
            passes.append(probe.count_pass(world, ops))
    deterministic = json.dumps(passes[0], sort_keys=True) == json.dumps(
        passes[1], sort_keys=True
    )
    if not deterministic:
        print("count pass: two same-seed passes DISAGREE", file=sys.stderr)
        print(json.dumps(passes, indent=1, sort_keys=True), file=sys.stderr)

    # 3. outside-in spans
    recorder = probe.Recorder()
    recorder.patch_static()
    try:
        with warmed(name, cls, inputs, seed, recorder) as world:
            world.reset_workers()
            recorder.reset()
            traced = closed_loop(world, WARM_OPS[name], seconds / 2, recorder)
            totals = recorder.snapshot()
            workers = world.worker_layers()
    finally:
        recorder.restore()
    for worker in workers:
        for layer, (count, self_ns) in worker.items():
            totals[layer][0] += count
            totals[layer][1] += self_ns

    metrics = layer_metrics(passes[0], totals, traced, untraced)
    for key, (value, unit) in metrics.items():
        print(f"{key:<30} {value:>16.4f} {unit}")
    # The process transport is not on any listed workload's path: its
    # figures are printed and reported, but kept out of the result line.
    reported = {
        key: figure for key, figure in metrics.items() if not key.startswith("procfabric.")
    }
    traced_cps = metrics["tracing.calls_per_s"][0]
    untraced_cps = metrics["tracing.untraced_calls_per_s"][0]
    print(
        f"tracing overhead: {traced_cps:.1f} traced vs {untraced_cps:.1f} untraced "
        f"calls/s ({traced['ops']} and {untraced['ops']} calls)"
    )
    counts = passes[0]
    per_op = counts["ops"]
    print(
        "py calls/call by layer: "
        + ", ".join(f"{k}={v / per_op:.2f}" for k, v in counts["py_calls"].items() if v)
    )
    print(
        "sim us/call by cost category: "
        + ", ".join(f"{k}={v / per_op:.3f}" for k, v in counts["sim_us_by_category"].items())
    )
    print(f"count pass deterministic across two same-seed runs: {deterministic}")
    detail = {
        "layer_metrics": {key: value for key, (value, _) in metrics.items()},
        "count_pass": passes[0],
        "count_pass_deterministic": deterministic,
        "timed_totals": totals,
        "traced_ops": traced["ops"],
        "untraced_ops": untraced["ops"],
        "worker_totals": workers,
        "spans": recorder.spans,
    }
    result = {
        "correct": deterministic,
        "attempted": traced["ops"],
        "failed": 0,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in reported.items()
        },
    }
    return result, detail


def layer_metrics(counts, totals, traced, untraced) -> dict:
    """Per-call layer figures: counts from the deterministic pass, times
    from the traced loop."""
    ops = counts["ops"]
    per_op = lambda value: value / ops  # noqa: E731
    traced_ops = traced["ops"]
    py = counts["py_calls"]
    entries = counts["entries"]
    sim = counts["sim_us_by_category"]
    ctr = counts["counters"]
    tallies = counts["tallies"]
    hits, misses = ctr.get("cache.hits", 0), ctr.get("cache.misses", 0)
    pf_calls = ctr.get("procfabric.calls", 0)
    metrics = {}
    for layer in ("stubs", "subcontract", "nucleus", "skeleton"):
        metrics[f"{layer}.count"] = (totals[layer][0] / traced_ops, "count")
        metrics[f"{layer}.self_ns"] = (totals[layer][1] / traced_ops, "ns")
        metrics[f"{layer}.py_calls"] = (per_op(py[layer]), "count")
    metrics.update(
        {
            "impl.self_ns": (totals["impl"][1] / traced_ops, "ns"),
            "buffer.acquires": (per_op(counts["buffer_acquires"]), "count"),
            "buffer.allocs": (per_op(tallies["buffer_allocs"]), "count"),
            "buffer.releases": (per_op(counts["buffer_releases"]), "count"),
            "buffer.bytes": (per_op(tallies["buffer_bytes"]), "B"),
            "buffer.self_ns": (totals["buffer"][1] / traced_ops, "ns"),
            "fabric.carries": (per_op(counts["fabric_carries"]), "count"),
            "fabric.self_ns": (totals["fabric"][1] / traced_ops, "ns"),
            "fabric.network_sim_us": (per_op(sim.get("network", 0.0)), "sim_us"),
            "netserver.door_translations": (per_op(counts["door_translations"]), "count"),
            "caching.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "replicon.broadcasts": (per_op(entries["replicon"]), "count"),
            "clock.charges": (per_op(entries["clock"]), "count"),
            "py_calls_per_call": (per_op(sum(py.values())), "count"),
            "tracer.spans": (per_op(ctr.get("tracer.spans", 0)), "count"),
            "tracer.dropped": (per_op(ctr.get("tracer.dropped", 0)), "count"),
            "tracer.probe_sim_us": (
                per_op(sum(sim.get(k, 0.0) for k in ("trace_span", "trace_event", "window_probe"))),
                "sim_us",
            ),
            "admission.admitted": (per_op(ctr.get("admission.admitted", 0)), "count"),
            "admission.shed": (per_op(ctr.get("admission.shed", 0)), "count"),
            "admission.rejected": (per_op(ctr.get("admission.rejected", 0)), "count"),
            "admission.wait_sim_us": (per_op(sim.get("admission_wait", 0.0)), "sim_us"),
            "chaos.injected": (per_op(ctr.get("chaos.injected", 0)), "count"),
            "retry.attempts": (per_op(entries["retry"]), "count"),
            "retry.backoff_sim_us": (per_op(sim.get("retry_backoff", 0.0)), "sim_us"),
            "idem.dedup_hits": (per_op(ctr.get("idem.dedup_hits", 0)), "count"),
            "error_rate": (
                ctr.get("calls.failed_attempts", 0) / ctr["calls.attempts"]
                if ctr.get("calls.attempts")
                else 0.0,
                "ratio",
            ),
            "procfabric.call_raw_count": (per_op(entries["procfabric"]), "count"),
            "procfabric.call_raw_ns": (totals["procfabric"][1] / traced_ops, "ns"),
            "procfabric.ring_share": (
                ctr.get("procfabric.ring_payloads", 0) / pf_calls if pf_calls else 0.0,
                "ratio",
            ),
            "procfabric.bytes": (per_op(tallies["procfabric_bytes"]), "B"),
            "tracing.calls_per_s": (window_median(traced["windows"], _rate), "1/s"),
            "tracing.untraced_calls_per_s": (window_median(untraced["windows"], _rate), "1/s"),
        }
    )
    return metrics


# ----------------------------------------------------------------------


def write_report(args, facts, result, detail) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = detail.pop("spans", None)
    if spans is not None:
        with (OUT_DIR / f"{stem}-spans.jsonl").open("w") as fh:
            for span_id, parent, name, start, end, call in spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end, "call": call}
                    )
                    + "\n"
                )
    path = OUT_DIR / f"{stem}.json"
    path.write_text(
        json.dumps({"host": facts, "result": result, "detail": detail}, indent=1)
    )
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r} "
            f"(one of {sorted(workloads.WORKLOADS)})"
        )
    facts = host_facts()
    generate, cls = workloads.WORKLOADS[args.workload]
    inputs = generate(args.seed)
    runner = run_layers if args.trace else run_end_to_end
    try:
        result, detail = runner(args.workload, cls, inputs, args.seed, args.seconds)
    except workloads.CheckError as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        detail = {"check_failed": str(failure)}
    facts["loadavg_after"] = list(os.getloadavg())
    detail["calls_per_run"] = result["attempted"]
    report = write_report(args, facts, result, detail)
    print(
        f"host: {facts['usable_cores']} usable cores, Python {facts['python']}, "
        f"{facts['platform']}, commit {facts['git_commit'][:12]}, load "
        f"{facts['loadavg_before'][0]:.2f} -> {facts['loadavg_after'][0]:.2f}"
    )
    print(f"report: {report.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
