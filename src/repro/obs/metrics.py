"""Per-subcontract metrics: counters and fixed-bucket histograms.

The registry is keyed by ``(scope, name)`` where the scope is normally a
subcontract id (``"cluster"``, ``"caching"``, ...).  Histograms use fixed
bucket bounds chosen at creation — no dynamic resizing, no percentile
estimation — so observation is a bisect plus two float adds and snapshots
are trivially mergeable.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

__all__ = [
    "Counter",
    "Histogram",
    "MetricsMergeError",
    "MetricsRegistry",
    "merge_snapshots",
    "LATENCY_BUCKETS_US",
    "BYTES_BUCKETS",
    "RETRY_BUCKETS",
]


class MetricsMergeError(ValueError):
    """Histograms with incompatible bucket bounds were combined.

    Raised both when :func:`merge_snapshots` meets two snapshots whose
    histograms disagree on bounds, and when a caller re-requests an
    existing histogram from a registry with *different* bounds — the
    silent version of the same corruption: observations would land in a
    bucket layout the caller did not ask for.
    """

#: simulated-microsecond latency bounds, spanning a local indirect call
#: (sub-µs) through cross-machine calls with retry backoff (hundreds of ms)
LATENCY_BUCKETS_US = (
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
    10_000.0, 25_000.0, 50_000.0, 100_000.0, 250_000.0,
)

#: marshalled-payload size bounds
BYTES_BUCKETS = (16.0, 64.0, 256.0, 1_024.0, 4_096.0, 16_384.0, 65_536.0)

#: retry/retransmission-count bounds
RETRY_BUCKETS = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Fixed-bucket histogram: counts per bound, plus sum and total.

    ``bounds`` are upper edges: an observation lands in the first bucket
    whose bound is strictly greater than the value, and observations at
    or beyond the last bound land in the overflow bucket (``counts[-1]``).
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Iterable[float]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Counters and histograms, keyed by (scope, name)."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, str], Counter] = {}
        self._histograms: dict[tuple[str, str], Histogram] = {}

    def counter(self, scope: str, name: str) -> Counter:
        key = (scope, name)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def histogram(
        self, scope: str, name: str, bounds: "Iterable[float] | None" = None
    ) -> Histogram:
        """The histogram at ``(scope, name)``, created on first use.

        ``bounds=None`` accepts whatever bounds the histogram already
        has (readers never need to know them) and falls back to
        :data:`LATENCY_BUCKETS_US` on creation.  Passing explicit
        bounds that disagree with the registered ones raises
        :class:`MetricsMergeError` — silently observing into a
        different bucket layout would corrupt every later merge.
        """
        key = (scope, name)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(
                LATENCY_BUCKETS_US if bounds is None else bounds
            )
        elif bounds is not None and bounds != histogram.bounds:
            # The common re-request passes the very tuple the histogram
            # was built from, so it never reaches this conversion.
            requested = tuple(float(b) for b in bounds)
            if requested != histogram.bounds:
                raise MetricsMergeError(
                    f"histogram {scope!r}/{name!r} already exists with bounds "
                    f"{histogram.bounds}; re-requested with {requested}"
                )
        return histogram

    def snapshot(self) -> dict:
        """Nested ``{scope: {"counters": ..., "histograms": ...}}`` dict."""
        out: dict[str, dict] = {}
        for (scope, name), counter in sorted(self._counters.items()):
            out.setdefault(scope, {"counters": {}, "histograms": {}})
            out[scope]["counters"][name] = counter.value
        for (scope, name), histogram in sorted(self._histograms.items()):
            out.setdefault(scope, {"counters": {}, "histograms": {}})
            out[scope]["histograms"][name] = histogram.snapshot()
        return out


def _merge_histogram(into: dict, add: dict, scope: str, name: str) -> dict:
    """Merge one histogram snapshot into another (matching bounds)."""
    if list(into["bounds"]) != list(add["bounds"]):
        raise MetricsMergeError(
            f"cannot merge histogram {scope!r}/{name!r}: bucket bounds differ "
            f"({into['bounds']} vs {add['bounds']}); bucket-wise addition "
            f"across different layouts would silently corrupt the counts"
        )
    counts = [a + b for a, b in zip(into["counts"], add["counts"])]
    total = into["count"] + add["count"]
    summed = into["sum"] + add["sum"]
    return {
        "bounds": list(into["bounds"]),
        "counts": counts,
        "count": total,
        "sum": summed,
        "mean": summed / total if total else 0.0,
    }


def merge_snapshots(*snapshots: dict) -> dict:
    """Merge :meth:`MetricsRegistry.snapshot` dicts from several registries.

    Counters sum; histograms with identical bucket bounds merge bucket-wise
    (fixed bounds chosen at creation make this exact, which is why the
    process fabric can pull per-worker snapshots and fold them into one
    cross-process view without re-observing anything).
    """
    out: dict[str, dict] = {}
    for snap in snapshots:
        for scope, groups in snap.items():
            merged = out.setdefault(scope, {"counters": {}, "histograms": {}})
            for name, value in groups.get("counters", {}).items():
                merged["counters"][name] = merged["counters"].get(name, 0) + value
            for name, hist in groups.get("histograms", {}).items():
                seen = merged["histograms"].get(name)
                if seen is None:
                    merged["histograms"][name] = {
                        "bounds": list(hist["bounds"]),
                        "counts": list(hist["counts"]),
                        "count": hist["count"],
                        "sum": hist["sum"],
                        "mean": hist["mean"],
                    }
                else:
                    merged["histograms"][name] = _merge_histogram(
                        seen, hist, scope, name
                    )
    return out
