"""Per-node, per-subsystem metrics registry.

Before this module every subsystem grew its own ad-hoc counters
(``NetworkStats``, ``DirectoryCache.hits``, ``listener.replays`` ...),
none of which were visible in one place or attributable to a node.
:class:`MetricsRegistry` gives the simulated deployment one sink:

* **counters** — monotone event counts (``net.messages``,
  ``txn.intent_writes``, ``store.wal_appends``);
* **gauges** — last-write-wins values (``txn.locks_held``);
* **histograms** — virtual-time distributions using the power-of-two
  millisecond buckets the benchmarks already report
  (``kernel.dispatch.<verb>``, ``txn.lock_hold``).

Metric names follow ``subsystem.metric[.qualifier]`` — e.g.
``net.bytes``, ``dir.cache_hits``, ``kernel.dispatch.change`` — and are
keyed by ``(node, name)`` so fleets aggregate naturally.  Everything is
plain dict/Counter state updated synchronously from simulation code, so
snapshots are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.digest import QuantileDigest
from repro.util.clock import VirtualClock


#: interned bucket labels, keyed by power-of-two exponent
_BUCKET_LABELS: dict[int, str] = {}

#: virtual seconds per quantile-digest window
DIGEST_WINDOW = 60.0


def latency_bucket(delay: float) -> str:
    """Power-of-two millisecond bucket label for a delay in seconds.

    Computed via ``math.frexp`` (one float decompose) rather than
    ``log2``/``ceil`` method chains; labels are interned per exponent so
    the hot path never re-formats a string it has produced before.
    """
    ms = delay * 1e3
    if ms <= 1.0:
        return "<=1ms"
    mantissa, exp = math.frexp(ms)  # ms == mantissa * 2**exp, 0.5 <= mantissa < 1
    if mantissa == 0.5:  # exact power of two belongs in its own bucket
        exp -= 1
    label = _BUCKET_LABELS.get(exp)
    if label is None:
        label = _BUCKET_LABELS[exp] = f"<={1 << exp}ms"
    return label


class MetricsRegistry:
    """Counters, gauges and virtual-time histograms keyed by ``(node, name)``."""

    def __init__(self, clock: VirtualClock | None = None):
        self._clock = clock or VirtualClock()
        self._counters: dict[tuple[str, str], float] = {}
        self._gauges: dict[tuple[str, str], float] = {}
        self._hists: dict[tuple[str, str], dict[str, Any]] = {}
        #: quantile sketches per (node, name): window index -> digest
        self._digests: dict[tuple[str, str], dict[int, QuantileDigest]] = {}
        #: virtual seconds per digest window
        self.digest_window = DIGEST_WINDOW

    @property
    def clock(self) -> VirtualClock:
        """The virtual clock :meth:`timer` measures against."""
        return self._clock

    # -- writers ---------------------------------------------------------

    def inc(self, node: str, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` on ``node``."""
        key = (node, name)
        self._counters[key] = self._counters.get(key, 0) + value

    def counter_map(self) -> dict[tuple[str, str], float]:
        """The live counter dict, for hot-path accumulators.

        Trusted recorders (:class:`~repro.net.stats.NetworkStats`) update
        this directly with precomputed ``(node, name)`` key tuples —
        identical end state to calling :meth:`inc` per event, without a
        method call and f-string per counter bump. Readers should stick
        to :meth:`counter`/:meth:`snapshot`.
        """
        return self._counters

    def set_gauge(self, node: str, name: str, value: float) -> None:
        """Set gauge ``name`` on ``node`` to ``value``."""
        self._gauges[(node, name)] = value

    def observe(self, node: str, name: str, value: float) -> None:
        """Record one sample into histogram ``name`` on ``node``.

        ``value`` is in seconds; buckets are power-of-two milliseconds.
        Exact ``min``/``max`` ride along so the tails survive the lossy
        bucketing — a 1.7 s and a 2.0 s sample are both ``<=2048ms``,
        but snapshots still report the true extremes.
        """
        hist = self._hists.get((node, name))
        if hist is None:
            hist = self._hists[(node, name)] = {
                "count": 0,
                "sum": 0.0,
                "min": math.inf,
                "max": -math.inf,
                "buckets": Counter(),
            }
        hist["count"] += 1
        hist["sum"] += value
        if value < hist["min"]:
            hist["min"] = value
        if value > hist["max"]:
            hist["max"] = value
        hist["buckets"][latency_bucket(value)] += 1

    def record_value(self, node: str, name: str, value: float) -> None:
        """Record one sample into the quantile digest for ``(node, name)``.

        Samples land in the virtual-time window containing *now*
        (``digest_window`` seconds wide); windows merge exactly, so any
        span of windows — or the whole series — reports quantiles with
        the digest's fixed relative-error bound.
        """
        windows = self._digests.setdefault((node, name), {})
        index = int(self._clock.now() // self.digest_window)
        digest = windows.get(index)
        if digest is None:
            digest = windows[index] = QuantileDigest()
        digest.add(value)

    @contextmanager
    def timer(self, node: str, name: str) -> Iterator[None]:
        """Observe the virtual-clock duration of the enclosed block."""
        start = self._clock.now()
        try:
            yield
        finally:
            self.observe(node, name, self._clock.now() - start)

    # -- readers ---------------------------------------------------------

    def counter(self, node: str, name: str) -> float:
        """Current value of a counter (0 if never written)."""
        return self._counters.get((node, name), 0)

    def gauge(self, node: str, name: str) -> float | None:
        """Current value of a gauge (None if never written)."""
        return self._gauges.get((node, name))

    def histogram(self, node: str, name: str) -> dict[str, Any]:
        """``{"count", "sum", "min", "max", "buckets"}`` (zeroes if unset)."""
        hist = self._hists.get((node, name))
        if hist is None:
            return {"count": 0, "sum": 0.0, "min": None, "max": None, "buckets": Counter()}
        return {
            "count": hist["count"],
            "sum": hist["sum"],
            "min": hist["min"],
            "max": hist["max"],
            "buckets": Counter(hist["buckets"]),
        }

    def digest(self, node: str, name: str) -> QuantileDigest:
        """Merged quantile digest across every window of ``(node, name)``.

        Returns an empty digest when nothing was recorded.
        """
        merged = QuantileDigest()
        for _, digest in sorted(self._digests.get((node, name), {}).items()):
            merged.merge(digest)
        return merged

    def digest_windows(self, node: str, name: str) -> list[tuple[float, QuantileDigest]]:
        """``(window_start_seconds, digest)`` pairs, oldest first."""
        windows = self._digests.get((node, name), {})
        return [
            (index * self.digest_window, windows[index]) for index in sorted(windows)
        ]

    def merged_digest(self, name: str) -> QuantileDigest:
        """One digest for ``name`` merged across *all* nodes and windows.

        This is the fleet view an SLO evaluates against: per-user op
        latencies recorded on every node, folded into one sketch.
        """
        merged = QuantileDigest()
        for (node, metric), windows in sorted(self._digests.items()):
            if metric != name:
                continue
            for _, digest in sorted(windows.items()):
                merged.merge(digest)
        return merged

    def digest_names(self) -> list[str]:
        """Sorted distinct metric names that have digests recorded."""
        return sorted({name for (_, name) in self._digests})

    def snapshot(self) -> dict[str, Any]:
        """Deterministically ordered, JSON-able copy of every metric."""
        counters = {
            f"{node}/{name}": value
            for (node, name), value in sorted(self._counters.items())
        }
        gauges = {
            f"{node}/{name}": value
            for (node, name), value in sorted(self._gauges.items())
        }
        hists = {
            f"{node}/{name}": {
                "count": h["count"],
                "sum": round(h["sum"], 9),
                "min": round(h["min"], 9),
                "max": round(h["max"], 9),
                "buckets": dict(sorted(h["buckets"].items())),
            }
            for (node, name), h in sorted(self._hists.items())
        }
        digests = {}
        for (node, name), windows in sorted(self._digests.items()):
            merged = QuantileDigest()
            for _, digest in sorted(windows.items()):
                merged.merge(digest)
            entry = merged.to_dict()
            entry["windows"] = len(windows)
            digests[f"{node}/{name}"] = entry
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": hists,
            "digests": digests,
        }

    def render(self) -> str:
        """Human-readable dump, one metric per line, sorted."""
        snap = self.snapshot()
        lines: list[str] = []
        for key, value in snap["counters"].items():
            lines.append(f"counter {key} = {value}")
        for key, value in snap["gauges"].items():
            lines.append(f"gauge   {key} = {value}")
        for key, h in snap["histograms"].items():
            buckets = " ".join(f"{b}:{n}" for b, n in h["buckets"].items())
            lines.append(
                f"hist    {key} count={h['count']} sum={h['sum']:.6f} "
                f"min={h['min']:.6f} max={h['max']:.6f} {buckets}"
            )
        for (node, name), windows in sorted(self._digests.items()):
            merged = self.digest(node, name)
            lines.append(
                f"digest  {node}/{name} count={merged.count} "
                f"min={merged.min:.6f} p50={merged.quantile(0.5):.6f} "
                f"p99={merged.quantile(0.99):.6f} max={merged.max:.6f} "
                f"windows={len(windows)}"
            )
        return "\n".join(lines)

    def reset_node(self, node: str) -> None:
        """Drop every metric recorded under ``node``."""
        for store in (self._counters, self._gauges, self._hists, self._digests):
            for key in [k for k in store if k[0] == node]:
                del store[key]

    def reset(self) -> None:
        """Drop every metric."""
        self._counters.clear()
        self._gauges.clear()
        self._hists.clear()
        self._digests.clear()
