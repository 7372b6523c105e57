"""Streaming metrics: counters, gauges, and log-bucketed histograms.

A :class:`MetricsRegistry` is a labelled metric store with an incremental
flush/absorb protocol, the live counterpart of the post-hoc ``Trace``:

* **Workers flush deltas.**  A pool worker updates its private registry
  (inherited at fork) and ships :meth:`MetricsRegistry.flush` payloads —
  *deltas since the previous flush* — over the existing result channel.
  Counters ship increments, histograms ship per-bucket count deltas,
  gauges ship last-written values, so payload size is bounded by the
  number of touched series, never by run length.
* **The serve loop absorbs.**  :meth:`MetricsRegistry.absorb` folds a
  flush payload into an aggregating registry; absorption is associative,
  so any number of workers can feed one parent.
* **Histograms are log-bucketed.**  Observations land in geometric
  buckets (4 per doubling above one microsecond), giving p50/p90/p99
  readout with bounded error (~19 % bucket width) and O(#buckets) memory
  regardless of sample count.

The module-level :data:`LIVE` registry is the per-process aggregate that
``/metrics`` and ``python -m repro.obs top`` read.
"""

from __future__ import annotations

import math
import threading

#: Histogram bucketing: upper bounds ``BASE * GROWTH**i`` seconds.  Four
#: buckets per doubling keeps quantile error under ~19 %.
HIST_BASE = 1e-6
HIST_GROWTH = 2.0 ** 0.25
_LOG_GROWTH = math.log(HIST_GROWTH)


def bucket_index(value: float) -> int:
    """Index of the log bucket whose upper bound first covers ``value``."""
    if value <= HIST_BASE:
        return 0
    return int(math.ceil(math.log(value / HIST_BASE) / _LOG_GROWTH - 1e-9))


def bucket_upper(index: int) -> float:
    """Upper bound (seconds) of log bucket ``index``."""
    return HIST_BASE * HIST_GROWTH ** index


class Counter:
    """A monotonically increasing value; flushes the delta since last flush."""

    __slots__ = ("value", "_delta")

    def __init__(self):
        self.value = 0.0
        self._delta = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n
        self._delta += n


class Gauge:
    """A last-write-wins value (queue depth, pool size, ...)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class Histogram:
    """Log-bucketed distribution with streaming quantile readout."""

    __slots__ = ("counts", "total", "sum", "_delta", "_delta_sum")

    def __init__(self):
        self.counts: dict[int, int] = {}
        self.total = 0
        self.sum = 0.0
        self._delta: dict[int, int] = {}
        self._delta_sum = 0.0

    def observe(self, value: float) -> None:
        b = bucket_index(value)
        self.counts[b] = self.counts.get(b, 0) + 1
        self._delta[b] = self._delta.get(b, 0) + 1
        self.total += 1
        self.sum += value
        self._delta_sum += value

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket."""
        if self.total <= 0:
            return 0.0
        target = q * self.total
        seen = 0
        for b in sorted(self.counts):
            seen += self.counts[b]
            if seen >= target:
                return bucket_upper(b)
        return bucket_upper(max(self.counts))

    def percentiles(self) -> dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Labelled metric store with a delta flush/absorb protocol.

    >>> worker, parent = MetricsRegistry(), MetricsRegistry()
    >>> worker.counter("blocks", rank="0").inc(3)
    >>> parent.absorb(worker.flush())
    >>> worker.counter("blocks", rank="0").inc(2)
    >>> parent.absorb(worker.flush())        # only the new increment ships
    >>> parent.counter("blocks", rank="0").value
    5.0
    """

    def __init__(self):
        self._metrics: dict[tuple, object] = {}
        self._kinds: dict[str, str] = {}
        # Guards series *creation* and flush/absorb; single increments on
        # an existing series stay lock-free (one attribute update).
        self._lock = threading.Lock()

    # -- access --------------------------------------------------------------
    def _series(self, kind: str, name: str, labels: dict):
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                known = self._kinds.setdefault(name, kind)
                if known != kind:
                    raise TypeError(
                        f"metric {name!r} already registered as {known}"
                    )
                metric = self._metrics.setdefault(key, _KINDS[kind]())
        elif metric.__class__ is not _KINDS[kind]:
            raise TypeError(
                f"metric {name!r} already registered as"
                f" {self._kinds.get(name, type(metric).__name__)}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._series("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._series("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._series("histogram", name, labels)

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Current value of a counter/gauge series, without creating it."""
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        return default if metric is None else metric.value

    # -- flush / absorb ------------------------------------------------------
    def flush(self) -> dict:
        """Ship deltas since the previous flush (and reset them)."""
        with self._lock:
            counters, gauges, hists = [], [], []
            for (name, labels), metric in self._metrics.items():
                if isinstance(metric, Counter):
                    if metric._delta:
                        counters.append([name, labels, metric._delta])
                        metric._delta = 0.0
                elif isinstance(metric, Gauge):
                    gauges.append([name, labels, metric.value])
                else:
                    if metric._delta:
                        hists.append([
                            name, labels,
                            list(metric._delta.items()), metric._delta_sum,
                        ])
                        metric._delta = {}
                        metric._delta_sum = 0.0
            return {"counters": counters, "gauges": gauges, "hists": hists}

    def absorb(self, payload: dict) -> None:
        """Fold a :meth:`flush` payload (possibly from another process) in."""
        if not payload:
            return
        for name, labels, delta in payload.get("counters", ()):
            self._series("counter", name, dict(labels)).inc(delta)
        for name, labels, value in payload.get("gauges", ()):
            self._series("gauge", name, dict(labels)).set(value)
        for name, labels, buckets, delta_sum in payload.get("hists", ()):
            hist = self._series("histogram", name, dict(labels))
            added = 0
            for b, n in buckets:
                b = int(b)
                hist.counts[b] = hist.counts.get(b, 0) + n
                hist._delta[b] = hist._delta.get(b, 0) + n
                added += n
            hist.total += added
            hist.sum += delta_sum
            hist._delta_sum += delta_sum

    # -- readout -------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready readout of every series."""
        counters, gauges, histograms = [], [], []
        for (name, labels), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            entry = {"name": name, "labels": dict(labels)}
            if isinstance(metric, Counter):
                counters.append({**entry, "value": metric.value})
            elif isinstance(metric, Gauge):
                gauges.append({**entry, "value": metric.value})
            else:
                histograms.append({
                    **entry,
                    "count": metric.total,
                    "sum": metric.sum,
                    **metric.percentiles(),
                })
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def series(self):
        """Iterate ``(name, labels_dict, kind, metric)`` in sorted order."""
        for (name, labels), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            if isinstance(metric, Counter):
                kind = "counter"
            elif isinstance(metric, Gauge):
                kind = "gauge"
            else:
                kind = "histogram"
            yield name, dict(labels), kind, metric

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()


def worker_table(registry: MetricsRegistry) -> dict[str, dict[str, float]]:
    """Group ``repro_pool_worker_*`` series by rank, for ``obs top``."""
    table: dict[str, dict[str, float]] = {}
    prefix = "repro_pool_worker_"
    for name, labels, kind, metric in registry.series():
        if not name.startswith(prefix) or "rank" not in labels:
            continue
        row = table.setdefault(labels["rank"], {})
        row[name[len(prefix):]] = metric.value
    return table


def fabric_summary(registry: MetricsRegistry) -> dict[str, float]:
    """Aggregate the multicast-fabric series across ranks, for ``obs top``.

    Empty when no multicast run has happened — the dashboards use that to
    hide the fabric line entirely on pipe-only deployments.  The fabric
    stages no boundaries, so ``buffer_flips`` and ``overlap_seconds`` read
    0; they stay for readers that expect all three keys.
    """
    releases = sum(
        metric.value
        for name, _labels, _kind, metric in registry.series()
        if name == "repro_multicast_releases_total"
    )
    if not releases:
        return {}
    return {
        "multicast_releases": releases,
        "buffer_flips": 0.0,
        "overlap_seconds": 0.0,
    }


#: The per-process aggregate registry ``/metrics`` and ``obs top`` read.
LIVE = MetricsRegistry()
