"""Typed, thread-safe metrics registry: Counter / Gauge / Histogram.

One :class:`MetricsRegistry` holds every metric family the process
exposes.  A *family* is a named metric plus the tuple of label names it
is dimensioned by; each distinct label-value combination gets its own
child series (``family.labels(verb="run")``).  The design follows the
OpenMetrics data model so :mod:`repro.metrics.openmetrics` can render a
registry without translation:

* :class:`Counter` — monotonically non-decreasing ``inc()``;
* :class:`Gauge` — ``set()``/``inc()``/``dec()``, any float;
* :class:`Histogram` — log-bucketed observations with an exact
  bounded reservoir for percentiles.

The registry is the only place anything is counted: the daemon's
``stats`` verb reports live state only, and every count — requests,
store lookups, scheduler admissions, TLS folds — is read from here,
through the ``metrics`` verb, the ``/metrics`` endpoint, or
:meth:`MetricsRegistry.total` (the one way code and tests read a
count; ``jrpm suite`` prints its summary as a ``total()`` delta over
the invocation).

Every series and the registry itself round-trip losslessly through
``to_dict``/``from_dict``, and registries can be ``merge()``-d — the
daemon folds worker-process registries into its own so the ``metrics``
verb and the ``/metrics`` HTTP endpoint see pool/TLS counters that were
incremented in child processes.

All mutation goes through one registry-wide :class:`threading.RLock`
(shared by the series objects), so concurrent ``record()``/``inc()``
from asyncio callbacks, scheduler threads and test threads is safe.
A process-global default registry is available via :func:`get_registry`;
instrumented layers (pool, scheduler, store, profdb, TLS folds) write
there so the daemon can expose one unified document.  The global
:func:`set_enabled` switch turns every mutation into a no-op for A/B
overhead measurement (``benchmarks/bench_trace_overhead.py``).
"""

import bisect
import threading
from collections import deque

#: Serialization schema for ``MetricsRegistry.to_dict`` payloads.
METRICS_SCHEMA_VERSION = 1

#: Default histogram bounds: doubling from 100µs to ~200s (seconds).
DEFAULT_BOUNDS = tuple(0.0001 * (2 ** i) for i in range(22))

#: Default exact-percentile reservoir size (newest-wins).
DEFAULT_MAX_SAMPLES = 4096

_TYPES = ("counter", "gauge", "histogram")

_enabled = True


def set_enabled(flag):
    """Globally enable/disable metric mutation (A/B overhead runs).

    Disabled mutation is one module-global boolean test per call site;
    reads (``to_dict``, rendering) are unaffected.  Returns the
    previous value so callers can restore it.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def enabled():
    """True when metric mutation is globally enabled."""
    return _enabled


def _check_name(name):
    """Reject names the OpenMetrics exposition format cannot carry."""
    if not name or not all(ch.isalnum() or ch == "_" for ch in name):
        raise ValueError("invalid metric name: %r" % (name,))
    if name[0].isdigit():
        raise ValueError("metric name may not start with a digit: %r"
                         % (name,))


class Counter:
    """Monotonically non-decreasing counter series."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock):
        self._lock = lock
        self.value = 0.0

    def inc(self, amount=1.0):
        """Add *amount* (must be >= 0) to the counter."""
        if not _enabled:
            return
        if amount < 0:
            raise ValueError("counter increment must be >= 0")
        with self._lock:
            self.value += amount

    def to_dict(self):
        """JSON-safe value payload."""
        return {"value": self.value}

    def load_dict(self, payload):
        """Restore the series value from a ``to_dict`` payload."""
        self.value = float(payload["value"])

    def merge(self, payload):
        """Fold another series' ``to_dict`` payload into this one."""
        self.value += float(payload["value"])


class Gauge:
    """Point-in-time value series (queue depth, occupancy, rates)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value):
        """Replace the gauge value."""
        if not _enabled:
            return
        with self._lock:
            self.value = float(value)

    def inc(self, amount=1.0):
        """Add *amount* (may be negative) to the gauge."""
        if not _enabled:
            return
        with self._lock:
            self.value += amount

    def dec(self, amount=1.0):
        """Subtract *amount* from the gauge."""
        self.inc(-amount)

    def to_dict(self):
        """JSON-safe value payload."""
        return {"value": self.value}

    def load_dict(self, payload):
        """Restore the series value from a ``to_dict`` payload."""
        self.value = float(payload["value"])

    def merge(self, payload):
        """Fold another series' payload in (gauges take the max — the
        interesting gauges are high-water marks and last-seen depths)."""
        self.value = max(self.value, float(payload["value"]))


class Histogram:
    """Log-bucketed histogram with an exact bounded sample reservoir.

    ``buckets[i]`` counts observations ``<= bounds[i]``; the final
    bucket is the +Inf overflow.  The newest ``max_samples``
    observations are kept in a :class:`collections.deque` ring
    (O(1) wrap — the PR-6 reservoir used ``list.pop(0)``) so
    :meth:`percentile` stays exact for the populations a daemon sees
    between restarts.
    """

    __slots__ = ("_lock", "bounds", "count", "total", "max",
                 "buckets", "_samples")

    def __init__(self, lock, bounds=DEFAULT_BOUNDS,
                 max_samples=DEFAULT_MAX_SAMPLES):
        self._lock = lock
        self.bounds = tuple(bounds)
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.buckets = [0] * (len(self.bounds) + 1)
        self._samples = deque(maxlen=max_samples)

    def record(self, value):
        """Fold one observation into the histogram."""
        if not _enabled:
            return
        with self._lock:
            self.count += 1
            self.total += value
            if value > self.max:
                self.max = value
            self.buckets[bisect.bisect_right(self.bounds, value)] += 1
            self._samples.append(value)

    # ``observe`` is the conventional Prometheus spelling.
    observe = record

    def percentile(self, fraction):
        """Exact value at *fraction* (0..1) of the sample window."""
        with self._lock:
            return self.percentile_unlocked(fraction)

    @property
    def mean(self):
        """Average over every recorded observation."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self):
        """JSON-safe summary: count/sum/max, exact p50/p95, buckets,
        and the reservoir itself (bounded) so round-trips are lossless."""
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "max": self.max,
                "mean": round(self.mean, 6),
                "p50": round(self.percentile_unlocked(0.50), 6),
                "p95": round(self.percentile_unlocked(0.95), 6),
                "bounds": list(self.bounds),
                "buckets": list(self.buckets),
                "samples": list(self._samples),
            }

    def percentile_unlocked(self, fraction):
        """Percentile without re-taking the (reentrant) registry lock."""
        ordered = sorted(self._samples)
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1,
                    max(0, int(round(fraction * (len(ordered) - 1)))))
        return ordered[index]

    def load_dict(self, payload):
        """Restore counters, buckets and reservoir from ``to_dict``."""
        self.count = int(payload["count"])
        self.total = float(payload["sum"])
        self.max = float(payload["max"])
        self.buckets = [int(n) for n in payload["buckets"]]
        self._samples.clear()
        self._samples.extend(payload.get("samples", ()))

    def merge(self, payload):
        """Fold another histogram's ``to_dict`` payload into this one."""
        self.count += int(payload["count"])
        self.total += float(payload["sum"])
        self.max = max(self.max, float(payload["max"]))
        other = payload["buckets"]
        if len(other) != len(self.buckets):
            raise ValueError("histogram bucket layouts differ")
        self.buckets = [a + b for a, b in zip(self.buckets, other)]
        self._samples.extend(payload.get("samples", ()))


_SERIES_TYPES = {"counter": Counter, "gauge": Gauge,
                 "histogram": Histogram}


class MetricFamily:
    """A named metric plus its label dimensions; owns the child series.

    ``family.labels(verb="run")`` returns (creating on first use) the
    series for that label-value combination; label-less families proxy
    ``inc``/``set``/``record`` straight to their single default child.
    """

    __slots__ = ("name", "type", "help", "label_names", "_lock",
                 "_children", "_kwargs")

    def __init__(self, name, metric_type, help_text, label_names,
                 lock, **kwargs):
        _check_name(name)
        if metric_type not in _TYPES:
            raise ValueError("unknown metric type: %r" % (metric_type,))
        self.name = name
        self.type = metric_type
        self.help = help_text
        self.label_names = tuple(label_names)
        for label in self.label_names:
            _check_name(label)
        self._lock = lock
        self._children = {}
        self._kwargs = kwargs
        if not self.label_names:
            self._child(())

    def _child(self, key):
        child = self._children.get(key)
        if child is None:
            child = _SERIES_TYPES[self.type](self._lock, **self._kwargs)
            self._children[key] = child
        return child

    def labels(self, **labels):
        """Series for one label-value combination (created on demand)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                "metric %s takes labels %r, got %r"
                % (self.name, self.label_names, tuple(sorted(labels))))
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            return self._child(key)

    def _default(self):
        if self.label_names:
            raise ValueError("metric %s requires labels %r"
                             % (self.name, self.label_names))
        return self._children[()]

    def inc(self, amount=1.0):
        """Proxy to the label-less child (counters/gauges)."""
        self._default().inc(amount)

    def dec(self, amount=1.0):
        """Proxy to the label-less child (gauges)."""
        self._default().dec(amount)

    def set(self, value):
        """Proxy to the label-less child (gauges)."""
        self._default().set(value)

    def record(self, value):
        """Proxy to the label-less child (histograms)."""
        self._default().record(value)

    observe = record

    @property
    def value(self):
        """Value of the label-less child (counters/gauges)."""
        return self._default().value

    def series(self):
        """Snapshot of ``(label_values_tuple, child)`` pairs."""
        with self._lock:
            return sorted(self._children.items())

    def to_dict(self):
        """JSON-safe family payload (type, help, labels, children)."""
        with self._lock:
            return {
                "type": self.type,
                "help": self.help,
                "labels": list(self.label_names),
                "series": {"\t".join(key): child.to_dict()
                           for key, child in self._children.items()},
            }

    def load_dict(self, payload, merge=False):
        """Restore (or ``merge=True`` fold in) a family payload."""
        if payload["type"] != self.type:
            raise ValueError("metric %s: type mismatch (%s vs %s)"
                             % (self.name, self.type, payload["type"]))
        if tuple(payload["labels"]) != self.label_names:
            raise ValueError("metric %s: label mismatch" % self.name)
        with self._lock:
            for joined, child_payload in payload["series"].items():
                key = tuple(joined.split("\t")) if joined else ()
                child = self._child(key)
                if merge:
                    child.merge(child_payload)
                else:
                    child.load_dict(child_payload)


class MetricsRegistry:
    """The process-wide collection of metric families.

    Families are created idempotently: a second ``counter()`` call with
    the same name returns the existing family (and raises if the type
    or labels disagree), so instrumented modules can declare their
    metrics at import/call time without coordination.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._families = {}

    def _family(self, name, metric_type, help_text, labels, **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (family.type != metric_type
                        or family.label_names != tuple(labels)):
                    raise ValueError(
                        "metric %s re-registered with different "
                        "type/labels" % name)
                return family
            family = MetricFamily(name, metric_type, help_text,
                                  labels, self._lock, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name, help_text="", labels=()):
        """Get-or-create a counter family."""
        return self._family(name, "counter", help_text, labels)

    def gauge(self, name, help_text="", labels=()):
        """Get-or-create a gauge family."""
        return self._family(name, "gauge", help_text, labels)

    def histogram(self, name, help_text="", labels=(),
                  bounds=DEFAULT_BOUNDS,
                  max_samples=DEFAULT_MAX_SAMPLES):
        """Get-or-create a histogram family."""
        return self._family(name, "histogram", help_text, labels,
                            bounds=bounds, max_samples=max_samples)

    def families(self):
        """Snapshot of ``(name, family)`` pairs, name-sorted."""
        with self._lock:
            return sorted(self._families.items())

    def get(self, name):
        """The family registered under *name*, or None."""
        with self._lock:
            return self._families.get(name)

    def total(self, name, **labels):
        """Sum of family *name*'s series whose labels match *labels*
        (any subset of its label names): counter and gauge values, a
        histogram's observation counts.  0 when the family is absent
        (nothing was counted yet)."""
        family = self.get(name)
        if family is None:
            return 0
        names = family.label_names
        if not set(labels) <= set(names):
            raise ValueError("metric %s has no label(s) %r"
                             % (name, sorted(set(labels) - set(names))))
        wanted = [(names.index(label), str(value))
                  for label, value in labels.items()]
        return sum(child.count if family.type == "histogram"
                   else child.value
                   for key, child in family.series()
                   if all(key[index] == value for index, value in wanted))

    def to_dict(self):
        """Lossless JSON-safe snapshot of every family."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA_VERSION,
                "families": {name: family.to_dict()
                             for name, family in self._families.items()},
            }

    def _absorb(self, payload, merge):
        if payload.get("schema") != METRICS_SCHEMA_VERSION:
            raise ValueError("unsupported metrics schema: %r"
                             % (payload.get("schema"),))
        for name, family_payload in payload["families"].items():
            kwargs = {}
            if family_payload["type"] == "histogram":
                first = next(iter(family_payload["series"].values()),
                             None)
                if first is not None and "bounds" in first:
                    kwargs["bounds"] = tuple(first["bounds"])
            family = self._family(name, family_payload["type"],
                                  family_payload["help"],
                                  tuple(family_payload["labels"]),
                                  **kwargs)
            family.load_dict(family_payload, merge=merge)

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a registry from a ``to_dict`` payload (lossless)."""
        registry = cls()
        registry._absorb(payload, merge=False)
        return registry

    def merge(self, payload):
        """Fold another registry's ``to_dict`` payload into this one
        (counters add, gauges max, histograms concatenate)."""
        self._absorb(payload, merge=True)

    def clear(self):
        """Drop every family (test isolation)."""
        with self._lock:
            self._families.clear()


_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry():
    """The process-global default registry."""
    return _registry


def reset_registry():
    """Replace the global registry with a fresh one; returns the new
    registry (test isolation — instrumented modules re-resolve
    families on every call, so swapping is safe)."""
    global _registry
    with _registry_lock:
        _registry = MetricsRegistry()
        return _registry


def swap_registry(registry):
    """Install *registry* as the process-global default; returns the
    previous one.  Scoped capture: ``service.jobs.execute_job`` swaps
    in a fresh registry so a job's metric delta can be shipped back to
    the daemon without fork-inherited parent values riding along."""
    global _registry
    with _registry_lock:
        previous = _registry
        _registry = registry
        return previous
