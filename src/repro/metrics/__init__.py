"""``repro.metrics`` — unified metrics registry and exposition.

The observability spine of the reproduction (docs/metrics.md): a
typed, thread-safe :class:`MetricsRegistry` of Counter / Gauge /
Histogram families with label support and lossless
``to_dict``/``from_dict``, instrumented through the hot layers
(runner pool, service scheduler/store, profdb, TLS report folds) and
exposed two ways — the ``metrics`` service verb and the OpenMetrics
HTTP endpoint (``jrpm serve --metrics-port``).
"""

from .instrument import observe_report, observe_report_dict
from .openmetrics import CONTENT_TYPE, lint, render
from .registry import (DEFAULT_BOUNDS, DEFAULT_MAX_SAMPLES,
                       METRICS_SCHEMA_VERSION, Counter, Gauge, Histogram,
                       MetricFamily, MetricsRegistry, enabled,
                       get_registry, reset_registry, set_enabled)
from .http import MetricsHttpServer

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_BOUNDS",
    "DEFAULT_MAX_SAMPLES",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA_VERSION",
    "MetricFamily",
    "MetricsHttpServer",
    "MetricsRegistry",
    "enabled",
    "get_registry",
    "lint",
    "observe_report",
    "observe_report_dict",
    "render",
    "reset_registry",
    "set_enabled",
]
