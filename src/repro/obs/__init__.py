"""repro.obs: the unified observability layer.

Three instruments, one wiring point, pluggable sinks:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms,
  plus snapshot-time collectors over counters that already exist as
  plain attributes (docs/OBSERVABILITY.md, "Metrics registry");
* :class:`LifecycleTracer` — per-packet span events at every layer
  boundary, with trace ids shared across clones and fragments;
* :class:`ModulationFidelityAudit` — intended-vs-applied delay/loss
  accounting per quality tuple inside the modulation layer.

:func:`attach_observability` is the only entry point production code
needs: given a world and an :class:`ObsConfig` it returns a
:class:`WorldObservability` (or ``None`` when observability is globally
disabled via :func:`set_enabled`, or no config was passed — the
zero-cost path).
"""

from .audit import ModulationFidelityAudit
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .sinks import (
    chrome_trace,
    read_jsonl,
    render_obs_summary,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .telemetry import (
    LEDGER_SCHEMA,
    RunLedger,
    SweepProgress,
    SweepTelemetry,
    aggregate_profiles,
    fold_records,
    merged_chrome_trace,
    render_profile_table,
    sweep_ledger_record,
    sweep_registry,
)
from .tracer import DEFAULT_SPAN_LIMIT, LifecycleTracer, TracerScope
from .wiring import (
    DELAY_BUCKETS,
    ObsConfig,
    WorldObservability,
    attach_observability,
    enabled,
    set_enabled,
    world_hosts,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LifecycleTracer",
    "TracerScope",
    "DEFAULT_SPAN_LIMIT",
    "ModulationFidelityAudit",
    "ObsConfig",
    "WorldObservability",
    "DELAY_BUCKETS",
    "attach_observability",
    "enabled",
    "set_enabled",
    "world_hosts",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "render_obs_summary",
    "LEDGER_SCHEMA",
    "RunLedger",
    "SweepProgress",
    "SweepTelemetry",
    "aggregate_profiles",
    "fold_records",
    "merged_chrome_trace",
    "render_profile_table",
    "sweep_ledger_record",
    "sweep_registry",
]
