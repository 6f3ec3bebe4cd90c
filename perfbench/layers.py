"""Per-layer metrics for the traced run.

:class:`LayerTrace` wraps the public entry points of each layer in
spans (see :mod:`spans`) and harvests the counters the program already
exposes: the ``ObsConfig(metrics=True)`` record every trial returns
(``Simulator.stats()``, host, device, IP and kernel counters, medium
frame counts) and, for the pool leg, ``Scheduler.transport_stats()``.
:func:`layer_metrics` reduces spans, records and samples to the
per-layer metric names listed in :data:`PER_LAYER`.

Phase times (``core.collect_s``, ``core.live_s``, ...) are the phase
spans' durations: each phase's own time plus the engine runs it
started.  ``hosts.world_build_s`` is the phases' self time outside
those engine runs (world construction, cross traffic, servers).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import metrics
from spans import (Patches, Sampler, SpanRecorder, patch_function,
                   patch_method, self_times, spanned)

# Module groups of the sampling profile: each repro sub-package that is
# a layer, the applications, the validation harness; everything else
# (stdlib, numpy, import machinery, other repro modules, this
# benchmark) is "other".
PROFILE_GROUPS = ("sim", "net", "protocols", "hosts", "core", "pipeline",
                  "runtime", "obs", "check", "scenarios", "apps",
                  "validation")

# The spans that are one trial each.
PHASES = ("core.collect", "core.live", "core.modulated", "core.ethernet")

# The layer group whose self time each workload was chosen to stress.
FOCUS = {"web_fig6": "core.live+modulated",
         "andrew_nfs": "core.collect",
         "fuzz_check": "pipeline.codec"}

# (name, unit, better) of every per-layer metric.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.events_fired", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.run_s", "s", "lower"),
    ("sim.cancel_ratio", "ratio", "lower"),
    ("net.frames", "count", "lower"),
    ("net.bytes_per_frame", "B", "higher"),
    ("net.frame_loss_ratio", "ratio", "lower"),
    ("net.queue_drops", "count", "lower"),
    ("protocols.ip_datagrams", "count", "lower"),
    ("protocols.fragments", "count", "lower"),
    ("protocols.reassembly_timeouts", "count", "lower"),
    ("hosts.callouts_fired", "count", "lower"),
    ("hosts.rounded_callouts", "count", "lower"),
    ("hosts.world_build_s", "s", "lower"),
    ("core.collect_s", "s", "lower"),
    ("core.collect_records", "count", "lower"),
    ("core.distill_s", "s", "lower"),
    ("core.distill_tuples", "count", "lower"),
    ("core.live_s", "s", "lower"),
    ("core.modulated_s", "s", "lower"),
    ("core.ethernet_s", "s", "lower"),
    ("core.modulated_packets", "count", "lower"),
    ("core.trial_ms_p50", "ms", "lower"),
    ("core.trial_ms_tail", "ms", "lower"),
    ("core.trial_tail_pct", "%", "higher"),
    ("core.trial_samples", "count", "higher"),
    ("pipeline.encode_s", "s", "lower"),
    ("pipeline.decode_s", "s", "lower"),
    ("pipeline.encoded_bytes", "B", "lower"),
    ("pipeline.artifacts", "count", "lower"),
    ("pipeline.hit_ratio", "ratio", "higher"),
    ("pipeline.fingerprint_s", "s", "lower"),
    ("runtime.dispatch_s", "s", "lower"),
    ("runtime.ipc_bytes", "B", "lower"),
    ("runtime.jobs", "count", "lower"),
    ("runtime.chunks", "count", "lower"),
    ("runtime.fallbacks", "count", "lower"),
    ("runtime.busy_frac", "ratio", "higher"),
    ("obs.spans", "count", "lower"),
    ("check.monitor_s", "s", "lower"),
    ("check.violations", "count", "lower"),
    ("scenarios.generate_s", "s", "lower"),
    *[(f"{g}.self_s", "s", "lower") for g in PROFILE_GROUPS + ("other",)],
    ("bench.profile_overhead", "ratio", "lower"),
    ("bench.serial_wall_s", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.focus_rank", "rank", "lower"),
]


def profile_group(module: str) -> str:
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in PROFILE_GROUPS:
        return parts[1]
    return "other"


def _trial_id(workload: str, scenario: str, seed, trial, kind: str) -> str:
    return f"{workload}:{scenario}:{seed}:{trial}:{kind}"


class LayerTrace:
    """Spans around each layer's public entry points, plus the counters
    harvested from the trial records those calls return."""

    def __init__(self, workload: str):
        self.workload = workload
        self.recorder = SpanRecorder()
        self.records: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = {}
        self._patches = Patches()

    def _count(self, key: str, n: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + n

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        from repro.check import invariants
        from repro.core.distill import Distiller
        from repro.pipeline import codec, fingerprint
        from repro.pipeline.store import ArtifactStore
        from repro.scenarios import generate
        from repro.sim.engine import Simulator
        from repro.validation import harness

        rec, wl, p = self.recorder, self.workload, self._patches

        def trial(kind, seed_at):
            # (scenario or replay, ..., seed, trial, ...): every trial
            # entry point takes these positionally.
            return lambda *a, **k: _trial_id(wl, a[0].name, a[seed_at],
                                             a[seed_at + 1], kind)

        def after_collect(result, args, kwargs):
            self._count("collect_records", len(result))
            obs_out = kwargs.get("obs_out")
            if obs_out and obs_out.get("record") is not None:
                self.records.append(_slim(obs_out["record"]))

        def after_trial(result, args, kwargs):
            if isinstance(result, dict) and result.get("__obs__"):
                self.records.append(_slim(result["__obs__"]))

        wraps = [
            (harness.collect_trace, "core.collect", trial("collect", 1),
             after_collect),
            (harness.run_live_trial, "core.live", trial("live", 2),
             after_trial),
            (harness.run_modulated_trial, "core.modulated",
             trial("modulated", 2), after_trial),
            (harness.run_ethernet_trial, "core.ethernet",
             lambda *a, **k: _trial_id(wl, "ethernet", a[1], a[2],
                                       "ethernet"), after_trial),
            (codec.encode_gz, "pipeline.encode", None,
             lambda r, a, k: (self._count("encoded_bytes", len(r)),
                              self._count("artifacts"))),
            (codec.decode_gz, "pipeline.decode", None, None),
            (fingerprint.digest, "pipeline.fingerprint", None, None),
            (invariants.run_monitors, "check.monitors", None,
             lambda r, a, k: self._count("violations", len(r))),
        ]
        for fn, name, trial_of, after in wraps:
            patch_function(p, fn, spanned(rec, name, fn, trial_of, after))

        gen = generate.generate_specs

        def listed_specs(*a, **k):
            return iter(list(gen(*a, **k)))
        patch_function(p, gen, spanned(rec, "scenarios.generate",
                                       listed_specs))

        patch_method(p, Simulator, "run",
                     lambda fn: spanned(rec, "sim.run", fn))
        patch_method(p, Distiller, "distill",
                     lambda fn: spanned(
                         rec, "core.distill", fn,
                         after=lambda r, a, k: self._count(
                             "distill_tuples", len(r.replay))))
        patch_method(p, ArtifactStore, "get",
                     lambda fn: spanned(
                         rec, "pipeline.get", fn,
                         after=lambda r, a, k: (self._count("gets"),
                                                self._count("hits", r[0]))))
        patch_method(p, ArtifactStore, "put",
                     lambda fn: spanned(rec, "pipeline.put", fn))

    def restore(self) -> None:
        self._patches.restore()


def _slim(record: Dict[str, Any]) -> Dict[str, Any]:
    """The parts of a trial record the metrics read (drops span lists)."""
    return {"kind": record.get("kind"),
            "engine": record.get("engine", {}),
            "hosts": record.get("hosts", {}),
            "collected": record.get("metrics", {}).get("collected", {}),
            "spans": record.get("trace", {}).get("spans_recorded", 0)}


def record_counters(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Sum the sim/net/protocols/hosts counters over trial records."""
    c: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        c[key] = c.get(key, 0.0) + value

    for r in records:
        eng = r["engine"]
        add("events_fired", eng.get("events_fired", 0))
        add("events_scheduled", eng.get("events_scheduled", 0))
        add("events_cancelled", eng.get("events_cancelled", 0))
        for key, value in r["collected"].items():
            if key.endswith(".frames_carried"):
                add("frames", value)
            elif key.endswith(".frames_lost"):
                add("frames_lost", value)
            elif key in ("modulation.out_packets", "modulation.in_packets"):
                add("modulated_packets", value)
        for host in r["hosts"].values():
            for dev in host.get("devices", []):
                add("tx_packets", dev.get("tx_packets", 0))
                add("tx_bytes", dev.get("tx_bytes", 0))
                add("queue_drops", dev.get("queue", {}).get("dropped", 0))
            ip = host.get("ip", {})
            add("ip_datagrams", ip.get("sent", 0))
            add("fragments", ip.get("fragments_sent", 0))
            add("reassembly_timeouts", ip.get("reassembly_timeouts", 0))
            kernel = host.get("kernel", {})
            add("callouts_fired", kernel.get("callouts_fired", 0))
            add("rounded_callouts", kernel.get("rounded_callouts", 0))
        add("obs_spans", r["spans"])
    return c


def span_totals(recorder: SpanRecorder) -> Dict[str, Any]:
    """Per span name: total duration and total self time; the phase
    trials' durations; and phase self time outside engine runs."""
    spans = recorder.spans
    selfs = self_times(spans)
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    trial_ms: List[float] = []
    for span, self_s in zip(spans, selfs):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_s
        if span.name in PHASES:
            trial_ms.append(span.duration * 1e3)
    return {"total": total, "self": own, "trial_ms": trial_ms}


def layer_groups(recorder: SpanRecorder) -> Dict[str, float]:
    """Disjoint self-time groups: each span's self time goes to its own
    group, except an engine run's, which goes to the phase (or other
    span) that started it.  The focus check ranks these."""
    spans = recorder.spans
    selfs = self_times(spans)
    groups: Dict[str, float] = {}
    for span, self_s in zip(spans, selfs):
        name = span.name
        if name == "sim.run" and span.parent is not None:
            name = spans[span.parent].name
        group = {"core.live": "core.live+modulated",
                 "core.modulated": "core.live+modulated",
                 "pipeline.encode": "pipeline.codec",
                 "pipeline.decode": "pipeline.codec"}.get(name, name)
        groups[group] = groups.get(group, 0.0) + self_s
    return groups


def layer_metrics(workload: str, trace: LayerTrace, sampler: Sampler,
                  traced_wall: float, serial_wall: float,
                  pool: Dict[str, Any]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced run.

    ``pool`` holds the pool leg's ``transport`` stats, ``jobs``,
    ``chunks``, ``cpu_s``, ``wall_s`` and ``workers``.
    """
    c = record_counters(trace.records)
    counts = trace.counts
    st = span_totals(trace.recorder)
    total, own = st["total"], st["self"]
    tails = metrics.tail_summary(st["trial_ms"])
    phase_self = sum(own.get(name, 0.0) for name in PHASES)
    run_s = total.get("sim.run", 0.0)
    transport = pool["transport"]
    groups = layer_groups(trace.recorder)
    order = metrics.ranks(groups)
    focus = FOCUS[workload]
    out: Dict[str, float] = {
        "sim.events_fired": c.get("events_fired", 0.0),
        "sim.events_per_s": metrics.ratio(c.get("events_fired", 0.0), run_s),
        "sim.run_s": run_s,
        "sim.cancel_ratio": metrics.ratio(c.get("events_cancelled", 0.0),
                                          c.get("events_scheduled", 0.0)),
        "net.frames": c.get("frames", 0.0),
        "net.bytes_per_frame": metrics.ratio(c.get("tx_bytes", 0.0),
                                             c.get("tx_packets", 0.0)),
        "net.frame_loss_ratio": metrics.ratio(c.get("frames_lost", 0.0),
                                              c.get("frames", 0.0)),
        "net.queue_drops": c.get("queue_drops", 0.0),
        "protocols.ip_datagrams": c.get("ip_datagrams", 0.0),
        "protocols.fragments": c.get("fragments", 0.0),
        "protocols.reassembly_timeouts": c.get("reassembly_timeouts", 0.0),
        "hosts.callouts_fired": c.get("callouts_fired", 0.0),
        "hosts.rounded_callouts": c.get("rounded_callouts", 0.0),
        "hosts.world_build_s": phase_self,
        "core.collect_s": total.get("core.collect", 0.0),
        "core.collect_records": counts.get("collect_records", 0.0),
        "core.distill_s": total.get("core.distill", 0.0),
        "core.distill_tuples": counts.get("distill_tuples", 0.0),
        "core.live_s": total.get("core.live", 0.0),
        "core.modulated_s": total.get("core.modulated", 0.0),
        "core.ethernet_s": total.get("core.ethernet", 0.0),
        "core.modulated_packets": c.get("modulated_packets", 0.0),
        "core.trial_ms_p50": tails["p50"],
        "core.trial_ms_tail": tails["tail"],
        "core.trial_tail_pct": tails["tail_pct"],
        "core.trial_samples": float(tails["n"]),
        "pipeline.encode_s": total.get("pipeline.encode", 0.0),
        "pipeline.decode_s": total.get("pipeline.decode", 0.0),
        "pipeline.encoded_bytes": counts.get("encoded_bytes", 0.0),
        "pipeline.artifacts": counts.get("artifacts", 0.0),
        "pipeline.hit_ratio": metrics.ratio(counts.get("hits", 0.0),
                                            counts.get("gets", 0.0)),
        "pipeline.fingerprint_s": own.get("pipeline.fingerprint", 0.0),
        "runtime.dispatch_s": transport.get("dispatch_ns", 0) / 1e9,
        "runtime.ipc_bytes": float(transport.get("ipc_bytes_sent", 0)
                                   + transport.get("ipc_bytes_recv", 0)),
        "runtime.jobs": float(pool["jobs"]),
        "runtime.chunks": float(pool["chunks"]),
        "runtime.fallbacks": float(transport.get("serial_fallbacks", 0)),
        "runtime.busy_frac": metrics.ratio(
            pool["cpu_s"], pool["workers"] * pool["wall_s"]),
        "obs.spans": c.get("obs_spans", 0.0),
        "check.monitor_s": total.get("check.monitors", 0.0),
        "check.violations": counts.get("violations", 0.0),
        "scenarios.generate_s": total.get("scenarios.generate", 0.0),
        "bench.profile_overhead": metrics.ratio(sampler.overhead_s,
                                                traced_wall),
        "bench.serial_wall_s": serial_wall,
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead": metrics.ratio(traced_wall - serial_wall,
                                              serial_wall),
        "bench.focus_rank": float(order.index(focus) + 1
                                  if focus in order else len(order) + 1),
    }
    by_group = {g: 0.0 for g in PROFILE_GROUPS + ("other",)}
    for module, seconds in sampler.by_module.items():
        by_group[profile_group(module)] += seconds
    for group, seconds in by_group.items():
        out[f"{group}.self_s"] = seconds
    return out


def count_pool_calls(patches: Patches, counts: Dict[str, int]) -> None:
    """Count jobs submitted to the scheduler and chunks handed to the
    pool backend (the pool leg; no spans)."""
    from repro.runtime.backends import PoolBackend
    from repro.runtime.scheduler import Scheduler

    def counting(key, size):
        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] = counts.get(key, 0) + size(args)
                return fn(*args, **kwargs)
            return wrapper
        return make

    patch_method(patches, Scheduler, "submit_jobs",
                 counting("jobs", lambda a: len(a[1])))
    patch_method(patches, PoolBackend, "submit",
                 counting("chunks", lambda a: 1))

