"""One invocation of a workload, in a fresh process (started by run.py).

``python3 perfbench/child.py e2e <workload> <seed> <workers>``
    set up like a CLI invocation (import, resolve, compensation, start
    the pool), run the workload once on the pool with tracing off, and
    report times, CPU, memory and the verdict.

``python3 perfbench/child.py trace <workload> <seed> <workers>``
    the traced leg: an untraced serial run, a traced serial run (spans,
    counters, sampling profile) and a pool run; the three outputs must
    be byte-identical.  The two serial walls are scaled to the host
    speed of the first reference run.  Reports the per-layer metrics.

``python3 perfbench/child.py setup <workload> <seed> <workers>``
    set up as ``e2e`` does, then stop: one more set-up time sample.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def setup(workload: str, seed: int, workers: int) -> dict:
    import workloads

    workloads.prepare(workload, seed)
    exe = workloads.executor(workers)
    setup_done = time.time()
    exe.shutdown()
    return {"setup_done": setup_done}


def e2e(workload: str, seed: int, workers: int) -> dict:
    import workloads

    prep = workloads.prepare(workload, seed)
    exe = workloads.executor(workers)
    setup_done = time.time()
    cpu0 = _cpu(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    outcome = workloads.run(prep, exe)
    wall = time.perf_counter() - t0
    cpu_parent = _cpu(resource.RUSAGE_SELF) - cpu0
    exe.shutdown()           # reaps the workers: their CPU becomes visible
    return {
        "setup_done": setup_done,
        "wall_s": wall,
        "cpu_s": cpu_parent + _cpu(resource.RUSAGE_CHILDREN),
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "sigma_cells": outcome.sigma_cells,
        "sigma_pass": outcome.sigma_pass,
        "sha256": outcome.sha256,
        "workers_used": outcome.transport.get("workers"),
    }


def _reference_s() -> float:
    """Seconds of one reference task in this process (one core, like
    the serial legs it calibrates)."""
    import reference

    t0 = time.perf_counter()
    reference.task()
    return time.perf_counter() - t0


def trace(workload: str, seed: int, workers: int) -> dict:
    import layers
    import metrics
    import workloads
    from spans import Patches, Sampler

    prep = workloads.prepare(workload, seed)
    serial = workloads.executor(1)

    probes = [_reference_s()]
    t0 = time.perf_counter()
    plain = workloads.run(prep, serial)
    serial_wall = time.perf_counter() - t0
    probes.append(_reference_s())

    tracer = layers.LayerTrace(workload)
    sampler = Sampler()
    tracer.install()
    try:
        sampler.start()
        t0 = time.perf_counter()
        traced = workloads.run(prep, serial, records=True)
        traced_wall = time.perf_counter() - t0
    finally:
        sampler.stop()
        tracer.restore()
    serial.shutdown()
    probes.append(_reference_s())
    # Both serial legs at the same nominal host speed, so that
    # bench.trace_overhead compares like with like.
    serial_wall *= metrics.host_speed(probes[0:2], probes[0])
    traced_wall *= metrics.host_speed(probes[1:3], probes[0])

    pool_calls: dict = {}
    patches = Patches()
    exe = workloads.executor(workers)
    layers.count_pool_calls(patches, pool_calls)
    try:
        cpu0 = _cpu(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        pooled = workloads.run(prep, exe)
        pool_wall = time.perf_counter() - t0
        cpu = _cpu(resource.RUSAGE_SELF) - cpu0
        exe.shutdown()
        cpu += _cpu(resource.RUSAGE_CHILDREN)
    finally:
        patches.restore()

    errors = list(pooled.errors)
    for label, other in (("untraced serial", plain), ("traced serial", traced)):
        errors.extend(f"{label}: {e}" for e in other.errors)
        if other.sha256 != pooled.sha256:
            errors.append(f"{label} output differs from the pool run's")
    per_layer = layers.layer_metrics(
        workload, tracer, sampler, traced_wall, serial_wall,
        {"transport": pooled.transport, "jobs": pool_calls.get("jobs", 0),
         "chunks": pool_calls.get("chunks", 0), "cpu_s": cpu,
         "wall_s": pool_wall, "workers": workers})
    return {
        "metrics": per_layer,
        "attempted": plain.attempted + traced.attempted + pooled.attempted,
        "failed": plain.failed + traced.failed + pooled.failed,
        "errors": errors,
        "sha256": pooled.sha256,
        "spans": len(tracer.recorder.spans),
        "samples": sampler.samples,
        "probes": probes,
        "layer_groups": layers.layer_groups(tracer.recorder),
    }


def main(argv) -> int:
    mode, workload, seed, workers = argv[0], argv[1], int(argv[2]), \
        int(argv[3])
    leg = {"setup": setup, "e2e": e2e, "trace": trace}[mode]
    result = leg(workload, seed, workers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
