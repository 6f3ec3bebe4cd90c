"""Execution backends: where chunks of jobs actually run.

A backend is the *mechanism* under the scheduler: it owns worker
lifecycle (spawn, warm-up, teardown) and moves opaque chunk frames to
workers and back.  Everything above it — chunking, ordering, caching,
retry, result rehydration — lives in :mod:`repro.runtime.scheduler`
and is backend-agnostic, which is what makes the pool produce results
byte-identical to serial execution.

There is one backend: more than one worker means :class:`PoolBackend`,
a warm ``ProcessPoolExecutor``; one worker means no backend at all
(jobs run inline in the parent).  :class:`Backend` is the protocol the
scheduler codes against (tests substitute fakes through it).

The worker-side entry point :func:`execute_wire_chunk` decodes a chunk
frame, resolves each job's runner by reference, executes, seals bulk
results into the shared store (the envelope data plane), and returns
per-job :class:`~repro.runtime.job.JobResult` frames plus the chunk's
telemetry spans.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, List, Optional, Tuple

from ..obs.telemetry import (
    capture_begin,
    capture_end,
    pack_spans,
    record_point,
    span_begin,
    span_end,
)
from ..pipeline import ArtifactStore, codec
from .job import JobResult, JobTransportError, resolve_runner

__all__ = [
    "Backend",
    "BackendBroken",
    "BackendUnavailable",
    "PoolBackend",
    "execute_wire_chunk",
    "pool_width",
    "worker_store",
]


class BackendUnavailable(RuntimeError):
    """The backend cannot start in this environment (restricted
    sandbox, missing semaphores).  The scheduler degrades
    to serial execution and records why."""


class BackendBroken(RuntimeError):
    """The backend died mid-flight (worker crash, closed pipe).  The
    scheduler re-executes affected jobs in the parent process."""


# ======================================================================
# Worker-process state
# ======================================================================
# The shared artifact store envelopes travel through, opened once per
# worker process by the backend's initializer.
_WORKER_STORE: Optional[ArtifactStore] = None

# A worker runs gc.collect() between chunks instead of letting the
# cyclic collector interrupt jobs; past this many chunk executions
# without a sweep it collects unconditionally.
_GC_CHUNKS_PER_SWEEP = 4
_worker_chunks_since_gc = 0


def worker_store() -> Optional[ArtifactStore]:
    """This worker process's shared artifact store (``None`` in the
    parent, or when the backend runs without a store)."""
    return _WORKER_STORE


def _worker_init(store_root: Optional[str]) -> None:
    """Warm one worker process: open the shared artifact store and
    resolve the scenario registry once, so individual jobs pay
    neither.

    Also moves garbage collection to chunk boundaries: the parent's
    heap (modules, scenario registry, codec tables) is frozen out of
    the collector's reach — it is effectively immortal in a forked
    worker, and scanning it on every generation-2 pass is the single
    largest fixed tax on job execution — and the automatic collector
    is disabled.  Jobs allocate in bursts; :func:`execute_wire_chunk`
    sweeps cycles explicitly between chunks, where a pause costs
    nothing.

    SIGINT is ignored: a Ctrl-C at the terminal belongs to the parent,
    which cancels outstanding chunks and shuts the backend down
    cleanly — workers must not die mid-chunk with tracebacks.
    """
    global _WORKER_STORE, _worker_chunks_since_gc
    _worker_chunks_since_gc = 0
    _WORKER_STORE = ArtifactStore(store_root) if store_root else None
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    from ..scenarios import registry

    registry.registered_scenarios()
    gc.freeze()
    gc.disable()


# Results whose encoded artifact is smaller than this ride the backend
# pipe inline: below it, a store write + parent read + digest
# check costs more than just shipping the bytes.  Bulk artifacts
# (trace record lists, distillation results) sit far above it.
_ENVELOPE_MIN_BYTES = 4096


def _seal(result: Any, key: str, kind: str) -> JobResult:
    """Encode a result, park it in the worker's shared store, and
    return the envelope.  Small results, results the codec cannot
    frame, and results the store cannot take are returned raw instead
    (the pipe path for this item)."""
    tok = span_begin()
    t0 = time.perf_counter_ns()
    try:
        blob = codec.encode_gz(result)
    except codec.CodecError:
        return JobResult.of(result)
    encode_ns = time.perf_counter_ns() - t0
    span_end(tok, "encode", kind, nbytes=len(blob))
    if len(blob) < _ENVELOPE_MIN_BYTES:
        return JobResult.of(result)
    tok = span_begin()
    try:
        _WORKER_STORE.put_encoded(key, blob, meta={"stage": kind})
    except OSError:
        return JobResult.of(result)
    span_end(tok, "store_write", kind, nbytes=len(blob))
    from .job import ResultEnvelope

    return JobResult.enveloped(ResultEnvelope(
        key=key, digest=codec.content_digest(blob),
        nbytes=len(blob), encode_ns=encode_ns))


def execute_wire_chunk(wire: bytes,
                       telemetry_ctx: Optional[Tuple[str, int]] = None
                       ) -> bytes:
    """Run a chunk of jobs in one backend round-trip.

    ``wire`` is a pickled list of ``(runner_ref, kind, label, payload,
    key)`` tuples.  Returns a pickled ``(results, spans_blob)`` pair:
    per-item :class:`~repro.runtime.job.JobResult` frames aligned with
    the input, plus the chunk's stage spans as one codec frame (or
    ``None`` when telemetry is off).  Pickling is done here, not by
    the backend, so the parent can count the exact bytes that crossed
    the process boundary.

    ``telemetry_ctx`` is ``(sweep_id, submit_ns)``: its presence turns
    span capture on for this chunk, and ``submit_ns`` (the parent's
    wall clock at submission) yields the queue-wait span — clamped at
    zero, since wall clocks across processes may disagree by more than
    a short queue wait.
    """
    chunk_tok = None
    if telemetry_ctx is not None:
        sweep_id, submit_ns = telemetry_ctx
        capture_begin(sweep_id)
        now = time.time_ns()
        record_point("queue", ts=submit_ns, dur=now - submit_ns)
        chunk_tok = span_begin()
    items: List[Tuple[str, str, str, Any, str]] = pickle.loads(wire)
    out: List[JobResult] = []
    for runner_ref, kind, label, payload, key in items:
        tok = span_begin()
        try:
            runner = resolve_runner(runner_ref)
            result = runner(payload)
        except JobTransportError as exc:
            span_end(tok, kind, label, failed=True)
            out.append(JobResult.failed(str(exc)))
            continue
        span_end(tok, kind, label)
        if _WORKER_STORE is not None:
            out.append(_seal(result, key, kind))
        else:
            out.append(JobResult.of(result))
    spans_blob = None
    if telemetry_ctx is not None:
        span_end(chunk_tok, "chunk", f"{len(items)} job(s)")
        spans_blob = codec.encode(pack_spans(capture_end()))
    wire_out = pickle.dumps((out, spans_blob),
                            protocol=pickle.HIGHEST_PROTOCOL)
    global _worker_chunks_since_gc
    if not gc.isenabled():
        _worker_chunks_since_gc += 1
        if _worker_chunks_since_gc >= _GC_CHUNKS_PER_SWEEP:
            _worker_chunks_since_gc = 0
            gc.collect()
    return wire_out


# ======================================================================
# Backends
# ======================================================================
class Backend:
    """The protocol a scheduler backend implements.

    ``start`` receives the store root workers seal results into and
    must raise :class:`BackendUnavailable` if this environment cannot
    host the backend.  ``submit`` takes the opaque chunk frame produced
    by the scheduler and the telemetry context, and returns a future
    resolving to what :func:`execute_wire_chunk` returned in the
    worker; a dead backend surfaces as :class:`BackendBroken` (or
    ``BrokenProcessPool``) either from ``submit`` or from the future.
    ``shutdown(cancel=True)`` additionally drops chunks that have not
    started (the Ctrl-C path).  ``shutdown`` joins the backend's
    threads, so it is never called from one of them.
    """

    name = "backend"

    def start(self, store_root: Optional[str]) -> None:
        raise NotImplementedError

    def pool_size(self) -> int:
        raise NotImplementedError

    def submit(self, wire: bytes,
               telemetry_ctx: Optional[Tuple[str, int]]) -> Future:
        raise NotImplementedError

    def shutdown(self, cancel: bool = False) -> None:
        raise NotImplementedError


def pool_width(workers: int) -> int:
    """How many processes a pool of ``workers`` actually runs.

    Capped at core count + 1: heavy oversubscription cannot finish
    CPU-bound jobs sooner — it only time-slices them, which *stretches
    the longest job* (the sweep's critical path) while cheap work
    drains around it.  One extra worker beyond the core count soaks up
    the slack whenever a sibling blocks on store I/O (the ``make -j
    N+1`` rule).
    """
    workers = max(1, int(workers))
    return min(workers, (os.cpu_count() or workers) + 1)


class PoolBackend(Backend):
    """The warm GC-frozen ``ProcessPoolExecutor``, :func:`pool_width`
    processes wide."""

    name = "pool"

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self._pool: Optional[ProcessPoolExecutor] = None

    def pool_size(self) -> int:
        return pool_width(self.workers)

    def start(self, store_root: Optional[str]) -> None:
        if self._pool is not None:
            return
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self.pool_size(),
                initializer=_worker_init, initargs=(store_root,))
        except (OSError, ValueError, NotImplementedError,
                ImportError) as exc:
            raise BackendUnavailable(
                f"pool unavailable: {type(exc).__name__}: {exc}")

    def submit(self, wire: bytes,
               telemetry_ctx: Optional[Tuple[str, int]]) -> Future:
        if self._pool is None:
            raise BackendBroken("pool backend not started")
        try:
            return self._pool.submit(execute_wire_chunk, wire,
                                     telemetry_ctx)
        except (BrokenProcessPool, OSError, RuntimeError) as exc:
            raise BackendBroken(
                f"process pool broke: {type(exc).__name__}: {exc}")

    def shutdown(self, cancel: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel)
            self._pool = None
