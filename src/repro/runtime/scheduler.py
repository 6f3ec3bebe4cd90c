"""The scheduler: deterministic, order-preserving job execution.

Everything backend-agnostic lives here — the logic that used to be
interleaved with trial code in ``validation/parallel.py``:

* **cache-first submission** — fingerprinted jobs are looked up in the
  attached :class:`~repro.pipeline.Pipeline` before they are submitted
  (a hit returns an already-resolved future without touching the
  backend), and computed results are stored as they land;
* **work-stealing dispatch** — chunks are not assigned up front: a
  cost-ordered heap holds pending work and a bounded number of chunks
  is kept in flight; each completion pulls the next chunk off the
  heap, with the chunk size re-derived from what is *left* (adaptive:
  a draining sweep sends smaller chunks so the tail stays parallel).
  Cheap jobs travel together in one backend round-trip, expensive ones
  travel alone, longest first;
* **ordering guarantees** — futures align index-for-index with the
  submitted batch, and results are read in submission order, never in
  completion order;
* **retry on backend break** — a dead pool drops the
  scheduler to in-process execution of the affected jobs (and every
  later submission) with the reason recorded, never a wrong result;
* **result rehydration** — envelopes coming back from workers are
  decoded from the shared store with digest verification, and any
  integrity problem falls back to recomputation;
* **interrupt teardown** — a ``KeyboardInterrupt`` while gathering
  results cancels outstanding chunks and shuts the backend down
  cleanly before propagating (the CLI turns it into exit 130).

The determinism contract is inherited from the jobs themselves: for
any worker count and every fallback path,
results are byte-identical to serial execution because every job is
executed by the same pure runner with the same payload, the codec
round-trip is exact, and results are reassembled in submission order.
The only freedom the pool has is *wall-clock* completion order, which
is never observed.

:class:`Scheduler` exposes the generic surface (``submit_jobs`` /
``map_jobs``); workload-specific executors — e.g.
:class:`repro.validation.parallel.TrialExecutor` — subclass it and add
typed submission methods that build :class:`~repro.runtime.job.Job`
objects.
"""

from __future__ import annotations

import heapq
import math
import os
import pickle
import shutil
import tempfile
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.registry import MetricsRegistry
from ..obs.telemetry import SweepProgress, SweepTelemetry, unpack_spans
from ..pipeline import ArtifactStore, Pipeline, codec
from .backends import (
    Backend,
    BackendBroken,
    BackendUnavailable,
    PoolBackend,
    pool_width,
)
from .job import Job, JobResult, ResultEnvelope, resolve_runner

__all__ = [
    "CHUNK_THRESHOLD",
    "JobFuture",
    "Scheduler",
    "default_workers",
]

# Jobs whose cost hint is below this travel together in one chunked
# backend submission; everything above it gets a worker to itself.
# Affects scheduling only, never results.
CHUNK_THRESHOLD = 100.0


def default_workers() -> int:
    """Worker count used when the caller does not pin one."""
    return os.cpu_count() or 1


def _stamp_sweep(payload: Any, sweep_id: str) -> Any:
    """Stamp a sweep id onto a wire payload that wants one (has a
    ``sweep_id`` field currently ``None``).  Generic so any job kind's
    worker-side spans can carry the sweep they belong to."""
    if getattr(payload, "sweep_id", False) is None:
        try:
            return replace(payload, sweep_id=sweep_id)
        except TypeError:
            return payload
    return payload


def run_job_inline(job: Job) -> Any:
    """Execute a job in the current process (the serial / fallback
    path): resolve its runner and apply it to the in-process payload."""
    return resolve_runner(job.runner)(job.payload)


class _ChunkHandle:
    """One in-flight chunk: the backend future plus a decode-once
    cache, shared by every :class:`JobFuture` whose job rode in it."""

    __slots__ = ("future", "_payload")

    def __init__(self, future):
        self.future = future
        self._payload = None

    def payload(self, scheduler: Optional["Scheduler"]) -> List[JobResult]:
        if self._payload is None:
            raw = self.future.result()
            if scheduler is not None:
                scheduler.metrics.counter(
                    "executor.ipc_bytes_recv").inc(len(raw))
            payloads, spans_blob = pickle.loads(raw)
            if spans_blob is not None and scheduler is not None \
                    and scheduler.telemetry is not None:
                try:
                    scheduler.telemetry.extend(
                        unpack_spans(codec.decode(spans_blob)))
                except codec.CodecError:
                    pass  # telemetry loss must never fail a job
            self._payload = payloads
        return self._payload


class _Slot:
    """One pending job's place in the work-stealing dispatch.

    A slot is created at submission time, *before* the job is assigned
    to any chunk; the pump binds it to a :class:`_ChunkHandle` (plus
    the job's index inside that chunk) when a worker actually pulls
    the chunk — or marks it ``inline`` when the job must run in the
    parent instead (unpicklable chunk, broken backend, cancel).  The
    ``event`` is set exactly once, at binding, so a reader blocked in
    :meth:`JobFuture.result` wakes the moment the job's fate is known.
    """

    __slots__ = ("job", "event", "handle", "chunk_index", "inline")

    def __init__(self, job: Job):
        self.job = job
        self.event = threading.Event()
        self.handle: Optional[_ChunkHandle] = None
        self.chunk_index = 0
        self.inline = False

    def bind(self, handle: _ChunkHandle, chunk_index: int) -> None:
        self.handle = handle
        self.chunk_index = chunk_index
        self.event.set()

    def release_inline(self) -> None:
        self.inline = True
        self.event.set()


class JobFuture:
    """Result handle for one submitted job.

    In serial mode the job runs lazily on the first ``result()`` call;
    on a backend it indexes into its chunk's payload and, if the
    backend broke, the chunk would not pickle, or an envelope cannot
    be rehydrated, recomputes the job in-process (recording why on the
    scheduler).  Either way ``result()`` returns exactly what
    ``runner(payload)`` returns, so the fallback paths cannot change
    any result.

    A future may instead be born *resolved* with a cached artifact
    (``value=``), or carry a ``pipeline`` that accounts the computed
    result under the job's fingerprint the moment it lands — before
    the caller can mutate it.  ``store_key``, when set, names the
    shared-store artifact holding this result (callers use it to pass
    bulk inputs to downstream jobs by reference).

    Under work-stealing dispatch a future starts with a ``slot``
    instead of a chunk handle; reading it waits for the pump to bind
    the slot (workers pull chunks as they free up), then proceeds
    exactly as before.
    """

    _UNSET = object()

    def __init__(self, job: Job, future: Optional[_ChunkHandle] = None,
                 scheduler: Optional["Scheduler"] = None,
                 value=_UNSET, pipeline: Optional[Pipeline] = None,
                 chunk_index: int = 0, store_key: Optional[str] = None,
                 slot: Optional[_Slot] = None):
        self.job = job
        self._future = future
        self._scheduler = scheduler
        self._result = value
        self._pipeline = pipeline
        self._chunk_index = chunk_index
        self.store_key = store_key
        self._slot = slot

    def result(self):
        try:
            return self._resolve()
        except KeyboardInterrupt:
            # Ctrl-C while gathering: cancel outstanding chunks and
            # tear the backend down cleanly before propagating (the
            # CLI maps this to exit 130).
            if self._scheduler is not None:
                self._scheduler.cancel()
            raise

    def _resolve(self):
        if self._result is not self._UNSET:
            return self._result
        if self._slot is not None:
            slot = self._slot
            if not slot.event.is_set() and self._scheduler is not None:
                # Make sure dispatch is progressing (a no-op when the
                # in-flight window is already full), then wait for a
                # worker to pull this job's chunk.
                self._scheduler._pump()
            slot.event.wait()
            if slot.handle is not None:
                self._future = slot.handle
                self._chunk_index = slot.chunk_index
            self._slot = None
        value = self._UNSET
        stored_remotely = False
        if self._future is not None:
            payload = None
            try:
                payload = self._future.payload(self._scheduler)
            except (BrokenProcessPool, BackendBroken, pickle.PickleError,
                    OSError) as exc:
                if self._scheduler is not None:
                    self._scheduler._mark_broken(exc)
            if payload is not None:
                item: JobResult = payload[self._chunk_index]
                if item.failure is not None:
                    if self._scheduler is not None:
                        self._scheduler._note_fallback(
                            f"worker transport: {item.failure.reason}")
                elif item.envelope is not None:
                    value = self._rehydrate(item.envelope)
                    if value is not self._UNSET:
                        self.store_key = item.envelope.key
                        stored_remotely = (
                            self._scheduler is not None
                            and self._scheduler._ipc_shared
                            and item.envelope.key == self.job.fingerprint)
                elif item.has_value:
                    value = item.value
        if value is self._UNSET:
            sched = self._scheduler
            telemetry = sched.telemetry if sched is not None else None
            if telemetry is not None:
                tok = telemetry.begin()
                value = run_job_inline(self.job)
                telemetry.end(tok, self.job.kind, self.job.span_label(),
                              fallback=self._future is not None)
            else:
                value = run_job_inline(self.job)
            if self._future is None and sched is not None \
                    and sched.progress is not None:
                sched.progress.completed()
        self._result = value
        if self._pipeline is not None and self.job.fingerprint is not None:
            if stored_remotely:
                # The worker already wrote the artifact into the
                # pipeline's own store; just account for the miss.
                self._pipeline.record_remote(self.job.fingerprint,
                                             stage=self.job.kind)
            else:
                self._pipeline.store_result(self.job.fingerprint, value,
                                            stage=self.job.kind)
        return self._result

    def _rehydrate(self, env: ResultEnvelope):
        """Decode an envelope's artifact from the shared store; on any
        integrity problem return ``_UNSET`` so the caller recomputes."""
        sched = self._scheduler
        store = sched._ipc_store if sched is not None else None
        if store is None:
            return self._UNSET
        t0 = time.perf_counter_ns()
        found, blob = store.raw_get(env.key)
        if not found or codec.content_digest(blob) != env.digest:
            sched._note_fallback(f"envelope {env.key[:12]}...: artifact "
                                 f"missing or digest mismatch")
            return self._UNSET
        try:
            value = codec.decode_gz(blob)
        except codec.CodecError as exc:
            sched._note_fallback(f"envelope {env.key[:12]}...: {exc}")
            return self._UNSET
        elapsed = time.perf_counter_ns() - t0
        metrics = sched.metrics
        metrics.counter("executor.rehydrate_ns").inc(elapsed)
        metrics.counter("executor.envelope_count").inc()
        metrics.counter("executor.artifact_bytes").inc(env.nbytes)
        metrics.counter("executor.encode_ns").inc(env.encode_ns)
        if sched.telemetry is not None:
            sched.telemetry.point("rehydrate", self.job.span_label(),
                                  dur=elapsed, nbytes=env.nbytes)
        return value


class Scheduler:
    """Order-preserving job execution with a backend under it.

    ``workers > 1`` runs jobs on the warm process pool; ``workers=1``
    runs them in process, with no backend.  ``workers=None`` sizes the
    pool to the machine.  A pool that cannot start (restricted
    sandboxes, missing semaphores) degrades to in-process serial
    execution of the very same runner calls.  The pool hands bulk
    results back through a shared store (small ones ride the pipe).
    ``submit_jobs`` returns futures aligned index-for-index with the
    batch; ``map_jobs`` reads them in submission order regardless of
    completion order — which is what makes parallel runs bit-identical
    to serial ones.

    Usable as a context manager; the backend is created lazily on the
    first parallel submission and reused across phases and batches so
    worker startup is paid once per run, not once per phase.

    With a ``pipeline`` attached, fingerprinted jobs are looked up in
    its artifact store at submission time and computed results are
    stored as they land.  Caching cannot change results: artifacts are
    keyed by the same inputs that determine the job's output, and
    cached values round-trip through the binary codec so callers get
    fresh copies.

    Every degradation (broken backend, unpicklable job, unreadable
    envelope) is counted in :attr:`metrics` and the first reason kept
    in :attr:`fallback_reason` — the scheduler never falls back
    silently.
    """

    def __init__(self, workers: Optional[int] = None,
                 pipeline: Optional[Pipeline] = None):
        self.workers = (default_workers() if workers is None
                        else max(1, int(workers)))
        self.pipeline = pipeline
        self.metrics = MetricsRegistry()
        self.fallback_reason: Optional[str] = None
        # Every distinct fallback reason, in first-seen order (capped);
        # `fallback_reason` keeps only the first for compatibility.
        self.fallback_reasons: List[str] = []
        self.pool_broken = False
        # Sweep-scope hooks: a SweepTelemetry makes workers ship stage
        # spans back with each chunk; a SweepProgress gets completion
        # events.  Both None by default — the zero-cost path.
        self.telemetry: Optional[SweepTelemetry] = None
        self.progress: Optional[SweepProgress] = None
        if pipeline is not None:
            self.metrics.add_collector(pipeline.collector(), key="pipeline")
        self._backend: Optional[Backend] = None
        self._serial_fallback = self.workers <= 1
        self._transport_used = "serial"
        self._ipc_store: Optional[ArtifactStore] = None
        self._ipc_root: Optional[str] = None
        self._ipc_tmp: Optional[str] = None
        self._ipc_shared = False
        self._seq = 0
        # Work-stealing dispatch state: a cost-ordered heap of pending
        # (job, slot) entries, pumped into the backend with a bounded
        # in-flight window.  The pump lock serializes dispatch; the
        # repump flag lets a contending thread hand its pump request to
        # the current holder instead of blocking (completion callbacks
        # run on backend threads and must never block here).
        self._pending: List[Tuple[float, int, Job, _Slot]] = []
        self._pump_lock = threading.Lock()
        self._inflight_lock = threading.Lock()
        self._repump = False
        self._inflight = 0
        self._heap_seq = 0

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        self._close_backend()
        if self._ipc_tmp is not None:
            shutil.rmtree(self._ipc_tmp, ignore_errors=True)
            self._ipc_tmp = None
            self._ipc_store = None
            self._ipc_root = None

    def cancel(self) -> None:
        """Interrupt teardown: stop submitting, drop chunks that have
        not started, and shut the backend down cleanly.  Jobs already
        running in a worker finish (workers ignore SIGINT) but their
        results are never read."""
        self._serial_fallback = True
        self._flush_pending_inline()
        backend, self._backend = self._backend, None
        if backend is not None:
            backend.shutdown(cancel=True)

    def _close_backend(self) -> None:
        self._flush_pending_inline()
        backend, self._backend = self._backend, None
        if backend is not None:
            backend.shutdown()

    def _flush_pending_inline(self) -> None:
        """Release every not-yet-dispatched slot to the in-process
        path, so no reader can block on a chunk that will never be
        pulled."""
        with self._pump_lock:
            pending, self._pending = self._pending, []
        for _cost, _seq, _job, slot in pending:
            slot.release_inline()

    def _mark_broken(self, exc: Optional[BaseException] = None,
                     join: bool = True) -> None:
        """Drop to serial for every later submission (backend died).

        ``join=False`` is for a break noticed on one of the backend's
        own threads (a completion callback): it records the break and
        releases every pending slot, but leaves the backend for the
        reading thread or :meth:`shutdown` to close — shutting a pool
        down joins the very thread the callback runs on."""
        reason = "process pool broke"
        if exc is not None:
            if isinstance(exc, BackendBroken):
                reason = str(exc)
            else:
                reason = f"process pool broke: {type(exc).__name__}: {exc}"
        self.pool_broken = True
        self._note_fallback(reason)
        self._serial_fallback = True
        if join:
            self._close_backend()
        else:
            self._flush_pending_inline()

    def _note_fallback(self, reason: str) -> None:
        """Count one in-process fallback; keep every distinct reason."""
        self.metrics.counter("executor.serial_fallbacks").inc()
        if self.fallback_reason is None:
            self.fallback_reason = reason
        if reason not in self.fallback_reasons \
                and len(self.fallback_reasons) < 16:
            self.fallback_reasons.append(reason)
        if self.telemetry is not None:
            self.telemetry.point("fallback", reason)

    @property
    def effective_workers(self) -> int:
        """1 when running serially, else the configured worker count."""
        return 1 if self._serial_fallback else self.workers

    @property
    def transport_used(self) -> str:
        """``"serial"`` until the pool carries work, then ``"pool"``."""
        return self._transport_used

    def transport_stats(self) -> Dict[str, Any]:
        """Snapshot of the scheduler's data-plane counters."""
        metrics = self.metrics
        return {
            "transport": self._transport_used,
            "workers": self.effective_workers,
            "envelope_count":
                metrics.counter("executor.envelope_count").value,
            "ipc_bytes_sent":
                metrics.counter("executor.ipc_bytes_sent").value,
            "ipc_bytes_recv":
                metrics.counter("executor.ipc_bytes_recv").value,
            "artifact_bytes":
                metrics.counter("executor.artifact_bytes").value,
            "encode_ns": metrics.counter("executor.encode_ns").value,
            "rehydrate_ns": metrics.counter("executor.rehydrate_ns").value,
            "dispatch_ns": metrics.counter("executor.dispatch_ns").value,
            "serial_fallbacks":
                metrics.counter("executor.serial_fallbacks").value,
            "fallback_reason": self.fallback_reason,
            "fallback_reasons": list(self.fallback_reasons),
            "pool_broken": self.pool_broken,
        }

    # -- execution ------------------------------------------------------
    def submit_job(self, job: Job) -> JobFuture:
        """Queue one job; its result is read with ``.result()``."""
        return self.submit_jobs([job])[0]

    def submit_jobs(self, jobs: Sequence[Job]) -> List[JobFuture]:
        """Submit a batch: cache lookups first, then longest jobs
        first, with cheap jobs chunked.

        Submission order and chunking affect only wall time (short
        tasks fill the tail of the schedule); the returned futures
        align index-for-index with ``jobs``.
        """
        return self._submit_jobs(list(jobs))

    def _submit_jobs(self, jobs: List[Job]) -> List[JobFuture]:
        if self.progress is not None:
            self.progress.add_total(len(jobs))
        futures: List[Optional[JobFuture]] = [None] * len(jobs)
        pending: List[Tuple[int, Job]] = []
        for i, job in enumerate(jobs):
            if self.pipeline is not None and job.fingerprint is not None:
                found, value = self.pipeline.lookup(job.fingerprint,
                                                    stage=job.kind)
                if found:
                    skey = (job.fingerprint
                            if self.pipeline.store.root is not None else None)
                    futures[i] = JobFuture(job, value=value, store_key=skey)
                    if self.telemetry is not None:
                        self.telemetry.point("cache_hit", job.span_label())
                    if self.progress is not None:
                        self.progress.cache_hit()
                    continue
            pending.append((i, job))
        if not pending:
            return futures
        backend = self._ensure_backend()
        if self.progress is not None:
            self.progress.set_workers(self.effective_workers)
        if backend is None:
            for i, job in pending:
                futures[i] = JobFuture(job, scheduler=self,
                                       pipeline=self.pipeline)
            return futures
        # Work-stealing dispatch: every pending job gets a slot on the
        # cost-ordered heap; the pump decides chunk membership only
        # when a worker is actually about to pull the chunk.
        with self._pump_lock:
            for i, job in pending:
                slot = _Slot(job)
                futures[i] = JobFuture(job, scheduler=self,
                                       pipeline=self.pipeline, slot=slot)
                heapq.heappush(self._pending,
                               (-job.cost_hint, self._heap_seq, job, slot))
                self._heap_seq += 1
        self._pump()
        return futures

    def map_jobs(self, jobs: Sequence[Job]) -> List:
        """Execute all jobs; results align index-for-index with jobs.

        Always routed through :meth:`submit_jobs` (even for one job or
        in serial mode, where futures resolve lazily in order) so cache
        lookups and stores apply uniformly.
        """
        return [f.result() for f in self.submit_jobs(list(jobs))]

    # -- work-stealing pump ---------------------------------------------
    def _chunksize(self, n_cheap: int) -> int:
        """Chunk size tuned to what *remains*: enough chunks to keep
        every worker busy twice over, capped so one chunk never
        serializes a long tail.  Re-derived on every pull, so chunks
        shrink as the sweep drains and the tail stays parallel."""
        if n_cheap <= 0:
            return 1
        return max(1, min(8, math.ceil(n_cheap / (self._pool_size() * 2))))

    def _pool_size(self) -> int:
        """Actual backend width (see :func:`pool_width`)."""
        backend = self._backend
        if backend is not None:
            return backend.pool_size()
        return pool_width(self.workers)

    def _inflight_limit(self) -> int:
        """How many chunks may be dispatched at once: the backend's
        width plus a small buffer, so a worker finishing always finds
        the next chunk staged but chunk composition is decided as late
        as possible."""
        pool = self._pool_size()
        return pool + max(2, pool // 2)

    def _pump(self, on_backend_thread: bool = False) -> None:
        """Dispatch pending chunks up to the in-flight window.

        Callable from any thread (completion callbacks run on backend
        threads, and pass ``on_backend_thread``): the lock is taken
        non-blocking, and a contender hands its request to the current
        holder via the repump flag instead of waiting — the holder
        re-runs until no request is pending, so no dispatch opportunity
        is ever lost and no backend thread ever blocks here.
        """
        while True:
            if not self._pump_lock.acquire(blocking=False):
                self._repump = True
                return
            try:
                self._repump = False
                broken = self._dispatch_ready()
            finally:
                self._pump_lock.release()
            if broken is not None:
                self._mark_broken(broken, join=not on_backend_thread)
                return
            if not self._repump:
                return

    def _dispatch_ready(self) -> Optional[BaseException]:
        """Pull cost-ordered chunks off the heap and hand them to the
        backend while the in-flight window has room.  Runs with the
        pump lock held; returns the exception when the backend broke
        (handled by the caller outside the lock)."""
        backend = self._backend
        if self._serial_fallback or backend is None:
            self._release_heap_inline()
            return None
        if not self._pending:
            return None
        t0 = time.perf_counter_ns()
        broken: Optional[BaseException] = None
        while self._pending and self._inflight < self._inflight_limit():
            chunk = self._next_chunk()
            broken = self._dispatch_chunk(backend, chunk)
            if broken is not None:
                self._release_heap_inline()
                break
        self.metrics.counter("executor.dispatch_ns").inc(
            time.perf_counter_ns() - t0)
        return broken

    def _release_heap_inline(self) -> None:
        pending, self._pending = self._pending, []
        for _cost, _seq, _job, slot in pending:
            slot.release_inline()

    def _next_chunk(self) -> List[Tuple[Job, _Slot]]:
        """The next cost-ordered chunk: an expensive job travels alone;
        a cheap one takes companions sized to the remaining heap."""
        neg_cost, _seq, job, slot = heapq.heappop(self._pending)
        chunk = [(job, slot)]
        if -neg_cost >= CHUNK_THRESHOLD:
            return chunk
        size = self._chunksize(len(self._pending) + 1)
        while len(chunk) < size and self._pending:
            _c, _s, j, s = heapq.heappop(self._pending)
            chunk.append((j, s))
        return chunk

    def _dispatch_chunk(self, backend: Backend,
                        chunk: List[Tuple[Job, _Slot]]
                        ) -> Optional[BaseException]:
        """Frame one chunk and submit it.  An unpicklable chunk falls
        its slots to the inline path (not fatal); a backend submission
        failure releases the slots and reports the exception so the
        pump can mark the whole backend broken."""
        telemetry = self.telemetry
        items: List[Tuple[str, str, str, Any, str]] = []
        for job, _slot in chunk:
            payload = job.for_wire()
            key = job.fingerprint
            if key is None or not self._ipc_shared:
                key = f"ipc:{self._seq:08d}"
                self._seq += 1
            if telemetry is not None:
                payload = _stamp_sweep(payload, telemetry.sweep_id)
            items.append((job.runner, job.kind, job.span_label(),
                          payload, key))
        try:
            blob = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, TypeError, AttributeError) as exc:
            self._note_fallback(
                f"spec not picklable: {type(exc).__name__}: {exc}")
            for _job, slot in chunk:
                slot.release_inline()
            return None
        telemetry_ctx = None
        if telemetry is not None:
            telemetry_ctx = (telemetry.sweep_id, time.time_ns())
        try:
            future = backend.submit(blob, telemetry_ctx)
        except (BackendBroken, BrokenProcessPool, OSError,
                RuntimeError) as exc:
            for _job, slot in chunk:
                slot.release_inline()
            return exc
        self.metrics.counter("executor.ipc_bytes_sent").inc(len(blob))
        self._transport_used = backend.name
        handle = _ChunkHandle(future)
        for ci, (_job, slot) in enumerate(chunk):
            slot.bind(handle, ci)
        with self._inflight_lock:
            self._inflight += 1
        count = len(chunk)
        future.add_done_callback(lambda _f: self._on_chunk_done(count))
        return None

    def _on_chunk_done(self, count: int) -> None:
        """Completion callback (runs on a backend thread): free one
        in-flight slot and pump the next chunk to the idle worker."""
        with self._inflight_lock:
            self._inflight -= 1
        if self.progress is not None:
            self.progress.completed(count)
        self._pump(on_backend_thread=True)

    def _ensure_ipc_store(self) -> ArtifactStore:
        """The shared store envelopes travel through: the pipeline's
        own disk store when there is one (workers then write artifacts
        straight into the cache), else a scheduler-owned tempdir."""
        if self._ipc_store is not None:
            return self._ipc_store
        pipe_store = self.pipeline.store if self.pipeline is not None else None
        if pipe_store is not None and pipe_store.root is not None:
            self._ipc_store = pipe_store
            self._ipc_root = str(pipe_store.root)
            self._ipc_shared = True
        else:
            self._ipc_tmp = tempfile.mkdtemp(prefix="repro-ipc-")
            self._ipc_store = ArtifactStore(self._ipc_tmp)
            self._ipc_root = self._ipc_tmp
            self._ipc_shared = False
        return self._ipc_store

    def _make_backend(self) -> Backend:
        return PoolBackend(self.workers)

    def _ensure_backend(self) -> Optional[Backend]:
        if self._serial_fallback:
            return None
        if self._backend is None:
            self._ensure_ipc_store()
            backend = self._make_backend()
            try:
                backend.start(self._ipc_root)
            except BackendUnavailable as exc:
                self._note_fallback(str(exc))
                self._serial_fallback = True
                return None
            self._backend = backend
        return self._backend
