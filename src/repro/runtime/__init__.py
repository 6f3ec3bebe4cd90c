"""``repro.runtime`` — the unified execution runtime.

One scheduler, one backend, generic jobs: every bulk workload in the
repo (validation sweeps, invariant checks, golden regeneration,
scenario fuzzing) drives through this package, and all of them produce
byte-identical output serially and on the pool.  See
``docs/RUNTIME.md`` for the job lifecycle and the Backend protocol.

Layering (lowest first):

``job``
    :class:`Job` / :class:`JobResult` — the unit of work and its wire
    result; runner references; the job-kind registry.
``backends``
    The :class:`Backend` protocol, the warm process pool
    (:class:`PoolBackend`), and the worker-side chunk executor.
``scheduler``
    :class:`Scheduler` — backend choice (``workers > 1``: the pool;
    else inline), work-stealing chunking, ordering, caching, retry,
    rehydration, interrupt teardown.
``session``
    :class:`RuntimeSession` — per-invocation wiring of pipeline,
    scheduler, progress and run ledger for the CLI.
"""

from .backends import (
    Backend,
    BackendBroken,
    BackendUnavailable,
    PoolBackend,
    execute_wire_chunk,
    worker_store,
)
from .job import (
    Job,
    JobResult,
    JobTransportError,
    ResultEnvelope,
    TransportFailure,
    register_job_kind,
    registered_job_kinds,
    resolve_runner,
    runner_ref,
)
from .scheduler import (
    CHUNK_THRESHOLD,
    JobFuture,
    Scheduler,
    default_workers,
)
from .session import (
    ExecutionConfig,
    RuntimeSession,
    command_ledger_record,
    shared_pipeline,
)

__all__ = [
    "Backend",
    "BackendBroken",
    "BackendUnavailable",
    "CHUNK_THRESHOLD",
    "ExecutionConfig",
    "Job",
    "JobFuture",
    "JobResult",
    "JobTransportError",
    "PoolBackend",
    "ResultEnvelope",
    "RuntimeSession",
    "Scheduler",
    "TransportFailure",
    "command_ledger_record",
    "default_workers",
    "execute_wire_chunk",
    "register_job_kind",
    "registered_job_kinds",
    "resolve_runner",
    "runner_ref",
    "shared_pipeline",
    "worker_store",
]
