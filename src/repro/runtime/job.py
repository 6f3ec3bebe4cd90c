"""Generic jobs: the unit of work every bulk workload schedules.

A :class:`Job` is a picklable description of one independent piece of
work — a validation trial, an invariant check, a golden-corpus
regeneration, one fuzzed spec — reduced to what the execution layer
actually needs to know:

``runner``
    A ``"module:qualname"`` reference to a module-level function
    ``fn(payload) -> result``.  Shipping the *reference* (not the
    function) keeps jobs picklable by value and lets worker processes resolve
    the same function by import.  Resolution is memoized per process.
``payload`` / ``wire_payload``
    The runner's argument.  ``payload`` is what in-process execution
    uses (it may hold live handles like an open
    :class:`~repro.pipeline.Pipeline`); ``wire_payload``, when set, is
    the picklable stand-in shipped to workers — it may also strip bulk
    inputs down to store references a worker resolves locally.
``fingerprint``
    The content-addressed identity of the job's result, when it has
    one.  The scheduler uses it for artifact-cache lookups before
    submission and stores computed results under it; ``None`` means
    "always execute".
``kind`` / ``label`` / ``cost_hint``
    Telemetry stage name, span label, and a rough relative wall-clock
    cost (longest-first submission and chunking use it; it can never
    affect results).

:class:`JobResult` is the codec-framed unit a worker sends back per
job: exactly one of a raw value (rode the pipe), a
:class:`ResultEnvelope` naming the shared-store artifact holding the
encoded result, or a :class:`TransportFailure` that tells the parent
to re-execute the job in process.  The scheduler unwraps these; the
contract that makes every backend interchangeable is that unwrapping a
:class:`JobResult` always yields exactly what ``runner(payload)``
returns.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

__all__ = [
    "Job",
    "JobResult",
    "JobTransportError",
    "ResultEnvelope",
    "TransportFailure",
    "echo",
    "register_job_kind",
    "registered_job_kinds",
    "resolve_runner",
    "runner_ref",
]


class JobTransportError(RuntimeError):
    """A worker-side *transport* problem (an input reference the worker
    cannot resolve, a store it cannot reach).  Runners raise this —
    instead of failing the job — when the work itself is fine but this
    process cannot supply its inputs; the scheduler then re-executes
    the job in the parent, where the inputs are materialized.  A
    transport hiccup must never surface as a wrong result."""


@dataclass(frozen=True)
class Job:
    """A picklable description of one independent piece of work."""

    kind: str
    runner: str
    payload: Any
    label: str = ""
    fingerprint: Optional[str] = None
    cost_hint: float = 1.0
    # The payload shipped to workers (see module docstring).
    wire_payload: Any = None

    def span_label(self) -> str:
        """How this job appears in the sweep timeline."""
        return self.label or self.kind

    def for_wire(self) -> Any:
        """The payload to ship to a worker."""
        if self.wire_payload is not None:
            return self.wire_payload
        return self.payload


@dataclass(frozen=True)
class ResultEnvelope:
    """What a worker returns instead of a bulk result: the shared-store
    key holding the encoded artifact, its content digest (verified by
    the parent before use), and the worker-side cost counters."""

    key: str
    digest: str
    nbytes: int
    encode_ns: int


@dataclass(frozen=True)
class TransportFailure:
    """Worker-side transport problem (see :class:`JobTransportError`).
    The parent recomputes the job in-process and records the reason."""

    reason: str


@dataclass(frozen=True)
class JobResult:
    """One executed job's wire representation: exactly one of ``value``
    (small result, rode the pipe), ``envelope`` (store-mediated
    handoff) or ``failure`` (re-execute in the parent).

    ``value`` uses a sentinel-free encoding: ``has_value`` disambiguates
    a job that legitimately returned ``None`` from an envelope result.
    """

    has_value: bool = False
    value: Any = None
    envelope: Optional[ResultEnvelope] = None
    failure: Optional[TransportFailure] = None

    @classmethod
    def of(cls, value: Any) -> "JobResult":
        return cls(has_value=True, value=value)

    @classmethod
    def enveloped(cls, env: ResultEnvelope) -> "JobResult":
        return cls(envelope=env)

    @classmethod
    def failed(cls, reason: str) -> "JobResult":
        return cls(failure=TransportFailure(reason=reason))


# ======================================================================
# Runner resolution
# ======================================================================
_RUNNERS: Dict[str, Callable[[Any], Any]] = {}


def runner_ref(fn: Callable[[Any], Any]) -> str:
    """The ``"module:qualname"`` reference of a module-level function."""
    return f"{fn.__module__}:{fn.__qualname__}"


def resolve_runner(ref: str) -> Callable[[Any], Any]:
    """Import (and memoize) the runner behind a ``module:qualname``
    reference.  Raises :class:`JobTransportError` when this process
    cannot import it — the parent then runs the job itself."""
    fn = _RUNNERS.get(ref)
    if fn is not None:
        return fn
    try:
        module_name, _, qualname = ref.partition(":")
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError, ValueError) as exc:
        raise JobTransportError(f"cannot resolve runner {ref!r}: {exc}")
    if not callable(obj):
        raise JobTransportError(f"runner {ref!r} is not callable")
    _RUNNERS[ref] = obj
    return obj


# ======================================================================
# Job kinds
# ======================================================================
@dataclass(frozen=True)
class _JobKind:
    kind: str
    runner: str
    cost_hint: float = 1.0


_JOB_KINDS: Dict[str, _JobKind] = {}


def register_job_kind(kind: str, runner: str,
                      cost_hint: float = 1.0) -> None:
    """Register a named job kind (its runner reference and default cost
    hint).  Purely declarative — consumers may also build :class:`Job`
    objects directly — but the registry is what ``repro.runtime``
    surfaces for introspection, and registering keeps kind names
    unique across workloads."""
    existing = _JOB_KINDS.get(kind)
    entry = _JobKind(kind=kind, runner=runner, cost_hint=cost_hint)
    if existing is not None and existing != entry:
        raise ValueError(f"job kind {kind!r} already registered "
                         f"with runner {existing.runner!r}")
    _JOB_KINDS[kind] = entry


def registered_job_kinds() -> Dict[str, str]:
    """``{kind: runner_ref}`` for every registered job kind."""
    return {kind: entry.runner for kind, entry in sorted(_JOB_KINDS.items())}


def echo(payload: Any) -> Any:
    """The identity runner — a zero-work job kind for backend smoke
    tests and dispatch-overhead benchmarks."""
    return payload


register_job_kind("echo", runner_ref(echo), cost_hint=0.1)
