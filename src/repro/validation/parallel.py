"""Validation trials on the unified execution runtime.

Every figure in the paper's evaluation is built from batches of
*independent, seeded* trials: four live runs, four trace-collection
traversals, four modulated runs per scenario/benchmark pair.  Each
trial builds its own world from named seeded RNG streams
(:mod:`repro.sim.rng`), so trials share no state and their results
depend only on ``(scenario, runner, seed, trial)`` — which makes them
embarrassingly parallel *and* guarantees that a parallel run is
bit-identical to a serial one.

This module is the *trial-specific glue* over :mod:`repro.runtime` —
all scheduling, backend lifecycle, data plane, chunking, retry and
rehydration machinery lives there.  What stays here:

* :class:`TrialSpec` — a picklable description of one trial (one
  registered job kind of the runtime);
* :func:`execute_trial` — the trial runner (module-level, resolved by
  reference in workers);
* :class:`TrialExecutor` — the
  :class:`~repro.runtime.scheduler.Scheduler` subclass that accepts
  trial specs (converting them to runtime jobs);
* :func:`run_validation` — the full multi-scenario sweep (the paper's
  Figures 6–8 protocol), collection and benchmark phases each fanned
  out across *all* scenarios at once;
* :func:`validate_scenario_parallel`, :func:`ethernet_baseline_parallel`,
  :func:`characterize_scenario_parallel` — parallel twins of the serial
  entry points in :mod:`repro.validation.harness` and
  :mod:`repro.validation.figures`.

The worker→parent data plane (bulk results handed off through a
store) and the backend choice (process pool or inline) are the
scheduler's business; see :mod:`repro.runtime.backends`.
Modulated trials receive their replay by store reference
(``replay_ref``) — the job's wire payload strips the materialized
replay, and each worker memoizes decoded replays, so a distilled
trace is shipped to each worker process at most once per sweep.

Determinism contract: for any ``workers`` value (including every
fallback path), results are
byte-identical to ``workers=1`` because every spec is executed by the
same pure function with the same arguments, the codec round-trip is
exact, and results are reassembled in submission order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.stats import Summary
from ..core.distill import DistillationResult, Distiller
from ..core.replay import ReplayTrace
from ..obs import ObsConfig
from ..obs.telemetry import SweepProgress, SweepTelemetry, span_begin, span_end
from ..pipeline import (
    CollectStage,
    CompensationStage,
    DistillStage,
    EthernetTrialStage,
    LiveTrialStage,
    ModulatedTrialStage,
    Pipeline,
    as_pipeline,
    codec,
    digest,
)
from ..runtime.backends import worker_store
from ..runtime.job import (
    Job,
    JobTransportError,
    ResultEnvelope,
    register_job_kind,
    runner_ref,
)
from ..runtime.scheduler import JobFuture, Scheduler, default_workers
from ..scenarios.base import Scenario
from .harness import (
    BenchmarkRunner,
    MetricComparison,
    ScenarioValidation,
    collect_trace,
    compensation_vb,
    distill_scenario_trace,
    run_ethernet_trial,
    run_live_trial,
    run_modulated_trial,
)

__all__ = [
    "TrialSpec",
    "TrialExecutor",
    "ResultEnvelope",
    "ValidationSweep",
    "execute_trial",
    "job_for_spec",
    "run_validation",
    "spec_fingerprint",
    "validate_scenario_parallel",
    "ethernet_baseline_parallel",
    "characterize_scenario_parallel",
    "default_workers",
]


# ======================================================================
# Trial specs and the worker entry point
# ======================================================================
@dataclass(frozen=True)
class TrialSpec:
    """A picklable description of one independent trial.

    ``kind`` selects the work:

    ``"distill"``
        Collect one trace-collection traversal of ``scenario`` and
        distill it; returns a :class:`DistillationResult`.  (Collection
        and distillation stay in the worker so the bulky raw records
        never cross the process boundary.)
    ``"live"``
        One live benchmark trial; returns the metric dict.
    ``"modulated"``
        One modulated benchmark trial over ``replay``; returns the
        metric dict.
    ``"ethernet"``
        One unmodulated Ethernet baseline trial; returns the metric
        dict.

    ``obs`` (an :class:`~repro.obs.ObsConfig`, itself a frozen
    primitive-only dataclass, so the spec stays picklable) requests a
    per-trial metrics record.  Benchmark trials return it inside the
    sink under ``"__obs__"``; distill trials, whose natural result is a
    :class:`DistillationResult`, return a
    ``{"__distill__": ..., "__obs__": ...}`` wrapper instead.

    ``replay_ref`` names the distill artifact holding this modulated
    trial's replay in the scheduler's shared store.  The materialized
    ``replay`` is stripped from the wire copy and workers resolve the
    reference (memoized per process); in-process execution uses
    ``replay`` directly.  The two are always byte-equivalent — the
    codec round-trip is exact — so the data plane cannot change
    results.
    """

    kind: str
    seed: int
    trial: int
    scenario: Optional[Scenario] = None
    runner: Optional[BenchmarkRunner] = None
    replay: Optional[ReplayTrace] = None
    compensation: float = 0.0
    distiller: Optional[Distiller] = None
    name: str = ""
    obs: Optional[ObsConfig] = None
    # Pipeline-stage fingerprint of this trial's result.  Set by the
    # sweep when it runs with an artifact cache; ``None`` means the
    # trial is uncacheable and always executes.
    fingerprint: Optional[str] = None
    # Shared-store key of the upstream distill artifact (see above).
    replay_ref: Optional[str] = None
    # Sweep-scoped trace context: set on the wire copy when the sweep
    # runs with telemetry, so worker-side stage spans carry the sweep
    # they belong to.  Never part of any fingerprint (fingerprints are
    # computed from the pipeline stages, not this dataclass).
    sweep_id: Optional[str] = None

    def span_label(self) -> str:
        """How this trial appears in the sweep timeline."""
        if self.name:
            return self.name
        scenario = getattr(self.scenario, "name", None)
        parts = [p for p in (scenario, str(self.trial)) if p is not None]
        return ":".join(parts) if parts else str(self.trial)

    def cost_hint(self) -> float:
        """Rough relative wall-clock cost, for longest-first submission
        and chunking.

        Collection+distill trials simulate the scenario's full
        traversal with its cross traffic — seconds of wall clock.
        Live, modulated and Ethernet trials run one benchmark transfer
        (a far smaller event count; live worlds carry the scenario's
        cross traffic, modulated/Ethernet worlds are the small isolated
        pair).  The exact values only affect load balancing, never
        results.
        """
        if self.kind == "distill":
            scenario = self.scenario
            duration = getattr(scenario, "duration", 240.0)
            cross = getattr(scenario, "cross_laptops", 0)
            return duration * (1.0 + 2.0 * cross)
        if self.kind == "live":
            cross = getattr(self.scenario, "cross_laptops", 0)
            return 15.0 + 5.0 * cross
        if self.kind == "modulated":
            return 10.0
        return 5.0


class _ReplayResolveError(JobTransportError):
    """A ``replay_ref`` that the worker's shared store cannot supply.
    A :class:`JobTransportError`, so the chunk executor converts it to
    a transport failure and the parent re-executes with the
    materialized replay — a transport hiccup must never surface as a
    wrong result."""


# Decoded replays memoized per worker process (see TrialSpec.replay_ref).
_WORKER_REPLAY_CACHE: Dict[str, ReplayTrace] = {}


def _resolve_replay(ref: Optional[str]) -> ReplayTrace:
    """The replay trace behind a ``replay_ref``, memoized per worker."""
    if ref is None:
        raise _ReplayResolveError(
            "modulated spec carries neither replay nor replay_ref")
    replay = _WORKER_REPLAY_CACHE.get(ref)
    if replay is not None:
        return replay
    store = worker_store()
    if store is None:
        raise _ReplayResolveError("worker has no shared store")
    tok = span_begin()
    found, blob = store.raw_get(ref)
    if not found:
        raise _ReplayResolveError(
            f"distill artifact {ref[:12]}... missing from shared store")
    try:
        value = codec.decode_gz(blob)
    except codec.CodecError as exc:
        raise _ReplayResolveError(f"distill artifact {ref[:12]}...: {exc}")
    if isinstance(value, dict) and "__distill__" in value:
        value = value["__distill__"]
    replay = value.replay if isinstance(value, DistillationResult) else value
    _WORKER_REPLAY_CACHE[ref] = replay
    span_end(tok, "replay_resolve", ref[:12], nbytes=len(blob))
    return replay


def execute_trial(spec: TrialSpec):
    """Run one trial described by ``spec`` (the runtime's trial runner).

    Pure: the result depends only on the spec, so serial and parallel
    execution agree bit-for-bit.
    """
    if spec.kind == "distill":
        if spec.obs is not None:
            obs_out: Dict[str, Dict] = {}
            records = collect_trace(spec.scenario, spec.seed, spec.trial,
                                    obs=spec.obs, obs_out=obs_out)
            result = distill_scenario_trace(records, name=spec.name,
                                            distiller=spec.distiller)
            return {"__distill__": result,
                    "__obs__": obs_out.get("record")}
        records = collect_trace(spec.scenario, spec.seed, spec.trial)
        return distill_scenario_trace(records, name=spec.name,
                                      distiller=spec.distiller)
    if spec.kind == "live":
        return run_live_trial(spec.scenario, spec.runner, spec.seed,
                              spec.trial, obs=spec.obs)
    if spec.kind == "modulated":
        replay = spec.replay
        if replay is None:
            replay = _resolve_replay(spec.replay_ref)
        return run_modulated_trial(replay, spec.runner, spec.seed,
                                   spec.trial, spec.compensation,
                                   obs=spec.obs)
    if spec.kind == "ethernet":
        return run_ethernet_trial(spec.runner, spec.seed, spec.trial,
                                  obs=spec.obs)
    raise ValueError(f"unknown trial kind {spec.kind!r}")


_EXECUTE_TRIAL = runner_ref(execute_trial)
register_job_kind("trial", _EXECUTE_TRIAL)


def job_for_spec(spec: TrialSpec) -> Job:
    """The runtime job for one trial spec.

    The wire payload strips a materialized replay whenever the spec
    also carries its store reference, so a distilled trace crosses the
    process boundary at most once per worker.
    """
    wire = None
    if spec.replay is not None and spec.replay_ref is not None:
        wire = replace(spec, replay=None)
    return Job(kind=spec.kind, runner=_EXECUTE_TRIAL, payload=spec,
               label=spec.span_label(), fingerprint=spec.fingerprint,
               cost_hint=spec.cost_hint(), wire_payload=wire)


def spec_fingerprint(spec: TrialSpec,
                     distill_stage: Optional[DistillStage] = None
                     ) -> Optional[str]:
    """The pipeline-stage fingerprint of a trial spec's result.

    Live, modulated and Ethernet specs return exactly what the matching
    pipeline stage computes, so they share the stage's own fingerprint
    (and thus its cached artifacts).  A ``"distill"`` spec folds collect
    and distill into one worker task; without observability its result
    is the :class:`DistillStage` artifact, with observability it is the
    ``{"__distill__", "__obs__"}`` wrapper, which gets its own keyspace.

    ``distill_stage`` supplies the upstream ancestry for ``"modulated"``
    specs (the spec itself only carries the materialized replay).
    Returns ``None`` — never cache — when an input has no stable token.
    """
    try:
        if spec.kind == "distill":
            stage = DistillStage(
                CollectStage(spec.scenario, spec.seed, spec.trial,
                             obs=spec.obs),
                distiller=spec.distiller, label=spec.name)
            if spec.obs is None:
                return stage.fingerprint()
            return digest({"trial": "distill+obs",
                           "stage": stage.fingerprint()})
        if spec.kind == "live":
            return LiveTrialStage(spec.scenario, spec.runner, spec.seed,
                                  spec.trial, obs=spec.obs).fingerprint()
        if spec.kind == "modulated":
            if distill_stage is None:
                return None
            return ModulatedTrialStage(distill_stage, spec.runner,
                                       spec.seed, spec.trial,
                                       compensation=spec.compensation,
                                       obs=spec.obs).fingerprint()
        if spec.kind == "ethernet":
            return EthernetTrialStage(spec.runner, spec.seed, spec.trial,
                                      obs=spec.obs).fingerprint()
    except TypeError:
        return None
    return None


# ======================================================================
# The executor
# ======================================================================
class TrialExecutor(Scheduler):
    """Order-preserving trial execution — the runtime
    :class:`~repro.runtime.scheduler.Scheduler` specialized to accept
    :class:`TrialSpec` batches.

    ``submit`` / ``submit_all`` / ``map`` take trial specs and convert
    them to runtime jobs (:func:`job_for_spec`); the inherited
    ``submit_jobs`` / ``map_jobs`` remain available for generic jobs,
    so one warm backend can serve a validation sweep and, say, a
    golden regeneration in the same invocation.  Everything else —
    worker counts, backends, caching, fallback accounting — is the
    scheduler's contract; see its docstring.
    """

    def submit(self, spec: TrialSpec) -> JobFuture:
        """Queue one trial; its result is read with ``.result()``."""
        return self.submit_all([spec])[0]

    def submit_all(self, specs: Sequence[TrialSpec]) -> List[JobFuture]:
        """Submit a batch of trial specs: cache lookups first, then
        longest trials first, with cheap trials chunked.  The returned
        futures align index-for-index with ``specs``."""
        return self.submit_jobs([job_for_spec(spec) for spec in specs])

    def map(self, specs: Sequence[TrialSpec]) -> List:
        """Execute all specs; results align index-for-index with specs."""
        return [f.result() for f in self.submit_all(list(specs))]


def _executor_for(workers: Optional[int],
                  executor: Optional[TrialExecutor],
                  pipeline: Optional[Pipeline] = None) -> tuple:
    """(executor, owns_it): reuse the caller's executor when given.

    A given ``pipeline`` is attached to the executor either way (a
    caller-supplied executor keeps its own pipeline if it already has
    one, and always keeps its own workers).
    """
    if executor is not None:
        if pipeline is not None and executor.pipeline is None:
            executor.pipeline = pipeline
            # The "pipeline" key makes this idempotent across reuse.
            executor.metrics.add_collector(pipeline.collector(),
                                           key="pipeline")
        return executor, False
    return TrialExecutor(workers=workers, pipeline=pipeline), True


# ======================================================================
# Parallel twins of the harness entry points
# ======================================================================
def _distill_specs(scenario: Scenario, seed: int, trials: int,
                   distiller: Optional[Distiller],
                   obs: Optional[ObsConfig] = None) -> List[TrialSpec]:
    return [TrialSpec(kind="distill", seed=seed, trial=t, scenario=scenario,
                      distiller=distiller, name=f"{scenario.name}-{t}",
                      obs=obs)
            for t in range(trials)]


def _unwrap_distill(result) -> tuple:
    """(DistillationResult, metrics record | None) from a worker result."""
    if isinstance(result, dict) and "__distill__" in result:
        return result["__distill__"], result.get("__obs__")
    return result, None


def _assemble_validation(scenario: Scenario, runner: BenchmarkRunner,
                         distillations: List[DistillationResult],
                         real_by_variant: List[List[Dict[str, float]]],
                         mod_by_variant: List[List[Dict[str, float]]]
                         ) -> ScenarioValidation:
    """Fold per-trial metric dicts into the harness's result object.

    Mirrors :func:`repro.validation.harness.validate_scenario` exactly
    (same Summary construction, same comparison ordering) so rendered
    tables match the serial path byte-for-byte.
    """
    validation = ScenarioValidation(scenario=scenario.name,
                                    benchmark=runner.name,
                                    distillations=distillations)
    for variant, real_runs, modulated_runs in zip(runner.variants(),
                                                  real_by_variant,
                                                  mod_by_variant):
        for metric in variant.metrics:
            validation.comparisons[metric] = MetricComparison(
                metric=metric,
                real=Summary.of([r[metric] for r in real_runs]),
                modulated=Summary.of([m[metric] for m in modulated_runs]),
            )
    return validation


def validate_scenario_parallel(scenario: Scenario, runner: BenchmarkRunner,
                               seed: int = 0, trials: int = 4,
                               distiller: Optional[Distiller] = None,
                               compensation: Optional[float] = None,
                               workers: Optional[int] = None,
                               executor: Optional[TrialExecutor] = None,
                               cache=None) -> ScenarioValidation:
    """Parallel version of :func:`repro.validation.harness.validate_scenario`.

    Bit-identical to the serial implementation for the same arguments.
    """
    sweep = run_validation([scenario], runner, seed=seed, trials=trials,
                           distiller=distiller, compensation=compensation,
                           workers=workers, executor=executor, cache=cache)
    return sweep.validations[0]


def ethernet_baseline_parallel(runner: BenchmarkRunner, seed: int = 0,
                               trials: int = 4,
                               workers: Optional[int] = None,
                               executor: Optional[TrialExecutor] = None
                               ) -> Dict[str, Summary]:
    """Parallel version of :func:`repro.validation.harness.ethernet_baseline`."""
    exe, owned = _executor_for(workers, executor)
    try:
        variants = runner.variants()
        specs = [TrialSpec(kind="ethernet", seed=seed, trial=t,
                           runner=variant)
                 for variant in variants for t in range(trials)]
        results = exe.map(specs)
        out: Dict[str, Summary] = {}
        for v, variant in enumerate(variants):
            runs = results[v * trials:(v + 1) * trials]
            for metric in variant.metrics:
                out[metric] = Summary.of([r[metric] for r in runs])
        return out
    finally:
        if owned:
            exe.shutdown()


def characterize_scenario_parallel(scenario: Scenario, seed: int = 0,
                                   trials: int = 4,
                                   workers: Optional[int] = None,
                                   executor: Optional[TrialExecutor] = None,
                                   obs: Optional[ObsConfig] = None,
                                   trial_metrics: Optional[List[Dict]] = None):
    """Parallel version of :func:`repro.validation.figures.characterize_scenario`.

    With ``obs`` set, each traversal's metrics record is appended to
    the caller-supplied ``trial_metrics`` list in trial order.
    """
    from .figures import ScenarioCharacterization

    exe, owned = _executor_for(workers, executor)
    try:
        results = exe.map(_distill_specs(scenario, seed, trials, None, obs))
        distillations = []
        for result in results:
            dist, record = _unwrap_distill(result)
            distillations.append(dist)
            if record is not None and trial_metrics is not None:
                trial_metrics.append(record)
        return ScenarioCharacterization(scenario=scenario,
                                        distillations=distillations)
    finally:
        if owned:
            exe.shutdown()


# ======================================================================
# The full sweep
# ======================================================================
@dataclass
class ValidationSweep:
    """Everything one benchmark sweep produced, plus how it ran."""

    benchmark: str
    validations: List[ScenarioValidation] = field(default_factory=list)
    baseline: Optional[Dict[str, Summary]] = None
    workers_used: int = 1
    # One metrics record per trial (collect, live, modulated, ethernet)
    # when the sweep ran with an ObsConfig; empty otherwise.  Ordered
    # deterministically: per scenario, collections then live then
    # modulated (variant-major), then the baseline trials.
    trial_metrics: List[Dict] = field(default_factory=list)
    # Artifact-cache accounting when the sweep ran with ``cache=``:
    # how many trials were loaded versus recomputed (both zero means
    # the sweep ran uncached).
    cache_hits: int = 0
    cache_misses: int = 0
    # Data-plane accounting (see Scheduler.transport_stats): which
    # backend carried results, envelope/byte counters, and how often
    # — and why — execution fell back in-process.
    transport: Dict[str, Any] = field(default_factory=dict)
    fallback_reason: Optional[str] = None
    # Sweep-timeline rollup (SweepTelemetry.summary()) when the sweep
    # ran with telemetry; None otherwise.
    telemetry: Optional[Dict[str, Any]] = None

    def render(self, title: Optional[str] = None, caption: str = "") -> str:
        """The Figures 6–8 style table for this sweep.

        Byte-identical for any worker count and any backend — the
        determinism tests compare exactly this string across
        ``workers`` values.
        """
        from .figures import render_benchmark_table

        baseline = self.baseline
        if baseline is None:
            metrics = self.validations[0].comparisons if self.validations else {}
            baseline = {m: Summary(mean=float("nan"), std=float("nan"), n=0)
                        for m in metrics}
        return render_benchmark_table(
            self.validations, baseline,
            title=title or f"Validation sweep: {self.benchmark}",
            caption=caption)

    def as_dict(self) -> Dict[str, Any]:
        """Machine-readable sweep: per-scenario tables, cache and
        data-plane accounting (the CLI's ``--json`` surface)."""
        return {
            "benchmark": self.benchmark,
            "workers_used": self.workers_used,
            "scenarios": [
                {
                    "scenario": v.scenario,
                    "metrics": {
                        name: {
                            "real": c.real.as_dict(),
                            "modulated": c.modulated.as_dict(),
                            "sigma_distance": (
                                c.sigma_distance
                                if math.isfinite(c.sigma_distance)
                                else None),  # strict-JSON safe
                            "accurate": c.accurate,
                        }
                        for name, c in v.comparisons.items()
                    },
                }
                for v in self.validations
            ],
            "baseline": (
                {m: s.as_dict() for m, s in self.baseline.items()}
                if self.baseline is not None else None),
            "cache": {"hits": self.cache_hits,
                      "misses": self.cache_misses},
            "transport": self.transport,
            "fallback_reason": self.fallback_reason,
            "telemetry": self.telemetry,
        }


def run_validation(scenarios: Union[Scenario, Sequence[Scenario]],
                   runner: BenchmarkRunner,
                   seed: int = 0, trials: int = 4,
                   seeds: int = 1,
                   distiller: Optional[Distiller] = None,
                   compensation: Optional[float] = None,
                   baseline: bool = False,
                   workers: Optional[int] = None,
                   executor: Optional[TrialExecutor] = None,
                   obs: Optional[ObsConfig] = None,
                   cache=None,
                   telemetry: Optional[SweepTelemetry] = None,
                   progress: Optional[SweepProgress] = None
                   ) -> ValidationSweep:
    """Run the paper's validation protocol over one or more scenarios.

    The sweep is fully pipelined: every trial with no input dependency
    — all trace-collection traversals, all live trials, the Ethernet
    baseline — is queued up front (longest first, cheap trials
    chunked), and each scenario's modulated trials are queued the
    moment its distillations resolve, carrying the distilled replay by
    store reference.  The
    backend therefore never idles at a phase barrier; cheap scenarios'
    modulated trials run while expensive collections are still in
    flight.

    The delay-compensation constant is measured once, in the parent,
    and shipped to every worker — exactly like the serial harness,
    which measures it once per process.

    ``cache`` (a directory path, :class:`~repro.pipeline.ArtifactStore`
    or :class:`~repro.pipeline.Pipeline`) turns on content-addressed
    artifact caching: every trial is fingerprinted through the pipeline
    stages and looked up before it is executed, so a warm rerun of the
    same sweep recomputes nothing.  With a disk cache workers write
    their artifacts straight into it.  ``workers`` selects the backend
    (see :class:`~repro.runtime.scheduler.Scheduler`).  Results are
    identical with or without a cache, at every worker count.

    ``seeds`` widens the sweep into a Monte Carlo workload: the full
    trial protocol repeats for ``seed, seed+1, ..., seed+seeds-1`` and
    every per-metric summary pools all ``seeds × trials`` runs.  The
    default ``seeds=1`` is byte-identical to the pre-``seeds``
    behavior.
    """
    if isinstance(scenarios, Scenario):
        scenarios = [scenarios]
    # Accept scenario classes (ALL_SCENARIOS is a tuple of classes).
    scenarios = [s() if isinstance(s, type) else s for s in scenarios]
    seeds_n = max(1, int(seeds))
    # One entry per (seed, trial) execution of the protocol, seed-major
    # — with seeds=1 this is exactly the classic trial list, so all
    # slicing below degenerates to the original layout byte-for-byte.
    runs = [(sd, t) for sd in range(seed, seed + seeds_n)
            for t in range(trials)]
    n_runs = len(runs)
    pipeline = as_pipeline(cache)
    cache_mark = len(pipeline.executions) if pipeline is not None else 0
    comp_tok = telemetry.begin() if telemetry is not None else None
    if compensation is not None:
        comp = compensation
    elif pipeline is not None:
        comp = pipeline.run(CompensationStage())
    else:
        comp = compensation_vb()
    if telemetry is not None:
        telemetry.end(comp_tok, "compensation")
    exe, owned = _executor_for(workers, executor, pipeline)
    if telemetry is not None:
        exe.telemetry = telemetry
    if progress is not None:
        exe.progress = progress
    try:
        variants = runner.variants()
        n = len(scenarios)

        def _fp(spec: TrialSpec,
                dist_stage: Optional[DistillStage] = None) -> TrialSpec:
            if pipeline is None:
                return spec
            return replace(spec,
                           fingerprint=spec_fingerprint(spec, dist_stage))

        # Distill-stage ancestry per (scenario, trial): the modulated
        # specs chain these fingerprints so a changed scenario spec or
        # distiller invalidates exactly its downstream trials.
        dist_stages: List[List[DistillStage]] = []
        if pipeline is not None:
            for scenario in scenarios:
                dist_stages.append([
                    DistillStage(CollectStage(scenario, sd, t, obs=obs),
                                 distiller=distiller,
                                 label=f"{scenario.name}-{t}")
                    for sd, t in runs])

        # ---- queue every dependency-free trial -----------------------
        nodep_specs: List[TrialSpec] = []
        for scenario in scenarios:
            nodep_specs.extend(
                _fp(TrialSpec(kind="distill", seed=sd, trial=t,
                              scenario=scenario, distiller=distiller,
                              name=f"{scenario.name}-{t}", obs=obs))
                for sd, t in runs)
        for scenario in scenarios:
            for variant in variants:
                for sd, t in runs:
                    nodep_specs.append(_fp(TrialSpec(
                        kind="live", seed=sd, trial=t,
                        scenario=scenario, runner=variant, obs=obs)))
        if baseline:
            for variant in variants:
                for sd, t in runs:
                    nodep_specs.append(_fp(TrialSpec(
                        kind="ethernet", seed=sd, trial=t,
                        runner=variant, obs=obs)))
        nodep_futs = exe.submit_all(nodep_specs)
        dist_futs = [nodep_futs[s * n_runs:(s + 1) * n_runs]
                     for s in range(n)]
        bench_futs = nodep_futs[n * n_runs:]

        # ---- queue modulated trials as distillations resolve ---------
        # Cheapest scenarios first: their modulated trials slot in
        # behind the expensive collections still running.
        resolve_order = sorted(
            range(n), key=lambda s: dist_futs[s][0].job.cost_hint)
        dist_by_scenario: List[List[DistillationResult]] = [[] for _ in range(n)]
        collect_records: List[List[Dict]] = [[] for _ in range(n)]
        mod_futs: List[List[JobFuture]] = [[] for _ in range(n)]
        for s in resolve_order:
            for f in dist_futs[s]:
                dist, record = _unwrap_distill(f.result())
                dist_by_scenario[s].append(dist)
                if record is not None:
                    collect_records[s].append(record)
            mod_specs = [_fp(TrialSpec(kind="modulated", seed=sd, trial=t,
                                       runner=variant,
                                       replay=dist_by_scenario[s][r].replay,
                                       replay_ref=dist_futs[s][r].store_key,
                                       compensation=comp, obs=obs),
                             dist_stages[s][r] if pipeline is not None
                             else None)
                         for variant in variants
                         for r, (sd, t) in enumerate(runs)]
            mod_futs[s] = exe.submit_all(mod_specs)

        # ---- reassembly ---------------------------------------------
        # Metrics records are pulled out of the sinks here, in a fixed
        # order (per scenario: collections, then live and modulated
        # variant-major; baseline last) — never in completion order.
        sweep = ValidationSweep(benchmark=runner.name,
                                workers_used=exe.effective_workers)

        def _take_records(runs: List[Dict]) -> List[Dict]:
            out = []
            for run in runs:
                record = run.pop("__obs__", None)
                if record is not None:
                    out.append(record)
            return out

        cursor = 0
        for s, scenario in enumerate(scenarios):
            sweep.trial_metrics.extend(collect_records[s])
            real_by_variant: List[List[Dict[str, float]]] = []
            mod_by_variant: List[List[Dict[str, float]]] = []
            for v, _variant in enumerate(variants):
                real_runs = [f.result()
                             for f in bench_futs[cursor:cursor + n_runs]]
                cursor += n_runs
                mod_runs = [f.result()
                            for f in mod_futs[s][v * n_runs:(v + 1) * n_runs]]
                sweep.trial_metrics.extend(_take_records(real_runs))
                sweep.trial_metrics.extend(_take_records(mod_runs))
                real_by_variant.append(real_runs)
                mod_by_variant.append(mod_runs)
            sweep.validations.append(_assemble_validation(
                scenario, runner, dist_by_scenario[s],
                real_by_variant, mod_by_variant))
        if baseline:
            out: Dict[str, Summary] = {}
            for variant in variants:
                base_runs = [f.result()
                             for f in bench_futs[cursor:cursor + n_runs]]
                cursor += n_runs
                sweep.trial_metrics.extend(_take_records(base_runs))
                for metric in variant.metrics:
                    out[metric] = Summary.of(
                        [r[metric] for r in base_runs])
            sweep.baseline = out
        if pipeline is not None:
            stats = pipeline.summary(since=cache_mark)
            sweep.cache_hits = stats["hits"]
            sweep.cache_misses = stats["misses"]
        sweep.workers_used = exe.effective_workers
        sweep.transport = exe.transport_stats()
        sweep.fallback_reason = exe.fallback_reason
        if telemetry is not None:
            sweep.telemetry = telemetry.summary()
        return sweep
    finally:
        if owned:
            exe.shutdown()
        else:
            # A caller-supplied executor outlives this sweep; detach
            # the sweep-scope hooks so a later sweep starts clean.
            if telemetry is not None and exe.telemetry is telemetry:
                exe.telemetry = None
            if progress is not None and exe.progress is progress:
                exe.progress = None
