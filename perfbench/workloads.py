"""The three workloads, their set-up and their correctness checks.

Every workload goes through the program's public API only:

* ``web_fig6``   — ``run_validation(ALL_SCENARIOS, WebRunner(), trials=4,
  baseline=True)``: Figure 6 at paper scale;
* ``andrew_nfs`` — ``run_validation(ALL_SCENARIOS, AndrewRunner(),
  trials=4, seeds=2, baseline=True)``: Figure 8 over two seeds;
* ``fuzz_check`` — ``run_fuzz(25, seed=0)``: the CI fuzz smoke.

The benchmark seed is the validation workloads' seed: it is the
``seed`` passed to ``run_validation``, so the program receives only the
inputs the seed generates.  ``fuzz_check`` is fixed (see ``_run_fuzz``).
The correctness checks on Figures 6 and 8 are the shape assertions of
``benchmarks/bench_fig6_web.py`` and ``benchmarks/bench_fig8_andrew.py``,
with the same thresholds, returned as messages instead of raised.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import metrics

NAMES = ("web_fig6", "andrew_nfs", "fuzz_check")
FUZZ_COUNT = 25
# The CI fuzz smoke's seed and its corpus digest, pinned: a change to
# the generator shows up here before it shows up as a "different
# workload".
FUZZ_SEED = 0
FUZZ_CORPUS_DIGEST = ("db970d388437225f647150810b24c26ac032301d"
                      "849333350d613b59267b0b8d")


@dataclass
class Prepared:
    """What set-up built: everything a run needs before its first job."""

    name: str
    seed: int
    scenarios: List[Any] = field(default_factory=list)
    runner: Any = None
    seeds: int = 1
    compensation: Optional[float] = None


@dataclass
class Outcome:
    """One run of a workload: its rendered output and its verdict."""

    text: str
    attempted: int
    failed: int
    errors: List[str]
    sigma_cells: int = 0
    sigma_pass: int = 0
    transport: Dict[str, Any] = field(default_factory=dict)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def prepare(name: str, seed: int) -> Prepared:
    """Resolve scenarios, build runner inputs and measure the delay
    compensation constant — the set-up every CLI invocation pays."""
    if name == "fuzz_check":
        return Prepared(name=name, seed=seed)
    from repro.scenarios import ALL_SCENARIOS
    from repro.validation import AndrewRunner, WebRunner, compensation_vb

    if name == "web_fig6":
        runner, seeds = WebRunner(), 1
    elif name == "andrew_nfs":
        runner, seeds = AndrewRunner(), 2
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Prepared(name=name, seed=seed,
                    scenarios=[cls() for cls in ALL_SCENARIOS],
                    runner=runner, seeds=seeds,
                    compensation=compensation_vb())


def executor(workers: int):
    """The program's own scheduler; ``workers > 1`` starts the pool now
    (echo jobs), so pool start-up is paid in set-up, not in the run."""
    from repro.runtime.job import Job, echo, runner_ref
    from repro.validation import TrialExecutor

    exe = TrialExecutor(workers=workers)
    if workers > 1:
        ref = runner_ref(echo)
        exe.map_jobs([Job(kind="echo", runner=ref, payload=i)
                      for i in range(workers)])
    return exe


def run(prep: Prepared, exe, records: bool = False) -> Outcome:
    """Execute the workload on ``exe`` and verify its output.

    ``records`` asks validation trials for their ``ObsConfig(metrics=
    True)`` records (the traced run reads them); fuzz checks always
    record them.
    """
    if prep.name == "fuzz_check":
        return _run_fuzz(prep, exe)
    return _run_validation(prep, exe, records)


# ----------------------------------------------------------------------
# Validation workloads
# ----------------------------------------------------------------------
def _validation_ops(prep: Prepared) -> int:
    """Trial jobs of one sweep: per scenario a collect-and-distill, a
    live and a modulated trial per run and variant; Ethernet trials."""
    runs = prep.seeds * 4
    variants = len(prep.runner.variants())
    n = len(prep.scenarios)
    return n * runs * (1 + 2 * variants) + variants * runs


def _run_validation(prep: Prepared, exe, records: bool) -> Outcome:
    from repro.obs import ObsConfig
    from repro.validation import run_validation

    ops = _validation_ops(prep)
    try:
        sweep = run_validation(prep.scenarios, prep.runner, seed=prep.seed,
                               trials=4, seeds=prep.seeds, baseline=True,
                               compensation=prep.compensation,
                               executor=exe,
                               obs=ObsConfig(metrics=True) if records
                               else None)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed run
        return Outcome(text="", attempted=ops, failed=ops,
                       errors=[f"sweep raised {type(exc).__name__}: {exc}"])
    text = sweep.render()
    check = check_fig6 if prep.name == "web_fig6" else check_fig8
    errors = check(sweep.validations, sweep.baseline)
    runs = prep.seeds * 4
    cells = []
    for v in sweep.validations:
        comps = list(v.comparisons.values())
        cells.append({"trials": runs, "finite": all(
            _finite(c.real.mean) and _finite(c.real.std) for c in comps)})
        cells.append({"trials": runs, "finite": all(
            _finite(c.modulated.mean) and _finite(c.modulated.std)
            for c in comps)})
    cells.append({"trials": runs, "finite": all(
        _finite(s.mean) for s in sweep.baseline.values())})
    for cell in cells:
        if not cell["finite"]:
            errors.append("non-finite metric in the table")
            break
    failed = metrics.validation_failures(ops, cells, bool(errors))
    comparisons = [c for v in sweep.validations
                   for c in v.comparisons.values()]
    return Outcome(text=text, attempted=ops, failed=failed, errors=errors,
                   sigma_cells=len(comparisons),
                   sigma_pass=sum(1 for c in comparisons if c.accurate),
                   transport=sweep.transport)


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_fig6(validations, baseline) -> List[str]:
    """Figure 6 shape: bench_fig6_web.py's assertions, as messages."""
    errors = []
    ether = baseline["elapsed"].mean
    if not abs(ether - 140.3) / 140.3 < 0.10:
        errors.append(f"Ethernet elapsed {ether:.2f} not within 10% of "
                      f"140.3")
    for v in validations:
        comp = v.comparison("elapsed")
        if not comp.real.mean > ether:
            errors.append(f"{v.scenario}: live {comp.real.mean:.2f} not "
                          f"slower than Ethernet {ether:.2f}")
        if not comp.sigma_distance < 4.0:
            errors.append(f"{v.scenario}: sigma distance "
                          f"{comp.sigma_distance:.2f} >= 4")
    accurate = sum(1 for v in validations
                   if v.comparison("elapsed").accurate)
    if not accurate >= 2:
        errors.append(f"only {accurate} scenario(s) within the sigma sum")
    return errors


def check_fig8(validations, baseline) -> List[str]:
    """Figure 8 shape: bench_fig8_andrew.py's assertions, as messages."""
    errors = []
    total = baseline["Total"].mean
    if not abs(total - 124.0) / 124.0 < 0.08:
        errors.append(f"Ethernet Total {total:.2f} not within 8% of 124")
    make = baseline["Make"].mean
    if not abs(make - 84.0) / 84.0 < 0.10:
        errors.append(f"Ethernet Make {make:.2f} not within 10% of 84")
    by_name = {v.scenario: v for v in validations}
    for v in validations:
        real_total = v.comparison("Total").real.mean
        if not v.comparison("Make").real.mean > 0.5 * real_total:
            errors.append(f"{v.scenario}: Make not more than half of Total")
        if not real_total > total:
            errors.append(f"{v.scenario}: live Total {real_total:.2f} not "
                          f"above Ethernet {total:.2f}")
    wean = by_name.get("wean")
    if wean is None:
        errors.append("no Wean row")
    else:
        readall = wean.comparison("ReadAll")
        if not readall.modulated.mean < readall.real.mean:
            errors.append("Wean ReadAll not under-delayed in modulation")
    for v in validations:
        t = v.comparison("Total")
        ratio = t.modulated.mean / t.real.mean
        if not 0.75 < ratio < 1.35:
            errors.append(f"{v.scenario}: modulated/real Total {ratio:.3f} "
                          f"outside (0.75, 1.35)")
    return errors


# ----------------------------------------------------------------------
# Fuzz workload
# ----------------------------------------------------------------------
def _run_fuzz(prep: Prepared, exe) -> Outcome:
    """The CI fuzz smoke, ``run_fuzz(25, seed=0)``, whatever the
    benchmark seed.

    Its cost varies with every seed it takes: threefold with the corpus
    seed (10 s of wall at seed 0, 32 s at seed 2, driven by the
    generated cross-laptop count) and by 20% in wall and 49-68 MB in
    peak RSS with the check seed.  No bound holds that, so the
    campaign is fixed and ``web_fig6`` carries the seed.
    """
    from repro.check.fuzz import run_fuzz

    try:
        # Serial runs go through run_fuzz's own in-process loop.
        result = run_fuzz(FUZZ_COUNT, seed=FUZZ_SEED,
                          executor=exe if exe.workers > 1 else None)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed run
        return Outcome(text="", attempted=FUZZ_COUNT, failed=FUZZ_COUNT,
                       errors=[f"fuzz raised {type(exc).__name__}: {exc}"])
    errors = []
    if result.checked != FUZZ_COUNT:
        errors.append(f"{result.checked} of {FUZZ_COUNT} specs checked")
    if result.corpus_digest != FUZZ_CORPUS_DIGEST:
        errors.append(f"corpus digest {result.corpus_digest[:12]} is not "
                      f"the pinned {FUZZ_CORPUS_DIGEST[:12]}")
    for finding in result.findings:
        errors.append(f"{finding.original.name}: "
                      f"{len(finding.violations)} violation(s)")
    failed = metrics.fuzz_failures(
        FUZZ_COUNT, len(result.findings),
        result.corpus_digest != FUZZ_CORPUS_DIGEST
        or result.checked != FUZZ_COUNT)
    return Outcome(text=result.render(), attempted=FUZZ_COUNT,
                   failed=failed, errors=errors,
                   transport=exe.transport_stats())
