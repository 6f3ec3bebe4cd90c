"""Pure helpers for the benchmark: summary statistics, the tail
percentile rule, failure accounting and the metric-name grammar.

Nothing here imports the program under test, so these rules are unit
tested in isolation (``perfbench/tests``).
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

# A metric or workload name: starts with a letter or digit, at most 64
# letters, digits, '_', '.' and '-'.  A unit: at most 16 letters,
# digits, '_', '/', '%', '.' and '-'.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Candidate percentiles, highest first.  A percentile is reported only
# when at least MIN_BEYOND samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.fullmatch(unit))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the numpy default) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it
    out of ``n``; ``None`` when even the median has fewer."""
    for pct in TAIL_LADDER:
        # n * (100 - pct) / 100 samples lie beyond; the tolerance keeps
        # 99.9 from losing to binary rounding.
        if n * (100.0 - pct) >= MIN_BEYOND * 100.0 - 1e-6:
            return pct
    return None


def tail_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, the tail percentile the sample count supports, and the
    count.  With too few samples for any tail, the tail is the median
    and its percentile is reported as 50."""
    n = len(values)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    pct = tail_percentile(n) or 50.0
    return {"p50": percentile(values, 50.0),
            "tail": percentile(values, pct),
            "tail_pct": pct, "n": n}


def failed_frac(failed: int, attempted: int) -> float:
    if attempted <= 0:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def validation_failures(ops: int, cells: Iterable[Dict],
                        checks_failed: bool) -> int:
    """Failed trial operations of one validation sweep.

    ``cells`` are ``{"trials": k, "finite": bool}`` groups of trials
    that feed one table row; a row with a non-finite value fails all
    its trials.  A failed correctness check on the rendered table fails
    every operation of the sweep, since the table is their joint output.
    """
    if checks_failed:
        return ops
    failed = sum(c["trials"] for c in cells if not c["finite"])
    return min(failed, ops)


def fuzz_failures(specs: int, violating: int, checks_failed: bool) -> int:
    """Failed fuzz specs: each violating spec, or all on a failed check."""
    if checks_failed:
        return specs
    return min(violating, specs)


def host_speed(reference_s: Sequence[float], nominal: float) -> float:
    """Host speed over a run, from the reference task's times around
    its repeats: 1 when their median is ``nominal``, above 1 when the
    host was faster.  A calibrated time is a raw time times this speed.
    Medians, because a single reference time is noisy on a shared
    host."""
    return nominal / median(reference_s)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when there is nothing to divide by."""
    return num / den if den else 0.0


def ranks(values: Dict[str, float]) -> List[str]:
    """Keys ordered from the largest value down (ties by name)."""
    return sorted(values, key=lambda k: (-values[k], k))
