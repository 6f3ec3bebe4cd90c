"""The repository benchmark: end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workers 2 --workload web_fig6 --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` runs the workload repeatedly, each time as a fresh
process that sets up like a CLI invocation and runs on a pool of
``--workers`` processes with tracing off, until ``--seconds`` have
passed and at least four runs are done; it reports the end-to-end
metrics as medians over those runs.  Times are calibrated to nominal
host speed: a reference task (reference.py) runs on every worker core
before and after each run, and the median times are scaled by
``REF_NOMINAL_S`` over the median reference time.  Raw times are kept
in the record.  ``--trace 1`` runs the traced leg
once (see child.py) and reports the per-layer metrics.

Every run's output is checked (see workloads.py).  The conditions of
the run — host, load, workers, seed, source digest — are printed and
written with the full per-run record to ``.perfbench_out/`` in the
checkout.  The last line of standard output is the JSON result; the
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

# (name, unit, better) of every end-to-end metric.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("sigma_pass_frac", "ratio", "higher"),
]
MIN_RUNS = 4
# Reference-task seconds that define nominal host speed (see
# reference.py): a calibrated time is the median raw time times
# REF_NOMINAL_S over the median reference time of the same run.
REF_NOMINAL_S = 1.0
# Set-up-only invocations added to each e2e run's set-up samples.
EXTRA_SETUPS = 5
# A run must finish within 180 s: no new e2e run starts once this much
# time plus the last run's duration would be exceeded.
TIME_CAP_S = 150.0
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources (path and bytes), the
    checkout's identity when it is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = root / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else None
    return ref


def host_fingerprint() -> Dict[str, Any]:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def run_child(root: Path, env: Dict[str, str], mode: str, workload: str,
              seed: int, workers: int) -> Dict[str, Any]:
    """Run child.py in its own session; kill the whole group on timeout."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload,
           str(seed), str(workers)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} run exceeded {CHILD_TIMEOUT_S:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} run exited {proc.returncode}")
    return json.loads(lines[-1])


def probe(env: Dict[str, str], workers: int) -> float:
    """Mean seconds of the reference task run once on each worker core
    at the same time."""
    procs = [subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                              env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(workers)]
    outs = [p.communicate(timeout=60)[0] for p in procs]
    if any(p.returncode != 0 for p in procs):
        raise ChildFailed("reference task failed")
    return sum(float(o) for o in outs) / len(outs)


def e2e_runs(root: Path, env: Dict[str, str], args) -> Dict[str, Any]:
    runs: List[Dict[str, Any]] = []
    errors: List[str] = []
    start = time.monotonic()
    last = 0.0
    probes = [probe(env, args.workers)]
    while True:
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed >= args.seconds:
            break
        if runs and elapsed + last > TIME_CAP_S:
            break
        t_spawn = time.time()
        t0 = time.monotonic()
        try:
            run = run_child(root, env, "e2e", args.workload, args.seed,
                            args.workers)
            last = time.monotonic() - t0
            probes.append(probe(env, args.workers))
        except ChildFailed as exc:
            errors.append(str(exc))
            break
        run["setup_s"] = run.pop("setup_done") - t_spawn
        runs.append(run)
        errors.extend(run["errors"])
        print(f"run {len(runs)}: wall {run['wall_s']:.3f} s, cpu "
              f"{run['cpu_s']:.3f} s, setup {run['setup_s']:.3f} s, rss "
              f"{run['peak_rss_mb']:.1f} MB, reference {probes[-1]:.3f} s, "
              f"failed {run['failed']}/{run['attempted']}, sha "
              f"{run['sha256'][:12]}", flush=True)
    setups = [r["setup_s"] for r in runs]
    for _ in range(EXTRA_SETUPS if runs else 0):
        t_spawn = time.time()
        try:
            raw = run_child(root, env, "setup", args.workload, args.seed,
                            args.workers)["setup_done"] - t_spawn
        except ChildFailed as exc:
            errors.append(str(exc))
            break
        setups.append(raw)
    if len({r["sha256"] for r in runs}) > 1:
        errors.append("runs of the same seed rendered different output")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if not runs:
        attempted = failed = 1
    values: Dict[str, float] = {}
    speed = metrics.host_speed(probes, REF_NOMINAL_S)
    if runs:
        for key in ("wall_s", "cpu_s"):
            values[key] = speed * metrics.median([r[key] for r in runs])
        values["peak_rss_mb"] = metrics.median([r["peak_rss_mb"]
                                                for r in runs])
        values["setup_s"] = speed * metrics.median(setups)
        if args.workload == "fuzz_check":
            # No live-vs-modulated cells: vacuously all within the sum.
            values["sigma_pass_frac"] = 1.0
        else:
            values["sigma_pass_frac"] = metrics.median(
                [metrics.ratio(r["sigma_pass"], r["sigma_cells"])
                 for r in runs])
        values["ok_frac"] = 1.0 - metrics.failed_frac(failed, attempted)
    return {"runs": runs, "setups": setups, "probes": probes,
            "host_speed": speed,
            "errors": errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _ in END_TO_END if name in values}}


def traced_run(root: Path, env: Dict[str, str], args) -> Dict[str, Any]:
    try:
        run = run_child(root, env, "trace", args.workload, args.seed,
                        args.workers)
    except ChildFailed as exc:
        return {"runs": [], "errors": [str(exc)], "attempted": 1,
                "failed": 1, "metrics": {}}
    values = run.pop("metrics")
    errors = list(run["errors"])
    missing = [name for name, _, _ in layers.PER_LAYER if name not in values]
    if missing:
        errors.append(f"per-layer metrics missing: {missing}")
    print("layer groups (self s): " + ", ".join(
        f"{k} {v:.2f}" for k, v in sorted(run["layer_groups"].items(),
                                          key=lambda kv: -kv[1])),
          flush=True)
    return {"runs": [run], "errors": errors, "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _ in layers.PER_LAYER
                        if name in values}}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {root / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    # The "build": byte-compile the sources once, outside any timing.
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        print("perfbench: byte-compiling src/ failed", file=sys.stderr)
        return 2
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(tmp))
    conditions = {
        "workload": args.workload, "seed": args.seed,
        "workers": args.workers, "seconds": args.seconds,
        "trace": args.trace, "host": host_fingerprint(),
        "git_commit": git_commit(root), "source_sha256": source_digest(root),
        "loadavg_before": os.getloadavg()[0],
    }
    try:
        leg = traced_run if args.trace else e2e_runs
        result = leg(root, env, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (root / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    conditions["loadavg_after"] = os.getloadavg()[0]
    correct = not result["errors"] and result["failed"] == 0
    for err in result["errors"]:
        print(f"CHECK FAILED: {err}", flush=True)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"conditions": conditions, "correct": correct, **result}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"conditions": conditions}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
