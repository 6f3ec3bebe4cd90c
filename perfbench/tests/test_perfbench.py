"""Tests for the benchmark's own logic.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import math
from pathlib import Path

import pytest

import layers
import metrics
import run
from spans import (Patches, Sampler, Span, SpanRecorder, patch_function,
                   self_times)

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        Span("phase", 0.0, 10.0),                 # 0: root
        Span("sim.run", 1.0, 4.0, parent=0),      # 1
        Span("sim.run", 5.0, 9.0, parent=0),      # 2
        Span("inner", 2.0, 3.0, parent=1),        # 3: grandchild
        Span("other", 20.0, 21.0),                # 4: second root
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("parent", 0.0, 10.0),
        Span("a", 2.0, 6.0, parent=0),
        Span("b", 4.0, 8.0, parent=0),      # overlaps a: union 2..8
        Span("c", 9.0, 12.0, parent=0),     # runs past the parent: 9..10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_and_inherits_the_trial_id():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    outer = rec.open("core.live", trial="w:wean:0:1:live")
    inner = rec.open("sim.run")
    rec.close(inner)
    rec.close(outer)
    assert rec.spans[1].parent == 0
    assert rec.spans[1].trial == "w:wean:0:1:live"
    assert self_times(rec.spans) == [2.0, 1.0]


def test_recorder_rejects_out_of_order_close():
    rec = SpanRecorder()
    outer = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_layer_groups_charge_engine_runs_to_their_phase():
    rec = SpanRecorder()
    rec.spans = [
        Span("core.live", 0.0, 4.0),
        Span("sim.run", 1.0, 3.0, parent=0),
        Span("core.modulated", 5.0, 6.0),
        Span("pipeline.encode", 7.0, 10.0),
        Span("sim.run", 11.0, 12.0),             # no phase around it
    ]
    groups = layers.layer_groups(rec)
    assert groups == pytest.approx({"core.live+modulated": 5.0,
                                    "pipeline.codec": 3.0, "sim.run": 1.0})


# ----------------------------------------------------------------------
# Percentile rule and summary statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, pct", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (52, 75.0), (99, 75.0), (100, 90.0), (104, 90.0), (200, 95.0),
    (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert metrics.tail_percentile(n) == pct
    if pct is not None:
        assert round(n * (100 - pct) / 100, 6) >= metrics.MIN_BEYOND


def test_tail_summary_reports_median_tail_and_count():
    values = [float(v) for v in range(1, 101)]        # 1..100
    s = metrics.tail_summary(values)
    assert s["n"] == 100 and s["tail_pct"] == 90.0
    assert s["p50"] == pytest.approx(50.5)
    assert s["tail"] == pytest.approx(90.1)
    few = metrics.tail_summary([3.0, 1.0, 2.0])
    assert few["tail_pct"] == 50.0 and few["tail"] == few["p50"] == 2.0


def test_host_speed_scales_times_to_nominal():
    assert metrics.host_speed([1.0, 1.0], nominal=1.0) == 1.0
    # The reference took twice as long: the host ran at half speed, so
    # a 20 s raw run is a 10 s run at nominal speed.  The median keeps
    # one outlying reference time from moving it.
    speed = metrics.host_speed([1.8, 2.0, 2.2, 9.0, 2.0], nominal=1.0)
    assert speed == pytest.approx(0.5)
    assert 20.0 * speed == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def test_failed_frac_counts_against_attempted():
    assert metrics.failed_frac(0, 52) == 0.0
    assert metrics.failed_frac(13, 52) == 0.25
    with pytest.raises(ValueError):
        metrics.failed_frac(0, 0)
    with pytest.raises(ValueError):
        metrics.failed_frac(3, 2)


def test_validation_failures_by_cell_and_by_check():
    cells = [{"trials": 4, "finite": True},
             {"trials": 4, "finite": False},
             {"trials": 4, "finite": True}]
    assert metrics.validation_failures(52, cells, checks_failed=False) == 4
    assert metrics.validation_failures(52, cells, checks_failed=True) == 52
    clean = [{"trials": 4, "finite": True}] * 3
    assert metrics.validation_failures(52, clean, checks_failed=False) == 0


def test_fuzz_failures_count_violating_specs():
    assert metrics.fuzz_failures(25, 0, checks_failed=False) == 0
    assert metrics.fuzz_failures(25, 2, checks_failed=False) == 2
    assert metrics.fuzz_failures(25, 0, checks_failed=True) == 25


# ----------------------------------------------------------------------
# Metric names and BENCHMARK.json
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name, ok", [
    ("wall_s", True), ("sim.events_per_s", True), ("0x", True),
    ("a" * 64, True), ("a" * 65, False), ("_lead", False), (".x", False),
    ("has space", False), ("slash/no", False), ("", False)])
def test_metric_name_grammar(name, ok):
    assert metrics.valid_name(name) is ok


@pytest.mark.parametrize("unit, ok", [
    ("s", True), ("1/s", True), ("%", True), ("count", True),
    ("MB", True), ("a" * 17, False), ("", False), ("m s", False)])
def test_unit_grammar(unit, ok):
    assert metrics.valid_unit(unit) is ok


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} <= set(run.workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers.PER_LAYER
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(metrics.valid_name(n) for n in names)
    assert all(metrics.valid_unit(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# Wrapping and the traced run
# ----------------------------------------------------------------------
def test_patches_restore_every_binding():
    from repro.pipeline import codec, store

    original = codec.encode_gz
    patches = Patches()
    changed = patch_function(patches, original, lambda *a, **k: b"")
    assert changed >= 1 and codec.encode_gz is not original
    patches.restore()
    assert codec.encode_gz is original
    assert store.ArtifactStore.get.__name__ == "get"


def test_traced_run_emits_every_per_layer_metric():
    """A small traced validation sweep through the real wrappers."""
    from repro.obs import ObsConfig
    from repro.scenarios import ALL_SCENARIOS
    from repro.validation import FtpRunner, run_validation

    trace = layers.LayerTrace("web_fig6")
    sampler = Sampler()
    trace.install()
    try:
        sampler.start()
        sweep = run_validation(ALL_SCENARIOS[:1],
                               FtpRunner(nbytes=20_000, direction="send"),
                               trials=1, baseline=True, workers=1,
                               obs=ObsConfig(metrics=True))
    finally:
        sampler.stop()
        trace.restore()
    assert sweep.validations
    out = layers.layer_metrics(
        "web_fig6", trace, sampler, traced_wall=2.0, serial_wall=1.0,
        pool={"transport": {}, "jobs": 4, "chunks": 2, "cpu_s": 1.0,
              "wall_s": 1.0, "workers": 2})
    assert set(out) == {name for name, _, _ in layers.PER_LAYER}
    assert all(math.isfinite(v) for v in out.values())
    kinds = {s.name for s in trace.recorder.spans}
    assert {"core.collect", "core.distill", "core.live", "core.modulated",
            "core.ethernet", "sim.run"} <= kinds
    assert out["sim.events_fired"] > 0 and out["net.frames"] > 0
    assert out["core.trial_samples"] == 4
    assert out["bench.trace_overhead"] == pytest.approx(1.0)
    live = [s for s in trace.recorder.spans if s.name == "core.live"][0]
    assert live.trial == "web_fig6:wean:0:0:live"


def test_profile_groups():
    assert layers.profile_group("repro.net.wavelan") == "net"
    assert layers.profile_group("repro.validation.harness") == "validation"
    assert layers.profile_group("repro.analysis.stats") == "other"
    assert layers.profile_group("gzip") == "other"
