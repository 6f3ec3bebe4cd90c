"""Data-plane equivalence: pool ≡ serial, bit for bit.

Pool workers hand bulk results back through a shared binary store
instead of the pool pipe; these tests pin the contract that this data
plane can never change a result — identical tables for any worker
count, and identical behaviour with a disk cache underneath (where
workers write artifacts straight into the pipeline's own store).
"""

import pytest

from repro.pipeline import Pipeline
from repro.scenarios import PorterScenario, WeanScenario
from repro.validation.harness import FtpRunner
from repro.validation.parallel import run_validation


@pytest.fixture(scope="module")
def reference_sweep():
    runner = FtpRunner(nbytes=150_000, direction="send")
    scenarios = [PorterScenario(), WeanScenario()]
    sweep = run_validation(scenarios, runner, seed=0, trials=2,
                           baseline=True, workers=1)
    return runner, scenarios, sweep.render()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_worker_count_changes_nothing(reference_sweep, workers):
    runner, scenarios, reference = reference_sweep
    sweep = run_validation(scenarios, runner, seed=0, trials=2,
                           baseline=True, workers=workers)
    assert sweep.render() == reference
    assert sweep.fallback_reason is None
    if workers > 1:
        assert sweep.workers_used > 1
        assert sweep.transport["transport"] == "pool"
        # jobs crossed the process boundary and came back
        assert sweep.transport["ipc_bytes_sent"] > 0
        assert sweep.transport["ipc_bytes_recv"] > 0


def test_envelope_moves_bulk_results_out_of_the_pipe(reference_sweep):
    """Bulk results travel through the store: the pipe carries only
    envelopes and small results, a fraction of the artifact bytes."""
    runner, scenarios, reference = reference_sweep
    sweep = run_validation(scenarios, runner, seed=0, trials=2,
                           baseline=True, workers=2)
    assert sweep.render() == reference
    stats = sweep.transport
    assert stats["envelope_count"] > 0
    assert stats["ipc_bytes_recv"] < stats["artifact_bytes"] / 4


def test_envelope_with_disk_cache_warm_rerun_zero_recompute(tmp_path):
    runner = FtpRunner(nbytes=120_000, direction="send")

    def sweep(pipeline):
        return run_validation([PorterScenario()], runner, seed=0,
                              trials=1, baseline=True, workers=2,
                              cache=pipeline)

    cold = sweep(Pipeline(str(tmp_path)))
    assert cold.cache_misses > 0 and cold.cache_hits == 0
    # workers wrote binary-framed objects into the pipeline's own
    # store — no separate IPC staging copies
    assert list((tmp_path / "objects").glob("*/*.rba"))

    warm = sweep(Pipeline(str(tmp_path)))
    assert warm.cache_misses == 0 and warm.cache_hits > 0
    assert warm.render() == cold.render()
