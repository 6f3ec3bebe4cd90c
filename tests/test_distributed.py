"""The distributed-sweep acceptance gate.

Four claims, tested end to end:

1. **Fleet equivalence** — `validate`, `check` and `fuzz` produce
   byte-identical stdout (and table SHA-256s) on a 2-pseudo-host
   remote fleet at 2 and 4 workers per host, exactly as on the serial
   path.  ``--hosts`` is a pure performance knob.
2. **Chaos recovery** — SIGKILLing a busy fleet worker mid-sweep
   loses nothing: its chunk is re-dispatched onto survivors, the
   table stays byte-identical, and the recovery is visible in the
   backend's transport stats (never on stdout).
3. **Sync plane** — FETCH/HAVE frames round-trip any payload, reject
   truncation at every byte, and an artifact present on two nodes
   crosses the wire exactly once.
4. **Worker protocol** — EOF is a clean exit (0); SIGTERM exits 143
   so a torn-down node is distinguishable from a crashed job; a worker
   speaking an older protocol is refused.
"""

import hashlib
import json
import os
import signal
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.runtime import (
    BackendUnavailable,
    HostsError,
    RemoteBackend,
    Scheduler,
    load_hosts_file,
    parse_hosts,
    resolve_hosts,
)
from repro.runtime.backends import recv_frame, send_frame
from repro.runtime.hosts import LocalLauncher
from repro.runtime.sync import (
    SYNC_MAGIC,
    SyncError,
    decode_sync,
    encode_sync,
    fetch_frame,
    have_frame,
    put_frame,
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ======================================================================
# 1. Fleet equivalence: serial == remote(2 pseudo-hosts)
# ======================================================================
# Two pseudo-hosts each owning a private store root and a sync channel,
# at 2 and 4 workers per host — the full multi-node path (launch,
# artifact sync, work stealing, merge) on one box.
HOSTS_MATRIX = ["local:2,local:2", "local:4,local:4"]

VALIDATE_ARGV = ["validate", "--scenario", "wean", "--benchmark", "ftp",
                 "--ftp-bytes", "50000", "--trials", "2"]
CHECK_ARGV = ["check", "--smoke"]
FUZZ_ARGV = ["fuzz", "--count", "2", "--seed", "0"]

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


class TestFleetEquivalence:
    @pytest.mark.parametrize("hosts", HOSTS_MATRIX)
    def test_validate_fleet(self, capsys, hosts):
        serial = _reference(capsys, "validate", VALIDATE_ARGV)
        out = _run(capsys, VALIDATE_ARGV + ["--hosts", hosts])
        assert out == serial
        assert _sha(out) == _sha(serial)

    @pytest.mark.parametrize("hosts", HOSTS_MATRIX)
    def test_check_fleet(self, capsys, hosts):
        serial = _reference(capsys, "check", CHECK_ARGV)
        out = _run(capsys, CHECK_ARGV + ["--hosts", hosts])
        assert out == serial
        assert _sha(out) == _sha(serial)

    @pytest.mark.parametrize("hosts", HOSTS_MATRIX)
    def test_fuzz_fleet(self, capsys, hosts):
        serial = _reference(capsys, "fuzz", FUZZ_ARGV)
        out = _run(capsys, FUZZ_ARGV + ["--hosts", hosts])
        assert out == serial
        assert _sha(out) == _sha(serial)

    def test_validate_seeds_fleet(self, capsys):
        # The Monte Carlo workload: --seeds widens the sweep, and the
        # widened sweep is still byte-identical serial vs fleet.
        argv = VALIDATE_ARGV + ["--seeds", "2"]
        serial = _run(capsys, argv + ["--workers", "1"])
        assert "2 trials x 2 seeds" in serial
        out = _run(capsys, argv + ["--hosts", "local:2,local:2"])
        assert out == serial

    def test_fleet_ledger_has_per_node_contribution(self, tmp_path,
                                                    capsys):
        _run(capsys, VALIDATE_ARGV
             + ["--hosts", "local:2,local:2",
                "--run-dir", str(tmp_path)])
        record = json.loads(
            (tmp_path / "ledger.jsonl").read_text().splitlines()[-1])
        transport = record["transport"]
        assert transport["transport"] == "remote"
        backend = transport["backend"]
        nodes = {n["host"]: n for n in backend["nodes"]}
        assert set(nodes) == {"local#0", "local#1"}
        for node in nodes.values():
            assert node["workers"] == 2
            assert node["jobs"] >= 0 and node["chunks"] >= 0
            assert node["wall_s"] >= 0.0
        # Both nodes pulled work (work stealing, not static halves).
        assert sum(n["chunks"] for n in nodes.values()) > 0
        assert backend["sync"]["fetch_requests"] >= 0

    def test_metrics_rolls_up_fleet_utilization(self, tmp_path, capsys):
        _run(capsys, VALIDATE_ARGV
             + ["--hosts", "local:2,local:2",
                "--run-dir", str(tmp_path)])
        out = _run(capsys, ["metrics",
                            str(tmp_path / "ledger.jsonl")])
        assert "repro_fleet_nodes 2" in out
        assert "repro_fleet_node_local_0_chunks_total" in out
        assert "repro_fleet_node_local_1_chunks_total" in out
        assert "repro_fleet_utilization" in out


# ======================================================================
# 2. Chaos recovery: SIGKILL a busy worker mid-sweep
# ======================================================================
class TestChaosRecovery:
    def test_killed_worker_chunk_redispatches(self):
        from repro.scenarios import resolve_scenario
        from repro.validation import FtpRunner, run_validation
        from repro.validation.parallel import TrialExecutor

        scenario = resolve_scenario("wean")
        runner = FtpRunner(nbytes=50000)
        reference = run_validation(scenario, runner, seed=0,
                                   trials=2).render()

        exe = TrialExecutor(hosts="local:2,local:2")
        killed = []

        def killer():
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                backend = exe._backend
                if backend is not None:
                    busy = backend.active_workers()
                    if busy:
                        node, pid = busy[0]
                        os.kill(pid, signal.SIGKILL)
                        killed.append((node, pid))
                        return
                time.sleep(0.005)

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        try:
            table = run_validation(scenario, runner, seed=0, trials=2,
                                   executor=exe).render()
            thread.join(timeout=60.0)
            assert killed, "no busy worker appeared to kill"
            stats = exe.transport_stats()
        finally:
            exe.shutdown()
        # Byte-identical despite the loss, and the recovery is visible
        # in transport stats — never in stdout or fallback_reasons.
        assert table == reference
        backend_stats = stats["backend"]
        assert backend_stats["workers_lost"] >= 1
        assert backend_stats["redispatches"] >= 1
        assert stats["serial_fallbacks"] == 0


# ======================================================================
# 3. The sync plane: frames and cross-node dedup
# ======================================================================
_KEYS = st.lists(st.text(min_size=1, max_size=40), max_size=8)
_BLOBS = st.dictionaries(st.text(min_size=1, max_size=40),
                         st.binary(max_size=64), max_size=6)


class TestSyncFrames:
    @settings(max_examples=50, deadline=None)
    @given(keys=_KEYS)
    def test_key_frames_roundtrip(self, keys):
        for frame, want_op in ((have_frame(keys), "HAVE"),
                               (fetch_frame(keys), "FETCH")):
            op, payload = decode_sync(frame)
            assert op == want_op
            assert payload == list(keys)

    @settings(max_examples=50, deadline=None)
    @given(blobs=_BLOBS)
    def test_blob_frames_roundtrip(self, blobs):
        for op in ("PUT", "ARTIFACTS"):
            got_op, payload = decode_sync(encode_sync(op, blobs))
            assert got_op == op
            assert payload == blobs

    def test_truncation_rejected_at_every_byte(self):
        frame = put_frame({"replay:abc": b"\x01\x02\x03", "k": b""})
        for cut in range(len(frame)):
            with pytest.raises(SyncError):
                decode_sync(frame[:cut])

    def test_trailing_garbage_rejected(self):
        frame = have_frame(["a", "b"])
        with pytest.raises(SyncError):
            decode_sync(frame + b"\x00")

    def test_bad_magic_and_version_rejected(self):
        frame = bytearray(have_frame(["a"]))
        bad_magic = b"XXXX" + bytes(frame[len(SYNC_MAGIC):])
        with pytest.raises(SyncError):
            decode_sync(bad_magic)
        frame[4] = 0xFF  # version word
        with pytest.raises(SyncError):
            decode_sync(bytes(frame))

    def test_unknown_op_rejected(self):
        with pytest.raises(SyncError):
            encode_sync("STEAL", ["a"])
        with pytest.raises(SyncError):
            encode_sync("HAVE", [""])  # empty key

    def test_wrong_payload_shape_rejected(self):
        with pytest.raises(SyncError):
            encode_sync("PUT", {"k": "not-bytes"})


class TestArtifactDedup:
    def test_artifact_on_two_nodes_fetched_once(self, tmp_path):
        backend = RemoteBackend(parse_hosts("local:1,local:1"))
        backend.start(str(tmp_path / "parent-store"))
        try:
            blob = b"\x1f\x8b-encoded-artifact-bytes"
            key = "replay:deadbeef"
            # The same artifact lands on BOTH nodes (as when two nodes
            # each compute the same fingerprinted stage).
            for node in backend._nodes:
                node.sync.put({key: blob})
            first = backend.fetch_artifact(key)
            assert first == blob
            wire_fetches = backend.stats()["sync"]["fetch_requests"]
            assert wire_fetches == 1
            # Second read: served from the parent store merge point,
            # no wire traffic.
            second = backend.fetch_artifact(key)
            assert second == blob
            assert backend.stats()["sync"]["fetch_requests"] == 1
            assert backend.stats()["sync"]["unique_keys_fetched"] == 1
        finally:
            backend.shutdown()

    def test_envelopes_rehydrate_through_fetch_plane(self, tmp_path):
        # Private node stores: big results come back as envelopes and
        # the parent pulls each sealed artifact exactly once.
        from repro.runtime import Job, runner_ref
        from repro.runtime.job import echo

        exe = Scheduler(hosts="local:1,local:1")
        try:
            payloads = [os.urandom(8192) for _ in range(4)]
            jobs = [Job(kind="echo", runner=runner_ref(echo), payload=p,
                        label=f"big:{i}", cost_hint=1.0)
                    for i, p in enumerate(payloads)]
            assert exe.map_jobs(jobs) == payloads
            assert exe.transport_used == "remote"
            sync = exe._backend.stats()["sync"]
            assert sync["unique_keys_fetched"] == len(payloads)
            assert sync["fetch_requests"] == sync["unique_keys_fetched"]
            assert sync["bytes_fetched"] > 4 * 8192
        finally:
            exe.shutdown()


# ======================================================================
# 4. Worker protocol and shutdown semantics
# ======================================================================
def _spawn_worker(role="worker", store_root=None):
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    argv = ["--host", "127.0.0.1", "--port", str(port), "--node", "t",
            "--role", role]
    if store_root:
        argv += ["--store-root", store_root]
    proc = LocalLauncher().launch(argv)
    listener.settimeout(60.0)
    sock, _ = listener.accept()
    hello = recv_frame(sock)
    listener.close()
    return proc, sock, hello


class TestWorkerShutdown:
    @pytest.mark.parametrize("role", ["worker", "sync"])
    def test_sigterm_exits_143(self, role, tmp_path):
        proc, sock, hello = _spawn_worker(
            role, store_root=str(tmp_path / "store"))
        try:
            assert hello["proto"] == 3
            assert hello["role"] == role
            assert hello["node"] == "t"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30.0) == 143
        finally:
            sock.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_connection_eof_exits_zero(self, tmp_path):
        proc, sock, hello = _spawn_worker(
            store_root=str(tmp_path / "store"))
        try:
            assert hello["pid"] == proc.pid
            sock.close()
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class _Protocol2Worker:
    """Stands in for a worker from before protocol v3: it dials the
    parent back at once and says hello with ``proto: 2``."""

    def __init__(self, argv):
        port = int(argv[argv.index("--port") + 1])
        node = argv[argv.index("--node") + 1]
        self.sock = socket.create_connection(("127.0.0.1", port))
        send_frame(self.sock, {"pid": os.getpid(), "proto": 2,
                               "node": node, "role": "worker"})

    def wait(self, timeout=None):
        self.sock.close()
        return 0


class _Protocol2Launcher:
    def launch(self, argv):
        return _Protocol2Worker(argv)


class TestWorkerProtocol:
    def test_protocol_2_hello_refused(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.remote.launcher_for",
                            lambda spec: _Protocol2Launcher())
        backend = RemoteBackend(parse_hosts("local:1"))
        with pytest.raises(BackendUnavailable,
                           match="speaks protocol 2, expected 3"):
            backend.start(None)
        # The scheduler records the refusal and runs the jobs itself.
        from repro.runtime import Job, runner_ref
        from repro.runtime.job import echo

        exe = Scheduler(hosts="local:1")
        try:
            jobs = [Job(kind="echo", runner=runner_ref(echo), payload=i)
                    for i in range(3)]
            assert exe.map_jobs(jobs) == [0, 1, 2]
            assert "speaks protocol 2" in exe.fallback_reason
            assert exe.transport_stats()["transport"] == "serial"
        finally:
            exe.shutdown()


# ======================================================================
# Host inventory parsing
# ======================================================================
class TestHosts:
    def test_parse_hosts_pseudo_and_remote(self):
        specs = parse_hosts("local:2, local:4, rack7:8")
        assert [(s.name, s.workers) for s in specs] == [
            ("local#0", 2), ("local#1", 4), ("rack7", 8)]
        assert specs[0].is_local and specs[1].is_local
        assert not specs[2].is_local

    def test_parse_hosts_rejects_malformed(self):
        for bad in ("", "a", "a:b", "a:0", "a:4,a:2"):
            with pytest.raises(HostsError):
                parse_hosts(bad)

    def test_hosts_file_roundtrip(self, tmp_path):
        path = tmp_path / "fleet.toml"
        path.write_text(
            '[[hosts]]\nname = "local"\nworkers = 2\n'
            '[[hosts]]\nname = "rack7"\nworkers = 8\n'
            'ssh_user = "repro"\nremote_python = "python3.12"\n')
        specs = load_hosts_file(path)
        assert [(s.name, s.workers) for s in specs] == [
            ("local#0", 2), ("rack7", 8)]
        assert specs[1].ssh_user == "repro"
        assert specs[1].remote_python == "python3.12"
        # resolve_hosts accepts the path spelling too.
        assert resolve_hosts(str(path)) == specs

    def test_hosts_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "fleet.toml"
        path.write_text('[[hosts]]\nname = "a"\nworkers = 2\nfoo = 1\n')
        with pytest.raises(HostsError):
            load_hosts_file(path)
