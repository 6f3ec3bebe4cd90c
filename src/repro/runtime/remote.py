"""The multi-node execution fabric: :class:`RemoteBackend`.

Every ``--hosts`` run goes through this backend:

* ``repro validate --hosts a:4,b:8`` — real hosts, bootstrapped over
  SSH (:mod:`repro.runtime.hosts`), each node owning a *private*
  :class:`~repro.pipeline.ArtifactStore`;
* ``--hosts local:2,local:2`` — N pseudo-hosts on this machine, same
  private stores, same sync plane, so CI exercises the entire
  multi-node path on one box.

Workers are ``python -m repro.runtime.worker`` processes that dial the
parent's listener back and speak protocol v3 (see
:mod:`repro.runtime.worker`): the parent sends ``("chunk", id, wire,
telemetry_ctx)``, the worker streams ``("hb", id)`` heartbeats while
executing and finishes with ``("done", id, ok, payload, sealed_keys,
njobs)``.

Dispatch is **pull-based**: chunks go into one shared queue and each
worker's dispatcher thread takes the next one as its worker frees up —
no static assignment, so a slow node simply takes fewer chunks.  A
connection that EOFs or goes silent past the heartbeat timeout marks
that worker dead; its in-flight chunk is re-queued onto the survivors
(chunks are pure functions of their wire bytes, so re-execution cannot
change results) up to :data:`MAX_DISPATCH_ATTEMPTS`, after which — or
when no workers survive — the chunk's future fails with
:class:`~repro.runtime.backends.BackendBroken` and the scheduler
re-executes in-process.  Either way the output is byte-identical;
redispatches are surfaced in :meth:`RemoteBackend.stats`, never on
stdout.

The artifact plane (private stores only): each node gets one extra
*sync* connection serving the FETCH/HAVE/PUT frames of
:mod:`repro.runtime.sync`.  Before a chunk is dispatched, its jobs'
``input_refs`` are synced to the target node (HAVE first, so a node
that computed an artifact itself is never sent it again); after a
chunk completes, the parent knows which node holds each sealed key and
:meth:`fetch_artifact` pulls a missing artifact on demand, writing it
into the parent store so every key crosses the wire at most once no
matter how many nodes hold it.
"""

from __future__ import annotations

import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import Future
from queue import Empty, SimpleQueue
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..pipeline import ArtifactStore, codec
from .backends import (
    PROTOCOL_VERSION,
    Backend,
    BackendBroken,
    BackendUnavailable,
    recv_frame,
    send_frame,
)
from .hosts import HostSpec, launcher_for
from .sync import (
    SyncError,
    decode_sync,
    fetch_frame,
    have_frame,
    put_frame,
)

__all__ = [
    "MAX_DISPATCH_ATTEMPTS",
    "RemoteBackend",
]

# A chunk lost to a dead worker is re-queued at most this many times
# before its future fails over to in-process execution.
MAX_DISPATCH_ATTEMPTS = 3


class _Chunk:
    """One submitted chunk riding the shared dispatch queue."""

    __slots__ = ("chunk_id", "wire", "telemetry_ctx", "input_refs",
                 "future", "attempts")

    def __init__(self, chunk_id: int, wire: bytes,
                 telemetry_ctx: Optional[Tuple[str, int]],
                 input_refs: Sequence[str]):
        self.chunk_id = chunk_id
        self.wire = wire
        self.telemetry_ctx = telemetry_ctx
        self.input_refs = tuple(input_refs)
        self.future: Future = Future()
        self.attempts = 0


class _SyncChannel:
    """One node's artifact-sync connection (strictly request/reply,
    serialized by a lock so any thread can use it)."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._lock = threading.Lock()

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def _roundtrip(self, frame: bytes) -> Tuple[str, Any]:
        with self._lock:
            send_frame(self._sock, ("sync", frame))
            reply = recv_frame(self._sock)
        if not (isinstance(reply, tuple) and len(reply) == 2
                and reply[0] == "sync"):
            raise SyncError(f"unexpected sync reply frame: {reply!r}")
        return decode_sync(reply[1])

    def have(self, keys: Sequence[str]) -> List[str]:
        op, payload = self._roundtrip(have_frame(keys))
        if op != "HAVE":
            raise SyncError(f"HAVE answered with {op}")
        return payload

    def put(self, blobs: Dict[str, bytes]) -> None:
        op, _ = self._roundtrip(put_frame(blobs))
        if op != "ARTIFACTS":
            raise SyncError(f"PUT answered with {op}")

    def fetch(self, keys: Sequence[str]) -> Dict[str, bytes]:
        op, payload = self._roundtrip(fetch_frame(keys))
        if op != "ARTIFACTS":
            raise SyncError(f"FETCH answered with {op}")
        return payload


class _Node:
    """Parent-side state of one fleet node."""

    def __init__(self, spec: HostSpec, store_root: Optional[str]):
        self.spec = spec
        self.store_root = store_root
        self.procs: List[subprocess.Popen] = []
        self.sync: Optional[_SyncChannel] = None
        # Keys known to be in the node's store (sealed there or pushed
        # there), so input sync never repeats a transfer.  Guarded by
        # ``lock`` — several dispatcher threads serve one node.
        self.synced_keys: set = set()
        self.lock = threading.Lock()
        # Contribution counters for the run ledger.
        self.chunks = 0
        self.jobs = 0
        self.bytes_pushed = 0
        self.bytes_fetched = 0
        self.busy_ns = 0

    def stats(self) -> Dict[str, Any]:
        return {
            "host": self.spec.name,
            "workers": self.spec.workers,
            "chunks": self.chunks,
            "jobs": self.jobs,
            "bytes_pushed": self.bytes_pushed,
            "bytes_fetched": self.bytes_fetched,
            "wall_s": round(self.busy_ns / 1e9, 6),
        }


class _Conn:
    """One worker connection plus its dispatcher-thread state."""

    __slots__ = ("sock", "node", "pid", "thread", "busy_chunk", "dead")

    def __init__(self, sock: socket.socket, node: _Node, pid: int):
        self.sock = sock
        self.node = node
        self.pid = pid
        self.thread: Optional[threading.Thread] = None
        self.busy_chunk: Optional[int] = None
        self.dead = False


class RemoteBackend(Backend):
    """Work-stealing execution across a fleet of worker nodes.

    ``hosts`` describes the fleet (see :mod:`repro.runtime.hosts`).
    Given a store root, each node gets a private store and one sync
    connection, and artifacts move only by content key; without one,
    results ride the socket inline and there is nothing to sync.
    """

    name = "remote"

    # A spawned worker must connect back within this long (cold-FS
    # imports are slow; a worker that crashes on startup fails faster).
    ACCEPT_TIMEOUT_S = 60.0
    # No frame (heartbeat or reply) from a busy worker for this long
    # means it is hung or dead: its chunk is re-dispatched.  Workers
    # heartbeat every second while executing.
    HEARTBEAT_TIMEOUT_S = 30.0

    def __init__(self, hosts: Sequence[HostSpec]):
        self.hosts = list(hosts)
        if not self.hosts:
            raise ValueError("RemoteBackend needs at least one host")
        self.workers = sum(h.workers for h in self.hosts)
        self._nodes: List[_Node] = []
        self._conns: List[_Conn] = []
        self._listener: Optional[socket.socket] = None
        self._queue: "SimpleQueue[Optional[_Chunk]]" = SimpleQueue()
        self._lock = threading.Lock()
        self._closed = False
        self._started = False
        self._tmp: Optional[str] = None
        self._parent_store: Optional[ArtifactStore] = None
        self._chunk_seq = 0
        # Which node sealed each artifact key (from done frames).
        self._key_origin: Dict[str, _Node] = {}
        # Resilience and sync accounting (see stats()).
        self._redispatches = 0
        self._workers_lost = 0
        self._fetch_requests = 0
        self._fetch_keys: set = set()

    def pool_size(self) -> int:
        return self.workers

    # -- lifecycle ------------------------------------------------------
    def start(self, store_root: Optional[str]) -> None:
        if self._started:
            return
        all_local = all(h.is_local for h in self.hosts)
        bind_host = "127.0.0.1" if all_local else ""
        # Without a store there is nothing to sync: no sync plane.
        private = bool(store_root)
        try:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind((bind_host, 0))
            listener.listen(self.workers
                            + (len(self.hosts) if private else 0))
        except OSError as exc:
            raise BackendUnavailable(f"cannot bind fleet listener: {exc}")
        self._listener = listener
        port = listener.getsockname()[1]
        if private:
            self._tmp = tempfile.mkdtemp(prefix="repro-fleet-")
            self._parent_store = ArtifactStore(store_root)
        expected: Dict[Tuple[str, str], int] = {}
        try:
            for spec in self.hosts:
                node_root = None
                if private:
                    node_root = (os.path.join(self._tmp, spec.name
                                              .replace("#", "_"))
                                 if spec.is_local else
                                 f"/tmp/repro-node-{os.getpid()}-"
                                 f"{spec.name.split('#')[0]}")
                node = _Node(spec, node_root)
                self._nodes.append(node)
                launcher = launcher_for(spec)
                connect_host = ("127.0.0.1" if spec.is_local
                                else socket.gethostname())
                base = ["--host", connect_host, "--port", str(port),
                        "--node", spec.name]
                if node_root:
                    base += ["--store-root", node_root]
                for _ in range(spec.workers):
                    node.procs.append(launcher.launch(base))
                expected[(spec.name, "worker")] = spec.workers
                if private:
                    node.procs.append(
                        launcher.launch(base + ["--role", "sync"]))
                    expected[(spec.name, "sync")] = 1
        except OSError as exc:
            self.shutdown()
            raise BackendUnavailable(f"cannot launch fleet worker: {exc}")
        self._accept_fleet(expected)
        for i, conn in enumerate(self._conns):
            thread = threading.Thread(
                target=self._dispatch, args=(conn,),
                name=f"repro-fleet-{conn.node.spec.name}-{i}", daemon=True)
            conn.thread = thread
            thread.start()
        self._started = True

    def _accept_fleet(self, expected: Dict[Tuple[str, str], int]) -> None:
        """Collect every expected (node, role) connection, in whatever
        order the worker processes come up."""
        by_name = {node.spec.name: node for node in self._nodes}
        remaining = dict(expected)
        self._listener.settimeout(self.ACCEPT_TIMEOUT_S)
        try:
            while any(count > 0 for count in remaining.values()):
                sock, _addr = self._listener.accept()
                sock.settimeout(None)
                try:
                    sock.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
                except OSError:  # pragma: no cover - platform quirk
                    pass
                hello = recv_frame(sock)
                name = hello.get("node", "")
                role = hello.get("role", "worker")
                proto = hello.get("proto", 1)
                node = by_name.get(name)
                if proto != PROTOCOL_VERSION:
                    sock.close()
                    raise BackendUnavailable(
                        f"fleet worker {name!r} speaks protocol {proto}, "
                        f"expected {PROTOCOL_VERSION}")
                if node is None or remaining.get((name, role), 0) <= 0:
                    sock.close()
                    raise BackendUnavailable(
                        f"unexpected fleet hello {hello!r}")
                remaining[(name, role)] -= 1
                if role == "sync":
                    node.sync = _SyncChannel(sock)
                else:
                    self._conns.append(
                        _Conn(sock, node, int(hello.get("pid", 0))))
        except BackendUnavailable:
            self.shutdown()
            raise
        except (socket.timeout, OSError, BackendBroken) as exc:
            self.shutdown()
            raise BackendUnavailable(
                f"fleet worker failed to connect: {exc}")
        finally:
            if self._listener is not None:
                self._listener.settimeout(None)

    def shutdown(self, cancel: bool = False) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if cancel:
            self._drain_queue(lambda chunk: chunk.future.cancel())
        for conn in self._conns:
            if conn.thread is not None:
                self._queue.put(None)
        for conn in self._conns:
            if conn.thread is not None:
                conn.thread.join(timeout=10.0)
        for conn in self._conns:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.sock.close()
        for node in self._nodes:
            if node.sync is not None:
                node.sync.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for node in self._nodes:
            for proc in node.procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:  # pragma: no cover
                        proc.kill()
                        proc.wait()
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None
        self._conns = []
        self._nodes = []

    def _drain_queue(self, action) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except Empty:
                return
            if item is not None:
                action(item)

    # -- submission -----------------------------------------------------
    def submit(self, wire: bytes,
               telemetry_ctx: Optional[Tuple[str, int]],
               refs: Sequence[str]) -> Future:
        with self._lock:
            if self._closed or not self._started:
                raise BackendBroken("remote backend is closed")
            if not any(not c.dead for c in self._conns):
                raise BackendBroken("no live fleet workers")
            self._chunk_seq += 1
            chunk = _Chunk(self._chunk_seq, wire, telemetry_ctx, refs)
        self._queue.put(chunk)
        return chunk.future

    # -- the dispatcher (one thread per worker connection) --------------
    def _dispatch(self, conn: _Conn) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            if conn.dead:
                # This worker died earlier; hand the chunk to a
                # survivor's dispatcher instead of swallowing it.
                self._requeue_or_fail(item, "worker already dead")
                return
            if not item.future.set_running_or_notify_cancel():
                continue
            if not self._sync_inputs(conn.node, item.input_refs):
                self._worker_lost(conn, item, "input sync failed")
                return
            t0 = time.perf_counter_ns()
            conn.busy_chunk = item.chunk_id
            try:
                send_frame(conn.sock, ("chunk", item.chunk_id, item.wire,
                                       item.telemetry_ctx))
                reply = self._await_done(conn, item.chunk_id)
            except (OSError, BackendBroken, socket.timeout) as exc:
                conn.busy_chunk = None
                self._worker_lost(conn, item, f"fleet worker died: {exc}")
                return
            conn.busy_chunk = None
            ok, payload, keys, njobs = reply
            node = conn.node
            with node.lock:
                node.chunks += 1
                node.jobs += njobs
                node.busy_ns += time.perf_counter_ns() - t0
                node.synced_keys.update(keys)
            for key in keys:
                self._key_origin[key] = node
            if ok:
                item.future.set_result((payload, keys, njobs))
            else:
                item.future.set_exception(BackendBroken(
                    f"fleet worker error: {payload}"))

    def _await_done(self, conn: _Conn, chunk_id: int) -> tuple:
        """Read frames until this chunk's done frame; heartbeats only
        reset the silence clock."""
        conn.sock.settimeout(self.HEARTBEAT_TIMEOUT_S)
        try:
            while True:
                frame = recv_frame(conn.sock)
                tag = frame[0]
                if tag == "hb":
                    continue
                if tag == "done" and frame[1] == chunk_id:
                    return frame[2:]
                raise BackendBroken(f"unexpected worker frame {tag!r}")
        finally:
            try:
                conn.sock.settimeout(None)
            except OSError:
                pass

    def _worker_lost(self, conn: _Conn, chunk: Optional[_Chunk],
                     reason: str) -> None:
        """A connection died or went silent: re-queue its chunk onto
        the survivors, and if none remain fail everything pending."""
        with self._lock:
            conn.dead = True
            self._workers_lost += 1
            live = sum(1 for c in self._conns if not c.dead)
        try:
            conn.sock.close()
        except OSError:
            pass
        if chunk is not None:
            self._requeue_or_fail(chunk, reason)
        if live == 0:
            self._drain_queue(lambda c: c.future.set_exception(
                BackendBroken(f"all fleet workers lost ({reason})")))

    def _requeue_or_fail(self, chunk: _Chunk, reason: str) -> None:
        chunk.attempts += 1
        with self._lock:
            live = sum(1 for c in self._conns if not c.dead)
            closed = self._closed
        if closed or live == 0 or chunk.attempts >= MAX_DISPATCH_ATTEMPTS:
            chunk.future.set_exception(BackendBroken(
                f"chunk lost after {chunk.attempts} attempt(s): {reason}"))
            return
        with self._lock:
            self._redispatches += 1
        # A consumed future cannot be re-awaited, so the re-queued
        # chunk carries a fresh one chained to the original.
        original = chunk.future
        chunk.future = Future()

        def _chain(f: Future) -> None:
            if f.cancelled():
                original.cancel()
            elif f.exception() is not None:
                original.set_exception(f.exception())
            else:
                original.set_result(f.result())

        chunk.future.add_done_callback(_chain)
        self._queue.put(chunk)

    # -- artifact plane -------------------------------------------------
    def _sync_inputs(self, node: _Node, refs: Sequence[str]) -> bool:
        """Make every input artifact available in ``node``'s store.
        HAVE first (a node that computed an artifact is never re-sent
        it), then PUT only what is missing.  Returns False on a sync
        transport failure — the chunk is then re-dispatched elsewhere
        rather than executed against an incomplete store."""
        if not refs or node.sync is None:
            return True
        with node.lock:
            missing = [r for r in refs if r not in node.synced_keys]
            if not missing:
                return True
            try:
                held = set(node.sync.have(missing))
                node.synced_keys.update(held)
                to_push = [r for r in missing if r not in held]
                blobs: Dict[str, bytes] = {}
                for ref in to_push:
                    if self._parent_store is None:
                        return False
                    found, blob = self._parent_store.raw_get(ref)
                    if not found:
                        return False
                    blobs[ref] = blob
                if blobs:
                    node.sync.put(blobs)
                    node.bytes_pushed += sum(len(b) for b in blobs.values())
                    node.synced_keys.update(blobs)
            except (SyncError, OSError, BackendBroken):
                return False
        return True

    def fetch_artifact(self, key: str,
                       digest: Optional[str] = None) -> Optional[bytes]:
        """Pull one sealed artifact from whichever node holds it.

        The parent store is the merge point: a key already fetched (or
        computed locally) is served from it without touching the wire,
        which is what makes an artifact present on N nodes cross the
        network exactly once.  A ``digest`` mismatch returns ``None``
        (the scheduler recomputes) without poisoning the parent store.
        """
        if self._parent_store is not None:
            found, blob = self._parent_store.raw_get(key)
            if found:
                return blob
        origin = self._key_origin.get(key)
        nodes = [origin] if origin is not None else [
            n for n in self._nodes if n.sync is not None]
        for node in nodes:
            if node.sync is None:
                continue
            try:
                with self._lock:
                    self._fetch_requests += 1
                    self._fetch_keys.add(key)
                blobs = node.sync.fetch([key])
            except (SyncError, OSError, BackendBroken):
                continue
            blob = blobs.get(key)
            if blob is None:
                continue
            if digest is not None and codec.content_digest(blob) != digest:
                return None
            with node.lock:
                node.bytes_fetched += len(blob)
            if self._parent_store is not None:
                try:
                    self._parent_store.put_encoded(key, blob,
                                                   meta={"stage": "sync"})
                except OSError:
                    pass  # fetch still succeeded; only the memo is lost
            return blob
        return None

    # -- introspection --------------------------------------------------
    def active_workers(self) -> List[Tuple[str, int]]:
        """(node, pid) of every worker currently executing a chunk —
        the chaos tests aim their SIGKILL with this."""
        return [(c.node.spec.name, c.pid) for c in self._conns
                if not c.dead and c.busy_chunk is not None]

    def stats(self) -> Dict[str, Any]:
        """Fleet accounting for transport stats and the run ledger."""
        return {
            "nodes": [node.stats() for node in self._nodes],
            "redispatches": self._redispatches,
            "workers_lost": self._workers_lost,
            "sync": {
                "fetch_requests": self._fetch_requests,
                "unique_keys_fetched": len(self._fetch_keys),
                "bytes_fetched": sum(n.bytes_fetched for n in self._nodes),
                "bytes_pushed": sum(n.bytes_pushed for n in self._nodes),
            },
        }

