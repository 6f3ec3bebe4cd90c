"""The binary artifact codec: exact round-trips, strict rejection.

The pipeline store and the parallel sweep's envelope handoff both rest
on ``repro.pipeline.codec``: every artifact must survive encode→decode
bit-exactly (or the determinism contract breaks), and every malformed
frame must be rejected loudly (or a corrupt cache poisons results).
"""

import enum
import gzip
import hashlib
import json
import pickle
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import Summary
from repro.core.distill import DistillationResult, ParameterEstimate
from repro.core.replay import QualityTuple, ReplayTrace
from repro.core.traceformat import (
    DeviceStatusRecord,
    LostRecordsRecord,
    PacketRecord,
)
from repro.pipeline import codec
from repro.pipeline.codec import CodecError
from repro.pipeline.stages import CollectStage
from repro.pipeline.store import ArtifactStore


# ======================================================================
# Hypothesis strategies
# ======================================================================
# Exact round-trip excludes NaN (NaN != NaN would fail equality even on
# a correct codec); -0.0/infinities must survive.
_floats = st.floats(allow_nan=False)
_scalars = (st.none() | st.booleans() | st.integers() | _floats
            | st.text(max_size=40) | st.binary(max_size=40))
_values = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=10), children, max_size=5)),
    max_leaves=25)

_quality_tuples = st.builds(
    QualityTuple,
    d=st.floats(min_value=0.001, max_value=100, allow_nan=False),
    F=st.floats(min_value=0, max_value=10, allow_nan=False),
    Vb=st.floats(min_value=0, max_value=1, allow_nan=False),
    Vr=st.floats(min_value=0, max_value=1, allow_nan=False),
    L=st.floats(min_value=0, max_value=1, allow_nan=False))

_packets = st.builds(
    PacketRecord,
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    direction=st.sampled_from([0, 1]),
    proto=st.integers(min_value=0, max_value=255),
    size=st.integers(min_value=0, max_value=65535),
    src=st.text(max_size=16),
    dst=st.text(max_size=16),
    rtt=st.floats(min_value=-1, max_value=60, allow_nan=False))

_statuses = st.builds(
    DeviceStatusRecord,
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    signal_level=st.floats(min_value=-100, max_value=0, allow_nan=False),
    signal_quality=st.floats(min_value=0, max_value=1, allow_nan=False),
    silence_level=st.floats(min_value=-100, max_value=0, allow_nan=False))


# ======================================================================
# Round-trip properties
# ======================================================================
@given(_values)
@settings(max_examples=200, deadline=None)
def test_roundtrip_values(value):
    assert codec.decode(codec.encode(value)) == value


@given(_values)
@settings(max_examples=50, deadline=None)
def test_roundtrip_gzip_framing(value):
    blob = codec.encode_gz(value)
    assert codec.decode_gz(blob) == value
    # gzip framing is deterministic (mtime pinned), so fingerprint-free
    # content digests are stable across processes and runs
    assert codec.encode_gz(value) == blob


def test_roundtrip_preserves_container_types():
    value = {"t": (1, 2), "l": [1, 2], "nested": ({"a": (None,)},)}
    out = codec.decode(codec.encode(value))
    assert out == value
    assert type(out["t"]) is tuple and type(out["l"]) is list
    assert type(out["nested"]) is tuple


@given(st.lists(_quality_tuples, min_size=1, max_size=20),
       st.text(max_size=20))
@settings(max_examples=50, deadline=None)
def test_roundtrip_replay_trace(tuples, name):
    replay = ReplayTrace(tuples, name=name)
    out = codec.decode(codec.encode(replay))
    assert isinstance(out, ReplayTrace)
    assert out == replay


@given(st.lists(st.one_of(_packets, _statuses), max_size=20))
@settings(max_examples=50, deadline=None)
def test_roundtrip_trace_records(records):
    records = records + [LostRecordsRecord(timestamp=1.0,
                                           record_type="packet", count=3)]
    assert codec.decode(codec.encode(records)) == records


@given(st.floats(allow_nan=False), st.floats(min_value=0, allow_nan=False),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_roundtrip_summary(mean, std, n):
    s = Summary(mean=mean, std=std, n=n)
    assert codec.decode(codec.encode(s)) == s


def test_roundtrip_distillation_result():
    replay = ReplayTrace([QualityTuple(d=1.0, F=0.05, Vb=1e-4, Vr=0.0,
                                       L=0.1)], name="x")
    dist = DistillationResult(
        replay=replay,
        estimates=[ParameterEstimate(time=0.5, F=0.05, Vb=1e-4, Vr=0.0,
                                     corrected=True)],
        groups_total=10, groups_used=8, groups_corrected=1,
        groups_skipped=2, echoes_sent=100, replies_received=90,
        status_records=[DeviceStatusRecord(timestamp=0.0, signal_level=-60,
                                           signal_quality=0.9,
                                           silence_level=-90)])
    out = codec.decode(codec.encode(dist))
    assert out == dist
    assert isinstance(out.estimates[0], ParameterEstimate)


def test_roundtrip_huge_int():
    for value in (2**100, -(2**100), 2**63, -(2**63) - 1):
        assert codec.decode(codec.encode(value)) == value


def test_content_digest_is_sha256_hex():
    blob = codec.encode_gz([1, 2, 3])
    digest = codec.content_digest(blob)
    assert len(digest) == 64 and int(digest, 16) >= 0


# ======================================================================
# Golden frames: the wire format is pinned byte for byte
# ======================================================================
# Cached artifacts, envelope handoff and fleet sync all exchange these
# frames between processes that may run different builds, so the bytes
# of every tag's encoding must never drift without a VERSION bump.  The
# digests were computed once and are not to be regenerated to make a
# codec change pass.
def _golden_values():
    q1 = QualityTuple(d=1.0, F=0.0125, Vb=1.5e-4, Vr=2e-5, L=0.03)
    q2 = QualityTuple(d=0.5, F=0.25, Vb=0.0, Vr=1e-6, L=0.0)
    replay = ReplayTrace([q1, q2], name="wean-0")
    status = DeviceStatusRecord(timestamp=2.5, signal_level=-61.0,
                                signal_quality=0.875, silence_level=-92.5)
    estimate = ParameterEstimate(time=3.0, F=0.0125, Vb=1.5e-4, Vr=2e-5,
                                 corrected=True)
    return {
        "none": None,
        "true": True,
        "false": False,
        "int": -(2**63),
        "bigint": -(2**100) + 7,
        "float": -0.1,
        "str": "wavelan ✓ porter",
        "bytes": b"\x00\xffRBAC",
        "list": [1, 2.5, "x", [], True],
        "tuple": (None, False, (2**63 - 1,), ()),
        "dict": {"a": 1, 2: "b", (1, 2.0): [3], None: {}},
        "trace_records": [
            PacketRecord(timestamp=0.25, direction=1, proto=1, size=60,
                         src="10.0.0.2", dst="10.0.0.1", icmp_type=8,
                         ident=4097, seq=3),
            status,
            LostRecordsRecord(timestamp=4.0, record_type="packet", count=2),
        ],
        "quality": q1,
        "replay": replay,
        "estimate": estimate,
        "distill": DistillationResult(
            replay=replay, estimates=[estimate],
            groups_total=12, groups_used=9, groups_corrected=1,
            groups_skipped=3, echoes_sent=120, replies_received=97,
            status_records=[status]),
        "summary": Summary(mean=203.75, std=6.61, n=5),
        "pickle": {1, 2, 3},
        "obs_spans": {
            "kind": "collect", "seed": 0,
            "spans": [
                {"t": 0.0, "host": "cross0", "layer": "udp", "event": "tx",
                 "trace": 1, "pkt": 5853, "size": 166, "port": 32768},
                {"t": 0.0125, "host": "laptop", "layer": "ip",
                 "event": "drop", "trace": 2, "pkt": 5854, "size": None,
                 "cause": "not_mine"},
            ],
        },
    }


_GOLDEN_SHA256 = {
    "none": "f48f30ac38a4685b54b8824f29e3dee10a2a42d36bb304808d6371da3173ef60",
    "true": "63367f9a5dd3dfaa79f002237164b55a76ba28737a504a3219efffaa7dc254ee",
    "false": "28eacb79de425fdae7802302cc50b7743d4f415054dec417354bba31923485cc",
    "int": "618a998c4a55feda4d8d28be0e84392523083df25aa26e6c752e087583b342ac",
    "bigint": "6ea61b6c70e2dd18c062c8d915f64b91518a590ed7c6dce43c791e8d42a4e00c",
    "float": "f6eb76d26353828e3155a94b663ce1eed884d160bfd8bffbc26d460f7bce50d9",
    "str": "86bcb2c1a87903220835d10cb5dbc1409ff81ee7ee05aed100b4dcc2db96d238",
    "bytes": "4c1cce9e66b08d12e60bb2bc9f92540dc194ffd1a3a147804de3321eb559cca8",
    "list": "a0c24b9aea99c7f0e9afb17901ed1bbc0b69a9bedaca0b0b18fd37ec235adad1",
    "tuple": "44facb6611ef361d7726ad1744f8cf1ed37d2a9cbd703915e2b5a7deda68cae0",
    "dict": "8c3b570e00f36a6472ef97744d366fd770e7fc4b8359280f378896eaad2cefb9",
    "trace_records":
        "c3d64ec9f7cbb5cd83c572dd5370c857307d3b4722a98ba8bbf4286f90d6748e",
    "quality": "69c843166f6fb53cf3970f474b9419c1d00b81d682f31ad642d3520a11ddf2a3",
    "replay": "41b0cc7cb9a5271501f4e7e39a5a22586c5befc5b5eb1ef89bd458307951bf20",
    "estimate": "f1a57ede7e07cd2f6faf85661f2b897da79cc02ee0b809807674d57e7c3b7a6e",
    "distill": "1eb6195f9c31ec7691bd260561684cd7ab94926c76ae5bb46b33fab739439a22",
    "summary": "c990122c883b4d6da6b6f8248803b531f41b87901c2d561b435c9712619088e6",
    "pickle": "8771e1e54517a5fe13140c4da663f4bc3c975c27a45b1a37128fb8883090c2e5",
    "obs_spans":
        "8227cafa655ce784942ec444b9ffbfca7f1d609218206bb635be3bd4491e4216",
}

# The top-level tag each golden value must take: together they cover
# every tag the codec defines.
_GOLDEN_TAGS = {
    "none": 0x00, "true": 0x01, "false": 0x02, "int": 0x03, "bigint": 0x04,
    "float": 0x05, "str": 0x06, "bytes": 0x07, "list": 0x10, "tuple": 0x11,
    "dict": 0x12, "trace_records": 0x20, "quality": 0x21, "replay": 0x22,
    "estimate": 0x23, "distill": 0x24, "summary": 0x25, "pickle": 0x7F,
    "obs_spans": 0x12,
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_SHA256))
def test_golden_frame_bytes(name):
    value = _golden_values()[name]
    blob = codec.encode(value)
    assert blob[:6] == codec.MAGIC + struct.pack("<H", codec.VERSION)
    assert blob[6] == _GOLDEN_TAGS[name]
    assert hashlib.sha256(blob).hexdigest() == _GOLDEN_SHA256[name]
    assert codec.decode(blob) == value


class _Level(enum.IntEnum):
    LOW = 1


class _MyList(list):
    pass


def test_exact_type_dispatch_escapes_subclasses():
    """Only exact built-in and domain types get packed layouts: an int
    subclass (enums included) or a list subclass takes the pickle
    escape, and a list mixing records with other items takes the
    generic list layout."""
    assert codec.encode(_Level.LOW)[6] == 0x7F
    assert codec.decode(codec.encode(_Level.LOW)) is _Level.LOW
    assert codec.encode(_MyList([1]))[6] == 0x7F
    status = _golden_values()["trace_records"][1]
    mixed = codec.encode([status, 1])
    assert mixed[6] == 0x10 and mixed[11] == 0x7F
    assert codec.decode(mixed) == [status, 1]


# ======================================================================
# Throughput: a same-run ratio against pickle, so the gate holds on any
# host (span-bearing obs records dominate the fuzz campaign's frames)
# ======================================================================
def _span_heavy_record(nspans: int = 20_000):
    hosts = ("laptop", "server", "cross0", "cross1")
    layers = ("udp", "ip", "wavelan", "tcp", "ether")
    events = ("tx", "rx", "enqueue", "drop")
    return {
        "kind": "collect", "scenario": "fuzz-0007", "seed": 0, "trial": 0,
        "engine": {"events_fired": 8157, "wall_time": 0.154},
        "spans": [
            {"t": i * 0.00125, "host": hosts[i % 4], "layer": layers[i % 5],
             "event": events[i % 4], "trace": i // 3, "pkt": 5853 + i,
             "size": None if i % 7 == 0 else 40 + i % 1460,
             "dst_port": 2049, "port": 32768}
            for i in range(nspans)],
    }


def test_codec_roundtrip_within_12x_of_pickle():
    # Compare on the value as any store or envelope hop delivers it:
    # every string a fresh object, so pickle cannot memoize repeats.
    value = codec.decode(codec.encode(_span_heavy_record()))
    legs = {
        "codec": lambda: codec.decode(codec.encode(value)),
        "pickle": lambda: pickle.loads(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)),
    }
    best = {name: float("inf") for name in legs}
    for _ in range(5):  # interleaved, best of 5
        for name, leg in legs.items():
            t0 = time.perf_counter()
            leg()
            best[name] = min(best[name], time.perf_counter() - t0)
    ratio = best["codec"] / best["pickle"]
    assert ratio <= 12.0, (
        f"codec round trip {best['codec'] * 1e3:.1f} ms is {ratio:.1f}x "
        f"pickle's {best['pickle'] * 1e3:.1f} ms (gate: 12x)")


# ======================================================================
# Strict rejection
# ======================================================================
def test_rejects_bad_magic():
    blob = bytearray(codec.encode(42))
    blob[:4] = b"NOPE"
    with pytest.raises(CodecError):
        codec.decode(bytes(blob))


def test_rejects_wrong_version():
    bad = codec.MAGIC + struct.pack("<H", codec.VERSION + 1) + b"\x00"
    with pytest.raises(CodecError):
        codec.decode(bad)


def test_rejects_truncation_at_every_point():
    blob = codec.encode({"key": [1.5, "text", (None, b"bytes")]})
    for cut in range(len(blob)):
        with pytest.raises(CodecError):
            codec.decode(blob[:cut])


def test_rejects_trailing_garbage():
    with pytest.raises(CodecError):
        codec.decode(codec.encode([1, 2]) + b"\x00")


def test_rejects_unknown_tag():
    blob = codec.MAGIC + struct.pack("<H", codec.VERSION) + b"\x6e"
    with pytest.raises(CodecError):
        codec.decode(blob)


def test_rejects_corrupt_gzip():
    blob = bytearray(codec.encode_gz([1, 2, 3]))
    blob[-3] ^= 0xFF
    with pytest.raises(CodecError):
        codec.decode_gz(bytes(blob))


def test_rejects_corrupt_replay_duration():
    replay = ReplayTrace([QualityTuple(d=1.0, F=0.0, Vb=0.0, Vr=0.0,
                                       L=0.0)], name="")
    blob = bytearray(codec.encode(replay))
    # overwrite the (little-endian) duration double with -1.0
    blob[-40:-32] = struct.pack("<d", -1.0)
    with pytest.raises(CodecError):
        codec.decode(bytes(blob))


def _frame(payload: bytes) -> bytes:
    return codec.MAGIC + struct.pack("<H", codec.VERSION) + payload


# Malformed payloads whose natural error is not a CodecError (Unicode,
# hashing, recursion, a domain constructor, the embedded trace parser):
# the codec must wrap each, or a corrupt on-disk artifact crashes the
# store instead of becoming a miss.
_MALFORMED = {
    "invalid_utf8": _frame(b"\x06" + struct.pack("<I", 2) + b"\xff\xfe"),
    "unhashable_key": _frame(b"\x12" + struct.pack("<I", 1)
                             + b"\x10" + struct.pack("<I", 0) + b"\x00"),
    "hostile_nesting": _frame((b"\x10" + struct.pack("<I", 1)) * 100_000
                              + b"\x00"),
    "corrupt_quality": _frame(b"\x21" + struct.pack("<5d", -1.0, 0, 0, 0, 0)),
    "corrupt_trace_block": _frame(b"\x20" + struct.pack("<I", 12)
                                  + b"RPTR" + struct.pack("<I", 4) + b"null"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_payload_raises_codec_error(name):
    with pytest.raises(CodecError):
        codec.decode(_MALFORMED[name])


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_artifact_on_disk_is_dropped_and_missed(tmp_path, name):
    store = ArtifactStore(tmp_path)
    store.put("ab" * 32, [1, 2, 3])
    (path,) = (tmp_path / "objects").glob("*/*.rba")
    path.write_bytes(gzip.compress(_MALFORMED[name], mtime=0))
    found, value = store.get("ab" * 32)
    assert not found and value is None
    assert not path.exists()


@given(st.sampled_from(sorted(_GOLDEN_SHA256)),
       st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                          st.integers(min_value=0),
                          st.integers(min_value=0, max_value=255)),
                min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_mutated_frames_decode_or_raise_codec_error(name, edits):
    """Any byte-level corruption of a valid frame either still decodes
    or raises CodecError — never another exception type."""
    blob = bytearray(codec.encode(_golden_values()[name]))
    for op, at, byte in edits:
        at %= len(blob) + 1
        if op == "insert":
            blob.insert(at, byte)
        elif at < len(blob):
            if op == "set":
                blob[at] = byte
            else:
                del blob[at]
    try:
        codec.decode(bytes(blob))
    except CodecError:
        pass


# ======================================================================
# Store integration: old caches miss cleanly
# ======================================================================
def test_pickle_era_cache_dir_misses_cleanly(tmp_path):
    """A cache dir written by the pickle-era store (``.pkl`` objects,
    version-less sidecars) must produce clean misses — never a crash,
    never a stale artifact."""
    store = ArtifactStore(tmp_path)
    fp = CollectStage.__name__.lower() * 4  # any 64ish-char-safe key
    legacy_dir = tmp_path / "objects" / fp[:2]
    legacy_dir.mkdir(parents=True)
    (legacy_dir / f"{fp}.pkl").write_bytes(
        pickle.dumps({"records": [1, 2, 3]}))
    (legacy_dir / f"{fp}.json").write_text(
        json.dumps({"stage": "collect", "fingerprint": fp}))
    found, value = store.get(fp)
    assert not found and value is None
    # and the store still works for new-format objects
    store.put(fp, {"records": [1, 2, 3]})
    found, value = store.get(fp)
    assert found and value == {"records": [1, 2, 3]}


def test_corrupt_artifact_is_dropped_and_missed(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("ab" * 32, [1, 2, 3])
    (path,) = (tmp_path / "objects").glob("*/*.rba")
    path.write_bytes(b"not a frame at all")
    found, value = store.get("ab" * 32)
    assert not found and value is None
    assert not path.exists()  # the bad object was evicted


def test_store_objects_are_gzip_framed_binary(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("cd" * 32, {"table": [1.5] * 100})
    (path,) = (tmp_path / "objects").glob("*/*.rba")
    raw = path.read_bytes()
    assert raw[:2] == b"\x1f\x8b"  # gzip magic
    assert gzip.decompress(raw)[:4] == codec.MAGIC


def test_sidecar_metadata_still_json(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("ef" * 32, [1, 2], meta={"stage": "collect"})
    sidecars = list(tmp_path.glob("objects/*/*.json"))
    assert sidecars, "sidecar metadata must remain human-readable JSON"
    doc = json.loads(sidecars[0].read_text())
    assert doc["stage"] == "collect"
    assert doc["codec"] == codec.VERSION


def test_format_version_changes_stage_fingerprints(monkeypatch):
    """Bumping CACHE_FORMAT_VERSION must re-key every stage, so caches
    written under the old on-disk format miss cleanly."""
    from repro.pipeline import stages
    from repro.scenarios import PorterScenario

    stage = CollectStage(PorterScenario(), seed=0, trial=0)
    now = stage.fingerprint()
    monkeypatch.setattr(stages, "CACHE_FORMAT_VERSION", 1)
    assert stage.fingerprint() != now
