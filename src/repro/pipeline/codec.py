"""Versioned binary codec for pipeline artifacts.

Every artifact the pipeline stores or ships between processes used to
round-trip through Python pickles.  Pickle is general but slow to
parse, version-fragile on disk, and opaque to size accounting — and
the bulk artifacts here (trace-record streams, replay traces,
distillation results, validation summaries) are all regular, mostly
numeric structures that pack tightly with ``struct``.

This module defines that packed form.  A frame is::

    MAGIC (4 bytes, b"RBAC") | version (<H) | one value

and a value is a one-byte tag followed by a tag-specific payload:

* primitives — ``None``/bools (tag only), ``int`` (``<q``, with an
  arbitrary-precision escape), ``float`` (``<d``, exact), ``str`` /
  ``bytes`` (``<I`` length prefix);
* containers — list / tuple / dict (``<I`` count, recursive values;
  list and tuple keep distinct tags so round-trips are exact);
* bulk domain types with dedicated packed layouts —
  :class:`~repro.core.traceformat.TraceRecord` streams (embedded as a
  self-descriptive :mod:`~repro.core.traceformat` blob),
  :class:`~repro.core.replay.QualityTuple` (``<5d``),
  :class:`~repro.core.replay.ReplayTrace` (name + packed tuple array),
  :class:`~repro.core.distill.ParameterEstimate` (``<4dB``),
  :class:`~repro.core.distill.DistillationResult`,
  :class:`~repro.analysis.stats.Summary` (``<ddq``);
* a pickle escape hatch for rare, small, irregular objects (check
  reports and the like).  Bulk trial data never takes it.

The codec is *exact*: floats are IEEE-754 doubles bit-for-bit, ints
are unbounded, list/tuple identity is preserved, and ``decode``
rejects trailing garbage — so ``decode(encode(x)) == x`` and the
determinism contract (byte-identical validation tables however an
artifact travelled) holds through any number of round trips.

``encode_gz``/``decode_gz`` add deterministic gzip framing (``mtime=0``)
for on-disk artifacts in :class:`~repro.pipeline.store.ArtifactStore`.

The encoder dispatches on exact ``type(obj)`` through one table, and
the decoder walks the frame's bytes by offset; both handle str, float
and int inline in their one sequence loop.  The frame layout is fixed
for ``VERSION`` 1, and golden-frame digests in ``tests/test_codec.py``
pin its bytes.

Every malformed frame raises :class:`CodecError` and nothing else: bad
magic, unsupported version, truncation at any offset, trailing bytes,
unknown tags, invalid UTF-8, unhashable dict keys, corrupt domain
payloads and hostile nesting depth.
"""

from __future__ import annotations

import gzip
import hashlib
import pickle
import struct
from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, Tuple

__all__ = [
    "MAGIC",
    "VERSION",
    "CodecError",
    "encode",
    "decode",
    "encode_gz",
    "decode_gz",
    "content_digest",
]

MAGIC = b"RBAC"        # Repro Binary Artifact Codec
VERSION = 1
_HEADER = struct.Struct("<4sH")
_GZIP_MAGIC = b"\x1f\x8b"

# Value tags ------------------------------------------------------------
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03          # <q
_T_BIGINT = 0x04       # <B sign, <I nbytes, big-endian magnitude
_T_FLOAT = 0x05        # <d
_T_STR = 0x06          # <I len, utf-8
_T_BYTES = 0x07        # <I len
_T_LIST = 0x10         # <I count, values
_T_TUPLE = 0x11        # <I count, values
_T_DICT = 0x12         # <I count, key/value value pairs
_T_TRACE_RECORDS = 0x20  # <I len, traceformat blob (self-descriptive)
_T_QUALITY = 0x21      # <5d  (d, F, Vb, Vr, L)
_T_REPLAY = 0x22       # str name, <I count, count x <5d
_T_ESTIMATE = 0x23     # <4d (time, F, Vb, Vr), <B corrected
_T_DISTILL = 0x24      # replay, estimates, <6q counters, status records
_T_SUMMARY = 0x25      # <ddq (mean, std, n)
_T_PICKLE = 0x7F       # <I len, pickle bytes (irregular small objects)

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_QUALITY = struct.Struct("<5d")
_ESTIMATE = struct.Struct("<4dB")
_SUMMARY = struct.Struct("<ddq")
_COUNTERS = struct.Struct("<6q")
# A tag byte fused with its fixed-size payload head: one pack per value.
_TAG_U32 = struct.Struct("<BI")
_TAG_I64 = struct.Struct("<Bq")
_TAG_F64 = struct.Struct("<Bd")
_TAG_BIGINT = struct.Struct("<BBI")
_TAG_QUALITY = struct.Struct("<B5d")
_TAG_ESTIMATE = struct.Struct("<B4dB")
_TAG_SUMMARY = struct.Struct("<Bddq")
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


class CodecError(ValueError):
    """A frame that cannot be decoded: bad magic, bad version,
    truncation, corruption, or trailing bytes."""


# ======================================================================
# Domain types, resolved once on first use so importing the codec stays
# lazy and cycle-free
# ======================================================================
_ENCODERS: Dict[type, Callable[[Any, bytearray], None]] = {}
_TRACE_TYPES: Tuple[type, ...] = ()


def _bind() -> None:
    global _TRACE_TYPES, _dumps_trace, _loads_trace, _Summary, \
        _QualityTuple, _ReplayTrace, _ParameterEstimate, _DistillationResult
    from ..analysis.stats import Summary as _Summary
    from ..core.distill import DistillationResult as _DistillationResult
    from ..core.distill import ParameterEstimate as _ParameterEstimate
    from ..core.replay import QualityTuple as _QualityTuple
    from ..core.replay import ReplayTrace as _ReplayTrace
    from ..core.traceformat import (DeviceStatusRecord, LostRecordsRecord,
                                    PacketRecord)
    from ..core.traceformat import dumps_trace as _dumps_trace
    from ..core.traceformat import loads_trace as _loads_trace

    _TRACE_TYPES = (PacketRecord, DeviceStatusRecord, LostRecordsRecord)
    _ENCODERS.update({
        type(None): _enc_none, bool: _enc_bool, int: _enc_bigint,
        bytes: _enc_bytes, list: _enc_list, tuple: _enc_tuple,
        dict: _enc_dict,
        _QualityTuple: _enc_quality, _ReplayTrace: _enc_replay,
        _ParameterEstimate: _enc_estimate,
        _DistillationResult: _enc_distill, _Summary: _enc_summary,
    })


# ======================================================================
# Encoding: one encoder per exact type (subclasses and enums fall
# through to the pickle escape, as ``type(obj) is X`` tests would).
# Every value goes through ``_enc_seq``, which packs str, float and
# 64-bit int inline and looks anything else up in ``_ENCODERS``.
# ======================================================================
def _enc_seq(items: Iterable[Any], out: bytearray) -> None:
    get = _ENCODERS.get
    for item in items:
        kind = type(item)
        if kind is str:
            raw = item.encode("utf-8")
            out += _TAG_U32.pack(_T_STR, len(raw))
            out += raw
        elif kind is float:
            out += _TAG_F64.pack(_T_FLOAT, item)
        elif kind is int and _I64_MIN <= item <= _I64_MAX:
            out += _TAG_I64.pack(_T_INT, item)
        else:
            get(kind, _enc_pickle)(item, out)


def _enc_none(obj: None, out: bytearray) -> None:
    out.append(_T_NONE)


def _enc_bool(obj: bool, out: bytearray) -> None:
    out.append(_T_TRUE if obj else _T_FALSE)


def _enc_bigint(obj: int, out: bytearray) -> None:
    mag = abs(obj)
    raw = mag.to_bytes((mag.bit_length() + 7) // 8, "big")
    out += _TAG_BIGINT.pack(_T_BIGINT, 1 if obj < 0 else 0, len(raw))
    out += raw


def _enc_bytes(obj: bytes, out: bytearray) -> None:
    out += _TAG_U32.pack(_T_BYTES, len(obj))
    out += obj


def _enc_list(obj: list, out: bytearray) -> None:
    if obj and all(type(item) in _TRACE_TYPES for item in obj):
        blob = _dumps_trace(obj)
        out += _TAG_U32.pack(_T_TRACE_RECORDS, len(blob))
        out += blob
    else:
        out += _TAG_U32.pack(_T_LIST, len(obj))
        _enc_seq(obj, out)


def _enc_tuple(obj: tuple, out: bytearray) -> None:
    out += _TAG_U32.pack(_T_TUPLE, len(obj))
    _enc_seq(obj, out)


def _enc_dict(obj: dict, out: bytearray) -> None:
    out += _TAG_U32.pack(_T_DICT, len(obj))
    _enc_seq(chain.from_iterable(obj.items()), out)


def _enc_quality(q, out: bytearray) -> None:
    out += _TAG_QUALITY.pack(_T_QUALITY, q.d, q.F, q.Vb, q.Vr, q.L)


def _enc_replay(replay, out: bytearray) -> None:
    raw = replay.name.encode("utf-8")
    out += _TAG_U32.pack(_T_REPLAY, len(raw))
    out += raw
    out += _U32.pack(len(replay.tuples))
    pack = _QUALITY.pack
    for q in replay.tuples:
        out += pack(q.d, q.F, q.Vb, q.Vr, q.L)


def _enc_estimate(est, out: bytearray) -> None:
    out += _TAG_ESTIMATE.pack(_T_ESTIMATE, est.time, est.F, est.Vb,
                              est.Vr, 1 if est.corrected else 0)


def _enc_distill(dist, out: bytearray) -> None:
    out.append(_T_DISTILL)
    _enc_replay(dist.replay, out)
    out += _U32.pack(len(dist.estimates))
    for est in dist.estimates:
        out += _ESTIMATE.pack(est.time, est.F, est.Vb, est.Vr,
                              1 if est.corrected else 0)
    out += _COUNTERS.pack(dist.groups_total, dist.groups_used,
                          dist.groups_corrected, dist.groups_skipped,
                          dist.echoes_sent, dist.replies_received)
    _enc_list(list(dist.status_records), out)


def _enc_summary(s, out: bytearray) -> None:
    out += _TAG_SUMMARY.pack(_T_SUMMARY, s.mean, s.std, s.n)


def _enc_pickle(obj: Any, out: bytearray) -> None:
    # Escape hatch for irregular, small objects (check reports,
    # subclassed containers).  Loud on genuinely unserializable
    # values, exactly like the store's old pickle path.
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    out += _TAG_U32.pack(_T_PICKLE, len(blob))
    out += blob


def encode(obj: Any) -> bytes:
    """Serialize ``obj`` to a versioned binary frame."""
    if not _ENCODERS:
        _bind()
    out = bytearray(_HEADER.pack(MAGIC, VERSION))
    _enc_seq((obj,), out)
    return bytes(out)


# ======================================================================
# Decoding: ``_dec_seq(buf, pos, n) -> (values, pos)`` over the frame's
# bytes, with the hot scalars (str, int, float) unpacked inline and
# every other tag handed to ``_dec``.  A length that runs past the end
# leaves ``pos`` past it, so the next read raises IndexError/struct.error
# or ``decode``'s final position check fires; ``decode`` turns those,
# and any ValueError, TypeError or RecursionError a malformed payload
# provokes, into CodecError.
# ======================================================================
def _dec_seq(buf: bytes, pos: int, n: int) -> Tuple[List[Any], int]:
    items: List[Any] = []
    append = items.append
    for _ in range(n):
        tag = buf[pos]
        if tag == _T_STR:
            (size,) = _U32.unpack_from(buf, pos + 1)
            pos += 5 + size
            append(buf[pos - size:pos].decode("utf-8"))
        elif tag == _T_INT:
            append(_I64.unpack_from(buf, pos + 1)[0])
            pos += 9
        elif tag == _T_FLOAT:
            append(_F64.unpack_from(buf, pos + 1)[0])
            pos += 9
        else:
            item, pos = _dec(buf, pos + 1, tag)
            append(item)
    return items, pos


def _dec(buf: bytes, pos: int, tag: int) -> Tuple[Any, int]:
    if tag == _T_DICT:
        (n,) = _U32.unpack_from(buf, pos)
        flat, pos = _dec_seq(buf, pos + 4, 2 * n)
        pairs = iter(flat)
        try:
            return dict(zip(pairs, pairs)), pos
        except TypeError as exc:
            raise CodecError(f"unhashable dict key: {exc}") from None
    if tag == _T_LIST or tag == _T_TUPLE:
        (n,) = _U32.unpack_from(buf, pos)
        items, pos = _dec_seq(buf, pos + 4, n)
        return (items if tag == _T_LIST else tuple(items)), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_BIGINT:
        sign, n = _TAG_U32.unpack_from(buf, pos)  # <B sign, <I nbytes
        pos += 5
        mag = int.from_bytes(buf[pos:pos + n], "big")
        return (-mag if sign else mag), pos + n
    if tag == _T_BYTES:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        return buf[pos:pos + n], pos + n
    if tag == _T_TRACE_RECORDS:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        try:
            return _loads_trace(buf[pos:pos + n]), pos + n
        except (ValueError, struct.error, LookupError, TypeError,
                AttributeError) as exc:  # traceformat trusts its input
            raise CodecError(f"corrupt trace-record block: {exc!r}")
    if tag == _T_QUALITY:
        d, F, Vb, Vr, L = _QUALITY.unpack_from(buf, pos)
        return _QualityTuple(d=d, F=F, Vb=Vb, Vr=Vr, L=L), \
            pos + _QUALITY.size
    if tag == _T_REPLAY:
        return _dec_replay(buf, pos)
    if tag == _T_ESTIMATE:
        t, F, Vb, Vr, corrected = _ESTIMATE.unpack_from(buf, pos)
        return _ParameterEstimate(time=t, F=F, Vb=Vb, Vr=Vr,
                                  corrected=bool(corrected)), \
            pos + _ESTIMATE.size
    if tag == _T_DISTILL:
        if buf[pos] != _T_REPLAY:
            raise CodecError("distillation frame missing its replay")
        replay, pos = _dec_replay(buf, pos + 1)
        (n,) = _U32.unpack_from(buf, pos)
        start, pos = pos + 4, pos + 4 + n * _ESTIMATE.size
        estimates = [
            _ParameterEstimate(time=t, F=F, Vb=Vb, Vr=Vr,
                               corrected=bool(corrected))
            for t, F, Vb, Vr, corrected
            in _ESTIMATE.iter_unpack(buf[start:pos])]
        counters = _COUNTERS.unpack_from(buf, pos)
        (statuses,), pos = _dec_seq(buf, pos + _COUNTERS.size, 1)
        return _DistillationResult(
            replay=replay, estimates=estimates,
            groups_total=counters[0], groups_used=counters[1],
            groups_corrected=counters[2], groups_skipped=counters[3],
            echoes_sent=counters[4], replies_received=counters[5],
            status_records=statuses), pos
    if tag == _T_SUMMARY:
        mean, std, n = _SUMMARY.unpack_from(buf, pos)
        return _Summary(mean=mean, std=std, n=n), pos + _SUMMARY.size
    if tag == _T_PICKLE:
        (n,) = _U32.unpack_from(buf, pos)
        pos += 4
        try:
            return pickle.loads(buf[pos:pos + n]), pos + n
        except Exception as exc:
            raise CodecError(f"corrupt pickle block: {exc}")
    raise CodecError(f"unknown value tag 0x{tag:02x}")


def _dec_replay(buf: bytes, pos: int) -> Tuple[Any, int]:
    (n,) = _U32.unpack_from(buf, pos)
    start, pos = pos + 4, pos + 4 + n
    name = buf[start:pos].decode("utf-8")
    (count,) = _U32.unpack_from(buf, pos)
    start, pos = pos + 4, pos + 4 + count * _QUALITY.size
    try:
        tuples = [_QualityTuple(d=d, F=F, Vb=Vb, Vr=Vr, L=L)
                  for d, F, Vb, Vr, L in _QUALITY.iter_unpack(buf[start:pos])]
        return _ReplayTrace(tuples, name=name), pos
    except ValueError as exc:
        raise CodecError(f"corrupt replay frame: {exc}")


def decode(blob: bytes) -> Any:
    """Parse a frame produced by :func:`encode` (strict: trailing
    bytes, truncation, bad magic, unknown versions and any malformed
    payload all raise :class:`CodecError`)."""
    if not _ENCODERS:
        _bind()
    buf = bytes(blob)  # no copy for bytes input
    if len(buf) < _HEADER.size:
        raise CodecError("truncated frame: no header")
    magic, version = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise CodecError(f"bad magic {bytes(magic)!r}; not a binary "
                         f"artifact frame")
    if version != VERSION:
        raise CodecError(f"unsupported artifact codec version {version} "
                         f"(this build reads version {VERSION})")
    try:
        (value,), pos = _dec_seq(buf, _HEADER.size, 1)
    except CodecError:
        raise
    except (IndexError, struct.error):
        raise CodecError("truncated frame: a value runs past the end") \
            from None
    except (ValueError, RecursionError) as exc:
        raise CodecError(f"corrupt frame: {exc!r}") from None
    if pos > len(buf):
        raise CodecError("truncated frame: a value runs past the end")
    if pos < len(buf):
        raise CodecError(f"{len(buf) - pos} trailing byte(s) after the "
                         f"top-level value")
    return value


# ======================================================================
# Gzip framing (on-disk form) and content digests
# ======================================================================
def encode_gz(obj: Any, level: int = 1) -> bytes:
    """:func:`encode` plus deterministic gzip framing (``mtime=0``, so
    identical artifacts produce identical files)."""
    return gzip.compress(encode(obj), compresslevel=level, mtime=0)


def decode_gz(blob: bytes) -> Any:
    """Decode a gzip-framed artifact (plain frames also accepted)."""
    if blob[:2] == _GZIP_MAGIC:
        try:
            blob = gzip.decompress(blob)
        except (OSError, EOFError) as exc:
            raise CodecError(f"corrupt gzip framing: {exc}")
    return decode(blob)


def content_digest(blob: bytes) -> str:
    """SHA-256 hex digest of an encoded frame — the envelope integrity
    token for store-mediated result handoff."""
    return hashlib.sha256(blob).hexdigest()
