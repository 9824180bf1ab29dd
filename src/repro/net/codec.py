"""Wire codec for the live runtime.

Frames are ``MAGIC (2) | version (1) | payload length (4, big-endian) |
payload``.  The payload is a single-pass tag-prefixed binary term
format (struct-packed fixed-width scalars, length-prefixed strings and
repeated sections) with per-frame *back-reference tables* for strings
and typed objects, so a value that appears repeatedly in one frame (the
request inside every probe, a function name inside every edge) is
encoded once and referenced thereafter.

There is one wire format.  The header's version byte is a refusal
check: a frame that does not say :data:`WIRE_VERSION` is a
:class:`CodecError`, so a stale peer is turned away loudly instead of
being half-understood.

Decoding reconstructs the exact dataclasses the protocol code operates
on — ``decode(encode(x)) == x`` for every registered type — through
trusted constructors: frames come from this encoder and already-
validated objects, so re-running dataclass validation
(``FunctionGraph.validate``, ``__post_init__`` range checks) on every
hop is pure overhead.  What is *structurally* wrong — unknown version
or type id, truncated or oversized frame, a typed layout that meets a
value of the wrong shape — raises :class:`CodecError` and nothing else:
a peer never processes a frame it cannot fully and unambiguously
decode.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..core.function_graph import FunctionGraph
from ..core.probe import Probe
from ..core.qos import QoSRequirement, QoSVector
from ..core.request import CompositeRequest
from ..core.resources import ResourceVector
from ..core.service_graph import ServiceGraph
from ..discovery.metadata import ServiceMetadata
from ..services.component import ComponentSpec, QualitySpec

__all__ = [
    "CodecError",
    "WIRE_VERSION",
    "MAX_FRAME",
    "encode_frame",
    "decode_frame",
    "FrameReader",
    # wire messages
    "ComposeBegin",
    "ProbeTransfer",
    "FinalProbe",
    "CreditReturn",
    "SessionConfirm",
    "SessionRelease",
    "ComposeResult",
    "Busy",
    "MaintenancePing",
    "RegisterComponent",
    "RegisterBatch",
    "LookupRequest",
    "ReplicatePush",
    "ReplicaInvalidate",
    "PathProbe",
    "ProbeAck",
]

MAGIC = b"SN"
WIRE_VERSION = 2  # the header's version byte; any other value is refused
MAX_FRAME = 4 * 1024 * 1024  # one protocol message, not a data plane
_HEADER = struct.Struct(">2sBI")
_HEADER_SIZE = _HEADER.size


class CodecError(ValueError):
    """Raised for malformed, truncated, oversized or unknown-version frames."""


# ----------------------------------------------------------------------
# typed-object registry
# ----------------------------------------------------------------------
# numeric type id <-> (pack(packer, obj), unpack(unpacker) -> obj); ids are
# assigned in registration order, which is therefore wire format
_BIN_IDS: Dict[Type, int] = {}
_BIN_PACKERS: List[Callable] = []
_BIN_UNPACKERS: List[Callable] = []
_BIN_BLOB: List[bool] = []  # per type id: encode as content-addressed blob?


def _register(cls: Type, pack: Callable, unpack: Callable) -> None:
    if cls in _BIN_IDS:
        raise ValueError(f"duplicate codec type {cls.__name__}")
    if len(_BIN_PACKERS) > 0xFF:
        raise ValueError("binary type-id space exhausted")
    _BIN_IDS[cls] = len(_BIN_PACKERS)
    _BIN_PACKERS.append(pack)
    _BIN_UNPACKERS.append(unpack)
    _BIN_BLOB.append(False)


# ----------------------------------------------------------------------
# binary term format
# ----------------------------------------------------------------------
# one tag byte per value; fixed-width scalars via struct, length-prefixed
# strings/containers, >H back-references into per-frame tables
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT8 = 0x03
_T_INT32 = 0x04
_T_INT64 = 0x05
_T_INTBIG = 0x06
_T_FLOAT = 0x07
_T_STR8 = 0x08
_T_STR32 = 0x09
_T_STRREF = 0x0A
_T_LIST8 = 0x0B
_T_LIST32 = 0x0C
_T_DICT8 = 0x0D
_T_DICT32 = 0x0E
_T_OBJ = 0x0F
_T_OBJREF = 0x10
# dedicated layouts for the RPC envelope wrappers: every frame is one of
# these two dicts, so spelling their keys per frame is pure overhead
_T_REQ_ENV = 0x11  # {"kind":"req","id","src","inc","body"}
_T_RES_ENV = 0x12  # {"kind":"res","id","src","body"} (+ optional "inc")
# content-addressed sub-message: tag | type_id(1B) | length(>I) | payload,
# where the payload is the object encoded against *fresh* (static-only)
# back-reference tables.  Making the bytes context-free lets both ends
# memoize across frames — see the cache note above ``pack_object``.
_T_BLOB = 0x13

_S_INT8 = struct.Struct(">Bb")
_S_INT32 = struct.Struct(">Bi")
_S_INT64 = struct.Struct(">Bq")
_S_FLOAT = struct.Struct(">Bd")
_S_REF = struct.Struct(">BH")
_S_LEN8 = struct.Struct(">BB")
_S_LEN32 = struct.Struct(">BI")
_S_OBJ = struct.Struct(">BB")
_S_BLOB = struct.Struct(">BBI")
_S_b = struct.Struct(">b")
_S_i = struct.Struct(">i")
_S_q = struct.Struct(">q")
_S_d = struct.Struct(">d")
_S_I = struct.Struct(">I")

_TABLE_LIMIT = 0xFFFF  # >H back-reference index space per frame

# protocol-static string table (the HPACK idea): strings every session
# sends constantly are pre-seeded at fixed indices on both ends, so even
# their *first* occurrence in a frame is a 3-byte reference.  Order is
# part of the wire format — append only.
_STATIC_STRINGS = (
    "ok", "error", "confirmed", "components", "rtt", "fresh",
    "alive", "request", "seq", "comp", "link", "delay", "loss",
    "cpu", "memory", "discovery", "composition", "setup_ack",
    # directory tier reply keys (appended in a later revision; order is
    # wire format, so new entries only ever go at the end)
    "version", "bloom", "stale",
)
_STATIC_MAP = {s: i for i, s in enumerate(_STATIC_STRINGS)}


# cross-frame memo for content-addressed blobs.  A compose session ships
# the same immutable objects — the request, its function graph, the
# directory's ServiceMetadata entries — inside every probe and report
# frame.  Blob-typed objects are encoded against fresh tables, so their
# bytes depend on nothing outside the object: the sender caches the
# encoding per live object (the strong reference keeps ``id()`` unique),
# and the receiver caches the decode per unique byte string, returning
# one shared immutable instance thereafter.  Blobs carry no cross-frame
# protocol state, so frame loss or reordering cannot desynchronize them.
_BLOB_CACHE_LIMIT = 4096
_ENC_BLOBS: Dict[int, Tuple[Any, bytes]] = {}  # id(obj) -> (obj, blob)
_DEC_BLOBS: Dict[Tuple[int, bytes], Any] = {}  # (type_id, blob) -> obj


class _Packer:
    """Single-pass binary encoder with per-frame back-reference tables."""

    __slots__ = ("out", "_strs", "_objs", "_keep")

    def __init__(self) -> None:
        self.out = bytearray()
        self._strs: Dict[str, int] = dict(_STATIC_MAP)
        self._objs: Dict[int, int] = {}  # id(obj) -> table index
        self._keep: List[Any] = []  # keeps ids valid for the pass

    def pack_str(self, s: str) -> None:
        out = self.out
        idx = self._strs.get(s)
        if idx is not None:
            out += _S_REF.pack(_T_STRREF, idx)
            return
        raw = s.encode("utf-8")
        n = len(raw)
        if n < 256:
            out += _S_LEN8.pack(_T_STR8, n)
        else:
            out += _S_LEN32.pack(_T_STR32, n)
        out += raw
        if len(self._strs) < _TABLE_LIMIT:
            self._strs[s] = len(self._strs)

    def pack_int(self, v: int) -> None:
        if -128 <= v <= 127:
            self.out += _S_INT8.pack(_T_INT8, v)
        elif -(1 << 31) <= v < (1 << 31):
            self.out += _S_INT32.pack(_T_INT32, v)
        elif -(1 << 63) <= v < (1 << 63):
            self.out += _S_INT64.pack(_T_INT64, v)
        else:  # arbitrary precision (deep credit-split denominators)
            raw = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
            self.out += _S_LEN32.pack(_T_INTBIG, len(raw))
            self.out += raw

    def pack_float(self, v: float) -> None:
        self.out += _S_FLOAT.pack(_T_FLOAT, v)

    def pack_count(self, tag8: int, tag32: int, n: int) -> None:
        if n < 256:
            self.out += _S_LEN8.pack(tag8, n)
        else:
            self.out += _S_LEN32.pack(tag32, n)

    def pack_value(self, v: Any) -> None:
        t = type(v)
        if t is str:
            self.pack_str(v)
        elif t is int:
            self.pack_int(v)
        elif t is float:
            self.pack_float(v)
        elif t is bool:
            self.out.append(_T_TRUE if v else _T_FALSE)
        elif v is None:
            self.out.append(_T_NONE)
        elif t is list or t is tuple:
            self.pack_count(_T_LIST8, _T_LIST32, len(v))
            for item in v:
                self.pack_value(item)
        elif t is dict:
            if not self._pack_envelope(v):
                self.pack_count(_T_DICT8, _T_DICT32, len(v))
                for k, item in v.items():
                    if type(k) is not str:
                        raise CodecError(f"non-string mapping key on the wire: {k!r}")
                    self.pack_str(k)
                    self.pack_value(item)
        else:
            self.pack_object(v)

    def _pack_envelope(self, v: dict) -> bool:
        """Emit an RPC envelope dict in its dedicated layout, if it is one."""
        n = len(v)
        kind = v.get("kind")
        if kind == "req" and n == 5:
            try:
                msg_id, src, inc, body = v["id"], v["src"], v["inc"], v["body"]
            except KeyError:
                return False
            self.out.append(_T_REQ_ENV)
        elif kind == "res" and (n == 4 or (n == 5 and "inc" in v)):
            try:
                msg_id, src, body = v["id"], v["src"], v["body"]
            except KeyError:
                return False
            inc = v.get("inc")
            self.out.append(_T_RES_ENV)
        else:
            return False
        self.pack_value(msg_id)
        self.pack_value(src)
        self.pack_value(inc)
        self.pack_value(body)
        return True

    def pack_object(self, v: Any) -> None:
        idx = self._objs.get(id(v))
        if idx is not None:
            self.out += _S_REF.pack(_T_OBJREF, idx)
            return
        tid = _BIN_IDS.get(type(v))
        if tid is None:
            raise CodecError(f"type {type(v).__name__} is not wire-encodable")
        if _BIN_BLOB[tid]:
            entry = _ENC_BLOBS.get(id(v))
            if entry is None:
                sub = _Packer()
                _BIN_PACKERS[tid](sub, v)
                blob = bytes(sub.out)
                if len(_ENC_BLOBS) >= _BLOB_CACHE_LIMIT:
                    _ENC_BLOBS.pop(next(iter(_ENC_BLOBS)))
                _ENC_BLOBS[id(v)] = (v, blob)
            else:
                blob = entry[1]
            self.out += _S_BLOB.pack(_T_BLOB, tid, len(blob))
            self.out += blob
        else:
            self.out += _S_OBJ.pack(_T_OBJ, tid)
            _BIN_PACKERS[tid](self, v)
        # post-order registration: children are in the table before their
        # parents, matching the decoder's construction order exactly (a
        # blob registers only itself — its children live in its own tables)
        if len(self._objs) < _TABLE_LIMIT:
            self._objs[id(v)] = len(self._objs)
            self._keep.append(v)


class _Unpacker:
    """Mirror of :class:`_Packer`; raises :class:`CodecError` on any damage.

    Fixed-width scalars are read with ``unpack_from`` against a running
    offset — no intermediate slices — because this loop runs once per
    value of every frame a peer receives.
    """

    __slots__ = ("buf", "pos", "_strs", "_objs")

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0
        self._strs: List[str] = list(_STATIC_STRINGS)
        self._objs: List[Any] = []

    def read_value(self) -> Any:
        buf = self.buf
        pos = self.pos
        try:
            tag = buf[pos]
            pos += 1
            # ordered roughly by observed frequency on the live path
            if tag == _T_STRREF:
                idx = (buf[pos] << 8) | buf[pos + 1]
                self.pos = pos + 2
                strs = self._strs
                if idx >= len(strs):
                    raise CodecError(f"dangling string back-reference {idx}")
                return strs[idx]
            if tag == _T_STR8:
                n = buf[pos]
                pos += 1
                end = pos + n
                if end > len(buf):
                    raise CodecError(
                        f"truncated binary payload: string runs past the end"
                    )
                self.pos = end
                s = buf[pos:end].decode("utf-8")
                self._strs.append(s)
                return s
            if tag == _T_INT8:
                self.pos = pos + 1
                return _S_b.unpack_from(buf, pos)[0]
            if tag == _T_FLOAT:
                self.pos = pos + 8
                return _S_d.unpack_from(buf, pos)[0]
            if tag == _T_INT32:
                self.pos = pos + 4
                return _S_i.unpack_from(buf, pos)[0]
            if tag == _T_OBJ:
                tid = buf[pos]
                self.pos = pos + 1
                if tid >= len(_BIN_UNPACKERS):
                    raise CodecError(f"unknown binary type id {tid}")
                obj = _BIN_UNPACKERS[tid](self)
                self._objs.append(obj)
                return obj
            if tag == _T_OBJREF:
                idx = (buf[pos] << 8) | buf[pos + 1]
                self.pos = pos + 2
                objs = self._objs
                if idx >= len(objs):
                    raise CodecError(f"dangling object back-reference {idx}")
                return objs[idx]
            if tag == _T_BLOB:
                tid = buf[pos]
                n = _S_I.unpack_from(buf, pos + 1)[0]
                start = pos + 5
                end = start + n
                if end > len(buf):
                    raise CodecError("truncated binary payload: blob runs past the end")
                if tid >= len(_BIN_UNPACKERS):
                    raise CodecError(f"unknown binary type id {tid}")
                self.pos = end
                key = (tid, bytes(buf[start:end]))
                obj = _DEC_BLOBS.get(key)
                if obj is None:
                    sub = _Unpacker(key[1])
                    obj = _BIN_UNPACKERS[tid](sub)
                    if sub.pos != n:
                        raise CodecError("trailing bytes inside binary payload")
                    if len(_DEC_BLOBS) >= _BLOB_CACHE_LIMIT:
                        _DEC_BLOBS.pop(next(iter(_DEC_BLOBS)))
                    _DEC_BLOBS[key] = obj
                self._objs.append(obj)
                return obj
            if tag == _T_LIST8 or tag == _T_LIST32:
                if tag == _T_LIST8:
                    n = buf[pos]
                    self.pos = pos + 1
                else:
                    n = _S_I.unpack_from(buf, pos)[0]
                    self.pos = pos + 4
                read = self.read_value
                return [read() for _ in range(n)]
            if tag == _T_DICT8 or tag == _T_DICT32:
                if tag == _T_DICT8:
                    n = buf[pos]
                    self.pos = pos + 1
                else:
                    n = _S_I.unpack_from(buf, pos)[0]
                    self.pos = pos + 4
                read = self.read_value
                out = {}
                for _ in range(n):
                    k = read()
                    if type(k) is not str:
                        raise CodecError(f"non-string mapping key on the wire: {k!r}")
                    out[k] = read()
                return out
            if tag == _T_REQ_ENV or tag == _T_RES_ENV:
                self.pos = pos
                read = self.read_value
                msg_id = read()
                src = read()
                inc = read()
                body = read()
                if tag == _T_REQ_ENV:
                    return {"kind": "req", "id": msg_id, "src": src,
                            "inc": inc, "body": body}
                env = {"kind": "res", "id": msg_id, "src": src, "body": body}
                if inc is not None:
                    env["inc"] = inc
                return env
            if tag == _T_NONE:
                self.pos = pos
                return None
            if tag == _T_TRUE:
                self.pos = pos
                return True
            if tag == _T_FALSE:
                self.pos = pos
                return False
            if tag == _T_INT64:
                self.pos = pos + 8
                return _S_q.unpack_from(buf, pos)[0]
            if tag == _T_STR32:
                n = _S_I.unpack_from(buf, pos)[0]
                pos += 4
                end = pos + n
                if end > len(buf):
                    raise CodecError(
                        f"truncated binary payload: string runs past the end"
                    )
                self.pos = end
                s = buf[pos:end].decode("utf-8")
                self._strs.append(s)
                return s
            if tag == _T_INTBIG:
                n = _S_I.unpack_from(buf, pos)[0]
                pos += 4
                end = pos + n
                if end > len(buf):
                    raise CodecError(
                        f"truncated binary payload: bigint runs past the end"
                    )
                self.pos = end
                return int.from_bytes(buf[pos:end], "big", signed=True)
        except CodecError:
            raise
        except (IndexError, struct.error) as exc:
            raise CodecError(f"truncated binary payload: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CodecError(f"undecodable binary payload: {exc}") from exc
        raise CodecError(f"unknown binary value tag 0x{tag:02x}")


# ----------------------------------------------------------------------
# frame layer
# ----------------------------------------------------------------------
def encode_frame(obj: Any, version: int = WIRE_VERSION) -> bytes:
    """Serialize one message (envelope dict or typed object) to a frame."""
    if version != WIRE_VERSION:
        raise CodecError(f"cannot encode wire version {version}")
    packer = _Packer()
    packer.pack_value(obj)
    payload = bytes(packer.out)
    if len(payload) > MAX_FRAME:
        raise CodecError(f"frame payload of {len(payload)} bytes exceeds {MAX_FRAME}")
    return _HEADER.pack(MAGIC, version, len(payload)) + payload


def _decode_payload(payload: bytes) -> Any:
    unpacker = _Unpacker(payload)
    try:
        value = unpacker.read_value()
    except CodecError:
        raise
    except Exception as exc:
        # the term decoder reports damage itself; this is a typed layout
        # or a message constructor meeting a value of the wrong shape
        raise CodecError(f"malformed frame payload: {exc!r}") from exc
    if unpacker.pos != len(payload):
        raise CodecError(
            f"{len(payload) - unpacker.pos} trailing bytes inside binary payload"
        )
    return value


def _check_header(magic: bytes, version: int, length: int) -> None:
    if magic != MAGIC:
        raise CodecError(f"bad frame magic {bytes(magic)!r}")
    if version != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {version} (speak {WIRE_VERSION})")
    if length > MAX_FRAME:
        raise CodecError(f"declared payload of {length} bytes exceeds {MAX_FRAME}")


def decode_frame(data: bytes) -> Any:
    """Decode exactly one complete frame (rejects trailing garbage)."""
    if len(data) < _HEADER_SIZE:
        raise CodecError(f"truncated frame header: {len(data)} bytes")
    magic, version, length = _HEADER.unpack_from(data)
    _check_header(magic, version, length)
    end = _HEADER_SIZE + length
    if len(data) < end:
        raise CodecError(
            f"truncated frame payload: {len(data) - _HEADER_SIZE}/{length} bytes"
        )
    if len(data) > end:
        raise CodecError(f"{len(data) - end} trailing bytes after frame")
    return _decode_payload(data[_HEADER_SIZE:end])


class FrameReader:
    """Incremental frame parser for a byte stream.

    ``feed()`` buffers arbitrary chunks and returns every message whose
    frame completed.  A header error (bad magic/version/length) poisons
    the stream permanently, since resynchronisation is impossible.

    The buffer is consumed through an offset cursor rather than
    re-trimming the front per frame (which made bursts O(n²) in the
    number of buffered bytes); the consumed prefix is compacted away
    only once it dominates the buffer.
    """

    # compact when the consumed prefix exceeds this AND most of the
    # buffer is dead — amortizes the memmove over many frames
    _COMPACT_MIN = 1 << 16

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0

    def feed(self, data: bytes) -> List[Any]:
        buf = self._buf
        buf += data
        out: List[Any] = []
        pos = self._pos
        try:
            while len(buf) - pos >= _HEADER_SIZE:
                magic, version, length = _HEADER.unpack_from(buf, pos)
                _check_header(bytes(magic), version, length)
                end = pos + _HEADER_SIZE + length
                if len(buf) < end:
                    break
                out.append(_decode_payload(bytes(buf[pos + _HEADER_SIZE : end])))
                pos = end
        finally:
            self._pos = pos
            if pos >= self._COMPACT_MIN and pos * 2 >= len(buf):
                del buf[:pos]
                self._pos = 0
        return out

    @property
    def pending_bytes(self) -> int:
        return len(self._buf) - self._pos


# ----------------------------------------------------------------------
# trusted construction helpers
# ----------------------------------------------------------------------
# The decoder expects frames this module encoded from already-validated
# objects, so reconstruction skips defensive copies and __post_init__
# re-validation.  Anything structurally damaged still fails loudly: in
# the term decoder above, or as whatever a layout below raises on a value
# of the wrong shape, which ``_decode_payload`` reports as a CodecError.
_OSET = object.__setattr__

try:  # CPython's Fraction stores coprime ints in two slots; reuse them
    _probe_frac = Fraction.__new__(Fraction)
    _probe_frac._numerator = 1
    _probe_frac._denominator = 1
    _FAST_FRACTION = True
except (AttributeError, TypeError):  # pragma: no cover - exotic runtimes
    _FAST_FRACTION = False


def _make_fraction(n: int, d: int) -> Fraction:
    if _FAST_FRACTION:
        f = Fraction.__new__(Fraction)
        f._numerator = n
        f._denominator = d
        return f
    return Fraction(n, d)  # pragma: no cover - exotic runtimes


def _new_with_dict(cls: Type, fields: dict) -> Any:
    """Build a frozen (non-slots) dataclass without running __init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# ----------------------------------------------------------------------
# core protocol objects
# ----------------------------------------------------------------------
def _pack_str_float_map(p: _Packer, values: Dict[str, float]) -> None:
    p.pack_count(_T_DICT8, _T_DICT32, len(values))
    for k, v in values.items():
        p.pack_str(k)
        p.pack_float(v)


def _unpack_str_float_map(u: _Unpacker) -> Dict[str, float]:
    value = u.read_value()
    if type(value) is not dict:
        raise CodecError("expected a metric map")
    return value


_register(
    QoSVector,
    lambda p, x: _pack_str_float_map(p, x.values),
    lambda u: QoSVector._from_trusted(_unpack_str_float_map(u)),
)
_register(
    QoSRequirement,
    lambda p, x: _pack_str_float_map(p, x.bounds),
    lambda u: _new_with_dict(QoSRequirement, {"bounds": _unpack_str_float_map(u)}),
)
_register(
    ResourceVector,
    lambda p, x: _pack_str_float_map(p, x.values),
    lambda u: ResourceVector._from_trusted(_unpack_str_float_map(u)),
)


def _pack_quality(p: _Packer, x: QualitySpec) -> None:
    p.pack_value(sorted(x.formats))


def _unpack_quality(u: _Unpacker) -> QualitySpec:
    return QualitySpec(frozenset(u.read_value()))


_register(QualitySpec, _pack_quality, _unpack_quality)


def _pack_fraction(p: _Packer, x: Fraction) -> None:
    p.pack_int(x.numerator)
    p.pack_int(x.denominator)


def _unpack_fraction(u: _Unpacker) -> Fraction:
    n = u.read_value()
    d = u.read_value()
    if type(n) is not int or type(d) is not int or d == 0:
        raise CodecError(f"bad fraction {n!r}/{d!r}")
    return _make_fraction(n, d)


_register(Fraction, _pack_fraction, _unpack_fraction)


def _pack_svcmeta(p: _Packer, x: ServiceMetadata) -> None:
    p.pack_int(x.component_id)
    p.pack_str(x.function)
    p.pack_int(x.peer)
    p.pack_object(x.qp)
    p.pack_object(x.resources)
    p.pack_object(x.input_quality)
    p.pack_object(x.output_quality)
    p.pack_float(x.bandwidth_factor)
    p.pack_float(x.registered_at)


def _unpack_svcmeta(u: _Unpacker) -> ServiceMetadata:
    read = u.read_value
    return ServiceMetadata(
        read(), read(), read(), read(), read(), read(), read(), read(), read()
    )


_register(ServiceMetadata, _pack_svcmeta, _unpack_svcmeta)


def _pack_cspec(p: _Packer, x: ComponentSpec) -> None:
    p.pack_int(x.component_id)
    p.pack_str(x.function)
    p.pack_int(x.peer)
    p.pack_object(x.qp)
    p.pack_object(x.resources)
    p.pack_object(x.input_quality)
    p.pack_object(x.output_quality)
    p.pack_int(x.n_inputs)
    p.pack_float(x.bandwidth_factor)


def _unpack_cspec(u: _Unpacker) -> ComponentSpec:
    read = u.read_value
    return ComponentSpec(
        read(), read(), read(), read(), read(), read(), read(), read(), read()
    )


_register(ComponentSpec, _pack_cspec, _unpack_cspec)


def _pack_fgraph(p: _Packer, x: FunctionGraph) -> None:
    p.pack_value(list(x.functions))
    p.pack_value(sorted([a, b] for a, b in x.edges))
    p.pack_value(sorted(sorted(pair) for pair in x.commutations))


def _unpack_fgraph(u: _Unpacker) -> FunctionGraph:
    functions = tuple(u.read_value())
    edges = frozenset((a, b) for a, b in u.read_value())
    commutations = frozenset(frozenset(pair) for pair in u.read_value())
    # trusted: the plain constructor skips from_edges' validate() pass —
    # only graphs that already passed it are ever encoded
    return FunctionGraph(functions=functions, edges=edges, commutations=commutations)


_register(FunctionGraph, _pack_fgraph, _unpack_fgraph)


def _pack_request(p: _Packer, x: CompositeRequest) -> None:
    p.pack_int(x.request_id)
    p.pack_object(x.function_graph)
    p.pack_object(x.qos)
    p.pack_int(x.source_peer)
    p.pack_int(x.dest_peer)
    p.pack_float(x.bandwidth)
    p.pack_float(x.failure_req)
    p.pack_float(x.duration)
    p.pack_float(x.priority)


def _unpack_request(u: _Unpacker) -> CompositeRequest:
    read = u.read_value
    return _new_with_dict(
        CompositeRequest,
        {
            "request_id": read(),
            "function_graph": read(),
            "qos": read(),
            "source_peer": read(),
            "dest_peer": read(),
            "bandwidth": read(),
            "failure_req": read(),
            "duration": read(),
            "priority": read(),
        },
    )


_register(CompositeRequest, _pack_request, _unpack_request)


def _pack_sgraph(p: _Packer, x: ServiceGraph) -> None:
    p.pack_object(x.pattern)
    p.pack_value(x.assignment)
    p.pack_int(x.source_peer)
    p.pack_int(x.dest_peer)
    p.pack_float(x.base_bandwidth)


def _unpack_sgraph(u: _Unpacker) -> ServiceGraph:
    read = u.read_value
    return _new_with_dict(
        ServiceGraph,
        {
            "pattern": read(),
            "assignment": read(),
            "source_peer": read(),
            "dest_peer": read(),
            "base_bandwidth": read(),
        },
    )


_register(ServiceGraph, _pack_sgraph, _unpack_sgraph)


def _pack_probe(p: _Packer, x: Probe) -> None:
    p.pack_int(x.probe_id)
    p.pack_object(x.request)
    p.pack_object(x.graph)
    p.pack_value(sorted(sorted(pair) for pair in x.applied_swaps))
    p.pack_value(x.assignment)
    p.pack_value(x.branch)
    p.pack_int(x.current_peer)
    p.pack_object(x.qos)
    p.pack_int(x.budget)
    p.pack_float(x.out_bandwidth)
    p.pack_float(x.elapsed)
    p.pack_int(x.hops)


def _unpack_probe(u: _Unpacker) -> Probe:
    read = u.read_value
    probe = object.__new__(Probe)
    _OSET(probe, "probe_id", read())
    _OSET(probe, "request", read())
    _OSET(probe, "graph", read())
    _OSET(probe, "applied_swaps", frozenset(frozenset(pair) for pair in read()))
    _OSET(probe, "assignment", read())
    _OSET(probe, "branch", tuple(read()))
    _OSET(probe, "current_peer", read())
    _OSET(probe, "qos", read())
    _OSET(probe, "budget", read())
    _OSET(probe, "out_bandwidth", read())
    _OSET(probe, "elapsed", read())
    _OSET(probe, "hops", read())
    _OSET(probe, "_dedup", None)
    return probe


_register(Probe, _pack_probe, _unpack_probe)


# ----------------------------------------------------------------------
# wire messages (session setup / ack / maintenance)
# ----------------------------------------------------------------------
def _tokens_tuple(tokens) -> Tuple[Tuple, ...]:
    return tuple(tuple(t) for t in tokens)


def _message(cls: Type) -> Type:
    """Register a message dataclass with shallow field-wise encoding.

    The layout packs the field *values* in declared order — both ends
    share the schema, so field names never cross the wire; decode rebuilds
    through the dataclass constructor (cheap: message ``__post_init__``
    only normalizes container types).
    """
    names = [f.name for f in dataclasses.fields(cls)]

    def pack(p: _Packer, m, _names=names) -> None:
        for n in _names:
            p.pack_value(getattr(m, n))

    def unpack(u: _Unpacker, _cls=cls, _names=names):
        return _cls(**{n: u.read_value() for n in _names})

    _register(cls, pack, unpack)
    return cls


@_message
@dataclass(frozen=True)
class ComposeBegin:
    """Source → destination: open a probe collection window for a request."""

    request_id: int
    request: CompositeRequest
    budget: int
    confirm: bool


def _usage_rows(rows, *kinds) -> Tuple[Tuple, ...]:
    try:
        out = tuple(tuple(row) for row in rows)
    except TypeError as exc:
        raise CodecError(f"malformed reservation report rows: {rows!r}") from exc
    for row in out:
        if len(row) != len(kinds) or not all(map(isinstance, row, kinds)):
            raise CodecError(f"malformed reservation report row: {row!r}")
    return out


def _normalize_credit(msg) -> None:
    """``__post_init__`` of the three credit-carrying messages.

    ``reports`` is a tuple of bundles ``(holder, n, peers, links)``: what
    ``holder`` reserved in its ``n``-th reporting admission, ``peers`` as
    ``(peer, rtype, amount)`` rows and ``links`` as ``(u, v, bandwidth)``
    rows.  Anything else is refused — a malformed report is a
    :class:`CodecError` at decode time, never a ``TypeError`` inside the
    destination's handler."""
    bundles = tuple(
        (
            holder,
            n,
            _usage_rows(peers, int, str, (int, float)),
            _usage_rows(links, int, int, (int, float)),
        )
        for holder, n, peers, links in _usage_rows(msg.reports, int, int, object, object)
    )
    object.__setattr__(msg, "reports", bundles)
    if not isinstance(msg.discovery, (int, float, type(None))):
        raise CodecError(f"malformed reservation report discovery rtt: {msg.discovery!r}")


@_message
@dataclass(frozen=True)
class ProbeTransfer:
    """Peer → peer: one child probe dispatch (Step 2.4 → Step 2.1).

    Carries the parent probe plus the chosen ``(function, component)``
    and the effective pattern so the *receiving* peer performs admission
    (QoS check + soft allocation) exactly as ``BCP._admit`` does.
    ``credit`` is this probe's share of the request's termination credit
    (splits on fan-out, returns to the destination on arrival/prune/loss).

    Whatever the destination must know before its window may close
    travels with that credit: ``reports`` holds the reservation bundles
    of the admitting peers upstream (distributed mode; laid out as in
    :func:`_normalize_credit`) and ``discovery`` the root expansion's
    slowest lookup RTT.  On fan-out both go with the first child only,
    so each reaches the destination exactly once — in the
    :class:`FinalProbe` or :class:`CreditReturn` that ends this credit
    share's journey.
    """

    request_id: int
    parent: Probe
    function: str
    component: ServiceMetadata
    graph: FunctionGraph
    applied: Tuple[Tuple[str, str], ...]
    budget: int
    lookup_rtt: float
    credit: Fraction
    reports: Tuple[Tuple, ...] = ()
    discovery: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "applied", tuple(tuple(p) for p in self.applied))
        _normalize_credit(self)


@_message
@dataclass(frozen=True)
class FinalProbe:
    """Last-hop peer → destination: a branch-complete probe arrives.

    ``reports`` / ``discovery`` are what the probe gathered on its way
    (see :class:`ProbeTransfer`), the sender's own bundle last; the
    destination absorbs them before it counts the credit.  A reply
    marked ``late`` means the window had already closed.
    """

    request_id: int
    probe: Probe
    credit: Fraction
    reports: Tuple[Tuple, ...] = ()
    discovery: Optional[float] = None

    __post_init__ = _normalize_credit


@_message
@dataclass(frozen=True)
class CreditReturn:
    """Any peer → destination: credit whose probe will not arrive, with
    the ``reports`` / ``discovery`` that were travelling with it."""

    request_id: int
    credit: Fraction
    reason: str
    reports: Tuple[Tuple, ...] = ()
    discovery: Optional[float] = None

    __post_init__ = _normalize_credit


@_message
@dataclass(frozen=True)
class SessionConfirm:
    """Destination → path peers: setup ack confirming soft reservations."""

    request_id: int
    tokens: Tuple[Tuple, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", _tokens_tuple(self.tokens))


@_message
@dataclass(frozen=True)
class SessionRelease:
    """Destination → the peers holding this request's reservations (those
    named in the wave's report bundles; every peer in shared mode, which
    has no reports): drop the request's soft state, minus ``keep``.
    ``soft_only`` spares firm tokens too — the cleanup after a frame that
    met a closed window, when an established session may own them."""

    request_id: int
    keep: Tuple[Tuple, ...]
    soft_only: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "keep", _tokens_tuple(self.keep))


@_message
@dataclass(frozen=True)
class ComposeResult:
    """Destination → source: the composition outcome."""

    request_id: int
    success: bool
    graph: Optional[ServiceGraph]
    qos: Optional[QoSVector]
    cost: float
    failure_reason: Optional[str]
    probes_sent: int
    candidates_examined: int
    setup_time: float
    phases: Dict[str, float] = field(default_factory=dict)
    session_tokens: Tuple[Tuple, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "session_tokens", _tokens_tuple(self.session_tokens))


@_message
@dataclass(frozen=True)
class Busy:
    """Destination → source, inside the :class:`ComposeBegin` reply:
    the request was refused by admission control.

    Never a request frame of its own — it rides the begin RPC's response
    envelope (booked as ``net_ack``), so a shed request learns its fate
    in exactly one round trip and holds no state anywhere.  ``reason``
    names the exhausted limit (``"sessions"``), ``inflight`` the
    refusing peer's concurrent load at rejection time."""

    request_id: int
    reason: str
    inflight: int


@_message
@dataclass(frozen=True)
class MaintenancePing:
    """Source → session peers: periodic liveness probe for an active session."""

    request_id: int
    seq: int


@_message
@dataclass(frozen=True)
class RegisterComponent:
    """Hosting peer → directory owner: store a component's meta-data.

    In distributed mode the receiver holds the row in its own
    :class:`~repro.net.directory.DirectorySlice`; ``registered_at`` is
    the registrant's clock so replicas stamp identical meta-data."""

    spec: ComponentSpec
    registered_at: float = 0.0


@_message
@dataclass(frozen=True)
class RegisterBatch:
    """Hosting peer → directory replica: store many rows in one frame.

    Boot-time registration ships every component a registrant owes one
    target as a single frame instead of one ``RegisterComponent`` per
    spec.  The reply's ``stale`` map reports content-*changing* rows
    back to the registrant — ``{function: [version, [holder peers]]}``
    — so the registrant can invalidate exactly the peers that may cache
    the old rows (see :class:`ReplicaInvalidate`)."""

    specs: Tuple[ComponentSpec, ...]
    registered_at: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))


@_message
@dataclass(frozen=True)
class LookupRequest:
    """Querying peer → directory owner: a function's duplicate list.

    The reply carries the owner slice's ``ServiceMetadata`` rows; the
    querier computes the lookup RTT itself from the DHT route it took
    to find the owner.  With the directory tier enabled the reply also
    stamps the key's content ``version`` and piggybacks the slice's
    Bloom summary (``bloom``) for the querier's negative cache."""

    function: str
    origin_peer: int


@_message
@dataclass(frozen=True)
class ReplicatePush:
    """Hot key's holder → extended ring successors: replicate the rows.

    Sent when a key's decayed remote-serve rate crosses the configured
    hotness threshold: the peers just past the base replica set store
    the rows as a *replica tier* (newest ``version`` wins) and serve
    their own lookups locally thereafter."""

    function: str
    rows: Tuple[ServiceMetadata, ...]
    version: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))


@_message
@dataclass(frozen=True)
class ReplicaInvalidate:
    """Registrant → stale holders: a function's rows changed.

    Fan-out sent (and awaited) by ``register_components`` after a
    content-changing re-registration, to every peer the directory
    replicas report as a possible stale holder: recipients drop their
    cached entry and replica rows for ``function`` and the Bloom
    summaries covering its key, so the next lookup re-resolves.
    ``version`` is the key's new content version."""

    function: str
    version: int


@_message
@dataclass(frozen=True)
class PathProbe:
    """Measurement plane, prober → overlay neighbour: active RTT probe.

    ``sent_at`` is the prober's monotonic clock at transmission, echoed
    back in the :class:`ProbeAck` so the prober prices the round-trip
    without keeping a pending-probe table; ``seq`` distinguishes probes
    from one origin (and keeps retransmission dedup well-defined even
    though probes never retry).  Charged to ``net_measure``."""

    origin: int
    seq: int
    sent_at: float


@_message
@dataclass(frozen=True)
class ProbeAck:
    """Measurement plane, neighbour → prober: :class:`PathProbe` echo.

    Travels inside the RPC response envelope (booked as ``net_ack``,
    like every reply frame).  ``echo`` returns the probe's ``sent_at``
    verbatim."""

    seq: int
    echo: float


# ----------------------------------------------------------------------
# hot-message specializations
# ----------------------------------------------------------------------
def _specialize(cls: Type, pack: Callable, unpack: Callable) -> None:
    """Swap a registered type's generic layout for a dedicated one."""
    tid = _BIN_IDS[cls]
    _BIN_PACKERS[tid] = pack
    _BIN_UNPACKERS[tid] = unpack


def _pack_probe_transfer(p: _Packer, m: ProbeTransfer) -> None:
    p.pack_int(m.request_id)
    p.pack_object(m.parent)
    p.pack_str(m.function)
    p.pack_object(m.component)
    p.pack_object(m.graph)
    p.pack_value(m.applied)
    p.pack_int(m.budget)
    p.pack_float(m.lookup_rtt)
    p.pack_object(m.credit)
    p.pack_value(m.reports)
    p.pack_value(m.discovery)


def _unpack_probe_transfer(u: _Unpacker) -> ProbeTransfer:
    read = u.read_value
    # trusted decode skips __post_init__: the tuple normalization it
    # exists for is done right here, the bundle check just below
    msg = _new_with_dict(
        ProbeTransfer,
        {
            "request_id": read(),
            "parent": read(),
            "function": read(),
            "component": read(),
            "graph": read(),
            "applied": tuple(tuple(pair) for pair in read()),
            "budget": read(),
            "lookup_rtt": read(),
            "credit": read(),
            "reports": read(),
            "discovery": read(),
        },
    )
    _normalize_credit(msg)
    return msg


# ProbeTransfer is by far the most frequent frame on the wire (one per
# probe hop), so it alone earns a hand-rolled layout
_specialize(ProbeTransfer, _pack_probe_transfer, _unpack_probe_transfer)


def _blob_cached(cls: Type) -> None:
    """Encode ``cls`` as a content-addressed blob (see ``pack_object``)."""
    _BIN_BLOB[_BIN_IDS[cls]] = True


# session-constant immutable objects that recur in every probe and
# discovery frame: worth the 6-byte blob header to encode and decode
# each of them once per process instead of once per frame
_blob_cached(CompositeRequest)
_blob_cached(FunctionGraph)
_blob_cached(ServiceMetadata)
