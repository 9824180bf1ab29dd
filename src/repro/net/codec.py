"""Wire codec for the live runtime (wire version 6).

Frames are ``MAGIC (2) | version (1) | payload length (4, big-endian) |
payload``.  A payload is written in one pass in two kinds of encoding:

*Typed layouts.*  Every registered class declares the kind of each of
its fields once (:func:`_layout`), and both ends share that schema, so
the bytes of a field carry no tag and decoding it takes no dispatch.
All fixed-width scalars of a class (``i32`` peer ids, ``i64`` ids,
counters and termination credit, ``f64``, bool) are one ``struct`` call
at the head of its layout; the remaining fields follow in declared
order: strings through the per-frame string table, typed runs as a count
byte and a typed loop (at most 255 entries), reservation reports as
``struct`` rows.  The RPC envelopes
are ``tag | id i64 | src i32 | inc | body``, and a reply whose body is
exactly ``{"ok": True}`` — nearly half of all frames — has a tag of its
own and no body.  ``docs/PROTOCOL.md`` §8 has the tables.

*Tagged terms.*  What is genuinely dynamic (reply dicts, ``phases``,
reservation tokens, lookup replies) stays a tag-prefixed term: one tag
byte per value, integers up to ``i64``, length-prefixed strings and
containers, per-frame
*back-reference tables* for strings and typed objects.  Session
constants (the request, its function graph, directory rows) travel as
content-addressed blobs that both ends memoize across frames.

There is one wire format.  The header's version byte is a refusal
check: a frame that does not say :data:`WIRE_VERSION` is a
:class:`CodecError`, so a stale peer is turned away loudly instead of
being half-understood.

Trust model.  Decoding rebuilds the exact dataclasses the protocol code
operates on — ``decode(encode(x)) == x`` for every registered type —
without running their constructors: a typed field has its type by
construction, and what the bytes could still get wrong is checked where
it is read (run counts and lengths against the end of the payload, the
class of an object field, a presence byte).
Anything else that is structurally wrong — unknown version, tag or type
id, truncated or oversized frame — raises :class:`CodecError` and
nothing else: a peer never processes a frame it cannot fully and
unambiguously decode.  The encoder is as strict: a value that does not
fit its layout (an id or credit past ``i64``, any term integer past it,
a 256-entry run, a string where a number goes) is a :class:`CodecError`
from :func:`encode_frame`.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Type

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
    "RegisterBatch",
    "LookupRequest",
    "ReplicatePush",
    "ReplicaInvalidate",
    "PathProbe",
    "ProbeAck",
]

MAGIC = b"SN"
WIRE_VERSION = 6  # the header's version byte; any other value is refused
MAX_FRAME = 4 * 1024 * 1024  # one protocol message, not a data plane
_HEADER = struct.Struct(">2sBI")
_HEADER_SIZE = _HEADER.size


class CodecError(ValueError):
    """Raised for malformed, truncated, oversized or unknown-version frames."""


# ----------------------------------------------------------------------
# typed-object registry
# ----------------------------------------------------------------------
class _Kind(NamedTuple):
    """How one kind of value crosses the wire where its type is known."""

    pack: Callable  # (packer, value) -> None
    unpack: Callable  # (unpacker) -> value


# numeric type id <-> the class's layout; ids are assigned in registration
# order, which is therefore wire format
_BIN_IDS: Dict[Type, int] = {}
_BIN_PACKERS: List[Callable] = []
_BIN_UNPACKERS: List[Callable] = []
_BIN_BLOB: List[bool] = []  # per type id: encode as content-addressed blob?


def _register(cls: Type, pack: Callable, unpack: Callable) -> _Kind:
    """Give ``cls`` a type id; the returned kind is its layout *inline*:
    no tag, no type id, no entry in the object back-reference table."""
    if cls in _BIN_IDS:
        raise ValueError(f"duplicate codec type {cls.__name__}")
    if len(_BIN_PACKERS) > 0xFF:
        raise ValueError("binary type-id space exhausted")
    _BIN_IDS[cls] = len(_BIN_PACKERS)
    _BIN_PACKERS.append(pack)
    _BIN_UNPACKERS.append(unpack)
    _BIN_BLOB.append(False)
    return _Kind(pack, unpack)


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
# 0x06 stays unassigned (version 5's big-integer tag), so it is an unknown tag
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
# typed layouts of the RPC envelope dicts, which every frame is one of:
# tag | id i64 | src i32 | inc (string or _T_NONE) | body (a term)
_T_REQ_ENV = 0x11  # {"kind":"req","id","src","inc","body"}
_T_RES_ENV = 0x12  # {"kind":"res","id","src","body"} (+ "inc" when a string)
# content-addressed sub-message: tag | type_id(1B) | length(>I) | payload,
# where the payload is the object encoded against *fresh* (static-only)
# back-reference tables.  Making the bytes context-free lets both ends
# memoize across frames — see the cache note above ``pack_object``.
_T_BLOB = 0x13
_T_ACK_ENV = 0x14  # a _T_RES_ENV whose body is exactly {"ok": True}: no body

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
_S_ENV = struct.Struct(">Bqi")  # envelope tag, id, src

_TABLE_LIMIT = 0xFFFF  # >H back-reference index space per frame

# protocol-static string table (the HPACK idea): strings every session
# sends constantly are pre-seeded at fixed indices on both ends, so even
# their *first* occurrence in a frame is a 3-byte reference.  Order is
# part of the wire format — append only ("rtt" and "fresh" are no longer
# sent, and keep their places so that the indices after them hold).
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
        else:
            raise CodecError(f"integer {v} does not fit i64")

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
        """Emit an RPC envelope dict in its typed layout, if it is one."""
        try:
            kind, msg_id, src, body = v["kind"], v["id"], v["src"], v["body"]
        except KeyError:
            return False
        inc = v.get("inc")
        if type(msg_id) is not int or type(src) is not int:
            return False
        if kind == "req" and len(v) == 5 and "inc" in v and (inc is None or type(inc) is str):
            tag = _T_REQ_ENV
        elif kind == "res" and len(v) == 4 + (type(inc) is str):
            bare = type(body) is dict and len(body) == 1 and body.get("ok") is True
            tag = _T_ACK_ENV if bare else _T_RES_ENV
        else:
            return False
        self.out += _S_ENV.pack(tag, msg_id, src)
        if inc is None:
            self.out.append(_T_NONE)
        else:
            self.pack_str(inc)
        if tag != _T_ACK_ENV:
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

    def read_str(self) -> str:
        """A string where the layout says one is: literal or back-reference."""
        buf = self.buf
        pos = self.pos
        tag = buf[pos]
        if tag == _T_STRREF:
            idx = (buf[pos + 1] << 8) | buf[pos + 2]
            self.pos = pos + 3
            strs = self._strs
            if idx >= len(strs):
                raise CodecError(f"dangling string back-reference {idx}")
            return strs[idx]
        if tag == _T_STR8:
            start = pos + 2
            end = start + buf[pos + 1]
        elif tag == _T_STR32:
            start = pos + 5
            end = start + _S_I.unpack_from(buf, pos + 1)[0]
        else:
            raise CodecError(f"tag 0x{tag:02x} where the layout reads a string")
        if end > len(buf):
            raise CodecError("truncated binary payload: string runs past the end")
        self.pos = end
        s = buf[start:end].decode("utf-8")
        self._strs.append(s)
        return s

    def read_value(self) -> Any:
        buf = self.buf
        pos = self.pos
        try:
            tag = buf[pos]
            pos += 1
            # ordered roughly by observed frequency on the live path
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
            if tag == _T_OBJREF:
                idx = (buf[pos] << 8) | buf[pos + 1]
                self.pos = pos + 2
                objs = self._objs
                if idx >= len(objs):
                    raise CodecError(f"dangling object back-reference {idx}")
                return objs[idx]
            if tag == _T_OBJ:
                tid = buf[pos]
                self.pos = pos + 1
                if tid >= len(_BIN_UNPACKERS):
                    raise CodecError(f"unknown binary type id {tid}")
                obj = _BIN_UNPACKERS[tid](self)
                self._objs.append(obj)
                return obj
            if tag == _T_ACK_ENV or tag == _T_REQ_ENV or tag == _T_RES_ENV:
                _, msg_id, src = _S_ENV.unpack_from(buf, pos - 1)
                self.pos = pos = pos - 1 + _S_ENV.size
                if buf[pos] == _T_NONE:
                    inc = None
                    self.pos = pos + 1
                else:
                    inc = self.read_str()
                body = {"ok": True} if tag == _T_ACK_ENV else self.read_value()
                if tag == _T_REQ_ENV:
                    return {"kind": "req", "id": msg_id, "src": src,
                            "inc": inc, "body": body}
                env = {"kind": "res", "id": msg_id, "src": src, "body": body}
                if inc is not None:
                    env["inc"] = inc
                return env
            if tag == _T_STRREF or tag == _T_STR8 or tag == _T_STR32:
                return self.read_str()
            if tag == _T_INT8:
                self.pos = pos + 1
                return _S_b.unpack_from(buf, pos)[0]
            if tag == _T_FLOAT:
                self.pos = pos + 8
                return _S_d.unpack_from(buf, pos)[0]
            if tag == _T_INT32:
                self.pos = pos + 4
                return _S_i.unpack_from(buf, pos)[0]
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
    try:
        packer.pack_value(obj)
    except CodecError:
        raise
    except Exception as exc:
        # a typed layout handed a value of another type, range or shape
        raise CodecError(f"value does not fit its wire layout: {exc!r}") from exc
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
# Reconstruction skips defensive copies and __post_init__ re-validation:
# a typed field has its type by construction, and a layout checks what
# the bytes could still get wrong where it reads it.  Anything else a
# layout or a constructor raises on damaged bytes, ``_decode_payload``
# reports as a CodecError.
_OSET = object.__setattr__


# ----------------------------------------------------------------------
# typed layouts: field kinds and the layout compiler
# ----------------------------------------------------------------------
# A fixed-width scalar kind is its ``struct`` format character; every other
# kind is a :class:`_Kind`.  Runs carry a count byte, so they hold at most
# 255 entries; the encoder refuses a longer one.
_I32, _I64, _F64, _BOOL = "i", "q", "d", "?"
_STR = _Kind(_Packer.pack_str, _Unpacker.read_str)
_TERM = _Kind(_Packer.pack_value, _Unpacker.read_value)  # a tagged term


def _term(load: Callable) -> _Kind:
    """A tagged term that ``load`` normalizes (lists to tuples) on decode."""
    return _Kind(_Packer.pack_value, lambda u: load(u.read_value()))


def _obj(cls: Type) -> _Kind:
    """A registered object — blob, tagged layout or back-reference — that
    must turn out to be a ``cls``."""

    def unpack(u: _Unpacker) -> Any:
        obj = u.read_value()
        if type(obj) is not cls:
            raise CodecError(f"{type(obj).__name__} where the layout reads a {cls.__name__}")
        return obj

    return _Kind(_Packer.pack_object, unpack)


def _write_count(p: _Packer, items: Any) -> None:
    n = len(items)
    if n > 0xFF:
        raise CodecError(f"run of {n} entries exceeds the layout's 255")
    p.out.append(n)


def _read_count(u: _Unpacker) -> int:
    pos = u.pos
    u.pos = pos + 1
    return u.buf[pos]


def _pack_strs(p: _Packer, items: Tuple[str, ...]) -> None:
    _write_count(p, items)
    for s in items:
        p.pack_str(s)


def _unpack_strs(u: _Unpacker) -> Tuple[str, ...]:
    read = u.read_str
    return tuple([read() for _ in range(_read_count(u))])


def _pack_pairs(p: _Packer, pairs) -> None:
    _write_count(p, pairs)
    for a, b in pairs:
        p.pack_str(a)
        p.pack_str(b)


def _unpack_pairs(u: _Unpacker) -> Tuple[Tuple[str, str], ...]:
    read = u.read_str
    return tuple([(read(), read()) for _ in range(_read_count(u))])


_STRS = _Kind(_pack_strs, _unpack_strs)
_PAIRS = _Kind(_pack_pairs, _unpack_pairs)
# commutation pairs applied so far: unordered on both levels, sorted on the wire
_SWAPS = _Kind(
    lambda p, swaps: _pack_pairs(p, sorted(sorted(pair) for pair in swaps)),
    lambda u: frozenset(map(frozenset, _unpack_pairs(u))),
)


def _pack_metrics(p: _Packer, values: Dict[str, float]) -> None:
    _write_count(p, values)
    for k, v in values.items():
        p.pack_str(k)
        p.out += _S_d.pack(v)


def _unpack_metrics(u: _Unpacker) -> Dict[str, float]:
    out = {}
    for _ in range(_read_count(u)):
        k = u.read_str()
        pos = u.pos
        out[k] = _S_d.unpack_from(u.buf, pos)[0]
        u.pos = pos + 8
    return out


_METRICS = _Kind(_pack_metrics, _unpack_metrics)
_S_PRESENT = struct.Struct(">Bd")


def _pack_opt_f64(p: _Packer, v: Optional[float]) -> None:
    if v is None:
        p.out.append(0)
    else:
        p.out += _S_PRESENT.pack(1, v)


def _unpack_opt_f64(u: _Unpacker) -> Optional[float]:
    pos = u.pos
    present = u.buf[pos]
    if present == 0:
        u.pos = pos + 1
        return None
    if present != 1:
        raise CodecError(f"presence byte {present} is neither 0 nor 1")
    u.pos = pos + 9
    return _S_d.unpack_from(u.buf, pos + 1)[0]


_OPT_F64 = _Kind(_pack_opt_f64, _unpack_opt_f64)


def _layout(cls: Type, **kinds: Any) -> _Kind:
    """Compile and register the wire layout of dataclass ``cls``.

    ``kinds`` names the kind of every constructor field, in order.  On
    the wire the fixed-width scalars come first, as one ``struct``, then
    the other fields in declared order; the pack and unpack functions are
    generated as straight-line code, one statement per field.  Decode
    builds the object without running ``__init__`` / ``__post_init__``:
    each kind yields its field already in normal form.
    """
    fields = dataclasses.fields(cls)
    if [f.name for f in fields if f.init] != list(kinds):
        raise TypeError(f"the layout of {cls.__name__} must name its fields in order")
    fixed = [n for n, kind in kinds.items() if type(kind) is str]
    head = struct.Struct(">" + "".join(kinds[n] for n in fixed))
    scope: Dict[str, Any] = {"cls": cls, "head": head, "new": object.__new__, "oset": _OSET}
    pack = ["def pack(p, x):"]
    unpack = ["def unpack(u):"]
    if fixed:
        pack.append(f" p.out += head.pack({', '.join('x.' + n for n in fixed)})")
        unpack.append(f" {', '.join(fixed)}, = head.unpack_from(u.buf, u.pos)")
        unpack.append(f" u.pos += {head.size}")
    for n, kind in kinds.items():
        if n not in fixed:
            scope["pack_" + n], scope["unpack_" + n] = kind
            pack.append(f" pack_{n}(p, x.{n})")
            unpack.append(f" {n} = unpack_{n}(u)")
    # a field the constructor does not take (a lazy cache) starts at its default
    values = {f.name: f.name if f.init else repr(f.default) for f in fields}
    unpack.append(" obj = new(cls)")
    if hasattr(cls, "__slots__"):
        unpack += [f" oset(obj, {n!r}, {v})" for n, v in values.items()]
    else:
        items = ", ".join(f"{n!r}: {v}" for n, v in values.items())
        unpack.append(f" obj.__dict__.update({{{items}}})")
    unpack.append(" return obj")
    exec("\n".join(pack + unpack), scope)
    return _register(cls, scope["pack"], scope["unpack"])


# ----------------------------------------------------------------------
# core protocol objects
# ----------------------------------------------------------------------
_QOS_VECTOR = _layout(QoSVector, values=_METRICS)
_layout(QoSRequirement, bounds=_METRICS)
_layout(ResourceVector, values=_METRICS)
_register(
    QualitySpec,
    lambda p, x: p.pack_value(sorted(x.formats)),
    lambda u: QualitySpec(frozenset(u.read_value())),
)
_layout(
    ServiceMetadata,
    component_id=_I64, function=_STR, peer=_I32, qp=_obj(QoSVector),
    resources=_obj(ResourceVector), input_quality=_obj(QualitySpec),
    output_quality=_obj(QualitySpec), bandwidth_factor=_F64, registered_at=_F64,
)
_layout(
    ComponentSpec,
    component_id=_I64, function=_STR, peer=_I32, qp=_obj(QoSVector),
    resources=_obj(ResourceVector), input_quality=_obj(QualitySpec),
    output_quality=_obj(QualitySpec), n_inputs=_I32, bandwidth_factor=_F64,
)


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
_layout(
    CompositeRequest,
    request_id=_I64, function_graph=_obj(FunctionGraph), qos=_obj(QoSRequirement),
    source_peer=_I32, dest_peer=_I32, bandwidth=_F64, failure_req=_F64,
    duration=_F64, priority=_F64,
)
# a service graph covers its whole pattern, which no run length bounds
_layout(
    ServiceGraph,
    pattern=_obj(FunctionGraph), assignment=_TERM, source_peer=_I32, dest_peer=_I32,
    base_bandwidth=_F64,
)


_COMPONENT = _obj(ServiceMetadata)


def _pack_assignment(p: _Packer, assignment: Dict[str, ServiceMetadata]) -> None:
    _write_count(p, assignment)
    for fn, meta in assignment.items():
        p.pack_str(fn)
        p.pack_object(meta)


def _unpack_assignment(u: _Unpacker) -> Dict[str, ServiceMetadata]:
    read_meta = _COMPONENT.unpack
    out = {}
    for _ in range(_read_count(u)):
        fn = u.read_str()
        out[fn] = read_meta(u)
    return out


_PROBE = _layout(
    Probe,
    probe_id=_I64, request=_obj(CompositeRequest), graph=_obj(FunctionGraph),
    applied_swaps=_SWAPS, assignment=_Kind(_pack_assignment, _unpack_assignment),
    branch=_STRS, current_peer=_I32, qos=_QOS_VECTOR, budget=_I32, out_bandwidth=_F64,
    elapsed=_F64, hops=_I32,
)


# ----------------------------------------------------------------------
# wire messages (session setup / ack / maintenance)
# ----------------------------------------------------------------------
def _tokens_tuple(tokens) -> Tuple[Tuple, ...]:
    return tuple(tuple(t) for t in tokens)


_TOKENS = _term(_tokens_tuple)
_TUPLE = _term(tuple)


def _message(**kinds: Any) -> Callable[[Type], Type]:
    """Class decorator: register a message dataclass under :func:`_layout`."""

    def register(cls: Type) -> Type:
        _layout(cls, **kinds)
        return cls

    return register


@_message(request_id=_I64, request=_obj(CompositeRequest), budget=_I32, confirm=_BOOL)
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

    ``reports`` is a tuple of bundles ``(holder, n, peers, links, sent)``:
    what ``holder`` did in its ``n``-th report — an admission's
    reservations, ``peers`` as ``(peer, rtype, amount)`` rows and
    ``links`` as ``(u, v, bandwidth)`` rows, or a fan-out's ``sent``
    probes.  Anything else is refused here, where a message is made; the
    wire layout (:data:`_REPORTS`) cannot represent a malformed row."""
    bundles = tuple(
        (
            holder,
            n,
            _usage_rows(peers, int, str, (int, float)),
            _usage_rows(links, int, int, (int, float)),
            sent,
        )
        for holder, n, peers, links, sent in _usage_rows(
            msg.reports, int, int, object, object, int
        )
    )
    object.__setattr__(msg, "reports", bundles)
    if not isinstance(msg.discovery, (int, float, type(None))):
        raise CodecError(f"malformed reservation report discovery rtt: {msg.discovery!r}")


_S_BUNDLE = struct.Struct(">iqBBI")  # holder, n, peer rows, link rows, probes sent
_S_PEER_ROW = struct.Struct(">id")  # peer, amount; the resource type follows
_S_LINK_ROW = struct.Struct(">iid")  # u, v, bandwidth


def _pack_reports(p: _Packer, reports) -> None:
    _write_count(p, reports)
    out = p.out
    for holder, n, peers, links, sent in reports:
        out += _S_BUNDLE.pack(holder, n, len(peers), len(links), sent)
        for peer, rtype, amount in peers:
            out += _S_PEER_ROW.pack(peer, amount)
            p.pack_str(rtype)
        for u, v, bandwidth in links:
            out += _S_LINK_ROW.pack(u, v, bandwidth)


def _unpack_reports(u: _Unpacker) -> Tuple[Tuple, ...]:
    buf = u.buf
    bundles = []
    for _ in range(_read_count(u)):
        pos = u.pos
        holder, n, n_peers, n_links, sent = _S_BUNDLE.unpack_from(buf, pos)
        pos += _S_BUNDLE.size
        peers = []
        for _ in range(n_peers):
            peer, amount = _S_PEER_ROW.unpack_from(buf, pos)
            u.pos = pos + _S_PEER_ROW.size
            peers.append((peer, u.read_str(), amount))
            pos = u.pos
        u.pos = end = pos + n_links * _S_LINK_ROW.size
        if end > len(buf):
            raise CodecError("truncated binary payload: link rows run past the end")
        links = tuple(_S_LINK_ROW.iter_unpack(buf[pos:end]))
        bundles.append((holder, n, tuple(peers), links, sent))
    return tuple(bundles)


_REPORTS = _Kind(_pack_reports, _unpack_reports)


@_message(
    request_id=_I64, parent=_PROBE, function=_STR, component=_obj(ServiceMetadata),
    graph=_obj(FunctionGraph), applied=_PAIRS, budget=_I32, lookup_rtt=_F64, credit=_I64,
    reports=_REPORTS, discovery=_OPT_F64,
)
@dataclass(frozen=True)
class ProbeTransfer:
    """Peer → peer: one child probe dispatch (Step 2.4 → Step 2.1).

    Carries the parent probe plus the chosen ``(function, component)``
    and the effective pattern so the *receiving* peer performs admission
    (QoS check + soft allocation) exactly as ``BCP._admit`` does.
    ``credit`` is this probe's integer share of the request's termination
    credit, at least ``budget`` (splits on fan-out, returns to the
    destination on arrival/prune/loss).

    Whatever the destination must know before its window may close
    travels with that credit: ``reports`` holds the bundles of the peers
    upstream — what each admission reserved, how many probes each
    fan-out sent (laid out as in :func:`_normalize_credit`) — and
    ``discovery`` the root expansion's slowest lookup RTT.  On fan-out
    both go with the first child only, so each reaches the destination
    exactly once — in the :class:`FinalProbe` or :class:`CreditReturn`
    that ends this credit share's journey.
    """

    request_id: int
    parent: Probe
    function: str
    component: ServiceMetadata
    graph: FunctionGraph
    applied: Tuple[Tuple[str, str], ...]
    budget: int
    lookup_rtt: float
    credit: int
    reports: Tuple[Tuple, ...] = ()
    discovery: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "applied", tuple(tuple(p) for p in self.applied))
        _normalize_credit(self)


@_message(
    request_id=_I64, probe=_PROBE, credit=_I64, reports=_REPORTS, discovery=_OPT_F64
)
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
    credit: int
    reports: Tuple[Tuple, ...] = ()
    discovery: Optional[float] = None

    __post_init__ = _normalize_credit


@_message(
    request_id=_I64, credit=_I64, reason=_STR, reports=_REPORTS, discovery=_OPT_F64
)
@dataclass(frozen=True)
class CreditReturn:
    """Any peer → destination: credit whose probe will not arrive, with
    the ``reports`` / ``discovery`` that were travelling with it."""

    request_id: int
    credit: int
    reason: str
    reports: Tuple[Tuple, ...] = ()
    discovery: Optional[float] = None

    __post_init__ = _normalize_credit


@_message(request_id=_I64, tokens=_TOKENS)
@dataclass(frozen=True)
class SessionConfirm:
    """Destination → path peers: setup ack confirming soft reservations."""

    request_id: int
    tokens: Tuple[Tuple, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", _tokens_tuple(self.tokens))


@_message(request_id=_I64, keep=_TOKENS, soft_only=_BOOL)
@dataclass(frozen=True)
class SessionRelease:
    """Destination → the peers holding this request's reservations (those
    named in the wave's report bundles): drop the request's soft state,
    minus ``keep``.
    ``soft_only`` spares firm tokens too — the cleanup after a frame that
    met a closed window, when an established session may own them."""

    request_id: int
    keep: Tuple[Tuple, ...]
    soft_only: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "keep", _tokens_tuple(self.keep))


@_message(
    request_id=_I64, success=_BOOL, graph=_TERM, qos=_TERM, cost=_F64, failure_reason=_TERM,
    probes_sent=_I64, candidates_examined=_I64, setup_time=_F64, phases=_TERM, session_tokens=_TOKENS,
)
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


@_message(request_id=_I64, reason=_STR, inflight=_I64)
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


@_message(request_id=_I64, seq=_I64)
@dataclass(frozen=True)
class MaintenancePing:
    """Source → session peers: periodic liveness probe for an active session."""

    request_id: int
    seq: int


@_message(specs=_TUPLE, registered_at=_F64)
@dataclass(frozen=True)
class RegisterBatch:
    """Hosting peer → directory replica: store a component's meta-data.

    A registration ships every component a registrant owes one replica
    as a single frame; ``registered_at`` is the registrant's clock, so
    every replica stamps identical meta-data.  The reply's ``stale`` map
    reports content-*changing* rows back to the registrant —
    ``{function: [version, [holder peers]]}`` — so the registrant can
    invalidate exactly the peers that may cache the old rows (see
    :class:`ReplicaInvalidate`)."""

    specs: Tuple[ComponentSpec, ...]
    registered_at: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))


@_message(function=_STR, origin_peer=_I32)
@dataclass(frozen=True)
class LookupRequest:
    """Querying peer → directory owner: a function's duplicate list.

    The reply carries the owner slice's ``ServiceMetadata`` rows; the
    querier computes the lookup RTT itself from the DHT route it took
    to find the owner.  The reply also stamps the key's content
    ``version`` and piggybacks the slice's Bloom summary (``bloom``) for
    the querier's negative cache."""

    function: str
    origin_peer: int


@_message(function=_STR, rows=_TUPLE, version=_I64)
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


@_message(function=_STR, version=_I64)
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


@_message(origin=_I32, seq=_I64, sent_at=_F64)
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


@_message(seq=_I64, echo=_F64)
@dataclass(frozen=True)
class ProbeAck:
    """Measurement plane, neighbour → prober: :class:`PathProbe` echo.

    Travels inside the RPC response envelope (booked as ``net_ack``,
    like every reply frame).  ``echo`` returns the probe's ``sent_at``
    verbatim."""

    seq: int
    echo: float


def _blob_cached(cls: Type) -> None:
    """Encode ``cls`` as a content-addressed blob (see ``pack_object``)."""
    _BIN_BLOB[_BIN_IDS[cls]] = True


# session-constant immutable objects that recur in every probe and
# discovery frame: worth the 6-byte blob header to encode and decode
# each of them once per process instead of once per frame
_blob_cached(CompositeRequest)
_blob_cached(FunctionGraph)
_blob_cached(ServiceMetadata)
