"""Wire codec for the live runtime (wire version 9).

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
are ``tag | id i64 | src i32 | inc | body``, a request's with the
sender's low-water mark (``lw``) after ``src`` as a saturating ``u16``
gap below ``id``, and a reply whose body is
exactly ``{"ok": True}`` — nearly half of all frames — has a tag of its
own and no body.  ``docs/PROTOCOL.md`` §8 has the tables.

Each layout compiles whole, per class: one generated encoder and one
generated decoder, straight-line Python with the layouts it holds
inline (a ``ProbeTransfer``'s probe, that probe's QoS vector, the
assignment and the report rows) and with the common cases written out —
a static or back-referenced string, a blob its memo holds, an object
back-reference — so a probe frame is one call each way after its
envelope, which is read and written directly (:func:`_pack_envelope`,
:func:`_read_envelope`).  The generated code writes the same bytes the
layout tables say; the term codec is called only for a field whose type
the value alone knows.

*Tagged terms.*  What is genuinely dynamic (reply dicts, ``phases``,
reservation tokens, lookup replies) stays a tag-prefixed term: one tag
byte per value, integers up to ``i64``, length-prefixed strings and
containers, per-frame
*back-reference tables* for strings and typed objects, made the first
time a frame needs one.  Session constants (the request, its function
graph, directory rows) travel as content-addressed blobs that both ends
memoize across frames.

There is one wire format.  The header's version byte is a refusal
check: a frame that does not say :data:`WIRE_VERSION` is a
:class:`CodecError`, so a stale peer is turned away loudly instead of
being half-understood.

Trust model.  Decoding rebuilds the exact dataclasses the protocol code
operates on — ``decode(encode(x)) == x`` for every registered type —
without running their constructors: a typed field has its type by
construction, and what the bytes could still get wrong is checked where
it is read (run counts and lengths against the end of the payload, the
class of an object field, a presence byte, a back-reference against its
table).
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
import weakref
from dataclasses import dataclass, field
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
    "MaintenancePing",
    "RegisterBatch",
    "LookupRequest",
    "ReplicaInvalidate",
    "PathProbe",
    "ProbeAck",
]

MAGIC = b"SN"
WIRE_VERSION = 9  # the header's version byte; any other value is refused
MAX_FRAME = 4 * 1024 * 1024  # one protocol message, not a data plane
_HEADER = struct.Struct(">2sBI")
_HEADER_SIZE = _HEADER.size


class CodecError(ValueError):
    """Raised for malformed, truncated, oversized or unknown-version frames."""


# ----------------------------------------------------------------------
# typed-object registry
# ----------------------------------------------------------------------
# numeric type id <-> the class's layout; ids are assigned in registration
# order, which is therefore wire format
_BIN_IDS: Dict[Type, int] = {}
_BIN_PACKERS: List[Callable] = []  # (packer, value) -> None
_BIN_UNPACKERS: List[Callable] = []  # (unpacker) -> value
_BIN_BLOB: List[bool] = []  # per type id: encode as content-addressed blob?
# a class written with a tag and inline: its tag and type id, and its packer
_TAGGED: Dict[Type, Tuple[bytes, Callable]] = {}


def _register(cls: Type, pack: Callable, unpack: Callable, blob: bool = False) -> int:
    """Give ``cls`` the next type id; ``blob`` encodes it as a
    content-addressed blob wherever it is written with a tag."""
    if cls in _BIN_IDS:
        raise ValueError(f"duplicate codec type {cls.__name__}")
    if len(_BIN_PACKERS) > 0xFF:
        raise ValueError("binary type-id space exhausted")
    _BIN_IDS[cls] = len(_BIN_PACKERS)
    _BIN_PACKERS.append(pack)
    _BIN_UNPACKERS.append(unpack)
    _BIN_BLOB.append(blob)
    if not blob:
        _TAGGED[cls] = (bytes((_T_OBJ, _BIN_IDS[cls])), pack)
    return _BIN_IDS[cls]


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
# tag | id i64 | src i32 | inc (string or _T_NONE) | body (a term), and a
# request's low-water mark after src: id - lw as a u16, saturating
_T_REQ_ENV = 0x11  # {"kind":"req","id","src","inc","lw","body"}
_T_RES_ENV = 0x12  # {"kind":"res","id","src","body"} (+ "inc" when a string)
# content-addressed sub-message: tag | type_id(1B) | length(>I) | payload,
# where the payload is the object encoded against *fresh* (static-only)
# back-reference tables.  Making the bytes context-free lets both ends
# memoize across frames — see the cache note above ``_blob``.
_T_BLOB = 0x13
_T_ACK_ENV = 0x14  # a _T_RES_ENV whose body is exactly {"ok": True}: no body

_S_INT8 = struct.Struct(">Bb")
_S_INT32 = struct.Struct(">Bi")
_S_INT64 = struct.Struct(">Bq")
_S_FLOAT = struct.Struct(">Bd")
_S_REF = struct.Struct(">BH")
_S_LEN8 = struct.Struct(">BB")
_S_LEN32 = struct.Struct(">BI")
_S_BLOB = struct.Struct(">BBI")
_S_b = struct.Struct(">b")
_S_i = struct.Struct(">i")
_S_q = struct.Struct(">q")
_S_d = struct.Struct(">d")
_S_I = struct.Struct(">I")
_S_ENV = struct.Struct(">Bqi")  # envelope tag, id, src
_S_REQ = struct.Struct(">BqiH")  # ... and a request's low-water gap
_LW_GAP_MAX = 0xFFFF  # a wider gap is sent as this: a lower mark is always safe

_TABLE_LIMIT = 0xFFFF  # >H back-reference index space per frame

# protocol-static string table (the HPACK idea): strings every session
# sends constantly are pre-seeded at fixed indices on both ends, so even
# their *first* occurrence in a frame is a 3-byte reference.  Order is
# part of the wire format: a change to it is a new wire version.
_STATIC_STRINGS = (
    "ok", "error", "confirmed", "components", "stale",
    "alive", "request", "seq", "comp", "link", "delay", "loss",
    "cpu", "memory", "discovery", "composition", "setup_ack",
)
_STATIC_MAP = {s: i for i, s in enumerate(_STATIC_STRINGS)}
_N_STATIC = len(_STATIC_STRINGS)
# a static string's whole encoding, ready to append
_STATIC_REFS = {s: _S_REF.pack(_T_STRREF, i) for s, i in _STATIC_MAP.items()}
# the back-references a frame's first strings get, ready to append
_STR_REFS = [_S_REF.pack(_T_STRREF, i) for i in range(256)]
_FIRST_REF = _STR_REFS[_N_STATIC]  # the first string a frame adds

# A frame's own tables are made the first time its encoder or decoder
# needs one (``None`` until then): an ack has none.  Both string tables
# start as the static one — the encoder's maps a string to its
# back-reference, the decoder's lists the strings by index; the object
# tables map ``id()`` to an index, and list objects in decode order.
# Every object the encoder indexes is reachable from the value being
# encoded, so no ``id()`` is reused while its frame is written.


def _literal(out: bytearray, strs: Dict[str, bytes], s: str) -> None:
    """Write ``s`` as a literal and give it the frame's next string index."""
    raw = _LITERALS.get(s)
    out += _new_literal(s) if raw is None else raw
    idx = len(strs)
    if idx < len(_STR_REFS):
        strs[s] = _STR_REFS[idx]
    elif idx < _TABLE_LIMIT:
        strs[s] = _S_REF.pack(_T_STRREF, idx)


# a string's literal bytes depend on nothing else, so they are memoized
# across frames like blobs (below): the same incarnations, function names
# and resource types recur in every frame of a session
_MEMO_LIMIT = 4096  # entries per cross-frame memo
_LITERALS: Dict[str, bytes] = {}


def _memoize(memo: Dict, key: Any, value: Any) -> None:
    if len(memo) >= _MEMO_LIMIT:
        memo.pop(next(iter(memo)))
    memo[key] = value


def _new_literal(s: str) -> bytes:
    raw = s.encode("utf-8")
    n = len(raw)
    raw = (_S_LEN8.pack(_T_STR8, n) if n < 256 else _S_LEN32.pack(_T_STR32, n)) + raw
    _memoize(_LITERALS, s, raw)
    return raw


def _str_at(buf: bytes, pos: int, strs: List[str]) -> Tuple[str, int]:
    """The string at ``pos``, literal or back-reference, and the position
    after it."""
    tag = buf[pos]
    if tag == _T_STRREF:
        idx = (buf[pos + 1] << 8) | buf[pos + 2]
        if idx >= len(strs):
            raise CodecError(f"dangling string back-reference {idx}")
        return strs[idx], pos + 3
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
    s = buf[start:end].decode("utf-8")
    strs.append(s)
    return s, end


# cross-frame memo for content-addressed blobs.  A compose session ships
# the same immutable objects — the request, its function graph, the
# directory's ServiceMetadata entries — inside every probe and report
# frame.  Blob-typed objects are encoded against fresh tables, so their
# bytes depend on nothing outside the object: the sender caches the
# encoding (tag and length included) per live object, and the receiver
# caches the decode per unique byte string, returning one shared
# immutable instance while it lives.  Both memos hold their objects
# weakly (see _hold): an entry goes when its object does, so a finished
# compose's request and function graph are freed with their last
# reference, and an ``id()`` key always names the live object it was made
# for.  Blobs carry no cross-frame protocol state, so frame loss or
# reordering cannot desynchronize them.
_ENC_BLOBS: Dict[int, Tuple[Any, bytes]] = {}  # id(obj) -> (held obj, tagged blob)
_DEC_BLOBS: Dict[bytes, Any] = {}  # type id, length and payload -> held obj
_WEAK = weakref.ref


def _hold(obj: Any, memo: Dict, key: Any) -> Any:
    """What ``memo[key]`` keeps of ``obj``: a weak reference that deletes
    the entry when ``obj`` dies, or ``obj`` itself, held strongly as
    before, when its class takes no weak reference (the slots class
    ServiceMetadata: a directory row, which outlives the composes)."""

    def forget(ref: weakref.ref) -> None:
        entry = memo.get(key)
        if entry is ref or (type(entry) is tuple and entry[0] is ref):
            del memo[key]

    try:
        return _WEAK(obj, forget)
    except TypeError:
        return obj


def _blob(v: Any, tid: int) -> bytes:
    """``v``'s tagged blob, encoded now and memoized: the miss path."""
    sub = _Packer()
    _BIN_PACKERS[tid](sub, v)
    blob = _S_BLOB.pack(_T_BLOB, tid, len(sub.out)) + sub.out
    key = id(v)
    _memoize(_ENC_BLOBS, key, (_hold(v, _ENC_BLOBS, key), blob))
    return blob


def _unblob(key: bytes) -> Any:
    """The object of blob ``key`` (the blob past its tag), from its memo or
    decoded now and memoized."""
    tid = key[0]
    if tid >= len(_BIN_UNPACKERS):
        raise CodecError(f"unknown binary type id {tid}")
    obj = _DEC_BLOBS.get(key)
    if type(obj) is _WEAK:
        obj = obj()
    if obj is None:
        blob = key[5:]
        if len(blob) != _S_I.unpack_from(key, 1)[0]:
            raise CodecError("truncated binary payload: blob runs past the end")
        sub = _Unpacker(blob)
        obj = _BIN_UNPACKERS[tid](sub)
        if sub.pos != len(blob):
            raise CodecError("trailing bytes inside binary payload")
        _memoize(_DEC_BLOBS, key, _hold(obj, _DEC_BLOBS, key))
    return obj


class _Packer:
    """Binary encoder state: the output and the per-frame tables.  The
    generated layouts write into it directly; these methods write the
    terms whose type only the value knows."""

    __slots__ = ("out", "strs", "objs")

    def __init__(self) -> None:
        self.out = bytearray()
        self.strs: Optional[Dict[str, bytes]] = None  # string -> back-reference
        self.objs: Optional[Dict[int, int]] = None  # id(obj) -> table index

    def pack_str(self, s: str) -> None:
        strs = self.strs
        ref = _STATIC_REFS.get(s) if strs is None else strs.get(s)
        if ref is None:
            if strs is None:
                strs = self.strs = dict(_STATIC_REFS)
            _literal(self.out, strs, s)
        else:
            self.out += ref

    def pack_int(self, v: int) -> None:
        if -128 <= v <= 127:
            self.out += _S_INT8.pack(_T_INT8, v)
        elif -(1 << 31) <= v < (1 << 31):
            self.out += _S_INT32.pack(_T_INT32, v)
        elif -(1 << 63) <= v < (1 << 63):
            self.out += _S_INT64.pack(_T_INT64, v)
        else:
            raise CodecError(f"integer {v} does not fit i64")

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
            self.out += _S_FLOAT.pack(_T_FLOAT, v)
        elif t is bool:
            self.out.append(_T_TRUE if v else _T_FALSE)
        elif v is None:
            self.out.append(_T_NONE)
        elif t is list or t is tuple:
            self.pack_count(_T_LIST8, _T_LIST32, len(v))
            for item in v:
                self.pack_value(item)
        elif t is dict:
            if not _pack_envelope(self, v):
                self.pack_count(_T_DICT8, _T_DICT32, len(v))
                for k, item in v.items():
                    if type(k) is not str:
                        raise CodecError(f"non-string mapping key on the wire: {k!r}")
                    self.pack_str(k)
                    self.pack_value(item)
        else:
            self.pack_object(v)

    def pack_object(self, v: Any) -> None:
        objs = self.objs
        if objs is None:
            objs = self.objs = {}
        idx = objs.get(id(v))
        if idx is not None:
            self.out += _S_REF.pack(_T_OBJREF, idx)
            return
        tid = _BIN_IDS.get(type(v))
        if tid is None:
            raise CodecError(f"type {type(v).__name__} is not wire-encodable")
        if _BIN_BLOB[tid]:
            entry = _ENC_BLOBS.get(id(v))
            self.out += _blob(v, tid) if entry is None else entry[1]
        else:
            head, pack = _TAGGED[type(v)]
            self.out += head
            pack(self, v)
        # post-order registration: children are in the table before their
        # parents, matching the decoder's construction order exactly (a
        # blob registers only itself — its children live in its own tables)
        if len(objs) < _TABLE_LIMIT:
            objs[id(v)] = len(objs)


def _pack_envelope(p: _Packer, v: dict, top: bool = False) -> bool:
    """Emit an RPC envelope dict in its typed layout, if it is one.  At
    the ``top`` of a frame, its body is the frame's last value, so no
    back-reference can point at it and it takes no table entry."""
    try:
        kind, msg_id, src, body = v["kind"], v["id"], v["src"], v["body"]
    except KeyError:
        return False
    if type(msg_id) is not int or type(src) is not int:
        return False
    inc = v.get("inc", v)  # ``v`` when there is none
    if kind == "req":
        lw = v.get("lw")
        if len(v) != 6 or type(lw) is not int or not (inc is None or type(inc) is str):
            return False
        tag = _T_REQ_ENV
    elif kind == "res" and (len(v) == 5 if type(inc) is str else inc is v and len(v) == 4):
        bare = type(body) is dict and len(body) == 1 and body.get("ok") is True
        tag = _T_ACK_ENV if bare else _T_RES_ENV
    else:
        return False
    if inc is v:
        inc = None
    out = p.out
    if tag == _T_REQ_ENV:
        gap = msg_id - lw  # a mark above the id does not fit: refused
        out += _S_REQ.pack(tag, msg_id, src, gap if gap < _LW_GAP_MAX else _LW_GAP_MAX)
    else:
        out += _S_ENV.pack(tag, msg_id, src)
    if inc is None:
        out.append(_T_NONE)
    elif top and inc not in _STATIC_REFS:
        # the frame's first string: a literal, which only a body refers back to
        out += _LITERALS.get(inc) or _new_literal(inc)
        if tag != _T_ACK_ENV:
            p.strs = strs = dict(_STATIC_REFS)
            strs[inc] = _FIRST_REF
    else:
        p.pack_str(inc)
    if tag != _T_ACK_ENV:
        tagged = _TAGGED.get(type(body)) if top else None
        if tagged is None:
            p.pack_value(body)
        else:
            out += tagged[0]
            tagged[1](p, body)
    return True


class _Unpacker:
    """Mirror of :class:`_Packer`; raises :class:`CodecError` on any damage.

    Fixed-width scalars are read with ``unpack_from`` against a running
    offset — no intermediate slices — because this loop runs once per
    value of every frame a peer receives.
    """

    __slots__ = ("buf", "pos", "strs", "objs")

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0
        self.strs: Optional[List[str]] = None  # the static strings, then the frame's
        self.objs: Optional[List[Any]] = None

    def read_str(self) -> str:
        """A string where the layout says one is: literal or back-reference."""
        strs = self.strs
        if strs is None:
            strs = self.strs = list(_STATIC_STRINGS)
        s, self.pos = _str_at(self.buf, self.pos, strs)
        return s

    def keep(self, obj: Any) -> Any:
        """Register ``obj`` in the frame's object table; returns it."""
        objs = self.objs
        if objs is None:
            self.objs = [obj]
        else:
            objs.append(obj)
        return obj

    def read_value(self) -> Any:
        buf = self.buf
        pos = self.pos
        try:
            tag = buf[pos]
            pos += 1
            # ordered roughly by observed frequency on the live path
            if tag == _T_BLOB:
                end = pos + 5 + _S_I.unpack_from(buf, pos + 1)[0]
                if end > len(buf):
                    raise CodecError("truncated binary payload: blob runs past the end")
                self.pos = end
                return self.keep(_unblob(buf[pos:end]))
            if tag == _T_OBJREF:
                idx = (buf[pos] << 8) | buf[pos + 1]
                self.pos = pos + 2
                objs = self.objs
                if objs is None or idx >= len(objs):
                    raise CodecError(f"dangling object back-reference {idx}")
                return objs[idx]
            if tag == _T_OBJ:
                tid = buf[pos]
                self.pos = pos + 1
                if tid >= len(_BIN_UNPACKERS):
                    raise CodecError(f"unknown binary type id {tid}")
                return self.keep(_BIN_UNPACKERS[tid](self))
            if tag == _T_ACK_ENV or tag == _T_REQ_ENV or tag == _T_RES_ENV:
                self.pos = pos - 1
                return _read_envelope(self, tag)
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
            # a read past the payload's end, or (in a generated layout) a
            # back-reference past the end of its table
            raise CodecError(f"truncated binary payload or dangling reference: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CodecError(f"undecodable binary payload: {exc}") from exc
        raise CodecError(f"unknown binary value tag 0x{tag:02x}")


def _read_envelope(u: _Unpacker, tag: int, top: bool = False) -> dict:
    """An RPC envelope, its tag at ``u.pos``.  At the ``top`` of a frame
    its incarnation is the frame's first string and its body the frame's
    last value, which nothing refers back to (see :func:`_pack_envelope`):
    the incarnation takes a table only when a body follows it, and a
    typed body goes straight to its class's decoder."""
    buf = u.buf
    if tag == _T_REQ_ENV:
        _, msg_id, src, gap = _S_REQ.unpack_from(buf, u.pos)
        pos = u.pos + _S_REQ.size
    else:
        _, msg_id, src = _S_ENV.unpack_from(buf, u.pos)
        pos = u.pos + _S_ENV.size
    if buf[pos] == _T_NONE:
        inc = None
        u.pos = pos + 1
    elif top and buf[pos] == _T_STR8:
        stop = pos + 2 + buf[pos + 1]
        if stop > len(buf):
            raise CodecError("truncated binary payload: string runs past the end")
        inc = buf[pos + 2 : stop].decode("utf-8")
        u.pos = stop
        if tag != _T_ACK_ENV:
            u.strs = [*_STATIC_STRINGS, inc]
    else:
        u.pos = pos
        inc = u.read_str()
    if tag == _T_ACK_ENV:
        body = {"ok": True}
    elif top and buf[u.pos] == _T_OBJ and buf[u.pos + 1] < len(_BIN_UNPACKERS):
        u.pos += 2
        body = _BIN_UNPACKERS[buf[u.pos - 1]](u)
    else:
        body = u.read_value()
    if tag == _T_REQ_ENV:
        return {
            "kind": "req", "id": msg_id, "src": src, "inc": inc, "lw": msg_id - gap, "body": body
        }
    env = {"kind": "res", "id": msg_id, "src": src, "body": body}
    if inc is not None:
        env["inc"] = inc
    return env


# ----------------------------------------------------------------------
# frame layer
# ----------------------------------------------------------------------
_new = object.__new__  # an instance, with no __init__ run


def encode_frame(obj: Any, version: int = WIRE_VERSION) -> bytes:
    """Serialize one message (envelope dict or typed object) to a frame."""
    if version != WIRE_VERSION:
        raise CodecError(f"cannot encode wire version {version}")
    # a packer made without a call to __init__: this runs once per frame
    packer = _new(_Packer)
    packer.out = bytearray(_HEADER_SIZE)  # the header is filled in last
    packer.strs = packer.objs = None
    try:
        if type(obj) is not dict or not _pack_envelope(packer, obj, top=True):
            packer.pack_value(obj)
    except CodecError:
        raise
    except Exception as exc:
        # a typed layout handed a value of another type, range or shape
        raise CodecError(f"value does not fit its wire layout: {exc!r}") from exc
    out = packer.out
    length = len(out) - _HEADER_SIZE
    if length > MAX_FRAME:
        raise CodecError(f"frame payload of {length} bytes exceeds {MAX_FRAME}")
    _HEADER.pack_into(out, 0, MAGIC, version, length)
    return bytes(out)


def _decode_payload(payload: bytes) -> Any:
    if type(payload) is not bytes:
        payload = bytes(payload)  # blob keys are slices of it
    unpacker = _new(_Unpacker)  # as in encode_frame
    unpacker.buf = payload
    unpacker.pos = 0
    unpacker.strs = unpacker.objs = None
    try:
        tag = payload[0]
        if tag == _T_REQ_ENV or tag == _T_ACK_ENV or tag == _T_RES_ENV:
            value = _read_envelope(unpacker, tag, top=True)
        else:
            value = unpacker.read_value()
    except CodecError:
        raise
    except (IndexError, struct.error) as exc:
        raise CodecError(f"truncated binary payload or dangling reference: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CodecError(f"undecodable binary payload: {exc}") from exc
    except Exception as exc:
        # a typed layout or a message constructor meeting a value of the
        # wrong shape
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
    if magic != MAGIC or version != WIRE_VERSION or length > MAX_FRAME:
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
# typed layouts: field kinds and the layout compiler
# ----------------------------------------------------------------------
# Each registered layout compiles to one encoder and one decoder, written
# as straight-line Python and ``exec``-ed once at import.  A kind is the
# code generator of one field: it writes the lines that encode a value
# (``enc``) and the lines that decode one into a local (``dec``).  An
# inline layout writes its fields' lines in place, so a message's encoder
# holds its probe's, and that probe's QoS vector's, with no call between
# them.  The generated code's fixed names are ``p`` / ``out`` (the packer
# and its output) or ``u`` / ``buf`` / ``pos`` / ``end`` (the unpacker,
# its payload, the offset, the payload's length), and ``strs`` / ``objs``
# (the frame's tables, made by the first function that needs them and
# shared in place with the term codec); every other name is a fresh
# local or a constant.


class _Gen:
    """The body of one generated function being written.

    Fixed-width values written (or read) back to back are collected and
    flushed as one ``struct`` call when any other line comes next, so the
    scalars of a message and of the layout inlined after them cost one
    call."""

    def __init__(self, scope: Dict[str, Any], encode: bool) -> None:
        self.scope = scope
        self.encode = encode
        self.lines: List[str] = []
        self.uses: set = set()  # of "strs", "objs", "end": the state it touches
        self._n = 0
        self._fmt = ""  # the pending fixed-width run: struct characters,
        self._vals: List[str] = []  # and the expressions (or locals) they pack
        self._at = 0  # and their indentation

    def tmp(self, hint: str = "v") -> str:
        self._n += 1
        return f"{hint}{self._n}"

    def const(self, value: Any) -> str:
        name = f"C{len(self.scope)}"
        self.scope[name] = value
        return name

    def bind(self, at: int, expr: str) -> str:
        """``expr`` as a local, to be read more than once.  The binding
        writes nothing, so a pending fixed-width run goes on past it."""
        if expr.isidentifier():
            return expr
        name = self.tmp()
        if at != self._at:
            self.flush()
        self.lines.append(" " * at + f"{name} = {expr}")
        return name

    def fixed(self, at: int, fmt: str, *vals: str) -> None:
        if self._fmt and at != self._at:
            self.flush()
        self._fmt += fmt
        self._vals += vals
        self._at = at

    def flush(self) -> None:
        fmt, vals, pad = self._fmt, self._vals, " " * self._at
        if not fmt:
            return
        self._fmt, self._vals = "", []
        if not self.encode and fmt == "B":  # a lone count byte
            self.lines += [f"{pad}{vals[0]} = buf[pos]", f"{pad}pos += 1"]
            return
        s = self.const(struct.Struct(">" + fmt))
        if self.encode:
            self.lines.append(f"{pad}out += {s}.pack({', '.join(vals)})")
        else:
            self.lines.append(f"{pad}{', '.join(vals)}, = {s}.unpack_from(buf, pos)")
            self.lines.append(f"{pad}pos += {struct.calcsize('>' + fmt)}")

    def line(self, at: int, text: str) -> None:
        self.flush()
        self.lines.append(" " * at + text)

    def read_term(self, at: int, t: str) -> None:
        """Decode a tagged term into ``t``: the term codec reads on from ``pos``."""
        self.line(at, f"u.pos = pos; {t} = u.read_value(); pos = u.pos")


class _Kind:
    """The code of one kind of value where its type is known."""

    def enc(self, g: _Gen, at: int, x: str) -> None:  # pragma: no cover
        raise NotImplementedError

    def dec(self, g: _Gen, at: int, t: str) -> None:  # pragma: no cover
        raise NotImplementedError


class _Fixed(_Kind):
    """A fixed-width scalar: its ``struct`` format character."""

    def __init__(self, fmt: str) -> None:
        self.fmt = fmt

    def enc(self, g, at, x):
        g.fixed(at, self.fmt, x)

    def dec(self, g, at, t):
        g.fixed(at, self.fmt, t)


class _Str(_Kind):
    """A string: a static or frame back-reference when it has one,
    else a literal that the frame's table then holds."""

    def enc(self, g, at, x):
        g.uses.add("strs")
        s, ref = g.bind(at, x), g.tmp("r")
        g.line(at, f"{ref} = strs.get({s})")
        g.line(at, f"if {ref} is None:")  # what _literal does, inline
        g.line(at + 1, f"out += literals.get({s}) or new_literal({s})")
        g.line(at + 1, f"{ref} = len(strs)")
        g.line(at + 1, f"if {ref} < {len(_STR_REFS)}:")
        g.line(at + 2, f"strs[{s}] = str_refs[{ref}]")
        g.line(at + 1, f"elif {ref} < {_TABLE_LIMIT}:")
        g.line(at + 2, f"strs[{s}] = ref({_T_STRREF}, {ref})")
        g.line(at, "else:")
        g.line(at + 1, f"out += {ref}")

    def dec(self, g, at, t):
        g.uses.update(("strs", "end"))
        tag, stop = g.tmp("c"), g.tmp("e")
        g.line(at, f"{tag} = buf[pos]")
        g.line(at, f"if {tag} == {_T_STRREF}:")
        g.line(at + 1, f"{t} = strs[(buf[pos + 1] << 8) | buf[pos + 2]]")
        g.line(at + 1, "pos += 3")
        g.line(at, f"elif {tag} == {_T_STR8}:")
        g.line(at + 1, f"{stop} = pos + 2 + buf[pos + 1]")
        g.line(at + 1, f"if {stop} > end:")
        g.line(at + 2, "raise CodecError('truncated binary payload: string runs past the end')")
        g.line(at + 1, f"{t} = buf[pos + 2:{stop}].decode()")
        g.line(at + 1, f"pos = {stop}")
        g.line(at + 1, f"strs.append({t})")
        g.line(at, "else:")
        g.line(at + 1, f"{t}, pos = str_at(buf, pos, strs)")


class _Obj(_Kind):
    """A registered object — blob, tagged layout or back-reference — that
    must turn out to be a ``cls``.  A back-reference, and a blob the
    memo already holds (a ``cls``'s, on decode), are inline; anything else
    is a tagged term."""

    def __init__(self, cls: Type) -> None:
        self.cls = cls

    def enc(self, g, at, x):
        g.uses.add("objs")
        v, key, idx = g.bind(at, x), g.tmp("k"), g.tmp("i")
        g.line(at, f"{key} = id({v})")
        g.line(at, f"{idx} = objs.get({key})")
        g.line(at, f"if {idx} is not None:")
        g.line(at + 1, f"out += ref({_T_OBJREF}, {idx})")
        # a memoized object's blob is ready (whatever its class: the
        # decoder is the one that checks)
        hit = g.tmp("b")
        g.line(at, f"elif ({hit} := enc_blobs.get({key})) is not None:")
        g.line(at + 1, f"out += {hit}[1]")
        g.line(at + 1, f"if len(objs) < {_TABLE_LIMIT}:")
        g.line(at + 2, f"objs[{key}] = len(objs)")
        g.line(at, "else:")
        g.line(at + 1, f"p.pack_object({v})")

    def dec(self, g, at, t):
        g.uses.update(("objs", "end"))
        tag, stop, key = (g.tmp(h) for h in "cek")
        g.line(at, f"{tag} = buf[pos]")
        # a blob whose type id is the class's decodes to a ``cls``
        g.line(at, f"if {tag} == {_T_BLOB} and buf[pos + 1] == {_BIN_IDS[self.cls]}:")
        # a cut-off blob is shorter than its length says, which no memo
        # key is: it misses, and the miss path refuses it
        g.line(at + 1, f"{stop} = pos + 6 + length(buf, pos + 2)[0]")
        g.line(at + 1, f"{key} = buf[pos + 1:{stop}]")
        g.line(at + 1, f"{t} = dec_blobs.get({key})")
        g.line(at + 1, f"if type({t}) is weak:")
        g.line(at + 2, f"{t} = {t}()")
        g.line(at + 1, f"if {t} is None:")
        g.line(at + 2, f"{t} = unblob({key})")
        g.line(at + 1, f"pos = {stop}")
        g.line(at + 1, f"objs.append({t})")
        g.line(at, "else:")
        g.line(at + 1, f"if {tag} == {_T_OBJREF}:")
        g.line(at + 2, f"{t} = objs[(buf[pos + 1] << 8) | buf[pos + 2]]")
        g.line(at + 2, "pos += 3")
        g.line(at + 1, "else:")
        g.read_term(at + 2, t)
        g.line(at + 1, f"if type({t}) is not {g.const(self.cls)}:")
        g.line(at + 2, f"raise CodecError(f'{{type({t}).__name__}} where the layout reads a {self.cls.__name__}')")


class _Term(_Kind):
    """A tagged term, which ``load`` (if any) normalizes on decode."""

    def __init__(self, load: Optional[Callable] = None) -> None:
        self.load = load

    def enc(self, g, at, x):
        g.line(at, f"p.pack_value({x})")

    def dec(self, g, at, t):
        g.read_term(at, t)
        if self.load is not None:
            g.line(at, f"{t} = {g.const(self.load)}({t})")


# A run is a count byte and that many entries, so it holds at most 255:
# ``bytearray.append`` refuses a longer one's count, and the encoder
# reports that as a value that does not fit its layout.


class _Run(_Kind):
    """A run whose entries are each the ``kinds`` of their parts in order
    (one kind: the entry itself).  ``sort`` orders the entries (and each
    entry's parts) on the wire; ``load`` builds the field from the list
    of decoded entries."""

    def __init__(self, *kinds: _Kind, load: Callable = tuple, sort: bool = False) -> None:
        self.kinds = kinds
        self.load = load
        self.sort = sort

    def enc(self, g, at, x):
        run = g.tmp("run")
        g.line(at, f"{run} = {x}")
        if self.sort:
            g.line(at, f"if {run}:")
            g.line(at + 1, f"{run} = sorted(sorted(entry) for entry in {run})")
        g.line(at, f"out.append(len({run}))")
        parts = [g.tmp("a") for _ in self.kinds]
        g.line(at, f"for {', '.join(parts)} in {run}:")
        for kind, part in zip(self.kinds, parts):
            kind.enc(g, at + 1, part)

    def dec(self, g, at, t):
        n, items = g.tmp("n"), g.tmp("run")
        parts = [g.tmp("a") for _ in self.kinds]
        g.fixed(at, "B", n)
        g.line(at, f"if {n}:")
        g.line(at + 1, f"{items} = []")
        g.line(at + 1, f"for _ in range({n}):")
        for kind, part in zip(self.kinds, parts):
            kind.dec(g, at + 2, part)
        entry = parts[0] if len(parts) == 1 else f"({', '.join(parts)})"
        g.line(at + 2, f"{items}.append({entry})")
        g.line(at + 1, f"{t} = {g.const(self.load)}({items})")
        g.line(at, "else:")
        g.line(at + 1, f"{t} = {g.const(self.load([]))}")


class _Mapping(_Kind):
    """A run of ``(string key, value)`` entries."""

    def __init__(self, value: _Kind) -> None:
        self.value = value

    def enc(self, g, at, x):
        run, key, val = g.tmp("run"), g.tmp("a"), g.tmp("a")
        g.line(at, f"{run} = {x}")
        g.line(at, f"out.append(len({run}))")
        g.line(at, f"for {key}, {val} in {run}.items():")
        _STR.enc(g, at + 1, key)
        self.value.enc(g, at + 1, val)

    def dec(self, g, at, t):
        n, key, val = g.tmp("n"), g.tmp("a"), g.tmp("a")
        g.fixed(at, "B", n)
        g.line(at, f"{t} = {{}}")
        g.line(at, f"for _ in range({n}):")
        _STR.dec(g, at + 1, key)
        self.value.dec(g, at + 1, val)
        g.line(at + 1, f"{t}[{key}] = {val}")


class _OptF64(_Kind):
    """An optional ``f64``: a presence byte, then the value if present."""

    def enc(self, g, at, x):
        v = g.bind(at, x)
        g.line(at, f"if {v} is None:")
        g.line(at + 1, "out.append(0)")
        g.line(at, "else:")
        g.line(at + 1, f"out += present(1, {v})")

    def dec(self, g, at, t):
        flag = g.tmp("c")
        g.line(at, f"{flag} = buf[pos]")
        g.line(at, f"if {flag} == 0:")
        g.line(at + 1, f"{t} = None")
        g.line(at + 1, "pos += 1")
        g.line(at, f"elif {flag} == 1:")
        g.line(at + 1, f"{t}, = f64(buf, pos + 1)")
        g.line(at + 1, "pos += 9")
        g.line(at, "else:")
        g.line(at + 1, f"raise CodecError(f'presence byte {{{flag}}} is neither 0 nor 1')")


_S_PRESENT = struct.Struct(">Bd")
_S_BUNDLE = struct.Struct(">iqBBI")  # holder, n, peer rows, link rows, probes sent
_S_PEER_ROW = struct.Struct(">id")  # peer, amount; the resource type follows
_S_LINK_ROW = struct.Struct(">iid")  # u, v, bandwidth


class _Reports(_Kind):
    """Report bundles (see :func:`_normalize_credit`): a run of bundles,
    each its ``struct`` head, its peer rows (each a ``struct`` and the
    resource type string) and its link rows (a ``struct`` each)."""

    def enc(self, g, at, x):
        run = g.tmp("run")
        holder, n, peers, links, sent = (g.tmp("a") for _ in range(5))
        peer, rtype, amount, u, v, bw = (g.tmp("a") for _ in range(6))
        g.line(at, f"{run} = {x}")
        g.line(at, f"out.append(len({run}))")
        g.line(at, f"for {holder}, {n}, {peers}, {links}, {sent} in {run}:")
        g.line(at + 1, f"out += bundle({holder}, {n}, len({peers}), len({links}), {sent})")
        g.line(at + 1, f"for {peer}, {rtype}, {amount} in {peers}:")
        g.line(at + 2, f"out += peer_row({peer}, {amount})")
        _STR.enc(g, at + 2, rtype)
        g.line(at + 1, f"for {u}, {v}, {bw} in {links}:")
        g.line(at + 2, f"out += link_row({u}, {v}, {bw})")

    def dec(self, g, at, t):
        g.uses.add("end")
        count, bundles, peers, stop = g.tmp("n"), g.tmp("run"), g.tmp("run"), g.tmp("e")
        holder, n, n_peers, n_links, sent = (g.tmp("a") for _ in range(5))
        peer, rtype, amount = (g.tmp("a") for _ in range(3))
        g.fixed(at, "B", count)
        g.line(at, f"{bundles} = []")
        g.line(at, f"for _ in range({count}):")
        g.fixed(at + 1, _S_BUNDLE.format[1:], holder, n, n_peers, n_links, sent)
        g.line(at + 1, f"{peers} = []")
        g.line(at + 1, f"for _ in range({n_peers}):")
        g.fixed(at + 2, _S_PEER_ROW.format[1:], peer, amount)
        _STR.dec(g, at + 2, rtype)
        g.line(at + 2, f"{peers}.append(({peer}, {rtype}, {amount}))")
        g.line(at + 1, f"{stop} = pos + {n_links} * {_S_LINK_ROW.size}")
        g.line(at + 1, f"if {stop} > end:")
        g.line(at + 2, "raise CodecError('truncated binary payload: link rows run past the end')")
        links = f"tuple(link_rows(buf[pos:{stop}])) if {n_links} else ()"
        g.line(at + 1, f"{bundles}.append(({holder}, {n}, tuple({peers}), {links}, {sent}))")
        g.line(at + 1, f"pos = {stop}")
        g.line(at, f"{t} = tuple({bundles})")


# the names every generated function may use
_GEN_SCOPE: Dict[str, Any] = {
    "__name__": __name__,  # generated code belongs to this module
    "CodecError": CodecError,
    "new": _new,
    "static_refs": _STATIC_REFS,
    "str_refs": _STR_REFS,
    "literals": _LITERALS,
    "new_literal": _new_literal,
    "str_at": _str_at,
    "ref": _S_REF.pack,
    "length": _S_I.unpack_from,
    "f64": _S_d.unpack_from,
    "present": _S_PRESENT.pack,
    "enc_blobs": _ENC_BLOBS,
    "dec_blobs": _DEC_BLOBS,
    "weak": _WEAK,
    "unblob": _unblob,
    "bundle": _S_BUNDLE.pack,
    "peer_row": _S_PEER_ROW.pack,
    "link_row": _S_LINK_ROW.pack,
    "link_rows": _S_LINK_ROW.iter_unpack,
}


def _slots_twin(cls: Type) -> Type:
    """A plain class whose instances have ``cls``'s memory layout, so one
    of them can be given ``cls`` as its class once its slots are set."""
    twin = type(f"_{cls.__name__}Slots", cls.__bases__, {"__slots__": cls.__slots__})
    _new(twin).__class__ = cls  # refused here, at import, if the layouts differ
    return twin


class _Layout(_Kind):
    """The wire layout of dataclass ``cls``, written inline: the
    fixed-width scalars first, then the other fields in declared order.
    Decode builds the object without running ``__init__`` /
    ``__post_init__``: each kind yields its field already in normal form."""

    def __init__(self, cls: Type, kinds: Dict[str, _Kind]) -> None:
        fields = dataclasses.fields(cls)
        if [f.name for f in fields if f.init] != list(kinds):
            raise TypeError(f"the layout of {cls.__name__} must name its fields in order")
        self.cls = cls
        self.fixed = [(n, k) for n, k in kinds.items() if isinstance(k, _Fixed)]
        self.rest = [(n, k) for n, k in kinds.items() if not isinstance(k, _Fixed)]
        # a field the constructor does not take (a lazy cache) starts at its default
        self.defaults = {f.name: repr(f.default) for f in fields if not f.init}
        self.names = [f.name for f in fields]

    def enc(self, g, at, x):
        v = g.bind(at, x)
        for name, kind in self.fixed + self.rest:
            kind.enc(g, at, f"{v}.{name}")

    def dec(self, g, at, t):
        values = dict(self.defaults)
        for name, kind in self.fixed + self.rest:
            values[name] = g.tmp(name[:1])
            kind.dec(g, at, values[name])
        if hasattr(self.cls, "__slots__"):
            # a frozen class's slots are written on an instance of a twin
            # class with the same slots, which then takes its real class:
            # a store per field instead of a call per field
            g.line(at, f"{t} = new({g.const(_slots_twin(self.cls))})")
            for name in self.names:
                g.line(at, f"{t}.{name} = {values[name]}")
            g.line(at, f"{t}.__class__ = {g.const(self.cls)}")
            return
        g.line(at, f"{t} = new({g.const(self.cls)})")
        if len(self.names) == 1:
            g.line(at, f"{t}.__dict__[{self.names[0]!r}] = {values[self.names[0]]}")
        else:
            items = ", ".join(f"{name!r}: {values[name]}" for name in self.names)
            g.line(at, f"{t}.__dict__.update({{{items}}})")

    def compile(self) -> Tuple[Callable, Callable]:
        """The class's encoder ``(packer, obj)`` and decoder ``(unpacker)``."""
        scope = dict(_GEN_SCOPE)
        enc, dec = _Gen(scope, encode=True), _Gen(scope, encode=False)
        self.enc(enc, 1, "x")
        enc.flush()
        self.dec(dec, 1, "obj")
        dec.flush()
        tables = {"strs": ("dict(static_refs)", "list(static_strings)"), "objs": ("{}", "[]")}
        source = ["def enc(p, x):", " out = p.out"]
        for name in (n for n in tables if n in enc.uses):
            source += [f" {name} = p.{name}", f" if {name} is None:"]
            source.append(f"  {name} = p.{name} = {tables[name][0]}")
        source += enc.lines
        source += ["def dec(u):", " buf = u.buf", " pos = u.pos"]
        source += [" end = len(buf)"] * ("end" in dec.uses)
        for name in (n for n in tables if n in dec.uses):
            source += [f" {name} = u.{name}", f" if {name} is None:"]
            source.append(f"  {name} = u.{name} = {tables[name][1]}")
        source += dec.lines + [" u.pos = pos", " return obj"]
        scope["static_strings"] = _STATIC_STRINGS
        exec("\n".join(source), scope)
        return scope["enc"], scope["dec"]


def _layout(cls: Type, blob: bool = False, **kinds: _Kind) -> _Layout:
    """Compile and register the wire layout of dataclass ``cls``; the
    result is the kind that writes it inline."""
    layout = _Layout(cls, kinds)
    _register(cls, *layout.compile(), blob=blob)
    return layout


_I32, _I64, _F64, _BOOL = _Fixed("i"), _Fixed("q"), _Fixed("d"), _Fixed("?")
_STR = _Str()
_TERM = _Term()
_STRS = _Run(_STR)
_PAIRS = _Run(_STR, _STR)
# commutation pairs applied so far: unordered on both levels, sorted on the wire
_SWAPS = _Run(_STR, _STR, load=lambda pairs: frozenset(map(frozenset, pairs)), sort=True)
_METRICS = _Mapping(_Fixed("d"))
_OPT_F64 = _OptF64()
_REPORTS = _Reports()


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
    ServiceMetadata, blob=True,
    component_id=_I64, function=_STR, peer=_I32, qp=_Obj(QoSVector),
    resources=_Obj(ResourceVector), input_quality=_Obj(QualitySpec),
    output_quality=_Obj(QualitySpec), bandwidth_factor=_F64, registered_at=_F64,
)
_layout(
    ComponentSpec,
    component_id=_I64, function=_STR, peer=_I32, qp=_Obj(QoSVector),
    resources=_Obj(ResourceVector), input_quality=_Obj(QualitySpec),
    output_quality=_Obj(QualitySpec), n_inputs=_I32, bandwidth_factor=_F64,
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


_register(FunctionGraph, _pack_fgraph, _unpack_fgraph, blob=True)
_layout(
    CompositeRequest, blob=True,
    request_id=_I64, function_graph=_Obj(FunctionGraph), qos=_Obj(QoSRequirement),
    source_peer=_I32, dest_peer=_I32, bandwidth=_F64, failure_req=_F64,
    duration=_F64, priority=_F64,
)
# a service graph covers its whole pattern, which no run length bounds
_layout(
    ServiceGraph,
    pattern=_Obj(FunctionGraph), assignment=_TERM, source_peer=_I32, dest_peer=_I32,
    base_bandwidth=_F64,
)
_PROBE = _layout(
    Probe,
    probe_id=_I64, request=_Obj(CompositeRequest), graph=_Obj(FunctionGraph),
    applied_swaps=_SWAPS, assignment=_Mapping(_Obj(ServiceMetadata)),
    branch=_STRS, current_peer=_I32, qos=_QOS_VECTOR, budget=_I32, out_bandwidth=_F64,
    elapsed=_F64, hops=_I32,
)


# ----------------------------------------------------------------------
# wire messages (session setup / ack / maintenance)
# ----------------------------------------------------------------------
def _tokens_tuple(tokens) -> Tuple[Tuple, ...]:
    return tuple(map(tuple, tokens))


_TOKENS = _Term(_tokens_tuple)
_TUPLE = _Term(tuple)


def _message(**kinds: _Kind) -> Callable[[Type], Type]:
    """Class decorator: register a message dataclass under :func:`_layout`."""

    def register(cls: Type) -> Type:
        _layout(cls, **kinds)
        return cls

    return register


@_message(request_id=_I64, request=_Obj(CompositeRequest), budget=_I32, confirm=_BOOL)
@dataclass(frozen=True)
class ComposeBegin:
    """Source → destination: open a probe collection window for a request."""

    request_id: int
    request: CompositeRequest
    budget: int
    confirm: bool


def _usage_rows(rows, *kinds) -> Tuple[Tuple, ...]:
    try:
        out = tuple(map(tuple, rows))
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
    if msg.reports != ():  # the default: nothing to check
        bundles = tuple([
            (
                holder,
                n,
                () if peers == () else _usage_rows(peers, int, str, (int, float)),
                () if links == () else _usage_rows(links, int, int, (int, float)),
                sent,
            )
            for holder, n, peers, links, sent in _usage_rows(
                msg.reports, int, int, object, object, int
            )
        ])
        object.__setattr__(msg, "reports", bundles)
    if not isinstance(msg.discovery, (int, float, type(None))):
        raise CodecError(f"malformed reservation report discovery rtt: {msg.discovery!r}")


@_message(
    request_id=_I64, parent=_PROBE, function=_STR, component=_Obj(ServiceMetadata),
    graph=_Obj(FunctionGraph), applied=_PAIRS, budget=_I32, lookup_rtt=_F64, credit=_I64,
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
        object.__setattr__(self, "applied", tuple(map(tuple, self.applied)))
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
    ``{function: [querier peers]}`` — so the registrant can invalidate
    exactly the peers that may cache the old rows (see
    :class:`ReplicaInvalidate`)."""

    specs: Tuple[ComponentSpec, ...]
    registered_at: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))


@_message(function=_STR, origin_peer=_I32)
@dataclass(frozen=True)
class LookupRequest:
    """Querying peer → directory owner: a function's duplicate list.

    The reply, ``{"components": rows}``, carries the owner slice's
    ``ServiceMetadata`` rows; the querier computes the lookup RTT itself
    from the DHT route it took to find the owner, and the owner notes
    ``origin_peer`` as a peer that may now cache the rows."""

    function: str
    origin_peer: int


@_message(function=_STR)
@dataclass(frozen=True)
class ReplicaInvalidate:
    """Registrant → the key's queriers: a function's rows changed.

    Fan-out sent (and awaited) by ``register_components`` after a
    content-changing re-registration, to every peer the directory
    replicas saw query the function: recipients drop their cached entry
    for ``function`` (and forget a lookup of it still in flight), so
    the next lookup re-resolves."""

    function: str


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
